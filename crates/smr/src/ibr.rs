//! IBR — interval-based reclamation (Wen et al. 2018), 2GEIBR variant.
//!
//! Instead of one reservation per traversal role (HP/HE), each thread
//! maintains a single *interval* `[lower, upper]` of eras: `lower` is set when
//! the operation begins and `upper` is extended to the current era every time
//! a pointer is read.  A retired object is reclaimable once no thread's
//! interval overlaps the object's lifetime `[birth_era, retire_era]`.
//!
//! Because protection is attached to the operation rather than to individual
//! pointers, `dup`, `announce` and `clear` are no-ops and the hazard-slot
//! indices passed by data structures are ignored — this is the "simpler
//! programming model" the paper credits IBR with (§2.2.4).  The safety
//! contract is the same as for HP/HE: data structures must not traverse past
//! physically-unlinked nodes, which is exactly what SCOT validation (or the
//! Harris-Michael eager unlink) guarantees.

use crate::block::{header_of, Retired};
use crate::ptr::{Atomic, Shared};
use crate::record::{DomainCore, HandleCore, Limbo};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First era handed out.
const FIRST_ERA: u64 = 1;

struct IbrSlot {
    /// Era at the start of the current operation; `u64::MAX` when inactive.
    lower: AtomicU64,
    /// Most recent era observed during the current operation; `0` when
    /// inactive, so the empty interval `[MAX, 0]` overlaps nothing.
    upper: AtomicU64,
}

/// The interval-based reclamation domain.
pub struct Ibr {
    core: DomainCore,
    limbo: Limbo,
    global_era: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<IbrSlot>]>,
}

impl Smr for Ibr {
    type Handle = IbrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let core = DomainCore::new(config);
        let n = core.config.max_threads;
        Arc::new(Self {
            limbo: Limbo::new(n),
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
            slots: (0..n)
                .map(|_| {
                    CachePadded::new(IbrSlot {
                        lower: AtomicU64::new(u64::MAX),
                        upper: AtomicU64::new(0),
                    })
                })
                .collect(),
            core,
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<IbrHandle, SmrError> {
        let core = self.core.try_register()?;
        let slot = &self.slots[core.index()];
        // ORDERING: Relaxed is enough for both resets — the slot is not yet
        // visible to sweepers (the claim above is what publishes it, and
        // `is_claimed` readers synchronize through the registry), so no other
        // thread can observe these stores out of order.
        slot.lower
            // ORDERING: the slot is newly claimed and not yet observed by reclamation scans; this reset is owner-only.
            .store(u64::MAX, Ordering::Relaxed);
        // ORDERING: the slot is newly claimed and not yet observed by reclamation scans; this reset is owner-only.
        slot.upper.store(0, Ordering::Relaxed);
        Ok(IbrHandle {
            domain: self.clone(),
            core,
            alloc_count: 0,
            retire_count: 0,
        })
    }

    fn unreclaimed(&self) -> usize {
        self.core.unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        if self.core.config.snapshot_scan {
            SmrKind::IbrOpt
        } else {
            SmrKind::Ibr
        }
    }
}

impl Ibr {
    /// True if some thread's interval overlaps `[birth, retire]`.
    fn is_protected(&self, birth: u64, retire: u64) -> bool {
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let lower = slot.lower.load(Ordering::SeqCst);
            let upper = slot.upper.load(Ordering::SeqCst);
            if birth <= upper && retire >= lower {
                return true;
            }
        }
        false
    }

    /// Snapshot of all active intervals (IBRopt sweep).
    fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut snap = Vec::with_capacity(self.core.config.max_threads);
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let lower = slot.lower.load(Ordering::SeqCst);
            let upper = slot.upper.load(Ordering::SeqCst);
            if lower <= upper {
                snap.push((lower, upper));
            }
        }
        snap
    }

    /// A retired node is free when no active interval overlaps its
    /// `[birth, retire]` lifetime: IBRopt checks one snapshot of the
    /// intervals taken after the node was retired; IBR rescans every claimed
    /// slot per record.
    fn can_free(&self) -> impl FnMut(&Retired) -> bool + '_ {
        let snap = self.core.config.snapshot_scan.then(|| self.snapshot());
        move |r| {
            let (birth, retire) = (r.birth_era(), r.retire_era());
            match &snap {
                Some(snap) => !snap.iter().any(|&(lo, hi)| birth <= hi && retire >= lo),
                None => !self.is_protected(birth, retire),
            }
        }
    }

    /// Collapses a dead or departing slot's interval to the empty `[MAX, 0]`.
    fn neutralize(&self, slot: usize) {
        self.slots[slot].lower.store(u64::MAX, Ordering::SeqCst);
        self.slots[slot].upper.store(0, Ordering::SeqCst);
    }
}

/// Per-thread handle for [`Ibr`].
pub struct IbrHandle {
    domain: Arc<Ibr>,
    core: HandleCore,
    alloc_count: usize,
    /// Retirements since the last cadence bump (always `< epoch_freq`).
    retire_count: usize,
}

impl SmrHandle for IbrHandle {
    type Guard<'g>
        = IbrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> IbrGuard<'_> {
        self.core.check_owner(&self.domain.core);
        let slot = &self.domain.slots[self.core.index()];
        let era = self.domain.global_era.load(Ordering::SeqCst);
        slot.upper.store(era, Ordering::SeqCst);
        slot.lower.store(era, Ordering::SeqCst);
        IbrGuard {
            cached_upper: era,
            cached_lower: era,
            handle: self,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        let d = &*self.domain;
        // SAFETY: `can_free` accepts only nodes whose lifetime no active
        // interval overlaps, so the block is unreachable and, dropped from
        // its list by the sweep, freed exactly once.
        unsafe {
            d.limbo.collect(
                &d.core,
                &mut self.core,
                |i| d.neutralize(i),
                || d.can_free(),
            )
        };
    }
}

impl Drop for IbrHandle {
    fn drop(&mut self) {
        let d = &*self.domain;
        // SAFETY: as in `flush` — the interval-overlap predicate.
        unsafe {
            d.limbo.release(
                &d.core,
                &mut self.core,
                |i| d.neutralize(i),
                || d.can_free(),
            )
        };
    }
}

/// Critical-section guard for [`Ibr`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct IbrGuard<'g> {
    handle: &'g mut IbrHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
    /// Local cache of the published `upper`, avoiding an atomic load per
    /// protect call on the fast path.
    cached_upper: u64,
    /// Local cache of the published `lower`; [`SmrGuard::repin`] elides the
    /// interval reset when the interval is already the point `[era, era]`.
    cached_lower: u64,
}

impl Drop for IbrGuard<'_> {
    fn drop(&mut self) {
        // Deactivating the interval on drop is what makes a panicking
        // operation release its protection (RAII unwind safety).
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        slot.lower.store(u64::MAX, Ordering::Release);
        slot.upper.store(0, Ordering::Release);
    }
}

impl SmrGuard for IbrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        let global = &self.handle.domain.global_era;
        loop {
            let ptr = src.load(Ordering::Acquire);
            let era = global.load(Ordering::SeqCst);
            if era == self.cached_upper {
                return ptr;
            }
            // The interval is extended *before* the pointer is re-read, so any
            // pointer we return was loaded under an already-published upper
            // bound covering its birth era.
            slot.upper.store(era, Ordering::SeqCst);
            self.cached_upper = era;
        }
    }

    #[inline]
    fn announce<T>(&mut self, _idx: usize, _ptr: Shared<T>) {
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        let era = self.handle.domain.global_era.load(Ordering::SeqCst);
        slot.upper.store(era, Ordering::SeqCst);
        self.cached_upper = era;
    }

    #[inline]
    fn dup(&mut self, _from: usize, _to: usize) {}

    #[inline]
    fn clear(&mut self, _idx: usize) {}

    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        let ptr = self.handle.core.alloc(value);
        // ORDERING: a Relaxed read of the era can only be *older* than the
        // real current era, which makes the birth stamp conservatively early
        // — strictly more protective for the interval-overlap test.  The
        // Relaxed store is published to sweepers by the vault mutex taken at
        // retire time.
        let era = self.handle.domain.global_era.load(Ordering::Relaxed);
        // SAFETY: `ptr` was just produced by `pool.alloc`, so its header is
        // live and exclusively ours until the pointer is published.
        // ORDERING: a Relaxed era read can only lag, stamping the birth era conservatively old.
        unsafe { (*header_of(ptr)).birth_era.store(era, Ordering::Relaxed) };
        self.handle.alloc_count += 1;
        if self
            .handle
            .alloc_count
            .is_multiple_of(self.handle.domain.core.config.epoch_freq())
        {
            self.handle.domain.global_era.fetch_add(1, Ordering::SeqCst);
        }
        Shared::from_ptr(ptr)
    }

    // SAFETY: callers must guarantee `ptr` has been unlinked from every shared location before retiring it.
    unsafe fn retire<T: Send + 'static>(&mut self, ptr: Shared<T>) {
        let handle = &mut *self.handle;
        let d = &*handle.domain;
        // ORDERING: a Relaxed era read here can only lag the true era, which
        // stamps the retirement conservatively *early* — never unsafe, at
        // worst it delays reclamation by one interval check.  The stamp is
        // published to sweepers by the vault mutex.
        let era = d.global_era.load(Ordering::Relaxed);
        // SAFETY: forwarded — the caller guarantees the retire contract.
        let pending = unsafe { d.limbo.push(&d.core, handle.core.index(), ptr, Some(era)) };
        // Era cadence: one bump per `epoch_freq` retirements.
        handle.retire_count += 1;
        if handle.retire_count >= d.core.config.epoch_freq() {
            d.global_era.fetch_add(1, Ordering::SeqCst);
            handle.retire_count = 0;
        }
        if pending >= d.core.config.scan_threshold {
            handle.flush();
        }
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — the caller guarantees `ptr` was never published.
        unsafe { self.handle.core.dealloc(ptr) };
    }

    /// Collapses the interval back to the point `[era, era]`, releasing every
    /// era the previous operations stretched it over.  Elided entirely when
    /// the interval is already that point — the common no-churn case, which
    /// skips both SeqCst stores.
    #[inline]
    fn repin(&mut self) {
        let domain = &self.handle.domain;
        let era = domain.global_era.load(Ordering::SeqCst);
        if era == self.cached_upper && era == self.cached_lower {
            return;
        }
        let slot = &domain.slots[self.handle.core.index()];
        // Same publication order as `pin`: extend `upper` first so the
        // interval never transiently excludes an era we might still observe,
        // then raise `lower` to drop the old coverage.
        slot.upper.store(era, Ordering::SeqCst);
        slot.lower.store(era, Ordering::SeqCst);
        self.cached_upper = era;
        self.cached_lower = era;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(snapshot: bool) -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: snapshot,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn kind_reflects_snapshot_mode() {
        assert_eq!(Ibr::new(config(false)).kind(), SmrKind::Ibr);
        assert_eq!(Ibr::new(config(true)).kind(), SmrKind::IbrOpt);
    }

    #[test]
    fn active_interval_protects_overlapping_lifetimes() {
        for snapshot in [false, true] {
            let d = Ibr::new(config(snapshot));
            let mut reader = d.register();
            let mut worker = d.register();

            let target = {
                let mut g = worker.pin();
                g.alloc(5u64)
            };
            let cell = Atomic::new(target);

            // Reader starts an operation overlapping the target's lifetime and
            // stalls inside it.
            {
                let mut g = reader.pin();
                let seen = g.protect(0, &cell);
                assert_eq!(seen, target);
                core::mem::forget(g);
            }
            {
                let mut g = worker.pin();
                // SAFETY: the node was unlinked by this test and is retired exactly once.
                unsafe { g.retire(target) };
            }
            worker.flush();
            assert_eq!(d.unreclaimed(), 1, "snapshot={snapshot}");

            // Simulate the reader finally finishing its operation.
            d.slots[0].lower.store(u64::MAX, Ordering::SeqCst);
            d.slots[0].upper.store(0, Ordering::SeqCst);
            worker.flush();
            assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot}");
        }
    }

    #[test]
    fn nodes_born_after_a_stalled_interval_are_reclaimable() {
        let d = Ibr::new(config(true));
        let mut stalled = d.register();
        let mut worker = d.register();
        {
            let g = stalled.pin();
            core::mem::forget(g);
        }
        // Advance the era and churn nodes that are born strictly after the
        // stalled thread's (frozen) upper bound: these must be reclaimed.
        for i in 0..512u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(
            d.unreclaimed() < 64,
            "IBR must reclaim nodes born after a stalled interval (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn guard_drop_deactivates_interval() {
        let d = Ibr::new(config(false));
        let mut h = d.register();
        {
            let _g = h.pin();
            assert!(
                d.slots[0].lower.load(Ordering::SeqCst) <= d.slots[0].upper.load(Ordering::SeqCst)
            );
        }
        assert_eq!(d.slots[0].lower.load(Ordering::SeqCst), u64::MAX);
        assert_eq!(d.slots[0].upper.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn repin_collapses_a_stretched_interval() {
        let d = Ibr::new(config(false));
        let mut h = d.register();
        let mut g = h.pin();
        let lower_at_pin = d.slots[0].lower.load(Ordering::SeqCst);
        // Stretch the interval: advance the era, then observe it via protect.
        d.global_era.fetch_add(3, Ordering::SeqCst);
        let p = g.alloc(1u64);
        let cell = Atomic::new(p);
        g.protect(0, &cell);
        assert!(d.slots[0].upper.load(Ordering::SeqCst) > lower_at_pin);
        assert_eq!(d.slots[0].lower.load(Ordering::SeqCst), lower_at_pin);
        g.repin();
        let era = d.global_era.load(Ordering::SeqCst);
        assert_eq!(d.slots[0].lower.load(Ordering::SeqCst), era);
        assert_eq!(d.slots[0].upper.load(Ordering::SeqCst), era);
        // A second repin with an unmoved era is the elided path: the interval
        // must stay the point [era, era].
        g.repin();
        assert_eq!(d.slots[0].lower.load(Ordering::SeqCst), era);
        assert_eq!(d.slots[0].upper.load(Ordering::SeqCst), era);
        // SAFETY: `p` was never published to another thread.
        unsafe { g.dealloc(p) };
    }

    #[test]
    fn guard_held_across_repins_does_not_freeze_reclamation() {
        let d = Ibr::new(config(true));
        let mut holder = d.register();
        let mut worker = d.register();
        let mut g = holder.pin();
        for i in 0..512u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
            drop(wg);
            g.repin();
        }
        worker.flush();
        assert!(
            d.unreclaimed() < 64,
            "repin at op boundaries must keep the interval narrow (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn everything_reclaimed_after_quiescence() {
        let d = Ibr::new(config(true));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let mut h = d.register();
                    for i in 0..1000u64 {
                        let mut g = h.pin();
                        let p = g.alloc(i);
                        // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                        unsafe { g.retire(p) };
                    }
                    h.flush();
                });
            }
        });
        let mut h = d.register();
        h.flush();
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }
}
