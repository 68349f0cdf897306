//! EBR — epoch-based reclamation (Fraser 2004, Hart et al. 2007).
//!
//! Threads entering a critical section publish the current global epoch;
//! retired nodes are tagged with the epoch at retirement and reclaimed once
//! the global epoch has advanced by two, which implies every thread active at
//! retirement has since passed through a quiescent point.
//!
//! EBR is the paper's "fast but fragile" baseline: it imposes almost no
//! per-access overhead (a single epoch announcement per operation) and is
//! compatible with every data structure, but a single stalled thread freezes
//! the global epoch and memory grows without bound — the behaviour exercised
//! by the `stalled_reader` example and the fault-injection harness.
//!
//! Retired-but-unreclaimed nodes live in the domain's [`Limbo`] vaults, so
//! when a thread dies without dropping its handle a survivor can adopt the
//! vault: the dead slot's epoch announcement is forced to `INACTIVE` (sound —
//! the owner can issue no further loads) and its vault drains into the shared
//! orphan list.

use crate::block::Retired;
use crate::ptr::{Atomic, Shared};
use crate::record::{DomainCore, HandleCore, Limbo};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Epoch value meaning "not in a critical section".
const INACTIVE: u64 = 0;
/// First valid epoch.  Starting above `INACTIVE + 2` keeps the "retire epoch
/// + 2" comparison free of underflow special cases.
const FIRST_EPOCH: u64 = 4;

struct EbrSlot {
    /// Epoch announced by the slot's owner, or [`INACTIVE`].
    epoch: AtomicU64,
}

/// The epoch-based reclamation domain.
pub struct Ebr {
    core: DomainCore,
    limbo: Limbo,
    global_epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<EbrSlot>]>,
}

impl Smr for Ebr {
    type Handle = EbrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let core = DomainCore::new(config);
        let n = core.config.max_threads;
        Arc::new(Self {
            limbo: Limbo::new(n),
            global_epoch: CachePadded::new(AtomicU64::new(FIRST_EPOCH)),
            slots: (0..n)
                .map(|_| {
                    CachePadded::new(EbrSlot {
                        epoch: AtomicU64::new(INACTIVE),
                    })
                })
                .collect(),
            core,
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<EbrHandle, SmrError> {
        Ok(EbrHandle {
            core: self.core.try_register()?,
            domain: self.clone(),
        })
    }

    fn unreclaimed(&self) -> usize {
        self.core.unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Ebr
    }
}

impl Ebr {
    /// Attempts to advance the global epoch.  Succeeds only if every active
    /// thread has announced the current epoch — the quiescence condition that
    /// a stalled thread blocks forever.
    fn try_advance(&self) -> u64 {
        let global = self.global_epoch.load(Ordering::SeqCst);
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let e = slot.epoch.load(Ordering::SeqCst);
            if e != INACTIVE && e != global {
                return global;
            }
        }
        // A failed CAS means another thread advanced it; either way the epoch
        // is now at least `global`.
        let _ = self.global_epoch.compare_exchange(
            global,
            global + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.global_epoch.load(Ordering::SeqCst)
    }

    /// A block is free once the global epoch is two past its retire epoch:
    /// every thread active at retirement has since passed a quiescent point,
    /// so no protected reference remains.
    fn can_free(&self) -> impl FnMut(&Retired) -> bool {
        let global = self.global_epoch.load(Ordering::SeqCst);
        move |r| r.retire_era().saturating_add(2) <= global
    }

    fn neutralize(&self, slot: usize) {
        self.slots[slot].epoch.store(INACTIVE, Ordering::SeqCst);
    }
}

/// Per-thread handle for [`Ebr`].
pub struct EbrHandle {
    domain: Arc<Ebr>,
    core: HandleCore,
}

impl SmrHandle for EbrHandle {
    type Guard<'g>
        = EbrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> EbrGuard<'_> {
        self.core.check_owner(&self.domain.core);
        let slot = &self.domain.slots[self.core.index()];
        // Publish the epoch we observed and confirm it is still current; if it
        // moved we re-announce so we never run a critical section under an
        // announcement older than the epoch we entered at.
        let announced = loop {
            let e = self.domain.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
            if self.domain.global_epoch.load(Ordering::SeqCst) == e {
                break e;
            }
        };
        EbrGuard {
            handle: self,
            announced,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        let d = &*self.domain;
        d.try_advance();
        // SAFETY: `can_free` accepts only blocks retired two epochs before
        // the current global epoch (the grace-period argument on `Ebr::can_free`).
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

impl Drop for EbrHandle {
    fn drop(&mut self) {
        let d = &*self.domain;
        // SAFETY: as in `flush` — the grace-period predicate.
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

/// Critical-section guard for [`Ebr`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct EbrGuard<'g> {
    handle: &'g mut EbrHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
    /// The epoch this guard's slot currently announces; [`SmrGuard::repin`]
    /// elides the re-announce fences whenever the global epoch still equals
    /// it (the common case, since the announcement itself is what holds the
    /// epoch back).
    announced: u64,
}

impl Drop for EbrGuard<'_> {
    fn drop(&mut self) {
        let domain = &self.handle.domain;
        domain.slots[self.handle.core.index()]
            .epoch
            .store(INACTIVE, Ordering::Release);
    }
}

impl SmrGuard for EbrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The epoch announcement made at `pin` already protects everything
        // reachable; per-pointer work is unnecessary, which is precisely why
        // EBR is the paper's performance yardstick.
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(&mut self, _idx: usize, _ptr: Shared<T>) {}

    #[inline]
    fn dup(&mut self, _from: usize, _to: usize) {}

    #[inline]
    fn clear(&mut self, _idx: usize) {}

    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        Shared::from_ptr(self.handle.core.alloc(value))
    }

    // SAFETY: callers must guarantee `ptr` has been unlinked from every shared location before retiring it.
    unsafe fn retire<T: Send + 'static>(&mut self, ptr: Shared<T>) {
        let handle = &mut *self.handle;
        let d = &*handle.domain;
        // ORDERING: Relaxed — per-location coherence keeps the epoch read no
        // older than the announcement made at `pin` (re-read there with
        // SeqCst), which is all the `retire + 2 <= global` comparison needs,
        // and the stamp itself is published to sweepers through the vault
        // mutex.
        let epoch = d.global_epoch.load(Ordering::Relaxed);
        // SAFETY: forwarded — the caller guarantees the retire contract.
        let pending = unsafe { d.limbo.push(&d.core, handle.core.index(), ptr, Some(epoch)) };
        if pending >= d.core.config.scan_threshold {
            // Amortized reclamation: one epoch-advance attempt plus a sweep of
            // the local vault per `scan_threshold` retirements (§5).
            handle.flush();
        }
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — the caller guarantees `ptr` was never published.
        unsafe { self.handle.core.dealloc(ptr) };
    }

    #[inline]
    fn repin(&mut self) {
        // Repin elision: while the global epoch still equals the epoch this
        // guard announced, a drop+pin pair would re-announce the very same
        // value — skip the store/re-read fence sequence entirely.  One SeqCst
        // load replaces the SeqCst store + SeqCst re-read of a full pin.
        let domain = &self.handle.domain;
        let global = domain.global_epoch.load(Ordering::SeqCst);
        if global == self.announced {
            return;
        }
        let slot = &domain.slots[self.handle.core.index()];
        self.announced = loop {
            let e = domain.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
            if domain.global_epoch.load(Ordering::SeqCst) == e {
                break e;
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 4,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn retired_nodes_are_eventually_freed() {
        let d = Ebr::new(small_config());
        let mut h = d.register();
        for i in 0..64u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // Repeated flushes advance the epoch twice past the last retirement.
        for _ in 0..4 {
            h.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn stalled_guard_blocks_reclamation() {
        let d = Ebr::new(small_config());
        let mut stalled = d.register();
        let mut worker = d.register();

        // `stalled` enters a critical section and never leaves.
        let _guard = stalled.pin();

        for i in 0..256u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        // The stalled thread pins an old epoch: nothing can be reclaimed from
        // (at most) two epochs onward, so the limbo population stays large.
        assert!(
            d.unreclaimed() > 128,
            "EBR should not reclaim past a stalled thread (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn repin_elides_until_epoch_moves_and_reannounces_after() {
        let d = Ebr::new(small_config());
        let mut h = d.register();
        let mut g = h.pin();
        let announced = d.slots[0].epoch.load(Ordering::SeqCst);
        g.repin();
        assert_eq!(
            d.slots[0].epoch.load(Ordering::SeqCst),
            announced,
            "repin with an unmoved epoch must elide the re-announce"
        );
        // Our announcement equals the global epoch, so it is free to advance.
        d.try_advance();
        g.repin();
        assert_eq!(
            d.slots[0].epoch.load(Ordering::SeqCst),
            announced + 1,
            "repin must re-announce once the epoch moved"
        );
        drop(g);
    }

    #[test]
    fn guard_held_across_repins_does_not_freeze_the_epoch() {
        // The pin-batch scenario: one guard held across many operations with
        // repin at each boundary must not behave like a stalled reader.
        let d = Ebr::new(small_config());
        let mut holder = d.register();
        let mut worker = d.register();
        let mut g = holder.pin();
        for i in 0..256u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
            drop(wg);
            g.repin();
        }
        worker.flush();
        drop(g);
        worker.flush();
        assert!(
            d.unreclaimed() < 128,
            "repin at op boundaries must let the epoch advance (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn epoch_advances_without_active_threads() {
        let d = Ebr::new(small_config());
        let before = d.global_epoch.load(Ordering::SeqCst);
        let after = d.try_advance();
        assert!(after > before);
    }

    #[test]
    fn multi_threaded_retire_storm_reclaims_everything() {
        let d = Ebr::new(SmrConfig {
            max_threads: 8,
            scan_threshold: 16,
            ..SmrConfig::default()
        });
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    let mut h = d.register();
                    for i in 0..1000u64 {
                        let mut g = h.pin();
                        let p = g.alloc(t * 10_000 + i);
                        // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                        unsafe { g.retire(p) };
                    }
                    for _ in 0..8 {
                        h.flush();
                    }
                });
            }
        });
        let mut h = d.register();
        for _ in 0..8 {
            h.flush();
        }
        drop(h);
        assert_eq!(d.unreclaimed(), 0);
    }
}
