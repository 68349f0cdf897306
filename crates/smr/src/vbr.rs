//! VBR — version-based reclamation (Cohen's "Every Data Structure Deserves
//! Lock-Free Memory Reclamation"), epoch-displaced variant.
//!
//! Cohen's VBR never scans limbo lists: retired nodes go straight onto a
//! per-thread FIFO recycle queue and are handed back to the allocator in
//! retire-order, while readers that may still hold references detect the
//! reuse *after the fact* by re-checking a per-block version stamp.  This
//! module keeps that shape — O(1) retire, recycling in retire order through
//! the [`crate::BlockPool`]'s layout bins, a monotonic per-incarnation
//! version stamp in every block header, allocation-driven epoch advancement —
//! but gates the actual memory handoff on a two-epoch displacement bound
//! instead of unconditional reuse:
//!
//! * every operation announces the global epoch at [`SmrHandle::pin`];
//! * a recycle-queue entry is released to the pool once its retire epoch is
//!   two behind the minimum announced epoch (the queues are the shared
//!   [`crate::record::Limbo`] vaults, swept like every other vault scheme's);
//! * a reader whose announced epoch falls two behind the advancing global
//!   epoch is asked to restart through [`SmrGuard::needs_restart`] /
//!   [`SmrGuard::checkpoint`] (the same cursor-routed protocol as NBR), which
//!   re-announces the current epoch and lets recycling proceed past it.
//!
//! The reason for the gate is Rust-specific and spelled out in `DESIGN.md`:
//! the structure API hands out guard-scoped borrows (`&'g V`), and a borrow
//! into memory that is recycled mid-lifetime is undefined behavior even if a
//! later version re-check would discard the value — Cohen's deref-then-
//! validate is sound in C but not under Rust references.  The version stamp
//! ([`crate::block::version_of`]) still travels with every block and the
//! traversal cursor re-checks it on validation as a hardening layer; the
//! two-epoch bound is what turns "probably caught by validation" into a
//! memory-safety guarantee.  The price is the cooperative-caveat shared with
//! [`crate::Nbr`]: a reader that never polls pins the minimum epoch, so
//! [`SmrKind::is_robust`] reports `false`.

use crate::block::{header_of, Retired};
use crate::ptr::{Atomic, Shared};
use crate::record::{DomainCore, HandleCore, Limbo};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Epoch value meaning "not in a critical section".
const INACTIVE: u64 = 0;
/// First valid epoch; starting above `INACTIVE + 2` keeps the "retire epoch
/// + 2" comparison free of underflow special cases.
const FIRST_EPOCH: u64 = 4;

/// How many epochs a reader may lag the global epoch before it is asked to
/// restart.  One epoch of slack means an epoch tick does not stampede every
/// in-flight operation; two epochs of lag is exactly where the reader starts
/// delaying the recycle queue (entries retired at its announce epoch become
/// eligible only once the minimum rises).
const DISPLACEMENT_SLACK: u64 = 2;

struct VbrSlot {
    /// Epoch announced by the slot's owner, or [`INACTIVE`].
    epoch: AtomicU64,
}

/// The version-based reclamation domain.
pub struct Vbr {
    core: DomainCore,
    /// Per-slot recycle queues (vaults), in retire-epoch order.
    limbo: Limbo,
    global_epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<VbrSlot>]>,
    /// Total reader displacements acknowledged via `checkpoint` (diagnostic).
    displacements: AtomicU64,
}

impl Smr for Vbr {
    type Handle = VbrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let core = DomainCore::new(config);
        let n = core.config.max_threads;
        Arc::new(Self {
            limbo: Limbo::new(n),
            global_epoch: CachePadded::new(AtomicU64::new(FIRST_EPOCH)),
            slots: (0..n)
                .map(|_| {
                    CachePadded::new(VbrSlot {
                        epoch: AtomicU64::new(INACTIVE),
                    })
                })
                .collect(),
            displacements: AtomicU64::new(0),
            core,
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<VbrHandle, SmrError> {
        let core = self.core.try_register()?;
        self.slots[core.index()]
            .epoch
            // ORDERING: the slot is newly claimed and not yet observed by reclamation scans; this reset is owner-only.
            .store(INACTIVE, Ordering::Relaxed);
        Ok(VbrHandle {
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
        SmrKind::Vbr
    }
}

impl Vbr {
    /// Minimum epoch announced by any active slot, or `u64::MAX` when no
    /// thread is inside a critical section.
    fn min_active_epoch(&self) -> u64 {
        let mut min = u64::MAX;
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let e = slot.epoch.load(Ordering::SeqCst);
            if e != INACTIVE && e < min {
                min = e;
            }
        }
        min
    }

    /// A recycle entry is released to the pool once its retire epoch is two
    /// behind the minimum announced epoch: two full epochs have passed since
    /// retirement, so no reader can still be validating this incarnation.
    /// One `min_active_epoch` scan serves the whole sweep.
    fn can_free(&self) -> impl FnMut(&Retired) -> bool {
        let min = self.min_active_epoch();
        move |r| r.retire_era().saturating_add(2) <= min
    }

    /// Clears a dead or departing slot's epoch announcement.
    fn neutralize(&self, slot: usize) {
        self.slots[slot].epoch.store(INACTIVE, Ordering::SeqCst);
    }

    /// Total reader displacements acknowledged so far (diagnostic).
    pub fn displacements(&self) -> u64 {
        self.displacements.load(Ordering::Relaxed)
    }
}

/// Per-thread handle for [`Vbr`].
pub struct VbrHandle {
    domain: Arc<Vbr>,
    core: HandleCore,
    alloc_count: usize,
    /// Retirements since the last cadence bump (always `< epoch_freq`).
    retire_count: usize,
}

impl VbrHandle {
    /// Sweeps and adopts, then returns how many entries this handle's queue
    /// still holds.
    fn scan(&mut self) -> usize {
        let d = &*self.domain;
        // SAFETY: `can_free` accepts only entries two epochs behind every
        // announced epoch, which no reader can still reach.
        unsafe {
            d.limbo.collect(
                &d.core,
                &mut self.core,
                |i| d.neutralize(i),
                || d.can_free(),
            )
        };
        d.limbo.pending(self.core.index())
    }
}

impl SmrHandle for VbrHandle {
    type Guard<'g>
        = VbrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> VbrGuard<'_> {
        self.core.check_owner(&self.domain.core);
        let slot = &self.domain.slots[self.core.index()];
        let op_epoch = loop {
            let e = self.domain.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
            if self.domain.global_epoch.load(Ordering::SeqCst) == e {
                break e;
            }
        };
        VbrGuard {
            op_epoch,
            handle: self,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        if self.scan() > 0 {
            // Entries retired at the current epoch need the epoch to move two
            // ticks before any quiescent observer may release them.
            let d = &*self.domain;
            d.global_epoch.fetch_add(1, Ordering::SeqCst);
            // SAFETY: as in `scan` — the two-epoch predicate.
            unsafe { d.limbo.sweep(&d.core, &mut self.core, || d.can_free()) };
        }
    }
}

impl Drop for VbrHandle {
    fn drop(&mut self) {
        let d = &*self.domain;
        // SAFETY: as in `scan` — the two-epoch predicate.
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

/// Critical-section guard for [`Vbr`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct VbrGuard<'g> {
    handle: &'g mut VbrHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
    /// Epoch announced for this operation (re-announced by `checkpoint`).
    op_epoch: u64,
}

impl Drop for VbrGuard<'_> {
    fn drop(&mut self) {
        // Deactivating the epoch announcement on drop also covers panicking
        // operations (RAII unwind safety).
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        slot.epoch.store(INACTIVE, Ordering::Release);
    }
}

impl SmrGuard for VbrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The epoch announced at pin (or the last checkpoint) holds the
        // recycle queues back; per-pointer work is unnecessary.
        src.load(Ordering::Acquire)
    }

    #[inline]
    fn announce<T>(&mut self, _idx: usize, _ptr: Shared<T>) {}

    #[inline]
    fn dup(&mut self, _from: usize, _to: usize) {}

    #[inline]
    fn clear(&mut self, _idx: usize) {}

    fn alloc<T: Send + 'static>(&mut self, value: T) -> Shared<T> {
        let ptr = self.handle.core.alloc(value);
        // ORDERING: an approximate epoch read is fine here -- VBR safety rests on version-stamp validation, not on epoch precision.
        let epoch = self.handle.domain.global_epoch.load(Ordering::Relaxed);
        // SAFETY: `ptr` was just handed out by the pool, so the header is initialized and unaliased.
        // ORDERING: the birth-era stamp becomes visible via the Release publish that first links the block.
        unsafe { (*header_of(ptr)).birth_era.store(epoch, Ordering::Relaxed) };
        self.handle.alloc_count += 1;
        if self
            .handle
            .alloc_count
            .is_multiple_of(self.handle.domain.core.config.epoch_freq())
        {
            // Allocation-driven epoch advancement: reuse pressure, not limbo
            // growth, is what moves the clock under VBR.
            self.handle
                .domain
                .global_epoch
                .fetch_add(1, Ordering::SeqCst);
        }
        Shared::from_ptr(ptr)
    }

    // SAFETY: callers must guarantee `ptr` has been unlinked from every shared location before retiring it.
    unsafe fn retire<T: Send + 'static>(&mut self, ptr: Shared<T>) {
        let handle = &mut *self.handle;
        let d = &*handle.domain;
        // ORDERING: Relaxed — a stale epoch read only delays reclamation;
        // safety comes from the two-era grace-period check.  The stamp only
        // has to be no older than the epoch this thread announced at its last
        // checkpoint (published with SeqCst there), and it reaches the
        // recycler through the vault mutex.
        let epoch = d.global_epoch.load(Ordering::Relaxed);
        // SAFETY: forwarded — the caller guarantees the retire contract.
        let pending = unsafe { d.limbo.push(&d.core, handle.core.index(), ptr, Some(epoch)) };
        // Epoch cadence: one bump per `epoch_freq` retirements.
        handle.retire_count += 1;
        if handle.retire_count >= d.core.config.epoch_freq() {
            d.global_epoch.fetch_add(1, Ordering::SeqCst);
            handle.retire_count = 0;
        }
        let threshold = d.core.config.scan_threshold;
        if pending >= threshold && handle.scan() >= threshold {
            // Still blocked: advance the epoch so lagging readers trip the
            // displacement bound and re-announce.
            handle.domain.global_epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — the caller guarantees `ptr` was never
        // published.  VBR's version stamp is irrelevant here — an unpublished
        // block has no readers to displace.
        unsafe { self.handle.core.dealloc(ptr) };
    }

    #[inline]
    fn needs_restart(&self) -> bool {
        let global = self.handle.domain.global_epoch.load(Ordering::Acquire);
        global.saturating_sub(self.op_epoch) >= DISPLACEMENT_SLACK
    }

    /// Re-announces the current epoch at an op boundary — same announcement
    /// protocol as `checkpoint`, but without bumping the displacement
    /// diagnostic (a repin is routine housekeeping, not a sweep-forced
    /// restart).  Elided entirely when the epoch has not moved.
    #[inline]
    fn repin(&mut self) {
        let domain = &self.handle.domain;
        let global = domain.global_epoch.load(Ordering::SeqCst);
        if global == self.op_epoch {
            return;
        }
        let slot = &domain.slots[self.handle.core.index()];
        // The loop breaks with exactly the epoch stored into the slot, so the
        // cached `op_epoch` can never run ahead of the announcement (a cached
        // value ahead of the slot would elide forever while the stale
        // announcement pins the recycle queues).
        self.op_epoch = loop {
            let e = domain.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
            if domain.global_epoch.load(Ordering::SeqCst) == e {
                break e;
            }
        };
    }

    #[inline]
    fn checkpoint(&mut self) {
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        self.op_epoch = loop {
            let e = self.handle.domain.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
            if self.handle.domain.global_epoch.load(Ordering::SeqCst) == e {
                break e;
            }
        };
        self.handle
            .domain
            .displacements
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::version_of;

    fn small_config() -> SmrConfig {
        SmrConfig {
            max_threads: 4,
            scan_threshold: 4,
            epoch_freq_per_thread: 1,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn quiescent_flush_drains_to_zero() {
        let d = Vbr::new(small_config());
        let mut h = d.register();
        for i in 0..64u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        for _ in 0..4 {
            h.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn retired_blocks_are_recycled_with_bumped_versions() {
        let d = Vbr::new(small_config());
        let mut h = d.register();
        // Churn enough for the recycle queue to feed the pool and for the
        // pool to hand memory back out.
        let mut max_version = 0;
        for i in 0..512u64 {
            let mut g = h.pin();
            let p = g.alloc(i);
            // SAFETY: `p` is live and owned by this test.
            max_version = max_version.max(unsafe { version_of(p.as_ptr()) });
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        assert!(
            max_version > 0,
            "VBR churn must recycle memory through the pool (version stamp)"
        );
    }

    #[test]
    fn lagging_reader_is_displaced() {
        let d = Vbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        assert!(!g.needs_restart());

        // Alloc/retire churn advances the epoch (epoch_freq = 4 here) until
        // the reader is two behind.
        for i in 0..64u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        assert!(
            g.needs_restart(),
            "a reader two epochs behind must be asked to restart"
        );
        g.checkpoint();
        assert!(!g.needs_restart());
        assert!(d.displacements() > 0);
        let epoch = d.global_epoch.load(Ordering::SeqCst);
        assert_eq!(
            d.slots[0].epoch.load(Ordering::SeqCst),
            epoch,
            "checkpoint must re-announce the current epoch"
        );
        drop(g);
        for _ in 0..4 {
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn cooperative_reader_does_not_block_recycling() {
        let d = Vbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();
        let mut g = reader.pin();
        for i in 0..128u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
            if g.needs_restart() {
                g.checkpoint();
            }
        }
        if g.needs_restart() {
            g.checkpoint();
        }
        for _ in 0..4 {
            worker.flush();
            if g.needs_restart() {
                g.checkpoint();
            }
        }
        assert!(
            d.unreclaimed() <= 4,
            "a checkpointing reader must not pin the recycle queues (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn uncooperative_reader_blocks_recycling() {
        let d = Vbr::new(small_config());
        let mut stalled = d.register();
        let mut worker = d.register();
        let _guard = stalled.pin();
        for i in 0..256u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        worker.flush();
        assert!(
            d.unreclaimed() > 128,
            "VBR must not recycle past an uncooperative reader (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn repin_reannounces_without_counting_as_displacement() {
        let d = Vbr::new(small_config());
        let mut h = d.register();
        let mut g = h.pin();
        let announced = d.slots[0].epoch.load(Ordering::SeqCst);
        g.repin();
        assert_eq!(
            d.slots[0].epoch.load(Ordering::SeqCst),
            announced,
            "repin with an unmoved epoch must elide"
        );
        d.global_epoch.fetch_add(1, Ordering::SeqCst);
        g.repin();
        assert_eq!(
            d.slots[0].epoch.load(Ordering::SeqCst),
            announced + 1,
            "repin must re-announce after the epoch moved"
        );
        assert!(
            !g.needs_restart(),
            "a freshly repinned reader is not displaced"
        );
        assert_eq!(d.displacements(), 0, "repin is not a displacement");
        drop(g);
    }

    #[test]
    fn guard_held_across_repins_does_not_block_recycling() {
        let d = Vbr::new(small_config());
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
        assert!(
            d.unreclaimed() < 128,
            "a reader repinning at op boundaries must not pin the queues (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn fifo_drain_stops_at_the_first_protected_entry() {
        let d = Vbr::new(SmrConfig {
            max_threads: 4,
            scan_threshold: 1024, // no automatic drains
            epoch_freq_per_thread: 1024,
            ..SmrConfig::default()
        });
        let mut worker = d.register();
        let mut reader = d.register();
        // Two entries retired at the initial epoch...
        for i in 0..2u64 {
            let mut g = worker.pin();
            let p = g.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { g.retire(p) };
        }
        // ...epoch moves two ahead, a reader pins at the new epoch...
        d.global_epoch.fetch_add(2, Ordering::SeqCst);
        let g = reader.pin();
        // ...and two more entries are retired at the reader's epoch.
        {
            let mut wg = worker.pin();
            for i in 10..12u64 {
                let p = wg.alloc(i);
                // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
                unsafe { wg.retire(p) };
            }
        }
        assert_eq!(d.unreclaimed(), 4);
        worker.scan();
        assert_eq!(
            d.unreclaimed(),
            2,
            "the pre-pin prefix drains, the reader-epoch suffix stays"
        );
        drop(g);
    }

    #[test]
    fn multi_threaded_churn_reclaims_everything() {
        let d = Vbr::new(SmrConfig {
            max_threads: 8,
            scan_threshold: 16,
            epoch_freq_per_thread: 1,
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
                        if g.needs_restart() {
                            g.checkpoint();
                        }
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
