//! NBR — neutralization-based reclamation (Brown's DEBRA+ line), cooperative
//! variant.
//!
//! Like EBR, every operation publishes an era (its *checkpoint*) and a retired
//! node is reclaimable once every active thread's checkpoint is two eras past
//! its retirement.  Unlike EBR, the global era does not wait for laggards:
//! when a sweep finds the minimum checkpoint blocking its limbo list, it bumps
//! the global era and raises a per-thread *neutralize* flag on every lagging
//! reader.  A cooperative reader polls the flag through
//! [`SmrGuard::needs_restart`] at restart-safe points of its traversal (the
//! `scot` cursor does this), acknowledges with [`SmrGuard::checkpoint`] —
//! which discards all of its protections and re-announces the current era —
//! and restarts from the structure root.  The minimum checkpoint then rises
//! and the blocked sweep succeeds.
//!
//! DEBRA+ neutralizes readers *preemptively* with a POSIX signal, which makes
//! it robust against stalled threads.  Signals cannot restart a Rust
//! traversal safely (the paper's own artifact confines them to setjmp-style
//! recovery code), so this variant is cooperative: safety is carried entirely
//! by the published checkpoint eras, and the flag is only a progress
//! accelerator.  A reader that never polls keeps its checkpoint pinned and
//! blocks reclamation exactly like a stalled EBR reader — which is why
//! [`SmrKind::is_robust`] reports `false` for NBR.

use crate::block::Retired;
use crate::ptr::{Atomic, Shared};
use crate::record::{DomainCore, HandleCore, Limbo};
use crate::{Smr, SmrConfig, SmrError, SmrGuard, SmrHandle, SmrKind};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Checkpoint value meaning "not in a critical section".
const INACTIVE: u64 = 0;
/// First valid era; starting above `INACTIVE + 2` keeps the "retire era + 2"
/// comparison free of underflow special cases.
const FIRST_ERA: u64 = 4;

struct NbrSlot {
    /// Era announced by the slot's owner at pin/checkpoint, or [`INACTIVE`].
    checkpoint: AtomicU64,
    /// Raised by a blocked sweep to ask the owner to checkpoint; cleared by
    /// the owner when it does (or when it pins afresh).
    neutralize: AtomicBool,
}

/// The neutralization-based reclamation domain.
pub struct Nbr {
    core: DomainCore,
    limbo: Limbo,
    global_era: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<NbrSlot>]>,
    /// Total neutralize flags raised by blocked sweeps (monotonic; a
    /// diagnostic mirror of how often reclamation had to push readers).
    neutralizations: AtomicU64,
}

impl Smr for Nbr {
    type Handle = NbrHandle;

    fn new(config: SmrConfig) -> Arc<Self> {
        let core = DomainCore::new(config);
        let n = core.config.max_threads;
        Arc::new(Self {
            limbo: Limbo::new(n),
            global_era: CachePadded::new(AtomicU64::new(FIRST_ERA)),
            slots: (0..n)
                .map(|_| {
                    CachePadded::new(NbrSlot {
                        checkpoint: AtomicU64::new(INACTIVE),
                        neutralize: AtomicBool::new(false),
                    })
                })
                .collect(),
            neutralizations: AtomicU64::new(0),
            core,
        })
    }

    fn try_register(self: &Arc<Self>) -> Result<NbrHandle, SmrError> {
        let core = self.core.try_register()?;
        let slot = &self.slots[core.index()];
        // ORDERING: Relaxed is enough for both resets — the slot is not yet
        // visible to sweepers (the claim above publishes it, and `is_claimed`
        // readers synchronize through the registry).
        slot.checkpoint
            // ORDERING: the slot is newly claimed and not yet observed by reclamation scans; this reset is owner-only.
            .store(INACTIVE, Ordering::Relaxed);
        slot.neutralize
            // ORDERING: the slot is newly claimed and not yet observed by reclamation scans; this reset is owner-only.
            .store(false, Ordering::Relaxed);
        Ok(NbrHandle {
            domain: self.clone(),
            core,
        })
    }

    fn unreclaimed(&self) -> usize {
        self.core.unreclaimed()
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Nbr
    }
}

impl Nbr {
    /// Minimum checkpoint era over all active slots, or `u64::MAX` when no
    /// thread is inside a critical section (everything retired is then safe).
    fn min_checkpoint(&self) -> u64 {
        let mut min = u64::MAX;
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let c = slot.checkpoint.load(Ordering::SeqCst);
            if c != INACTIVE && c < min {
                min = c;
            }
        }
        min
    }

    /// A block is free once it was retired at least two eras before the
    /// minimum active checkpoint.  A reader checkpointed at era `C` can only
    /// reach nodes retired at `C - 1` or later (anything older was unlinked
    /// before the reader announced `C`), so `retire + 2 <= C` leaves one era
    /// of slack — the same grace argument as EBR, with the quiescence check
    /// moved from the epoch-advance path to the sweep itself.
    fn can_free(&self) -> impl FnMut(&Retired) -> bool {
        let min = self.min_checkpoint();
        move |r| r.retire_era().saturating_add(2) <= min
    }

    /// Clears a dead or departing slot's checkpoint (its protection
    /// requirement has lapsed) plus its pending neutralize flag.
    fn neutralize(&self, slot: usize) {
        self.slots[slot]
            .checkpoint
            .store(INACTIVE, Ordering::SeqCst);
        // ORDERING: Relaxed — the flag is advisory (a progress hint, never a
        // safety signal) and the departed owner will never poll it again;
        // the registry's slot handoff publishes it to the next claimant.
        self.slots[slot].neutralize.store(false, Ordering::Relaxed);
    }

    /// The neutralization step: bumps the global era and raises the
    /// neutralize flag on every active reader still checkpointed below it.
    /// Called when a sweep leaves its limbo list over the scan threshold —
    /// i.e. exactly when lagging readers are what blocks reclamation.
    fn neutralize_laggards(&self) {
        let era = self.global_era.fetch_add(1, Ordering::SeqCst) + 1;
        let mut raised = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.core.registry.is_claimed(i) {
                continue;
            }
            let c = slot.checkpoint.load(Ordering::SeqCst);
            if c != INACTIVE && c < era && !slot.neutralize.swap(true, Ordering::AcqRel) {
                raised += 1;
            }
        }
        if raised > 0 {
            // ORDERING: Relaxed — a monotonic statistics counter read only by
            // the diagnostic accessor; no other memory depends on it.
            self.neutralizations.fetch_add(raised, Ordering::Relaxed);
        }
    }

    /// Total neutralize flags raised so far (diagnostic).
    pub fn neutralizations(&self) -> u64 {
        // ORDERING: Relaxed — statistics read, see `neutralize_laggards`.
        self.neutralizations.load(Ordering::Relaxed)
    }
}

/// Per-thread handle for [`Nbr`].
pub struct NbrHandle {
    domain: Arc<Nbr>,
    core: HandleCore,
}

impl NbrHandle {
    /// Publishes the current global era as this thread's checkpoint,
    /// confirming it is still current, and clears a pending neutralize flag —
    /// the shared body of `pin` and `checkpoint`.
    fn announce_checkpoint(&mut self) {
        let slot = &self.domain.slots[self.core.index()];
        // ORDERING: Relaxed — the flag is a progress hint, not a safety
        // signal; clearing it late at worst triggers one redundant restart.
        slot.neutralize.store(false, Ordering::Relaxed);
        loop {
            let e = self.domain.global_era.load(Ordering::SeqCst);
            slot.checkpoint.store(e, Ordering::SeqCst);
            if self.domain.global_era.load(Ordering::SeqCst) == e {
                break;
            }
        }
    }

    /// Sweeps and adopts; then, if at least `backlog` entries are still
    /// pending in this handle's vault, readers are what blocks us: neutralize
    /// them and retry once — flags raised now typically pay off at the
    /// *next* scan, but a quiescent domain drains immediately.
    fn scan(&mut self, backlog: usize) {
        let d = &*self.domain;
        let idx = self.core.index();
        // SAFETY: `can_free` accepts only entries retired two eras before
        // every active checkpoint, which no thread can still reach (the grace
        // argument on `Nbr::can_free`).
        unsafe {
            d.limbo.collect(
                &d.core,
                &mut self.core,
                |i| d.neutralize(i),
                || d.can_free(),
            )
        };
        if d.limbo.pending(idx) >= backlog {
            d.neutralize_laggards();
            // SAFETY: as above.
            unsafe { d.limbo.sweep(&d.core, &mut self.core, || d.can_free()) };
        }
    }
}

impl SmrHandle for NbrHandle {
    type Guard<'g>
        = NbrGuard<'g>
    where
        Self: 'g;

    fn pin(&mut self) -> NbrGuard<'_> {
        self.core.check_owner(&self.domain.core);
        self.announce_checkpoint();
        NbrGuard {
            handle: self,
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn flush(&mut self) {
        self.domain.global_era.fetch_add(1, Ordering::SeqCst);
        // A forced flush is the impatient path: neutralize whoever blocks
        // even a single entry.
        self.scan(1);
    }
}

impl Drop for NbrHandle {
    fn drop(&mut self) {
        let d = &*self.domain;
        // SAFETY: as in `scan` — the checkpoint grace predicate.
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

/// Critical-section guard for [`Nbr`].
#[must_use = "dropping a guard unpublishes every protection it holds"]
pub struct NbrGuard<'g> {
    handle: &'g mut NbrHandle,
    /// Makes the guard `!Send`/`!Sync`: a guard is the pinning thread's
    /// read-side critical section, and the slot registry's liveness beacon
    /// tracks exactly that thread (see [`crate::registry`]) -- a guard that
    /// crossed threads could see its protections neutralized when the
    /// pinning thread exits.
    _thread_bound: std::marker::PhantomData<*mut ()>,
}

impl Drop for NbrGuard<'_> {
    fn drop(&mut self) {
        // Deactivating the checkpoint on drop also covers panicking
        // operations (RAII unwind safety).
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        slot.checkpoint.store(INACTIVE, Ordering::Release);
    }
}

impl SmrGuard for NbrGuard<'_> {
    #[inline]
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }

    #[inline]
    fn protect<T>(&mut self, _idx: usize, src: &Atomic<T>) -> Shared<T> {
        // The checkpoint era announced at pin (or at the last `checkpoint`
        // call) protects everything reachable; per-pointer work is
        // unnecessary, exactly as under EBR.
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
        // ORDERING: a Relaxed era read can only lag the true era, stamping
        // the retirement conservatively early — at worst it delays
        // reclamation by one sweep; the stamp is published to sweepers by
        // the vault mutex.
        let era = d.global_era.load(Ordering::Relaxed);
        // SAFETY: forwarded — the caller guarantees the retire contract.
        let pending = unsafe { d.limbo.push(&d.core, handle.core.index(), ptr, Some(era)) };
        let threshold = d.core.config.scan_threshold;
        if pending >= threshold {
            handle.scan(threshold);
        }
    }

    // SAFETY: callers must guarantee `ptr` was never published to other threads.
    unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: forwarded — the caller guarantees `ptr` was never published.
        unsafe { self.handle.core.dealloc(ptr) };
    }

    #[inline]
    fn needs_restart(&self) -> bool {
        self.handle.domain.slots[self.handle.core.index()]
            .neutralize
            .load(Ordering::Acquire)
    }

    #[inline]
    fn checkpoint(&mut self) {
        self.handle.announce_checkpoint();
    }

    /// An op-boundary repin is semantically a checkpoint: re-announce the
    /// current era so the minimum checkpoint keeps rising.  Elided when this
    /// slot already announces the current era and no sweep has asked us to
    /// restart — then the announcement is already as fresh as it can get.
    #[inline]
    fn repin(&mut self) {
        let slot = &self.handle.domain.slots[self.handle.core.index()];
        let era = self.handle.domain.global_era.load(Ordering::SeqCst);
        // ORDERING: Relaxed — our own checkpoint is single-writer (only this
        // thread stores real eras into it), so the read needs no ordering.
        if era == slot.checkpoint.load(Ordering::Relaxed) && !self.needs_restart() {
            return;
        }
        self.handle.announce_checkpoint();
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
        let d = Nbr::new(small_config());
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
    fn blocked_sweep_neutralizes_the_lagging_reader() {
        let d = Nbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        assert!(!g.needs_restart());

        // Churn way past the scan threshold: the worker's sweeps are blocked
        // by the reader's checkpoint and must raise its neutralize flag.
        for i in 0..64u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        assert!(
            g.needs_restart(),
            "a blocked sweep must ask the lagging reader to restart"
        );
        assert!(d.neutralizations() > 0);
        assert!(d.unreclaimed() > 0, "reader still blocks reclamation");

        // The reader cooperates: checkpoint + (conceptually) restart.
        g.checkpoint();
        assert!(!g.needs_restart());
        let era = d.global_era.load(Ordering::SeqCst);
        assert_eq!(
            d.slots[0].checkpoint.load(Ordering::SeqCst),
            era,
            "checkpoint must re-announce the current era"
        );
        drop(g);
        for _ in 0..4 {
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0);
    }

    #[test]
    fn checkpoint_unblocks_reclamation_while_reader_stays_pinned() {
        let d = Nbr::new(small_config());
        let mut reader = d.register();
        let mut worker = d.register();

        let mut g = reader.pin();
        for i in 0..32u64 {
            let mut wg = worker.pin();
            let p = wg.alloc(i);
            // SAFETY: `p` was just allocated and never published, so this thread is its sole owner.
            unsafe { wg.retire(p) };
        }
        let before = d.unreclaimed();
        assert!(before > 0);
        // Cooperating (checkpointing whenever asked) is enough: the reader
        // never unpins, yet reclamation proceeds past it.
        for _ in 0..8 {
            if g.needs_restart() {
                g.checkpoint();
            }
            worker.flush();
        }
        assert_eq!(d.unreclaimed(), 0, "cooperative reader must not block");
        drop(g);
    }

    #[test]
    fn uncooperative_reader_blocks_reclamation() {
        // The cooperative caveat: safety is carried by the checkpoint era, so
        // a reader that never polls keeps everything since its pin alive.
        let d = Nbr::new(small_config());
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
            "NBR must not reclaim past an uncooperative reader (got {})",
            d.unreclaimed()
        );
    }

    #[test]
    fn pin_clears_a_stale_neutralize_flag() {
        let d = Nbr::new(small_config());
        let mut h = d.register();
        d.slots[0].neutralize.store(true, Ordering::SeqCst);
        let g = h.pin();
        assert!(!g.needs_restart(), "pin starts a fresh checkpoint");
    }

    #[test]
    fn repin_reannounces_and_clears_a_pending_neutralize() {
        let d = Nbr::new(small_config());
        let mut h = d.register();
        let mut g = h.pin();
        let announced = d.slots[0].checkpoint.load(Ordering::SeqCst);
        g.repin();
        assert_eq!(
            d.slots[0].checkpoint.load(Ordering::SeqCst),
            announced,
            "repin with an unmoved era and no pending flag must elide"
        );
        // A blocked sweep bumps the era and flags us; repin must behave like
        // a checkpoint.
        d.neutralize_laggards();
        assert!(g.needs_restart());
        g.repin();
        assert!(!g.needs_restart(), "repin must acknowledge the flag");
        assert_eq!(
            d.slots[0].checkpoint.load(Ordering::SeqCst),
            d.global_era.load(Ordering::SeqCst),
            "repin must re-announce the current era"
        );
        drop(g);
    }

    #[test]
    fn guard_held_across_repins_does_not_block_reclamation() {
        let d = Nbr::new(small_config());
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
            "a reader repinning at op boundaries is cooperative (got {})",
            d.unreclaimed()
        );
        drop(g);
    }

    #[test]
    fn multi_threaded_retire_storm_reclaims_everything() {
        let d = Nbr::new(SmrConfig {
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
