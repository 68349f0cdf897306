//! The record-manager core every scheme is built on (Brown's Record Manager
//! split: allocator, pool and bookkeeping written once, each scheme supplying
//! only its reclamation policy).
//!
//! * [`DomainCore`] (all eight families) owns the configuration, the slot
//!   registry, the sharded `unreclaimed` counter and the shared block-pool
//!   overflow, and hands out [`HandleCore`]s.
//! * [`HandleCore`] (all eight) owns a handle's slot claim, its pin-time
//!   liveness binding and its block pool: the pin-time owner check, `alloc`
//!   and `dealloc` live here.
//! * [`Limbo`] (the six vault schemes: EBR, HE, HP, IBR, NBR, VBR) owns the
//!   per-slot retire vaults and the orphan list, and implements the single
//!   sweep, orphan adoption, handle teardown and domain teardown.
//!
//! A scheme supplies plain closures: `can_free` (is this retired block
//! unreachable by every thread?), built from one snapshot of its
//! reservations per sweep, and `neutralize(slot)` (clear a dead or departing
//! slot's reservations).  Hyaline keeps its own batch vault and
//! acknowledgement protocol and uses only the first two types.

use crate::block::{header_of, Retired};
use crate::pool::{BlockPool, PoolShared, ShardedCounter};
use crate::ptr::Shared;
use crate::registry::{AdoptGuard, PinBinding, SlotClaim, SlotRegistry};
use crate::{SmrConfig, SmrError};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Domain-wide state shared by every scheme.
pub(crate) struct DomainCore {
    pub(crate) config: SmrConfig,
    pub(crate) registry: SlotRegistry,
    /// Retired-but-unfreed blocks (NR: retired, never freed).
    pub(crate) unreclaimed: ShardedCounter,
    pool: Arc<PoolShared>,
}

impl DomainCore {
    /// Validates `config` (panicking on a violated invariant, see
    /// [`SmrConfig::validated`]) and sizes every per-slot table from it.
    pub(crate) fn new(config: SmrConfig) -> Self {
        let config = config.validated();
        Self {
            registry: SlotRegistry::new(config.max_threads),
            unreclaimed: ShardedCounter::new(config.max_threads),
            pool: PoolShared::new(config.pool_blocks(), config.max_threads),
            config,
        }
    }

    /// Claims a thread slot for a new handle; the scheme resets its own
    /// per-slot reservations before publishing the handle.
    pub(crate) fn try_register(&self) -> Result<HandleCore, SmrError> {
        let claim = self.registry.try_claim().ok_or(SmrError::RegistryFull {
            capacity: self.registry.capacity(),
        })?;
        Ok(HandleCore {
            claim,
            binding: PinBinding::new(),
            pool: BlockPool::new(self.pool.clone(), self.config.pool_blocks()),
        })
    }

    pub(crate) fn unreclaimed(&self) -> usize {
        self.unreclaimed.sum()
    }

    /// Runs `adopt` for every slot other than `my_slot` whose owning thread
    /// died without releasing it (see [`SlotRegistry::try_begin_adopt`]);
    /// `adopt` must finish or poison the adoption.
    pub(crate) fn adopt_dead(&self, my_slot: usize, mut adopt: impl FnMut(usize, AdoptGuard<'_>)) {
        for i in (0..self.registry.capacity()).filter(|&i| i != my_slot) {
            if let Some(adoption) = self.registry.try_begin_adopt(i) {
                adopt(i, adoption);
            }
        }
    }
}

/// Per-handle state shared by every scheme.
pub(crate) struct HandleCore {
    pub(crate) claim: SlotClaim,
    binding: PinBinding,
    pub(crate) pool: BlockPool,
}

impl HandleCore {
    /// The handle's slot index.
    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.claim.index
    }

    /// The pin-time owner check: panics if the slot was adopted, and
    /// re-binds it to the calling thread's liveness beacon (see
    /// [`SlotRegistry::check_owner_and_bind`]).  Every `pin` calls this
    /// before publishing any reservation.
    #[inline]
    pub(crate) fn check_owner(&mut self, core: &DomainCore) {
        core.registry
            .check_owner_and_bind(self.claim, &mut self.binding);
    }

    #[inline]
    pub(crate) fn alloc<T>(&mut self, value: T) -> *mut T {
        self.pool.alloc(value)
    }

    /// # Safety
    /// `ptr` came from `alloc` on this domain and was never published, so no
    /// other thread has observed the block.
    #[inline]
    pub(crate) unsafe fn dealloc<T>(&mut self, ptr: Shared<T>) {
        // SAFETY: the caller guarantees the pointer was never published, so
        // this thread is the only one that has ever seen the block; freeing
        // it through the pool runs its destructor exactly once.
        unsafe { self.pool.free(header_of(ptr.untagged().as_ptr())) };
    }
}

/// Per-slot retire vaults plus the orphan list of the six vault schemes.
///
/// Vaults are domain-owned rather than handle-local so that a survivor can
/// adopt a dead thread's vault; each is locked per retirement, but only ever
/// contended by an adopter (the owner is the sole routine writer).
pub(crate) struct Limbo {
    vaults: Box<[Mutex<Vec<Retired>>]>,
    /// Entries inherited from threads that released (or died) before their
    /// retired blocks became reclaimable.
    orphans: Mutex<Vec<Retired>>,
}

impl Limbo {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            vaults: (0..slots).map(|_| Mutex::new(Vec::new())).collect(),
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// Pushes `ptr` into `slot`'s vault, stamping the block's retire era
    /// with `retire_era` when the scheme has one, and credits the slot's
    /// counter shard.  Returns the vault's length, which the caller compares
    /// against its scan threshold.
    ///
    /// # Safety
    /// `ptr` came from `alloc` on this domain, is physically unlinked, and is
    /// retired exactly once.
    pub(crate) unsafe fn push<T>(
        &self,
        core: &DomainCore,
        slot: usize,
        ptr: Shared<T>,
        retire_era: Option<u64>,
    ) -> usize {
        let value = ptr.untagged().as_ptr();
        debug_assert!(!value.is_null());
        // SAFETY: the caller guarantees the pointer came from `alloc` on this
        // domain and is unlinked, so its header is live.
        let retired = unsafe { Retired::from_value(value) };
        let pending = {
            let mut vault = self.vaults[slot].lock();
            if let Some(era) = retire_era {
                // SAFETY: the block is unlinked but not yet in any vault;
                // this thread has exclusive access to its header stamp.
                // ORDERING: Relaxed — the stamp reaches sweepers through the
                // vault mutex held here.
                unsafe { (*retired.hdr).retire_era.store(era, Ordering::Relaxed) };
            }
            vault.push(retired);
            vault.len()
        };
        core.unreclaimed.add(slot, 1);
        pending
    }

    /// Number of entries waiting in `slot`'s vault.
    pub(crate) fn pending(&self, slot: usize) -> usize {
        self.vaults[slot].lock().len()
    }

    /// Sweeps `handle`'s own vault, recycling freed blocks into its pool and
    /// charging them to its counter shard.
    ///
    /// # Safety
    /// The predicate `can_free` builds must return `true` only for a block
    /// that no thread can still dereference.
    pub(crate) unsafe fn sweep<P: FnMut(&Retired) -> bool>(
        &self,
        core: &DomainCore,
        handle: &mut HandleCore,
        can_free: impl FnOnce() -> P,
    ) {
        let slot = handle.index();
        let mut vault = self.vaults[slot].lock();
        // SAFETY: forwarded — the caller guarantees `can_free`'s contract.
        unsafe { free_unreachable(&mut vault, core, slot, &mut handle.pool, can_free) };
    }

    /// The amortized reclamation pass: sweeps the caller's own vault, then
    /// adopts every dead slot — applying the scheme's `neutralize` to its
    /// reservations (sound: the owner can issue no further loads) and moving
    /// its vault to the orphan list — and sweeps the orphans.
    ///
    /// # Safety
    /// As for [`Limbo::sweep`].
    pub(crate) unsafe fn collect<P: FnMut(&Retired) -> bool>(
        &self,
        core: &DomainCore,
        handle: &mut HandleCore,
        mut neutralize: impl FnMut(usize),
        can_free: impl Fn() -> P,
    ) {
        // SAFETY: forwarded — the caller guarantees `can_free`'s contract.
        unsafe { self.sweep(core, handle, &can_free) };
        let slot = handle.index();
        core.adopt_dead(slot, |i, adoption| {
            neutralize(i);
            self.orphan(i);
            adoption.finish();
        });
        // A contended orphan list is being swept by someone else right now.
        if let Some(mut orphans) = self.orphans.try_lock() {
            // SAFETY: forwarded — the caller guarantees `can_free`'s
            // contract; the predicate is built after the neutralization
            // above, so adopted slots no longer hold anything back.
            unsafe { free_unreachable(&mut orphans, core, slot, &mut handle.pool, can_free) };
        }
    }

    /// Handle teardown, the one order every vault scheme uses: sweep the
    /// handle's own vault, then — under the slot's beacon mutex, after the
    /// generation check — neutralize the slot and move the rest of its vault
    /// to the orphan list.  If the slot was adopted (the handle's last
    /// pinning thread died while the handle lived elsewhere), the adopter
    /// already did both and the teardown is skipped.
    ///
    /// # Safety
    /// As for [`Limbo::sweep`].
    pub(crate) unsafe fn release<P: FnMut(&Retired) -> bool>(
        &self,
        core: &DomainCore,
        handle: &mut HandleCore,
        neutralize: impl FnOnce(usize),
        can_free: impl FnOnce() -> P,
    ) {
        // SAFETY: forwarded — the caller guarantees `can_free`'s contract.
        unsafe { self.sweep(core, handle, can_free) };
        let slot = handle.index();
        core.registry.release_with(handle.claim, || {
            neutralize(slot);
            self.orphan(slot);
        });
    }

    /// Moves `slot`'s vault to the orphan list.
    fn orphan(&self, slot: usize) {
        let mut vault = self.vaults[slot].lock();
        if !vault.is_empty() {
            self.orphans.lock().append(&mut vault);
        }
    }
}

impl Drop for Limbo {
    fn drop(&mut self) {
        // The limbo drops with its domain, and no handle (hence no guard)
        // outlives the domain it holds an `Arc` to: release the vaults of
        // dead slots nobody adopted and the orphan list.
        for list in self.vaults.iter().chain([&self.orphans]) {
            for r in list.lock().drain(..) {
                // SAFETY: no guard exists any more, so nothing can be
                // protected; each record is drained, hence freed, once.
                unsafe { r.free() };
            }
        }
    }
}

/// The single sweep: frees every record of `list` that `can_free` (built
/// once, for a non-empty list) accepts, recycling the blocks into `pool` and
/// charging them to counter shard `counter_slot` (shards may go negative,
/// the sum stays exact — see [`ShardedCounter`]), and keeps the rest.
///
/// # Safety
/// As for [`Limbo::sweep`].
unsafe fn free_unreachable<P: FnMut(&Retired) -> bool>(
    list: &mut Vec<Retired>,
    core: &DomainCore,
    counter_slot: usize,
    pool: &mut BlockPool,
    can_free: impl FnOnce() -> P,
) {
    if list.is_empty() {
        return;
    }
    let mut can_free = can_free();
    let mut freed = 0usize;
    list.retain(|r| {
        if !can_free(r) {
            return true;
        }
        // SAFETY: the caller guarantees that the predicate accepts only
        // unreachable blocks, and `retain` drops the record from the list,
        // so each block is freed exactly once.
        unsafe { r.free_into(pool) };
        freed += 1;
        false
    });
    if freed > 0 {
        core.unreclaimed.sub(counter_slot, freed);
    }
}
