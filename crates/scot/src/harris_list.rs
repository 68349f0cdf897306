//! Harris' lock-free ordered list with **SCOT** safe optimistic traversals
//! (paper §2.4, §3.2, Figure 5).
//!
//! Harris' list performs *logical* deletion by tagging the victim's `next`
//! pointer and defers the *physical* unlink: a later traversal removes a whole
//! chain of consecutively marked nodes with a single CAS, and `Search` simply
//! skips over marked nodes.  This is what makes it faster than the
//! Harris-Michael variant — fewer CAS operations and almost no restarts
//! (Table 2 of the paper) — but it is exactly what breaks hazard-pointer-style
//! reclamation: a traversal can step from a marked node to a successor that
//! has already been unlinked *and reclaimed* by someone else (Figure 2).
//!
//! SCOT's fix (§3.1): while traversing a chain of marked nodes (the
//! *dangerous zone*) keep one extra hazard slot on the **first unsafe node**
//! and, before every step deeper into the zone, validate that the **last safe
//! node still points at it**.  If the validation fails the chain may have been
//! unlinked, so the traversal either escapes to the last safe node's new
//! successor (§3.2.1 recovery) or restarts from the head.
//!
//! That protect → validate → recover loop is not implemented here: it lives,
//! exactly once, in [`crate::traverse`] as the `Cursor`, and this list is
//! its simplest client — one level, restart-from-head as the only restart
//! rung.  The hazard-slot roles are the Figure 5 assignment documented in
//! [`crate::slots`].

use crate::slots::{HP_CURR, HP_NEXT};
use crate::traverse::{
    self, Cursor, ScanState, Seek, SeekBound, SlotNode, TraversalStats, ZoneMode, MARK,
};
use crate::{Key, RangeScan, TraversalSnapshot, Value};
use scot_smr::{Atomic, Link, Shared, Smr, SmrConfig, SmrGuard, SmrHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A list node: key, value and the tagged successor pointer.
pub(crate) struct Node<K, V> {
    pub(crate) next: Atomic<Node<K, V>>,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K: Key, V: Value> SlotNode<K> for Node<K, V> {
    type Value = V;

    #[inline]
    // SAFETY: `_level` is ignored -- a list node always has the single `next` link, so the call is unconditionally in bounds.
    unsafe fn successor(&self, _level: usize) -> &Atomic<Self> {
        &self.next
    }

    #[inline]
    fn node_key(&self) -> &K {
        &self.key
    }

    #[inline]
    fn node_value(&self) -> &V {
        &self.value
    }
}

/// Result of the internal `Do_Find`: the predecessor link and the protected
/// `curr`/`next` snapshot, exactly the triple the paper's pseudocode returns.
pub(crate) struct FindResult<K, V> {
    pub(crate) prev: Link<Node<K, V>>,
    pub(crate) curr: Shared<Node<K, V>>,
    pub(crate) next: Shared<Node<K, V>>,
    pub(crate) found: bool,
}

/// Harris' ordered map with SCOT traversals, parameterized by the reclamation
/// scheme.  The value type defaults to `()`, which is the membership-set
/// configuration the paper benchmarks (see [`crate::ConcurrentSet`]).
///
/// ```
/// use scot::{ConcurrentMap, HarrisList};
/// use scot_smr::{Hp, Smr, SmrConfig};
///
/// let list: HarrisList<u64, Hp, &'static str> =
///     HarrisList::new(Hp::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&list);
/// let mut guard = list.pin(&mut handle);
/// assert!(list.insert(&mut guard, 7, "seven").is_ok());
/// assert_eq!(list.get(&mut guard, &7).copied(), Some("seven"));
/// // A conflicting insert hands the rejected value back.
/// assert_eq!(list.insert(&mut guard, 7, "again"), Err("again"));
/// // Remove returns one last guard-protected borrow of the evicted value.
/// assert_eq!(list.remove(&mut guard, &7).copied(), Some("seven"));
/// assert!(list.get(&mut guard, &7).is_none());
/// ```
///
/// Guard-scoped range scans come from the shared cursor as well:
///
/// ```
/// use scot::{ConcurrentMap, HarrisList, RangeScan};
/// use scot_smr::{Ibr, Smr, SmrConfig};
///
/// let list: HarrisList<u64, Ibr, u64> = HarrisList::new(Ibr::new(SmrConfig::default()));
/// let mut handle = ConcurrentMap::handle(&list);
/// let mut guard = list.pin(&mut handle);
/// for k in 0..10 {
///     list.insert(&mut guard, k, k * k).unwrap();
/// }
/// let mut scan = list.range(&mut guard, 3..7);
/// let mut seen = Vec::new();
/// while let Some((k, v)) = scan.next_entry() {
///     seen.push((k, *v));
/// }
/// assert_eq!(seen, vec![(3, 9), (4, 16), (5, 25), (6, 36)]);
/// ```
pub struct HarrisList<K, S: Smr, V = ()> {
    pub(crate) head: Atomic<Node<K, V>>,
    pub(crate) smr: Arc<S>,
    stats: TraversalStats,
    /// Whether the §3.2.1 recovery optimization is enabled (on by default;
    /// the ablation benchmark disables it to quantify its benefit).
    recovery: bool,
}

// SAFETY: the structure owns its nodes; every cross-thread access goes through atomic links and the SMR protocol.
unsafe impl<K: Key, S: Smr, V: Value> Send for HarrisList<K, S, V> {}
// SAFETY: shared access is mediated by atomic links and guard-protected traversal; there is no unsynchronized interior mutability.
unsafe impl<K: Key, S: Smr, V: Value> Sync for HarrisList<K, S, V> {}

/// Per-thread handle for [`HarrisList`].
pub struct HarrisListHandle<S: Smr> {
    pub(crate) smr: S::Handle,
}

impl<S: Smr> HarrisListHandle<S> {
    /// Forces a reclamation pass (limbo scan / epoch advance) on this
    /// thread's SMR handle; useful in tests and at controlled quiescence
    /// points.
    pub fn flush(&mut self) {
        self.smr.flush();
    }
}

impl<K: Key, S: Smr, V: Value> HarrisList<K, S, V> {
    /// Creates an empty list managed by the given reclamation domain.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            head: Atomic::null(),
            smr,
            stats: TraversalStats::default(),
            recovery: true,
        }
    }

    /// Creates an empty list with a freshly created domain using `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::new(S::new(config))
    }

    /// Like [`HarrisList::new`], but with the §3.2.1 recovery optimization
    /// disabled: every dangerous-zone validation failure restarts from the
    /// head.  Used by the recovery ablation benchmark.
    pub fn without_recovery(smr: Arc<S>) -> Self {
        let mut list = Self::new(smr);
        list.recovery = false;
        list
    }

    /// The reclamation domain backing this list (used by the harness to read
    /// memory-overhead statistics).
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> HarrisListHandle<S> {
        HarrisListHandle {
            smr: self.smr.register(),
        }
    }

    /// Number of full traversal restarts (Table 2).
    pub fn restarts(&self) -> u64 {
        self.stats.restarts()
    }

    /// Number of §3.2.1 recovery events (dangerous-zone escapes that avoided a
    /// full restart); used by the recovery-optimization ablation benchmark.
    pub fn recoveries(&self) -> u64 {
        self.stats.recoveries()
    }

    /// The cursor mode this list traverses with.
    #[inline]
    fn mode(&self) -> ZoneMode {
        ZoneMode::Scot {
            recovery: self.recovery,
        }
    }

    /// The one positioning traversal of this list, driven by the shared
    /// `crate::traverse::Cursor`: parks on the first live node satisfying
    /// `bound`, looping until a seek completes.  `cleanup` selects whether a
    /// pending marked chain is unlinked and retired before returning
    /// (L57-62 + `Do_Retire`; searches and scans leave the chain in place).
    /// On return the hazard slots still protect `prev`, `curr` and `next`,
    /// so the caller can immediately use them for its insert/delete CAS.
    fn seek_bound<G: SmrGuard>(
        &self,
        g: &mut G,
        bound: &SeekBound<K>,
        cleanup: bool,
    ) -> FindResult<K, V> {
        loop {
            // The head link is never tagged, so `begin` cannot fail here; the
            // restart loop keeps the control flow total regardless.
            // Checkpoints are allowed: nothing protected survives across the
            // `continue` (insert's pending block is unpublished and owned, so
            // voiding the guard's slots cannot invalidate it).
            let Ok(mut c) = Cursor::begin(
                g,
                Shared::null(),
                self.head.as_link(),
                0,
                Shared::null(),
                true,
                &self.stats,
                self.mode(),
            ) else {
                continue;
            };
            match c.seek(g, bound, || false) {
                Seek::Positioned => {}
                Seek::Restart(_) => continue,
                Seek::Interrupted => unreachable!("find has no interrupt source"),
            }
            if cleanup && c.unlink_pending(g, true).is_err() {
                continue;
            }
            let curr = c.curr();
            let found = !curr.is_null() && {
                match bound {
                    // SAFETY: `curr` is protected (HP_CURR) and durable.
                    SeekBound::Ge(k) => unsafe { curr.deref() }.key == *k,
                    // A strict bound never "finds" its key.
                    SeekBound::Gt(_) => false,
                }
            };
            return FindResult {
                prev: c.prev_link(),
                curr,
                next: c.next(),
                found,
            };
        }
    }

    /// Internal `Do_Find` (Figure 5, right-hand unrolled version plus the
    /// §3.2.1 recovery optimization): [`HarrisList::seek_bound`] at the key.
    pub(crate) fn find<G: SmrGuard>(
        &self,
        g: &mut G,
        key: &K,
        is_search: bool,
    ) -> FindResult<K, V> {
        self.seek_bound(g, &SeekBound::Ge(*key), !is_search)
    }

    /// Positions [`crate::slots::HP_CURR`] on the first live node satisfying
    /// `bound` and returns it (null at the end of the list).  The validated
    /// re-positioning primitive of the range scan; shared with the hash map,
    /// whose buckets are instances of this list.
    pub(crate) fn scan_seek<G: SmrGuard>(
        &self,
        g: &mut G,
        bound: &SeekBound<K>,
    ) -> Shared<Node<K, V>> {
        self.seek_bound(g, bound, false).curr
    }

    /// Brand check: operations only accept guards pinned from a handle of
    /// this map's own reclamation domain.  A foreign guard would publish its
    /// hazard slots / epoch announcements into a *different* domain's tables —
    /// which no reclaimer of this domain ever scans — so accepting it would
    /// silently void every protection the guard-scoped API promises.  One
    /// pointer compare per operation buys back the soundness hole.
    #[inline]
    pub(crate) fn check_guard<G: SmrGuard>(&self, g: &G) {
        assert_eq!(
            g.domain_addr(),
            Arc::as_ptr(&self.smr) as usize,
            "guard was pinned from a handle of a different map's reclamation domain"
        );
    }

    /// Visits every live entry in ascending key order, passing key and value
    /// borrows to `f`.  Shares [`crate::ConcurrentMap::collect`]'s caveats:
    /// the walk skips the SCOT validation, so it must not run concurrently
    /// with removals under a robust scheme.
    pub(crate) fn walk<G: SmrGuard, F: FnMut(&K, &V)>(&self, g: &mut G, mut f: F) {
        let mut curr = g.protect(HP_CURR, &self.head);
        while !curr.is_null() {
            // SAFETY: protected by HP_CURR / HP_NEXT ping-pong below.
            let node = unsafe { curr.deref() };
            let next = g.protect(HP_NEXT, &node.next);
            if next.tag() == 0 {
                f(&node.key, &node.value);
            }
            curr = next.untagged();
            g.dup(HP_NEXT, HP_CURR);
        }
    }
}

/// Guard-scoped range scan over a [`HarrisList`] (see
/// [`crate::ConcurrentMap::range`]): holds the guard exclusively for the
/// whole scan and parks on the last yielded node, which stays protected by
/// [`crate::slots::HP_CURR`] until the next advance.
pub struct ListRange<'r, 'h, K: Key, S: Smr, V: Value = ()> {
    list: &'r HarrisList<K, S, V>,
    guard: &'r mut <S::Handle as SmrHandle>::Guard<'h>,
    state: ScanState<K, Node<K, V>>,
    hi: Option<K>,
}

impl<'r, 'h, K: Key, S: Smr, V: Value> RangeScan<K, V> for ListRange<'r, 'h, K, S, V> {
    fn next_entry(&mut self) -> Option<(K, &V)> {
        let list = self.list;
        traverse::scan_entry(
            &mut *self.guard,
            &mut self.state,
            self.hi.as_ref(),
            0,
            |g, bound| list.scan_seek(g, bound),
        )
    }
}

impl<K: Key, S: Smr, V: Value> crate::ConcurrentMap<K, V> for HarrisList<K, S, V> {
    type Handle = HarrisListHandle<S>;
    type Guard<'h>
        = <S::Handle as SmrHandle>::Guard<'h>
    where
        Self: 'h;
    type Range<'r, 'h>
        = ListRange<'r, 'h, K, S, V>
    where
        Self: 'h,
        'h: 'r;

    fn handle(&self) -> Self::Handle {
        HarrisList::handle(self)
    }

    fn pin<'h>(&self, handle: &'h mut Self::Handle) -> Self::Guard<'h> {
        handle.smr.pin()
    }

    fn repin<'h>(&self, guard: &mut Self::Guard<'h>) {
        self.check_guard(&*guard);
        guard.repin();
    }

    fn get<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        self.check_guard(&*guard);
        let r = self.find(&mut *guard, key, true);
        if r.found {
            // SAFETY: `curr` is protected by HP_CURR (published with SCOT
            // validation during the find) and the `&'g mut` guard borrow
            // prevents any further operation from recycling that slot while
            // the returned value borrow is alive.
            Some(&unsafe { r.curr.deref_guarded(&*guard) }.value)
        } else {
            None
        }
    }

    fn insert<'h>(&self, guard: &mut Self::Guard<'h>, key: K, value: V) -> Result<(), V> {
        self.check_guard(&*guard);
        let mut r = self.find(&mut *guard, &key, false);
        if r.found {
            return Err(value);
        }
        let new = guard.alloc(Node {
            next: Atomic::null(),
            key,
            value,
        });
        loop {
            // SAFETY: `new` is owned by us until the CAS below publishes it.
            // ORDERING: the publishing CAS (Release) below makes this initialization visible.
            unsafe { new.deref().next.store(r.curr, Ordering::Relaxed) };
            // SAFETY: `prev`'s owner is protected (HP_PREV) or is the head.
            if unsafe { r.prev.cas(r.curr, new) }.is_ok() {
                return Ok(());
            }
            r = self.find(&mut *guard, &key, false);
            if r.found {
                // A concurrent insert won the race after our first find.
                // SAFETY: `new` was never published; reclaim the block and
                // hand the caller's value back instead of dropping it.
                let node = unsafe { crate::take_unpublished(new) };
                return Err(node.value);
            }
        }
    }

    fn remove<'g, 'h>(&self, guard: &'g mut Self::Guard<'h>, key: &K) -> Option<&'g V> {
        self.check_guard(&*guard);
        loop {
            let r = self.find(&mut *guard, key, false);
            if !r.found {
                return None;
            }
            // SAFETY: `curr` is protected (HP_CURR).
            let curr_ref = unsafe { r.curr.deref() };
            // Logical deletion: tag curr's next pointer (Figure 3, L21).
            if curr_ref
                .next
                .compare_exchange(
                    r.next,
                    r.next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // One attempt at physical unlinking (Figure 3, L22); if it fails a
            // later traversal will clean the node up and retire it.
            //
            // SAFETY: `prev`'s owner is protected (HP_PREV) or is the head.
            if unsafe { r.prev.cas(r.curr, r.next) }.is_ok() {
                // SAFETY: we won the unlink CAS, so we are the unique retirer.
                unsafe { guard.retire(r.curr) };
            }
            // SAFETY: the victim stays protected by HP_CURR — retiring does
            // not free, and no scheme reclaims a node covered by a published
            // hazard slot / live era reservation.  The `&'g mut` guard borrow
            // keeps that protection in place for the borrow's lifetime.
            return Some(&unsafe { r.curr.deref_guarded(&*guard) }.value);
        }
    }

    fn contains<'h>(&self, guard: &mut Self::Guard<'h>, key: &K) -> bool {
        self.check_guard(&*guard);
        self.find(&mut *guard, key, true).found
    }

    fn scan<'r, 'h>(
        &'r self,
        guard: &'r mut Self::Guard<'h>,
        lo: K,
        hi: Option<K>,
    ) -> Self::Range<'r, 'h>
    where
        'h: 'r,
    {
        self.check_guard(&*guard);
        ListRange {
            list: self,
            guard,
            state: ScanState::Seek(SeekBound::Ge(lo)),
            hi,
        }
    }

    fn collect(&self, handle: &mut Self::Handle) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut g = handle.smr.pin();
        self.check_guard(&g);
        let mut out = Vec::new();
        self.walk(&mut g, |k, v| out.push((*k, v.clone())));
        out
    }

    fn flush(&self, handle: &mut Self::Handle) {
        handle.flush();
    }

    fn traversal_stats(&self) -> TraversalSnapshot {
        self.stats.snapshot()
    }
}

impl<K, S: Smr, V> Drop for HarrisList<K, S, V> {
    fn drop(&mut self) {
        // Free every node still reachable from the head.  Retired nodes are no
        // longer reachable and are released by the reclamation domain.
        // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
        let mut curr = self.head.load(Ordering::Relaxed).untagged();
        while !curr.is_null() {
            // SAFETY: exclusive access during drop; each reachable node is
            // visited exactly once.
            unsafe {
                // ORDERING: drop holds `&mut self`, so no other thread can touch these links.
                let next = curr.deref().next.load(Ordering::Relaxed).untagged();
                scot_smr::free_block(scot_smr::header_of(curr.as_ptr()));
                curr = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentSet;
    use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Vbr};

    fn cfg() -> SmrConfig {
        SmrConfig {
            max_threads: 16,
            scan_threshold: 8,
            epoch_freq_per_thread: 1,
            snapshot_scan: false,
            ..SmrConfig::default()
        }
    }

    fn basic_set_semantics<S: Smr>() {
        let list: HarrisList<u64, S> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        assert!(!list.contains(&mut h, &5));
        assert!(list.insert(&mut h, 5));
        assert!(!list.insert(&mut h, 5), "duplicate insert must fail");
        assert!(list.insert(&mut h, 3));
        assert!(list.insert(&mut h, 9));
        assert!(list.contains(&mut h, &3));
        assert!(list.contains(&mut h, &5));
        assert!(list.contains(&mut h, &9));
        assert!(!list.contains(&mut h, &4));
        assert_eq!(list.collect_keys(&mut h), vec![3, 5, 9]);
        assert!(list.remove(&mut h, &5));
        assert!(!list.remove(&mut h, &5), "double remove must fail");
        assert!(!list.contains(&mut h, &5));
        assert_eq!(list.collect_keys(&mut h), vec![3, 9]);
    }

    #[test]
    fn basic_semantics_under_every_scheme() {
        basic_set_semantics::<Nr>();
        basic_set_semantics::<Ebr>();
        basic_set_semantics::<Hp>();
        basic_set_semantics::<He>();
        basic_set_semantics::<Ibr>();
        basic_set_semantics::<Hyaline>();
        basic_set_semantics::<Nbr>();
        basic_set_semantics::<Vbr>();
    }

    #[test]
    fn keys_stay_sorted_and_unique() {
        let list: HarrisList<u32, Hp> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for k in [5u32, 1, 9, 3, 7, 3, 9, 0] {
            list.insert(&mut h, k);
        }
        let keys = list.collect_keys(&mut h);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec![0, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn interleaved_insert_remove_sequence() {
        let list: HarrisList<u64, Ebr> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..200u64 {
            assert!(list.insert(&mut h, i));
        }
        for i in (0..200u64).step_by(2) {
            assert!(list.remove(&mut h, &i));
        }
        for i in 0..200u64 {
            assert_eq!(list.contains(&mut h, &i), i % 2 == 1, "key {i}");
        }
        assert_eq!(list.collect_keys(&mut h).len(), 100);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let list: Arc<HarrisList<u64, Hp>> = Arc::new(HarrisList::with_config(cfg()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..200u64 {
                        assert!(list.insert(&mut h, t * 1000 + i));
                    }
                });
            }
        });
        let mut h = list.handle();
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(list.contains(&mut h, &(t * 1000 + i)));
            }
        }
        assert_eq!(list.collect_keys(&mut h).len(), 800);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        // Threads fight over a small key range; afterwards each key's
        // membership must be a valid boolean (no corruption / crash) and the
        // list must stay sorted & duplicate-free.
        fn run<S: Smr>() {
            let list: Arc<HarrisList<u32, S>> = Arc::new(HarrisList::with_config(cfg()));
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let list = list.clone();
                    s.spawn(move || {
                        let mut h = list.handle();
                        let mut x = t as u64 + 1;
                        for _ in 0..3000 {
                            // xorshift
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let key = (x % 64) as u32;
                            match x % 3 {
                                0 => {
                                    list.insert(&mut h, key);
                                }
                                1 => {
                                    list.remove(&mut h, &key);
                                }
                                _ => {
                                    list.contains(&mut h, &key);
                                }
                            }
                        }
                    });
                }
            });
            let mut h = list.handle();
            let keys = list.collect_keys(&mut h);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(keys, sorted, "list must remain sorted and duplicate-free");
        }
        run::<Hp>();
        run::<Ebr>();
        run::<He>();
        run::<Ibr>();
        run::<Hyaline>();
        run::<Nbr>();
        run::<Vbr>();
    }

    #[test]
    fn all_retired_nodes_are_reclaimed_after_quiescence() {
        let domain = Hp::new(cfg());
        let list: Arc<HarrisList<u64, Hp>> = Arc::new(HarrisList::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..500 {
                        let k = t * 10_000 + i;
                        list.insert(&mut h, k);
                        list.remove(&mut h, &k);
                    }
                    h.smr.flush();
                });
            }
        });
        let mut h = list.handle();
        h.smr.flush();
        drop(h);
        assert_eq!(
            domain.unreclaimed(),
            0,
            "no retired node may remain once quiescent"
        );
    }

    mod map_api {
        use super::cfg;
        use crate::{ConcurrentMap, HarrisList};
        use scot_smr::Hp;

        #[test]
        fn values_round_trip_and_conflicts_hand_values_back() {
            let list: HarrisList<u64, Hp, String> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, 1, "one".to_string()).is_ok());
                assert_eq!(
                    list.insert(&mut g, 1, "uno".to_string()),
                    Err("uno".to_string()),
                    "conflicting insert must hand the rejected value back"
                );
                assert_eq!(list.get(&mut g, &1).map(String::as_str), Some("one"));
                assert!(list.get(&mut g, &2).is_none());
                assert_eq!(
                    list.remove(&mut g, &1).map(String::as_str),
                    Some("one"),
                    "remove must expose the evicted value under the guard"
                );
                assert!(list.remove(&mut g, &1).is_none());
            }
            assert!(list.collect(&mut h).is_empty());
        }

        #[test]
        fn collect_returns_sorted_entries() {
            let list: HarrisList<u32, Hp, u32> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            for k in [5u32, 1, 9, 3] {
                let mut g = list.pin(&mut h);
                assert!(list.insert(&mut g, k, k * 10).is_ok());
            }
            assert_eq!(
                list.collect(&mut h),
                vec![(1, 10), (3, 30), (5, 50), (9, 90)]
            );
        }
    }

    mod range_api {
        use super::cfg;
        use crate::{ConcurrentMap, HarrisList, RangeScan};
        use scot_smr::Hp;

        #[test]
        fn range_yields_sorted_window_and_iter_from_runs_to_end() {
            let list: HarrisList<u64, Hp, u64> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            let mut g = list.pin(&mut h);
            for k in (0..50u64).rev() {
                list.insert(&mut g, k, k + 100).unwrap();
            }
            let mut scan = list.range(&mut g, 10..15);
            let mut seen = Vec::new();
            while let Some((k, v)) = scan.next_entry() {
                seen.push((k, *v));
            }
            assert_eq!(seen, (10..15).map(|k| (k, k + 100)).collect::<Vec<_>>());
            #[allow(clippy::drop_non_drop)] // ends the scan's guard borrow
            drop(scan);
            let mut tail = list.iter_from(&mut g, 47);
            let mut seen = Vec::new();
            while let Some((k, _)) = tail.next_entry() {
                seen.push(k);
            }
            assert_eq!(seen, vec![47, 48, 49]);
        }

        #[test]
        #[allow(clippy::reversed_empty_ranges)] // inverted windows are the point
        fn empty_and_inverted_windows_yield_nothing() {
            let list: HarrisList<u64, Hp, u64> = HarrisList::with_config(cfg());
            let mut h = list.handle();
            let mut g = list.pin(&mut h);
            for k in 0..10u64 {
                list.insert(&mut g, k, k).unwrap();
            }
            assert!(list.range(&mut g, 3..3).next_entry().is_none());
            assert!(list.range(&mut g, 7..3).next_entry().is_none());
            assert!(list.range(&mut g, 100..200).next_entry().is_none());
        }
    }

    mod chain_unlink {
        use super::cfg;
        use crate::traverse::MARK;
        use crate::{ConcurrentMap, HarrisList};
        use scot_smr::{Ebr, He, Hp, Hyaline, Ibr, Nbr, Smr, SmrConfig, Vbr};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// A value that counts its own drops, per key, in a shared tally.  Its
        /// clones (what `collect` hands out) do not count.
        struct Tally(u64, Option<Arc<[AtomicUsize; 6]>>);

        impl Clone for Tally {
            fn clone(&self) -> Self {
                Tally(self.0, None)
            }
        }

        impl Drop for Tally {
            fn drop(&mut self) {
                if let Some(drops) = &self.1 {
                    drops[self.0 as usize].fetch_add(1, Ordering::SeqCst);
                }
            }
        }

        /// Single-threaded removes unlink at once, so no other test meets a
        /// marked chain longer than one node.  Here nodes 2–4 of the list 1..=5
        /// are marked by hand; one cleanup seek (`remove(&5)`) must unlink the
        /// three-node chain with one CAS and retire each node exactly once.
        fn multi_node_chain_unlink<S: Smr>(snapshot_scan: bool) {
            let drops: Arc<[AtomicUsize; 6]> = Arc::default();
            let list: HarrisList<u64, S, Tally> = HarrisList::with_config(SmrConfig {
                snapshot_scan,
                ..cfg()
            });
            let name = list.domain().name();
            let mut h = list.handle();
            for k in 1..=5u64 {
                let mut g = list.pin(&mut h);
                assert!(list
                    .insert(&mut g, k, Tally(k, Some(drops.clone())))
                    .is_ok());
            }
            let mut cur = list.head.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: single-threaded and nothing retired yet, so every node
                // reachable from the head is live.
                let node = unsafe { cur.deref() };
                let next = node.next.load(Ordering::Acquire);
                if (2..=4).contains(&node.key) {
                    node.next
                        .compare_exchange(
                            next,
                            next.with_tag(MARK),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .unwrap();
                }
                cur = next.untagged();
            }
            {
                let mut g = list.pin(&mut h);
                assert_eq!(list.remove(&mut g, &5).map(|v| v.0), Some(5), "{name}");
            }
            let keys: Vec<u64> = list.collect(&mut h).iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![1], "{name}");
            assert_eq!(list.restarts(), 0, "{name}");
            for _ in 0..4 {
                h.flush();
            }
            let counts: Vec<usize> = drops.iter().map(|d| d.load(Ordering::SeqCst)).collect();
            assert_eq!(counts, vec![0, 0, 1, 1, 1, 1], "{name}: drops per key");
            assert_eq!(list.domain().unreclaimed(), 0, "{name}");
        }

        #[test]
        fn multi_node_marked_chain_is_unlinked_and_retired_once_per_node() {
            for snapshot_scan in [false, true] {
                multi_node_chain_unlink::<Ebr>(snapshot_scan);
                multi_node_chain_unlink::<Hp>(snapshot_scan);
                multi_node_chain_unlink::<He>(snapshot_scan);
                multi_node_chain_unlink::<Ibr>(snapshot_scan);
                multi_node_chain_unlink::<Hyaline>(snapshot_scan);
                multi_node_chain_unlink::<Nbr>(snapshot_scan);
                multi_node_chain_unlink::<Vbr>(snapshot_scan);
            }
        }
    }

    #[test]
    fn restart_counter_stays_zero_single_threaded() {
        let list: HarrisList<u64, Hp> = HarrisList::with_config(cfg());
        let mut h = list.handle();
        for i in 0..100 {
            list.insert(&mut h, i);
        }
        for i in 0..100 {
            list.remove(&mut h, &i);
        }
        assert_eq!(list.restarts(), 0);
    }
}
