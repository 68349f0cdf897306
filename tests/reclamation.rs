//! Reclamation-focused integration tests: no leaks after quiescence, no
//! premature frees under load, and the robustness behaviour (Theorem 1 versus
//! EBR's unbounded growth) that motivates the whole paper.

use scot::{ConcurrentSet, HarrisList, NmTree, SkipList};
use scot_smr::{
    Atomic, Ebr, He, Hp, Hyaline, Ibr, Nbr, Smr, SmrConfig, SmrGuard, SmrHandle, SmrKind, Vbr,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cfg() -> SmrConfig {
    SmrConfig {
        max_threads: 16,
        scan_threshold: 16,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        ..SmrConfig::default()
    }
}

/// Every node retired during a churn-heavy run must eventually be reclaimed
/// once all threads are quiescent, for every scheme.
fn churn_then_quiesce<S: Smr>() {
    let domain = S::new(cfg());
    let list: Arc<HarrisList<u64, S>> = Arc::new(HarrisList::new(domain.clone()));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..1500u64 {
                    let k = t * 100_000 + (i % 512);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                h.flush();
            });
        }
    });
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{}: retired nodes must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn churn_then_quiesce_hp() {
    churn_then_quiesce::<Hp>();
}

#[test]
fn churn_then_quiesce_he() {
    churn_then_quiesce::<He>();
}

#[test]
fn churn_then_quiesce_ibr() {
    churn_then_quiesce::<Ibr>();
}

#[test]
fn churn_then_quiesce_ebr() {
    churn_then_quiesce::<Ebr>();
}

#[test]
fn churn_then_quiesce_hyaline() {
    churn_then_quiesce::<Hyaline>();
}

#[test]
fn churn_then_quiesce_nbr() {
    churn_then_quiesce::<Nbr>();
}

#[test]
fn churn_then_quiesce_vbr() {
    churn_then_quiesce::<Vbr>();
}

/// Theorem 1 flavoured robustness check: with a reader stalled inside a
/// critical section, HP keeps the unreclaimed population bounded while EBR's
/// grows with the amount of churn.
#[test]
fn stalled_reader_bounded_under_hp_unbounded_under_ebr() {
    fn run<S: Smr>(churn: u64) -> usize {
        let domain = S::new(cfg());
        let list: Arc<HarrisList<u64, S>> = Arc::new(HarrisList::new(domain.clone()));
        // Stalled reader: registers with the domain, enters a critical section
        // and never leaves (the SMR-level equivalent of a preempted operation).
        let mut stalled = domain.register();
        let _guard = stalled.pin();

        let mut writer = list.handle();
        for i in 0..churn {
            let k = 10 + (i % 1024);
            list.insert(&mut writer, k);
            list.remove(&mut writer, &k);
        }
        writer.flush();
        domain.unreclaimed()
    }

    // Both backlogs depend only on the churn count (the SMR state machines
    // are driven by retire/scan counters, never by wall-clock time), so the
    // assertions below are deterministic regardless of how slowly the host
    // executes: scale the churn tenfold and compare the resulting backlogs.
    const SMALL_CHURN: u64 = 2_000;
    const LARGE_CHURN: u64 = 20_000;
    let hp_small = run::<Hp>(SMALL_CHURN);
    let hp_large = run::<Hp>(LARGE_CHURN);
    let ebr_small = run::<Ebr>(SMALL_CHURN);
    let ebr_large = run::<Ebr>(LARGE_CHURN);

    // HP: bounded by H*N + N*R regardless of churn volume (Theorem 1), so the
    // backlog must NOT scale with the churn: 10x the work, same ceiling.
    let bound = scot_smr::MAX_HAZARDS * 16 + 16 * 16;
    assert!(
        hp_small <= bound,
        "HP small churn exceeded bound: {hp_small}"
    );
    assert!(
        hp_large <= bound,
        "HP large churn exceeded bound: {hp_large}"
    );
    // EBR: the stalled reader freezes the epoch, so the backlog grows in
    // proportion to the churn count.  Demand at least half the 10x churn
    // ratio to leave slack for the limbo entries reclaimed before the stall
    // took effect, while still distinguishing linear growth from any bound.
    assert!(
        ebr_large >= ebr_small.saturating_mul(5),
        "EBR backlog should grow ~linearly with churn under a stalled reader \
         ({ebr_small} -> {ebr_large}, expected >= 5x)"
    );
    assert!(
        ebr_small as u64 >= SMALL_CHURN / 2,
        "EBR backlog ({ebr_small}) should retain most of the {SMALL_CHURN} churned nodes"
    );
}

/// Drop-counting payload: verifies that every allocated node is dropped
/// exactly once, whether it is reclaimed by the SMR scheme or freed by the
/// structure's destructor.
#[test]
fn every_node_dropped_exactly_once() {
    // Keys are Copy, so drop-counting cannot live in the key type; instead we
    // rely on the node-level bookkeeping: every successful insert allocates
    // exactly one list node and every node is freed either via SMR
    // reclamation or at list drop.  "Dropped exactly once" is approximated by
    // the domain's unreclaimed counter reaching zero once the list is gone.
    let domain = Hp::new(cfg());
    {
        let list: HarrisList<u64, Hp> = HarrisList::new(domain.clone());
        let mut h = list.handle();
        for i in 0..1000u64 {
            list.insert(&mut h, i);
        }
        for i in (0..1000u64).step_by(3) {
            list.remove(&mut h, &i);
        }
        h.flush();
        drop(h);
        // List dropped here: frees all reachable nodes.
    }
    let mut h = domain.register();
    h.flush();
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "all retired nodes must be reclaimed once the structure is gone"
    );
}

/// Guard-scoped value reads under reclamation churn: a `get` borrow must
/// never observe a torn or freed value, because the guard's protection (the
/// hazard slot / era interval backing the `&'g V`) outlives the borrow.  This
/// is the runtime half of the guard-lifetime argument — the compile-time half
/// lives in the `ConcurrentMap` compile-fail doc-tests.
///
/// Lives in its own module because the `ConcurrentMap` import would otherwise
/// make the set-style calls above ambiguous.
mod value_reads_under_churn {
    use super::cfg;
    use scot::{ConcurrentMap, HarrisList};
    use scot_smr::{Hp, Ibr, Smr, SmrHandle};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Redundantly encoded value: `check` fails on any torn, stale or
    /// recycled read (`b` is the complement of `a`, and `a` encodes the key).
    struct Pair {
        a: u64,
        b: u64,
    }

    impl Pair {
        fn new(key: u64) -> Self {
            let a = key.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            Self { a, b: !a }
        }

        fn check(&self, key: u64) -> bool {
            self.a == (key.wrapping_mul(0x9e3779b97f4a7c15) | 1) && self.b == !self.a
        }
    }

    fn churn<S: Smr>() {
        let domain = S::new(cfg());
        let list: Arc<HarrisList<u64, S, Pair>> = Arc::new(HarrisList::new(domain.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        const KEYS: u64 = 128;
        std::thread::scope(|s| {
            // Two writers: insert/remove the whole key range and flush
            // aggressively so retired nodes are reclaimed (and pool-recycled)
            // while readers still hold guard-scoped borrows.
            for t in 0..2u64 {
                let list = list.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let k = i % KEYS;
                        {
                            let mut g = list.pin(&mut h);
                            let _ = list.insert(&mut g, k, Pair::new(k));
                        }
                        {
                            let mut g = list.pin(&mut h);
                            let _ = list.remove(&mut g, &k);
                        }
                        if i.is_multiple_of(64) {
                            h.flush();
                        }
                        i += 1;
                    }
                    h.flush();
                });
            }
            // Four readers: every successful get's value must verify, and the
            // evicted value returned by a successful remove must too.
            for t in 0..4u64 {
                let list = list.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut x = t + 1;
                    for round in 0..30_000u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        let mut g = list.pin(&mut h);
                        if let Some(v) = list.get(&mut g, &k) {
                            assert!(
                                v.check(k),
                                "get({k}) observed a torn/freed value \
                                 (a={:#x}, b={:#x}) at round {round}",
                                v.a,
                                v.b
                            );
                        }
                        drop(g);
                        if round == 15_000 && t == 0 {
                            // Half-way through, stop the writers so the test
                            // also covers the quiescent tail.
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
        let mut h = domain.register();
        h.flush();
        drop(h);
        drop(list);
    }

    #[test]
    fn hp_guard_protects_value_borrows() {
        churn::<Hp>();
    }

    #[test]
    fn ibr_guard_protects_value_borrows() {
        churn::<Ibr>();
    }
}

/// A node whose destructor poisons its stamp, so a reader that still holds
/// it after a premature free sees the stamp change: to 0 on the free, or to a
/// newer stamp once the pool recycles the block.
struct Stamped(std::sync::atomic::AtomicU64);

impl Drop for Stamped {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The hazard publication window: a writer swaps a shared pointer to fresh
/// stamped nodes and retires each old one with `scan_threshold: 1`, so every
/// retire runs a full scan (and its heavy fence) and the pool recycles the
/// freed block at the next allocation.  A reader protects the shared pointer
/// and checks that the stamp stays put while it holds the protection.  A scan
/// that missed a hazard still in the reader's store buffer frees the node
/// under it.  Racy by nature: a pass is evidence, not proof.
fn hp_publication_window(snapshot_scan: bool) {
    use std::sync::atomic::{AtomicBool, AtomicU64};
    const READS: u64 = 100_000;
    let d = Hp::new(SmrConfig {
        max_threads: 2,
        scan_threshold: 1,
        snapshot_scan,
        pool_capacity: Some(32),
        ..SmrConfig::default()
    });
    let mut writer = d.register();
    let shared = {
        let mut g = writer.pin();
        Atomic::new(g.alloc(Stamped(AtomicU64::new(1))))
    };
    let done = AtomicBool::new(false);
    let failure = std::thread::scope(|s| {
        s.spawn(|| {
            let mut g = writer.pin();
            let mut stamp = 1;
            while !done.load(Ordering::Relaxed) {
                stamp += 1;
                let fresh = g.alloc(Stamped(AtomicU64::new(stamp)));
                let old = shared.swap(fresh, Ordering::AcqRel);
                // SAFETY: the swap unlinked `old`; only this thread swaps, so
                // it is retired exactly once.
                unsafe { g.retire(old) };
            }
        });
        let reader = s.spawn(|| {
            let mut reader = d.register();
            let mut g = reader.pin();
            let failure = (0..READS).find_map(|round| {
                let p = g.protect(0, &shared);
                // SAFETY: hazard 0 publishes `p`, validated against `shared`.
                let node = unsafe { p.deref() };
                let before = node.0.load(Ordering::Relaxed);
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
                let after = node.0.load(Ordering::Relaxed);
                (before == 0 || before != after)
                    .then(|| format!("round {round}: stamp moved {before} -> {after}"))
            });
            // Stop the writer before reporting, so a failure cannot hang it.
            done.store(true, Ordering::Relaxed);
            failure
        });
        reader.join().unwrap()
    });
    assert!(
        failure.is_none(),
        "protected node freed under a published hazard (snapshot={snapshot_scan}): {failure:?}"
    );
    let mut g = writer.pin();
    let last = shared.swap(scot_smr::Shared::null(), Ordering::AcqRel);
    // SAFETY: unlinked by the swap above, retired exactly once.
    unsafe { g.retire(last) };
    drop(g);
    writer.flush();
    assert_eq!(d.unreclaimed(), 0, "snapshot={snapshot_scan}");
}

#[test]
fn hp_publication_window_holds() {
    hp_publication_window(false);
}

#[test]
fn hpopt_publication_window_holds() {
    hp_publication_window(true);
}

/// Skip-list churn under the restricted schemes, with the block pool both on
/// and off: retired towers must stay bounded while threads churn (no
/// accumulation from the multi-level unlink/handshake protocol) and account
/// to exactly zero at quiescence.  This is the acceptance gate for the
/// skip-list's claim of full reclamation-scheme compatibility.
fn skiplist_churn_bounded_and_drained<S: Smr>(pool: bool) {
    let scan_threshold = 16usize;
    let max_threads = 16usize;
    let config = SmrConfig {
        max_threads,
        scan_threshold,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        pool_capacity: Some(if pool { 32 } else { 0 }),
    };
    let domain = S::new(config);
    let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
    const WORKERS: u64 = 4;
    const CHURN: u64 = 1500;
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..CHURN {
                    let k = t * 100_000 + (i % 256);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                // No final flush here: the backlog assertion below must see
                // whatever the amortized scans left behind.
            });
        }
    });
    // Quiescent (exact) read before any explicit flush: the leftover backlog
    // is at most the robust bound of hazards plus per-thread limbo slack —
    // never proportional to the 4 × 1500 removals the workers performed.
    let bound = scot_smr::MAX_HAZARDS * max_threads + max_threads * scan_threshold;
    let seen = domain.unreclaimed();
    assert!(
        seen <= bound,
        "{} (pool={pool}): churn backlog {seen} exceeds robust bound {bound} \
         (churned {} nodes)",
        domain.name(),
        WORKERS * CHURN
    );
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{} (pool={pool}): retired towers must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn skiplist_churn_bounded_under_hp_with_pool() {
    skiplist_churn_bounded_and_drained::<Hp>(true);
}

#[test]
fn skiplist_churn_bounded_under_hp_without_pool() {
    skiplist_churn_bounded_and_drained::<Hp>(false);
}

#[test]
fn skiplist_churn_bounded_under_ibr_with_pool() {
    skiplist_churn_bounded_and_drained::<Ibr>(true);
}

#[test]
fn skiplist_churn_bounded_under_ibr_without_pool() {
    skiplist_churn_bounded_and_drained::<Ibr>(false);
}

/// Churn-bounded backlog for the checkpoint-protocol schemes: NBR and VBR
/// are *not* robust (a stalled reader can block them, see
/// `SmrKind::is_robust`), but with every thread making progress their
/// cooperative protocols must still keep the backlog independent of the total
/// churn volume — NBR by neutralizing laggards as eras advance, VBR by
/// draining the recycle-queue prefix as the epoch moves.  After quiescence
/// both must account to exactly zero, with the block pool on and off.
fn checkpoint_scheme_churn_bounded_and_drained<S: Smr>(pool: bool) {
    let scan_threshold = 16usize;
    let max_threads = 16usize;
    let config = SmrConfig {
        max_threads,
        scan_threshold,
        epoch_freq_per_thread: 1,
        snapshot_scan: false,
        pool_capacity: Some(if pool { 32 } else { 0 }),
    };
    let domain = S::new(config);
    let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
    const WORKERS: u64 = 4;
    const CHURN: u64 = 1500;
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let list = list.clone();
            s.spawn(move || {
                let mut h = list.handle();
                for i in 0..CHURN {
                    let k = t * 100_000 + (i % 256);
                    list.insert(&mut h, k);
                    list.remove(&mut h, &k);
                }
                // No final flush: the backlog assertion must see what the
                // amortized era/epoch advancement left behind.
            });
        }
    });
    // Not the robust H*N bound — the cooperative bound instead: each thread
    // can hold at most a few scan-threshold batches spanning the two-era
    // (two-epoch) reclamation lag.  What matters is churn-independence: 6000
    // retired towers, yet the residue stays within this fixed ceiling.
    let bound = 4 * max_threads * scan_threshold;
    let seen = domain.unreclaimed();
    assert!(
        seen <= bound,
        "{} (pool={pool}): churn backlog {seen} exceeds cooperative bound {bound} \
         (churned {} nodes)",
        domain.name(),
        WORKERS * CHURN
    );
    let mut h = list.handle();
    for _ in 0..4 {
        h.flush();
    }
    drop(h);
    assert_eq!(
        domain.unreclaimed(),
        0,
        "{} (pool={pool}): retired towers must all be reclaimed after quiescence",
        domain.name()
    );
}

#[test]
fn skiplist_churn_bounded_under_nbr_with_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Nbr>(true);
}

#[test]
fn skiplist_churn_bounded_under_nbr_without_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Nbr>(false);
}

#[test]
fn skiplist_churn_bounded_under_vbr_with_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Vbr>(true);
}

#[test]
fn skiplist_churn_bounded_under_vbr_without_pool() {
    checkpoint_scheme_churn_bounded_and_drained::<Vbr>(false);
}

/// The skip list under the remaining reclaiming schemes must also drain to
/// zero at quiescence (the robustness *bound* above is HP/IBR-specific, the
/// no-leak property is universal).
#[test]
fn skiplist_churn_then_quiesce_all_schemes() {
    fn run<S: Smr>() {
        let domain = S::new(cfg());
        let list: Arc<SkipList<u64, S>> = Arc::new(SkipList::new(domain.clone()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..1000u64 {
                        let k = t * 100_000 + (i % 256);
                        list.insert(&mut h, k);
                        list.remove(&mut h, &k);
                    }
                    h.flush();
                });
            }
        });
        let mut h = list.handle();
        for _ in 0..4 {
            h.flush();
        }
        drop(h);
        assert_eq!(domain.unreclaimed(), 0, "{}", domain.name());
    }
    run::<Ebr>();
    run::<He>();
    run::<Hyaline>();
}

/// The tree must likewise reclaim everything after mixed concurrent churn.
#[test]
fn tree_reclaims_everything_after_concurrent_churn() {
    let domain = Ibr::new(cfg());
    let tree: Arc<NmTree<u64, Ibr>> = Arc::new(NmTree::new(domain.clone()));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = tree.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                for i in 0..1500u64 {
                    let k = t * 7 + (i % 256) * 31;
                    tree.insert(&mut h, k);
                    if i % 2 == 0 {
                        tree.remove(&mut h, &k);
                    }
                }
                h.flush();
            });
        }
    });
    let mut h = tree.handle();
    h.flush();
    drop(h);
    assert_eq!(domain.unreclaimed(), 0);
}

// ---------------------------------------------------------------------------
// Record lifecycle: adoption, batched retirement and domain teardown, checked
// once for every reclaiming variant (`HPopt`/`HEopt`/`IBRopt` are the
// `snapshot_scan` instances).
// ---------------------------------------------------------------------------

/// Payload that counts its destructor runs, so a test can assert that every
/// retired block was freed exactly once rather than only that the domain's
/// `unreclaimed` counter reads zero.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Four slots and a scan threshold no test reaches, so every reclamation
/// pass below is an explicit `flush` or a handle/domain teardown.
fn lifecycle_cfg(snapshot_scan: bool) -> SmrConfig {
    SmrConfig {
        max_threads: 4,
        scan_threshold: 64,
        epoch_freq_per_thread: 1,
        snapshot_scan,
        ..SmrConfig::default()
    }
}

/// Instantiates a generic lifecycle test as one `#[test]` per reclaiming
/// variant, in a module named after the test.
macro_rules! for_each_reclaiming_variant {
    ($test:ident) => {
        mod $test {
            use super::*;
            #[test]
            fn ebr() {
                super::$test::<Ebr>(false);
            }
            #[test]
            fn hp() {
                super::$test::<Hp>(false);
            }
            #[test]
            fn hpopt() {
                super::$test::<Hp>(true);
            }
            #[test]
            fn he() {
                super::$test::<He>(false);
            }
            #[test]
            fn heopt() {
                super::$test::<He>(true);
            }
            #[test]
            fn ibr() {
                super::$test::<Ibr>(false);
            }
            #[test]
            fn ibropt() {
                super::$test::<Ibr>(true);
            }
            #[test]
            fn hyaline() {
                super::$test::<Hyaline>(false);
            }
            #[test]
            fn nbr() {
                super::$test::<Nbr>(false);
            }
            #[test]
            fn vbr() {
                super::$test::<Vbr>(false);
            }
        }
    };
}

/// A handle leaked on a thread that then exits is adopted by a survivor's
/// flush: the dead slot's reservations are neutralized, its retired blocks
/// are freed exactly once, and the slot itself is recycled.  The dead thread
/// dies outside its critical section and, for every scheme but Hyaline,
/// also inside one (its guard leaked with a protection published); Hyaline
/// poisons a slot whose owner died inside a critical section, which its own
/// unit test covers.
fn leaked_handle_on_dead_thread_is_adopted<S: Smr>(snapshot_scan: bool) {
    for in_cs in [false, true] {
        let d = S::new(lifecycle_cfg(snapshot_scan));
        if in_cs && d.kind() == SmrKind::Hyaline {
            continue;
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let (d, drops) = (d.clone(), drops.clone());
            std::thread::spawn(move || {
                let mut h = d.register();
                let mut g = h.pin();
                let cell = Atomic::new(g.alloc(Counted(drops.clone())));
                let p = g.protect(0, &cell);
                // SAFETY: `p` is test-local and retired exactly once; the
                // protection published above is what adoption must clear.
                unsafe { g.retire(p) };
                for _ in 0..2 {
                    let q = g.alloc(Counted(drops.clone()));
                    // SAFETY: `q` was never published; retired exactly once.
                    unsafe { g.retire(q) };
                }
                if in_cs {
                    std::mem::forget(g);
                } else {
                    drop(g);
                }
                std::mem::forget(h);
            })
            .join()
            .unwrap();
        }
        let name = d.name();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "{name} in_cs={in_cs}");
        assert_eq!(d.unreclaimed(), 3, "{name} in_cs={in_cs}");
        let mut survivor = d.register();
        for _ in 0..8 {
            survivor.flush();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            3,
            "{name} in_cs={in_cs}: adoption must free the dead thread's retired blocks exactly once"
        );
        assert_eq!(d.unreclaimed(), 0, "{name} in_cs={in_cs}");
        let others: Vec<_> = (1..4)
            .map(|_| {
                d.try_register().unwrap_or_else(|e| {
                    panic!("{name} in_cs={in_cs}: adopted slot not recycled: {e}")
                })
            })
            .collect();
        drop(others);
    }
}

for_each_reclaiming_variant!(leaked_handle_on_dead_thread_is_adopted);

/// Domain teardown frees what no handle could: the vault of a handle leaked
/// on a dead thread and never adopted, plus a block a departing handle had to
/// leave behind (on the orphan list) because a reader still protected it.
fn orphans_are_freed_on_domain_drop<S: Smr>(snapshot_scan: bool) {
    let d = S::new(lifecycle_cfg(snapshot_scan));
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let (d, drops) = (d.clone(), drops.clone());
        std::thread::spawn(move || {
            let mut h = d.register();
            let mut g = h.pin();
            for _ in 0..3 {
                let p = g.alloc(Counted(drops.clone()));
                // SAFETY: `p` was never published; retired exactly once.
                unsafe { g.retire(p) };
            }
            drop(g);
            std::mem::forget(h);
        })
        .join()
        .unwrap();
    }
    let mut reader = d.register();
    let mut leaving = d.register();
    let cell = Atomic::new(leaving.pin().alloc(Counted(drops.clone())));
    let mut rg = reader.pin();
    let p = rg.protect(0, &cell);
    // SAFETY: `p` is test-local and retired exactly once; the reader's
    // protection keeps the departing handle's sweep from freeing it.
    unsafe { leaving.pin().retire(p) };
    drop(leaving);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "{}", d.name());
    drop(rg);
    drop(reader);
    // The leaked handle's `Arc` clone would keep the domain alive forever:
    // release exactly that reference, as if the handle's memory had been
    // reclaimed without running its destructor.
    assert_eq!(Arc::strong_count(&d), 2);
    // SAFETY: the leaked handle holds one strong count and is never touched
    // again (its thread has exited), so this decrement cannot free the
    // domain under a live user; `d` itself still holds the other count.
    unsafe { Arc::decrement_strong_count(Arc::as_ptr(&d)) };
    drop(d);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        4,
        "every retired block must be freed exactly once by the end of domain drop"
    );
}

for_each_reclaiming_variant!(orphans_are_freed_on_domain_drop);
