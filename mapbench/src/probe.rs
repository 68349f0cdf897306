//! Single-thread layer probes: fixed-count loops over one `scot-smr` or
//! `scot` entry point, reported as ns per call (median of five batches).
//! They run for every reclamation family, so schemes without an end-to-end
//! workload still get pin / protect / alloc-retire / flush numbers.

use crate::stats::median;
use crate::targets::WORKERS;
use scot::{ConcurrentMap, HarrisList};
use scot_smr::{
    Atomic, Ebr, He, Hp, Hyaline, Ibr, Nbr, Nr, Smr, SmrConfig, SmrGuard, SmrHandle, Vbr,
};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;
/// Keys of the list `scot.probe.hop_ns` walks past the end of.
const HOP_KEYS: u64 = 1024;
/// Insert+remove pairs between two timed flushes.
const FLUSH_EVERY: u64 = 64;

/// Probe names, in report order; each is reported as `<probe>.<scheme>`.
pub const PROBES: [&str; 6] = [
    "smr.probe.pin_unpin_ns",
    "smr.probe.repin_ns",
    "smr.probe.protect_ns",
    "scot.probe.hop_ns",
    "smr.probe.alloc_retire_ns",
    "smr.probe.flush_ns",
];

/// The eight reclamation families, by `SmrKind::name`.
pub const FAMILIES: [&str; 8] = ["NR", "EBR", "HP", "HE", "IBR", "HLN", "NBR", "VBR"];

/// Median over `BATCHES` of the mean ns per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn domain<S: Smr>() -> std::sync::Arc<S> {
    S::new(SmrConfig::for_threads(WORKERS))
}

/// The six probes for scheme `S`, in [`PROBES`] order.
fn probe<S: Smr>() -> [f64; 6] {
    let smr = domain::<S>();
    let mut h = smr.register();
    let pin_unpin = ns_per_call(200_000, || drop(black_box(h.pin())));

    let mut g = h.pin();
    let repin = ns_per_call(200_000, || g.repin());
    let node = g.alloc(0u64);
    let cell = Atomic::new(node);
    let protect = ns_per_call(200_000, || {
        black_box(g.protect(0, black_box(&cell)));
    });
    g.clear(0);
    // SAFETY: `node` came from this guard's `alloc` and was only ever stored
    // in `cell`, which no other thread can reach; it is freed exactly once.
    unsafe { g.dealloc(node) };
    drop(g);

    let list: HarrisList<u64, S, u64> = HarrisList::new(domain());
    let mut lh = ConcurrentMap::handle(&list);
    for k in 0..HOP_KEYS {
        let mut g = list.pin(&mut lh);
        let _ = list.insert(&mut g, k, k);
    }
    let hop = ns_per_call(2_000, || {
        let mut g = list.pin(&mut lh);
        black_box(list.contains(&mut g, &HOP_KEYS));
    }) / HOP_KEYS as f64;

    let churn: HarrisList<u64, S, u64> = HarrisList::new(domain());
    let mut ch = ConcurrentMap::handle(&churn);
    let mut g = churn.pin(&mut ch);
    let alloc_retire = ns_per_call(50_000, || {
        let _ = churn.insert(&mut g, 7, 7);
        black_box(churn.remove(&mut g, &7).is_some());
        churn.repin(&mut g);
    });
    drop(g);

    let flush = median(
        &(0..BATCHES)
            .map(|_| {
                let rounds = 100;
                let mut ns = 0;
                for _ in 0..rounds {
                    let mut g = churn.pin(&mut ch);
                    for k in 0..FLUSH_EVERY {
                        let _ = churn.insert(&mut g, k, k);
                        black_box(churn.remove(&mut g, &k).is_some());
                    }
                    drop(g);
                    let t = Instant::now();
                    churn.flush(&mut ch);
                    ns += t.elapsed().as_nanos();
                }
                ns as f64 / rounds as f64
            })
            .collect::<Vec<_>>(),
    );
    [pin_unpin, repin, protect, hop, alloc_retire, flush]
}

/// Every probe for every family: `(family, values in PROBES order)`.
pub fn probe_all() -> Vec<(&'static str, [f64; 6])> {
    FAMILIES
        .iter()
        .map(|&f| {
            let v = match f {
                "NR" => probe::<Nr>(),
                "EBR" => probe::<Ebr>(),
                "HP" => probe::<Hp>(),
                "HE" => probe::<He>(),
                "IBR" => probe::<Ibr>(),
                "HLN" => probe::<Hyaline>(),
                "NBR" => probe::<Nbr>(),
                "VBR" => probe::<Vbr>(),
                _ => unreachable!("FAMILIES lists only the arms above"),
            };
            (f, v)
        })
        .collect()
}
