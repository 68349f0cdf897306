//! The four workloads and the maps they drive through the public
//! `scot::ConcurrentMap` API.

use crate::keys::{mix, KeyDist, Mix, Zipf};
use scot::{ConcurrentMap, HarrisList, HashMap, NmTree, SkipList};
use scot_smr::{Smr, SmrConfig};
use std::sync::Arc;

/// Closed-loop worker threads; the benchmark box has two cores.
pub const WORKERS: usize = 2;

/// Entries one scan reads (or fewer at the top of the key range).
pub const SCAN_LEN: usize = 64;

/// A value that carries a stamp of its key, so every read can check that it
/// got back the value stored under the key it asked for.
pub trait Stamp: Send + Sync + Clone + 'static {
    fn stamp(key: u64) -> Self;
    fn holds(&self, key: u64) -> bool;
}

impl Stamp for u64 {
    fn stamp(key: u64) -> Self {
        mix(key)
    }
    #[inline]
    fn holds(&self, key: u64) -> bool {
        *self == mix(key)
    }
}

/// A 64-byte row: eight words, each a stamp of the key and its index.
#[derive(Clone)]
pub struct Row([u64; 8]);

impl Stamp for Row {
    fn stamp(key: u64) -> Self {
        Row(std::array::from_fn(|i| mix(key ^ ((i as u64) << 56))))
    }
    #[inline]
    fn holds(&self, key: u64) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &w)| w == mix(key ^ ((i as u64) << 56)))
    }
}

/// A map the benchmark can build and whose domain it can sample.
pub trait Target<V: Stamp>: ConcurrentMap<u64, V> {
    type S: Smr;
    fn build(spec: &Spec) -> Self;
    fn domain(&self) -> &Arc<Self::S>;
    /// A handle whose internal randomness, if any, derives from `seed`.
    fn seeded_handle(&self, _seed: u64) -> Self::Handle {
        self.handle()
    }
}

fn domain<S: Smr>() -> Arc<S> {
    S::new(SmrConfig::for_threads(WORKERS))
}

impl<S: Smr, V: Stamp> Target<V> for HarrisList<u64, S, V> {
    type S = S;
    fn build(_: &Spec) -> Self {
        HarrisList::new(domain())
    }
    fn domain(&self) -> &Arc<S> {
        HarrisList::domain(self)
    }
}

impl<S: Smr, V: Stamp> Target<V> for NmTree<u64, S, V> {
    type S = S;
    fn build(_: &Spec) -> Self {
        NmTree::new(domain())
    }
    fn domain(&self) -> &Arc<S> {
        NmTree::domain(self)
    }
}

impl<S: Smr, V: Stamp> Target<V> for HashMap<u64, S, V> {
    type S = S;
    fn build(spec: &Spec) -> Self {
        HashMap::new(spec.buckets, domain())
    }
    fn domain(&self) -> &Arc<S> {
        HashMap::domain(self)
    }
}

impl<S: Smr, V: Stamp> Target<V> for SkipList<u64, S, V> {
    type S = S;
    fn build(_: &Spec) -> Self {
        SkipList::new(domain())
    }
    fn domain(&self) -> &Arc<S> {
        SkipList::domain(self)
    }
    /// Tower heights come from the handle's RNG.
    fn seeded_handle(&self, seed: u64) -> Self::Handle {
        self.handle_with_seed(seed)
    }
}

/// One workload: structure × scheme × key range × mix × key distribution.
pub struct Spec {
    pub name: &'static str,
    /// Display name of the scheme, as `SmrKind::name` spells it.
    pub scheme: &'static str,
    pub range: u64,
    pub mix: Mix,
    pub dist: KeyDist,
    /// Hash-map bucket count (unused by the other structures).
    pub buckets: usize,
}

pub const WORKLOADS: [&str; 4] = [
    "harris-hp",
    "nmtree-ibr-update",
    "hashmap-ebr-get",
    "skiplist-vbr-scan",
];

pub fn spec(name: &str) -> Option<Spec> {
    let mix = |read, insert, remove, scan| Mix {
        read,
        insert,
        remove,
        scan,
    };
    let (scheme, range, mix, dist, buckets) = match name {
        // Paper Fig 8: ~256 protected hops per op; protect + validation dominate.
        "harris-hp" => ("HP", 1024, mix(50, 25, 25, 0), KeyDist::Uniform, 0),
        // ~2M nodes, out of L2; alloc/retire/reclaim and the block pool dominate.
        "nmtree-ibr-update" => ("IBR", 2_000_000, mix(20, 40, 40, 0), KeyDist::Uniform, 0),
        // ~4 hops per op; fixed per-op cost (pin/unpin, value check) dominates.
        "hashmap-ebr-get" => (
            "EBR",
            65_536,
            mix(90, 5, 5, 0),
            KeyDist::Zipf(Zipf::new(65_536, 0.99)),
            4096,
        ),
        // The only workload through RangeScan and the checkpoint restart rung.
        "skiplist-vbr-scan" => ("VBR", 65_536, mix(30, 10, 10, 50), KeyDist::Uniform, 0),
        _ => return None,
    };
    Some(Spec {
        name: WORKLOADS.iter().find(|w| **w == name)?,
        scheme,
        range,
        mix,
        dist,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_check_their_own_key_only() {
        assert!(u64::stamp(5).holds(5) && !u64::stamp(5).holds(6));
        assert!(Row::stamp(5).holds(5) && !Row::stamp(5).holds(6));
        assert_eq!(std::mem::size_of::<Row>(), 64);
    }

    #[test]
    fn every_workload_has_a_full_mix() {
        for name in WORKLOADS {
            let s = spec(name).expect("listed workload");
            assert_eq!(s.name, name);
            assert_eq!(
                s.mix.read + s.mix.insert + s.mix.remove + s.mix.scan,
                100,
                "{name}"
            );
            assert!(scot_smr::SmrKind::parse(s.scheme).is_some());
        }
        assert!(spec("bogus").is_none());
    }
}
