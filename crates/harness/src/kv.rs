//! Key-value (map) workload runner: the value-bearing counterpart of the
//! membership workloads in [`crate::workload`].
//!
//! The paper's benchmark only measures membership (`contains`), but the whole
//! point of the guard-scoped `ConcurrentMap` API is that a `get` can hand back
//! a borrow of the stored value under SMR protection.  This module drives
//! exactly that path through the harness's one worker loop, with `Payload` as
//! its value type: workers hold a guard that they repin every
//! [`RunConfig::pin_batch`] operations, `get` values and *read their bytes*
//! (so a use-after-free or torn read would be observed, not optimized away),
//! `insert` freshly built payloads, and `remove` entries.  Key draws, the
//! Zipfian skew and range scans are the membership workloads' own.  The
//! `exp cache` experiment sweeps this read-dominated workload over every
//! scheme variant in [`SmrKind::ALL`].
//!
//! Payload integrity doubles as a safety check: every payload is derived from
//! its key, and the hot loop panics if a value read under a guard (by `get`
//! or by a scan) ever disagrees with its key — under a correct SMR scheme
//! that must be impossible, no matter how aggressively nodes are recycled.

use crate::workload::{run_timed_as, BenchValue, DsKind, RunConfig, RunResult};
use scot::ConcurrentMap;
use scot_smr::SmrKind;

/// The value stored by the key-value workloads: a key-derived stamp followed
/// by `value_bytes` of padding whose every byte is also derived from the key.
///
/// The redundancy is deliberate: a reader holding `&Payload` can cheaply
/// verify that the borrow still belongs to the key it looked up, which turns
/// every `get` of the benchmark into a use-after-free / torn-read detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    stamp: u64,
    pad: Box<[u8]>,
}

impl Payload {
    /// Builds the payload for `key` with `bytes` bytes of padding.
    pub fn new(key: u64, bytes: usize) -> Self {
        Self {
            stamp: key,
            pad: vec![Self::pad_byte(key); bytes].into_boxed_slice(),
        }
    }

    #[inline]
    fn pad_byte(key: u64) -> u8 {
        (key as u8) ^ 0x5c
    }

    /// The key this payload was built for.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of padding bytes.
    #[inline]
    pub fn pad_len(&self) -> usize {
        self.pad.len()
    }

    /// Cheap integrity check used in the measurement hot loop: the stamp plus
    /// one padding byte (two loads — cheap enough to keep in the timed path).
    #[inline]
    pub fn quick_check(&self, key: u64) -> bool {
        self.stamp == key && self.pad.last().is_none_or(|&b| b == Self::pad_byte(key))
    }

    /// Full integrity check (every byte); used by the tests.
    pub fn verify(&self, key: u64) -> bool {
        self.stamp == key && self.pad.iter().all(|&b| b == Self::pad_byte(key))
    }
}

impl BenchValue for Payload {
    #[inline]
    fn make(key: u64, cfg: &RunConfig) -> Self {
        Payload::new(key, cfg.value_bytes)
    }

    #[inline]
    fn read<C: ConcurrentMap<u64, Self>>(map: &C, guard: &mut C::Guard<'_>, key: u64) -> u64 {
        map.get(guard, &key).map_or(0, |v| v.check(key))
    }

    #[inline]
    fn check(&self, key: u64) -> u64 {
        assert!(
            self.quick_check(key),
            "value read for key {key} under the guard is corrupted: stamp={} — \
             this is a reclamation bug",
            self.stamp
        );
        self.stamp
    }

    #[inline]
    fn sink(&self) -> u64 {
        self.stamp
    }
}

/// Runs a timed **key-value** workload (the `exp cache` measurement mode):
/// like [`crate::run_timed`], but over `ConcurrentMap<u64, Payload>` with a
/// value-reading `get` in the mix and `cfg.value_bytes` of padding per value.
pub fn run_timed_kv(ds: DsKind, smr: SmrKind, cfg: &RunConfig) -> RunResult {
    run_timed_as::<Payload>(ds, smr, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mix;
    use std::time::Duration;

    #[test]
    fn payload_integrity_roundtrip() {
        let p = Payload::new(42, 64);
        assert_eq!(p.stamp(), 42);
        assert_eq!(p.pad_len(), 64);
        assert!(p.verify(42));
        assert!(p.quick_check(42));
        assert!(!p.verify(43));
        assert!(!p.quick_check(43));
        // Zero padding is valid (the knob's lower bound).
        let empty = Payload::new(7, 0);
        assert!(empty.verify(7));
        assert!(empty.quick_check(7));
    }

    #[test]
    fn quick_kv_run_produces_sane_numbers() {
        let mut cfg = RunConfig::paper_default(2, 256).quick();
        cfg.mix = Mix::READ_90;
        cfg.value_bytes = 32;
        let r = run_timed_kv(DsKind::HashMap, SmrKind::Hp, &cfg);
        assert!(r.ops > 0, "no kv operations completed");
        assert!(r.ops_per_sec > 0.0);
        assert!(
            r.avg_unreclaimed.is_some(),
            "HP must report memory overhead"
        );
        assert_eq!(r.ds, "HashMap");
        assert_eq!(r.smr, "HP");
    }

    #[test]
    fn skewed_batched_kv_workload_runs_under_every_scheme() {
        // Zipfian keys and a held, batch-repinned guard on the key-value
        // path, with scans so every value-check site runs.
        let cfg = RunConfig {
            duration: Duration::from_millis(40),
            value_bytes: 16,
            zipf_theta: 0.99,
            pin_batch: 16,
            mix: Mix {
                read_pct: 70,
                insert_pct: 10,
                delete_pct: 10,
                scan_pct: 10,
            },
            ..RunConfig::paper_default(2, 256)
        };
        for smr in SmrKind::ALL {
            let r = run_timed_kv(DsKind::HashMap, smr, &cfg);
            assert!(
                r.ops > 0,
                "{smr}: no kv operations with zipf + pin_batch=16"
            );
            assert!(r.scanned_keys > 0, "{smr}: kv scans yielded nothing");
        }
    }

    #[test]
    fn every_ds_runs_the_kv_workload_under_a_robust_scheme() {
        let cfg = RunConfig {
            duration: Duration::from_millis(40),
            value_bytes: 16,
            ..RunConfig::paper_default(2, 64)
        };
        for ds in DsKind::ALL {
            let r = run_timed_kv(ds, SmrKind::Ibr, &cfg);
            assert!(r.ops > 0, "{ds} completed no kv operations under IBR");
        }
    }
}
