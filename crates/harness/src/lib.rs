//! Benchmark harness reproducing the paper's evaluation (§5).
//!
//! The harness mirrors the methodology of the paper's artifact:
//!
//! * every run **prefills** the structure with unique keys drawn from 50% of
//!   the key range;
//! * worker threads execute a read/insert/delete/scan mix (50/25/25 for the
//!   "50% read – 50% write" workload of Figures 8-12; 90/5/5, 0/50/50 and the
//!   scan-heavy 80%-range-scan mix are also available) over uniformly random
//!   keys for a fixed duration — every measured range scan is oracle-checked
//!   (window bounds, uniqueness, ordering) as it runs;
//! * throughput is reported in operations per second and the **memory
//!   overhead** as the average number of retired-but-not-yet-reclaimed
//!   objects, sampled periodically during the run (Figures 10-12b);
//! * traversal **restarts** are counted for Table 2.
//!
//! The run modes:
//!
//! * [`run_timed`] — duration-based, like the paper's
//!   `./bench <ds> <seconds> ...`; what the `scot-bench` binary runs;
//! * [`run_fixed_ops`] — a fixed operation count per thread, used by the
//!   Criterion benches so that every sample performs a deterministic amount
//!   of work;
//! * [`run_timed_kv`] — the timed mode over [`Payload`] values, whose every
//!   read is integrity-checked under the guard (`exp cache`);
//! * [`run_fault_scenario`] and [`run_service_scenario`] — phased runs with
//!   misbehaving actors (`exp faults`) or per-phase latency histograms
//!   (`exp service`).
//!
//! All of them build their structure × scheme pair at one dispatch point and
//! run the same worker loop, so every [`RunConfig`] knob means the same thing
//! on every path (DESIGN.md, "The benchmark harness: one driver").
//!
//! The hardware substitution relative to the paper (128-core EPYC + mimalloc
//! versus whatever machine this crate runs on with the system allocator) is
//! documented in `DESIGN.md`; relative trends rather than absolute numbers are
//! the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faults;
pub mod hist;
pub mod kv;
mod phases;
pub mod service;
pub mod workload;

pub use faults::{run_fault_scenario, FaultKind, FaultPlan, FaultReport};
pub use hist::{LatencyHistogram, OpClass, OpHistograms};
pub use kv::{run_timed_kv, Payload};
pub use service::{run_service_scenario, ServicePlan, ServiceReport};
pub use workload::{run_fixed_ops, run_timed, BackoffMode, DsKind, Mix, RunConfig, RunResult};

pub use scot_smr::SmrKind;

/// Returns the thread counts used by the experiment presets, scaled to the
/// host: the paper sweeps 1..384 threads on a 256-hardware-thread box; here we
/// sweep powers of two up to twice the available parallelism (the last point
/// being the oversubscribed configuration, like the paper's 384-thread point).
pub fn default_thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize];
    let mut t = 2;
    while t < cores {
        counts.push(t);
        t *= 2;
    }
    if cores > 1 {
        counts.push(cores);
    }
    counts.push((cores * 2).max(4)); // oversubscription point
    counts.dedup();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_start_at_one_and_oversubscribe() {
        let counts = default_thread_counts();
        assert_eq!(counts[0], 1);
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(*counts.last().unwrap() >= cores);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted, "thread counts must be ascending");
    }
}
