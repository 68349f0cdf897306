//! The `exp service` scenario: a production-shaped cache-server run with
//! per-phase, per-op-class latency histograms.
//!
//! Every other experiment is a fixed-duration uniform-key throughput run, but
//! the paper's central claim — fixed optimistic traversals make the
//! structures compatible with *robust* reclamation at little cost — only
//! matters in production if that cost stays invisible in the tail, which is
//! exactly where reclamation stalls (HP scans, NBR neutralization, VBR
//! checkpoint restarts) surface.  The service scenario therefore runs a
//! Zipfian-skewed key-value style workload through four phases driven by the
//! shared phase clock (the crate-private `phases` module, shared with the
//! fault runner):
//!
//! 1. **warmup** — the paper's 50/25/25 mix (minus a sliver of scans) brings
//!    the structure and the reclamation scheme to steady state.
//! 2. **read-storm** — a 90%-read phase with scans: the cache-hit regime
//!    where get tail latency is the product.
//! 3. **churn-spike** — writes dominate (≈88%): retirement pressure peaks,
//!    so reclamation work (and its latency cost) peaks with it.
//! 4. **reader-stall** — the paper-default mix again, but with stalled
//!    readers pinned for the whole phase: non-robust schemes balloon their
//!    footprint here and every scheme shows what a stalled reader does to
//!    its tail.
//!
//! Latency is recorded into lock-free *thread-local* histograms
//! ([`crate::hist::OpHistograms`]) — one per op-class — and merged into the
//! per-phase accumulators only when a worker observes a phase edge, so the
//! hot loop never touches shared state.  Timing is amortized: only 1-in-N
//! operations are stamped (two `Instant::now` calls), which leaves the
//! percentile estimate unbiased while keeping the timer out of the
//! measurement for the other N−1 ops (see DESIGN.md § Latency methodology).

use crate::hist::{OpClass, OpHistograms};
use crate::phases::{drive_phases, silence_injected_panics, stall_actor, PhaseEvent};
use crate::workload::{
    prepare, spawn_workers, with_target, DsKind, Mix, Observer, RunConfig, Target, Totals, Visit,
};
use scot::{ConcurrentMap, TraversalSnapshot};
use scot_smr::SmrKind;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of service phases (the phase word's stop value).
pub const NUM_SERVICE_PHASES: usize = 4;

/// Phase names, indexed by the phase word — the single source of truth used
/// by the table renderer, the JSON artifact, and the docs.
pub const SERVICE_PHASE_NAMES: [&str; NUM_SERVICE_PHASES] =
    ["warmup", "read-storm", "churn-spike", "reader-stall"];

/// The service scenario's schedule and knobs.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Length of the steady-state warmup phase.
    pub warmup: Duration,
    /// Length of the read-dominated phase.
    pub read_storm: Duration,
    /// Length of the write-dominated phase.
    pub churn_spike: Duration,
    /// Length of the stalled-reader phase.
    pub reader_stall: Duration,
    /// Zipfian skew for key draws (`0.0` = uniform; the preset uses 0.99).
    pub zipf_theta: f64,
    /// Stalled readers pinned through the reader-stall phase.
    pub stall_victims: usize,
    /// Amortized timing rate: 1-in-`sample_every` operations are stamped.
    pub sample_every: u32,
}

impl ServicePlan {
    /// Splits a total run length into the four phases (≈ 20/30/25/25 with
    /// floors so `--quick` runs still give every phase time to mean
    /// something) with the preset's default victim count and sampling rate.
    pub fn new(total: Duration, zipf_theta: f64) -> Self {
        Self {
            warmup: (total * 20 / 100).max(Duration::from_millis(30)),
            read_storm: (total * 30 / 100).max(Duration::from_millis(40)),
            churn_spike: (total * 25 / 100).max(Duration::from_millis(40)),
            reader_stall: (total * 25 / 100).max(Duration::from_millis(40)),
            zipf_theta,
            stall_victims: 2,
            sample_every: 16,
        }
    }

    /// The phase schedule in phase-word order.
    pub fn durations(&self) -> [Duration; NUM_SERVICE_PHASES] {
        [
            self.warmup,
            self.read_storm,
            self.churn_spike,
            self.reader_stall,
        ]
    }

    /// The operation mix for a phase.  Every phase carries at least a sliver
    /// of every op-class so all four histograms populate in every phase.
    pub fn mix_for(&self, phase: u8) -> Mix {
        match phase as usize {
            1 => Mix {
                read_pct: 90,
                insert_pct: 3,
                delete_pct: 3,
                scan_pct: 4,
            },
            2 => Mix {
                read_pct: 10,
                insert_pct: 44,
                delete_pct: 44,
                scan_pct: 2,
            },
            // warmup (0) and reader-stall (3): the paper-default mix with a
            // sliver of scans, so the stall phase is directly comparable to
            // warmup.
            _ => Mix {
                read_pct: 50,
                insert_pct: 24,
                delete_pct: 24,
                scan_pct: 2,
            },
        }
    }
}

/// Per-phase shared accumulator: workers merge their thread-local histograms
/// and op counts here when they observe the phase edge — never per-op.
struct PhaseAccum {
    hists: Mutex<OpHistograms>,
    ops: AtomicU64,
}

impl PhaseAccum {
    fn new() -> Self {
        Self {
            hists: Mutex::new(OpHistograms::new()),
            ops: AtomicU64::new(0),
        }
    }
}

/// What one phase produced, before flattening into report rows.
#[derive(Debug)]
pub struct ServicePhaseOutput {
    /// Phase name ([`SERVICE_PHASE_NAMES`]).
    pub name: &'static str,
    /// Worker operations completed during the phase.
    pub ops: u64,
    /// Wall-clock length of the phase as driven (edge-to-edge).
    pub secs: f64,
    /// Merged latency histograms, one per op-class.
    pub hists: OpHistograms,
    /// Peak sampled unreclaimed count during the phase.
    pub peak_unreclaimed: usize,
    /// Traversal restarts during the phase (edge-to-edge delta).
    pub restarts: u64,
    /// §3.2.1 recoveries during the phase (edge-to-edge delta).
    pub recoveries: u64,
}

/// Raw output of one service run (one structure × scheme cell).
#[derive(Debug)]
pub struct ServiceOutput {
    /// One entry per phase, in phase order.
    pub phases: Vec<ServicePhaseOutput>,
    /// Total wall-clock seconds for the phased run.
    pub elapsed_secs: f64,
    /// Total worker operations across all phases.
    pub ops: u64,
}

/// The service measurement, as an observer of the harness's one worker loop
/// ([`crate::workload::drive`]).
///
/// The worker keeps *thread-local* histograms and an op counter, re-reads the
/// phase word every operation (an uncontended `Acquire` load), switches to
/// the new phase's mix at each edge, and flushes its locals into the phase's
/// shared accumulator only when the word changes — so the measurement adds no
/// shared-memory traffic to the hot path.  1-in-`sample_every` operations
/// are timed.
struct PhaseObserver<'a> {
    phase: &'a AtomicU8,
    plan: &'a ServicePlan,
    accums: &'a [PhaseAccum; NUM_SERVICE_PHASES],
    my_phase: u8,
    local: OpHistograms,
    local_ops: u64,
    tick: u32,
}

impl Observer for PhaseObserver<'_> {
    fn next_op(&mut self, mix: &mut Mix) -> bool {
        let cur = self.phase.load(Ordering::Acquire);
        if cur != self.my_phase {
            // Phase edge: drain the thread-local measurements into the phase
            // that just ended.  This is the only shared-state touch.
            let acc = &self.accums[self.my_phase as usize];
            acc.hists
                .lock()
                .expect("another worker panicked while merging")
                .merge(&self.local);
            acc.ops.fetch_add(self.local_ops, Ordering::Relaxed);
            self.local = OpHistograms::new();
            self.local_ops = 0;
            self.my_phase = cur;
            if cur as usize >= NUM_SERVICE_PHASES {
                return false;
            }
            *mix = self.plan.mix_for(cur);
        }
        self.local_ops += 1;
        true
    }

    fn stamp(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(1);
        self.tick.is_multiple_of(self.plan.sample_every.max(1))
    }

    fn record(&mut self, class: OpClass, ns: u64) {
        self.local.record(class, ns);
    }
}

/// [`service_inner`] as the visitor [`crate::workload::with_target`] hands the
/// structure it builds.
struct ServiceRun<'a> {
    cfg: &'a RunConfig,
    plan: &'a ServicePlan,
}

impl Visit<()> for ServiceRun<'_> {
    type Out = ServiceOutput;

    fn visit<C: ConcurrentMap<u64, ()>>(self, target: &Target<C>) -> ServiceOutput {
        service_inner(target, self.cfg, self.plan)
    }
}

/// The phased service runner.
fn service_inner<C: ConcurrentMap<u64, ()>>(
    target: &Target<C>,
    cfg: &RunConfig,
    plan: &ServicePlan,
) -> ServiceOutput {
    // The workers start in the warmup mix and draw keys with the plan's
    // skew; every other knob is the run's own.
    let cfg = &RunConfig {
        mix: plan.mix_for(0),
        zipf_theta: plan.zipf_theta,
        ..cfg.clone()
    };
    for p in 0..NUM_SERVICE_PHASES {
        plan.mix_for(p as u8).validate();
    }
    // Stall actors run on "fault-actor-…" named threads; keep their panics
    // (there are none by design, but symmetry with the fault harness is
    // cheap) from spamming if one ever trips.
    silence_injected_panics();
    let phase = AtomicU8::new(0);
    let accums: [PhaseAccum; NUM_SERVICE_PHASES] = std::array::from_fn(|_| PhaseAccum::new());
    let never = AtomicBool::new(false);
    let totals = Totals::default();
    let mut edge_stats: Vec<TraversalSnapshot> = Vec::with_capacity(NUM_SERVICE_PHASES);
    let mut edge_elapsed: Vec<f64> = Vec::with_capacity(NUM_SERVICE_PHASES);
    let mut peaks = [0usize; NUM_SERVICE_PHASES];
    prepare(target, cfg);
    let baseline = target.map.traversal_stats();
    let elapsed_secs = std::thread::scope(|s| {
        spawn_workers(s, target, cfg, &never, None, &totals, |_| PhaseObserver {
            phase: &phase,
            plan,
            accums: &accums,
            my_phase: 0,
            local: OpHistograms::new(),
            local_ops: 0,
            tick: 0,
        });
        for v in 0..plan.stall_victims {
            let phase = &phase;
            let stall_at = (NUM_SERVICE_PHASES - 1) as u8;
            std::thread::Builder::new()
                .name(format!("fault-actor-stall-{v}"))
                .spawn_scoped(s, move || {
                    stall_actor(&target.map, phase, cfg.key_range, v, stall_at);
                })
                .expect("failed to spawn stall actor");
        }
        // The main thread is the phase clock and the footprint sampler —
        // Hyaline included, since the stall phase is a robustness question.
        drive_phases(
            &phase,
            &plan.durations(),
            cfg.sample_interval,
            target.unreclaimed.as_ref(),
            |ev| match ev {
                PhaseEvent::Sample {
                    phase: p,
                    unreclaimed,
                } => {
                    let p = p as usize;
                    peaks[p] = peaks[p].max(unreclaimed);
                }
                PhaseEvent::Edge {
                    phase: p,
                    unreclaimed,
                    elapsed,
                } => {
                    let p = p as usize;
                    peaks[p] = peaks[p].max(unreclaimed);
                    edge_stats.push(target.map.traversal_stats());
                    edge_elapsed.push(elapsed.as_secs_f64());
                }
            },
        )
    });
    // Every worker flushed its locals when it saw the stop value, and every
    // thread has joined, so the accumulators are complete and unaliased.
    let mut phases = Vec::with_capacity(NUM_SERVICE_PHASES);
    let mut prev_stats = baseline;
    let mut prev_t = 0.0;
    let mut total_ops = 0u64;
    for (p, acc) in accums.into_iter().enumerate() {
        let hists = acc.hists.into_inner().unwrap();
        let ops = acc.ops.into_inner();
        let at_edge = edge_stats[p];
        let t_edge = edge_elapsed[p];
        total_ops += ops;
        phases.push(ServicePhaseOutput {
            name: SERVICE_PHASE_NAMES[p],
            ops,
            secs: (t_edge - prev_t).max(0.0),
            hists,
            peak_unreclaimed: peaks[p],
            restarts: at_edge.restarts.saturating_sub(prev_stats.restarts),
            recoveries: at_edge.recoveries.saturating_sub(prev_stats.recoveries),
        });
        prev_stats = at_edge;
        prev_t = t_edge;
    }
    ServiceOutput {
        phases,
        elapsed_secs,
        ops: total_ops,
    }
}

/// One row of the service result: one structure × scheme × phase × op-class.
///
/// `ops_per_sec` is the *phase's* total throughput (repeated across its four
/// class rows); the percentiles are per-class.  Percentiles are `None` when
/// the class recorded no samples in the phase (rendered as `-` in the table
/// and `null` in `BENCH_service.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceReport {
    /// Data structure under test.
    pub ds: String,
    /// Reclamation scheme under test.
    pub smr: String,
    /// Regular worker threads (stall actors excluded).
    pub threads: usize,
    /// Phase name ([`SERVICE_PHASE_NAMES`]).
    pub phase: String,
    /// Operation class ([`OpClass::name`]).
    pub op_class: String,
    /// Whether the scheme claims robustness ([`SmrKind::is_robust`]).
    pub is_robust: bool,
    /// Total operations the phase completed across all classes (repeated
    /// across the phase's class rows, like `ops_per_sec`).
    pub ops: u64,
    /// Phase throughput across all classes, in operations per second.
    pub ops_per_sec: f64,
    /// Latency samples recorded for this class in this phase.
    pub samples: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: Option<u64>,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: Option<u64>,
    /// Peak sampled unreclaimed count during the phase.
    pub peak_unreclaimed: usize,
    /// Traversal restarts during the phase.
    pub restarts: u64,
    /// §3.2.1 recoveries during the phase.
    pub recoveries: u64,
}

/// Runs the service scenario against one structure × scheme pair and
/// flattens the result into per-phase × per-op-class rows.
pub fn run_service_scenario(
    ds: DsKind,
    smr: SmrKind,
    cfg: &RunConfig,
    plan: &ServicePlan,
) -> Vec<ServiceReport> {
    // Size the registry for the workers plus the stalled readers.
    let capacity_threads = cfg.threads + plan.stall_victims;
    let run = ServiceRun { cfg, plan };
    let out = with_target::<(), _>(ds, smr, capacity_threads, cfg.key_range, cfg.pool, run);
    let mut reports = Vec::with_capacity(out.phases.len() * OpClass::ALL.len());
    for ph in &out.phases {
        let ops_per_sec = if ph.secs > 0.0 {
            ph.ops as f64 / ph.secs
        } else {
            0.0
        };
        for class in OpClass::ALL {
            let h = ph.hists.class(class);
            let samples = h.count();
            reports.push(ServiceReport {
                ds: ds.name().to_string(),
                smr: smr.name().to_string(),
                threads: cfg.threads,
                phase: ph.name.to_string(),
                op_class: class.name().to_string(),
                is_robust: smr.is_robust(),
                ops: ph.ops,
                ops_per_sec,
                samples,
                p50_ns: (samples > 0).then(|| h.p50()),
                p99_ns: (samples > 0).then(|| h.p99()),
                p999_ns: (samples > 0).then(|| h.p999()),
                peak_unreclaimed: ph.peak_unreclaimed,
                restarts: ph.restarts,
                recoveries: ph.recoveries,
            });
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_plan() -> ServicePlan {
        ServicePlan {
            warmup: Duration::from_millis(15),
            read_storm: Duration::from_millis(25),
            churn_spike: Duration::from_millis(25),
            reader_stall: Duration::from_millis(25),
            zipf_theta: 0.99,
            stall_victims: 1,
            sample_every: 4,
        }
    }

    fn micro_cfg(threads: usize) -> RunConfig {
        RunConfig {
            sample_interval: Duration::from_millis(2),
            ..RunConfig::paper_default(threads, 256)
        }
    }

    #[test]
    fn plan_splits_and_floors_the_schedule() {
        let plan = ServicePlan::new(Duration::from_secs(10), 0.99);
        let d = plan.durations();
        assert_eq!(d[0], Duration::from_secs(2));
        assert_eq!(d[1], Duration::from_secs(3));
        assert_eq!(d[2], Duration::from_millis(2500));
        assert_eq!(d[3], Duration::from_millis(2500));
        // Tiny totals hit the floors instead of collapsing to zero.
        let quick = ServicePlan::new(Duration::from_millis(1), 0.0);
        assert!(quick
            .durations()
            .iter()
            .all(|d| *d >= Duration::from_millis(30)));
        // Every phase's mix is valid and includes every op-class.
        for p in 0..NUM_SERVICE_PHASES as u8 {
            let m = plan.mix_for(p);
            m.validate();
            assert!(m.read_pct > 0 && m.insert_pct > 0 && m.delete_pct > 0 && m.scan_pct > 0);
        }
        assert_eq!(SERVICE_PHASE_NAMES.len(), NUM_SERVICE_PHASES);
    }

    #[test]
    fn service_run_populates_every_phase_and_class() {
        let reports =
            run_service_scenario(DsKind::ListLf, SmrKind::Hp, &micro_cfg(2), &micro_plan());
        assert_eq!(reports.len(), NUM_SERVICE_PHASES * OpClass::ALL.len());
        for name in SERVICE_PHASE_NAMES {
            let rows: Vec<_> = reports.iter().filter(|r| r.phase == name).collect();
            assert_eq!(rows.len(), OpClass::ALL.len(), "{name}");
            assert!(
                rows.iter().all(|r| r.ops_per_sec > 0.0),
                "{name}: no throughput recorded"
            );
            // The dominant classes must have gathered samples with real
            // percentiles in every phase; thin classes may legitimately be
            // empty in a 25 ms phase.
            let get = rows.iter().find(|r| r.op_class == "get").unwrap();
            assert!(get.samples > 0, "{name}: no get samples");
            let (p50, p99, p999) = (
                get.p50_ns.unwrap(),
                get.p99_ns.unwrap(),
                get.p999_ns.unwrap(),
            );
            assert!(
                p50 <= p99 && p99 <= p999,
                "{name}: percentiles not monotone"
            );
            assert!(p50 > 0, "{name}: zero-ns median is not a real measurement");
        }
        assert!(reports.iter().all(|r| r.is_robust), "HP is robust");
    }

    #[test]
    fn batched_pin_service_run_records_gets_under_every_scheme() {
        let cfg = RunConfig {
            pin_batch: 16,
            ..micro_cfg(2)
        };
        for smr in SmrKind::ALL {
            let reports = run_service_scenario(DsKind::ListLf, smr, &cfg, &micro_plan());
            for name in SERVICE_PHASE_NAMES {
                let get = reports
                    .iter()
                    .find(|r| r.phase == name && r.op_class == "get")
                    .unwrap();
                assert!(
                    get.samples > 0,
                    "{smr}/{name}: no get samples at pin_batch=16"
                );
            }
        }
    }

    #[test]
    fn stall_phase_balloons_ebr_but_not_hp() {
        // The reader-stall phase is the robustness story in miniature: EBR's
        // peak footprint in that phase should dwarf its warmup peak, while
        // HP's stays the same order of magnitude.  Keep the churn high so
        // there is something to balloon.
        let mut cfg = micro_cfg(4);
        cfg.key_range = 128;
        let mut plan = micro_plan();
        plan.reader_stall = Duration::from_millis(300);
        let peak_in = |reports: &[ServiceReport], phase: &str| {
            reports
                .iter()
                .find(|r| r.phase == phase)
                .map(|r| r.peak_unreclaimed)
                .unwrap()
        };
        let ebr = run_service_scenario(DsKind::ListLf, SmrKind::Ebr, &cfg, &plan);
        let hp = run_service_scenario(DsKind::ListLf, SmrKind::Hp, &cfg, &plan);
        let ebr_stall = peak_in(&ebr, "reader-stall");
        let hp_stall = peak_in(&hp, "reader-stall");
        assert!(
            ebr_stall > 4 * peak_in(&ebr, "warmup").max(64),
            "EBR stall peak {ebr_stall} did not balloon past warmup {}",
            peak_in(&ebr, "warmup")
        );
        assert!(
            hp_stall < ebr_stall,
            "HP stall peak {hp_stall} should undercut EBR's {ebr_stall}"
        );
    }
}
