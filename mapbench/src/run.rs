//! One run of a workload: set-up, the closed loop of two workers, the
//! main-thread sampler, and the end-of-run correctness checks.

use crate::keys::{KeyGen, Op, Rng};
use crate::stats::{median, Hist};
use crate::targets::{Spec, Stamp, Target, SCAN_LEN, WORKERS};
use crate::trace::{self_times, Name, SelfTimes, Span, Tracer, NO_PARENT};
use scot::{RangeScan, TraversalSnapshot};
use scot_smr::Smr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Untimed closed-loop time before measuring: the first second of a run
/// reads 20–25% low while caches, the block pools and the limbo lists fill.
pub const WARMUP: Duration = Duration::from_secs(1);
/// The main thread samples op counters and `Smr::unreclaimed` this often.
const TICK: Duration = Duration::from_millis(10);
/// Throughput is the median over windows of this many ticks (0.5 s), so a
/// burst of interference from outside the process moves one window, not the
/// run's figure.  Traced runs alternate untraced and traced windows.
const WINDOW_TICKS: usize = 50;
const WINDOW: Duration = Duration::from_millis(10 * WINDOW_TICKS as u64);
/// One op in this many is timed for the latency histograms.
pub const SAMPLE_EVERY: u64 = 8;
/// Span buffer size per worker (32 bytes a span).
const SPAN_CAP: usize = 1 << 19;
/// Most spans one op records: loop, keygen, pin, open, unpin, plus a next
/// and a value check per scanned entry and the final empty next.
const SPANS_PER_OP_MAX: usize = 5 + 2 * SCAN_LEN + 1;
/// Untraced runs set up this often and report the median.
const SETUP_REPS: usize = 3;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Phase {
    Warmup = 0,
    Measure = 1,
    Traced = 2,
    Stop = 3,
}

#[repr(align(128))]
struct Padded(AtomicU64);

/// Shared between the main thread and the workers.  Every field is a
/// statistic or a control flag that publishes no other data, so `Relaxed`
/// suffices; the tallies travel back through `join`.
struct Control {
    phase: AtomicU8,
    stride: AtomicU64,
    done: [Padded; WORKERS],
}

impl Control {
    fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Relaxed) {
            0 => Phase::Warmup,
            1 => Phase::Measure,
            2 => Phase::Traced,
            _ => Phase::Stop,
        }
    }

    fn total_ops(&self) -> u64 {
        self.done.iter().map(|d| d.0.load(Ordering::Relaxed)).sum()
    }
}

/// What one worker did, over all phases unless noted.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    reads: u64,
    read_hits: u64,
    inserts: u64,
    insert_ok: u64,
    removes: u64,
    remove_ok: u64,
    /// Latencies (ns) of timed ops in the `Measure` phase.
    read_lat: Hist,
    update_lat: Hist,
    spans: Vec<Span>,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.reads += o.reads;
        self.read_hits += o.read_hits;
        self.inserts += o.inserts;
        self.insert_ok += o.insert_ok;
        self.removes += o.removes;
        self.remove_ok += o.remove_ok;
        self.read_lat.merge(&o.read_lat);
        self.update_lat.merge(&o.update_lat);
    }
}

/// The closed loop of one worker: each op is pinned on its own
/// (`pin` → op → drop guard), and the next op starts when it returns.
fn worker<V: Stamp, M: Target<V>>(
    map: &M,
    spec: &Spec,
    seed: u64,
    w: usize,
    ctl: &Control,
    epoch: Instant,
) -> Tally {
    // RNG streams: 0 is the prefill, 1..=WORKERS the op streams, and the
    // next WORKERS the workers' skip-list tower heights.
    let stream = w as u64 + 1;
    let mut handle = map.seeded_handle(Rng::new(seed, stream + WORKERS as u64).next_u64());
    let mut gen = KeyGen::new(seed, stream, spec.range, &spec.dist, spec.mix);
    let mut tr = Tracer::new(epoch, SPAN_CAP);
    let mut t = Tally::default();
    loop {
        let phase = ctl.phase();
        if phase == Phase::Stop {
            break;
        }
        let n = t.ops;
        let traced = phase == Phase::Traced && n % ctl.stride.load(Ordering::Relaxed) == 0;
        tr.begin_op((w as u64) << 48 | n, traced, SPANS_PER_OP_MAX);
        // Traced ops are timed too (but not recorded), so the untraced and
        // traced phases differ only by the spans.
        let timed = phase != Phase::Warmup && n % SAMPLE_EVERY == 0;
        let root = tr.open(Name::Loop, NO_PARENT);

        let s = tr.open(Name::Keygen, root);
        let (op, key) = gen.next();
        let value = (op == Op::Insert).then(|| V::stamp(key));
        tr.close(s);

        let t0 = timed.then(Instant::now);
        let s = tr.open(Name::Pin, root);
        let mut guard = map.pin(&mut handle);
        tr.close(s);
        let good = match op {
            Op::Read => {
                let s = tr.open(Name::Read, root);
                let got = map.get(&mut guard, &key);
                tr.close(s);
                t.reads += 1;
                got.is_none_or(|v| {
                    t.read_hits += 1;
                    let s = tr.open(Name::ValueCheck, root);
                    let good = v.holds(key);
                    tr.close(s);
                    good
                })
            }
            Op::Insert => {
                let s = tr.open(Name::Insert, root);
                let res = map.insert(&mut guard, key, value.expect("drawn with the insert"));
                tr.close(s);
                t.inserts += 1;
                t.insert_ok += u64::from(res.is_ok());
                true
            }
            Op::Remove => {
                let s = tr.open(Name::Remove, root);
                let got = map.remove(&mut guard, &key);
                tr.close(s);
                t.removes += 1;
                got.is_none_or(|v| {
                    t.remove_ok += 1;
                    let s = tr.open(Name::ValueCheck, root);
                    let good = v.holds(key);
                    tr.close(s);
                    good
                })
            }
            Op::Scan => scan(map, &mut guard, key, spec.range, &mut tr, root),
        };
        let s = tr.open(Name::Unpin, root);
        drop(guard);
        tr.close(s);
        if let (Some(t0), Phase::Measure) = (t0, phase) {
            let ns = t0.elapsed().as_nanos() as u64;
            match op {
                Op::Read => t.read_lat.record(ns),
                Op::Insert | Op::Remove => t.update_lat.record(ns),
                Op::Scan => {}
            }
        }
        tr.close(root);
        t.failed += u64::from(!good);
        t.ops += 1;
        ctl.done[w].0.store(t.ops, Ordering::Relaxed);
    }
    t.spans = tr.into_spans();
    t
}

/// Reads up to `SCAN_LEN` entries from `lo` and checks the window (every
/// key in `[lo, range)`), strict ascending order (so no duplicates), and
/// every value's stamp.
fn scan<'h, V: Stamp, M: Target<V>>(
    map: &M,
    guard: &mut M::Guard<'h>,
    lo: u64,
    range: u64,
    tr: &mut Tracer,
    root: u32,
) -> bool {
    let s = tr.open(Name::ScanOpen, root);
    let mut cursor = map.iter_from(guard, lo);
    tr.close(s);
    let (mut good, mut prev) = (true, None);
    for _ in 0..SCAN_LEN {
        let s = tr.open(Name::ScanNext, root);
        let entry = cursor.next_entry();
        tr.close(s);
        let Some((k, v)) = entry else { break };
        let s = tr.open(Name::ValueCheck, root);
        good &= k >= lo && k < range && prev.is_none_or(|p| k > p) && v.holds(k);
        tr.close(s);
        prev = Some(k);
    }
    good
}

/// Builds the map and fills it with `range / 2` distinct seeded keys.
fn prefill<V: Stamp, M: Target<V>>(spec: &Spec, seed: u64) -> M {
    let map = M::build(spec);
    let mut rng = Rng::new(seed, 0);
    let mut handle = map.seeded_handle(rng.next_u64());
    let mut live = 0;
    while live < spec.range / 2 {
        let k = rng.below(spec.range);
        let mut guard = map.pin(&mut handle);
        live += u64::from(map.insert(&mut guard, k, V::stamp(k)).is_ok());
    }
    map
}

/// Main-thread samples of one measured phase.
struct Samples {
    /// `(seconds since phase start, total ops)` per tick.
    ticks: Vec<(f64, u64)>,
    unreclaimed: Hist,
}

impl Samples {
    fn ops(&self) -> u64 {
        self.ticks.last().expect("a phase has ticks").1 - self.ticks[0].1
    }

    fn rate(&self) -> f64 {
        self.ops() as f64 / self.ticks.last().expect("a phase has ticks").0
    }

    fn window_rates(&self) -> Vec<f64> {
        self.ticks
            .iter()
            .step_by(WINDOW_TICKS)
            .zip(self.ticks.iter().skip(WINDOW_TICKS).step_by(WINDOW_TICKS))
            .map(|(a, b)| (b.1 - a.1) as f64 / (b.0 - a.0))
            .collect()
    }
}

/// Switches the workers to `phase` and samples every tick for `dur`.
fn sample_phase<S: Smr>(ctl: &Control, domain: &S, phase: Phase, dur: Duration) -> Samples {
    ctl.phase.store(phase as u8, Ordering::Relaxed);
    let start = Instant::now();
    let mut s = Samples {
        ticks: Vec::new(),
        unreclaimed: Hist::default(),
    };
    let mut next = start;
    loop {
        let elapsed = start.elapsed();
        s.ticks.push((elapsed.as_secs_f64(), ctl.total_ops()));
        s.unreclaimed.record(domain.unreclaimed() as u64);
        if elapsed >= dur {
            return s;
        }
        next += TICK;
        thread::sleep(next.saturating_duration_since(Instant::now()));
    }
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A run's result: metrics in report order, oracle counts, and human-only
/// lines (sample counts) printed beside the metrics.
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub setup_reps: usize,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

pub fn run<V: Stamp, M: Target<V>>(spec: &Spec, args: &Args) -> Result<Report, String> {
    // Set-up: domain creation plus prefill, repeated (untraced) so setup_s is
    // a median; each earlier map is dropped before the next is built.
    let mut setup_s = Vec::new();
    let mut map = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(map.take());
        let t = Instant::now();
        map = Some(prefill::<V, M>(spec, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let map: M = map.expect("set-up ran at least once");
    let domain = map.domain();
    let prefilled = spec.range / 2;

    let ctl = Control {
        phase: AtomicU8::new(Phase::Warmup as u8),
        stride: AtomicU64::new(1),
        done: std::array::from_fn(|_| Padded(AtomicU64::new(0))),
    };
    let epoch = Instant::now();
    let secs = Duration::from_secs_f64(args.seconds);
    let (measured, traced, stats, steal, mut tally, spans) = thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (map, ctl) = (&map, &ctl);
                s.spawn(move || worker::<V, M>(map, spec, args.seed, w, ctl, epoch))
            })
            .collect();
        thread::sleep(WARMUP);
        let stats0 = map.traversal_stats();
        let cpu0 = cpu_jiffies();
        let (mut measured, mut traced) = (Vec::new(), Vec::new());
        if args.trace {
            // Alternate untraced and traced windows, so a drift in host speed
            // falls on both sides of the overhead comparison alike.
            let pairs = (secs.as_secs_f64() / (2.0 * WINDOW.as_secs_f64()))
                .round()
                .max(1.0);
            for _ in 0..pairs as usize {
                measured.push(sample_phase(&ctl, &**domain, Phase::Measure, WINDOW));
                if traced.is_empty() {
                    // Trace every stride-th op so the buffers last all windows.
                    let spans_per_op = 6 + spec.mix.scan as usize * 2 * SCAN_LEN / 100;
                    let per_worker = measured[0].rate() / WORKERS as f64;
                    let expected = per_worker * pairs * WINDOW.as_secs_f64() * spans_per_op as f64;
                    let stride = (expected / SPAN_CAP as f64).ceil().max(1.0);
                    ctl.stride.store(stride as u64, Ordering::Relaxed);
                }
                traced.push(sample_phase(&ctl, &**domain, Phase::Traced, WINDOW));
            }
        } else {
            measured.push(sample_phase(&ctl, &**domain, Phase::Measure, secs));
        }
        let stats = diff(map.traversal_stats(), stats0);
        let steal = cpu0
            .zip(cpu_jiffies())
            .map(|((s0, t0), (s1, t1))| 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
        ctl.phase.store(Phase::Stop as u8, Ordering::Relaxed);
        let mut tally = Tally::default();
        let mut spans = Vec::new();
        for h in workers {
            let mut t = h.join().map_err(|_| "a worker panicked".to_string())?;
            spans.push(std::mem::take(&mut t.spans));
            tally.absorb(t);
        }
        Ok::<_, String>((measured, traced, stats, steal, tally, spans))
    })?;

    // End-of-run oracle: key conservation over a quiescent map, then a
    // teardown drain of every retired block.
    let mut handle = map.handle();
    let entries = map.collect(&mut handle);
    let want = prefilled + tally.insert_ok - tally.remove_ok;
    let live = entries.len();
    let ordered = entries.windows(2).all(|p| p[0].0 < p[1].0);
    let stamped = entries.iter().all(|(k, v)| *k < spec.range && v.holds(*k));
    let conserved = live as u64 == want && ordered && stamped;
    drop(entries);
    let drain_start = Instant::now();
    let drained = loop {
        map.flush(&mut handle);
        if domain.unreclaimed() == 0 {
            break true;
        }
        if drain_start.elapsed() >= DRAIN_TIMEOUT {
            break false;
        }
        thread::sleep(Duration::from_millis(1));
    };
    let drain_s = drain_start.elapsed().as_secs_f64();
    let mut notes = vec![match steal {
        Some(pct) => format!("hypervisor steal during measurement: {pct:.2}% of CPU time"),
        None => "hypervisor steal: /proc/stat unreadable".to_string(),
    }];
    if !conserved {
        notes.push(format!(
            "end-of-run check failed: {live} live keys (expected {want}), ordered {ordered}, in range and stamped {stamped}"
        ));
    }
    if !drained {
        notes.push(format!(
            "drain timed out with {} blocks unreclaimed",
            domain.unreclaimed()
        ));
    }
    tally.failed += u64::from(!conserved) + u64::from(!drained);

    let mut r = Report {
        metrics: Vec::new(),
        attempted: tally.ops + 2,
        failed: tally.failed,
        notes,
        setup_reps: setup_s.len(),
    };
    let mut unreclaimed = Hist::default();
    for w in measured.iter().chain(&traced) {
        unreclaimed.merge(&w.unreclaimed);
    }
    if !args.trace {
        let rates = measured[0].window_rates();
        let pct = |h: &Hist, q: f64, what: &str| {
            h.percentile(q).ok_or_else(|| {
                format!(
                    "{what}: {} samples cannot support p{}",
                    h.count(),
                    q * 100.0
                )
            })
        };
        let (reads, updates) = (&tally.read_lat, &tally.update_lat);
        r.push("throughput_mops", median(&rates) / 1e6, "Mops/s");
        r.push("read_p50_ns", pct(reads, 0.5, "read latency")?, "ns");
        r.push("read_p99_ns", pct(reads, 0.99, "read latency")?, "ns");
        r.push("update_p50_ns", pct(updates, 0.5, "update latency")?, "ns");
        r.push("update_p99_ns", pct(updates, 0.99, "update latency")?, "ns");
        r.push(
            "unreclaimed_p50",
            pct(&unreclaimed, 0.5, "unreclaimed")?,
            "blocks",
        );
        r.push("rss_peak_mib", vm_hwm_kib()? / 1024.0, "MiB");
        r.push("setup_s", median(&setup_s), "s");
        r.notes.push(format!(
            "samples (1 op in {SAMPLE_EVERY} timed): {} read / {} update latencies, {} unreclaimed; {:.1} s window Mops/s {:.3?}; setup reps {}",
            reads.count(),
            updates.count(),
            unreclaimed.count(),
            WINDOW.as_secs_f64(),
            rates.iter().map(|r| r / 1e6).collect::<Vec<_>>(),
            setup_s.len()
        ));
    } else {
        let times = spans
            .iter()
            .map(|b| self_times(b))
            .reduce(SelfTimes::merged)
            .expect("one span buffer per worker");
        for name in Name::ALL {
            r.push(name.metric(), times.mean_ns(name), "ns");
        }
        let ops = measured
            .iter()
            .chain(&traced)
            .map(Samples::ops)
            .sum::<u64>()
            .max(1) as f64;
        let per_kop = |n: u64| 1000.0 * n as f64 / ops;
        r.push("scot.restarts_per_kop", per_kop(stats.restarts), "1/kop");
        r.push(
            "scot.recoveries_per_kop",
            per_kop(stats.recoveries),
            "1/kop",
        );
        r.push(
            "scot.zone_entries_per_kop",
            per_kop(stats.zone_entries),
            "1/kop",
        );
        r.push("scot.spins_per_kop", per_kop(stats.spins), "1/kop");
        r.push(
            "scot.first_try_ratio",
            ops / (ops + stats.restarts as f64),
            "ratio",
        );
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        r.push(
            "scot.insert_ok_ratio",
            ratio(tally.insert_ok, tally.inserts),
            "ratio",
        );
        r.push(
            "scot.remove_ok_ratio",
            ratio(tally.remove_ok, tally.removes),
            "ratio",
        );
        r.push(
            "scot.read_hit_ratio",
            ratio(tally.read_hits, tally.reads),
            "ratio",
        );
        r.push("smr.unreclaimed_mean", unreclaimed.mean(), "blocks");
        r.push("smr.unreclaimed_max", unreclaimed.max() as f64, "blocks");
        r.push("smr.drain_s", drain_s, "s");
        let rate = |w: &[Samples]| median(&w.iter().map(Samples::rate).collect::<Vec<_>>());
        let (plain, spanned) = (rate(&measured), rate(&traced));
        r.push("trace.overhead_pct", 100.0 * (1.0 - spanned / plain), "%");
        r.push("trace.span_cost_ns", crate::trace::empty_span_ns(), "ns");
        r.push(
            "trace.coverage_pct",
            100.0 * times.root_children_ns as f64 / times.root_ns.max(1) as f64,
            "%",
        );
        r.notes.push(format!(
            "traced 1 op in {} ({} spans); median window untraced {:.4} vs traced {:.4} Mops/s",
            ctl.stride.load(Ordering::Relaxed),
            spans.iter().map(Vec::len).sum::<usize>(),
            plain / 1e6,
            spanned / 1e6
        ));
        write_spans(spec.name, &spans);
    }
    Ok(r)
}

fn diff(a: TraversalSnapshot, b: TraversalSnapshot) -> TraversalSnapshot {
    TraversalSnapshot {
        restarts: a.restarts - b.restarts,
        recoveries: a.recoveries - b.recoveries,
        zone_entries: a.zone_entries - b.zone_entries,
        spins: a.spins - b.spins,
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else on this machine's CPUs.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn vm_hwm_kib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Writes the spans of every worker to the build directory
/// (`$CARGO_TARGET_DIR`, else `target`) as `mapbench-spans-<workload>.tsv`.
fn write_spans(workload: &str, buffers: &[Vec<Span>]) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::Path::new(&dir).join(format!("mapbench-spans-{workload}.tsv"));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        for b in buffers {
            crate::trace::write_tsv(&mut out, b)?;
        }
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = written {
        eprintln!("mapbench: spans not written to {}: {e}", path.display());
    }
}
