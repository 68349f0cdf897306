//! `scot-bench` — the command-line benchmark driver, mirroring the paper
//! artifact's `./bench` binary and its experiment scripts.
//!
//! Usage:
//!
//! ```text
//! scot-bench run <ds> <seconds> <key_range> <threads> <read%> <ins%> <del%> <SMR> [scan% [scan_len]]
//! scot-bench exp <experiment-id | all> [--quick] [--seconds N] [--runs N] [--json DIR] [--bench-dir DIR]
//! scot-bench bench-diff <baseline.json> <fresh.json> [--max-regress PCT]
//! scot-bench list
//! ```
//!
//! Examples (the first mirrors the paper's `./bench listlf 2 512 1 50 25 25 EBR 4`;
//! the third adds 20% range scans of 64 keys each to the mix; the fifth runs
//! the fault-injection robustness matrix with only the reader-stall and
//! thread-death fault classes):
//!
//! ```text
//! scot-bench run listlf 2 512 4 50 25 25 EBR
//! scot-bench exp fig8a --quick
//! scot-bench run skiplist 2 8192 4 40 20 20 HP 20 64
//! scot-bench exp scan --quick
//! scot-bench exp faults --quick --faults stall,death
//! scot-bench bench-diff BENCH_tab1.json fresh/BENCH_tab1.json --max-regress 25
//! ```

use scot_harness::experiments::{
    cache_table, compatibility_matrix, cursor_table, faults_table, pool_table, restart_table,
    run_experiment, run_faults_experiment, run_service_experiment, scan_table, service_table,
    skiplist_table, write_bench_artifact, write_fault_artifact, write_service_artifact,
    ExperimentOptions, ALL_EXPERIMENTS,
};
use scot_harness::{run_timed, BackoffMode, DsKind, FaultKind, Mix, RunConfig, RunResult, SmrKind};
use std::time::Duration;

/// Upper bound on `--threads`/`<threads>`: far above any sane benchmark
/// configuration, low enough that a typo ("1000000") is rejected instead of
/// exhausting the machine with thread spawns.
const MAX_THREADS: usize = 1024;

fn usage() -> ! {
    // The scheme list is rendered from `SmrKind::ALL` so a newly added scheme
    // shows up here without touching the CLI; likewise the fault classes.
    let schemes: Vec<&str> = SmrKind::ALL.iter().map(|s| s.name()).collect();
    let faults: Vec<&str> = FaultKind::ALL.iter().map(|f| f.name()).collect();
    eprintln!(
        "usage:\n  scot-bench run <ds> <seconds> <key_range> <threads> <read%> <ins%> <del%> <SMR> [scan% [scan_len]] [--pin-batch N] [--backoff none|bounded] [--no-prefetch] [--no-chain-batch]\n  scot-bench exp <id|all> [--quick] [--seconds N] [--runs N] [--threads A,B,..] [--value-bytes N] [--scan-lens A,B,..] [--faults A,B,..] [--zipf-theta T] [--pin-batch N] [--backoff none|bounded] [--json DIR] [--bench-dir DIR]\n  scot-bench bench-diff <baseline.json> <fresh.json> [--max-regress PCT] [--max-latency-regress PCT]\n  scot-bench list\n\ndata structures: listlf listwf hmlist tree hashmap skiplist\nSMR schemes:     {}\nexperiments:     {}\nfault classes:   {}",
        schemes.join(" "),
        ALL_EXPERIMENTS.join(" "),
        faults.join(" ")
    );
    std::process::exit(2);
}

/// Rendered-error exit used by the validation paths: prints the message and
/// exits 2 without the full usage dump (the message is the diagnosis).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Validates a thread count: positive and below [`MAX_THREADS`].
fn check_threads(threads: usize) {
    if threads == 0 {
        fail("thread count must be at least 1");
    }
    if threads > MAX_THREADS {
        fail(&format!(
            "thread count {threads} exceeds the supported maximum of {MAX_THREADS}"
        ));
    }
}

/// Validates a run duration: strictly positive and finite.
fn check_seconds(secs: f64) {
    if !secs.is_finite() || secs <= 0.0 {
        fail(&format!(
            "duration must be a positive number of seconds (got {secs})"
        ));
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {what}: {s}");
        std::process::exit(2);
    })
}

/// Returns the value following a flag, or a rendered error if the flag is the
/// last argument.
fn next_arg<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

/// Parses and validates a `--pin-batch` value: at least 1 (a batch of 0
/// operations per pin would never repin).
fn parse_pin_batch(v: &str) -> u64 {
    let n: u64 = parse(v, "--pin-batch");
    if n == 0 {
        fail("--pin-batch must be at least 1");
    }
    n
}

/// Parses and validates a `--backoff` mode name.
fn parse_backoff(v: &str) -> BackoffMode {
    BackoffMode::parse(v).unwrap_or_else(|| {
        fail(&format!(
            "unknown backoff mode `{v}` (known: none, bounded)"
        ))
    })
}

fn cmd_run(args: &[String]) {
    // Tuning flags may trail the positional arguments; split them off first.
    let mut pos: Vec<&String> = Vec::new();
    let mut pin_batch = 1u64;
    let mut backoff = BackoffMode::Bounded;
    let mut prefetch = true;
    let mut chain_batch = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pin-batch" => {
                pin_batch = parse_pin_batch(next_arg(args, &mut i, "--pin-batch"));
            }
            "--backoff" => {
                backoff = parse_backoff(next_arg(args, &mut i, "--backoff"));
            }
            "--no-prefetch" => prefetch = false,
            "--no-chain-batch" => chain_batch = false,
            _ => pos.push(&args[i]),
        }
        i += 1;
    }
    if !(8..=10).contains(&pos.len()) {
        usage();
    }
    let ds = DsKind::parse(pos[0]).unwrap_or_else(|| usage());
    let seconds: f64 = parse(pos[1], "seconds");
    check_seconds(seconds);
    let key_range: u64 = parse(pos[2], "key range");
    let threads: usize = parse(pos[3], "threads");
    check_threads(threads);
    let read: u32 = parse(pos[4], "read%");
    let ins: u32 = parse(pos[5], "insert%");
    let del: u32 = parse(pos[6], "delete%");
    let smr = SmrKind::parse(pos[7]).unwrap_or_else(|| usage());
    let scan: u32 = pos.get(8).map_or(0, |a| parse(a, "scan%"));
    let scan_len: u64 = pos.get(9).map_or(64, |a| parse(a, "scan_len"));
    if u64::from(read) + u64::from(ins) + u64::from(del) + u64::from(scan) != 100 {
        eprintln!("operation mix must sum to 100% (got {read}+{ins}+{del}+{scan})");
        std::process::exit(2);
    }
    let cfg = RunConfig {
        threads,
        key_range,
        mix: Mix {
            read_pct: read,
            insert_pct: ins,
            delete_pct: del,
            scan_pct: scan,
        },
        duration: Duration::from_secs_f64(seconds),
        scan_len,
        pin_batch,
        backoff,
        prefetch,
        chain_batch,
        ..RunConfig::paper_default(threads, key_range)
    };
    let result = run_timed(ds, smr, &cfg);
    println!("{}", result.row());
    println!("{}", serde_json::to_string_pretty(&result).unwrap());
}

fn write_json(dir: &str, id: &str, results: &[RunResult]) {
    std::fs::create_dir_all(dir).expect("cannot create output directory");
    let path = format!("{dir}/{id}.json");
    let json = serde_json::to_string_pretty(results).unwrap();
    std::fs::write(&path, json).expect("cannot write results file");
    println!("wrote {path}");
}

fn cmd_exp(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let id = args[0].to_ascii_lowercase();
    let mut opts = ExperimentOptions::default();
    let mut json_dir: Option<String> = None;
    let mut bench_dir = String::from(".");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts = ExperimentOptions::quick();
            }
            "--seconds" => {
                let secs: f64 = parse(next_arg(args, &mut i, "--seconds"), "--seconds");
                check_seconds(secs);
                opts.duration = Duration::from_secs_f64(secs);
            }
            "--runs" => {
                opts.runs = parse(next_arg(args, &mut i, "--runs"), "--runs");
            }
            "--threads" => {
                opts.threads = next_arg(args, &mut i, "--threads")
                    .split(',')
                    .map(|t| parse(t, "--threads"))
                    .collect();
                if opts.threads.is_empty() {
                    fail("--threads needs at least one thread count");
                }
                for &t in &opts.threads {
                    check_threads(t);
                }
            }
            "--faults" => {
                opts.faults = next_arg(args, &mut i, "--faults")
                    .split(',')
                    .map(|name| {
                        FaultKind::parse(name).unwrap_or_else(|| {
                            let known: Vec<&str> =
                                FaultKind::ALL.iter().map(|f| f.name()).collect();
                            fail(&format!(
                                "unknown fault class `{name}` (known: {})",
                                known.join(", ")
                            ))
                        })
                    })
                    .collect();
            }
            "--value-bytes" => {
                opts.value_bytes = parse(next_arg(args, &mut i, "--value-bytes"), "--value-bytes");
            }
            "--scan-lens" => {
                opts.scan_lens = next_arg(args, &mut i, "--scan-lens")
                    .split(',')
                    .map(|t| parse(t, "--scan-lens"))
                    .collect();
            }
            "--pin-batch" => {
                opts.pin_batch = parse_pin_batch(next_arg(args, &mut i, "--pin-batch"));
            }
            "--backoff" => {
                opts.backoff = parse_backoff(next_arg(args, &mut i, "--backoff"));
            }
            "--zipf-theta" => {
                let theta: f64 = parse(next_arg(args, &mut i, "--zipf-theta"), "--zipf-theta");
                if !theta.is_finite() || theta < 0.0 {
                    fail(&format!(
                        "--zipf-theta must be finite and non-negative (got {theta})"
                    ));
                }
                opts.zipf_theta = theta;
            }
            "--json" => {
                json_dir = Some(next_arg(args, &mut i, "--json").to_string());
            }
            "--bench-dir" => {
                bench_dir = next_arg(args, &mut i, "--bench-dir").to_string();
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }

    let ids: Vec<String> = if id == "all" {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        vec![id]
    };

    for id in &ids {
        println!("=== {id} ===");
        if id == "faults" {
            // The fault harness renders verdicts, not throughput rows, so it
            // bypasses the generic RunResult plumbing.
            let reports = run_faults_experiment(&opts, |r| {
                println!(
                    "{:<10} {:<7} {:<16} warmup-end={:<8} peak={:<8} residual={:<6} {}",
                    r.ds, r.smr, r.fault, r.baseline, r.peak, r.residual, r.verdict
                )
            });
            println!("\n{}", faults_table(&reports));
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("cannot create output directory");
                let path = format!("{dir}/faults.json");
                let json = serde_json::to_string_pretty(&reports).unwrap();
                std::fs::write(&path, json).expect("cannot write results file");
                println!("wrote {path}");
            }
            match write_fault_artifact(&bench_dir, &reports) {
                Ok(path) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("cannot write fault artifact: {e}");
                    std::process::exit(1);
                }
            }
            println!();
            continue;
        }
        if id == "service" {
            // The service runner renders per-phase latency rows, not uniform
            // throughput rows, so it bypasses the RunResult plumbing too.
            let reports = run_service_experiment(&opts, |r| {
                println!(
                    "{:<10} {:<7} {:<14} ops/s={:<12.0} p50={}ns p99={}ns p999={}ns peak={}",
                    r.ds,
                    r.smr,
                    r.phase,
                    r.ops_per_sec,
                    r.p50_ns.unwrap_or(0),
                    r.p99_ns.unwrap_or(0),
                    r.p999_ns.unwrap_or(0),
                    r.peak_unreclaimed,
                )
            });
            println!("\n{}", service_table(&reports));
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("cannot create output directory");
                let path = format!("{dir}/service.json");
                let json = serde_json::to_string_pretty(&reports).unwrap();
                std::fs::write(&path, json).expect("cannot write results file");
                println!("wrote {path}");
            }
            match write_service_artifact(&bench_dir, &reports) {
                Ok(path) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("cannot write service artifact: {e}");
                    std::process::exit(1);
                }
            }
            println!();
            continue;
        }
        let Some(results) = run_experiment(id, &opts, |r| println!("{}", r.row())) else {
            eprintln!("unknown experiment id: {id}");
            usage();
        };
        match id.as_str() {
            "tab1" => println!("\n{}", compatibility_matrix(&results)),
            "tab2" => println!("\n{}", restart_table(&results)),
            "pool" => println!("\n{}", pool_table(&results)),
            "cache" => println!("\n{}", cache_table(&results, opts.value_bytes)),
            "skiplist" => println!("\n{}", skiplist_table(&results)),
            "scan" => println!("\n{}", scan_table(&results)),
            "cursor" => println!("\n{}", cursor_table(&results)),
            _ => {}
        }
        if let Some(dir) = &json_dir {
            write_json(dir, id, &results);
        }
        // Every `exp` run refreshes the normalized trajectory artifact, so
        // the committed BENCH_<preset>.json files stay regenerable and
        // diffable across sessions.
        match write_bench_artifact(&bench_dir, id, &results) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write bench artifact for {id}: {e}");
                std::process::exit(1);
            }
        }
        println!();
    }
}

/// One comparable row extracted from a `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
struct DiffRecord {
    ds: String,
    smr: String,
    threads: u64,
    ops_per_sec: f64,
    /// `p50` latency in nanoseconds where the preset records it (`null` in
    /// the throughput presets' artifacts, which parses to `None` here).  The
    /// gate keys on the *median* deliberately: p99/p999 on sub-second smoke
    /// phases ride on a handful of samples at the stall cliff and swing
    /// orders of magnitude between identical runs, while p50 is stable and
    /// still catches any systematic hot-path slowdown.
    p50_ns: Option<f64>,
    /// Latency samples behind the percentiles, where the artifact records
    /// them.  Rows with fewer than [`LATENCY_SAMPLE_FLOOR`] samples on
    /// either side are exempt from the latency gate.
    samples: Option<f64>,
}

/// Minimum samples on both sides for a row's median to be gated: below
/// this, run-to-run median drift is dominated by sampling noise rather
/// than code changes (the thin scan/insert classes of quick-mode service
/// runs record a dozen samples per phase).
const LATENCY_SAMPLE_FLOOR: f64 = 64.0;

/// Extracts the `records` rows of a `BENCH_*.json` artifact with a
/// line-oriented scanner.  The vendored `serde_json` is serialize-only, and
/// the artifacts are written by this binary with `to_string_pretty` (one
/// `"key": value` pair per line), so a full JSON parser is not needed.
fn parse_bench_records(body: &str) -> Vec<DiffRecord> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\":"))?;
        Some(rest.trim().trim_end_matches(','))
    }
    let mut records = Vec::new();
    let mut in_records = false;
    let (mut ds, mut smr, mut threads, mut ops) = (None::<String>, None::<String>, None, None);
    let (mut p50, mut samples) = (None, None);
    for line in body.lines() {
        if line.trim_start().starts_with("\"records\"") {
            in_records = true;
            continue;
        }
        if !in_records {
            continue;
        }
        if let Some(v) = field(line, "ds") {
            ds = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = field(line, "smr") {
            smr = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = field(line, "threads") {
            threads = v.parse::<u64>().ok();
        } else if let Some(v) = field(line, "ops_per_sec") {
            ops = v.parse::<f64>().ok();
        } else if let Some(v) = field(line, "p50_ns") {
            // `null` (the throughput presets) fails the parse and stays None.
            p50 = v.parse::<f64>().ok();
        } else if let Some(v) = field(line, "samples") {
            samples = v.parse::<f64>().ok();
        } else if line.trim() == "}" || line.trim() == "}," {
            // End of one record object: emit it if complete.
            if let (Some(d), Some(s), Some(t), Some(o)) = (&ds, &smr, threads, ops) {
                records.push(DiffRecord {
                    ds: d.clone(),
                    smr: s.clone(),
                    threads: t,
                    ops_per_sec: o,
                    p50_ns: p50,
                    samples,
                });
            }
            (ds, smr, threads, ops) = (None, None, None, None);
            (p50, samples) = (None, None);
        }
    }
    records
}

/// `bench-diff <baseline.json> <fresh.json> [--max-regress PCT]
/// [--max-latency-regress PCT]`: compares two trajectory artifacts point by
/// point and exits non-zero if any point's throughput regressed — or, where
/// the artifact records `p50_ns`, its median latency *increased* — by more
/// than the respective threshold.  Latency gets its own, much looser default
/// (tail nanoseconds on a shared CI box are far noisier than throughput).
/// The CI regression gate runs this against the committed artifacts.
fn cmd_bench_diff(args: &[String]) {
    if args.len() < 2 {
        usage();
    }
    let mut max_regress = 25.0f64;
    let mut max_latency_regress = 150.0f64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                max_regress = parse(next_arg(args, &mut i, "--max-regress"), "--max-regress");
            }
            "--max-latency-regress" => {
                max_latency_regress = parse(
                    next_arg(args, &mut i, "--max-latency-regress"),
                    "--max-latency-regress",
                );
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }
    let read = |path: &str| -> Vec<DiffRecord> {
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let records = parse_bench_records(&body);
        if records.is_empty() {
            fail(&format!("{path} contains no comparable records"));
        }
        records
    };
    let baseline = read(&args[0]);
    let fresh = read(&args[1]);
    println!(
        "{:<12}{:<10}{:>8}{:>16}{:>16}{:>10}",
        "structure", "scheme", "threads", "baseline ops/s", "fresh ops/s", "change"
    );
    let mut regressions = 0usize;
    let mut compared = 0usize;
    // Rows present on only one side are a gate failure, not a skip: a fresh
    // row with no baseline means the committed artifact is stale, and a
    // baseline row with no fresh counterpart means coverage silently shrank.
    let mut unmatched = 0usize;
    // Occurrence-indexed matching: presets that sweep an extra dimension
    // (e.g. scan lengths) emit several rows per (ds, smr, threads) key, in a
    // stable order.
    let mut seen: std::collections::HashMap<(String, String, u64), usize> =
        std::collections::HashMap::new();
    for f in &fresh {
        let key = (f.ds.clone(), f.smr.clone(), f.threads);
        let occurrence = seen.entry(key).or_insert(0);
        let base = baseline
            .iter()
            .filter(|b| b.ds == f.ds && b.smr == f.smr && b.threads == f.threads)
            .nth(*occurrence);
        *occurrence += 1;
        let Some(base) = base else {
            unmatched += 1;
            println!(
                "{:<12}{:<10}{:>8}{:>16}{:>16.0}{:>10}  << NOT IN BASELINE",
                f.ds, f.smr, f.threads, "(new)", f.ops_per_sec, "-"
            );
            continue;
        };
        compared += 1;
        let change = if base.ops_per_sec > 0.0 {
            100.0 * (f.ops_per_sec - base.ops_per_sec) / base.ops_per_sec
        } else {
            0.0
        };
        let mut flag = if change < -max_regress {
            regressions += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        // Latency gate: only where both sides recorded p50 (a latency
        // regression is an *increase*, hence the sign flip).  A row whose
        // sample count is recorded and below the floor on either side is
        // shown but not gated — its median is sampling noise.
        let thin = |s: Option<f64>| s.is_some_and(|v| v < LATENCY_SAMPLE_FLOOR);
        let mut lat_col = String::new();
        if let (Some(b), Some(fr)) = (base.p50_ns, f.p50_ns) {
            if b > 0.0 {
                let lat_change = 100.0 * (fr - b) / b;
                if thin(base.samples) || thin(f.samples) {
                    lat_col = format!("  p50 {lat_change:+.1}% (thin)");
                } else {
                    lat_col = format!("  p50 {lat_change:+.1}%");
                    if lat_change > max_latency_regress {
                        regressions += 1;
                        flag = "  << LATENCY REGRESSION";
                    }
                }
            }
        }
        println!(
            "{:<12}{:<10}{:>8}{:>16.0}{:>16.0}{:>+9.1}%{}{}",
            f.ds, f.smr, f.threads, base.ops_per_sec, f.ops_per_sec, change, lat_col, flag
        );
    }
    // The reverse direction: baseline rows the fresh artifact never matched.
    let mut base_seen: std::collections::HashMap<(String, String, u64), usize> =
        std::collections::HashMap::new();
    for b in &baseline {
        let key = (b.ds.clone(), b.smr.clone(), b.threads);
        let occurrence = base_seen.entry(key.clone()).or_insert(0);
        if *occurrence >= seen.get(&key).copied().unwrap_or(0) {
            unmatched += 1;
            println!(
                "{:<12}{:<10}{:>8}{:>16.0}{:>16}{:>10}  << MISSING FROM FRESH",
                b.ds, b.smr, b.threads, b.ops_per_sec, "(gone)", "-"
            );
        }
        *occurrence += 1;
    }
    println!(
        "{compared} points compared, {regressions} regressed beyond {max_regress}%, \
         {unmatched} present on only one side \
         (latency threshold {max_latency_regress}% where p50 is recorded)"
    );
    if regressions > 0 || unmatched > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("exp") => cmd_exp(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("list") => {
            let opts = ExperimentOptions::quick();
            for id in ALL_EXPERIMENTS {
                let s = scot_harness::experiments::spec(id, &opts).unwrap();
                println!("{:<8} {}", id, s.description);
            }
        }
        _ => usage(),
    }
}
