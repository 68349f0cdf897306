//! `mapbench`: the repository benchmark.  Two closed-loop workers drive one
//! `scot` map over one `scot-smr` domain; see README.md for the workloads,
//! the metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! mapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones.  The last stdout line is the JSON result; the exit code is 1 when
//! any operation failed the correctness oracle.

mod keys;
mod probe;
mod run;
mod stats;
mod targets;
mod trace;

use run::{Args, Report};
use scot::{HarrisList, HashMap, NmTree, SkipList};
use scot_smr::{Ebr, Hp, Ibr, Vbr};
use std::process::{Command, ExitCode};
use targets::{Row, Spec, WORKERS, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: mapbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<(Spec, Args), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(targets::spec(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                // At least two 0.5 s throughput windows per run.
                if !(s.is_finite() && (1.0..=600.0).contains(&s)) {
                    return Err(bad("expected 1 <= seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Args {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn dispatch(spec: &Spec, args: &Args) -> Result<Report, String> {
    match spec.name {
        "harris-hp" => run::run::<u64, HarrisList<u64, Hp, u64>>(spec, args),
        "nmtree-ibr-update" => run::run::<u64, NmTree<u64, Ibr, u64>>(spec, args),
        "hashmap-ebr-get" => run::run::<Row, HashMap<u64, Ebr, Row>>(spec, args),
        "skiplist-vbr-scan" => run::run::<u64, SkipList<u64, Vbr, u64>>(spec, args),
        other => Err(format!("no map for workload {other}")),
    }
}

/// First line of a command's stdout, or "unknown" when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the CPU 0 cache at `level` (unified or data), as sysfs spells it.
fn cache_size(level: &str) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
            read("level").trim() == level && read("type").trim() != "Instruction"
        })
        .and_then(|dir| std::fs::read_to_string(format!("{dir}/size")).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(spec: &Spec, args: &Args, setup_reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(spec.name)),
        ("scheme", json_str(spec.scheme)),
        ("seed", args.seed.to_string()),
        (
            "git_commit",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", nproc.to_string()),
        ("l2", json_str(&cache_size("2"))),
        ("l3", json_str(&cache_size("3"))),
        ("rustc", json_str(&command_line("rustc", &["-V"]))),
        ("workers", WORKERS.to_string()),
        ("run_seconds", args.seconds.to_string()),
        ("warmup_seconds", run::WARMUP.as_secs_f64().to_string()),
        ("trace", args.trace.to_string()),
        ("setup_reps", setup_reps.to_string()),
        ("latency_sample_every", run::SAMPLE_EVERY.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (spec, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mapbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match dispatch(&spec, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mapbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        for (family, values) in probe::probe_all() {
            for (probe, v) in probe::PROBES.iter().zip(values) {
                report.metrics.push((format!("{probe}.{family}"), v, "ns"));
                if family == spec.scheme {
                    report.metrics.push((probe.to_string(), v, "ns"));
                }
            }
        }
    }

    println!("{}", provenance(&spec, &args, report.setup_reps));
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    let failed_ops = report.failed as f64 / report.attempted as f64;
    println!(
        "{:<34} {failed_ops:>14.4} share ({} of {})",
        "failed_ops", report.failed, report.attempted
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(
                value.is_finite(),
                "metric {name} is not a finite number: {value}"
            );
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
