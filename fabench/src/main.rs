//! The First-Aid benchmark.
//!
//! ```text
//! fa-perfbench --workload <steady|recovery> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON run record (also
//! written to `.bench_out/`), then — as the last line — the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones from a traced pass. A failed correctness check is printed and
//! the process exits with status 1. See `README.md` for the workloads
//! and what each metric measures.

mod common;
mod fleet;
mod host;
mod layers;
mod pipeline;
mod recovery;
mod serve;

use std::collections::BTreeMap;
use std::io::Write;

use serde::Serialize;

use common::{Args, Environment, Metric, Report, LAYER_METRICS};

/// The end-to-end metrics every untraced run reports, with units.
const E2E_METRICS: &[(&str, &str)] = &[
    ("inputs_per_s", "1/s"),
    ("input_p50_us", "us"),
    ("input_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Failed checks listed in the human-readable report.
const SHOWN_FAILURES: usize = 20;

/// A metric of the result line.
#[derive(Serialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// The result line, the last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

/// A metric of the run record, with the samples behind it.
#[derive(Serialize)]
struct Sampled {
    value: f64,
    unit: String,
    samples: u64,
}

/// Everything a run measured and checked, with its environment.
#[derive(Serialize)]
struct RunRecord {
    workload: String,
    environment: Environment,
    correct: bool,
    end_to_end: BTreeMap<String, Sampled>,
    detail: BTreeMap<String, Sampled>,
    per_layer: BTreeMap<String, f64>,
    raw: BTreeMap<String, Vec<f64>>,
    known_defects: Vec<String>,
    check_failures: Vec<String>,
}

/// The run record as printed: `{"record": {...}}`.
#[derive(Serialize)]
struct RecordLine {
    record: RunRecord,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fa-perfbench: {e}");
            eprintln!(
                "usage: fa-perfbench --workload <steady|recovery> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = match (args.workload.as_str(), args.trace) {
        ("steady", false) => serve::run(&args),
        ("steady", true) => serve::run_traced(serve::Kind::Steady, &args),
        ("recovery", false) => recovery::run(&args),
        ("recovery", true) => recovery::run_traced(&args),
        (w, _) => {
            eprintln!("fa-perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };

    // The result line carries exactly the metrics of its mode.
    let result_metrics: Vec<(&str, &str, f64)> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let mut out = Vec::new();
        for &(name, unit) in E2E_METRICS {
            match report.e2e.iter().find(|m| m.name == name) {
                Some(m) if m.value > 0.0 && m.value.is_finite() => out.push((name, unit, m.value)),
                Some(m) => report
                    .check_failures
                    .push(format!("{name} measured {} {unit}", m.value)),
                None => report
                    .check_failures
                    .push(format!("{name} was not measured")),
            }
        }
        out
    };
    report.check(report.attempted > 0, || "no work was attempted".to_owned());
    // Repeats of one input set note the same known defect each time.
    let mut seen = std::collections::HashSet::new();
    report.known_defects.retain(|d| seen.insert(d.clone()));
    let correct = report.check_failures.is_empty();

    print_human(&args, &report);
    let record = to_json(&RecordLine {
        record: run_record(&args, &report, correct),
    });
    save_record(&args, &record);
    println!("{record}");
    let result = ResultLine {
        correct,
        attempted: report.attempted,
        failed: report.failed,
        metrics: result_metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_owned(),
                    Measured {
                        value,
                        unit: unit.to_owned(),
                    },
                )
            })
            .collect(),
    };
    println!("{}", to_json(&result));
    std::io::stdout().flush().expect("stdout is writable");
    if !correct {
        eprintln!(
            "fa-perfbench: {} correctness check(s) failed; first: {}",
            report.check_failures.len(),
            report.check_failures[0]
        );
        std::process::exit(1);
    }
}

fn print_human(args: &Args, report: &Report) {
    println!(
        "fa-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let line = |m: &Metric| {
        println!(
            "  {:<28} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        )
    };
    if !args.trace {
        println!("end-to-end:");
        report.e2e.iter().for_each(line);
        println!("workload detail:");
        report.detail.iter().for_each(line);
    } else {
        println!("per-layer:");
        for &(name, unit) in LAYER_METRICS {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }
    println!("attempted={} failed={}", report.attempted, report.failed);
    for d in &report.known_defects {
        println!("known defect: {d}");
    }
    for f in report.check_failures.iter().take(SHOWN_FAILURES) {
        println!("CHECK FAILED: {f}");
    }
    if report.check_failures.len() > SHOWN_FAILURES {
        println!(
            "... {} more failed checks (all in the run record)",
            report.check_failures.len() - SHOWN_FAILURES
        );
    }
}

fn run_record(args: &Args, report: &Report, correct: bool) -> RunRecord {
    let metrics = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Sampled {
                        value: m.value,
                        unit: m.unit.to_owned(),
                        samples: m.samples,
                    },
                )
            })
            .collect()
    };
    RunRecord {
        workload: args.workload.clone(),
        environment: Environment::new(args),
        correct,
        end_to_end: metrics(&report.e2e),
        detail: metrics(&report.detail),
        per_layer: report
            .layers
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect(),
        raw: report.raw.iter().cloned().collect(),
        known_defects: report.known_defects.clone(),
        check_failures: report.check_failures.clone(),
    }
}

/// One line of JSON. Every value is finite (the result line's metrics
/// are checked above; the rest come from finite arithmetic), so no
/// number prints as `null`.
fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("serializing to a String cannot fail")
}

/// Saves the run record to `.bench_out/<workload>-seed<seed>-trace<t>.json`.
/// Best effort: the same record is printed on stdout.
fn save_record(args: &Args, record: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let saved =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, format!("{record}\n")));
    if let Err(e) = saved {
        eprintln!("fa-perfbench: could not write {}: {e}", path.display());
    }
}
