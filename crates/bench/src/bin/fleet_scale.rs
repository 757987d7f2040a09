//! Fleet-scale benchmark for the lock-free patch plane. Writes
//! `results/fleet_scale.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements,
//! compares the deterministic virtual-time quantities (immunity,
//! hits/failures, checksum) *exactly* against the committed baseline,
//! holds the median of seven timed query phases per scale point to the
//! throughput floor, enforces the ≥5× lock-free query speedup and
//! sublinear time-to-fleet-immunity absolutely, and exits nonzero on any
//! violation without touching the baseline.

use fa_bench::fleet_scale;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let report = fleet_scale::measure(check);
    println!("{}", fleet_scale::render(&report));
    if check {
        let baseline: Option<fleet_scale::FleetScaleReport> =
            std::fs::read_to_string("results/fleet_scale.json")
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok());
        if baseline.is_none() {
            eprintln!(
                "warning: no readable baseline at results/fleet_scale.json; \
                 only absolute gates apply"
            );
        }
        let violations = fleet_scale::check(baseline.as_ref(), &report);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("fleet_scale regression: {v}");
            }
            std::process::exit(1);
        }
        println!("fleet_scale bench --check: no regressions");
        return;
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            std::fs::create_dir_all("results").ok();
            match std::fs::write("results/fleet_scale.json", json) {
                Ok(()) => println!("wrote results/fleet_scale.json"),
                Err(e) => eprintln!("failed to write results/fleet_scale.json: {e}"),
            }
        }
        Err(e) => eprintln!("failed to serialize results: {e}"),
    }
}
