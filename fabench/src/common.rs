//! Pieces every workload shares: arguments, the report a workload
//! returns, the per-layer metric list, seeded shuffling, and the run
//! environment.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fa_perfbench::stats;
pub use fa_perfbench::stats::{Block, Figures};
use serde::Serialize;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds the untraced measurement runs for.
    pub seconds: f64,
    /// Run the traced pass instead of the untraced measurement.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <w> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind it (1 for a single measurement).
    pub samples: u64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (inputs not served, writes refused).
    pub failed: u64,
    /// Correctness checks that failed.
    pub check_failures: Vec<String>,
    /// The end-to-end metrics (`--trace 0`).
    pub e2e: Vec<Metric>,
    /// Workload-specific end-to-end figures that are printed with the
    /// run record but are not defined on every workload.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Raw per-repeat samples, by series name.
    pub raw: Vec<(String, Vec<f64>)>,
    /// Known defects observed (reported, not failed).
    pub known_defects: Vec<String>,
}

impl Report {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.e2e.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Adds a detail metric.
    pub fn detail(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.detail.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Sets a per-layer metric (must be one of [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        assert!(value.is_finite(), "layer metric {name} is {value}");
        self.layers.insert(name, value);
    }

    /// Adds a raw sample series.
    pub fn raw(&mut self, name: impl Into<String>, values: Vec<f64>) {
        self.raw.push((name.into(), values));
    }

    /// The [`stats::figures`] of a run's timed blocks. Each problem that
    /// kept a figure from being formed is a failed check, named after
    /// `what`.
    pub fn figures(&mut self, what: &str, blocks: &[Block]) -> Figures {
        let (f, problems) = stats::figures(blocks);
        self.check_failures
            .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        f
    }

    /// Adds `inputs_per_s`, `input_p50_us` and `input_p90_us`: the
    /// [`Report::figures`] of the run's timed blocks. `run` holds every
    /// individually timed operation of the run, in ns: its p95, p99 and
    /// p99.9 go to the detail figures, beside the plain throughput over
    /// every timed second and the host factors.
    pub fn serving_metrics(&mut self, blocks: &[Block], run: &stats::Histogram) {
        let f = self.figures("serving", blocks);
        if let Some(r) = f.inputs_per_s {
            self.e2e("inputs_per_s", "1/s", r, f.blocks);
        }
        for (name, v) in [
            ("input_p50_us", f.pcts_ns[0]),
            ("input_p90_us", f.pcts_ns[1]),
        ] {
            if let Some(ns) = v {
                self.e2e(name, "us", ns / 1e3, f.inputs);
            }
        }
        let all_s: f64 = blocks.iter().map(|b| b.seconds).sum();
        if let Some(r) = stats::rate(f.inputs, all_s) {
            self.detail("wall_inputs_per_s", "1/s", r, f.inputs);
        }
        let factors: Vec<f64> = blocks.iter().map(|b| b.host).collect();
        if let Some(h) = stats::median(&factors) {
            self.detail("host_factor", "ratio", h, f.blocks);
        }
        // The far tail is recorded but not gated: p95 and p99 sit where
        // one input class ends and a slower one begins (the allocation-
        // intensive profiles' ~5% of `steady`, the ~1% of `recovery`
        // feeds that fsync a journaled checkpoint registration), so
        // they jump between the two from run to run.
        let n = run.len();
        for (name, q) in [
            ("input_p95_us", 0.95),
            ("input_p99_us", 0.99),
            ("input_p999_us", 0.999),
        ] {
            if let Some(v) = run.percentile(q) {
                self.detail(name, "us", v / 1e3, n);
            }
        }
        self.raw("block_unit", blocks.iter().map(|b| b.unit as f64).collect());
        self.raw("block_host_factor", factors);
        self.raw(
            "block_inputs_per_s",
            blocks
                .iter()
                .map(|b| stats::rate(b.inputs, b.seconds).unwrap_or(0.0))
                .collect(),
        );
        for (i, name) in ["block_p50_us", "block_p90_us"].into_iter().enumerate() {
            self.raw(
                name,
                blocks
                    .iter()
                    .map(|b| b.pcts_ns[i].map_or(0.0, |ns| ns / 1e3))
                    .collect(),
            );
        }
    }

    /// Adds a detail percentile of `values` (already in `unit`), when
    /// enough samples lie beyond it; otherwise notes its absence.
    pub fn detail_percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        q: f64,
    ) {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if let Some(x) = stats::percentile(&v, q) {
            self.detail(name, unit, x, v.len() as u64);
        }
    }
}

/// Every per-layer metric, in output order, with its unit. A traced run
/// reports all of them; a layer its workload does not load reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("runtime.feed_self_us", "us"),
    ("proc.handle_us", "us"),
    ("proc.handle_calls", "count"),
    ("allocext.malloc_ns", "ns"),
    ("allocext.free_ns", "ns"),
    ("allocext.calls", "count"),
    ("allocext.objects_delayed", "count"),
    ("allocext.objects_padded", "count"),
    ("allocext.quarantine_bytes_peak", "bytes"),
    ("heap.allocs", "count"),
    ("heap.frees", "count"),
    ("heap.heap_bytes", "bytes"),
    ("heap.in_use_chunks", "count"),
    ("mem.tlb_hits", "count"),
    ("mem.tlb_misses", "count"),
    ("mem.tlb_hit_rate", "frac"),
    ("mem.resident_pages", "pages"),
    ("checkpoint.take_us", "us"),
    ("checkpoint.taken", "count"),
    ("checkpoint.dirty_pages", "pages"),
    ("checkpoint.virt_cost_ns", "ns"),
    ("checkpoint.rollback_us", "us"),
    ("diagnose.wall_ms", "ms"),
    ("diagnose.self_ms", "ms"),
    ("diagnose.virt_ms", "ms"),
    ("diagnose.rollbacks", "count"),
    ("diagnose.spec_trials", "count"),
    ("diagnose.spec_hits", "count"),
    ("diagnose.spec_hit_ratio", "frac"),
    ("exec.slab_reuses", "count"),
    ("exec.trial_errors", "count"),
    ("validate.wall_ms", "ms"),
    ("validate.virt_ms", "ms"),
    ("validate.iterations", "count"),
    ("pool.get_ns", "ns"),
    ("pool.get_calls", "count"),
    ("pool.add_us", "us"),
    ("wal.appends", "count"),
    ("fleet.gossip_rounds", "count"),
    ("fleet.patch_hits", "count"),
    ("fleet.failures", "count"),
    ("sentry.samples", "count"),
    ("sentry.skipped", "count"),
    ("sentry.traps", "count"),
    ("sentry.fast_path_diagnoses", "count"),
    ("sentry.full_ladder_diagnoses", "count"),
    ("sentry.false_traps", "count"),
    ("sentry.trap_catch_frac", "frac"),
    ("sentry.overhead_virt_ns", "ns"),
    ("trace.untraced_inputs_per_s", "1/s"),
    ("trace.traced_inputs_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Applications with two known behaviours that are reported rather than
/// failed: M4's dangling read may never fault (the freed macro is read
/// before anything reuses its memory), and its precise diagnosis may
/// patch fewer call-sites than the bug has, so the bug can recur and
/// the ladder escalates to the generic rung.
pub const KNOWN_QUIRKS: &[&str] = &["m4"];

/// splitmix64: the seeded stream behind every benchmark-side choice
/// (trigger offsets, interleaving, per-round seeds).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of sub-stream `k` of `seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut s = seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut s)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A wall-clock budget.
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Budget {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    /// Seconds since the budget started.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// True once the budget is spent.
    pub fn spent(&self) -> bool {
        self.elapsed_s() >= self.seconds
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and ignored.
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The git commit of the working directory, read from `.git` without
/// running git (`unknown` outside a repository).
fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Some(head) = read(&git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_owned();
            };
            if let Some(sha) = read(&git.join(reference)) {
                return sha.trim().to_owned();
            }
            if let Some(packed) = read(&git.join("packed-refs")) {
                if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                    return line.split(' ').next().unwrap_or("unknown").to_owned();
                }
            }
            return "unknown".to_owned();
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_owned()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run environment recorded next to the results.
#[derive(Serialize)]
pub struct Environment {
    available_parallelism: u64,
    cpu: String,
    git_commit: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    build_profile: String,
}

impl Environment {
    /// The environment of this run.
    pub fn new(args: &Args) -> Environment {
        Environment {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            cpu: cpu_model(),
            git_commit: git_commit(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        }
    }
}

/// Readers for the fleet's query plane: every core but the publisher's.
pub fn reader_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .saturating_sub(1)
        .max(1)
}
