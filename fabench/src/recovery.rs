//! The `recovery` workload: every path a bug takes, repeated in cycles.
//!
//! A cycle opens with the fleet phase ([`FleetPhase`]: a diagnosis
//! phase builds the nine applications' plans, then one 100,000-worker
//! sweep of the patch plane beside a publisher) and the sentry phase
//! ([`SentryPhase`]: one repeat of the nine applications with the
//! sentry tier on and two triggers each), then runs [`CYCLE`] rounds of
//! paper Table 3's path.
//!
//! A round gives each of the nine buggy cases a fresh runtime, a patch
//! pool journaled to a scratch directory, and a seeded 1,500-input
//! stream with three triggers (Table 3's layout, each trigger shifted
//! by a seeded 0–99 inputs). The first trigger must be diagnosed,
//! patched and validated; the later two must be prevented. Normal
//! traffic is short, so recovery dominates the wall time.
//!
//! Rounds cycle through [`CYCLE`] derived seeds. Rounds one cycle apart
//! repeat identical work, so each round of the cycle is one unit of
//! [`Report::figures`] and the sentry repeat another: every run weighs
//! the same seed mix, however many cycles it completes. A run completes
//! at least one cycle and then stops at the first round boundary past
//! its budget. The virtual figures come from the first cycle; later
//! rounds must reproduce the virtual outcome of the round one cycle
//! earlier.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fa_apps::{all_specs, AppSpec, WorkloadSpec};
use fa_proc::Input;
use first_aid_core::{FirstAidRuntime, PatchPool, RecoveryKind};

use fa_perfbench::stats::{self, Latencies};
use fa_perfbench::trace::Tracer;

use crate::common::{
    derive_seed, splitmix64, Args, Block, Budget, Report, ScratchDir, KNOWN_QUIRKS,
};
use crate::fleet::{self, FleetPhase};
use crate::host::Reference;
use crate::layers::{write_spans, LayerAcc};
use crate::pipeline::{AllocTimers, Pipeline, RecSummary, Served};
use crate::serve::{self, SentryPhase};

/// Inputs per case and round.
const CASE_INPUTS: usize = 1_500;
/// Leading inputs of each case fed during set-up, before the timed loop
/// (all precede the first trigger).
const WARMUP: usize = 200;
/// Table 3's trigger positions; each is shifted by a seeded 0–99.
const TRIGGERS: [usize; 3] = [400, 800, 1_100];
/// Rounds per seed cycle: 36 rounds of 9 cases give 324 first-trigger
/// recoveries (a p90 needs 100 for 10 samples beyond it), and enough
/// sub-seeds that a run's figures do not hinge on whether one of them
/// hits the under-patched M4 diagnosis.
const CYCLE: usize = 36;

/// One case of one round.
struct CaseRun {
    setup_s: f64,
    loop_s: f64,
    feeds: u64,
    served: u64,
    recovery_ms: Vec<f64>,
    /// Failures after the first one: the bug recurring under the
    /// patch its first failure produced (each case holds one bug).
    later_failed: u64,
    /// Failures before the first trigger.
    stray_failures: u64,
    recs: Vec<RecSummary>,
    clock_ns: u64,
    wal_appends: u64,
}

impl CaseRun {
    /// The fields a traced pass must reproduce.
    fn outcome(&self) -> (u64, u64, u64, u64, u64, Vec<RecSummary>) {
        let recs = self
            .recs
            .iter()
            .map(|r| RecSummary {
                recovery_ns: None,
                ..r.clone()
            })
            .collect();
        (
            self.served,
            self.later_failed,
            self.stray_failures,
            self.clock_ns,
            self.wal_appends,
            recs,
        )
    }

    /// The fields a later round with the same seed must reproduce.
    fn virtual_outcome(&self) -> (u64, u64, u64, u64, Vec<RecSummary>, u64) {
        (
            self.served,
            self.later_failed,
            self.stray_failures,
            self.clock_ns,
            self.recs.clone(),
            self.wal_appends,
        )
    }
}

fn case_stream(spec: &AppSpec, seed: u64) -> (Vec<Input>, Vec<usize>) {
    let mut s = seed;
    let triggers: Vec<usize> = TRIGGERS
        .iter()
        .map(|&t| t + (splitmix64(&mut s) % 100) as usize)
        .collect();
    let w = WorkloadSpec {
        n: CASE_INPUTS,
        triggers: triggers.clone(),
        seed,
    };
    ((spec.workload)(&w), triggers)
}

/// Runs one case, recording the wall ns of each timed feed that ran no
/// recovery into `latency`. The host's reference loop runs between the
/// warm-up and the timed loop.
fn run_case<S: Served>(
    spec: &AppSpec,
    seed: u64,
    dir: &Path,
    latency: &mut Latencies,
    reference: &mut Reference,
    launch: impl FnOnce(&AppSpec, PatchPool) -> S,
    mut before_feed: impl FnMut(u64),
) -> (CaseRun, S) {
    let t = Instant::now();
    let (inputs, triggers) = case_stream(spec, seed);
    let pool = PatchPool::journaled(dir).expect("the scratch directory is writable");
    let mut rt = launch(spec, pool);
    let mut inputs = inputs.into_iter().enumerate();
    let mut warmup_failures = 0u64;
    for (i, input) in inputs.by_ref().take(WARMUP) {
        before_feed(i as u64);
        let fed = rt.feed(input);
        warmup_failures += u64::from(fed.failed || !fed.served);
    }
    let setup_s = t.elapsed().as_secs_f64();
    reference.measure();

    let mut run = CaseRun {
        setup_s,
        loop_s: 0.0,
        feeds: 0,
        served: 0,
        recovery_ms: Vec::new(),
        later_failed: 0,
        stray_failures: warmup_failures,
        recs: Vec::new(),
        clock_ns: 0,
        wal_appends: 0,
    };
    let mut seen_failure = false;
    let t = Instant::now();
    for (i, input) in inputs {
        before_feed(i as u64);
        let started = Instant::now();
        let fed = rt.feed(input);
        let ns = started.elapsed().as_nanos() as f64;
        if fed.recovered {
            run.recovery_ms.push(ns / 1e6);
        } else {
            latency.record(ns);
        }
        run.feeds += 1;
        run.served += u64::from(fed.served);
        if fed.failed {
            if i < triggers[0] {
                run.stray_failures += 1;
            } else if seen_failure {
                run.later_failed += 1;
            }
            seen_failure = true;
        }
    }
    run.loop_s = t.elapsed().as_secs_f64();
    run.recs = rt.recoveries();
    run.clock_ns = rt.process().ctx.clock.now();
    run.wal_appends = rt.pool().journal().map_or(0, |w| w.appends());
    (run, rt)
}

fn launch_untraced(spec: &AppSpec, pool: PatchPool) -> FirstAidRuntime {
    FirstAidRuntime::launch((spec.build)(), fa_bench::paper_config(), pool)
        .expect("every case launches")
}

/// Checks one case. The [`KNOWN_QUIRKS`]' behaviours, including their
/// later triggers failing again, are recorded as known defects; a later
/// trigger of any other case that fails under its patch fails the check.
fn check_case(report: &mut Report, spec: &AppSpec, round: usize, run: &CaseRun) {
    let key = spec.key;
    report.check(run.stray_failures == 0, || {
        format!(
            "round {round} {key}: {} inputs failed before the first trigger",
            run.stray_failures
        )
    });
    let Some(first) = run.recs.first() else {
        if KNOWN_QUIRKS.contains(&key) && run.served == run.feeds {
            report
                .known_defects
                .push(format!("round {round} {key}: no trigger caused a failure"));
        } else {
            report.check(false, || format!("round {round} {key}: no recovery"));
        }
        return;
    };
    report.check(first.kind == RecoveryKind::Patched, || {
        format!("round {round} {key}: first recovery {:?}", first.kind)
    });
    report.check(
        !first.bugs.is_empty() && first.bugs.iter().all(|b| *b == spec.expect_bug),
        || {
            format!(
                "round {round} {key}: diagnosed {:?}, expected {:?}",
                first.bugs, spec.expect_bug
            )
        },
    );
    let sites = first.sites.len();
    let under = sites > 0 && sites < spec.expect_sites && KNOWN_QUIRKS.contains(&key);
    if under {
        report.known_defects.push(format!(
            "round {round} {key}: precise patch covers {sites} of {} call-sites",
            spec.expect_sites
        ));
    } else {
        report.check(sites == spec.expect_sites, || {
            format!(
                "round {round} {key}: {sites} patched call-sites, expected {}",
                spec.expect_sites
            )
        });
    }
    report.check(first.validation.is_some_and(|(ok, _)| ok), || {
        format!(
            "round {round} {key}: validation {:?} is not consistent",
            first.validation
        )
    });
    let later = || {
        format!(
            "round {round} {key}: {} later trigger(s) failed under the patch ({:?})",
            run.later_failed,
            run.recs.iter().map(|r| &r.kind).collect::<Vec<_>>()
        )
    };
    if run.later_failed > 0 && KNOWN_QUIRKS.contains(&key) {
        report.known_defects.push(later());
    } else {
        report.check(run.later_failed == 0, later);
    }
}

/// Runs the untraced measurement.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let specs = all_specs();
    let scratch = ScratchDir::new("recovery").expect("the working directory is writable");
    let budget = Budget::new(args.seconds);
    let mut sentry = SentryPhase::new(args.seed);
    let (mut fleet, mut diagnosis_s) = FleetPhase::new(&mut report, args.seed);
    let mut rounds: Vec<Vec<CaseRun>> = Vec::new();
    // Rounds one cycle apart feed identical inputs: one unit each. The
    // sentry repeats are unit CYCLE.
    let mut blocks: Vec<Block> = Vec::new();
    // Set-up seconds of each whole cycle, corrected for the host's
    // speed: its diagnosis phase, its sentry repeat's set-up and its
    // rounds' set-ups.
    let mut setups: Vec<f64> = Vec::new();
    let mut cycle_setup_s = 0.0;
    let mut latency = Latencies::new();
    while rounds.len() < CYCLE || !budget.spent() {
        let r = rounds.len();
        if r.is_multiple_of(CYCLE) {
            if r > 0 {
                diagnosis_s = fleet.rediagnose(&mut report);
            }
            fleet.sweep(&mut report);
            let (block, setup_s) = sentry.repeat(&mut report, CYCLE);
            cycle_setup_s = diagnosis_s * block.host + setup_s;
            blocks.push(block);
        }
        let seed = derive_seed(args.seed, (r % CYCLE) as u64);
        let mut cases = Vec::new();
        let mut reference = Reference::new();
        for spec in &specs {
            let dir = scratch.path().join(format!("r{r}-{}", spec.key));
            let (run, rt) = run_case(
                spec,
                seed,
                &dir,
                &mut latency,
                &mut reference,
                launch_untraced,
                |_| {},
            );
            drop(rt);
            std::fs::remove_dir_all(&dir).expect("the case directory is removable");
            check_case(&mut report, spec, r, &run);
            cases.push(run);
        }
        if r >= CYCLE {
            for (spec, (a, b)) in specs.iter().zip(rounds[r - CYCLE].iter().zip(&cases)) {
                report.check(a.virtual_outcome() == b.virtual_outcome(), || {
                    format!(
                        "round {r} {}: virtual outcome differs from round {}",
                        spec.key,
                        r - CYCLE
                    )
                });
            }
        }
        let host = reference.end_block();
        cycle_setup_s += host * cases.iter().map(|c| c.setup_s).sum::<f64>();
        if r % CYCLE == CYCLE - 1 {
            setups.push(cycle_setup_s);
        }
        blocks.push(Block {
            unit: r % CYCLE,
            inputs: cases.iter().map(|c| c.feeds).sum(),
            seconds: cases.iter().map(|c| c.loop_s).sum(),
            pcts_ns: latency.end_block(),
            host,
        });
        rounds.push(cases);
    }

    report.serving_metrics(&blocks, latency.run());
    let all = || rounds.iter().flatten();
    let feeds: u64 = all().map(|c| c.feeds).sum();
    let served: u64 = all().map(|c| c.served).sum();
    report.attempted += feeds;
    report.failed += feeds - served;
    report.e2e(
        "peak_rss_mb",
        "MB",
        crate::common::peak_rss_mb().unwrap_or(0.0),
        1,
    );
    report.e2e(
        "setup_s",
        "s",
        stats::median(&setups).expect("at least one cycle"),
        setups.len() as u64,
    );

    // Whole cycles only, so the wall percentiles weigh every seed alike.
    let whole = rounds.len() / CYCLE * CYCLE;
    let wall: Vec<f64> = rounds[..whole]
        .iter()
        .flatten()
        .flat_map(|c| c.recovery_ms.clone())
        .collect();
    report.detail_percentile("recovery_p50_ms", "ms", &wall, 0.5);
    report.detail_percentile("recovery_p90_ms", "ms", &wall, 0.9);
    let cycle = || rounds[..CYCLE].iter().flatten();
    let virt: Vec<f64> = cycle()
        .flat_map(|c| &c.recs)
        .filter_map(|r| r.recovery_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    report.detail_percentile("recovery_virt_p50_ms", "ms", &virt, 0.5);
    report.detail_percentile("recovery_virt_p90_ms", "ms", &virt, 0.9);
    let validation: Vec<f64> = cycle()
        .flat_map(|c| &c.recs)
        .filter_map(|r| r.validation)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    report.detail_percentile("validation_virt_p50_ms", "ms", &validation, 0.5);
    let later = (cycle().count() * (TRIGGERS.len() - 1)) as u64;
    let later_failed: u64 = cycle().map(|c| c.later_failed).sum();
    report.detail(
        "repeat_failure_frac",
        "frac",
        stats::frac(later_failed, later).expect("later triggers exist"),
        later,
    );
    report.detail(
        "failed_input_frac",
        "frac",
        stats::frac(feeds - served, feeds).expect("inputs were fed"),
        feeds,
    );
    report.raw("setup_s", setups);
    sentry.finish(&mut report);
    fleet.finish(&mut report);
    report.raw("recovery_wall_ms", wall);
    report.raw("recovery_virt_ms", virt);
    report.raw("validation_virt_ms", validation);
    report
}

/// Runs the traced pass: one cycle of rounds, each case served once by
/// the runtime and once by the traced pipeline.
pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let specs = all_specs();
    let scratch = ScratchDir::new("recovery-traced").expect("the working directory is writable");
    let tracer = Arc::new(Mutex::new(Tracer::new()));
    let timers = Arc::new(AllocTimers::default());
    let mut acc = LayerAcc::default();
    let (mut untraced_feeds, mut untraced_s) = (0u64, 0.0f64);
    let (mut traced_feeds, mut traced_s) = (0u64, 0.0f64);
    let mut request = 0u64;
    for r in 0..CYCLE {
        let seed = derive_seed(args.seed, r as u64);
        for spec in &specs {
            let dir = scratch.path().join(format!("r{r}-{}", spec.key));
            let (plain, rt) = run_case(
                spec,
                seed,
                &dir,
                &mut Latencies::new(),
                &mut Reference::new(),
                launch_untraced,
                |_| {},
            );
            drop(rt);
            std::fs::remove_dir_all(&dir).expect("the case directory is removable");
            check_case(&mut report, spec, r, &plain);

            let base = request;
            let (traced, mut pipe) = run_case(
                spec,
                seed,
                &dir,
                &mut Latencies::new(),
                &mut Reference::new(),
                |spec, pool| {
                    Pipeline::launch(
                        (spec.build)(),
                        fa_bench::paper_config(),
                        pool,
                        Arc::clone(&tracer),
                        Arc::clone(&timers),
                    )
                    .expect("every case launches")
                },
                |i| {
                    tracer
                        .lock()
                        .expect("single-threaded tracer")
                        .set_request(base + i)
                },
            );
            request += CASE_INPUTS as u64;
            acc.add(&mut pipe);
            drop(pipe);
            std::fs::remove_dir_all(&dir).expect("the case directory is removable");
            report.check(plain.outcome() == traced.outcome(), || {
                format!(
                    "round {r} {}: traced pass diverged from the runtime: {:?} vs {:?}",
                    spec.key,
                    traced.outcome(),
                    plain.outcome()
                )
            });
            untraced_feeds += plain.feeds;
            untraced_s += plain.loop_s;
            traced_feeds += traced.feeds;
            traced_s += traced.loop_s;
            report.attempted += plain.feeds + traced.feeds;
            report.failed += (plain.feeds - plain.served) + (traced.feeds - traced.served);
        }
    }
    let tracer = tracer.lock().expect("single-threaded tracer");
    write_spans(&args.workload, args.seed, &tracer);
    acc.finish(tracer.spans(), &timers, &mut report);
    let untraced = untraced_feeds as f64 / untraced_s;
    let traced = traced_feeds as f64 / traced_s;
    report.layer("trace.untraced_inputs_per_s", untraced);
    report.layer("trace.traced_inputs_per_s", traced);
    report.layer(
        "trace.overhead_pct",
        stats::overhead_pct(untraced, traced).expect("the traced loop ran"),
    );
    // The cycle's other phases: the sentry phase's traced pass gives
    // the `sentry.*` figures and the fleet phase the plane's
    // `pool.get_*` and the `fleet.*` ones; every other layer figure is
    // the rounds'.
    let sentry = serve::run_traced(serve::Kind::Sentry, args);
    for (&name, &v) in &sentry.layers {
        if name.starts_with("sentry.") {
            report.layer(name, v);
        }
    }
    report.attempted += sentry.attempted;
    report.failed += sentry.failed;
    report.check_failures.extend(sentry.check_failures);
    report.known_defects.extend(sentry.known_defects);
    fleet::trace_layers(&mut report, args.seed);
    report
}
