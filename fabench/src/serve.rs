//! Serving traffic: one closed-loop client feeding seeded traffic to a
//! set of supervised programs, one input at a time.
//!
//! * `steady` (a workload) — the nine applications' request mixes, the
//!   four allocation-intensive profiles and one large-heap SPEC
//!   profile, trigger-free, sentry tier off. Every input pays this path.
//! * the sentry phase of `recovery` ([`SentryPhase`]) — the nine
//!   applications with the sentry tier at the gated 1/64 rate and two
//!   bug triggers per application.
//!
//! A *repeat* serves the programs one after another, in seeded order.
//! For each it generates the inputs, launches the runtime and feeds a
//! warm-up (set-up), feeds the remaining inputs (the timed loop), and
//! drops the runtime. A supervised program stands for a process of its
//! own, so no other program's memory is live beside it. Every repeat
//! feeds the same inputs, so each program's virtual clock must end
//! identical in every repeat.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fa_allocext::SentryConfig;
use fa_apps::{all_specs, alloc_intensive_profiles, spec_profiles, SynthApp, WorkloadSpec};
use fa_proc::{BoxedApp, Input, Process, ProcessCtx};
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool};

use fa_perfbench::stats::{self, Latencies};
use fa_perfbench::trace::Tracer;

use crate::common::{derive_seed, shuffle, splitmix64, Args, Block, Budget, Report, KNOWN_QUIRKS};
use crate::host::Reference;
use crate::layers::{write_spans, LayerAcc};
use crate::pipeline::{AllocTimers, Pipeline, RecSummary, Served};

/// Inputs fed to each program before the timed loop.
const WARMUP: usize = 200;
/// Instances of each application on `steady`, each fed its own seeded
/// request stream, so one run averages over several input draws.
const APP_INSTANCES: usize = 4;
/// Inputs per application instance and repeat on `steady`.
const APP_INPUTS: usize = 2_000;
/// Inputs per allocation-intensive profile and repeat.
const ALLOC_INPUTS: usize = 1_500;
/// Inputs of the large-heap SPEC profile per repeat.
const SPEC_INPUTS: usize = 4_000;
/// The large-heap SPEC profile (183 MB heap, 16 MB write window: far
/// beyond the 64-entry TLB's 256 KB reach).
const SPEC_PROFILE: &str = "256.bzip2";
/// Inputs per application and repeat on `sentry`.
const SENTRY_INPUTS: usize = 6_000;
/// The gated always-on sentry sampling rate (1/N allocations).
const SENTRY_RATE: u32 = 64;
/// Untraced/traced repeat pairs of a traced run.
const TRACE_PAIRS: usize = 4;

/// Which of the two workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Trigger-free traffic, sentry off.
    Steady,
    /// Sentry tier on, sparse triggers.
    Sentry,
}

/// One supervised program of the mix.
struct ProgramDef {
    name: String,
    /// The application's registry key (`None` for synthetic profiles).
    key: Option<&'static str>,
    /// Inputs per repeat, warm-up included.
    n: usize,
    build: Box<dyn Fn() -> BoxedApp>,
    inputs: Box<dyn Fn() -> Vec<Input>>,
    /// Indices of bug-triggering inputs (all past the warm-up).
    triggers: Vec<usize>,
    /// Bug type the application is expected to diagnose, if triggered.
    expect_bug: Option<fa_allocext::BugType>,
}

struct Mix {
    programs: Vec<ProgramDef>,
    config: FirstAidConfig,
    /// Programs in feed order.
    order: Vec<usize>,
}

/// `instances` runtimes of each application; instance `k` of app `i`
/// draws its requests (and trigger positions) from sub-seed
/// `derive_seed(seed, 100 + 16 * i + k)`.
fn app_programs(seed: u64, n: usize, triggers_per_app: usize, instances: usize) -> Vec<ProgramDef> {
    let specs = all_specs();
    (0..instances)
        .flat_map(|k| specs.iter().enumerate().map(move |(i, spec)| (k, i, spec)))
        .map(|(k, i, spec)| {
            let sub_seed = derive_seed(seed, (100 + 16 * i + k) as u64);
            let mut s = sub_seed;
            let mut triggers = Vec::new();
            let mut at = 1_000;
            for _ in 0..triggers_per_app {
                at += (splitmix64(&mut s) % 1_000) as usize;
                triggers.push(at);
                at += 1_500;
            }
            assert!(triggers.iter().all(|&t| t < n), "triggers past the stream");
            let workload = spec.workload;
            let w = WorkloadSpec {
                n,
                triggers: triggers.clone(),
                seed: sub_seed,
            };
            ProgramDef {
                name: format!("{}#{k}", spec.key),
                key: Some(spec.key),
                n,
                build: Box::new(spec.build),
                inputs: Box::new(move || workload(&w)),
                triggers,
                expect_bug: Some(spec.expect_bug),
            }
        })
        .collect()
}

fn synth_program(profile: fa_apps::SynthProfile, n: usize) -> ProgramDef {
    ProgramDef {
        name: profile.name.to_owned(),
        key: None,
        n,
        build: Box::new(move || Box::new(SynthApp::new(profile))),
        inputs: Box::new(move || fa_apps::synth::workload(&profile, n)),
        triggers: Vec::new(),
        expect_bug: None,
    }
}

fn mix(kind: Kind, seed: u64) -> Mix {
    let mut config = fa_bench::paper_config();
    let programs = match kind {
        Kind::Steady => {
            let mut p = app_programs(seed, APP_INPUTS, 0, APP_INSTANCES);
            p.extend(
                alloc_intensive_profiles()
                    .into_iter()
                    .map(|prof| synth_program(prof, ALLOC_INPUTS)),
            );
            let spec = spec_profiles()
                .into_iter()
                .find(|p| p.name == SPEC_PROFILE)
                .expect("the SPEC profile is registered");
            p.push(synth_program(spec, SPEC_INPUTS));
            p
        }
        Kind::Sentry => {
            config.sentry = Some(SentryConfig {
                rate: SENTRY_RATE,
                seed: derive_seed(seed, 1),
                ..SentryConfig::default()
            });
            app_programs(seed, SENTRY_INPUTS, 2, 1)
        }
    };
    let mut order: Vec<usize> = (0..programs.len()).collect();
    shuffle(&mut order, derive_seed(seed, 2));
    Mix {
        programs,
        config,
        order,
    }
}

/// What one program ended with after a repeat.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProgramEnd {
    served: u64,
    failed: u64,
    clock_ns: u64,
    recoveries: Vec<RecSummary>,
    /// Virtual clock and checkpoints taken just before the first
    /// trigger (or at the end, without triggers): the trigger-free
    /// prefix the overhead figure covers.
    prefix_clock_ns: u64,
    prefix_checkpoints: u64,
    prefix_inputs: usize,
}

impl ProgramEnd {
    /// The fields a traced pass must reproduce.
    fn outcome(&self) -> (u64, u64, u64, Vec<RecSummary>) {
        let recs = self
            .recoveries
            .iter()
            .map(|r| RecSummary {
                recovery_ns: None,
                ..r.clone()
            })
            .collect();
        (self.served, self.failed, self.clock_ns, recs)
    }
}

struct RepeatRun {
    /// Wall seconds of set-up.
    setup_s: f64,
    loop_s: f64,
    feeds: u64,
    /// Wall ms of each feed that ran a recovery.
    recovery_ms: Vec<f64>,
    /// p50 and p90 wall ns of the timed feeds that ran no recovery.
    pcts_ns: [Option<f64>; 2],
    /// The repeat's host-speed factor.
    host: f64,
    ends: Vec<ProgramEnd>,
}

/// Runs one repeat, recording the wall ns of each timed feed that ran
/// no recovery into `latency` as one block, and handing each runtime to
/// `done` once its inputs are fed. The host's reference loop runs before
/// each program, outside every timed section.
fn run_repeat<S: Served>(
    mix: &Mix,
    latency: &mut Latencies,
    mut launch: impl FnMut(&ProgramDef) -> S,
    mut before_feed: impl FnMut(u64),
    mut done: impl FnMut(S),
) -> RepeatRun {
    let mut ends: Vec<Option<ProgramEnd>> = vec![None; mix.programs.len()];
    let (mut setup_s, mut loop_s) = (0.0f64, 0.0f64);
    let mut recovery_ms = Vec::new();
    let mut feeds = 0u64;
    let mut reference = Reference::new();
    for &p in &mix.order {
        reference.measure();
        let def = &mix.programs[p];
        let t = Instant::now();
        let mut inputs = (def.inputs)().into_iter();
        let mut rt = launch(def);
        let (mut served, mut failed) = (0u64, 0u64);
        for input in inputs.by_ref().take(WARMUP) {
            let fed = rt.feed(input);
            served += u64::from(fed.served);
            failed += u64::from(fed.failed);
        }
        setup_s += t.elapsed().as_secs_f64();

        let mut fed_count = WARMUP;
        let mut prefix = None;
        let t = Instant::now();
        for input in inputs {
            if prefix.is_none() && def.triggers.first() == Some(&fed_count) {
                prefix = Some((
                    rt.process().ctx.clock.now(),
                    rt.checkpoints_taken(),
                    fed_count,
                ));
            }
            before_feed(feeds);
            let started = Instant::now();
            let fed = rt.feed(input);
            let ns = started.elapsed().as_nanos() as f64;
            if fed.recovered {
                recovery_ms.push(ns / 1e6);
            } else {
                latency.record(ns);
            }
            feeds += 1;
            fed_count += 1;
            served += u64::from(fed.served);
            failed += u64::from(fed.failed);
        }
        loop_s += t.elapsed().as_secs_f64();
        let clock_ns = rt.process().ctx.clock.now();
        let (prefix_clock_ns, prefix_checkpoints, prefix_inputs) =
            prefix.unwrap_or((clock_ns, rt.checkpoints_taken(), fed_count));
        ends[p] = Some(ProgramEnd {
            served,
            failed,
            clock_ns,
            recoveries: rt.recoveries(),
            prefix_clock_ns,
            prefix_checkpoints,
            prefix_inputs,
        });
        done(rt);
    }
    RepeatRun {
        setup_s,
        loop_s,
        feeds,
        recovery_ms,
        pcts_ns: latency.end_block(),
        host: reference.end_block(),
        ends: ends
            .into_iter()
            .map(|e| e.expect("the order covers every program"))
            .collect(),
    }
}

/// Timed inputs of a repeat that were not served.
fn unserved(run: &RepeatRun) -> u64 {
    let served: u64 = run.ends.iter().map(|e| e.served).sum();
    run.feeds + (run.ends.len() * WARMUP) as u64 - served
}

fn launch_untraced(config: &FirstAidConfig) -> impl FnMut(&ProgramDef) -> FirstAidRuntime + '_ {
    move |p| {
        FirstAidRuntime::launch((p.build)(), config.clone(), PatchPool::in_memory())
            .expect("every program launches")
    }
}

/// Fig. 6's "overall" overhead: busy virtual time under First-Aid
/// (arrival gaps and the fork-like checkpoint base cost excluded) over
/// a plain Lea-heap pass of the same trigger-free prefix, averaged over
/// the programs. Runs outside every timed section.
fn virt_overhead_pct(mix: &Mix, ends: &[ProgramEnd]) -> f64 {
    let fork_ns = mix.config.adaptive.checkpoint_base_ns;
    let pcts: Vec<f64> = mix
        .programs
        .iter()
        .zip(ends)
        .map(|(p, end)| {
            let inputs: Vec<Input> = (p.inputs)().into_iter().take(end.prefix_inputs).collect();
            let gaps: u64 = inputs.iter().map(|i| i.gap_ns).sum();
            let mut plain = Process::launch((p.build)(), ProcessCtx::new(mix.config.heap_limit))
                .expect("every program launches");
            for input in inputs {
                assert!(
                    plain.feed(input).is_ok(),
                    "{}: prefix is trigger-free",
                    p.name
                );
            }
            let reference = plain.ctx.clock.now() - gaps;
            let supervised = end.prefix_clock_ns - gaps - end.prefix_checkpoints * fork_ns;
            stats::overhead_pct(supervised as f64, reference as f64)
                .expect("a program's busy time is never zero")
        })
        .collect();
    pcts.iter().sum::<f64>() / pcts.len() as f64
}

fn check_repeat(report: &mut Report, kind: Kind, mix: &Mix, run: &RepeatRun) {
    for (p, end) in mix.programs.iter().zip(&run.ends) {
        report.check(end.served == p.n as u64, || {
            format!("{}: served {} of {} inputs", p.name, end.served, p.n)
        });
        match kind {
            Kind::Steady => report.check(end.failed == 0 && end.recoveries.is_empty(), || {
                format!(
                    "{}: {} failures on trigger-free traffic",
                    p.name, end.failed
                )
            }),
            Kind::Sentry => {
                let first = end.recoveries.first();
                let quirk = p.key.is_some_and(|k| KNOWN_QUIRKS.contains(&k));
                if first.is_none() && quirk && end.served == p.n as u64 {
                    report
                        .known_defects
                        .push(format!("{}: no trigger caused a failure", p.name));
                } else {
                    report.check(first.is_some(), || {
                        format!("{}: the first trigger caused no recovery", p.name)
                    });
                }
                if let (Some(r), Some(bug)) = (first, p.expect_bug) {
                    report.check(r.bugs.is_empty() || r.bugs.contains(&bug), || {
                        format!("{}: diagnosed {:?}, expected {bug:?}", p.name, r.bugs)
                    });
                }
                // Every recovery after the first is a later trigger the
                // first recovery's patch did not prevent.
                let repeats = end.recoveries.len().saturating_sub(1);
                let later = || {
                    format!(
                        "{}: {repeats} later trigger(s) failed under the patch ({:?})",
                        p.name,
                        end.recoveries.iter().map(|r| &r.kind).collect::<Vec<_>>()
                    )
                };
                if repeats > 0 && quirk {
                    report.known_defects.push(later());
                } else {
                    report.check(repeats == 0, later);
                }
            }
        }
    }
}

/// Checks a repeat, and that it ended every program exactly as the
/// first repeat of the same inputs did.
fn check_against(
    report: &mut Report,
    kind: Kind,
    mix: &Mix,
    first: &RepeatRun,
    run: &RepeatRun,
    i: usize,
) {
    check_repeat(report, kind, mix, run);
    for (p, (a, b)) in mix.programs.iter().zip(first.ends.iter().zip(&run.ends)) {
        report.check(a == b, || {
            format!(
                "{}: repeat {i} ended at virtual {} ns, repeat 0 at {} ns",
                p.name, b.clock_ns, a.clock_ns
            )
        });
    }
}

fn block(run: &RepeatRun, unit: usize) -> Block {
    Block {
        unit,
        inputs: run.feeds,
        seconds: run.loop_s,
        pcts_ns: run.pcts_ns,
        host: run.host,
    }
}

/// Runs the untraced `steady` measurement: repeats until the time
/// budget is spent.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mix = mix(Kind::Steady, args.seed);
    let budget = Budget::new(args.seconds);
    let mut runs: Vec<RepeatRun> = Vec::new();
    let mut latency = Latencies::new();
    while runs.is_empty() || !budget.spent() {
        let run = run_repeat(
            &mix,
            &mut latency,
            launch_untraced(&mix.config),
            |_| {},
            drop,
        );
        runs.push(run);
    }

    for (i, run) in runs.iter().enumerate() {
        check_against(&mut report, Kind::Steady, &mix, &runs[0], run, i);
    }
    let feeds: u64 = runs.iter().map(|r| r.feeds).sum();
    report.attempted = feeds;
    report.failed = runs.iter().map(unserved).sum();

    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s * r.host).collect();
    let blocks: Vec<Block> = runs.iter().map(|r| block(r, 0)).collect();
    report.serving_metrics(&blocks, latency.run());
    report.e2e(
        "peak_rss_mb",
        "MB",
        crate::common::peak_rss_mb().unwrap_or(0.0),
        1,
    );
    report.e2e(
        "setup_s",
        "s",
        stats::median(&setups).expect("at least one repeat"),
        setups.len() as u64,
    );

    report.detail(
        "virt_overhead_pct",
        "%",
        virt_overhead_pct(&mix, &runs[0].ends),
        mix.programs.len() as u64,
    );
    report.detail(
        "failed_input_frac",
        "frac",
        stats::frac(report.failed, feeds).expect("inputs were fed"),
        feeds,
    );
    report.raw("setup_s", setups);
    report.raw(
        "timed_inputs",
        runs.iter().map(|r| r.feeds as f64).collect(),
    );
    report
}

/// The sentry phase of the `recovery` workload: the nine applications
/// with the sentry tier at the gated 1/64 rate and two triggers each,
/// fed as one repeat per cycle. Its figures are `sentry_*` details.
pub struct SentryPhase {
    mix: Mix,
    runs: Vec<RepeatRun>,
    latency: Latencies,
}

impl SentryPhase {
    /// The phase's programs and inputs for `seed`.
    pub fn new(seed: u64) -> SentryPhase {
        SentryPhase {
            mix: mix(Kind::Sentry, seed),
            runs: Vec::new(),
            latency: Latencies::new(),
        }
    }

    /// Runs and checks one repeat. Returns its timed block, as `unit`,
    /// and its set-up seconds, corrected for the host's speed.
    pub fn repeat(&mut self, report: &mut Report, unit: usize) -> (Block, f64) {
        let run = run_repeat(
            &self.mix,
            &mut self.latency,
            launch_untraced(&self.mix.config),
            |_| {},
            drop,
        );
        let first = self.runs.first().unwrap_or(&run);
        check_against(
            report,
            Kind::Sentry,
            &self.mix,
            first,
            &run,
            self.runs.len(),
        );
        report.attempted += run.feeds;
        report.failed += unserved(&run);
        let out = (block(&run, unit), run.setup_s * run.host);
        self.runs.push(run);
        out
    }

    /// Adds the phase's `sentry_*` detail figures.
    pub fn finish(self, report: &mut Report) {
        let (mix, runs) = (&self.mix, &self.runs);
        let blocks: Vec<Block> = runs.iter().map(|r| block(r, 0)).collect();
        let f = report.figures("sentry", &blocks);
        if let Some(r) = f.inputs_per_s {
            report.detail("sentry_inputs_per_s", "1/s", r, f.blocks);
        }
        for (name, v) in [
            ("sentry_input_p50_us", f.pcts_ns[0]),
            ("sentry_input_p90_us", f.pcts_ns[1]),
        ] {
            if let Some(ns) = v {
                report.detail(name, "us", ns / 1e3, f.inputs);
            }
        }
        report.detail(
            "sentry_virt_overhead_pct",
            "%",
            virt_overhead_pct(mix, &runs[0].ends),
            mix.programs.len() as u64,
        );
        let wall: Vec<f64> = runs.iter().flat_map(|r| r.recovery_ms.clone()).collect();
        report.detail_percentile("sentry_recovery_p50_ms", "ms", &wall, 0.5);
        report.detail_percentile("sentry_recovery_p90_ms", "ms", &wall, 0.9);
        // Repeats replay identical inputs, so the virtual figures come
        // from the first repeat alone.
        let ends = &runs[0].ends;
        let virt: Vec<f64> = ends
            .iter()
            .flat_map(|e| &e.recoveries)
            .filter_map(|r| r.recovery_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        report.detail_percentile("sentry_recovery_virt_p50_ms", "ms", &virt, 0.5);
        report.detail_percentile("sentry_recovery_virt_p90_ms", "ms", &virt, 0.9);
        let (later, repeats) = later_trigger_failures(mix, ends);
        if let Some(f) = stats::frac(repeats, later) {
            report.detail("sentry_repeat_failure_frac", "frac", f, later);
        }
        report.raw(
            "sentry_block_inputs_per_s",
            blocks
                .iter()
                .map(|b| stats::rate(b.inputs, b.seconds).unwrap_or(0.0))
                .collect(),
        );
        report.raw("sentry_recovery_wall_ms", wall);
        report.raw("sentry_recovery_virt_ms", virt);
    }
}

/// Later triggers of an already-recovered bug, and how many of them
/// failed again (one recovery per failure; the first trigger's is the
/// one that patched).
fn later_trigger_failures(mix: &Mix, ends: &[ProgramEnd]) -> (u64, u64) {
    let mut later = 0;
    let mut failed = 0;
    for (p, end) in mix.programs.iter().zip(ends) {
        let extra = p.triggers.len().saturating_sub(1) as u64;
        later += extra;
        failed += (end.recoveries.len() as u64).saturating_sub(1).min(extra);
    }
    (later, failed)
}

/// Runs the traced pass: [`TRACE_PAIRS`] pairs of one untraced and one
/// traced repeat over the same inputs. Per-layer metrics come from the
/// first traced repeat; the pairs give the tracing overhead.
pub fn run_traced(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let mix = mix(kind, args.seed);
    let (mut untraced_feeds, mut untraced_s) = (0u64, 0.0f64);
    let (mut traced_feeds, mut traced_s) = (0u64, 0.0f64);
    for pair in 0..TRACE_PAIRS {
        let plain = run_repeat(
            &mix,
            &mut Latencies::new(),
            launch_untraced(&mix.config),
            |_| {},
            drop,
        );
        let tracer = Arc::new(Mutex::new(Tracer::new()));
        let timers = Arc::new(AllocTimers::default());
        let config = mix.config.clone();
        let tr = Arc::clone(&tracer);
        let mut acc = LayerAcc::default();
        let traced = run_repeat(
            &mix,
            &mut Latencies::new(),
            |p| {
                Pipeline::launch(
                    (p.build)(),
                    config.clone(),
                    PatchPool::in_memory(),
                    Arc::clone(&tr),
                    Arc::clone(&timers),
                )
                .expect("every program launches")
            },
            |i| {
                tracer
                    .lock()
                    .expect("single-threaded tracer")
                    .set_request(i)
            },
            |mut pipe: Pipeline| acc.add(&mut pipe),
        );
        check_repeat(&mut report, kind, &mix, &plain);
        for (p, (a, b)) in mix.programs.iter().zip(plain.ends.iter().zip(&traced.ends)) {
            report.check(a.outcome() == b.outcome(), || {
                format!(
                    "{}: traced pass diverged from the runtime: {:?} vs {:?}",
                    p.name,
                    b.outcome(),
                    a.outcome()
                )
            });
        }
        untraced_feeds += plain.feeds;
        untraced_s += plain.loop_s;
        traced_feeds += traced.feeds;
        traced_s += traced.loop_s;
        report.attempted += plain.feeds + traced.feeds;
        report.failed += unserved(&plain) + unserved(&traced);
        if pair == 0 {
            let tracer = tracer.lock().expect("single-threaded tracer");
            let name = match kind {
                Kind::Steady => "steady",
                Kind::Sentry => "recovery-sentry",
            };
            write_spans(name, args.seed, &tracer);
            acc.finish(tracer.spans(), &timers, &mut report);
        }
    }
    let untraced = untraced_feeds as f64 / untraced_s;
    let traced = traced_feeds as f64 / traced_s;
    report.layer("trace.untraced_inputs_per_s", untraced);
    report.layer("trace.traced_inputs_per_s", traced);
    report.layer(
        "trace.overhead_pct",
        stats::overhead_pct(untraced, traced).expect("the traced loop ran"),
    );
    report
}
