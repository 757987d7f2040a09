//! The fleet phase of the `recovery` workload: time-to-fleet-immunity,
//! and the lock-free patch plane read by a 100,000-worker fleet while a
//! publisher writes to it.
//!
//! * **Set-up:** real diagnoses of the nine applications (each under a
//!   `FirstAidRuntime`, one seeded trigger) build the [`AppPlan`]s. Done
//!   once per cycle of the workload; the plans must agree exactly.
//! * **Reads:** a [`ScaleFleet`] of [`WORKERS`] simulated workers
//!   queries the plane on all cores but one.
//! * **Writes:** the remaining core publishes: journal-less `add` and
//!   `revoke` pairs to the same pool, for programs the readers never
//!   query, one every [`WRITE_GAP_NS`] ns from the sweep's start to its
//!   end. The rate is fixed, so every query of every sweep runs beside
//!   writes at the same rate however fast the plane reads; the number
//!   of writes per sweep is the rate times the sweep's length, and is
//!   recorded. `ScaleFleet` owns an in-memory pool, so these writes
//!   cannot be journaled; journaled writes are measured by `recovery`.
//!
//! Each sweep builds a fresh fleet (the plane keeps retired snapshot
//! directories until its pool drops) and runs one full query sweep
//! beside the publisher. The phase's figures are `fleet_*` details.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fa_allocext::{BugType, Patch};
use fa_apps::{all_specs, WorkloadSpec};
use fa_fleet::{AppPlan, ScaleConfig, ScaleFleet, ScaleOutcome};
use fa_proc::{CallSite, SymbolTable};
use first_aid_core::{FirstAidRuntime, PatchPool};

use fa_perfbench::stats::{self, Latencies};

use crate::common::{derive_seed, reader_threads, splitmix64, Block, Report, KNOWN_QUIRKS};
use crate::host::Reference;

/// Simulated fleet size.
const WORKERS: usize = 100_000;
/// Inputs of each application's diagnosis-phase stream.
const PLAN_INPUTS: usize = 1_000;
/// Trigger position of that stream (shifted by a seeded 0–99): late
/// enough for Apache's cache to reach the purge the bug needs, as in
/// Table 3's layout.
const PLAN_TRIGGER: usize = 400;
/// Gap between the publisher's writes: 4,000 writes/s. An arbitrary
/// stress rate, not a modelled one — the modelled fleet publishes once
/// per diagnosed application (nine times per sweep). It is kept this
/// low because the plane keeps every retired snapshot directory until
/// its pool drops, so each write of a sweep adds to peak memory.
const WRITE_GAP_NS: u64 = 250_000;
/// Programs the publisher writes to (never queried by the readers).
const WRITER_PROGRAMS: [&str; 4] = ["writer-0", "writer-1", "writer-2", "writer-3"];
/// Fleet sweeps of a traced run.
const TRACE_SWEEPS: usize = 10;

/// Sub-seeds an application's diagnosis stream may try: a stream whose
/// trigger never faults (a known M4 behaviour) publishes no patch, so
/// the next sub-seed is tried.
const PLAN_ATTEMPTS: u64 = 4;

/// The diagnosis phase: one real recovery per application. Returns the
/// plans and a note for every stream that had to be retried.
fn diagnose_plans(seed: u64) -> (Vec<AppPlan>, Vec<String>) {
    let mut notes = Vec::new();
    let plans = all_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut plan = None;
            for attempt in 0..PLAN_ATTEMPTS {
                let sub_seed = derive_seed(seed, 200 + 16 * i as u64 + attempt);
                let mut s = sub_seed;
                let trigger = PLAN_TRIGGER + (splitmix64(&mut s) % 100) as usize;
                let pool = PatchPool::in_memory();
                let mut rt =
                    FirstAidRuntime::launch((spec.build)(), fa_bench::paper_config(), pool.clone())
                        .expect("every application launches");
                let w = WorkloadSpec {
                    n: PLAN_INPUTS,
                    triggers: vec![trigger],
                    seed: sub_seed,
                };
                rt.run((spec.workload)(&w), None);
                let program = rt.program().to_owned();
                let p = AppPlan {
                    patches: pool.get(&program).patches().to_vec(),
                    recovery_ns: rt.recoveries.first().map_or(0, |r| r.recovery_ns),
                    program,
                };
                if !p.patches.is_empty() || !KNOWN_QUIRKS.contains(&spec.key) {
                    plan = Some(p);
                    break;
                }
                notes.push(format!(
                    "{}: diagnosis stream {attempt} caused no failure; trying the next",
                    spec.key
                ));
                plan = Some(p);
            }
            plan.expect("at least one attempt ran")
        })
        .collect();
    (plans, notes)
}

fn same_plans(a: &[AppPlan], b: &[AppPlan]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.program == y.program && x.patches == y.patches && x.recovery_ns == y.recovery_ns
        })
}

/// The deterministic part of a sweep.
fn virtual_fields(o: &ScaleOutcome) -> (u64, u64, u64, u32, u64) {
    (
        o.immunity_ns,
        o.patch_hits,
        o.failures,
        o.gossip_rounds,
        o.inputs,
    )
}

/// One sweep beside the publisher.
struct Sweep {
    outcome: ScaleOutcome,
    /// Writes issued.
    writes: u64,
    /// Writes the pool refused (an `add` admitting nothing, a `revoke`
    /// finding nothing).
    refused: u64,
}

/// Runs one fleet sweep on the reader threads while this thread
/// publishes, recording each write's wall ns into `latency`.
/// `next_site` numbers the publisher's writes across sweeps.
fn sweep(
    config: ScaleConfig,
    plans: &[AppPlan],
    next_site: &mut u64,
    latency: &mut Latencies,
) -> Sweep {
    let fleet = ScaleFleet::new(config, plans.to_vec());
    let pool = fleet.pool();
    let symbols = SymbolTable::new();
    let done = AtomicBool::new(false);
    let (mut writes, mut refused) = (0u64, 0u64);
    let outcome = std::thread::scope(|s| {
        let readers = s.spawn(|| {
            let o = fleet.run();
            // Release pairs with the publisher's Acquire load: once it
            // sees `done`, the sweep has finished.
            done.store(true, Ordering::Release);
            o
        });
        let gap = Duration::from_nanos(WRITE_GAP_NS);
        let mut due = Instant::now();
        while !done.load(Ordering::Acquire) {
            if Instant::now() < due {
                std::hint::spin_loop();
                continue;
            }
            due += gap;
            let n = *next_site;
            *next_site += 1;
            let program = WRITER_PROGRAMS[(n / 2) as usize % WRITER_PROGRAMS.len()];
            let site = CallSite([0xfb00_0000 + n / 2, 0, 0]);
            let add = n.is_multiple_of(2);
            let started = Instant::now();
            let ok = if add {
                pool.add(
                    program,
                    [Patch::new(BugType::BufferOverflow, site, &symbols)],
                ) == 1
            } else {
                pool.revoke(program, site)
            };
            let ns = started.elapsed().as_nanos() as f64;
            latency.record(ns);
            writes += 1;
            refused += u64::from(!ok);
        }
        readers.join().expect("the reader sweep does not panic")
    });
    Sweep {
        outcome,
        writes,
        refused,
    }
}

struct Setup {
    plans: Vec<AppPlan>,
    config: ScaleConfig,
    reference: ScaleOutcome,
}

/// Runs one more diagnosis phase, checks that it builds exactly the
/// plans of the first, and returns its wall seconds.
fn rediagnose(report: &mut Report, seed: u64, setup: &Setup) -> f64 {
    let t = Instant::now();
    let (plans, _) = diagnose_plans(seed);
    let s = t.elapsed().as_secs_f64();
    report.check(same_plans(&setup.plans, &plans), || {
        "diagnosis phases disagree on the plans".to_owned()
    });
    s
}

/// The first diagnosis phase, the fleet configuration and the
/// reference sweep. Returns the phase's wall seconds with the set-up.
fn setup(report: &mut Report, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let (plans, notes) = diagnose_plans(seed);
    let phase_s = t.elapsed().as_secs_f64();
    report.known_defects.extend(notes);
    for (spec, plan) in all_specs().iter().zip(&plans) {
        report.check(!plan.patches.is_empty() && plan.recovery_ns > 0, || {
            format!("{}: the diagnosis phase published no patch", spec.key)
        });
    }
    let config = ScaleConfig {
        workers: WORKERS,
        threads: reader_threads(),
        seed: derive_seed(seed, 3),
        ..ScaleConfig::default()
    };
    // The single-thread, reads-only reference sweep (untimed).
    let reference = ScaleFleet::new(
        ScaleConfig {
            threads: 1,
            ..config
        },
        plans.clone(),
    )
    .run();
    report.check(
        reference.patch_hits + reference.failures == WORKERS as u64,
        || {
            format!(
                "patch hits {} + failures {} != {WORKERS} workers",
                reference.patch_hits, reference.failures
            )
        },
    );
    // The reads-only sweep on the reader threads must see exactly the
    // reference's plane state. (Beside the publisher the query digest
    // cannot match: it folds in the pool's event head, which the
    // publisher advances.)
    let reads_only = ScaleFleet::new(config, plans.clone()).run();
    report.check(reads_only.checksum == reference.checksum, || {
        format!(
            "query checksum {:#x} differs from the single-thread reference {:#x}",
            reads_only.checksum, reference.checksum
        )
    });
    (
        Setup {
            plans,
            config,
            reference,
        },
        phase_s,
    )
}

fn check_sweep(report: &mut Report, setup: &Setup, s: &Sweep, i: usize) {
    report.check(
        virtual_fields(&s.outcome) == virtual_fields(&setup.reference),
        || {
            format!(
                "sweep {i}: virtual outcome {:?} differs from the reference {:?}",
                virtual_fields(&s.outcome),
                virtual_fields(&setup.reference)
            )
        },
    );
    report.check(
        s.outcome.patch_hits + s.outcome.failures == WORKERS as u64,
        || format!("sweep {i}: hits + failures != workers"),
    );
    report.check(s.writes > 0, || {
        format!("sweep {i}: the publisher wrote nothing beside the reads")
    });
}

/// The fleet phase: its set-up, and the sweeps run so far.
pub struct FleetPhase {
    seed: u64,
    setup: Setup,
    next_site: u64,
    sweeps: Vec<Sweep>,
    latency: Latencies,
    /// Each sweep's timed block: queries, and write latencies.
    blocks: Vec<Block>,
}

impl FleetPhase {
    /// Runs the first diagnosis phase and the reference sweeps. Returns
    /// the phase and the diagnosis phase's wall seconds.
    pub fn new(report: &mut Report, seed: u64) -> (FleetPhase, f64) {
        let (setup, phase_s) = setup(report, seed);
        let phase = FleetPhase {
            seed,
            setup,
            next_site: 0,
            sweeps: Vec::new(),
            latency: Latencies::new(),
            blocks: Vec::new(),
        };
        (phase, phase_s)
    }

    /// Runs one more diagnosis phase, checked against the first, and
    /// returns its wall seconds.
    pub fn rediagnose(&self, report: &mut Report) -> f64 {
        rediagnose(report, self.seed, &self.setup)
    }

    /// Runs and checks one sweep beside the publisher, after one run of
    /// the host's reference loop.
    pub fn sweep(&mut self, report: &mut Report) {
        let mut reference = Reference::new();
        reference.measure();
        let setup = &self.setup;
        let s = sweep(
            setup.config,
            &setup.plans,
            &mut self.next_site,
            &mut self.latency,
        );
        check_sweep(report, setup, &s, self.sweeps.len());
        report.attempted += s.outcome.inputs + s.writes;
        report.failed += s.refused;
        self.blocks.push(Block {
            unit: 0,
            inputs: s.outcome.inputs,
            seconds: s.outcome.elapsed_ns as f64 / 1e9,
            pcts_ns: self.latency.end_block(),
            host: reference.end_block(),
        });
        self.sweeps.push(s);
    }

    /// Adds the phase's `fleet_*` detail figures: plane queries per
    /// second and the publisher's write latency, by the rule of
    /// [`Report::figures`].
    pub fn finish(self, report: &mut Report) {
        let blocks = &self.blocks;
        let f = report.figures("fleet", blocks);
        if let Some(r) = f.inputs_per_s {
            report.detail("fleet_queries_per_s", "1/s", r, f.blocks);
        }
        let writes = self.sweeps.iter().map(|s| s.writes).sum::<u64>();
        for (name, v) in [
            ("fleet_write_p50_us", f.pcts_ns[0]),
            ("fleet_write_p90_us", f.pcts_ns[1]),
        ] {
            if let Some(ns) = v {
                report.detail(name, "us", ns / 1e3, writes);
            }
        }
        report.detail(
            "immunity_virt_ms",
            "ms",
            self.setup.reference.immunity_ns as f64 / 1e6,
            1,
        );
        let sweep_s: f64 = blocks.iter().map(|b| b.seconds).sum();
        report.detail(
            "fleet_write_rate_per_s",
            "1/s",
            stats::rate(writes, sweep_s).expect("sweeps were timed"),
            writes,
        );
        report.raw(
            "fleet_block_queries_per_s",
            blocks
                .iter()
                .map(|b| stats::rate(b.inputs, b.seconds).unwrap_or(0.0))
                .collect(),
        );
        report.raw(
            "fleet_writes_per_sweep",
            self.sweeps.iter().map(|s| s.writes as f64).collect(),
        );
    }
}

/// The fleet phase's traced figures: [`TRACE_SWEEPS`] sweeps give the
/// plane's per-query cost, and the reference sweep the gossip figures.
/// Sets the `pool.get_*` and `fleet.*` layer metrics of `report`. The
/// phase has no spans inside the crates to add, so it has no tracing
/// overhead to report.
pub fn trace_layers(report: &mut Report, seed: u64) {
    let (setup, _) = setup(report, seed);
    let mut next_site = 0u64;
    let (mut queries, mut query_ns) = (0u64, 0.0f64);
    for i in 0..TRACE_SWEEPS {
        let s = sweep(
            setup.config,
            &setup.plans,
            &mut next_site,
            &mut Latencies::new(),
        );
        check_sweep(report, &setup, &s, i);
        queries += s.outcome.inputs;
        query_ns += s.outcome.elapsed_ns as f64;
        report.attempted += s.outcome.inputs + s.writes;
        report.failed += s.refused;
    }
    let readers = setup.config.threads as f64;
    report.layer("pool.get_ns", query_ns * readers / queries as f64);
    report.layer("pool.get_calls", queries as f64);
    report.layer("fleet.gossip_rounds", setup.reference.gossip_rounds as f64);
    report.layer("fleet.patch_hits", setup.reference.patch_hits as f64);
    report.layer("fleet.failures", setup.reference.failures as f64);
}
