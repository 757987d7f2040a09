//! The two ways the benchmark serves inputs.
//!
//! * **Untraced:** [`FirstAidRuntime`] itself — what every end-to-end
//!   metric is measured on.
//! * **Traced:** [`Pipeline`], the same supervision loop composed from
//!   the crates' public parts ([`Process`], [`ExtAllocator`],
//!   [`CheckpointManager`], [`DiagnosisEngine`], [`ValidationEngine`],
//!   [`PatchPool`]) so that spans can sit around each call.
//!   `FirstAidRuntime` downcasts its allocator and keeps its checkpoint
//!   manager and engines private, so no timing wrapper fits under it.
//!
//! The pipeline mirrors `FirstAidRuntime::feed` and its recovery path
//! (health monitor, crash-loop guard, sentry fast path, patched replay,
//! validation, degradation ladder) step for step. Both implement
//! [`Served`], and the workloads assert that a traced pass ends in the
//! same state as an untraced one: served and failed counts, the
//! recovery kinds with their diagnosed bug types and patch sites, and
//! the process's virtual clock.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fa_allocext::{BugType, ExtAllocator, Patch, PatchSet, SentryMetrics, GENERIC_SITE};
use fa_checkpoint::CheckpointManager;
use fa_heap::Heap;
use fa_mem::{AccessKind, Addr, SimMemory};
use fa_proc::{
    AllocBackend, App, BoxedApp, CallSite, Clock, FailureRecord, Fault, Input, Process, ProcessCtx,
    Response, StepResult,
};
use fa_wal::{CheckpointOp, LadderOp, WalOp};
use first_aid_core::{
    trap_bug_type, trap_seed_site, BugReport, DiagnosisEngine, DiagnosisOutcome, FirstAidConfig,
    FirstAidRuntime, PatchPool, RecoveryKind, TrapRecord, ValidationEngine,
};

use fa_perfbench::trace::{OpenSpan, Tracer};

/// What one `feed` did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fed {
    /// The input was ultimately served.
    pub served: bool,
    /// Its first execution failed.
    pub failed: bool,
    /// A recovery ran inside the call.
    pub recovered: bool,
}

/// The outcome-defining part of one recovery, comparable across the
/// traced and untraced passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecSummary {
    /// How the recovery concluded.
    pub kind: RecoveryKind,
    /// Diagnosed bug types, in diagnosis order.
    pub bugs: Vec<BugType>,
    /// Call-sites of the patches the recovery installed.
    pub sites: Vec<CallSite>,
    /// Virtual time of the recovery, when the runtime reports one.
    pub recovery_ns: Option<u64>,
    /// Validation verdict and virtual time, when validation ran.
    pub validation: Option<(bool, u64)>,
}

/// Something that serves inputs under First-Aid supervision.
pub trait Served {
    /// Feeds one input, recovering on failure.
    fn feed(&mut self, input: Input) -> Fed;
    /// The supervised process.
    fn process(&self) -> &Process;
    /// Recoveries so far.
    fn recoveries(&self) -> Vec<RecSummary>;
    /// Checkpoints taken so far.
    fn checkpoints_taken(&self) -> u64;
    /// The patch pool it publishes to.
    fn pool(&self) -> &PatchPool;
}

impl Served for FirstAidRuntime {
    fn feed(&mut self, input: Input) -> Fed {
        let out = FirstAidRuntime::feed(self, input);
        Fed {
            served: out.served,
            failed: out.failed,
            recovered: out.recovery.is_some(),
        }
    }

    fn process(&self) -> &Process {
        FirstAidRuntime::process(self)
    }

    fn recoveries(&self) -> Vec<RecSummary> {
        self.recoveries
            .iter()
            .map(|r| RecSummary {
                kind: r.kind.clone(),
                bugs: r
                    .diagnosis
                    .as_ref()
                    .map(|d| d.bugs.iter().map(|b| b.bug).collect())
                    .unwrap_or_default(),
                sites: r.patches.iter().map(|p| p.site).collect(),
                recovery_ns: Some(r.recovery_ns),
                validation: r
                    .validation
                    .as_ref()
                    .map(|v| (v.consistent, v.validation_ns)),
            })
            .collect()
    }

    fn checkpoints_taken(&self) -> u64 {
        self.checkpoint_stats().taken
    }

    fn pool(&self) -> &PatchPool {
        FirstAidRuntime::pool(self)
    }
}

/// Call count and wall time of one hot allocator entry point. Relaxed
/// atomics: these are statistics and publish nothing else.
#[derive(Default)]
pub struct HotTimer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl HotTimer {
    fn record(&self, started: Instant) {
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total wall ns recorded.
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Wall-time counters of the allocator extension's entry points. Too
/// hot for one span per call, so they are counted where they happen.
#[derive(Default)]
pub struct AllocTimers {
    /// `malloc` through the extension (heap included).
    pub malloc: HotTimer,
    /// `free` through the extension (heap included).
    pub free: HotTimer,
    /// `realloc` through the extension (heap included).
    pub realloc: HotTimer,
}

/// Times every allocation call of the extension it wraps.
///
/// `as_any` forwards to the wrapped backend, so the engines'
/// downcasts to [`ExtAllocator`] still find it; clones (checkpoints,
/// trial forks) stay wrapped and share the counters.
struct TimedAlloc {
    inner: Box<dyn AllocBackend>,
    timers: Arc<AllocTimers>,
}

impl AllocBackend for TimedAlloc {
    fn malloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        let t = Instant::now();
        let r = self.inner.malloc(mem, clock, req, site);
        self.timers.malloc.record(t);
        r
    }

    fn free(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        site: CallSite,
    ) -> Result<(), Fault> {
        let t = Instant::now();
        let r = self.inner.free(mem, clock, addr, site);
        self.timers.free.record(t);
        r
    }

    fn realloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        let t = Instant::now();
        let r = self.inner.realloc(mem, clock, addr, req, site);
        self.timers.realloc.record(t);
        r
    }

    fn usable_size(&self, mem: &mut SimMemory, addr: Addr) -> Result<u64, Fault> {
        self.inner.usable_size(mem, addr)
    }

    fn observe_access(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) -> Result<(), Fault> {
        self.inner.observe_access(clock, addr, len, kind, site)
    }

    fn on_guard_trap(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) {
        self.inner.on_guard_trap(clock, addr, len, kind, site)
    }

    fn heap(&self) -> &Heap {
        self.inner.heap()
    }

    fn heap_mut(&mut self) -> &mut Heap {
        self.inner.heap_mut()
    }

    fn clone_box(&self) -> Box<dyn AllocBackend> {
        Box::new(TimedAlloc {
            inner: self.inner.clone_box(),
            timers: Arc::clone(&self.timers),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A tracer shared by the pipeline and the wrapped application. Only
/// the serving thread records; the mutex exists because `App: Send`.
pub type SharedTracer = Arc<Mutex<Tracer>>;

fn lock(tracer: &SharedTracer) -> MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .expect("the tracer is only used from the serving thread")
}

/// Records a `proc.handle` span around every `App::handle` call,
/// including re-executions inside diagnosis and validation.
struct TracedApp {
    inner: BoxedApp,
    tracer: SharedTracer,
}

impl App for TracedApp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut ProcessCtx) -> Result<(), Fault> {
        self.inner.init(ctx)
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        let span = lock(&self.tracer).begin("proc.handle");
        let r = self.inner.handle(ctx, input);
        lock(&self.tracer).end(span);
        r
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(TracedApp {
            inner: self.inner.clone_app(),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

/// Counters the pipeline reads off the engines after each call.
#[derive(Clone, Debug, Default)]
pub struct PipeStats {
    /// Diagnoses run (fast path or full ladder).
    pub diagnoses: u64,
    /// Virtual ns those diagnoses charged.
    pub diagnose_virt_ns: u64,
    /// Rollback/re-execution iterations they performed.
    pub rollbacks: u64,
    /// Speculative trials launched.
    pub spec_trials: u64,
    /// Speculative results consumed.
    pub spec_hits: u64,
    /// Trial contexts recycled from the slab.
    pub slab_reuses: u64,
    /// Trials that degraded to failed runs.
    pub trial_errors: u64,
    /// Validations that produced a verdict.
    pub validations: u64,
    /// Virtual ns of those validations.
    pub validate_virt_ns: u64,
    /// Randomized validation iterations run.
    pub validate_iterations: u64,
    /// Largest delay-free quarantine seen after any input, bytes.
    pub quarantine_peak: u64,
    /// First executions that failed.
    pub failures: u64,
    /// Of those, failures a sentry trap caught.
    pub trap_failures: u64,
    /// Runtime-side sentry counters (fast path, full ladder, false
    /// traps, re-homed trap counts).
    pub sentry: SentryMetrics,
}

#[derive(Default)]
struct SigState {
    count: u32,
    sites: Vec<CallSite>,
}

/// The traced First-Aid pipeline (see the module docs).
pub struct Pipeline {
    process: Process,
    manager: CheckpointManager,
    pool: PatchPool,
    config: FirstAidConfig,
    program: String,
    monitor: HashMap<String, SigState>,
    last_failure_index: Option<usize>,
    tracer: SharedTracer,
    recs: Vec<RecSummary>,
    /// Engine and validation counters accumulated so far.
    pub stats: PipeStats,
}

impl Pipeline {
    /// Launches `app` the way `FirstAidRuntime::launch` does, with the
    /// application and allocator wrapped for tracing.
    pub fn launch(
        app: BoxedApp,
        mut config: FirstAidConfig,
        pool: PatchPool,
        tracer: SharedTracer,
        timers: Arc<AllocTimers>,
    ) -> Result<Pipeline, Fault> {
        assert!(
            config.sentry.is_none() || pool.journal().is_none(),
            "the traced pipeline does not journal sentry suppressions"
        );
        config.engine.integrity_check = config.integrity_check_every > 0;
        let program = app.name().to_owned();
        let mut ctx = ProcessCtx::new(config.heap_limit);
        let span = lock(&tracer).begin("pool.get");
        let (patches, _epoch) = pool.get_with_epoch(&program);
        lock(&tracer).end(span);
        let quarantine = config.quarantine_bytes;
        let sentry_cfg = config.sentry.clone();
        ctx.swap_alloc(|old| {
            let mut ext = ExtAllocator::attach(old.heap().clone());
            ext.set_quarantine_threshold(quarantine);
            if let Some(cfg) = sentry_cfg {
                ext.enable_sentry(cfg);
            }
            ext.set_normal(patches);
            Box::new(TimedAlloc {
                inner: Box::new(ext),
                timers,
            })
        });
        let app = Box::new(TracedApp {
            inner: app,
            tracer: Arc::clone(&tracer),
        });
        let mut process = Process::launch(app, ctx)?;
        let mut manager = CheckpointManager::new(config.adaptive, config.max_checkpoints);
        let first = manager.force_checkpoint(&mut process);
        let p = Pipeline {
            process,
            manager,
            pool,
            config,
            program,
            monitor: HashMap::new(),
            last_failure_index: None,
            tracer,
            recs: Vec::new(),
            stats: PipeStats::default(),
        };
        p.journal_checkpoint(first, true);
        Ok(p)
    }

    fn begin(&self, name: &'static str) -> OpenSpan {
        lock(&self.tracer).begin(name)
    }

    fn end(&self, span: OpenSpan) {
        lock(&self.tracer).end(span);
    }

    fn with_ext<R>(&mut self, f: impl FnOnce(&mut ExtAllocator) -> R) -> R {
        self.process
            .ctx
            .with_alloc_and_mem(|alloc, _mem| f(first_aid_core::harness::expect_ext(alloc)))
    }

    /// The extension's sampling-side sentry counters merged with the
    /// pipeline's diagnosis-side ones.
    pub fn sentry_metrics(&mut self) -> SentryMetrics {
        let mut m = self.with_ext(|ext| ext.sentry_metrics().cloned().unwrap_or_default());
        m.merge(&self.stats.sentry);
        m
    }

    /// Objects the live extension delayed and padded so far.
    pub fn ext_counters(&mut self) -> (u64, u64) {
        self.with_ext(|ext| {
            (
                ext.counters().objects_delayed,
                ext.counters().objects_padded,
            )
        })
    }

    fn journal(&self, op: WalOp) {
        if self.pool.journal().is_some() {
            self.pool.journal_append(op);
        }
    }

    fn journal_checkpoint(&self, ckpt: u64, register: bool) {
        let op = CheckpointOp {
            program: self.program.clone(),
            worker: self.pool.scope().unwrap_or(0),
            ckpt,
        };
        self.journal(if register {
            WalOp::CheckpointRegister(op)
        } else {
            WalOp::CheckpointPrune(op)
        });
    }

    fn sync_pool_patches(&self) -> Arc<PatchSet> {
        let span = self.begin("pool.get");
        let (patches, _epoch) = self.pool.get_with_epoch(&self.program);
        self.end(span);
        patches
    }

    fn install_patchset(&mut self, patches: Arc<PatchSet>) {
        let threshold = if patches.has_generic() {
            self.config
                .quarantine_bytes
                .max(self.config.generic_quarantine_bytes)
        } else {
            self.config.quarantine_bytes
        };
        self.with_ext(|ext| {
            ext.set_quarantine_threshold(threshold);
            ext.set_normal(patches);
        });
    }

    fn rollback_to(&mut self, id: u64) -> bool {
        let span = self.begin("checkpoint.rollback");
        let ok = self.manager.rollback_to(&mut self.process, id);
        self.end(span);
        ok
    }

    fn bug_signature(&self, failure: &FailureRecord, trap: Option<&TrapRecord>) -> String {
        let op = self
            .process
            .log()
            .get(failure.input_index)
            .map(|i| i.op)
            .unwrap_or(u32::MAX);
        match trap {
            Some(t) => {
                let bug = trap_bug_type(t);
                let site = trap_seed_site(t, bug).unwrap_or(t.alloc_site);
                format!("{}@op{op}@s{:x}", failure.fault.class(), site.leaf())
            }
            None => format!("{}@op{op}", failure.fault.class()),
        }
    }

    fn note_quarantine(&mut self) {
        let bytes = self.with_ext(|ext| ext.quarantine().bytes());
        self.stats.quarantine_peak = self.stats.quarantine_peak.max(bytes);
    }

    fn push_record(&mut self, rec: RecSummary) {
        if self.manager.is_empty() {
            let id = self.manager.force_checkpoint(&mut self.process);
            self.journal_checkpoint(id, true);
        }
        self.recs.push(rec);
    }

    fn recover(&mut self) {
        let failure = self
            .process
            .failure
            .clone()
            .expect("recover runs only on a pending failure");
        self.stats.failures += 1;
        let trap = if failure.fault.class() == "sentry-trap" {
            self.with_ext(|ext| ext.take_pending_trap())
        } else {
            None
        };
        if let Some(t) = &trap {
            self.stats.trap_failures += 1;
            let kind = t.kind;
            self.with_ext(|ext| {
                if let Some(e) = ext.sentry_mut() {
                    e.metrics_mut().uncount_trap(kind);
                }
            });
            self.stats.sentry.count_trap(kind);
        }
        self.manager.sweep_corrupt();

        let sig = self.bug_signature(&failure, trap.as_ref());
        let recurrence = {
            let entry = self.monitor.entry(sig.clone()).or_default();
            entry.count += 1;
            entry.count
        };
        if recurrence >= self.config.patch_recurrence_limit.max(2) {
            let sites = self
                .monitor
                .get_mut(&sig)
                .map(|e| std::mem::take(&mut e.sites))
                .unwrap_or_default();
            if !sites.is_empty() {
                for site in sites {
                    self.pool.revoke(&self.program, site);
                }
                if let Some(e) = self.monitor.get_mut(&sig) {
                    e.count = 0;
                }
                self.last_failure_index = Some(failure.input_index);
                let rec = self.descend_ladder(&failure, &sig, trap.as_ref());
                return self.push_record(rec);
            }
        }

        let crash_loop = self
            .last_failure_index
            .is_some_and(|prev| failure.input_index.saturating_sub(prev) < 20);
        self.last_failure_index = Some(failure.input_index);
        if crash_loop {
            let rec = self.descend_cheap(&sig);
            return self.push_record(rec);
        }

        let engine = DiagnosisEngine::with_faults(self.config.engine, self.config.faults.clone());
        let span = self.begin("diagnose");
        let fast = trap
            .as_ref()
            .and_then(|t| engine.diagnose_fast(&mut self.process, &self.manager, t));
        let outcome = match fast {
            Some(d) => {
                self.stats.sentry.fast_path_diagnoses += 1;
                DiagnosisOutcome::Diagnosed(d)
            }
            None => {
                if trap.is_some() {
                    self.stats.sentry.full_ladder_diagnoses += 1;
                }
                engine.diagnose(&mut self.process, &self.manager)
            }
        };
        self.end(span);
        self.stats.diagnoses += 1;
        self.stats.spec_trials += engine.speculative_trials() as u64;
        self.stats.spec_hits += engine.speculative_hits() as u64;
        self.stats.slab_reuses += engine.slab_reuses() as u64;
        self.stats.trial_errors += engine.trial_errors() as u64;

        let rec = match outcome {
            DiagnosisOutcome::NonDeterministic {
                rollbacks,
                elapsed_ns,
                ..
            } => {
                self.stats.rollbacks += rollbacks as u64;
                self.stats.diagnose_virt_ns += elapsed_ns;
                self.manager.rearm(&self.process);
                RecSummary {
                    kind: RecoveryKind::NonDeterministic,
                    bugs: Vec::new(),
                    sites: Vec::new(),
                    recovery_ns: None,
                    validation: None,
                }
            }
            DiagnosisOutcome::NonPatchable {
                rollbacks,
                elapsed_ns,
                ..
            } => {
                self.stats.rollbacks += rollbacks as u64;
                self.stats.diagnose_virt_ns += elapsed_ns;
                self.descend_ladder(&failure, &sig, trap.as_ref())
            }
            DiagnosisOutcome::Diagnosed(diagnosis) => {
                self.stats.rollbacks += diagnosis.rollbacks as u64;
                self.stats.diagnose_virt_ns += diagnosis.elapsed_ns;
                let patches = diagnosis.patches(&self.process.ctx.symbols);
                if !patches.is_empty()
                    && patches
                        .iter()
                        .all(|p| self.pool.is_revoked(&self.program, p.site))
                {
                    let rec = self.descend_ladder(&failure, &sig, trap.as_ref());
                    return self.push_record(rec);
                }
                let span = self.begin("pool.add");
                self.pool.add(&self.program, patches.iter().cloned());
                self.end(span);
                if let Some(e) = self.monitor.get_mut(&sig) {
                    e.sites = patches.iter().map(|p| p.site).collect();
                }
                let patchset = self.sync_pool_patches();

                // Final recovery pass: back to the diagnosis checkpoint
                // with the patches installed, replaying through the
                // failing input.
                self.rollback_to(diagnosis.checkpoint_id);
                self.install_patchset(Arc::clone(&patchset));
                while self.process.cursor() <= failure.input_index {
                    match self.process.step() {
                        Some(r) if r.is_ok() => {}
                        _ => break,
                    }
                }
                if self.process.failure.is_some() {
                    self.process.clear_failure();
                    self.process.skip_current();
                }

                let mut validation = None;
                if self.config.validation_iterations > 0 {
                    let snap = self
                        .manager
                        .get(diagnosis.checkpoint_id)
                        .map(|c| c.snap.clone());
                    if let Some(snap) = snap {
                        let span = self.begin("validate");
                        let verdict = ValidationEngine::new(self.config.validation_iterations)
                            .try_validate(
                                &self.config.faults,
                                &self.process,
                                &snap,
                                &patchset,
                                diagnosis.until_cursor,
                            );
                        self.end(span);
                        if let Some(v) = verdict {
                            self.stats.validations += 1;
                            self.stats.validate_virt_ns += v.validation_ns;
                            self.stats.validate_iterations += v.iterations as u64;
                            if !v.consistent {
                                for p in &patches {
                                    self.pool.remove_site(&self.program, p.site);
                                }
                                let reduced = self.sync_pool_patches();
                                self.install_patchset(reduced);
                                if let Some(e) = self.monitor.get_mut(&sig) {
                                    e.sites.clear();
                                }
                            }
                            // The runtime assembles the bug report inside
                            // the recovery; so does the pipeline, so the
                            // two spend the same work.
                            let report = BugReport::build(
                                &self.program,
                                &failure,
                                &diagnosis,
                                &patches,
                                &v,
                                &self.process.ctx.symbols,
                                trap.as_ref(),
                            );
                            std::hint::black_box(report);
                            validation = Some((v.consistent, v.validation_ns));
                        }
                    }
                }

                for ckpt in self.manager.truncate_after(diagnosis.checkpoint_id) {
                    self.journal_checkpoint(ckpt, false);
                }
                self.manager.rearm(&self.process);
                RecSummary {
                    kind: RecoveryKind::Patched,
                    bugs: diagnosis.bugs.iter().map(|b| b.bug).collect(),
                    sites: patches.iter().map(|p| p.site).collect(),
                    recovery_ns: None,
                    validation,
                }
            }
        };
        if trap.is_some() && rec.kind != RecoveryKind::Patched {
            self.stats.sentry.false_traps += 1;
        }
        self.push_record(rec);
    }

    fn arm_generic_rung(&mut self) -> Vec<Patch> {
        if self.pool.is_revoked(&self.program, GENERIC_SITE) {
            return Vec::new();
        }
        let generics = vec![
            Patch::generic(BugType::BufferOverflow),
            Patch::generic(BugType::DanglingRead),
        ];
        let span = self.begin("pool.add");
        let added = self.pool.add(&self.program, generics.iter().cloned());
        self.end(span);
        if added > 0 {
            generics
        } else {
            Vec::new()
        }
    }

    fn journal_descent(&self, rung: &str, sig: &str) {
        self.journal(WalOp::LadderDescend(LadderOp {
            program: self.program.clone(),
            rung: rung.to_owned(),
            signature: sig.to_owned(),
        }));
    }

    fn descend_ladder(
        &mut self,
        failure: &FailureRecord,
        sig: &str,
        trap: Option<&TrapRecord>,
    ) -> RecSummary {
        let fresh = self.arm_generic_rung();
        let patchset = self.sync_pool_patches();
        let generic_active = patchset.has_generic();
        let Some(target) = self.manager.oldest().map(|c| c.id) else {
            return self.descend_cheap(sig);
        };
        self.rollback_to(target);
        self.install_patchset(patchset);
        while self.process.cursor() < failure.input_index {
            match self.process.step() {
                Some(r) if r.is_ok() => {}
                _ => break,
            }
        }
        let mut served_through = false;
        if self.process.failure.is_some() {
            self.process.clear_failure();
            self.process.skip_current();
        } else if self.process.cursor() == failure.input_index {
            if generic_active {
                match self.process.step() {
                    Some(r) if r.is_ok() => served_through = true,
                    _ => {
                        if self.process.failure.is_some() {
                            self.process.clear_failure();
                        }
                        self.process.skip_current();
                    }
                }
            } else {
                self.process.skip_current();
            }
        }
        for ckpt in self.manager.truncate_after(target) {
            self.journal_checkpoint(ckpt, false);
        }
        self.manager.rearm(&self.process);
        if generic_active {
            self.monitor.entry(sig.to_owned()).or_default().sites = vec![GENERIC_SITE];
        }
        let (kind, rung) = if served_through {
            (
                RecoveryKind::GenericPatched,
                "generic best-effort patch (rung 2)",
            )
        } else {
            (RecoveryKind::Dropped, "rollback-and-drop (rung 3)")
        };
        self.journal_descent(if generic_active { "generic" } else { "dropped" }, sig);
        let report = BugReport::degraded(&self.program, failure, rung, &fresh, Vec::new(), trap);
        std::hint::black_box(report);
        RecSummary {
            kind,
            bugs: Vec::new(),
            sites: fresh.iter().map(|p| p.site).collect(),
            recovery_ns: None,
            validation: None,
        }
    }

    fn descend_cheap(&mut self, sig: &str) -> RecSummary {
        let fresh = self.arm_generic_rung();
        if !fresh.is_empty() {
            let patchset = self.sync_pool_patches();
            self.install_patchset(patchset);
            self.monitor.entry(sig.to_owned()).or_default().sites = vec![GENERIC_SITE];
        }
        self.journal_descent(
            if fresh.is_empty() {
                "dropped"
            } else {
                "generic"
            },
            sig,
        );
        self.process.clear_failure();
        self.process.skip_current();
        self.manager.rearm(&self.process);
        RecSummary {
            kind: RecoveryKind::Dropped,
            bugs: Vec::new(),
            sites: fresh.iter().map(|p| p.site).collect(),
            recovery_ns: None,
            validation: None,
        }
    }

    /// Checkpoint statistics of the pipeline's manager.
    pub fn checkpoint_stats(&self) -> fa_checkpoint::CheckpointStats {
        self.manager.stats()
    }
}

impl Served for Pipeline {
    fn feed(&mut self, input: Input) -> Fed {
        let feed = self.begin("runtime.feed");
        let fed = match self.process.feed(input) {
            StepResult::Ok(_) => {
                let span = self.begin("checkpoint.take");
                match self.manager.maybe_checkpoint(&mut self.process) {
                    Some(id) => {
                        self.end(span);
                        self.journal_checkpoint(id, true);
                    }
                    None => lock(&self.tracer).discard(span),
                }
                Fed {
                    served: true,
                    failed: false,
                    recovered: false,
                }
            }
            StepResult::Failed(_) => {
                let skipped_before = self.process.skipped_count();
                self.recover();
                Fed {
                    served: self.process.skipped_count() == skipped_before,
                    failed: true,
                    recovered: true,
                }
            }
        };
        self.note_quarantine();
        self.end(feed);
        fed
    }

    fn process(&self) -> &Process {
        &self.process
    }

    fn recoveries(&self) -> Vec<RecSummary> {
        self.recs.clone()
    }

    fn checkpoints_taken(&self) -> u64 {
        self.manager.stats().taken
    }

    fn pool(&self) -> &PatchPool {
        &self.pool
    }
}
