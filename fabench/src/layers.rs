//! Per-layer metrics of a traced pass: span totals plus the counters
//! the crates expose through public getters.

use std::collections::BTreeMap;
use std::io::Write;

use fa_perfbench::stats;
use fa_perfbench::trace::{self, Span, SpanTotals, Tracer};

use crate::common::Report;
use fa_allocext::SentryMetrics;

use crate::pipeline::{AllocTimers, HotTimer, PipeStats, Pipeline, Served};

/// Accumulates the per-layer figures of one traced pass: pipelines are
/// folded in as they finish, spans and allocator timers at the end.
#[derive(Default)]
pub struct LayerAcc {
    values: BTreeMap<&'static str, f64>,
    tlb_hits: u64,
    tlb_misses: u64,
    quarantine_peak: u64,
    st: PipeStats,
    sentry: SentryMetrics,
}

fn mean_or_zero(ns: Option<f64>, scale: f64) -> f64 {
    ns.map_or(0.0, |v| v / scale)
}

fn per_call(timer: &HotTimer) -> f64 {
    stats::rate(timer.total_ns(), timer.calls() as f64).unwrap_or(0.0)
}

impl LayerAcc {
    fn sum(&mut self, name: &'static str, x: f64) {
        *self.values.entry(name).or_insert(0.0) += x;
    }

    /// Folds in a finished pipeline's end-state counters.
    pub fn add(&mut self, pipe: &mut Pipeline) {
        let (delayed, padded) = pipe.ext_counters();
        self.sum("allocext.objects_delayed", delayed as f64);
        self.sum("allocext.objects_padded", padded as f64);
        let process = pipe.process();
        let heap = process.ctx.alloc().heap().stats();
        let tlb = process.ctx.mem.tlb_stats();
        let resident = process.ctx.mem.resident_pages();
        self.sum("heap.allocs", heap.allocs as f64);
        self.sum("heap.frees", heap.frees as f64);
        self.sum("heap.heap_bytes", heap.heap_bytes as f64);
        self.sum("heap.in_use_chunks", heap.in_use_chunks as f64);
        self.tlb_hits += tlb.hits;
        self.tlb_misses += tlb.misses;
        self.sum("mem.resident_pages", resident as f64);
        let ck = pipe.checkpoint_stats();
        self.sum("checkpoint.taken", ck.taken as f64);
        self.sum("checkpoint.dirty_pages", ck.total_dirty_pages as f64);
        self.sum("checkpoint.virt_cost_ns", ck.total_cost_ns as f64);
        if let Some(wal) = pipe.pool().journal() {
            self.sum("wal.appends", wal.appends() as f64);
        }
        self.quarantine_peak = self.quarantine_peak.max(pipe.stats.quarantine_peak);
        let s = &pipe.stats;
        let st = &mut self.st;
        st.diagnoses += s.diagnoses;
        st.diagnose_virt_ns += s.diagnose_virt_ns;
        st.rollbacks += s.rollbacks;
        st.spec_trials += s.spec_trials;
        st.spec_hits += s.spec_hits;
        st.slab_reuses += s.slab_reuses;
        st.trial_errors += s.trial_errors;
        st.validations += s.validations;
        st.validate_virt_ns += s.validate_virt_ns;
        st.validate_iterations += s.validate_iterations;
        st.failures += s.failures;
        st.trap_failures += s.trap_failures;
        let sentry = pipe.sentry_metrics();
        self.sentry.merge(&sentry);
    }

    /// Adds the pass's spans and allocator timers and writes every
    /// per-layer figure of the pass into `report`.
    pub fn finish(self, spans: &[Span], timers: &AllocTimers, report: &mut Report) {
        let totals = trace::totals(spans);
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let feed: SpanTotals = get("runtime.feed");
        let handle = get("proc.handle");
        let diagnose = get("diagnose");
        let validate = get("validate");
        let pool_get = get("pool.get");
        let (st, sentry) = (&self.st, &self.sentry);
        let mut v = self.values.clone();

        v.insert(
            "runtime.feed_self_us",
            mean_or_zero(feed.mean_self_ns(), 1e3),
        );
        v.insert("proc.handle_us", mean_or_zero(handle.mean_ns(), 1e3));
        v.insert("proc.handle_calls", handle.count as f64);

        v.insert("allocext.malloc_ns", per_call(&timers.malloc));
        v.insert("allocext.free_ns", per_call(&timers.free));
        v.insert(
            "allocext.calls",
            (timers.malloc.calls() + timers.free.calls() + timers.realloc.calls()) as f64,
        );
        v.insert(
            "allocext.quarantine_bytes_peak",
            self.quarantine_peak as f64,
        );

        v.insert("mem.tlb_hits", self.tlb_hits as f64);
        v.insert("mem.tlb_misses", self.tlb_misses as f64);
        v.insert(
            "mem.tlb_hit_rate",
            stats::frac(self.tlb_hits, self.tlb_hits + self.tlb_misses).unwrap_or(0.0),
        );

        v.insert(
            "checkpoint.take_us",
            mean_or_zero(get("checkpoint.take").mean_ns(), 1e3),
        );
        v.insert(
            "checkpoint.rollback_us",
            mean_or_zero(get("checkpoint.rollback").mean_ns(), 1e3),
        );

        v.insert("diagnose.wall_ms", mean_or_zero(diagnose.mean_ns(), 1e6));
        v.insert(
            "diagnose.self_ms",
            mean_or_zero(diagnose.mean_self_ns(), 1e6),
        );
        v.insert(
            "diagnose.virt_ms",
            stats::rate(st.diagnose_virt_ns, st.diagnoses as f64).unwrap_or(0.0) / 1e6,
        );
        v.insert("diagnose.rollbacks", st.rollbacks as f64);
        v.insert("diagnose.spec_trials", st.spec_trials as f64);
        v.insert("diagnose.spec_hits", st.spec_hits as f64);
        v.insert(
            "diagnose.spec_hit_ratio",
            stats::frac(st.spec_hits, st.spec_trials).unwrap_or(0.0),
        );
        v.insert("exec.slab_reuses", st.slab_reuses as f64);
        v.insert("exec.trial_errors", st.trial_errors as f64);

        v.insert("validate.wall_ms", mean_or_zero(validate.mean_ns(), 1e6));
        v.insert(
            "validate.virt_ms",
            stats::rate(st.validate_virt_ns, st.validations as f64).unwrap_or(0.0) / 1e6,
        );
        v.insert("validate.iterations", st.validate_iterations as f64);

        v.insert("pool.get_ns", pool_get.mean_ns().unwrap_or(0.0));
        v.insert("pool.get_calls", pool_get.count as f64);
        v.insert("pool.add_us", mean_or_zero(get("pool.add").mean_ns(), 1e3));

        v.insert("sentry.samples", sentry.samples as f64);
        v.insert("sentry.skipped", sentry.skipped as f64);
        v.insert("sentry.traps", sentry.traps as f64);
        v.insert(
            "sentry.fast_path_diagnoses",
            sentry.fast_path_diagnoses as f64,
        );
        v.insert(
            "sentry.full_ladder_diagnoses",
            sentry.full_ladder_diagnoses as f64,
        );
        v.insert("sentry.false_traps", sentry.false_traps as f64);
        v.insert(
            "sentry.trap_catch_frac",
            stats::frac(st.trap_failures, st.failures).unwrap_or(0.0),
        );
        v.insert("sentry.overhead_virt_ns", sentry.overhead_ns as f64);
        for (name, value) in v {
            report.layer(name, value);
        }
    }
}

/// Spans written to the spans file; a traced `recovery` pass records
/// millions, and the first ones show every kind.
const MAX_WRITTEN_SPANS: usize = 300_000;

/// Writes the first [`MAX_WRITTEN_SPANS`] spans of a traced pass to
/// `.bench_out/<workload>-seed<seed>.spans.tsv`. Best effort: the spans
/// are a debugging aid, not a result.
pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.tsv"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_tsv(&mut w, MAX_WRITTEN_SPANS)?;
            w.flush()
        });
    if let Err(e) = written {
        eprintln!("fa-perfbench: could not write {}: {e}", path.display());
    }
}
