//! The re-execution harness: rollback + environmental changes + replay.
//!
//! Every diagnosis iteration is one call to [`ReplayHarness::reexecute`]:
//! roll the process back to a checkpoint, configure the allocator
//! extension with a [`ChangePlan`] (optionally heap-marking the rolled-back
//! heap first), replay the input log through the failure region, scan for
//! manifestations, and report what happened.

use fa_allocext::{ChangePlan, ExtAllocator, Manifestation};
use fa_checkpoint::CheckpointManager;
use fa_proc::{CallSite, FailureRecord, Process};

use crate::error::{FaError, FaResult};

/// The fixed virtual-time cost of reinstating saved task state on any
/// rollback or snapshot restore (mirrors
/// [`CheckpointManager::rollback_to`]'s charge).
pub const ROLLBACK_COST_NS: u64 = 80_000;

/// Options for one re-execution iteration.
#[derive(Clone, Debug)]
pub struct ReexecOptions {
    /// Apply heap marking after rollback (phase 1, Fig. 3 defence).
    pub mark_heap: bool,
    /// Timing seed for this re-execution; varying it is the "timing-based
    /// change" that shakes out nondeterministic bugs.
    pub timing_seed: u64,
    /// Replay until the cursor reaches this index (exclusive); the success
    /// criterion requires passing the original failure point plus a margin
    /// of roughly 3 checkpoint intervals (paper §4.1).
    pub until_cursor: usize,
    /// Run the heap-integrity error monitor after every replayed input,
    /// mirroring a deployment that uses stronger error detectors
    /// (paper §3, "one can deploy more sophisticated error detectors").
    /// Replay must use the same monitors as normal execution, or failures
    /// caught by a monitor would not reproduce during diagnosis.
    pub integrity_check: bool,
}

/// The outcome of one re-execution iteration.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// The re-execution passed the whole region without failing.
    pub passed: bool,
    /// The failure, if one occurred.
    pub failure: Option<FailureRecord>,
    /// Manifestations collected (during the run and by the final scan).
    pub manifests: Vec<Manifestation>,
    /// Distinct allocation call-sites seen, in first-seen order.
    pub alloc_sites: Vec<CallSite>,
    /// Distinct deallocation call-sites seen, in first-seen order.
    pub dealloc_sites: Vec<CallSite>,
    /// Reads of quarantined objects observed (dangling-read evidence).
    pub quarantine_reads: u64,
    /// Reads of uninitialized bytes observed (uninit-read evidence).
    pub uninit_reads: u64,
    /// Objects that received an environmental change this iteration
    /// (paper Table 4, "objects" columns).
    pub changed_objects: u64,
    /// Distinct call-sites at which changes were applied this iteration
    /// (paper Table 4, "call-sites" columns).
    pub changed_sites: usize,
    /// Virtual time this iteration consumed (rollback + replay + scan).
    pub elapsed_ns: u64,
}

impl RunReport {
    /// Returns `true` if any manifestation maps to the given bug type.
    pub fn manifested(&self, bug: fa_allocext::BugType) -> bool {
        self.manifests.iter().any(|m| m.bug_type() == Some(bug))
    }

    /// Returns `true` if any heap-mark corruption was found — the bug
    /// triggered before the checkpoint.
    pub fn mark_corrupt(&self) -> bool {
        self.manifests
            .iter()
            .any(|m| matches!(m, Manifestation::MarkCorrupt { .. }))
    }
}

/// Drives rollback/re-execution iterations over a process.
pub struct ReplayHarness;

impl ReplayHarness {
    /// Re-executes the process from checkpoint `ckpt_id` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the process does not run on an [`ExtAllocator`] (the
    /// First-Aid runtime always installs one) or if the checkpoint id is
    /// not retained. Use [`Self::try_reexecute`] to get an error instead.
    pub fn reexecute(
        process: &mut Process,
        manager: &CheckpointManager,
        ckpt_id: u64,
        plan: ChangePlan,
        opts: &ReexecOptions,
    ) -> RunReport {
        Self::try_reexecute(process, manager, ckpt_id, plan, opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Self::reexecute`]: a missing or corrupt
    /// checkpoint and a foreign allocator come back as [`FaError`]s the
    /// caller can degrade on, not panics.
    pub fn try_reexecute(
        process: &mut Process,
        manager: &CheckpointManager,
        ckpt_id: u64,
        plan: ChangePlan,
        opts: &ReexecOptions,
    ) -> FaResult<RunReport> {
        manager
            .get(ckpt_id)
            .ok_or(FaError::CheckpointMissing(ckpt_id))?;
        // The checkpoint is retained, so `restore_into` can only refuse it
        // for failing its checksum; it digests the snapshot once and
        // restores nothing on a mismatch.
        if !manager.restore_into(process, ckpt_id) {
            return Err(FaError::CheckpointCorrupt(ckpt_id));
        }
        Self::try_replay_after_rollback(process, plan, opts)
    }

    /// Re-executes `process` from a raw snapshot, without going through a
    /// [`CheckpointManager`].
    ///
    /// This is the speculative-trial entry point: the parallel diagnosis
    /// scheduler hands each worker thread a pooled (or forked) process
    /// plus a clone of the checkpoint's snapshot and replays there,
    /// leaving the main process (and the manager's ring) untouched. The
    /// rollback side effects mirror [`CheckpointManager::rollback_to`]
    /// exactly — same restore, same fixed rollback cost, same dirty-page
    /// reset — so a trial produces a byte-identical [`RunReport`] whether
    /// it runs here or through [`Self::reexecute`].
    ///
    /// # Panics
    ///
    /// Panics if the process does not run on an [`ExtAllocator`]. Use
    /// [`Self::try_reexecute_on`] to get an error instead.
    pub fn reexecute_on(
        process: &mut Process,
        snap: &fa_proc::ProcSnapshot,
        plan: ChangePlan,
        opts: &ReexecOptions,
    ) -> RunReport {
        Self::try_reexecute_on(process, snap, plan, opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Self::reexecute_on`].
    pub fn try_reexecute_on(
        process: &mut Process,
        snap: &fa_proc::ProcSnapshot,
        plan: ChangePlan,
        opts: &ReexecOptions,
    ) -> FaResult<RunReport> {
        process.restore(snap);
        process.ctx.clock.advance(ROLLBACK_COST_NS);
        process.ctx.mem.take_dirty_pages();
        Self::try_replay_after_rollback(process, plan, opts)
    }

    /// The shared replay body: assumes the process is already rolled back.
    fn try_replay_after_rollback(
        process: &mut Process,
        plan: ChangePlan,
        opts: &ReexecOptions,
    ) -> FaResult<RunReport> {
        let mark = opts.mark_heap;
        let start_ns = process.ctx.clock.now();
        process.ctx.timing_seed = opts.timing_seed;
        process.set_pacing(false);
        let marking_ok = process.ctx.with_alloc_and_mem(|alloc, mem| {
            let ext = try_ext(alloc)?;
            ext.set_diagnostic(plan);
            if mark {
                // A corrupt heap walk means the checkpoint already
                // contains the bug's damage: report it like mark
                // corruption so phase 1 rejects this checkpoint and
                // searches further back.
                Ok(ext.mark_heap(mem).is_ok())
            } else {
                Ok(true)
            }
        });
        let marking_ok = match marking_ok {
            Ok(ok) => ok,
            Err(e) => {
                process.set_pacing(true);
                return Err(e);
            }
        };
        if !marking_ok {
            process.set_pacing(true);
            return Ok(RunReport {
                passed: false,
                failure: None,
                manifests: vec![Manifestation::MarkCorrupt {
                    addr: fa_mem::Addr(0),
                }],
                alloc_sites: Vec::new(),
                dealloc_sites: Vec::new(),
                quarantine_reads: 0,
                uninit_reads: 0,
                changed_objects: 0,
                changed_sites: 0,
                elapsed_ns: process.ctx.clock.now().saturating_sub(start_ns) + ROLLBACK_COST_NS,
            });
        }

        while process.cursor() < opts.until_cursor {
            match process.step() {
                Some(r) if r.is_ok() => {}
                _ => break,
            }
            if opts.integrity_check {
                let verdict = process
                    .ctx
                    .with_alloc_and_mem(|alloc, mem| alloc.heap().check_integrity(mem));
                if let Err(e) = verdict {
                    process.raise_failure(fa_proc::Fault::Heap(e));
                    break;
                }
            }
        }

        let failure = process.failure.clone();
        let reached = process.cursor();
        let report = process.ctx.with_alloc_and_mem(|alloc, mem| {
            let ext = try_ext(alloc)?;
            // Final scan: harvest canary evidence that accumulated without
            // being checked mid-run.
            let _ = ext.scan(mem);
            ext.clear_marks();
            Ok(RunReport {
                passed: failure.is_none() && reached >= opts.until_cursor,
                failure: failure.clone(),
                manifests: ext.manifestations().to_vec(),
                alloc_sites: ext.alloc_sites_seen().to_vec(),
                dealloc_sites: ext.dealloc_sites_seen().to_vec(),
                quarantine_reads: ext.counters().quarantine_reads,
                uninit_reads: ext.counters().uninit_reads,
                changed_objects: ext.counters().changed_objects,
                changed_sites: ext.counters().changed_sites.len(),
                elapsed_ns: 0,
            })
        });
        process.set_pacing(true);
        let report = report?;
        Ok(RunReport {
            elapsed_ns: process.ctx.clock.now().saturating_sub(start_ns) + ROLLBACK_COST_NS,
            ..report
        })
    }

    /// Computes the success-region end cursor: the index of the first
    /// input arriving 3 checkpoint intervals (or `margin_ns`) after the
    /// failing input, clamped to the log length.
    pub fn success_end_cursor(process: &Process, failure_index: usize, margin_ns: u64) -> usize {
        let log = process.log();
        let mut acc = 0u64;
        let mut end = failure_index + 1;
        for (i, input) in log.iter().enumerate().skip(failure_index + 1) {
            acc += input.gap_ns;
            if acc >= margin_ns {
                return i + 1;
            }
            end = i + 1;
        }
        end.min(log.len())
    }
}

/// Downcasts the backend to the extension allocator.
///
/// # Panics
///
/// Panics if the process runs on a different allocator; use
/// [`try_ext`] for a fallible downcast.
pub fn expect_ext(alloc: &mut dyn fa_proc::AllocBackend) -> &mut ExtAllocator {
    try_ext(alloc).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible downcast of the backend to the extension allocator.
pub fn try_ext(alloc: &mut dyn fa_proc::AllocBackend) -> FaResult<&mut ExtAllocator> {
    alloc
        .as_any_mut()
        .downcast_mut::<ExtAllocator>()
        .ok_or(FaError::WrongAllocator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_allocext::BugType;
    use fa_checkpoint::AdaptiveConfig;
    use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, ProcessCtx, Response};

    /// Overflows a buffer by `input.b` bytes when op == 1.
    #[derive(Clone, Default)]
    struct OverflowApp;

    impl App for OverflowApp {
        fn name(&self) -> &'static str {
            "overflow-app"
        }

        fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
            ctx.call("serve", |ctx| {
                ctx.call("build_buf", |ctx| {
                    let p = ctx.malloc(64)?;
                    let write_len = 64 + input.b; // bug: off-by-input.b
                    ctx.fill(p, write_len, 0x42)?;
                    ctx.free(p)?;
                    Ok(Response::bytes(64))
                })
            })
        }

        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    fn launch() -> (Process, CheckpointManager) {
        let mut ctx = ProcessCtx::new(1 << 26);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let proc = Process::launch(Box::new(OverflowApp), ctx).unwrap();
        let mgr = CheckpointManager::new(
            AdaptiveConfig {
                base_interval_ns: 1_000_000,
                ..AdaptiveConfig::default()
            },
            16,
        );
        (proc, mgr)
    }

    fn normal(i: u64) -> Input {
        InputBuilder::op(0).a(i).gap_us(50).build()
    }

    fn buggy() -> Input {
        InputBuilder::op(1).b(40).gap_us(50).buggy().build()
    }

    #[test]
    fn preventive_reexecution_survives_overflow() {
        let (mut proc, mut mgr) = launch();
        for i in 0..5 {
            proc.feed(normal(i));
        }
        let ckpt = mgr.force_checkpoint(&mut proc);
        for i in 0..3 {
            proc.feed(normal(i));
        }
        let r = proc.feed(buggy());
        assert!(!r.is_ok(), "overflow must crash without protection");
        let failure_index = proc.failure.as_ref().unwrap().input_index;
        // Queue margin inputs.
        for i in 0..3 {
            proc.enqueue(normal(i));
        }
        let until = ReplayHarness::success_end_cursor(&proc, failure_index, 150_000);
        assert!(until > failure_index);

        // Plain re-execution fails deterministically again.
        let r = ReplayHarness::reexecute(
            &mut proc,
            &mgr,
            ckpt,
            ChangePlan::none(),
            &ReexecOptions {
                mark_heap: false,
                timing_seed: 99,
                until_cursor: until,
                integrity_check: false,
            },
        );
        assert!(!r.passed);
        assert!(r.failure.is_some());

        // All-preventive re-execution passes.
        let r = ReplayHarness::reexecute(
            &mut proc,
            &mgr,
            ckpt,
            ChangePlan::all_preventive(),
            &ReexecOptions {
                mark_heap: true,
                timing_seed: 0,
                until_cursor: until,
                integrity_check: false,
            },
        );
        assert!(
            r.passed,
            "padding must absorb the overflow: {:?}",
            r.failure
        );
        assert!(!r.mark_corrupt());
        assert!(r.elapsed_ns > 0);

        // Exposing probe identifies the overflow and its call-site.
        let r = ReplayHarness::reexecute(
            &mut proc,
            &mgr,
            ckpt,
            ChangePlan::probe(BugType::BufferOverflow, &BugType::ALL),
            &ReexecOptions {
                mark_heap: false,
                timing_seed: 0,
                until_cursor: until,
                integrity_check: false,
            },
        );
        assert!(r.manifested(BugType::BufferOverflow));
        assert!(!r.alloc_sites.is_empty());
    }

    #[test]
    fn reexecute_on_fork_matches_reexecute() {
        let (mut proc, mut mgr) = launch();
        for i in 0..5 {
            proc.feed(normal(i));
        }
        let ckpt = mgr.force_checkpoint(&mut proc);
        for i in 0..3 {
            proc.feed(normal(i));
        }
        proc.feed(buggy());
        let failure_index = proc.failure.as_ref().unwrap().input_index;
        for i in 0..3 {
            proc.enqueue(normal(i));
        }
        let until = ReplayHarness::success_end_cursor(&proc, failure_index, 150_000);
        let opts = ReexecOptions {
            mark_heap: false,
            timing_seed: 7,
            until_cursor: until,
            integrity_check: false,
        };

        // Speculative replay on a fork from the raw snapshot...
        let mut fork = proc.fork();
        let snap = mgr.get(ckpt).unwrap().snap.clone();
        let spec = ReplayHarness::reexecute_on(
            &mut fork,
            &snap,
            ChangePlan::probe(BugType::BufferOverflow, &BugType::ALL),
            &opts,
        );
        // ...must match the managed rollback path byte for byte.
        let main = ReplayHarness::reexecute(
            &mut proc,
            &mgr,
            ckpt,
            ChangePlan::probe(BugType::BufferOverflow, &BugType::ALL),
            &opts,
        );
        assert_eq!(spec.passed, main.passed);
        assert_eq!(spec.manifests.len(), main.manifests.len());
        assert_eq!(spec.alloc_sites, main.alloc_sites);
        assert_eq!(spec.dealloc_sites, main.dealloc_sites);
        assert_eq!(spec.quarantine_reads, main.quarantine_reads);
        assert_eq!(spec.uninit_reads, main.uninit_reads);
        assert_eq!(spec.elapsed_ns, main.elapsed_ns);
        assert!(spec.manifested(BugType::BufferOverflow));
    }

    #[test]
    fn try_reexecute_reports_missing_checkpoint() {
        let (mut proc, mgr) = launch();
        proc.feed(normal(0));
        let err = ReplayHarness::try_reexecute(
            &mut proc,
            &mgr,
            999,
            ChangePlan::none(),
            &ReexecOptions {
                mark_heap: false,
                timing_seed: 0,
                until_cursor: 1,
                integrity_check: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, FaError::CheckpointMissing(999));
    }

    #[test]
    fn try_reexecute_rejects_a_rotted_checkpoint_unrestored() {
        let (mut proc, mut mgr) = launch();
        for i in 0..5 {
            proc.feed(normal(i));
        }
        let ckpt = mgr.force_checkpoint(&mut proc);
        for i in 0..3 {
            proc.feed(normal(i));
        }
        assert!(mgr.corrupt_data(ckpt), "the snapshot holds page data");
        let (cursor, now) = (proc.cursor(), proc.ctx.clock.now());
        let digest = proc.ctx.mem.snapshot().content_digest();
        let err = ReplayHarness::try_reexecute(
            &mut proc,
            &mgr,
            ckpt,
            ChangePlan::none(),
            &ReexecOptions {
                mark_heap: false,
                timing_seed: 0,
                until_cursor: cursor,
                integrity_check: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, FaError::CheckpointCorrupt(ckpt));
        assert_eq!(proc.cursor(), cursor, "the process was rolled back");
        assert_eq!(proc.ctx.clock.now(), now, "a rollback cost was charged");
        assert_eq!(proc.ctx.mem.snapshot().content_digest(), digest);
    }

    #[test]
    fn success_end_cursor_respects_gaps() {
        let (mut proc, _mgr) = launch();
        for i in 0..3 {
            proc.feed(normal(i));
        }
        for _ in 0..10 {
            proc.enqueue(InputBuilder::op(0).gap_us(100).build());
        }
        // Failure at index 2; margin of 350 µs covers inputs 3..=6 (gaps
        // of 100 µs each reach 400 µs at index 6).
        let end = ReplayHarness::success_end_cursor(&proc, 2, 350_000);
        assert_eq!(end, 7);
        // Margin beyond the log clamps.
        let end = ReplayHarness::success_end_cursor(&proc, 2, 10_000_000_000);
        assert_eq!(end, proc.log().len());
    }
}
