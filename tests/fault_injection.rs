//! Fault-tolerance integration tests: deterministic injection through the
//! full-chip flow, per-block isolation with retry/degradation, thread
//! invariance of faulted runs, checkpoint/resume equivalence, and
//! per-run provenance when runs overlap in one process.
//!
//! Every faulted run carries its plan in its own `RunCtx`, so the tests
//! run in parallel without sharing any fault state.

use foldic::prelude::*;
use foldic::{
    CheckpointStore, DeadlinePolicy, Disposition, FaultPlan, FaultRecord, FlowStage, RetryPolicy,
    RunCtx, RunOutcome,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn run(
    style: DesignStyle,
    threads: usize,
    checkpoint: Option<Arc<CheckpointStore>>,
) -> FullChipResult {
    let (mut design, tech) = T2Config::tiny().generate();
    let cfg = FullChipConfig {
        threads,
        checkpoint,
        ..FullChipConfig::default()
    };
    run_fullchip(&mut design, &tech, style, &cfg).unwrap()
}

/// Full result equality, floats compared bit-exactly.
fn assert_same(a: &FullChipResult, b: &FullChipResult) {
    assert_eq!(a.per_block, b.per_block);
    assert_eq!(a.chip, b.chip);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.chip_vias, b.chip_vias);
    assert_eq!(a.intra_block_vias, b.intra_block_vias);
    assert_eq!(a.interblock_wl_um.to_bits(), b.interblock_wl_um.to_bits());
    assert_eq!(a.route_overflow, b.route_overflow);
}

/// A context whose only policy is the fault plan `spec`.
fn faulted(spec: &str) -> RunCtx {
    RunCtx::new().with_faults(FaultPlan::parse(spec).unwrap())
}

/// [`run`] under `ctx`.
fn run_in(ctx: &RunCtx, style: DesignStyle, threads: usize) -> FullChipResult {
    let _entered = ctx.enter();
    run(style, threads, None)
}

/// Every record of a finished run, in the order `RunCtx::finish` sorts.
fn drained(outcome: &RunOutcome) -> Vec<FaultRecord> {
    let mut all = [
        &outcome.faults[..],
        &outcome.timeouts,
        &outcome.mem_exceeded,
    ]
    .concat();
    all.sort();
    all
}

#[test]
fn injected_route_failure_degrades_only_that_block() {
    let ctx = faulted("route:ccx:error");
    let result = run_in(&ctx, DesignStyle::Flat2d, 1);

    assert_eq!(result.faults.len(), 1, "exactly one faulted block");
    let f = &result.faults[0];
    assert_eq!(f.scope, "2d");
    assert_eq!(f.block, "ccx");
    assert_eq!(f.stage, FlowStage::Route);
    assert_eq!(f.attempts, RetryPolicy::default().max_attempts);
    assert_eq!(f.disposition, Disposition::Degraded);
    for (name, _, m) in &result.per_block {
        assert_eq!(m.degraded, name == "ccx", "only ccx may degrade");
    }
    // the degraded analytical estimate still rolls up into chip totals
    assert!(result.chip.power.total_w() > 0.0);
    assert!(result.chip.footprint_um2 > 0.0);
    // provenance also landed in the run's own log, in the same shape
    assert_eq!(ctx.finish().faults, result.faults);
}

#[test]
fn injected_panic_recovers_on_the_first_retry() {
    // `:1` fires on attempt 0 only: the panic unwinds through the
    // isolation boundary, the retry runs clean and recovers the block
    let result = run_in(&faulted("place:ccx:panic:1"), DesignStyle::Flat2d, 1);

    assert_eq!(result.faults.len(), 1);
    let f = &result.faults[0];
    assert_eq!(f.block, "ccx");
    assert_eq!(f.stage, FlowStage::Place);
    assert_eq!(f.attempts, 2, "first run + one retry");
    assert_eq!(f.disposition, Disposition::Recovered);
    assert!(
        result.per_block.iter().all(|(_, _, m)| !m.degraded),
        "a recovered block carries real flow results"
    );
}

#[test]
fn faulted_runs_are_thread_invariant() {
    // one permanent panic (degrades) plus one transient error (recovers)
    let spec = "route:ccx:panic,sta:mcu0:error:1";
    let serial = run_in(&faulted(spec), DesignStyle::CoreCache, 1);
    let parallel = run_in(&faulted(spec), DesignStyle::CoreCache, 4);

    assert_eq!(serial.faults.len(), 2);
    assert_same(&serial, &parallel);
}

#[test]
fn checkpoint_resume_replays_blocks_byte_identically() {
    let store = Arc::new(CheckpointStore::in_memory());
    let first = run(DesignStyle::CoreCache, 1, Some(store.clone()));
    assert_eq!(store.len(), first.per_block.len(), "every block stored");
    assert_eq!(store.hits(), 0, "a cold store replays nothing");

    // resume with a different thread count: every block replays
    let resumed = run(DesignStyle::CoreCache, 4, Some(store.clone()));
    assert_eq!(store.hits() as usize, first.per_block.len());
    assert_same(&first, &resumed);
}

#[test]
fn torn_checkpoint_tail_is_recomputed_on_resume() {
    let path =
        std::env::temp_dir().join(format!("foldic-fault-itest-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let first = {
        let store = Arc::new(CheckpointStore::open(&path).unwrap());
        run(DesignStyle::Flat2d, 2, Some(store))
    };

    // simulate a kill mid-append: chop into the last entry
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

    let store = Arc::new(CheckpointStore::open(&path).unwrap());
    let loaded = store.len();
    assert!(
        loaded < first.per_block.len(),
        "the torn entry must be dropped"
    );
    let resumed = run(DesignStyle::Flat2d, 1, Some(store.clone()));
    assert_eq!(store.hits() as usize, loaded, "intact entries replay");
    assert_same(&first, &resumed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overlapping_runs_keep_their_own_provenance() {
    // Two runs share the process: one injects a route error into ccx,
    // the other gives every route stage a zero budget. Both contexts
    // stay live through both runs (barriers on either side), and each
    // fans its blocks out over a pool, so every hook on every worker
    // must read its own run's context.
    let faulty = faulted("route:ccx:error");
    let starved = RunCtx::new().with_deadline(
        &DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Route, Duration::ZERO)],
            ..DeadlinePolicy::default()
        },
        "starved",
    );
    let barrier = Barrier::new(2);
    let run_overlapped = |ctx: RunCtx| {
        let (mut design, tech) = T2Config::tiny().generate();
        let cfg = FullChipConfig {
            threads: 2,
            ..FullChipConfig::default()
        };
        let result = {
            let _entered = ctx.enter();
            barrier.wait();
            let result = run_fullchip(&mut design, &tech, DesignStyle::Flat2d, &cfg).unwrap();
            barrier.wait();
            result
        };
        (result, ctx.finish())
    };
    let ((a, a_out), (b, b_out)) = std::thread::scope(|s| {
        let a = s.spawn(|| run_overlapped(faulty));
        let b = s.spawn(|| run_overlapped(starved));
        (a.join().unwrap(), b.join().unwrap())
    });

    // the injected run: exactly one degraded ccx, no timeouts
    assert_eq!(a.faults.len(), 1, "{:?}", a.faults);
    let f = &a.faults[0];
    assert_eq!((f.block.as_str(), f.stage), ("ccx", FlowStage::Route));
    assert_eq!(f.disposition, Disposition::Degraded);
    assert!(!f.timed_out);
    assert!(a_out.timeouts.is_empty() && a_out.mem_exceeded.is_empty());
    // the starved run: only timed-out records, no injected fault
    assert!(!b.faults.is_empty());
    assert!(b
        .faults
        .iter()
        .all(|r| r.timed_out && r.stage == FlowStage::Route));
    assert!(b_out.faults.is_empty() && b_out.mem_exceeded.is_empty());
    // each drained outcome is exactly its own run's provenance
    for (result, outcome) in [(&a, &a_out), (&b, &b_out)] {
        let mut own = result.faults.clone();
        own.sort();
        assert_eq!(drained(outcome), own);
    }
}
