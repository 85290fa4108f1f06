//! Observability determinism: the deterministic report section and the
//! exact span trees must be bit-identical regardless of how many worker
//! threads recorded them, as long as the *work* is the same.
//!
//! The tests drive the crate the way the core scheduler does — one
//! [`snails_obs::scope`] per worker, one [`snails_obs::task`] per item,
//! items claimed from a shared atomic cursor so the interleaving differs
//! wildly across runs — and assert byte equality across thread counts
//! {1, 2, 8} under the simulated clock.

use snails_obs::{ClockMode, Metric, ObsCtx, SpanRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TASKS: u64 = 64;

/// Deterministic per-task workload: counters, a histogram observation, and
/// a small span tree whose shape depends only on the task id.
fn work(task: u64) {
    snails_obs::add(Metric::EngineExecStatements, 1);
    snails_obs::observe(Metric::EngineExecSteps, task * 7 % 113);
    let _outer = snails_obs::span("outer");
    if task.is_multiple_of(2) {
        let _inner = snails_obs::span("inner");
        snails_obs::add(Metric::EnginePlanCacheHit, 1);
    }
    if task.is_multiple_of(3) {
        let _sibling = snails_obs::span("sibling");
        snails_obs::observe(Metric::EngineOpScanRows, task);
    }
}

/// Run all `TASKS` items on `threads` workers claiming task ids from a
/// shared cursor (arbitrary interleaving, every task exactly once).
fn run(threads: usize) -> Arc<ObsCtx> {
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _scope = snails_obs::scope(&ctx);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= TASKS {
                        break;
                    }
                    snails_obs::task(i, || work(i));
                }
            });
        }
    });
    ctx
}

#[test]
fn deterministic_report_is_byte_identical_across_thread_counts() {
    let baseline = run(1).report().deterministic_json();
    for threads in [2usize, 8] {
        let json = run(threads).report().deterministic_json();
        assert_eq!(json, baseline, "threads = {threads}");
    }
    // The baseline itself reflects the workload, not an empty registry.
    let report = run(1).report();
    assert_eq!(report.counter("engine.exec.statements"), TASKS);
    assert_eq!(report.counter("engine.plan.cache_hit"), TASKS / 2);
    assert_eq!(report.spans["outer"].count, TASKS);
    assert_eq!(report.spans["inner"].count, TASKS / 2);
}

#[test]
fn span_records_are_identical_across_thread_counts() {
    let baseline: Vec<SpanRecord> = run(1).tracer.drain_sorted();
    assert!(!baseline.is_empty());
    for threads in [2usize, 8] {
        let spans = run(threads).tracer.drain_sorted();
        assert_eq!(spans, baseline, "threads = {threads}");
    }
}

#[test]
fn sim_clock_span_tree_has_exact_shape() {
    // Task 6 hits every branch: outer(seq 0) wraps inner(1) and sibling(2).
    // Sim ticks advance by one per clock read, per task, so the tree's
    // start/end ticks are fully predictable.
    let spans = run(1).tracer.drain_sorted();
    let task6: Vec<&SpanRecord> = spans.iter().filter(|s| s.task == 6).collect();
    assert_eq!(task6.len(), 3);
    // drain_sorted orders by (task, seq): outer started first.
    let [outer, inner, sibling] = task6[..] else { unreachable!() };
    assert_eq!((outer.name, outer.seq, outer.parent), ("outer", 0, None));
    assert_eq!((inner.name, inner.seq, inner.parent), ("inner", 1, Some(0)));
    assert_eq!((sibling.name, sibling.seq, sibling.parent), ("sibling", 2, Some(0)));
    assert_eq!((outer.start, outer.end), (0, 5));
    assert_eq!((inner.start, inner.end), (1, 2));
    assert_eq!((sibling.start, sibling.end), (3, 4));
}

#[test]
fn volatile_metrics_stay_out_of_the_deterministic_section() {
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    {
        let _scope = snails_obs::scope(&ctx);
        snails_obs::task(0, || {
            snails_obs::add(Metric::EngineExecStatements, 1);
            // Scheduler-shape metrics legitimately vary with the thread
            // count; recording one must not perturb deterministic bytes.
            snails_obs::add(Metric::CoreSchedulerChunksClaimed, 41);
            snails_obs::gauge_set(Metric::CoreSchedulerWorkers, 8);
        });
    }
    let report = ctx.report();
    let det = report.deterministic_json();
    assert!(!det.contains("core.scheduler.chunks_claimed"));
    assert!(!det.contains("core.scheduler.workers"));
    assert!(report.volatile_json().contains("core.scheduler.chunks_claimed"));
    assert_eq!(report.counter("engine.exec.statements"), 1);
}
