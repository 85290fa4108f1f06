//! Compiled-plan throughput: plan-once-execute-many against the
//! parse-and-interpret baseline on the SNAILS gold workload.
//!
//! The A/B pairs here back the plan-layer speedup numbers in DESIGN.md §5:
//! the same statements run (a) through `run_sql` — lex, parse, and resolve
//! every name on every execution — and (b) through a warm [`PlanCache`] —
//! lowered once to positional slots, then re-executed from the compiled
//! plan.

use criterion::{criterion_group, criterion_main, Criterion};
use snails_engine::{run_sql, ExecOptions, PlanCache};
use std::hint::black_box;

fn bench_plan(c: &mut Criterion) {
    let db = snails_data::build_database("CWO");
    let opts = ExecOptions::default();

    // Full gold workload, parse-and-interpret per execution: the baseline
    // side of the A/B pair.
    c.bench_function("plan_gold_workload_interpret", |b| {
        b.iter(|| {
            for q in &db.questions {
                black_box(run_sql(&db.db, &q.sql).unwrap());
            }
        })
    });

    // Same workload through a warm plan cache: every statement compiles on
    // the first pass (outside the timed region) and replays from its plan.
    let cache = PlanCache::new();
    for q in &db.questions {
        cache.run(&db.db, &q.sql, opts).unwrap();
    }
    c.bench_function("plan_gold_workload_cached", |b| {
        b.iter(|| {
            for q in &db.questions {
                black_box(cache.run(&db.db, &q.sql, opts).unwrap());
            }
        })
    });

    // Plan construction alone (lex + parse + lower): the one-time cost a
    // cache miss pays before the execute-many phase amortizes it.
    let stmt_sql = &db.questions[0].sql;
    c.bench_function("plan_compile_single", |b| {
        b.iter(|| {
            let fresh = PlanCache::new();
            black_box(fresh.plan(&db.db, stmt_sql).unwrap())
        })
    });

    // Cache hit path alone: key normalization + map lookup + execute.
    c.bench_function("plan_cached_single", |b| {
        b.iter(|| black_box(cache.run(&db.db, stmt_sql, opts).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_plan
}
criterion_main!(benches);
