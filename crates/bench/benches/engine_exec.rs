//! Engine throughput: signature SNAILS query shapes executed as compiled
//! plans from a warm [`PlanCache`] — the path gold and predicted SQL take —
//! against the in-memory CWO instance. The parse-and-interpret baseline
//! lives in `engine_plan.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use snails_engine::{ExecOptions, PlanCache};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let db = snails_data::build_database("CWO");
    let cache = PlanCache::new();
    let opts = ExecOptions::default();
    // Compile outside the timed region; every timed run is a cache hit.
    let warm = |sql: &str| {
        cache.run(&db.db, sql, opts).unwrap();
    };

    // Signature query shapes. Identifiers are bracket-quoted because some
    // generated names collide with SQL keywords (e.g. CWO's `group` table).
    let core = &db.core;
    use snails_data::core_schema::CoreRole as R;
    let q = |r: R| snails_sql::render::quoted(&core.native(r));

    let join_group = format!(
        "SELECT e.{cat}, COUNT(*) FROM {entity} e JOIN {event} o ON e.{code} = o.{code} GROUP BY e.{cat}",
        cat = q(R::EntityCategory),
        entity = q(R::EntityTable),
        event = q(R::EventTable),
        code = q(R::EntityCode),
    );
    warm(&join_group);
    c.bench_function("exec_join_group", |b| {
        b.iter(|| black_box(cache.run(&db.db, &join_group, opts).unwrap()))
    });

    let not_exists = format!(
        "SELECT {name} FROM {entity} e WHERE NOT EXISTS \
         (SELECT {id} FROM {event} o WHERE o.{code} = e.{code})",
        name = q(R::EntityName),
        entity = q(R::EntityTable),
        id = q(R::EventId),
        event = q(R::EventTable),
        code = q(R::EntityCode),
    );
    warm(&not_exists);
    c.bench_function("exec_correlated_not_exists", |b| {
        b.iter(|| black_box(cache.run(&db.db, &not_exists, opts).unwrap()))
    });

    let ck_join = format!(
        "SELECT s.{grade}, COUNT(*) FROM {detail} d JOIN {sub} s \
         ON d.{ev} = s.{ev} AND d.{no} = s.{no} GROUP BY s.{grade}",
        grade = q(R::SubGrade),
        detail = q(R::DetailTable),
        sub = q(R::SubdetailTable),
        ev = q(R::EventId),
        no = q(R::DetailNo),
    );
    warm(&ck_join);
    c.bench_function("exec_composite_key_join", |b| {
        b.iter(|| black_box(cache.run(&db.db, &ck_join, opts).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engine
}
criterion_main!(benches);
