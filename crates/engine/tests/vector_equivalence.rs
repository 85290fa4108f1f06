//! Compiled ↔ interpreted equivalence: for every generated query in the
//! supported T-SQL subset, compiled plans — every block of which runs on
//! the vectorized block loop — must produce a byte-identical outcome to
//! the AST interpreter: the same `ResultSet` on success, the same
//! `EngineError` on failure (including which error surfaces first), and
//! the same `ExecLimits` exhaustion point under finite budgets — at every
//! batch size, and with a deterministic telemetry section at any thread
//! count.

use proptest::prelude::*;
use snails_engine::{
    run_sql_with, DataType, Database, ExecLimits, ExecOptions, PlanCache, TableSchema, Value,
};
use snails_obs::{ClockMode, ObsCtx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fixture() -> Database {
    let mut db = Database::new("fuzz");
    db.create_table(
        TableSchema::new("t")
            .column("id", DataType::Int)
            .column("name", DataType::Varchar)
            .column("score", DataType::Float)
            .column("tag", DataType::Varchar),
    );
    db.create_table(
        TableSchema::new("u")
            .column("id", DataType::Int)
            .column("t_id", DataType::Int)
            .column("amount", DataType::Int),
    );
    for i in 0..20i64 {
        db.insert(
            "t",
            vec![
                Value::Int(i),
                Value::from(format!("name{i}")),
                Value::Float(i as f64 / 3.0),
                if i % 5 == 0 { Value::Null } else { Value::from(format!("tag{}", i % 3)) },
            ],
        )
        .unwrap();
    }
    for i in 0..30i64 {
        db.insert("u", vec![Value::Int(i), Value::Int(i % 25), Value::Int(i * 7 % 13)])
            .unwrap();
    }
    // Third table so the generated FROMs include chained 3-table joins.
    db.create_table(
        TableSchema::new("v")
            .column("id", DataType::Int)
            .column("u_id", DataType::Int)
            .column("w", DataType::Varchar),
    );
    for i in 0..15i64 {
        db.insert(
            "v",
            vec![
                Value::Int(i),
                Value::Int(i % 28),
                if i % 4 == 0 { Value::Null } else { Value::from(format!("w{}", i % 6)) },
            ],
        )
        .unwrap();
    }
    db
}

fn arb_column() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("id"), Just("name"), Just("score"), Just("tag"), Just("t_id"),
        Just("amount"), Just("w"), Just("missing_col"),
    ]
}

fn arb_scalar() -> impl Strategy<Value = String> {
    prop_oneof![
        (-30i64..30).prop_map(|n| n.to_string()),
        Just("'name3'".to_owned()),
        Just("NULL".to_owned()),
        Just("3.5".to_owned()),
    ]
}

fn arb_predicate() -> impl Strategy<Value = String> {
    let cmp = prop_oneof![Just("="), Just("<>"), Just("<"), Just(">="), Just(">")];
    prop_oneof![
        (arb_column(), cmp, arb_scalar()).prop_map(|(c, op, v)| format!("{c} {op} {v}")),
        arb_column().prop_map(|c| format!("{c} IS NOT NULL")),
        arb_column().prop_map(|c| format!("{c} IN (1, 2, 'x')")),
        arb_column().prop_map(|c| format!("{c} LIKE 'n%'")),
        arb_column().prop_map(|c| format!("{c} NOT LIKE '%3'")),
        arb_column().prop_map(|c| format!("{c} BETWEEN 1 AND 9")),
        arb_column().prop_map(|c| format!("{c} IN (SELECT t_id FROM u)")),
        // Kernel error paths: text arithmetic / overflow abort the vector
        // attempt and must replay through the scalar runner identically.
        arb_column().prop_map(|c| format!("{c} + name > 2")),
        arb_column().prop_map(|c| format!("{c} * 9223372036854775807 > 0")),
        arb_column().prop_map(|c| format!("CASE WHEN {c} > 3 THEN 1 ELSE 0 END = 1")),
        (arb_column(), arb_column())
            .prop_map(|(a, b)| format!("{a} > 2 AND {b} IS NOT NULL")),
        (arb_column(), arb_column()).prop_map(|(a, b)| format!("{a} < 5 OR {b} = 'tag1'")),
        Just("EXISTS (SELECT id FROM u WHERE u.t_id = t.id)".to_owned()),
        Just("(SELECT COUNT(*) FROM u WHERE u.t_id = t.id) > 1".to_owned()),
    ]
}

fn arb_projection() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_owned()),
        Just("t.*".to_owned()),
        Just("z.*".to_owned()), // unknown binding: projection error path
        arb_column().prop_map(|c| c.to_owned()),
        arb_column().prop_map(|c| format!("COUNT({c})")),
        arb_column().prop_map(|c| format!("SUM({c})")),
        arb_column().prop_map(|c| format!("AVG({c})")),
        arb_column().prop_map(|c| format!("MIN({c}), MAX({c})")),
        arb_column().prop_map(|c| format!("COUNT(DISTINCT {c})")),
        arb_column().prop_map(|c| format!("SUM({c}) + COUNT(*) AS mix")),
        arb_column().prop_map(|c| format!("UPPER({c}) AS up")),
        arb_column().prop_map(|c| format!("CASE WHEN {c} IS NULL THEN 'n' ELSE 'v' END")),
        Just("COUNT(*)".to_owned()),
        Just("SUM(name)".to_owned()), // aggregate type error path
        Just("id + amount AS total".to_owned()),
        Just("(SELECT MAX(amount) FROM u)".to_owned()),
    ]
}

fn arb_from() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("t".to_owned()),
        Just("u".to_owned()),
        Just("t JOIN u ON t.id = u.t_id".to_owned()),
        Just("t LEFT JOIN u ON t.id = u.t_id".to_owned()),
        Just("t RIGHT JOIN u ON t.id = u.t_id".to_owned()),
        Just("t FULL JOIN u ON t.id = u.t_id".to_owned()),
        Just("t CROSS JOIN u".to_owned()),
        Just("t JOIN u ON t.id = u.t_id AND u.amount > 3".to_owned()),
        Just("t JOIN u ON t.score > u.amount".to_owned()), // non-equi: nested loop
        Just("t JOIN u ON t.tag = u.amount".to_owned()),   // text×num keys: unmatchable
        Just("t JOIN u ON t.id = u.t_id JOIN v ON u.id = v.u_id".to_owned()),
        Just("u JOIN v ON u.id = v.u_id JOIN t ON u.t_id = t.id".to_owned()),
        Just("(SELECT id, name FROM t WHERE id < 9) d".to_owned()),
        Just("nonexistent".to_owned()),
    ]
}

fn arb_query() -> impl Strategy<Value = String> {
    (
        arb_projection(),
        arb_from(),
        proptest::option::of(arb_predicate()),
        proptest::option::of(arb_column()),
        proptest::option::of(prop_oneof![
            Just("COUNT(*) > 1".to_owned()),
            Just("id > 3".to_owned()),
            Just("COUNT(*) > 1 AND id > 3".to_owned()),
            Just("name IS NOT NULL".to_owned()),
        ]),
        proptest::option::of(arb_column()),
        proptest::option::of(0u64..5),
        any::<bool>(),
        proptest::option::of(Just("UNION SELECT t_id FROM u")),
    )
        .prop_map(|(proj, from, pred, group, having, order, top, distinct, union)| {
            let mut q = String::from("SELECT ");
            if distinct {
                q.push_str("DISTINCT ");
            }
            if let Some(n) = top {
                q.push_str(&format!("TOP {n} "));
            }
            q.push_str(&proj);
            q.push_str(" FROM ");
            q.push_str(&from);
            if let Some(p) = pred {
                q.push_str(" WHERE ");
                q.push_str(&p);
            }
            if let Some(g) = group {
                q.push_str(" GROUP BY ");
                q.push_str(g);
                if let Some(h) = having {
                    q.push_str(" HAVING ");
                    q.push_str(&h);
                }
            }
            if let Some(o) = order {
                q.push_str(" ORDER BY ");
                q.push_str(o);
                q.push_str(" DESC");
            }
            if let Some(u) = union {
                q.push(' ');
                q.push_str(u);
            }
            q
        })
}

/// Odd, tiny, and production batch sizes — chunk-boundary edge cases
/// (batch 1, batch not dividing the row count) get equal coverage.
fn arb_batch() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3), Just(7), Just(256), Just(1024), Just(4096)]
}

/// Full-outcome comparison under `limits` of the interpreter (the oracle)
/// and a compiled plan at `batch`, cold and warm — `Ok` matches
/// field-for-field, `Err` variant-for-variant.
fn assert_equivalent(db: &Database, sql: &str, batch: usize, limits: ExecLimits) {
    let base = ExecOptions { limits, ..Default::default() };
    let interpreted = run_sql_with(db, sql, base);
    let vec_opts = ExecOptions { batch_size: Some(batch), ..base };
    let cache = PlanCache::new();
    let cold = cache.run(db, sql, vec_opts);
    assert_eq!(cold, interpreted, "vectorized (batch {batch}) diverged for {sql:?}");
    // Warm cache hit: execution must not corrupt the shared plan.
    let warm = cache.run(db, sql, vec_opts);
    assert_eq!(warm, interpreted, "warm vectorized diverged for {sql:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Unlimited budgets, every batch size: vectorized execution is
    /// byte-identical to the interpreter.
    #[test]
    fn vector_matches_interpreter(sql in arb_query(), batch in arb_batch()) {
        let db = fixture();
        assert_equivalent(&db, &sql, batch, ExecLimits::UNLIMITED);
    }

    /// Tight budgets: the vectorized path must exhaust the *same* budget
    /// at the same logical row — identical `ResourceExhausted`
    /// resource/budget — or return the identical successful result.
    #[test]
    fn vector_matches_interpreter_under_limits(
        sql in arb_query(),
        batch in arb_batch(),
        steps in prop_oneof![Just(10u64), Just(60), Just(400)],
        join_rows in prop_oneof![Just(8u64), Just(120)],
        depth in 1u32..3,
    ) {
        let db = fixture();
        let limits = ExecLimits {
            max_steps: Some(steps),
            max_join_rows: Some(join_rows),
            max_output_rows: Some(50),
            max_subquery_depth: Some(depth),
        };
        assert_equivalent(&db, &sql, batch, limits);
    }
}

/// Fixed workload exercising every vectorized operator (scan, filter,
/// hash/nested join, group, order, union, scalar-fallback subquery).
const WORKLOAD: &[&str] = &[
    "SELECT id, name FROM t WHERE id > 4 AND tag IS NOT NULL ORDER BY id DESC",
    "SELECT t.name, u.amount FROM t JOIN u ON t.id = u.t_id WHERE u.amount > 2",
    "SELECT tag, COUNT(*), SUM(score) FROM t GROUP BY tag HAVING COUNT(*) > 1",
    "SELECT t.id FROM t LEFT JOIN u ON t.id = u.t_id ORDER BY t.id",
    "SELECT name FROM t WHERE EXISTS (SELECT id FROM u WHERE u.t_id = t.id)",
    "SELECT DISTINCT amount FROM u UNION SELECT id FROM t WHERE id < 3",
    "SELECT AVG(amount), MIN(t_id), MAX(t_id) FROM u",
    // Three-table chain with a selective predicate on the middle source.
    "SELECT COUNT(*), SUM(u.amount) FROM u JOIN t ON u.t_id = t.id \
     JOIN v ON u.id = v.u_id WHERE t.name = 'name3'",
];

/// Execute the workload, one fresh `PlanCache` per task so cache metrics
/// are interleaving-independent, on `threads` workers claiming task ids
/// from a shared cursor.
fn run_workload(threads: usize, opts: ExecOptions) -> Arc<ObsCtx> {
    let db = fixture();
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _scope = snails_obs::scope(&ctx);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= WORKLOAD.len() {
                        break;
                    }
                    snails_obs::task(i as u64, || {
                        let cache = PlanCache::new();
                        cache.run(&db, WORKLOAD[i], opts).expect("workload query runs");
                    });
                }
            });
        }
    });
    ctx
}

/// The vectorized executor's telemetry — including the new batch counters,
/// selectivity histogram, and dictionary-size histogram — lands in the
/// deterministic section byte-identically at any thread count.
#[test]
fn vector_telemetry_deterministic_across_threads() {
    let opts = ExecOptions::default();
    let baseline = run_workload(1, opts).report().deterministic_json();
    for threads in [2usize, 8] {
        let json = run_workload(threads, opts).report().deterministic_json();
        assert_eq!(json, baseline, "threads = {threads}");
    }
    // The baseline actually recorded vectorized work.
    let report = run_workload(1, opts).report();
    assert!(report.counter("engine.vec.batches") > 0, "no batches recorded");
    assert!(report.counter("engine.op.join.batches") > 0, "no join batches");
    let det = report.deterministic_json();
    for key in ["engine.vec.selectivity_pct", "engine.vec.dict.entries"] {
        assert!(det.contains(key), "{key} missing from deterministic section");
    }
}

/// Compiled plans are execution-mode-agnostic: toggling the batch size
/// over one `PlanCache` serves the *same* cached plan — one miss, then
/// hits — and every execution mode returns identical rows.
#[test]
fn mode_toggle_reuses_cached_plan() {
    let db = fixture();
    let cache = PlanCache::new();
    let sql = "SELECT t.name, SUM(u.amount) FROM t JOIN u ON t.id = u.t_id \
               GROUP BY t.name ORDER BY t.name";
    let modes = [
        ExecOptions::default(),
        ExecOptions { batch_size: Some(2), ..Default::default() },
    ];
    let baseline = run_sql_with(&db, sql, ExecOptions::default()).expect("query runs");
    for (i, opts) in modes.iter().enumerate() {
        let rs = cache.run(&db, sql, *opts).expect("query runs");
        assert_eq!(rs, baseline, "mode {i} diverged");
    }
    assert_eq!(cache.misses(), 1, "first lookup compiles once");
    assert_eq!(cache.hits(), modes.len() as u64 - 1, "every toggle reuses the plan");
    assert_eq!(cache.len(), 1, "one plan serves every mode");
}

/// Correlated blocks on the vectorized block loop: each statement nests a
/// block that reads the enclosing row through a scalar fallback — a `UNION`
/// arm's filter, the filter replay, a nested-loop join's `ON` (a non-equi
/// predicate, and an equi predicate with an outer-row conjunct that the
/// hash join refuses), and the tail's delegation with and without a
/// `WHERE` selection (projection, `HAVING`). Each must match the
/// interpreter at several batch sizes, unbudgeted and under tight budgets.
#[test]
fn correlated_blocks_carry_the_outer_row_through_every_fallback() {
    const STATEMENTS: &[&str] = &[
        "SELECT id FROM t WHERE EXISTS (SELECT id FROM u WHERE u.t_id = t.id \
         UNION SELECT id FROM v WHERE v.u_id = t.id)",
        "SELECT id FROM t WHERE EXISTS (SELECT u.id FROM u JOIN v ON u.amount > v.u_id + t.id)",
        "SELECT id FROM t WHERE EXISTS \
         (SELECT u.id FROM u JOIN v ON u.id = v.u_id AND v.u_id = t.id)",
        "SELECT id, (SELECT MAX(amount) + t.id FROM u WHERE u.t_id = t.id) AS m FROM t",
        "SELECT id, (SELECT MAX(amount) + t.id FROM u) AS m FROM t",
        "SELECT id FROM t WHERE EXISTS (SELECT t_id FROM u GROUP BY t_id HAVING COUNT(*) > t.id)",
    ];
    let db = fixture();
    let mut limits = vec![ExecLimits::UNLIMITED];
    for steps in [10u64, 60, 400] {
        for join_rows in [8u64, 120] {
            for depth in 1u32..3 {
                limits.push(ExecLimits {
                    max_steps: Some(steps),
                    max_join_rows: Some(join_rows),
                    max_output_rows: Some(50),
                    max_subquery_depth: Some(depth),
                });
            }
        }
    }
    for sql in STATEMENTS {
        for batch in [1usize, 3, 1024] {
            for &l in &limits {
                assert_equivalent(&db, sql, batch, l);
            }
        }
    }

    // The subquery block ran on the vectorized loop: one scan batch for
    // `t`, plus one for `u` in each of the 20 per-row runs of the block.
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    {
        let _scope = snails_obs::scope(&ctx);
        PlanCache::new()
            .run(
                &db,
                "SELECT id FROM t WHERE EXISTS (SELECT id FROM u WHERE u.t_id = t.id)",
                ExecOptions::default(),
            )
            .expect("correlated EXISTS runs");
    }
    assert_eq!(ctx.report().counter("engine.op.scan.batches"), 21);
}

// ---------------------------------------------------------------------------
// Dictionary-code kernels: nasty cases checked against the interpreter.
// ---------------------------------------------------------------------------

/// Two tables with string keys drawn from *disjoint* dictionaries (each
/// table's dictionary interns only its own inserts) whose values overlap
/// only case-insensitively — the join must go through the code→code
/// translation table, not raw code equality.
fn dict_fixture() -> Database {
    let mut db = Database::new("dict");
    db.create_table(
        TableSchema::new("a")
            .column("id", DataType::Int)
            .column("color", DataType::Varchar),
    );
    db.create_table(
        TableSchema::new("b")
            .column("id", DataType::Int)
            .column("color", DataType::Varchar),
    );
    // a interns: Red, blue, GREEN, NULL; b interns: RED, Blue, plum, NULL.
    let a_vals = ["Red", "blue", "GREEN", "Red", "blue"];
    for (i, v) in a_vals.iter().enumerate() {
        let c = if i == 3 { Value::Null } else { Value::from(*v) };
        db.insert("a", vec![Value::Int(i as i64), c]).unwrap();
    }
    let b_vals = ["RED", "Blue", "plum", "RED", "Blue", "plum"];
    for (i, v) in b_vals.iter().enumerate() {
        let c = if i == 5 { Value::Null } else { Value::from(*v) };
        db.insert("b", vec![Value::Int(i as i64), c]).unwrap();
    }
    db
}

/// Run `sql` through the vectorized path at several batch sizes and
/// demand byte-identical results to the interpreter.
fn assert_dict_equivalent(db: &Database, sql: &str) {
    let oracle = run_sql_with(db, sql, ExecOptions::default()).expect("oracle runs");
    let cache = PlanCache::new();
    for batch in [1usize, 2, 3, 1024] {
        let opts = ExecOptions { batch_size: Some(batch), ..Default::default() };
        let got = cache.run(db, sql, opts).expect("vectorized runs");
        assert_eq!(got, oracle, "batch={batch} diverged for {sql:?}");
    }
}

/// Equality/IN against a constant absent from the dictionary: the memo
/// resolves every code to false without touching row data.
#[test]
fn dict_kernel_const_not_in_dictionary() {
    let db = dict_fixture();
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color = 'chartreuse'");
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color <> 'chartreuse'");
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color IN ('x', 'y')");
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color NOT IN ('x', NULL)");
}

/// T-SQL comparisons are case-insensitive; the code kernel must compare
/// lowered forms, and two codes sharing a lowercase form group together.
#[test]
fn dict_kernel_case_insensitive_equality() {
    let db = dict_fixture();
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color = 'RED'");
    assert_dict_equivalent(&db, "SELECT id FROM b WHERE color = 'red'");
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE color IN ('BLUE', 'green')");
    assert_dict_equivalent(&db, "SELECT color, COUNT(*) FROM a GROUP BY color");
    assert_dict_equivalent(&db, "SELECT color, COUNT(*) FROM b GROUP BY color ORDER BY color");
}

/// NULL validity must survive a selection vector: the second conjunct of a
/// fused filter chain sees only surviving rows, at offsets that no longer
/// align with physical positions.
#[test]
fn dict_kernel_null_validity_under_selection() {
    let db = dict_fixture();
    assert_dict_equivalent(&db, "SELECT id FROM a WHERE id > 0 AND color = 'red'");
    assert_dict_equivalent(&db, "SELECT id FROM b WHERE id >= 2 AND color IS NULL");
    assert_dict_equivalent(&db, "SELECT id FROM b WHERE id < 5 AND color NOT IN ('plum')");
    assert_dict_equivalent(
        &db,
        "SELECT COUNT(*) FROM a WHERE id <> 1 AND color <> 'blue'",
    );
}

/// Joins across disjoint dictionaries: equal strings carry unrelated codes
/// on the two sides (and match only case-insensitively), so the kernel's
/// translation table does the work. Every join kind crosses it.
#[test]
fn dict_kernel_cross_column_translation() {
    let db = dict_fixture();
    assert_dict_equivalent(
        &db,
        "SELECT a.id, b.id FROM a JOIN b ON a.color = b.color ORDER BY a.id",
    );
    assert_dict_equivalent(
        &db,
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.color = b.color ORDER BY a.id",
    );
    assert_dict_equivalent(
        &db,
        "SELECT a.id, b.id FROM a RIGHT JOIN b ON a.color = b.color ORDER BY b.id",
    );
    assert_dict_equivalent(
        &db,
        "SELECT a.id, b.id FROM a FULL JOIN b ON a.color = b.color ORDER BY a.id",
    );
    assert_dict_equivalent(
        &db,
        "SELECT a.color, COUNT(*) FROM a JOIN b ON a.color = b.color GROUP BY a.color",
    );
    // String key against a numeric key: types never match; the kernel
    // degrades every code to the dead key and emits nothing (inner) or
    // pads (outer).
    assert_dict_equivalent(&db, "SELECT a.id FROM a JOIN b ON a.color = b.id");
    assert_dict_equivalent(&db, "SELECT a.id, b.id FROM a LEFT JOIN b ON a.color = b.id");
}
