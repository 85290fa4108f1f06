//! Compiled-plan ↔ interpreter equivalence: for every generated query in
//! the supported T-SQL subset, executing through `compile` + `CompiledPlan`
//! (and through a warm `PlanCache`) must produce a byte-identical outcome —
//! the same `ResultSet` on success and the same `EngineError` on failure,
//! including `ExecLimits` `ResourceExhausted` behaviour under tight budgets.

use proptest::prelude::*;
use snails_engine::{
    run_sql_with, DataType, Database, ExecLimits, ExecOptions, PlanCache, TableSchema, Value,
};

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
        arb_column().prop_map(|c| format!("MIN({c}), MAX({c})")),
        arb_column().prop_map(|c| format!("COUNT(DISTINCT {c})")),
        arb_column().prop_map(|c| format!("UPPER({c}) AS up")),
        arb_column().prop_map(|c| format!("CASE WHEN {c} IS NULL THEN 'n' ELSE 'v' END")),
        Just("COUNT(*)".to_owned()),
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
        // The equi joins above as nested loops: `OR 1 = 0` keeps each
        // predicate's truth value but defeats the equi-key extraction.
        Just("t JOIN u ON (t.id = u.t_id) OR 1 = 0".to_owned()),
        Just("t LEFT JOIN u ON (t.id = u.t_id) OR 1 = 0".to_owned()),
        Just("t RIGHT JOIN u ON (t.id = u.t_id) OR 1 = 0".to_owned()),
        Just("t FULL JOIN u ON (t.id = u.t_id) OR 1 = 0".to_owned()),
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

/// Full-outcome comparison: `Ok(ResultSet)` must match field-for-field and
/// `Err(EngineError)` must match variant-for-variant (both are `PartialEq`).
fn assert_equivalent(db: &Database, sql: &str, opts: ExecOptions) {
    let interpreted = run_sql_with(db, sql, opts);
    let cache = PlanCache::new();
    let planned = cache.run(db, sql, opts);
    assert_eq!(planned, interpreted, "cold plan diverged for {sql:?}");
    // Second run through the same cache: the warm path (cache hit) must
    // still agree — plans must not be corrupted by execution.
    let warm = cache.run(db, sql, opts);
    assert_eq!(warm, interpreted, "warm plan diverged for {sql:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Unlimited budgets: compiled execution is byte-identical to the
    /// interpreter on every generated query.
    #[test]
    fn plan_matches_interpreter(sql in arb_query()) {
        let db = fixture();
        assert_equivalent(&db, &sql, ExecOptions::default());
    }

    /// Tight budgets: the compiled path must exhaust the *same* budget at
    /// the same point — identical `ResourceExhausted` resource/budget — or
    /// return the identical successful result.
    #[test]
    fn plan_matches_interpreter_under_limits(
        sql in arb_query(),
        steps in prop_oneof![Just(10u64), Just(60), Just(400)],
        join_rows in prop_oneof![Just(8u64), Just(120)],
        depth in 1u32..3,
    ) {
        let db = fixture();
        let opts = ExecOptions {
            limits: ExecLimits {
                max_steps: Some(steps),
                max_join_rows: Some(join_rows),
                max_output_rows: Some(50),
                max_subquery_depth: Some(depth),
            },
            ..Default::default()
        };
        assert_equivalent(&db, &sql, opts);
    }
}

/// Cache churn across two databases that share every table and column
/// name: a bounded `PlanCache` interleaving warm and cold lookups must
/// never serve one database's plan to the other, and its hit/miss/eviction
/// counters must reconcile exactly with the lookup sequence.
#[test]
fn bounded_cache_churn_interleaves_databases_without_cross_serving() {
    let mk = |name: &'static str, base: i64| {
        let mut db = Database::new(name);
        db.create_table(TableSchema::new("t").column("k", DataType::Int));
        for i in 0..4 {
            db.insert("t", vec![Value::Int(base + i)]).unwrap();
        }
        db
    };
    let alpha = mk("alpha", 0);
    let beta = mk("beta", 100);
    let queries = [
        "SELECT k FROM t ORDER BY k",
        "SELECT COUNT(*) FROM t",
        "SELECT k FROM t WHERE k >= 2 ORDER BY k",
        "SELECT MAX(k) FROM t",
    ];
    // 8 distinct (database, query) keys against capacity 3: FIFO eviction
    // guarantees every round re-misses each key, and the immediate repeat
    // right after each miss is a guaranteed hit (the freshly inserted plan
    // is the newest entry, never the eviction victim).
    let opts = ExecOptions::default();
    let cache = PlanCache::with_capacity(3);
    const ROUNDS: u64 = 4;
    for _ in 0..ROUNDS {
        for sql in &queries {
            for db in [&alpha, &beta] {
                let cold = cache.run(db, sql, opts).expect("query runs");
                let warm = cache.run(db, sql, opts).expect("query runs");
                let interpreted = run_sql_with(db, sql, opts).expect("query runs");
                // Byte-identical to this database's interpreter result —
                // a cross-served plan would surface the other database's
                // rows (bases 0 vs 100 never overlap).
                assert_eq!(cold, interpreted, "{}: {sql}", db.name);
                assert_eq!(warm, interpreted, "{}: {sql}", db.name);
            }
        }
    }
    let pairs = ROUNDS * queries.len() as u64 * 2;
    assert_eq!(cache.misses(), pairs, "every pair opens with a cold lookup");
    assert_eq!(cache.hits(), pairs, "every pair closes with a warm hit");
    assert_eq!(cache.len(), 3, "the cache never exceeds its capacity");
    // Every miss inserted a plan; all but the resident plans were evicted.
    assert_eq!(cache.evictions(), cache.misses() - cache.len() as u64);
}
