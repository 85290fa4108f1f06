//! Hash join ⇔ nested loop equivalence.
//!
//! The hash join claims to be *order-identical* to the nested loop — a
//! stronger property than row-multiset equality — because downstream
//! benchmark records must be bit-identical whichever join kernel runs.
//! Every equi-key `ON p` takes the hash join; the nested-loop reference
//! runs the same predicate as `ON (p) OR 1 = 0`, a shape the equi-key
//! extraction refuses but whose truth value equals `p`'s on every row
//! pair and which cannot raise. The property test drives both over random
//! table contents, join kinds, and `ON` predicates (pure equi, composite,
//! computed keys, constant conjuncts, non-equi and mixed predicates that
//! must fall back), with NULL keys mixed in everywhere.

use proptest::prelude::*;
use snails_engine::{run_sql, DataType, Database, TableSchema, Value};
use snails_obs::{ClockMode, ObsCtx};
use std::sync::Arc;

/// (key, group, id) rows; `key` is nullable to exercise NULL-key semantics.
type Rows = Vec<(Option<i64>, i64)>;

fn build_db(left: &Rows, right: &Rows) -> Database {
    let mut db = Database::new("prop");
    for name in ["l", "r"] {
        db.create_table(
            TableSchema::new(name)
                .column("k", DataType::Int)
                .column("g", DataType::Int)
                .column("id", DataType::Int),
        );
    }
    for (name, rows) in [("l", left), ("r", right)] {
        for (id, (k, g)) in rows.iter().enumerate() {
            let key = k.map_or(Value::Null, Value::Int);
            db.insert(name, vec![key, Value::Int(*g), Value::Int(id as i64)])
                .expect("insert");
        }
    }
    db
}

/// `ON` predicates covering every path: the hash-eligible shapes (single,
/// composite, computed, and constant-conjunct equi keys) and the shapes
/// that must fall back to the nested loop (non-equi, mixed, disjunction).
const PREDICATES: &[&str] = &[
    "l.k = r.k",
    "l.k = r.k AND l.g = r.g",
    "l.k = r.k AND l.g + 1 = r.g",
    "l.g = r.g AND r.k = 2",
    "l.k < r.k",
    "l.k = r.k AND l.g < r.g",
    "l.k = r.k OR l.g = r.g",
];

const KINDS: &[&str] = &["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"];

fn rows_strategy() -> impl Strategy<Value = Rows> {
    // Small key domains force collisions (multi-row hash buckets) and
    // misses; ~1 in 5 keys is NULL.
    proptest::collection::vec((proptest::option::of(0i64..4), 0i64..3), 0..14)
}

/// `pred` in a shape the equi-key extraction refuses, with `pred`'s truth
/// value on every row pair: the join runs as a nested loop.
fn nested_only(pred: &str) -> String {
    format!("({pred}) OR 1 = 0")
}

/// Rows of `sql(pred)` and of `sql(nested_only(pred))`.
fn both_ways(
    db: &Database,
    pred: &str,
    sql: impl Fn(&str) -> String,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let run = |q: String| {
        run_sql(db, &q).unwrap_or_else(|e| panic!("exec failed: {e:?} for {q}")).rows
    };
    (run(sql(pred)), run(sql(&nested_only(pred))))
}

/// The join work `sql` charged (`engine.exec.join_rows`).
fn join_rows(db: &Database, sql: &str) -> u64 {
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    {
        let _scope = snails_obs::scope(&ctx);
        run_sql(db, sql).unwrap_or_else(|e| panic!("exec failed: {e:?} for {sql}"));
    }
    ctx.report().metrics.histogram("engine.exec.join_rows").expect("join rows observed").sum
}

proptest! {
    #[test]
    fn hash_join_is_order_identical_to_nested_loop(
        left in rows_strategy(),
        right in rows_strategy(),
        pi in 0usize..PREDICATES.len(),
        ki in 0usize..KINDS.len(),
    ) {
        let db = build_db(&left, &right);
        let sql = |on: &str| format!("SELECT l.id, r.id, l.k, r.k FROM l {} r ON {on}", KINDS[ki]);
        let (hash, nested) = both_ways(&db, PREDICATES[pi], sql);
        prop_assert_eq!(hash, nested, "{} ON {}", KINDS[ki], PREDICATES[pi]);
    }

    #[test]
    fn aggregation_over_joins_is_unaffected(
        left in rows_strategy(),
        right in rows_strategy(),
        ki in 0usize..KINDS.len(),
    ) {
        // Typed group keys + hash join feeding GROUP BY / DISTINCT.
        let db = build_db(&left, &right);
        let kind = KINDS[ki];
        let grouped = |on: &str| {
            format!("SELECT l.g, COUNT(*) FROM l {kind} r ON {on} GROUP BY l.g ORDER BY l.g")
        };
        let distinct = |on: &str| format!("SELECT DISTINCT l.g, r.g FROM l {kind} r ON {on}");
        let (hash, nested) = both_ways(&db, "l.k = r.k", grouped);
        prop_assert_eq!(hash, nested, "grouped {}", kind);
        let (hash, nested) = both_ways(&db, "l.k = r.k", distinct);
        prop_assert_eq!(hash, nested, "distinct {}", kind);
    }
}

#[test]
fn null_keys_never_match_each_other() {
    let left = vec![(None, 0), (Some(1), 0)];
    let right = vec![(None, 0), (Some(1), 0), (None, 1)];
    let db = build_db(&left, &right);
    for on in ["l.k = r.k".to_owned(), nested_only("l.k = r.k")] {
        let rs = run_sql(&db, &format!("SELECT l.id, r.id FROM l JOIN r ON {on}")).unwrap();
        // Only the 1=1 pairing survives; the NULL keys pair with nothing.
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(1)]], "ON {on}");
    }
}

#[test]
fn null_keyed_rows_still_pad_in_outer_joins() {
    let left = vec![(None, 0)];
    let right = vec![(Some(2), 0)];
    let db = build_db(&left, &right);
    let sql = |on: &str| format!("SELECT l.id, r.id FROM l FULL JOIN r ON {on}");
    let (hash, nested) = both_ways(&db, "l.k = r.k", sql);
    assert_eq!(hash, nested);
    // The NULL-keyed left row and the unmatched right row both appear.
    assert_eq!(
        hash,
        vec![
            vec![Value::Int(0), Value::Null],
            vec![Value::Null, Value::Int(0)],
        ]
    );
}

#[test]
fn composite_keys_require_every_component_to_match() {
    let left = vec![(Some(1), 1), (Some(1), 2)];
    let right = vec![(Some(1), 1), (Some(1), 3)];
    let db = build_db(&left, &right);
    let sql = |on: &str| format!("SELECT l.id, r.id FROM l JOIN r ON {on}");
    let (hash, nested) = both_ways(&db, "l.k = r.k AND l.g = r.g", sql);
    assert_eq!(hash, nested);
    assert_eq!(hash, vec![vec![Value::Int(0), Value::Int(0)]]);
}

#[test]
fn nested_reference_still_answers_three_way_joins() {
    // Sanity: a query with two join steps gives one answer whichever
    // kernel runs the first step, while the second step stays on the
    // nested loop either way.
    let left = vec![(Some(1), 0), (Some(2), 1)];
    let right = vec![(Some(1), 0), (Some(2), 0)];
    let mut db = build_db(&left, &right);
    db.create_table(TableSchema::new("s").column("k", DataType::Int));
    db.insert("s", vec![Value::Int(1)]).unwrap();
    let sql = |on: &str| {
        format!("SELECT l.id, r.id FROM l JOIN r ON {on} JOIN s ON s.k = l.k AND s.k < r.k + 1")
    };
    let (hash, nested) = both_ways(&db, "l.k = r.k", sql);
    assert_eq!(hash, nested);
    assert_eq!(hash, vec![vec![Value::Int(0), Value::Int(0)]]);
}

#[test]
fn rewritten_predicate_runs_the_nested_loop() {
    // The reference must really leave the hash path: the nested loop
    // charges |L|·|R| join rows, the hash join |R| to build plus
    // 1 + hits per probe row.
    let left = vec![(Some(1), 0), (Some(2), 0), (None, 1)];
    let right = vec![(Some(1), 0), (Some(1), 1), (Some(3), 0), (None, 2)];
    let db = build_db(&left, &right);
    let sql = |on: &str| format!("SELECT l.id, r.id FROM l JOIN r ON {on}");
    assert_eq!(join_rows(&db, &sql("l.k = r.k")), 4 + (1 + 2) + 1 + 1);
    assert_eq!(join_rows(&db, &sql(&nested_only("l.k = r.k"))), 3 * 4);
    let (hash, nested) = both_ways(&db, "l.k = r.k", sql);
    assert_eq!(hash, nested);
    assert_eq!(
        hash,
        vec![vec![Value::Int(0), Value::Int(0)], vec![Value::Int(0), Value::Int(1)]]
    );
}
