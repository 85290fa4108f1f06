//! Three-valued-logic regression suite: NULL handling through WHERE,
//! HAVING (with AND/OR connectives), and aggregates over all-NULL groups —
//! asserted against explicit expected rows, on both the interpreter and
//! the compiled-plan path (which must stay byte-identical to each other).

use snails_engine::{
    run_sql_with, DataType, Database, ExecOptions, PlanCache, TableSchema, Value,
};

/// One `orders` row: `(id, cust, amount, note)`, `None` for NULL.
type OrderRow = (i64, Option<&'static str>, Option<i64>, Option<&'static str>);

/// `orders`: customer groups with controlled NULL patterns.
///
/// | id | cust  | amount | note    |
/// |----|-------|--------|---------|
/// | 1  | "a"   | 10     | "x"     |
/// | 2  | "a"   | NULL   | NULL    |
/// | 3  | "b"   | NULL   | NULL    |
/// | 4  | "b"   | NULL   | NULL    |
/// | 5  | "c"   | 5      | "y"     |
/// | 6  | "c"   | 40     | NULL    |
/// | 7  | NULL  | 7      | "z"     |
fn fixture() -> Database {
    let mut db = Database::new("nulls");
    db.create_table(
        TableSchema::new("orders")
            .column("id", DataType::Int)
            .column("cust", DataType::Varchar)
            .column("amount", DataType::Int)
            .column("note", DataType::Varchar),
    );
    let rows: [OrderRow; 7] = [
        (1, Some("a"), Some(10), Some("x")),
        (2, Some("a"), None, None),
        (3, Some("b"), None, None),
        (4, Some("b"), None, None),
        (5, Some("c"), Some(5), Some("y")),
        (6, Some("c"), Some(40), None),
        (7, None, Some(7), Some("z")),
    ];
    for (id, cust, amount, note) in rows {
        let opt_str = |v: Option<&str>| v.map_or(Value::Null, Value::from);
        let opt_int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        db.insert(
            "orders",
            vec![Value::Int(id), opt_str(cust), opt_int(amount), opt_str(note)],
        )
        .unwrap();
    }
    db
}

/// Render a result set to one canonical line per row, so every case's
/// expectation is a plain string table.
fn render(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Null => "∅".to_string(),
                    other => format!("{other}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

struct Case {
    name: &'static str,
    sql: &'static str,
    expected: &'static [&'static str],
}

const CASES: &[Case] = &[
    // -- WHERE: comparisons against NULL are UNKNOWN, never true ----------
    Case {
        name: "where_eq_null_matches_nothing",
        sql: "SELECT id FROM orders WHERE amount = NULL ORDER BY id",
        expected: &[],
    },
    Case {
        name: "where_neq_null_matches_nothing",
        sql: "SELECT id FROM orders WHERE amount <> NULL ORDER BY id",
        expected: &[],
    },
    Case {
        name: "where_comparison_skips_null_operands",
        sql: "SELECT id FROM orders WHERE amount > 6 ORDER BY id",
        expected: &["1", "6", "7"],
    },
    Case {
        name: "where_is_null",
        sql: "SELECT id FROM orders WHERE amount IS NULL ORDER BY id",
        expected: &["2", "3", "4"],
    },
    Case {
        name: "where_is_not_null",
        sql: "SELECT id FROM orders WHERE amount IS NOT NULL ORDER BY id",
        expected: &["1", "5", "6", "7"],
    },
    // UNKNOWN OR TRUE = TRUE: a NULL operand must not poison the row.
    Case {
        name: "where_unknown_or_true_keeps_row",
        sql: "SELECT id FROM orders WHERE amount > 100 OR id = 2 ORDER BY id",
        expected: &["2"],
    },
    // UNKNOWN AND FALSE = FALSE, UNKNOWN AND TRUE = UNKNOWN (row dropped).
    Case {
        name: "where_unknown_and_true_drops_row",
        sql: "SELECT id FROM orders WHERE amount > 0 AND id = 2 ORDER BY id",
        expected: &[],
    },
    Case {
        name: "where_not_of_unknown_stays_unknown",
        sql: "SELECT id FROM orders WHERE NOT (amount > 0) ORDER BY id",
        expected: &[],
    },
    // -- Aggregates over groups containing (or made of) NULLs -------------
    // COUNT(col) skips NULLs; COUNT(*) does not; SUM/MIN/MAX/AVG of an
    // all-NULL group are NULL; group "b" is entirely NULL amounts.
    Case {
        name: "aggregates_over_all_null_group",
        sql: "SELECT cust, COUNT(*), COUNT(amount), SUM(amount), MIN(amount), \
              MAX(amount) FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              ORDER BY cust",
        expected: &["a|2|1|10|10|10", "b|2|0|∅|∅|∅", "c|2|2|45|5|40"],
    },
    Case {
        name: "avg_of_all_null_group_is_null",
        sql: "SELECT cust, AVG(amount) FROM orders WHERE cust IS NOT NULL \
              GROUP BY cust ORDER BY cust",
        expected: &["a|10", "b|∅", "c|22.5"],
    },
    // NULL group keys form their own group.
    Case {
        name: "null_group_key_groups_together",
        sql: "SELECT cust, COUNT(*) FROM orders GROUP BY cust ORDER BY cust",
        expected: &["∅|1", "a|2", "b|2", "c|2"],
    },
    // -- HAVING with AND/OR over aggregate UNKNOWNs -----------------------
    // SUM(amount) for "b" is NULL, so `SUM > 0` is UNKNOWN → "b" dropped.
    Case {
        name: "having_unknown_comparison_drops_group",
        sql: "SELECT cust FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              HAVING SUM(amount) > 0 ORDER BY cust",
        expected: &["a", "c"],
    },
    // UNKNOWN OR TRUE = TRUE: "b" survives via the COUNT(*) disjunct.
    Case {
        name: "having_unknown_or_true_keeps_group",
        sql: "SELECT cust FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              HAVING SUM(amount) > 0 OR COUNT(*) = 2 ORDER BY cust",
        expected: &["a", "b", "c"],
    },
    // UNKNOWN AND TRUE = UNKNOWN: "b" dropped despite COUNT(*) = 2.
    Case {
        name: "having_unknown_and_true_drops_group",
        sql: "SELECT cust FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              HAVING SUM(amount) > 0 AND COUNT(*) = 2 ORDER BY cust",
        expected: &["a", "c"],
    },
    // Mixed connectives: (UNKNOWN AND TRUE) OR MAX = 40 keeps only "c";
    // MAX(amount) for "b" is NULL so its disjunct is UNKNOWN too.
    Case {
        name: "having_mixed_and_or",
        sql: "SELECT cust FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              HAVING (SUM(amount) > 20 AND COUNT(*) = 2) OR MAX(amount) = 10 \
              ORDER BY cust",
        expected: &["a", "c"],
    },
    // COUNT over an all-NULL column is 0, not NULL — the comparison is
    // definite and keeps the group.
    Case {
        name: "having_count_of_nulls_is_zero",
        sql: "SELECT cust FROM orders WHERE cust IS NOT NULL GROUP BY cust \
              HAVING COUNT(amount) = 0 ORDER BY cust",
        expected: &["b"],
    },
];

#[test]
fn null_semantics_match_on_both_execution_paths() {
    let db = fixture();
    let opts = ExecOptions::default();
    let cache = PlanCache::new();
    for case in CASES {
        let interpreted =
            run_sql_with(&db, case.sql, opts).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            render(&interpreted.rows),
            case.expected,
            "{}: interpreter disagrees with SQL 3VL",
            case.name
        );
        let compiled =
            cache.run(&db, case.sql, opts).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(compiled, interpreted, "{}: compiled path diverged", case.name);
    }
    // Every case resolved through the shared cache exactly once cold.
    assert_eq!(cache.misses(), CASES.len() as u64);
}
