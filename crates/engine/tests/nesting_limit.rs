//! Depth-bounded SQL end to end: a statement nesting exactly
//! `snails_sql::MAX_DEPTH` levels — through parentheses, nested
//! subqueries, a unary chain, or a left-deep operator chain — parses,
//! compiles and executes through both the interpreter (`run_sql`) and the
//! plan cache on a thread with a 2 MiB stack, the size the serve workers
//! get. One level deeper, every entry point returns the typed parse error
//! instead of overflowing the stack.

use snails_engine::{
    run_sql, run_sql_with, DataType, Database, EngineError, ExecLimits, ExecOptions, PlanCache,
    TableSchema, Value,
};
use snails_sql::{ParseErrorKind, MAX_DEPTH};

const WORKER_STACK: usize = 2 << 20;

/// One statement per shape, each `levels` deep.
fn shapes(levels: usize) -> [(&'static str, String); 4] {
    [
        (
            "parentheses",
            format!("SELECT {}1{}", "(".repeat(levels), ")".repeat(levels)),
        ),
        (
            "subqueries",
            format!(
                "SELECT {}id FROM t{}",
                "(SELECT ".repeat(levels),
                ")".repeat(levels)
            ),
        ),
        (
            "unary chain",
            format!("SELECT {}id FROM t", "- ".repeat(levels)),
        ),
        (
            "operator chain",
            format!("SELECT id{} FROM t", " + 1".repeat(levels)),
        ),
    ]
}

fn fixture() -> Database {
    let mut db = Database::new("deep");
    db.create_table(TableSchema::new("t").column("id", DataType::Int));
    db.insert("t", vec![Value::Int(7)]).unwrap();
    db
}

fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn statements_at_the_limit_run_on_a_worker_stack() {
    on_worker_stack(|| {
        let db = fixture();
        for (shape, sql) in shapes(MAX_DEPTH) {
            snails_sql::parse(&sql).unwrap_or_else(|e| panic!("{shape}: {e}"));
            let interpreted = run_sql(&db, &sql).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert_eq!(interpreted.row_count(), 1, "{shape}");
            let cache = PlanCache::new();
            assert_eq!(
                cache.run(&db, &sql, ExecOptions::default()),
                Ok(interpreted.clone()),
                "{shape}"
            );
            // The served path: guarded budgets (which may refuse the
            // nested subqueries by their own typed error) agree too.
            let guarded = ExecOptions {
                limits: ExecLimits::guarded(),
                ..Default::default()
            };
            assert_eq!(
                cache.run(&db, &sql, guarded),
                run_sql_with(&db, &sql, guarded),
                "{shape}"
            );
        }
    });
}

#[test]
fn one_level_deeper_is_a_typed_parse_error() {
    on_worker_stack(|| {
        let db = fixture();
        for (shape, sql) in shapes(MAX_DEPTH + 1) {
            let err = snails_sql::parse(&sql).expect_err(shape);
            assert_eq!(err.kind, ParseErrorKind::TooDeep, "{shape}");
            let parse_err = EngineError::from_parse(err);
            assert_eq!(run_sql(&db, &sql), Err(parse_err.clone()), "{shape}");
            let cache = PlanCache::new();
            assert_eq!(
                cache.run(&db, &sql, ExecOptions::default()),
                Err(parse_err),
                "{shape}"
            );
        }
    });
}
