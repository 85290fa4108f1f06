#![warn(missing_docs)]

//! # snails-engine
//!
//! An in-memory relational engine — the MS SQL Server substitute for the
//! SNAILS benchmark. The paper executes gold and predicted queries against
//! SQL Server instances of nine real-world databases and compares result
//! sets; this crate provides the same service for the synthetic SNAILS
//! database instances generated by `snails-data`.
//!
//! Supported surface (everything the 503 gold queries and the simulated
//! models emit — the Table 3 clause inventory):
//!
//! * `SELECT [TOP n] [DISTINCT] items FROM src [JOIN ... ON ...]*`
//! * `WHERE` / `GROUP BY` / `HAVING` / `ORDER BY ... [DESC]`
//! * inner / left / right / cross joins, composite-key `ON` predicates
//! * aggregates `COUNT(*/expr/DISTINCT expr)`, `SUM`, `AVG`, `MIN`, `MAX`
//! * scalar functions `YEAR`, `UPPER`, `LOWER`, `LEN`, `ABS`, `ROUND`
//! * correlated and uncorrelated subqueries: scalar, `IN`, `EXISTS`
//! * derived tables, aliases, schema-qualified names, `CREATE VIEW`
//!   (natural views, §6 / appendix H)
//!
//! # Execution paths
//!
//! Compiled plans ([`compile`], [`PlanCache`]) are the only production
//! path: gold and predicted SQL in the benchmark grid, serve `Sql` and
//! `Ask` requests, and `snails sql` all run through
//! [`CompiledPlan::execute`]. One block loop ([`vector`]) runs every query
//! block of a plan — the top level, derived tables and views, `UNION`
//! arms, and correlated and uncorrelated subqueries — as a fused
//! vectorized pipeline over each table's dictionary-encoded columnar
//! mirror: scans are refcount bumps, `WHERE` emits a selection vector
//! straight into the block tail, equi-key joins build and probe over row
//! ids, and rows materialize only at the final projection.
//!
//! What the vector kernels cannot prove error-free (a subquery, an
//! outer-row reference, a frozen plan-time error, a row-level kernel
//! error) bails out with `Unvec` to the row-at-a-time fallbacks of the
//! per-execution plan `Runner` — scalar evaluation and the block tail —
//! which evaluate under the enclosing row and reproduce the interpreter's
//! results, errors, and budget charges byte for byte; non-equi and cross
//! joins run its nested loop. Every equi join runs the one vectorized
//! build/probe: a side whose keys the kernels abort on evaluates them row
//! by row through the runner's scalar evaluation, and a key that raises
//! surfaces at the interpreter's charge. Compiled plans thus have one hash
//! join, one nested loop and one block finish. The runner runs no block
//! itself.
//!
//! The AST interpreter ([`execute_with`], behind [`run_sql`] and
//! [`run_sql_with`]) is the differential-testing oracle. Only tests,
//! `snails bench` and the frozen benchmark under `perfbench/` reach it:
//! the equivalence suites under `tests/` compare compiled plans against
//! it, and the benchmarks use it as their independent reference.

pub mod batch;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod plan;
pub mod result;
pub mod value;
pub mod vector;

pub use catalog::{Column, Database, Table, TableSchema, ViewDef};
pub use error::EngineError;
pub use exec::{
    adaptive_batch_size, apply_ddl, execute, execute_with, ExecLimits, ExecOptions,
    MAX_BATCH_SIZE, MIN_BATCH_SIZE,
};
pub use plan::{compile, CompiledPlan, PlanCache};
pub use result::ResultSet;
pub use value::{ArithOp, DataType, HashKey, Value};

/// Parse and execute `sql` against `db`.
pub fn run_sql(db: &Database, sql: &str) -> Result<ResultSet, EngineError> {
    run_sql_with(db, sql, ExecOptions::default())
}

/// Parse and execute `sql` against `db` with explicit [`ExecOptions`].
pub fn run_sql_with(
    db: &Database,
    sql: &str,
    opts: ExecOptions,
) -> Result<ResultSet, EngineError> {
    let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
    execute_with(db, &stmt, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let mut db = Database::new("demo");
        db.create_table(
            TableSchema::new("t")
                .column("id", DataType::Int)
                .column("name", DataType::Varchar),
        );
        db.insert("t", vec![Value::Int(1), Value::from("a")]).unwrap();
        db.insert("t", vec![Value::Int(2), Value::from("b")]).unwrap();
        let rs = run_sql(&db, "SELECT name FROM t WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("b")]]);
    }

    #[test]
    fn parse_errors_surface() {
        let db = Database::new("demo");
        assert!(matches!(
            run_sql(&db, "SELEC nothing"),
            Err(EngineError::Parse { .. })
        ));
    }
}
