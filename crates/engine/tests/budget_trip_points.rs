//! Budget trip points with memoized subqueries and hash joins.
//! Uncorrelated `IN`, `EXISTS` and scalar subqueries evaluated once per
//! outer row, and hash joins (one on a key whose `1 / 0` arm never runs,
//! which the vector kernels abort on, so that side evaluates its keys row
//! by row), run under every `max_steps` and every `max_join_rows` from
//! zero to one past what the statement needs, and under no limits at all.
//! The sweep trips a budget during a block's first run, during its 1st,
//! 2nd and k-th replay from the per-execution memo, partway through a join
//! probe, and never. A second sweep runs hash joins whose keys raise — on
//! the probe side, on the build side, on both, under `RIGHT JOIN` where
//! the sides swap, and a composite `FULL JOIN` key whose NULL first
//! component must spare the overflowing second — so each statement trips
//! its budgets before the key error and raises it when unbudgeted. At
//! every budget the interpreter and the compiled plan must agree on the
//! `Debug` bytes of the result or error and on the `engine.exec.steps`,
//! `engine.exec.join_rows` and `engine.limits.exhausted` observations; a
//! compiled run that finishes a statement with an uncorrelated subquery
//! must have replayed it.

use std::collections::BTreeSet;
use std::sync::Arc;

use snails_engine::{
    run_sql_with, DataType, Database, EngineError, ExecLimits, ExecOptions, PlanCache, ResultSet,
    TableSchema, Value,
};
use snails_obs::{ClockMode, HistSnapshot, ObsCtx};

fn fixture() -> Database {
    let mut db = Database::new("budget");
    db.create_table(
        TableSchema::new("t")
            .column("x", DataType::Int)
            .column("g", DataType::Int),
    );
    db.create_table(
        TableSchema::new("u")
            .column("y", DataType::Int)
            .column("g", DataType::Int),
    );
    for i in 0..30i64 {
        db.insert("t", vec![Value::Int(i), Value::Int(i % 5)])
            .unwrap();
    }
    for i in 0..12i64 {
        db.insert("u", vec![Value::Int(i * 3), Value::Int(i % 4)])
            .unwrap();
    }
    db
}

/// `(label, statement, has an uncorrelated subquery)`.
const STATEMENTS: &[(&str, &str, bool)] = &[
    (
        "in",
        "SELECT x FROM t WHERE x IN (SELECT y FROM u WHERE y > 4)",
        true,
    ),
    (
        "exists",
        "SELECT x FROM t WHERE x > 3 AND EXISTS (SELECT y FROM u WHERE y > 20)",
        true,
    ),
    (
        "scalar",
        "SELECT x, (SELECT MAX(y) FROM u WHERE g < 3) AS m FROM t WHERE x < 20",
        true,
    ),
    (
        "join inside the replayed block",
        "SELECT x FROM t WHERE x IN (SELECT a.y FROM u a JOIN u b ON a.g = b.g WHERE b.y > 6)",
        true,
    ),
    (
        "uncorrelated inside correlated",
        "SELECT x FROM t WHERE EXISTS (SELECT y FROM u WHERE u.g = t.g \
         AND y IN (SELECT y FROM u WHERE y > 10))",
        true,
    ),
    (
        "hash join",
        "SELECT t.x, u.y FROM t JOIN u ON t.g = u.g ORDER BY t.x, u.y",
        false,
    ),
    (
        "hash join on generic keys",
        "SELECT t.x, u.y FROM t JOIN u ON t.g = u.g AND u.g = 1 ORDER BY t.x, u.y",
        false,
    ),
    (
        "hash join on keys evaluated row by row",
        "SELECT t.x, u.y FROM t JOIN u ON CASE WHEN t.g >= 0 THEN t.g ELSE 1 / 0 END = u.g \
         ORDER BY t.x, u.y",
        false,
    ),
    (
        "left join then subquery",
        "SELECT t.x, u.y FROM t LEFT JOIN u ON t.g = u.g \
         WHERE t.x IN (SELECT y FROM u WHERE g = 1)",
        true,
    ),
];

/// `(label, statement, the probe side raises)`: hash joins whose keys
/// raise. `t` has 30 rows and `u` 12; the probe side is `t` except under
/// `RIGHT JOIN`. A build-side error is raised right after the build
/// charge, a probe-side error after the charges of the probe rows before
/// it, and a build-side error wins over a probe-side one.
const RAISING: &[(&str, &str, bool)] = &[
    (
        "probe-side key raises",
        "SELECT t.x, u.y FROM t JOIN u ON CASE WHEN t.x < 20 THEN t.g ELSE 1 / 0 END = u.g \
         ORDER BY t.x, u.y",
        true,
    ),
    (
        "build-side key raises",
        "SELECT t.x, u.y FROM t JOIN u ON t.g = CASE WHEN u.y < 20 THEN u.g ELSE 1 / 0 END \
         ORDER BY t.x, u.y",
        false,
    ),
    (
        "right join, left key raises on the build side",
        "SELECT t.x, u.y FROM t RIGHT JOIN u ON CASE WHEN t.x < 20 THEN t.g ELSE 1 / 0 END = u.g \
         ORDER BY t.x, u.y",
        false,
    ),
    (
        "right join, right key raises on the probe side",
        "SELECT t.x, u.y FROM t RIGHT JOIN u ON t.g = CASE WHEN u.y < 20 THEN u.g ELSE 1 / 0 END \
         ORDER BY t.x, u.y",
        true,
    ),
    (
        "left join, both sides raise",
        "SELECT t.x, u.y FROM t LEFT JOIN u \
         ON CASE WHEN t.x < 20 THEN t.g ELSE 1 / 0 END \
          = CASE WHEN u.y < 20 THEN u.g ELSE u.y * 9223372036854775807 END \
         ORDER BY t.x, u.y",
        false,
    ),
    (
        "full join, composite key with a NULL first component",
        "SELECT t.x, u.y FROM t FULL JOIN u \
         ON CASE WHEN t.g < 2 THEN t.g END = u.g AND t.x * 9223372036854775807 = u.y \
         ORDER BY t.x, u.y",
        true,
    ),
];

/// What one execution returned and what it observed.
#[derive(Debug, PartialEq)]
struct Run {
    result: String,
    steps: Option<HistSnapshot>,
    join_rows: Option<HistSnapshot>,
    exhausted: u64,
}

/// Run `f` in a fresh telemetry scope; returns the run, the subquery
/// replays it counted, and whether a budget tripped.
fn observed(f: impl FnOnce() -> Result<ResultSet, EngineError>) -> (Run, u64, bool) {
    let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
    let result = {
        let _scope = snails_obs::scope(&ctx);
        f()
    };
    let report = ctx.report();
    let tripped = matches!(&result, Err(e) if e.is_resource_exhausted());
    let run = Run {
        result: format!("{result:?}"),
        steps: report.metrics.histogram("engine.exec.steps").cloned(),
        join_rows: report.metrics.histogram("engine.exec.join_rows").cloned(),
        exhausted: report.counter("engine.limits.exhausted"),
    };
    (run, report.counter("engine.exec.subquery_replays"), tripped)
}

/// One statement's sweep and where its trips fell.
struct Sweep<'a> {
    db: &'a Database,
    plans: PlanCache,
    label: &'a str,
    sql: &'a str,
    memoized: bool,
    /// Join work of the unbudgeted interpreter run.
    total_join: u64,
    /// Replays the compiled runs had absorbed when a budget tripped.
    replays_at_trip: BTreeSet<u64>,
    /// Join work the interpreter had counted when a budget tripped.
    join_at_trip: BTreeSet<u64>,
    /// Budgets under which nothing tripped.
    completed: usize,
}

impl<'a> Sweep<'a> {
    /// Sweep `sql` under no limits, every step budget and every join
    /// budget from zero to one past what the unbudgeted interpreter run
    /// charged, and both budgets exactly that large. Returns the
    /// unbudgeted interpreter run and the sweep.
    fn run(db: &'a Database, label: &'a str, sql: &'a str, memoized: bool) -> (Run, Sweep<'a>) {
        let (full, _, tripped) = observed(|| run_sql_with(db, sql, ExecOptions::default()));
        assert!(
            !tripped,
            "{label}: the default limits tripped: {}",
            full.result
        );
        let total_steps = full.steps.as_ref().expect("steps observed").sum;
        let total_join = full.join_rows.as_ref().map_or(0, |h| h.sum);
        let mut sweep = Sweep {
            db,
            plans: PlanCache::new(),
            label,
            sql,
            memoized,
            total_join,
            replays_at_trip: BTreeSet::new(),
            join_at_trip: BTreeSet::new(),
            completed: 0,
        };
        sweep.check(ExecLimits::UNLIMITED);
        for budget in 0..=total_steps + 1 {
            sweep.check(ExecLimits {
                max_steps: Some(budget),
                ..Default::default()
            });
        }
        for budget in 0..=total_join + 1 {
            sweep.check(ExecLimits {
                max_join_rows: Some(budget),
                ..Default::default()
            });
        }
        // Both budgets finite and exactly large enough.
        sweep.check(ExecLimits {
            max_steps: Some(total_steps),
            max_join_rows: Some(total_join),
            ..ExecLimits::guarded()
        });
        // UNLIMITED, the exact pair, and the last two budgets of each
        // sweep fit; every smaller budget trips.
        assert_eq!(sweep.completed, 6, "{label}: a budget that fits tripped");
        (full, sweep)
    }

    /// Run the statement under `limits` through the interpreter and the
    /// compiled plan, and compare.
    fn check(&mut self, limits: ExecLimits) {
        let (db, sql, label) = (self.db, self.sql, self.label);
        let opts = ExecOptions {
            limits,
            ..Default::default()
        };
        let (oracle, oracle_replays, tripped) = observed(|| run_sql_with(db, sql, opts));
        assert_eq!(oracle_replays, 0, "{label}: the interpreter has no memo");
        let (run, replays, _) = observed(|| self.plans.run(db, sql, opts));
        assert_eq!(run, oracle, "{label} under {limits:?}");
        if tripped {
            self.replays_at_trip.insert(replays);
        } else if self.memoized {
            assert!(replays > 0, "{label} under {limits:?}: no subquery replay");
        }
        if tripped {
            self.join_at_trip
                .insert(oracle.join_rows.as_ref().map_or(0, |h| h.sum));
        } else {
            self.completed += 1;
        }
    }

    /// Assert that some budget tripped partway through the join probe:
    /// the build side trips at one count, the probe at many.
    fn assert_trips_inside_the_probe(&self) {
        let inside: Vec<_> = self.join_at_trip.range(1..self.total_join).collect();
        assert!(
            inside.len() >= 3,
            "{}: no trip fell partway through a probe: {inside:?}",
            self.label
        );
    }
}

#[test]
fn every_budget_trips_at_the_interpreters_point() {
    let db = fixture();
    for &(label, sql, memoized) in STATEMENTS {
        let (full, sweep) = Sweep::run(&db, label, sql, memoized);
        assert!(full.result.starts_with("Ok("), "{label}: {}", full.result);
        if memoized {
            let at = &sweep.replays_at_trip;
            assert!(
                at.contains(&0) && at.contains(&1) && at.contains(&2) && at.range(3..).next().is_some(),
                "{label}: trips must fall in the first run and the 1st, 2nd and k-th replay, got {at:?}"
            );
        }
        if sweep.total_join > 0 {
            sweep.assert_trips_inside_the_probe();
        }
    }
}

#[test]
fn join_keys_that_raise_trip_and_raise_at_the_interpreters_point() {
    let db = fixture();
    for &(label, sql, probe_raises) in RAISING {
        let (full, sweep) = Sweep::run(&db, label, sql, false);
        assert!(
            full.result.starts_with("Err(TypeError"),
            "{label} must raise unbudgeted: {}",
            full.result
        );
        assert!(!sweep.join_at_trip.is_empty(), "{label}: no budget tripped");
        if probe_raises {
            sweep.assert_trips_inside_the_probe();
        }
    }
}
