//! Query execution.
//!
//! Volcano-style would be overkill for the SNAILS instances (small tables, a
//! few thousand rows); the executor fully materializes each stage:
//! FROM/JOIN → WHERE → GROUP/HAVING → projection → DISTINCT → ORDER BY → TOP.
//! Correlated subqueries are supported through a lexical scope chain.

use crate::catalog::Database;
use crate::error::EngineError;
use crate::result::ResultSet;
use crate::value::{ArithOp, HashKey, Value};
use snails_obs::Metric as Obs;
use snails_sql::{
    BinOp, ColumnRef, Expr, FunctionArg, JoinKind, SelectItem, SelectStatement, Statement,
    TableSource, UnaryOp,
};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Resource budgets for one statement execution.
///
/// Every field defaults to `None` (unlimited), so gold queries and existing
/// callers are unaffected. The benchmark pipeline runs *predicted* queries —
/// untrusted model output — under [`ExecLimits::guarded`] so a hostile plan
/// (an unconstrained cross join, a runaway correlated subquery) degrades to
/// [`EngineError::ResourceExhausted`] instead of hanging a worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum rows in any result set produced by a query block.
    pub max_output_rows: Option<u64>,
    /// Budget on join work: rows built/probed by the hash join and inner-loop
    /// iterations of the nested loop, summed over all joins in the statement.
    pub max_join_rows: Option<u64>,
    /// Maximum nesting depth of query blocks (subqueries, derived tables,
    /// view expansions all count).
    pub max_subquery_depth: Option<u32>,
    /// Cooperative step budget: rows materialized, filtered, grouped, or
    /// projected, summed over the whole statement.
    pub max_steps: Option<u64>,
}

impl ExecLimits {
    /// No limits — the default; identical to pre-limit behavior.
    pub const UNLIMITED: ExecLimits = ExecLimits {
        max_output_rows: None,
        max_join_rows: None,
        max_subquery_depth: None,
        max_steps: None,
    };

    /// Generous defensive budgets for untrusted (model-predicted) queries.
    /// Orders of magnitude above anything a gold query needs on the SNAILS
    /// databases, but small enough to stop a cross-join bomb in well under a
    /// second.
    pub const fn guarded() -> ExecLimits {
        ExecLimits {
            max_output_rows: Some(100_000),
            max_join_rows: Some(20_000_000),
            max_subquery_depth: Some(24),
            max_steps: Some(50_000_000),
        }
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Batch granularity (rows per batch) for compiled plans
    /// ([`crate::plan::CompiledPlan::execute`]); the AST interpreter
    /// ([`execute_with`]) ignores it. Purely a blocking factor: results are identical for any value ≥ 1
    /// (values below 1 are clamped). `None` — the default — picks the
    /// size per query block from the block's live column width via
    /// [`adaptive_batch_size`], so a batch's working set fits in L2
    /// regardless of how wide the combined row is; `Some(n)` forces `n`
    /// (the batch-boundary equivalence tests use this).
    pub batch_size: Option<usize>,
    /// Ignored: no code reads it. It selected the cost-based planner,
    /// which has been removed; the field remains only so existing callers
    /// that still set it keep building.
    pub optimize: bool,
    /// Resource budgets; [`ExecLimits::UNLIMITED`] by default.
    pub limits: ExecLimits,
}

/// Bounds of the adaptive batch-size policy. The floor keeps per-batch
/// dispatch amortized; the ceiling keeps even a one-column pipeline's
/// working set comfortably inside L2.
pub const MIN_BATCH_SIZE: usize = 256;
/// Upper bound of [`adaptive_batch_size`]; see [`MIN_BATCH_SIZE`].
pub const MAX_BATCH_SIZE: usize = 4096;

/// Rows-per-batch working-set budget: roughly half a typical 256 KiB L2,
/// leaving the other half for the dictionaries, hash tables, and output
/// buffers a pipeline touches alongside its batch-sized scratch columns.
const BATCH_L2_BUDGET: usize = 128 * 1024;

/// Pick a batch size for a pipeline whose combined row spans `width` live
/// columns, so the batch's working set — a handful of evaluated scratch
/// columns plus a selection vector, each ~8–16 bytes per row per live
/// column — fits the L2 budget. Pure function of `width` (never of data,
/// threads, or prior statements), so every batch-count telemetry key stays
/// byte-identical across thread counts. Power-of-two result clamped to
/// [`MIN_BATCH_SIZE`]..=[`MAX_BATCH_SIZE`]; the measured sweep behind the
/// constants is in DESIGN.md §5 and §10.
pub fn adaptive_batch_size(width: usize) -> usize {
    // ~24 bytes of scratch per row per live column (value + validity +
    // selection/key share), plus fixed per-row overhead.
    let per_row = 24 * width.max(1) + 16;
    let raw = (BATCH_L2_BUDGET / per_row).max(1);
    // Round *down* to a power of two: overshooting the budget is the
    // failure mode the sweep caught (1024 slower than 256).
    let pow2 = if raw.is_power_of_two() { raw } else { raw.next_power_of_two() / 2 };
    pow2.clamp(MIN_BATCH_SIZE, MAX_BATCH_SIZE)
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            batch_size: None,
            optimize: true,
            limits: ExecLimits::UNLIMITED,
        }
    }
}

/// Execute a statement against `db`.
///
/// `CREATE VIEW` requires mutation; use [`apply_ddl`] for that. `execute`
/// returns an error for DDL to keep the read path `&Database`.
pub fn execute(db: &Database, stmt: &Statement) -> Result<ResultSet, EngineError> {
    execute_with(db, stmt, ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`].
pub fn execute_with(
    db: &Database,
    stmt: &Statement,
    opts: ExecOptions,
) -> Result<ResultSet, EngineError> {
    match stmt {
        Statement::Select(s) => {
            let exec = Executor::new(db, opts);
            let result = exec.select(s, None);
            record_statement(&exec.meter, &result);
            result
        }
        Statement::CreateView { .. } => Err(EngineError::unsupported(
            "CREATE VIEW requires apply_ddl (mutable database)",
        )),
    }
}

/// Apply a DDL statement (currently `CREATE VIEW`) to `db`.
pub fn apply_ddl(db: &mut Database, stmt: &Statement) -> Result<(), EngineError> {
    match stmt {
        Statement::CreateView { schema, name, query } => {
            db.create_view(crate::catalog::ViewDef {
                schema: schema.clone(),
                name: name.clone(),
                query: query.clone(),
            });
            Ok(())
        }
        Statement::Select(_) => Err(EngineError::unsupported("apply_ddl expects DDL")),
    }
}

/// One named relation in scope: binding name plus its column names.
/// Shared with the compile-once planner (`crate::plan`), which resolves
/// column references against the same structure at plan time.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub(crate) name: String,
    pub(crate) columns: Vec<String>,
}

/// The bindings of one `FROM`/`JOIN` block and its accumulated rows.
#[derive(Debug, Clone)]
struct RowSet {
    bindings: Vec<Binding>,
    rows: Vec<Vec<Value>>,
    width: usize,
}

impl RowSet {
    fn empty() -> Self {
        RowSet { bindings: Vec::new(), rows: vec![Vec::new()], width: 0 }
    }
}

/// Lexical scope for expression evaluation: the bindings and current row of
/// the innermost query block, with a pointer to the enclosing block.
#[derive(Clone, Copy)]
struct Scope<'a> {
    bindings: &'a [Binding],
    row: &'a [Value],
    parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolve a column reference to its value.
    fn resolve(&self, col: &ColumnRef) -> Result<Value, EngineError> {
        if let Some(q) = &col.qualifier {
            let mut offset = 0usize;
            for b in self.bindings {
                if b.name.eq_ignore_ascii_case(q) {
                    if let Some(i) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(&col.name)) {
                        return Ok(self.row[offset + i].clone());
                    }
                    // Qualifier matched but column missing: do not fall
                    // through to the parent with the same qualifier unless
                    // the parent also binds it.
                    break;
                }
                offset += b.columns.len();
            }
            if let Some(p) = self.parent {
                return p.resolve(col);
            }
            return Err(EngineError::UnknownColumn { name: format!("{q}.{}", col.name) });
        }
        // Unqualified: search all bindings at this level.
        let mut found: Option<usize> = None;
        let mut offset = 0usize;
        for b in self.bindings {
            if let Some(i) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(&col.name)) {
                if found.is_some() {
                    return Err(EngineError::AmbiguousColumn { name: col.name.clone() });
                }
                found = Some(offset + i);
            }
            offset += b.columns.len();
        }
        if let Some(i) = found {
            return Ok(self.row[i].clone());
        }
        if let Some(p) = self.parent {
            return p.resolve(col);
        }
        Err(EngineError::UnknownColumn { name: col.name.clone() })
    }
}

/// Truthiness under SQL three-valued logic.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(n) => Some(*n != 0),
        Value::Float(x) => Some(*x != 0.0),
        Value::Str(_) => Some(true),
    }
}

pub(crate) fn bool_value(b: Option<bool>) -> Value {
    match b {
        None => Value::Null,
        Some(true) => Value::Int(1),
        Some(false) => Value::Int(0),
    }
}

const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX"];

pub(crate) fn is_aggregate_name(name: &str) -> bool {
    AGGREGATES.contains(&name)
}

/// True when `e` contains an aggregate call at this query level (does not
/// descend into subqueries).
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args, .. } => {
            if is_aggregate_name(name) {
                return true;
            }
            args.iter().any(|a| match a {
                FunctionArg::Expr(e) => contains_aggregate(e),
                FunctionArg::Wildcard => false,
            })
        }
        Expr::Subquery(_) | Expr::Exists { .. } | Expr::InSubquery { .. } => false,
        _ => {
            let mut found = false;
            e.visit_children(&mut |c| found |= contains_aggregate(c));
            found
        }
    }
}

/// Which side of a join an expression's columns come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSide {
    Left,
    Right,
}

/// Static classification of an `ON`-predicate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SideClass {
    /// No column references — evaluates the same in any row scope.
    Constant,
    /// Every column reference resolves inside this one side.
    One(JoinSide),
    /// Mixed sides, or a construct the static analysis cannot see through
    /// (subqueries, aggregates, ambiguous or correlated columns).
    Unknown,
}

impl SideClass {
    fn merge(self, other: SideClass) -> SideClass {
        match (self, other) {
            (SideClass::Unknown, _) | (_, SideClass::Unknown) => SideClass::Unknown,
            (SideClass::Constant, s) | (s, SideClass::Constant) => s,
            (SideClass::One(a), SideClass::One(b)) if a == b => SideClass::One(a),
            _ => SideClass::Unknown,
        }
    }
}

/// Statically replicate [`Scope::resolve`] over the combined join bindings:
/// which side would this column read from? `None` when resolution would be
/// ambiguous, correlated (parent scope), or an error — the caller then
/// falls back to the nested loop, which reproduces the exact semantics.
fn column_side(col: &ColumnRef, left: &[Binding], right: &[Binding]) -> Option<JoinSide> {
    let sides = [(JoinSide::Left, left), (JoinSide::Right, right)];
    if let Some(q) = &col.qualifier {
        for (side, bindings) in sides {
            for b in bindings.iter() {
                if b.name.eq_ignore_ascii_case(q) {
                    // `resolve` stops at the first qualifier match; the key
                    // is side-local only when the column lives there.
                    return b
                        .columns
                        .iter()
                        .any(|c| c.eq_ignore_ascii_case(&col.name))
                        .then_some(side);
                }
            }
        }
        None
    } else {
        let mut found = None;
        for (side, bindings) in sides {
            for b in bindings.iter() {
                if b.columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name)) {
                    if found.is_some() {
                        return None; // ambiguous — let the nested loop report it
                    }
                    found = Some(side);
                }
            }
        }
        found
    }
}

/// Classify which join side `e` reads from.
fn expr_side(e: &Expr, left: &[Binding], right: &[Binding]) -> SideClass {
    match e {
        Expr::Column(c) => match column_side(c, left, right) {
            Some(side) => SideClass::One(side),
            None => SideClass::Unknown,
        },
        Expr::Subquery(_) | Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::Wildcard => {
            SideClass::Unknown
        }
        Expr::Function { name, .. } if is_aggregate_name(name) => SideClass::Unknown,
        Expr::Function { args, .. }
            if args.iter().any(|a| matches!(a, FunctionArg::Wildcard)) =>
        {
            SideClass::Unknown
        }
        _ => {
            let mut acc = SideClass::Constant;
            e.visit_children(&mut |c| acc = acc.merge(expr_side(c, left, right)));
            acc
        }
    }
}

/// Split an `AND` tree into its conjuncts.
fn flatten_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        flatten_conjuncts(left, out);
        flatten_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Extract hash-join key pairs from an `ON` predicate: every `AND` conjunct
/// must be an equality with one operand readable from each side (a constant
/// operand joins whichever side the other operand is not). Anything else —
/// a non-equality conjunct, a same-side equality, OR at the top level, a
/// subquery — returns `None` and the whole join stays on the nested loop,
/// so filters and error cases keep their exact serial semantics.
///
/// Operates on binding lists (not row sets) so the planner can run the same
/// classification at compile time and reach the identical hash/nested
/// decision the interpreter reaches per execution.
pub(crate) fn equi_join_keys<'e>(
    pred: &'e Expr,
    left: &[Binding],
    right: &[Binding],
) -> Option<Vec<(&'e Expr, &'e Expr)>> {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(pred, &mut conjuncts);
    let mut keys = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let Expr::Binary { left: a, op: BinOp::Eq, right: b } = c else {
            return None;
        };
        use JoinSide::{Left, Right};
        use SideClass::{Constant, One};
        let pair = match (expr_side(a, left, right), expr_side(b, left, right)) {
            (One(Left), One(Right) | Constant) | (Constant, One(Right)) => (&**a, &**b),
            (One(Right), One(Left) | Constant) | (Constant, One(Left)) => (&**b, &**a),
            _ => return None,
        };
        keys.push(pair);
    }
    Some(keys)
}

/// Shared [`ExecLimits`] accounting, used identically by the AST
/// interpreter ([`Executor`]) and the compiled-plan runner
/// (`crate::plan`). Keeping the charge arithmetic in one place is what
/// makes the two paths' `ResourceExhausted` behavior byte-identical: the
/// same budgets, the same saturating counters, the same error messages.
pub(crate) struct Meter {
    limits: ExecLimits,
    /// Cooperative step counter (rows materialized/filtered/grouped),
    /// shared across subquery recursion — hence interior mutability.
    steps: Cell<u64>,
    /// Join work counter (build/probe rows, nested-loop iterations).
    join_rows: Cell<u64>,
    /// Current query-block nesting depth.
    depth: Cell<u32>,
}

impl Meter {
    pub(crate) fn new(limits: ExecLimits) -> Self {
        Meter {
            limits,
            steps: Cell::new(0),
            join_rows: Cell::new(0),
            depth: Cell::new(0),
        }
    }

    /// Charge `n` units against the cooperative step budget.
    pub(crate) fn charge_steps(&self, n: u64) -> Result<(), EngineError> {
        let total = self.steps.get().saturating_add(n);
        self.steps.set(total);
        match self.limits.max_steps {
            Some(budget) if total > budget => {
                Err(EngineError::resource_exhausted("step budget", budget))
            }
            _ => Ok(()),
        }
    }

    /// Charge `n` units against the join build/probe budget (also counts
    /// toward the step budget — join work is work).
    pub(crate) fn charge_join(&self, n: u64) -> Result<(), EngineError> {
        let total = self.join_rows.get().saturating_add(n);
        self.join_rows.set(total);
        if let Some(budget) = self.limits.max_join_rows {
            if total > budget {
                return Err(EngineError::resource_exhausted("join row budget", budget));
            }
        }
        self.charge_steps(n)
    }

    /// Charge `steps` and `join_rows` in one all-or-nothing step: both are
    /// added only when neither budget can trip, and the return says
    /// whether they were. Callers replaying work whose real run would
    /// charge exactly these totals use it: the counters only grow, so a
    /// run whose final totals fit could not have tripped midway, and on a
    /// refusal nothing is charged, leaving the caller to run the work for
    /// real and trip where the interpreter does.
    pub(crate) fn try_charge(&self, steps: u64, join_rows: u64) -> bool {
        let steps = self.steps.get().saturating_add(steps);
        let join_rows = self.join_rows.get().saturating_add(join_rows);
        let fits = self.limits.max_steps.is_none_or(|b| steps <= b)
            && self.limits.max_join_rows.is_none_or(|b| join_rows <= b);
        if fits {
            self.steps.set(steps);
            self.join_rows.set(join_rows);
        }
        fits
    }

    /// Enter a query block: enforces the subquery depth budget. On `Err`
    /// the depth counter is untouched, so no unwind is needed.
    pub(crate) fn enter_block(&self) -> Result<(), EngineError> {
        let depth = self.depth.get() + 1;
        if let Some(budget) = self.limits.max_subquery_depth {
            if depth > budget {
                return Err(EngineError::resource_exhausted(
                    "subquery depth budget",
                    u64::from(budget),
                ));
            }
        }
        self.depth.set(depth);
        Ok(())
    }

    /// Leave a query block entered with [`Meter::enter_block`].
    pub(crate) fn exit_block(&self) {
        self.depth.set(self.depth.get() - 1);
    }

    /// Total step budget consumed so far.
    pub(crate) fn steps_used(&self) -> u64 {
        self.steps.get()
    }

    /// Total join budget consumed so far.
    pub(crate) fn join_rows_used(&self) -> u64 {
        self.join_rows.get()
    }
}

/// Record statement-level telemetry after one execution through `meter`
/// (shared by the interpreter and the compiled-plan runner, so both paths
/// report through the identical accounting). No-ops without an installed
/// observability scope.
pub(crate) fn record_statement<T>(meter: &Meter, result: &Result<T, EngineError>) {
    use snails_obs::Metric;
    snails_obs::add(Metric::EngineExecStatements, 1);
    snails_obs::observe(Metric::EngineExecSteps, meter.steps_used());
    snails_obs::observe(Metric::EngineExecJoinRows, meter.join_rows_used());
    if matches!(result, Err(e) if e.is_resource_exhausted()) {
        snails_obs::add(Metric::EngineLimitsExhausted, 1);
    }
}

struct Executor<'a> {
    db: &'a Database,
    opts: ExecOptions,
    meter: Meter,
}

impl<'a> Executor<'a> {
    fn new(db: &'a Database, opts: ExecOptions) -> Self {
        Executor { db, opts, meter: Meter::new(opts.limits) }
    }

    /// Charge `n` units against the cooperative step budget.
    fn charge_steps(&self, n: u64) -> Result<(), EngineError> {
        self.meter.charge_steps(n)
    }

    /// Charge `n` units against the join build/probe budget.
    fn charge_join(&self, n: u64) -> Result<(), EngineError> {
        self.meter.charge_join(n)
    }

    /// Depth-guarded entry point for a query block: enforces the subquery
    /// depth budget and guarantees the depth counter unwinds on error.
    fn select(
        &self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> Result<ResultSet, EngineError> {
        self.meter.enter_block()?;
        let result = self.select_inner(stmt, outer);
        self.meter.exit_block();
        result
    }

    fn select_inner(
        &self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> Result<ResultSet, EngineError> {
        // FROM and JOINs.
        let mut rowset = match &stmt.from {
            Some(src) => self.load_source(src)?,
            None => RowSet::empty(),
        };
        for join in &stmt.joins {
            let right = self.load_source(&join.source)?;
            rowset = self.join(rowset, right, join.kind, join.on.as_ref(), outer)?;
            snails_obs::observe(Obs::EngineOpJoinRows, rowset.rows.len() as u64);
        }

        // WHERE.
        if let Some(pred) = &stmt.where_clause {
            self.charge_steps(rowset.rows.len() as u64)?;
            let mut kept = Vec::new();
            for row in rowset.rows {
                let scope = Scope { bindings: &rowset.bindings, row: &row, parent: outer };
                if truth(&self.eval(pred, &scope)?) == Some(true) {
                    kept.push(row);
                }
            }
            rowset.rows = kept;
            snails_obs::observe(Obs::EngineOpFilterRows, rowset.rows.len() as u64);
        }

        let has_aggregates = stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        }) || stmt.having.as_ref().is_some_and(contains_aggregate)
            || stmt.order_by.iter().any(|o| contains_aggregate(&o.expr));

        let grouped = has_aggregates || !stmt.group_by.is_empty();

        // Output column names.
        let (out_columns, item_exprs) = self.projection_plan(stmt, &rowset)?;

        // Units: each unit is (representative row, group rows) — for
        // ungrouped queries every row is its own unit with a single-row group.
        let units: Vec<(Vec<Value>, Vec<Vec<Value>>)> = if grouped {
            if stmt.group_by.is_empty() {
                // One global group (possibly empty).
                let rep = rowset.rows.first().cloned().unwrap_or_else(|| {
                    vec![Value::Null; rowset.width]
                });
                vec![(rep, rowset.rows.clone())]
            } else {
                // Typed keys; first-appearance order via index indirection.
                self.charge_steps(rowset.rows.len() as u64)?;
                let mut units: Vec<Vec<Vec<Value>>> = Vec::new();
                let mut groups: HashMap<Vec<HashKey>, usize> = HashMap::new();
                for row in &rowset.rows {
                    let scope = Scope { bindings: &rowset.bindings, row, parent: outer };
                    let mut key = Vec::with_capacity(stmt.group_by.len());
                    for g in &stmt.group_by {
                        key.push(self.eval(g, &scope)?.hash_key());
                    }
                    match groups.entry(key) {
                        Entry::Occupied(e) => units[*e.get()].push(row.clone()),
                        Entry::Vacant(e) => {
                            e.insert(units.len());
                            units.push(vec![row.clone()]);
                        }
                    }
                }
                units.into_iter().map(|rows| (rows[0].clone(), rows)).collect()
            }
        } else {
            rowset.rows.iter().map(|r| (r.clone(), vec![r.clone()])).collect()
        };
        if grouped {
            snails_obs::observe(Obs::EngineOpGroupUnits, units.len() as u64);
        }

        // HAVING.
        let units: Vec<_> = if let Some(h) = &stmt.having {
            let mut kept = Vec::new();
            for unit in units {
                let v = self.eval_unit(h, &unit, &rowset.bindings, outer)?;
                if truth(&v) == Some(true) {
                    kept.push(unit);
                }
            }
            kept
        } else {
            units
        };

        // Projection + ORDER BY keys.
        self.charge_steps(units.len() as u64)?;
        let alias_positions: HashMap<String, usize> = out_columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.to_ascii_uppercase(), i))
            .collect();
        let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(units.len());
        for unit in &units {
            let mut out_row = Vec::with_capacity(item_exprs.len());
            for item in &item_exprs {
                match item {
                    PlanItem::Passthrough(idx) => out_row.push(unit.0[*idx].clone()),
                    PlanItem::Expr(e) => {
                        out_row.push(self.eval_unit(e, unit, &rowset.bindings, outer)?)
                    }
                }
            }
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for o in &stmt.order_by {
                // Alias reference?
                if let Expr::Column(c) = &o.expr {
                    if c.qualifier.is_none() {
                        if let Some(&i) = alias_positions.get(&c.name.to_ascii_uppercase()) {
                            keys.push(out_row[i].clone());
                            continue;
                        }
                    }
                }
                keys.push(self.eval_unit(&o.expr, unit, &rowset.bindings, outer)?);
            }
            projected.push((out_row, keys));
        }
        snails_obs::observe(Obs::EngineOpProjectRows, projected.len() as u64);

        // DISTINCT.
        if stmt.distinct {
            let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
            projected.retain(|(row, _)| {
                seen.insert(row.iter().map(Value::hash_key).collect())
            });
        }

        // ORDER BY (stable).
        if !stmt.order_by.is_empty() {
            snails_obs::observe(Obs::EngineOpSortRows, projected.len() as u64);
            let descending: Vec<bool> = stmt.order_by.iter().map(|o| o.descending).collect();
            projected.sort_by(|(_, ka), (_, kb)| {
                for (i, desc) in descending.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // TOP.
        let mut rows: Vec<Vec<Value>> = projected.into_iter().map(|(r, _)| r).collect();
        if let Some(n) = stmt.top {
            rows.truncate(n as usize);
        }

        let mut result = ResultSet { columns: out_columns, rows };

        // UNION [ALL]: arity-checked concatenation, set semantics for plain
        // UNION (column names come from the first block, as in T-SQL).
        if let Some((kind, rhs)) = &stmt.union {
            let rhs_rs = self.select(rhs, outer)?;
            if rhs_rs.column_count() != result.column_count() {
                return Err(EngineError::type_error(format!(
                    "UNION arity mismatch: {} vs {} columns",
                    result.column_count(),
                    rhs_rs.column_count()
                )));
            }
            result.rows.extend(rhs_rs.rows);
            if *kind == snails_sql::UnionKind::Distinct {
                let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
                result.rows.retain(|row| {
                    seen.insert(row.iter().map(Value::hash_key).collect())
                });
            }
        }

        if let Some(budget) = self.opts.limits.max_output_rows {
            if result.rows.len() as u64 > budget {
                return Err(EngineError::resource_exhausted("output row budget", budget));
            }
        }

        Ok(result)
    }

    /// Resolve a `FROM`/`JOIN` source into a [`RowSet`].
    fn load_source(&self, src: &TableSource) -> Result<RowSet, EngineError> {
        match src {
            TableSource::Named { schema, name, alias } => {
                let binding_name = alias.clone().unwrap_or_else(|| name.clone());
                // Unqualified references resolve views before base tables:
                // installed natural views (db_nl, appendix H.2) shadow the
                // native table, mirroring a session whose default schema is
                // the view namespace. `dbo.`-qualified references always
                // reach the base table.
                let dbo = schema.as_deref().is_none_or(|s| s.eq_ignore_ascii_case("dbo"));
                let shadowing_view = if schema.is_none() {
                    self.db.view(None, name).or_else(|| {
                        self.db.views().find(|v| v.name.eq_ignore_ascii_case(name))
                    })
                } else {
                    None
                };
                if dbo && shadowing_view.is_none() {
                    if let Some(t) = self.db.table(name) {
                        self.charge_steps(t.rows.len() as u64)?;
                        snails_obs::observe(Obs::EngineOpScanRows, t.rows.len() as u64);
                        let columns: Vec<String> =
                            t.schema.column_names().map(str::to_owned).collect();
                        let width = columns.len();
                        return Ok(RowSet {
                            bindings: vec![Binding { name: binding_name, columns }],
                            rows: t.rows.clone(),
                            width,
                        });
                    }
                }
                let view = shadowing_view
                    .or_else(|| self.db.view(schema.as_deref(), name))
                    .ok_or_else(|| EngineError::UnknownTable { name: name.clone() })?;
                let rs = self.select(&view.query.clone(), None)?;
                snails_obs::observe(Obs::EngineOpScanRows, rs.rows.len() as u64);
                let width = rs.columns.len();
                Ok(RowSet {
                    bindings: vec![Binding { name: binding_name, columns: rs.columns }],
                    rows: rs.rows,
                    width,
                })
            }
            TableSource::Derived { query, alias } => {
                let rs = self.select(query, None)?;
                snails_obs::observe(Obs::EngineOpScanRows, rs.rows.len() as u64);
                let width = rs.columns.len();
                Ok(RowSet {
                    bindings: vec![Binding { name: alias.clone(), columns: rs.columns }],
                    rows: rs.rows,
                    width,
                })
            }
        }
    }

    fn join(
        &self,
        left: RowSet,
        right: RowSet,
        kind: JoinKind,
        on: Option<&Expr>,
        outer: Option<&Scope<'_>>,
    ) -> Result<RowSet, EngineError> {
        if kind != JoinKind::Cross {
            if let Some(pred) = on {
                if let Some(keys) = equi_join_keys(pred, &left.bindings, &right.bindings) {
                    return self.hash_join(left, right, kind, &keys, outer);
                }
            }
        }
        self.nested_join(left, right, kind, on, outer)
    }

    /// Build/probe hash join for a pure conjunction of equi-key conjuncts.
    ///
    /// Reproduces the nested loop's output *order* exactly: for INNER /
    /// LEFT / FULL the loop is left-major with right matches ascending, so
    /// the hash table is built on the right (bucket lists keep build order)
    /// and the left side probes in order; RIGHT joins are right-major, so
    /// the sides swap. NULL (and NaN) key components never enter the hash
    /// table — under `sql_eq` they match nothing — but their rows still
    /// null-pad for the outer join kinds.
    fn hash_join(
        &self,
        left: RowSet,
        right: RowSet,
        kind: JoinKind,
        keys: &[(&Expr, &Expr)],
        outer: Option<&Scope<'_>>,
    ) -> Result<RowSet, EngineError> {
        let mut bindings = left.bindings.clone();
        bindings.extend(right.bindings.clone());
        let width = left.width + right.width;
        let mut rows = Vec::new();

        let left_exprs: Vec<&Expr> = keys.iter().map(|&(l, _)| l).collect();
        let right_exprs: Vec<&Expr> = keys.iter().map(|&(_, r)| r).collect();

        // One side's key tuple; `None` marks an unmatchable key (a NULL or
        // NaN component equals nothing). Side-local scopes are sound: the
        // extraction verified every column ref resolves inside its side.
        let side_key = |rs: &RowSet,
                        row: &[Value],
                        exprs: &[&Expr]|
         -> Result<Option<Vec<HashKey>>, EngineError> {
            let scope = Scope { bindings: &rs.bindings, row, parent: outer };
            let mut key = Vec::with_capacity(exprs.len());
            for e in exprs {
                let v = self.eval(e, &scope)?;
                if v.is_null() || matches!(v, Value::Float(x) if x.is_nan()) {
                    return Ok(None);
                }
                key.push(v.hash_key());
            }
            Ok(Some(key))
        };

        match kind {
            JoinKind::Inner | JoinKind::Left | JoinKind::Full => {
                let mut table: HashMap<Vec<HashKey>, Vec<usize>> = HashMap::new();
                self.charge_join(right.rows.len() as u64)?;
                for (ri, r) in right.rows.iter().enumerate() {
                    if let Some(k) = side_key(&right, r, &right_exprs)? {
                        table.entry(k).or_default().push(ri);
                    }
                }
                let mut right_matched = vec![false; right.rows.len()];
                for l in &left.rows {
                    let hits: &[usize] = match side_key(&left, l, &left_exprs)? {
                        Some(k) => table.get(&k).map(Vec::as_slice).unwrap_or(&[]),
                        None => &[],
                    };
                    self.charge_join(1 + hits.len() as u64)?;
                    for &ri in hits {
                        let mut combined = l.clone();
                        combined.extend(right.rows[ri].iter().cloned());
                        rows.push(combined);
                        right_matched[ri] = true;
                    }
                    if hits.is_empty() && kind != JoinKind::Inner {
                        let mut combined = l.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right.width));
                        rows.push(combined);
                    }
                }
                if kind == JoinKind::Full {
                    for (ri, r) in right.rows.iter().enumerate() {
                        if !right_matched[ri] {
                            let mut combined = vec![Value::Null; left.width];
                            combined.extend(r.iter().cloned());
                            rows.push(combined);
                        }
                    }
                }
            }
            JoinKind::Right => {
                let mut table: HashMap<Vec<HashKey>, Vec<usize>> = HashMap::new();
                self.charge_join(left.rows.len() as u64)?;
                for (li, l) in left.rows.iter().enumerate() {
                    if let Some(k) = side_key(&left, l, &left_exprs)? {
                        table.entry(k).or_default().push(li);
                    }
                }
                for r in &right.rows {
                    let hits: &[usize] = match side_key(&right, r, &right_exprs)? {
                        Some(k) => table.get(&k).map(Vec::as_slice).unwrap_or(&[]),
                        None => &[],
                    };
                    self.charge_join(1 + hits.len() as u64)?;
                    for &li in hits {
                        let mut combined = left.rows[li].clone();
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                    if hits.is_empty() {
                        let mut combined = vec![Value::Null; left.width];
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                }
            }
            JoinKind::Cross => unreachable!("cross joins never take the hash path"),
        }
        Ok(RowSet { bindings, rows, width })
    }

    fn nested_join(
        &self,
        left: RowSet,
        right: RowSet,
        kind: JoinKind,
        on: Option<&Expr>,
        outer: Option<&Scope<'_>>,
    ) -> Result<RowSet, EngineError> {
        let mut bindings = left.bindings.clone();
        bindings.extend(right.bindings.clone());
        let width = left.width + right.width;
        let mut rows = Vec::new();

        let on_true = |combined: &[Value]| -> Result<bool, EngineError> {
            match on {
                None => Ok(true),
                Some(pred) => {
                    let scope = Scope { bindings: &bindings, row: combined, parent: outer };
                    Ok(truth(&self.eval(pred, &scope)?) == Some(true))
                }
            }
        };

        match kind {
            JoinKind::Inner | JoinKind::Cross => {
                for l in &left.rows {
                    self.charge_join(right.rows.len().max(1) as u64)?;
                    for r in &right.rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                        }
                    }
                }
            }
            JoinKind::Left => {
                for l in &left.rows {
                    self.charge_join(right.rows.len().max(1) as u64)?;
                    let mut matched = false;
                    for r in &right.rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                            matched = true;
                        }
                    }
                    if !matched {
                        let mut combined = l.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right.width));
                        rows.push(combined);
                    }
                }
            }
            JoinKind::Right => {
                for r in &right.rows {
                    self.charge_join(left.rows.len().max(1) as u64)?;
                    let mut matched = false;
                    for l in &left.rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                            matched = true;
                        }
                    }
                    if !matched {
                        let mut combined = vec![Value::Null; left.width];
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                }
            }
            JoinKind::Full => {
                let mut right_matched = vec![false; right.rows.len()];
                for l in &left.rows {
                    self.charge_join(right.rows.len().max(1) as u64)?;
                    let mut matched = false;
                    for (ri, r) in right.rows.iter().enumerate() {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                            matched = true;
                            right_matched[ri] = true;
                        }
                    }
                    if !matched {
                        let mut combined = l.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right.width));
                        rows.push(combined);
                    }
                }
                for (ri, r) in right.rows.iter().enumerate() {
                    if !right_matched[ri] {
                        let mut combined = vec![Value::Null; left.width];
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                }
            }
        }
        Ok(RowSet { bindings, rows, width })
    }

    /// Plan projection: output column names plus per-item evaluation plans.
    fn projection_plan(
        &self,
        stmt: &SelectStatement,
        rowset: &RowSet,
    ) -> Result<(Vec<String>, Vec<PlanItem>), EngineError> {
        let mut names = Vec::new();
        let mut items = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    let mut offset = 0usize;
                    for b in &rowset.bindings {
                        for (ci, c) in b.columns.iter().enumerate() {
                            names.push(c.clone());
                            items.push(PlanItem::Passthrough(offset + ci));
                        }
                        offset += b.columns.len();
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut offset = 0usize;
                    let mut found = false;
                    for b in &rowset.bindings {
                        if b.name.eq_ignore_ascii_case(q) {
                            for (ci, c) in b.columns.iter().enumerate() {
                                names.push(c.clone());
                                items.push(PlanItem::Passthrough(offset + ci));
                            }
                            found = true;
                            break;
                        }
                        offset += b.columns.len();
                    }
                    if !found {
                        return Err(EngineError::UnknownTable { name: q.clone() });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.name.clone(),
                        Expr::Function { name, .. } => name.to_ascii_lowercase(),
                        _ => format!("expr_{i}"),
                    });
                    names.push(name);
                    items.push(PlanItem::Expr(expr.clone()));
                }
            }
        }
        Ok((names, items))
    }

    /// Evaluate an expression over a unit (group or single row).
    fn eval_unit(
        &self,
        e: &Expr,
        unit: &(Vec<Value>, Vec<Vec<Value>>),
        bindings: &[Binding],
        outer: Option<&Scope<'_>>,
    ) -> Result<Value, EngineError> {
        let (rep, group) = unit;
        if contains_aggregate(e) {
            self.eval_grouped(e, rep, group, bindings, outer)
        } else {
            let scope = Scope { bindings, row: rep, parent: outer };
            self.eval(e, &scope)
        }
    }

    /// Evaluate with aggregate support: aggregate calls are computed over the
    /// group's rows; everything else over the representative row.
    fn eval_grouped(
        &self,
        e: &Expr,
        rep: &[Value],
        group: &[Vec<Value>],
        bindings: &[Binding],
        outer: Option<&Scope<'_>>,
    ) -> Result<Value, EngineError> {
        match e {
            Expr::Function { name, args, distinct } if is_aggregate_name(name) => {
                self.eval_aggregate(name, args, *distinct, group, bindings, outer)
            }
            // AND/OR need the same three-valued short-circuit as scalar
            // `eval` — routing them into `eval_binary` would hit its
            // `unreachable!` arm (e.g. `HAVING COUNT(*) > 1 AND x = 1`).
            Expr::Binary { left, op: BinOp::And, right } => {
                let l = truth(&self.eval_grouped(left, rep, group, bindings, outer)?);
                if l == Some(false) {
                    return Ok(bool_value(Some(false)));
                }
                let r = truth(&self.eval_grouped(right, rep, group, bindings, outer)?);
                Ok(bool_value(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Binary { left, op: BinOp::Or, right } => {
                let l = truth(&self.eval_grouped(left, rep, group, bindings, outer)?);
                if l == Some(true) {
                    return Ok(bool_value(Some(true)));
                }
                let r = truth(&self.eval_grouped(right, rep, group, bindings, outer)?);
                Ok(bool_value(match (l, r) {
                    (Some(false), Some(false)) => Some(false),
                    (_, Some(true)) => Some(true),
                    _ => None,
                }))
            }
            Expr::Binary { left, op, right } => {
                let l = self.eval_grouped(left, rep, group, bindings, outer)?;
                let r = self.eval_grouped(right, rep, group, bindings, outer)?;
                eval_binary(&l, *op, &r)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_grouped(expr, rep, group, bindings, outer)?;
                eval_unary(*op, &v)
            }
            _ => {
                let scope = Scope { bindings, row: rep, parent: outer };
                self.eval(e, &scope)
            }
        }
    }

    fn eval_aggregate(
        &self,
        name: &str,
        args: &[FunctionArg],
        distinct: bool,
        group: &[Vec<Value>],
        bindings: &[Binding],
        outer: Option<&Scope<'_>>,
    ) -> Result<Value, EngineError> {
        // COUNT(*)
        if name == "COUNT" && matches!(args.first(), Some(FunctionArg::Wildcard)) {
            return Ok(Value::Int(group.len() as i64));
        }
        let arg = match args.first() {
            Some(FunctionArg::Expr(e)) => e,
            Some(FunctionArg::Wildcard) => {
                return Err(EngineError::type_error(format!("{name}(*) is not valid")))
            }
            None => {
                return Err(EngineError::type_error(format!("{name} requires an argument")))
            }
        };
        let mut values = Vec::with_capacity(group.len());
        for row in group {
            let scope = Scope { bindings, row, parent: outer };
            let v = self.eval(arg, &scope)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        finish_aggregate(name, distinct, values)
    }

    /// Scalar expression evaluation.
    fn eval(&self, e: &Expr, scope: &Scope<'_>) -> Result<Value, EngineError> {
        match e {
            Expr::Literal(l) => Ok(match l {
                snails_sql::Literal::Int(n) => Value::Int(*n),
                snails_sql::Literal::Float(x) => Value::Float(*x),
                snails_sql::Literal::Str(s) => Value::from(s.as_str()),
                snails_sql::Literal::Null => Value::Null,
            }),
            Expr::Column(c) => scope.resolve(c),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, scope)?;
                eval_unary(*op, &v)
            }
            Expr::Binary { left, op, right } => match op {
                BinOp::And => {
                    let l = truth(&self.eval(left, scope)?);
                    if l == Some(false) {
                        return Ok(bool_value(Some(false)));
                    }
                    let r = truth(&self.eval(right, scope)?);
                    Ok(bool_value(match (l, r) {
                        (Some(true), Some(true)) => Some(true),
                        (_, Some(false)) => Some(false),
                        _ => None,
                    }))
                }
                BinOp::Or => {
                    let l = truth(&self.eval(left, scope)?);
                    if l == Some(true) {
                        return Ok(bool_value(Some(true)));
                    }
                    let r = truth(&self.eval(right, scope)?);
                    Ok(bool_value(match (l, r) {
                        (Some(false), Some(false)) => Some(false),
                        (_, Some(true)) => Some(true),
                        _ => None,
                    }))
                }
                _ => {
                    let l = self.eval(left, scope)?;
                    let r = self.eval(right, scope)?;
                    eval_binary(&l, *op, &r)
                }
            },
            Expr::Function { name, args, distinct } => {
                if is_aggregate_name(name) {
                    // Aggregate in scalar context = aggregate over the single
                    // current row (occurs inside correlated subqueries that
                    // have their own grouping handled by exec; treat as error
                    // to catch planner mistakes).
                    let _ = distinct;
                    return Err(EngineError::type_error(format!(
                        "aggregate {name} outside grouped context"
                    )));
                }
                self.eval_scalar_fn(name, args, scope)
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, scope)?;
                Ok(bool_value(Some(v.is_null() != *negated)))
            }
            Expr::InList { expr, list, negated } => {
                let v = self.eval(expr, scope)?;
                let mut saw_null = v.is_null();
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, scope)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                let b = if found {
                    Some(true)
                } else if saw_null {
                    None
                } else {
                    Some(false)
                };
                Ok(bool_value(b.map(|x| x != *negated)))
            }
            Expr::InSubquery { expr, query, negated } => {
                let v = self.eval(expr, scope)?;
                let rs = self.select(query, Some(scope))?;
                let mut saw_null = v.is_null();
                let mut found = false;
                for row in &rs.rows {
                    let Some(iv) = row.first() else { continue };
                    match v.sql_eq(iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                let b = if found {
                    Some(true)
                } else if saw_null {
                    None
                } else {
                    Some(false)
                };
                Ok(bool_value(b.map(|x| x != *negated)))
            }
            Expr::Exists { query, negated } => {
                let rs = self.select(query, Some(scope))?;
                Ok(bool_value(Some(rs.is_empty() == *negated)))
            }
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval(expr, scope)?;
                let lo = self.eval(low, scope)?;
                let hi = self.eval(high, scope)?;
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                let b = match (ge, le) {
                    (Some(a), Some(b)) => Some(a && b),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                };
                Ok(bool_value(b.map(|x| x != *negated)))
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, scope)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        let m = like_match(&s.to_ascii_lowercase(), &pattern.to_ascii_lowercase());
                        Ok(bool_value(Some(m != *negated)))
                    }
                    other => Err(EngineError::type_error(format!("LIKE over {other:?}"))),
                }
            }
            Expr::Subquery(q) => {
                let rs = self.select(q, Some(scope))?;
                Ok(rs.scalar().cloned().unwrap_or(Value::Null))
            }
            Expr::Case { operand, branches, else_expr } => {
                match operand {
                    // Simple case: compare the operand to each WHEN value.
                    Some(op) => {
                        let v = self.eval(op, scope)?;
                        for (when, then) in branches {
                            let w = self.eval(when, scope)?;
                            if v.sql_eq(&w) == Some(true) {
                                return self.eval(then, scope);
                            }
                        }
                    }
                    // Searched case: first true WHEN predicate wins.
                    None => {
                        for (when, then) in branches {
                            if truth(&self.eval(when, scope)?) == Some(true) {
                                return self.eval(then, scope);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, scope),
                    None => Ok(Value::Null),
                }
            }
            Expr::Wildcard => Err(EngineError::type_error("bare * outside COUNT")),
        }
    }

    fn eval_scalar_fn(
        &self,
        name: &str,
        args: &[FunctionArg],
        scope: &Scope<'_>,
    ) -> Result<Value, EngineError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            match a {
                FunctionArg::Wildcard => {
                    return Err(EngineError::type_error(format!("{name}(*) is not valid")))
                }
                FunctionArg::Expr(e) => vals.push(self.eval(e, scope)?),
            }
        }
        scalar_fn(name, &vals)
    }
}

/// Finish an aggregate over the already-collected non-NULL argument values:
/// applies `DISTINCT` and dispatches on the (uppercase) aggregate name.
/// Shared between the interpreter and the compiled-plan runner so both paths
/// produce identical values and identical error messages.
pub(crate) fn finish_aggregate(
    name: &str,
    distinct: bool,
    mut values: Vec<Value>,
) -> Result<Value, EngineError> {
    if distinct {
        let mut seen: HashSet<HashKey> = HashSet::new();
        values.retain(|v| seen.insert(v.hash_key()));
    }
    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" | "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum = 0.0;
            // Checked i64 accumulator for the all-int case, so huge sums
            // surface a TypeError instead of a lossy f64 → i64 cast.
            let mut int_sum: Option<i64> = Some(0);
            for v in &values {
                int_sum = match (int_sum, v) {
                    (Some(acc), Value::Int(n)) => Some(acc.checked_add(*n).ok_or_else(
                        || EngineError::type_error(format!("integer overflow in {name}")),
                    )?),
                    _ => None,
                };
                sum += v
                    .as_f64()
                    .ok_or_else(|| EngineError::type_error(format!("{name} over non-numeric")))?;
            }
            if name == "AVG" {
                Ok(Value::Float(sum / values.len() as f64))
            } else if let Some(s) = int_sum {
                Ok(Value::Int(s))
            } else {
                Ok(Value::Float(sum))
            }
        }
        "MIN" | "MAX" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_v = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => name == "MIN",
                            Some(std::cmp::Ordering::Greater) => name == "MAX",
                            _ => false,
                        };
                        if keep_v {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        other => Err(EngineError::unsupported(format!("aggregate {other}"))),
    }
}

/// Dispatch a scalar function over already-evaluated argument values.
/// Shared between the interpreter and the compiled-plan runner.
pub(crate) fn scalar_fn(name: &str, vals: &[Value]) -> Result<Value, EngineError> {
    {
        let arg0 = vals.first();
        match name {
            "YEAR" => match arg0 {
                Some(Value::Str(s)) => {
                    let year: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
                    year.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| EngineError::type_error(format!("YEAR over {s:?}")))
                }
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(EngineError::type_error(format!("YEAR over {other:?}"))),
            },
            "UPPER" => match arg0 {
                Some(Value::Str(s)) => Ok(Value::from(s.to_ascii_uppercase())),
                Some(Value::Null) => Ok(Value::Null),
                _ => Err(EngineError::type_error("UPPER requires text")),
            },
            "LOWER" => match arg0 {
                Some(Value::Str(s)) => Ok(Value::from(s.to_ascii_lowercase())),
                Some(Value::Null) => Ok(Value::Null),
                _ => Err(EngineError::type_error("LOWER requires text")),
            },
            "LEN" => match arg0 {
                Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
                Some(Value::Null) => Ok(Value::Null),
                _ => Err(EngineError::type_error("LEN requires text")),
            },
            "ABS" => match arg0 {
                Some(v) => v.checked_abs(),
                None => Err(EngineError::type_error("ABS requires a number")),
            },
            "MONTH" | "DAY" => match arg0 {
                Some(Value::Str(s)) => {
                    let part = s.split('-').nth(if name == "MONTH" { 1 } else { 2 });
                    part.and_then(|p| {
                        p.chars()
                            .take_while(|c| c.is_ascii_digit())
                            .collect::<String>()
                            .parse::<i64>()
                            .ok()
                    })
                    .map(Value::Int)
                    .ok_or_else(|| EngineError::type_error(format!("{name} over {s:?}")))
                }
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(EngineError::type_error(format!("{name} over {other:?}"))),
            },
            "COALESCE" => {
                for v in vals {
                    if !v.is_null() {
                        return Ok(v.clone());
                    }
                }
                Ok(Value::Null)
            }
            "SUBSTRING" => match (arg0, vals.get(1), vals.get(2)) {
                (Some(Value::Null), _, _) => Ok(Value::Null),
                (Some(Value::Str(s)), Some(start), Some(len)) => {
                    // T-SQL SUBSTRING is 1-based.
                    let start = start
                        .as_i64()
                        .ok_or_else(|| EngineError::type_error("SUBSTRING start"))?
                        .max(1) as usize;
                    let len = len
                        .as_i64()
                        .ok_or_else(|| EngineError::type_error("SUBSTRING length"))?
                        .max(0) as usize;
                    Ok(Value::from(s.chars().skip(start - 1).take(len).collect::<String>()))
                }
                _ => Err(EngineError::type_error("SUBSTRING(text, start, length)")),
            },
            "ROUND" => {
                let x = match arg0 {
                    Some(Value::Null) => return Ok(Value::Null),
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| EngineError::type_error("ROUND requires a number"))?,
                    None => return Err(EngineError::type_error("ROUND requires a number")),
                };
                let digits = vals.get(1).and_then(Value::as_i64).unwrap_or(0);
                let factor = 10f64.powi(digits as i32);
                Ok(Value::Float((x * factor).round() / factor))
            }
            other => Err(EngineError::unsupported(format!("function {other}"))),
        }
    }
}

/// Evaluation plan for one projection item.
enum PlanItem {
    /// Copy a source column by combined-row offset (wildcard expansion).
    Passthrough(usize),
    /// Evaluate an expression.
    Expr(Expr),
}

pub(crate) fn eval_unary(op: UnaryOp, v: &Value) -> Result<Value, EngineError> {
    match op {
        UnaryOp::Not => Ok(bool_value(truth(v).map(|b| !b))),
        UnaryOp::Neg => v.checked_neg(),
    }
}

pub(crate) fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value, EngineError> {
    use std::cmp::Ordering;
    if op.is_comparison() {
        let b = l.sql_cmp(r).map(|o| match op {
            BinOp::Eq => o == Ordering::Equal,
            BinOp::NotEq => o != Ordering::Equal,
            BinOp::Lt => o == Ordering::Less,
            BinOp::LtEq => o != Ordering::Greater,
            BinOp::Gt => o == Ordering::Greater,
            BinOp::GtEq => o != Ordering::Less,
            _ => unreachable!("is_comparison"),
        });
        return Ok(bool_value(b));
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // String + string = concatenation (T-SQL).
            if op == BinOp::Add {
                if let (Value::Str(a), Value::Str(b)) = (l, r) {
                    return Ok(Value::from(format!("{a}{b}")));
                }
            }
            let arith = match op {
                BinOp::Add => ArithOp::Add,
                BinOp::Sub => ArithOp::Sub,
                BinOp::Mul => ArithOp::Mul,
                BinOp::Div => ArithOp::Div,
                BinOp::Mod => ArithOp::Mod,
                _ => unreachable!(),
            };
            l.checked_arith(arith, r)
        }
        BinOp::And | BinOp::Or => unreachable!("handled with short-circuit"),
        _ => unreachable!("comparisons handled above"),
    }
}

/// `LIKE` pattern matching with `%` and `_` wildcards (inputs pre-lowercased).
///
/// Two-pointer greedy algorithm: on a mismatch after a `%`, the match
/// restarts one character later in the subject rather than recursing over
/// every split point, so the worst case is O(subject × pattern) instead of
/// the exponential blow-up of the naive backtracking formulation on
/// adversarial patterns like `%a%a%a%…`.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let (s, p) = (s.as_bytes(), pattern.as_bytes());
    let (mut si, mut pi) = (0usize, 0usize);
    // Position of the most recent `%` (pattern index after it, subject
    // index where its match attempt started).
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, si));
            }
            Some(&c) if c == b'_' || c == s[si] => {
                si += 1;
                pi += 1;
            }
            _ => match star {
                // Let the last `%` absorb one more subject byte and retry.
                Some((restart_p, restart_s)) => {
                    si = restart_s + 1;
                    pi = restart_p;
                    star = Some((restart_p, si));
                }
                None => return false,
            },
        }
    }
    // Subject exhausted: the rest of the pattern must be all `%`.
    p[pi..].iter().all(|&c| c == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, TableSchema};
    use crate::run_sql;
    use crate::value::DataType;

    /// The adaptive policy's picks at representative widths (a two-column
    /// probe, a typical gold join, a wide star join), and its shape over
    /// every width: never larger for a wider row, always a power of two
    /// inside the clamp.
    #[test]
    fn adaptive_batch_size_shrinks_with_width_inside_the_clamp() {
        assert_eq!(
            [2, 8, 32].map(adaptive_batch_size),
            [2048, 512, 256],
            "picks at widths 2/8/32"
        );
        let mut prev = adaptive_batch_size(0);
        for width in 0..=512 {
            let size = adaptive_batch_size(width);
            assert!(size <= prev, "width {width}: {size} grew past {prev}");
            assert!(size.is_power_of_two(), "width {width}: {size}");
            assert!((MIN_BATCH_SIZE..=MAX_BATCH_SIZE).contains(&size), "width {width}: {size}");
            prev = size;
        }
    }

    /// A small two-table database used throughout the executor tests.
    fn wildlife_db() -> Database {
        let mut db = Database::new("wildlife");
        db.create_table(
            TableSchema::new("tbl_Species")
                .column("SpeciesCode", DataType::Varchar)
                .column("CommonName", DataType::Varchar)
                .column("Family", DataType::Varchar),
        );
        db.create_table(
            TableSchema::new("tbl_Observations")
                .column("Obs_ID", DataType::Int)
                .column("SpCode", DataType::Varchar)
                .column("ObsCount", DataType::Int)
                .column("ObsDate", DataType::Date)
                .column("Site", DataType::Varchar),
        );
        let species = [
            ("ELK", "Elk", "Cervidae"),
            ("MDR", "Mule Deer", "Cervidae"),
            ("CYT", "Coyote", "Canidae"),
            ("BDG", "Badger", "Mustelidae"),
        ];
        for (c, n, f) in species {
            db.insert("tbl_Species", vec![c.into(), n.into(), f.into()]).unwrap();
        }
        let obs: [(i64, &str, i64, &str, &str); 6] = [
            (1, "ELK", 4, "2021-05-02", "North"),
            (2, "ELK", 2, "2021-06-11", "South"),
            (3, "MDR", 7, "2021-05-20", "North"),
            (4, "CYT", 1, "2020-09-30", "East"),
            (5, "CYT", 3, "2021-07-04", "North"),
            (6, "ELK", 5, "2022-01-15", "South"),
        ];
        for (id, sp, n, d, site) in obs {
            db.insert(
                "tbl_Observations",
                vec![Value::Int(id), sp.into(), Value::Int(n), d.into(), site.into()],
            )
            .unwrap();
        }
        db
    }

    fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
        run_sql(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
    }

    #[test]
    fn projection_and_where() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT CommonName FROM tbl_Species WHERE Family = 'Cervidae'");
        assert_eq!(r, vec![vec![Value::from("Elk")], vec![Value::from("Mule Deer")]]);
    }

    #[test]
    fn wildcard_expansion() {
        let db = wildlife_db();
        let rs = run_sql(&db, "SELECT * FROM tbl_Species").unwrap();
        assert_eq!(rs.columns, ["SpeciesCode", "CommonName", "Family"]);
        assert_eq!(rs.row_count(), 4);
    }

    #[test]
    fn count_star_group_by_having() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT SpCode, COUNT(*) AS n FROM tbl_Observations \
             GROUP BY SpCode HAVING COUNT(*) > 1 ORDER BY n DESC, SpCode",
        );
        assert_eq!(
            r,
            vec![
                vec![Value::from("ELK"), Value::Int(3)],
                vec![Value::from("CYT"), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn aggregates_without_group_by() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT COUNT(*), SUM(ObsCount), MIN(ObsCount), MAX(ObsCount), AVG(ObsCount) FROM tbl_Observations");
        assert_eq!(
            r,
            vec![vec![
                Value::Int(6),
                Value::Int(22),
                Value::Int(1),
                Value::Int(7),
                Value::Float(22.0 / 6.0),
            ]]
        );
    }

    #[test]
    fn aggregates_on_empty_input() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT COUNT(*), SUM(ObsCount) FROM tbl_Observations WHERE ObsCount > 99");
        assert_eq!(r, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn count_distinct() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT COUNT(DISTINCT SpCode) FROM tbl_Observations");
        assert_eq!(r, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn inner_join_with_alias() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT s.CommonName, o.ObsCount FROM tbl_Species s \
             JOIN tbl_Observations o ON s.SpeciesCode = o.SpCode \
             WHERE o.Site = 'North' ORDER BY o.ObsCount",
        );
        assert_eq!(
            r,
            vec![
                vec![Value::from("Coyote"), Value::Int(3)],
                vec![Value::from("Elk"), Value::Int(4)],
                vec![Value::from("Mule Deer"), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn left_join_null_padding() {
        let db = wildlife_db();
        // Badger has no observations.
        let r = rows(
            &db,
            "SELECT s.CommonName FROM tbl_Species s \
             LEFT JOIN tbl_Observations o ON s.SpeciesCode = o.SpCode \
             WHERE o.Obs_ID IS NULL",
        );
        assert_eq!(r, vec![vec![Value::from("Badger")]]);
    }

    #[test]
    fn right_join_mirrors_left() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT s.CommonName FROM tbl_Observations o \
             RIGHT JOIN tbl_Species s ON s.SpeciesCode = o.SpCode \
             WHERE o.Obs_ID IS NULL",
        );
        assert_eq!(r, vec![vec![Value::from("Badger")]]);
    }

    #[test]
    fn composite_key_join() {
        let mut db = Database::new("ck");
        db.create_table(
            TableSchema::new("A")
                .column("k1", DataType::Int)
                .column("k2", DataType::Int)
                .column("x", DataType::Varchar),
        );
        db.create_table(
            TableSchema::new("B")
                .column("k1", DataType::Int)
                .column("k2", DataType::Int)
                .column("y", DataType::Varchar),
        );
        db.insert("A", vec![Value::Int(1), Value::Int(1), "a11".into()]).unwrap();
        db.insert("A", vec![Value::Int(1), Value::Int(2), "a12".into()]).unwrap();
        db.insert("B", vec![Value::Int(1), Value::Int(2), "b12".into()]).unwrap();
        let r = rows(&db, "SELECT A.x, B.y FROM A JOIN B ON A.k1 = B.k1 AND A.k2 = B.k2");
        assert_eq!(r, vec![vec![Value::from("a12"), Value::from("b12")]]);
    }

    #[test]
    fn cross_join_cardinality() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT COUNT(*) FROM tbl_Species CROSS JOIN tbl_Observations");
        assert_eq!(r, vec![vec![Value::Int(24)]]);
    }

    #[test]
    fn exists_correlated() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT CommonName FROM tbl_Species s WHERE EXISTS \
             (SELECT Obs_ID FROM tbl_Observations WHERE SpCode = s.SpeciesCode) \
             ORDER BY CommonName",
        );
        assert_eq!(
            r,
            vec![
                vec![Value::from("Coyote")],
                vec![Value::from("Elk")],
                vec![Value::from("Mule Deer")],
            ]
        );
    }

    #[test]
    fn not_exists_correlated() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT CommonName FROM tbl_Species s WHERE NOT EXISTS \
             (SELECT 1 FROM tbl_Observations o WHERE o.SpCode = s.SpeciesCode)",
        );
        assert_eq!(r, vec![vec![Value::from("Badger")]]);
    }

    #[test]
    fn in_subquery() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT CommonName FROM tbl_Species WHERE SpeciesCode IN \
             (SELECT SpCode FROM tbl_Observations WHERE Site = 'East')",
        );
        assert_eq!(r, vec![vec![Value::from("Coyote")]]);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT Obs_ID FROM tbl_Observations \
             WHERE ObsCount > (SELECT AVG(ObsCount) FROM tbl_Observations) ORDER BY Obs_ID",
        );
        assert_eq!(r, vec![vec![Value::Int(1)], vec![Value::Int(3)], vec![Value::Int(6)]]);
    }

    #[test]
    fn derived_table() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT x.SpCode FROM (SELECT SpCode, COUNT(*) AS n FROM tbl_Observations \
             GROUP BY SpCode) x WHERE x.n = 3",
        );
        assert_eq!(r, vec![vec![Value::from("ELK")]]);
    }

    #[test]
    fn top_and_order() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT TOP 2 Obs_ID FROM tbl_Observations ORDER BY ObsCount DESC");
        assert_eq!(r, vec![vec![Value::Int(3)], vec![Value::Int(6)]]);
    }

    #[test]
    fn distinct_dedup() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT DISTINCT Site FROM tbl_Observations ORDER BY Site");
        assert_eq!(
            r,
            vec![
                vec![Value::from("East")],
                vec![Value::from("North")],
                vec![Value::from("South")],
            ]
        );
    }

    #[test]
    fn year_function_and_between() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT COUNT(*) FROM tbl_Observations WHERE YEAR(ObsDate) = 2021 \
             AND ObsCount BETWEEN 2 AND 5",
        );
        assert_eq!(r, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn like_patterns() {
        let db = wildlife_db();
        let r = rows(&db, "SELECT CommonName FROM tbl_Species WHERE CommonName LIKE '%deer%'");
        assert_eq!(r, vec![vec![Value::from("Mule Deer")]]);
        let r = rows(&db, "SELECT CommonName FROM tbl_Species WHERE CommonName LIKE '_lk'");
        assert_eq!(r, vec![vec![Value::from("Elk")]]);
    }

    #[test]
    fn not_in_list_with_null_semantics() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT CommonName FROM tbl_Species WHERE Family NOT IN ('Cervidae', 'Canidae')",
        );
        assert_eq!(r, vec![vec![Value::from("Badger")]]);
    }

    #[test]
    fn order_by_alias() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT Site, SUM(ObsCount) AS total FROM tbl_Observations \
             GROUP BY Site ORDER BY total DESC",
        );
        assert_eq!(r[0][0], Value::from("North"));
    }

    #[test]
    fn group_by_expression() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT YEAR(ObsDate) AS y, COUNT(*) FROM tbl_Observations GROUP BY YEAR(ObsDate) ORDER BY y",
        );
        assert_eq!(
            r,
            vec![
                vec![Value::Int(2020), Value::Int(1)],
                vec![Value::Int(2021), Value::Int(4)],
                vec![Value::Int(2022), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn views_execute() {
        let mut db = wildlife_db();
        let ddl = snails_sql::parse(
            "CREATE VIEW db_nl.species AS SELECT SpeciesCode AS species_code, \
             CommonName AS common_name FROM tbl_Species",
        )
        .unwrap();
        apply_ddl(&mut db, &ddl).unwrap();
        let r = rows(&db, "SELECT common_name FROM db_nl.species WHERE species_code = 'ELK'");
        assert_eq!(r, vec![vec![Value::from("Elk")]]);
        // Unqualified also resolves (no table collision).
        let r = rows(&db, "SELECT common_name FROM species WHERE species_code = 'ELK'");
        assert_eq!(r, vec![vec![Value::from("Elk")]]);
    }

    #[test]
    fn unknown_identifiers_error() {
        let db = wildlife_db();
        assert!(matches!(
            run_sql(&db, "SELECT x FROM missing"),
            Err(EngineError::UnknownTable { .. })
        ));
        assert!(matches!(
            run_sql(&db, "SELECT missing FROM tbl_Species"),
            Err(EngineError::UnknownColumn { .. })
        ));
        assert!(matches!(
            run_sql(&db, "SELECT tbl_Species.Oops FROM tbl_Species"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn ambiguous_column_errors() {
        let db = wildlife_db();
        // SpeciesCode only exists in one table, SpCode in the other; but a
        // self-join makes everything ambiguous.
        assert!(matches!(
            run_sql(
                &db,
                "SELECT CommonName FROM tbl_Species a JOIN tbl_Species b ON a.SpeciesCode = b.SpeciesCode"
            ),
            Err(EngineError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn select_without_from() {
        let db = Database::new("x");
        let r = rows(&db, "SELECT 1 + 2 AS three");
        assert_eq!(r, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn arithmetic_and_null_propagation() {
        let db = Database::new("x");
        assert_eq!(rows(&db, "SELECT 7 % 3"), vec![vec![Value::Int(1)]]);
        assert_eq!(rows(&db, "SELECT NULL + 1"), vec![vec![Value::Null]]);
        assert_eq!(rows(&db, "SELECT 'a' + 'b'"), vec![vec![Value::from("ab")]]);
        assert_eq!(rows(&db, "SELECT 10 / 4"), vec![vec![Value::Float(2.5)]]);
    }

    #[test]
    fn checked_arithmetic_errors_instead_of_panicking() {
        let db = Database::new("x");
        // Division / modulo by zero: a TypeError, never NULL or a panic.
        for sql in ["SELECT 1 / 0", "SELECT 1 % 0", "SELECT 1.0 / 0", "SELECT 1.5 % 0.0"] {
            assert!(
                matches!(run_sql(&db, sql), Err(EngineError::TypeError { .. })),
                "{sql} should be a type error"
            );
        }
        // i64 overflow paths: negation, ABS, +, *. i64::MIN has no literal
        // form (the parser sees unary minus on an out-of-range magnitude),
        // so build it as MIN = -MAX - 1.
        let max = i64::MAX;
        for sql in [
            format!("SELECT -(-{max} - 1)"),
            format!("SELECT ABS(-{max} - 1)"),
            format!("SELECT {max} + 1"),
            format!("SELECT {max} * 2"),
        ] {
            assert!(
                matches!(run_sql(&db, &sql), Err(EngineError::TypeError { .. })),
                "{sql} should be a type error"
            );
        }
        // NULL operands still propagate before the zero check (SQL semantics).
        assert_eq!(rows(&db, "SELECT NULL / 0"), vec![vec![Value::Null]]);
    }

    #[test]
    fn exec_limits_stop_cross_join_bomb() {
        let mut db = Database::new("bomb");
        db.create_table(crate::catalog::TableSchema::new("t").column("x", crate::value::DataType::Int));
        for i in 0..1000i64 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        // 1000^3 = 10^9 nested-loop iterations: far over the join budget.
        let sql = "SELECT COUNT(*) FROM t AS a CROSS JOIN t AS b CROSS JOIN t AS c";
        let opts = ExecOptions {
            limits: ExecLimits { max_join_rows: Some(100_000), ..Default::default() },
            ..Default::default()
        };
        let err = crate::run_sql_with(&db, sql, opts).unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
        // Unlimited options still run the small joins fine.
        let ok = crate::run_sql_with(
            &db,
            "SELECT COUNT(*) FROM t AS a JOIN t AS b ON a.x = b.x",
            ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(ok.rows, vec![vec![Value::Int(1000)]]);
    }

    #[test]
    fn exec_limits_output_rows_and_depth() {
        let mut db = Database::new("lim");
        db.create_table(crate::catalog::TableSchema::new("t").column("x", crate::value::DataType::Int));
        for i in 0..50i64 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        let opts = ExecOptions {
            limits: ExecLimits { max_output_rows: Some(10), ..Default::default() },
            ..Default::default()
        };
        let err = crate::run_sql_with(&db, "SELECT x FROM t", opts).unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
        // TOP under the budget passes.
        assert!(crate::run_sql_with(&db, "SELECT TOP 5 x FROM t", opts).is_ok());

        let deep = ExecOptions {
            limits: ExecLimits { max_subquery_depth: Some(2), ..Default::default() },
            ..Default::default()
        };
        let err = crate::run_sql_with(
            &db,
            "SELECT x FROM t WHERE x IN (SELECT x FROM t WHERE x IN (SELECT x FROM t))",
            deep,
        )
        .unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
        assert!(crate::run_sql_with(&db, "SELECT COUNT(*) FROM t", deep).is_ok());
    }

    #[test]
    fn guarded_limits_leave_normal_queries_alone() {
        let db = wildlife_db();
        let opts = ExecOptions { limits: ExecLimits::guarded(), ..Default::default() };
        let rs = crate::run_sql_with(
            &db,
            "SELECT s.CommonName, COUNT(*) FROM tbl_Species s \
             JOIN tbl_Observations o ON s.SpeciesCode = o.SpCode \
             GROUP BY s.CommonName ORDER BY s.CommonName",
            opts,
        )
        .unwrap();
        assert!(!rs.rows.is_empty());
        assert_ne!(ExecLimits::guarded(), ExecLimits::UNLIMITED);
    }

    #[test]
    fn three_valued_logic() {
        let db = Database::new("x");
        // NULL = NULL is unknown, so the row is filtered out.
        assert!(rows(&db, "SELECT 1 WHERE NULL = NULL").is_empty());
        // TRUE OR NULL = TRUE.
        assert_eq!(rows(&db, "SELECT 1 WHERE 1 = 1 OR NULL = 1").len(), 1);
        // FALSE AND NULL = FALSE (short-circuit).
        assert!(rows(&db, "SELECT 1 WHERE 1 = 2 AND NULL = 1").is_empty());
    }

    #[test]
    fn scalar_functions() {
        let db = Database::new("x");
        assert_eq!(rows(&db, "SELECT UPPER('elk')"), vec![vec![Value::from("ELK")]]);
        assert_eq!(rows(&db, "SELECT LOWER('ELK')"), vec![vec![Value::from("elk")]]);
        assert_eq!(rows(&db, "SELECT LEN('abcd')"), vec![vec![Value::Int(4)]]);
        assert_eq!(rows(&db, "SELECT ABS(-3)"), vec![vec![Value::Int(3)]]);
        assert_eq!(rows(&db, "SELECT ROUND(2.567, 1)"), vec![vec![Value::Float(2.6)]]);
        assert_eq!(rows(&db, "SELECT YEAR('2021-05-02')"), vec![vec![Value::Int(2021)]]);
    }

    #[test]
    fn like_match_unit() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "b%"));
        assert!(!like_match("abc", "____"));
        assert!(like_match("a%b", "a%b"));
    }

    /// Adversarial pattern that is exponential under naive backtracking:
    /// `%a%a%a%…` against a long string of `b`s must fail fast under the
    /// two-pointer matcher (the old recursive formulation would not return
    /// within the lifetime of the test runner).
    #[test]
    fn like_match_adversarial_is_linear() {
        let subject = "b".repeat(10_000);
        let pattern = "%a".repeat(30) + "%";
        let start = std::time::Instant::now();
        assert!(!like_match(&subject, &pattern));
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        // And the matching variant still succeeds.
        let subject = "ba".repeat(40);
        assert!(like_match(&subject, &pattern));
    }

    /// `HAVING` with AND/OR over an aggregate used to panic: `eval_grouped`
    /// forwarded `And`/`Or` into `eval_binary`, whose arm is `unreachable!`.
    #[test]
    fn having_with_logical_connectives() {
        let db = wildlife_db();
        let r = rows(
            &db,
            "SELECT SpCode, COUNT(*) FROM tbl_Observations GROUP BY SpCode \
             HAVING COUNT(*) > 1 AND SpCode = 'ELK'",
        );
        assert_eq!(r, vec![vec![Value::from("ELK"), Value::Int(3)]]);
        let r = rows(
            &db,
            "SELECT SpCode, COUNT(*) FROM tbl_Observations GROUP BY SpCode \
             HAVING COUNT(*) > 2 OR SpCode = 'MDR' ORDER BY SpCode",
        );
        assert_eq!(r, vec![
            vec![Value::from("ELK"), Value::Int(3)],
            vec![Value::from("MDR"), Value::Int(1)],
        ]);
    }

    #[test]
    fn qualified_wildcard() {
        let db = wildlife_db();
        let rs = run_sql(
            &db,
            "SELECT s.* FROM tbl_Species s JOIN tbl_Observations o ON s.SpeciesCode = o.SpCode \
             WHERE o.Obs_ID = 1",
        )
        .unwrap();
        assert_eq!(rs.columns, ["SpeciesCode", "CommonName", "Family"]);
        assert_eq!(rs.row_count(), 1);
    }

    #[test]
    fn case_expressions() {
        let db = wildlife_db();
        // Searched case.
        let r = rows(
            &db,
            "SELECT Obs_ID, CASE WHEN ObsCount > 4 THEN 'many' WHEN ObsCount > 2 THEN 'some' \
             ELSE 'few' END FROM tbl_Observations ORDER BY Obs_ID",
        );
        assert_eq!(r[0][1], Value::from("some")); // ObsCount 4 → 'some'
        assert_eq!(r[2][1], Value::from("many")); // ObsCount 7
        assert_eq!(r[3][1], Value::from("few")); // ObsCount 1
        // Simple case with no ELSE yields NULL on no match.
        let r = rows(&db, "SELECT CASE Site WHEN 'East' THEN 1 END FROM tbl_Observations WHERE Obs_ID = 1");
        assert_eq!(r, vec![vec![Value::Null]]);
        // CASE usable in GROUP BY.
        let r = rows(
            &db,
            "SELECT CASE WHEN ObsCount > 3 THEN 'hi' ELSE 'lo' END AS bucket, COUNT(*) \
             FROM tbl_Observations GROUP BY CASE WHEN ObsCount > 3 THEN 'hi' ELSE 'lo' END \
             ORDER BY bucket",
        );
        assert_eq!(r, vec![
            vec![Value::from("hi"), Value::Int(3)],
            vec![Value::from("lo"), Value::Int(3)],
        ]);
    }

    #[test]
    fn union_semantics() {
        let db = wildlife_db();
        // UNION ALL keeps duplicates; UNION removes them.
        let all = rows(
            &db,
            "SELECT Site FROM tbl_Observations WHERE Obs_ID = 1 \
             UNION ALL SELECT Site FROM tbl_Observations WHERE Obs_ID = 3",
        );
        assert_eq!(all, vec![vec![Value::from("North")], vec![Value::from("North")]]);
        let distinct = rows(
            &db,
            "SELECT Site FROM tbl_Observations WHERE Obs_ID = 1 \
             UNION SELECT Site FROM tbl_Observations WHERE Obs_ID = 3",
        );
        assert_eq!(distinct, vec![vec![Value::from("North")]]);
        // Arity mismatch is a clean error.
        assert!(matches!(
            run_sql(&db, "SELECT Site, Obs_ID FROM tbl_Observations UNION SELECT Site FROM tbl_Observations"),
            Err(EngineError::TypeError { .. })
        ));
        // Column names come from the first block.
        let rs = run_sql(&db, "SELECT SpeciesCode AS code FROM tbl_Species UNION SELECT SpCode FROM tbl_Observations").unwrap();
        assert_eq!(rs.columns, vec!["code"]);
        assert_eq!(rs.row_count(), 4); // ELK MDR CYT BDG (dedup across blocks)
    }

    #[test]
    fn date_part_and_string_functions() {
        let db = Database::new("x");
        assert_eq!(rows(&db, "SELECT MONTH('2021-05-02')"), vec![vec![Value::Int(5)]]);
        assert_eq!(rows(&db, "SELECT DAY('2021-05-02')"), vec![vec![Value::Int(2)]]);
        assert_eq!(rows(&db, "SELECT COALESCE(NULL, NULL, 7)"), vec![vec![Value::Int(7)]]);
        assert_eq!(rows(&db, "SELECT COALESCE(NULL, NULL)"), vec![vec![Value::Null]]);
        assert_eq!(
            rows(&db, "SELECT SUBSTRING('vegetation', 1, 3)"),
            vec![vec![Value::from("veg")]]
        );
        assert_eq!(
            rows(&db, "SELECT SUBSTRING('abc', 2, 99)"),
            vec![vec![Value::from("bc")]]
        );
    }

    #[test]
    fn full_join_unions_unmatched() {
        let mut db = Database::new("fj");
        db.create_table(TableSchema::new("L").column("k", DataType::Int));
        db.create_table(TableSchema::new("R").column("k", DataType::Int));
        db.insert("L", vec![Value::Int(1)]).unwrap();
        db.insert("L", vec![Value::Int(2)]).unwrap();
        db.insert("R", vec![Value::Int(2)]).unwrap();
        db.insert("R", vec![Value::Int(3)]).unwrap();
        let r = rows(&db, "SELECT COUNT(*) FROM L FULL JOIN R ON L.k = R.k");
        assert_eq!(r, vec![vec![Value::Int(3)]]);
    }
}
