//! Compile-once query plans.
//!
//! The AST interpreter in [`crate::exec`] re-resolves every column
//! reference by string comparison per row and re-walks the raw AST for
//! every predicate, projection, and correlated subquery. The SNAILS grid
//! executes the same few hundred gold/predicted queries across every
//! (database × variant × workflow) cell, so this module lowers a parsed
//! [`Statement`] **once** into a [`CompiledPlan`]:
//!
//! * column references become positional [`CExpr::Slot`]s — `(up, index)`
//!   into the lexical frame chain — resolved at plan time against the same
//!   binding lists `Scope::resolve` would search per row;
//! * predicates, projections, and aggregate arguments become a flat typed
//!   expression IR (an arena of [`CExpr`] nodes indexed by `ExprId`)
//!   evaluated over slot indices;
//! * correlated subqueries are compiled once and re-bound per outer row
//!   through the runtime [`Frame`] chain;
//! * `LIKE` patterns are pre-lowercased at plan time and matched with the
//!   linear-time two-pointer [`like_match`];
//! * name-resolution errors (unknown/ambiguous columns, unknown tables)
//!   are *frozen into the plan* as [`CExpr::Err`] thunks that raise at the
//!   exact point the interpreter would, so compiled execution is
//!   output-identical — same `ResultSet`s **and** same `EngineError`s,
//!   including [`ExecLimits`](crate::ExecLimits) `ResourceExhausted`
//!   accounting, which goes through the same shared [`Meter`].
//!
//! A plan snapshots catalog *structure* (table/view column lists and view
//! bodies), not data: table rows are re-read from the database at each
//! execution. Compile against the database you will execute against, after
//! any DDL (view installation) is done. [`CompiledPlan::execute`] guards
//! against cross-database misuse by name; [`PlanCache`] additionally keys
//! its map by database name.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use snails_sql::{
    BinOp, ColumnRef, Expr, FunctionArg, JoinKind, Literal, OrderItem, SelectItem,
    SelectStatement, Statement, TableSource, UnaryOp, UnionKind,
};

use crate::catalog::Database;
use crate::error::EngineError;
use crate::exec::{
    bool_value, contains_aggregate, equi_join_keys, eval_binary, eval_unary, finish_aggregate,
    is_aggregate_name, like_match, record_statement, scalar_fn, truth, Binding, ExecOptions,
    Meter,
};
use snails_obs::Metric as Obs;
use crate::result::ResultSet;
use crate::value::{HashKey, Value};

/// Index of a [`CExpr`] node in its block's arena.
///
/// Arenas are built in post-order — every node is pushed after its
/// children — so a child's id is always smaller than its parent's. The
/// vectorized executor relies on this for one-pass per-node analyses.
pub(crate) type ExprId = usize;

/// A compiled scalar expression: the typed IR evaluated over slot indices.
#[derive(Debug)]
pub(crate) enum CExpr {
    /// A literal, pre-converted to a [`Value`] (strings already interned).
    Const(Value),
    /// A column reference resolved at plan time: hop `up` frames out, then
    /// read the row at combined-row offset `idx`.
    Slot {
        /// Number of enclosing query blocks to hop out of.
        up: u32,
        /// Offset into that block's combined row.
        idx: usize,
    },
    /// A plan-time-detectable error (unknown/ambiguous column, bare `*`,
    /// aggregate in scalar context), frozen as a thunk so it raises at the
    /// exact evaluation point where the interpreter would raise it.
    Err(EngineError),
    /// Unary operation.
    Unary { op: UnaryOp, expr: ExprId },
    /// Three-valued short-circuit `AND`.
    And { left: ExprId, right: ExprId },
    /// Three-valued short-circuit `OR`.
    Or { left: ExprId, right: ExprId },
    /// Comparison or arithmetic (never `And`/`Or`).
    Binary { left: ExprId, op: BinOp, right: ExprId },
    /// Scalar function call. The name stays a string so unknown-function
    /// and argument errors reproduce the interpreter's exact messages; the
    /// dispatch itself is the shared [`scalar_fn`].
    Func { name: String, args: Vec<CArg> },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: ExprId, negated: bool },
    /// `expr [NOT] IN (v, ...)`.
    InList { expr: ExprId, list: Vec<ExprId>, negated: bool },
    /// `expr [NOT] IN (SELECT ...)` — subquery compiled once, re-bound per
    /// outer row. `uncorrelated` is the plan-time proof that no slot inside
    /// the block escapes it (see [`block_is_correlated`]), which licenses
    /// the per-execution memo in [`Runner::run_subquery`]: the block runs
    /// once, and every later evaluation replays its rows and its recorded
    /// budget charges.
    InSubquery { expr: ExprId, query: Box<CSelect>, negated: bool, uncorrelated: bool },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists { query: Box<CSelect>, negated: bool, uncorrelated: bool },
    /// `expr [NOT] BETWEEN low AND high`.
    Between { expr: ExprId, low: ExprId, high: ExprId, negated: bool },
    /// `expr [NOT] LIKE pattern`, pattern pre-lowercased at plan time.
    Like { expr: ExprId, pattern: Box<str>, negated: bool },
    /// Scalar subquery.
    Subquery { query: Box<CSelect>, uncorrelated: bool },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        operand: Option<ExprId>,
        branches: Vec<(ExprId, ExprId)>,
        else_expr: Option<ExprId>,
    },
}

/// Compiled function argument.
#[derive(Debug)]
pub(crate) enum CArg {
    /// `*` — raises `{name}(*) is not valid` in argument position, exactly
    /// where the interpreter raises it.
    Wildcard,
    /// An ordinary expression argument.
    Expr(ExprId),
}

/// A compiled expression that may contain aggregates, mirroring the
/// interpreter's `eval_grouped`: aggregate calls compute over the group's
/// rows, everything else over the representative row.
#[derive(Debug)]
pub(crate) enum GExpr {
    /// An aggregate call.
    Agg { name: String, distinct: bool, arg: AggArg },
    /// Short-circuit `AND` over grouped operands.
    And(Box<GExpr>, Box<GExpr>),
    /// Short-circuit `OR` over grouped operands.
    Or(Box<GExpr>, Box<GExpr>),
    /// Non-logical binary over grouped operands.
    Binary { left: Box<GExpr>, op: BinOp, right: Box<GExpr> },
    /// Unary over a grouped operand.
    Unary { op: UnaryOp, expr: Box<GExpr> },
    /// No aggregate at this node: evaluate as a scalar over the
    /// representative row.
    Row(ExprId),
}

/// Compiled aggregate argument.
#[derive(Debug)]
pub(crate) enum AggArg {
    /// `COUNT(*)`.
    CountStar,
    /// Ordinary argument expression, evaluated per group row.
    Expr(ExprId),
    /// `*` under a non-COUNT aggregate — `{name}(*) is not valid`.
    StarInvalid,
    /// No argument — `{name} requires an argument`.
    Missing,
}

/// A projection/`HAVING`/`ORDER BY` expression: routed through the grouped
/// evaluator iff it contains an aggregate (decided statically, exactly as
/// the interpreter's per-call `contains_aggregate` check decides).
#[derive(Debug)]
pub(crate) enum CUnit {
    Row(ExprId),
    Grouped(GExpr),
}

/// Compiled projection item.
#[derive(Debug)]
pub(crate) enum CItem {
    /// Copy a source column by combined-row offset (wildcard expansion).
    Passthrough(usize),
    /// Evaluate an expression.
    Expr(CUnit),
}

/// Compiled `ORDER BY` key.
#[derive(Debug)]
pub(crate) enum COrder {
    /// Alias reference into the output row (T-SQL `ORDER BY alias`).
    Output(usize),
    /// Arbitrary expression over the unit.
    Unit(CUnit),
}

/// A compiled `FROM`/`JOIN` source.
#[derive(Debug)]
pub(crate) enum CSource {
    /// Base table: rows re-read from the database at execution.
    Table { name: String, width: usize },
    /// View or derived table: a nested block run with no parent scope.
    Sub { plan: Box<CSelect>, width: usize },
    /// Name that resolved to nothing at plan time — raises
    /// `UnknownTable` when (and only when) the source is loaded.
    Missing(String),
}

impl CSource {
    pub(crate) fn width(&self) -> usize {
        match self {
            CSource::Table { width, .. } | CSource::Sub { width, .. } => *width,
            CSource::Missing(_) => 0,
        }
    }
}

/// A compiled join step.
#[derive(Debug)]
pub(crate) struct CJoin {
    pub(crate) kind: JoinKind,
    pub(crate) source: CSource,
    /// Combined width of everything left of this join.
    pub(crate) left_width: usize,
    /// `ON` predicate compiled against the accumulated (left + right)
    /// bindings.
    pub(crate) on: Option<ExprId>,
    /// Equi-key pairs `(left key, right key)` compiled in side-local
    /// scopes, present iff the interpreter's `equi_join_keys` extraction
    /// succeeds on the same bindings — so the hash/nested decision is
    /// reached from literally the same classification.
    pub(crate) hash_keys: Option<Vec<(ExprId, ExprId)>>,
}

/// One compiled query block (a `SELECT` plus an optional `UNION` chain).
#[derive(Debug)]
pub(crate) struct CSelect {
    /// Flat expression arena for this block.
    pub(crate) arena: Vec<CExpr>,
    /// `FROM` source; `None` is the zero-width single-row set (`SELECT 1`).
    pub(crate) source: Option<CSource>,
    pub(crate) joins: Vec<CJoin>,
    pub(crate) where_clause: Option<ExprId>,
    /// True when the block aggregates (explicit `GROUP BY` or aggregate
    /// functions anywhere in items/`HAVING`/`ORDER BY`).
    pub(crate) grouped: bool,
    pub(crate) group_by: Vec<ExprId>,
    pub(crate) having: Option<CUnit>,
    /// Output names and item plans; `Err` for a plan-time projection error
    /// (unknown binding in `alias.*`), surfaced after `WHERE` runs —
    /// exactly where the interpreter surfaces it.
    pub(crate) projection: Result<(Vec<String>, Vec<CItem>), EngineError>,
    pub(crate) order_by: Vec<(COrder, bool)>,
    pub(crate) distinct: bool,
    pub(crate) top: Option<u64>,
    pub(crate) union: Option<(UnionKind, Box<CSelect>)>,
    /// Combined row width of the `FROM`/`JOIN` row set.
    pub(crate) width: usize,
}

/// A statement compiled against one database's catalog structure.
///
/// Holds no row data — executing re-reads table rows — but bakes in name
/// resolution, view bodies, and join strategy, so it must be executed
/// against the database it was compiled for.
#[derive(Debug)]
pub struct CompiledPlan {
    pub(crate) db_name: String,
    pub(crate) root: CSelect,
}

/// Lower a parsed statement into a [`CompiledPlan`] for `db`.
///
/// Mirrors [`crate::execute_with`]: `CREATE VIEW` is rejected here (it
/// needs a mutable database — use [`crate::apply_ddl`]).
pub fn compile(db: &Database, stmt: &Statement) -> Result<CompiledPlan, EngineError> {
    match stmt {
        Statement::Select(s) => Ok(CompiledPlan {
            db_name: db.name.clone(),
            root: Compiler { db }.compile_select(s, None),
        }),
        Statement::CreateView { .. } => Err(EngineError::unsupported(
            "CREATE VIEW requires apply_ddl (mutable database)",
        )),
    }
}

impl CompiledPlan {
    /// Execute the plan against `db` on the vectorized block loop
    /// ([`crate::vector`]), which runs every block of the plan: the top
    /// level, derived tables and views, `UNION` arms and subqueries.
    ///
    /// Output-identical to running the original statement through
    /// [`crate::execute_with`] with the same options — results, errors,
    /// and budget accounting — provided `db` has the same structure it had
    /// at compile time. [`compile`] takes no [`ExecOptions`], so one plan
    /// serves any budget and batch size.
    pub fn execute(&self, db: &Database, opts: ExecOptions) -> Result<ResultSet, EngineError> {
        if db.name != self.db_name {
            return Err(EngineError::Catalog {
                message: format!(
                    "plan compiled for database {:?} executed against {:?}",
                    self.db_name, db.name
                ),
            });
        }
        let runner = Runner::new(db, opts);
        let result = crate::vector::run_select(&runner, &self.root, None);
        record_statement(&runner.meter, &result);
        result
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compile-time mirror of the runtime `Scope` chain: the binding lists of
/// each enclosing query block, without rows. Structurally 1:1 with the
/// [`Frame`] chain the runner builds, which is what makes `(up, idx)` slots
/// valid.
struct ScopeCtx<'a> {
    bindings: &'a [Binding],
    parent: Option<&'a ScopeCtx<'a>>,
}

impl<'a> ScopeCtx<'a> {
    /// Plan-time replica of `Scope::resolve`: same search order, same
    /// ambiguity rules, same errors — but returning a position instead of a
    /// value.
    fn resolve(&self, col: &ColumnRef) -> Result<(u32, usize), EngineError> {
        if let Some(q) = &col.qualifier {
            let mut offset = 0usize;
            for b in self.bindings {
                if b.name.eq_ignore_ascii_case(q) {
                    if let Some(i) =
                        b.columns.iter().position(|c| c.eq_ignore_ascii_case(&col.name))
                    {
                        return Ok((0, offset + i));
                    }
                    // Qualifier matched but column missing: fall through to
                    // the parent (same early break as the interpreter).
                    break;
                }
                offset += b.columns.len();
            }
            if let Some(p) = self.parent {
                return p.resolve(col).map(|(up, idx)| (up + 1, idx));
            }
            return Err(EngineError::UnknownColumn { name: format!("{q}.{}", col.name) });
        }
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
            return Ok((0, i));
        }
        if let Some(p) = self.parent {
            return p.resolve(col).map(|(up, idx)| (up + 1, idx));
        }
        Err(EngineError::UnknownColumn { name: col.name.clone() })
    }
}

struct Compiler<'a> {
    db: &'a Database,
}

impl<'a> Compiler<'a> {
    fn compile_select(&self, stmt: &SelectStatement, outer: Option<&ScopeCtx<'_>>) -> CSelect {
        let mut arena = Vec::new();

        // FROM and JOINs: build sources and the accumulated binding list.
        let mut bindings: Vec<Binding> = Vec::new();
        let source = stmt.from.as_ref().map(|src| {
            let (cs, b) = self.compile_source(src);
            bindings.push(b);
            cs
        });
        let mut joins = Vec::with_capacity(stmt.joins.len());
        for join in &stmt.joins {
            let (cs, b) = self.compile_source(&join.source);
            let left_width: usize = bindings.iter().map(|b| b.columns.len()).sum();
            let left_bindings_len = bindings.len();
            bindings.push(b);
            // Hash-key extraction runs on the exact binding slices the
            // interpreter hands to `equi_join_keys`, so plan time reaches
            // the identical hash/nested decision.
            let hash_keys = match (&join.on, join.kind) {
                (Some(pred), kind) if kind != JoinKind::Cross => {
                    let (left_b, right_b) = bindings.split_at(left_bindings_len);
                    equi_join_keys(pred, left_b, right_b).map(|keys| {
                        keys.iter()
                            .map(|&(l, r)| {
                                // Side-local scopes, as in the hash join's
                                // `side_key`: the extraction proved every
                                // column resolves inside its side.
                                let ls = ScopeCtx { bindings: left_b, parent: outer };
                                let lid = self.compile_expr(l, &ls, &mut arena);
                                let rs = ScopeCtx { bindings: right_b, parent: outer };
                                let rid = self.compile_expr(r, &rs, &mut arena);
                                (lid, rid)
                            })
                            .collect()
                    })
                }
                _ => None,
            };
            let on = join.on.as_ref().map(|pred| {
                let scope = ScopeCtx { bindings: &bindings, parent: outer };
                self.compile_expr(pred, &scope, &mut arena)
            });
            joins.push(CJoin { kind: join.kind, source: cs, left_width, on, hash_keys });
        }
        let width: usize = bindings.iter().map(|b| b.columns.len()).sum();
        let scope = ScopeCtx { bindings: &bindings, parent: outer };

        let where_clause =
            stmt.where_clause.as_ref().map(|p| self.compile_expr(p, &scope, &mut arena));

        let has_aggregates = stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        }) || stmt.having.as_ref().is_some_and(contains_aggregate)
            || stmt.order_by.iter().any(|o| contains_aggregate(&o.expr));
        let grouped = has_aggregates || !stmt.group_by.is_empty();

        let projection = self.compile_projection(stmt, &bindings, &scope, &mut arena);

        let group_by: Vec<ExprId> =
            stmt.group_by.iter().map(|g| self.compile_expr(g, &scope, &mut arena)).collect();
        let having =
            stmt.having.as_ref().map(|h| self.compile_unit(h, &scope, &mut arena));

        let out_names: &[String] = match &projection {
            Ok((names, _)) => names,
            Err(_) => &[],
        };
        let order_by: Vec<(COrder, bool)> = stmt
            .order_by
            .iter()
            .map(|o| (self.compile_order_key(o, out_names, &scope, &mut arena), o.descending))
            .collect();

        let union = stmt
            .union
            .as_ref()
            .map(|(kind, rhs)| (*kind, Box::new(self.compile_select(rhs, outer))));

        CSelect {
            arena,
            source,
            joins,
            where_clause,
            grouped,
            group_by,
            having,
            projection,
            order_by,
            distinct: stmt.distinct,
            top: stmt.top,
            union,
            width,
        }
    }

    /// Plan-time replica of the interpreter's `load_source` name
    /// resolution: the table/view/shadowing decision is frozen into the
    /// plan (the row data is not).
    fn compile_source(&self, src: &TableSource) -> (CSource, Binding) {
        match src {
            TableSource::Named { schema, name, alias } => {
                let binding_name = alias.clone().unwrap_or_else(|| name.clone());
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
                        let columns: Vec<String> =
                            t.schema.column_names().map(str::to_owned).collect();
                        let width = columns.len();
                        return (
                            CSource::Table { name: name.clone(), width },
                            Binding { name: binding_name, columns },
                        );
                    }
                }
                match shadowing_view.or_else(|| self.db.view(schema.as_deref(), name)) {
                    Some(view) => {
                        let plan = self.compile_select(&view.query, None);
                        let columns = plan.output_columns().to_vec();
                        let width = columns.len();
                        (
                            CSource::Sub { plan: Box::new(plan), width },
                            Binding { name: binding_name, columns },
                        )
                    }
                    None => (
                        CSource::Missing(name.clone()),
                        Binding { name: binding_name, columns: Vec::new() },
                    ),
                }
            }
            TableSource::Derived { query, alias } => {
                let plan = self.compile_select(query, None);
                let columns = plan.output_columns().to_vec();
                let width = columns.len();
                (
                    CSource::Sub { plan: Box::new(plan), width },
                    Binding { name: alias.clone(), columns },
                )
            }
        }
    }

    fn compile_projection(
        &self,
        stmt: &SelectStatement,
        bindings: &[Binding],
        scope: &ScopeCtx<'_>,
        arena: &mut Vec<CExpr>,
    ) -> Result<(Vec<String>, Vec<CItem>), EngineError> {
        let mut names = Vec::new();
        let mut items = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    let mut offset = 0usize;
                    for b in bindings {
                        for (ci, c) in b.columns.iter().enumerate() {
                            names.push(c.clone());
                            items.push(CItem::Passthrough(offset + ci));
                        }
                        offset += b.columns.len();
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut offset = 0usize;
                    let mut found = false;
                    for b in bindings {
                        if b.name.eq_ignore_ascii_case(q) {
                            for (ci, c) in b.columns.iter().enumerate() {
                                names.push(c.clone());
                                items.push(CItem::Passthrough(offset + ci));
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
                    items.push(CItem::Expr(self.compile_unit(expr, scope, arena)));
                }
            }
        }
        Ok((names, items))
    }

    fn compile_order_key(
        &self,
        item: &OrderItem,
        out_names: &[String],
        scope: &ScopeCtx<'_>,
        arena: &mut Vec<CExpr>,
    ) -> COrder {
        // Alias reference? The interpreter builds a last-wins
        // uppercase-name map, hence `rposition`.
        if let Expr::Column(c) = &item.expr {
            if c.qualifier.is_none() {
                if let Some(i) =
                    out_names.iter().rposition(|n| n.eq_ignore_ascii_case(&c.name))
                {
                    return COrder::Output(i);
                }
            }
        }
        COrder::Unit(self.compile_unit(&item.expr, scope, arena))
    }

    /// Compile an expression that may contain aggregates, choosing the
    /// grouped or row evaluator statically (the interpreter's `eval_unit`
    /// makes the same `contains_aggregate` choice per call).
    fn compile_unit(&self, e: &Expr, scope: &ScopeCtx<'_>, arena: &mut Vec<CExpr>) -> CUnit {
        if contains_aggregate(e) {
            CUnit::Grouped(self.compile_grouped(e, scope, arena))
        } else {
            CUnit::Row(self.compile_expr(e, scope, arena))
        }
    }

    /// Mirror of the interpreter's `eval_grouped` recursion shape.
    fn compile_grouped(&self, e: &Expr, scope: &ScopeCtx<'_>, arena: &mut Vec<CExpr>) -> GExpr {
        match e {
            Expr::Function { name, args, distinct } if is_aggregate_name(name) => {
                let arg = match args.first() {
                    Some(FunctionArg::Wildcard) if name == "COUNT" => AggArg::CountStar,
                    Some(FunctionArg::Wildcard) => AggArg::StarInvalid,
                    Some(FunctionArg::Expr(a)) => {
                        AggArg::Expr(self.compile_expr(a, scope, arena))
                    }
                    None => AggArg::Missing,
                };
                GExpr::Agg { name: name.clone(), distinct: *distinct, arg }
            }
            Expr::Binary { left, op: BinOp::And, right } => GExpr::And(
                Box::new(self.compile_grouped(left, scope, arena)),
                Box::new(self.compile_grouped(right, scope, arena)),
            ),
            Expr::Binary { left, op: BinOp::Or, right } => GExpr::Or(
                Box::new(self.compile_grouped(left, scope, arena)),
                Box::new(self.compile_grouped(right, scope, arena)),
            ),
            Expr::Binary { left, op, right } => GExpr::Binary {
                left: Box::new(self.compile_grouped(left, scope, arena)),
                op: *op,
                right: Box::new(self.compile_grouped(right, scope, arena)),
            },
            Expr::Unary { op, expr } => GExpr::Unary {
                op: *op,
                expr: Box::new(self.compile_grouped(expr, scope, arena)),
            },
            _ => GExpr::Row(self.compile_expr(e, scope, arena)),
        }
    }

    fn push(&self, arena: &mut Vec<CExpr>, node: CExpr) -> ExprId {
        arena.push(node);
        arena.len() - 1
    }

    /// Mirror of the interpreter's scalar `eval`, arm by arm, with name
    /// resolution and statically-detectable errors done now.
    fn compile_expr(&self, e: &Expr, scope: &ScopeCtx<'_>, arena: &mut Vec<CExpr>) -> ExprId {
        let node = match e {
            Expr::Literal(l) => CExpr::Const(match l {
                Literal::Int(n) => Value::Int(*n),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::from(s.as_str()),
                Literal::Null => Value::Null,
            }),
            Expr::Column(c) => match scope.resolve(c) {
                Ok((up, idx)) => CExpr::Slot { up, idx },
                Err(err) => CExpr::Err(err),
            },
            Expr::Unary { op, expr } => {
                let id = self.compile_expr(expr, scope, arena);
                CExpr::Unary { op: *op, expr: id }
            }
            Expr::Binary { left, op, right } => {
                let l = self.compile_expr(left, scope, arena);
                let r = self.compile_expr(right, scope, arena);
                match op {
                    BinOp::And => CExpr::And { left: l, right: r },
                    BinOp::Or => CExpr::Or { left: l, right: r },
                    _ => CExpr::Binary { left: l, op: *op, right: r },
                }
            }
            Expr::Function { name, args, .. } => {
                if is_aggregate_name(name) {
                    // The interpreter raises this before touching the
                    // arguments; freezing it keeps that precedence.
                    CExpr::Err(EngineError::type_error(format!(
                        "aggregate {name} outside grouped context"
                    )))
                } else {
                    let cargs = args
                        .iter()
                        .map(|a| match a {
                            FunctionArg::Wildcard => CArg::Wildcard,
                            FunctionArg::Expr(e) => {
                                CArg::Expr(self.compile_expr(e, scope, arena))
                            }
                        })
                        .collect();
                    CExpr::Func { name: name.clone(), args: cargs }
                }
            }
            Expr::IsNull { expr, negated } => {
                let id = self.compile_expr(expr, scope, arena);
                CExpr::IsNull { expr: id, negated: *negated }
            }
            Expr::InList { expr, list, negated } => {
                let id = self.compile_expr(expr, scope, arena);
                let list = list.iter().map(|i| self.compile_expr(i, scope, arena)).collect();
                CExpr::InList { expr: id, list, negated: *negated }
            }
            Expr::InSubquery { expr, query, negated } => {
                let id = self.compile_expr(expr, scope, arena);
                let plan = self.compile_select(query, Some(scope));
                let uncorrelated = !block_is_correlated(&plan, 0);
                CExpr::InSubquery {
                    expr: id,
                    query: Box::new(plan),
                    negated: *negated,
                    uncorrelated,
                }
            }
            Expr::Exists { query, negated } => {
                let plan = self.compile_select(query, Some(scope));
                let uncorrelated = !block_is_correlated(&plan, 0);
                CExpr::Exists { query: Box::new(plan), negated: *negated, uncorrelated }
            }
            Expr::Between { expr, low, high, negated } => {
                let e = self.compile_expr(expr, scope, arena);
                let lo = self.compile_expr(low, scope, arena);
                let hi = self.compile_expr(high, scope, arena);
                CExpr::Between { expr: e, low: lo, high: hi, negated: *negated }
            }
            Expr::Like { expr, pattern, negated } => {
                let id = self.compile_expr(expr, scope, arena);
                CExpr::Like {
                    expr: id,
                    pattern: pattern.to_ascii_lowercase().into_boxed_str(),
                    negated: *negated,
                }
            }
            Expr::Subquery(q) => {
                let plan = self.compile_select(q, Some(scope));
                let uncorrelated = !block_is_correlated(&plan, 0);
                CExpr::Subquery { query: Box::new(plan), uncorrelated }
            }
            Expr::Case { operand, branches, else_expr } => {
                let operand = operand.as_ref().map(|o| self.compile_expr(o, scope, arena));
                let branches = branches
                    .iter()
                    .map(|(w, t)| {
                        (self.compile_expr(w, scope, arena), self.compile_expr(t, scope, arena))
                    })
                    .collect();
                let else_expr =
                    else_expr.as_ref().map(|e| self.compile_expr(e, scope, arena));
                CExpr::Case { operand, branches, else_expr }
            }
            Expr::Wildcard => CExpr::Err(EngineError::type_error("bare * outside COUNT")),
        };
        self.push(arena, node)
    }
}

impl CSelect {
    /// Output column names, or an empty slice when projection planning
    /// failed (the block errors before producing columns, so nothing can
    /// observe the difference).
    fn output_columns(&self) -> &[String] {
        match &self.projection {
            Ok((names, _)) => names,
            Err(_) => &[],
        }
    }
}

/// Does any slot in `sel` reach a frame *outside* the block `level` hops
/// up? Called with `level = 0` on a freshly compiled subquery block, this
/// decides correlation: every expression in a block's arena evaluates with
/// that block's row at `up = 0` (join hash keys and `ON` predicates use
/// side-local/accumulated frames whose parent is the block's outer scope,
/// so the same bound applies), a nested subquery adds one frame, and a
/// `UNION` arm runs under the same outer scope. Derived tables and views
/// compile with no outer scope, so their slots cannot escape and their
/// arenas need no walk.
fn block_is_correlated(sel: &CSelect, level: u32) -> bool {
    sel.arena.iter().any(|e| match e {
        CExpr::Slot { up, .. } => *up > level,
        CExpr::InSubquery { query, .. }
        | CExpr::Exists { query, .. }
        | CExpr::Subquery { query, .. } => block_is_correlated(query, level + 1),
        _ => false,
    }) || sel
        .union
        .as_ref()
        .is_some_and(|(_, rhs)| block_is_correlated(rhs, level))
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Runtime mirror of the compile-time [`ScopeCtx`] chain: the current
/// combined row of each enclosing query block. [`CExpr::Slot`]'s `up` hops
/// this chain; correlated subqueries re-bind by running under a new frame
/// whose parent is the current one.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Frame<'a>>,
}

impl<'a> Frame<'a> {
    pub(crate) fn slot(&self, up: u32, idx: usize) -> &Value {
        let mut f = self;
        for _ in 0..up {
            f = f.parent.expect("slot depth matches compile-time scope chain");
        }
        &f.row[idx]
    }
}

/// The group unit representative: a real row of the block, or the
/// synthesized all-NULL row of an empty global aggregate group.
enum Rep {
    Row(usize),
    Nulls(Vec<Value>),
}

/// One memoized uncorrelated subquery block: its result and what its
/// first run charged the meter.
struct MemoBlock {
    rows: Rc<ResultSet>,
    steps: u64,
    join_rows: u64,
}

/// The end of every block tail, shared by [`Runner::tail`] and the
/// vectorized tail: observe the projected rows, then `DISTINCT`, the stable
/// `ORDER BY` and `TOP`, in the interpreter's order. Each projected row
/// travels with its `ORDER BY` key values.
pub(crate) fn finish_block(
    sel: &CSelect,
    columns: &[String],
    mut projected: Vec<(Vec<Value>, Vec<Value>)>,
) -> ResultSet {
    snails_obs::observe(Obs::EngineOpProjectRows, projected.len() as u64);
    if sel.distinct {
        let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
        projected.retain(|(row, _)| seen.insert(row.iter().map(Value::hash_key).collect()));
    }
    if !sel.order_by.is_empty() {
        snails_obs::observe(Obs::EngineOpSortRows, projected.len() as u64);
        projected.sort_by(|(_, ka), (_, kb)| {
            for (i, (_, desc)) in sel.order_by.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Vec<Value>> = projected.into_iter().map(|(row, _)| row).collect();
    if let Some(n) = sel.top {
        rows.truncate(n as usize);
    }
    ResultSet {
        columns: columns.to_vec(),
        rows,
    }
}

/// Per-execution state of one compiled statement — the budget meter, the
/// subquery memo, and the buffer pool — plus the row-at-a-time fallbacks
/// the vectorized block loop ([`crate::vector`]) delegates to: scalar
/// evaluation ([`Self::eval`], [`Self::eval_grouped`]; join keys the
/// vector kernels abort on evaluate through it too), the block tail
/// ([`Self::tail`]), the nested-loop join ([`Self::nested_join`]) and
/// subquery evaluation ([`Self::run_subquery`]). The runner runs no query
/// block and no hash join itself.
pub(crate) struct Runner<'a> {
    pub(crate) db: &'a Database,
    pub(crate) opts: ExecOptions,
    pub(crate) meter: Meter,
    /// Per-execution results of uncorrelated subquery blocks, keyed by
    /// block address (each `Box<CSelect>` is a distinct, pinned block),
    /// with the budget each block's first run charged. See
    /// [`Self::run_subquery`].
    subquery_memo: RefCell<HashMap<usize, MemoBlock>>,
    /// Hot-loop buffer pool of the vectorized block loop (see
    /// [`crate::batch::BatchPool`]), shared by every block of the
    /// execution, subqueries included.
    pub(crate) pool: crate::batch::BatchPool,
}

impl<'a> Runner<'a> {
    pub(crate) fn new(db: &'a Database, opts: ExecOptions) -> Self {
        Runner {
            db,
            opts,
            meter: Meter::new(opts.limits),
            subquery_memo: RefCell::new(HashMap::new()),
            pool: crate::batch::BatchPool::new(),
        }
    }

    /// Run a subquery block under `frame` on the vectorized block loop.
    /// Correlated blocks re-run per outer row, exactly like the
    /// interpreter. A block proven uncorrelated at plan time runs for
    /// real once per statement execution; its result cannot depend on
    /// `frame`, so later
    /// evaluations replay it from the memo and charge the steps and join
    /// rows its first run charged, in one [`Meter::try_charge`]. The
    /// meter then ends where re-running the block would have left it.
    /// When the charge does not fit, nothing is charged and the block
    /// re-runs for real, so the error, its trip point and the meter totals
    /// are the interpreter's. Depth and the output-row budget need no
    /// replay: the block always enters at the same depth and yields the
    /// same rows, and its first run passed both checks. Errors are not
    /// memoized; they end the statement.
    fn run_subquery(
        &self,
        q: &CSelect,
        frame: &Frame<'_>,
        uncorrelated: bool,
    ) -> Result<Rc<ResultSet>, EngineError> {
        if !uncorrelated {
            return crate::vector::run_select(self, q, Some(frame)).map(Rc::new);
        }
        let key = q as *const CSelect as usize;
        if let Some(m) = self.subquery_memo.borrow().get(&key) {
            if self.meter.try_charge(m.steps, m.join_rows) {
                snails_obs::add(Obs::EngineExecSubqueryReplays, 1);
                return Ok(Rc::clone(&m.rows));
            }
        }
        let (steps, join_rows) = (self.meter.steps_used(), self.meter.join_rows_used());
        let rows = Rc::new(crate::vector::run_select(self, q, Some(frame))?);
        let memo = MemoBlock {
            rows: Rc::clone(&rows),
            steps: self.meter.steps_used() - steps,
            join_rows: self.meter.join_rows_used() - join_rows,
        };
        self.subquery_memo.borrow_mut().insert(key, memo);
        Ok(rows)
    }

    /// The post-`WHERE` stages of one block — projection-error surfacing,
    /// grouping, `HAVING`, projection, `DISTINCT`, `ORDER BY`, `TOP` —
    /// over already-filtered `rows`, row at a time under `outer`. The
    /// vectorized block loop (`crate::vector`) hands it a materialized row
    /// set when a block's unit expressions contain subqueries or
    /// outer-row references (or the input is empty) and scalar evaluation
    /// is the cheapest exact path. `UNION` and the output-row budget stay
    /// in the caller.
    pub(crate) fn tail(
        &self,
        sel: &CSelect,
        rows: Vec<Vec<Value>>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ResultSet, EngineError> {
        // Plan-time projection errors surface here, after WHERE — exactly
        // where the interpreter calls `projection_plan`.
        let (out_columns, items) = match &sel.projection {
            Ok(p) => p,
            Err(e) => return Err(e.clone()),
        };

        // Units: (representative, group member indices). Indices into
        // `rows` instead of cloned row vectors — the one representational
        // difference from the interpreter, invisible in the output.
        let units: Vec<(Rep, Vec<usize>)> = if sel.grouped {
            if sel.group_by.is_empty() {
                let rep = if rows.is_empty() {
                    Rep::Nulls(vec![Value::Null; sel.width])
                } else {
                    Rep::Row(0)
                };
                vec![(rep, (0..rows.len()).collect())]
            } else {
                self.meter.charge_steps(rows.len() as u64)?;
                let mut units: Vec<Vec<usize>> = Vec::new();
                let mut groups: HashMap<Vec<HashKey>, usize> = HashMap::new();
                for (ri, row) in rows.iter().enumerate() {
                    let frame = Frame { row, parent: outer };
                    let mut key = Vec::with_capacity(sel.group_by.len());
                    for &g in &sel.group_by {
                        key.push(self.eval(sel, g, &frame)?.hash_key());
                    }
                    match groups.entry(key) {
                        Entry::Occupied(e) => units[*e.get()].push(ri),
                        Entry::Vacant(e) => {
                            e.insert(units.len());
                            units.push(vec![ri]);
                        }
                    }
                }
                units.into_iter().map(|g| (Rep::Row(g[0]), g)).collect()
            }
        } else {
            (0..rows.len()).map(|i| (Rep::Row(i), vec![i])).collect()
        };
        if sel.grouped {
            snails_obs::observe(Obs::EngineOpGroupUnits, units.len() as u64);
        }

        // HAVING.
        let units: Vec<_> = if let Some(h) = &sel.having {
            let mut kept = Vec::new();
            for unit in units {
                let v = self.eval_unit(sel, h, &unit, &rows, outer)?;
                if truth(&v) == Some(true) {
                    kept.push(unit);
                }
            }
            kept
        } else {
            units
        };

        // Projection + ORDER BY keys.
        self.meter.charge_steps(units.len() as u64)?;
        let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(units.len());
        for unit in &units {
            let rep: &[Value] = match &unit.0 {
                Rep::Row(i) => &rows[*i],
                Rep::Nulls(r) => r,
            };
            let mut out_row = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    CItem::Passthrough(idx) => out_row.push(rep[*idx].clone()),
                    CItem::Expr(u) => {
                        out_row.push(self.eval_unit(sel, u, unit, &rows, outer)?)
                    }
                }
            }
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for (key, _) in &sel.order_by {
                match key {
                    COrder::Output(i) => keys.push(out_row[*i].clone()),
                    COrder::Unit(u) => keys.push(self.eval_unit(sel, u, unit, &rows, outer)?),
                }
            }
            projected.push((out_row, keys));
        }
        Ok(finish_block(sel, out_columns, projected))
    }

    pub(crate) fn nested_join(
        &self,
        sel: &CSelect,
        left: Vec<Vec<Value>>,
        right: Vec<Vec<Value>>,
        join: &CJoin,
        outer: Option<&Frame<'_>>,
    ) -> Result<Vec<Vec<Value>>, EngineError> {
        let left_width = join.left_width;
        let right_width = join.source.width();
        let mut rows = Vec::new();

        let on_true = |combined: &[Value]| -> Result<bool, EngineError> {
            match join.on {
                None => Ok(true),
                Some(pred) => {
                    let frame = Frame { row: combined, parent: outer };
                    Ok(truth(&self.eval(sel, pred, &frame)?) == Some(true))
                }
            }
        };

        match join.kind {
            JoinKind::Inner | JoinKind::Cross => {
                for l in &left {
                    self.meter.charge_join(right.len().max(1) as u64)?;
                    for r in &right {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                        }
                    }
                }
            }
            JoinKind::Left => {
                for l in &left {
                    self.meter.charge_join(right.len().max(1) as u64)?;
                    let mut matched = false;
                    for r in &right {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                            matched = true;
                        }
                    }
                    if !matched {
                        let mut combined = l.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right_width));
                        rows.push(combined);
                    }
                }
            }
            JoinKind::Right => {
                for r in &right {
                    self.meter.charge_join(left.len().max(1) as u64)?;
                    let mut matched = false;
                    for l in &left {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        if on_true(&combined)? {
                            rows.push(combined);
                            matched = true;
                        }
                    }
                    if !matched {
                        let mut combined = vec![Value::Null; left_width];
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                }
            }
            JoinKind::Full => {
                let mut right_matched = vec![false; right.len()];
                for l in &left {
                    self.meter.charge_join(right.len().max(1) as u64)?;
                    let mut matched = false;
                    for (ri, r) in right.iter().enumerate() {
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
                        combined.extend(std::iter::repeat_n(Value::Null, right_width));
                        rows.push(combined);
                    }
                }
                for (ri, r) in right.iter().enumerate() {
                    if !right_matched[ri] {
                        let mut combined = vec![Value::Null; left_width];
                        combined.extend(r.iter().cloned());
                        rows.push(combined);
                    }
                }
            }
        }
        Ok(rows)
    }

    fn eval_unit(
        &self,
        sel: &CSelect,
        unit_expr: &CUnit,
        unit: &(Rep, Vec<usize>),
        rows: &[Vec<Value>],
        outer: Option<&Frame<'_>>,
    ) -> Result<Value, EngineError> {
        let rep: &[Value] = match &unit.0 {
            Rep::Row(i) => &rows[*i],
            Rep::Nulls(r) => r,
        };
        match unit_expr {
            CUnit::Row(id) => {
                let frame = Frame { row: rep, parent: outer };
                self.eval(sel, *id, &frame)
            }
            CUnit::Grouped(g) => self.eval_grouped(sel, g, rep, &unit.1, rows, outer),
        }
    }

    /// Mirror of the interpreter's `eval_grouped` (including its
    /// three-valued short-circuit for AND/OR).
    fn eval_grouped(
        &self,
        sel: &CSelect,
        g: &GExpr,
        rep: &[Value],
        group: &[usize],
        rows: &[Vec<Value>],
        outer: Option<&Frame<'_>>,
    ) -> Result<Value, EngineError> {
        match g {
            GExpr::Agg { name, distinct, arg } => match arg {
                AggArg::CountStar => Ok(Value::Int(group.len() as i64)),
                AggArg::StarInvalid => {
                    Err(EngineError::type_error(format!("{name}(*) is not valid")))
                }
                AggArg::Missing => {
                    Err(EngineError::type_error(format!("{name} requires an argument")))
                }
                AggArg::Expr(id) => {
                    let mut values = Vec::with_capacity(group.len());
                    for &ri in group {
                        let frame = Frame { row: &rows[ri], parent: outer };
                        let v = self.eval(sel, *id, &frame)?;
                        if !v.is_null() {
                            values.push(v);
                        }
                    }
                    finish_aggregate(name, *distinct, values)
                }
            },
            GExpr::And(left, right) => {
                let l = truth(&self.eval_grouped(sel, left, rep, group, rows, outer)?);
                if l == Some(false) {
                    return Ok(bool_value(Some(false)));
                }
                let r = truth(&self.eval_grouped(sel, right, rep, group, rows, outer)?);
                Ok(bool_value(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                }))
            }
            GExpr::Or(left, right) => {
                let l = truth(&self.eval_grouped(sel, left, rep, group, rows, outer)?);
                if l == Some(true) {
                    return Ok(bool_value(Some(true)));
                }
                let r = truth(&self.eval_grouped(sel, right, rep, group, rows, outer)?);
                Ok(bool_value(match (l, r) {
                    (Some(false), Some(false)) => Some(false),
                    (_, Some(true)) => Some(true),
                    _ => None,
                }))
            }
            GExpr::Binary { left, op, right } => {
                let l = self.eval_grouped(sel, left, rep, group, rows, outer)?;
                let r = self.eval_grouped(sel, right, rep, group, rows, outer)?;
                eval_binary(&l, *op, &r)
            }
            GExpr::Unary { op, expr } => {
                let v = self.eval_grouped(sel, expr, rep, group, rows, outer)?;
                eval_unary(*op, &v)
            }
            GExpr::Row(id) => {
                let frame = Frame { row: rep, parent: outer };
                self.eval(sel, *id, &frame)
            }
        }
    }

    /// Scalar IR evaluation — mirror of the interpreter's `eval`, arm by
    /// arm, minus the per-row name resolution it no longer needs.
    pub(crate) fn eval(
        &self,
        sel: &CSelect,
        id: ExprId,
        frame: &Frame<'_>,
    ) -> Result<Value, EngineError> {
        match &sel.arena[id] {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Slot { up, idx } => Ok(frame.slot(*up, *idx).clone()),
            CExpr::Err(e) => Err(e.clone()),
            CExpr::Unary { op, expr } => {
                let v = self.eval(sel, *expr, frame)?;
                eval_unary(*op, &v)
            }
            CExpr::And { left, right } => {
                let l = truth(&self.eval(sel, *left, frame)?);
                if l == Some(false) {
                    return Ok(bool_value(Some(false)));
                }
                let r = truth(&self.eval(sel, *right, frame)?);
                Ok(bool_value(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                }))
            }
            CExpr::Or { left, right } => {
                let l = truth(&self.eval(sel, *left, frame)?);
                if l == Some(true) {
                    return Ok(bool_value(Some(true)));
                }
                let r = truth(&self.eval(sel, *right, frame)?);
                Ok(bool_value(match (l, r) {
                    (Some(false), Some(false)) => Some(false),
                    (_, Some(true)) => Some(true),
                    _ => None,
                }))
            }
            CExpr::Binary { left, op, right } => {
                let l = self.eval(sel, *left, frame)?;
                let r = self.eval(sel, *right, frame)?;
                eval_binary(&l, *op, &r)
            }
            CExpr::Func { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    match a {
                        CArg::Wildcard => {
                            return Err(EngineError::type_error(format!(
                                "{name}(*) is not valid"
                            )))
                        }
                        CArg::Expr(id) => vals.push(self.eval(sel, *id, frame)?),
                    }
                }
                scalar_fn(name, &vals)
            }
            CExpr::IsNull { expr, negated } => {
                let v = self.eval(sel, *expr, frame)?;
                Ok(bool_value(Some(v.is_null() != *negated)))
            }
            CExpr::InList { expr, list, negated } => {
                let v = self.eval(sel, *expr, frame)?;
                let mut saw_null = v.is_null();
                let mut found = false;
                for &item in list {
                    let iv = self.eval(sel, item, frame)?;
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
            CExpr::InSubquery { expr, query, negated, uncorrelated } => {
                let v = self.eval(sel, *expr, frame)?;
                let rs = self.run_subquery(query, frame, *uncorrelated)?;
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
            CExpr::Exists { query, negated, uncorrelated } => {
                let rs = self.run_subquery(query, frame, *uncorrelated)?;
                Ok(bool_value(Some(rs.is_empty() == *negated)))
            }
            CExpr::Between { expr, low, high, negated } => {
                let v = self.eval(sel, *expr, frame)?;
                let lo = self.eval(sel, *low, frame)?;
                let hi = self.eval(sel, *high, frame)?;
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                let b = match (ge, le) {
                    (Some(a), Some(b)) => Some(a && b),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                };
                Ok(bool_value(b.map(|x| x != *negated)))
            }
            CExpr::Like { expr, pattern, negated } => {
                let v = self.eval(sel, *expr, frame)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        let m = like_match(&s.to_ascii_lowercase(), pattern);
                        Ok(bool_value(Some(m != *negated)))
                    }
                    other => Err(EngineError::type_error(format!("LIKE over {other:?}"))),
                }
            }
            CExpr::Subquery { query, uncorrelated } => {
                let rs = self.run_subquery(query, frame, *uncorrelated)?;
                Ok(rs.scalar().cloned().unwrap_or(Value::Null))
            }
            CExpr::Case { operand, branches, else_expr } => {
                match operand {
                    Some(op) => {
                        let v = self.eval(sel, *op, frame)?;
                        for &(when, then) in branches {
                            let w = self.eval(sel, when, frame)?;
                            if v.sql_eq(&w) == Some(true) {
                                return self.eval(sel, then, frame);
                            }
                        }
                    }
                    None => {
                        for &(when, then) in branches {
                            if truth(&self.eval(sel, when, frame)?) == Some(true) {
                                return self.eval(sel, then, frame);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => self.eval(sel, *e, frame),
                    None => Ok(Value::Null),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// A thread-safe compile-once cache: (database name, normalized SQL) →
/// [`CompiledPlan`].
///
/// Normalization is token-stream based ([`snails_sql::cache_key`]), so the
/// same statement modulo whitespace, keyword case, and comments hits one
/// entry. Statements that fail to lex/parse/compile are never cached — the
/// error is recomputed per call, matching the uncached path exactly — and
/// neither are statements longer than 4,096 bytes (`MAX_CACHED_SQL`).
///
/// Intended lifetime: one cache per `(database, variant)` evaluation
/// context, created after any DDL (view installation) is applied, since
/// compiled plans snapshot catalog structure.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    /// `None` = unbounded (the default).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Longest statement, in bytes, whose plan a [`PlanCache`] keeps. Cache
/// keys keep literals, so a cached plan's memory grows with its statement;
/// a longer statement compiles on every call and counts as a miss. This
/// bounds a cache of `capacity` plans in bytes as well as in count. It sits
/// far above any real statement: the longest of the 503 gold statements is
/// 206 bytes, and the longest a grid pass plans is about 210.
pub(crate) const MAX_CACHED_SQL: usize = 4096;

/// Map plus FIFO insertion order, updated together under one lock.
#[derive(Debug, Default)]
struct CacheInner {
    plans: HashMap<String, Arc<CompiledPlan>>,
    order: std::collections::VecDeque<String>,
}

impl PlanCache {
    /// New unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding at most `capacity` plans; when a compile would
    /// overflow it, the oldest *inserted* entry is evicted (FIFO — cheap,
    /// deterministic, and order-insensitive to concurrent hits, unlike
    /// LRU). `capacity` is clamped to at least 1.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache { capacity: Some(capacity.max(1)), ..Self::default() }
    }

    /// Parse/compile `sql` (or fetch the cached plan) and execute it.
    ///
    /// Behaviorally identical to [`crate::run_sql_with`] for a structurally
    /// stable database.
    pub fn run(
        &self,
        db: &Database,
        sql: &str,
        opts: ExecOptions,
    ) -> Result<ResultSet, EngineError> {
        let plan = self.plan(db, sql)?;
        plan.execute(db, opts)
    }

    /// Fetch or compile the plan for `sql` against `db`.
    pub fn plan(&self, db: &Database, sql: &str) -> Result<Arc<CompiledPlan>, EngineError> {
        if sql.len() > MAX_CACHED_SQL {
            self.misses.fetch_add(1, AtomicOrdering::Relaxed);
            snails_obs::add(Obs::EnginePlanCacheMiss, 1);
            let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
            let plan = Arc::new(compile(db, &stmt)?);
            snails_obs::add(Obs::EnginePlanCompile, 1);
            return Ok(plan);
        }
        let Some(norm) = snails_sql::cache_key(sql) else {
            // Unlexable input: fall through to the parser for its exact
            // error (never cached).
            let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
            return compile(db, &stmt).map(Arc::new);
        };
        let key = format!("{}\u{1}{}", db.name, norm);
        // The lock is held across the compile: a racing lookup of the same
        // key then blocks and *hits* instead of compiling twice, which makes
        // the hit/miss/compile counts pure functions of the lookup sequence
        // — identical at any thread count (the telemetry report's
        // deterministic section depends on this). Compilation is cheap AST
        // lowering, so the serialization is negligible next to execution.
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if let Some(p) = inner.plans.get(&key) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            snails_obs::add(Obs::EnginePlanCacheHit, 1);
            return Ok(Arc::clone(p));
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        snails_obs::add(Obs::EnginePlanCacheMiss, 1);
        let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
        let plan = Arc::new(compile(db, &stmt)?);
        self.insert(&mut inner, key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Insert a freshly compiled plan, then evict the oldest inserted
    /// entries (FIFO) until the cache is back within its capacity.
    fn insert(&self, inner: &mut CacheInner, key: String, plan: Arc<CompiledPlan>) {
        snails_obs::add(Obs::EnginePlanCompile, 1);
        inner.plans.insert(key.clone(), plan);
        inner.order.push_back(key);
        if let Some(cap) = self.capacity {
            while inner.plans.len() > cap {
                let oldest = inner.order.pop_front().expect("order tracks plans");
                inner.plans.remove(&oldest);
                self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
                snails_obs::add(Obs::EnginePlanCacheEviction, 1);
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(AtomicOrdering::Relaxed)
    }

    /// Cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(AtomicOrdering::Relaxed)
    }

    /// Plans evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(AtomicOrdering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").plans.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::value::DataType;
    use crate::{run_sql_with, ExecLimits};

    fn db() -> Database {
        let mut db = Database::new("plandb");
        db.create_table(
            TableSchema::new("t")
                .column("id", DataType::Int)
                .column("name", DataType::Varchar)
                .column("score", DataType::Float),
        );
        for (id, name, score) in
            [(1, "alpha", 1.5), (2, "beta", 2.5), (3, "alpha", 3.5), (4, "gamma", 0.5)]
        {
            db.insert("t", vec![Value::Int(id), Value::from(name), Value::Float(score)])
                .unwrap();
        }
        db.create_table(
            TableSchema::new("u").column("id", DataType::Int).column("t_id", DataType::Int),
        );
        for (id, t_id) in [(10, 1), (11, 2), (12, 2)] {
            db.insert("u", vec![Value::Int(id), Value::Int(t_id)]).unwrap();
        }
        db
    }

    /// Compile + execute must match parse + interpret exactly (both Ok and
    /// Err cases).
    fn check(db: &Database, sql: &str) {
        let opts = ExecOptions::default();
        let interpreted = run_sql_with(db, sql, opts);
        let cache = PlanCache::new();
        let planned = cache.run(db, sql, opts);
        assert_eq!(planned, interpreted, "plan/interpreter divergence for {sql:?}");
    }

    #[test]
    fn basic_equivalence() {
        let db = db();
        for sql in [
            "SELECT * FROM t",
            "SELECT name, score FROM t WHERE id > 1 ORDER BY score DESC",
            "SELECT t.name, u.id FROM t JOIN u ON t.id = u.t_id ORDER BY u.id",
            "SELECT name, COUNT(*), SUM(score) FROM t GROUP BY name ORDER BY name",
            "SELECT name FROM t WHERE name LIKE 'a%'",
            "SELECT DISTINCT name FROM t ORDER BY name",
            "SELECT TOP 2 id FROM t ORDER BY id DESC",
            "SELECT id FROM t UNION SELECT t_id FROM u ORDER BY id",
            "SELECT name FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.t_id = t.id)",
            "SELECT name FROM t WHERE id IN (SELECT t_id FROM u)",
            "SELECT (SELECT COUNT(*) FROM u WHERE u.t_id = t.id) FROM t ORDER BY id",
            "SELECT name, COUNT(*) FROM t GROUP BY name HAVING COUNT(*) > 1 AND name = 'alpha'",
            "SELECT CASE WHEN score > 2 THEN 'hi' ELSE 'lo' END FROM t ORDER BY id",
            "SELECT UPPER(name), LEN(name), ROUND(score, 0) FROM t ORDER BY id",
            "SELECT a.name FROM (SELECT name FROM t WHERE id < 3) a ORDER BY a.name",
        ] {
            check(&db, sql);
        }
    }

    #[test]
    fn error_equivalence() {
        let db = db();
        for sql in [
            "SELECT missing FROM t",
            "SELECT x.name FROM t",
            "SELECT id FROM t JOIN u ON t.id = u.t_id",  // ambiguous id in projection
            "SELECT * FROM nothere",
            "SELECT z.* FROM t",
            "SELECT SUM(name) FROM t",
            "SELECT name FROM t WHERE id LIKE 'x'",
            // Join keys that overflow on the probe side, then the build
            // side: that side evaluates its keys row by row, and the
            // vectorized join raises the error where the interpreter does.
            "SELECT t.name FROM t JOIN u ON t.id * 9223372036854775807 = u.t_id",
            "SELECT t.name FROM t JOIN u ON t.id = u.t_id * 9223372036854775807",
        ] {
            check(&db, sql);
        }
    }

    #[test]
    fn limits_equivalence() {
        let db = db();
        let tight = ExecOptions {
            limits: ExecLimits {
                max_steps: Some(6),
                max_join_rows: Some(4),
                max_output_rows: Some(2),
                max_subquery_depth: Some(1),
            },
            ..Default::default()
        };
        for sql in [
            "SELECT * FROM t",
            "SELECT * FROM t JOIN u ON t.id = u.t_id",
            "SELECT name FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.t_id = t.id)",
            "SELECT id FROM t CROSS JOIN u",
        ] {
            let interpreted = run_sql_with(&db, sql, tight);
            let cache = PlanCache::new();
            let planned = cache.run(&db, sql, tight);
            assert_eq!(planned, interpreted, "limit divergence for {sql:?}");
        }
    }

    #[test]
    fn cache_hits_on_normalized_sql() {
        let db = db();
        let cache = PlanCache::new();
        cache.run(&db, "SELECT id FROM t WHERE id = 1", ExecOptions::default()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same statement modulo whitespace/case of keywords: cache hit.
        cache.run(&db, "select id\n  from t where id = 1", ExecOptions::default()).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // Different literal: distinct plan.
        cache.run(&db, "SELECT id FROM t WHERE id = 2", ExecOptions::default()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn over_long_statements_answer_but_are_never_cached() {
        let db = db();
        let cache = PlanCache::new();
        let sql_of_len = |len: usize| {
            let sql = format!(
                "SELECT id FROM t WHERE '' = 'z' OR id = 1{}",
                " ".repeat(len)
            );
            sql[..len].to_owned()
        };
        let longest = sql_of_len(MAX_CACHED_SQL);
        cache.run(&db, &longest, ExecOptions::default()).unwrap();
        assert_eq!(
            (cache.misses(), cache.len()),
            (1, 1),
            "the cap itself is cached"
        );
        let over = format!(
            "SELECT id FROM t WHERE '{}' = 'z' OR id = 1",
            "x".repeat(MAX_CACHED_SQL)
        );
        for call in 1..=3 {
            check(&db, &over);
            let rs = cache.run(&db, &over, ExecOptions::default()).unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
            assert_eq!(
                (cache.hits(), cache.misses(), cache.len()),
                (0, 1 + call, 1)
            );
        }
    }

    #[test]
    fn plan_rejects_wrong_database() {
        let db1 = db();
        let mut db2 = db();
        db2.name = "other".to_owned();
        let stmt = snails_sql::parse("SELECT * FROM t").unwrap();
        let plan = compile(&db1, &stmt).unwrap();
        assert!(plan.execute(&db1, ExecOptions::default()).is_ok());
        assert!(matches!(
            plan.execute(&db2, ExecOptions::default()),
            Err(EngineError::Catalog { .. })
        ));
    }

    #[test]
    fn correlated_subquery_rebinds_per_outer_row() {
        let db = db();
        check(
            &db,
            "SELECT name, (SELECT COUNT(*) FROM u WHERE u.t_id = t.id) AS n \
             FROM t ORDER BY id",
        );
    }

    #[test]
    fn views_compile_into_plan() {
        let mut db = db();
        let stmt = snails_sql::parse(
            "CREATE VIEW best AS SELECT name, score FROM t WHERE score > 1",
        )
        .unwrap();
        crate::apply_ddl(&mut db, &stmt).unwrap();
        check(&db, "SELECT name FROM best ORDER BY name");
        check(&db, "SELECT COUNT(*) FROM best");
    }
}
