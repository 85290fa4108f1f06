//! Batch-at-a-time columnar execution of [`CompiledPlan`]s — the one
//! block loop.
//!
//! [`run_select`] runs every query block of a plan: the top level, derived
//! tables and views, `UNION` arms, and correlated and uncorrelated
//! subqueries (entered from [`Runner::run_subquery`] with the enclosing row
//! as the `outer` frame). It executes the compiled IR over the columnar
//! table mirrors built by [`crate::catalog::Table::columnar`]: scans are
//! refcount bumps, joins carry row ids instead of cloned rows, predicates
//! evaluate [`CExpr`] kernels over column slices into selection vectors,
//! and rows are materialized only at final projection.
//!
//! # Equivalence contract
//!
//! Compiled execution promises **byte-identical** behavior to the AST
//! interpreter ([`crate::execute_with`]): the same `ResultSet`s, the same
//! `EngineError`s (including which error surfaces first), and the same
//! [`ExecLimits`](crate::ExecLimits) accounting — a finite budget trips at
//! the identical logical row. Two mechanisms make this cheap to guarantee:
//!
//! 1. **Pure-then-commit evaluation.** Vectorized expression evaluation is
//!    side-effect free: no meter charges, no telemetry, no subquery runs.
//!    Any node that *could* diverge — a subquery, an outer-row slot, a
//!    frozen plan-time error, or any per-row kernel error (overflow, type
//!    error) — aborts the vector attempt with [`Unvec`], and the affected
//!    scope is re-run through the [`Runner`]'s row-at-a-time fallbacks
//!    under the `outer` frame; they mirror the interpreter arm by arm. A
//!    join side whose keys abort evaluates them row by row through
//!    `Runner::eval` and still joins on the one vectorized build/probe.
//!    Because vector evaluation is unmasked (it evaluates both `AND`/`OR`
//!    arms, every `CASE` branch, every `IN` list item), it evaluates a
//!    superset of what the short-circuiting scalar path evaluates, so every
//!    scalar error is seen as a vector abort — spurious aborts merely cost
//!    a scalar replay, never a wrong answer.
//! 2. **Identical charge sequences.** Bulk charges (scan, filter, group)
//!    happen at the interpreter's sequence points. The hash-join probe sums
//!    the interpreter's per-row charges and commits them in one
//!    all-or-nothing step; only when that step is refused does it charge
//!    row by row, in the interpreter's order, to trip at its row.
//!    Fallbacks are decided *before* the first charge of the affected
//!    scope, so a delegated scope replays the exact charge/error
//!    interleaving.
//!
//! `tests/vector_equivalence.rs`, `tests/plan_equivalence.rs` and
//! `tests/budget_trip_points.rs` check compiled plans against the
//! interpreter.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use snails_obs::Metric as Obs;
use snails_sql::{BinOp, JoinKind, UnionKind};

use crate::batch::{BatchPool, Bitmap, ColData, ColumnSet, Dict};
use crate::error::EngineError;
use crate::exec::{
    adaptive_batch_size, bool_value, eval_binary, eval_unary, finish_aggregate, like_match,
    scalar_fn, truth,
};
use crate::plan::{
    finish_block, AggArg, CArg, CExpr, CItem, CJoin, COrder, CSelect, CSource, CUnit, ExprId,
    Frame, GExpr, Runner,
};
use crate::result::ResultSet;
use crate::value::{HashKey, Value};

/// Row-id sentinel for the NULL-padded side of an outer join.
const NONE_RID: u32 = u32::MAX;
/// Probe-row group id of a key the build side does not hold.
const NO_GROUP: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Relations: column sources + row-id permutations
// ---------------------------------------------------------------------------

/// A relation in late-materialized form: one or more columnar sources plus,
/// per source, a row-id vector mapping each logical row to a physical row of
/// that source (`NONE_RID` ≙ the all-NULL pad of an outer join). Joins and
/// filters permute row ids; values are gathered on demand.
struct Rel {
    srcs: Vec<Arc<ColumnSet>>,
    /// `rowids[s][i]` = physical row of source `s` backing logical row `i`.
    rowids: Vec<Vec<u32>>,
    len: usize,
    /// Combined-row column `c` lives at `col_map[c] = (src, local column)`.
    col_map: Vec<(u32, u32)>,
    width: usize,
}

impl Rel {
    /// Wrap one columnar source 1:1 (a base-table scan).
    fn from_set(cols: Arc<ColumnSet>) -> Rel {
        let len = cols.len;
        let width = cols.width();
        Rel {
            srcs: vec![cols],
            rowids: vec![(0..len as u32).collect()],
            len,
            col_map: (0..width).map(|c| (0u32, c as u32)).collect(),
            width,
        }
    }

    /// [`Rel::from_set`] with the identity row-id vector drawn from `pool`.
    fn from_set_pooled(cols: Arc<ColumnSet>, pool: &BatchPool) -> Rel {
        let len = cols.len;
        let width = cols.width();
        let mut ids = pool.take_u32();
        ids.extend(0..len as u32);
        Rel {
            srcs: vec![cols],
            rowids: vec![ids],
            len,
            col_map: (0..width).map(|c| (0u32, c as u32)).collect(),
            width,
        }
    }

    /// Columnarize materialized rows (derived tables, nested-loop joins).
    fn from_rows(width: usize, rows: &[Vec<Value>]) -> Rel {
        Rel::from_set(Arc::new(ColumnSet::from_rows(width, rows)))
    }

    /// The zero-width single-row relation (`SELECT` with no `FROM`).
    fn unit() -> Rel {
        Rel { srcs: Vec::new(), rowids: Vec::new(), len: 1, col_map: Vec::new(), width: 0 }
    }

    /// Return the row-id vectors to `pool` once the relation is dead.
    fn recycle(self, pool: &BatchPool) {
        for ids in self.rowids {
            pool.put_u32(ids);
        }
    }

    /// Reconstruct logical row `i` as the interpreter's combined row.
    fn materialize_row(&self, i: usize) -> Vec<Value> {
        self.col_map
            .iter()
            .map(|&(s, c)| {
                let rid = self.rowids[s as usize][i];
                if rid == NONE_RID {
                    Value::Null
                } else {
                    self.srcs[s as usize].cols[c as usize].value(rid as usize)
                }
            })
            .collect()
    }

    /// Reconstruct every logical row (fallback to the scalar runner).
    fn materialize_all(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.materialize_row(i)).collect()
    }

    /// Reconstruct the selected logical rows, in selection order (fused
    /// pipelines falling back to the scalar runner mid-pipeline).
    fn materialize_sel(&self, rows: &[u32]) -> Vec<Vec<Value>> {
        rows.iter().map(|&i| self.materialize_row(i as usize)).collect()
    }

    /// Gather combined-row column `col` at the selected logical rows into a
    /// typed vector, drawing output buffers from `pool`.
    fn gather(&self, col: usize, sel: &[u32], pool: &BatchPool) -> VCol {
        let (s, c) = self.col_map[col];
        let ids = &self.rowids[s as usize];
        match &self.srcs[s as usize].cols[c as usize] {
            ColData::I64 { vals, valid } => {
                let mut out = pool.take_i64();
                let mut v = pool.take_bitmap();
                for &i in sel {
                    let rid = ids[i as usize];
                    if rid != NONE_RID && valid.get(rid as usize) {
                        out.push(vals[rid as usize]);
                        v.push(true);
                    } else {
                        out.push(0);
                        v.push(false);
                    }
                }
                VCol::I64 { vals: out, valid: v }
            }
            ColData::F64 { vals, valid } => {
                let mut out = pool.take_f64();
                let mut v = pool.take_bitmap();
                for &i in sel {
                    let rid = ids[i as usize];
                    if rid != NONE_RID && valid.get(rid as usize) {
                        out.push(vals[rid as usize]);
                        v.push(true);
                    } else {
                        out.push(0.0);
                        v.push(false);
                    }
                }
                VCol::F64 { vals: out, valid: v }
            }
            ColData::Str { codes, valid, dict } => {
                let mut out = pool.take_u32();
                let mut v = pool.take_bitmap();
                for &i in sel {
                    let rid = ids[i as usize];
                    if rid != NONE_RID && valid.get(rid as usize) {
                        out.push(codes[rid as usize]);
                        v.push(true);
                    } else {
                        out.push(0);
                        v.push(false);
                    }
                }
                VCol::Str { codes: out, valid: v, dict: Arc::clone(dict) }
            }
            ColData::Mixed { vals } => {
                let mut out = pool.take_vals();
                out.extend(sel.iter().map(|&i| {
                    let rid = ids[i as usize];
                    if rid == NONE_RID {
                        Value::Null
                    } else {
                        vals[rid as usize].clone()
                    }
                }));
                VCol::Vals(out)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized values
// ---------------------------------------------------------------------------

/// An evaluated expression over a selection: one entry per selected row
/// (`Const` broadcasts). Booleans are `I64` 0/1 with NULL as invalid,
/// matching [`bool_value`].
enum VCol {
    Const(Value),
    I64 { vals: Vec<i64>, valid: Bitmap },
    F64 { vals: Vec<f64>, valid: Bitmap },
    Str { codes: Vec<u32>, valid: Bitmap, dict: Arc<Dict> },
    Vals(Vec<Value>),
}

/// Vector evaluation aborted: the expression needs the scalar runner
/// (subquery, frozen error, or a row-level kernel error). Purely a control
/// signal — the scalar replay recomputes and surfaces the exact error.
struct Unvec;

type VRes = Result<VCol, Unvec>;

impl VCol {
    /// Reconstruct the value at selection position `i`.
    fn value_at(&self, i: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::I64 { vals, valid } => {
                if valid.get(i) {
                    Value::Int(vals[i])
                } else {
                    Value::Null
                }
            }
            VCol::F64 { vals, valid } => {
                if valid.get(i) {
                    Value::Float(vals[i])
                } else {
                    Value::Null
                }
            }
            VCol::Str { codes, valid, dict } => {
                if valid.get(i) {
                    Value::Str(Arc::clone(&dict.strs[codes[i] as usize]))
                } else {
                    Value::Null
                }
            }
            VCol::Vals(vals) => vals[i].clone(),
        }
    }

    /// [`truth`] at selection position `i`, without materializing.
    fn truth_at(&self, i: usize) -> Option<bool> {
        match self {
            VCol::Const(v) => truth(v),
            VCol::I64 { vals, valid } => valid.get(i).then(|| vals[i] != 0),
            VCol::F64 { vals, valid } => valid.get(i).then(|| vals[i] != 0.0),
            VCol::Str { valid, .. } => valid.get(i).then_some(true),
            VCol::Vals(vals) => truth(&vals[i]),
        }
    }

    /// Return the column's buffers to `pool` once the column is dead.
    /// Missing a call site is only a lost reuse, never a bug.
    fn recycle(self, pool: &BatchPool) {
        match self {
            VCol::Const(_) => {}
            VCol::I64 { vals, valid } => {
                pool.put_i64(vals);
                pool.put_bitmap(valid);
            }
            VCol::F64 { vals, valid } => {
                pool.put_f64(vals);
                pool.put_bitmap(valid);
            }
            VCol::Str { codes, valid, .. } => {
                pool.put_u32(codes);
                pool.put_bitmap(valid);
            }
            VCol::Vals(vals) => pool.put_vals(vals),
        }
    }
}

/// Build a boolean column from per-row three-valued results, with buffers
/// drawn from `pool`.
fn bool_col(pool: &BatchPool, bits: impl Iterator<Item = Option<bool>>) -> VCol {
    let mut vals = pool.take_i64();
    let mut valid = pool.take_bitmap();
    for b in bits {
        match b {
            Some(x) => {
                vals.push(i64::from(x));
                valid.push(true);
            }
            None => {
                vals.push(0);
                valid.push(false);
            }
        }
    }
    VCol::I64 { vals, valid }
}

// ---------------------------------------------------------------------------
// Comparison cells (allocation-free sql_cmp over typed columns)
// ---------------------------------------------------------------------------

/// A borrowed scalar view for comparisons. `LowStr` is already lowercase
/// (dictionary `lower`, or a pre-lowered constant); `RawStr` still needs
/// lowercasing (values out of `Mixed` columns).
enum Cell<'a> {
    Null,
    Int(i64),
    Float(f64),
    LowStr(&'a str),
    RawStr(&'a str),
}

impl<'a> Cell<'a> {
    fn num(&self) -> Option<f64> {
        match self {
            Cell::Int(n) => Some(*n as f64),
            Cell::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// Mirror of [`Value::sql_cmp`] over cells: NULL propagates, Int×Int exact,
/// text case-insensitive, mixed numeric via f64, text×number incomparable.
fn cmp_cells(a: &Cell<'_>, b: &Cell<'_>) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Cell::Null, _) | (_, Cell::Null) => None,
        (Cell::Int(x), Cell::Int(y)) => Some(x.cmp(y)),
        (Cell::LowStr(x), Cell::LowStr(y)) => Some(x.cmp(y)),
        (Cell::LowStr(_) | Cell::RawStr(_), Cell::LowStr(_) | Cell::RawStr(_)) => {
            let lower = |c: &Cell<'_>| match c {
                Cell::LowStr(s) => (*s).to_owned(),
                Cell::RawStr(s) => s.to_ascii_lowercase(),
                _ => unreachable!(),
            };
            Some(lower(a).cmp(&lower(b)))
        }
        _ => a.num()?.partial_cmp(&b.num()?),
    }
}

/// The cell at selection position `i`. `const_lower` carries the pre-lowered
/// form of a constant string column, so broadcast constants compare without
/// per-row allocation.
fn cell_at<'a>(col: &'a VCol, i: usize, const_lower: &'a Option<String>) -> Cell<'a> {
    match col {
        VCol::Const(v) => match v {
            Value::Null => Cell::Null,
            Value::Int(n) => Cell::Int(*n),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(_) => {
                Cell::LowStr(const_lower.as_deref().expect("const string pre-lowered"))
            }
        },
        VCol::I64 { vals, valid } => {
            if valid.get(i) {
                Cell::Int(vals[i])
            } else {
                Cell::Null
            }
        }
        VCol::F64 { vals, valid } => {
            if valid.get(i) {
                Cell::Float(vals[i])
            } else {
                Cell::Null
            }
        }
        VCol::Str { codes, valid, dict } => {
            if valid.get(i) {
                Cell::LowStr(&dict.lower[codes[i] as usize])
            } else {
                Cell::Null
            }
        }
        VCol::Vals(vals) => match &vals[i] {
            Value::Null => Cell::Null,
            Value::Int(n) => Cell::Int(*n),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::RawStr(s),
        },
    }
}

/// Pre-lowered form of a constant string column, computed once per kernel.
fn const_lower(col: &VCol) -> Option<String> {
    match col {
        VCol::Const(Value::Str(s)) => Some(s.to_ascii_lowercase()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Hash/group keys
// ---------------------------------------------------------------------------

/// One key component with [`HashKey`]'s equivalence classes: numerics
/// unified on normalized f64 bits, text lowercased (a refcount bump out of
/// the dictionary's precomputed `lower`, not a fresh `String`).
#[derive(Debug, PartialEq, Eq, Hash, Clone)]
enum VKey {
    Null,
    Num(u64),
    Str(Arc<str>),
}

impl VKey {
    fn num(x: f64) -> VKey {
        let x = if x == 0.0 { 0.0 } else { x };
        VKey::Num(x.to_bits())
    }

    /// Unmatchable as a *join* key (NULL or NaN), mirroring the
    /// interpreter's `side_key`. Group keys have no such rule — NULL groups
    /// with itself and NaN groups by bit pattern, as in [`Value::hash_key`].
    fn unmatchable(&self) -> bool {
        match self {
            VKey::Null => true,
            VKey::Num(bits) => f64::from_bits(*bits).is_nan(),
            VKey::Str(_) => false,
        }
    }
}

/// Multiplicative mixer for pre-hashed `u64` keys (single-column numeric
/// join/group keys). SipHash dominates the per-row cost of the build,
/// probe, and group loops at millions of rows; key *bits* already encode
/// the full equivalence class ([`VKey::num`]), so a strong mix of the bits
/// is enough. Lookup order never depends on hasher output — emission and
/// group order come from build/insertion order — so this cannot perturb
/// determinism.
#[derive(Default)]
struct U64Hasher(u64);

impl std::hash::Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut x = self.0 ^ n;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x ^= x >> 32;
        self.0 = x;
    }
}

type FastMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<U64Hasher>>;

/// Join-unmatchable sentinel for pre-hashed numeric keys. `u64::MAX` is a
/// NaN bit pattern, which [`VKey::num`] can only produce for NaN floats —
/// and NaN is itself unmatchable — so the sentinel never collides with a
/// live key.
const DEAD_KEY: u64 = u64::MAX;

/// The key component of one scalar value.
fn value_key(v: &Value) -> VKey {
    match v {
        Value::Null => VKey::Null,
        Value::Int(n) => VKey::num(*n as f64),
        Value::Float(x) => VKey::num(*x),
        Value::Str(s) => VKey::Str(Arc::from(s.to_ascii_lowercase())),
    }
}

/// The key component at selection position `i`.
fn key_at(col: &VCol, i: usize) -> VKey {
    match col {
        VCol::Const(v) => value_key(v),
        VCol::I64 { vals, valid } => {
            if valid.get(i) {
                VKey::num(vals[i] as f64)
            } else {
                VKey::Null
            }
        }
        VCol::F64 { vals, valid } => {
            if valid.get(i) {
                VKey::num(vals[i])
            } else {
                VKey::Null
            }
        }
        VCol::Str { codes, valid, dict } => {
            if valid.get(i) {
                VKey::Str(Arc::clone(&dict.lower[codes[i] as usize]))
            } else {
                VKey::Null
            }
        }
        VCol::Vals(vals) => value_key(&vals[i]),
    }
}

/// A full join key: the single-component case skips the inner `Vec`.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    One(VKey),
    Many(Vec<VKey>),
}

// ---------------------------------------------------------------------------
// Scalar-only analysis
// ---------------------------------------------------------------------------

/// Per-node "must run through the scalar runner" flags for a block's arena:
/// true when the subtree contains a subquery, a frozen [`CExpr::Err`], an
/// outer-frame slot, or a construct that always errors. One forward pass —
/// the arena is post-order, so children precede parents.
fn scalar_flags(sel: &CSelect) -> Vec<bool> {
    let mut f = Vec::with_capacity(sel.arena.len());
    for node in &sel.arena {
        let flag = match node {
            CExpr::Err(_)
            | CExpr::Subquery { .. }
            | CExpr::InSubquery { .. }
            | CExpr::Exists { .. } => true,
            CExpr::Slot { up, .. } => *up > 0,
            CExpr::Const(_) => false,
            CExpr::Unary { expr, .. } | CExpr::IsNull { expr, .. } | CExpr::Like { expr, .. } => {
                f[*expr]
            }
            CExpr::And { left, right }
            | CExpr::Or { left, right }
            | CExpr::Binary { left, right, .. } => f[*left] || f[*right],
            CExpr::Func { args, .. } => args.iter().any(|a| match a {
                CArg::Wildcard => true,
                CArg::Expr(id) => f[*id],
            }),
            CExpr::InList { expr, list, .. } => f[*expr] || list.iter().any(|&i| f[i]),
            CExpr::Between { expr, low, high, .. } => f[*expr] || f[*low] || f[*high],
            CExpr::Case { operand, branches, else_expr } => {
                operand.map(|o| f[o]).unwrap_or(false)
                    || branches.iter().any(|&(w, t)| f[w] || f[t])
                    || else_expr.map(|e| f[e]).unwrap_or(false)
            }
        };
        f.push(flag);
    }
    f
}

/// True when a unit expression cannot be vectorized.
fn unit_scalar(u: &CUnit, flags: &[bool]) -> bool {
    match u {
        CUnit::Row(id) => flags[*id],
        CUnit::Grouped(g) => gexpr_scalar(g, flags),
    }
}

fn gexpr_scalar(g: &GExpr, flags: &[bool]) -> bool {
    match g {
        GExpr::Agg { arg, .. } => match arg {
            AggArg::CountStar => false,
            AggArg::Expr(id) => flags[*id],
            AggArg::StarInvalid | AggArg::Missing => true,
        },
        GExpr::And(l, r) | GExpr::Or(l, r) => gexpr_scalar(l, flags) || gexpr_scalar(r, flags),
        GExpr::Binary { left, right, .. } => {
            gexpr_scalar(left, flags) || gexpr_scalar(right, flags)
        }
        GExpr::Unary { expr, .. } => gexpr_scalar(expr, flags),
        GExpr::Row(id) => flags[*id],
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation (pure: no charges, no subqueries)
// ---------------------------------------------------------------------------

/// Evaluator for one block's arena over one relation. All evaluation is
/// unmasked and side-effect free; see the module docs for why that is
/// sufficient for exact equivalence. Scratch buffers come from (and
/// return to) the execution's [`BatchPool`]; rows routed through
/// dictionary-code kernels accumulate in `dict_rows` for the caller to
/// flush into telemetry at its commit point (evaluation itself must stay
/// observation-free).
struct Ev<'a> {
    sel: &'a CSelect,
    rel: &'a Rel,
    flags: &'a [bool],
    pool: &'a BatchPool,
    dict_rows: std::cell::Cell<u64>,
}

impl<'a> Ev<'a> {
    fn new(sel: &'a CSelect, rel: &'a Rel, flags: &'a [bool], pool: &'a BatchPool) -> Ev<'a> {
        Ev { sel, rel, flags, pool, dict_rows: std::cell::Cell::new(0) }
    }

    /// Count `n` rows processed by a dictionary-code kernel.
    fn count_dict(&self, n: usize) {
        self.dict_rows.set(self.dict_rows.get() + n as u64);
    }

    /// Evaluate node `id` at the selected logical rows.
    fn eval(&self, id: ExprId, rows: &[u32]) -> VRes {
        if self.flags[id] {
            return Err(Unvec);
        }
        match &self.sel.arena[id] {
            CExpr::Const(v) => Ok(VCol::Const(v.clone())),
            CExpr::Slot { idx, .. } => Ok(self.rel.gather(*idx, rows, self.pool)),
            CExpr::Err(_)
            | CExpr::Subquery { .. }
            | CExpr::InSubquery { .. }
            | CExpr::Exists { .. } => Err(Unvec),
            CExpr::Unary { op, expr } => {
                let e = self.eval(*expr, rows)?;
                match op {
                    snails_sql::UnaryOp::Not => {
                        let out = bool_col(
                            self.pool,
                            (0..rows.len()).map(|i| e.truth_at(i).map(|b| !b)),
                        );
                        e.recycle(self.pool);
                        Ok(out)
                    }
                    snails_sql::UnaryOp::Neg => {
                        let mut out = self.pool.take_vals();
                        for i in 0..rows.len() {
                            match eval_unary(*op, &e.value_at(i)) {
                                Ok(v) => out.push(v),
                                Err(_) => {
                                    self.pool.put_vals(out);
                                    e.recycle(self.pool);
                                    return Err(Unvec);
                                }
                            }
                        }
                        e.recycle(self.pool);
                        Ok(VCol::Vals(out))
                    }
                }
            }
            CExpr::And { left, right } => {
                let l = self.eval(*left, rows)?;
                let r = self.eval(*right, rows)?;
                let out = bool_col(
                    self.pool,
                    (0..rows.len()).map(|i| match (l.truth_at(i), r.truth_at(i)) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    }),
                );
                l.recycle(self.pool);
                r.recycle(self.pool);
                Ok(out)
            }
            CExpr::Or { left, right } => {
                let l = self.eval(*left, rows)?;
                let r = self.eval(*right, rows)?;
                let out = bool_col(
                    self.pool,
                    (0..rows.len()).map(|i| match (l.truth_at(i), r.truth_at(i)) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    }),
                );
                l.recycle(self.pool);
                r.recycle(self.pool);
                Ok(out)
            }
            CExpr::Binary { left, op, right } => {
                let l = self.eval(*left, rows)?;
                let r = self.eval(*right, rows)?;
                if op.is_comparison() {
                    let out = self.compare(&l, *op, &r, rows.len());
                    l.recycle(self.pool);
                    r.recycle(self.pool);
                    Ok(out)
                } else {
                    let mut out = self.pool.take_vals();
                    for i in 0..rows.len() {
                        match eval_binary(&l.value_at(i), *op, &r.value_at(i)) {
                            Ok(v) => out.push(v),
                            Err(_) => {
                                self.pool.put_vals(out);
                                l.recycle(self.pool);
                                r.recycle(self.pool);
                                return Err(Unvec);
                            }
                        }
                    }
                    l.recycle(self.pool);
                    r.recycle(self.pool);
                    Ok(VCol::Vals(out))
                }
            }
            CExpr::Func { name, args } => {
                let mut cols = Vec::with_capacity(args.len());
                for a in args {
                    match a {
                        CArg::Wildcard => return Err(Unvec),
                        CArg::Expr(id) => cols.push(self.eval(*id, rows)?),
                    }
                }
                let mut out = self.pool.take_vals();
                let mut vals = Vec::with_capacity(cols.len());
                for i in 0..rows.len() {
                    vals.clear();
                    vals.extend(cols.iter().map(|c| c.value_at(i)));
                    match scalar_fn(name, &vals) {
                        Ok(v) => out.push(v),
                        Err(_) => {
                            self.pool.put_vals(out);
                            for c in cols {
                                c.recycle(self.pool);
                            }
                            return Err(Unvec);
                        }
                    }
                }
                for c in cols {
                    c.recycle(self.pool);
                }
                Ok(VCol::Vals(out))
            }
            CExpr::IsNull { expr, negated } => {
                let e = self.eval(*expr, rows)?;
                let out = bool_col(
                    self.pool,
                    (0..rows.len()).map(|i| {
                        let is_null = match &e {
                            VCol::Const(v) => v.is_null(),
                            VCol::I64 { valid, .. }
                            | VCol::F64 { valid, .. }
                            | VCol::Str { valid, .. } => !valid.get(i),
                            VCol::Vals(vals) => vals[i].is_null(),
                        };
                        Some(is_null != *negated)
                    }),
                );
                e.recycle(self.pool);
                Ok(out)
            }
            CExpr::InList { expr, list, negated } => {
                let v = self.eval(*expr, rows)?;
                let items: Vec<VCol> = match list
                    .iter()
                    .map(|&i| self.eval(i, rows))
                    .collect::<Result<_, _>>()
                {
                    Ok(items) => items,
                    Err(Unvec) => {
                        v.recycle(self.pool);
                        return Err(Unvec);
                    }
                };
                let out = self.in_list(&v, &items, *negated, rows.len());
                v.recycle(self.pool);
                for item in items {
                    item.recycle(self.pool);
                }
                Ok(out)
            }
            CExpr::Between { expr, low, high, negated } => {
                let v = self.eval(*expr, rows)?;
                let lo = match self.eval(*low, rows) {
                    Ok(c) => c,
                    Err(Unvec) => {
                        v.recycle(self.pool);
                        return Err(Unvec);
                    }
                };
                let hi = match self.eval(*high, rows) {
                    Ok(c) => c,
                    Err(Unvec) => {
                        v.recycle(self.pool);
                        lo.recycle(self.pool);
                        return Err(Unvec);
                    }
                };
                let (vl, lol, hil) = (const_lower(&v), const_lower(&lo), const_lower(&hi));
                let out = bool_col(
                    self.pool,
                    (0..rows.len()).map(|i| {
                        let c = cell_at(&v, i, &vl);
                        let ge = cmp_cells(&c, &cell_at(&lo, i, &lol))
                            .map(|o| o != std::cmp::Ordering::Less);
                        let le = cmp_cells(&c, &cell_at(&hi, i, &hil))
                            .map(|o| o != std::cmp::Ordering::Greater);
                        let b = match (ge, le) {
                            (Some(a), Some(b)) => Some(a && b),
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            _ => None,
                        };
                        b.map(|x| x != *negated)
                    }),
                );
                v.recycle(self.pool);
                lo.recycle(self.pool);
                hi.recycle(self.pool);
                Ok(out)
            }
            CExpr::Like { expr, pattern, negated } => {
                let e = self.eval(*expr, rows)?;
                let res = match &e {
                    VCol::Str { codes, valid, dict } => {
                        // Code-space kernel: each distinct string is tested
                        // once, against the precomputed lowercase form.
                        self.count_dict(rows.len());
                        let mut memo: Vec<Option<bool>> = vec![None; dict.len()];
                        Ok(bool_col(
                            self.pool,
                            (0..rows.len()).map(|i| {
                                if !valid.get(i) {
                                    return None;
                                }
                                let code = codes[i] as usize;
                                let m = *memo[code].get_or_insert_with(|| {
                                    like_match(&dict.lower[code], pattern)
                                });
                                Some(m != *negated)
                            }),
                        ))
                    }
                    VCol::Const(Value::Null) => Ok(VCol::Const(Value::Null)),
                    VCol::Const(Value::Str(s)) => {
                        let m = like_match(&s.to_ascii_lowercase(), pattern);
                        Ok(VCol::Const(bool_value(Some(m != *negated))))
                    }
                    VCol::Const(_) => Err(Unvec),
                    VCol::I64 { valid, .. } | VCol::F64 { valid, .. } => {
                        // Any valid row is a type error in the interpreter.
                        if (0..rows.len()).any(|i| valid.get(i)) {
                            Err(Unvec)
                        } else {
                            Ok(VCol::Const(Value::Null))
                        }
                    }
                    VCol::Vals(vals) => 'vals: {
                        let mut out = self.pool.take_vals();
                        for v in vals.iter().take(rows.len()) {
                            match v {
                                Value::Null => out.push(Value::Null),
                                Value::Str(s) => {
                                    let m = like_match(&s.to_ascii_lowercase(), pattern);
                                    out.push(bool_value(Some(m != *negated)));
                                }
                                _ => {
                                    self.pool.put_vals(out);
                                    break 'vals Err(Unvec);
                                }
                            }
                        }
                        Ok(VCol::Vals(out))
                    }
                };
                e.recycle(self.pool);
                res
            }
            CExpr::Case { operand, branches, else_expr } => {
                // On abort, children leak back to the pool lazily (a lost
                // reuse, never a bug) — CASE is cold enough not to warrant
                // per-child unwind plumbing.
                let op_col = match operand {
                    Some(o) => Some(self.eval(*o, rows)?),
                    None => None,
                };
                let mut whens = Vec::with_capacity(branches.len());
                let mut thens = Vec::with_capacity(branches.len());
                for &(w, t) in branches {
                    whens.push(self.eval(w, rows)?);
                    thens.push(self.eval(t, rows)?);
                }
                let else_col = match else_expr {
                    Some(e) => Some(self.eval(*e, rows)?),
                    None => None,
                };
                let opl = op_col.as_ref().and_then(const_lower);
                let wl: Vec<Option<String>> = whens.iter().map(const_lower).collect();
                let mut out = self.pool.take_vals();
                for i in 0..rows.len() {
                    let mut chosen: Option<Value> = None;
                    for (bi, w) in whens.iter().enumerate() {
                        let hit = match &op_col {
                            Some(oc) => {
                                cmp_cells(&cell_at(oc, i, &opl), &cell_at(w, i, &wl[bi]))
                                    == Some(std::cmp::Ordering::Equal)
                            }
                            None => w.truth_at(i) == Some(true),
                        };
                        if hit {
                            chosen = Some(thens[bi].value_at(i));
                            break;
                        }
                    }
                    out.push(chosen.unwrap_or_else(|| {
                        else_col.as_ref().map(|e| e.value_at(i)).unwrap_or(Value::Null)
                    }));
                }
                if let Some(c) = op_col {
                    c.recycle(self.pool);
                }
                for c in whens.into_iter().chain(thens) {
                    c.recycle(self.pool);
                }
                if let Some(c) = else_col {
                    c.recycle(self.pool);
                }
                Ok(VCol::Vals(out))
            }
        }
    }

    /// Vectorized three-valued comparison kernel. Typed fast paths cover
    /// the hot shapes — numeric column vs. numeric constant exactly as
    /// [`cmp_cells`] would order them, and dictionary strings vs. a string
    /// constant through a per-code ordering memo so each distinct string
    /// is compared once instead of once per row. Everything else goes
    /// through the generic cell loop.
    fn compare(&self, l: &VCol, op: BinOp, r: &VCol, n: usize) -> VCol {
        use std::cmp::Ordering;
        let test = |o: Ordering| match op {
            BinOp::Eq => o == Ordering::Equal,
            BinOp::NotEq => o != Ordering::Equal,
            BinOp::Lt => o == Ordering::Less,
            BinOp::LtEq => o != Ordering::Greater,
            BinOp::Gt => o == Ordering::Greater,
            BinOp::GtEq => o != Ordering::Less,
            _ => unreachable!("is_comparison"),
        };
        // Numeric column vs. numeric constant (either orientation).
        match (l, r) {
            (VCol::I64 { vals, valid }, VCol::Const(Value::Int(y))) => {
                return bool_col(
                    self.pool,
                    (0..n).map(|i| valid.get(i).then(|| test(vals[i].cmp(y)))),
                );
            }
            (VCol::Const(Value::Int(x)), VCol::I64 { vals, valid }) => {
                return bool_col(
                    self.pool,
                    (0..n).map(|i| valid.get(i).then(|| test(x.cmp(&vals[i])))),
                );
            }
            (VCol::I64 { vals, valid }, VCol::Const(Value::Float(y))) => {
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        (vals[i] as f64).partial_cmp(y).map(test)
                    }),
                );
            }
            (VCol::Const(Value::Float(x)), VCol::I64 { vals, valid }) => {
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        x.partial_cmp(&(vals[i] as f64)).map(test)
                    }),
                );
            }
            (VCol::F64 { vals, valid }, VCol::Const(c)) if c.as_f64().is_some() => {
                let y = c.as_f64().expect("numeric const");
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        vals[i].partial_cmp(&y).map(test)
                    }),
                );
            }
            (VCol::Const(c), VCol::F64 { vals, valid }) if c.as_f64().is_some() => {
                let x = c.as_f64().expect("numeric const");
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        x.partial_cmp(&vals[i]).map(test)
                    }),
                );
            }
            // Dictionary strings vs. a string constant: order each distinct
            // code against the pre-lowered constant once.
            (VCol::Str { codes, valid, dict }, VCol::Const(Value::Str(s)))
            | (VCol::Const(Value::Str(s)), VCol::Str { codes, valid, dict }) => {
                let flip = matches!(l, VCol::Const(_));
                let target = s.to_ascii_lowercase();
                self.count_dict(n);
                // -1/0/1 = Less/Equal/Greater of `code` vs. `target`;
                // 2 = not yet computed.
                let mut memo: Vec<i8> = vec![2; dict.len()];
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        let code = codes[i] as usize;
                        if memo[code] == 2 {
                            memo[code] = match dict.lower[code].as_ref().cmp(target.as_str()) {
                                Ordering::Less => -1,
                                Ordering::Equal => 0,
                                Ordering::Greater => 1,
                            };
                        }
                        let o = match memo[code] {
                            -1 => Ordering::Less,
                            0 => Ordering::Equal,
                            _ => Ordering::Greater,
                        };
                        Some(test(if flip { o.reverse() } else { o }))
                    }),
                );
            }
            _ => {}
        }
        let (ll, rl) = (const_lower(l), const_lower(r));
        bool_col(
            self.pool,
            (0..n).map(|i| cmp_cells(&cell_at(l, i, &ll), &cell_at(r, i, &rl)).map(test)),
        )
    }

    /// Vectorized `IN (list)` kernel. When the probe is a dictionary
    /// string column and every list item is a constant, membership is
    /// memoized per dictionary code (the full three-valued logic — NULL
    /// items, incomparable numeric items — runs once per distinct string).
    fn in_list(&self, v: &VCol, items: &[VCol], negated: bool, n: usize) -> VCol {
        let il: Vec<Option<String>> = items.iter().map(const_lower).collect();
        if let VCol::Str { codes, valid, dict } = v {
            if items.iter().all(|it| matches!(it, VCol::Const(_))) {
                self.count_dict(n);
                // 0 = false, 1 = true, 2 = NULL result, 3 = not yet computed.
                let mut memo: Vec<i8> = vec![3; dict.len()];
                return bool_col(
                    self.pool,
                    (0..n).map(|i| {
                        if !valid.get(i) {
                            return None;
                        }
                        let code = codes[i] as usize;
                        if memo[code] == 3 {
                            let c = Cell::LowStr(&dict.lower[code]);
                            let mut saw_null = false;
                            let mut found = false;
                            for (item, lower) in items.iter().zip(&il) {
                                match cmp_cells(&c, &cell_at(item, 0, lower)) {
                                    Some(std::cmp::Ordering::Equal) => {
                                        found = true;
                                        break;
                                    }
                                    Some(_) => {}
                                    None => saw_null = true,
                                }
                            }
                            memo[code] = if found {
                                1
                            } else if saw_null {
                                2
                            } else {
                                0
                            };
                        }
                        match memo[code] {
                            2 => None,
                            m => Some((m == 1) != negated),
                        }
                    }),
                );
            }
        }
        let vl = const_lower(v);
        bool_col(
            self.pool,
            (0..n).map(|i| {
                let c = cell_at(v, i, &vl);
                let mut saw_null = matches!(c, Cell::Null);
                let mut found = false;
                for (item, lower) in items.iter().zip(&il) {
                    match cmp_cells(&c, &cell_at(item, i, lower)) {
                        Some(std::cmp::Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        Some(_) => {}
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
                b.map(|x| x != negated)
            }),
        )
    }
}

// ---------------------------------------------------------------------------
// Block execution
// ---------------------------------------------------------------------------

/// Depth-guarded execution of one query block — the top level of a
/// statement (`outer` = `None`), a derived table or view (`None`: they
/// compile with no enclosing scope), a `UNION` arm (its block's `outer`),
/// or a subquery (`Some(frame)` of the enclosing row, from
/// [`Runner::run_subquery`]). The vector kernels never read `outer`:
/// [`scalar_flags`] routes every outer-frame slot to the scalar
/// fallbacks, which evaluate under it.
pub(crate) fn run_select(
    r: &Runner<'_>,
    sel: &CSelect,
    outer: Option<&Frame<'_>>,
) -> Result<ResultSet, EngineError> {
    r.meter.enter_block()?;
    let result = run_select_inner(r, sel, outer);
    r.meter.exit_block();
    result
}

fn run_select_inner(
    r: &Runner<'_>,
    sel: &CSelect,
    outer: Option<&Frame<'_>>,
) -> Result<ResultSet, EngineError> {
    let batch = r.opts.batch_size.unwrap_or_else(|| adaptive_batch_size(sel.width)).max(1);
    let flags = scalar_flags(sel);

    // FROM and JOINs.
    let mut rel = match &sel.source {
        Some(src) => load_source(r, src, batch)?,
        None => Rel::unit(),
    };
    for join in &sel.joins {
        rel = join_step(r, sel, rel, join, batch, &flags, outer)?;
        snails_obs::observe(Obs::EngineOpJoinRows, rel.len as u64);
    }

    // WHERE → tail, fused: the filter emits a selection vector that feeds
    // the tail directly, so the intermediate filtered relation (a full set
    // of row-id vectors) is never materialized.
    let mut fused_sel: Option<Vec<u32>> = None;
    if let Some(pred) = sel.where_clause {
        fused_sel = Some(filter_sel(r, sel, &rel, pred, batch, &flags, outer)?);
        snails_obs::add(Obs::EngineVecFusedPipelines, 1);
    }
    let result = tail(r, sel, &rel, fused_sel.as_deref(), &flags, outer);
    if let Some(s) = fused_sel {
        r.pool.put_u32(s);
    }
    rel.recycle(&r.pool);
    let mut result = result?;

    // UNION [ALL]: the arm runs under the same enclosing scope.
    if let Some((kind, rhs)) = &sel.union {
        let rhs_rs = run_select(r, rhs, outer)?;
        if rhs_rs.column_count() != result.column_count() {
            return Err(EngineError::type_error(format!(
                "UNION arity mismatch: {} vs {} columns",
                result.column_count(),
                rhs_rs.column_count()
            )));
        }
        result.rows.extend(rhs_rs.rows);
        if *kind == UnionKind::Distinct {
            let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
            result.rows.retain(|row| seen.insert(row.iter().map(Value::hash_key).collect()));
        }
    }

    if let Some(budget) = r.opts.limits.max_output_rows {
        if result.rows.len() as u64 > budget {
            return Err(EngineError::resource_exhausted("output row budget", budget));
        }
    }

    Ok(result)
}

/// Load a `FROM`/`JOIN` source as a relation. Base tables are a refcount
/// bump of the cached columnar mirror — no row clone.
fn load_source(r: &Runner<'_>, src: &CSource, batch: usize) -> Result<Rel, EngineError> {
    match src {
        CSource::Table { name, .. } => {
            let t = r
                .db
                .table(name)
                .ok_or_else(|| EngineError::UnknownTable { name: name.clone() })?;
            let cols = t.columnar();
            r.meter.charge_steps(cols.len as u64)?;
            snails_obs::observe(Obs::EngineOpScanRows, cols.len as u64);
            let batches = cols.len.div_ceil(batch) as u64;
            snails_obs::add(Obs::EngineVecBatches, batches);
            snails_obs::add(Obs::EngineOpScanBatches, batches);
            for col in &cols.cols {
                if let ColData::Str { dict, .. } = col {
                    snails_obs::observe(Obs::EngineVecDictEntries, dict.len() as u64);
                }
            }
            Ok(Rel::from_set_pooled(cols, &r.pool))
        }
        CSource::Sub { plan, width } => {
            let rs = run_select(r, plan, None)?;
            snails_obs::observe(Obs::EngineOpScanRows, rs.rows.len() as u64);
            let batches = rs.rows.len().div_ceil(batch) as u64;
            snails_obs::add(Obs::EngineVecBatches, batches);
            snails_obs::add(Obs::EngineOpScanBatches, batches);
            Ok(Rel::from_rows(*width, &rs.rows))
        }
        CSource::Missing(name) => Err(EngineError::UnknownTable { name: name.clone() }),
    }
}

/// A filter pass producing a selection vector: bulk step charge (as the
/// interpreter), then batch-at-a-time predicate evaluation over every row of
/// `rel`, falling back to per-row scalar evaluation for any batch the
/// vector kernels cannot prove error-free. The returned keep-vector comes
/// from the runner's pool; the caller hands it to the block tail and then
/// recycles it.
fn filter_sel(
    r: &Runner<'_>,
    sel: &CSelect,
    rel: &Rel,
    pred: ExprId,
    batch: usize,
    flags: &[bool],
    outer: Option<&Frame<'_>>,
) -> Result<Vec<u32>, EngineError> {
    r.meter.charge_steps(rel.len as u64)?;
    let ev = Ev::new(sel, rel, flags, &r.pool);
    let mut keep = r.pool.take_u32();
    let mut scratch = r.pool.take_u32();
    let mut start = 0usize;
    while start < rel.len {
        let end = (start + batch).min(rel.len);
        scratch.clear();
        scratch.extend(start as u32..end as u32);
        let rows: &[u32] = &scratch;
        let before = keep.len();
        let dict_snap = ev.dict_rows.get();
        let vcol = if flags[pred] { Err(Unvec) } else { ev.eval(pred, rows) };
        match vcol {
            Ok(col) => {
                for (i, &row) in rows.iter().enumerate() {
                    if col.truth_at(i) == Some(true) {
                        keep.push(row);
                    }
                }
                col.recycle(&r.pool);
            }
            Err(Unvec) => {
                // Scalar replay in row order: identical evaluation (and,
                // via subqueries, identical charges) to the interpreter.
                // Any dict-kernel rows the aborted attempt counted are
                // rolled back — the batch was not vector-processed.
                ev.dict_rows.set(dict_snap);
                for &row in rows {
                    let vals = rel.materialize_row(row as usize);
                    let frame = Frame { row: &vals, parent: outer };
                    if truth(&r.eval(sel, pred, &frame)?) == Some(true) {
                        keep.push(row);
                    }
                }
            }
        }
        snails_obs::add(Obs::EngineVecBatches, 1);
        snails_obs::add(Obs::EngineOpFilterBatches, 1);
        let kept = (keep.len() - before) as u64;
        snails_obs::observe(Obs::EngineVecSelectivityPct, kept * 100 / (end - start) as u64);
        start = end;
    }
    let dict = ev.dict_rows.get();
    if dict > 0 {
        snails_obs::add(Obs::EngineVecDictKernelRows, dict);
    }
    snails_obs::observe(Obs::EngineOpFilterRows, keep.len() as u64);
    r.pool.put_u32(scratch);
    Ok(keep)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// One join step: load the right side, then join it to `left`. Equi-key
/// joins run the build/probe of [`hash_join_vec`] over row ids on each
/// side's keys, evaluated by the vector kernels ([`side_keys`]) or, on a
/// side they abort on, row by row ([`scalar_side_keys`]). A key that
/// raises surfaces where the interpreter raises it: a build-side error
/// right after the build charge, a probe-side error after the charges of
/// the probe rows before it. Non-equi `ON`s and cross joins materialize
/// both sides and delegate to the scalar runner's nested loop under
/// `outer`, whose charge/error interleaving is the interpreter's.
fn join_step(
    r: &Runner<'_>,
    sel: &CSelect,
    left: Rel,
    join: &CJoin,
    batch: usize,
    flags: &[bool],
    outer: Option<&Frame<'_>>,
) -> Result<Rel, EngineError> {
    let right = load_source(r, &join.source, batch)?;
    if let (Some(keys), Some(_)) = (&join.hash_keys, join.on) {
        // `equi_join_keys` admits no subquery, aggregate or outer-row
        // column into a key, so evaluating keys charges nothing and both
        // sides evaluate before the join's first charge.
        let (lk, left_err) = match side_keys(sel, &left, keys, true, batch, flags, &r.pool) {
            Some(k) => (k, None),
            None => scalar_side_keys(r, sel, &left, keys, true, outer),
        };
        let (rk, right_err) = match side_keys(sel, &right, keys, false, batch, flags, &r.pool) {
            Some(k) => (k, None),
            None => scalar_side_keys(r, sel, &right, keys, false, outer),
        };
        let (build_len, build_err, probe_err) = match join.kind {
            JoinKind::Right => (left.len, left_err, right_err),
            _ => (right.len, right_err, left_err),
        };
        if let Some(e) = build_err {
            r.meter.charge_join(build_len as u64)?;
            return Err(e);
        }
        let joined = hash_join_vec(r, left, right, join, lk, rk)?;
        if let Some(e) = probe_err {
            // The probe keys stop at the raising row, so the join charged
            // the build side and the probe rows before it: raise now.
            joined.recycle(&r.pool);
            return Err(e);
        }
        return Ok(joined);
    }
    let width = join.left_width + join.source.width();
    let lrows = left.materialize_all();
    let rrows = right.materialize_all();
    left.recycle(&r.pool);
    right.recycle(&r.pool);
    let rows = r.nested_join(sel, lrows, rrows, join, outer)?;
    Ok(Rel::from_rows(width, &rows))
}

/// One join side's evaluated keys, in the cheapest exact representation
/// the side admits: one typed [`KeyCol`] per key column, or the general
/// tuple form `Gen` (`None` = unmatchable) when any column's shape defies
/// the typed kernels.
enum SideKeys {
    Cols(Vec<KeyCol>),
    Gen(Vec<Option<JoinKey>>),
}

/// One evaluated key *column*. `Bits` carries numeric keys as their
/// [`VKey::num`] bit patterns ([`DEAD_KEY`] = NULL or NaN — both
/// unmatchable, and every NaN maps to the sentinel so no two NaN bit
/// patterns can spuriously match). `Codes` carries dictionary-string keys
/// as raw `u32` codes (`u32::MAX` = NULL) plus the shared dictionary —
/// the join loop never touches an `Arc<str>`.
enum KeyCol {
    Bits(Vec<u64>),
    Codes { codes: Vec<u32>, dict: Arc<Dict> },
}

/// NULL sentinel inside [`KeyCol::Codes`].
const NULL_CODE: u32 = u32::MAX;

impl KeyCol {
    fn len(&self) -> usize {
        match self {
            KeyCol::Bits(b) => b.len(),
            KeyCol::Codes { codes, .. } => codes.len(),
        }
    }

    /// The [`VKey`] at row `i`, or `None` for an unmatchable component.
    fn at(&self, i: usize) -> Option<VKey> {
        match self {
            KeyCol::Bits(b) => (b[i] != DEAD_KEY).then(|| VKey::Num(b[i])),
            KeyCol::Codes { codes, dict } => (codes[i] != NULL_CODE)
                .then(|| VKey::Str(Arc::clone(&dict.lower[codes[i] as usize]))),
        }
    }

    /// Can `append` extend this column with a batch of this shape?
    /// (Checked for every column *before* appending any, so a mid-tuple
    /// mismatch cannot leave columns at different lengths.)
    fn can_append(&self, col: &VCol) -> bool {
        match (self, col) {
            (KeyCol::Bits(_), VCol::I64 { .. } | VCol::F64 { .. }) => true,
            // An empty Bits column is shapeless: it adopts Codes form.
            (KeyCol::Bits(b), VCol::Str { .. }) => b.is_empty(),
            (KeyCol::Codes { dict, .. }, VCol::Str { dict: bd, .. }) => Arc::ptr_eq(dict, bd),
            _ => false,
        }
    }

    /// Append one batch (shape pre-checked by [`KeyCol::can_append`]).
    fn append(&mut self, col: &VCol, n: usize) {
        if matches!(self, KeyCol::Bits(b) if b.is_empty()) {
            if let VCol::Str { dict, .. } = col {
                *self = KeyCol::Codes { codes: Vec::new(), dict: Arc::clone(dict) };
            }
        }
        match (self, col) {
            (KeyCol::Bits(bits), VCol::I64 { vals, valid }) => {
                for (i, &v) in vals.iter().take(n).enumerate() {
                    bits.push(if valid.get(i) {
                        let VKey::Num(b) = VKey::num(v as f64) else { unreachable!() };
                        b
                    } else {
                        DEAD_KEY
                    });
                }
            }
            (KeyCol::Bits(bits), VCol::F64 { vals, valid }) => {
                for (i, &v) in vals.iter().take(n).enumerate() {
                    // NaN folds into DEAD_KEY: unmatchable, like NULL.
                    bits.push(if valid.get(i) && !v.is_nan() {
                        let VKey::Num(b) = VKey::num(v) else { unreachable!() };
                        b
                    } else {
                        DEAD_KEY
                    });
                }
            }
            (KeyCol::Codes { codes, .. }, VCol::Str { codes: bc, valid, .. }) => {
                for (i, &c) in bc.iter().take(n).enumerate() {
                    codes.push(if valid.get(i) { c } else { NULL_CODE });
                }
            }
            _ => unreachable!("append shape pre-checked by can_append"),
        }
    }
}

impl SideKeys {
    /// Degrade to the general representation (mixed shapes across
    /// batches, or a representation pairing the join loop cannot fuse).
    fn into_gen(self) -> Vec<Option<JoinKey>> {
        match self {
            SideKeys::Gen(g) => g,
            SideKeys::Cols(cols) => {
                let len = cols.first().map_or(0, KeyCol::len);
                (0..len)
                    .map(|i| -> Option<JoinKey> {
                        if let [col] = cols.as_slice() {
                            return col.at(i).map(JoinKey::One);
                        }
                        let mut tuple = Vec::with_capacity(cols.len());
                        for c in &cols {
                            tuple.push(c.at(i)?);
                        }
                        Some(JoinKey::Many(tuple))
                    })
                    .collect()
            }
        }
    }
}

/// Evaluate one side's key tuples, batch at a time. `None` when the
/// kernels abort (a frozen error in a key, or any row-level evaluation
/// error, even in a `CASE` arm or key component the scalar path would
/// skip); evaluation is pure, so aborting is free, and the caller
/// evaluates the side row by row instead ([`scalar_side_keys`]).
/// Single-column keys stay in their typed form — numeric bit patterns or
/// dictionary codes — for the code-space join loops; composite or
/// mixed-shape keys degrade to [`SideKeys::Gen`], whose `None` entries
/// mark unmatchable keys (NULL/NaN component), as in the interpreter's
/// `side_key`.
fn side_keys(
    sel: &CSelect,
    rel: &Rel,
    keys: &[(ExprId, ExprId)],
    left_side: bool,
    batch: usize,
    flags: &[bool],
    pool: &BatchPool,
) -> Option<SideKeys> {
    let pick = |k: &(ExprId, ExprId)| if left_side { k.0 } else { k.1 };
    if keys.iter().any(|k| flags[pick(k)]) {
        return None;
    }
    let ev = Ev::new(sel, rel, flags, pool);
    // Every column starts as an empty (shapeless) Bits accumulator; the
    // first batch picks each column's real form. A shape any column cannot
    // extend (a computed key flipping from typed to `Vals`, two sources
    // with different dictionaries feeding one key, a Const/Bool key)
    // degrades the whole side to Gen — checked before appending anything,
    // so the columns never go out of step.
    let mut acc = SideKeys::Cols(
        keys.iter()
            .map(|_| {
                let mut bits = pool.take_u64();
                bits.reserve(rel.len);
                KeyCol::Bits(bits)
            })
            .collect(),
    );
    let mut scratch = pool.take_u32();
    let mut start = 0usize;
    while start < rel.len {
        let end = (start + batch).min(rel.len);
        scratch.clear();
        scratch.extend(start as u32..end as u32);
        let rows: &[u32] = &scratch;
        let cols: Vec<VCol> =
            keys.iter().map(|k| ev.eval(pick(k), rows)).collect::<Result<_, _>>().ok()?;
        match &mut acc {
            SideKeys::Cols(kcols)
                if kcols.iter().zip(&cols).all(|(kc, c)| kc.can_append(c)) =>
            {
                for (kc, c) in kcols.iter_mut().zip(&cols) {
                    kc.append(c, rows.len());
                }
            }
            _ => {
                let mut gen =
                    std::mem::replace(&mut acc, SideKeys::Gen(Vec::new())).into_gen();
                append_gen(&mut gen, &cols, rows.len());
                acc = SideKeys::Gen(gen);
            }
        }
        for c in cols {
            c.recycle(pool);
        }
        snails_obs::add(Obs::EngineVecBatches, 1);
        snails_obs::add(Obs::EngineOpJoinBatches, 1);
        start = end;
    }
    pool.put_u32(scratch);
    Some(acc)
}

/// Append one batch of evaluated key columns in the general [`JoinKey`]
/// form (`None` = any component unmatchable).
fn append_gen(out: &mut Vec<Option<JoinKey>>, cols: &[VCol], n: usize) {
    if let [col] = cols {
        for i in 0..n {
            let k = key_at(col, i);
            out.push((!k.unmatchable()).then_some(JoinKey::One(k)));
        }
        return;
    }
    for i in 0..n {
        let mut tuple = Vec::with_capacity(cols.len());
        let mut dead = false;
        for c in cols {
            let k = key_at(c, i);
            if k.unmatchable() {
                dead = true;
                break;
            }
            tuple.push(k);
        }
        out.push(if dead { None } else { Some(JoinKey::Many(tuple)) });
    }
}

/// One side's keys evaluated row by row with the scalar evaluator, for a
/// side whose keys the vector kernels abort on — the interpreter's
/// `side_key`: components in order, and the first NULL or NaN makes the
/// key unmatchable without evaluating the rest. Evaluation stops at the
/// first row whose key raises; the keys of the rows before it come back
/// with that error, for [`join_step`] to raise where the interpreter does.
fn scalar_side_keys(
    r: &Runner<'_>,
    sel: &CSelect,
    rel: &Rel,
    keys: &[(ExprId, ExprId)],
    left_side: bool,
    outer: Option<&Frame<'_>>,
) -> (SideKeys, Option<EngineError>) {
    let key = |row: &[Value]| -> Result<Option<JoinKey>, EngineError> {
        let frame = Frame { row, parent: outer };
        let mut tuple = Vec::with_capacity(keys.len());
        for k in keys {
            let v = value_key(&r.eval(sel, if left_side { k.0 } else { k.1 }, &frame)?);
            if v.unmatchable() {
                return Ok(None);
            }
            tuple.push(v);
        }
        Ok(Some(match tuple.len() {
            1 => JoinKey::One(tuple.remove(0)),
            _ => JoinKey::Many(tuple),
        }))
    };
    let mut out = Vec::with_capacity(rel.len);
    for i in 0..rel.len {
        match key(&rel.materialize_row(i)) {
            Ok(k) => out.push(k),
            Err(e) => return (SideKeys::Gen(out), Some(e)),
        }
    }
    (SideKeys::Gen(out), None)
}

/// Build/probe hash join over row ids — the interpreter's structure,
/// charge points and emission order, on keys [`join_step`] evaluated.
/// Each key column pairs
/// into `u64` atoms — numeric columns join directly on key bits,
/// dictionary-string columns on codes after a once-per-join code→code
/// translation, and a string column against a numeric column can never
/// match so it joins as all-unmatchable (pads and charge sequence are
/// preserved). One- and two-column keys then run [`join_atoms`] on
/// `u64` / `(u64, u64)` atoms; wider keys (rare) and non-atomizable sides
/// run the same loops on [`JoinKey`]s.
fn hash_join_vec(
    r: &Runner<'_>,
    left: Rel,
    right: Rel,
    join: &CJoin,
    lk: SideKeys,
    rk: SideKeys,
) -> Result<Rel, EngineError> {
    let emits = match (lk, rk) {
        (SideKeys::Cols(lc), SideKeys::Cols(rc)) if lc.len() <= 2 => {
            debug_assert_eq!(lc.len(), rc.len(), "join sides share the key list");
            let build_right = join.kind != JoinKind::Right;
            let mut dict_rows = 0u64;
            let atoms: Vec<(Vec<u64>, Vec<u64>)> = lc
                .into_iter()
                .zip(rc)
                .map(|(l, right_col)| atom_pair(l, right_col, build_right, &mut dict_rows))
                .collect();
            // Commit-point telemetry: code columns stream through the
            // code-space loop (side_keys already proved vectorizability,
            // so the join itself cannot abort).
            if dict_rows > 0 {
                snails_obs::add(Obs::EngineVecDictKernelRows, dict_rows);
            }
            let emits = match atoms.as_slice() {
                [(l0, r0)] => join_atoms(r, join.kind, l0, r0)?,
                [(l0, r0), (l1, r1)] => {
                    let lz: Vec<(u64, u64)> =
                        l0.iter().zip(l1).map(|(&a, &b)| (a, b)).collect();
                    let rz: Vec<(u64, u64)> =
                        r0.iter().zip(r1).map(|(&a, &b)| (a, b)).collect();
                    join_atoms(r, join.kind, &lz, &rz)?
                }
                _ => unreachable!("guard admits one or two key columns"),
            };
            for (a, b) in atoms {
                r.pool.put_u64(a);
                r.pool.put_u64(b);
            }
            emits
        }
        (lk, rk) => join_atoms(r, join.kind, &lk.into_gen(), &rk.into_gen())?,
    };
    let joined = combine(left, right, &emits, &r.pool);
    r.pool.put_pairs(emits);
    Ok(joined)
}

/// Pair one key column across the two sides into `u64` atom vectors whose
/// equality is exactly [`VKey`] equality. `build_right` names the build
/// side for dictionary canonicalization (it does not affect emission
/// order). A string column against a numeric column can never match
/// ([`HashKey`] classes are disjoint), so the string side turns
/// all-[`DEAD_KEY`] — for emissions and charges, a live key that matches
/// nothing is indistinguishable from a dead one. Rows streamed through
/// the code translation accumulate into `dict_rows` for the caller to
/// commit to telemetry.
fn atom_pair(
    l: KeyCol,
    right_col: KeyCol,
    build_right: bool,
    dict_rows: &mut u64,
) -> (Vec<u64>, Vec<u64>) {
    match (l, right_col) {
        (KeyCol::Bits(lb), KeyCol::Bits(rb)) => (lb, rb),
        (
            KeyCol::Codes { codes: lc, dict: ld },
            KeyCol::Codes { codes: rc, dict: rd },
        ) => {
            *dict_rows += (lc.len() + rc.len()) as u64;
            // Canonicalize against the build side's dictionary; canonical
            // codes are < 2^32, so they never collide with DEAD_KEY.
            if build_right {
                let (bbits, pbits) = translate_codes(&rc, &rd, &lc, &ld);
                (pbits, bbits)
            } else {
                let (bbits, pbits) = translate_codes(&lc, &ld, &rc, &rd);
                (bbits, pbits)
            }
        }
        (KeyCol::Codes { codes, .. }, KeyCol::Bits(rb)) => (vec![DEAD_KEY; codes.len()], rb),
        (KeyCol::Bits(lb), KeyCol::Codes { codes, .. }) => {
            let n = codes.len();
            (lb, vec![DEAD_KEY; n])
        }
    }
}

/// Case-insensitive code→code translation for a dictionary join. Each
/// build code maps to its canonical code (the first build code sharing
/// its lowercase form — dictionaries dedupe raw strings, so two codes can
/// still collide case-insensitively); each probe code maps to the
/// canonical build code of its lowercase form, or [`DEAD_KEY`] when the
/// build dictionary has no such string. Built once per join — the
/// per-row loops are then pure `u32 → u64` lookups.
fn translate_codes(
    build: &[u32],
    bdict: &Dict,
    probe: &[u32],
    pdict: &Dict,
) -> (Vec<u64>, Vec<u64>) {
    let mut canon: HashMap<&str, u64> = HashMap::with_capacity(bdict.len());
    let mut bcanon: Vec<u64> = Vec::with_capacity(bdict.len());
    for c in 0..bdict.len() {
        let e = *canon.entry(bdict.lower[c].as_ref()).or_insert(c as u64);
        bcanon.push(e);
    }
    let ptrans: Vec<u64> = (0..pdict.len())
        .map(|p| canon.get(pdict.lower[p].as_ref()).copied().unwrap_or(DEAD_KEY))
        .collect();
    let bbits = build
        .iter()
        .map(|&c| if c == NULL_CODE { DEAD_KEY } else { bcanon[c as usize] })
        .collect();
    let pbits = probe
        .iter()
        .map(|&c| if c == NULL_CODE { DEAD_KEY } else { ptrans[c as usize] })
        .collect();
    (bbits, pbits)
}

/// A join key [`join_atoms`] can build and probe on, with the hasher that
/// suits it. `live` returns the form the hash table stores, or `None` when
/// the key is unmatchable.
///
/// The fixed-width atoms — one `u64` per key column, compared
/// bit-for-bit, [`DEAD_KEY`] in any column marking the whole key
/// unmatchable — hash by value with [`U64Hasher`], which folds each column
/// into its running state, so the tuple form hashes well with the same
/// zero-cost hasher as the scalar form. The general [`JoinKey`] form
/// (`None` = unmatchable) hashes by reference with SipHash: its keys carry
/// raw tenant strings, so the table must not be open to crafted
/// collisions.
trait AtomKey {
    type Live<'a>: Eq + std::hash::Hash
    where
        Self: 'a;
    type Hasher: std::hash::BuildHasher + Default;
    fn live(&self) -> Option<Self::Live<'_>>;
}

impl AtomKey for u64 {
    type Live<'a> = u64;
    type Hasher = std::hash::BuildHasherDefault<U64Hasher>;
    fn live(&self) -> Option<u64> {
        (*self != DEAD_KEY).then_some(*self)
    }
}

impl AtomKey for (u64, u64) {
    type Live<'a> = (u64, u64);
    type Hasher = std::hash::BuildHasherDefault<U64Hasher>;
    fn live(&self) -> Option<(u64, u64)> {
        (self.0 != DEAD_KEY && self.1 != DEAD_KEY).then_some(*self)
    }
}

impl AtomKey for Option<JoinKey> {
    type Live<'a> = &'a JoinKey;
    type Hasher = std::collections::hash_map::RandomState;
    fn live(&self) -> Option<&JoinKey> {
        self.as_ref()
    }
}

/// The build/probe loops of every vectorized hash join ([`AtomKey::live`]
/// = `None` marks an unmatchable key). The build is two-pass — count per
/// key, prefix-sum, scatter into one flat row-id array — so a build side
/// of `k` distinct keys costs three allocations instead of `k` per-key
/// vectors. The probe is two-pass as well: the first resolves every probe
/// row's build group and sums the charges the interpreter makes per
/// probe row (`1 + hits`), then commits the sum in one
/// [`Meter::try_charge`](crate::exec::Meter::try_charge); the second
/// emits. So nothing is emitted before the charge fits, and a join bomb
/// fails before it allocates. Only when the commit is refused does the
/// probe walk the groups again charging row by row, which trips at the
/// interpreter's row with the interpreter's counters.
fn join_atoms<K: AtomKey>(
    r: &Runner<'_>,
    kind: JoinKind,
    lkeys: &[K],
    rkeys: &[K],
) -> Result<Vec<(u32, u32)>, EngineError> {
    debug_assert!(kind != JoinKind::Cross, "cross joins never take the hash path");
    let bkeys = match kind {
        JoinKind::Right => lkeys,
        _ => rkeys,
    };
    r.meter.charge_join(bkeys.len() as u64)?;
    // Pass 1: group index per distinct key, count per group.
    let mut groups: HashMap<K::Live<'_>, u32, K::Hasher> = HashMap::default();
    let mut counts = r.pool.take_u32();
    for k in bkeys {
        if let Some(k) = k.live() {
            match groups.entry(k) {
                Entry::Occupied(e) => counts[*e.get() as usize] += 1,
                Entry::Vacant(e) => {
                    e.insert(counts.len() as u32);
                    counts.push(1);
                }
            }
        }
    }
    // Pass 2: prefix-sum offsets, scatter build rows ascending.
    let mut starts = r.pool.take_u32();
    let mut acc = 0u32;
    for &c in &counts {
        starts.push(acc);
        acc += c;
    }
    let mut flat = r.pool.take_u32();
    flat.resize(acc as usize, 0);
    let mut cursor = r.pool.take_u32();
    cursor.extend_from_slice(&starts);
    for (bi, k) in bkeys.iter().enumerate() {
        if let Some(k) = k.live() {
            let g = groups[&k] as usize;
            flat[cursor[g] as usize] = bi as u32;
            cursor[g] += 1;
        }
    }
    r.pool.put_u32(cursor);
    // Pass 1: resolve each probe row's build group and sum the charges the
    // interpreter makes per probe row (`1 + hits`), emitting nothing yet.
    let probe = if kind == JoinKind::Right {
        rkeys
    } else {
        lkeys
    };
    let group_rows = |g: u32| -> &[u32] {
        match g {
            NO_GROUP => &[],
            g => &flat[starts[g as usize] as usize..][..counts[g as usize] as usize],
        }
    };
    let mut probe_groups = r.pool.take_u32();
    let mut charge = 0u64;
    for k in probe {
        let g = match k.live() {
            Some(k) => groups.get(&k).copied().unwrap_or(NO_GROUP),
            None => NO_GROUP,
        };
        charge += 1 + group_rows(g).len() as u64;
        probe_groups.push(g);
    }
    if !r.meter.try_charge(charge, charge) {
        for &g in &probe_groups {
            r.meter.charge_join(1 + group_rows(g).len() as u64)?;
        }
    }
    // Pass 2: emit. Most equi-joins emit about one row per probe
    // (foreign-key shape); reserving that much up front avoids the
    // doubling-realloc chain on the pooled buffer's first growth.
    let mut emits = r.pool.take_pairs();
    emits.reserve(probe.len());
    let mut right_matched =
        if kind == JoinKind::Full { vec![false; rkeys.len()] } else { Vec::new() };
    for (pi, &g) in probe_groups.iter().enumerate() {
        let hits = group_rows(g);
        let pi = pi as u32;
        if kind == JoinKind::Right {
            emits.extend(hits.iter().map(|&li| (li, pi)));
            if hits.is_empty() {
                emits.push((NONE_RID, pi));
            }
        } else {
            for &ri in hits {
                emits.push((pi, ri));
                if kind == JoinKind::Full {
                    right_matched[ri as usize] = true;
                }
            }
            if hits.is_empty() && kind != JoinKind::Inner {
                emits.push((pi, NONE_RID));
            }
        }
    }
    for (ri, m) in right_matched.iter().enumerate() {
        if !m {
            emits.push((NONE_RID, ri as u32));
        }
    }
    r.pool.put_u32(probe_groups);
    r.pool.put_u32(counts);
    r.pool.put_u32(starts);
    r.pool.put_u32(flat);
    Ok(emits)
}

/// Stitch two relations into the joined relation described by `emits`
/// (pairs of logical row ids, `NONE_RID` for outer-join pads). The output
/// row-id vectors come from `pool`; the inputs' vectors recycle into it.
fn combine(left: Rel, right: Rel, emits: &[(u32, u32)], pool: &BatchPool) -> Rel {
    let mut rowids: Vec<Vec<u32>> = Vec::with_capacity(left.srcs.len() + right.srcs.len());
    for ids in &left.rowids {
        let mut out = pool.take_u32();
        out.extend(
            emits.iter().map(|&(l, _)| if l == NONE_RID { NONE_RID } else { ids[l as usize] }),
        );
        rowids.push(out);
    }
    for ids in &right.rowids {
        let mut out = pool.take_u32();
        out.extend(
            emits.iter().map(|&(_, rr)| if rr == NONE_RID { NONE_RID } else { ids[rr as usize] }),
        );
        rowids.push(out);
    }
    for ids in left.rowids.into_iter().chain(right.rowids) {
        pool.put_u32(ids);
    }
    let shift = left.srcs.len() as u32;
    let mut col_map = left.col_map;
    col_map.extend(right.col_map.iter().map(|&(s, c)| (s + shift, c)));
    let mut srcs = left.srcs;
    srcs.extend(right.srcs);
    Rel { srcs, rowids, len: emits.len(), col_map, width: left.width + right.width }
}

// ---------------------------------------------------------------------------
// Tail: GROUP BY / HAVING / projection / DISTINCT / ORDER BY / TOP
// ---------------------------------------------------------------------------

/// Does the tail reference anything the vector kernels refuse to touch?
fn tail_needs_scalar(sel: &CSelect, flags: &[bool]) -> bool {
    if sel.group_by.iter().any(|&g| flags[g]) {
        return true;
    }
    if let Some(h) = &sel.having {
        if unit_scalar(h, flags) {
            return true;
        }
    }
    if let Ok((_, items)) = &sel.projection {
        for item in items {
            if let CItem::Expr(u) = item {
                if unit_scalar(u, flags) {
                    return true;
                }
            }
        }
    }
    sel.order_by.iter().any(|(key, _)| match key {
        COrder::Output(_) => false,
        COrder::Unit(u) => unit_scalar(u, flags),
    })
}

/// The tail of one block, over `input` (a fused filter's selection
/// vector) or all of `rel` when `None`. Everything up to the commit point
/// is *pure* pre-evaluation; any [`Unvec`] (or plain evaluation error)
/// falls back to [`Runner::tail`] over the materialized selection, which
/// — having made no charges yet — replays the interpreter's exact
/// charge/error interleaving.
fn tail(
    r: &Runner<'_>,
    sel: &CSelect,
    rel: &Rel,
    input: Option<&[u32]>,
    flags: &[bool],
    outer: Option<&Frame<'_>>,
) -> Result<ResultSet, EngineError> {
    // Plan-time projection errors surface here, exactly as in the interpreter.
    let (out_columns, items) = match &sel.projection {
        Ok(p) => p,
        Err(e) => return Err(e.clone()),
    };
    let n_input = input.map_or(rel.len, <[u32]>::len);
    let fallback = || match input {
        Some(s) => r.tail(sel, rel.materialize_sel(s), outer),
        None => r.tail(sel, rel.materialize_all(), outer),
    };
    // Delegate up front when the tail references anything the vector
    // kernels refuse to touch, and for a global aggregate over zero rows,
    // whose representative is a synthetic all-NULL row no selection vector
    // can address (free: there is nothing to materialize).
    if tail_needs_scalar(sel, flags) || (sel.grouped && sel.group_by.is_empty() && n_input == 0)
    {
        return fallback();
    }

    let ev = Ev::new(sel, rel, flags, &r.pool);
    let iota_buf: Option<Vec<u32>> = match input {
        Some(_) => None,
        None => {
            let mut v = r.pool.take_u32();
            v.extend(0..rel.len as u32);
            Some(v)
        }
    };
    let all: &[u32] = match input {
        Some(s) => s,
        None => iota_buf.as_deref().expect("iota built"),
    };

    // -- Pure phase ------------------------------------------------------
    // Units as representative row ids plus, when grouped, member row ids
    // flattened into one pooled array with per-unit spans (two-pass: count
    // and assign group indices, then prefix-sum and stable-scatter — so a
    // grouping of `k` groups costs O(1) allocations, not `k` per-group
    // vectors). The ungrouped 1:1 case carries no member sets at all —
    // aggregates cannot appear ungrouped, so they are never consulted and
    // the per-row singleton vectors the scalar tail builds would be pure
    // allocator churn.
    let group_data: Option<GroupData> = if sel.grouped {
        if sel.group_by.is_empty() {
            let mut flat = r.pool.take_u32();
            flat.extend_from_slice(all);
            Some((vec![all[0]], flat, vec![(0, n_input as u32)]))
        } else {
            let cols: Vec<VCol> = match sel
                .group_by
                .iter()
                .map(|&g| ev.eval(g, all))
                .collect::<Result<_, Unvec>>()
            {
                Ok(c) => c,
                Err(Unvec) => return fallback(),
            };
            // Pass 1: group index per input position, in first-occurrence
            // order (the interpreter's unit order).
            let mut gidx = r.pool.take_u32();
            let mut reps: Vec<u32> = Vec::new();
            let mut counts: Vec<u32> = Vec::new();
            match cols.as_slice() {
                // Single integer key: group on pre-hashed key bits (the
                // bits *are* the `hash_key` equivalence class; `DEAD_KEY`
                // is a NaN pattern no integer can reach, so it can stand
                // in for the NULL group).
                [VCol::I64 { vals, valid }] => {
                    let mut groups: FastMap<u32> = FastMap::default();
                    for (i, &row) in all.iter().enumerate() {
                        let bits = if valid.get(i) {
                            let VKey::Num(b) = VKey::num(vals[i] as f64) else { unreachable!() };
                            b
                        } else {
                            DEAD_KEY
                        };
                        let g = match groups.entry(bits) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let g = reps.len() as u32;
                                e.insert(g);
                                reps.push(row);
                                counts.push(0);
                                g
                            }
                        };
                        counts[g as usize] += 1;
                        gidx.push(g);
                    }
                }
                // Single dictionary-string key: group codes through a
                // lazily built code→group map. Two codes sharing a
                // lowercase form land in one group — the same
                // case-insensitive equivalence class `HashKey` uses.
                [VCol::Str { codes, valid, dict }] => {
                    ev.count_dict(all.len());
                    const UNSEEN: u32 = u32::MAX;
                    let mut code_group: Vec<u32> = vec![UNSEEN; dict.len()];
                    let mut lower_group: HashMap<&str, u32> = HashMap::new();
                    let mut null_group = UNSEEN;
                    for (i, &row) in all.iter().enumerate() {
                        let g = if valid.get(i) {
                            let c = codes[i] as usize;
                            let mut g = code_group[c];
                            if g == UNSEEN {
                                g = match lower_group.entry(dict.lower[c].as_ref()) {
                                    Entry::Occupied(e) => *e.get(),
                                    Entry::Vacant(e) => {
                                        let g = reps.len() as u32;
                                        e.insert(g);
                                        reps.push(row);
                                        counts.push(0);
                                        g
                                    }
                                };
                                code_group[c] = g;
                            }
                            g
                        } else {
                            if null_group == UNSEEN {
                                null_group = reps.len() as u32;
                                reps.push(row);
                                counts.push(0);
                            }
                            null_group
                        };
                        counts[g as usize] += 1;
                        gidx.push(g);
                    }
                }
                _ => {
                    let mut groups: HashMap<Vec<VKey>, u32> = HashMap::new();
                    for (i, &row) in all.iter().enumerate() {
                        let key: Vec<VKey> = cols.iter().map(|c| key_at(c, i)).collect();
                        let g = match groups.entry(key) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let g = reps.len() as u32;
                                e.insert(g);
                                reps.push(row);
                                counts.push(0);
                                g
                            }
                        };
                        counts[g as usize] += 1;
                        gidx.push(g);
                    }
                }
            }
            for c in cols {
                c.recycle(&r.pool);
            }
            // Pass 2: prefix-sum spans, stable scatter (within-group row
            // order is input order, as the interpreter's push-per-row builds).
            let mut spans: Vec<(u32, u32)> = Vec::with_capacity(counts.len());
            let mut acc = 0u32;
            for &c in &counts {
                spans.push((acc, acc + c));
                acc += c;
            }
            let mut cursor: Vec<u32> = spans.iter().map(|s| s.0).collect();
            let mut flat = r.pool.take_u32();
            flat.resize(n_input, 0);
            for (i, &row) in all.iter().enumerate() {
                let g = gidx[i] as usize;
                flat[cursor[g] as usize] = row;
                cursor[g] += 1;
            }
            r.pool.put_u32(gidx);
            Some((reps, flat, spans))
        }
    } else {
        None
    };
    let reps: &[u32] = match &group_data {
        Some((reps, _, _)) => reps,
        None => all,
    };
    let units = Units {
        reps,
        members: group_data.as_ref().map(|(_, flat, spans)| (flat.as_slice(), spans.as_slice())),
    };
    let n_units = units.reps.len();

    let having: Option<Vec<Value>> = match &sel.having {
        Some(h) => match eval_unit_vec(&ev, h, &units) {
            Ok(v) => Some(v),
            Err(Unvec) => return fallback(),
        },
        None => None,
    };

    // Projection and ORDER BY unit keys over *all* units — a pure superset
    // of the interpreter's post-HAVING evaluation, so extra work on filtered
    // units is unobservable.
    let mut item_vals: Vec<Vec<Value>> = Vec::with_capacity(items.len());
    for item in items {
        let vals = match item {
            CItem::Passthrough(idx) => {
                let col = rel.gather(*idx, units.reps, &r.pool);
                let vals = (0..n_units).map(|i| col.value_at(i)).collect();
                col.recycle(&r.pool);
                vals
            }
            CItem::Expr(u) => match eval_unit_vec(&ev, u, &units) {
                Ok(v) => v,
                Err(Unvec) => return fallback(),
            },
        };
        item_vals.push(vals);
    }
    let mut order_vals: Vec<Option<Vec<Value>>> = Vec::with_capacity(sel.order_by.len());
    for (key, _) in &sel.order_by {
        order_vals.push(match key {
            COrder::Output(_) => None,
            COrder::Unit(u) => match eval_unit_vec(&ev, u, &units) {
                Ok(v) => Some(v),
                Err(Unvec) => return fallback(),
            },
        });
    }

    // -- Commit phase ----------------------------------------------------
    // Charges and observations in the interpreter's exact order. The pure
    // phase succeeded, so its dict-kernel row counts commit here too.
    let dict = ev.dict_rows.replace(0);
    if dict > 0 {
        snails_obs::add(Obs::EngineVecDictKernelRows, dict);
    }
    if sel.grouped && !sel.group_by.is_empty() {
        r.meter.charge_steps(n_input as u64)?;
    }
    if sel.grouped {
        snails_obs::observe(Obs::EngineOpGroupUnits, n_units as u64);
    }
    let kept: Vec<usize> = match &having {
        Some(hv) => (0..n_units).filter(|&i| truth(&hv[i]) == Some(true)).collect(),
        None => (0..n_units).collect(),
    };
    r.meter.charge_steps(kept.len() as u64)?;

    let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(kept.len());
    for &u in &kept {
        let out_row: Vec<Value> = item_vals.iter().map(|col| col[u].clone()).collect();
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for (k, (key, _)) in sel.order_by.iter().enumerate() {
            match key {
                COrder::Output(i) => keys.push(out_row[*i].clone()),
                COrder::Unit(_) => {
                    keys.push(order_vals[k].as_ref().expect("unit key precomputed")[u].clone())
                }
            }
        }
        projected.push((out_row, keys));
    }
    if let Some((_, flat, _)) = group_data {
        r.pool.put_u32(flat);
    }
    if let Some(v) = iota_buf {
        r.pool.put_u32(v);
    }
    Ok(finish_block(sel, out_columns, projected))
}

/// Owned grouped-unit layout out of the grouping pass: `(reps, flat,
/// spans)` in the interpreter's first-occurrence unit order.
type GroupData = (Vec<u32>, Vec<u32>, Vec<(u32, u32)>);

/// Grouped-unit member layout: `(flat, spans)` — member row ids of unit
/// `u` are `flat[spans[u].0 as usize..spans[u].1 as usize]`.
type MemberView<'a> = (&'a [u32], &'a [(u32, u32)]);

/// Tail evaluation units: one representative row id per unit plus, when
/// grouped, the member row-id set per unit (absent in the ungrouped 1:1
/// case, where no aggregate can reference it).
struct Units<'a> {
    reps: &'a [u32],
    members: Option<MemberView<'a>>,
}

/// Evaluate one projection/`HAVING`/`ORDER BY` unit over every unit's
/// representative (scalar units) or member set (grouped units). Pure.
fn eval_unit_vec(ev: &Ev<'_>, u: &CUnit, units: &Units<'_>) -> Result<Vec<Value>, Unvec> {
    match u {
        CUnit::Row(id) => {
            let col = ev.eval(*id, units.reps)?;
            let out = (0..units.reps.len()).map(|i| col.value_at(i)).collect();
            col.recycle(ev.pool);
            Ok(out)
        }
        CUnit::Grouped(g) => eval_gexpr(ev, g, units),
    }
}

/// Evaluate a grouped expression per unit. Aggregate arguments evaluate
/// once over the pre-flattened member array, then typed kernels reduce
/// each span; anything the kernels cannot prove error-free (overflow,
/// text arithmetic, `DISTINCT` over mixed data) falls back to
/// [`finish_aggregate`] on gathered values, and its errors abort to the
/// scalar runner.
fn eval_gexpr(ev: &Ev<'_>, g: &GExpr, units: &Units<'_>) -> Result<Vec<Value>, Unvec> {
    let n = units.reps.len();
    match g {
        GExpr::Row(id) => {
            let col = ev.eval(*id, units.reps)?;
            let out = (0..n).map(|i| col.value_at(i)).collect();
            col.recycle(ev.pool);
            Ok(out)
        }
        GExpr::Agg { name, distinct, arg } => {
            // A grouped unit outside a grouped block would mean the plan
            // lowered an aggregate the block cannot host; the scalar
            // runner owns that error.
            let Some((flat, spans)) = units.members else { return Err(Unvec) };
            match arg {
                AggArg::CountStar => {
                    Ok(spans.iter().map(|&(s, e)| Value::Int(i64::from(e - s))).collect())
                }
                // Always-erroring forms: the scalar runner owns the message.
                AggArg::StarInvalid | AggArg::Missing => Err(Unvec),
                AggArg::Expr(id) => {
                    let col = ev.eval(*id, flat)?;
                    let mut out = Vec::with_capacity(n);
                    for &(start, end) in spans {
                        match reduce_segment(name, *distinct, &col, start as usize, end as usize)
                        {
                            Ok(v) => out.push(v),
                            Err(Unvec) => {
                                col.recycle(ev.pool);
                                return Err(Unvec);
                            }
                        }
                    }
                    col.recycle(ev.pool);
                    Ok(out)
                }
            }
        }
        GExpr::And(left, right) => {
            let l = eval_gexpr(ev, left, units)?;
            let r = eval_gexpr(ev, right, units)?;
            Ok((0..n)
                .map(|i| {
                    let (lt, rt) = (truth(&l[i]), truth(&r[i]));
                    bool_value(match (lt, rt) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    })
                })
                .collect())
        }
        GExpr::Or(left, right) => {
            let l = eval_gexpr(ev, left, units)?;
            let r = eval_gexpr(ev, right, units)?;
            Ok((0..n)
                .map(|i| {
                    let (lt, rt) = (truth(&l[i]), truth(&r[i]));
                    bool_value(match (lt, rt) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    })
                })
                .collect())
        }
        GExpr::Binary { left, op, right } => {
            let l = eval_gexpr(ev, left, units)?;
            let r = eval_gexpr(ev, right, units)?;
            (0..n).map(|i| eval_binary(&l[i], *op, &r[i]).map_err(|_| Unvec)).collect()
        }
        GExpr::Unary { op, expr } => {
            let v = eval_gexpr(ev, expr, units)?;
            (0..n).map(|i| eval_unary(*op, &v[i]).map_err(|_| Unvec)).collect()
        }
    }
}

/// Reduce one aggregate over the segment `[start, end)` of the evaluated
/// argument column. Typed kernels handle the hot numeric cases; everything
/// else gathers the non-NULL values and defers to [`finish_aggregate`],
/// whose result — and NULL-skipping, empty-input, and overflow semantics —
/// the kernels replicate exactly.
fn reduce_segment(
    name: &str,
    distinct: bool,
    col: &VCol,
    start: usize,
    end: usize,
) -> Result<Value, Unvec> {
    if !distinct {
        match col {
            VCol::I64 { vals, valid } => return reduce_i64(name, vals, valid, start, end),
            VCol::F64 { vals, valid } => return reduce_f64(name, vals, valid, start, end),
            _ => {}
        }
        if name.eq_ignore_ascii_case("COUNT") {
            let n = (start..end).filter(|&i| !matches!(col.value_at(i), Value::Null)).count();
            return Ok(Value::Int(n as i64));
        }
    }
    let values: Vec<Value> = (start..end)
        .map(|i| col.value_at(i))
        .filter(|v| !v.is_null())
        .collect();
    finish_aggregate(name, distinct, values).map_err(|_| Unvec)
}

/// Typed aggregate kernel over an `i64` slice with validity.
fn reduce_i64(
    name: &str,
    vals: &[i64],
    valid: &Bitmap,
    start: usize,
    end: usize,
) -> Result<Value, Unvec> {
    let live = (start..end).filter(|&i| valid.get(i));
    // Matched without uppercasing: this runs once per group span, and a
    // per-span String would be the grouped path's only hot allocation.
    if name.eq_ignore_ascii_case("COUNT") {
        return Ok(Value::Int(live.count() as i64));
    }
    let mut n = 0u64;
    if name.eq_ignore_ascii_case("SUM") || name.eq_ignore_ascii_case("AVG") {
        // Mirror `finish_aggregate`: an exact integer running sum (its
        // overflow is the statement's overflow) plus an f64 sum
        // accumulated in input order for AVG.
        let mut int_sum: i64 = 0;
        let mut sum = 0.0f64;
        for i in live {
            int_sum = int_sum.checked_add(vals[i]).ok_or(Unvec)?;
            sum += vals[i] as f64;
            n += 1;
        }
        return Ok(match (n, name.eq_ignore_ascii_case("AVG")) {
            (0, _) => Value::Null,
            (_, true) => Value::Float(sum / n as f64),
            (_, false) => Value::Int(int_sum),
        });
    }
    if name.eq_ignore_ascii_case("MIN") || name.eq_ignore_ascii_case("MAX") {
        let want_min = name.eq_ignore_ascii_case("MIN");
        let mut best: Option<i64> = None;
        for i in live {
            let v = vals[i];
            best = Some(match best {
                None => v,
                Some(b) if (want_min && v < b) || (!want_min && v > b) => v,
                Some(b) => b,
            });
        }
        return Ok(best.map_or(Value::Null, Value::Int));
    }
    Err(Unvec)
}

/// Typed aggregate kernel over an `f64` slice with validity. Comparisons
/// use `partial_cmp` with keep-on-incomparable, matching the scalar fold's
/// `sql_cmp` (a NaN never displaces the running best, and a NaN first
/// element is kept).
fn reduce_f64(
    name: &str,
    vals: &[f64],
    valid: &Bitmap,
    start: usize,
    end: usize,
) -> Result<Value, Unvec> {
    let live = (start..end).filter(|&i| valid.get(i));
    // As in `reduce_i64`: no uppercased String per span.
    if name.eq_ignore_ascii_case("COUNT") {
        return Ok(Value::Int(live.count() as i64));
    }
    let mut n = 0u64;
    if name.eq_ignore_ascii_case("SUM") || name.eq_ignore_ascii_case("AVG") {
        let mut sum = 0.0f64;
        for i in live {
            sum += vals[i];
            n += 1;
        }
        return Ok(match (n, name.eq_ignore_ascii_case("AVG")) {
            (0, _) => Value::Null,
            (_, true) => Value::Float(sum / n as f64),
            (_, false) => Value::Float(sum),
        });
    }
    if name.eq_ignore_ascii_case("MIN") || name.eq_ignore_ascii_case("MAX") {
        let want = if name.eq_ignore_ascii_case("MIN") {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        };
        let mut best: Option<f64> = None;
        for i in live {
            let v = vals[i];
            best = Some(match best {
                None => v,
                Some(b) if v.partial_cmp(&b) == Some(want) => v,
                Some(b) => b,
            });
        }
        return Ok(best.map_or(Value::Null, Value::Float));
    }
    Err(Unvec)
}

