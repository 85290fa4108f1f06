//! Tenant namespaces.
//!
//! A tenant owns a database set, one [`PlanCache`], and one [`ExecLimits`]
//! budget. Isolation is by construction, not by key discipline: two tenants
//! never share a cache object, so a plan compiled against tenant A's
//! `sales` database cannot be served for tenant B's same-named `sales` —
//! there is no shared map for a collision to happen in. The isolation
//! integration test drives two tenants with identical schemas, identical
//! normalized SQL, and different contents to hold this.
//!
//! `Ask` runs the benchmark pipeline's cell evaluator
//! ([`EvalContext::evaluate`]) on contexts the tenant keeps: one native
//! [`EvalContext`] per full database, built at start, and one
//! [`GoldContext`] per question, built on that question's first `Ask`. So
//! the gold query is parsed and executed once per question for the
//! tenant's life, and no naturalness measures are computed: the `Answer`
//! frame carries none.

use crate::protocol::{
    row_len, rows_header_len, Response, ServeError, TenantStats, WireValue, MAX_FRAME,
    MAX_RESPONSE_ROWS,
};
use snails_core::pipeline::{gold_context, CellInput, EvalContext, GoldContext};
use snails_data::SnailsDatabase;
use snails_engine::{Database, ExecLimits, ExecOptions, PlanCache, ResultSet};
use snails_llm::resilience::CellPlan;
use snails_llm::{ModelKind, SchemaView, Workflow};
use snails_naturalness::category::SchemaVariant;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What a tenant database is backed by.
#[derive(Clone)]
pub enum TenantSource {
    /// A full SNAILS database: SQL *and* the NL-to-SQL pipeline
    /// ([`crate::protocol::Request::Ask`]) are available.
    Full(Arc<SnailsDatabase>),
    /// A bare engine database under a display name: SQL only. `Ask`
    /// answers [`ServeError::UnknownQuestion`]. The isolation tests use
    /// this to give two tenants same-named schemas with different rows.
    Raw {
        /// The name requests address it by.
        name: String,
        /// The engine database.
        db: Arc<Database>,
    },
}

impl TenantSource {
    fn name(&self) -> &str {
        match self {
            TenantSource::Full(db) => db.spec.name,
            TenantSource::Raw { name, .. } => name,
        }
    }
}

/// Configuration for one tenant namespace.
#[derive(Clone)]
pub struct TenantSpec {
    /// Namespace name (the routing key on [`crate::protocol::Request`]s).
    pub name: String,
    /// The tenant's databases.
    pub databases: Vec<TenantSource>,
    /// Execution budgets applied to every statement this tenant runs.
    pub limits: ExecLimits,
}

/// Plans each tenant's cache holds before evicting the oldest (FIFO).
/// Statements that compile are cached even when they can only fail at
/// execution (`SELECT * FROM missing_table_7` compiles), so without a
/// bound a client streaming distinct statements grows a tenant's memory
/// without limit. The shipped workloads stay well under it: the 503 gold
/// statements of all nine databases plus one predicted statement per
/// question for each of the five models come to at most 3,018 distinct
/// statements, and the load suite adds at most 1,000 more. No
/// [`PlanCache`] keeps a statement over 4 KiB, so the bound holds in
/// bytes too: at most this many plans of at most 4 KiB of SQL each.
pub const TENANT_PLAN_CAPACITY: usize = 4096;

impl TenantSpec {
    /// A guarded tenant over full SNAILS databases.
    pub fn full(name: &str, databases: Vec<Arc<SnailsDatabase>>) -> TenantSpec {
        TenantSpec {
            name: name.to_owned(),
            databases: databases.into_iter().map(TenantSource::Full).collect(),
            limits: ExecLimits::guarded(),
        }
    }
}

/// One database inside a tenant, with the pipeline contexts `Ask` needs
/// when the source is [`TenantSource::Full`].
struct TenantDb {
    source: TenantSource,
    /// Native-variant evaluation context, built once at tenant construction
    /// (the serve layer always faces the native namespace; variant sweeps
    /// stay in the benchmark pipeline).
    ctx: Option<EvalContext>,
    /// One slot per question, in the database's question order, filled on
    /// the question's first `Ask` and kept for the tenant's life: at most
    /// one gold context per question. Building them all at start would
    /// put every gold query's execution on the tenant's startup path.
    /// Empty for raw sources.
    golds: Vec<OnceLock<GoldContext>>,
}

impl TenantDb {
    fn engine_db(&self) -> &Database {
        match &self.source {
            TenantSource::Full(s) => &s.db,
            TenantSource::Raw { db, .. } => db,
        }
    }
}

/// Monotonic per-tenant request accounting, updated lock-free by workers.
///
/// These exist *beside* the `serve.*` registry metrics: the registry is
/// per-run telemetry, while these are per-tenant and queried live over the
/// wire ([`crate::protocol::Request::Stats`]), which is what the
/// reconciliation test compares against its own request log.
#[derive(Default)]
pub struct TenantCounters {
    /// Requests dispatched to this tenant.
    pub requests: AtomicU64,
    /// Responses without a typed error.
    pub ok: AtomicU64,
    /// Responses with a typed error.
    pub errors: AtomicU64,
    /// Requests shed at admission.
    pub shed: AtomicU64,
}

/// A live tenant namespace.
pub struct Tenant {
    /// Namespace name.
    pub name: String,
    /// Databases keyed by uppercased name.
    dbs: BTreeMap<String, TenantDb>,
    /// The tenant's private plan cache, bounded at
    /// [`TENANT_PLAN_CAPACITY`] plans.
    pub plans: PlanCache,
    limits: ExecLimits,
    /// Live request accounting.
    pub counters: TenantCounters,
}

impl Tenant {
    /// Build a tenant from its spec, precomputing the native-variant
    /// evaluation context for every full database.
    pub fn new(spec: TenantSpec) -> Tenant {
        let mut dbs = BTreeMap::new();
        for source in spec.databases {
            let (ctx, golds) = match &source {
                TenantSource::Full(s) => (
                    Some(EvalContext::new(s, SchemaView::new(s, SchemaVariant::Native))),
                    s.questions.iter().map(|_| OnceLock::new()).collect(),
                ),
                TenantSource::Raw { .. } => (None, Vec::new()),
            };
            dbs.insert(source.name().to_uppercase(), TenantDb { source, ctx, golds });
        }
        Tenant {
            name: spec.name,
            dbs,
            plans: PlanCache::with_capacity(TENANT_PLAN_CAPACITY),
            limits: spec.limits,
            counters: TenantCounters::default(),
        }
    }

    fn db(&self, name: &str) -> Result<&TenantDb, ServeError> {
        self.dbs.get(&name.to_uppercase()).ok_or(ServeError::UnknownDatabase)
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions { limits: self.limits, ..ExecOptions::default() }
    }

    /// Run one SQL statement through the tenant's plan cache and budgets.
    pub fn run_sql(&self, database: &str, sql: &str) -> Result<ResultSet, ServeError> {
        let db = self.db(database)?;
        self.plans
            .run(db.engine_db(), sql, self.exec_options())
            .map_err(|e| ServeError::Engine(e.to_string()))
    }

    /// Run the full NL-to-SQL pipeline on gold question `question_id`.
    ///
    /// The response is a pure function of `(tenant state, request, seed)`:
    /// the simulated model inference is seeded, so asking the same question
    /// twice yields the same answer — which is what makes `Ask` responses
    /// replayable in the deterministic load tests. The question's gold
    /// context is built on its first `Ask` and reused by every later one.
    pub fn ask(
        &self,
        database: &str,
        question_id: u32,
        model: u8,
        seed: u64,
        tag: u64,
    ) -> Result<Response, ServeError> {
        let db = self.db(database)?;
        let (TenantSource::Full(snails), Some(ctx)) = (&db.source, &db.ctx) else {
            return Err(ServeError::UnknownQuestion);
        };
        let model = *ModelKind::ALL
            .get(usize::from(model))
            .ok_or(ServeError::BadRequest)?;
        let (index, pair) = snails
            .questions
            .iter()
            .enumerate()
            .find(|(_, p)| p.id == question_id as usize)
            .ok_or(ServeError::UnknownQuestion)?;
        let gold = db.golds[index].get_or_init(|| gold_context(snails, pair));
        let cell = CellInput {
            db: snails,
            workflow: Workflow::ZeroShot(model),
            pair,
            gold,
            seed,
            plan: CellPlan::clean(0),
        };
        let (outcome, native_sql) = ctx.evaluate(cell, &self.plans, self.exec_options());
        let recall_permille = match outcome.linking {
            Some(l) => (l.recall * 1000.0).round() as u16,
            None => u16::MAX,
        };
        Ok(Response::Answer {
            tag,
            sql: native_sql.unwrap_or_default(),
            parse_ok: outcome.parse_ok,
            set_matched: outcome.set_matched,
            exec_correct: outcome.exec_correct,
            recall_permille,
        })
    }

    /// Snapshot this tenant's counters (wire shape).
    pub fn stats(&self) -> TenantStats {
        TenantStats {
            tenant: self.name.clone(),
            requests: self.counters.requests.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            cache_hits: self.plans.hits(),
            cache_misses: self.plans.misses(),
        }
    }
}

/// Flatten a result set to its wire shape, reporting the true total. The
/// row body stops at [`MAX_RESPONSE_ROWS`] rows, or before the row that
/// would take the payload past [`MAX_FRAME`]; rows are sized before any
/// is copied. When the column names and the first row alone do not fit,
/// the answer is a typed [`ServeError::Engine`] error.
pub fn rows_response(tag: u64, rs: &ResultSet) -> Response {
    let mut len = rows_header_len(&rs.columns);
    let mut fit = 0;
    for row in rs.rows.iter().take(MAX_RESPONSE_ROWS) {
        len += row_len(row);
        if len > MAX_FRAME {
            break;
        }
        fit += 1;
    }
    if fit == 0 && len > MAX_FRAME {
        let message = format!("result does not fit a {MAX_FRAME}-byte response frame");
        return Response::Err {
            tag,
            error: ServeError::Engine(message),
        };
    }
    Response::Rows {
        tag,
        total_rows: rs.rows.len() as u64,
        columns: rs.columns.clone(),
        rows: rs.rows[..fit]
            .iter()
            .map(|row| row.iter().map(WireValue::from).collect())
            .collect(),
    }
}
