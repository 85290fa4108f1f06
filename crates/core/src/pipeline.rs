//! The benchmark pipeline (Figures 6 and 7).

use crate::checkpoint::{self, CellLoad, CellStore, CheckpointSpec, CheckpointStats, Shard};
use crate::measures::{query_measures, QueryMeasures};
use crate::scheduler;
use snails_data::SnailsDatabase;
use snails_engine::{ExecLimits, ExecOptions, PlanCache};
use snails_eval::{audit_statements, match_result_sets, query_linking, LinkingScores};

use snails_llm::faults::{self, FailureKind, FaultProfile};
use snails_llm::generate::mix_seed;
use snails_llm::resilience::{CellExecution, CellPlan, Planner};
use snails_llm::{run_cell, GoldQuery, SchemaView, Workflow};
use snails_naturalness::category::SchemaVariant;
use snails_obs::{ClockMode, ObsCtx, Report, Snapshot};
use snails_sql::{extract_identifiers, parse, rename_identifiers, ParseError, Statement};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Global seed (the paper's runs correspond to one fixed seed).
    pub seed: u64,
    /// Databases to run (names must exist in the collection passed in).
    pub databases: Vec<String>,
    /// Schema variants to evaluate.
    pub variants: Vec<SchemaVariant>,
    /// Workflows (model rows) to evaluate.
    pub workflows: Vec<Workflow>,
    /// Worker threads for the evaluation grid. `None` uses the machine's
    /// available parallelism; `Some(1)` runs the grid on the caller thread.
    /// Every setting produces identical records in identical order — each
    /// grid cell is a pure function of the config seed (see
    /// [`crate::scheduler`]).
    pub threads: Option<usize>,
    /// Fault injection for the simulated inference API
    /// ([`FaultProfile::NONE`] by default — records are then byte-identical
    /// to a build without the fault layer).
    pub fault_profile: FaultProfile,
    /// Execution budgets applied to *predicted* queries (gold queries run
    /// unguarded — they are trusted input). Defaults to
    /// [`ExecLimits::guarded`], generous enough that no sane prediction on
    /// the SNAILS databases ever hits a budget.
    pub limits: ExecLimits,
    /// Collect a telemetry [`Report`] for the run (metrics + simulated-clock
    /// span rollup, surfaced as [`BenchmarkRun::telemetry`]). The report's
    /// deterministic section is byte-identical at any thread count; `false`
    /// (the default) records nothing and costs nothing on the hot paths.
    pub telemetry: bool,
    /// The slice of the grid this invocation executes
    /// ([`Shard::FULL`] by default). Fault planning always covers the full
    /// grid (breaker state must evolve in grid order), so every shard's
    /// records are bit-identical to the corresponding slice of a full run;
    /// [`crate::checkpoint::merge_manifests`] folds shard manifests back
    /// into the full run.
    pub shard: Shard,
    /// Checkpoint store for crash recovery: completed cells are persisted
    /// as they finish and verified records are restored instead of
    /// re-executed on the next run. `None` (the default) neither reads nor
    /// writes checkpoints.
    pub checkpoint: Option<CheckpointSpec>,
    /// Ignored: no code reads it. It selected the cost-based planner,
    /// which has been removed; the field remains only so existing callers
    /// that still set it keep building. Not part of the grid fingerprint.
    pub optimize: bool,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            seed: 2024,
            databases: snails_data::DATABASE_NAMES.iter().map(|s| s.to_string()).collect(),
            variants: SchemaVariant::ALL.to_vec(),
            workflows: Workflow::all(),
            threads: None,
            fault_profile: FaultProfile::NONE,
            limits: ExecLimits::guarded(),
            telemetry: false,
            shard: Shard::FULL,
            checkpoint: None,
            optimize: true,
        }
    }
}

/// One (workflow × database × variant × question) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Workflow display name.
    pub workflow: &'static str,
    /// Database name.
    pub database: String,
    /// Schema variant.
    pub variant: SchemaVariant,
    /// Question id within the database.
    pub question_id: usize,
    /// Whether the raw model output parsed (137 generations in the paper did
    /// not and are excluded from linking analysis).
    pub parse_ok: bool,
    /// Passed result set-superset matching (pre-audit).
    pub set_matched: bool,
    /// Final execution correctness (set match + semantic audit).
    pub exec_correct: bool,
    /// Query-level linking scores (absent when the output was unparseable).
    pub linking: Option<LinkingScores>,
    /// Schema-subsetting metrics (recall, precision, f1) for chained
    /// workflows.
    pub subset: Option<(f64, f64, f64)>,
    /// Gold identifier set (uppercased native names).
    pub gold_ids: BTreeSet<String>,
    /// Predicted identifier set after denaturalization (uppercased).
    pub pred_ids: BTreeSet<String>,
    /// Per-query naturalness measures at this variant.
    pub measures: QueryMeasures,
    /// Terminal failure for this cell, if any: exhausted retries, an open
    /// circuit breaker, an isolated panic, a corrupted completion, or a
    /// predicted query that hit an engine budget. `None` for clean cells —
    /// including clean cells that needed retries (see `attempts`).
    pub failure: Option<FailureKind>,
    /// Simulated API attempts spent on this cell (1 when the fault layer is
    /// inert, 0 when the circuit breaker skipped the call).
    pub attempts: u32,
}

/// Aggregate fault/retry/breaker accounting for one benchmark run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Grid cells evaluated.
    pub cells: usize,
    /// Total simulated API attempts across all cells.
    pub attempts: u64,
    /// Total retries (attempts beyond each cell's first).
    pub retries: u64,
    /// Circuit-breaker trips across all models.
    pub breaker_trips: u64,
    /// Failure counts keyed by [`FailureKind::name`].
    pub failures: BTreeMap<&'static str, u64>,
}

impl FaultSummary {
    /// Total cells that ended in a failure record.
    pub fn total_failures(&self) -> u64 {
        self.failures.values().sum()
    }

    /// One JSON object (no external dependencies — keys are static and
    /// values numeric, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut kinds = String::new();
        for (i, (k, v)) in self.failures.iter().enumerate() {
            if i > 0 {
                kinds.push(',');
            }
            kinds.push_str(&format!("\"{k}\":{v}"));
        }
        format!(
            "{{\"cells\":{},\"attempts\":{},\"retries\":{},\"breaker_trips\":{},\
             \"failed_cells\":{},\"failures\":{{{kinds}}}}}",
            self.cells,
            self.attempts,
            self.retries,
            self.breaker_trips,
            self.total_failures(),
        )
    }

    /// Fold another summary into this one (componentwise sums). Shard
    /// summaries cover disjoint cell sets, so merging them in any order —
    /// or any grouping — reproduces the single-run summary exactly.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.cells += other.cells;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.breaker_trips += other.breaker_trips;
        for (name, count) in &other.failures {
            *self.failures.entry(name).or_insert(0) += count;
        }
    }
}

/// A full benchmark run.
#[derive(Debug, Default)]
pub struct BenchmarkRun {
    /// Per-query records — the full grid in grid order, or (under
    /// [`BenchmarkConfig::shard`]) this shard's cells in grid order.
    pub records: Vec<QueryRecord>,
    /// Fault/retry/breaker accounting (all zeros when the fault layer is
    /// inert and no predicted query hit a budget). Covers only this shard's
    /// cells, so shard summaries sum to the full-run summary.
    pub faults: FaultSummary,
    /// Telemetry report, present iff [`BenchmarkConfig::telemetry`] was set.
    pub telemetry: Option<Report>,
    /// Checkpoint accounting, present iff [`BenchmarkConfig::checkpoint`]
    /// was set.
    pub checkpoint: Option<CheckpointStats>,
    /// The run's [grid fingerprint](crate::checkpoint::grid_fingerprint).
    pub fingerprint: u64,
    /// Total grid cells (across all shards, whether or not this invocation
    /// executed them).
    pub grid_cells: usize,
}

impl BenchmarkRun {
    /// Records filtered by workflow name.
    pub fn by_workflow<'a>(&'a self, workflow: &'a str) -> impl Iterator<Item = &'a QueryRecord> {
        self.records.iter().filter(move |r| r.workflow == workflow)
    }

    /// Mean execution accuracy over a record subset.
    ///
    /// **Empty-subset semantics:** an empty iterator yields `0.0`, not NaN —
    /// a deliberate convention so figure-generation code can difference
    /// accuracies across arbitrary slices without NaN poisoning. Callers
    /// that must distinguish "no records" from "all incorrect" should check
    /// emptiness themselves before calling.
    pub fn exec_accuracy<'a>(records: impl IntoIterator<Item = &'a QueryRecord>) -> f64 {
        let mut n = 0usize;
        let mut correct = 0usize;
        for r in records {
            n += 1;
            correct += usize::from(r.exec_correct);
        }
        if n == 0 {
            0.0
        } else {
            correct as f64 / n as f64
        }
    }

    /// Mean query recall over a record subset (parse failures excluded, as
    /// in §5.2).
    ///
    /// **Empty-subset semantics:** `0.0` when the subset is empty *or*
    /// contains only parse failures (no linking scores to average) — same
    /// no-NaN convention as [`BenchmarkRun::exec_accuracy`]; check
    /// emptiness first if the distinction matters.
    pub fn mean_recall<'a>(records: impl IntoIterator<Item = &'a QueryRecord>) -> f64 {
        let scores: Vec<f64> = records
            .into_iter()
            .filter_map(|r| r.linking.map(|l| l.recall))
            .collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }
}

/// Per-question gold context: the parsed gold query (statement and
/// identifiers) and its result set. [`gold_context`] builds it once per
/// (database, question): the grid builds every one up front, a serve tenant
/// each on its question's first `Ask`.
pub struct GoldContext {
    pub(crate) query: GoldQuery,
    result: Option<snails_engine::ResultSet>,
}

/// Parse the gold SQL once for the inference, its identifiers and its
/// result. The result comes from a compiled plan run unbudgeted and outside
/// any [`PlanCache`], so gold statements never move the grid's or a
/// tenant's hit/miss counters.
pub fn gold_context(db: &SnailsDatabase, pair: &snails_data::GoldPair) -> GoldContext {
    let query = GoldQuery::parse(&pair.sql);
    let result = snails_engine::compile(&db.db, &query.statement)
        .and_then(|plan| plan.execute(&db.db, ExecOptions::default()))
        .ok();
    GoldContext { query, result }
}

/// Per-(database, variant) evaluation state: the schema view the model
/// sees and the map that denaturalizes its output back to native names.
///
/// [`EvalContext::new`] is the one place evaluation builds that map (it
/// walks the full crosswalk). The grid and the ablation study build one
/// context per (database, variant), a serve tenant one per database, and
/// [`evaluate_question`] one per call; each shares it across the questions
/// and workflows it evaluates.
pub struct EvalContext {
    pub(crate) view: SchemaView,
    pub(crate) denat: snails_sql::IdentifierMap,
}

/// One cell to evaluate: a workflow answering one gold question of a
/// database under a fault plan.
#[derive(Clone, Copy)]
pub struct CellInput<'a> {
    /// The database asked.
    pub db: &'a SnailsDatabase,
    /// The workflow (model row) answering.
    pub workflow: Workflow,
    /// The gold question.
    pub pair: &'a snails_data::GoldPair,
    /// Its gold context.
    pub gold: &'a GoldContext,
    /// Global inference seed.
    pub seed: u64,
    /// Retry/breaker/fault plan; [`CellPlan::clean`] outside fault runs.
    pub plan: CellPlan,
}

/// What evaluating one cell decided: the model's completion and every
/// [`QueryRecord`] field that depends on it. The naturalness measures are
/// not among them (they depend only on the gold query and the variant, and
/// only the grid's analyses read them); callers that report records attach
/// them through [`EvalContext::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The completion as the model emitted it, in the displayed namespace
    /// (after any planned payload corruption); `None` when no inference
    /// was delivered.
    pub raw_sql: Option<String>,
    /// Whether the raw model output parsed.
    pub parse_ok: bool,
    /// Passed result set-superset matching (pre-audit).
    pub set_matched: bool,
    /// Final execution correctness (set match + semantic audit).
    pub exec_correct: bool,
    /// Query-level linking scores (absent when the output was unparseable).
    pub linking: Option<LinkingScores>,
    /// Schema-subsetting metrics for chained workflows.
    pub subset: Option<(f64, f64, f64)>,
    /// Predicted identifier set after denaturalization (uppercased).
    pub pred_ids: BTreeSet<String>,
    /// Terminal failure for this cell, if any.
    pub failure: Option<FailureKind>,
}

impl Outcome {
    /// A cell that never produced a usable inference: exhausted retries, an
    /// open breaker, or an isolated panic. Shaped like a parse failure (the
    /// paper's treatment of unusable generations) plus the failure.
    pub fn failed(failure: FailureKind) -> Outcome {
        Outcome {
            raw_sql: None,
            parse_ok: false,
            set_matched: false,
            exec_correct: false,
            linking: None,
            subset: None,
            pred_ids: BTreeSet::new(),
            failure: Some(failure),
        }
    }
}

impl EvalContext {
    /// Build the context for `db` seen through `view`.
    pub fn new(db: &SnailsDatabase, view: SchemaView) -> EvalContext {
        let denat = snails_llm::middleware::denaturalization_map(db, view.variant);
        EvalContext { view, denat }
    }

    /// Parse a completion and rename its identifiers back to the native
    /// namespace: the statement the cell links, executes and audits.
    pub(crate) fn denaturalize(&self, raw_sql: &str) -> Result<Statement, ParseError> {
        parse(raw_sql).map(|stmt| rename_identifiers(&stmt, &self.denat))
    }

    /// Evaluate one cell: infer, denaturalize, link, then run the predicted
    /// SQL through `plans` under `opts` and match it against the gold
    /// result. Returns the outcome plus the denaturalized SQL when the cell
    /// reached the execution stage, which a serve tenant answers.
    pub fn evaluate(
        &self,
        cell: CellInput<'_>,
        plans: &PlanCache,
        opts: ExecOptions,
    ) -> (Outcome, Option<String>) {
        // Span guards are inert unless the scheduler installed an
        // observability scope (telemetry runs); under the simulated clock
        // their tick structure per task is exact, so the rollup joins the
        // deterministic report.
        let _cell = snails_obs::span("cell");
        // The resilience middleware: retries/breaker/corruption were
        // planned serially; `run_cell` executes the plan (and genuinely
        // panics for planned-panic cells — the scheduler's isolation
        // handles those).
        let (result, failure) = {
            let _s = snails_obs::span("cell.infer");
            let CellInput { db, workflow, pair, gold, seed, plan } = cell;
            match run_cell(&plan, workflow, db, &self.view, pair, &gold.query, seed) {
                CellExecution::Completed { result, failure } => (result, failure),
                CellExecution::Failed(kind) => return (Outcome::failed(kind), None),
            }
        };

        // Denaturalize the raw output back to the Native namespace, keeping
        // the statement for linking and the audit and its rendering for
        // execution.
        let denat_result = {
            let _s = snails_obs::span("cell.denaturalize");
            self.denaturalize(&result.inference.raw_sql).map(|stmt| {
                let sql = stmt.to_string();
                (stmt, sql)
            })
        };
        let mut outcome = Outcome {
            raw_sql: Some(result.inference.raw_sql),
            parse_ok: false,
            set_matched: false,
            exec_correct: false,
            linking: None,
            subset: result
                .subset
                .as_ref()
                .map(|s| (s.recall(), s.precision(), s.f1())),
            pred_ids: BTreeSet::new(),
            failure,
        };
        let Ok((pred_stmt, native_sql)) = denat_result else {
            return (outcome, None); // unparseable output: excluded from linking analysis
        };
        outcome.parse_ok = true;

        // Schema linking (on the denaturalized query, appendix E.4).
        let pred_qi = {
            let _s = snails_obs::span("cell.link");
            let pred_qi = extract_identifiers(&pred_stmt);
            outcome.pred_ids = pred_qi.all();
            outcome.linking = Some(query_linking(&cell.gold.query.ids, &pred_qi));
            pred_qi
        };

        // Execution accuracy: run both queries, superset-match, audit. The
        // predicted query is untrusted model output and runs under the
        // caller's budgets; gold ran unguarded in `gold_context`. Predicted
        // queries flow through the caller's plan cache: distinct workflows
        // and questions frequently converge on the same denaturalized SQL,
        // so the statement is lowered once and re-executed from the
        // compiled plan.
        let Some(gold_rs) = &cell.gold.result else { return (outcome, None) };
        let _exec = snails_obs::span("cell.exec");
        let pred_rs = match plans.run(&cell.db.db, &native_sql, opts) {
            Ok(rs) => rs,
            Err(e) => {
                if e.is_resource_exhausted() {
                    outcome.failure = Some(FailureKind::ResourceExhausted);
                }
                return (outcome, Some(native_sql));
            }
        };
        if match_result_sets(gold_rs, &pred_rs).is_match() {
            outcome.set_matched = true;
            let gold = &cell.gold.query;
            outcome.exec_correct =
                audit_statements(&gold.statement, &gold.ids, &pred_stmt, &pred_qi);
        }
        (outcome, Some(native_sql))
    }

    /// The record of an evaluated cell, carrying the naturalness
    /// `measures` of its gold query at this context's variant.
    pub fn record(
        &self,
        cell: CellInput<'_>,
        outcome: Outcome,
        measures: QueryMeasures,
    ) -> QueryRecord {
        QueryRecord {
            workflow: cell.workflow.display_name(),
            database: cell.db.spec.name.to_owned(),
            variant: self.view.variant,
            question_id: cell.pair.id,
            parse_ok: outcome.parse_ok,
            set_matched: outcome.set_matched,
            exec_correct: outcome.exec_correct,
            linking: outcome.linking,
            subset: outcome.subset,
            gold_ids: cell.gold.query.ids.all(),
            pred_ids: outcome.pred_ids,
            measures,
            failure: outcome.failure,
            attempts: cell.plan.attempts,
        }
    }
}

/// Evaluate one workflow on one question at one variant.
///
/// Builds the question's contexts for this one call and runs the predicted
/// SQL under [`ExecLimits::guarded`], the budgets the grid
/// ([`BenchmarkConfig::default`]) and serve tenants apply to untrusted
/// model output, so the record equals the matching grid cell's. Batch
/// callers should prefer [`run_benchmark_on`], which builds every context
/// once and layers in fault planning.
pub fn evaluate_question(
    workflow: Workflow,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &snails_data::GoldPair,
    seed: u64,
) -> QueryRecord {
    let ctx = EvalContext::new(db, view.clone());
    let gold = gold_context(db, pair);
    let cell = CellInput { db, workflow, pair, gold: &gold, seed, plan: CellPlan::clean(0) };
    let opts = ExecOptions { limits: ExecLimits::guarded(), ..Default::default() };
    let (outcome, _) = ctx.evaluate(cell, &PlanCache::new(), opts);
    ctx.record(cell, outcome, query_measures(db, view.variant, &gold.query.ids))
}

/// One cell of the (database × variant × workflow × question) grid.
struct WorkItem<'a> {
    ctx: &'a EvalContext,
    /// The cell, with the retry/breaker/fault plan the serial planning
    /// pre-pass computed for it (see [`run_benchmark_on`]).
    cell: CellInput<'a>,
    /// Its question's measures at its variant, shared by the variant's
    /// workflows and filled by the first record that needs them.
    qm: &'a OnceLock<QueryMeasures>,
    /// Circuit-breaker trips the planning of *this* cell caused. Attributing
    /// trips to cells (instead of reading the planner's global total) makes
    /// [`FaultSummary`] componentwise-summable over disjoint shards.
    trips: u64,
}

impl WorkItem<'_> {
    fn record(&self, outcome: Outcome) -> QueryRecord {
        let (cell, ids) = (self.cell, &self.cell.gold.query.ids);
        let measures = self.qm.get_or_init(|| query_measures(cell.db, self.ctx.view.variant, ids));
        self.ctx.record(cell, outcome, *measures)
    }
}

/// An in-shard cell of a (possibly sharded, possibly resumed) run: the work
/// item plus its grid-global index.
struct ExecSlot<'a, 'b> {
    global: usize,
    item: &'b WorkItem<'a>,
}

/// Run the benchmark over a prebuilt collection.
///
/// The grid is flattened into independent work items and executed on
/// `config.threads` workers (default: available parallelism). Each item is
/// a pure function of `(config.seed, item)`, and the scheduler reassembles
/// results in grid order, so the records are identical — in content and
/// order — to the serial nested loop at any thread count. Under
/// [`BenchmarkConfig::checkpoint`] the same pass restores stored cells: a
/// worker that finds a verified record for its cell returns it instead of
/// executing the cell.
pub fn run_benchmark_on(
    collection: &[SnailsDatabase],
    config: &BenchmarkConfig,
) -> BenchmarkRun {
    let dbs: Vec<&SnailsDatabase> = collection
        .iter()
        .filter(|db| {
            config
                .databases
                .iter()
                .any(|n| n.eq_ignore_ascii_case(db.spec.name))
        })
        .collect();

    // Shared per-(db, question) and per-(db, variant) contexts, built once
    // up front instead of per grid cell and shared read-only by every
    // worker. The per-question naturalness measures of each variant are
    // computed on first use instead: a restored cell carries its own, and
    // the first computation trains the tokenizer.
    let golds: Vec<Vec<GoldContext>> = dbs
        .iter()
        .map(|db| db.questions.iter().map(|p| gold_context(db, p)).collect())
        .collect();
    let variants: Vec<Vec<(EvalContext, Vec<OnceLock<QueryMeasures>>)>> = dbs
        .iter()
        .map(|db| {
            config
                .variants
                .iter()
                .map(|&variant| {
                    let ctx = EvalContext::new(db, SchemaView::new(db, variant));
                    (ctx, db.questions.iter().map(|_| OnceLock::new()).collect())
                })
                .collect()
        })
        .collect();

    // Serial planning pre-pass: the circuit breaker and simulated clock are
    // *shared mutable* state (a breaker tripped by cell N must skip cell
    // N+1), which cannot be threaded through a parallel map without
    // order-dependence. So fault draws, retries, and breaker transitions
    // are resolved here, in grid order, while building the item list — it
    // is pure RNG arithmetic, orders of magnitude cheaper than inference —
    // and each resulting `CellPlan` is a pure input to the parallel phase.
    // An inert profile draws no fault, so every plan is one clean attempt
    // and records are byte-identical to a build without the fault layer.
    let mut planner = Planner::new(config.fault_profile);
    if !config.fault_profile.is_inert() {
        // Injected panics are expected control flow under fault profiles;
        // keep them out of stderr (real panics still print).
        faults::silence_injected_panics();
    }

    // Telemetry context for the run. The simulated clock keeps the span
    // rollup deterministic; gold-query precompute above is deliberately
    // outside the scope (the report describes planning + predicted-query
    // work, not trusted fixtures).
    let obs = config.telemetry.then(|| Arc::new(ObsCtx::new(ClockMode::Sim)));
    // The serial planning pre-pass records the llm.* counters — install the
    // scope on this thread for the item-building loop.
    let _plan_scope = obs.as_ref().map(snails_obs::scope);

    let mut items: Vec<WorkItem<'_>> = Vec::new();
    for (di, &db) in dbs.iter().enumerate() {
        for (ctx, measures) in &variants[di] {
            for &workflow in &config.workflows {
                for (qi, pair) in db.questions.iter().enumerate() {
                    let cell_seed = mix_seed(
                        &[
                            workflow.display_name(),
                            db.spec.name,
                            ctx.view.variant.display_name(),
                            "fault-cell",
                        ],
                        &[config.seed, pair.id as u64],
                    );
                    let before = planner.breaker_trips();
                    let plan = planner.plan_cell(workflow.display_name(), cell_seed);
                    let trips = planner.breaker_trips() - before;
                    items.push(WorkItem {
                        ctx,
                        cell: CellInput {
                            db,
                            workflow,
                            pair,
                            gold: &golds[di][qi],
                            seed: config.seed,
                            plan,
                        },
                        qm: &measures[qi],
                        trips,
                    });
                }
            }
        }
    }

    let threads = config.threads.unwrap_or_else(scheduler::available_threads);
    let fingerprint = checkpoint::grid_fingerprint(config, &dbs);
    let shard = config.shard;
    // One plan cache for the whole grid: cache keys include the database
    // name, and plan execution is a pure function of (db, sql, opts), so
    // sharing it across workers cannot perturb record content or order.
    // Unbounded: the grid's misses are all compulsory (DESIGN.md §5).
    let plans = PlanCache::new();

    // The checkpoint store: each cell asks it first and restores a verified
    // record instead of executing. Corruption quarantines the file and
    // recomputes the cell — it never aborts and is never silently trusted.
    let store = config.checkpoint.as_ref().map(|spec| {
        CellStore::open(spec, fingerprint)
            .unwrap_or_else(|e| panic!("cannot open checkpoint dir {:?}: {e}", spec.dir))
    });

    // The cells this invocation owes: the shard's slice of the grid.
    let owned: Vec<ExecSlot<'_, '_>> = items
        .iter()
        .enumerate()
        .filter(|(i, _)| shard.contains(*i))
        .map(|(global, item)| ExecSlot { global, item })
        .collect();

    let run_cell_slot = |slot: &ExecSlot<'_, '_>| {
        let it = slot.item;
        let opts = ExecOptions { limits: config.limits, ..Default::default() };
        let (outcome, _) = it.ctx.evaluate(it.cell, &plans, opts);
        it.record(outcome)
    };
    // Each cell yields its record plus, when restored from the store under
    // telemetry, its stored span rollup (merged below).
    let done = scheduler::run_ordered_observed_keyed(
        &owned,
        threads,
        obs.as_ref(),
        // Task ids are grid-global, so the span streams of sharded and
        // resumed runs interleave exactly like the full run's.
        |_, slot| slot.global as u64,
        |_, slot| {
            let Some(store) = &store else { return (run_cell_slot(slot), BTreeMap::new()) };
            if let CellLoad::Hit { record, telemetry } = store.load(slot.global, config.telemetry) {
                // The stored counters and histograms are sums, so absorbing
                // them from any worker in any order leaves the registry as
                // executing the cell would have.
                let spans = match (&obs, telemetry) {
                    (Some(ctx), Some((deterministic, spans))) => {
                        ctx.registry.absorb(&Snapshot { deterministic, ..Snapshot::default() });
                        spans
                    }
                    _ => BTreeMap::new(),
                };
                return (record, spans);
            }
            let Some(ctx) = &obs else {
                let record = run_cell_slot(slot);
                let _ = store.store(slot.global, &record, None);
                return (record, BTreeMap::new());
            };
            // Capture this cell's deterministic telemetry in a nested
            // temporary context, persist it alongside the record, then fold
            // it into the run context — so a future resume can restore the
            // cell's exact telemetry without re-executing it.
            let temp = Arc::new(ObsCtx::new(ClockMode::Sim));
            let outcome = {
                let _scope = snails_obs::scope(&temp);
                snails_obs::task(slot.global as u64, || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_cell_slot(slot)
                    }))
                })
            };
            let snap = temp.registry.snapshot();
            let spans = temp.tracer.rollup();
            ctx.registry.absorb(&snap);
            ctx.tracer.absorb(temp.tracer.drain_sorted());
            match outcome {
                Ok(record) => {
                    let _ = store.store(slot.global, &record, Some((snap.deterministic, spans)));
                    (record, BTreeMap::new())
                }
                // A panicking cell (an injected fault) is never
                // checkpointed — its partial telemetry was folded in above
                // (matching the uncheckpointed run, where the unwound task
                // still flushes), and the panic continues to the scheduler's
                // isolation layer, which substitutes the failure record.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        },
        |_, slot, payload| {
            // Only planned (injected) panics are absorbed into failure
            // records; a genuine bug still aborts the run loudly.
            if !faults::is_injected_panic(payload.as_ref()) {
                std::panic::resume_unwind(payload);
            }
            (slot.item.record(Outcome::failed(FailureKind::Panic)), BTreeMap::new())
        },
    );

    let mut telemetry = obs.map(|ctx| ctx.report());
    let mut records = Vec::with_capacity(done.len());
    for (record, spans) in done {
        if let Some(report) = &mut telemetry {
            for (name, s) in spans {
                let stat = report.spans.entry(name).or_default();
                stat.count += s.count;
                stat.total += s.total;
            }
        }
        records.push(record);
    }

    let mut faults = FaultSummary::default();
    for ExecSlot { item: it, .. } in &owned {
        faults.cells += 1;
        faults.attempts += u64::from(it.cell.plan.attempts);
        faults.retries += u64::from(it.cell.plan.retries());
        faults.breaker_trips += it.trips;
    }
    for r in &records {
        if let Some(kind) = r.failure {
            *faults.failures.entry(kind.name()).or_insert(0) += 1;
        }
    }

    BenchmarkRun {
        records,
        faults,
        telemetry,
        checkpoint: store.as_ref().map(CellStore::stats),
        fingerprint,
        grid_cells: items.len(),
    }
}

/// Build the databases named in the config and run the benchmark.
pub fn run_benchmark(config: &BenchmarkConfig) -> BenchmarkRun {
    let collection: Vec<SnailsDatabase> = config
        .databases
        .iter()
        .map(|n| snails_data::build_database(n))
        .collect();
    run_benchmark_on(&collection, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snails_llm::ModelKind;

    fn small_config() -> BenchmarkConfig {
        BenchmarkConfig {
            seed: 7,
            databases: vec!["CWO".into()],
            variants: vec![SchemaVariant::Native, SchemaVariant::Least],
            workflows: vec![
                Workflow::ZeroShot(ModelKind::Gpt4o),
                Workflow::ZeroShot(ModelKind::PhindCodeLlama),
            ],
            threads: None,
            ..BenchmarkConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_records() {
        let run = run_benchmark(&small_config());
        // 40 questions × 2 variants × 2 workflows.
        assert_eq!(run.records.len(), 160);
        // Every record has valid bounded measures.
        for r in &run.records {
            if let Some(l) = r.linking {
                assert!((0.0..=1.0).contains(&l.recall));
                assert!((0.0..=1.0).contains(&l.precision));
            }
            assert!(!r.gold_ids.is_empty());
        }
    }

    #[test]
    fn strong_model_beats_weak_model() {
        let run = run_benchmark(&small_config());
        let strong = BenchmarkRun::exec_accuracy(run.by_workflow("gpt-4o"));
        let weak =
            BenchmarkRun::exec_accuracy(run.by_workflow("Phind-CodeLlama-34B-v2"));
        assert!(strong > weak, "gpt-4o {strong} !> phind {weak}");
    }

    #[test]
    fn least_variant_hurts_both_metrics() {
        let run = run_benchmark(&small_config());
        let native: Vec<&QueryRecord> = run
            .records
            .iter()
            .filter(|r| r.variant == SchemaVariant::Native)
            .collect();
        let least: Vec<&QueryRecord> = run
            .records
            .iter()
            .filter(|r| r.variant == SchemaVariant::Least)
            .collect();
        assert!(
            BenchmarkRun::exec_accuracy(native.iter().copied())
                > BenchmarkRun::exec_accuracy(least.iter().copied())
        );
        assert!(
            BenchmarkRun::mean_recall(native.iter().copied())
                > BenchmarkRun::mean_recall(least.iter().copied())
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_benchmark(&small_config());
        let b = run_benchmark(&small_config());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.exec_correct, y.exec_correct);
            assert_eq!(x.pred_ids, y.pred_ids);
        }
    }

    #[test]
    fn exec_correct_implies_set_matched() {
        let run = run_benchmark(&small_config());
        for r in &run.records {
            if r.exec_correct {
                assert!(r.set_matched);
                assert!(r.parse_ok);
            }
        }
    }

    #[test]
    fn empty_subsets_yield_zero_not_nan() {
        // The documented empty-subset convention: 0.0, never NaN.
        assert_eq!(BenchmarkRun::exec_accuracy(std::iter::empty()), 0.0);
        assert_eq!(BenchmarkRun::mean_recall(std::iter::empty()), 0.0);
        // mean_recall also returns 0.0 when every record is a parse failure
        // (no linking scores to average).
        let run = run_benchmark(&small_config());
        let mut r = run.records[0].clone();
        r.parse_ok = false;
        r.linking = None;
        let only_failures = [r];
        assert_eq!(BenchmarkRun::mean_recall(only_failures.iter()), 0.0);
        // A run over an unknown database filter produces the empty grid and
        // the metrics stay finite.
        let empty = run_benchmark_on(
            &[],
            &BenchmarkConfig { databases: vec![], ..BenchmarkConfig::default() },
        );
        assert!(empty.records.is_empty());
        assert_eq!(BenchmarkRun::exec_accuracy(&empty.records), 0.0);
        assert_eq!(BenchmarkRun::mean_recall(&empty.records), 0.0);
    }

    #[test]
    fn inert_profile_yields_clean_accounting() {
        let run = run_benchmark(&small_config());
        assert_eq!(run.faults.cells, run.records.len());
        assert_eq!(run.faults.retries, 0);
        assert_eq!(run.faults.breaker_trips, 0);
        assert_eq!(run.faults.total_failures(), 0);
        for r in &run.records {
            assert_eq!(r.failure, None);
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn flaky_profile_is_deterministic_across_thread_counts() {
        let config = |threads| BenchmarkConfig {
            fault_profile: snails_llm::FaultProfile::FLAKY,
            threads: Some(threads),
            ..small_config()
        };
        let baseline = run_benchmark(&config(1));
        for threads in [2, 8] {
            let run = run_benchmark(&config(threads));
            assert_eq!(run.records, baseline.records, "threads = {threads}");
            assert_eq!(run.faults, baseline.faults, "threads = {threads}");
        }
    }

    #[test]
    fn fault_summary_json_is_well_formed() {
        let mut summary = FaultSummary { cells: 3, attempts: 7, retries: 4, ..Default::default() };
        summary.failures.insert("timeout", 2);
        summary.failures.insert("panic", 1);
        assert_eq!(
            summary.to_json(),
            "{\"cells\":3,\"attempts\":7,\"retries\":4,\"breaker_trips\":0,\
             \"failed_cells\":3,\"failures\":{\"panic\":1,\"timeout\":2}}"
        );
    }

    #[test]
    fn some_audits_reject_set_matches() {
        // The paper's E.3 finding: a small share of set-matched predictions
        // fail manual review. With the weak model over both variants some
        // rejections should appear; tolerate zero only if no set matches.
        let run = run_benchmark(&small_config());
        let set_matched = run.records.iter().filter(|r| r.set_matched).count();
        let rejected = run
            .records
            .iter()
            .filter(|r| r.set_matched && !r.exec_correct)
            .count();
        assert!(set_matched > 0);
        assert!(
            rejected * 2 <= set_matched,
            "audit rejected {rejected} of {set_matched} — too aggressive"
        );
    }

    /// The one-off entry (`evaluate_question`, behind `snails ask`) runs
    /// predicted SQL under the grid's budgets, so it reproduces the grid's
    /// record for the same cell exactly.
    #[test]
    fn evaluate_question_matches_the_grid_cell() {
        let config = BenchmarkConfig {
            seed: 7,
            databases: vec!["CWO".into()],
            variants: vec![SchemaVariant::Native, SchemaVariant::Least],
            ..BenchmarkConfig::default()
        };
        let db = snails_data::build_database("CWO");
        let run = run_benchmark_on(std::slice::from_ref(&db), &config);
        let sampled: Vec<&QueryRecord> = run.records.iter().step_by(4).collect();
        assert!(sampled.len() >= 100, "sampled {} cells", sampled.len());
        for grid in sampled {
            let workflow = *Workflow::all()
                .iter()
                .find(|w| w.display_name() == grid.workflow)
                .expect("grid workflow");
            let view = SchemaView::new(&db, grid.variant);
            let pair = db.questions.iter().find(|p| p.id == grid.question_id).expect("question");
            let single = evaluate_question(workflow, &db, &view, pair, config.seed);
            assert_eq!(&single, grid, "{} {:?} q{}", grid.workflow, grid.variant, grid.question_id);
        }
    }
}
