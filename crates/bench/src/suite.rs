//! The `snails bench` suite: wall-clock timings for tokenizer training, the
//! parallel grid, the checkpoint layer and the compiled-plan executor, each
//! with the correctness check it doubles as. Every stage is one JSON line; the
//! `snails` binary prints them as they land, wraps them into
//! `BENCH_engine.json`, and exits non-zero on any failure the suite
//! reports. `scripts/check.sh` gates the recorded numbers.

use crate::CountingAlloc;
use snails_core::checkpoint::{manifest_from_run, merge_manifests, CheckpointSpec, Shard};
use snails_core::pipeline::{run_benchmark_on, BenchmarkConfig, BenchmarkRun};
use snails_core::telemetry;
use snails_data::{build_database, GoldPair, SnailsDatabase};
use snails_engine::{
    run_sql, run_sql_with, DataType, Database, ExecLimits, ExecOptions, PlanCache, ResultSet,
    TableSchema, Value,
};
use snails_llm::{ModelKind, Workflow};
use snails_naturalness::category::SchemaVariant;
use snails_tokenize::{BpeTokenizer, TokenizerProfile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The 1280-cell benchmark grid (CWO + KIS × 4 variants × 4 workflows × 40
/// questions) shared by `snails grid`, the suite's grid and checkpoint
/// stages, and check.sh's crash-recovery smoke.
pub fn grid_config() -> BenchmarkConfig {
    BenchmarkConfig {
        seed: 2024,
        databases: vec!["CWO".into(), "KIS".into()],
        variants: SchemaVariant::ALL.to_vec(),
        workflows: vec![
            Workflow::ZeroShot(ModelKind::Gpt4o),
            Workflow::ZeroShot(ModelKind::Gpt35),
            Workflow::DinSql,
            Workflow::CodeS,
        ],
        ..Default::default()
    }
}

/// What one suite run measures under.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workers for the parallel grid legs.
    pub threads: usize,
    /// Where to write the parallel grid's telemetry report; `None` runs the
    /// grid without telemetry and skips the `telemetry` stage.
    pub telemetry: Option<PathBuf>,
}

impl Default for BenchOptions {
    /// The parallel legs need a thread count that actually differs from
    /// the serial baseline: on a 1-core detection (containers, cgroup caps)
    /// a "parallel" run at 1 thread would just re-time the serial leg and
    /// report a meaningless ~1.0 speedup, so the default is floored at 2
    /// and the grid stage records the detected count next to it.
    fn default() -> Self {
        BenchOptions {
            threads: snails_core::available_threads().max(2),
            telemetry: None,
        }
    }
}

/// Stage lines and failures of one suite run.
#[derive(Debug, Default)]
pub struct SuiteOutcome {
    /// One JSON object per stage, in run order.
    pub stages: Vec<String>,
    /// Violated checks; empty when the run passed.
    pub failures: Vec<String>,
}

impl SuiteOutcome {
    fn stage(&mut self, progress: &mut dyn FnMut(&str), line: String) {
        progress(&line);
        self.stages.push(line);
    }

    fn check(&mut self, ok: bool, failure: &str) {
        if !ok {
            self.failures.push(failure.to_owned());
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `(median, min, max)` of repeated timings.
fn spread(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

/// Run every stage, handing each stage line to `progress` as it completes.
/// `alloc` must be the process's global allocator: the suite turns its
/// counting on and reads hot-loop allocation deltas from it. A failed
/// check never stops the suite; it lands in [`SuiteOutcome::failures`].
pub fn run(
    opts: &BenchOptions,
    alloc: &CountingAlloc,
    progress: &mut dyn FnMut(&str),
) -> SuiteOutcome {
    alloc.start_counting();
    let mut out = SuiteOutcome::default();
    let threads = opts.threads;
    tokenizer_train(&mut out, progress);

    // Benchmark grid: the same (database × variant × workflow × question)
    // cells serially and on `threads` workers. The record comparison
    // doubles as a determinism check on every bench run.
    let collection: Vec<SnailsDatabase> = grid_config()
        .databases
        .iter()
        .map(|n| build_database(n))
        .collect();
    let config = |t: usize| BenchmarkConfig {
        threads: Some(t),
        telemetry: opts.telemetry.is_some(),
        ..grid_config()
    };
    // Untimed warm-up pass so the serial baseline is not billed for page
    // faults and allocator warm-up the parallel run then gets for free.
    let _ = run_benchmark_on(&collection, &config(threads));
    let t0 = Instant::now();
    let serial = run_benchmark_on(&collection, &config(1));
    let serial_ms = ms(t0);
    let t1 = Instant::now();
    let parallel = run_benchmark_on(&collection, &config(threads));
    let parallel_ms = ms(t1);
    // Deterministic telemetry sections must also be byte-identical at any
    // thread count (volatile sections — scheduler shape — are exempt).
    let det_json = |run: &BenchmarkRun| {
        run.telemetry
            .as_ref()
            .map(telemetry::Report::deterministic_json)
    };
    let serial_telemetry = det_json(&serial);
    let mut telemetry_identical = det_json(&parallel) == serial_telemetry;
    let mut records_match = serial.records == parallel.records && serial.faults == parallel.faults;
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"grid\",\"cells\":{},\"threads\":1,\"ms\":{serial_ms:.1}}}",
            serial.records.len()
        ),
    );
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"grid\",\"cells\":{},\"threads\":{threads},\
             \"threads_detected\":{},\"ms\":{parallel_ms:.1},\
             \"speedup\":{:.2},\"records_match\":{records_match}}}",
            parallel.records.len(),
            snails_core::available_threads(),
            serial_ms / parallel_ms
        ),
    );
    // Determinism grid: records (and fault accounting) must be
    // bit-identical at 1, 2, and 8 workers. The serial and `threads` runs
    // above already cover their thread counts; fill in the rest.
    for t in [2usize, 8] {
        if t == threads {
            continue;
        }
        let run = run_benchmark_on(&collection, &config(t));
        records_match &= run.records == serial.records && run.faults == serial.faults;
        telemetry_identical &= det_json(&run) == serial_telemetry;
    }
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"grid_determinism\",\"threads\":[1,2,8],\
             \"identical\":{records_match}}}"
        ),
    );
    out.check(records_match, "records diverged across thread counts");
    out.check(
        telemetry_identical,
        "deterministic telemetry diverged across thread counts",
    );
    // Structured telemetry report: the parallel run's full report (metrics
    // + sim-clock span rollup) goes to the requested path; the stage line
    // carries the headline numbers into BENCH_engine.json.
    if let Some(path) = &opts.telemetry {
        let report = parallel.telemetry.as_ref().expect("telemetry was enabled");
        if let Err(e) = std::fs::write(path, report.to_json()) {
            out.failures.push(format!(
                "could not write telemetry report {}: {e}",
                path.display()
            ));
        }
        let hit_rate = report.plan_cache_hit_rate().unwrap_or(0.0);
        out.stage(
            progress,
            format!(
                "{{\"bench\":\"telemetry\",\
                 \"identical_across_threads\":{telemetry_identical},\
                 \"plan_cache_hit_rate\":{hit_rate:.3},\"statements\":{},\
                 \"resilience_attempts\":{},\"resilience_retries\":{},\"breaker_trips\":{}}}",
                report.counter("engine.exec.statements"),
                report.counter("llm.resilience.attempts"),
                report.counter("llm.resilience.retries"),
                report.counter("llm.breaker.trips"),
            ),
        );
    }

    checkpoint_resume(&collection, opts, &mut out, progress);
    vector_exec(alloc, &mut out, progress);
    guarded_subqueries(&mut out, progress);
    synthetic_join(alloc, &mut out, progress);
    out
}

/// Tokenizer training: each BPE profile trained afresh `REPS` times,
/// the profiles interleaved round by round. Every process that scores a
/// grid cell's naturalness measures trains the GPT-like profile once
/// (check.sh gates its median), and every training of a profile must learn
/// the same merges and the same vocabulary ids.
fn tokenizer_train(out: &mut SuiteOutcome, progress: &mut dyn FnMut(&str)) {
    const REPS: usize = 5;
    // (profile, per-training ms, first training, later ones all equal it)
    let mut legs: Vec<(TokenizerProfile, Vec<f64>, Option<BpeTokenizer>, bool)> =
        TokenizerProfile::ALL
            .iter()
            .map(|&p| (p, Vec::new(), None, true))
            .collect();
    for _ in 0..REPS {
        for (profile, times, first, identical) in &mut legs {
            let t = Instant::now();
            let Some(trained) = profile.train() else {
                continue;
            };
            times.push(ms(t));
            match first {
                Some(f) => {
                    *identical &= f.merges() == trained.merges()
                        && f.vocabulary().iter().eq(trained.vocabulary().iter());
                }
                None => *first = Some(trained),
            }
        }
    }
    let mut all_identical = true;
    let mut fields = Vec::new();
    for (profile, times, first, identical) in &mut legs {
        let Some(first) = first else { continue };
        let (med, min, max) = spread(times);
        all_identical &= *identical;
        fields.push(format!(
            "\"{}\":{{\"ms_median\":{med:.2},\"ms_min\":{min:.2},\"ms_max\":{max:.2},\
             \"merges\":{},\"vocab\":{},\"identical\":{identical}}}",
            profile.display_name(),
            first.merge_count(),
            first.vocabulary().len(),
        ));
    }
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"tokenizer_train\",\"reps\":{REPS},\"profiles\":{{{}}}}}",
            fields.join(",")
        ),
    );
    out.check(
        all_identical,
        "tokenizer trainings learned different merges or vocabularies (tokenizer_train)",
    );
}

/// Checkpoint layer on the 1280-cell grid: a cold write-through run, a
/// resume after losing half the stored records, and a 4-way shard +
/// merge. Each path must reproduce the cold run byte-for-byte (records,
/// fault summary, and deterministic telemetry, all folded into the
/// canonical manifest rendering).
fn checkpoint_resume(
    collection: &[SnailsDatabase],
    opts: &BenchOptions,
    out: &mut SuiteOutcome,
    progress: &mut dyn FnMut(&str),
) {
    let base = |dir: &std::path::Path| BenchmarkConfig {
        threads: Some(opts.threads),
        telemetry: true,
        checkpoint: Some(CheckpointSpec::at(dir)),
        ..grid_config()
    };
    let root = std::env::temp_dir().join(format!("snails-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold_dir = root.join("cold");
    let cfg = base(&cold_dir);
    let t = Instant::now();
    let cold = run_benchmark_on(collection, &cfg);
    let cold_ms = ms(t);
    let cold_manifest = manifest_from_run(&cold, &cfg).to_string();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(cold_dir.join("cells"))
        .expect("checkpoint cells dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for (i, f) in files.iter().enumerate() {
        if i % 2 == 0 {
            let _ = std::fs::remove_file(f);
        }
    }
    let t = Instant::now();
    let resumed = run_benchmark_on(collection, &cfg);
    let resume_ms = ms(t);
    let resume_stats = resumed.checkpoint.expect("checkpoint stats present");
    let mut identical = manifest_from_run(&resumed, &cfg).to_string() == cold_manifest;
    let shard_dir = root.join("shards");
    let t = Instant::now();
    let manifests: Vec<_> = (0..4)
        .map(|index| {
            let cfg = BenchmarkConfig {
                shard: Shard { index, count: 4 },
                ..base(&shard_dir)
            };
            let run = run_benchmark_on(collection, &cfg);
            manifest_from_run(&run, &cfg)
        })
        .collect();
    let shard_ms = ms(t);
    let t = Instant::now();
    let merged = merge_manifests(manifests).expect("complete disjoint shards merge");
    let merge_ms = ms(t);
    identical &= merged.to_string() == cold_manifest;
    let _ = std::fs::remove_dir_all(&root);
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"checkpoint_resume\",\"cells\":{},\"cold_ms\":{cold_ms:.1},\
             \"resume50_ms\":{resume_ms:.1},\"resume_hits\":{},\"resume_speedup\":{:.2},\
             \"shard4_ms\":{shard_ms:.1},\"merge_ms\":{merge_ms:.2},\
             \"identical\":{identical}}}",
            cold.grid_cells,
            resume_stats.hits,
            cold_ms / resume_ms,
        ),
    );
    out.check(
        identical,
        "checkpoint resume or shard merge diverged from the cold run",
    );
}

/// Plan-once-execute-many: the full NTSB gold workload executed `REPS`
/// times — lex/parse/name-resolve and interpret on every execution vs
/// lowering each statement once and replaying its compiled plan from a
/// warm cache on the vectorized block loop. The warm-up pass doubles as a
/// result-identity check between the two paths.
fn vector_exec(alloc: &CountingAlloc, out: &mut SuiteOutcome, progress: &mut dyn FnMut(&str)) {
    const REPS: usize = 25;
    let db = build_database("NTSB");
    let opts = ExecOptions::default();
    let plans = PlanCache::new();
    let mut gold_rows = 0usize;
    let mut identical = true;
    for p in &db.questions {
        let interpreted = run_sql(&db.db, &p.sql);
        let planned = plans.run(&db.db, &p.sql, opts);
        identical &= planned == interpreted;
        if let Ok(rs) = &planned {
            gold_rows += rs.row_count();
        }
    }
    let mut interp_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..REPS {
            for p in &db.questions {
                let _ = run_sql(&db.db, &p.sql);
            }
        }
        interp_ms = interp_ms.min(ms(t));
    }
    let time_plans = || {
        let t = Instant::now();
        for _ in 0..REPS {
            for p in &db.questions {
                let _ = plans.run(&db.db, &p.sql, opts);
            }
        }
        ms(t)
    };
    // Telemetry overhead on the same workload: the identical compiled-plan
    // loop with a metrics scope installed, so every per-operator observe
    // and cache-hit counter fires. The two loops alternate and each takes
    // its best of three passes, so scheduling drift cannot masquerade as
    // overhead. The ratio is recorded, not gated (DESIGN.md §7).
    let obs = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    let (mut vec_ms, mut telemetry_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        vec_ms = vec_ms.min(time_plans());
        let _scope = telemetry::scope(&obs);
        telemetry_ms = telemetry_ms.min(time_plans());
    }
    let telemetry_overhead_pct = (telemetry_ms / vec_ms - 1.0) * 100.0;
    let rows_per_s = (gold_rows * REPS) as f64 / (vec_ms / 1e3);
    let (cache_hits, cache_misses) = (plans.hits(), plans.misses());
    // Steady-state allocation accounting (cache, pool stash, and page
    // tables are warm after the timing loops): one obs-scoped pass counts
    // the batches executed, one unscoped pass is measured by the counting
    // allocator. Materializing the result rows is the one per-row
    // allocation the buffer pool cannot absorb, so it is subtracted.
    let ctx = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    {
        let _scope = telemetry::scope(&ctx);
        for p in &db.questions {
            let _ = plans.run(&db.db, &p.sql, opts);
        }
    }
    let batches = ctx.report().counter("engine.vec.batches").max(1);
    let before = alloc.snapshot();
    for p in &db.questions {
        let _ = plans.run(&db.db, &p.sql, opts);
    }
    let d = alloc.snapshot().since(before);
    let allocs_per_batch = d.allocs.saturating_sub(gold_rows as u64) as f64 / batches as f64;
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"vector_exec\",\"database\":\"NTSB\",\"queries\":{},\"reps\":{REPS},\
             \"interpret_ms\":{interp_ms:.1},\"vector_ms\":{vec_ms:.1},\
             \"speedup_vs_interpreter\":{:.2},\"rows_per_s\":{rows_per_s:.0},\
             \"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\
             \"telemetry_ms\":{telemetry_ms:.1},\
             \"telemetry_overhead_pct\":{telemetry_overhead_pct:.1},\
             \"batches\":{batches},\"hot_allocs\":{},\
             \"allocs_per_batch\":{allocs_per_batch:.2},\
             \"results_identical\":{identical}}}",
            db.questions.len(),
            interp_ms / vec_ms,
            d.allocs
        ),
    );
    out.check(
        identical,
        "compiled-plan results diverged from the interpreter (vector_exec)",
    );
}

/// Guarded subqueries: every gold statement of the nine databases that
/// nests a SELECT, on a warm plan cache under the guarded budgets every
/// predicted and served statement carries and with every budget off,
/// alternating pass by pass. Uncorrelated blocks replay from the
/// per-execution memo with their recorded budget charges under both, so
/// the budgets should cost close to nothing (check.sh gates guarded at
/// most 2x unbudgeted). Both sides run in this process, so host drift
/// cancels out of the ratio.
fn guarded_subqueries(out: &mut SuiteOutcome, progress: &mut dyn FnMut(&str)) {
    const SUB_REPS: usize = 5;
    let all_dbs: Vec<SnailsDatabase> = snails_data::DATABASE_NAMES
        .iter()
        .map(|n| build_database(n))
        .collect();
    let nested: Vec<(&SnailsDatabase, &GoldPair)> = all_dbs
        .iter()
        .flat_map(|d| d.questions.iter().map(move |p| (d, p)))
        .filter(|(_, p)| p.sql.to_ascii_uppercase().matches("SELECT").count() > 1)
        .collect();
    let plans = PlanCache::new();
    let guarded = ExecOptions {
        limits: ExecLimits::guarded(),
        ..Default::default()
    };
    let unlimited = ExecOptions::default();
    // Warm-up: compiles every plan, checks both sides against the
    // interpreter, and counts the replays the guarded side absorbed.
    let mut identical = true;
    let obs = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    for (d, p) in &nested {
        let oracle = run_sql(&d.db, &p.sql);
        identical &= plans.run(&d.db, &p.sql, unlimited) == oracle;
        let _scope = telemetry::scope(&obs);
        identical &= plans.run(&d.db, &p.sql, guarded) == oracle;
    }
    let replays = obs.report().counter("engine.exec.subquery_replays");
    let pass = |o: ExecOptions| {
        let t = Instant::now();
        for (d, p) in &nested {
            let _ = plans.run(&d.db, &p.sql, o);
        }
        ms(t)
    };
    let (mut guarded_ms, mut unlimited_ms) = (Vec::new(), Vec::new());
    for _ in 0..SUB_REPS {
        guarded_ms.push(pass(guarded));
        unlimited_ms.push(pass(unlimited));
    }
    let (g_med, g_min, g_max) = spread(&mut guarded_ms);
    let (u_med, u_min, u_max) = spread(&mut unlimited_ms);
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"guarded_subqueries\",\"statements\":{},\"reps\":{SUB_REPS},\
             \"guarded_ms_median\":{g_med:.2},\"guarded_ms_min\":{g_min:.2},\
             \"guarded_ms_max\":{g_max:.2},\"unlimited_ms_median\":{u_med:.2},\
             \"unlimited_ms_min\":{u_min:.2},\"unlimited_ms_max\":{u_max:.2},\
             \"ratio\":{:.2},\"results_identical\":{identical},\"replays\":{replays}}}",
            nested.len(),
            g_med / u_med
        ),
    );
    out.check(
        identical,
        "compiled-plan results diverged from the interpreter (guarded_subqueries)",
    );
}

/// Synthetic equi join scaled past a million rows: 1.2M-row probe side
/// against a 100K-row build side, grouped back down to 100K keys. The
/// quadratic nested loop is infeasible here (1.2×10^11 comparisons), so
/// the stage times the compiled plan's hash join, with a result-identity
/// check against the interpreter.
fn synthetic_join(alloc: &CountingAlloc, out: &mut SuiteOutcome, progress: &mut dyn FnMut(&str)) {
    const PROBE_ROWS: i64 = 1_200_000;
    const BUILD_ROWS: i64 = 100_000;
    let mut db = Database::new("bench");
    db.create_table(
        TableSchema::new("a")
            .column("k", DataType::Int)
            .column("v", DataType::Int),
    );
    db.create_table(
        TableSchema::new("b")
            .column("k", DataType::Int)
            .column("w", DataType::Int),
    );
    for i in 0..PROBE_ROWS {
        db.insert("a", vec![Value::Int(i % BUILD_ROWS), Value::Int(i)])
            .expect("insert");
    }
    for i in 0..BUILD_ROWS {
        db.insert("b", vec![Value::Int(i), Value::Int(i * 2)])
            .expect("insert");
    }
    let sql = "SELECT a.k, COUNT(*), MAX(b.w) FROM a JOIN b ON a.k = b.k \
               WHERE a.v >= 200000 GROUP BY a.k";
    let opts = ExecOptions::default();
    let plans = PlanCache::new();
    // Warm-up doubles as the identity check against the interpreter.
    let interp_rs = run_sql_with(&db, sql, opts);
    let identical = plans.run(&db, sql, opts) == interp_rs;
    let mut vec_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        plans.run(&db, sql, opts).expect("synthetic join runs");
        vec_ms = vec_ms.min(ms(t));
    }
    let rows_per_s = PROBE_ROWS as f64 / (vec_ms / 1e3);
    // Steady-state allocation accounting, as in `vector_exec`. One
    // statement spread over thousands of batches: per-statement setup
    // amortizes away and what remains is the per-batch hot loop, which
    // the buffer pool must keep allocation-free (check.sh gates ≤ 2).
    let ctx = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    {
        let _scope = telemetry::scope(&ctx);
        plans.run(&db, sql, opts).expect("synthetic join runs");
    }
    let batches = ctx.report().counter("engine.vec.batches").max(1);
    let out_rows = interp_rs.as_ref().map_or(0, ResultSet::row_count) as u64;
    let before = alloc.snapshot();
    plans.run(&db, sql, opts).expect("synthetic join runs");
    let d = alloc.snapshot().since(before);
    let allocs_per_batch = d.allocs.saturating_sub(out_rows) as f64 / batches as f64;
    out.stage(
        progress,
        format!(
            "{{\"bench\":\"synthetic_join\",\"rows\":{PROBE_ROWS},\
             \"vector_ms\":{vec_ms:.1},\
             \"rows_per_s\":{rows_per_s:.0},\"batches\":{batches},\
             \"hot_allocs\":{},\"allocs_per_batch\":{allocs_per_batch:.2},\
             \"results_identical\":{identical}}}",
            d.allocs
        ),
    );
    out.check(
        identical,
        "compiled-plan results diverged from the interpreter (synthetic_join)",
    );
}
