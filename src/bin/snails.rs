//! `snails` — command-line access to the SNAILS artifacts.
//!
//! ```text
//! snails classify <identifier>...        # naturalness level per identifier
//! snails abbreviate <identifier> [low|least]
//! snails expand <identifier>...          # Artifact-5 expander (no metadata)
//! snails audit <DB>                      # schema naturalness profile
//! snails ask <DB> <question-id> [model]  # run one simulated inference
//! snails sql <DB> "<query>"              # execute SQL on a benchmark DB
//! snails list                            # the nine databases
//! snails bench [threads] [--fault-profile none|flaky|hostile]
//!              [--telemetry <path>]
//!                                        # wall-clock timings (JSON lines)
//! snails grid [--shard i/n] [--ckpt DIR] [--out manifest]
//!             [--kill-after N]
//!                                        # one (shardable, resumable) grid run
//! snails merge --out merged <manifest>.. # fold shard manifests into one run
//! snails serve --socket PATH [--serial] [--tenants a,b] [--dbs CWO]
//!                                        # multi-tenant NL-to-SQL server
//! snails load [--socket PATH] [--clients N] [--requests N] [--shutdown]
//!                                        # load suite (or drive a socket)
//! ```

use snails::core::telemetry;
use snails::engine::{compile, run_sql_with, DataType, EngineError, ExecOptions, TableSchema};
use snails::naturalness::{Classifier, Naturalness, NaturalnessProfile};
use snails::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Bench-only counting allocator: `snails bench` turns counting on and
/// reports steady-state hot-loop allocation counts for the vectorized
/// stages (the buffer-pool contract). Every other command leaves it off
/// and pays one relaxed load per allocation.
#[global_allocator]
static ALLOC: snails_bench::CountingAlloc = snails_bench::CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        std::process::exit(2);
    };
    match command.as_str() {
        "classify" => classify(&args[1..]),
        "abbreviate" => abbreviate(&args[1..]),
        "expand" => expand(&args[1..]),
        "audit" => audit(&args[1..]),
        "ask" => ask(&args[1..]),
        "sql" => sql(&args[1..]),
        "list" => list(),
        "bench" => bench(&args[1..]),
        "grid" => grid(&args[1..]),
        "merge" => merge(&args[1..]),
        "serve" => serve(&args[1..]),
        "load" => load(&args[1..]),
        _ => {
            eprintln!("unknown command: {command}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "snails — Schema Naming Assessments for Improved LLM-Based SQL Inference\n\n\
         USAGE:\n  snails classify <identifier>...\n  snails abbreviate <identifier> [low|least]\n  \
         snails expand <identifier>...\n  snails audit <DB>\n  snails ask <DB> <question-id> [model]\n  \
         snails sql <DB> \"<query>\"\n  snails list\n  \
         snails bench [threads] [--fault-profile none|flaky|hostile] [--telemetry <path>]\n  \
         snails grid [--seed N] [--threads N] [--fault-profile P] [--telemetry]\n              \
         [--shard i/n] [--ckpt DIR] [--kill-after N] [--out <manifest>]\n  \
         snails merge [--out <manifest>] <shard-manifest>...\n  \
         snails serve --socket <path> [--tenants a,b] [--dbs CWO] [--queue-depth N]\n              \
         [--batch N] [--threads N] [--serial] [--seed N]\n              \
         [--fault-profile none|flaky|hostile] [--telemetry <path>]\n  \
         snails load [--socket <path>] [--clients N] [--requests N] [--seed N]\n              \
         [--tenants a,b] [--dbs CWO] [--out <path>] [--shutdown]"
    );
}

/// The 1280-cell benchmark grid (CWO + KIS × 4 variants × 4 workflows × 40
/// questions) shared by `snails grid`, the `bench` checkpoint stage, and
/// the crash-recovery harness.
fn grid_config() -> BenchmarkConfig {
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

/// One (shardable, resumable) grid invocation: the execution unit of the
/// checkpoint layer. Writes this shard's manifest to `--out`, so separate
/// processes — crashed-and-resumed, or sharded across machines — can be
/// reconciled with `snails merge` and compared byte-for-byte.
fn grid(args: &[String]) {
    use snails::core::checkpoint::{manifest_from_run, CheckpointSpec, Shard};

    let mut config = grid_config();
    let mut out: Option<String> = None;
    let mut kill_after: Option<u64> = None;
    let mut ckpt: Option<String> = None;
    let mut it = args.iter();
    let missing = |flag: &str| -> ! {
        eprintln!("grid: {flag} needs a value");
        std::process::exit(2);
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.seed = n,
                None => missing("--seed"),
            },
            "--threads" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => config.threads = Some(n),
                _ => missing("--threads"),
            },
            "--fault-profile" => {
                match it.next().and_then(|n| FaultProfile::by_name(n)) {
                    Some(p) => config.fault_profile = p,
                    None => {
                        eprintln!("grid: --fault-profile takes none|flaky|hostile");
                        std::process::exit(2);
                    }
                }
            }
            "--telemetry" => config.telemetry = true,
            "--shard" => match it.next().map(|s| Shard::parse(s)) {
                Some(Ok(s)) => config.shard = s,
                Some(Err(e)) => {
                    eprintln!("grid: {e}");
                    std::process::exit(2);
                }
                None => missing("--shard"),
            },
            "--ckpt" => match it.next() {
                Some(dir) => ckpt = Some(dir.clone()),
                None => missing("--ckpt"),
            },
            "--kill-after" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => kill_after = Some(n),
                None => missing("--kill-after"),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => missing("--out"),
            },
            other => {
                eprintln!("grid: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if kill_after.is_some() && ckpt.is_none() {
        eprintln!("grid: --kill-after requires --ckpt (it counts checkpoint writes)");
        std::process::exit(2);
    }
    config.checkpoint = ckpt.map(|dir| CheckpointSpec {
        dir: dir.into(),
        kill_after_writes: kill_after,
    });

    let run = run_benchmark(&config);
    let manifest = manifest_from_run(&run, &config);
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, manifest.to_string()) {
            eprintln!("grid: could not write manifest {path}: {e}");
            std::process::exit(1);
        }
    } else {
        print!("{manifest}");
    }
    let ckpt_json = run.checkpoint.map_or("null".to_owned(), |s| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"corrupt\":{},\"written\":{}}}",
            s.hits, s.misses, s.corrupt, s.written
        )
    });
    eprintln!(
        "{{\"grid\":\"done\",\"cells\":{},\"shard\":\"{}/{}\",\"records\":{},\
         \"fingerprint\":\"{:016x}\",\"checkpoint\":{ckpt_json}}}",
        run.grid_cells,
        config.shard.index,
        config.shard.count,
        run.records.len(),
        run.fingerprint,
    );
}

/// Fold shard manifests (from `snails grid --shard i/n --out ...`) into the
/// single-run manifest. The merge validates that the shards belong to the
/// same grid and tile it exactly; the output is byte-identical to the
/// manifest an uninterrupted single-process run would have written.
fn merge(args: &[String]) {
    use snails::core::checkpoint::{merge_manifests, ShardManifest};

    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("merge: --out needs a path");
                    std::process::exit(2);
                }
            }
        } else {
            inputs.push(arg.clone());
        }
    }
    if inputs.is_empty() {
        eprintln!("merge: usage `snails merge [--out <path>] <shard-manifest>...`");
        std::process::exit(2);
    }
    let mut shards = Vec::new();
    for path in &inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("merge: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match ShardManifest::parse(&text) {
            Ok(m) => shards.push(m),
            Err(e) => {
                eprintln!("merge: {path} is not a valid shard manifest: {e}");
                std::process::exit(1);
            }
        }
    }
    let merged = match merge_manifests(shards) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("merge: {e}");
            std::process::exit(1);
        }
    };
    let text = merged.to_string();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("merge: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        None => print!("{text}"),
    }
    eprintln!(
        "{{\"merge\":\"done\",\"shards\":{},\"cells\":{},\"failed_cells\":{}}}",
        inputs.len(),
        merged.total_cells,
        merged.faults.total_failures()
    );
}

fn classify(identifiers: &[String]) {
    if identifiers.is_empty() {
        eprintln!("classify: at least one identifier required");
        std::process::exit(2);
    }
    eprintln!("(training the reference classifier...)");
    let clf = snails::core::dataset_figures::reference_classifier();
    for id in identifiers {
        let level = clf.classify(id);
        let probs = clf.probabilities(id);
        println!(
            "{id}\t{}\t(Regular {:.2} / Low {:.2} / Least {:.2})",
            level.display_name(),
            probs[0],
            probs[1],
            probs[2]
        );
    }
}

fn abbreviate(args: &[String]) {
    let Some(id) = args.first() else {
        eprintln!("abbreviate: identifier required");
        std::process::exit(2);
    };
    let level = match args.get(1).map(String::as_str) {
        Some("least") => Naturalness::Least,
        _ => Naturalness::Low,
    };
    println!("{}", abbreviate_identifier(id, level));
}

fn expand(identifiers: &[String]) {
    if identifiers.is_empty() {
        eprintln!("expand: at least one identifier required");
        std::process::exit(2);
    }
    let expander = Expander::new();
    for id in identifiers {
        println!("{id}\t{}", expander.expand_identifier(id));
    }
}

fn audit(args: &[String]) {
    let Some(name) = args.first() else {
        eprintln!("audit: database name required (see `snails list`)");
        std::process::exit(2);
    };
    check_database("audit", name);
    let db = build_database(name);
    let profile = NaturalnessProfile::from_labels(
        db.identifier_levels().into_iter().map(|(_, l)| l),
    );
    println!("{} ({}):", db.spec.name, db.spec.org);
    println!("  tables {}  columns {}  questions {}", db.db.table_count(), db.db.column_count(), db.questions.len());
    for level in Naturalness::ALL {
        println!(
            "  {:<8} {:>5.1}%",
            level.display_name(),
            100.0 * profile.proportion(level)
        );
    }
    println!("  combined naturalness {:.2}", profile.combined());
    println!(
        "  recommendation: {}",
        if profile.combined() < 0.69 {
            "rename to Regular (or add natural views) before NLI integration"
        } else {
            "already natural; renaming unlikely to help"
        }
    );
}

fn ask(args: &[String]) {
    let (Some(name), Some(qid)) = (args.first(), args.get(1)) else {
        eprintln!("ask: usage `snails ask <DB> <question-id> [model]`");
        std::process::exit(2);
    };
    check_database("ask", name);
    let Ok(qid) = qid.parse::<usize>() else {
        eprintln!("ask: question id must be a number, got {qid:?}");
        std::process::exit(2);
    };
    let model = match args.get(2).map(String::as_str) {
        None | Some("gpt-4o") => ModelKind::Gpt4o,
        Some("gemini") => ModelKind::Gemini15Pro,
        Some("gpt-3.5") => ModelKind::Gpt35,
        Some("phind") => ModelKind::PhindCodeLlama,
        Some("codes") => ModelKind::CodeS,
        Some(other) => {
            eprintln!("unknown model {other} (gpt-4o|gemini|gpt-3.5|phind|codes)");
            std::process::exit(2);
        }
    };
    let db = build_database(name);
    let Some(pair) = db.questions.iter().find(|p| p.id == qid) else {
        eprintln!("{name} has no question {qid} (1..={})", db.questions.len());
        std::process::exit(2);
    };
    let view = SchemaView::new(&db, SchemaVariant::Native);
    let record = evaluate_question(Workflow::ZeroShot(model), &db, &view, pair, 2024);
    println!("Q:    {}", pair.question);
    println!("gold: {}", pair.sql);
    let inference = infer(&model.config(), &db, &view, pair, 2024);
    println!("pred: {}", inference.raw_sql);
    println!(
        "exec: {} | linking recall {}",
        if record.exec_correct { "correct" } else { "incorrect" },
        record
            .linking
            .map(|l| format!("{:.2}", l.recall))
            .unwrap_or_else(|| "n/a".into())
    );
}

fn sql(args: &[String]) {
    let (Some(name), Some(query)) = (args.first(), args.get(1)) else {
        eprintln!("sql: usage `snails sql <DB> \"SELECT ...\"`");
        std::process::exit(2);
    };
    check_database("sql", name);
    let db = build_database(name);
    let result = snails::sql::parse(query)
        .map_err(EngineError::from_parse)
        .and_then(|stmt| compile(&db.db, &stmt))
        .and_then(|plan| plan.execute(&db.db, ExecOptions::default()));
    match result {
        Ok(rs) => print!("{rs}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Exit with a usage error (2) listing the valid names unless `name` is one
/// of the nine databases, matched case-insensitively as `build_database`
/// matches it.
fn check_database(cmd: &str, name: &str) {
    let names = snails::data::DATABASE_NAMES;
    if !names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
        eprintln!("{cmd}: unknown database {name:?} (one of {})", names.join(", "));
        std::process::exit(2);
    }
}

/// Wall-clock timings for the parallel scheduler and the join kernels,
/// emitted as JSON lines (no external dependencies — `format!` only).
fn bench(args: &[String]) {
    ALLOC.start_counting();
    // The parallel legs need a thread count that actually differs from the
    // serial baseline: on a 1-core detection (containers, cgroup caps) a
    // "parallel" run at 1 thread would just re-time the serial leg and
    // report a meaningless ~1.0 speedup, so floor the default at 2 and
    // record the detected count honestly in the grid stage line.
    let detected = snails::core::available_threads();
    let mut threads = detected.max(2);
    let mut profile = FaultProfile::NONE;
    let mut telemetry_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--fault-profile" {
            let Some(p) = it.next().and_then(|n| FaultProfile::by_name(n)) else {
                eprintln!("bench: --fault-profile takes none|flaky|hostile");
                std::process::exit(2);
            };
            profile = p;
        } else if arg == "--telemetry" {
            let Some(p) = it.next() else {
                eprintln!("bench: --telemetry takes an output path");
                std::process::exit(2);
            };
            telemetry_path = Some(p.clone());
        } else {
            match arg.parse() {
                Ok(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("bench: thread count must be a positive integer, got {arg:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    // Every stage line goes to stdout and into the BENCH_engine.json
    // artifact written at the end of the run.
    let mut stages: Vec<String> = Vec::new();
    let mut emit = |line: String| {
        println!("{line}");
        stages.push(line);
    };

    // Benchmark grid: the same (database × variant × workflow × question)
    // cells serially and on `threads` workers. The record comparison
    // doubles as a determinism check on every bench run.
    let names = ["CWO", "KIS"];
    let collection: Vec<SnailsDatabase> =
        names.iter().map(|n| build_database(n)).collect();
    let config = |t: usize| BenchmarkConfig {
        seed: 2024,
        databases: names.iter().map(|s| s.to_string()).collect(),
        variants: SchemaVariant::ALL.to_vec(),
        workflows: vec![
            Workflow::ZeroShot(ModelKind::Gpt4o),
            Workflow::ZeroShot(ModelKind::Gpt35),
            Workflow::DinSql,
            Workflow::CodeS,
        ],
        threads: Some(t),
        fault_profile: profile,
        telemetry: telemetry_path.is_some(),
        ..Default::default()
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
    // Under a fault profile this comparison also proves the resilience
    // layer's determinism: same plans, failures, and retry counts at any
    // thread count.
    // Deterministic telemetry sections must also be byte-identical at any
    // thread count (volatile sections — scheduler shape — are exempt).
    let det_json =
        |run: &BenchmarkRun| run.telemetry.as_ref().map(telemetry::Report::deterministic_json);
    let serial_telemetry = det_json(&serial);
    let mut telemetry_identical = det_json(&parallel) == serial_telemetry;
    let mut records_match =
        serial.records == parallel.records && serial.faults == parallel.faults;
    emit(format!(
        "{{\"bench\":\"grid\",\"cells\":{},\"threads\":1,\"ms\":{serial_ms:.1}}}",
        serial.records.len()
    ));
    emit(format!(
        "{{\"bench\":\"grid\",\"cells\":{},\"threads\":{threads},\
         \"threads_detected\":{detected},\"ms\":{parallel_ms:.1},\
         \"speedup\":{:.2},\"records_match\":{records_match}}}",
        parallel.records.len(),
        serial_ms / parallel_ms
    ));
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
    emit(format!(
        "{{\"bench\":\"grid_determinism\",\"threads\":[1,2,8],\
         \"identical\":{records_match}}}"
    ));
    // Fault accounting for the parallel run. Every planned cell must have
    // produced a record (failures become records; nothing aborts), so
    // aborted_cells is the completeness check CI asserts on.
    let aborted = parallel.faults.cells - parallel.records.len();
    emit(format!(
        "{{\"bench\":\"fault_summary\",\"profile\":\"{}\",\"aborted_cells\":{aborted},\
         \"summary\":{}}}",
        profile.name,
        parallel.faults.to_json()
    ));
    if aborted > 0 {
        eprintln!("error: {aborted} grid cells aborted without a record");
        std::process::exit(1);
    }
    // Structured telemetry report: the parallel run's full report (metrics
    // + sim-clock span rollup) goes to the requested path; the stage line
    // carries the headline numbers into BENCH_engine.json.
    if let Some(path) = &telemetry_path {
        let report = parallel.telemetry.as_ref().expect("telemetry was enabled");
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: could not write telemetry report {path}: {e}");
            std::process::exit(1);
        }
        let hit_rate = report.plan_cache_hit_rate().unwrap_or(0.0);
        emit(format!(
            "{{\"bench\":\"telemetry\",\"path\":{path:?},\
             \"identical_across_threads\":{telemetry_identical},\
             \"plan_cache_hit_rate\":{hit_rate:.3},\"statements\":{},\
             \"resilience_attempts\":{},\"resilience_retries\":{},\"breaker_trips\":{}}}",
            report.counter("engine.exec.statements"),
            report.counter("llm.resilience.attempts"),
            report.counter("llm.resilience.retries"),
            report.counter("llm.breaker.trips"),
        ));
    }

    // Checkpoint layer on the same 1280-cell grid: a cold write-through
    // run, a resume after losing half the stored records, and a 4-way
    // shard + merge. Each path must reproduce the cold run byte-for-byte
    // (records, fault summary, and deterministic telemetry, all folded
    // into the canonical manifest rendering).
    {
        use snails::core::checkpoint::{
            manifest_from_run, merge_manifests, CheckpointSpec, Shard,
        };
        let base = |dir: &std::path::Path| BenchmarkConfig {
            threads: Some(threads),
            fault_profile: profile,
            telemetry: true,
            checkpoint: Some(CheckpointSpec::at(dir)),
            ..grid_config()
        };
        let root =
            std::env::temp_dir().join(format!("snails-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cold_dir = root.join("cold");
        let cfg = base(&cold_dir);
        let t = Instant::now();
        let cold = run_benchmark_on(&collection, &cfg);
        let cold_ms = ms(t);
        let cold_manifest = snails::core::checkpoint::manifest_from_run(&cold, &cfg).to_string();
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
        let resumed = run_benchmark_on(&collection, &cfg);
        let resume_ms = ms(t);
        let resume_stats = resumed.checkpoint.expect("checkpoint stats present");
        let mut ckpt_identical = manifest_from_run(&resumed, &cfg).to_string() == cold_manifest;
        let shard_dir = root.join("shards");
        let t = Instant::now();
        let manifests: Vec<_> = (0..4)
            .map(|index| {
                let cfg = BenchmarkConfig {
                    shard: Shard { index, count: 4 },
                    ..base(&shard_dir)
                };
                let run = run_benchmark_on(&collection, &cfg);
                manifest_from_run(&run, &cfg)
            })
            .collect();
        let shard_ms = ms(t);
        let t = Instant::now();
        let merged = merge_manifests(manifests).expect("complete disjoint shards merge");
        let merge_ms = ms(t);
        ckpt_identical &= merged.to_string() == cold_manifest;
        let _ = std::fs::remove_dir_all(&root);
        emit(format!(
            "{{\"bench\":\"checkpoint_resume\",\"cells\":{},\"cold_ms\":{cold_ms:.1},\
             \"resume50_ms\":{resume_ms:.1},\"resume_hits\":{},\"resume_speedup\":{:.2},\
             \"shard4_ms\":{shard_ms:.1},\"merge_ms\":{merge_ms:.2},\
             \"identical\":{ckpt_identical}}}",
            cold.grid_cells,
            resume_stats.hits,
            cold_ms / resume_ms,
        ));
        if !ckpt_identical {
            eprintln!("error: checkpoint resume or shard merge diverged from the cold run");
            std::process::exit(1);
        }
    }

    let db = build_database("NTSB");

    // Plan-once-execute-many: the full NTSB gold workload executed `REPS`
    // times — lex/parse/name-resolve and interpret on every execution vs
    // lowering each statement once and replaying its compiled plan from a
    // warm cache on the vectorized block loop. The warm-up pass below
    // doubles as a result-identity check between the two paths.
    let opts = ExecOptions::default();
    let plans = snails::engine::PlanCache::new();
    let mut gold_rows = 0usize;
    let mut vec_identical = true;
    for p in &db.questions {
        let interpreted = run_sql(&db.db, &p.sql);
        let planned = plans.run(&db.db, &p.sql, opts);
        vec_identical &= planned == interpreted;
        if let Ok(rs) = &planned {
            gold_rows += rs.row_count();
        }
    }
    const REPS: usize = 25;
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
    let time_plans = |o: ExecOptions| {
        let t = Instant::now();
        for _ in 0..REPS {
            for p in &db.questions {
                let _ = plans.run(&db.db, &p.sql, o);
            }
        }
        ms(t)
    };
    // Telemetry overhead on the same workload: the identical compiled-plan
    // loop with a metrics scope installed, so every per-operator observe
    // and cache-hit counter fires. The two loops alternate and each takes
    // its best of three passes, so scheduling drift cannot masquerade as
    // overhead. The contract is ≤5% overhead; the measured ratio is
    // recorded in the artifact either way.
    let obs = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    let (mut vec_ms, mut telemetry_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        vec_ms = vec_ms.min(time_plans(opts));
        let _scope = telemetry::scope(&obs);
        telemetry_ms = telemetry_ms.min(time_plans(opts));
    }
    let telemetry_overhead_pct = (telemetry_ms / vec_ms - 1.0) * 100.0;
    let vec_rows_per_s = (gold_rows * REPS) as f64 / (vec_ms / 1e3);
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
    let vec_batches = ctx.report().counter("engine.vec.batches").max(1);
    let before = ALLOC.snapshot();
    for p in &db.questions {
        let _ = plans.run(&db.db, &p.sql, opts);
    }
    let d = ALLOC.snapshot().since(before);
    let vec_allocs_per_batch =
        d.allocs.saturating_sub(gold_rows as u64) as f64 / vec_batches as f64;
    emit(format!(
        "{{\"bench\":\"vector_exec\",\"database\":\"NTSB\",\"queries\":{},\"reps\":{REPS},\
         \"interpret_ms\":{interp_ms:.1},\"vector_ms\":{vec_ms:.1},\
         \"speedup_vs_interpreter\":{:.2},\"rows_per_s\":{vec_rows_per_s:.0},\
         \"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\
         \"telemetry_ms\":{telemetry_ms:.1},\
         \"telemetry_overhead_pct\":{telemetry_overhead_pct:.1},\
         \"batches\":{vec_batches},\"hot_allocs\":{},\
         \"allocs_per_batch\":{vec_allocs_per_batch:.2},\
         \"results_identical\":{vec_identical}}}",
        db.questions.len(),
        interp_ms / vec_ms,
        d.allocs
    ));
    // Batch-size sweep over the same workload. The default is no longer a
    // fixed 1024: `batch_size: None` picks per query from the plan's row
    // width (DESIGN.md §10), and the sweep records the adaptive run next
    // to the fixed sizes — plus the picks at representative widths — so a
    // mistuned default can't silently return.
    let sweep: Vec<String> = [256usize, 1024, 4096]
        .iter()
        .map(|&b| {
            let o = ExecOptions { batch_size: Some(b), ..Default::default() };
            format!("\"ms_{b}\":{:.1}", time_plans(o))
        })
        .collect();
    let adaptive_ms = time_plans(opts);
    emit(format!(
        "{{\"bench\":\"vector_batch_sweep\",{},\"ms_adaptive\":{adaptive_ms:.1},\
         \"adaptive_pick_width2\":{},\"adaptive_pick_width8\":{},\
         \"adaptive_pick_width32\":{}}}",
        sweep.join(","),
        snails::engine::adaptive_batch_size(2),
        snails::engine::adaptive_batch_size(8),
        snails::engine::adaptive_batch_size(32)
    ));

    // Guarded subqueries: every gold statement of the nine databases that
    // nests a SELECT, on a warm plan cache under the guarded budgets every
    // predicted and served statement carries and with every budget off,
    // alternating pass by pass. Uncorrelated blocks replay from the
    // per-execution memo with their recorded budget charges under both, so
    // the budgets should cost close to nothing (check.sh gates guarded at
    // most 2x unbudgeted). Both sides run in this process, so host drift
    // cancels out of the ratio.
    let all_dbs: Vec<SnailsDatabase> = snails::data::DATABASE_NAMES
        .iter()
        .map(|n| build_database(n))
        .collect();
    let nested: Vec<(&SnailsDatabase, &GoldPair)> = all_dbs
        .iter()
        .flat_map(|d| d.questions.iter().map(move |p| (d, p)))
        .filter(|(_, p)| p.sql.to_ascii_uppercase().matches("SELECT").count() > 1)
        .collect();
    let sub_plans = snails::engine::PlanCache::new();
    let guarded = ExecOptions {
        limits: ExecLimits::guarded(),
        ..Default::default()
    };
    let unlimited = ExecOptions::default();
    // Warm-up: compiles every plan, checks both sides against the
    // interpreter, and counts the replays the guarded side absorbed.
    let mut sub_identical = true;
    let sub_obs = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    for (d, p) in &nested {
        let oracle = run_sql(&d.db, &p.sql);
        sub_identical &= sub_plans.run(&d.db, &p.sql, unlimited) == oracle;
        let _scope = telemetry::scope(&sub_obs);
        sub_identical &= sub_plans.run(&d.db, &p.sql, guarded) == oracle;
    }
    let sub_replays = sub_obs.report().counter("engine.exec.subquery_replays");
    let sub_pass = |o: ExecOptions| {
        let t = Instant::now();
        for (d, p) in &nested {
            let _ = sub_plans.run(&d.db, &p.sql, o);
        }
        ms(t)
    };
    const SUB_REPS: usize = 5;
    let (mut guarded_ms, mut unlimited_ms) = (Vec::new(), Vec::new());
    for _ in 0..SUB_REPS {
        guarded_ms.push(sub_pass(guarded));
        unlimited_ms.push(sub_pass(unlimited));
    }
    let spread = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        (v[v.len() / 2], v[0], v[v.len() - 1])
    };
    let (g_med, g_min, g_max) = spread(&mut guarded_ms);
    let (u_med, u_min, u_max) = spread(&mut unlimited_ms);
    emit(format!(
        "{{\"bench\":\"guarded_subqueries\",\"statements\":{},\"reps\":{SUB_REPS},\
         \"guarded_ms_median\":{g_med:.2},\"guarded_ms_min\":{g_min:.2},\
         \"guarded_ms_max\":{g_max:.2},\"unlimited_ms_median\":{u_med:.2},\
         \"unlimited_ms_min\":{u_min:.2},\"unlimited_ms_max\":{u_max:.2},\
         \"ratio\":{:.2},\"results_identical\":{sub_identical},\"replays\":{sub_replays}}}",
        nested.len(),
        g_med / u_med
    ));

    // Synthetic equi join scaled past a million rows: 1.2M-row probe side
    // against a 100K-row build side, grouped back down to 100K keys. The
    // quadratic nested loop is infeasible here (1.2×10^11 comparisons), so
    // the stage times the compiled plan's hash join, with a result-identity
    // check against the interpreter.
    const PROBE_ROWS: i64 = 1_200_000;
    const BUILD_ROWS: i64 = 100_000;
    let mut sdb = Database::new("bench");
    sdb.create_table(TableSchema::new("a").column("k", DataType::Int).column("v", DataType::Int));
    sdb.create_table(TableSchema::new("b").column("k", DataType::Int).column("w", DataType::Int));
    for i in 0..PROBE_ROWS {
        sdb.insert("a", vec![Value::Int(i % BUILD_ROWS), Value::Int(i)]).expect("insert");
    }
    for i in 0..BUILD_ROWS {
        sdb.insert("b", vec![Value::Int(i), Value::Int(i * 2)]).expect("insert");
    }
    let sql = "SELECT a.k, COUNT(*), MAX(b.w) FROM a JOIN b ON a.k = b.k \
               WHERE a.v >= 200000 GROUP BY a.k";
    let join_opts = ExecOptions::default();
    let join_plans = snails::engine::PlanCache::new();
    // Warm-up doubles as the identity check against the interpreter.
    let interp_rs = run_sql_with(&sdb, sql, join_opts);
    let join_identical = join_plans.run(&sdb, sql, join_opts) == interp_rs;
    let mut vec_join_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        join_plans.run(&sdb, sql, join_opts).expect("synthetic join runs");
        vec_join_ms = vec_join_ms.min(ms(t));
    }
    let join_rows_per_s = PROBE_ROWS as f64 / (vec_join_ms / 1e3);
    // Steady-state allocation accounting, as in `vector_exec` above. One
    // statement spread over thousands of batches: per-statement setup
    // amortizes away and what remains is the per-batch hot loop, which
    // the buffer pool must keep allocation-free (check.sh gates ≤ 2).
    let ctx = Arc::new(telemetry::ObsCtx::new(telemetry::ClockMode::Sim));
    {
        let _scope = telemetry::scope(&ctx);
        join_plans.run(&sdb, sql, join_opts).expect("synthetic join runs");
    }
    let join_batches = ctx.report().counter("engine.vec.batches").max(1);
    let join_out_rows = interp_rs.as_ref().map_or(0, snails::engine::ResultSet::row_count) as u64;
    let before = ALLOC.snapshot();
    join_plans.run(&sdb, sql, join_opts).expect("synthetic join runs");
    let d = ALLOC.snapshot().since(before);
    let join_allocs_per_batch =
        d.allocs.saturating_sub(join_out_rows) as f64 / join_batches as f64;
    emit(format!(
        "{{\"bench\":\"synthetic_join\",\"rows\":{PROBE_ROWS},\
         \"vector_ms\":{vec_join_ms:.1},\
         \"rows_per_s\":{join_rows_per_s:.0},\"batches\":{join_batches},\
         \"hot_allocs\":{},\"allocs_per_batch\":{join_allocs_per_batch:.2},\
         \"results_identical\":{join_identical}}}",
        d.allocs
    ));

    // Plan-cache capacity: the same grid once at a bounded capacity and
    // once at twice that capacity. If doubling the cache barely moves the
    // hit rate, the misses are compulsory (first sight of each distinct
    // statement) rather than capacity evictions — the artifact records
    // the verdict so the unbounded default is a documented choice, not an
    // assumption.
    let cache_cap = 64usize;
    let cap_run = |cap: usize| {
        let run = run_benchmark_on(
            &collection,
            &BenchmarkConfig {
                cache_capacity: Some(cap),
                telemetry: true,
                ..config(threads)
            },
        );
        let report = run.telemetry.as_ref().expect("telemetry enabled");
        (
            report.plan_cache_hit_rate().unwrap_or(0.0),
            report.counter("engine.plan.cache_eviction"),
            run,
        )
    };
    let (hit_rate, evictions, cap_records) = cap_run(cache_cap);
    let (hit_rate_2x, evictions_2x, cap2_records) = cap_run(cache_cap * 2);
    let bounded_match =
        cap_records.records == serial.records && cap2_records.records == serial.records;
    let verdict =
        if hit_rate_2x - hit_rate < 0.02 { "compulsory" } else { "capacity" };
    emit(format!(
        "{{\"bench\":\"plan_cache_capacity\",\"capacity\":{cache_cap},\
         \"hit_rate\":{hit_rate:.3},\"evictions\":{evictions},\
         \"hit_rate_2x\":{hit_rate_2x:.3},\"evictions_2x\":{evictions_2x},\
         \"records_match\":{bounded_match},\"misses_are\":\"{verdict}\"}}",
    ));
    records_match &= bounded_match;

    // Grid-workload verdict: the unbounded grid runs at a ~0.50 hit rate.
    // Reuse the capacity machinery — an unbounded run's miss count is the
    // number of distinct statement keys D; a cache bounded at exactly D
    // can then only miss on first sight. If its hit rate matches the
    // unbounded run, every grid miss is compulsory (genuinely distinct
    // SQL across naturalness variants), not a capacity or keying
    // artifact.
    let (unb_rate, _, unb_run) = cap_run(usize::MAX);
    let unb_report = unb_run.telemetry.as_ref().expect("telemetry enabled");
    let distinct = unb_report.counter("engine.plan.cache_miss").max(1);
    let (rate_d, ev_d, _) = cap_run(distinct as usize);
    let grid_verdict = if (unb_rate - rate_d).abs() < 0.02 && ev_d == 0 {
        "compulsory"
    } else {
        "capacity"
    };
    emit(format!(
        "{{\"bench\":\"grid_cache_verdict\",\"distinct_statements\":{distinct},\
         \"hit_rate_unbounded\":{unb_rate:.3},\"hit_rate_at_distinct\":{rate_d:.3},\
         \"evictions_at_distinct\":{ev_d},\"compulsory_vs_capacity\":\"{grid_verdict}\"}}",
    ));

    // Machine-readable artifact: every stage line above, wrapped in one
    // JSON document (hand-assembled — each stage is already valid JSON).
    let artifact = format!(
        "{{\n  \"bench\": \"engine\",\n  \"threads\": {threads},\n  \"stages\": [\n    {}\n  ]\n}}\n",
        stages.join(",\n    ")
    );
    if let Err(e) = std::fs::write("BENCH_engine.json", &artifact) {
        eprintln!("error: could not write BENCH_engine.json: {e}");
        std::process::exit(1);
    }

    if !records_match {
        eprintln!("error: records diverged across thread counts");
        std::process::exit(1);
    }
    if !telemetry_identical {
        eprintln!("error: deterministic telemetry diverged across thread counts");
        std::process::exit(1);
    }
    if !vec_identical || !join_identical || !sub_identical {
        eprintln!("error: compiled-plan results diverged from the interpreter");
        std::process::exit(1);
    }
}

fn list() {
    println!("Database  Tables  Columns  Questions  Combined");
    for name in snails::data::DATABASE_NAMES {
        let db = build_database(name);
        println!(
            "{:<9} {:>6}  {:>7}  {:>9}  {:>8.2}",
            db.spec.name,
            db.db.table_count(),
            db.db.column_count(),
            db.questions.len(),
            db.combined_naturalness()
        );
    }
}

// ---------------------------------------------------------------------------
// Serving layer (DESIGN.md §11)
// ---------------------------------------------------------------------------

/// Shared flag state for `snails serve` / `snails load`.
struct ServeArgs {
    socket: Option<String>,
    tenants: Vec<String>,
    dbs: Vec<String>,
    queue_depth: usize,
    batch: usize,
    threads: usize,
    serial: bool,
    seed: u64,
    fault_profile: FaultProfile,
    telemetry: Option<String>,
    /// `--clients`; see [`ServeArgs::clients`] for the per-mode default.
    clients: Option<usize>,
    requests: usize,
    out: Option<String>,
    shutdown: bool,
}

impl ServeArgs {
    fn parse(cmd: &str, args: &[String]) -> ServeArgs {
        let mut a = ServeArgs {
            socket: None,
            tenants: vec!["alpha".into(), "beta".into()],
            dbs: vec!["CWO".into()],
            queue_depth: 4096,
            batch: 64,
            threads: 0,
            serial: false,
            seed: 2024,
            fault_profile: FaultProfile::NONE,
            telemetry: None,
            clients: None,
            requests: 8,
            out: None,
            shutdown: false,
        };
        let missing = |flag: &str| -> ! {
            eprintln!("{cmd}: {flag} needs a value");
            std::process::exit(2);
        };
        let list = |v: Option<&String>, flag: &str| -> Vec<String> {
            let Some(v) = v else { missing(flag) };
            v.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect()
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--socket" => match it.next() {
                    Some(p) => a.socket = Some(p.clone()),
                    None => missing("--socket"),
                },
                "--tenants" => a.tenants = list(it.next(), "--tenants"),
                "--dbs" => a.dbs = list(it.next(), "--dbs"),
                "--queue-depth" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) => a.queue_depth = n,
                    None => missing("--queue-depth"),
                },
                "--batch" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) => a.batch = n,
                    None => missing("--batch"),
                },
                "--threads" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) => a.threads = n,
                    None => missing("--threads"),
                },
                "--serial" => a.serial = true,
                "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) => a.seed = n,
                    None => missing("--seed"),
                },
                "--fault-profile" => match it.next().and_then(|n| FaultProfile::by_name(n)) {
                    Some(p) => a.fault_profile = p,
                    None => {
                        eprintln!("{cmd}: --fault-profile takes none|flaky|hostile");
                        std::process::exit(2);
                    }
                },
                "--telemetry" => match it.next() {
                    Some(p) => a.telemetry = Some(p.clone()),
                    None => missing("--telemetry"),
                },
                "--clients" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) if n > 0 => a.clients = Some(n),
                    _ => missing("--clients"),
                },
                "--requests" => match it.next().and_then(|n| n.parse().ok()) {
                    Some(n) if n > 0 => a.requests = n,
                    _ => missing("--requests"),
                },
                "--out" => match it.next() {
                    Some(p) => a.out = Some(p.clone()),
                    None => missing("--out"),
                },
                "--shutdown" => a.shutdown = true,
                other => {
                    eprintln!("{cmd}: unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        if a.tenants.is_empty() || a.dbs.is_empty() {
            eprintln!("{cmd}: at least one tenant and one database required");
            std::process::exit(2);
        }
        for name in &a.dbs {
            check_database(cmd, name);
        }
        a
    }

    /// Clients to drive: `--clients` when given, else 8 lockstep clients
    /// over a socket or 1024 for the in-process suite.
    fn clients(&self) -> usize {
        self.clients.unwrap_or(if self.socket.is_some() { 8 } else { 1024 })
    }

    fn config(&self) -> snails::serve::ServeConfig {
        snails::serve::ServeConfig {
            seed: self.seed,
            queue_depth: self.queue_depth,
            batch_max: self.batch,
            threads: self.threads,
            serial: self.serial,
            fault_profile: self.fault_profile,
            telemetry: true,
            ..Default::default()
        }
    }

    fn build_dbs(&self) -> Vec<Arc<SnailsDatabase>> {
        self.dbs.iter().map(|n| Arc::new(build_database(n))).collect()
    }

    fn specs(&self, dbs: &[Arc<SnailsDatabase>]) -> Vec<snails::serve::TenantSpec> {
        self.tenants
            .iter()
            .map(|t| snails::serve::TenantSpec::full(t, dbs.to_vec()))
            .collect()
    }

    fn plan(&self, dbs: &[Arc<SnailsDatabase>]) -> snails::serve::LoadPlan {
        snails::serve::LoadPlan {
            clients: self.clients(),
            requests_per_client: self.requests,
            seed: self.seed,
            tenants: self
                .tenants
                .iter()
                .map(|t| snails::serve::TenantWorkload::from_full(t, dbs))
                .collect(),
        }
    }
}

/// `snails serve`: bind a unix socket and serve until a shutdown frame.
///
/// In `--serial` mode the main thread is the reactor: it drives
/// [`snails::serve::Server::poll_batch`] in a loop, so the whole server is
/// a deterministic state machine and the socket is just its inbox.
fn serve(args: &[String]) {
    use snails::serve::{Server, UnixServer};

    let a = ServeArgs::parse("serve", args);
    let Some(socket) = a.socket.clone() else {
        eprintln!("serve: --socket <path> is required");
        std::process::exit(2);
    };
    let dbs = a.build_dbs();
    let server = Server::start(a.config(), a.specs(&dbs));
    let mut unix = match UnixServer::bind(std::path::Path::new(&socket), Arc::clone(&server)) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("serve: could not bind {socket}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"serve\":\"ready\",\"socket\":{socket:?},\"tenants\":{},\"databases\":{},\
         \"queue_depth\":{},\"serial\":{}}}",
        a.tenants.len(),
        a.dbs.len(),
        a.queue_depth,
        a.serial
    );
    if a.serial {
        while !unix.stopped() {
            if server.poll_batch() == 0 {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        }
        unix.wait();
    } else {
        unix.wait();
    }
    let responses = server.shutdown();
    if let Some(path) = &a.telemetry {
        if let Some(report) = server.telemetry_report() {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("serve: could not write telemetry report {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{{\"serve\":\"goodbye\",\"responses\":{responses}}}");
}

/// `snails load`: with `--socket`, drive a running server over its unix
/// socket in lockstep (plus an optional `--shutdown` frame); otherwise run
/// the full in-process load suite and write `BENCH_serve.json`.
fn load(args: &[String]) {
    let a = ServeArgs::parse("load", args);
    match &a.socket {
        Some(socket) => load_socket(&a, socket),
        None => load_suite(&a),
    }
}

/// Lockstep drive of an external server over its unix socket.
fn load_socket(a: &ServeArgs, socket: &str) {
    use snails::serve::{Request, Response, UnixClient};

    let path = std::path::Path::new(socket);
    let dbs = a.build_dbs();
    let plan = a.plan(&dbs);
    let out = match snails::serve::run_unix_lockstep(path, &plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("load: socket drive failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"load\":\"unix\",\"clients\":{},\"total\":{},\"ok\":{},\"errors\":{},\
         \"shed\":{},\"dropped\":{},\"transcript_hash\":\"{:016x}\"}}",
        plan.clients,
        out.total,
        out.ok,
        out.errors,
        out.shed,
        out.dropped(),
        out.transcript_hash
    );
    if out.dropped() > 0 {
        eprintln!("load: {} requests never received a response", out.dropped());
        std::process::exit(1);
    }
    if a.shutdown {
        let goodbye = UnixClient::connect(path).and_then(|mut c| c.call(&Request::Shutdown));
        match goodbye {
            Ok(Response::Goodbye { responses }) => {
                println!("{{\"load\":\"shutdown\",\"responses\":{responses}}}");
            }
            Ok(other) => {
                eprintln!("load: unexpected shutdown reply: {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("load: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The in-process load suite: four staged drives against fresh servers,
/// with the same stage-line-JSON artifact convention as `snails bench`.
fn load_suite(a: &ServeArgs) {
    use snails::serve::{run_concurrent, run_serial, Request, Server};

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut stages: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut emit = |line: String| {
        println!("{line}");
        stages.push(line);
    };
    let dbs = a.build_dbs();

    // Stage 1 — sustained concurrent load: `clients` closed-loop clients
    // (default 1024) each keeping one request in flight. The gate is
    // completeness: every request resolves (answered or typed-shed).
    {
        let server = Server::start(a.config(), a.specs(&dbs));
        let plan = a.plan(&dbs);
        let report = run_concurrent(&server, &plan, 8);
        server.shutdown();
        emit(format!(
            "{{\"serve\":\"load\",\"clients\":{},\"requests\":{},\"ok\":{},\"errors\":{},\
             \"shed\":{},\"dropped\":{},\"wall_ms\":{:.1},\"throughput_rps\":{:.0},\
             \"p50_us\":{:.1},\"p90_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}",
            plan.clients,
            report.total,
            report.ok,
            report.errors,
            report.shed,
            report.dropped,
            ms(report.wall),
            report.throughput_rps,
            report.latency_ns.p50 as f64 / 1e3,
            report.latency_ns.p90 as f64 / 1e3,
            report.latency_ns.p99 as f64 / 1e3,
            report.latency_ns.max as f64 / 1e3,
        ));
        if report.dropped > 0 {
            failures.push(format!("load: {} requests never resolved", report.dropped));
        }
    }

    // Stage 2 — deterministic replay: the same serial plan twice at each
    // of 1/2/8 fan-out threads. Queue depth below the burst size forces
    // shed placement into the transcript, so determinism covers the
    // admission path too. Gate: one transcript hash, one deterministic
    // telemetry rendering, across all six runs.
    {
        let replay = snails::serve::LoadPlan {
            clients: 256,
            requests_per_client: 4,
            ..a.plan(&dbs)
        };
        let mut hashes = std::collections::BTreeSet::new();
        let mut det = std::collections::BTreeSet::new();
        let mut shed = 0u64;
        let mut ticks = 0u64;
        let mut lat = snails_bench::Percentiles::default();
        for threads in [1usize, 2, 8] {
            for _run in 0..2 {
                let cfg = snails::serve::ServeConfig {
                    serial: true,
                    threads,
                    queue_depth: 192,
                    batch_max: 32,
                    ..a.config()
                };
                let server = Server::start(cfg, a.specs(&dbs));
                let mut out = run_serial(&server, &replay, false);
                if out.dropped() > 0 {
                    failures.push(format!(
                        "serial_replay: {} requests never resolved",
                        out.dropped()
                    ));
                }
                det.insert(
                    server.telemetry_report().expect("telemetry enabled").deterministic_json(),
                );
                server.shutdown();
                hashes.insert(out.transcript_hash);
                shed = out.shed;
                ticks = out.ticks;
                lat = snails_bench::Percentiles::of(&mut out.latencies_ticks);
            }
        }
        let identical = hashes.len() == 1 && det.len() == 1;
        emit(format!(
            "{{\"serve\":\"serial_replay\",\"clients\":256,\"threads\":[1,2,8],\"runs\":6,\
             \"shed\":{shed},\"ticks\":{ticks},\"latency_ticks_p50\":{},\
             \"latency_ticks_p99\":{},\"transcripts\":{},\"telemetries\":{},\
             \"identical\":{identical}}}",
            lat.p50,
            lat.p99,
            hashes.len(),
            det.len(),
        ));
        if !identical {
            failures.push("serial_replay: transcripts or telemetry diverged".into());
        }
        if shed == 0 {
            failures.push("serial_replay: burst never exercised the shed path".into());
        }
    }

    // Stage 3 — fault soak: the flaky profile injects transient and
    // corrupting faults into execution. The gate is the serving contract
    // under faults: zero dropped requests and exact per-tenant
    // reconciliation (requests == ok + errors).
    {
        let cfg = snails::serve::ServeConfig {
            fault_profile: FaultProfile::FLAKY,
            ..a.config()
        };
        let server = Server::start(cfg, a.specs(&dbs));
        let plan = snails::serve::LoadPlan {
            clients: 512,
            requests_per_client: 8,
            ..a.plan(&dbs)
        };
        let report = run_concurrent(&server, &plan, 8);
        let stats = server.tenant_stats();
        let reconciled = stats.iter().all(|s| s.requests == s.ok + s.errors);
        let faults = server
            .telemetry_report()
            .expect("telemetry enabled")
            .counter("serve.faults.injected");
        server.shutdown();
        emit(format!(
            "{{\"serve\":\"fault_soak\",\"profile\":\"flaky\",\"requests\":{},\"ok\":{},\
             \"errors\":{},\"shed\":{},\"dropped\":{},\"faults_injected\":{faults},\
             \"tenants_reconciled\":{reconciled}}}",
            report.total, report.ok, report.errors, report.shed, report.dropped,
        ));
        if report.dropped > 0 {
            failures.push(format!("fault_soak: {} requests never resolved", report.dropped));
        }
        if !reconciled {
            failures.push("fault_soak: tenant counters do not reconcile".into());
        }
    }

    // Stage 4 — overload and drain. Serial burst: 64 single-shot clients
    // against a depth-32 queue shed exactly 64 - 32 requests and the
    // queue never exceeds its depth. Then a concurrent drain: submissions
    // in flight when `drain` lands all resolve (Draining for refused),
    // none hang.
    {
        let depth = 32usize;
        let cfg = snails::serve::ServeConfig {
            serial: true,
            threads: 1,
            queue_depth: depth,
            batch_max: 16,
            ..a.config()
        };
        let server = Server::start(cfg, a.specs(&dbs));
        let burst = snails::serve::LoadPlan {
            clients: 64,
            requests_per_client: 1,
            ..a.plan(&dbs)
        };
        let out = run_serial(&server, &burst, false);
        let report = server.telemetry_report().expect("telemetry enabled");
        let shed_counter = report.counter("serve.shed");
        let high_water = server.high_water();
        let responses = server.shutdown();
        let shed_exact = out.shed == (64 - depth) as u64 && shed_counter == out.shed;
        let bounded = high_water <= depth;
        let complete = out.dropped() == 0 && responses == out.total - out.shed;

        let drain_server = Server::start(a.config(), a.specs(&dbs));
        let client = snails::serve::InProcClient::new(Arc::clone(&drain_server));
        let tickets: Vec<_> = (0..100u32)
            .map(|i| client.call_async(Request::Ping { tag: u64::from(i) }))
            .collect();
        drain_server.drain();
        let refused = client.call_async(Request::Ping { tag: 999 });
        let drained = tickets.iter().all(|t| t.try_take().is_some())
            && matches!(
                refused.try_take(),
                Some(snails::serve::Response::Err {
                    error: snails::serve::ServeError::Draining,
                    ..
                })
            );
        drain_server.shutdown();

        emit(format!(
            "{{\"serve\":\"overload\",\"burst\":64,\"queue_depth\":{depth},\"shed\":{},\
             \"shed_exact\":{shed_exact},\"high_water\":{high_water},\
             \"bounded\":{bounded},\"complete\":{complete},\"drain_complete\":{drained}}}",
            out.shed,
        ));
        if !(shed_exact && bounded && complete && drained) {
            failures.push("overload: admission or drain invariant violated".into());
        }
    }

    let artifact = format!(
        "{{\n  \"bench\": \"serve\",\n  \"seed\": {},\n  \"stages\": [\n    {}\n  ]\n}}\n",
        a.seed,
        stages.join(",\n    ")
    );
    let out_path = a.out.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    if let Err(e) = std::fs::write(&out_path, &artifact) {
        eprintln!("load: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, args: &[&str]) -> ServeArgs {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        ServeArgs::parse(cmd, &args)
    }

    #[test]
    fn client_count_defaults_per_mode_and_an_explicit_count_wins() {
        let plan = parse("load", &["--socket", "s", "--clients", "1024"]).plan(&[]);
        assert_eq!(plan.clients, 1024);
        assert_eq!(parse("load", &["--socket", "s"]).plan(&[]).clients, 8);
        assert_eq!(parse("load", &[]).plan(&[]).clients, 1024);
        assert_eq!(parse("load", &["--clients", "8"]).plan(&[]).clients, 8);
    }
}
