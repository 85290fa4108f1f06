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
//! snails bench [threads] [--telemetry <path>]
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

use snails::core::pipeline::{gold_context, CellInput, EvalContext};
use snails::engine::{compile, EngineError, ExecOptions, PlanCache};
use snails::llm::CellPlan;
use snails::naturalness::{Classifier, Naturalness, NaturalnessProfile};
use snails::prelude::*;
use snails_bench::{grid_config, BenchOptions};
use std::sync::Arc;

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
         snails bench [threads] [--telemetry <path>]\n  \
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
    // One cell of the grid's evaluator, under the budgets the grid gives
    // model output. Nothing printed needs the naturalness measures, so
    // none are computed.
    let ctx = EvalContext::new(&db, SchemaView::new(&db, SchemaVariant::Native));
    let gold = gold_context(&db, pair);
    let cell = CellInput {
        db: &db,
        workflow: Workflow::ZeroShot(model),
        pair,
        gold: &gold,
        seed: 2024,
        plan: CellPlan::clean(0),
    };
    let opts = ExecOptions { limits: ExecLimits::guarded(), ..Default::default() };
    let (outcome, _) = ctx.evaluate(cell, &PlanCache::new(), opts);
    println!("Q:    {}", pair.question);
    println!("gold: {}", pair.sql);
    println!("pred: {}", outcome.raw_sql.as_deref().unwrap_or_default());
    println!(
        "exec: {} | linking recall {}",
        if outcome.exec_correct { "correct" } else { "incorrect" },
        outcome
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

/// `snails bench`: run the engine suite ([`snails_bench::suite`]), print
/// its stage lines as they land, and wrap them into `BENCH_engine.json`.
fn bench(args: &[String]) {
    let mut opts = BenchOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--telemetry" {
            let Some(p) = it.next() else {
                eprintln!("bench: --telemetry takes an output path");
                std::process::exit(2);
            };
            opts.telemetry = Some(p.into());
        } else {
            match arg.parse() {
                Ok(n) if n > 0 => opts.threads = n,
                _ => {
                    eprintln!("bench: thread count must be a positive integer, got {arg:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    let outcome = snails_bench::suite::run(&opts, &ALLOC, &mut |line| println!("{line}"));
    let header = format!("\"bench\": \"engine\",\n  \"threads\": {}", opts.threads);
    finish("bench", "BENCH_engine.json", &header, &outcome.stages, &outcome.failures);
}

/// Write a suite's stage lines into one JSON artifact at `path` (each stage
/// is already a JSON object; `header` holds the leading fields), then exit
/// 1 if the artifact could not be written or the suite reported failures.
fn finish(cmd: &str, path: &str, header: &str, stages: &[String], failures: &[String]) {
    let artifact = format!(
        "{{\n  {header},\n  \"stages\": [\n    {}\n  ]\n}}\n",
        stages.join(",\n    ")
    );
    if let Err(e) = std::fs::write(path, artifact) {
        eprintln!("{cmd}: could not write {path}: {e}");
        std::process::exit(1);
    }
    exit_on_failures(failures);
}

/// Print every failure and exit 1 if there is any.
fn exit_on_failures(failures: &[String]) {
    for f in failures {
        eprintln!("error: {f}");
    }
    if !failures.is_empty() {
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
/// In `--serial` mode the main thread is the reactor: it blocks in
/// [`snails::serve::Server::run_until_drained`], running each batch as it
/// is queued until the shutdown frame's drain empties the queue, so the
/// whole server is a deterministic state machine and the socket is just
/// its inbox.
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
        server.run_until_drained();
    }
    unix.wait();
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
/// the in-process load suite ([`snails::serve::run_suite`]) and write
/// `BENCH_serve.json`.
fn load(args: &[String]) {
    let a = ServeArgs::parse("load", args);
    let dbs = a.build_dbs();
    let plan = a.plan(&dbs);
    let mut print = |line: &str| println!("{line}");
    match &a.socket {
        Some(socket) => {
            let path = std::path::Path::new(socket);
            let outcome = snails::serve::drive_unix(path, &plan, a.shutdown, &mut print);
            exit_on_failures(&outcome.failures);
        }
        None => {
            let outcome = snails::serve::run_suite(&a.config(), &a.specs(&dbs), &plan, &mut print);
            let path = a.out.as_deref().unwrap_or("BENCH_serve.json");
            let header = format!("\"bench\": \"serve\",\n  \"seed\": {}", a.seed);
            finish("load", path, &header, &outcome.stages, &outcome.failures);
        }
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
