//! Serving-layer integration tests (ISSUE 10 tentpole + satellites 2–4):
//! tenant isolation, deterministic load replay across thread counts and
//! transports, fault-soak completeness, and overload/backpressure.

use snails_engine::{Database, DataType, ExecLimits, TableSchema, Value};
use snails_serve::load::{run_serial, run_unix_lockstep, DbWorkload, LoadPlan, TenantWorkload};
use snails_serve::protocol::{
    encode_request, encode_response, FrameReader, Message, MAX_FRAME, MAX_RESPONSE_ROWS,
};
use snails_serve::server::{ServeConfig, Server};
use snails_serve::transport::{InProcClient, UnixClient, UnixServer};
use snails_serve::{
    Request, Response, ServeError, Tenant, TenantSource, TenantSpec, TENANT_PLAN_CAPACITY,
};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A raw engine database named `sales` whose `accounts` rows are
/// tenant-specific: same schema, same statements, different answers.
fn sales_db(rows: &[(i64, &str)]) -> Arc<Database> {
    let mut db = Database::new("sales");
    db.create_table(
        TableSchema::new("accounts")
            .column("id", DataType::Int)
            .column("name", DataType::Varchar),
    );
    for (id, name) in rows {
        db.insert("accounts", vec![Value::Int(*id), Value::Str((*name).into())])
            .expect("insert");
    }
    Arc::new(db)
}

fn raw_spec(tenant: &str, rows: &[(i64, &str)]) -> TenantSpec {
    TenantSpec {
        name: tenant.to_owned(),
        databases: vec![TenantSource::Raw { name: "sales".into(), db: sales_db(rows) }],
        limits: ExecLimits::guarded(),
    }
}

/// Workload over the raw `sales` tenants: SQL + pings only (questions: 0),
/// so tests that don't need the NL-to-SQL pipeline stay fast.
fn raw_plan(tenants: &[&str], clients: usize, requests: usize, seed: u64) -> LoadPlan {
    LoadPlan {
        clients,
        requests_per_client: requests,
        seed,
        tenants: tenants
            .iter()
            .map(|t| TenantWorkload {
                name: (*t).to_string(),
                databases: vec![DbWorkload {
                    name: "sales".into(),
                    sqls: vec![
                        "SELECT name FROM accounts ORDER BY name".into(),
                        "SELECT COUNT(*) FROM accounts".into(),
                        "SELECT id, name FROM accounts WHERE id >= 2 ORDER BY id".into(),
                    ],
                    questions: 0,
                }],
            })
            .collect(),
    }
}

fn raw_specs() -> Vec<TenantSpec> {
    vec![
        raw_spec("acme", &[(1, "acme-alpha"), (2, "acme-beta"), (3, "acme-gamma")]),
        raw_spec("globex", &[(1, "globex-x"), (2, "globex-y")]),
    ]
}

/// The full-pipeline fixture, built once per test process (CWO is the
/// paper's most natural schema; its 40 gold questions back the `Ask` mix).
fn cwo() -> Arc<snails_data::SnailsDatabase> {
    static DB: OnceLock<Arc<snails_data::SnailsDatabase>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(snails_data::build_database("CWO"))))
}

fn full_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::full("alpha", vec![cwo()]),
        TenantSpec::full("beta", vec![cwo()]),
    ]
}

fn full_plan(clients: usize, requests: usize, seed: u64) -> LoadPlan {
    LoadPlan {
        clients,
        requests_per_client: requests,
        seed,
        tenants: vec![
            TenantWorkload::from_full("alpha", &[cwo()]),
            TenantWorkload::from_full("beta", &[cwo()]),
        ],
    }
}

fn serial_cfg(threads: usize, queue_depth: usize, batch_max: usize) -> ServeConfig {
    ServeConfig {
        serial: true,
        threads,
        queue_depth,
        batch_max,
        telemetry: true,
        ..ServeConfig::default()
    }
}

/// Longest a blocking step may take before the test calls its wake lost.
const WAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Run `step` on a helper thread and return its result, failing the test
/// if it has not finished within [`WAKE_DEADLINE`]: a lost wake fails the
/// test instead of hanging the suite.
fn within<T: Send + 'static>(what: &str, step: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(step());
    });
    match rx.recv_timeout(WAKE_DEADLINE) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still blocked after {WAKE_DEADLINE:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the step panicked"),
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("snails-serve-{tag}-{}.sock", std::process::id()))
}

// ---------------------------------------------------------------------------
// Satellite 2 — tenant isolation
// ---------------------------------------------------------------------------

#[test]
fn tenants_with_identical_sql_get_their_own_answers_and_caches() {
    let server = Server::start(ServeConfig { threads: 2, ..ServeConfig::default() }, raw_specs());
    let client = InProcClient::new(Arc::clone(&server));
    let sql_req = |tag: u64, tenant: &str, sql: &str| Request::Sql {
        tag,
        tenant: tenant.into(),
        database: "sales".into(),
        sql: sql.into(),
    };
    let names_of = |resp: &Response| -> Vec<String> {
        let Response::Rows { rows, .. } = resp else { panic!("expected rows, got {resp:?}") };
        rows.iter()
            .map(|r| match &r[0] {
                snails_serve::WireValue::Str(s) => s.clone(),
                v => panic!("expected a string cell, got {v:?}"),
            })
            .collect()
    };

    // The same normalized statement, repeatedly, against both tenants.
    // Interleaved on purpose: a shared cache would have to confuse them.
    let stmt = "SELECT name FROM accounts ORDER BY name";
    let count_stmt = "SELECT COUNT(*) FROM accounts";
    let mut log: Vec<(&str, Response)> = Vec::new();
    for round in 0..3u64 {
        for tenant in ["acme", "globex"] {
            log.push((tenant, client.call(sql_req(round, tenant, stmt))));
        }
    }
    log.push(("acme", client.call(sql_req(10, "acme", count_stmt))));
    log.push(("globex", client.call(sql_req(11, "globex", count_stmt))));

    // Same SQL, different answers — each tenant sees only its own rows.
    for (tenant, resp) in &log[..6] {
        let expected: Vec<String> = match *tenant {
            "acme" => vec!["acme-alpha".into(), "acme-beta".into(), "acme-gamma".into()],
            _ => vec!["globex-x".into(), "globex-y".into()],
        };
        assert_eq!(names_of(resp), expected, "tenant {tenant} got another tenant's rows");
    }

    // Per-tenant cache counters reconcile exactly with the request log:
    // each tenant ran 2 distinct statements over 4 lookups — 2 compulsory
    // misses, 2 hits — even though the *other* tenant ran the identical
    // normalized SQL in between. A shared (cross-serving) cache would
    // show hits on first sight or misses after warming.
    for tenant in ["acme", "globex"] {
        let sent = log.iter().filter(|(t, _)| *t == tenant).count() as u64;
        let stats = server.tenant(tenant).expect("tenant exists").stats();
        assert_eq!(stats.requests, sent);
        assert_eq!(stats.ok, sent, "all statements succeed");
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.cache_misses, 2, "one compulsory miss per distinct statement");
        assert_eq!(stats.cache_hits, sent - 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, sent);
    }

    // The wire-level stats report carries the same numbers.
    let Response::StatsReport { tenants } = client.call(Request::Stats) else {
        panic!("expected stats report")
    };
    assert_eq!(tenants.len(), 2);
    assert!(tenants.iter().all(|t| t.requests == t.ok + t.errors));
    server.shutdown();
}

#[test]
fn unknown_tenant_database_and_question_get_typed_errors() {
    let server = Server::start(ServeConfig::default(), raw_specs());
    let client = InProcClient::new(Arc::clone(&server));
    let err = |resp: Response| match resp {
        Response::Err { error, .. } => error,
        other => panic!("expected an error, got {other:?}"),
    };
    let sql = |tenant: &str, database: &str| Request::Sql {
        tag: 1,
        tenant: tenant.into(),
        database: database.into(),
        sql: "SELECT 1".into(),
    };
    assert_eq!(err(client.call(sql("nobody", "sales"))), ServeError::UnknownTenant);
    assert_eq!(err(client.call(sql("acme", "missing"))), ServeError::UnknownDatabase);
    // A raw tenant has no question set: Ask is a typed error, not a panic.
    let ask = Request::Ask {
        tag: 2,
        tenant: "acme".into(),
        database: "sales".into(),
        question_id: 1,
        model: 0,
    };
    assert_eq!(err(client.call(ask)), ServeError::UnknownQuestion);
    // A bad SQL statement is an engine error with the message attached.
    let bad = client.call(sql_text("acme", "SELEC nope"));
    assert!(matches!(err(bad), ServeError::Engine(_)));
    server.shutdown();
}

/// A served `Ask` is the grid's Native zero-shot cell for the same
/// question, model and seed. Every question is asked twice per model: the
/// two frames must be the same bytes, and only a question's first `Ask`
/// may execute its gold query (the second reads the tenant's cached gold
/// context), so the first runs exactly one statement more than the second.
#[test]
fn served_answers_match_the_grid_and_reuse_the_gold_context() {
    use snails_core::pipeline::{run_benchmark_on, BenchmarkConfig};
    use snails_llm::{ModelKind, Workflow};
    use snails_naturalness::category::SchemaVariant;
    use snails_obs::{ClockMode, Metric, ObsCtx};

    let server =
        Server::start(serial_cfg(1, 64, 8), vec![TenantSpec::full("alpha", vec![cwo()])]);
    let seed = server.config().seed;
    let grid = run_benchmark_on(
        std::slice::from_ref(&*cwo()),
        &BenchmarkConfig {
            seed,
            databases: vec!["CWO".into()],
            variants: vec![SchemaVariant::Native],
            workflows: ModelKind::ALL.iter().map(|&m| Workflow::ZeroShot(m)).collect(),
            ..BenchmarkConfig::default()
        },
    );
    assert_eq!(grid.records.len(), ModelKind::ALL.len() * cwo().questions.len());
    let obs = Arc::new(ObsCtx::new(ClockMode::Sim));
    let _scope = snails_obs::scope(&obs);
    let statements = || obs.registry.counter(Metric::EngineExecStatements);
    let mut asked = std::collections::BTreeSet::new();
    for (tag, record) in grid.records.iter().enumerate() {
        let model = ModelKind::ALL
            .iter()
            .position(|&m| Workflow::ZeroShot(m).display_name() == record.workflow)
            .expect("a zero-shot model");
        let ask = Request::Ask {
            tag: tag as u64,
            tenant: "alpha".into(),
            database: "CWO".into(),
            question_id: record.question_id as u32,
            model: model as u8,
        };
        let before = statements();
        let first = server.execute(&ask);
        let between = statements();
        let second = server.execute(&ask);
        let gold_runs = (between - before) - (statements() - between);
        let first_ask = asked.insert(record.question_id);
        assert_eq!(gold_runs, u64::from(first_ask), "gold executions for {ask:?}");
        assert!(
            encode_response(&first) == encode_response(&second),
            "{ask:?} answered differently the second time"
        );
        let Response::Answer { parse_ok, set_matched, exec_correct, recall_permille, .. } = first
        else {
            panic!("expected an answer to {ask:?}, got {first:?}")
        };
        let recall = record.linking.map_or(u16::MAX, |l| (l.recall * 1000.0).round() as u16);
        assert_eq!(
            (parse_ok, set_matched, exec_correct, recall_permille),
            (record.parse_ok, record.set_matched, record.exec_correct, recall),
            "{} q{}",
            record.workflow,
            record.question_id
        );
    }
    assert_eq!(asked.len(), cwo().questions.len());
    server.shutdown();
}

#[test]
fn tenant_plan_cache_is_bounded_and_evicted_statements_still_answer() {
    // Each missing-table statement compiles (the error surfaces only at
    // execution), so each one takes a cache slot.
    let tenant = Tenant::new(raw_spec("acme", &[(1, "acme-alpha")]));
    let sql = |n: usize| format!("SELECT * FROM missing_table_{n}");
    let first = tenant.run_sql("sales", &sql(0)).expect_err("the table is missing");
    assert!(matches!(first, ServeError::Engine(_)), "{first:?}");
    for n in 1..TENANT_PLAN_CAPACITY + 10 {
        assert!(tenant.run_sql("sales", &sql(n)).is_err());
    }
    assert_eq!(tenant.plans.len(), TENANT_PLAN_CAPACITY);
    assert_eq!(tenant.plans.evictions(), 10);
    // The oldest statement was evicted first; it compiles again and gives
    // the same answer.
    let misses = tenant.plans.misses();
    assert_eq!(tenant.run_sql("sales", &sql(0)).expect_err("still missing"), first);
    assert_eq!(tenant.plans.misses(), misses + 1, "the evicted plan was recompiled");
    assert_eq!(tenant.plans.len(), TENANT_PLAN_CAPACITY);
}

fn sql_text(tenant: &str, sql: &str) -> Request {
    Request::Sql { tag: 3, tenant: tenant.into(), database: "sales".into(), sql: sql.into() }
}

// ---------------------------------------------------------------------------
// Satellite 3 — deterministic load replay
// ---------------------------------------------------------------------------

#[test]
fn serial_replay_is_byte_identical_across_runs_and_thread_counts() {
    // Queue depth below the burst size, so the transcript includes typed
    // sheds — determinism must cover the admission path, not just
    // execution.
    let plan = full_plan(48, 3, 7);
    let mut transcripts = std::collections::BTreeSet::new();
    let mut telemetries = std::collections::BTreeSet::new();
    let mut shed = 0;
    for threads in [1usize, 2, 8] {
        for _run in 0..2 {
            let server = Server::start(serial_cfg(threads, 32, 16), full_specs());
            let out = run_serial(&server, &plan, false);
            assert_eq!(out.dropped(), 0, "every request resolves");
            shed = out.shed;
            transcripts.insert(out.transcript);
            telemetries.insert(
                server
                    .telemetry_report()
                    .expect("telemetry enabled")
                    .deterministic_json(),
            );
            server.shutdown();
        }
    }
    assert!(shed > 0, "the burst must exercise the shed path");
    assert_eq!(transcripts.len(), 1, "response transcripts diverged");
    assert_eq!(telemetries.len(), 1, "deterministic telemetry diverged");
}

#[test]
fn lockstep_transcripts_are_identical_across_transports() {
    let plan = raw_plan(&["acme", "globex"], 6, 4, 99);

    // In-process, serial server, lockstep driver.
    let inproc_server = Server::start(serial_cfg(1, 64, 8), raw_specs());
    let inproc = run_serial(&inproc_server, &plan, true);
    inproc_server.shutdown();

    // Unix socket, worker-driven server, lockstep driver. Responses are
    // pure functions of (tenant state, request, seed), so the full
    // frame-encode → socket → decode → execute → encode path must
    // reproduce the in-process bytes exactly.
    let path = std::env::temp_dir().join(format!("snails-serve-xtrans-{}.sock", std::process::id()));
    let unix_server = Server::start(
        ServeConfig { threads: 1, queue_depth: 64, batch_max: 8, ..ServeConfig::default() },
        raw_specs(),
    );
    let listener = UnixServer::bind(&path, Arc::clone(&unix_server)).expect("bind socket");
    let unix = run_unix_lockstep(&path, &plan).expect("socket drive");
    within("stop the listener", move || drop(listener));
    unix_server.shutdown();

    assert_eq!(inproc.dropped(), 0);
    assert_eq!(unix.dropped(), 0);
    assert_eq!(inproc.transcript, unix.transcript, "transports produced different bytes");
    assert_eq!(inproc.transcript_hash, unix.transcript_hash);
}

#[test]
fn shutdown_frame_drains_and_reports_over_the_wire() {
    let path = std::env::temp_dir().join(format!("snails-serve-bye-{}.sock", std::process::id()));
    let server = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, raw_specs());
    let mut listener = UnixServer::bind(&path, Arc::clone(&server)).expect("bind socket");
    // A second connection, once served, sits idle through the shutdown.
    let mut idle = UnixClient::connect(&path).expect("connect");
    let pong = idle.call(&Request::Ping { tag: 99 }).expect("ping");
    assert_eq!(pong, Response::Pong { tag: 99 });
    let mut client = UnixClient::connect(&path).expect("connect");
    for tag in 0..5u64 {
        let resp = client.call(&Request::Ping { tag }).expect("ping");
        assert_eq!(resp, Response::Pong { tag });
    }
    let bye = within("shutdown frame", move || client.call(&Request::Shutdown).expect("goodbye"));
    assert_eq!(bye, Response::Goodbye { responses: 6 });
    assert!(listener.stopped(), "shutdown frame stops the listener");
    within("wait after the shutdown frame", move || listener.wait());
    // The idle connection closed with the listener: end of stream.
    let end = within("idle read after shutdown", move || idle.recv().expect("clean close"));
    assert_eq!(end, None);
    server.shutdown();
}

#[test]
fn malformed_frames_get_a_typed_protocol_error_then_a_clean_close() {
    let path = std::env::temp_dir().join(format!("snails-serve-bad-{}.sock", std::process::id()));
    let server = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, raw_specs());
    let listener = UnixServer::bind(&path, Arc::clone(&server)).expect("bind socket");

    // Garbage framing: typed Protocol error frame, then EOF — never a hang.
    let mut client = UnixClient::connect(&path).expect("connect");
    client.send_raw(&[0, 0, 0, 0]).expect("send zero-length frame");
    match client.recv().expect("typed error frame") {
        Some(Response::Err { error: ServeError::Protocol(_), .. }) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(client.recv().expect("clean close"), None);

    // An oversized declaration gets the same treatment.
    let mut client = UnixClient::connect(&path).expect("connect");
    client.send_raw(&(2u32 * 1024 * 1024).to_le_bytes()).expect("send oversized header");
    match client.recv().expect("typed error frame") {
        Some(Response::Err { error: ServeError::Protocol(_), .. }) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(client.recv().expect("clean close"), None);

    // The server is still healthy for well-behaved clients.
    let mut client = UnixClient::connect(&path).expect("connect");
    assert_eq!(client.call(&Request::Ping { tag: 1 }).expect("ping"), Response::Pong { tag: 1 });
    within("stop the listener", move || drop(listener));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Blocking transport — every blocked wait wakes
// ---------------------------------------------------------------------------

#[test]
fn stop_returns_with_no_connection_and_with_an_idle_one_open() {
    let server = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, raw_specs());

    // No client ever connected: the listener sits in `accept`.
    let mut listener =
        UnixServer::bind(&socket_path("stop-none"), Arc::clone(&server)).expect("bind socket");
    let listener = within("stop with no connection", move || {
        listener.stop();
        listener
    });
    assert!(listener.stopped());
    drop(listener);

    // A client holds an idle open connection: its reader sits in `read`.
    let path = socket_path("stop-idle");
    let mut listener = UnixServer::bind(&path, Arc::clone(&server)).expect("bind socket");
    let mut client = UnixClient::connect(&path).expect("connect");
    assert_eq!(client.call(&Request::Ping { tag: 1 }).expect("ping"), Response::Pong { tag: 1 });
    within("stop with an idle connection", move || listener.stop());
    // Stopping closed the connection: the client reads end of stream.
    let end = within("read after stop", move || client.recv().expect("clean close"));
    assert_eq!(end, None);
    server.shutdown();
}

#[test]
fn a_rows_frame_larger_than_the_socket_buffer_arrives_intact_when_read_late() {
    // 256 rows of 2,000-byte strings: a frame of about 520 KB, well past a
    // unix socket's send buffer and under MAX_FRAME, so the server's
    // blocking write waits for the client, which starts reading late.
    let mut db = Database::new("sales");
    db.create_table(
        TableSchema::new("blobs")
            .column("id", DataType::Int)
            .column("body", DataType::Varchar),
    );
    for id in 0..MAX_RESPONSE_ROWS as i64 {
        let body = format!("{id:04}-").repeat(400);
        db.insert("blobs", vec![Value::Int(id), Value::Str(body.into())]).expect("insert");
    }
    let spec = TenantSpec {
        name: "acme".into(),
        databases: vec![TenantSource::Raw { name: "sales".into(), db: Arc::new(db) }],
        limits: ExecLimits::guarded(),
    };
    let server = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, vec![spec]);
    let path = socket_path("large-frame");
    let listener = UnixServer::bind(&path, Arc::clone(&server)).expect("bind socket");
    let request = Request::Sql {
        tag: 9,
        tenant: "acme".into(),
        database: "sales".into(),
        sql: "SELECT id, body FROM blobs ORDER BY id".into(),
    };
    let mut client = UnixClient::connect(&path).expect("connect");
    client.send(&request).expect("send");
    std::thread::sleep(Duration::from_millis(200));
    let got = within("late read of a large frame", move || {
        client.recv().expect("read").expect("a response before close")
    });

    // Responses are pure functions of the request: the in-process answer
    // is the byte-exact reference.
    let expected = encode_response(&server.execute(&request));
    assert!(
        expected.len() > 2_000 * MAX_RESPONSE_ROWS && expected.len() <= MAX_FRAME,
        "the frame must outgrow the socket buffer and still fit a frame: {} bytes",
        expected.len()
    );
    let Response::Rows { rows, .. } = &got else { panic!("expected rows, got {got:?}") };
    assert_eq!(rows.len(), MAX_RESPONSE_ROWS);
    assert!(encode_response(&got) == expected, "the large frame arrived altered");
    within("stop the listener", move || drop(listener));
    server.shutdown();
}

#[test]
fn rows_frames_stop_before_max_frame_and_an_unfittable_row_is_a_typed_error() {
    let mut db = Database::new("sales");
    db.create_table(TableSchema::new("t").column("id", DataType::Int));
    for id in 0..300 {
        db.insert("t", vec![Value::Int(id)]).expect("insert");
    }
    let spec = TenantSpec {
        name: "acme".into(),
        databases: vec![TenantSource::Raw {
            name: "sales".into(),
            db: Arc::new(db),
        }],
        limits: ExecLimits::guarded(),
    };
    let config = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![spec]);

    // An 8 KiB literal on each of 300 rows: 256 rows would encode about
    // 2.1 MB, so the body stops at the last row that fits.
    let literal = "x".repeat(8 * 1024);
    let request = sql_text("acme", &format!("SELECT '{literal}' AS s FROM t"));
    let frame = encode_response(&server.execute(&request));
    let payload = frame.len() - 4;
    assert!(payload <= MAX_FRAME, "payload of {payload} bytes");
    let mut reader = FrameReader::new();
    reader.extend(&frame);
    let decoded = reader.next_message().expect("the client accepts the frame");
    let Some(Message::Response(Response::Rows {
        total_rows, rows, ..
    })) = decoded
    else {
        panic!("expected rows, got {decoded:?}");
    };
    assert_eq!(total_rows, 300, "total_rows keeps the true count");
    assert!(rows.len() < MAX_RESPONSE_ROWS, "{} rows", rows.len());
    let row_bytes = 4 + 5 + literal.len();
    assert!(payload + row_bytes > MAX_FRAME, "another row would fit");

    // A literal near 1 MiB, in a request frame that fits, projected twice:
    // not even the first row fits a response frame.
    let literal = "x".repeat(MAX_FRAME - 200);
    let request = sql_text(
        "acme",
        &format!("SELECT d.s AS a, d.s AS b FROM t CROSS JOIN (SELECT '{literal}' AS s) d"),
    );
    assert!(encode_request(&request).len() - 4 <= MAX_FRAME);
    let response = server.execute(&request);
    let Response::Err {
        tag: 3,
        error: ServeError::Engine(message),
    } = &response
    else {
        let shown = format!("{response:?}");
        panic!("expected an engine error, got {shown:.200}");
    };
    assert!(message.contains("response frame"), "{message}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Fault soak — zero dropped requests under a flaky profile
// ---------------------------------------------------------------------------

#[test]
fn flaky_profile_never_drops_a_request_and_replays_identically() {
    let plan = raw_plan(&["acme", "globex"], 32, 4, 11);
    let flaky = |threads: usize| ServeConfig {
        fault_profile: snails_llm::FaultProfile::FLAKY,
        ..serial_cfg(threads, 96, 16)
    };
    let run = |threads: usize| {
        let server = Server::start(flaky(threads), raw_specs());
        let out = run_serial(&server, &plan, false);
        // Per-tenant accounting reconciles exactly even with injected
        // panics: isolation converts them to typed Internal errors inside
        // the counters.
        for t in ["acme", "globex"] {
            let s = server.tenant(t).expect("tenant").stats();
            assert_eq!(s.requests, s.ok + s.errors, "tenant {t} accounting leaked");
        }
        server.shutdown();
        out
    };
    let a = run(1);
    assert_eq!(a.dropped(), 0, "a fault must never eat a request");
    assert!(a.errors > 0, "the flaky profile must actually inject failures");
    // Same seed, different fan-out: byte-identical, faults included.
    let b = run(4);
    assert_eq!(b.dropped(), 0);
    assert_eq!(a.transcript, b.transcript);
    assert_eq!((a.ok, a.errors, a.shed), (b.ok, b.errors, b.shed));
}

// ---------------------------------------------------------------------------
// Satellite 4 — backpressure, overload, graceful drain
// ---------------------------------------------------------------------------

#[test]
fn queue_is_bounded_sheds_are_counted_and_drain_finishes_everything() {
    let depth = 8usize;
    let server = Server::start(serial_cfg(1, depth, 4), raw_specs());
    let client = InProcClient::new(Arc::clone(&server));

    // Burst 3× the queue depth without polling: exactly `depth` requests
    // queue, the rest shed immediately with a typed Overloaded response.
    let tickets: Vec<_> = (0..3 * depth as u64)
        .map(|tag| client.call_async(Request::Ping { tag }))
        .collect();
    let shed_now: Vec<_> = tickets.iter().map(|t| t.try_take()).collect();
    let sheds = shed_now
        .iter()
        .filter(|r| {
            matches!(
                r,
                Some(Response::Err { error: ServeError::Overloaded { depth: d }, .. })
                    if *d == depth as u32
            )
        })
        .count();
    assert_eq!(sheds, 2 * depth, "everything beyond the queue depth sheds, typed");
    assert_eq!(server.queue_len(), depth);
    assert_eq!(server.high_water(), depth, "occupancy never exceeds the configured depth");

    // Drain: every queued request still gets its response; nothing hangs.
    server.drain();
    assert_eq!(server.queue_len(), 0);
    let answered = tickets
        .iter()
        .zip(&shed_now)
        .filter(|(t, earlier)| earlier.is_some() || t.try_take().is_some())
        .count();
    assert_eq!(answered, tickets.len(), "drain must resolve every admitted request");
    assert_eq!(server.responses_delivered(), depth as u64);

    // The deterministic telemetry section agrees with what we observed.
    let report = server.telemetry_report().expect("telemetry enabled");
    assert_eq!(report.counter("serve.shed"), sheds as u64);
    assert_eq!(report.counter("serve.requests"), depth as u64);
    assert_eq!(report.counter("serve.responses"), depth as u64);

    // Post-drain submissions answer Draining, synchronously.
    let refused = client.call_async(Request::Ping { tag: 77 });
    assert!(matches!(
        refused.try_take(),
        Some(Response::Err { error: ServeError::Draining, .. })
    ));
    assert_eq!(report.counter("serve.drain_refused"), 0, "refusal landed after the snapshot");
    server.shutdown();
}

#[test]
fn concurrent_drain_waits_for_in_flight_work() {
    let server = Server::start(
        ServeConfig { threads: 2, queue_depth: 256, ..ServeConfig::default() },
        raw_specs(),
    );
    let client = InProcClient::new(Arc::clone(&server));
    let tickets: Vec<_> = (0..64u64)
        .map(|tag| {
            client.call_async(Request::Sql {
                tag,
                tenant: if tag % 2 == 0 { "acme" } else { "globex" }.into(),
                database: "sales".into(),
                sql: "SELECT name FROM accounts ORDER BY name".into(),
            })
        })
        .collect();
    server.drain();
    // After drain returns, every admitted request has its reply.
    let resolved = tickets.iter().filter(|t| t.try_take().is_some()).count();
    assert_eq!(resolved, 64, "drain returned with requests still unresolved");
    assert_eq!(server.queue_len(), 0);
    server.shutdown();
}

#[test]
fn admission_is_all_or_nothing() {
    // With a single slot, alternating submissions show Queued ↔ Shed with
    // no third state and no silent drop.
    let server = Server::start(serial_cfg(1, 1, 1), raw_specs());
    let client = InProcClient::new(Arc::clone(&server));
    let first = client.call_async(Request::Ping { tag: 1 });
    let second = client.call_async(Request::Ping { tag: 2 });
    assert!(first.try_take().is_none(), "queued request is pending until polled");
    assert!(matches!(
        second.try_take(),
        Some(Response::Err { error: ServeError::Overloaded { .. }, .. })
    ));
    assert_eq!(server.poll_batch(), 1);
    assert_eq!(first.try_take(), Some(Response::Pong { tag: 1 }));
    server.shutdown();
}
