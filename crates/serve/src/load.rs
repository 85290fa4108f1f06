//! The load harness: a seeded workload mix, three drivers, and the two
//! suites `snails load` runs on them.
//!
//! * [`run_concurrent`] — a closed-loop driver simulating thousands of
//!   concurrent clients over the in-process transport, measuring
//!   completeness and sustained throughput;
//! * [`run_serial`] — the deterministic soak driver: a tick-based simulated
//!   clock, whole-tick burst arrivals in client order, one batch per tick.
//!   Against a `--serial` server this is a closed system whose transcripts,
//!   shed placement, and latency distribution are pure functions of
//!   `(plan, server config)` — byte-identical across runs and fan-out
//!   thread counts;
//! * [`run_unix_lockstep`] — the same workload over a unix socket with one
//!   outstanding request globally, so its per-client transcripts are
//!   byte-identical to [`run_serial`] in lockstep mode: the cross-transport
//!   gate.
//!
//! [`run_suite`] stages those drivers into the gated in-process suite
//! behind `BENCH_serve.json`; [`drive_unix`] drives a running server over
//! its socket.
//!
//! Every request is generated by pure seed arithmetic from
//! `(plan.seed, client, seq)` — no RNG state threads through the drivers,
//! so any subset of clients can be replayed independently.

use crate::protocol::{encode_response, fnv1a, Request, Response, ServeError};
use crate::server::{Admission, ServeConfig, Server};
use crate::tenant::TenantSpec;
use crate::transport::{InProcClient, UnixClient};
use snails_data::SnailsDatabase;
use snails_llm::generate::mix_seed;
use snails_llm::{FaultProfile, ModelKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One database a tenant's simulated clients may address.
#[derive(Debug, Clone)]
pub struct DbWorkload {
    /// Database name as requests spell it.
    pub name: String,
    /// Statement pool for `Sql` requests (gold queries in practice).
    pub sqls: Vec<String>,
    /// Gold question count (`0` disables `Ask` requests for this db).
    pub questions: usize,
}

/// One tenant's slice of the workload.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Tenant name.
    pub name: String,
    /// Databases clients draw from.
    pub databases: Vec<DbWorkload>,
}

impl TenantWorkload {
    /// Workload over full SNAILS databases: the statement pool is the gold
    /// query set and every question is askable.
    pub fn from_full(name: &str, dbs: &[Arc<SnailsDatabase>]) -> TenantWorkload {
        TenantWorkload {
            name: name.to_owned(),
            databases: dbs
                .iter()
                .map(|db| DbWorkload {
                    name: db.spec.name.to_owned(),
                    sqls: db.questions.iter().map(|p| p.sql.clone()).collect(),
                    questions: db.questions.len(),
                })
                .collect(),
        }
    }
}

/// A complete load description.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Simulated clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Workload seed (independent of the server seed).
    pub seed: u64,
    /// Tenants, addressed round-robin by client id.
    pub tenants: Vec<TenantWorkload>,
}

impl LoadPlan {
    /// Total requests the plan will issue.
    pub fn total(&self) -> u64 {
        self.clients as u64 * self.requests_per_client as u64
    }

    /// The request client `client` issues as its `seq`-th call — pure seed
    /// arithmetic, so drivers on any transport generate identical traffic.
    ///
    /// Mix: ~5% pings, ~10% NL-to-SQL asks (where the tenant database
    /// carries questions), ~5% statements against a missing table (typed
    /// engine errors are part of a realistic mix), the rest gold SQL.
    pub fn request_for(&self, client: u32, seq: u32) -> Request {
        let tag = (u64::from(client) << 32) | u64::from(seq);
        let tenant = &self.tenants[client as usize % self.tenants.len()];
        let base = mix_seed(&["serve-load", &tenant.name], &[self.seed, tag]);
        let db = &tenant.databases[(mix_seed(&["load-db"], &[base]) as usize)
            % tenant.databases.len().max(1)];
        let kind = mix_seed(&["load-kind"], &[base]) % 100;
        if kind < 5 {
            return Request::Ping { tag };
        }
        if kind < 15 && db.questions > 0 {
            return Request::Ask {
                tag,
                tenant: tenant.name.clone(),
                database: db.name.clone(),
                question_id: 1 + (mix_seed(&["load-q"], &[base]) as u32 % db.questions as u32),
                model: (mix_seed(&["load-model"], &[base]) % ModelKind::ALL.len() as u64) as u8,
            };
        }
        let sql = if kind < 20 || db.sqls.is_empty() {
            format!("SELECT * FROM missing_table_{}", base % 1000)
        } else {
            db.sqls[(mix_seed(&["load-sql"], &[base]) as usize) % db.sqls.len()].clone()
        };
        Request::Sql { tag, tenant: tenant.name.clone(), database: db.name.clone(), sql }
    }
}

/// How a response classifies for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A non-error response.
    Ok,
    /// Shed at admission ([`ServeError::Overloaded`] / `Draining`).
    Shed,
    /// Any other typed error.
    Error,
}

/// Classify one response.
pub fn classify(resp: &Response) -> Outcome {
    match resp {
        Response::Err { error: ServeError::Overloaded { .. }, .. }
        | Response::Err { error: ServeError::Draining, .. } => Outcome::Shed,
        Response::Err { .. } => Outcome::Error,
        _ => Outcome::Ok,
    }
}

/// Per-client response frames, reassembled into one transcript byte string:
/// for each client in id order, `client:u32le count:u32le frame*`.
#[derive(Default)]
struct Transcript {
    frames: BTreeMap<u32, (u32, Vec<u8>)>,
}

impl Transcript {
    fn push(&mut self, client: u32, resp: &Response) {
        let slot = self.frames.entry(client).or_default();
        slot.0 += 1;
        slot.1.extend_from_slice(&encode_response(resp));
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (client, (count, frames)) in &self.frames {
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(frames);
        }
        out
    }
}

/// Result of a deterministic (serial or lockstep) drive.
pub struct SerialOutcome {
    /// The full response transcript (every client, every response).
    pub transcript: Vec<u8>,
    /// FNV-1a of [`SerialOutcome::transcript`].
    pub transcript_hash: u64,
    /// Simulated-clock latency (ticks) of each queued request, in
    /// completion order. Shed requests answer instantly and are excluded.
    pub latencies_ticks: Vec<u64>,
    /// Requests issued.
    pub total: u64,
    /// Non-error responses.
    pub ok: u64,
    /// Typed-error responses (engine, fault, tenant).
    pub errors: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Simulated ticks the drive took.
    pub ticks: u64,
}

impl SerialOutcome {
    /// Requests that never received any response — must be zero (the
    /// "never drops a request" gate).
    pub fn dropped(&self) -> u64 {
        self.total - (self.ok + self.errors + self.shed)
    }
}

/// Drive a `--serial` server deterministically.
///
/// Each simulated tick: every idle client (in client order) submits its
/// next request, then the server polls exactly one batch and the completed
/// responses are appended to the transcript in delivery order. `lockstep`
/// restricts the system to one outstanding request globally (client 0's
/// request completes before client 1 submits), which collapses every batch
/// to size 1 — the mode whose transcripts are comparable byte-for-byte
/// across transports.
pub fn run_serial(server: &Server, plan: &LoadPlan, lockstep: bool) -> SerialOutcome {
    let completions: Arc<Mutex<Vec<Response>>> = Arc::new(Mutex::new(Vec::new()));
    let submit = |client: u32, seq: u32| {
        let req = plan.request_for(client, seq);
        let sink = Arc::clone(&completions);
        server.submit(req, Box::new(move |resp| sink.lock().unwrap().push(resp)))
    };

    let mut transcript = Transcript::default();
    let mut latencies = Vec::new();
    let (mut ok, mut errors, mut shed) = (0u64, 0u64, 0u64);
    let mut tick = 0u64;
    // submit_tick[client] = tick its outstanding queued request entered.
    let mut submitted_at: Vec<Option<u64>> = vec![None; plan.clients];
    let mut next_seq: Vec<u32> = vec![0; plan.clients];
    let done = |next_seq: &[u32], submitted_at: &[Option<u64>]| {
        next_seq.iter().all(|&s| s as usize >= plan.requests_per_client)
            && submitted_at.iter().all(Option::is_none)
    };

    let drain_completions =
        |tick: u64,
         transcript: &mut Transcript,
         latencies: &mut Vec<u64>,
         submitted_at: &mut [Option<u64>],
         ok: &mut u64,
         errors: &mut u64,
         shed: &mut u64| {
            for resp in completions.lock().unwrap().drain(..) {
                let client = (resp.tag() >> 32) as u32;
                match classify(&resp) {
                    Outcome::Ok => *ok += 1,
                    Outcome::Error => *errors += 1,
                    Outcome::Shed => *shed += 1,
                }
                if let Some(at) = submitted_at[client as usize].take() {
                    latencies.push(tick - at);
                }
                transcript.push(client, &resp);
            }
        };

    if lockstep {
        for seq in 0..plan.requests_per_client as u32 {
            for client in 0..plan.clients as u32 {
                if submit(client, seq) == Admission::Queued {
                    submitted_at[client as usize] = Some(tick);
                    while server.poll_batch() == 0 {}
                }
                next_seq[client as usize] = seq + 1;
                drain_completions(
                    tick,
                    &mut transcript,
                    &mut latencies,
                    &mut submitted_at,
                    &mut ok,
                    &mut errors,
                    &mut shed,
                );
                tick += 1;
            }
        }
    } else {
        while !done(&next_seq, &submitted_at) {
            // Burst arrivals: every idle client submits, in client order —
            // shed placement is then a pure function of queue occupancy.
            for client in 0..plan.clients as u32 {
                let c = client as usize;
                if submitted_at[c].is_none() && (next_seq[c] as usize) < plan.requests_per_client
                {
                    let admitted = submit(client, next_seq[c]) == Admission::Queued;
                    if admitted {
                        submitted_at[c] = Some(tick);
                    }
                    next_seq[c] += 1;
                }
            }
            server.poll_batch();
            drain_completions(
                tick,
                &mut transcript,
                &mut latencies,
                &mut submitted_at,
                &mut ok,
                &mut errors,
                &mut shed,
            );
            tick += 1;
        }
    }

    let bytes = transcript.bytes();
    SerialOutcome {
        transcript_hash: fnv1a(&bytes),
        transcript: bytes,
        latencies_ticks: latencies,
        total: plan.total(),
        ok,
        errors,
        shed,
        ticks: tick,
    }
}

/// Drive the same lockstep schedule over a unix socket: one connection per
/// client, one outstanding request globally. The server may run serial
/// (something must run its batches, as the CLI's reactor does with
/// [`Server::run_until_drained`]) or concurrent; either way the responses
/// are the same pure functions of the requests, so the transcript matches
/// [`run_serial`]`(.., lockstep = true)` byte for byte.
pub fn run_unix_lockstep(path: &Path, plan: &LoadPlan) -> std::io::Result<SerialOutcome> {
    let mut conns = Vec::with_capacity(plan.clients);
    for _ in 0..plan.clients {
        conns.push(UnixClient::connect(path)?);
    }
    let mut transcript = Transcript::default();
    let (mut ok, mut errors, mut shed) = (0u64, 0u64, 0u64);
    let mut ticks = 0u64;
    for seq in 0..plan.requests_per_client as u32 {
        for client in 0..plan.clients as u32 {
            let resp = conns[client as usize].call(&plan.request_for(client, seq))?;
            match classify(&resp) {
                Outcome::Ok => ok += 1,
                Outcome::Error => errors += 1,
                Outcome::Shed => shed += 1,
            }
            transcript.push(client, &resp);
            ticks += 1;
        }
    }
    let bytes = transcript.bytes();
    Ok(SerialOutcome {
        transcript_hash: fnv1a(&bytes),
        transcript: bytes,
        latencies_ticks: Vec::new(),
        total: plan.total(),
        ok,
        errors,
        shed,
        ticks,
    })
}

/// Result of a wall-clock concurrent drive.
pub struct LoadReport {
    /// Requests issued.
    pub total: u64,
    /// Non-error responses.
    pub ok: u64,
    /// Typed-error responses.
    pub errors: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests that never resolved — always 0 unless the server dropped a
    /// reply (the soak gate).
    pub dropped: u64,
    /// Wall time for the whole drive.
    pub wall: Duration,
    /// Answered requests per second over the drive.
    pub throughput_rps: f64,
}

/// Closed-loop concurrent drive: every simulated client keeps exactly one
/// request in flight until it has issued its quota, so `plan.clients`
/// requests are concurrently outstanding at steady state. Clients are
/// multiplexed onto `driver_threads` OS threads (they spend their lives
/// waiting, not computing): each thread blocks on one channel that its
/// clients' reply callbacks feed, and answers each reply with that
/// client's next request.
pub fn run_concurrent(server: &Arc<Server>, plan: &LoadPlan, driver_threads: usize) -> LoadReport {
    #[derive(Default)]
    struct DriverResult {
        ok: u64,
        errors: u64,
        shed: u64,
    }

    let drivers = driver_threads.clamp(1, plan.clients.max(1));
    let quota = plan.requests_per_client as u32;
    let started = Instant::now();
    let results: Vec<DriverResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(drivers);
        for d in 0..drivers {
            handles.push(scope.spawn(move || {
                let ids: Vec<u32> =
                    (d..plan.clients).step_by(drivers).map(|id| id as u32).collect();
                let (tx, rx) = mpsc::channel::<(usize, u32, Response)>();
                // Submit client `ids[slot]`'s `seq`-th request, if within
                // quota; its reply comes back through the channel.
                let submit = |slot: usize, seq: u32| {
                    if seq < quota {
                        let tx = tx.clone();
                        let reply = move |resp: Response| {
                            let _ = tx.send((slot, seq, resp));
                        };
                        server.submit(plan.request_for(ids[slot], seq), Box::new(reply));
                    }
                };
                (0..ids.len()).for_each(|slot| submit(slot, 0));
                let mut out = DriverResult::default();
                for _ in 0..ids.len() * quota as usize {
                    let (slot, seq, resp) = rx.recv().expect("this thread holds a sender");
                    match classify(&resp) {
                        Outcome::Ok => out.ok += 1,
                        Outcome::Error => out.errors += 1,
                        Outcome::Shed => out.shed += 1,
                    }
                    submit(slot, seq + 1);
                }
                out
            }));
        }
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect()
    });
    let wall = started.elapsed();

    let (mut ok, mut errors, mut shed) = (0u64, 0u64, 0u64);
    for r in results {
        ok += r.ok;
        errors += r.errors;
        shed += r.shed;
    }
    let answered = ok + errors + shed;
    let total = plan.total();
    LoadReport {
        total,
        ok,
        errors,
        shed,
        dropped: total - answered,
        wall,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            answered as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// Nearest-rank percentile summary of a latency (or any `u64`) sample set.
///
/// Nearest-rank is exact and deterministic — no interpolation, so two runs
/// over identical samples produce identical summaries byte-for-byte, which
/// is what the serial replay stage asserts. An empty sample set summarizes
/// to all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Sample count.
    pub count: u64,
    /// 50th percentile (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

impl Percentiles {
    /// Summarize `samples` (sorted in place).
    #[must_use]
    pub fn of(samples: &mut [u64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        let rank = |p: u64| {
            // Nearest-rank: ceil(p/100 * n), 1-based, clamped into range.
            let n = samples.len() as u64;
            let r = (p * n).div_ceil(100).max(1) - 1;
            samples[r as usize]
        };
        Percentiles {
            count: samples.len() as u64,
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: samples[samples.len() - 1],
        }
    }
}

/// Stage lines and failures of one [`run_suite`] or [`drive_unix`] run.
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
}

/// The in-process load suite behind `BENCH_serve.json`: four staged drives
/// against fresh servers started from `config` and `tenants`, each a
/// variation of `plan`. Every stage line goes to `progress` as it
/// completes; a violated gate lands in [`SuiteOutcome::failures`] and the
/// remaining stages still run.
pub fn run_suite(
    config: &ServeConfig,
    tenants: &[TenantSpec],
    plan: &LoadPlan,
    progress: &mut dyn FnMut(&str),
) -> SuiteOutcome {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = SuiteOutcome::default();

    // Stage 1 — sustained concurrent load: `plan.clients` closed-loop
    // clients each keeping one request in flight. The gate is
    // completeness: every request resolves (answered or typed-shed).
    {
        let server = Server::start(config.clone(), tenants.to_vec());
        let report = run_concurrent(&server, plan, 8);
        server.shutdown();
        out.stage(
            progress,
            format!(
                "{{\"serve\":\"load\",\"clients\":{},\"requests\":{},\"ok\":{},\"errors\":{},\
                 \"shed\":{},\"dropped\":{},\"wall_ms\":{:.1},\"throughput_rps\":{:.0}}}",
                plan.clients,
                report.total,
                report.ok,
                report.errors,
                report.shed,
                report.dropped,
                ms(report.wall),
                report.throughput_rps,
            ),
        );
        if report.dropped > 0 {
            out.failures.push(format!("load: {} requests never resolved", report.dropped));
        }
    }

    // Stage 2 — deterministic replay: the same serial plan twice at each
    // of 1/2/8 fan-out threads. Queue depth below the burst size forces
    // shed placement into the transcript, so determinism covers the
    // admission path too. Gate: one transcript hash, one deterministic
    // telemetry rendering, across all six runs.
    {
        let replay = LoadPlan {
            clients: 256,
            requests_per_client: 4,
            ..plan.clone()
        };
        let mut hashes = BTreeSet::new();
        let mut det = BTreeSet::new();
        let mut shed = 0u64;
        let mut ticks = 0u64;
        let mut lat = Percentiles::default();
        for threads in [1usize, 2, 8] {
            for _run in 0..2 {
                let cfg = ServeConfig {
                    serial: true,
                    threads,
                    queue_depth: 192,
                    batch_max: 32,
                    ..config.clone()
                };
                let server = Server::start(cfg, tenants.to_vec());
                let mut run = run_serial(&server, &replay, false);
                if run.dropped() > 0 {
                    out.failures.push(format!(
                        "serial_replay: {} requests never resolved",
                        run.dropped()
                    ));
                }
                det.insert(
                    server.telemetry_report().expect("telemetry enabled").deterministic_json(),
                );
                server.shutdown();
                hashes.insert(run.transcript_hash);
                shed = run.shed;
                ticks = run.ticks;
                lat = Percentiles::of(&mut run.latencies_ticks);
            }
        }
        let identical = hashes.len() == 1 && det.len() == 1;
        out.stage(
            progress,
            format!(
                "{{\"serve\":\"serial_replay\",\"clients\":256,\"threads\":[1,2,8],\"runs\":6,\
                 \"shed\":{shed},\"ticks\":{ticks},\"latency_ticks_p50\":{},\
                 \"latency_ticks_p99\":{},\"transcripts\":{},\"telemetries\":{},\
                 \"identical\":{identical}}}",
                lat.p50,
                lat.p99,
                hashes.len(),
                det.len(),
            ),
        );
        if !identical {
            out.failures.push("serial_replay: transcripts or telemetry diverged".into());
        }
        if shed == 0 {
            out.failures.push("serial_replay: burst never exercised the shed path".into());
        }
    }

    // Stage 3 — fault soak: the flaky profile injects transient and
    // corrupting faults into execution. The gate is the serving contract
    // under faults: zero dropped requests and exact per-tenant
    // reconciliation (requests == ok + errors).
    {
        let cfg = ServeConfig {
            fault_profile: FaultProfile::FLAKY,
            ..config.clone()
        };
        let server = Server::start(cfg, tenants.to_vec());
        let soak = LoadPlan {
            clients: 512,
            requests_per_client: 8,
            ..plan.clone()
        };
        let report = run_concurrent(&server, &soak, 8);
        let stats = server.tenant_stats();
        let reconciled = stats.iter().all(|s| s.requests == s.ok + s.errors);
        let faults = server
            .telemetry_report()
            .expect("telemetry enabled")
            .counter("serve.faults.injected");
        server.shutdown();
        out.stage(
            progress,
            format!(
                "{{\"serve\":\"fault_soak\",\"profile\":\"flaky\",\"requests\":{},\"ok\":{},\
                 \"errors\":{},\"shed\":{},\"dropped\":{},\"faults_injected\":{faults},\
                 \"tenants_reconciled\":{reconciled}}}",
                report.total, report.ok, report.errors, report.shed, report.dropped,
            ),
        );
        if report.dropped > 0 {
            out.failures
                .push(format!("fault_soak: {} requests never resolved", report.dropped));
        }
        if !reconciled {
            out.failures.push("fault_soak: tenant counters do not reconcile".into());
        }
    }

    // Stage 4 — overload and drain. Serial burst: 64 single-shot clients
    // against a depth-32 queue shed exactly 64 - 32 requests and the
    // queue never exceeds its depth. Then a concurrent drain: submissions
    // in flight when `drain` lands all resolve (Draining for refused),
    // none hang.
    {
        let depth = 32usize;
        let cfg = ServeConfig {
            serial: true,
            threads: 1,
            queue_depth: depth,
            batch_max: 16,
            ..config.clone()
        };
        let server = Server::start(cfg, tenants.to_vec());
        let burst = LoadPlan {
            clients: 64,
            requests_per_client: 1,
            ..plan.clone()
        };
        let run = run_serial(&server, &burst, false);
        let report = server.telemetry_report().expect("telemetry enabled");
        let shed_counter = report.counter("serve.shed");
        let high_water = server.high_water();
        let responses = server.shutdown();
        let shed_exact = run.shed == (64 - depth) as u64 && shed_counter == run.shed;
        let bounded = high_water <= depth;
        let complete = run.dropped() == 0 && responses == run.total - run.shed;

        let drain_server = Server::start(config.clone(), tenants.to_vec());
        let client = InProcClient::new(Arc::clone(&drain_server));
        let tickets: Vec<_> = (0..100u32)
            .map(|i| client.call_async(Request::Ping { tag: u64::from(i) }))
            .collect();
        drain_server.drain();
        let refused = client.call_async(Request::Ping { tag: 999 });
        let drained = tickets.iter().all(|t| t.try_take().is_some())
            && matches!(
                refused.try_take(),
                Some(Response::Err { error: ServeError::Draining, .. })
            );
        drain_server.shutdown();

        out.stage(
            progress,
            format!(
                "{{\"serve\":\"overload\",\"burst\":64,\"queue_depth\":{depth},\"shed\":{},\
                 \"shed_exact\":{shed_exact},\"high_water\":{high_water},\
                 \"bounded\":{bounded},\"complete\":{complete},\"drain_complete\":{drained}}}",
                run.shed,
            ),
        );
        if !(shed_exact && bounded && complete && drained) {
            out.failures.push("overload: admission or drain invariant violated".into());
        }
    }
    out
}

/// Drive a running server at `path` with `plan`'s lockstep schedule (see
/// [`run_unix_lockstep`]), then, when `shutdown` is set and nothing was
/// dropped, shut it down over its own wire. One `load` line reports the
/// drive and one `shutdown` line the server's Goodbye.
pub fn drive_unix(
    path: &Path,
    plan: &LoadPlan,
    shutdown: bool,
    progress: &mut dyn FnMut(&str),
) -> SuiteOutcome {
    let mut out = SuiteOutcome::default();
    let run = match run_unix_lockstep(path, plan) {
        Ok(run) => run,
        Err(e) => {
            out.failures.push(format!("socket drive failed: {e}"));
            return out;
        }
    };
    out.stage(
        progress,
        format!(
            "{{\"load\":\"unix\",\"clients\":{},\"total\":{},\"ok\":{},\"errors\":{},\
             \"shed\":{},\"dropped\":{},\"transcript_hash\":\"{:016x}\"}}",
            plan.clients,
            run.total,
            run.ok,
            run.errors,
            run.shed,
            run.dropped(),
            run.transcript_hash
        ),
    );
    if run.dropped() > 0 {
        out.failures
            .push(format!("{} requests never received a response", run.dropped()));
        return out;
    }
    if shutdown {
        match UnixClient::connect(path).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(Response::Goodbye { responses }) => out.stage(
                progress,
                format!("{{\"load\":\"shutdown\",\"responses\":{responses}}}"),
            ),
            Ok(other) => out.failures.push(format!("unexpected shutdown reply: {other:?}")),
            Err(e) => out.failures.push(format!("shutdown failed: {e}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut one_to_hundred: Vec<u64> = (1..=100).rev().collect();
        let p = Percentiles::of(&mut one_to_hundred);
        assert_eq!(p, Percentiles { count: 100, p50: 50, p90: 90, p99: 99, max: 100 });

        let mut tiny = [7u64];
        let p = Percentiles::of(&mut tiny);
        assert_eq!(p, Percentiles { count: 1, p50: 7, p90: 7, p99: 7, max: 7 });

        let mut pair = [10u64, 20];
        let p = Percentiles::of(&mut pair);
        assert_eq!((p.p50, p.p99, p.max), (10, 20, 20));

        assert_eq!(Percentiles::of(&mut []), Percentiles::default());
    }
}
