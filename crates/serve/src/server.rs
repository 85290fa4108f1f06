//! The server core: admission control, batching, dispatch, and drain.
//!
//! One bounded queue fronts a pool of worker shards (or, in `--serial`
//! mode, a caller-driven loop: [`Server::poll_batch`] steps, or the
//! blocking [`Server::run_until_drained`] reactor). Admission is
//! all-or-nothing: a request either enters the queue or is answered
//! immediately with a typed [`ServeError::Overloaded`] /
//! [`ServeError::Draining`] — the queue never grows past its configured
//! depth, which is the bounded-memory invariant the overload test asserts.
//!
//! # Determinism contract
//!
//! In serial mode the server is a deterministic state machine: batches are
//! popped in admission order, executed with the deterministic scheduler
//! (task ids keyed by request tag, so results and telemetry are identical
//! at any fan-out thread count), and replies are delivered in batch order.
//! Every response is a pure function of `(tenant state, request, seed)`,
//! so a fixed submission schedule replays byte-identical transcripts — the
//! contract the load-replay tests hold at threads 1/2/8. In concurrent
//! mode the same counters are recorded, but shed placement depends on
//! arrival timing; the byte-compare gates only ever run serially.

use crate::protocol::{Request, Response, ServeError, TenantStats};
use crate::tenant::{rows_response, Tenant, TenantSpec};
use snails_core::scheduler;
use snails_llm::faults::{self, FaultKind, FaultProfile};
use snails_llm::generate::mix_seed;
use snails_obs::{ClockMode, Metric, ObsCtx, Report};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for simulated inference and fault draws; responses are pure
    /// functions of `(tenant state, request, seed)`.
    pub seed: u64,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_depth: usize,
    /// Most requests a worker pops per batch.
    pub batch_max: usize,
    /// Worker shards (concurrent mode) or fan-out width per batch (serial
    /// mode). `0` means available parallelism.
    pub threads: usize,
    /// Deterministic mode: no worker threads; the owner drives execution
    /// via [`Server::poll_batch`], [`Server::run_until_drained`] or
    /// [`Server::drain`].
    pub serial: bool,
    /// Fault injection for request execution ([`FaultProfile::NONE`]
    /// disables the fault path entirely).
    pub fault_profile: FaultProfile,
    /// Collect telemetry (queue gauges, latency histograms, admission
    /// counters) into an [`ObsCtx`], surfaced by
    /// [`Server::telemetry_report`].
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 2024,
            queue_depth: 4096,
            batch_max: 64,
            threads: 0,
            serial: false,
            fault_profile: FaultProfile::NONE,
            telemetry: false,
        }
    }
}

/// Server-side retry budget for transient injected faults (attempts beyond
/// the first) before a request answers [`ServeError::Transient`].
const FAULT_RETRIES: u32 = 2;

/// A boxed completion: called exactly once with the request's response.
pub type Reply = Box<dyn FnOnce(Response) + Send>;

/// Where a submitted request went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Entered the queue; the reply fires when a worker answers it.
    Queued,
    /// Queue full — the reply already fired with
    /// [`ServeError::Overloaded`].
    Shed,
    /// Server draining — the reply already fired with
    /// [`ServeError::Draining`].
    Refused,
}

struct Job {
    request: Request,
    reply: Reply,
}

struct QueueState {
    queue: VecDeque<Job>,
    accepting: bool,
    in_flight: usize,
    high_water: usize,
}

/// The multi-tenant server.
pub struct Server {
    cfg: ServeConfig,
    tenants: BTreeMap<String, Tenant>,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    obs: Option<Arc<ObsCtx>>,
    responses: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Build the server and, unless `cfg.serial`, spawn its worker shards.
    pub fn start(cfg: ServeConfig, tenant_specs: Vec<TenantSpec>) -> Arc<Server> {
        if !cfg.fault_profile.is_inert() {
            // Injected panics are expected control flow under a fault
            // profile; keep them off stderr (real panics still print).
            faults::silence_injected_panics();
        }
        let mut tenants = BTreeMap::new();
        for spec in tenant_specs {
            let tenant = Tenant::new(spec);
            tenants.insert(tenant.name.clone(), tenant);
        }
        let obs = cfg.telemetry.then(|| Arc::new(ObsCtx::new(ClockMode::Sim)));
        let server = Arc::new(Server {
            cfg,
            tenants,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                in_flight: 0,
                high_water: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            obs,
            responses: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        if !server.cfg.serial {
            let shards = effective_threads(server.cfg.threads);
            let mut handles = Vec::with_capacity(shards);
            for _ in 0..shards {
                let s = Arc::clone(&server);
                handles.push(std::thread::spawn(move || s.worker_loop()));
            }
            *server.workers.lock().unwrap() = handles;
        }
        server
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Look up a tenant by name.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// Per-tenant counter snapshots, in tenant-name order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants.values().map(Tenant::stats).collect()
    }

    /// Responses delivered to admitted requests so far.
    pub fn responses_delivered(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
    }

    /// Highest queue occupancy observed so far.
    pub fn high_water(&self) -> usize {
        self.state.lock().unwrap().high_water
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    // -- admission ----------------------------------------------------------

    /// Submit a request. Either it queues (the reply fires later, exactly
    /// once) or the reply fires *before this returns* with a typed shed /
    /// drain error — no request is ever silently dropped.
    pub fn submit(&self, request: Request, reply: Reply) -> Admission {
        let tag = request.tag();
        let mut st = self.state.lock().unwrap();
        if !st.accepting {
            drop(st);
            self.obs_add(Metric::ServeDrainRefused, 1);
            reply(Response::Err { tag, error: ServeError::Draining });
            return Admission::Refused;
        }
        let depth = self.cfg.queue_depth.max(1);
        if st.queue.len() >= depth {
            drop(st);
            self.obs_add(Metric::ServeShed, 1);
            if let Some(t) = request.tenant().and_then(|n| self.tenants.get(n)) {
                t.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            reply(Response::Err { tag, error: ServeError::Overloaded { depth: depth as u32 } });
            return Admission::Shed;
        }
        st.queue.push_back(Job { request, reply });
        let occupancy = st.queue.len();
        st.high_water = st.high_water.max(occupancy);
        let high_water = st.high_water;
        drop(st);
        self.obs_add(Metric::ServeRequests, 1);
        self.obs_gauge(Metric::ServeQueueDepth, occupancy as i64);
        self.obs_gauge(Metric::ServeQueueHighWater, high_water as i64);
        self.work_cv.notify_one();
        Admission::Queued
    }

    // -- execution ----------------------------------------------------------

    /// Serial mode: pop and execute at most one batch, delivering its
    /// replies in admission order. Returns the number of requests answered
    /// (0 when the queue was empty). Intra-batch execution fans out through
    /// the deterministic scheduler, so results and deterministic telemetry
    /// are identical at any `threads` setting.
    pub fn poll_batch(&self) -> usize {
        let (requests, replies) = {
            let mut st = self.state.lock().unwrap();
            if st.queue.is_empty() {
                return 0;
            }
            self.pop_batch_locked(&mut st)
        };
        self.run_batch(requests, replies)
    }

    fn pop_batch_locked(&self, st: &mut QueueState) -> (Vec<Request>, Vec<Reply>) {
        let n = st.queue.len().min(self.cfg.batch_max.max(1));
        let mut requests = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        for job in st.queue.drain(..n) {
            requests.push(job.request);
            replies.push(job.reply);
        }
        st.in_flight += n;
        self.obs_gauge(Metric::ServeQueueDepth, st.queue.len() as i64);
        self.obs_gauge(Metric::ServeInflight, st.in_flight as i64);
        (requests, replies)
    }

    fn run_batch(&self, requests: Vec<Request>, replies: Vec<Reply>) -> usize {
        let n = requests.len();
        self.obs_add(Metric::ServeBatches, 1);
        self.obs_observe(Metric::ServeBatchSize, n as u64);
        let responses: Vec<Response> = if self.cfg.serial && n > 1 {
            scheduler::run_ordered_observed_keyed(
                &requests,
                effective_threads(self.cfg.threads),
                self.obs.as_ref(),
                |_, r| r.tag(),
                |_, r| self.execute(r),
                // `execute` catches panics itself; this is unreachable in
                // practice but keeps the batch total if it ever fires.
                |_, r, _| Response::Err { tag: r.tag(), error: ServeError::Internal },
            )
        } else {
            requests.iter().map(|r| self.execute_as_task(r)).collect()
        };
        for (resp, reply) in responses.into_iter().zip(replies) {
            self.responses.fetch_add(1, Ordering::Relaxed);
            self.obs_add(Metric::ServeResponses, 1);
            if resp.is_error() {
                self.obs_add(Metric::ServeErrors, 1);
            }
            reply(resp);
        }
        let mut st = self.state.lock().unwrap();
        st.in_flight -= n;
        self.obs_gauge(Metric::ServeInflight, st.in_flight as i64);
        if st.queue.is_empty() && st.in_flight == 0 {
            self.idle_cv.notify_all();
        }
        n
    }

    /// Block until a batch is queued and pop it, or return `None` once a
    /// drain has left the queue empty.
    fn next_batch(&self) -> Option<(Vec<Request>, Vec<Reply>)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.queue.is_empty() {
                return Some(self.pop_batch_locked(&mut st));
            }
            if !st.accepting {
                return None;
            }
            st = self.work_cv.wait(st).unwrap();
        }
    }

    /// Run batches on the calling thread as they are queued, sleeping on
    /// the queue's condvar in between, and return once a drain leaves the
    /// queue empty. Every worker shard runs this loop; in serial mode it
    /// is the reactor `snails serve --serial` runs on its main thread.
    /// It installs no obs scope, so serial telemetry matches
    /// [`Server::poll_batch`]'s.
    pub fn run_until_drained(&self) {
        while let Some((requests, replies)) = self.next_batch() {
            self.run_batch(requests, replies);
        }
    }

    fn worker_loop(self: Arc<Server>) {
        let _scope = self.obs.as_ref().map(snails_obs::scope);
        self.run_until_drained();
    }

    /// Execute one request inside an observability task labelled by its
    /// tag (the concurrent path; the serial path gets its task wrapper
    /// from the scheduler).
    fn execute_as_task(&self, request: &Request) -> Response {
        if self.obs.is_some() {
            snails_obs::task(request.tag(), || self.execute(request))
        } else {
            self.execute(request)
        }
    }

    /// Execute one request to its response. Panics — injected or real —
    /// are isolated to a typed [`ServeError::Internal`]: a server must
    /// never let one request take down its shard or hang its client.
    pub fn execute(&self, request: &Request) -> Response {
        let started = Instant::now();
        let resp = match catch_unwind(AssertUnwindSafe(|| self.dispatch(request))) {
            Ok(resp) => resp,
            Err(_) => Response::Err { tag: request.tag(), error: ServeError::Internal },
        };
        self.obs_observe(Metric::ServeExecWallNs, started.elapsed().as_nanos() as u64);
        resp
    }

    fn dispatch(&self, request: &Request) -> Response {
        let tag = request.tag();
        match request {
            Request::Ping { .. } => Response::Pong { tag },
            Request::Stats => Response::StatsReport { tenants: self.tenant_stats() },
            // Transports intercept Shutdown before admission (a drain from
            // inside a worker would deadlock on itself); a queued one just
            // reports the running response count.
            Request::Shutdown => {
                Response::Goodbye { responses: self.responses.load(Ordering::Relaxed) }
            }
            Request::Sql { tenant, database, sql, .. } => {
                let Some(t) = self.tenants.get(tenant) else {
                    return Response::Err { tag, error: ServeError::UnknownTenant };
                };
                t.counters.requests.fetch_add(1, Ordering::Relaxed);
                let resp = isolated(tag, || {
                    let outcome = match self.draw_fault(&t.name, tag) {
                        Some(kind) if kind.is_transient() => {
                            Err(ServeError::Transient(kind.name().to_owned()))
                        }
                        Some(FaultKind::Panic) => faults::injected_panic(),
                        Some(kind) => {
                            // Truncated / Garbage: the statement text
                            // arrives damaged, exactly like a corrupted
                            // completion — it then fails (or very
                            // occasionally still parses) deterministically
                            // downstream.
                            let seed = self.fault_seed(&t.name, tag);
                            t.run_sql(database, &faults::corrupt_completion(kind, sql, seed))
                        }
                        None => t.run_sql(database, sql),
                    };
                    match outcome {
                        Ok(rs) => rows_response(tag, &rs),
                        Err(e) => Response::Err { tag, error: e },
                    }
                });
                self.count_outcome(t, &resp);
                resp
            }
            Request::Ask { tenant, database, question_id, model, .. } => {
                let Some(t) = self.tenants.get(tenant) else {
                    return Response::Err { tag, error: ServeError::UnknownTenant };
                };
                t.counters.requests.fetch_add(1, Ordering::Relaxed);
                let resp = isolated(tag, || {
                    let outcome = match self.draw_fault(&t.name, tag) {
                        Some(kind) if kind.is_transient() => {
                            Err(ServeError::Transient(kind.name().to_owned()))
                        }
                        Some(FaultKind::Panic) => faults::injected_panic(),
                        Some(_) => {
                            // A corrupted completion is an unparseable
                            // answer — the paper's unusable-generation
                            // tail, answered as a well-formed parse
                            // failure rather than an error.
                            Ok(Response::Answer {
                                tag,
                                sql: String::new(),
                                parse_ok: false,
                                set_matched: false,
                                exec_correct: false,
                                recall_permille: u16::MAX,
                            })
                        }
                        None => t.ask(database, *question_id, *model, self.cfg.seed, tag),
                    };
                    match outcome {
                        Ok(resp) => resp,
                        Err(e) => Response::Err { tag, error: e },
                    }
                });
                self.count_outcome(t, &resp);
                resp
            }
        }
    }

    fn count_outcome(&self, tenant: &Tenant, resp: &Response) {
        let slot = if resp.is_error() { &tenant.counters.errors } else { &tenant.counters.ok };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    fn fault_seed(&self, tenant: &str, tag: u64) -> u64 {
        mix_seed(&["serve-fault", tenant], &[self.cfg.seed, tag])
    }

    /// Terminal injected fault for this request, if any — a pure function
    /// of `(seed, tenant, tag)`, so it is identical across transports,
    /// thread counts, and replays.
    fn draw_fault(&self, tenant: &str, tag: u64) -> Option<FaultKind> {
        if self.cfg.fault_profile.is_inert() {
            return None;
        }
        let (kind, _attempts) = self
            .cfg
            .fault_profile
            .draw_terminal(self.fault_seed(tenant, tag), FAULT_RETRIES);
        if kind.is_some() {
            self.obs_add(Metric::ServeFaultsInjected, 1);
        }
        kind
    }

    // -- shutdown -----------------------------------------------------------

    /// Stop admitting, finish everything queued and in flight, and return
    /// once the server is idle. New submissions during and after the drain
    /// answer [`ServeError::Draining`]. In serial mode the calling thread
    /// runs what is still queued; either way it then waits out batches
    /// other threads (workers, or a serial reactor) have in flight.
    pub fn drain(&self) {
        {
            let mut st = self.state.lock().unwrap();
            st.accepting = false;
        }
        self.work_cv.notify_all();
        if self.cfg.serial {
            while self.poll_batch() > 0 {}
        }
        let mut st = self.state.lock().unwrap();
        while !(st.queue.is_empty() && st.in_flight == 0) {
            st = self.idle_cv.wait(st).unwrap();
        }
    }

    /// [`Server::drain`], then join the worker shards. Returns the total
    /// responses delivered (the [`Response::Goodbye`] payload).
    pub fn shutdown(&self) -> u64 {
        self.drain();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.responses.load(Ordering::Relaxed)
    }

    // -- telemetry ----------------------------------------------------------

    /// Snapshot the server's telemetry report (`None` unless
    /// [`ServeConfig::telemetry`]). Samples each tenant's current
    /// plan-cache hit rate into the volatile section as a side effect, so
    /// call it once, at the end of a run.
    pub fn telemetry_report(&self) -> Option<Report> {
        let ctx = self.obs.as_ref()?;
        for t in self.tenants.values() {
            let s = t.stats();
            let lookups = s.cache_hits + s.cache_misses;
            if let Some(rate) = (s.cache_hits * 100).checked_div(lookups) {
                ctx.registry.observe(Metric::ServeTenantHitRatePct, rate);
            }
        }
        Some(ctx.report())
    }

    fn obs_add(&self, m: Metric, n: u64) {
        if let Some(ctx) = &self.obs {
            ctx.registry.add(m, n);
        }
    }

    fn obs_gauge(&self, m: Metric, v: i64) {
        if let Some(ctx) = &self.obs {
            ctx.registry.gauge_set(m, v);
        }
    }

    fn obs_observe(&self, m: Metric, v: u64) {
        if let Some(ctx) = &self.obs {
            ctx.registry.observe(m, v);
        }
    }
}

/// Run `f` with panic isolation: an unwinding handler — an injected
/// [`FaultKind::Panic`] or a genuine bug — becomes a typed
/// [`ServeError::Internal`] response instead of taking down the shard,
/// *inside* the per-tenant accounting so counters still reconcile exactly.
fn isolated(tag: u64, f: impl FnOnce() -> Response) -> Response {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(resp) => resp,
        Err(_) => Response::Err { tag, error: ServeError::Internal },
    }
}

fn effective_threads(configured: usize) -> usize {
    if configured == 0 {
        scheduler::available_threads()
    } else {
        configured
    }
}
