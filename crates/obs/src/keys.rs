//! The metric vocabulary: every metric the system records, registered by
//! static key in one fixed table.
//!
//! A fixed schema is what makes the registry lock-free: a [`Metric`] is an
//! index into preallocated atomic slots, so the record path is an array
//! access plus a handful of `fetch_add`s — no hashing, no locking, no
//! registration race. New subsystem metrics are added here, in one place,
//! and a unit test guards name uniqueness and JSON-safety.

/// What a metric slot stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` sum ([`crate::Registry::add`]).
    Counter,
    /// Last-write-wins `i64` level ([`crate::Registry::gauge_set`]).
    Gauge,
    /// Fixed-bucket distribution of `u64` samples
    /// ([`crate::Registry::observe`]).
    Histogram,
}

/// Which report section a metric belongs to.
///
/// The split encodes *what the value is a pure function of*:
///
/// * **Deterministic** — a pure function of the workload. Byte-identical at
///   any thread count *and* across run assemblies (fresh, checkpoint-resumed,
///   shard-merged): these are the bytes compared by the determinism gates.
/// * **Assembly** — a pure function of (workload, run assembly). Still
///   byte-identical at any thread count, but legitimately different between
///   a fresh run, a resume (restored cells skip plan compilation), and a
///   shard merge (each shard process compiles its own plans). Plan-cache and
///   checkpoint accounting live here.
/// * **Volatile** — wall-clock timings and scheduler shape; varies run to
///   run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Pure function of the workload.
    Deterministic,
    /// Pure function of (workload, run assembly).
    Assembly,
    /// Varies run to run (timings, scheduler shape).
    Volatile,
}

/// Static description of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Dotted static key, e.g. `engine.op.scan.rows`. Keys contain only
    /// `[a-z0-9._]`, so they embed into JSON without escaping.
    pub name: &'static str,
    /// Slot kind.
    pub kind: MetricKind,
    /// Upper bucket bounds (inclusive) for histograms; empty otherwise.
    /// Samples above the last bound land in an overflow bucket.
    pub buckets: &'static [u64],
    /// Report section ([`MetricClass`]).
    pub class: MetricClass,
}

/// Bucket bounds for row-count distributions (per-operator work).
pub const ROWS_BUCKETS: &[u64] =
    &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536];

/// Bucket bounds for statement-level work totals (steps, join rows).
pub const WORK_BUCKETS: &[u64] =
    &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576, 16_777_216];

/// Bucket bounds for percentage distributions (selection-vector density).
pub const PCT_BUCKETS: &[u64] = &[5, 10, 25, 50, 75, 90, 100];

/// Bucket bounds for wall-clock nanosecond samples.
pub const NANOS_BUCKETS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

macro_rules! define_metrics {
    ($($(#[$doc:meta])* $variant:ident => $name:literal, $kind:ident, $buckets:expr, $class:ident;)*) => {
        /// Every registered metric, by static key (see [`SPECS`]).
        ///
        /// The discriminant is the metric's slot index in the registry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $($(#[$doc])* $variant,)*
        }

        /// The full metric table, indexed by `Metric as usize`.
        pub const SPECS: &[MetricSpec] = &[
            $(MetricSpec {
                name: $name,
                kind: MetricKind::$kind,
                buckets: $buckets,
                class: MetricClass::$class,
            },)*
        ];

        impl Metric {
            /// Every metric, in registration order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];
        }
    };
}

define_metrics! {
    // ---- engine: compiled plans and the plan cache -----------------------
    // Plan-cache accounting is *assembly*-classified: totals are pure
    // functions of the lookup sequence (identical at any thread count), but
    // a checkpoint resume skips lookups for restored cells and a shard
    // merge sums independent caches, so the values legitimately differ
    // across run assemblies while everything deterministic stays identical.
    /// Statements lowered to a `CompiledPlan` (cache misses compile).
    EnginePlanCompile => "engine.plan.compile", Counter, &[], Assembly;
    /// Plan-cache lookups served from a cached plan.
    EnginePlanCacheHit => "engine.plan.cache_hit", Counter, &[], Assembly;
    /// Plan-cache lookups that had to compile.
    EnginePlanCacheMiss => "engine.plan.cache_miss", Counter, &[], Assembly;
    /// Plans evicted from a bounded cache (FIFO order).
    EnginePlanCacheEviction => "engine.plan.cache_eviction", Counter, &[], Assembly;

    // ---- engine: per-statement execution and budgets ---------------------
    /// Statements executed (interpreter or compiled plan).
    EngineExecStatements => "engine.exec.statements", Counter, &[], Deterministic;
    /// Cooperative step budget consumed per statement.
    EngineExecSteps => "engine.exec.steps", Histogram, WORK_BUCKETS, Deterministic;
    /// Join build/probe budget consumed per statement.
    EngineExecJoinRows => "engine.exec.join_rows", Histogram, WORK_BUCKETS, Deterministic;
    /// Executions aborted by an `ExecLimits` budget.
    EngineLimitsExhausted => "engine.limits.exhausted", Counter, &[], Deterministic;
    /// Uncorrelated subquery evaluations answered from the per-execution
    /// memo, their recorded budget charges absorbed in one step.
    EngineExecSubqueryReplays => "engine.exec.subquery_replays", Counter, &[], Deterministic;

    // ---- engine: per-operator work ---------------------------------------
    /// Rows produced per base-table / view / derived-table scan.
    EngineOpScanRows => "engine.op.scan.rows", Histogram, ROWS_BUCKETS, Deterministic;
    /// Rows produced per join (hash or nested loop).
    EngineOpJoinRows => "engine.op.join.rows", Histogram, ROWS_BUCKETS, Deterministic;
    /// Rows surviving each WHERE filter.
    EngineOpFilterRows => "engine.op.filter.rows", Histogram, ROWS_BUCKETS, Deterministic;
    /// Groups formed per GROUP BY (or 1 for a global aggregate).
    EngineOpGroupUnits => "engine.op.group.units", Histogram, ROWS_BUCKETS, Deterministic;
    /// Rows sorted per ORDER BY.
    EngineOpSortRows => "engine.op.sort.rows", Histogram, ROWS_BUCKETS, Deterministic;
    /// Rows projected per query block.
    EngineOpProjectRows => "engine.op.project.rows", Histogram, ROWS_BUCKETS, Deterministic;

    // ---- engine: vectorized executor -------------------------------------
    /// Column batches processed by the vectorized executor (all operators).
    EngineVecBatches => "engine.vec.batches", Counter, &[], Deterministic;
    /// Batches consumed by vectorized base-table scans.
    EngineOpScanBatches => "engine.op.scan.batches", Counter, &[], Deterministic;
    /// Batches evaluated by vectorized WHERE filters.
    EngineOpFilterBatches => "engine.op.filter.batches", Counter, &[], Deterministic;
    /// Batches probed by vectorized hash joins.
    EngineOpJoinBatches => "engine.op.join.batches", Counter, &[], Deterministic;
    /// Selection-vector density per filter batch (surviving rows as a
    /// percentage of batch rows, 0–100).
    EngineVecSelectivityPct => "engine.vec.selectivity_pct", Histogram, PCT_BUCKETS, Deterministic;
    /// Dictionary entries per string column touched by a vectorized scan.
    EngineVecDictEntries => "engine.vec.dict.entries", Histogram, ROWS_BUCKETS, Deterministic;
    /// Query blocks executed as a fused scan→filter→tail pipeline (a
    /// selection vector carried between operators instead of a
    /// materialized intermediate relation).
    EngineVecFusedPipelines => "engine.vec.fused_pipelines", Counter, &[], Deterministic;
    /// Buffer requests served by the per-execution `BatchPool` from a
    /// buffer recycled earlier in the same execution.
    EngineVecPoolHits => "engine.vec.pool.hits", Counter, &[], Deterministic;
    /// Buffer requests the per-execution `BatchPool` could not serve from
    /// its own recycle list (a pure function of the workload: whether the
    /// backing memory came from the thread-local stash or a fresh malloc
    /// is deliberately *not* distinguished, so the count stays identical
    /// at any thread count).
    EngineVecPoolAllocs => "engine.vec.pool.allocs", Counter, &[], Deterministic;
    /// Rows processed by dictionary-code kernels (predicates, join keys,
    /// and GROUP BY keys evaluated on `u32` codes without touching string
    /// data in the hot loop).
    EngineVecDictKernelRows => "engine.vec.dict_kernel_rows", Counter, &[], Deterministic;

    // ---- llm: resilience middleware --------------------------------------
    /// Grid cells planned by the resilience pre-pass.
    LlmCellsPlanned => "llm.cells.planned", Counter, &[], Deterministic;
    /// Cells skipped because the model's breaker was open.
    LlmCellsSkipped => "llm.cells.skipped", Counter, &[], Deterministic;
    /// Cells that burned every retry on transient faults.
    LlmCellsExhausted => "llm.cells.exhausted", Counter, &[], Deterministic;
    /// Simulated API attempts across all cells.
    LlmResilienceAttempts => "llm.resilience.attempts", Counter, &[], Deterministic;
    /// Retries (attempts beyond each cell's first).
    LlmResilienceRetries => "llm.resilience.retries", Counter, &[], Deterministic;
    /// Total simulated backoff wait, in milliseconds.
    LlmResilienceBackoffMs => "llm.resilience.backoff_ms", Counter, &[], Deterministic;
    /// Circuit-breaker trips (Closed/HalfOpen → Open).
    LlmBreakerTrips => "llm.breaker.trips", Counter, &[], Deterministic;
    /// Breaker cooldown expiries (Open → HalfOpen).
    LlmBreakerHalfOpen => "llm.breaker.half_open", Counter, &[], Deterministic;
    /// Breaker recoveries (HalfOpen → Closed on a successful probe).
    LlmBreakerClose => "llm.breaker.close", Counter, &[], Deterministic;
    /// Timeout faults drawn.
    LlmFaultsTimeout => "llm.faults.timeout", Counter, &[], Deterministic;
    /// Rate-limit faults drawn.
    LlmFaultsRateLimit => "llm.faults.rate_limit", Counter, &[], Deterministic;
    /// Truncated-payload faults drawn.
    LlmFaultsTruncated => "llm.faults.truncated", Counter, &[], Deterministic;
    /// Garbage-payload faults drawn.
    LlmFaultsGarbage => "llm.faults.garbage", Counter, &[], Deterministic;
    /// Client-panic faults drawn.
    LlmFaultsPanic => "llm.faults.panic", Counter, &[], Deterministic;

    // ---- core: scheduler -------------------------------------------------
    /// Work items completed by the scheduler.
    CoreSchedulerItems => "core.scheduler.items", Counter, &[], Deterministic;
    /// Worker threads used by the last scheduled run.
    CoreSchedulerWorkers => "core.scheduler.workers", Gauge, &[], Volatile;
    /// Items still unclaimed at the most recent chunk claim.
    CoreSchedulerQueueDepth => "core.scheduler.queue_depth", Gauge, &[], Volatile;
    /// Chunks claimed from the shared cursor.
    CoreSchedulerChunksClaimed => "core.scheduler.chunks_claimed", Counter, &[], Volatile;
    /// Chunks claimed by a worker beyond its first (work stealing).
    CoreSchedulerStealChunks => "core.scheduler.steal_chunks", Counter, &[], Volatile;
    /// Wall time per scheduled item, in nanoseconds.
    CoreSchedulerItemWallNs => "core.scheduler.item_wall_ns", Histogram, NANOS_BUCKETS, Volatile;

    // ---- serve: admission control and batching ---------------------------
    // Request/shed/batch accounting is *deterministic*-classified under the
    // serve layer's `--serial` contract: with a simulated clock and a fixed
    // poll order these counters are pure functions of (workload, queue
    // depth, batch cap), identical at any fan-out thread count — they are
    // part of the bytes the serve determinism gates compare. In wall-clock
    // concurrent mode shed placement depends on arrival timing, so the
    // byte-compare gates only ever run serially (DESIGN.md §11).
    /// Requests admitted into the bounded queue.
    ServeRequests => "serve.requests", Counter, &[], Deterministic;
    /// Requests shed with a typed `Overloaded` response (queue full).
    ServeShed => "serve.shed", Counter, &[], Deterministic;
    /// Requests refused because the server was draining.
    ServeDrainRefused => "serve.drain_refused", Counter, &[], Deterministic;
    /// Responses delivered (every admitted request produces exactly one).
    ServeResponses => "serve.responses", Counter, &[], Deterministic;
    /// Responses carrying a typed error (engine, tenant, fault, internal).
    ServeErrors => "serve.errors", Counter, &[], Deterministic;
    /// Batches popped from the admission queue by a worker shard.
    ServeBatches => "serve.batches", Counter, &[], Deterministic;
    /// Requests per popped batch.
    ServeBatchSize => "serve.batch.size", Histogram, ROWS_BUCKETS, Deterministic;
    /// Faults injected into request execution by the serve fault profile.
    ServeFaultsInjected => "serve.faults.injected", Counter, &[], Deterministic;

    // ---- serve: queue shape and latency (wall clock) ---------------------
    /// Admission-queue occupancy after the most recent admit/pop.
    ServeQueueDepth => "serve.queue.depth", Gauge, &[], Volatile;
    /// High-water admission-queue occupancy this run.
    ServeQueueHighWater => "serve.queue.high_water", Gauge, &[], Volatile;
    /// Requests popped but not yet answered.
    ServeInflight => "serve.inflight", Gauge, &[], Volatile;
    /// Wall time spent executing one request, in nanoseconds.
    ServeExecWallNs => "serve.exec.wall_ns", Histogram, NANOS_BUCKETS, Volatile;
    /// Per-tenant plan-cache hit rate (percent) sampled at report time.
    ServeTenantHitRatePct => "serve.tenant.hit_rate_pct", Histogram, PCT_BUCKETS, Volatile;

    // ---- core: checkpoint / resume ---------------------------------------
    /// Grid cells restored from a verified checkpoint record.
    CkptHit => "checkpoint.hit", Counter, &[], Assembly;
    /// Grid cells with no usable checkpoint record (fresh or insufficient).
    CkptMiss => "checkpoint.miss", Counter, &[], Assembly;
    /// Checkpoint records that failed validation (truncated, bit-flipped,
    /// foreign fingerprint) and were quarantined for recompute.
    CkptCorrupt => "checkpoint.corrupt", Counter, &[], Assembly;
    /// Checkpoint records written this run.
    CkptWritten => "checkpoint.written", Counter, &[], Assembly;
}

impl Metric {
    /// The metric's static description.
    pub fn spec(self) -> &'static MetricSpec {
        &SPECS[self as usize]
    }

    /// The metric's static key.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Resolve a metric by its static key (linear scan — intended for
    /// cold paths like checkpoint restore and manifest merge, never for
    /// the record hot path).
    pub fn by_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn table_is_consistent() {
        assert_eq!(Metric::ALL.len(), SPECS.len());
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "discriminant mismatch for {}", m.name());
        }
    }

    #[test]
    fn names_are_unique_and_json_safe() {
        let mut seen = BTreeSet::new();
        for spec in SPECS {
            assert!(seen.insert(spec.name), "duplicate metric key {}", spec.name);
            assert!(
                spec.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "key {} needs JSON escaping",
                spec.name
            );
        }
    }

    #[test]
    fn histograms_have_sorted_bounds_and_scalars_have_none() {
        for spec in SPECS {
            match spec.kind {
                MetricKind::Histogram => {
                    assert!(!spec.buckets.is_empty(), "{} has no buckets", spec.name);
                    assert!(
                        spec.buckets.windows(2).all(|w| w[0] < w[1]),
                        "{} bounds not strictly increasing",
                        spec.name
                    );
                }
                _ => assert!(spec.buckets.is_empty(), "{} is not a histogram", spec.name),
            }
        }
    }

    #[test]
    fn by_name_round_trips() {
        for m in Metric::ALL {
            assert_eq!(Metric::by_name(m.name()), Some(*m));
        }
        assert_eq!(Metric::by_name("no.such.metric"), None);
    }

    #[test]
    fn serve_admission_metrics_are_deterministic_and_shape_is_volatile() {
        // The serve determinism gates byte-compare the deterministic
        // section, so the admission counters must live there and the
        // wall-clock shape must not.
        for name in [
            "serve.requests",
            "serve.shed",
            "serve.drain_refused",
            "serve.responses",
            "serve.errors",
            "serve.batches",
            "serve.batch.size",
            "serve.faults.injected",
        ] {
            let m = Metric::by_name(name).unwrap();
            assert_eq!(m.spec().class, MetricClass::Deterministic, "{name}");
        }
        for name in [
            "serve.queue.depth",
            "serve.queue.high_water",
            "serve.inflight",
            "serve.exec.wall_ns",
            "serve.tenant.hit_rate_pct",
        ] {
            let m = Metric::by_name(name).unwrap();
            assert_eq!(m.spec().class, MetricClass::Volatile, "{name}");
        }
    }

    #[test]
    fn engine_execution_metrics_are_deterministic() {
        // Per-statement work is a pure function of the statement, so the
        // grid and serve determinism gates byte-compare it.
        for name in [
            "engine.exec.statements",
            "engine.exec.steps",
            "engine.exec.join_rows",
            "engine.exec.subquery_replays",
            "engine.limits.exhausted",
        ] {
            let m = Metric::by_name(name).unwrap();
            assert_eq!(m.spec().class, MetricClass::Deterministic, "{name}");
        }
    }

    #[test]
    fn plan_cache_and_checkpoint_metrics_are_assembly_classified() {
        for name in [
            "engine.plan.compile",
            "engine.plan.cache_hit",
            "engine.plan.cache_miss",
            "engine.plan.cache_eviction",
            "checkpoint.hit",
            "checkpoint.miss",
            "checkpoint.corrupt",
            "checkpoint.written",
        ] {
            let m = Metric::by_name(name).unwrap();
            assert_eq!(m.spec().class, MetricClass::Assembly, "{name}");
        }
    }
}
