//! Resilience middleware around [`crate::run_workflow`]: bounded retries
//! with exponential backoff + deterministic jitter on a *simulated* clock,
//! a per-model circuit breaker, and graceful degradation into failure
//! records.
//!
//! # Determinism under parallelism
//!
//! A circuit breaker shared across grid cells is execution-order dependent,
//! which would break the harness contract that records are bit-identical at
//! any thread count. The middleware therefore splits each cell into two
//! phases:
//!
//! 1. **Planning** ([`Planner::plan_cell`], serial, grid order): walks the
//!    retry loop on the simulated clock, drawing faults (pure functions of
//!    `(cell seed, attempt)`), advancing breaker state, and emitting a
//!    [`CellPlan`] — cheap pure-RNG work, no inference.
//! 2. **Execution** ([`run_cell`], parallel, any order): runs the expensive
//!    simulated inference for cells whose plan says `Proceed`, applies any
//!    planned payload corruption, and raises the planned panic for `Panic`
//!    cells so the scheduler's isolation path is genuinely exercised.
//!
//! Since phase 1 is serial and phase 2 is a pure function of `(plan, cell
//! inputs)`, the combined output is independent of worker interleaving.

use crate::faults::{self, FailureKind, FaultKind, FaultProfile};
use crate::generate::{mix_seed, GoldQuery};
use crate::schema_view::SchemaView;
use crate::workflows::{run_workflow_gold, Workflow, WorkflowResult};
use snails_data::{GoldPair, SnailsDatabase};
use snails_obs::Metric as Obs;
use std::collections::BTreeMap;

/// The telemetry counter for a drawn fault.
fn fault_metric(kind: FaultKind) -> Obs {
    match kind {
        FaultKind::Timeout => Obs::LlmFaultsTimeout,
        FaultKind::RateLimit => Obs::LlmFaultsRateLimit,
        FaultKind::Truncated => Obs::LlmFaultsTruncated,
        FaultKind::Garbage => Obs::LlmFaultsGarbage,
        FaultKind::Panic => Obs::LlmFaultsPanic,
    }
}

/// Bounded-retry policy with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per cell (first try + retries).
    pub max_attempts: u32,
    /// Backoff before retry #1, in simulated milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in simulated milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter amplitude as a fraction of the backoff (`0.25` ⇒ ±25%).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_ms: 200, max_backoff_ms: 5_000, jitter: 0.25 }
    }
}

impl RetryPolicy {
    /// Simulated backoff before the retry following `failed_attempts`
    /// failures: `base · 2^(failed_attempts − 1)` capped at the ceiling,
    /// scaled by a deterministic jitter factor in `[1 − jitter, 1 + jitter)`
    /// drawn from `(seed, failed_attempts)`.
    pub fn backoff_ms(&self, failed_attempts: u32, seed: u64) -> u64 {
        if failed_attempts == 0 {
            return 0;
        }
        let exp = failed_attempts.saturating_sub(1).min(32);
        let raw = self.base_backoff_ms.saturating_mul(1u64 << exp).min(self.max_backoff_ms);
        let u = faults::unit(mix_seed(&["backoff-jitter"], &[seed, u64::from(failed_attempts)]));
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * u;
        (raw as f64 * factor).round() as u64
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open, in simulated milliseconds.
    pub cooldown_ms: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { failure_threshold: 5, cooldown_ms: 10_000 }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe call is allowed through.
    HalfOpen,
}

/// Per-model circuit breaker on a simulated clock.
///
/// Only *transient* faults (timeout, rate limit) count as failures — they
/// signal vendor distress. Delivered-but-corrupt payloads and panics say
/// nothing about vendor health and leave the breaker alone.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_ms: u64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_ms: 0,
            trips: 0,
        }
    }

    /// Current state (after applying any cooldown transition at `now_ms`).
    pub fn state(&mut self, now_ms: u64) -> BreakerState {
        if self.state == BreakerState::Open && now_ms >= self.open_until_ms {
            self.state = BreakerState::HalfOpen;
            snails_obs::add(Obs::LlmBreakerHalfOpen, 1);
        }
        self.state
    }

    /// Whether a call may proceed at `now_ms` (transitions Open → HalfOpen
    /// when the cooldown has elapsed).
    pub fn allows(&mut self, now_ms: u64) -> bool {
        self.state(now_ms) != BreakerState::Open
    }

    /// Record a successful (or at least delivered) call.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            snails_obs::add(Obs::LlmBreakerClose, 1);
        }
        self.state = BreakerState::Closed;
    }

    /// Record a transient failure at `now_ms`. A HalfOpen probe failure
    /// reopens immediately; in Closed, the breaker opens once the
    /// consecutive-failure threshold is met.
    pub fn record_failure(&mut self, now_ms: u64) {
        self.consecutive_failures += 1;
        let reopen = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.policy.failure_threshold,
            BreakerState::Open => false,
        };
        if reopen {
            self.state = BreakerState::Open;
            self.open_until_ms = now_ms + self.policy.cooldown_ms;
            self.trips += 1;
            snails_obs::add(Obs::LlmBreakerTrips, 1);
        }
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Simulated wall-clock costs of API interactions, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCosts {
    /// A completed call.
    pub call_ms: u64,
    /// A call that times out (the full deadline is burned).
    pub timeout_ms: u64,
    /// A rate-limit rejection (fails fast).
    pub rate_limit_ms: u64,
}

impl Default for SimCosts {
    fn default() -> Self {
        SimCosts { call_ms: 80, timeout_ms: 1_000, rate_limit_ms: 50 }
    }
}

/// Everything the resilience layer needs to plan a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Fault rates.
    pub profile: FaultProfile,
    /// Retry/backoff parameters.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Simulated latencies.
    pub costs: SimCosts,
}

/// How a planned cell resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// An attempt completed with a payload; run the real inference
    /// (corrupting the completion if a payload fault fired).
    Proceed {
        /// Payload corruption to apply after inference, if any.
        corruption: Option<FaultKind>,
    },
    /// All retries burned on transient faults (or the breaker opened
    /// mid-cell); no payload was ever delivered.
    Exhausted(FailureKind),
    /// The breaker was already open when the cell started; no attempt made.
    Skipped,
    /// The client panics while handling the response; the scheduler must
    /// isolate it.
    Panic,
}

/// The planned fate of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPlan {
    /// Per-cell fault seed (also drives payload corruption).
    pub seed: u64,
    /// Attempts made (0 for [`CellOutcome::Skipped`]).
    pub attempts: u32,
    /// How the cell resolves.
    pub outcome: CellOutcome,
}

impl CellPlan {
    /// Retries = attempts beyond the first.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// A trivial plan for runs with the fault layer disabled.
    pub fn clean(seed: u64) -> CellPlan {
        CellPlan { seed, attempts: 1, outcome: CellOutcome::Proceed { corruption: None } }
    }
}

/// Serial planning pre-pass: walks cells in grid order, maintaining the
/// simulated clock and one circuit breaker per model.
#[derive(Debug)]
pub struct Planner {
    config: ResilienceConfig,
    clock_ms: u64,
    breakers: BTreeMap<&'static str, CircuitBreaker>,
}

impl Planner {
    /// A planner at simulated time zero with all breakers closed.
    pub fn new(config: ResilienceConfig) -> Self {
        Planner { config, clock_ms: 0, breakers: BTreeMap::new() }
    }

    /// Current simulated time in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Total breaker trips across all models so far.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.values().map(CircuitBreaker::trips).sum()
    }

    /// Plan one cell for `model` (the workflow display name — DIN-SQL and
    /// CodeS count as their own backends) with the given fault seed.
    ///
    /// Must be called serially, in grid order: breaker state and the clock
    /// thread through consecutive calls.
    pub fn plan_cell(&mut self, model: &'static str, cell_seed: u64) -> CellPlan {
        snails_obs::add(Obs::LlmCellsPlanned, 1);
        let config = self.config;
        let breaker = self
            .breakers
            .entry(model)
            .or_insert_with(|| CircuitBreaker::new(config.breaker));
        if !breaker.allows(self.clock_ms) {
            snails_obs::add(Obs::LlmCellsSkipped, 1);
            return CellPlan { seed: cell_seed, attempts: 0, outcome: CellOutcome::Skipped };
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            snails_obs::add(Obs::LlmResilienceAttempts, 1);
            if attempts > 1 {
                snails_obs::add(Obs::LlmResilienceRetries, 1);
            }
            let drawn = config.profile.draw(cell_seed, attempts);
            if let Some(kind) = drawn {
                snails_obs::add(fault_metric(kind), 1);
            }
            match drawn {
                None => {
                    self.clock_ms += config.costs.call_ms;
                    breaker.record_success();
                    return CellPlan {
                        seed: cell_seed,
                        attempts,
                        outcome: CellOutcome::Proceed { corruption: None },
                    };
                }
                Some(kind @ (FaultKind::Truncated | FaultKind::Garbage)) => {
                    // Transport success with a damaged payload: the breaker
                    // sees a delivered call; no retry (a real client cannot
                    // tell garbage from an unfortunate-but-valid answer).
                    self.clock_ms += config.costs.call_ms;
                    breaker.record_success();
                    return CellPlan {
                        seed: cell_seed,
                        attempts,
                        outcome: CellOutcome::Proceed { corruption: Some(kind) },
                    };
                }
                Some(FaultKind::Panic) => {
                    // The response arrived; the client blows up handling it.
                    self.clock_ms += config.costs.call_ms;
                    return CellPlan { seed: cell_seed, attempts, outcome: CellOutcome::Panic };
                }
                Some(kind) => {
                    debug_assert!(kind.is_transient());
                    self.clock_ms += match kind {
                        FaultKind::Timeout => config.costs.timeout_ms,
                        _ => config.costs.rate_limit_ms,
                    };
                    breaker.record_failure(self.clock_ms);
                    let opened = !breaker.allows(self.clock_ms);
                    if attempts >= config.retry.max_attempts || opened {
                        snails_obs::add(Obs::LlmCellsExhausted, 1);
                        return CellPlan {
                            seed: cell_seed,
                            attempts,
                            outcome: CellOutcome::Exhausted(kind.into()),
                        };
                    }
                    let wait_ms = config.retry.backoff_ms(attempts, cell_seed);
                    snails_obs::add(Obs::LlmResilienceBackoffMs, wait_ms);
                    self.clock_ms += wait_ms;
                }
            }
        }
    }
}

/// Outcome of executing one planned cell.
#[derive(Debug, Clone)]
pub enum CellExecution {
    /// Inference ran; `failure` is set when the payload was corrupted.
    Completed {
        /// The (possibly corrupted) workflow result.
        result: WorkflowResult,
        /// Payload-corruption failure, if any.
        failure: Option<FailureKind>,
    },
    /// No usable payload — the cell degrades to a failure record.
    Failed(FailureKind),
}

/// Execute one planned cell: the resilience middleware around
/// [`run_workflow_gold`], on `pair`'s parsed gold query. Pure function of
/// `(plan, cell inputs)` — safe to call from any worker in any order.
///
/// A [`CellOutcome::Panic`] plan genuinely panics (with the
/// [`faults::InjectedPanic`] marker) so the scheduler's per-cell isolation
/// is exercised for real; callers must run under a `catch_unwind` harness.
pub fn run_cell(
    plan: &CellPlan,
    workflow: Workflow,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &GoldPair,
    gold: &GoldQuery,
    global_seed: u64,
) -> CellExecution {
    match plan.outcome {
        CellOutcome::Skipped => CellExecution::Failed(FailureKind::CircuitOpen),
        CellOutcome::Exhausted(kind) => CellExecution::Failed(kind),
        CellOutcome::Panic => faults::injected_panic(),
        CellOutcome::Proceed { corruption } => {
            let mut result = run_workflow_gold(workflow, db, view, pair, gold, global_seed);
            if let Some(kind) = corruption {
                result.inference.raw_sql =
                    faults::corrupt_completion(kind, &result.inference.raw_sql, plan.seed);
            }
            CellExecution::Completed { result, failure: corruption.map(FailureKind::from) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let policy = RetryPolicy { jitter: 0.0, ..Default::default() };
        assert_eq!(policy.backoff_ms(0, 1), 0);
        assert_eq!(policy.backoff_ms(1, 1), 200);
        assert_eq!(policy.backoff_ms(2, 1), 400);
        assert_eq!(policy.backoff_ms(3, 1), 800);
        assert_eq!(policy.backoff_ms(4, 1), 1_600);
        assert_eq!(policy.backoff_ms(5, 1), 3_200);
        assert_eq!(policy.backoff_ms(6, 1), 5_000, "ceiling");
        assert_eq!(policy.backoff_ms(60, 1), 5_000, "huge counts stay capped");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let policy = RetryPolicy::default();
        for seed in 0..200u64 {
            for failed in 1..=6u32 {
                let a = policy.backoff_ms(failed, seed);
                let b = policy.backoff_ms(failed, seed);
                assert_eq!(a, b);
                let nominal = (200u64 << (failed - 1).min(32)).min(5_000) as f64;
                assert!(
                    (a as f64) >= nominal * 0.74 && (a as f64) <= nominal * 1.26,
                    "jittered {a} outside ±25% of {nominal}"
                );
            }
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let policy = BreakerPolicy { failure_threshold: 3, cooldown_ms: 1_000 };
        let mut b = CircuitBreaker::new(policy);
        assert_eq!(b.state(0), BreakerState::Closed);
        b.record_failure(10);
        b.record_failure(20);
        assert!(b.allows(20), "below threshold stays closed");
        b.record_failure(30);
        assert_eq!(b.state(30), BreakerState::Open);
        assert!(!b.allows(500), "open during cooldown");
        assert_eq!(b.trips(), 1);
        // Cooldown elapses → half-open probe allowed.
        assert!(b.allows(1_030));
        assert_eq!(b.state(1_030), BreakerState::HalfOpen);
        // Probe succeeds → closed, count reset.
        b.record_success();
        assert_eq!(b.state(1_031), BreakerState::Closed);
        b.record_failure(1_040);
        assert!(b.allows(1_040), "failure count was reset on close");
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let policy = BreakerPolicy { failure_threshold: 3, cooldown_ms: 1_000 };
        let mut b = CircuitBreaker::new(policy);
        for t in [1, 2, 3] {
            b.record_failure(t);
        }
        assert_eq!(b.state(3), BreakerState::Open);
        assert!(b.allows(2_000));
        b.record_failure(2_000);
        assert_eq!(b.state(2_000), BreakerState::Open, "probe failure reopens");
        assert_eq!(b.trips(), 2);
        assert!(!b.allows(2_500));
    }

    #[test]
    fn inert_profile_plans_every_cell_clean() {
        let mut planner = Planner::new(ResilienceConfig::default());
        for seed in 0..50 {
            let plan = planner.plan_cell("gpt-4o", seed);
            assert_eq!(plan.attempts, 1);
            assert_eq!(plan.outcome, CellOutcome::Proceed { corruption: None });
            assert_eq!(plan.retries(), 0);
        }
        assert_eq!(planner.breaker_trips(), 0);
    }

    #[test]
    fn planning_is_deterministic() {
        let config =
            ResilienceConfig { profile: FaultProfile::FLAKY, ..Default::default() };
        let run = || {
            let mut planner = Planner::new(config);
            (0..2_000u64).map(|s| planner.plan_cell("gpt-4o", s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flaky_planning_produces_retries_and_terminal_failures() {
        let config =
            ResilienceConfig { profile: FaultProfile::FLAKY, ..Default::default() };
        let mut planner = Planner::new(config);
        // Exhaustion needs max_attempts consecutive transient draws in one
        // cell (p ≈ 6.6e-5 under flaky), so sample widely.
        let plans: Vec<CellPlan> =
            (0..200_000u64).map(|s| planner.plan_cell("gpt-4o", s)).collect();
        let retries: u32 = plans.iter().map(CellPlan::retries).sum();
        let clean = plans
            .iter()
            .filter(|p| p.outcome == CellOutcome::Proceed { corruption: None })
            .count();
        let exhausted = plans
            .iter()
            .filter(|p| matches!(p.outcome, CellOutcome::Exhausted(_)))
            .count();
        let corrupted = plans
            .iter()
            .filter(|p| matches!(p.outcome, CellOutcome::Proceed { corruption: Some(_) }))
            .count();
        let panics =
            plans.iter().filter(|p| p.outcome == CellOutcome::Panic).count();
        assert!(retries > 0, "flaky must trigger retries");
        assert!(clean > 160_000, "most cells still succeed, got {clean}");
        assert!(exhausted > 0, "some cells exhaust retries");
        assert!(corrupted > 0, "some payloads corrupt");
        assert!(panics > 0, "some cells panic");
    }

    #[test]
    fn hostile_planning_trips_breakers_and_skips_cells() {
        let config =
            ResilienceConfig { profile: FaultProfile::HOSTILE, ..Default::default() };
        let mut planner = Planner::new(config);
        let plans: Vec<CellPlan> =
            (0..5_000u64).map(|s| planner.plan_cell("gpt-4o", s)).collect();
        assert!(planner.breaker_trips() > 0, "hostile must trip the breaker");
        assert!(
            plans.iter().any(|p| p.outcome == CellOutcome::Skipped),
            "an open breaker must skip at least one cell"
        );
    }

    #[test]
    fn breakers_are_per_model() {
        // Drive one model's breaker open with a hostile profile; a second
        // model planned at the same simulated time must still be allowed.
        let config = ResilienceConfig {
            profile: FaultProfile::HOSTILE,
            breaker: BreakerPolicy { failure_threshold: 2, cooldown_ms: u64::MAX / 2 },
            ..Default::default()
        };
        let mut planner = Planner::new(config);
        let mut saw_skip_a = false;
        for seed in 0..2_000u64 {
            let a = planner.plan_cell("model-a", seed);
            saw_skip_a |= a.outcome == CellOutcome::Skipped;
            if saw_skip_a {
                let b = planner.plan_cell("model-b", seed);
                assert_ne!(
                    b.outcome,
                    CellOutcome::Skipped,
                    "model-b's breaker never failed — must not be open"
                );
                break;
            }
        }
        assert!(saw_skip_a, "hostile profile with threshold 2 must skip eventually");
    }
}
