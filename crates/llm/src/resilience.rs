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

/// Attempts per cell: the first try plus up to three retries.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in simulated milliseconds; it doubles
/// with each further retry.
const BASE_BACKOFF_MS: u64 = 200;
/// Backoff ceiling, in simulated milliseconds.
const MAX_BACKOFF_MS: u64 = 5_000;
/// Jitter amplitude as a fraction of the backoff (±25 %).
const JITTER: f64 = 0.25;
/// Consecutive transient failures that trip a breaker open.
const BREAKER_THRESHOLD: u32 = 5;
/// How long a tripped breaker stays open, in simulated milliseconds.
const BREAKER_COOLDOWN_MS: u64 = 10_000;
/// Simulated cost of a completed call, in milliseconds.
const CALL_MS: u64 = 80;
/// Simulated cost of a call that times out (the full deadline is burned).
const TIMEOUT_MS: u64 = 1_000;
/// Simulated cost of a rate-limit rejection (it fails fast).
const RATE_LIMIT_MS: u64 = 50;

/// Backoff before the retry following `failed_attempts` failures, before
/// jitter: `BASE_BACKOFF_MS · 2^(failed_attempts − 1)` capped at
/// `MAX_BACKOFF_MS`, and 0 before any failure.
fn nominal_backoff_ms(failed_attempts: u32) -> u64 {
    if failed_attempts == 0 {
        return 0;
    }
    let exp = failed_attempts.saturating_sub(1).min(32);
    BASE_BACKOFF_MS
        .saturating_mul(1u64 << exp)
        .min(MAX_BACKOFF_MS)
}

/// Simulated backoff before the retry following `failed_attempts`
/// failures: the nominal backoff scaled by a deterministic jitter factor
/// in `[1 − JITTER, 1 + JITTER)` drawn from `(seed, failed_attempts)`.
fn backoff_ms(failed_attempts: u32, seed: u64) -> u64 {
    let u = faults::unit(mix_seed(
        &["backoff-jitter"],
        &[seed, u64::from(failed_attempts)],
    ));
    let factor = 1.0 - JITTER + 2.0 * JITTER * u;
    (nominal_backoff_ms(failed_attempts) as f64 * factor).round() as u64
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Calls flow normally.
    #[default]
    Closed,
    /// Calls are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe call is allowed through.
    HalfOpen,
}

/// Per-model circuit breaker on a simulated clock: it opens after
/// `BREAKER_THRESHOLD` consecutive transient failures and lets one probe
/// through (half-open) after `BREAKER_COOLDOWN_MS`.
///
/// Only *transient* faults (timeout, rate limit) count as failures — they
/// signal vendor distress. Delivered-but-corrupt payloads and panics say
/// nothing about vendor health and leave the breaker alone.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until_ms: u64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
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
            BreakerState::Closed => self.consecutive_failures >= BREAKER_THRESHOLD,
            BreakerState::Open => false,
        };
        if reopen {
            self.state = BreakerState::Open;
            self.open_until_ms = now_ms + BREAKER_COOLDOWN_MS;
            self.trips += 1;
            snails_obs::add(Obs::LlmBreakerTrips, 1);
        }
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
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
    profile: FaultProfile,
    clock_ms: u64,
    breakers: BTreeMap<&'static str, CircuitBreaker>,
}

impl Planner {
    /// A planner drawing faults from `profile`, at simulated time zero
    /// with all breakers closed.
    pub fn new(profile: FaultProfile) -> Self {
        Planner {
            profile,
            clock_ms: 0,
            breakers: BTreeMap::new(),
        }
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
        let breaker = self.breakers.entry(model).or_default();
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
            let drawn = self.profile.draw(cell_seed, attempts);
            if let Some(kind) = drawn {
                snails_obs::add(fault_metric(kind), 1);
            }
            match drawn {
                None => {
                    self.clock_ms += CALL_MS;
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
                    self.clock_ms += CALL_MS;
                    breaker.record_success();
                    return CellPlan {
                        seed: cell_seed,
                        attempts,
                        outcome: CellOutcome::Proceed { corruption: Some(kind) },
                    };
                }
                Some(FaultKind::Panic) => {
                    // The response arrived; the client blows up handling it.
                    self.clock_ms += CALL_MS;
                    return CellPlan { seed: cell_seed, attempts, outcome: CellOutcome::Panic };
                }
                Some(kind) => {
                    debug_assert!(kind.is_transient());
                    self.clock_ms += match kind {
                        FaultKind::Timeout => TIMEOUT_MS,
                        _ => RATE_LIMIT_MS,
                    };
                    breaker.record_failure(self.clock_ms);
                    let opened = !breaker.allows(self.clock_ms);
                    if attempts >= MAX_ATTEMPTS || opened {
                        snails_obs::add(Obs::LlmCellsExhausted, 1);
                        return CellPlan {
                            seed: cell_seed,
                            attempts,
                            outcome: CellOutcome::Exhausted(kind.into()),
                        };
                    }
                    let wait_ms = backoff_ms(attempts, cell_seed);
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
        assert_eq!(nominal_backoff_ms(0), 0);
        assert_eq!(nominal_backoff_ms(1), 200);
        assert_eq!(nominal_backoff_ms(2), 400);
        assert_eq!(nominal_backoff_ms(3), 800);
        assert_eq!(nominal_backoff_ms(4), 1_600);
        assert_eq!(nominal_backoff_ms(5), 3_200);
        assert_eq!(nominal_backoff_ms(6), 5_000, "ceiling");
        assert_eq!(nominal_backoff_ms(60), 5_000, "huge counts stay capped");
        assert_eq!(backoff_ms(0, 1), 0, "no backoff before a failure");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        for seed in 0..200u64 {
            for failed in 1..=6u32 {
                let a = backoff_ms(failed, seed);
                assert_eq!(a, backoff_ms(failed, seed));
                let nominal = nominal_backoff_ms(failed) as f64;
                assert!(
                    (a as f64) >= nominal * 0.74 && (a as f64) <= nominal * 1.26,
                    "jittered {a} outside ±25% of {nominal}"
                );
            }
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let mut b = CircuitBreaker::new();
        assert_eq!(b.state(0), BreakerState::Closed);
        for t in 1..BREAKER_THRESHOLD {
            b.record_failure(u64::from(t) * 10);
        }
        assert!(b.allows(100), "below threshold stays closed");
        b.record_failure(100);
        assert_eq!(b.state(100), BreakerState::Open);
        assert!(
            !b.allows(100 + BREAKER_COOLDOWN_MS - 1),
            "open during cooldown"
        );
        assert_eq!(b.trips(), 1);
        // Cooldown elapses → half-open probe allowed.
        assert!(b.allows(100 + BREAKER_COOLDOWN_MS));
        assert_eq!(b.state(100 + BREAKER_COOLDOWN_MS), BreakerState::HalfOpen);
        // Probe succeeds → closed, count reset.
        b.record_success();
        assert_eq!(b.state(100 + BREAKER_COOLDOWN_MS), BreakerState::Closed);
        b.record_failure(100 + BREAKER_COOLDOWN_MS);
        assert!(
            b.allows(100 + BREAKER_COOLDOWN_MS),
            "failure count was reset on close"
        );
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new();
        for t in 1..=BREAKER_THRESHOLD {
            b.record_failure(u64::from(t));
        }
        let opened = u64::from(BREAKER_THRESHOLD);
        assert_eq!(b.state(opened), BreakerState::Open);
        let probe = opened + BREAKER_COOLDOWN_MS;
        assert!(b.allows(probe));
        b.record_failure(probe);
        assert_eq!(b.state(probe), BreakerState::Open, "probe failure reopens");
        assert_eq!(b.trips(), 2);
        assert!(!b.allows(probe + BREAKER_COOLDOWN_MS - 1));
    }

    #[test]
    fn inert_profile_plans_every_cell_clean() {
        let mut planner = Planner::new(FaultProfile::NONE);
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
        let run = || {
            let mut planner = Planner::new(FaultProfile::FLAKY);
            (0..2_000u64).map(|s| planner.plan_cell("gpt-4o", s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flaky_planning_produces_retries_and_terminal_failures() {
        let mut planner = Planner::new(FaultProfile::FLAKY);
        // Exhaustion needs MAX_ATTEMPTS consecutive transient draws in one
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
        let mut planner = Planner::new(FaultProfile::HOSTILE);
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
        let mut planner = Planner::new(FaultProfile::HOSTILE);
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
        assert!(saw_skip_a, "the hostile profile must skip eventually");
    }
}
