//! Worker supervision primitives: a poison-job ledger and a circuit
//! breaker.
//!
//! Both types are **pure state machines** — no clocks, no threads, no
//! locks. Time enters only through explicit [`Instant`] parameters, which
//! is what makes every transition unit-testable without sleeping. The
//! scheduler's job-lifecycle state machine (`queue::State`) owns both and
//! drives them from its admission and settle transitions, under the
//! scheduler's lock, so no internal synchronization is needed.
//!
//! * [`PoisonLedger`] — counts worker panics per spec digest. A job
//!   whose runs panic [`PoisonLedger::threshold`] times is *poisoned*:
//!   it is failed at dispatch instead of handed to a worker again, so a
//!   deterministic panic cannot crash-loop the pool (and, with a durable
//!   journal, cannot crash-loop the daemon across restarts).
//! * [`CircuitBreaker`] — sheds load while the worker pool is unhealthy.
//!   Consecutive panics trip it open; after a cooldown it admits exactly
//!   one probe (half-open) and either closes on success or re-opens on
//!   failure.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Counts worker panics per spec digest and quarantines repeat offenders.
///
/// Strikes are recorded only for **panics** (a worker crash), never for
/// ordinary job failures (`Err` from the runner) — a job that cleanly
/// reports "unknown experiment" is the client's problem, not a threat to
/// the pool.
#[derive(Debug, Clone)]
pub struct PoisonLedger {
    threshold: u32,
    strikes: BTreeMap<String, u32>,
    poisoned: u64,
}

impl Default for PoisonLedger {
    fn default() -> Self {
        Self::new(DEFAULT_POISON_THRESHOLD)
    }
}

/// Panics per spec digest before the ledger quarantines it.
pub const DEFAULT_POISON_THRESHOLD: u32 = 2;

impl PoisonLedger {
    /// A ledger that poisons a digest after `threshold` panics
    /// (`threshold` is clamped to at least 1).
    pub fn new(threshold: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            strikes: BTreeMap::new(),
            poisoned: 0,
        }
    }

    /// Panics per digest before quarantine.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Records a panic against `digest`. Returns `true` when this strike
    /// crosses the threshold — i.e. the digest just became poisoned.
    pub fn strike(&mut self, digest: &str) -> bool {
        let count = self.strikes.entry(digest.to_owned()).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            self.poisoned += 1;
            true
        } else {
            false
        }
    }

    /// `true` when `digest` has struck out and must not be dispatched.
    pub fn is_poisoned(&self, digest: &str) -> bool {
        self.strikes
            .get(digest)
            .is_some_and(|&count| count >= self.threshold)
    }

    /// Strikes recorded against `digest` so far.
    pub fn strikes(&self, digest: &str) -> u32 {
        self.strikes.get(digest).copied().unwrap_or(0)
    }

    /// Number of digests that have ever crossed the threshold.
    pub fn poisoned_count(&self) -> u64 {
        self.poisoned
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all submissions admitted.
    Closed,
    /// Tripped: submissions shed until the cooldown elapses.
    Open,
    /// Cooling down: exactly one probe admitted; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label (`closed` / `open` / `half_open`).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What [`CircuitBreaker::try_admit`] decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed breaker: run normally.
    Allowed,
    /// Half-open breaker: run, and report the outcome — it decides
    /// whether the breaker closes or re-opens.
    Probe,
    /// Open breaker: shed with `Retry-After: retry_after_secs`.
    Shed {
        /// Whole seconds until the cooldown elapses (at least 1).
        retry_after_secs: u32,
    },
}

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive worker failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// A consecutive-failure circuit breaker with half-open probing.
///
/// The caller reports worker outcomes via [`CircuitBreaker::record_success`]
/// / [`CircuitBreaker::record_failure`] and asks [`CircuitBreaker::try_admit`]
/// before accepting work. All time is explicit: the same sequence of calls
/// with the same instants always produces the same transitions.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning (`failure_threshold` is
    /// clamped to at least 1).
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg: BreakerConfig {
                failure_threshold: cfg.failure_threshold.max(1),
                ..cfg
            },
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            probe_in_flight: false,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions so far (closed→open, open→half-open,
    /// half-open→closed, half-open→open each count once).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Decides one submission at time `now`.
    pub fn try_admit(&mut self, now: Instant) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => {
                let since = self.opened_at.unwrap_or(now);
                let elapsed = now.saturating_duration_since(since);
                if elapsed >= self.cfg.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.transitions += 1;
                    self.probe_in_flight = true;
                    Admission::Probe
                } else {
                    let left = self.cfg.cooldown - elapsed;
                    Admission::Shed {
                        retry_after_secs: (left.as_secs_f64().ceil() as u32).max(1),
                    }
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    // One probe at a time: everyone else waits a beat.
                    Admission::Shed {
                        retry_after_secs: 1,
                    }
                } else {
                    self.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Reports a healthy worker outcome. A half-open probe success closes
    /// the breaker; in any state the consecutive-failure count resets.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.transitions += 1;
        }
        self.probe_in_flight = false;
        self.opened_at = None;
    }

    /// Clears an in-flight probe without an outcome — the probed job was
    /// cancelled before reaching a worker. The breaker stays half-open
    /// and the next admission probes again, so a cancelled probe cannot
    /// wedge it into shedding forever.
    pub fn abort_probe(&mut self) {
        self.probe_in_flight = false;
    }

    /// Reports a worker failure (panic) at time `now`. Crossing the
    /// threshold — or failing a half-open probe — opens the breaker.
    pub fn record_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::Closed => {
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.transitions += 1;
                    self.opened_at = Some(now);
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.transitions += 1;
                self.opened_at = Some(now);
                self.probe_in_flight = false;
            }
            BreakerState::Open => {
                // Late failure reports while open just refresh the clock.
                self.opened_at = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_poisons_at_threshold_and_counts_once() {
        let mut ledger = PoisonLedger::new(2);
        assert!(!ledger.is_poisoned("fnv64:aa"));
        assert!(!ledger.strike("fnv64:aa"), "first strike is a warning");
        assert!(!ledger.is_poisoned("fnv64:aa"));
        assert!(ledger.strike("fnv64:aa"), "second strike poisons");
        assert!(ledger.is_poisoned("fnv64:aa"));
        // further strikes don't re-count the digest
        assert!(!ledger.strike("fnv64:aa"));
        assert_eq!(ledger.poisoned_count(), 1);
        assert_eq!(ledger.strikes("fnv64:aa"), 3);
        // other digests are independent
        assert!(!ledger.is_poisoned("fnv64:bb"));
        assert_eq!(ledger.strikes("fnv64:bb"), 0);
    }

    #[test]
    fn ledger_threshold_is_clamped_to_one() {
        let mut ledger = PoisonLedger::new(0);
        assert!(ledger.strike("d"), "threshold 0 behaves like 1");
        assert!(ledger.is_poisoned("d"));
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
        });
        breaker.record_failure(t0);
        breaker.record_failure(t0);
        // a success in between resets the streak
        breaker.record_success();
        breaker.record_failure(t0);
        breaker.record_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.try_admit(t0), Admission::Allowed);
        breaker.record_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_sheds_with_remaining_cooldown() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(10),
        });
        breaker.record_failure(t0);
        match breaker.try_admit(t0 + Duration::from_secs(4)) {
            Admission::Shed { retry_after_secs } => assert_eq!(retry_after_secs, 6),
            other => panic!("expected Shed, got {other:?}"),
        }
        // still open: no transition happened
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_probe_success_closes_and_failure_reopens() {
        let t0 = Instant::now();
        let cooldown = Duration::from_secs(5);
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown,
        });
        breaker.record_failure(t0);
        // cooldown elapsed → exactly one probe, others shed
        assert_eq!(breaker.try_admit(t0 + cooldown), Admission::Probe);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(matches!(
            breaker.try_admit(t0 + cooldown),
            Admission::Shed { .. }
        ));
        // probe fails → re-open, clock restarts from the failure
        let t1 = t0 + cooldown + Duration::from_secs(1);
        breaker.record_failure(t1);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(matches!(breaker.try_admit(t1), Admission::Shed { .. }));
        // second cooldown → probe again, this time it succeeds
        assert_eq!(breaker.try_admit(t1 + cooldown), Admission::Probe);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.try_admit(t1 + cooldown), Admission::Allowed);
        // closed→open, open→half-open, half-open→open, open→half-open,
        // half-open→closed
        assert_eq!(breaker.transitions(), 5);
    }
}
