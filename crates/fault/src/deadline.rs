//! Cooperative deadlines, cancellation, and the run watchdog.
//!
//! The flow's iterative kernels (floorplan SA, analytical placement,
//! routing, optimization rounds) have input-dependent runtime; a run that
//! hangs or silently blows its time budget invalidates a PPA comparison
//! just as surely as a crash. This module bounds wall-clock time the same
//! way `inject`/`retry` bound crashes — cooperatively and
//! deterministically:
//!
//! * a [`CancelToken`] is a shared atomic flag: cancellation is always
//!   *requested*, never preemptive, so a kernel is only interrupted at
//!   the coarse-grained poll points it opts into (per temperature step,
//!   per net, per solver iteration — never per move);
//! * a [`Deadline`] is a monotonic-clock budget; stage budgets derive
//!   from the run's remaining budget via a configurable [`BudgetSplit`]
//!   unless the run's [`DeadlinePolicy`] has an explicit per-stage
//!   override;
//! * a watchdog thread owned by the run's [`RunCtx`](crate::RunCtx)
//!   trips the run token when the overall deadline expires (and the run
//!   records a timed-out trip), so even a kernel between poll points is
//!   cancelled at its next checkpoint;
//! * a timed-out stage surfaces as a recoverable
//!   [`FaultCause::TimedOut`] [`FlowError`], so the existing retry →
//!   degrade machinery applies unchanged. A retry gets a *larger* share
//!   of the remaining budget (the base stage budget scaled by the
//!   attempt number, clamped to what is left overall), not a fresh one.
//!
//! Determinism: results are only ever gated on the degrade path — a
//! cancelled stage discards its partial work entirely (the full-chip
//! loop restores the pristine block before degrading), so reports stay
//! byte-identical across thread counts whenever the same set of blocks
//! times out. Everything is pay-for-use: outside a stage scope of a run
//! with a policy, [`poll`] reads one empty thread-local stack.

use crate::ctx::{self, Scope, StageGuard, SCOPES};
use crate::{FaultCause, FlowError, FlowStage};
use foldic_obs::trace::SpanGuard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A shared cancellation flag. Clones observe the same flag; checking it
/// is one relaxed atomic load, cheap enough for per-iteration polls.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, for handing to `foldic-exec`'s `run_cancellable`
    /// (which takes a plain `&AtomicBool` to avoid a dependency cycle).
    pub fn flag(&self) -> &AtomicBool {
        &self.flag
    }

    /// The token of the run entered on the calling thread, or a token
    /// nobody cancels when no run is entered — so fan-outs and retry
    /// loops need no branching.
    pub fn current() -> CancelToken {
        ctx::current().map_or_else(CancelToken::new, |run| run.token.clone())
    }
}

/// A monotonic-clock wall-time budget, anchored when constructed.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline starting now with the given budget.
    pub fn new(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// The instant the budget runs out.
    pub fn expires_at(&self) -> Instant {
        self.start + self.budget
    }

    /// Budget left, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.expires_at().saturating_duration_since(Instant::now())
    }

    /// `true` once the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    /// A child deadline starting now with the given fraction of the
    /// *remaining* budget (so children derived late get less, never
    /// more, than what is left).
    pub fn child(&self, fraction: f64) -> Deadline {
        Deadline::new(self.remaining().mul_f64(fraction.clamp(0.0, 1.0)))
    }
}

/// Default share of the run's *remaining* budget a single stage entry
/// may spend, per [`FlowStage`]. These are heuristics reflecting where
/// the flow's wall time actually goes (placement and optimization
/// dominate); explicit `--stage-timeout` overrides always win.
#[derive(Debug, Clone, Copy)]
pub struct BudgetSplit {
    fractions: [f64; FlowStage::ALL.len()],
}

impl Default for BudgetSplit {
    fn default() -> Self {
        let mut fractions = [0.0; FlowStage::ALL.len()];
        for (slot, stage) in fractions.iter_mut().zip(FlowStage::ALL) {
            *slot = match stage {
                FlowStage::Validate => 0.02,
                FlowStage::Partition => 0.10,
                FlowStage::Place => 0.35,
                FlowStage::Opt => 0.25,
                FlowStage::Route => 0.15,
                FlowStage::Sta => 0.10,
                FlowStage::Power => 0.05,
                FlowStage::Floorplan => 0.25,
                FlowStage::Job => 1.0,
            };
        }
        Self { fractions }
    }
}

impl BudgetSplit {
    /// The share for one stage (in `0.0..=1.0`).
    pub fn fraction(&self, stage: FlowStage) -> f64 {
        let idx = FlowStage::ALL.iter().position(|s| *s == stage);
        idx.map_or(1.0, |i| self.fractions[i])
    }
}

/// What to enforce: an optional overall run budget, optional explicit
/// per-stage budgets, and the split used to derive stage budgets from
/// the overall one when no override is given.
#[derive(Debug, Clone, Default)]
pub struct DeadlinePolicy {
    /// Overall wall-clock budget for the whole run, if any.
    pub overall: Option<Duration>,
    /// Explicit per-stage budgets (`--stage-timeout STAGE=SECS`).
    pub stage_budgets: Vec<(FlowStage, Duration)>,
    /// Split used to derive stage budgets from `overall`.
    pub split: Option<BudgetSplit>,
}

impl DeadlinePolicy {
    /// `true` when the policy enforces nothing.
    pub fn is_empty(&self) -> bool {
        self.overall.is_none() && self.stage_budgets.is_empty()
    }

    /// The explicit budget for `stage`, if the policy has one.
    pub fn stage_budget(&self, stage: FlowStage) -> Option<Duration> {
        self.stage_budgets
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
    }
}

fn timed_out(stage: FlowStage, block: &str, msg: impl Into<String>) -> FlowError {
    FlowError {
        stage,
        block: Some(block.to_owned()),
        cause: FaultCause::TimedOut(msg.into()),
    }
}

/// Enters a scope for one stage of one block's flow, on the calling
/// thread, under the run entered there. Inside the scope, [`poll`] (and
/// [`poll_unwind`]) check the stage's wall-clock budget and the run
/// token at the kernel's coarse-grained checkpoints, and its memory
/// budget when the run has a memory policy.
///
/// The guard also holds the stage's span, named [`FlowStage::as_str`]
/// and opened on every path: the stage's one timing record.
///
/// The effective wall-clock budget is the run's explicit per-stage
/// override when it has one, otherwise the [`BudgetSplit`] share of the
/// run's remaining budget; either way it is scaled by `attempt + 1` — a
/// retry gets a larger share of what is left, not a fresh budget — and
/// clamped to the overall remaining budget. With no run entered, or a
/// run without deadline and memory policies, this is free and always
/// succeeds.
///
/// # Errors
///
/// Returns a [`FaultCause::TimedOut`] error (recoverable, so the normal
/// retry → degrade path applies) when the run is already cancelled, the
/// overall deadline has already expired at stage entry, or the stage's
/// budget works out to zero.
pub fn stage_scope(stage: FlowStage, block: &str, attempt: u32) -> Result<StageGuard, FlowError> {
    // opened first, so its Begin lands outside the memory scope
    let span = SpanGuard::enter(stage.as_str());
    Ok(enter_scope(stage, block, attempt)?.with_span(span))
}

/// [`stage_scope`] without the span.
fn enter_scope(stage: FlowStage, block: &str, attempt: u32) -> Result<StageGuard, FlowError> {
    let Some(run) = ctx::current() else {
        return Ok(StageGuard::none());
    };
    let mut expires_at = None;
    if let Some(policy) = &run.deadline {
        if run.token.is_cancelled() {
            return Err(timed_out(stage, block, "run cancelled before stage entry"));
        }
        let overall_end = run.overall.map(|d| d.expires_at());
        let now = Instant::now();
        if overall_end.is_some_and(|end| end <= now) {
            return Err(timed_out(
                stage,
                block,
                "run deadline expired before stage entry",
            ));
        }
        let scale = attempt.saturating_add(1);
        let split = policy.split.unwrap_or_default();
        let base = policy.stage_budget(stage).or_else(|| {
            run.overall
                .map(|d| d.remaining().mul_f64(split.fraction(stage)))
        });
        expires_at = match base {
            Some(budget) => {
                let scaled = budget.saturating_mul(scale);
                if scaled.is_zero() {
                    return Err(timed_out(stage, block, "stage budget is zero"));
                }
                let end = now + scaled;
                Some(overall_end.map_or(end, |o| end.min(o)))
            }
            None => overall_end,
        };
    }
    // The memory part is built only after the deadline checks pass, so
    // an entry error leaks no scope.
    let mem = crate::resource::mem_part(&run, attempt, |policy| {
        policy
            .stage_budgets
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, bytes)| *bytes)
    });
    if run.deadline.is_none() && mem.is_none() {
        return Ok(StageGuard::none());
    }
    Ok(StageGuard::push(Scope {
        stage,
        block: block.to_owned(),
        timed: run.deadline.is_some(),
        expires_at,
        mem,
        run,
    }))
}

/// [`stage_scope`] for a chip-level serial stage, entered only under an
/// *explicit* budget: a derived share would turn the one non-retryable
/// stage into a timing-dependent chip failure. It opens no span: the
/// chip flow spans its stages whether or not they are scoped.
///
/// # Errors
///
/// As [`stage_scope`].
pub fn chip_stage_scope(stage: FlowStage) -> Result<Option<StageGuard>, FlowError> {
    let explicit = ctx::current().and_then(|run| run.deadline.as_ref()?.stage_budget(stage));
    match explicit {
        Some(_) => enter_scope(stage, "chip", 0).map(Some),
        None => Ok(None),
    }
}

/// The cooperative checkpoint kernels call at coarse-grained intervals
/// (per temperature step, per net, per solver iteration). Outside any
/// scope this is a no-op that reads one empty thread-local stack.
///
/// # Errors
///
/// Returns a [`FaultCause::TimedOut`] error attributed to the innermost
/// stage scope's stage and block when the run token is cancelled or the
/// stage's budget is spent, or a
/// [`FaultCause::MemExceeded`](crate::FaultCause::MemExceeded) error
/// when a scope on this thread breached its memory budget.
pub fn poll() -> Result<(), FlowError> {
    SCOPES.with(|s| {
        let mut scopes = s.borrow_mut();
        if scopes.is_empty() {
            return Ok(());
        }
        if let Some(top) = scopes.iter().rev().find(|sc| sc.timed) {
            if top.run.token.is_cancelled() {
                return Err(timed_out(top.stage, &top.block, "run cancelled"));
            }
            if top.expires_at.is_some_and(|end| end <= Instant::now()) {
                return Err(timed_out(top.stage, &top.block, "stage budget exhausted"));
            }
        }
        crate::resource::check(&mut scopes)
    })
}

/// [`poll`] for infallible kernels (floorplan SA, CTS): a trip unwinds
/// with a typed [`FlowError`] payload to the nearest
/// [`isolate`](crate::isolate) boundary — the same mechanism injected
/// panics use — instead of rippling `Result` through signatures that
/// cannot fail any other way.
///
/// # Panics
///
/// Panics (with a `FlowError` payload) exactly when [`poll`] would
/// return an error.
pub fn poll_unwind() {
    if let Err(e) = poll() {
        std::panic::panic_any(e);
    }
}

/// How an injected `slow` fault stalls. Under a *bounded* stage scope it
/// models a hung kernel: it sleeps in coarse slices until the deadline
/// layer cancels it, so the stall deterministically becomes a
/// `TimedOut` failure regardless of the budget's value. Without a
/// bounded scope it is the legacy fixed short stall.
///
/// # Errors
///
/// Returns the [`poll`] error that ended the stall.
pub(crate) fn injected_slow_stall() -> Result<(), FlowError> {
    let bounded = SCOPES.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|sc| sc.timed)
            .is_some_and(|sc| sc.expires_at.is_some())
    });
    if !bounded {
        std::thread::sleep(Duration::from_millis(25));
        return Ok(());
    }
    loop {
        poll()?;
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sleeps for `backoff`, waking early if the token is cancelled.
/// Returns `false` when the wait was cut short by cancellation — the
/// caller should stop retrying and degrade.
pub fn backoff_wait(backoff: Duration, token: &CancelToken) -> bool {
    let deadline = Instant::now() + backoff;
    loop {
        if token.is_cancelled() {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
}

/// A thread that trips a [`CancelToken`] when a [`Deadline`] expires;
/// owned by the [`RunCtx`](crate::RunCtx) whose deadline it enforces.
///
/// The thread blocks on a channel, so a clean run end wakes and joins it
/// immediately — [`Watchdog::disarm`] returns as soon as the thread has
/// exited, regardless of how much budget was left; no thread leaks past
/// it.
pub(crate) struct Watchdog {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<bool>>,
}

impl Watchdog {
    /// Spawns the watchdog for `deadline`, tripping `token` on expiry.
    pub(crate) fn spawn(deadline: Deadline, token: CancelToken) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("foldic-watchdog".to_owned())
            .spawn(move || {
                // the sender hangs up on disarm; only a timeout trips
                let expired = matches!(
                    stopped.recv_timeout(deadline.remaining()),
                    Err(mpsc::RecvTimeoutError::Timeout)
                );
                if expired {
                    token.cancel();
                }
                expired
            });
        Self {
            stop: Some(stop),
            // A failed spawn leaves a watchdog that never trips; the
            // deadline is then only enforced at stage entries. That is a
            // graceful degradation, not a correctness problem.
            handle: handle.ok(),
        }
    }

    /// Stops the watchdog and joins its thread (returns only after the
    /// thread has exited). Returns whether the deadline tripped first.
    pub(crate) fn disarm(&mut self) -> bool {
        drop(self.stop.take());
        self.handle
            .take()
            .is_some_and(|handle| handle.join().unwrap_or(false))
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCtx;

    /// A context carrying only `policy`.
    fn deadline_run(policy: DeadlinePolicy) -> RunCtx {
        RunCtx::new().with_deadline(&policy, "test")
    }

    #[test]
    fn token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && a.flag().load(Ordering::Relaxed));
    }

    #[test]
    fn deadline_remaining_shrinks_and_child_never_exceeds_parent() {
        let d = Deadline::new(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_secs(60));
        let child = d.child(0.5);
        assert!(child.remaining() <= Duration::from_secs(30));
        assert!(Deadline::new(Duration::ZERO).expired());
    }

    #[test]
    fn poll_is_a_no_op_without_policy_or_scope() {
        assert!(poll().is_ok());
        let guard = stage_scope(FlowStage::Place, "b", 0).unwrap();
        assert!(poll().is_ok());
        drop(guard);
        // a context without a deadline enforces nothing either
        let run = RunCtx::new();
        let _entered = run.enter();
        let guard = stage_scope(FlowStage::Place, "b", 0).unwrap();
        assert!(poll().is_ok());
        drop(guard);
        assert!(!CancelToken::current().is_cancelled());
    }

    #[test]
    fn stage_scope_errs_when_deadline_already_expired_at_entry() {
        let run = deadline_run(DeadlinePolicy {
            overall: Some(Duration::ZERO),
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        let err = stage_scope(FlowStage::Route, "ccx", 0).unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        assert_eq!(err.stage, FlowStage::Route);
        assert_eq!(err.block.as_deref(), Some("ccx"));
        assert!(err.recoverable(), "timeouts must take the retry path");
    }

    #[test]
    fn zero_budget_stage_times_out_at_entry() {
        let run = deadline_run(DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Sta, Duration::ZERO)],
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        let err = stage_scope(FlowStage::Sta, "dec", 2).unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        // a stage with no budget of its own is unscoped but still fine
        let guard = stage_scope(FlowStage::Place, "dec", 0).unwrap();
        assert!(poll().is_ok());
        drop(guard);
    }

    #[test]
    fn cancelled_token_fails_scope_entry_and_poll() {
        let run = deadline_run(DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Opt, Duration::from_secs(3600))],
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        let guard = stage_scope(FlowStage::Opt, "fpu", 0).unwrap();
        assert!(poll().is_ok());
        CancelToken::current().cancel();
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        drop(guard);
        assert!(stage_scope(FlowStage::Opt, "fpu", 1).is_err());
    }

    #[test]
    fn retry_scales_the_stage_budget_but_not_past_the_overall() {
        let run = deadline_run(DeadlinePolicy {
            overall: Some(Duration::from_secs(3600)),
            stage_budgets: vec![(FlowStage::Route, Duration::from_millis(40))],
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        // attempt 2 gets 3 × 40 ms: a 50 ms wait outlives attempt 0's
        // budget but not attempt 2's.
        let g0 = stage_scope(FlowStage::Route, "b", 0).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(poll().is_err(), "base budget spent");
        drop(g0);
        let g2 = stage_scope(FlowStage::Route, "b", 2).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(poll().is_ok(), "retry budget is scaled up");
        drop(g2);
    }

    #[test]
    fn poll_unwind_carries_a_typed_payload() {
        let run = deadline_run(DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Place, Duration::from_millis(1))],
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        let caught = crate::isolate(|| {
            let _scope = stage_scope(FlowStage::Place, "mcu", 0)?;
            std::thread::sleep(Duration::from_millis(5));
            poll_unwind();
            Ok(())
        });
        let err = caught.unwrap_err();
        assert_eq!(err.stage, FlowStage::Place);
        assert!(matches!(err.cause, FaultCause::TimedOut(_)));
    }

    #[test]
    fn injected_slow_stall_times_out_under_a_bounded_scope() {
        // no scope: the legacy fixed stall succeeds
        assert!(injected_slow_stall().is_ok());
        // bounded scope: the stall models a hang and is cancelled
        let run = deadline_run(DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Route, Duration::from_millis(30))],
            ..DeadlinePolicy::default()
        });
        let _entered = run.enter();
        let scope = stage_scope(FlowStage::Route, "ccx", 0).unwrap();
        let t0 = Instant::now();
        let err = injected_slow_stall().unwrap_err();
        assert!(matches!(err.cause, FaultCause::TimedOut(_)), "{err}");
        assert_eq!(err.block.as_deref(), Some("ccx"));
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(scope);
    }

    #[test]
    fn chip_stages_are_scoped_only_under_an_explicit_budget() {
        assert!(chip_stage_scope(FlowStage::Floorplan).unwrap().is_none());
        let derived = deadline_run(DeadlinePolicy {
            overall: Some(Duration::from_secs(3600)),
            ..DeadlinePolicy::default()
        });
        let entered = derived.enter();
        assert!(chip_stage_scope(FlowStage::Floorplan).unwrap().is_none());
        drop(entered);
        let explicit = deadline_run(DeadlinePolicy {
            stage_budgets: vec![(FlowStage::Floorplan, Duration::ZERO)],
            ..DeadlinePolicy::default()
        });
        let _entered = explicit.enter();
        let err = chip_stage_scope(FlowStage::Floorplan).unwrap_err();
        assert_eq!(err.block.as_deref(), Some("chip"));
    }

    #[test]
    fn backoff_wait_is_cut_short_by_cancellation() {
        let token = CancelToken::new();
        let cancel = token.clone();
        let t0 = Instant::now();
        let waiter = std::thread::spawn(move || backoff_wait(Duration::from_secs(30), &cancel));
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert!(!waiter.join().unwrap(), "cancelled wait reports false");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancellation must not wait out the full backoff"
        );
        // and an uncancelled wait completes
        assert!(backoff_wait(Duration::from_millis(1), &CancelToken::new()));
    }

    #[test]
    fn watchdog_trips_the_token_and_the_outcome_records_it() {
        let run = deadline_run(DeadlinePolicy {
            overall: Some(Duration::from_millis(10)),
            ..DeadlinePolicy::default()
        });
        let token = {
            let _entered = run.enter();
            CancelToken::current()
        };
        let t0 = Instant::now();
        while !token.is_cancelled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(token.is_cancelled(), "watchdog trips the run's token");
        let outcome = run.finish();
        assert!(outcome.deadline_tripped, "finish reports the trip");
        assert_eq!(outcome.timeouts.len(), 1);
        let trip = &outcome.timeouts[0];
        assert_eq!((trip.scope.as_str(), trip.block.as_str()), ("test", "*"));
        assert_eq!(trip.stage, FlowStage::Job);
        assert!(outcome.faults.is_empty());
    }

    #[test]
    fn clean_shutdown_joins_without_waiting_out_the_deadline() {
        let token = CancelToken::new();
        let mut dog = Watchdog::spawn(Deadline::new(Duration::from_secs(3600)), token.clone());
        let t0 = Instant::now();
        assert!(!dog.disarm(), "clean end: no trip");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "disarm joins promptly, not after the 1 h deadline"
        );
        assert!(!token.is_cancelled());
        // drop-path shutdown also joins promptly, and so does a run
        // finished with its deadline far away
        let t0 = Instant::now();
        drop(Watchdog::spawn(
            Deadline::new(Duration::from_secs(3600)),
            CancelToken::new(),
        ));
        let run = deadline_run(DeadlinePolicy {
            overall: Some(Duration::from_secs(3600)),
            ..DeadlinePolicy::default()
        });
        assert!(!run.finish().deadline_tripped);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
