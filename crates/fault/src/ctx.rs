//! Per-run context: the policies and records that belong to one run.
//!
//! A run — one `repro` invocation, one served job, one test — builds a
//! [`RunCtx`], [`enter`](RunCtx::enter)s it on its thread and
//! [`finish`](RunCtx::finish)es it into a [`RunOutcome`]. The flow's hooks
//! read the context entered on the calling thread, which `foldic-exec`
//! fan-outs hand to their workers (see `foldic_obs::trace::current_run`),
//! and do nothing when none is entered. This module also keeps the
//! calling thread's stack of open stage and job scopes.

use crate::deadline::{CancelToken, Deadline, DeadlinePolicy, Watchdog};
use crate::inject::{silence_injected_panics, FaultPlan};
use crate::resource::{ResourcePolicy, Tracking};
use crate::retry::{Disposition, FaultRecord};
use crate::FlowStage;
use foldic_obs::manifest::RunManifest;
use foldic_obs::trace::{RunGuard, SpanGuard};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What a thread sees of its entered run: the policies, the token, and
/// the run's fault log and per-stage peak net bytes (max-merged as
/// memory scopes close), shared by every thread that enters the run.
#[derive(Clone, Default)]
pub(crate) struct Active {
    pub(crate) token: CancelToken,
    pub(crate) deadline: Option<DeadlinePolicy>,
    /// The deadline policy's overall budget, anchored when it was set.
    pub(crate) overall: Option<Deadline>,
    pub(crate) resource: Option<ResourcePolicy>,
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) log: Arc<Mutex<Vec<FaultRecord>>>,
    peaks: Arc<Mutex<[i64; FlowStage::ALL.len()]>>,
}

/// Locks a run's shared record: every update leaves it valid, so a
/// poisoned lock is still safe to use.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The context entered on the calling thread, if any.
pub(crate) fn current() -> Option<Arc<Active>> {
    foldic_obs::trace::current_run().and_then(|run| run.downcast::<Active>().ok())
}

/// The policies, records and watchdog of one run. See the module docs.
#[derive(Default)]
pub struct RunCtx {
    active: Active,
    /// The deadline watchdog and the scope label of the record a trip
    /// leaves in the fault log.
    watchdog: Option<(Watchdog, String)>,
    tracking: Option<Tracking>,
}

impl RunCtx {
    /// A context that enforces nothing; fault records still land in its
    /// log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a deadline policy, anchoring its overall budget now. A
    /// watchdog thread trips the run's token when that budget expires;
    /// the trip lands in [`RunOutcome::timeouts`] as a `scope`/`*`/`job`
    /// record.
    pub fn with_deadline(mut self, policy: &DeadlinePolicy, scope: &str) -> Self {
        if policy.is_empty() {
            return self;
        }
        self.active.overall = policy.overall.map(Deadline::new);
        if let Some(overall) = self.active.overall {
            let watchdog = Watchdog::spawn(overall, self.active.token.clone());
            self.watchdog = Some((watchdog, scope.to_owned()));
        }
        self.active.deadline = Some(policy.clone());
        self
    }

    /// Adds a memory policy (allocation tracking runs while the context
    /// lives). An empty policy still records peaks.
    pub fn with_resource(mut self, policy: ResourcePolicy) -> Self {
        self.tracking.get_or_insert_with(Tracking::start);
        self.active.resource = Some(policy);
        self
    }

    /// Adds a fault plan, consulted by `fault_point`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        silence_injected_panics();
        self.active.plan = Some(plan);
        self
    }

    /// Enters the context on the calling thread until the guard drops,
    /// which restores the previous one (also on unwind).
    pub fn enter(&self) -> RunGuard {
        foldic_obs::trace::enter_run(Some(Arc::new(self.active.clone())))
    }

    /// Drains the peak table: `(stage, peak_bytes)` for every stage that
    /// recorded a positive peak, in flow order.
    pub(crate) fn take_peaks(&self) -> Vec<(FlowStage, u64)> {
        let taken = std::mem::take(&mut *lock(&self.active.peaks));
        FlowStage::ALL
            .into_iter()
            .zip(taken)
            .filter(|(_, peak)| *peak > 0)
            .map(|(stage, peak)| (stage, peak as u64))
            .collect()
    }

    /// Stops the watchdog and drains the run's records into its outcome.
    pub fn finish(self) -> RunOutcome {
        let peaks = self.take_peaks();
        let mut records = std::mem::take(&mut *lock(&self.active.log));
        let mut deadline_tripped = false;
        if let Some((mut watchdog, scope)) = self.watchdog {
            deadline_tripped = watchdog.disarm();
            if deadline_tripped {
                records.push(FaultRecord {
                    scope,
                    block: "*".to_owned(),
                    stage: FlowStage::Job,
                    attempts: 0,
                    disposition: Disposition::Degraded,
                    timed_out: true,
                    mem_exceeded: false,
                });
            }
        }
        // sorted, so outcomes are byte-identical across thread counts
        records.sort();
        let (timeouts, rest): (Vec<FaultRecord>, Vec<FaultRecord>) =
            records.into_iter().partition(|r| r.timed_out);
        let (mem_exceeded, faults) = rest.into_iter().partition(|r| r.mem_exceeded);
        RunOutcome {
            faults,
            timeouts,
            mem_exceeded,
            peaks,
            deadline_tripped,
        }
    }
}

/// What a finished run recorded, split the way manifests report it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Recovered or degraded blocks that neither timed out nor breached
    /// a memory budget, sorted.
    pub faults: Vec<FaultRecord>,
    /// Records whose last failure was a wall-clock timeout (including a
    /// watchdog trip), sorted.
    pub timeouts: Vec<FaultRecord>,
    /// Records whose last failure was a memory-budget breach, sorted.
    pub mem_exceeded: Vec<FaultRecord>,
    /// Per-stage peak net bytes, in flow order; empty unless the run
    /// had a memory policy.
    pub peaks: Vec<(FlowStage, u64)>,
    /// `true` when the overall deadline expired before the run finished.
    pub deadline_tripped: bool,
}

impl RunOutcome {
    /// Fills `manifest`'s `faults`, `timeouts`, `mem_exceeded` and
    /// `resources` sections. Empty sections stay out of the serialized
    /// manifest, so runs without policies keep their old bytes.
    pub fn record_in(&self, manifest: &mut RunManifest) {
        let entries =
            |records: &[FaultRecord]| records.iter().map(FaultRecord::to_manifest_entry).collect();
        manifest.faults = entries(&self.faults);
        manifest.timeouts = entries(&self.timeouts);
        manifest.mem_exceeded = entries(&self.mem_exceeded);
        manifest.resources = self
            .peaks
            .iter()
            .map(|(stage, bytes)| (stage.to_string(), *bytes))
            .collect();
    }
}

/// Memory state of a scope whose run has a memory policy.
pub(crate) struct MemScope {
    /// `None` means observational only (peak tracking, no budget).
    pub(crate) budget: Option<u64>,
    /// Thread net counter at scope entry.
    pub(crate) start: i64,
    /// Largest delta observed at a poll point (or at close).
    pub(crate) peak: i64,
}

/// One entry on the calling thread's scope stack.
pub(crate) struct Scope {
    pub(crate) stage: FlowStage,
    pub(crate) block: String,
    /// The run the scope belongs to (token, peak table).
    pub(crate) run: Arc<Active>,
    /// `true` for a stage scope of a run with a deadline policy: poll
    /// checks its token and `expires_at`.
    pub(crate) timed: bool,
    /// `None` means no wall-clock bound for this stage (token only).
    pub(crate) expires_at: Option<Instant>,
    pub(crate) mem: Option<MemScope>,
}

thread_local! {
    pub(crate) static SCOPES: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
}

/// Closes its scope when dropped; returned by
/// [`stage_scope`](crate::deadline::stage_scope), which also puts the
/// stage's span in it, and [`job_scope`](crate::resource::job_scope).
/// The span drops after [`Drop::drop`] pops the scope, so its `End` is
/// recorded outside the scope's memory accounting.
#[derive(Debug)]
#[must_use = "dropping the guard immediately ends the scope"]
pub struct StageGuard(bool, SpanGuard);

impl StageGuard {
    /// A guard for a scope that enforces nothing (no entry was pushed).
    pub(crate) fn none() -> Self {
        Self(false, SpanGuard::disabled())
    }

    /// Pushes `scope` onto the calling thread's stack.
    pub(crate) fn push(scope: Scope) -> Self {
        SCOPES.with(|s| s.borrow_mut().push(scope));
        Self(true, SpanGuard::disabled())
    }

    /// Makes the guard close `span` too.
    pub(crate) fn with_span(mut self, span: SpanGuard) -> Self {
        self.1 = span;
        self
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let net = crate::resource::thread_net();
        let Some(scope) = SCOPES.with(|s| s.borrow_mut().pop()) else {
            return;
        };
        if let Some(mem) = scope.mem {
            let peak = mem.peak.max(net - mem.start);
            let mut peaks = lock(&scope.run.peaks);
            let slot = &mut peaks[stage_index(scope.stage)];
            *slot = (*slot).max(peak);
        }
    }
}

fn stage_index(stage: FlowStage) -> usize {
    FlowStage::ALL
        .iter()
        .position(|s| *s == stage)
        .unwrap_or(FlowStage::ALL.len() - 1)
}
