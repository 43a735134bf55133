//! Bounded FIFO job queue, admission control and the worker pool.
//!
//! The scheduler is deliberately boring: strict FIFO dispatch from a
//! bounded queue, a fixed worker pool, and four hard rules.
//!
//! 1. **Admission**: a submission that finds the queue full is rejected
//!    immediately with a `Retry-After` hint (the server turns it into a
//!    429). Nothing ever blocks a client on a full queue.
//! 2. **Cache first**: a cacheable submission whose content address is
//!    already stored completes instantly — the job record is born `done`
//!    with the cached, byte-identical body, and no worker is involved.
//! 3. **Cancel-before-start is absolute**: a queued job that is
//!    cancelled never reaches a worker; the runner never sees its spec.
//!    Cancelling a running job does not interrupt it (runs are the
//!    expensive thing being served; interruption is the deadline layer's
//!    job) — the cancel call just reports the current state.
//! 4. **Oversized jobs run alone**: under a memory limit, a job whose
//!    estimate exceeds the whole limit reserves all of it, so it cannot
//!    share the worker pool (a capacity rule). FIFO order is kept: when
//!    an oversized job reaches the head of the queue, dispatch waits for
//!    running jobs to drain, runs it alone, then resumes normal
//!    concurrency. No starvation in either direction, because the head
//!    of the queue always dispatches next. Every other job — deadline
//!    jobs included — runs beside its peers: each run carries its own
//!    `foldic-fault` context, so no policy leaks between jobs.
//!
//! Shutdown drains: in-flight jobs run to completion, still-queued jobs
//! are cancelled, workers are joined. The property tests in
//! `tests/queue_props.rs` pin all four rules plus drain-without-deadlock.
//!
//! The scheduler is telemetry-aware ([`Scheduler::with_telemetry`]): a
//! traced submission carries its request's `http.request` span, dispatch
//! synthesizes a `queue.wait` span covering the time in queue, the run
//! executes under a `job.run` span (so the flow/stage spans the study
//! runner opens nest beneath it), workers drain the per-thread flight
//! recorder into degraded jobs' status payloads, and every transition
//! writes a structured log line.
//!
//! # Durability & supervision
//!
//! [`Scheduler::with_durability`] layers crash safety on top
//! (`DESIGN.md` §12), all strictly pay-for-use — a scheduler built
//! without it behaves byte-identically to one from before the layer
//! existed:
//!
//! * **Write-ahead journal** — every admission appends an fsync'd
//!   `accepted` record *before* the submission call returns, so an
//!   acknowledged job survives SIGKILL; terminal transitions are
//!   journaled too, and on construction the journal's [`Replay`] seeds
//!   the job table: terminal jobs are restored (with bodies from the
//!   journal or the persistent cache) and non-terminal jobs are
//!   re-enqueued with `attempt+1`. Lifetime counters (`submitted`,
//!   `completed`, `failed`, `cancelled`, cache insertions) are restored
//!   so `/stats` and `/metrics` report true totals after a restart;
//!   `rejected`, `shed` and cache hit/miss counters remain
//!   process-local by design. A failed journal write sheds the
//!   submission (503) — the daemon never acknowledges what it cannot
//!   re-prove.
//! * **Poison ledger** — a spec digest whose runs panic twice is
//!   quarantined: its queued jobs fail at dispatch with a `poisoned:`
//!   error instead of crash-looping the pool. Always on (it only
//!   engages after a panic, which the pre-durability scheduler already
//!   surfaced as a failed job).
//! * **Circuit breaker** — optional: consecutive worker panics trip it,
//!   admissions are shed (503 + `Retry-After`) while open, and a single
//!   half-open probe decides recovery.
//! * **Worker supervision** — each worker thread runs under a
//!   supervisor that catches a panic of the *loop itself* (runner panics
//!   are caught per-job inside), repairs the scheduler state (the
//!   orphaned job fails, counters rebalance) and restarts the worker.
//! * **Idempotency keys** — a submission carrying an idempotency key
//!   that matches an accepted job returns that job instead of
//!   double-enqueuing; the key→job map is journaled and survives
//!   restart, so a client retry after a lost ack is safe.

use crate::cache::ResultCache;
use crate::job::{cache_key, JobSpec};
use crate::journal::{Journal, Record as JournalRecord, Replay};
use crate::telemetry::{self, field_num, field_str, Telemetry};
use foldic_fault::supervise::{Admission, BreakerConfig, CircuitBreaker, PoisonLedger};
use foldic_obs::json::Json;
use foldic_obs::log::Level;
use foldic_obs::metrics::Metric;
use foldic_obs::trace::{self, AttrValue, EventKind, SpanId};
use foldic_obs::{flight, span};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Executes studies for the scheduler. Implementations live outside this
/// crate (the real one, in `foldic-bench`, runs paper experiments and
/// returns manifest text) so the serving layer stays flow-free.
pub trait StudyRunner: Send + Sync {
    /// Validates a spec and returns its canonical manifest config — the
    /// cache identity. Must be cheap and side-effect free; called at
    /// submission time.
    ///
    /// # Errors
    ///
    /// A message describing why the spec is not servable (mapped to 400).
    fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String>;

    /// Runs the study to completion and returns the serialized manifest
    /// body. Deterministic for cacheable specs: the same spec must
    /// produce byte-identical output on every call.
    ///
    /// # Errors
    ///
    /// A message describing the failure (the job lands in `failed`).
    fn run(&self, spec: &JobSpec) -> Result<String, String>;

    /// [`StudyRunner::run`] under a per-job memory budget, for jobs the
    /// cost-aware admission layer classified oversized. Implementations
    /// that honor the budget run under a `foldic-fault` context carrying
    /// a resource policy, so breaches degrade gracefully instead of
    /// taking the worker's address space; the default ignores the
    /// budget, which keeps budget-less runners byte-identical to their
    /// old behavior.
    ///
    /// # Errors
    ///
    /// Same contract as [`StudyRunner::run`].
    fn run_budgeted(&self, spec: &JobSpec, mem_budget: Option<u64>) -> Result<String, String> {
        let _ = mem_budget;
        self.run(spec)
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the FIFO queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a result body.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// Stable lower-case name used in the HTTP API.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Outcome of a submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// Served from the content-addressed cache; the job is already done.
    Hit {
        /// Id of the (already terminal) job record.
        id: u64,
    },
    /// Admitted to the queue.
    Queued {
        /// Id of the queued job.
        id: u64,
    },
    /// Queue full — retry after the hinted number of seconds (429).
    Rejected {
        /// `Retry-After` hint in seconds.
        retry_after_secs: u32,
    },
    /// Load shed — the circuit breaker is open or the journal refused
    /// the acceptance record (503 + `Retry-After`).
    Shed {
        /// `Retry-After` hint in seconds.
        retry_after_secs: u32,
    },
    /// The submission's idempotency key matches an already-accepted job:
    /// that job is returned instead of enqueuing a duplicate (200).
    Duplicate {
        /// Id of the previously accepted job.
        id: u64,
    },
    /// The scheduler is shutting down (503).
    Draining,
    /// The spec failed validation (400).
    Invalid(String),
}

/// Snapshot of one job for the status endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Current state.
    pub state: JobState,
    /// Attempt count: 1 on first acceptance, bumped by journal-replay
    /// re-enqueues after a crash.
    pub attempt: u32,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Content address of the study (cacheable jobs only).
    pub cache_key: Option<String>,
    /// Canonical config the job resolved to.
    pub config: BTreeMap<String, String>,
    /// Failure message, for `failed` jobs.
    pub error: Option<String>,
    /// Result body, for `done` jobs.
    pub body: Option<Arc<str>>,
    /// Flight-recorder dump (array of record objects, possibly ending in
    /// a truncation marker) — attached when the worker's ring was
    /// non-empty after the run, i.e. the job degraded, faulted or timed
    /// out.
    pub flight: Option<Json>,
}

impl JobStatus {
    /// The status document returned by `GET /jobs/<id>`. `attempt`
    /// appears only past 1 (i.e. only for crash-recovered jobs), keeping
    /// the durability-free document byte-identical to earlier versions.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("job".to_owned(), Json::Num(self.id as f64)),
            (
                "state".to_owned(),
                Json::Str(self.state.as_str().to_owned()),
            ),
            (
                "cache".to_owned(),
                Json::Str(if self.cache_hit { "hit" } else { "miss" }.to_owned()),
            ),
            (
                "config".to_owned(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if self.attempt > 1 {
            fields.push(("attempt".to_owned(), Json::Num(f64::from(self.attempt))));
        }
        if let Some(key) = &self.cache_key {
            fields.push(("cache_key".to_owned(), Json::Str(key.clone())));
        }
        if let Some(error) = &self.error {
            fields.push(("error".to_owned(), Json::Str(error.clone())));
        }
        if let Some(flight) = &self.flight {
            fields.push(("flight_recorder".to_owned(), flight.clone()));
        }
        Json::obj(fields)
    }
}

/// Tracing/logging context a traced submission hands to the scheduler.
#[derive(Debug, Clone)]
pub struct SubmitCtx {
    /// The originating request's id (echoed into job log lines).
    pub request_id: String,
    /// The request's `http.request` span — the root the job's
    /// `queue.wait`/`job.run` spans nest under.
    pub parent_span: Option<SpanId>,
    /// Client idempotency key (`X-Idempotency-Key`): a submission whose
    /// key matches an accepted job returns [`Submission::Duplicate`].
    pub idempotency_key: Option<String>,
}

struct Job {
    spec: JobSpec,
    status: JobStatus,
    /// Bytes this job holds in the reservation ledger; zero once
    /// released (release is idempotent via `State::release_reservation`).
    reservation: u64,
    /// Per-job memory budget for oversized admissions, handed to
    /// [`StudyRunner::run_budgeted`]. A job with one reserved the whole
    /// limit, so it runs alone (rule 4).
    mem_budget: Option<u64>,
    /// Spec digest ([`cache_key`] of the canonical config) — computed
    /// for every job, cacheable or not; addresses the poison ledger and
    /// the journal.
    digest: String,
    /// Originating request id, for log lines.
    request_id: Option<String>,
    /// The request span the job's trace nests under.
    parent_span: Option<SpanId>,
    /// [`trace::now_ns`] at admission — start of the queue wait.
    submit_ns: u64,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
    /// Submissions shed by the breaker or a failed journal write.
    shed: u64,
    /// Jobs failed at dispatch because their digest was poisoned.
    poisoned: u64,
    /// Submissions shed because the reservation ledger was full.
    mem_shed: u64,
    /// Admissions whose estimate exceeded the memory limit outright
    /// (run alone under a derived budget).
    oversized: u64,
}

struct State {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Jobs currently in [`JobState::Queued`] (admission bound; `queue`
    /// may also hold ids of already-cancelled jobs, skipped at dispatch).
    queued: usize,
    /// Deepest the queue has ever been (gauge on `/metrics`, `/stats`).
    queue_high_water: usize,
    running: usize,
    exclusive_active: bool,
    next_id: u64,
    draining: bool,
    counters: Counters,
    /// Panic strikes per spec digest; poisoned digests fail at dispatch.
    ledger: PoisonLedger,
    /// Optional circuit breaker over consecutive worker panics.
    breaker: Option<CircuitBreaker>,
    /// The job admitted as the breaker's half-open probe, when one is in
    /// flight (so a cancelled probe can abort instead of wedging).
    probe_job: Option<u64>,
    /// Idempotency key → job id for every accepted keyed submission.
    idempotency: HashMap<String, u64>,
    /// Worker threads restarted by the supervisor after a loop panic.
    worker_restarts: u64,
    /// Jobs restored from the journal at construction.
    replayed_jobs: u64,
    /// Journaled non-terminal jobs re-enqueued at construction.
    reenqueued: u64,
    /// Bytes currently committed in the reservation ledger.
    reserved: u64,
    /// Highest the ledger has ever been (gauge on `/stats`, `/metrics`).
    reserved_peak: u64,
}

impl State {
    /// Returns a job's ledger reservation to the pool. Idempotent: the
    /// reservation is taken out of the job, so every terminal path may
    /// call this without double-counting.
    fn release_reservation(&mut self, id: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            let held = std::mem::take(&mut job.reservation);
            self.reserved = self.reserved.saturating_sub(held);
        }
    }

    /// Commits `bytes` against the ledger for job bookkeeping.
    fn reserve(&mut self, bytes: u64) {
        self.reserved = self.reserved.saturating_add(bytes);
        self.reserved_peak = self.reserved_peak.max(self.reserved);
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for dispatchable work.
    work: Condvar,
    /// Status watchers wait here for state changes.
    changed: Condvar,
    cache: ResultCache,
    /// Write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// `true` when a breaker was configured (for stats/metrics gating).
    breaker_configured: bool,
    runner: Arc<dyn StudyRunner>,
    cfg: SchedulerConfig,
    telemetry: Arc<Telemetry>,
}

/// Scheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Most jobs that may wait in the queue at once.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Base `Retry-After` hint handed out on admission rejection; the
    /// actual hint scales with load (see [`retry_after_hint`]).
    pub retry_after_secs: u32,
    /// Memory the scheduler may commit to admitted jobs at once, in
    /// bytes. When set, every submission is priced by
    /// [`crate::cost::estimate_cost`] and admitted only while the sum of
    /// in-flight reservations stays under the limit; estimates above the
    /// limit run alone under a derived per-job budget instead of being
    /// refused outright. `None` (the default) disables the ledger and
    /// keeps admission byte-identical to the pre-resource scheduler.
    pub mem_limit: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 2,
            retry_after_secs: 1,
            mem_limit: None,
        }
    }
}

/// Load-derived `Retry-After` hint: the configured base, plus one second
/// per worker-pool's worth of queued jobs, plus one second per quarter
/// of the reservation ledger already committed. Deterministic in the
/// scheduler state and bounded — a hammered daemon asks clients to back
/// off harder, but never for more than a minute.
fn retry_after_hint(cfg: &SchedulerConfig, state: &State) -> u32 {
    let base = u64::from(cfg.retry_after_secs.max(1));
    let queue_pressure = state.queued as u64 / cfg.workers.max(1) as u64;
    let mem_pressure = match cfg.mem_limit {
        Some(limit) if limit > 0 => 4 * state.reserved / limit,
        _ => 0,
    };
    base.saturating_add(queue_pressure)
        .saturating_add(mem_pressure)
        .min(60) as u32
}

/// Durability wiring for [`Scheduler::with_durability`]: an opened
/// journal with its replayed state, a (possibly disk-backed) result
/// cache, and an optional circuit breaker. [`Durability::default`] is
/// the no-durability configuration the plain constructors use.
pub struct Durability {
    /// Opened write-ahead journal plus the replay loaded from it.
    pub journal: Option<(Journal, Replay)>,
    /// The result cache — [`ResultCache::with_dir`] for persistence.
    pub cache: ResultCache,
    /// Circuit-breaker tuning; `None` disables the breaker entirely.
    pub breaker: Option<BreakerConfig>,
}

impl Default for Durability {
    fn default() -> Self {
        Self {
            journal: None,
            cache: ResultCache::new(),
            breaker: None,
        }
    }
}

/// The bounded FIFO scheduler plus its worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Creates the scheduler and spawns its workers, with tracing and
    /// logging off (metrics still record into a private registry).
    pub fn new(runner: Arc<dyn StudyRunner>, cfg: SchedulerConfig) -> Self {
        Self::with_telemetry(runner, cfg, Telemetry::disabled())
    }

    /// Creates the scheduler wired to a telemetry hub (shared with the
    /// server that fronts it).
    pub fn with_telemetry(
        runner: Arc<dyn StudyRunner>,
        cfg: SchedulerConfig,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Self::with_durability(runner, cfg, telemetry, Durability::default())
    }

    /// Creates the scheduler with the durability layer: replays the
    /// journal into the job table (re-enqueuing non-terminal jobs with
    /// `attempt+1` and fsyncing their re-acceptance records), restores
    /// lifetime counters, and arms the breaker when configured.
    pub fn with_durability(
        runner: Arc<dyn StudyRunner>,
        cfg: SchedulerConfig,
        telemetry: Arc<Telemetry>,
        durability: Durability,
    ) -> Self {
        let Durability {
            journal,
            cache,
            breaker,
        } = durability;
        let breaker_configured = breaker.is_some();
        let mut state = State {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            queued: 0,
            queue_high_water: 0,
            running: 0,
            exclusive_active: false,
            next_id: 1,
            draining: false,
            counters: Counters::default(),
            ledger: PoisonLedger::default(),
            breaker: breaker.map(CircuitBreaker::new),
            probe_job: None,
            idempotency: HashMap::new(),
            worker_restarts: 0,
            replayed_jobs: 0,
            reenqueued: 0,
            reserved: 0,
            reserved_peak: 0,
        };
        let (journal, replay_summary) = match journal {
            Some((journal, replay)) => {
                let summary = seed_from_replay(&mut state, &cache, &replay);
                if let Some(limit) = cfg.mem_limit {
                    reprice_replayed(&mut state, limit);
                }
                if !summary.reaccepts.is_empty() {
                    // Re-acceptance records make the bumped attempt
                    // counts durable; failure degrades only that (the
                    // jobs are re-enqueued in memory regardless).
                    if let Err(e) = journal.append_sync(&summary.reaccepts) {
                        telemetry.log(
                            Level::Warn,
                            "journal.error",
                            vec![field_str("error", &e.to_string())],
                        );
                    }
                }
                (Some(journal), Some(summary))
            }
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            changed: Condvar::new(),
            cache,
            journal,
            breaker_configured,
            runner,
            cfg,
            telemetry,
        });
        if let Some(summary) = replay_summary {
            shared.telemetry.log(
                Level::Info,
                "journal.replayed",
                vec![
                    field_num("jobs", summary.jobs as f64),
                    field_num("reenqueued", summary.reaccepts.len() as f64),
                    field_num("trimmed_bytes", summary.trimmed_bytes as f64),
                ],
            );
        }
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("foldic-serve-worker-{i}"))
                    .spawn(move || supervise_worker(&shared))
            })
            .filter_map(Result::ok)
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The result cache (stats and introspection endpoints).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The telemetry hub this scheduler reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Submits a job: validates, consults the cache, then queues.
    pub fn submit(&self, spec: JobSpec) -> Submission {
        self.submit_traced(spec, None)
    }

    /// [`Scheduler::submit`] carrying the originating request's tracing
    /// context: the job's span tree is rooted under the request span and
    /// its log lines carry the request id.
    pub fn submit_traced(&self, spec: JobSpec, ctx: Option<SubmitCtx>) -> Submission {
        let tele = &self.shared.telemetry;
        let config = match self.shared.runner.resolve(&spec) {
            Ok(config) => config,
            Err(msg) => return Submission::Invalid(msg),
        };
        let key = cache_key(&config);
        let cacheable = spec.cacheable();
        let experiments = config.get("experiments").cloned().unwrap_or_default();
        let request_id = ctx.as_ref().map(|c| c.request_id.clone());
        let idempotency_key = ctx.as_ref().and_then(|c| c.idempotency_key.clone());
        let rid = request_id.as_deref().unwrap_or("-");

        let mut state = self.lock();
        if state.draining {
            return Submission::Draining;
        }
        if let Some(idem) = &idempotency_key {
            if let Some(&id) = state.idempotency.get(idem) {
                drop(state);
                tele.log(
                    Level::Info,
                    "job.duplicate",
                    vec![
                        field_str("idempotency_key", idem),
                        field_num("job", id as f64),
                        field_str("request_id", rid),
                    ],
                );
                return Submission::Duplicate { id };
            }
        }
        state.counters.submitted += 1;
        if cacheable {
            // Cache consultation happens under the state lock so the
            // hit/miss counters observed by a status probe are always
            // consistent with the job table.
            if let Some(body) = self.shared.cache.lookup(&key) {
                let id = state.next_id;
                if let Some(journal) = &self.shared.journal {
                    // A hit is an acknowledged job too: journal its
                    // acceptance and completion in one fsync'd batch.
                    // The body rides inline only when no cache directory
                    // can re-supply it after a restart.
                    let inline = self.shared.cache.dir().is_none();
                    let records = [
                        accepted_record(id, 1, &key, &spec, &config, &request_id, &idempotency_key),
                        JournalRecord::Terminal {
                            job: id,
                            attempt: 1,
                            state: "done".to_owned(),
                            error: None,
                            body: inline.then(|| body.to_string()),
                        },
                    ];
                    if let Err(e) = journal.append_sync(&records) {
                        return self.shed_submission(state, &e.to_string(), rid);
                    }
                }
                state.next_id += 1;
                state.counters.completed += 1;
                if let Some(idem) = &idempotency_key {
                    state.idempotency.insert(idem.clone(), id);
                }
                state.jobs.insert(
                    id,
                    Job {
                        spec,
                        status: JobStatus {
                            id,
                            state: JobState::Done,
                            attempt: 1,
                            cache_hit: true,
                            cache_key: Some(key.clone()),
                            config,
                            error: None,
                            body: Some(body),
                            flight: None,
                        },
                        reservation: 0,
                        mem_budget: None,
                        digest: key.clone(),
                        request_id: request_id.clone(),
                        parent_span: None,
                        submit_ns: trace::now_ns(),
                    },
                );
                drop(state);
                // A hit job's trace is just the request span: seed it so
                // `/jobs/<id>/trace` still resolves.
                if let Some(span) = ctx.as_ref().and_then(|c| c.parent_span) {
                    tele.seed_job_span(id, span);
                }
                tele.log(
                    Level::Info,
                    "job.hit",
                    vec![
                        field_str("cache", "hit"),
                        field_str("cache_key", &key),
                        field_str("experiments", &experiments),
                        field_num("job", id as f64),
                        field_str("request_id", rid),
                    ],
                );
                self.shared.changed.notify_all();
                return Submission::Hit { id };
            }
        }
        if state.queued >= self.shared.cfg.queue_capacity {
            state.counters.submitted -= 1;
            state.counters.rejected += 1;
            let retry_after_secs = retry_after_hint(&self.shared.cfg, &state);
            drop(state);
            tele.log(
                Level::Warn,
                "job.rejected",
                vec![
                    field_num("retry_after_secs", f64::from(retry_after_secs)),
                    field_str("request_id", rid),
                ],
            );
            return Submission::Rejected { retry_after_secs };
        }
        // Cost-aware admission: price the job and fit it into the
        // reservation ledger. An estimate that fits alongside in-flight
        // reservations commits; a fitting estimate that finds the ledger
        // full is shed; an estimate above the limit outright is admitted
        // anyway — alone, under a budget derived from the limit — so big
        // studies degrade deterministically instead of starving.
        let mut reservation = 0u64;
        let mut mem_budget = None;
        let mut oversized = false;
        if let Some(limit) = self.shared.cfg.mem_limit {
            let estimate = match crate::cost::estimate_cost(&spec) {
                Ok(estimate) => estimate,
                Err(msg) => {
                    state.counters.submitted -= 1;
                    return Submission::Invalid(msg);
                }
            };
            if estimate > limit {
                oversized = true;
                reservation = limit;
                mem_budget = Some(limit);
            } else if state.reserved.saturating_add(estimate) > limit {
                state.counters.submitted -= 1;
                state.counters.mem_shed += 1;
                let retry_after_secs = retry_after_hint(&self.shared.cfg, &state);
                drop(state);
                tele.log(
                    Level::Warn,
                    "job.shed",
                    vec![
                        field_num("estimate_bytes", estimate as f64),
                        field_str("reason", "mem_backlog"),
                        field_num("retry_after_secs", f64::from(retry_after_secs)),
                        field_str("request_id", rid),
                    ],
                );
                return Submission::Shed { retry_after_secs };
            } else {
                reservation = estimate;
            }
        }
        // A budget-degraded body is not the spec's canonical result, so
        // oversized jobs stay out of the content-addressed cache.
        let cacheable = cacheable && !oversized;
        // The breaker gates computed work only — cache hits (above) are
        // served even while open, and it is the last gate so a half-open
        // probe admission always corresponds to an actually-queued job.
        let mut probe = false;
        if let Some(breaker) = &mut state.breaker {
            match breaker.try_admit(Instant::now()) {
                Admission::Allowed => {}
                Admission::Probe => probe = true,
                Admission::Shed { retry_after_secs } => {
                    state.counters.submitted -= 1;
                    state.counters.shed += 1;
                    drop(state);
                    tele.log(
                        Level::Warn,
                        "job.shed",
                        vec![
                            field_str("reason", "breaker_open"),
                            field_num("retry_after_secs", f64::from(retry_after_secs)),
                            field_str("request_id", rid),
                        ],
                    );
                    return Submission::Shed { retry_after_secs };
                }
            }
        }
        let id = state.next_id;
        if let Some(journal) = &self.shared.journal {
            let record =
                accepted_record(id, 1, &key, &spec, &config, &request_id, &idempotency_key);
            if let Err(e) = journal.append_sync(std::slice::from_ref(&record)) {
                if probe {
                    if let Some(breaker) = &mut state.breaker {
                        breaker.abort_probe();
                    }
                }
                return self.shed_submission(state, &e.to_string(), rid);
            }
        }
        state.next_id += 1;
        if probe {
            state.probe_job = Some(id);
        }
        if oversized {
            state.counters.oversized += 1;
        }
        state.reserve(reservation);
        if let Some(idem) = &idempotency_key {
            state.idempotency.insert(idem.clone(), id);
        }
        let parent_span = ctx.as_ref().and_then(|c| c.parent_span);
        state.jobs.insert(
            id,
            Job {
                spec,
                status: JobStatus {
                    id,
                    state: JobState::Queued,
                    attempt: 1,
                    cache_hit: false,
                    cache_key: cacheable.then(|| key.clone()),
                    config,
                    error: None,
                    body: None,
                    flight: None,
                },
                reservation,
                mem_budget,
                digest: key,
                request_id: request_id.clone(),
                parent_span,
                submit_ns: trace::now_ns(),
            },
        );
        state.queue.push_back(id);
        state.queued += 1;
        state.queue_high_water = state.queue_high_water.max(state.queued);
        drop(state);
        if let Some(span) = parent_span {
            tele.seed_job_span(id, span);
        }
        if let Some(budget) = mem_budget {
            tele.log(
                Level::Warn,
                "job.oversized",
                vec![
                    field_num("job", id as f64),
                    field_num("mem_budget_bytes", budget as f64),
                    field_str("request_id", rid),
                ],
            );
        }
        tele.log(
            Level::Info,
            "job.queued",
            vec![
                field_str("cache", "miss"),
                field_str("experiments", &experiments),
                field_num("job", id as f64),
                field_str("request_id", rid),
            ],
        );
        self.shared.work.notify_all();
        Submission::Queued { id }
    }

    /// Rolls a submission back after a failed journal write and sheds it:
    /// the daemon must never acknowledge a job it cannot re-prove.
    fn shed_submission(
        &self,
        mut state: MutexGuard<'_, State>,
        error: &str,
        rid: &str,
    ) -> Submission {
        state.counters.submitted -= 1;
        state.counters.shed += 1;
        let retry_after_secs = retry_after_hint(&self.shared.cfg, &state);
        drop(state);
        self.shared.telemetry.log(
            Level::Error,
            "job.shed",
            vec![
                field_str("error", error),
                field_str("reason", "journal_write_failed"),
                field_num("retry_after_secs", f64::from(retry_after_secs)),
                field_str("request_id", rid),
            ],
        );
        Submission::Shed { retry_after_secs }
    }

    /// Snapshot of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.lock().jobs.get(&id).map(|j| j.status.clone())
    }

    /// Cancels a job. Queued jobs become [`JobState::Cancelled`] and
    /// will never execute; jobs in any other state are left untouched.
    /// Returns the state after the call (`None`: unknown id).
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut state = self.lock();
        let job = state.jobs.get_mut(&id)?;
        if job.status.state == JobState::Queued {
            job.status.state = JobState::Cancelled;
            let request_id = job.request_id.clone().unwrap_or_else(|| "-".to_owned());
            let attempt = job.status.attempt;
            state.release_reservation(id);
            state.queued -= 1;
            state.counters.cancelled += 1;
            if state.probe_job == Some(id) {
                state.probe_job = None;
                if let Some(breaker) = &mut state.breaker {
                    breaker.abort_probe();
                }
            }
            drop(state);
            self.journal_terminal(JournalRecord::Terminal {
                job: id,
                attempt,
                state: "cancelled".to_owned(),
                error: None,
                body: None,
            });
            self.shared.telemetry.log(
                Level::Info,
                "job.cancelled",
                vec![
                    field_num("job", id as f64),
                    field_str("request_id", &request_id),
                ],
            );
            self.shared.work.notify_all();
            self.shared.changed.notify_all();
            return Some(JobState::Cancelled);
        }
        Some(job.status.state)
    }

    /// Appends one terminal record (fsync'd, best-effort with a logged
    /// error — the in-memory transition already happened).
    fn journal_terminal(&self, record: JournalRecord) {
        if let Some(journal) = &self.shared.journal {
            if let Err(e) = journal.append_sync(std::slice::from_ref(&record)) {
                self.shared.telemetry.log(
                    Level::Warn,
                    "journal.error",
                    vec![field_str("error", &e.to_string())],
                );
            }
        }
    }

    /// Blocks until job `id` reaches a terminal state, with a timeout.
    /// Returns the terminal state, or the current state on timeout
    /// (`None`: unknown id).
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let current = state.jobs.get(&id)?.status.state;
            if current.is_terminal() {
                return Some(current);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Some(current);
            }
            state = self
                .shared
                .changed
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// The `/stats` document: job counts by state, queue occupancy,
    /// cache counters, plus uptime. Everything except `uptime_seconds`
    /// is a counter, not a wall-clock reading, so two probes of an idle
    /// daemon agree on every other field. With durability configured a
    /// `durability` section is appended (and only then — a plain daemon
    /// emits the document byte-identically to earlier versions).
    pub fn stats_json(&self) -> Json {
        let state = self.lock();
        let mut by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            by_state.insert(s.as_str(), 0);
        }
        for job in state.jobs.values() {
            *by_state.entry(job.status.state.as_str()).or_default() += 1;
        }
        let durability = self.durability_json(&state);
        let cache = self.shared.cache.stats();
        let mut fields = vec![
            (
                "schema".to_owned(),
                Json::Str("foldic-serve-stats/1".to_owned()),
            ),
            (
                "jobs".to_owned(),
                Json::Obj(
                    by_state
                        .into_iter()
                        .map(|(k, v)| (k.to_owned(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "queue".to_owned(),
                Json::obj([
                    ("depth".to_owned(), Json::Num(state.queued as f64)),
                    (
                        "capacity".to_owned(),
                        Json::Num(self.shared.cfg.queue_capacity as f64),
                    ),
                    (
                        "high_water".to_owned(),
                        Json::Num(state.queue_high_water as f64),
                    ),
                    (
                        "rejected".to_owned(),
                        Json::Num(state.counters.rejected as f64),
                    ),
                ]),
            ),
            (
                "counters".to_owned(),
                Json::obj([
                    (
                        "submitted".to_owned(),
                        Json::Num(state.counters.submitted as f64),
                    ),
                    (
                        "completed".to_owned(),
                        Json::Num(state.counters.completed as f64),
                    ),
                    ("failed".to_owned(), Json::Num(state.counters.failed as f64)),
                    (
                        "cancelled".to_owned(),
                        Json::Num(state.counters.cancelled as f64),
                    ),
                ]),
            ),
            (
                "cache".to_owned(),
                Json::obj([
                    ("entries".to_owned(), Json::Num(cache.entries as f64)),
                    ("hits".to_owned(), Json::Num(cache.hits as f64)),
                    ("misses".to_owned(), Json::Num(cache.misses as f64)),
                    ("insertions".to_owned(), Json::Num(cache.insertions as f64)),
                ]),
            ),
            (
                "uptime_seconds".to_owned(),
                Json::Num(self.shared.telemetry.uptime_secs() as f64),
            ),
            (
                "workers".to_owned(),
                Json::Num(self.shared.cfg.workers as f64),
            ),
        ];
        if let Some(durability) = durability {
            fields.push(("durability".to_owned(), durability));
        }
        // Pay-for-use like `durability`: only a memory-limited daemon
        // grows the `resources` section.
        if let Some(limit) = self.shared.cfg.mem_limit {
            fields.push((
                "resources".to_owned(),
                Json::obj([
                    ("limit_bytes".to_owned(), Json::Num(limit as f64)),
                    (
                        "mem_shed".to_owned(),
                        Json::Num(state.counters.mem_shed as f64),
                    ),
                    (
                        "oversized".to_owned(),
                        Json::Num(state.counters.oversized as f64),
                    ),
                    (
                        "reserved_bytes".to_owned(),
                        Json::Num(state.reserved as f64),
                    ),
                    (
                        "reserved_peak_bytes".to_owned(),
                        Json::Num(state.reserved_peak as f64),
                    ),
                ]),
            ));
        }
        drop(state);
        Json::obj(fields)
    }

    /// The `durability` section of `/stats` — present only when the
    /// journal, cache directory or breaker is configured (pay-for-use).
    fn durability_json(&self, state: &State) -> Option<Json> {
        let cache = self.shared.cache.stats();
        let journal_on = self.shared.journal.is_some();
        let dir_on = self.shared.cache.dir().is_some();
        if !journal_on && !dir_on && !self.shared.breaker_configured {
            return None;
        }
        let mut fields = vec![
            (
                "poisoned_jobs".to_owned(),
                Json::Num(state.counters.poisoned as f64),
            ),
            ("shed".to_owned(), Json::Num(state.counters.shed as f64)),
            (
                "worker_restarts".to_owned(),
                Json::Num(state.worker_restarts as f64),
            ),
        ];
        if journal_on {
            fields.push((
                "journal".to_owned(),
                Json::obj([
                    ("reenqueued".to_owned(), Json::Num(state.reenqueued as f64)),
                    (
                        "replayed_jobs".to_owned(),
                        Json::Num(state.replayed_jobs as f64),
                    ),
                ]),
            ));
        }
        if dir_on {
            fields.push((
                "cache_dir".to_owned(),
                Json::obj([
                    ("corrupt".to_owned(), Json::Num(cache.corrupt as f64)),
                    ("loaded".to_owned(), Json::Num(cache.loaded as f64)),
                ]),
            ));
        }
        if let Some(breaker) = &state.breaker {
            fields.push((
                "breaker".to_owned(),
                Json::obj([
                    (
                        "state".to_owned(),
                        Json::Str(breaker.state().as_str().to_owned()),
                    ),
                    (
                        "transitions".to_owned(),
                        Json::Num(breaker.transitions() as f64),
                    ),
                ]),
            ));
        }
        Some(Json::obj(fields))
    }

    /// The `/metrics` exposition body: the live request/latency registry
    /// plus series synthesized from the scheduler's own counters and
    /// gauges, rendered per the `foldic-serve-metrics/1` contract
    /// documented in [`crate::telemetry`]. Durability families appear
    /// only when the corresponding feature is configured.
    pub fn metrics_text(&self) -> String {
        self.shared.telemetry.ingest();
        let mut snap = self.shared.telemetry.registry().snapshot();
        let cache = self.shared.cache.stats();
        let (counters, queued, high_water, running, supervision, reserved, reserved_peak) = {
            let state = self.lock();
            (
                Counters {
                    submitted: state.counters.submitted,
                    completed: state.counters.completed,
                    failed: state.counters.failed,
                    cancelled: state.counters.cancelled,
                    rejected: state.counters.rejected,
                    shed: state.counters.shed,
                    poisoned: state.counters.poisoned,
                    mem_shed: state.counters.mem_shed,
                    oversized: state.counters.oversized,
                },
                state.queued,
                state.queue_high_water,
                state.running,
                (
                    state.worker_restarts,
                    state.replayed_jobs,
                    state.reenqueued,
                    state.breaker.as_ref().map(|b| (b.state(), b.transitions())),
                ),
                state.reserved,
                state.reserved_peak,
            )
        };
        let m = &mut snap.metrics;
        let counter = |v: u64| Metric::Counter(v);
        let gauge = |v: f64| Metric::Gauge(v);
        m.insert(
            telemetry::jobs_state_series("done"),
            counter(counters.completed),
        );
        m.insert(
            telemetry::jobs_state_series("failed"),
            counter(counters.failed),
        );
        m.insert(
            telemetry::jobs_state_series("cancelled"),
            counter(counters.cancelled),
        );
        m.insert(
            telemetry::SERIES_JOBS_SUBMITTED.to_owned(),
            counter(counters.submitted),
        );
        m.insert(
            telemetry::SERIES_JOBS_REJECTED.to_owned(),
            counter(counters.rejected),
        );
        m.insert(telemetry::SERIES_CACHE_HITS.to_owned(), counter(cache.hits));
        m.insert(
            telemetry::SERIES_CACHE_MISSES.to_owned(),
            counter(cache.misses),
        );
        m.insert(
            telemetry::SERIES_CACHE_INSERTIONS.to_owned(),
            counter(cache.insertions),
        );
        m.insert(telemetry::SERIES_CACHE_EVICTIONS.to_owned(), counter(0));
        m.insert(
            "foldic_serve_cache_entries".to_owned(),
            gauge(cache.entries as f64),
        );
        m.insert("foldic_serve_queue_depth".to_owned(), gauge(queued as f64));
        m.insert(
            "foldic_serve_queue_high_water".to_owned(),
            gauge(high_water as f64),
        );
        m.insert(
            "foldic_serve_queue_capacity".to_owned(),
            gauge(self.shared.cfg.queue_capacity as f64),
        );
        m.insert(
            "foldic_serve_workers".to_owned(),
            gauge(self.shared.cfg.workers as f64),
        );
        m.insert(
            "foldic_serve_workers_busy".to_owned(),
            gauge(running as f64),
        );
        m.insert(
            "foldic_serve_uptime_seconds".to_owned(),
            gauge(self.shared.telemetry.uptime_secs() as f64),
        );
        let (worker_restarts, replayed_jobs, reenqueued, breaker) = supervision;
        let durable = self.shared.journal.is_some()
            || self.shared.cache.dir().is_some()
            || self.shared.breaker_configured;
        if durable {
            m.insert(
                telemetry::SERIES_JOBS_SHED.to_owned(),
                counter(counters.shed),
            );
            m.insert(
                telemetry::SERIES_JOBS_POISONED.to_owned(),
                counter(counters.poisoned),
            );
            m.insert(
                telemetry::SERIES_WORKER_RESTARTS.to_owned(),
                counter(worker_restarts),
            );
        }
        if self.shared.journal.is_some() {
            m.insert(
                telemetry::SERIES_JOURNAL_REPLAYED.to_owned(),
                counter(replayed_jobs),
            );
            m.insert(
                telemetry::SERIES_JOURNAL_REENQUEUED.to_owned(),
                counter(reenqueued),
            );
        }
        if self.shared.cache.dir().is_some() {
            m.insert(
                telemetry::SERIES_CACHE_LOADED.to_owned(),
                counter(cache.loaded),
            );
            m.insert(
                telemetry::SERIES_CACHE_CORRUPT.to_owned(),
                counter(cache.corrupt),
            );
        }
        if let Some((breaker_state, transitions)) = breaker {
            m.insert(
                telemetry::SERIES_BREAKER_STATE.to_owned(),
                gauge(match breaker_state {
                    foldic_fault::supervise::BreakerState::Closed => 0.0,
                    foldic_fault::supervise::BreakerState::HalfOpen => 1.0,
                    foldic_fault::supervise::BreakerState::Open => 2.0,
                }),
            );
            m.insert(
                telemetry::SERIES_BREAKER_TRANSITIONS.to_owned(),
                counter(transitions),
            );
        }
        if let Some(limit) = self.shared.cfg.mem_limit {
            m.insert(telemetry::SERIES_MEM_LIMIT.to_owned(), gauge(limit as f64));
            m.insert(
                telemetry::SERIES_MEM_RESERVED.to_owned(),
                gauge(reserved as f64),
            );
            m.insert(
                telemetry::SERIES_MEM_RESERVED_PEAK.to_owned(),
                gauge(reserved_peak as f64),
            );
            m.insert(
                telemetry::SERIES_JOBS_OVERSIZED.to_owned(),
                counter(counters.oversized),
            );
            m.insert(
                telemetry::SERIES_JOBS_MEM_SHED.to_owned(),
                counter(counters.mem_shed),
            );
        }
        foldic_obs::expo::to_prometheus(&snap)
    }

    /// Drains and stops: no new submissions, queued jobs cancelled (and
    /// journaled as such), in-flight jobs run to completion, workers
    /// joined, and the trace buffer flushed into the per-job mux — spans
    /// recorded between the last export and the shutdown request are
    /// preserved, not dropped. Idempotent.
    pub fn shutdown(&self) {
        let (drained, terminal_records) = {
            let mut state = self.lock();
            state.draining = true;
            let ids: Vec<u64> = state.queue.iter().copied().collect();
            let mut drained = 0u64;
            let mut records = Vec::new();
            for id in ids {
                if state.probe_job == Some(id) {
                    state.probe_job = None;
                    if let Some(breaker) = &mut state.breaker {
                        breaker.abort_probe();
                    }
                }
                if let Some(job) = state.jobs.get_mut(&id) {
                    if job.status.state == JobState::Queued {
                        job.status.state = JobState::Cancelled;
                        let attempt = job.status.attempt;
                        state.release_reservation(id);
                        state.queued -= 1;
                        state.counters.cancelled += 1;
                        drained += 1;
                        records.push(JournalRecord::Terminal {
                            job: id,
                            attempt,
                            state: "cancelled".to_owned(),
                            error: None,
                            body: None,
                        });
                    }
                }
            }
            state.queue.clear();
            (drained, records)
        };
        if !terminal_records.is_empty() {
            if let Some(journal) = &self.shared.journal {
                if let Err(e) = journal.append_sync(&terminal_records) {
                    self.shared.telemetry.log(
                        Level::Warn,
                        "journal.error",
                        vec![field_str("error", &e.to_string())],
                    );
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.changed.notify_all();
        let workers: Vec<_> = {
            let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
        // Final trace flush: everything workers recorded up to their
        // exit is now assigned to its job, so traces survive shutdown.
        self.shared.telemetry.ingest();
        self.shared.telemetry.log(
            Level::Info,
            "scheduler.drained",
            vec![field_num("cancelled_queued", drained as f64)],
        );
    }
}

/// Renders a drained flight ring as the status-payload dump: `None` when
/// the ring was empty, else the record array with a truncation marker
/// when the ring overflowed.
fn flight_json(records: &[flight::FlightRecord], dropped: u64) -> Option<Json> {
    if records.is_empty() && dropped == 0 {
        return None;
    }
    let mut items: Vec<Json> = records.iter().map(flight::FlightRecord::to_json).collect();
    if dropped > 0 {
        items.push(Json::obj([
            ("dropped".to_owned(), Json::Num(dropped as f64)),
            ("name".to_owned(), Json::Str("flight.truncated".to_owned())),
        ]));
    }
    Some(Json::Arr(items))
}

/// Builds an `accepted` journal record for one admission.
fn accepted_record(
    id: u64,
    attempt: u32,
    digest: &str,
    spec: &JobSpec,
    config: &BTreeMap<String, String>,
    request_id: &Option<String>,
    idempotency_key: &Option<String>,
) -> JournalRecord {
    JournalRecord::Accepted {
        job: id,
        attempt,
        digest: digest.to_owned(),
        spec: spec.clone(),
        config: config.clone(),
        request_id: request_id.clone(),
        idempotency_key: idempotency_key.clone(),
    }
}

/// What [`seed_from_replay`] did, for the boot log line and the
/// re-acceptance batch.
struct ReplaySummary {
    jobs: u64,
    trimmed_bytes: u64,
    reaccepts: Vec<JournalRecord>,
}

/// Seeds a fresh scheduler [`State`] from a journal [`Replay`]: terminal
/// jobs are restored (bodies from the journal or the persistent cache —
/// a `done` job whose body is unrecoverable is re-enqueued instead, and
/// recomputes byte-identically), non-terminal jobs are re-enqueued with
/// `attempt+1`, and lifetime counters come back.
fn seed_from_replay(state: &mut State, cache: &ResultCache, replay: &Replay) -> ReplaySummary {
    state.next_id = replay.next_id();
    state.counters.submitted = replay.jobs.len() as u64;
    state.replayed_jobs = replay.jobs.len() as u64;
    let mut reaccepts = Vec::new();
    for (&id, rjob) in &replay.jobs {
        if let Some(key) = &rjob.idempotency_key {
            state.idempotency.insert(key.clone(), id);
        }
        let cacheable = rjob.spec.cacheable();
        // (terminal state, error, body, body came from the cache)
        let restored = rjob.terminal.as_ref().and_then(|t| match t.state.as_str() {
            "failed" => Some((JobState::Failed, t.error.clone(), None, false)),
            "cancelled" => Some((JobState::Cancelled, None, None, false)),
            "done" => {
                if let Some(body) = &t.body {
                    let body: Arc<str> = Arc::from(body.as_str());
                    if cacheable {
                        // re-warm the in-memory cache from the journal
                        cache.insert(&rjob.digest, rjob.config.clone(), Arc::clone(&body));
                    }
                    Some((JobState::Done, None, Some(body), false))
                } else {
                    // body lives in the persistent cache — or is gone
                    // (quarantined/missing) and the job recomputes
                    cache
                        .peek(&rjob.digest)
                        .map(|entry| (JobState::Done, None, Some(entry.body), true))
                }
            }
            _ => None,
        });
        let reenqueue = restored.is_none();
        let attempt = if reenqueue {
            rjob.attempt + 1
        } else {
            rjob.attempt
        };
        let (job_state, error, body, from_cache) =
            restored.unwrap_or((JobState::Queued, None, None, false));
        match job_state {
            JobState::Done => state.counters.completed += 1,
            JobState::Failed => state.counters.failed += 1,
            JobState::Cancelled => state.counters.cancelled += 1,
            _ => {}
        }
        state.jobs.insert(
            id,
            Job {
                spec: rjob.spec.clone(),
                status: JobStatus {
                    id,
                    state: job_state,
                    attempt,
                    cache_hit: from_cache,
                    cache_key: cacheable.then(|| rjob.digest.clone()),
                    config: rjob.config.clone(),
                    error,
                    body,
                    flight: None,
                },
                reservation: 0,
                mem_budget: None,
                digest: rjob.digest.clone(),
                request_id: rjob.request_id.clone(),
                parent_span: None,
                submit_ns: trace::now_ns(),
            },
        );
        if reenqueue {
            state.queue.push_back(id);
            state.queued += 1;
            state.reenqueued += 1;
            reaccepts.push(accepted_record(
                id,
                attempt,
                &rjob.digest,
                &rjob.spec,
                &rjob.config,
                &rjob.request_id,
                &rjob.idempotency_key,
            ));
        }
    }
    state.queue_high_water = state.queued;
    ReplaySummary {
        jobs: replay.jobs.len() as u64,
        trimmed_bytes: replay.trimmed_bytes,
        reaccepts,
    }
}

/// Re-runs the cost-admission classification for journal-replayed queued
/// jobs: they bypassed `submit_traced`, but they will occupy workers all
/// the same, so they must hold ledger reservations — and an oversized
/// replay must come back exclusive and budgeted, or a crash would strip
/// the very protection that let it in. An unpriceable spec (the journal
/// outlived a size rename, say) is charged the whole limit: maximally
/// conservative, never admitted alongside anything.
fn reprice_replayed(state: &mut State, limit: u64) {
    let queued: Vec<u64> = state.queue.iter().copied().collect();
    for id in queued {
        let Some(job) = state.jobs.get_mut(&id) else {
            continue;
        };
        if job.status.state != JobState::Queued {
            continue;
        }
        let estimate = crate::cost::estimate_cost(&job.spec).unwrap_or(limit);
        let reservation = if estimate > limit {
            job.mem_budget = Some(limit);
            limit
        } else {
            estimate
        };
        job.reservation = reservation;
        state.reserve(reservation);
    }
}

/// Everything a worker needs to run one dispatched job.
struct Picked {
    id: u64,
    spec: JobSpec,
    cacheable_key: Option<String>,
    config: BTreeMap<String, String>,
    mem_budget: Option<u64>,
    digest: String,
    attempt: u32,
    request_id: Option<String>,
    parent_span: Option<SpanId>,
    submit_ns: u64,
}

/// Supervises one worker thread: [`worker_loop`] panics (which can only
/// come from harness code — runner panics are caught per-job inside) are
/// caught, the scheduler state is repaired (the orphaned job fails, the
/// running count rebalances) and the loop restarts. A clean return means
/// drain-on-shutdown finished.
fn supervise_worker(shared: &Arc<Shared>) {
    // The job this worker currently holds, maintained under the state
    // lock at dispatch/completion. Only this thread touches it.
    let current: Mutex<Option<(u64, u32)>> = Mutex::new(None);
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &current))).is_ok() {
            return;
        }
        let orphan = current.lock().unwrap_or_else(|e| e.into_inner()).take();
        let terminal = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.worker_restarts += 1;
            let mut terminal = None;
            if let Some((id, attempt)) = orphan {
                state.running = state.running.saturating_sub(1);
                if state.jobs.get(&id).is_some_and(|j| j.mem_budget.is_some()) {
                    state.exclusive_active = false;
                }
                if state.probe_job == Some(id) {
                    state.probe_job = None;
                }
                if let Some(breaker) = &mut state.breaker {
                    breaker.record_failure(Instant::now());
                }
                let mut crashed = false;
                if let Some(job) = state.jobs.get_mut(&id) {
                    if job.status.state == JobState::Running {
                        job.status.state = JobState::Failed;
                        job.status.error = Some("worker crashed while running this job".to_owned());
                        crashed = true;
                        terminal = Some(JournalRecord::Terminal {
                            job: id,
                            attempt,
                            state: "failed".to_owned(),
                            error: job.status.error.clone(),
                            body: None,
                        });
                    }
                }
                if crashed {
                    state.counters.failed += 1;
                }
                state.release_reservation(id);
            }
            terminal
        };
        if let Some(record) = terminal {
            if let Some(journal) = &shared.journal {
                let _ = journal.append_sync(std::slice::from_ref(&record));
            }
        }
        shared.telemetry.log(
            Level::Warn,
            "worker.restarted",
            vec![field_num("job", orphan.map_or(-1.0, |(id, _)| id as f64))],
        );
        shared.changed.notify_all();
        shared.work.notify_all();
    }
}

/// One worker: strict-FIFO dispatch honoring the exclusivity and poison
/// rules, then execution outside the lock, then completion bookkeeping.
fn worker_loop(shared: &Shared, current: &Mutex<Option<(u64, u32)>>) {
    let tele = &shared.telemetry;
    loop {
        let picked = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Drop already-cancelled heads so they never block FIFO,
                // and fail poisoned heads at dispatch — their digest has
                // struck out and must never reach a worker again.
                while let Some(&head) = state.queue.front() {
                    enum Head {
                        Keep,
                        Gone,
                        Poisoned(u32),
                    }
                    let disposition = match state.jobs.get(&head) {
                        None => Head::Gone,
                        Some(job) if job.status.state != JobState::Queued => Head::Gone,
                        Some(job) if state.ledger.is_poisoned(&job.digest) => {
                            Head::Poisoned(state.ledger.strikes(&job.digest))
                        }
                        Some(_) => Head::Keep,
                    };
                    match disposition {
                        Head::Keep => break,
                        Head::Gone => {
                            state.queue.pop_front();
                        }
                        Head::Poisoned(strikes) => {
                            state.queue.pop_front();
                            state.queued -= 1;
                            state.counters.failed += 1;
                            state.counters.poisoned += 1;
                            if state.probe_job == Some(head) {
                                state.probe_job = None;
                                if let Some(breaker) = &mut state.breaker {
                                    breaker.abort_probe();
                                }
                            }
                            let mut terminal = None;
                            if let Some(job) = state.jobs.get_mut(&head) {
                                job.status.state = JobState::Failed;
                                job.status.error = Some(format!(
                                    "poisoned: workers panicked {strikes} times on this spec; \
                                     quarantined"
                                ));
                                // No worker ran, so synthesize the
                                // provenance dump a run would have left:
                                // record the quarantine into this
                                // thread's ring and drain it.
                                flight::record(
                                    "job.poisoned",
                                    [
                                        ("digest".to_owned(), Json::Str(job.digest.clone())),
                                        ("job".to_owned(), Json::Num(head as f64)),
                                        ("strikes".to_owned(), Json::Num(f64::from(strikes))),
                                    ],
                                );
                                let (records, dropped) = flight::take();
                                job.status.flight = flight_json(&records, dropped);
                                terminal = Some(JournalRecord::Terminal {
                                    job: head,
                                    attempt: job.status.attempt,
                                    state: "failed".to_owned(),
                                    error: job.status.error.clone(),
                                    body: None,
                                });
                            }
                            state.release_reservation(head);
                            if let (Some(journal), Some(record)) = (&shared.journal, &terminal) {
                                let _ = journal.append_sync(std::slice::from_ref(record));
                            }
                            tele.log(
                                Level::Warn,
                                "job.poisoned",
                                vec![
                                    field_num("job", head as f64),
                                    field_num("strikes", f64::from(strikes)),
                                ],
                            );
                            shared.changed.notify_all();
                        }
                    }
                }
                let dispatchable = state.queue.front().and_then(|&head| {
                    let job = state.jobs.get(&head)?;
                    let ok = if job.mem_budget.is_some() {
                        state.running == 0
                    } else {
                        !state.exclusive_active
                    };
                    ok.then_some(head)
                });
                if let Some(id) = dispatchable {
                    state.queue.pop_front();
                    state.queued -= 1;
                    state.running += 1;
                    let job = match state.jobs.get_mut(&id) {
                        Some(job) => job,
                        None => {
                            state.running -= 1;
                            continue;
                        }
                    };
                    job.status.state = JobState::Running;
                    let picked = Picked {
                        id,
                        spec: job.spec.clone(),
                        cacheable_key: job.status.cache_key.clone(),
                        config: job.status.config.clone(),
                        mem_budget: job.mem_budget,
                        digest: job.digest.clone(),
                        attempt: job.status.attempt,
                        request_id: job.request_id.clone(),
                        parent_span: job.parent_span,
                        submit_ns: job.submit_ns,
                    };
                    if picked.mem_budget.is_some() {
                        state.exclusive_active = true;
                    }
                    // Under the state lock: the supervisor's crash
                    // repair sees either no job or a fully-dispatched
                    // one, never a half-transition.
                    *current.lock().unwrap_or_else(|e| e.into_inner()) = Some((id, picked.attempt));
                    shared.changed.notify_all();
                    break picked;
                }
                if state.draining && state.queue.is_empty() {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Picked {
            id,
            spec,
            cacheable_key,
            config,
            mem_budget,
            digest,
            attempt,
            request_id,
            parent_span,
            submit_ns,
        } = picked;

        // The started record is flushed, not fsync'd: losing it across a
        // crash only means replay re-runs a job that had already begun.
        if let Some(journal) = &shared.journal {
            journal.append(&JournalRecord::Started { job: id, attempt });
        }

        // Synthesize the queue-wait span: it covers admission → dispatch
        // and sits between the request span and the job.run span, so the
        // rendered trace shows where the time went before execution.
        let dispatch_ns = trace::now_ns();
        let wait_ms = (dispatch_ns.saturating_sub(submit_ns)) as f64 / 1e6;
        let qwait_span = if trace::is_enabled() && parent_span.is_some() {
            let span = trace::alloc_span_id();
            tele.push_job_event(
                id,
                trace::synthetic_event(
                    EventKind::Begin,
                    "queue.wait",
                    span,
                    parent_span,
                    submit_ns,
                    vec![("job", AttrValue::from(id))],
                ),
            );
            tele.push_job_event(
                id,
                trace::synthetic_event(
                    EventKind::End,
                    "queue.wait",
                    span,
                    None,
                    dispatch_ns,
                    vec![],
                ),
            );
            Some(span)
        } else {
            None
        };

        // Execute outside the lock, under a job.run span parented to the
        // queue-wait span (the runner's flow/stage spans nest beneath it
        // via the thread-local stack and pool inheritance). A panicking
        // runner must not take the worker down — it becomes a failed
        // job, same as a runner error (and a poison-ledger strike).
        let panicked = std::cell::Cell::new(false);
        let run = || {
            catch_unwind(AssertUnwindSafe(|| {
                shared.runner.run_budgeted(&spec, mem_budget)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "runner panicked".to_owned());
                panicked.set(true);
                // A panicking run may never have reached its own flight
                // bookkeeping — record the unwind itself, so panicked
                // jobs carry a dump like degraded ones do.
                flight::record(
                    "job.panic",
                    [("message".to_owned(), Json::Str(msg.clone()))],
                );
                Err(format!("runner panicked: {msg}"))
            })
        };
        let outcome = if qwait_span.is_some() {
            trace::run_with_parent(qwait_span, || {
                let _span = span!("job.run", job = id);
                run()
            })
        } else {
            run()
        };
        let panicked = panicked.get();
        let run_ms = (trace::now_ns().saturating_sub(dispatch_ns)) as f64 / 1e6;
        tele.registry().observe("foldic_serve_job_wait_ms", wait_ms);
        tele.registry().observe("foldic_serve_job_run_ms", run_ms);

        // Anything the runner put in this worker's flight recorder
        // becomes provenance on the job's status payload.
        let flight_dump = {
            let (records, dropped) = flight::take();
            flight_json(&records, dropped)
        };

        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        *current.lock().unwrap_or_else(|e| e.into_inner()) = None;
        state.running -= 1;
        if mem_budget.is_some() {
            state.exclusive_active = false;
        }
        state.release_reservation(id);
        // Supervision bookkeeping: only a *panic* counts against the
        // spec's poison ledger and the breaker's failure streak — an
        // ordinary `Err` is the job's problem, not the pool's.
        let mut newly_poisoned = false;
        if panicked {
            newly_poisoned = state.ledger.strike(&digest);
            if let Some(breaker) = &mut state.breaker {
                breaker.record_failure(Instant::now());
            }
        } else if let Some(breaker) = &mut state.breaker {
            breaker.record_success();
        }
        if state.probe_job == Some(id) {
            state.probe_job = None;
        }
        let mut log_line: Option<(Level, &'static str, Option<String>)> = None;
        let mut terminal = None;
        if let Some(job) = state.jobs.get_mut(&id) {
            job.status.flight = flight_dump;
            match outcome {
                Ok(body) => {
                    let body: Arc<str> = Arc::from(body);
                    if let Some(key) = &cacheable_key {
                        shared.cache.insert(key, config, Arc::clone(&body));
                    }
                    job.status.state = JobState::Done;
                    job.status.body = Some(Arc::clone(&body));
                    state.counters.completed += 1;
                    log_line = Some((Level::Info, "job.done", None));
                    // Inline the body only when the persistent cache
                    // cannot re-supply it after a restart.
                    let inline = cacheable_key.is_none() || shared.cache.dir().is_none();
                    terminal = Some(JournalRecord::Terminal {
                        job: id,
                        attempt,
                        state: "done".to_owned(),
                        error: None,
                        body: inline.then(|| body.to_string()),
                    });
                }
                Err(msg) => {
                    job.status.state = JobState::Failed;
                    job.status.error = Some(msg.clone());
                    state.counters.failed += 1;
                    log_line = Some((Level::Error, "job.failed", Some(msg.clone())));
                    terminal = Some(JournalRecord::Terminal {
                        job: id,
                        attempt,
                        state: "failed".to_owned(),
                        error: Some(msg),
                        body: None,
                    });
                }
            }
        }
        drop(state);
        // Terminal durability is eventual, not ack-gated: a crash before
        // this fsync merely re-runs the job on restart, byte-identically.
        if let (Some(journal), Some(record)) = (&shared.journal, &terminal) {
            if let Err(e) = journal.append_sync(std::slice::from_ref(record)) {
                tele.log(
                    Level::Warn,
                    "journal.error",
                    vec![field_str("error", &e.to_string())],
                );
            }
        }
        if newly_poisoned {
            tele.log(
                Level::Warn,
                "spec.poisoned",
                vec![field_str("digest", &digest), field_num("job", id as f64)],
            );
        }
        if let Some((level, event, error)) = log_line {
            let mut fields = vec![
                field_str("cache", "miss"),
                field_num("job", id as f64),
                field_str("request_id", request_id.as_deref().unwrap_or("-")),
                field_num("run_ms", run_ms),
                field_num("wait_ms", wait_ms),
            ];
            if let Some(error) = error {
                fields.push(field_str("error", &error));
            }
            tele.log(level, event, fields);
        }
        // Move this job's freshly recorded spans into the mux promptly,
        // keeping the global buffer small between scrapes.
        tele.ingest();
        shared.work.notify_all();
        shared.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A runner that echoes its config as the body.
    struct EchoRunner;
    impl StudyRunner for EchoRunner {
        fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
            if spec.size == "bogus" {
                return Err("unknown size `bogus`".to_owned());
            }
            let mut config = BTreeMap::new();
            config.insert("experiments".to_owned(), spec.experiments.join("+"));
            config.insert("size".to_owned(), spec.size.clone());
            if let Some(seed) = spec.seed {
                config.insert("seed".to_owned(), format!("{seed:#x}"));
            }
            Ok(config)
        }
        fn run(&self, spec: &JobSpec) -> Result<String, String> {
            if spec.experiments.iter().any(|e| e == "explode") {
                panic!("kaboom");
            }
            if spec.experiments.iter().any(|e| e == "fail") {
                return Err("synthetic failure".to_owned());
            }
            Ok(format!("result for {}", spec.experiments.join("+")))
        }
    }

    /// [`EchoRunner`] that also counts `run` invocations per experiment
    /// set, for poison-quarantine assertions.
    struct CountingRunner {
        runs: AtomicU64,
    }
    impl StudyRunner for CountingRunner {
        fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
            EchoRunner.resolve(spec)
        }
        fn run(&self, spec: &JobSpec) -> Result<String, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            EchoRunner.run(spec)
        }
    }

    fn spec(names: &[&str]) -> JobSpec {
        JobSpec {
            experiments: names.iter().map(|s| (*s).to_owned()).collect(),
            size: "tiny".to_owned(),
            ..JobSpec::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("foldic-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn durability_with_journal(path: &std::path::Path) -> Durability {
        let (journal, replay) = Journal::open(path).unwrap();
        Durability {
            journal: Some((journal, replay)),
            ..Durability::default()
        }
    }

    #[test]
    fn submit_run_and_cache_hit_round_trip() {
        let sched = Scheduler::new(Arc::new(EchoRunner), SchedulerConfig::default());
        let Submission::Queued { id } = sched.submit(spec(&["table1"])) else {
            panic!("first submission must queue");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Done)
        );
        let first = sched.status(id).unwrap();
        assert!(!first.cache_hit);
        let body1 = first.body.unwrap();

        let Submission::Hit { id: id2 } = sched.submit(spec(&["table1"])) else {
            panic!("identical resubmission must hit the cache");
        };
        let second = sched.status(id2).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.state, JobState::Done);
        assert_eq!(second.body.unwrap(), body1, "hit body is byte-identical");

        // a one-field delta misses
        let mut delta = spec(&["table1"]);
        delta.seed = Some(7);
        assert!(matches!(sched.submit(delta), Submission::Queued { .. }));
        sched.shutdown();
    }

    #[test]
    fn invalid_specs_and_failures_are_typed() {
        let sched = Scheduler::new(Arc::new(EchoRunner), SchedulerConfig::default());
        let mut bad = spec(&["table1"]);
        bad.size = "bogus".to_owned();
        assert!(matches!(sched.submit(bad), Submission::Invalid(_)));

        let Submission::Queued { id } = sched.submit(spec(&["fail"])) else {
            panic!("queued");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Failed)
        );
        let status = sched.status(id).unwrap();
        assert!(status.error.unwrap().contains("synthetic failure"));

        // a panicking runner becomes a failed job, not a dead worker
        let Submission::Queued { id } = sched.submit(spec(&["explode"])) else {
            panic!("queued");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Failed)
        );
        assert!(sched.status(id).unwrap().error.unwrap().contains("kaboom"));
        // pool still works
        let Submission::Queued { id } = sched.submit(spec(&["table2"])) else {
            panic!("queued");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Done)
        );
        sched.shutdown();
    }

    #[test]
    fn stats_document_has_the_expected_shape() {
        let sched = Scheduler::new(Arc::new(EchoRunner), SchedulerConfig::default());
        let Submission::Queued { id } = sched.submit(spec(&["table1"])) else {
            panic!("queued");
        };
        sched.wait_terminal(id, Duration::from_secs(10));
        let stats = sched.stats_json();
        assert_eq!(
            stats.get("schema").unwrap().as_str(),
            Some("foldic-serve-stats/1")
        );
        assert_eq!(
            stats.get("jobs").unwrap().get("done").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            stats
                .get("counters")
                .unwrap()
                .get("submitted")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        // pay-for-use: without durability there is no durability section
        assert!(stats.get("durability").is_none());
        sched.shutdown();
    }

    #[test]
    fn journal_restores_terminal_jobs_and_counters_across_restart() {
        let path = tmp("queue-restart");
        let _ = std::fs::remove_file(&path);
        let (id, body) = {
            let sched = Scheduler::with_durability(
                Arc::new(EchoRunner),
                SchedulerConfig::default(),
                Telemetry::disabled(),
                durability_with_journal(&path),
            );
            let Submission::Queued { id } = sched.submit(spec(&["table1"])) else {
                panic!("queued");
            };
            assert_eq!(
                sched.wait_terminal(id, Duration::from_secs(10)),
                Some(JobState::Done)
            );
            let body = sched.status(id).unwrap().body.unwrap();
            sched.shutdown();
            (id, body)
        };
        // "restart": a fresh scheduler over the same journal
        let sched = Scheduler::with_durability(
            Arc::new(EchoRunner),
            SchedulerConfig::default(),
            Telemetry::disabled(),
            durability_with_journal(&path),
        );
        let restored = sched.status(id).unwrap();
        assert_eq!(restored.state, JobState::Done);
        assert_eq!(
            restored.body.unwrap(),
            body,
            "recovered body is byte-identical"
        );
        // lifetime counters survived, and the cache re-warmed: the same
        // spec now hits without recomputing
        let stats = sched.stats_json();
        assert_eq!(
            stats
                .get("counters")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            stats
                .get("durability")
                .unwrap()
                .get("journal")
                .unwrap()
                .get("reenqueued")
                .unwrap()
                .as_f64(),
            Some(0.0),
            "clean restart re-enqueues nothing"
        );
        let Submission::Hit { .. } = sched.submit(spec(&["table1"])) else {
            panic!("restored body must serve cache hits");
        };
        sched.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_reenqueues_non_terminal_jobs_with_bumped_attempt() {
        let path = tmp("queue-reenqueue");
        let _ = std::fs::remove_file(&path);
        // Simulate a crash: an accepted (never finished) job on disk.
        {
            let (journal, _) = Journal::open(&path).unwrap();
            let config = EchoRunner.resolve(&spec(&["table1"])).unwrap();
            journal
                .append_sync(&[accepted_record(
                    7,
                    1,
                    &cache_key(&config),
                    &spec(&["table1"]),
                    &config,
                    &Some("req-0000ff".to_owned()),
                    &None,
                )])
                .unwrap();
        }
        let sched = Scheduler::with_durability(
            Arc::new(EchoRunner),
            SchedulerConfig::default(),
            Telemetry::disabled(),
            durability_with_journal(&path),
        );
        assert_eq!(
            sched.wait_terminal(7, Duration::from_secs(10)),
            Some(JobState::Done),
            "re-enqueued job runs to completion"
        );
        let status = sched.status(7).unwrap();
        assert_eq!(status.attempt, 2, "replay bumps the attempt");
        assert_eq!(status.to_json().get("attempt").unwrap().as_f64(), Some(2.0));
        sched.shutdown();
        // after the clean shutdown the journal holds its terminal record:
        // a second restart re-enqueues nothing (idempotent replay)
        let sched = Scheduler::with_durability(
            Arc::new(EchoRunner),
            SchedulerConfig::default(),
            Telemetry::disabled(),
            durability_with_journal(&path),
        );
        assert_eq!(sched.status(7).unwrap().state, JobState::Done);
        let stats = sched.stats_json();
        assert_eq!(
            stats
                .get("durability")
                .unwrap()
                .get("journal")
                .unwrap()
                .get("reenqueued")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        sched.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idempotency_key_replays_instead_of_double_enqueuing() {
        let sched = Scheduler::new(Arc::new(EchoRunner), SchedulerConfig::default());
        let ctx = |rid: &str| {
            Some(SubmitCtx {
                request_id: rid.to_owned(),
                parent_span: None,
                idempotency_key: Some("idem-abc".to_owned()),
            })
        };
        let Submission::Queued { id } = sched.submit_traced(spec(&["table1"]), ctx("req-1")) else {
            panic!("queued");
        };
        // retried POST (same key) returns the same job, no new enqueue
        let Submission::Duplicate { id: dup } =
            sched.submit_traced(spec(&["table1"]), ctx("req-2"))
        else {
            panic!("expected Duplicate");
        };
        assert_eq!(dup, id);
        sched.wait_terminal(id, Duration::from_secs(10));
        // …even after the job finished
        let Submission::Duplicate { id: dup } =
            sched.submit_traced(spec(&["table1"]), ctx("req-3"))
        else {
            panic!("expected Duplicate after completion");
        };
        assert_eq!(dup, id);
        let stats = sched.stats_json();
        assert_eq!(
            stats
                .get("counters")
                .unwrap()
                .get("submitted")
                .unwrap()
                .as_f64(),
            Some(1.0),
            "duplicates are not submissions"
        );
        sched.shutdown();
    }

    #[test]
    fn poisoned_spec_is_quarantined_and_never_redispatched() {
        let runner = Arc::new(CountingRunner {
            runs: AtomicU64::new(0),
        });
        let sched = Scheduler::new(runner.clone(), SchedulerConfig::default());
        // two panics strike the digest out
        for _ in 0..2 {
            let Submission::Queued { id } = sched.submit(spec(&["explode"])) else {
                panic!("queued");
            };
            assert_eq!(
                sched.wait_terminal(id, Duration::from_secs(10)),
                Some(JobState::Failed)
            );
        }
        assert_eq!(runner.runs.load(Ordering::SeqCst), 2);
        // the third submission fails at dispatch without running
        let Submission::Queued { id } = sched.submit(spec(&["explode"])) else {
            panic!("queued");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Failed)
        );
        let error = sched.status(id).unwrap().error.unwrap();
        assert!(error.contains("poisoned"), "{error}");
        assert_eq!(
            runner.runs.load(Ordering::SeqCst),
            2,
            "poisoned spec never reaches the runner again"
        );
        // other specs are unaffected
        let Submission::Queued { id } = sched.submit(spec(&["table1"])) else {
            panic!("queued");
        };
        assert_eq!(
            sched.wait_terminal(id, Duration::from_secs(10)),
            Some(JobState::Done)
        );
        sched.shutdown();
    }
}
