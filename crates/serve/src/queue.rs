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
//! # State machine and thread driver
//!
//! The job lifecycle is one state machine, [`State`], with three
//! transitions: `enqueue` adds a job (a cache hit or a journal-replayed
//! terminal job is born terminal, every other job joins the queue),
//! `dispatch` picks the next job to run under the rules above, and
//! `settle` ends a job — the only place a queued or running job becomes
//! terminal, whether it finished, failed, panicked, lost its worker, was
//! cancelled, drained at shutdown or quarantined as poisoned. They take
//! no lock, spawn no thread, never sleep and touch no cache, journal or
//! log, so a unit test drives them directly. Everything else is the
//! thread driver: [`Scheduler`] and its workers hold the lock around each
//! transition, run jobs, fill the cache, write the journal (every settled
//! job's `terminal` record outside the lock) and log.
//!
//! The scheduler is telemetry-aware (the hub handed to
//! [`Scheduler::with_durability`]): a traced submission carries its
//! request's `http.request` span, dispatch synthesizes a `queue.wait`
//! span covering the time in queue, the run executes under a `job.run`
//! span (so the flow/stage spans the study runner opens nest beneath
//! it), the provenance records a run returns ([`FlightRecord`]) land in
//! its job's status document, and every transition writes a structured
//! log line.
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
//!   are caught per-job inside), settles the orphaned job as failed and
//!   restarts the worker.
//! * **Idempotency keys** — a submission carrying an idempotency key
//!   that matches an accepted job returns that job instead of
//!   double-enqueuing; the key→job map is journaled and survives
//!   restart, so a client retry after a lost ack is safe.

use crate::cache::ResultCache;
use crate::job::{cache_key, JobSpec};
use crate::journal::{Journal, Record as JournalRecord, Replay};
use crate::supervise::{Admission, BreakerConfig, BreakerState, CircuitBreaker, PoisonLedger};
use crate::telemetry::{self, field_num, field_str, Telemetry};
use foldic_obs::json::Json;
use foldic_obs::log::Level;
use foldic_obs::metrics::Metric;
use foldic_obs::span;
use foldic_obs::trace::{self, AttrValue, EventKind, SpanId};
use std::cell::Cell;
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

    /// [`StudyRunner::run`] under a per-job memory budget (for jobs the
    /// cost-aware admission layer classified oversized), returning the
    /// run's provenance records beside its result; the scheduler renders
    /// them as the job status document's `flight_recorder` array.
    /// Implementations that honor the budget run under a `foldic-fault`
    /// context carrying a resource policy, so breaches degrade gracefully
    /// instead of taking the worker's address space. The default ignores
    /// the budget and records nothing, which keeps budget-less runners
    /// byte-identical to their old behavior.
    ///
    /// # Errors
    ///
    /// The result carries the same contract as [`StudyRunner::run`].
    fn run_budgeted(
        &self,
        spec: &JobSpec,
        mem_budget: Option<u64>,
    ) -> (Result<String, String>, Vec<FlightRecord>) {
        let _ = mem_budget;
        (self.run(spec), Vec::new())
    }
}

/// One provenance record a run leaves for its job: why a result degraded,
/// faulted, timed out or panicked, without any always-on logging cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Nanoseconds since the process trace epoch ([`trace::now_ns`]), the
    /// clock spans use, so a dump lines up with a trace of the same job.
    pub ts_ns: u64,
    /// What happened (`job.start`, `stage.timeout`, `job.panic`, …).
    pub name: String,
    /// Structured payload, deterministically ordered.
    pub fields: BTreeMap<String, Json>,
}

impl FlightRecord {
    /// A record stamped now.
    pub fn new(name: &str, fields: impl IntoIterator<Item = (String, Json)>) -> Self {
        Self {
            ts_ns: trace::now_ns(),
            name: name.to_owned(),
            fields: fields.into_iter().collect(),
        }
    }
}

/// Most provenance records a status document carries. Sized for the
/// worst realistic dump: a deadline job over every experiment leaves one
/// record per faulted stage/block plus start and end records — tens of
/// entries — while a dump stays a few KiB.
const FLIGHT_CAPACITY: usize = 64;

/// Renders a run's provenance as the status document's `flight_recorder`
/// array: `None` when the run recorded nothing, else at most
/// [`FLIGHT_CAPACITY`] records — the first (`job.start`, which names the
/// job's deadline and budget) and the latest — `seq` numbering them in
/// the job's own order, then a `flight.truncated` marker counting the
/// records dropped between them, so the dump says how much history it
/// lost.
fn flight_json(records: &[FlightRecord]) -> Option<Json> {
    if records.is_empty() {
        return None;
    }
    let dropped = records.len().saturating_sub(FLIGHT_CAPACITY);
    let mut items: Vec<Json> = records
        .iter()
        .enumerate()
        .filter(|&(seq, _)| seq == 0 || seq > dropped)
        .map(|(seq, record)| {
            Json::obj([
                ("fields".to_owned(), Json::Obj(record.fields.clone())),
                ("name".to_owned(), Json::Str(record.name.clone())),
                ("seq".to_owned(), Json::Num(seq as f64)),
                ("ts_ns".to_owned(), Json::Num(record.ts_ns as f64)),
            ])
        })
        .collect();
    if dropped > 0 {
        items.push(Json::obj([
            ("dropped".to_owned(), Json::Num(dropped as f64)),
            ("name".to_owned(), Json::Str("flight.truncated".to_owned())),
        ]));
    }
    Some(Json::Arr(items))
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
    /// a truncation marker) — attached when the run left provenance
    /// records, i.e. the job degraded, faulted, timed out, panicked or
    /// was quarantined.
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

#[derive(Clone)]
struct Job {
    spec: JobSpec,
    status: JobStatus,
    /// Bytes this job holds in the reservation ledger; zero once settled.
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

impl Job {
    /// A queued first attempt holding no reservation, with a cache key
    /// when `cacheable`. Every job — cache hit, admission or journal
    /// replay — starts here; callers set what differs before
    /// [`State::enqueue`].
    fn new(
        id: u64,
        spec: JobSpec,
        config: BTreeMap<String, String>,
        digest: String,
        cacheable: bool,
        request_id: Option<String>,
    ) -> Self {
        Self {
            spec,
            status: JobStatus {
                id,
                state: JobState::Queued,
                attempt: 1,
                cache_hit: false,
                cache_key: cacheable.then(|| digest.clone()),
                config,
                error: None,
                body: None,
                flight: None,
            },
            reservation: 0,
            mem_budget: None,
            digest,
            request_id,
            parent_span: None,
            submit_ns: trace::now_ns(),
        }
    }
}

#[derive(Default, Clone, Copy)]
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

impl Counters {
    /// Counts one job in terminal `state` (no-op for live states).
    fn terminal(&mut self, state: JobState) {
        match state {
            JobState::Done => self.completed += 1,
            JobState::Failed => self.failed += 1,
            JobState::Cancelled => self.cancelled += 1,
            JobState::Queued | JobState::Running => {}
        }
    }
}

/// How a job ends: the input of [`State::settle`].
#[derive(Debug)]
enum Outcome {
    /// The run returned a body.
    Done(Arc<str>),
    /// The run returned an error — the job's problem, not the pool's.
    Failed(String),
    /// The runner panicked (the message becomes the job's error): a
    /// strike against the spec's digest and a breaker failure.
    Panicked(String),
    /// The worker loop itself died while running the job.
    Crashed,
    /// Cancelled while queued, by a client or the shutdown drain.
    Cancelled,
    /// Quarantined at dispatch: the spec's digest struck out this many
    /// times.
    Poisoned(u32),
}

/// What one [`State::dispatch`] call did.
enum Dispatch {
    /// The job, now running, as the caller executes it.
    Run(Job),
    /// The head's digest is poisoned: the job was settled failed without
    /// running, leaving this terminal record.
    Poisoned {
        id: u64,
        strikes: u32,
        record: Option<JournalRecord>,
    },
    /// Nothing can start now.
    Idle,
}

/// The job table and every counter derived from it: a pure state
/// machine whose transitions are [`State::enqueue`], [`State::dispatch`]
/// and [`State::settle`] (see the module docs).
#[derive(Default)]
struct State {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Jobs currently in [`JobState::Queued`] (admission bound; `queue`
    /// may also hold ids of already-cancelled jobs, skipped at dispatch).
    queued: usize,
    /// Deepest the queue has ever been (gauge on `/metrics`, `/stats`).
    queue_high_water: usize,
    running: usize,
    /// A budgeted (oversized) job is running, so nothing else may start.
    /// Set only by `dispatch`, cleared only by `settle`.
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
    /// Whether `done` bodies ride inline in terminal records: everywhere
    /// unless a persistent cache directory re-supplies cacheable ones.
    inline_bodies: bool,
}

impl State {
    fn new(breaker: Option<BreakerConfig>, inline_bodies: bool) -> Self {
        Self {
            next_id: 1,
            breaker: breaker.map(CircuitBreaker::new),
            inline_bodies,
            ..Self::default()
        }
    }

    /// Adds a job to the table and counts it: `submitted` once, then
    /// either its terminal counter (a cache hit or a journal-replayed
    /// terminal job is born terminal) or the queue, which a queued job
    /// joins at the back; plus its reservation, its idempotency key and,
    /// for the breaker's half-open probe, the probe slot.
    fn enqueue(&mut self, job: Job, idempotency_key: Option<String>, probe: bool) {
        let id = job.status.id;
        self.counters.submitted += 1;
        if job.status.state == JobState::Queued {
            self.queue.push_back(id);
            self.queued += 1;
            self.queue_high_water = self.queue_high_water.max(self.queued);
        } else {
            self.counters.terminal(job.status.state);
        }
        self.reserved += job.reservation;
        self.reserved_peak = self.reserved_peak.max(self.reserved);
        if let Some(key) = idempotency_key {
            self.idempotency.insert(key, id);
        }
        if probe {
            self.probe_job = Some(id);
        }
        self.next_id = self.next_id.max(id + 1);
        self.jobs.insert(id, job);
    }

    /// Picks the next job in strict FIFO order. Heads no longer queued
    /// (cancelled) are dropped; a head whose digest is poisoned is
    /// settled failed without running; a budgeted head waits until
    /// nothing runs, and while it runs nothing else starts (rule 4).
    fn dispatch(&mut self) -> Dispatch {
        while let Some(&id) = self.queue.front() {
            let Some(job) = self
                .jobs
                .get_mut(&id)
                .filter(|job| job.status.state == JobState::Queued)
            else {
                self.queue.pop_front();
                continue;
            };
            if self.ledger.is_poisoned(&job.digest) {
                let strikes = self.ledger.strikes(&job.digest);
                // No worker runs it, so the quarantine is its provenance.
                job.status.flight = flight_json(&[FlightRecord::new(
                    "job.poisoned",
                    [
                        ("digest".to_owned(), Json::Str(job.digest.clone())),
                        ("job".to_owned(), Json::Num(id as f64)),
                        ("strikes".to_owned(), Json::Num(f64::from(strikes))),
                    ],
                )]);
                self.queue.pop_front();
                let record = self.settle(id, Outcome::Poisoned(strikes));
                return Dispatch::Poisoned {
                    id,
                    strikes,
                    record,
                };
            }
            let budgeted = job.mem_budget.is_some();
            let fits = if budgeted {
                self.running == 0
            } else {
                !self.exclusive_active
            };
            if !fits {
                return Dispatch::Idle;
            }
            self.queue.pop_front();
            self.queued -= 1;
            self.running += 1;
            if budgeted {
                self.exclusive_active = true;
            }
            job.status.state = JobState::Running;
            return Dispatch::Run(job.clone());
        }
        Dispatch::Idle
    }

    /// Ends job `id` — the only place a queued or running job becomes
    /// terminal. A cancel or a poisoning ends a queued job, every other
    /// outcome a running one; for any other job (unknown, or in another
    /// state) it changes nothing and returns `None`. Otherwise it takes
    /// the job out of the queued or running count, bumps its terminal
    /// counters, releases its reservation, resolves the breaker (the
    /// probe, or the failure streak) and `exclusive_active`, and returns
    /// the job's `terminal` journal record.
    fn settle(&mut self, id: u64, outcome: Outcome) -> Option<JournalRecord> {
        let job = self.jobs.get_mut(&id)?;
        let from = match outcome {
            Outcome::Cancelled | Outcome::Poisoned(_) => JobState::Queued,
            _ => JobState::Running,
        };
        if job.status.state != from {
            return None;
        }
        if from == JobState::Queued {
            self.queued -= 1;
        } else {
            self.running -= 1;
            if job.mem_budget.is_some() {
                self.exclusive_active = false;
            }
        }
        self.reserved -= std::mem::take(&mut job.reservation);
        let probe = self.probe_job == Some(id);
        if probe {
            self.probe_job = None;
        }
        // Only a panic or a lost worker counts against the pool; a job
        // that never ran just frees the probe slot it may hold.
        if let Some(breaker) = &mut self.breaker {
            match outcome {
                Outcome::Done(_) | Outcome::Failed(_) => breaker.record_success(),
                Outcome::Panicked(_) | Outcome::Crashed => breaker.record_failure(Instant::now()),
                Outcome::Cancelled | Outcome::Poisoned(_) if probe => breaker.abort_probe(),
                Outcome::Cancelled | Outcome::Poisoned(_) => {}
            }
        }
        let (state, error) = match outcome {
            Outcome::Done(body) => {
                job.status.body = Some(body);
                (JobState::Done, None)
            }
            Outcome::Failed(error) => (JobState::Failed, Some(error)),
            Outcome::Panicked(error) => {
                self.ledger.strike(&job.digest);
                (JobState::Failed, Some(error))
            }
            Outcome::Crashed => (
                JobState::Failed,
                Some("worker crashed while running this job".to_owned()),
            ),
            Outcome::Cancelled => (JobState::Cancelled, None),
            Outcome::Poisoned(strikes) => {
                self.counters.poisoned += 1;
                (
                    JobState::Failed,
                    Some(format!(
                        "poisoned: workers panicked {strikes} times on this spec; quarantined"
                    )),
                )
            }
        };
        job.status.state = state;
        job.status.error = error;
        self.counters.terminal(state);
        Some(terminal_record(job, self.inline_bodies))
    }
}

/// The `terminal` journal record of a job in its final state. A `done`
/// body rides inline unless the persistent cache re-supplies it after a
/// restart (a cacheable job when bodies are not inlined).
fn terminal_record(job: &Job, inline_bodies: bool) -> JournalRecord {
    let inline = inline_bodies || job.status.cache_key.is_none();
    JournalRecord::Terminal {
        job: job.status.id,
        attempt: job.status.attempt,
        state: job.status.state.as_str().to_owned(),
        error: job.status.error.clone(),
        body: job
            .status
            .body
            .as_ref()
            .filter(|_| inline)
            .map(|body| body.to_string()),
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
    runner: Arc<dyn StudyRunner>,
    cfg: SchedulerConfig,
    telemetry: Arc<Telemetry>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `records` in one fsync'd batch; called outside the state
    /// lock. A failure is logged, not returned: the transitions the
    /// records describe already happened in memory.
    fn write_journal(&self, records: &[JournalRecord]) {
        let Some(journal) = self.journal.as_ref().filter(|_| !records.is_empty()) else {
            return;
        };
        if let Err(e) = journal.append_sync(records) {
            self.telemetry.log(
                Level::Warn,
                "journal.error",
                vec![field_str("error", &e.to_string())],
            );
        }
    }
}

/// Scheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Most jobs that may wait in the queue at once.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
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
            mem_limit: None,
        }
    }
}

/// Base of every load-derived `Retry-After` hint, in seconds.
const RETRY_AFTER_BASE_SECS: u64 = 1;

/// Load-derived `Retry-After` hint: [`RETRY_AFTER_BASE_SECS`], plus one
/// second per worker-pool's worth of queued jobs, plus one second per
/// quarter of the reservation ledger already committed. Deterministic in
/// the scheduler state and bounded — a hammered daemon asks clients to
/// back off harder, but never for more than a minute.
fn retry_after_hint(cfg: &SchedulerConfig, state: &State) -> u32 {
    let queue_pressure = state.queued as u64 / cfg.workers.max(1) as u64;
    let mem_pressure = match cfg.mem_limit {
        Some(limit) if limit > 0 => 4 * state.reserved / limit,
        _ => 0,
    };
    RETRY_AFTER_BASE_SECS
        .saturating_add(queue_pressure)
        .saturating_add(mem_pressure)
        .min(60) as u32
}

/// `(reservation, per-job budget)` for a job whose cost estimate is
/// `estimate` under memory `limit`: an estimate above the limit reserves
/// all of it and runs alone under it as its budget.
fn reservation_for(estimate: u64, limit: u64) -> (u64, Option<u64>) {
    if estimate > limit {
        (limit, Some(limit))
    } else {
        (estimate, None)
    }
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

/// Breaker states in `foldic_serve_breaker_state` gauge order.
const BREAKER_GAUGE: [BreakerState; 3] = [
    BreakerState::Closed,
    BreakerState::HalfOpen,
    BreakerState::Open,
];

/// Every `/stats` field fed by a series, as (dotted JSON path, series).
/// A field whose series is absent, because its pay-for-use family is not
/// configured, is left out.
const STATS_FIELDS: &[(&str, &str)] = {
    use telemetry::*;
    &[
        ("jobs.queued", SERIES_QUEUE_DEPTH),
        ("jobs.running", SERIES_WORKERS_BUSY),
        ("jobs.done", SERIES_JOBS_DONE),
        ("jobs.failed", SERIES_JOBS_FAILED),
        ("jobs.cancelled", SERIES_JOBS_CANCELLED),
        ("queue.depth", SERIES_QUEUE_DEPTH),
        ("queue.capacity", SERIES_QUEUE_CAPACITY),
        ("queue.high_water", SERIES_QUEUE_HIGH_WATER),
        ("queue.rejected", SERIES_JOBS_REJECTED),
        ("counters.submitted", SERIES_JOBS_SUBMITTED),
        ("counters.completed", SERIES_JOBS_DONE),
        ("counters.failed", SERIES_JOBS_FAILED),
        ("counters.cancelled", SERIES_JOBS_CANCELLED),
        ("cache.entries", SERIES_CACHE_ENTRIES),
        ("cache.hits", SERIES_CACHE_HITS),
        ("cache.misses", SERIES_CACHE_MISSES),
        ("cache.insertions", SERIES_CACHE_INSERTIONS),
        ("uptime_seconds", SERIES_UPTIME),
        ("workers", SERIES_WORKERS),
        ("durability.poisoned_jobs", SERIES_JOBS_POISONED),
        ("durability.shed", SERIES_JOBS_SHED),
        ("durability.worker_restarts", SERIES_WORKER_RESTARTS),
        ("durability.journal.reenqueued", SERIES_JOURNAL_REENQUEUED),
        ("durability.journal.replayed_jobs", SERIES_JOURNAL_REPLAYED),
        ("durability.cache_dir.corrupt", SERIES_CACHE_CORRUPT),
        ("durability.cache_dir.loaded", SERIES_CACHE_LOADED),
        ("durability.breaker.transitions", SERIES_BREAKER_TRANSITIONS),
        ("resources.limit_bytes", SERIES_MEM_LIMIT),
        ("resources.mem_shed", SERIES_JOBS_MEM_SHED),
        ("resources.oversized", SERIES_JOBS_OVERSIZED),
        ("resources.reserved_bytes", SERIES_MEM_RESERVED),
        ("resources.reserved_peak_bytes", SERIES_MEM_RESERVED_PEAK),
    ]
};

/// Sets `value` at the dotted `path` of `obj`, creating the objects on
/// the way.
fn set_path(obj: &mut BTreeMap<String, Json>, path: &str, value: Json) {
    match path.split_once('.') {
        Some((head, rest)) => {
            let child = obj.entry(head.to_owned()).or_insert_with(|| Json::obj([]));
            if let Json::Obj(child) = child {
                set_path(child, rest, value);
            }
        }
        None => {
            obj.insert(path.to_owned(), value);
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
        Self::with_durability(runner, cfg, Telemetry::disabled(), Durability::default())
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
        let (journal, replay) = journal.unzip();
        let shared = Arc::new(Shared {
            state: Mutex::new(State::new(breaker, cache.dir().is_none())),
            work: Condvar::new(),
            changed: Condvar::new(),
            cache,
            journal,
            runner,
            cfg,
            telemetry,
        });
        if let Some(replay) = replay {
            let reaccepts =
                seed_from_replay(&mut shared.lock(), &shared.cache, &replay, cfg.mem_limit);
            // Re-acceptance records make the bumped attempt counts
            // durable; failure degrades only that (the jobs are
            // re-enqueued in memory regardless).
            shared.write_journal(&reaccepts);
            shared.telemetry.log(
                Level::Info,
                "journal.replayed",
                vec![
                    field_num("jobs", replay.jobs.len() as f64),
                    field_num("reenqueued", reaccepts.len() as f64),
                    field_num("trimmed_bytes", replay.trimmed_bytes as f64),
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
        self.shared.lock()
    }

    /// The result cache (stats and introspection endpoints).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
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
        let parent_span = ctx.as_ref().and_then(|c| c.parent_span);
        let rid = ctx.as_ref().map_or("-", |c| c.request_id.as_str());

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
        if cacheable {
            // Cache consultation happens under the state lock so the
            // hit/miss counters observed by a status probe are always
            // consistent with the job table.
            if let Some(body) = self.shared.cache.lookup(&key) {
                let id = state.next_id;
                let mut job = Job::new(id, spec, config, key.clone(), true, request_id);
                job.status.state = JobState::Done;
                job.status.cache_hit = true;
                job.status.body = Some(body);
                if let Some(journal) = &self.shared.journal {
                    // A hit is an acknowledged job too: journal its
                    // acceptance and completion in one fsync'd batch.
                    let records = [
                        accepted_record(
                            id,
                            1,
                            &key,
                            &job.spec,
                            &job.status.config,
                            &job.request_id,
                            &idempotency_key,
                        ),
                        terminal_record(&job, state.inline_bodies),
                    ];
                    if let Err(e) = journal.append_sync(&records) {
                        return self.shed_submission(state, &e.to_string(), rid);
                    }
                }
                state.enqueue(job, idempotency_key, false);
                drop(state);
                // A hit job's trace is just the request span: seed it so
                // `/jobs/<id>/trace` still resolves.
                if let Some(span) = parent_span {
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
        let (mut reservation, mut mem_budget) = (0, None);
        if let Some(limit) = self.shared.cfg.mem_limit {
            let estimate = match crate::cost::estimate_cost(&spec) {
                Ok(estimate) => estimate,
                Err(msg) => return Submission::Invalid(msg),
            };
            (reservation, mem_budget) = reservation_for(estimate, limit);
            if mem_budget.is_none() && state.reserved.saturating_add(estimate) > limit {
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
            }
        }
        // A budget-degraded body is not the spec's canonical result, so
        // oversized jobs stay out of the content-addressed cache.
        let oversized = mem_budget.is_some();
        // The breaker gates computed work only — cache hits (above) are
        // served even while open, and it is the last gate so a half-open
        // probe admission always corresponds to an actually-queued job.
        let mut probe = false;
        if let Some(breaker) = &mut state.breaker {
            match breaker.try_admit(Instant::now()) {
                Admission::Allowed => {}
                Admission::Probe => probe = true,
                Admission::Shed { retry_after_secs } => {
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
        let mut job = Job::new(id, spec, config, key, cacheable && !oversized, request_id);
        job.reservation = reservation;
        job.mem_budget = mem_budget;
        job.parent_span = parent_span;
        state.enqueue(job, idempotency_key, probe);
        if oversized {
            state.counters.oversized += 1;
        }
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

    /// Sheds a submission whose journal write failed: the daemon must
    /// never acknowledge a job it cannot re-prove.
    fn shed_submission(
        &self,
        mut state: MutexGuard<'_, State>,
        error: &str,
        rid: &str,
    ) -> Submission {
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
        let record = state.settle(id, Outcome::Cancelled);
        let job = state.jobs.get(&id)?;
        let current = job.status.state;
        let request_id = job.request_id.clone();
        drop(state);
        if record.is_some() {
            self.shared.write_journal(record.as_slice());
            self.shared.telemetry.log(
                Level::Info,
                "job.cancelled",
                vec![
                    field_num("job", id as f64),
                    field_str("request_id", request_id.as_deref().unwrap_or("-")),
                ],
            );
            self.shared.work.notify_all();
            self.shared.changed.notify_all();
        }
        Some(current)
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

    /// The scheduler and cache series behind `/metrics` and `/stats`, read
    /// under one lock. Each pay-for-use family (durability, journal, cache
    /// directory, breaker, memory limit) is present only when its feature
    /// is configured, so an unconfigured daemon's bodies are unchanged.
    fn series(&self) -> BTreeMap<String, Metric> {
        use telemetry::*;
        use Metric::{Counter, Gauge};
        let state = self.lock();
        let (c, cfg, cache) = (&state.counters, &self.shared.cfg, self.shared.cache.stats());
        let journal = self.shared.journal.is_some();
        let cache_dir = self.shared.cache.dir().is_some();
        let mut series = vec![
            (SERIES_JOBS_DONE, Counter(c.completed)),
            (SERIES_JOBS_FAILED, Counter(c.failed)),
            (SERIES_JOBS_CANCELLED, Counter(c.cancelled)),
            (SERIES_JOBS_SUBMITTED, Counter(c.submitted)),
            (SERIES_JOBS_REJECTED, Counter(c.rejected)),
            (SERIES_CACHE_HITS, Counter(cache.hits)),
            (SERIES_CACHE_MISSES, Counter(cache.misses)),
            (SERIES_CACHE_INSERTIONS, Counter(cache.insertions)),
            (SERIES_CACHE_EVICTIONS, Counter(0)),
            (SERIES_CACHE_ENTRIES, Gauge(cache.entries as f64)),
            (SERIES_QUEUE_DEPTH, Gauge(state.queued as f64)),
            (
                SERIES_QUEUE_HIGH_WATER,
                Gauge(state.queue_high_water as f64),
            ),
            (SERIES_QUEUE_CAPACITY, Gauge(cfg.queue_capacity as f64)),
            (SERIES_WORKERS, Gauge(cfg.workers as f64)),
            (SERIES_WORKERS_BUSY, Gauge(state.running as f64)),
            (
                SERIES_UPTIME,
                Gauge(self.shared.telemetry.uptime_secs() as f64),
            ),
        ];
        if journal || cache_dir || state.breaker.is_some() {
            series.extend([
                (SERIES_JOBS_SHED, Counter(c.shed)),
                (SERIES_JOBS_POISONED, Counter(c.poisoned)),
                (SERIES_WORKER_RESTARTS, Counter(state.worker_restarts)),
            ]);
        }
        if journal {
            series.extend([
                (SERIES_JOURNAL_REPLAYED, Counter(state.replayed_jobs)),
                (SERIES_JOURNAL_REENQUEUED, Counter(state.reenqueued)),
            ]);
        }
        if cache_dir {
            series.extend([
                (SERIES_CACHE_LOADED, Counter(cache.loaded)),
                (SERIES_CACHE_CORRUPT, Counter(cache.corrupt)),
            ]);
        }
        if let Some(breaker) = &state.breaker {
            let gauge = BREAKER_GAUGE.iter().position(|&s| s == breaker.state());
            series.extend([
                (SERIES_BREAKER_STATE, Gauge(gauge.unwrap_or(0) as f64)),
                (SERIES_BREAKER_TRANSITIONS, Counter(breaker.transitions())),
            ]);
        }
        if let Some(limit) = cfg.mem_limit {
            series.extend([
                (SERIES_MEM_LIMIT, Gauge(limit as f64)),
                (SERIES_MEM_RESERVED, Gauge(state.reserved as f64)),
                (SERIES_MEM_RESERVED_PEAK, Gauge(state.reserved_peak as f64)),
                (SERIES_JOBS_OVERSIZED, Counter(c.oversized)),
                (SERIES_JOBS_MEM_SHED, Counter(c.mem_shed)),
            ]);
        }
        series
            .into_iter()
            .map(|(name, metric)| (name.to_owned(), metric))
            .collect()
    }

    /// The `/stats` document: the scheduler's series projected through
    /// [`STATS_FIELDS`], plus the schema and the breaker's state name.
    /// Everything except `uptime_seconds` is a counter, not a wall-clock
    /// reading, so two probes of an idle daemon agree on every other
    /// field; pay-for-use sections appear only with their series.
    pub fn stats_json(&self) -> Json {
        let series = self.series();
        let schema = Json::Str("foldic-serve-stats/1".to_owned());
        let mut doc = BTreeMap::from([("schema".to_owned(), schema)]);
        for (path, name) in STATS_FIELDS {
            match series.get(*name) {
                Some(Metric::Counter(n)) => set_path(&mut doc, path, Json::Num(*n as f64)),
                Some(Metric::Gauge(v)) => set_path(&mut doc, path, Json::Num(*v)),
                _ => {}
            }
        }
        if let Some(Metric::Gauge(gauge)) = series.get(telemetry::SERIES_BREAKER_STATE) {
            if let Some(breaker) = BREAKER_GAUGE.get(*gauge as usize) {
                let name = Json::Str(breaker.as_str().to_owned());
                set_path(&mut doc, "durability.breaker.state", name);
            }
        }
        Json::Obj(doc)
    }

    /// The `/metrics` exposition body: the live request/latency registry
    /// plus the scheduler's series, rendered per the
    /// `foldic-serve-metrics/1` contract documented in [`crate::telemetry`].
    pub fn metrics_text(&self) -> String {
        self.shared.telemetry.ingest();
        let mut snap = self.shared.telemetry.registry().snapshot();
        snap.metrics.extend(self.series());
        foldic_obs::expo::to_prometheus(&snap)
    }

    /// Drains and stops: no new submissions, queued jobs cancelled (and
    /// journaled as such), in-flight jobs run to completion, workers
    /// joined, and the trace buffer flushed into the per-job mux — spans
    /// recorded between the last export and the shutdown request are
    /// preserved, not dropped. Idempotent.
    pub fn shutdown(&self) {
        let cancelled: Vec<JournalRecord> = {
            let mut state = self.lock();
            state.draining = true;
            let queue: Vec<u64> = state.queue.drain(..).collect();
            queue
                .into_iter()
                .filter_map(|id| state.settle(id, Outcome::Cancelled))
                .collect()
        };
        self.shared.write_journal(&cancelled);
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
            vec![field_num("cancelled_queued", cancelled.len() as f64)],
        );
    }
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

/// Seeds a fresh scheduler [`State`] from a journal [`Replay`]: terminal
/// jobs are restored (bodies from the journal or the persistent cache —
/// a `done` job whose body is unrecoverable is re-enqueued instead, and
/// recomputes byte-identically), non-terminal jobs are re-enqueued with
/// `attempt+1` (returned: their re-acceptance records), and lifetime
/// counters come back.
///
/// Under a memory limit, re-enqueued jobs are priced as at admission:
/// they bypassed `submit_traced`, but they will occupy workers all the
/// same, so they must hold ledger reservations — and an oversized replay
/// must come back budgeted and alone, or a crash would strip the very
/// protection that let it in. Nothing is shed: the jobs were already
/// acknowledged. An unpriceable spec (the journal outlived a size
/// rename, say) is charged the whole limit.
fn seed_from_replay(
    state: &mut State,
    cache: &ResultCache,
    replay: &Replay,
    mem_limit: Option<u64>,
) -> Vec<JournalRecord> {
    state.replayed_jobs = replay.jobs.len() as u64;
    let mut reaccepts = Vec::new();
    for (&id, rjob) in &replay.jobs {
        let cacheable = rjob.spec.cacheable();
        let mut job = Job::new(
            id,
            rjob.spec.clone(),
            rjob.config.clone(),
            rjob.digest.clone(),
            cacheable,
            rjob.request_id.clone(),
        );
        job.status.attempt = rjob.attempt;
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
        if let Some((terminal, error, body, from_cache)) = restored {
            job.status.state = terminal;
            job.status.error = error;
            job.status.body = body;
            job.status.cache_hit = from_cache;
        } else {
            job.status.attempt += 1;
            if let Some(limit) = mem_limit {
                let estimate = crate::cost::estimate_cost(&job.spec).unwrap_or(limit);
                (job.reservation, job.mem_budget) = reservation_for(estimate, limit);
            }
            state.reenqueued += 1;
            reaccepts.push(accepted_record(
                id,
                job.status.attempt,
                &rjob.digest,
                &rjob.spec,
                &rjob.config,
                &rjob.request_id,
                &rjob.idempotency_key,
            ));
        }
        state.enqueue(job, rjob.idempotency_key.clone(), false);
    }
    reaccepts
}

/// Supervises one worker thread: [`worker_loop`] panics (which can only
/// come from harness code — runner panics are caught per-job inside) are
/// caught, the orphaned job is settled as crashed, and the loop
/// restarts. A clean return means drain-on-shutdown finished.
fn supervise_worker(shared: &Arc<Shared>) {
    // The job this worker is running, set and cleared under the state
    // lock at dispatch and completion. Only this thread touches it.
    let current = Cell::new(None);
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &current))).is_ok() {
            return;
        }
        let orphan = current.take();
        let record = {
            let mut state = shared.lock();
            state.worker_restarts += 1;
            orphan.and_then(|id| state.settle(id, Outcome::Crashed))
        };
        shared.write_journal(record.as_slice());
        shared.telemetry.log(
            Level::Warn,
            "worker.restarted",
            vec![field_num("job", orphan.map_or(-1.0, |id| id as f64))],
        );
        shared.changed.notify_all();
        shared.work.notify_all();
    }
}

/// One worker: dispatch under the lock, execution outside it, then the
/// job settles under the lock and its terminal record is journaled
/// outside it.
fn worker_loop(shared: &Shared, current: &Cell<Option<u64>>) {
    let tele = &shared.telemetry;
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                match state.dispatch() {
                    Dispatch::Run(job) => {
                        // Under the state lock: crash repair sees either
                        // no job or a fully-dispatched one.
                        current.set(Some(job.status.id));
                        break job;
                    }
                    Dispatch::Poisoned {
                        id,
                        strikes,
                        record,
                    } => {
                        drop(state);
                        shared.write_journal(record.as_slice());
                        tele.log(
                            Level::Warn,
                            "job.poisoned",
                            vec![
                                field_num("job", id as f64),
                                field_num("strikes", f64::from(strikes)),
                            ],
                        );
                        shared.changed.notify_all();
                        state = shared.lock();
                    }
                    Dispatch::Idle if state.draining && state.queue.is_empty() => return,
                    Dispatch::Idle => {
                        state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        shared.changed.notify_all();
        let id = job.status.id;

        // The started record is flushed, not fsync'd: losing it across a
        // crash only means replay re-runs a job that had already begun.
        if let Some(journal) = &shared.journal {
            journal.append(&JournalRecord::Started {
                job: id,
                attempt: job.status.attempt,
            });
        }

        // Synthesize the queue-wait span: it covers admission → dispatch
        // and sits between the request span and the job.run span, so the
        // rendered trace shows where the time went before execution.
        let dispatch_ns = trace::now_ns();
        let wait_ms = (dispatch_ns.saturating_sub(job.submit_ns)) as f64 / 1e6;
        let qwait_span = if trace::is_enabled() && job.parent_span.is_some() {
            let span = trace::alloc_span_id();
            tele.push_job_event(
                id,
                trace::synthetic_event(
                    EventKind::Begin,
                    "queue.wait",
                    span,
                    job.parent_span,
                    job.submit_ns,
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
        let panicked = Cell::new(false);
        let run = || {
            catch_unwind(AssertUnwindSafe(|| {
                shared.runner.run_budgeted(&job.spec, job.mem_budget)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "runner panicked".to_owned());
                panicked.set(true);
                // The unwind took the run's own records with it: the
                // panic itself is the job's provenance.
                let record = FlightRecord::new(
                    "job.panic",
                    [("message".to_owned(), Json::Str(msg.clone()))],
                );
                (Err(format!("runner panicked: {msg}")), vec![record])
            })
        };
        let (result, flight) = if qwait_span.is_some() {
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

        let result = result.map(Arc::<str>::from);
        // The body is cached before the job turns done, so a client that
        // sees it done and resubmits always hits.
        if let (Ok(body), Some(key)) = (&result, &job.status.cache_key) {
            shared
                .cache
                .insert(key, job.status.config.clone(), Arc::clone(body));
        }
        let (level, event, error) = match &result {
            Ok(_) => (Level::Info, "job.done", None),
            Err(msg) => (Level::Error, "job.failed", Some(msg.clone())),
        };
        let outcome = match result {
            Ok(body) => Outcome::Done(body),
            Err(msg) if panicked => Outcome::Panicked(msg),
            Err(msg) => Outcome::Failed(msg),
        };
        let flight = flight_json(&flight);
        let (record, newly_poisoned) = {
            let mut state = shared.lock();
            current.set(None);
            let record = state.settle(id, outcome);
            if let Some(job) = state.jobs.get_mut(&id) {
                job.status.flight = flight;
            }
            // The ledger poisons a digest on exactly its threshold-th strike.
            let newly_poisoned =
                panicked && state.ledger.strikes(&job.digest) == state.ledger.threshold();
            (record, newly_poisoned)
        };
        // Terminal durability is eventual, not ack-gated: a crash before
        // this fsync merely re-runs the job on restart, byte-identically.
        shared.write_journal(record.as_slice());
        if newly_poisoned {
            tele.log(
                Level::Warn,
                "spec.poisoned",
                vec![
                    field_str("digest", &job.digest),
                    field_num("job", id as f64),
                ],
            );
        }
        let mut fields = vec![
            field_str("cache", "miss"),
            field_num("job", id as f64),
            field_str("request_id", job.request_id.as_deref().unwrap_or("-")),
            field_num("run_ms", run_ms),
            field_num("wait_ms", wait_ms),
        ];
        if let Some(error) = error {
            fields.push(field_str("error", &error));
        }
        tele.log(level, event, fields);
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

    #[test]
    fn flight_dump_keeps_the_last_records_and_counts_the_dropped() {
        assert_eq!(
            flight_json(&[]),
            None,
            "a run that recorded nothing has no dump"
        );
        let records: Vec<FlightRecord> = (0..FLIGHT_CAPACITY + 6)
            .map(|i| FlightRecord::new("tick", [("i".to_owned(), Json::Num(i as f64))]))
            .collect();
        let Some(Json::Arr(items)) = flight_json(&records) else {
            panic!("a non-empty run renders an array");
        };
        assert_eq!(items.len(), FLIGHT_CAPACITY + 1, "kept records + marker");
        // seq numbers the job's own records: the first (#0) stays, then
        // #1–#6 are dropped and #7 is the oldest of the latest kept
        let kept = std::iter::once(0).chain(7..FLIGHT_CAPACITY + 6);
        for (item, seq) in items[..FLIGHT_CAPACITY].iter().zip(kept) {
            assert_eq!(item.get("seq").and_then(Json::as_f64), Some(seq as f64));
            assert_eq!(
                item.get("fields")
                    .and_then(|f| f.get("i"))
                    .and_then(Json::as_f64),
                Some(seq as f64)
            );
        }
        let marker = items.last().unwrap();
        assert_eq!(
            marker.get("name").and_then(Json::as_str),
            Some("flight.truncated")
        );
        assert_eq!(marker.get("dropped").and_then(Json::as_f64), Some(6.0));
    }

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5E77_1E5A)
    }

    /// Every counter [`State`] keeps must agree with its job table.
    fn assert_bookkeeping(state: &State, ctx: &str) {
        let count = |s: JobState| state.jobs.values().filter(|j| j.status.state == s).count();
        let live = |j: &&Job| matches!(j.status.state, JobState::Queued | JobState::Running);
        assert_eq!(state.queued, count(JobState::Queued), "{ctx}: queued");
        assert_eq!(state.running, count(JobState::Running), "{ctx}: running");
        let held: u64 = state
            .jobs
            .values()
            .filter(live)
            .map(|j| j.reservation)
            .sum();
        assert_eq!(state.reserved, held, "{ctx}: reserved");
        assert!(
            state.jobs.values().all(|j| live(&j) || j.reservation == 0),
            "{ctx}: a settled job still holds a reservation"
        );
        assert!(
            state.reserved_peak >= state.reserved,
            "{ctx}: reserved peak"
        );
        let counters = state.counters;
        assert_eq!(
            counters.submitted as usize,
            state.jobs.len(),
            "{ctx}: submitted"
        );
        assert_eq!(
            counters.completed as usize,
            count(JobState::Done),
            "{ctx}: completed"
        );
        assert_eq!(
            counters.failed as usize,
            count(JobState::Failed),
            "{ctx}: failed"
        );
        assert_eq!(
            counters.cancelled as usize,
            count(JobState::Cancelled),
            "{ctx}: cancelled"
        );
        let poisoned = state
            .jobs
            .values()
            .filter(|j| {
                j.status
                    .error
                    .as_deref()
                    .is_some_and(|e| e.starts_with("poisoned:"))
            })
            .count();
        assert_eq!(counters.poisoned as usize, poisoned, "{ctx}: poisoned");
        let budgeted_running = state
            .jobs
            .values()
            .any(|j| j.status.state == JobState::Running && j.mem_budget.is_some());
        assert_eq!(
            state.exclusive_active, budgeted_running,
            "{ctx}: exclusive_active"
        );
        if budgeted_running {
            assert_eq!(state.running, 1, "{ctx}: a job runs beside a budgeted one");
        }
        let waiting = state
            .queue
            .iter()
            .filter(|id| state.jobs[id].status.state == JobState::Queued)
            .count();
        assert_eq!(
            waiting, state.queued,
            "{ctx}: every queued job waits in the FIFO once"
        );
        if let Some(probe) = state.probe_job {
            assert!(
                !state.jobs[&probe].status.state.is_terminal(),
                "{ctx}: settled job {probe} still holds the probe slot"
            );
        }
    }

    /// Drives [`State`] through random enqueues, dispatches, settles,
    /// cancels and drains — no threads, no sleeps — checking after every
    /// step that each counter matches the job table, and that the breaker
    /// and poison ledger took exactly the calls a reference model expects
    /// of each ending. Breaker cooldowns are zero or an hour, so no
    /// outcome depends on the clock.
    #[test]
    fn state_bookkeeping_holds_under_random_transitions() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::mem::discriminant;
        let seed = fuzz_seed();
        let mut rng = StdRng::seed_from_u64(seed);
        let digests = ["fnv64:a", "fnv64:b", "fnv64:c", "fnv64:d"];
        for run in 0..300 {
            let limit = rng.gen_bool(0.6).then(|| rng.gen_range(1..1_000u64));
            let breaker = rng.gen_bool(0.7).then(|| BreakerConfig {
                failure_threshold: rng.gen_range(1..4u32),
                cooldown: if rng.gen_bool(0.5) {
                    Duration::ZERO
                } else {
                    Duration::from_secs(3600)
                },
            });
            let mut state = State::new(breaker, rng.gen_bool(0.5));
            let mut model = state.breaker.clone();
            let mut strikes: HashMap<String, u32> = HashMap::new();
            let mut probe: Option<u64> = None;
            let steps = rng.gen_range(20..200usize);
            let drain_at = rng.gen_range(0..steps * 2);
            for step in 0..steps {
                let ctx = format!("seed {seed} run {run} step {step}");
                let action = match rng.gen_range(0..10u32) {
                    _ if step == drain_at => 99,
                    // a draining scheduler admits nothing: dispatch instead
                    0..=3 if state.draining => 4,
                    action => action,
                };
                match action {
                    0..=3 => {
                        let id = state.next_id;
                        let digest = digests[rng.gen_range(0..digests.len())];
                        let mut job = Job::new(
                            id,
                            JobSpec::default(),
                            BTreeMap::new(),
                            digest.to_owned(),
                            rng.gen_bool(0.5),
                            None,
                        );
                        let key = rng.gen_bool(0.3).then(|| format!("key-{id}"));
                        match rng.gen_range(0..10u32) {
                            // a cache hit, born done
                            0 => {
                                job.status.state = JobState::Done;
                                job.status.cache_hit = true;
                                job.status.body = Some(Arc::from("cached"));
                                state.enqueue(job, key, false);
                            }
                            // a journal-replayed terminal job
                            1 => {
                                if rng.gen_bool(0.5) {
                                    job.status.state = JobState::Failed;
                                    job.status.error = Some("replayed".to_owned());
                                } else {
                                    job.status.state = JobState::Cancelled;
                                }
                                state.enqueue(job, key, false);
                            }
                            // an admission, gated as `submit_traced` gates
                            // it: the ledger first, then the breaker
                            _ => {
                                let mut admitted = true;
                                if let Some(limit) = limit {
                                    let estimate = rng.gen_range(0..2 * limit);
                                    (job.reservation, job.mem_budget) =
                                        reservation_for(estimate, limit);
                                    admitted = job.mem_budget.is_some()
                                        || state.reserved + estimate <= limit;
                                }
                                let mut is_probe = false;
                                if let (true, Some(real), Some(model)) =
                                    (admitted, &mut state.breaker, &mut model)
                                {
                                    let now = Instant::now();
                                    let got = real.try_admit(now);
                                    let want = model.try_admit(now);
                                    assert_eq!(
                                        discriminant(&got),
                                        discriminant(&want),
                                        "{ctx}: admission {got:?} vs model {want:?}"
                                    );
                                    admitted = !matches!(got, Admission::Shed { .. });
                                    is_probe = got == Admission::Probe;
                                }
                                if admitted {
                                    if is_probe {
                                        probe = Some(id);
                                    }
                                    state.enqueue(job, key, is_probe);
                                }
                            }
                        }
                    }
                    4..=5 => {
                        let head = state
                            .queue
                            .iter()
                            .copied()
                            .find(|id| state.jobs[id].status.state == JobState::Queued);
                        let poisoned = |state: &State, id: u64| {
                            strikes.get(&state.jobs[&id].digest).copied().unwrap_or(0)
                                >= state.ledger.threshold()
                        };
                        match state.dispatch() {
                            Dispatch::Run(job) => {
                                assert_eq!(Some(job.status.id), head, "{ctx}: FIFO");
                                assert!(
                                    !poisoned(&state, job.status.id),
                                    "{ctx}: ran a poisoned job"
                                );
                            }
                            Dispatch::Poisoned { id, record, .. } => {
                                assert_eq!(Some(id), head, "{ctx}: FIFO");
                                assert!(poisoned(&state, id), "{ctx}: poisoned a clean job");
                                assert!(record.is_some(), "{ctx}: poisoned job left no record");
                                assert!(state.jobs[&id].status.flight.is_some(), "{ctx}: dump");
                                if probe == Some(id) {
                                    probe = None;
                                    model.as_mut().map(CircuitBreaker::abort_probe);
                                }
                            }
                            Dispatch::Idle => {
                                if let Some(head) = head {
                                    let blocked = if state.jobs[&head].mem_budget.is_some() {
                                        state.running > 0
                                    } else {
                                        state.exclusive_active
                                    };
                                    assert!(blocked, "{ctx}: head {head} could have started");
                                }
                            }
                        }
                    }
                    6..=8 => {
                        // sorted, so the walk replays from its seed
                        // whatever the job table's iteration order
                        let mut running: Vec<u64> = state
                            .jobs
                            .iter()
                            .filter(|(_, j)| j.status.state == JobState::Running)
                            .map(|(&id, _)| id)
                            .collect();
                        running.sort_unstable();
                        if running.is_empty() {
                            continue;
                        }
                        let id = running[rng.gen_range(0..running.len())];
                        let outcome = match rng.gen_range(0..4u32) {
                            0 => Outcome::Done(Arc::from("body")),
                            1 => Outcome::Failed("synthetic failure".to_owned()),
                            2 => Outcome::Panicked("runner panicked: boom".to_owned()),
                            _ => Outcome::Crashed,
                        };
                        if let Some(model) = &mut model {
                            match outcome {
                                Outcome::Done(_) | Outcome::Failed(_) => model.record_success(),
                                _ => model.record_failure(Instant::now()),
                            }
                        }
                        let job = &state.jobs[&id];
                        if matches!(outcome, Outcome::Panicked(_)) {
                            *strikes.entry(job.digest.clone()).or_default() += 1;
                        }
                        if probe == Some(id) {
                            probe = None;
                        }
                        let inline = state.inline_bodies || job.status.cache_key.is_none();
                        let done = matches!(outcome, Outcome::Done(_));
                        let Some(JournalRecord::Terminal {
                            job,
                            state: ended,
                            body,
                            ..
                        }) = state.settle(id, outcome)
                        else {
                            panic!("{ctx}: settling running job {id} left no terminal record");
                        };
                        assert_eq!(job, id, "{ctx}");
                        assert_eq!(ended, if done { "done" } else { "failed" }, "{ctx}");
                        assert_eq!(body.is_some(), done && inline, "{ctx}: inline body");
                    }
                    99 => {
                        // the shutdown drain: admissions stop and every
                        // queued job is cancelled
                        state.draining = true;
                        let queue: Vec<u64> = state.queue.drain(..).collect();
                        for id in queue {
                            if state.settle(id, Outcome::Cancelled).is_some() && probe == Some(id) {
                                probe = None;
                                model.as_mut().map(CircuitBreaker::abort_probe);
                            }
                        }
                        assert_eq!(state.queued, 0, "{ctx}: drain left queued jobs");
                    }
                    _ => {
                        // any id, unknown ones included: only a queued job
                        // cancels
                        let id = rng.gen_range(1..state.next_id + 1);
                        let was = state.jobs.get(&id).map(|j| j.status.state);
                        let record = state.settle(id, Outcome::Cancelled);
                        assert_eq!(record.is_some(), was == Some(JobState::Queued), "{ctx}");
                        if record.is_some() && probe == Some(id) {
                            probe = None;
                            model.as_mut().map(CircuitBreaker::abort_probe);
                        }
                    }
                }
                if let (Some(real), Some(model)) = (&state.breaker, &model) {
                    assert_eq!(real.state(), model.state(), "{ctx}: breaker state");
                    assert_eq!(
                        real.transitions(),
                        model.transitions(),
                        "{ctx}: transitions"
                    );
                }
                assert_eq!(state.probe_job, probe, "{ctx}: probe slot");
                for digest in digests {
                    let want = strikes.get(digest).copied().unwrap_or(0);
                    assert_eq!(state.ledger.strikes(digest), want, "{ctx}: strikes");
                }
                assert_bookkeeping(&state, &ctx);
            }
        }
    }
}
