//! The seeded scenarios behind `repro loadgen`, and their one
//! `foldic-serve-scenario/1` report.
//!
//! A scenario drives a daemon through phases, then checks invariants on
//! what it saw. There are three, one short function each, because their
//! phases really differ:
//!
//! * **load** runs against a daemon that is already listening
//!   (`--addr`). It warms a pool of configs into the cache, then replays
//!   a seeded plan of hit / miss / cancel / deadline jobs from several
//!   client threads. It scrapes `/metrics` after warmup and again after
//!   measurement, so the gate can require the daemon's own counters to
//!   agree *exactly* with what the clients saw. Whether a cancel lands
//!   before a worker picks its job up is a race the report records
//!   rather than asserts.
//! * **chaos** boots a journaled daemon (`--journal`, `--cache-dir`) and
//!   submits seeded jobs, interleaved with slow-loris and mid-body
//!   disconnect clients it must shrug off. Then it SIGKILLs the daemon
//!   (no drain, no flush: the worst case) and restarts it on the same
//!   journal and cache. No acknowledged job may be lost, and every body
//!   seen before the kill must be served identically after it. After a
//!   clean shutdown, a third boot must re-enqueue nothing and serve the
//!   same bodies again.
//! * **overload** boots a daemon whose `--mem-limit` one fitting job
//!   fills. An oversized job goes first and reserves the whole ledger, so
//!   the burst of fitting jobs behind it must be shed (503 plus
//!   `Retry-After`), never crashed on or dropped. Every shed is retried
//!   after its hint until all fitting jobs complete. The oversized job is
//!   then resubmitted and must produce the same body outside its
//!   `resources` section, and `/stats` must show a drained ledger.
//!
//! They share one of each: the [`Daemon`] handle, [`submit`] (one
//! `POST /jobs`, classified), [`settle`] (poll a job to a terminal state
//! and fetch its body), a `/stats` lookup by key path, one [`Config`] and
//! one [`Report`], whose [`Report::gate`] passes exactly when its
//! violation list is empty.
//!
//! Everything a scenario sends derives from its seed: load's plan,
//! chaos's specs and hostile-client interleaving, overload's fitting
//! seeds. Two runs with one seed send the same requests in the same
//! order. Wall-clock observations (latencies, shed counts) are recorded
//! and never decide what the gate requires.

use crate::client;
use crate::job::JobSpec;
use crate::telemetry;
use foldic_obs::json::Json;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema tag of the scenario report.
pub const SCHEMA: &str = "foldic-serve-scenario/1";

/// Per-request timeout of every harness HTTP call.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// Wall-clock budget of load's deadline-kind jobs.
const DEADLINE_SECS: f64 = 30.0;

/// Overload's `--mem-limit`. One fitting (single-study tiny) job reserves
/// ~4 MiB, so 5 MiB admits exactly one at a time and classifies any
/// two-study spec oversized: the smallest configuration that exercises
/// every admission path.
const MEM_LIMIT: u64 = 5 << 20;

/// The scenarios `repro loadgen` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Warm up, then replay a seeded job mix from several clients.
    Load,
    /// Load a journaled daemon, SIGKILL it, then restart it twice.
    Chaos,
    /// Oversize the ledger, burst fitting jobs, retry every shed.
    Overload,
}

impl Scenario {
    /// The scenario's name in reports and messages.
    pub fn as_str(self) -> &'static str {
        match self {
            Scenario::Load => "load",
            Scenario::Chaos => "chaos",
            Scenario::Overload => "overload",
        }
    }

    /// The counts the scenario reports; a report holds every one.
    fn counts(self) -> &'static [&'static str] {
        match self {
            Scenario::Load => &[
                "bytes",
                "cancelled",
                "clients",
                "done",
                "errors",
                "failed",
                "hits",
                "jobs",
                "rejected",
            ],
            Scenario::Chaos => &[
                "acked",
                "disconnects",
                "done_before_kill",
                "reenqueued_after_clean",
                "slowloris",
            ],
            Scenario::Overload => &[
                "bad_retry_after",
                "completed",
                "daemon_died",
                "fitting",
                "oversized_acked",
                "oversized_mismatched",
                "oversized_missing_resources",
                "shed",
                "stats_mem_shed",
                "stats_oversized",
                "stats_reserved_after",
            ],
        }
    }

    /// The id lists the scenario reports, each with what being on it
    /// means. Every listed id is a violation.
    fn id_lists(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Scenario::Load => &[],
            Scenario::Chaos => &[
                ("lost", "acknowledged job(s) lost across kill/restart"),
                (
                    "unrecovered",
                    "acknowledged job(s) never reached a terminal state after restart",
                ),
                (
                    "mismatched",
                    "job(s) served a different body after recovery",
                ),
            ],
            Scenario::Overload => &[("failed", "job(s) failed or never went terminal")],
        }
    }
}

/// Relative weights of load's four job kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Cache-hit resubmissions of a warmed config.
    pub hit: f64,
    /// Fresh-config computations.
    pub miss: f64,
    /// Submit-then-cancel jobs.
    pub cancel: f64,
    /// Deadline-bounded jobs (they run beside the others under their own
    /// run context).
    pub deadline: f64,
}

impl Default for MixWeights {
    fn default() -> Self {
        Self {
            hit: 60.0,
            miss: 20.0,
            cancel: 10.0,
            deadline: 10.0,
        }
    }
}

impl MixWeights {
    /// Parses `hit=60,miss=20,cancel=10,deadline=10` (unlisted kinds
    /// default to weight 0; at least one weight must be positive).
    ///
    /// # Errors
    ///
    /// A message for malformed entries, unknown kinds or an all-zero mix.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut mix = Self {
            hit: 0.0,
            miss: 0.0,
            cancel: 0.0,
            deadline: 0.0,
        };
        for part in text.split(',') {
            let (kind, weight) = part
                .split_once('=')
                .ok_or_else(|| format!("bad mix entry `{part}` (want kind=weight)"))?;
            let weight: f64 = weight
                .parse()
                .map_err(|_| format!("bad mix weight `{weight}`"))?;
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(format!("mix weight must be >= 0, got {weight}"));
            }
            match kind.trim() {
                "hit" => mix.hit = weight,
                "miss" => mix.miss = weight,
                "cancel" => mix.cancel = weight,
                "deadline" => mix.deadline = weight,
                other => return Err(format!("unknown mix kind `{other}`")),
            }
        }
        if mix.hit + mix.miss + mix.cancel + mix.deadline <= 0.0 {
            return Err("mix weights sum to zero".to_owned());
        }
        Ok(mix)
    }
}

/// Where a scenario finds its daemon.
#[derive(Debug, Clone)]
pub enum Target {
    /// A daemon already listening here (load). The scenario never stops
    /// it.
    Attach(SocketAddr),
    /// A daemon the scenario boots, and restarts or kills, itself (chaos,
    /// overload).
    Spawn {
        /// Binary and arguments that start the daemon, e.g. `repro
        /// serve`. The scenario appends its own flags.
        serve_cmd: Vec<String>,
        /// Scratch directory for port files, journal and cache; created
        /// by the scenario.
        dir: PathBuf,
    },
}

/// One scenario run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which scenario runs.
    pub scenario: Scenario,
    /// The daemon it drives.
    pub target: Target,
    /// Seed every request derives from.
    pub seed: u64,
    /// Load: measured jobs (warmup is extra). Chaos: jobs acknowledged
    /// before the kill. Overload: fitting jobs.
    pub jobs: usize,
    /// Load: concurrent client threads.
    pub clients: usize,
    /// Load: the job-kind mix.
    pub mix: MixWeights,
    /// Load, chaos: the experiments jobs draw from.
    pub experiments: Vec<String>,
    /// Load, chaos: the design size of every job.
    pub size: String,
    /// How long each boot and each job's settle may take; also bounds
    /// overload's whole retry phase.
    pub timeout: Duration,
}

impl Config {
    /// `repro loadgen`'s defaults: load runs 24 jobs on 4 clients over
    /// `table1`, chaos 12 jobs over `table1+table2`, overload 6 fitting
    /// jobs, all at tiny size with a 120 s timeout.
    pub fn new(scenario: Scenario, target: Target) -> Self {
        let (jobs, experiments): (usize, &[&str]) = match scenario {
            Scenario::Load => (24, &["table1"]),
            Scenario::Chaos => (12, &["table1", "table2"]),
            Scenario::Overload => (6, &[]),
        };
        Self {
            scenario,
            target,
            seed: 0xF01D_1C5E,
            jobs,
            clients: 4,
            mix: MixWeights::default(),
            experiments: experiments.iter().map(|&e| e.to_owned()).collect(),
            size: "tiny".to_owned(),
            timeout: Duration::from_secs(120),
        }
    }
}

/// A daemon a scenario drives: one it spawned, or one it attached to.
/// Dropping the handle SIGKILLs and reaps a spawned daemon, so a panic
/// mid-scenario leaves no process behind.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    child: Option<Child>,
}

impl Daemon {
    /// A handle on a daemon already listening at `addr`.
    pub fn attach(addr: SocketAddr) -> Self {
        Self { addr, child: None }
    }

    /// Spawns `serve_cmd` on an ephemeral port with `flags` appended and
    /// waits up to `timeout` for its port file. The daemon writes that
    /// file only after a successful bind, so its presence means ready.
    ///
    /// # Errors
    ///
    /// A message when the command cannot start, exits during boot or
    /// writes no port file in time.
    pub fn spawn(
        serve_cmd: &[String],
        flags: &[impl AsRef<OsStr>],
        port_file: &Path,
        timeout: Duration,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_file(port_file);
        let (bin, args) = serve_cmd.split_first().ok_or("empty serve command")?;
        let child = Command::new(bin)
            .args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(port_file)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("failed to spawn `{bin}`: {e}"))?;
        // Owned by a handle from here on, so every early return kills it.
        let mut daemon = Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child: Some(child),
        };
        let deadline = Instant::now() + timeout;
        loop {
            let written = std::fs::read_to_string(port_file).ok();
            if let Some(addr) = written.and_then(|text| text.trim().parse().ok()) {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Some(status) = daemon.exited() {
                return Err(format!("daemon exited during boot: {status}"));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "daemon did not write {} within {timeout:?}",
                    port_file.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A spawned daemon's exit status, once it has exited.
    pub fn exited(&mut self) -> Option<ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// Waits up to `timeout` for a spawned daemon to exit, and SIGKILLs
    /// it when it does not.
    ///
    /// # Errors
    ///
    /// A message when the daemon was attached, had to be killed, or
    /// could not be waited on.
    pub fn wait(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let child = self
            .child
            .as_mut()
            .ok_or("an attached daemon has no process to wait on")?;
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not exit within {timeout:?}; killed"));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("wait failed: {e}")),
            }
        }
    }

    /// `POST /shutdown`. A spawned daemon must then exit within
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// The request's failure (attached daemon) or [`Daemon::wait`]'s.
    pub fn shutdown(&mut self, timeout: Duration) -> Result<(), String> {
        let posted = client::post(self.addr, "/shutdown", HTTP_TIMEOUT);
        if self.child.is_none() {
            return posted
                .map(drop)
                .map_err(|e| format!("shutdown request failed: {e}"));
        }
        self.wait(timeout).map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            // SIGKILL: no drain, no flush. Sends nothing once the daemon
            // has been reaped.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// How the daemon answered one `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// 200: answered from the cache.
    Hit(u64),
    /// 202: queued.
    Queued(u64),
    /// 429: the queue is full.
    Rejected,
    /// 503: shed, with the `Retry-After` hint in seconds when it is
    /// usable (at least 1).
    Shed(Option<u64>),
    /// A transport failure, any other status, or an ack without a job id.
    Error(String),
}

impl Submitted {
    /// The acknowledged job's id.
    ///
    /// # Errors
    ///
    /// What the daemon answered instead.
    pub fn acked(self) -> Result<u64, String> {
        match self {
            Submitted::Hit(id) | Submitted::Queued(id) => Ok(id),
            Submitted::Rejected => Err("submit rejected (429)".to_owned()),
            Submitted::Shed(_) => Err("submit shed (503)".to_owned()),
            Submitted::Error(e) => Err(e),
        }
    }
}

/// Submits `spec` once and classifies the answer.
pub fn submit(addr: SocketAddr, spec: &JobSpec) -> Submitted {
    let response = match client::post_json(addr, "/jobs", &spec.to_json(), HTTP_TIMEOUT) {
        Ok(response) => response,
        Err(e) => return Submitted::Error(format!("submit failed: {e}")),
    };
    let id = response
        .body_json()
        .ok()
        .and_then(|doc| doc.get("job")?.as_f64())
        .filter(|id| id.fract() == 0.0 && *id >= 0.0)
        .map(|id| id as u64);
    match (response.status, id) {
        (200, Some(id)) => Submitted::Hit(id),
        (202, Some(id)) => Submitted::Queued(id),
        (429, _) => Submitted::Rejected,
        (503, _) => Submitted::Shed(
            response
                .header("retry-after")
                .and_then(|v| v.parse().ok())
                .filter(|&secs| secs >= 1),
        ),
        (status, _) => Submitted::Error(format!(
            "submit returned {status}: {}",
            response.body_text().unwrap_or("<binary>")
        )),
    }
}

/// A job in its terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled {
    /// `done`, `failed` or `cancelled`.
    pub state: &'static str,
    /// The status document's `cache` field (`hit` when the cache
    /// answered).
    pub cache: Option<String>,
    /// The result body, fetched when the job is `done`.
    pub body: Option<Vec<u8>>,
}

/// Polls `/jobs/<id>` until the job is terminal and fetches its result
/// body when it is `done`.
///
/// # Errors
///
/// A message when a poll or the result fetch fails or answers with an
/// error status, or the job is not terminal within `timeout`.
pub fn settle(addr: SocketAddr, id: u64, timeout: Duration) -> Result<Settled, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let status = client::get(addr, &format!("/jobs/{id}"), HTTP_TIMEOUT)
            .map_err(|e| format!("status poll failed: {e}"))?;
        if status.status != 200 {
            return Err(format!("status poll returned {}", status.status));
        }
        let doc = status.body_json()?;
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if let Some(state) = ["done", "failed", "cancelled"]
            .into_iter()
            .find(|&terminal| terminal == state)
        {
            let mut body = None;
            if state == "done" {
                let result = client::get(addr, &format!("/jobs/{id}/result"), HTTP_TIMEOUT)
                    .map_err(|e| format!("result fetch failed: {e}"))?;
                if result.status != 200 {
                    return Err(format!("result returned {}", result.status));
                }
                body = Some(result.body);
            }
            let cache = doc.get("cache").and_then(Json::as_str).map(str::to_owned);
            return Ok(Settled { state, cache, body });
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} still `{state}` after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One `/stats` value by dotted key path, e.g.
/// `durability.journal.reenqueued`. `None` when the daemon does not
/// answer or lacks the key.
fn stat(addr: SocketAddr, path: &str) -> Option<u64> {
    let doc = client::get(addr, "/stats", HTTP_TIMEOUT)
        .ok()?
        .body_json()
        .ok()?;
    let value = path.split('.').try_fold(&doc, |doc, key| doc.get(key))?;
    value.as_f64().map(|n| n as u64)
}

/// What one scenario run observed; [`Report::gate`] judges it.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its seed (reported as hex, so no seed is rounded).
    pub seed: u64,
    /// Named counts, every one the scenario reports.
    pub counts: BTreeMap<&'static str, u64>,
    /// Named job-id lists, sorted and without repeats.
    pub ids: BTreeMap<&'static str, BTreeSet<u64>>,
    /// Client-side errors in the order seen (load).
    pub errors: Vec<String>,
    /// Planned jobs per kind (load).
    pub planned: BTreeMap<&'static str, u64>,
    /// Latency percentiles over terminal jobs in milliseconds (load).
    pub latency_ms: BTreeMap<&'static str, f64>,
    /// Terminal jobs per wall-clock second (load).
    pub throughput_jps: f64,
    /// `*_total` counter deltas between the post-warmup and the final
    /// `/metrics` scrape (load).
    pub deltas: BTreeMap<String, u64>,
    /// The final `/metrics` exposition, verbatim (load).
    pub scrape: String,
}

impl Report {
    /// A report with every count at 0 and every id list empty.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        Self {
            scenario,
            seed,
            counts: scenario.counts().iter().map(|&name| (name, 0)).collect(),
            ids: scenario
                .id_lists()
                .iter()
                .map(|&(name, _)| (name, BTreeSet::new()))
                .collect(),
            errors: Vec::new(),
            planned: BTreeMap::new(),
            latency_ms: BTreeMap::new(),
            throughput_jps: 0.0,
            deltas: BTreeMap::new(),
            scrape: String::new(),
        }
    }

    /// A named count (0 when the scenario does not report it).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn add(&mut self, name: &'static str, n: u64) {
        debug_assert!(self.counts.contains_key(name), "undeclared count {name}");
        *self.counts.entry(name).or_default() += n;
    }

    fn set(&mut self, name: &'static str, n: u64) {
        debug_assert!(self.counts.contains_key(name), "undeclared count {name}");
        self.counts.insert(name, n);
    }

    /// Puts `id` on the named list; an id already there stays listed once.
    fn note(&mut self, list: &'static str, id: u64) {
        debug_assert!(self.ids.contains_key(list), "undeclared id list {list}");
        self.ids.entry(list).or_default().insert(id);
    }

    /// One message per violated invariant: 14 for load, 5 for chaos and
    /// 12 for overload.
    pub fn violations(&self) -> Vec<String> {
        let n = |name| self.count(name);
        let checks: Vec<(bool, String)> = match self.scenario {
            Scenario::Load => self.load_checks(),
            Scenario::Chaos => vec![
                (
                    n("acked") == 0,
                    "no jobs were acknowledged; scenario did not run".to_owned(),
                ),
                (
                    n("reenqueued_after_clean") > 0,
                    format!(
                        "journal replay is not idempotent: a clean restart re-enqueued {} job(s)",
                        n("reenqueued_after_clean")
                    ),
                ),
            ],
            Scenario::Overload => vec![
                (
                    n("daemon_died") > 0,
                    "daemon died under overload".to_owned(),
                ),
                (
                    n("fitting") == 0,
                    "no fitting jobs were submitted; scenario did not run".to_owned(),
                ),
                (
                    n("completed") < n("fitting"),
                    format!(
                        "only {}/{} fitting job(s) completed under overload",
                        n("completed"),
                        n("fitting")
                    ),
                ),
                (
                    n("shed") == 0,
                    "no submission was shed — the scenario never overloaded".to_owned(),
                ),
                (
                    n("bad_retry_after") > 0,
                    format!(
                        "{} shed(s) carried no usable Retry-After hint",
                        n("bad_retry_after")
                    ),
                ),
                (
                    n("oversized_acked") < 2,
                    format!(
                        "only {} oversized submission(s) acknowledged (want 2)",
                        n("oversized_acked")
                    ),
                ),
                (
                    n("oversized_mismatched") > 0,
                    "oversized bodies differ between runs".to_owned(),
                ),
                (
                    n("oversized_missing_resources") > 0,
                    format!(
                        "{} oversized body(ies) lack `resources` provenance",
                        n("oversized_missing_resources")
                    ),
                ),
                (
                    n("stats_oversized") != n("oversized_acked"),
                    format!(
                        "/stats counted {} oversized admission(s), harness saw {}",
                        n("stats_oversized"),
                        n("oversized_acked")
                    ),
                ),
                (
                    n("stats_mem_shed") < n("shed"),
                    format!(
                        "/stats counted {} mem shed(s), harness saw {}",
                        n("stats_mem_shed"),
                        n("shed")
                    ),
                ),
                (
                    n("stats_reserved_after") != 0,
                    format!(
                        "reservation ledger leaked {} byte(s) after drain",
                        n("stats_reserved_after")
                    ),
                ),
            ],
        };
        let mut violations: Vec<String> = checks
            .into_iter()
            .filter_map(|(violated, message)| violated.then_some(message))
            .collect();
        for &(list, meaning) in self.scenario.id_lists() {
            match self.ids.get(list) {
                Some(ids) if !ids.is_empty() => {
                    violations.push(format!("{} {meaning}: {ids:?}", ids.len()));
                }
                _ => {}
            }
        }
        violations
    }

    /// Load's invariants. No wall-time thresholds: CI runs on whatever
    /// core count it gets.
    fn load_checks(&self) -> Vec<(bool, String)> {
        let n = |name| self.count(name);
        let planned = |kind| self.planned.get(kind).copied().unwrap_or(0);
        let terminal = n("done") + n("cancelled") + n("failed");
        let mut checks = vec![
            (
                n("jobs") == 0,
                "no measured job was submitted; scenario did not run".to_owned(),
            ),
            (
                !self.errors.is_empty(),
                format!(
                    "{} client error(s), first: {}",
                    self.errors.len(),
                    self.errors.first().map_or("", String::as_str)
                ),
            ),
            (n("failed") > 0, format!("{} job(s) failed", n("failed"))),
            // The gate run sizes its queue to fit.
            (
                n("rejected") > 0,
                format!("{} submission(s) rejected", n("rejected")),
            ),
            (
                n("hits") < planned("hit"),
                format!(
                    "only {} cache hit(s), planned {}",
                    n("hits"),
                    planned("hit")
                ),
            ),
            (
                terminal + n("rejected") != n("jobs"),
                format!(
                    "{terminal} terminal + {} rejected != {} submitted",
                    n("rejected"),
                    n("jobs")
                ),
            ),
        ];
        // The daemon's own counters over the measured window must agree
        // exactly with the client view.
        let mut expected = vec![
            ("done jobs", telemetry::jobs_state_series("done"), n("done")),
            (
                "cancelled jobs",
                telemetry::jobs_state_series("cancelled"),
                n("cancelled"),
            ),
            (
                "failed jobs",
                telemetry::jobs_state_series("failed"),
                n("failed"),
            ),
            (
                "rejections",
                telemetry::SERIES_JOBS_REJECTED.to_owned(),
                n("rejected"),
            ),
            (
                "cache hits",
                telemetry::SERIES_CACHE_HITS.to_owned(),
                n("hits"),
            ),
        ];
        if n("rejected") == 0 {
            // With no rejections the submit-status split and the
            // cache-miss count are exact functions of the plan.
            let queued = n("jobs").saturating_sub(n("hits"));
            expected.extend([
                (
                    "cache misses",
                    telemetry::SERIES_CACHE_MISSES.to_owned(),
                    queued.saturating_sub(planned("deadline")),
                ),
                (
                    "hit submits",
                    telemetry::requests_series("submit", "POST", 200),
                    n("hits"),
                ),
                (
                    "queued submits",
                    telemetry::requests_series("submit", "POST", 202),
                    queued,
                ),
            ]);
        }
        for (what, series, want) in expected {
            let got = self.deltas.get(&series).copied().unwrap_or(0);
            checks.push((
                got != want,
                format!("server counted {got} {what}, expected {want}"),
            ));
        }
        checks
    }

    /// Passes exactly when [`Report::violations`] is empty.
    ///
    /// # Errors
    ///
    /// The violations.
    pub fn gate(&self) -> Result<(), Vec<String>> {
        let violations = self.violations();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// The report as a `foldic-serve-scenario/1` document.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let violations = self.violations();
        let mut doc = vec![
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("scenario", Json::Str(self.scenario.as_str().to_owned())),
            ("seed", Json::Str(format!("{:#x}", self.seed))),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(&k, &v)| (k.to_owned(), num(v)))),
            ),
            (
                "ids",
                Json::obj(self.ids.iter().map(|(&k, ids)| {
                    (
                        k.to_owned(),
                        Json::Arr(ids.iter().map(|&id| num(id)).collect()),
                    )
                })),
            ),
            ("pass", Json::Bool(violations.is_empty())),
            (
                "violations",
                Json::Arr(violations.into_iter().map(Json::Str).collect()),
            ),
        ];
        if self.scenario == Scenario::Load {
            doc.extend([
                (
                    "planned",
                    Json::obj(self.planned.iter().map(|(&k, &v)| (k.to_owned(), num(v)))),
                ),
                (
                    "latency_ms",
                    Json::obj(
                        self.latency_ms
                            .iter()
                            .map(|(&k, &v)| (k.to_owned(), Json::Num(v))),
                    ),
                ),
                ("throughput_jps", Json::Num(self.throughput_jps)),
                (
                    "server",
                    Json::obj([
                        (
                            "deltas".to_owned(),
                            Json::obj(self.deltas.iter().map(|(k, &v)| (k.clone(), num(v)))),
                        ),
                        ("scrape".to_owned(), Json::Str(self.scrape.clone())),
                    ]),
                ),
            ]);
        }
        Json::obj(doc.into_iter().map(|(k, v)| (k.to_owned(), v)))
    }
}

/// Runs the configured scenario.
///
/// # Errors
///
/// Harness failures only: a daemon that cannot be reached, booted or
/// shut down, a warmup that does not finish, a `/metrics` scrape that
/// fails. Invariant violations are not errors; they land in the report
/// for [`Report::gate`] to judge, so the output shows the whole picture.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match (cfg.scenario, &cfg.target) {
        (Scenario::Load, &Target::Attach(addr)) => load(cfg, addr),
        (Scenario::Chaos, Target::Spawn { serve_cmd, dir }) => chaos(cfg, serve_cmd, dir),
        (Scenario::Overload, Target::Spawn { serve_cmd, dir }) => overload(cfg, serve_cmd, dir),
        (Scenario::Load, Target::Spawn { .. }) => {
            Err("the load scenario drives a running daemon; attach to its address".to_owned())
        }
        (scenario, Target::Attach(_)) => Err(format!(
            "the {} scenario kills or limits its daemon, so it must spawn one",
            scenario.as_str()
        )),
    }
}

/// Load's job kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Cancel,
    Deadline,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Cancel => "cancel",
            Kind::Deadline => "deadline",
        }
    }
}

/// One planned submission.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    spec: JobSpec,
}

/// Distinct warm configs hit-kind jobs rotate through.
const WARM_POOL: usize = 4;

/// Load's deterministic traffic plan: the warm pool plus one planned
/// submission per measured job.
fn plan(cfg: &Config) -> (Vec<JobSpec>, Vec<Planned>) {
    let base = JobSpec {
        experiments: cfg.experiments.clone(),
        size: cfg.size.clone(),
        seed: None,
        threads: 1,
        deadline_secs: None,
        design_cells: None,
    };
    // Seeds travel as JSON numbers (f64), so derived seeds are masked to
    // the 53-bit exactly-representable range the job schema accepts.
    let json_safe = |seed: u64| seed & ((1u64 << 53) - 1);
    let pool: Vec<JobSpec> = (0..WARM_POOL)
        .map(|i| {
            let mut spec = base.clone();
            spec.seed = Some(json_safe(rand::derive_seed(&[
                "loadgen-pool",
                &format!("{:#x}", cfg.seed),
                &i.to_string(),
            ])));
            spec
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total = cfg.mix.hit + cfg.mix.miss + cfg.mix.cancel + cfg.mix.deadline;
    let planned = (0..cfg.jobs)
        .map(|i| {
            let roll = rng.gen_range(0.0..total);
            let kind = if roll < cfg.mix.hit {
                Kind::Hit
            } else if roll < cfg.mix.hit + cfg.mix.miss {
                Kind::Miss
            } else if roll < cfg.mix.hit + cfg.mix.miss + cfg.mix.cancel {
                Kind::Cancel
            } else {
                Kind::Deadline
            };
            let mut spec = base.clone();
            match kind {
                Kind::Hit => {
                    spec.seed = pool[rng.gen_range(0..pool.len())].seed;
                }
                Kind::Miss | Kind::Cancel | Kind::Deadline => {
                    // A seed no warm config and no other job carries, so
                    // the first submission is always a genuine miss.
                    spec.seed = Some(json_safe(rand::derive_seed(&[
                        "loadgen-fresh",
                        &format!("{:#x}", cfg.seed),
                        &i.to_string(),
                    ])));
                    if kind == Kind::Deadline {
                        spec.deadline_secs = Some(DEADLINE_SECS);
                    }
                }
            }
            Planned { kind, spec }
        })
        .collect();
    (pool, planned)
}

/// Submits one planned job and settles it. `Ok(None)` is a 429
/// rejection; a 200 answer settles at once as a cache hit.
fn drive(addr: SocketAddr, timeout: Duration, job: &Planned) -> Result<Option<Settled>, String> {
    let id = match submit(addr, &job.spec) {
        Submitted::Hit(_) => {
            return Ok(Some(Settled {
                state: "done",
                cache: Some("hit".to_owned()),
                body: None,
            }))
        }
        Submitted::Rejected => return Ok(None),
        other => other.acked()?,
    };
    if job.kind == Kind::Cancel {
        client::post(addr, &format!("/jobs/{id}/cancel"), HTTP_TIMEOUT)
            .map_err(|e| format!("cancel failed: {e}"))?;
    }
    settle(addr, id, timeout).map(Some)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Scrapes `/metrics`, returning the raw exposition text and its parsed
/// series map.
fn scrape_metrics(addr: SocketAddr) -> Result<(String, BTreeMap<String, f64>), String> {
    let response = client::get(addr, "/metrics", HTTP_TIMEOUT)
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("metrics scrape returned {}", response.status));
    }
    let text = response
        .body_text()
        .map_err(|e| format!("metrics body is not text: {e}"))?
        .to_owned();
    let series = foldic_obs::expo::parse_exposition(&text)
        .map_err(|e| format!("metrics scrape does not parse: {e}"))?;
    Ok((text, series))
}

/// Counter deltas between two scrapes: every `*_total` series present in
/// `after`, minus its `before` value (0 when newly appeared).
fn counter_deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .filter(|(series, _)| foldic_obs::expo::family_of(series).ends_with("_total"))
        .map(|(series, &value)| {
            let base = before.get(series).copied().unwrap_or(0.0);
            (series.clone(), (value - base).max(0.0) as u64)
        })
        .collect()
}

/// The load scenario: warm the pool, replay the plan from `clients`
/// threads, and compare the clients' view with the daemon's counters.
fn load(cfg: &Config, addr: SocketAddr) -> Result<Report, String> {
    let (pool, planned) = plan(cfg);

    // Warmup: compute each pool config once so every planned hit is a
    // guaranteed hit.
    for spec in &pool {
        let id = submit(addr, spec)
            .acked()
            .map_err(|e| format!("warmup {e}"))?;
        let settled = settle(addr, id, cfg.timeout).map_err(|e| format!("warmup: {e}"))?;
        if settled.state != "done" {
            return Err(format!("warmup job {id} ended {}", settled.state));
        }
    }

    // Post-warmup baseline: deltas from here cover exactly the
    // measurement window.
    let (_, baseline) = scrape_metrics(addr)?;

    // Measurement: split the plan round-robin across client threads.
    let shared = Mutex::new((Report::new(Scenario::Load, cfg.seed), Vec::new()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let clients = cfg.clients.max(1);
        for c in 0..clients {
            let (planned, shared) = (&planned, &shared);
            let _ = std::thread::Builder::new()
                .name(format!("foldic-loadgen-{c}"))
                .spawn_scoped(scope, move || {
                    for job in planned.iter().skip(c).step_by(clients) {
                        let started = Instant::now();
                        let outcome = drive(addr, cfg.timeout, job);
                        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                        let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
                        let (report, latencies) = &mut *guard;
                        match outcome {
                            Ok(Some(settled)) => {
                                report.add(settled.state, 1);
                                if settled.cache.as_deref() == Some("hit") {
                                    report.add("hits", 1);
                                }
                                report.add("bytes", settled.body.map_or(0, |b| b.len() as u64));
                                if settled.state != "failed" {
                                    latencies.push(latency_ms);
                                }
                            }
                            Ok(None) => report.add("rejected", 1),
                            Err(e) => report.errors.push(format!("{}: {e}", job.kind.as_str())),
                        }
                    }
                });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    // Final scrape: every driven job is terminal by now, so the deltas
    // are settled.
    let (scrape, final_series) = scrape_metrics(addr)?;

    let (mut report, mut latencies) = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    latencies.sort_by(f64::total_cmp);
    report.set("jobs", cfg.jobs as u64);
    report.set("clients", cfg.clients as u64);
    report.set("errors", report.errors.len() as u64);
    report.planned = [Kind::Hit, Kind::Miss, Kind::Cancel, Kind::Deadline]
        .into_iter()
        .map(|kind| {
            let n = planned.iter().filter(|job| job.kind == kind).count();
            (kind.as_str(), n as u64)
        })
        .collect();
    report.latency_ms = [
        ("p50", percentile(&latencies, 50.0)),
        ("p90", percentile(&latencies, 90.0)),
        ("p99", percentile(&latencies, 99.0)),
        ("max", latencies.last().copied().unwrap_or(0.0)),
    ]
    .into();
    let terminal = report.count("done") + report.count("cancelled") + report.count("failed");
    if wall_s > 0.0 {
        report.throughput_jps = terminal as f64 / wall_s;
    }
    report.deltas = counter_deltas(&baseline, &final_series);
    report.scrape = scrape;
    Ok(report)
}

/// A seeded chaos spec drawn from the configured experiments. Distinct
/// seeds make distinct studies, so the stream is mostly misses (computed
/// work, the interesting case for durability) with occasional repeats
/// (cache hits, which must be acknowledged durably too).
fn random_spec(cfg: &Config, rng: &mut StdRng) -> JobSpec {
    let pool = &cfg.experiments;
    let name = if pool.is_empty() {
        "table1".to_owned()
    } else {
        pool[rng.gen_range(0..pool.len())].clone()
    };
    JobSpec {
        experiments: vec![name],
        size: cfg.size.clone(),
        // 8 distinct seeds → repeats are likely within a few dozen jobs
        seed: Some(rng.gen_range(0..8u64)),
        ..JobSpec::default()
    }
}

/// Dribbles a partial request with pauses, then abandons the connection
/// — the classic slow-loris. The daemon's read timeout must reclaim the
/// connection thread without disturbing other clients.
fn slow_loris(addr: SocketAddr, rng: &mut StdRng) {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT) else {
        return;
    };
    let request = format!("POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 64\r\n");
    let bytes = request.as_bytes();
    let cut = rng.gen_range(1..bytes.len() as u64) as usize;
    for chunk in bytes[..cut].chunks(7) {
        if stream.write_all(chunk).is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(rng.gen_range(1..4u64)));
    }
    // drop: the header section never completes
}

/// Sends a complete header but only part of the promised body, then
/// disconnects — a torn write the daemon must fail cleanly (408/400),
/// never crash on.
fn disconnect_mid_request(addr: SocketAddr, rng: &mut StdRng) {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT) else {
        return;
    };
    let body = "{\"experiments\":[\"table1\"],\"size\":\"tiny\"}";
    let cut = rng.gen_range(0..body.len() as u64) as usize;
    let _ = write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        &body[..cut]
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The chaos scenario: load with hostile clients, SIGKILL, restart and
/// check recovery, shut down cleanly, boot again and check replay.
fn chaos(cfg: &Config, serve_cmd: &[String], dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (journal, cache) = (dir.join("journal.jsonl"), dir.join("cache"));
    let flags = [
        OsStr::new("--journal"),
        journal.as_os_str(),
        OsStr::new("--cache-dir"),
        cache.as_os_str(),
    ];
    let boot = |n: u32| {
        let port_file = dir.join(format!("addr-{n}.txt"));
        Daemon::spawn(serve_cmd, &flags, &port_file, cfg.timeout)
    };
    let mut report = Report::new(Scenario::Chaos, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Phase 1: load until `jobs` acks, harassing in between.
    let daemon = boot(1)?;
    let addr = daemon.addr();
    let mut acked: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
    let mut attempts = 0usize;
    while acked.len() < cfg.jobs.max(1) {
        attempts += 1;
        if attempts > cfg.jobs.max(1) * 20 {
            return Err("daemon stopped acknowledging jobs".to_owned());
        }
        // Hostile clients first, seeded: the daemon must keep serving
        // around them.
        if rng.gen_range(0..100u32) < 30 {
            slow_loris(addr, &mut rng);
            report.add("slowloris", 1);
        }
        if rng.gen_range(0..100u32) < 30 {
            disconnect_mid_request(addr, &mut rng);
            report.add("disconnects", 1);
        }
        let spec = random_spec(cfg, &mut rng);
        let Ok(id) = submit(addr, &spec).acked() else {
            continue;
        };
        // Sometimes wait for the result (so the kill also covers jobs
        // with journaled terminals and persisted cache entries),
        // sometimes race straight on (so it covers queued and running
        // jobs too).
        let body_before = if rng.gen_range(0..100u32) < 50 {
            settle(addr, id, cfg.timeout).ok().and_then(|s| s.body)
        } else {
            None
        };
        if body_before.is_some() {
            report.add("done_before_kill", 1);
        }
        acked.push((id, body_before));
    }
    report.set("acked", acked.len() as u64);

    // Phase 2: SIGKILL mid-load (the handle's drop); queued and running
    // jobs die with it.
    drop(daemon);

    // Phase 3: restart on the same journal and cache; every ack must
    // resolve, with the body seen before the kill.
    let mut daemon = boot(2)?;
    let addr = daemon.addr();
    let mut bodies: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (id, before) in acked {
        match client::get(addr, &format!("/jobs/{id}"), HTTP_TIMEOUT) {
            Ok(r) if r.status == 404 => {
                report.note("lost", id);
                continue;
            }
            Ok(_) => {}
            Err(_) => {
                report.note("unrecovered", id);
                continue;
            }
        }
        let Some(body) = settle(addr, id, cfg.timeout).ok().and_then(|s| s.body) else {
            report.note("unrecovered", id);
            continue;
        };
        if before.is_some_and(|before| before != body) {
            report.note("mismatched", id);
        }
        bodies.insert(id, body);
    }
    daemon.shutdown(cfg.timeout)?;

    // Phase 4: a third boot after the clean shutdown; replay must be a
    // no-op and the bodies stable.
    let mut daemon = boot(3)?;
    let addr = daemon.addr();
    let reenqueued = stat(addr, "durability.journal.reenqueued");
    report.set("reenqueued_after_clean", reenqueued.unwrap_or(u64::MAX));
    for (id, body) in bodies {
        if settle(addr, id, cfg.timeout).ok().and_then(|s| s.body) != Some(body) {
            report.note("mismatched", id);
        }
    }
    daemon.shutdown(cfg.timeout)?;
    Ok(report)
}

/// The oversized spec: two distinct tiny studies price above
/// [`MEM_LIMIT`], so admission classifies it oversized and runs it under
/// a derived budget. A fixed seed keeps its body comparable across the
/// two submissions.
fn oversized_spec() -> JobSpec {
    JobSpec {
        experiments: vec!["table2".to_owned(), "fig2".to_owned()],
        size: "tiny".to_owned(),
        seed: Some(0xF01D),
        ..JobSpec::default()
    }
}

/// A seeded fitting spec: one tiny study, distinct seeds so the stream
/// is computed work (cache hits would dodge the ledger entirely).
fn fitting_spec(rng: &mut StdRng) -> JobSpec {
    JobSpec {
        experiments: vec!["table2".to_owned()],
        size: "tiny".to_owned(),
        seed: Some(rng.gen_range(0..1u64 << 32)),
        ..JobSpec::default()
    }
}

/// A manifest body with its `resources` section stripped, and whether it
/// had one (the proof the job ran under an installed budget). Peak
/// net-allocation figures sit outside the resource layer's determinism
/// boundary (they depend on what the worker thread freed during the
/// window; see `foldic-fault::resource`), so the determinism invariant
/// covers everything *but* them: results, config and `mem_exceeded`
/// provenance must match exactly.
fn split_resources(body: &[u8]) -> (Option<String>, bool) {
    let doc = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok());
    let Some(mut doc) = doc else {
        return (None, false);
    };
    let had = doc.as_obj_mut().and_then(|obj| obj.remove("resources"));
    (Some(doc.to_compact()), had.is_some())
}

/// The overload scenario: oversized job, fitting burst, retries after
/// each `Retry-After`, the oversized job again, then `/stats`.
fn overload(cfg: &Config, serve_cmd: &[String], dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut report = Report::new(Scenario::Overload, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let deadline = Instant::now() + cfg.timeout;
    let flags = ["--mem-limit".to_owned(), MEM_LIMIT.to_string()];
    let mut daemon = Daemon::spawn(serve_cmd, &flags, &dir.join("addr.txt"), cfg.timeout)?;
    let addr = daemon.addr();

    // Phase 1: the oversized job first. Admission reserves the whole
    // ledger for it, so the burst behind it is guaranteed to shed.
    let over = oversized_spec();
    let first_over = submit(addr, &over).acked().ok();
    report.add("oversized_acked", u64::from(first_over.is_some()));

    // Phases 2 and 3: burst the fitting jobs with no pacing, then retry
    // every shed one until all are acknowledged or the deadline passes.
    // This is the only client-side retry loop.
    let specs: Vec<JobSpec> = (0..cfg.jobs.max(1))
        .map(|_| fitting_spec(&mut rng))
        .collect();
    report.set("fitting", specs.len() as u64);
    let mut acked: Vec<Option<u64>> = vec![None; specs.len()];
    loop {
        let mut backoff = 1u64;
        for (spec, acked) in specs.iter().zip(&mut acked) {
            if acked.is_some() {
                continue;
            }
            match submit(addr, spec) {
                Submitted::Hit(id) | Submitted::Queued(id) => *acked = Some(id),
                Submitted::Shed(hint) => {
                    report.add("shed", 1);
                    match hint {
                        Some(hint) => backoff = backoff.max(hint),
                        None => report.add("bad_retry_after", 1),
                    }
                }
                Submitted::Rejected | Submitted::Error(_) => {}
            }
        }
        if acked.iter().all(Option::is_some) || Instant::now() >= deadline {
            break;
        }
        if daemon.exited().is_some() {
            report.set("daemon_died", 1);
            return Ok(report);
        }
        // Honoring the largest hint of the round keeps the loop a
        // well-behaved client; the hint is bounded, so this cannot
        // outlive the scenario deadline by much.
        std::thread::sleep(Duration::from_secs(backoff.min(10)));
    }

    // Phase 4: every acknowledged fitting job must complete.
    for id in acked.into_iter().flatten() {
        match settle(addr, id, cfg.timeout) {
            Ok(Settled { body: Some(_), .. }) => report.add("completed", 1),
            _ => report.note("failed", id),
        }
    }

    // Phase 5: the oversized body, twice: deterministic and carrying
    // `resources` provenance. The spec is not cacheable, so the second
    // submission recomputes rather than replaying a cached body. It is
    // submitted only after the first has settled.
    let mut over_bodies = Vec::new();
    let mut settle_over = |id, report: &mut Report| match settle(addr, id, cfg.timeout) {
        Ok(Settled {
            body: Some(body), ..
        }) => over_bodies.push(split_resources(&body)),
        _ => report.note("failed", id),
    };
    if let Some(id) = first_over {
        settle_over(id, &mut report);
    }
    if let Ok(id) = submit(addr, &over).acked() {
        report.add("oversized_acked", 1);
        settle_over(id, &mut report);
    }
    if let [(first, _), (second, _)] = &over_bodies[..] {
        report.set("oversized_mismatched", u64::from(first != second));
    }
    let missing = over_bodies.iter().filter(|(_, had)| !had).count();
    report.set("oversized_missing_resources", missing as u64);

    // Phase 6: ledger and counters after the drain, then a clean exit.
    for (count, path) in [
        ("stats_mem_shed", "resources.mem_shed"),
        ("stats_oversized", "resources.oversized"),
        ("stats_reserved_after", "resources.reserved_bytes"),
    ] {
        report.set(count, stat(addr, path).unwrap_or(0));
    }
    if daemon.exited().is_some() {
        report.set("daemon_died", 1);
        return Ok(report);
    }
    daemon.shutdown(cfg.timeout)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        let mix = MixWeights::parse("hit=50,miss=30,cancel=10,deadline=10").unwrap();
        assert_eq!(mix.hit, 50.0);
        assert_eq!(mix.deadline, 10.0);
        assert!(MixWeights::parse("hit=0,miss=0").is_err());
        assert!(MixWeights::parse("bogus=1").is_err());
        assert!(MixWeights::parse("hit").is_err());
        assert!(MixWeights::parse("hit=-1").is_err());
    }

    #[test]
    fn plan_is_deterministic_and_misses_are_unique() {
        let cfg = Config::new(
            Scenario::Load,
            Target::Attach("127.0.0.1:1".parse().unwrap()),
        );
        let (pool_a, plan_a) = plan(&cfg);
        let (pool_b, plan_b) = plan(&cfg);
        assert_eq!(pool_a.len(), WARM_POOL);
        assert_eq!(pool_a, pool_b);
        assert_eq!(plan_a.len(), cfg.jobs);
        for (a, b) in plan_a.iter().zip(&plan_b) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.spec, b.spec);
        }
        // hit jobs draw from the pool; everything else is unique
        let pool_seeds: Vec<Option<u64>> = pool_a.iter().map(|s| s.seed).collect();
        let mut fresh = std::collections::HashSet::new();
        for job in &plan_a {
            match job.kind {
                Kind::Hit => assert!(pool_seeds.contains(&job.spec.seed)),
                _ => assert!(fresh.insert(job.spec.seed), "duplicate fresh seed"),
            }
        }
        // deadline jobs carry the budget, others do not
        for job in &plan_a {
            assert_eq!(job.spec.deadline_secs.is_some(), job.kind == Kind::Deadline);
        }
    }

    /// A message fragment and an edit that breaks the one invariant
    /// whose message holds it.
    type Case = (&'static str, fn(&mut Report));

    /// `clean` passes, and each case breaks exactly one invariant: the
    /// one whose message holds the case's fragment.
    fn assert_each_case_trips_only_its_invariant(clean: &Report, cases: &[Case]) {
        assert_eq!(clean.gate(), Ok(()));
        assert_eq!(clean.to_json().get("pass"), Some(&Json::Bool(true)));
        for (fragment, break_one) in cases {
            let mut report = clean.clone();
            break_one(&mut report);
            let violations = report.violations();
            assert_eq!(violations.len(), 1, "`{fragment}`: {violations:?}");
            assert!(
                violations[0].contains(fragment),
                "`{fragment}`: {violations:?}"
            );
            assert_eq!(report.to_json().get("pass"), Some(&Json::Bool(false)));
        }
    }

    fn delta(report: &mut Report, series: String, value: u64) {
        report.deltas.insert(series, value);
    }

    #[test]
    fn every_load_invariant_trips() {
        let mut clean = Report::new(Scenario::Load, 0xF01D_1C5E);
        for (count, value) in [
            ("jobs", 10),
            ("clients", 2),
            ("hits", 6),
            ("done", 9),
            ("cancelled", 1),
        ] {
            clean.set(count, value);
        }
        clean.planned = [("hit", 6), ("miss", 2), ("cancel", 1), ("deadline", 1)].into();
        // A server view that agrees exactly with the clients.
        clean.deltas = [
            (telemetry::jobs_state_series("done"), 9),
            (telemetry::jobs_state_series("cancelled"), 1),
            (telemetry::SERIES_CACHE_HITS.to_owned(), 6),
            (telemetry::SERIES_CACHE_MISSES.to_owned(), 3),
            (telemetry::requests_series("submit", "POST", 200), 6),
            (telemetry::requests_series("submit", "POST", 202), 4),
        ]
        .into();
        let cases: [Case; 14] = [
            ("scenario did not run", |r| {
                *r = Report::new(Scenario::Load, 0xF01D_1C5E)
            }),
            ("client error(s), first: hit: boom", |r| {
                r.errors.push("hit: boom".to_owned())
            }),
            ("1 job(s) failed", |r| {
                r.set("done", 8);
                r.set("failed", 1);
                delta(r, telemetry::jobs_state_series("done"), 8);
                delta(r, telemetry::jobs_state_series("failed"), 1);
            }),
            ("1 submission(s) rejected", |r| {
                r.set("done", 8);
                r.set("rejected", 1);
                delta(r, telemetry::jobs_state_series("done"), 8);
                delta(r, telemetry::SERIES_JOBS_REJECTED.to_owned(), 1);
            }),
            ("only 5 cache hit(s), planned 6", |r| {
                r.set("hits", 5);
                delta(r, telemetry::SERIES_CACHE_HITS.to_owned(), 5);
                delta(r, telemetry::SERIES_CACHE_MISSES.to_owned(), 4);
                delta(r, telemetry::requests_series("submit", "POST", 200), 5);
                delta(r, telemetry::requests_series("submit", "POST", 202), 5);
            }),
            ("9 terminal + 0 rejected != 10 submitted", |r| {
                r.set("done", 8);
                delta(r, telemetry::jobs_state_series("done"), 8);
            }),
            ("server counted 8 done jobs", |r| {
                delta(r, telemetry::jobs_state_series("done"), 8)
            }),
            ("server counted 0 cancelled jobs", |r| {
                delta(r, telemetry::jobs_state_series("cancelled"), 0)
            }),
            ("server counted 1 failed jobs", |r| {
                delta(r, telemetry::jobs_state_series("failed"), 1)
            }),
            ("server counted 1 rejections", |r| {
                delta(r, telemetry::SERIES_JOBS_REJECTED.to_owned(), 1)
            }),
            ("server counted 5 cache hits", |r| {
                delta(r, telemetry::SERIES_CACHE_HITS.to_owned(), 5)
            }),
            ("server counted 7 cache misses", |r| {
                delta(r, telemetry::SERIES_CACHE_MISSES.to_owned(), 7)
            }),
            ("server counted 5 hit submits", |r| {
                delta(r, telemetry::requests_series("submit", "POST", 200), 5)
            }),
            ("server counted 5 queued submits", |r| {
                delta(r, telemetry::requests_series("submit", "POST", 202), 5)
            }),
        ];
        assert_each_case_trips_only_its_invariant(&clean, &cases);
    }

    #[test]
    fn every_chaos_invariant_trips() {
        let mut clean = Report::new(Scenario::Chaos, 42);
        clean.set("acked", 10);
        clean.set("done_before_kill", 4);
        let cases: [Case; 5] = [
            ("scenario did not run", |r| r.set("acked", 0)),
            ("1 acknowledged job(s) lost across kill/restart", |r| {
                r.note("lost", 3)
            }),
            ("never reached a terminal state after restart", |r| {
                r.note("unrecovered", 4)
            }),
            ("served a different body", |r| r.note("mismatched", 5)),
            ("re-enqueued 2 job(s)", |r| {
                r.set("reenqueued_after_clean", 2)
            }),
        ];
        assert_each_case_trips_only_its_invariant(&clean, &cases);
        assert!(
            Report::new(Scenario::Chaos, 42).gate().is_err(),
            "an empty run must not pass"
        );
    }

    #[test]
    fn every_overload_invariant_trips() {
        let mut clean = Report::new(Scenario::Overload, 42);
        for (count, value) in [
            ("fitting", 6),
            ("completed", 6),
            ("shed", 9),
            ("oversized_acked", 2),
            ("stats_mem_shed", 9),
            ("stats_oversized", 2),
        ] {
            clean.set(count, value);
        }
        let cases: [Case; 12] = [
            ("died", |r| r.set("daemon_died", 1)),
            ("no fitting jobs", |r| r.set("fitting", 0)),
            ("only 3/6 fitting", |r| r.set("completed", 3)),
            ("never overloaded", |r| r.set("shed", 0)),
            ("Retry-After", |r| r.set("bad_retry_after", 2)),
            ("only 1 oversized submission(s) acknowledged", |r| {
                r.set("oversized_acked", 1);
                r.set("stats_oversized", 1);
            }),
            ("oversized bodies differ", |r| {
                r.set("oversized_mismatched", 1)
            }),
            ("lack `resources` provenance", |r| {
                r.set("oversized_missing_resources", 1)
            }),
            ("1 job(s) failed or never went terminal", |r| {
                r.note("failed", 7)
            }),
            ("/stats counted 3 oversized admission(s)", |r| {
                r.set("stats_oversized", 3)
            }),
            ("/stats counted 5 mem shed(s)", |r| {
                r.set("stats_mem_shed", 5)
            }),
            ("leaked 4096 byte(s)", |r| {
                r.set("stats_reserved_after", 4096)
            }),
        ];
        assert_each_case_trips_only_its_invariant(&clean, &cases);
        assert!(
            Report::new(Scenario::Overload, 42).gate().is_err(),
            "an empty run must not pass"
        );
    }

    #[test]
    fn seed_above_2_pow_53_is_reported_exactly() {
        let doc = Report::new(Scenario::Chaos, 0x20_0000_0000_0001).to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("scenario").and_then(Json::as_str), Some("chaos"));
        assert_eq!(
            doc.get("seed").and_then(Json::as_str),
            Some("0x20000000000001")
        );
        let counts = doc.get("counts").and_then(Json::as_obj).unwrap();
        assert_eq!(counts.len(), Scenario::Chaos.counts().len());
        let lost = doc.get("ids").and_then(|ids| ids.get("lost"));
        assert_eq!(lost.and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        assert!(doc.get("planned").is_none(), "planned is load's alone");
    }

    #[test]
    fn ids_failing_both_body_checks_are_listed_once() {
        let mut report = Report::new(Scenario::Chaos, 42);
        report.set("acked", 8);
        // After the first restart, in ack order; after the third boot,
        // in id order.
        for id in [5, 6, 5, 6] {
            report.note("mismatched", id);
        }
        assert_eq!(
            report.violations(),
            ["2 job(s) served a different body after recovery: {5, 6}"]
        );
        let doc = report.to_json();
        let listed = doc.get("ids").and_then(|ids| ids.get("mismatched"));
        assert_eq!(listed.and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn counter_deltas_keep_total_series_only() {
        let before: BTreeMap<String, f64> = [
            ("foldic_serve_cache_hits_total".to_owned(), 4.0),
            ("foldic_serve_queue_depth".to_owned(), 2.0),
        ]
        .into_iter()
        .collect();
        let after: BTreeMap<String, f64> = [
            ("foldic_serve_cache_hits_total".to_owned(), 10.0),
            ("foldic_serve_cache_misses_total".to_owned(), 3.0),
            ("foldic_serve_queue_depth".to_owned(), 0.0),
            (
                "foldic_serve_requests_total{endpoint=\"submit\",method=\"POST\",status=\"202\"}"
                    .to_owned(),
                3.0,
            ),
            (
                "foldic_serve_request_latency_ms_sum{endpoint=\"submit\"}".to_owned(),
                9.0,
            ),
        ]
        .into_iter()
        .collect();
        let deltas = counter_deltas(&before, &after);
        assert_eq!(deltas.get("foldic_serve_cache_hits_total"), Some(&6));
        assert_eq!(deltas.get("foldic_serve_cache_misses_total"), Some(&3));
        assert_eq!(
            deltas.get(
                "foldic_serve_requests_total{endpoint=\"submit\",method=\"POST\",status=\"202\"}"
            ),
            Some(&3)
        );
        assert!(
            !deltas.contains_key("foldic_serve_queue_depth"),
            "gauges excluded"
        );
        assert!(
            !deltas.keys().any(|k| k.contains("latency")),
            "histogram series excluded"
        );
    }

    #[test]
    fn oversized_spec_prices_above_the_limit_and_fitting_below() {
        let over = crate::cost::estimate_cost(&oversized_spec()).unwrap();
        assert!(
            over > MEM_LIMIT,
            "oversized spec must exceed the limit ({over} <= {MEM_LIMIT})"
        );
        let mut rng = StdRng::seed_from_u64(7);
        let fit = crate::cost::estimate_cost(&fitting_spec(&mut rng)).unwrap();
        assert!(
            fit <= MEM_LIMIT,
            "fitting spec must fit under the limit ({fit} > {MEM_LIMIT})"
        );
        assert!(
            2 * fit > MEM_LIMIT,
            "two fitting jobs must not fit at once or nothing ever sheds"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_a_spawned_daemon_kills_and_reaps_it() {
        let dir = std::env::temp_dir().join(format!("foldic-scenario-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A stand-in daemon: it writes the port file the handle names in
        // its fourth argument, then sleeps far past the test.
        let script = "echo 127.0.0.1:9 > \"$4\"; exec sleep 60";
        let cmd = ["sh", "-c", script, "sh"].map(str::to_owned);
        let port_file = dir.join("addr.txt");
        let daemon = Daemon::spawn(&cmd, &[] as &[&str], &port_file, Duration::from_secs(10))
            .expect("stand-in daemon boots");
        assert_eq!(daemon.addr(), SocketAddr::from(([127, 0, 0, 1], 9)));
        let pid = daemon.child.as_ref().map(Child::id).unwrap();
        drop(daemon);
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "process {pid} outlived its handle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
