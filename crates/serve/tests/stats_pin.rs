//! Byte pins of the `/stats` and `/metrics` bodies.
//!
//! Two schedulers, one unconfigured and one with every pay-for-use
//! family on (journal, cache directory, breaker, memory limit), are each
//! driven through the same miss / queue / reject / cancel / hit sequence.
//! `/stats` is rendered the way the server renders it, with
//! `uptime_seconds` masked. `/metrics` is pinned in two parts: its
//! `deterministic_subset`, and the volatile series this sequence makes
//! exact (queue, worker, breaker and ledger gauges); only the wall-clock
//! families (the two job histograms and uptime) are left out. So a
//! refactor of how the scheduler gathers its series cannot move a field,
//! a value, a gate or an ordering unnoticed.

use foldic_obs::expo;
use foldic_obs::json::Json;
use foldic_serve::cache::ResultCache;
use foldic_serve::journal::Journal;
use foldic_serve::queue::{
    Durability, JobState, Scheduler, SchedulerConfig, StudyRunner, Submission,
};
use foldic_serve::supervise::BreakerConfig;
use foldic_serve::telemetry::{deterministic_subset, is_volatile_series, Telemetry};
use foldic_serve::JobSpec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(20);

/// Runner whose jobs block until [`HoldRunner::release`] is called.
#[derive(Default)]
struct HoldRunner {
    released: Mutex<bool>,
    cv: Condvar,
}

impl HoldRunner {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl StudyRunner for HoldRunner {
    fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
        let mut config = BTreeMap::new();
        config.insert("experiments".to_owned(), spec.experiments.join("+"));
        config.insert("size".to_owned(), spec.size.clone());
        Ok(config)
    }

    fn run(&self, spec: &JobSpec) -> Result<String, String> {
        let mut released = self.released.lock().unwrap();
        while !*released {
            let (next, timeout) = self.cv.wait_timeout(released, WAIT).unwrap();
            assert!(!timeout.timed_out(), "job never released");
            released = next;
        }
        Ok(format!("body:{}", spec.experiments.join("+")))
    }
}

fn spec(name: &str) -> JobSpec {
    JobSpec {
        experiments: vec![name.to_owned()],
        size: "tiny".to_owned(),
        ..JobSpec::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("foldic-stats-pin");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn await_state(sched: &Scheduler, id: u64, want: JobState) {
    let deadline = Instant::now() + WAIT;
    while sched.status(id).map(|s| s.state) != Some(want) {
        assert!(Instant::now() < deadline, "job {id} never reached {want:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Families whose values are wall-clock readings even in this test.
const WALL_CLOCK: &[&str] = &[
    "foldic_serve_job_wait_ms",
    "foldic_serve_job_run_ms",
    "foldic_serve_uptime_seconds",
];

/// Runs the fixed sequence on one worker and a one-slot queue, then
/// returns the `/stats` body (uptime masked), the deterministic subset of
/// the `/metrics` body and its volatile series other than [`WALL_CLOCK`].
fn drive(runner: Arc<HoldRunner>, sched: Scheduler) -> (String, String, String) {
    // `a` misses and holds the only worker; `b` fills the queue.
    let Submission::Queued { id: a } = sched.submit(spec("a")) else {
        panic!("`a` must queue");
    };
    await_state(&sched, a, JobState::Running);
    let Submission::Queued { id: b } = sched.submit(spec("b")) else {
        panic!("`b` must queue");
    };
    assert!(matches!(
        sched.submit(spec("c")),
        Submission::Rejected { .. }
    ));
    assert_eq!(sched.cancel(b), Some(JobState::Cancelled));
    runner.release();
    assert_eq!(sched.wait_terminal(a, WAIT), Some(JobState::Done));
    assert!(matches!(sched.submit(spec("a")), Submission::Hit { .. }));

    let mut stats = sched.stats_json();
    let Json::Obj(fields) = &mut stats else {
        panic!("/stats must be an object");
    };
    let uptime = fields.get_mut("uptime_seconds").expect("uptime_seconds");
    assert!(uptime.as_f64().is_some(), "uptime_seconds must be a number");
    *uptime = Json::Str("<masked>".to_owned());
    let text = sched.metrics_text();
    let sequenced = expo::filter_exposition(&text, &|series| {
        is_volatile_series(series) && !WALL_CLOCK.contains(&expo::family_of(series))
    });
    sched.shutdown();
    (stats.to_pretty(), deterministic_subset(&text), sequenced)
}

/// One worker and a one-slot queue, everything else default.
fn config() -> SchedulerConfig {
    SchedulerConfig {
        queue_capacity: 1,
        workers: 1,
        ..SchedulerConfig::default()
    }
}

#[test]
fn unconfigured_scheduler_bodies_are_pinned() {
    let runner = Arc::new(HoldRunner::default());
    let sched = Scheduler::new(runner.clone(), config());
    let (stats, metrics, sequenced) = drive(runner, sched);
    assert_eq!(stats, PLAIN_STATS);
    assert_eq!(metrics, PLAIN_METRICS);
    assert_eq!(sequenced, PLAIN_SEQUENCED);
}

#[test]
fn fully_configured_scheduler_bodies_are_pinned() {
    let journal_path = tmp("journal.jsonl");
    let cache_dir = tmp("cache");
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let runner = Arc::new(HoldRunner::default());
    let sched = Scheduler::with_durability(
        runner.clone(),
        SchedulerConfig {
            mem_limit: Some(1 << 40),
            ..config()
        },
        Telemetry::disabled(),
        Durability {
            journal: Some(Journal::open(&journal_path).unwrap()),
            cache: ResultCache::with_dir(&cache_dir).unwrap(),
            breaker: Some(BreakerConfig::default()),
        },
    );
    let (stats, metrics, sequenced) = drive(runner, sched);
    assert_eq!(stats, DURABLE_STATS);
    assert_eq!(metrics, DURABLE_METRICS);
    assert_eq!(sequenced, DURABLE_SEQUENCED);
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

const PLAIN_STATS: &str = r#"{
  "cache": {
    "entries": 1,
    "hits": 1,
    "insertions": 1,
    "misses": 3
  },
  "counters": {
    "cancelled": 1,
    "completed": 2,
    "failed": 0,
    "submitted": 3
  },
  "jobs": {
    "cancelled": 1,
    "done": 2,
    "failed": 0,
    "queued": 0,
    "running": 0
  },
  "queue": {
    "capacity": 1,
    "depth": 0,
    "high_water": 1,
    "rejected": 1
  },
  "schema": "foldic-serve-stats/1",
  "uptime_seconds": "<masked>",
  "workers": 1
}
"#;
const PLAIN_METRICS: &str = r#"# TYPE foldic_serve_cache_entries gauge
foldic_serve_cache_entries 1
# TYPE foldic_serve_cache_evictions_total counter
foldic_serve_cache_evictions_total 0
# TYPE foldic_serve_cache_hits_total counter
foldic_serve_cache_hits_total 1
# TYPE foldic_serve_cache_insertions_total counter
foldic_serve_cache_insertions_total 1
# TYPE foldic_serve_cache_misses_total counter
foldic_serve_cache_misses_total 3
# TYPE foldic_serve_jobs_rejected_total counter
foldic_serve_jobs_rejected_total 1
# TYPE foldic_serve_jobs_submitted_total counter
foldic_serve_jobs_submitted_total 3
# TYPE foldic_serve_jobs_total counter
foldic_serve_jobs_total{state="cancelled"} 1
foldic_serve_jobs_total{state="done"} 2
foldic_serve_jobs_total{state="failed"} 0
# TYPE foldic_serve_queue_capacity gauge
foldic_serve_queue_capacity 1
"#;
const PLAIN_SEQUENCED: &str = r#"# TYPE foldic_serve_queue_depth gauge
foldic_serve_queue_depth 0
# TYPE foldic_serve_queue_high_water gauge
foldic_serve_queue_high_water 1
# TYPE foldic_serve_workers gauge
foldic_serve_workers 1
# TYPE foldic_serve_workers_busy gauge
foldic_serve_workers_busy 0
"#;
const DURABLE_STATS: &str = r#"{
  "cache": {
    "entries": 1,
    "hits": 1,
    "insertions": 1,
    "misses": 3
  },
  "counters": {
    "cancelled": 1,
    "completed": 2,
    "failed": 0,
    "submitted": 3
  },
  "durability": {
    "breaker": {
      "state": "closed",
      "transitions": 0
    },
    "cache_dir": {
      "corrupt": 0,
      "loaded": 0
    },
    "journal": {
      "reenqueued": 0,
      "replayed_jobs": 0
    },
    "poisoned_jobs": 0,
    "shed": 0,
    "worker_restarts": 0
  },
  "jobs": {
    "cancelled": 1,
    "done": 2,
    "failed": 0,
    "queued": 0,
    "running": 0
  },
  "queue": {
    "capacity": 1,
    "depth": 0,
    "high_water": 1,
    "rejected": 1
  },
  "resources": {
    "limit_bytes": 1099511627776,
    "mem_shed": 0,
    "oversized": 0,
    "reserved_bytes": 0,
    "reserved_peak_bytes": 8388608
  },
  "schema": "foldic-serve-stats/1",
  "uptime_seconds": "<masked>",
  "workers": 1
}
"#;
const DURABLE_METRICS: &str = r#"# TYPE foldic_serve_cache_corrupt_total counter
foldic_serve_cache_corrupt_total 0
# TYPE foldic_serve_cache_entries gauge
foldic_serve_cache_entries 1
# TYPE foldic_serve_cache_evictions_total counter
foldic_serve_cache_evictions_total 0
# TYPE foldic_serve_cache_hits_total counter
foldic_serve_cache_hits_total 1
# TYPE foldic_serve_cache_insertions_total counter
foldic_serve_cache_insertions_total 1
# TYPE foldic_serve_cache_loaded_total counter
foldic_serve_cache_loaded_total 0
# TYPE foldic_serve_cache_misses_total counter
foldic_serve_cache_misses_total 3
# TYPE foldic_serve_jobs_mem_shed_total counter
foldic_serve_jobs_mem_shed_total 0
# TYPE foldic_serve_jobs_oversized_total counter
foldic_serve_jobs_oversized_total 0
# TYPE foldic_serve_jobs_poisoned_total counter
foldic_serve_jobs_poisoned_total 0
# TYPE foldic_serve_jobs_rejected_total counter
foldic_serve_jobs_rejected_total 1
# TYPE foldic_serve_jobs_shed_total counter
foldic_serve_jobs_shed_total 0
# TYPE foldic_serve_jobs_submitted_total counter
foldic_serve_jobs_submitted_total 3
# TYPE foldic_serve_jobs_total counter
foldic_serve_jobs_total{state="cancelled"} 1
foldic_serve_jobs_total{state="done"} 2
foldic_serve_jobs_total{state="failed"} 0
# TYPE foldic_serve_journal_reenqueued_total counter
foldic_serve_journal_reenqueued_total 0
# TYPE foldic_serve_journal_replayed_jobs_total counter
foldic_serve_journal_replayed_jobs_total 0
# TYPE foldic_serve_mem_limit_bytes gauge
foldic_serve_mem_limit_bytes 1099511627776
# TYPE foldic_serve_queue_capacity gauge
foldic_serve_queue_capacity 1
# TYPE foldic_serve_worker_restarts_total counter
foldic_serve_worker_restarts_total 0
"#;
const DURABLE_SEQUENCED: &str = r#"# TYPE foldic_serve_breaker_state gauge
foldic_serve_breaker_state 0
# TYPE foldic_serve_breaker_transitions_total counter
foldic_serve_breaker_transitions_total 0
# TYPE foldic_serve_mem_reserved_bytes gauge
foldic_serve_mem_reserved_bytes 0
# TYPE foldic_serve_mem_reserved_peak_bytes gauge
foldic_serve_mem_reserved_peak_bytes 8388608
# TYPE foldic_serve_queue_depth gauge
foldic_serve_queue_depth 0
# TYPE foldic_serve_queue_high_water gauge
foldic_serve_queue_high_water 1
# TYPE foldic_serve_workers gauge
foldic_serve_workers 1
# TYPE foldic_serve_workers_busy gauge
foldic_serve_workers_busy 0
"#;
