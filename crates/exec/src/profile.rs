//! Lightweight per-stage instrumentation.
//!
//! Flow code wraps each stage in [`stage`] (or a [`StageTimer`] guard)
//! and reports iteration counts through [`add_iters`]; the pool feeds
//! queue statistics in through [`note_run`]. Recording is off by default
//! and costs one atomic load per hook when disabled, so the hooks stay in
//! release builds. `repro --profile` enables it and prints the table.
//!
//! Stage names nest: a stage started while another is active records
//! under `outer/inner`, so per-block flow stages inside a parallel
//! full-chip run stay distinguishable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::RunStats;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Report>> = Mutex::new(None);

thread_local! {
    static ACTIVE: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated numbers for one stage name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall time across calls.
    pub wall: Duration,
    /// Iterations reported by the stage's inner loops via [`add_iters`].
    pub iters: u64,
}

/// A profiling report: per-stage numbers plus pool scheduling stats.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-stage accumulators, keyed by (possibly nested) stage name.
    pub stages: BTreeMap<String, StageStats>,
    /// Total jobs executed by the pool while profiling was on.
    pub jobs: usize,
    /// Total steals across pool runs.
    pub steals: usize,
    /// Largest queue backlog any pool run observed.
    pub peak_queue_depth: usize,
    /// Number of pool fan-outs.
    pub runs: usize,
}

impl Report {
    fn merge_stage(&mut self, name: String, wall: Duration, iters: u64) {
        let e = self.stages.entry(name).or_default();
        e.calls += 1;
        e.wall += wall;
        e.iters += iters;
    }
}

impl Report {
    /// Total wall time across *top-level* stages (nested `outer/inner`
    /// entries already count inside their parent's wall). This is the
    /// denominator of the `share` column.
    pub fn total_wall(&self) -> Duration {
        self.stages
            .iter()
            .filter(|(name, _)| !name.contains('/'))
            .map(|(_, s)| s.wall)
            .sum()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>8} {:>12} {:>8} {:>14} {:>12}",
            "stage", "calls", "wall ms", "share", "iters", "ms/call"
        )?;
        let total = self.total_wall().as_secs_f64().max(1e-12);
        for (name, s) in &self.stages {
            let ms = s.wall.as_secs_f64() * 1e3;
            writeln!(
                f,
                "{:<28} {:>8} {:>12.2} {:>7.1}% {:>14} {:>12.3}",
                name,
                s.calls,
                ms,
                s.wall.as_secs_f64() / total * 100.0,
                s.iters,
                ms / s.calls.max(1) as f64
            )?;
        }
        writeln!(
            f,
            "pool: {} jobs over {} fan-outs, {} steals ({:.3} steals/job), peak queue depth {}",
            self.jobs,
            self.runs,
            self.steals,
            self.steals as f64 / self.jobs.max(1) as f64,
            self.peak_queue_depth
        )
    }
}

/// Turns recording on or off. Turning it on clears the accumulator.
pub fn set_enabled(on: bool) {
    if on {
        *GLOBAL.lock().unwrap() = Some(Report::default());
    }
    ENABLED.store(on, Ordering::Release);
}

/// `true` while recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Takes the accumulated report, leaving an empty one behind.
pub fn take() -> Report {
    GLOBAL
        .lock()
        .unwrap()
        .replace(Report::default())
        .unwrap_or_default()
}

/// Runs `f` as a named stage, recording wall time when profiling is on
/// and a trace span when tracing is on.
pub fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !is_enabled() && !foldic_obs::trace::is_enabled() {
        return f();
    }
    let _guard = StageTimer::start(name);
    f()
}

/// Adds `n` iterations to the innermost active stage (no-op when
/// profiling is off or no stage is active). Call once per entry point
/// with a count — not once per inner-loop iteration.
pub fn add_iters(n: u64) {
    if !is_enabled() || n == 0 {
        return;
    }
    let name = ACTIVE.with(|a| a.borrow().join("/"));
    if name.is_empty() {
        return;
    }
    if let Some(report) = GLOBAL.lock().unwrap().as_mut() {
        report.stages.entry(name).or_default().iters += n;
    }
}

/// Feeds one pool run's scheduling stats into the report.
pub(crate) fn note_run(stats: &RunStats) {
    if !is_enabled() {
        return;
    }
    if let Some(report) = GLOBAL.lock().unwrap().as_mut() {
        report.jobs += stats.jobs;
        report.steals += stats.steals;
        report.peak_queue_depth = report.peak_queue_depth.max(stats.peak_queue_depth);
        report.runs += 1;
    }
}

/// RAII stage timer: records on drop, so early returns and panics inside
/// the stage still count. Each stage doubles as a trace span, so
/// `--trace` output shows the same names as `--profile`.
pub struct StageTimer {
    name: &'static str,
    start: Instant,
    _span: foldic_obs::trace::SpanGuard,
}

impl StageTimer {
    /// Starts a stage; it ends when the guard drops.
    pub fn start(name: &'static str) -> Self {
        ACTIVE.with(|a| a.borrow_mut().push(name));
        Self {
            name,
            start: Instant::now(),
            _span: foldic_obs::trace::SpanGuard::enter(name),
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        let wall = self.start.elapsed();
        let full = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let full = a.join("/");
            debug_assert_eq!(a.last().copied(), Some(self.name));
            a.pop();
            full
        });
        // stage() also opens timers for trace-only runs; only feed the
        // profile report while profiling itself is on
        if is_enabled() {
            if let Some(report) = GLOBAL.lock().unwrap().as_mut() {
                report.merge_stage(full, wall, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profile registry is global: tests that enable it hold the
    // crate's test lock, which every pool-running test also takes.
    #[test]
    fn records_stages_iters_and_nesting() {
        let _serial = crate::test_lock();
        set_enabled(true);
        stage("outer", || {
            add_iters(3);
            stage("inner", || add_iters(2));
        });
        stage("outer", || add_iters(1));
        let report = take();
        set_enabled(false);

        let outer = report.stages.get("outer").expect("outer recorded");
        assert_eq!(outer.calls, 2);
        assert_eq!(outer.iters, 4);
        let inner = report.stages.get("outer/inner").expect("nested name");
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.iters, 2);
        let rendered = report.to_string();
        assert!(rendered.contains("outer/inner"));

        // disabled => nothing recorded, stage still runs
        let mut ran = false;
        stage("ghost", || ran = true);
        assert!(ran);
        assert!(take().stages.is_empty());
    }

    #[test]
    fn report_header_has_share_column_and_steal_rate() {
        let mut report = Report::default();
        report.merge_stage("place".to_owned(), Duration::from_millis(30), 5);
        report.merge_stage("route".to_owned(), Duration::from_millis(10), 0);
        report.merge_stage("place/inner".to_owned(), Duration::from_millis(5), 0);
        report.jobs = 8;
        report.steals = 2;
        let rendered = report.to_string();
        let header = rendered.lines().next().unwrap();
        for col in ["stage", "calls", "wall ms", "share", "iters", "ms/call"] {
            assert!(header.contains(col), "header missing {col:?}: {header}");
        }
        // shares are percentages of top-level wall (30 + 10 ms)
        let place = rendered.lines().find(|l| l.starts_with("place ")).unwrap();
        assert!(place.contains("75.0%"), "{place}");
        assert!(
            rendered.contains("0.250 steals/job"),
            "pool line reports steals/job: {rendered}"
        );
    }

    #[test]
    fn pool_stats_feed_the_report() {
        let _serial = crate::test_lock();
        set_enabled(true);
        let _ = crate::par_map(4, (0..32).collect::<Vec<usize>>(), |_, x| x + 1);
        let report = take();
        set_enabled(false);
        assert_eq!(report.jobs, 32);
        assert_eq!(report.runs, 1);
    }
}
