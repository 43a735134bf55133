#![warn(missing_docs)]
//! Deterministic work-stealing parallel execution engine.
//!
//! The paper's study is embarrassingly parallel: every table and figure
//! runs the §2.2 block flow over many independent (block, tier-count,
//! bonding-style) configurations. This crate fans those jobs out over a
//! small work-stealing thread pool built on [`std::thread::scope`] —
//! zero external dependencies, so the workspace stays offline-first.
//!
//! # Determinism contract
//!
//! [`par_map`] returns results **in submission order**, regardless of
//! which worker finished which job first. Combined with per-job RNG
//! streams (each job seeds its own generator from a stable
//! `(experiment, block, config)` key via `foldic_rng::derive_seed`),
//! parallel output is byte-identical to serial output. `threads = 1`
//! runs jobs inline on the caller's thread in submission order — the
//! reference against which the parallel path is tested.
//!
//! # Panic safety
//!
//! A panicking job never deadlocks the pool: the panic is caught, the
//! remaining jobs still run, and **every** payload is recorded at its
//! job's slot. [`par_map_caught`] exposes the per-job outcomes as
//! `Result<R, JobPanic>` — the API fault-tolerant callers build on —
//! while [`par_map`] keeps the fail-fast contract by re-raising the
//! payload of the **lowest-index** panicking job (deterministic across
//! thread counts, unlike first-to-finish) after the pool drains.
//!
//! # Instrumentation
//!
//! While `foldic-obs` tracing is on, each job runs in a `job` span
//! under the span that submitted it, and each pool run records one
//! `fanout` instant with its [`RunStats`] (jobs, threads, steals, peak
//! queue depth) — the pool line of `foldic_obs::stages`. Off, both cost
//! one relaxed load.

use foldic_obs::stages::{FANOUT, JOB};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Statistics of one [`par_map_stats`] run, exposed so benches and tests
/// can assert on scheduling behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of jobs executed (each exactly once).
    pub jobs: usize,
    /// Worker threads used (1 = inline serial execution).
    pub threads: usize,
    /// Jobs taken from another worker's queue.
    pub steals: usize,
    /// Largest backlog any worker's queue reached, sampled at dequeue.
    pub peak_queue_depth: usize,
    /// Wall time of the whole fan-out.
    pub wall: Duration,
}

/// Resolves a requested worker count.
///
/// `Some(n > 0)` wins; otherwise the `FOLDIC_THREADS` environment
/// variable; otherwise [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    if let Ok(v) = std::env::var("FOLDIC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A panic captured at the job boundary by [`par_map_caught`] /
/// [`run_caught`].
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// The raw panic payload, as handed to `catch_unwind`.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    /// A human-readable form of the payload (`&str` / `String` payloads
    /// verbatim, anything else a placeholder). Typed payloads should be
    /// recovered from [`JobPanic::payload`] by downcast instead.
    pub fn message(&self) -> String {
        self.payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| self.payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("index", &self.index)
            .field("message", &self.message())
            .finish()
    }
}

/// Runs one closure behind the same unwind boundary the pool uses,
/// returning the panic (if any) instead of propagating it.
///
/// # Errors
///
/// Returns the captured payload (index 0) when `f` panics.
pub fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobPanic { index: 0, payload })
}

/// Maps `f` over `items` on `threads` workers, returning results in
/// submission order. See the crate docs for the determinism and panic
/// contracts.
pub fn par_map<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map_stats(threads, items, f).0
}

/// [`par_map`] variant that also returns the run's [`RunStats`].
///
/// Panic contract: if any job panics, every job still runs, then the
/// payload of the lowest-index panicking job is re-raised here.
pub fn par_map_stats<I, R, F>(threads: usize, items: Vec<I>, f: F) -> (Vec<R>, RunStats)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let (caught, stats) = par_map_caught_stats(threads, items, f);
    let results = caught
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => resume_unwind(p.payload),
        })
        .collect();
    (results, stats)
}

/// Outcome of one job under cooperative cancellation
/// ([`run_cancellable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome<R, I> {
    /// The job ran to completion.
    Done(R),
    /// The cancel flag was set before the job body started; the input is
    /// handed back untouched so the caller can degrade or requeue it
    /// explicitly — no item is ever silently dropped.
    Skipped(I),
}

impl<R, I> JobOutcome<R, I> {
    /// The result, when the job ran.
    pub fn done(self) -> Option<R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Skipped(_) => None,
        }
    }
}

/// [`par_map`] with cooperative cancellation: workers observe `cancel`
/// between jobs — the flag is checked on the worker thread immediately
/// before each job body — so once it is set, every not-yet-started job
/// comes back as [`JobOutcome::Skipped`] with its input intact (still in
/// submission order). In-flight jobs are *not* interrupted; they are
/// expected to poll the same flag at their own coarse-grained
/// checkpoints (see `foldic-fault::deadline`).
///
/// The flag is a plain [`AtomicBool`] rather than a token type so this
/// crate stays dependency-free; `CancelToken::flag()` hands one over.
/// The panic contract matches [`par_map`]: every job runs (or is
/// skipped), then the lowest-index panic is re-raised.
pub fn run_cancellable<I, R, F>(
    threads: usize,
    items: Vec<I>,
    cancel: &std::sync::atomic::AtomicBool,
    f: F,
) -> Vec<JobOutcome<R, I>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map(threads, items, |index, item| {
        if cancel.load(Ordering::Relaxed) {
            JobOutcome::Skipped(item)
        } else {
            JobOutcome::Done(f(index, item))
        }
    })
}

/// [`par_map`] variant for fault-tolerant callers: panics are captured
/// per job, so one failing job cannot take down its siblings' results.
pub fn par_map_caught<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<Result<R, JobPanic>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    par_map_caught_stats(threads, items, f).0
}

/// [`par_map_caught`] variant that also returns the run's [`RunStats`].
pub fn par_map_caught_stats<I, R, F>(
    threads: usize,
    items: Vec<I>,
    f: F,
) -> (Vec<Result<R, JobPanic>>, RunStats)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let t0 = Instant::now();
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    let mut stats = RunStats {
        jobs: n,
        threads: workers,
        ..RunStats::default()
    };

    if workers <= 1 {
        let results = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| {
                    let _span = foldic_obs::span!(JOB, idx = i, worker = 0usize);
                    f(i, item)
                }))
                .map_err(|payload| JobPanic { index: i, payload })
            })
            .collect();
        stats.wall = t0.elapsed();
        note_fanout(&stats);
        return (results, stats);
    }

    // Capture the submitting span and run context so jobs on pool
    // workers (whose thread state starts empty) still attribute to and
    // run under them, and the fan-out timestamp so each job span carries
    // its queue wait (`wait_us`) — scheduling delay stays
    // distinguishable from execution time.
    let parent_span = foldic_obs::trace::current_span();
    let parent_run = foldic_obs::trace::current_run();
    let fanout_ns = foldic_obs::trace::now_ns();

    // Per-worker deques, filled round-robin so early jobs start early on
    // every worker. A worker pops its own queue from the front and steals
    // from the back of the longest other queue.
    let queues: Vec<Mutex<VecDeque<(usize, I)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].lock().unwrap().push_back((i, item));
    }

    let results: Mutex<Vec<Option<Result<R, JobPanic>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let steals = AtomicUsize::new(0);
    let peak_depth = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let steals = &steals;
            let peak_depth = &peak_depth;
            let parent_run = &parent_run;
            let f = &f;
            scope.spawn(move || loop {
                // own queue first
                let mut job = {
                    let mut q = queues[me].lock().unwrap();
                    let depth = q.len();
                    peak_depth.fetch_max(depth, Ordering::Relaxed);
                    q.pop_front()
                };
                // then steal from the most loaded victim
                if job.is_none() {
                    let victim = (0..workers)
                        .filter(|&w| w != me)
                        .max_by_key(|&w| queues[w].lock().unwrap().len());
                    if let Some(v) = victim {
                        job = queues[v].lock().unwrap().pop_back();
                        if let Some((idx, _)) = &job {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if foldic_obs::trace::is_enabled() {
                                foldic_obs::trace::instant(
                                    "steal",
                                    vec![
                                        ("worker", me.into()),
                                        ("victim", v.into()),
                                        ("idx", (*idx).into()),
                                    ],
                                );
                            }
                        }
                    }
                }
                let Some((idx, item)) = job else {
                    // Every queue was empty at the moment we looked. Jobs
                    // cannot spawn jobs, so the set is fixed and emptiness
                    // is terminal for this worker.
                    break;
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    foldic_obs::trace::run_with_parent(parent_span, || {
                        let _run = foldic_obs::trace::enter_run(parent_run.clone());
                        let _span = foldic_obs::span!(
                            JOB,
                            idx = idx,
                            worker = me,
                            wait_us = foldic_obs::trace::now_ns().saturating_sub(fanout_ns) / 1_000,
                        );
                        f(idx, item)
                    })
                }))
                .map_err(|payload| JobPanic {
                    index: idx,
                    payload,
                });
                results.lock().unwrap()[idx] = Some(outcome);
            });
        }
    });

    stats.steals = steals.into_inner();
    stats.peak_queue_depth = peak_depth.into_inner();
    stats.wall = t0.elapsed();
    let results = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job ran exactly once"))
        .collect();
    note_fanout(&stats);
    (results, stats)
}

/// Records one pool run as a `fanout` instant (no-op while tracing is
/// off).
fn note_fanout(stats: &RunStats) {
    if foldic_obs::trace::is_enabled() {
        foldic_obs::trace::instant(
            FANOUT,
            vec![
                ("jobs", stats.jobs.into()),
                ("threads", stats.threads.into()),
                ("steals", stats.steals.into()),
                ("peak_queue_depth", stats.peak_queue_depth.into()),
            ],
        );
    }
}

/// Maps `f` over mutable borrows in parallel.
///
/// Convenience wrapper for the common "run the flow on every block in
/// place" pattern: distinct `&mut T` are disjoint, so this is plain safe
/// [`par_map`] over the borrow vector.
pub fn par_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map(threads, items.iter_mut().collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_submission_order() {
        let out = par_map(4, (0..64).collect::<Vec<i64>>(), |i, x| {
            assert_eq!(i as i64, x);
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..200).collect();
        let f = |_: usize, x: u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = par_map(1, items.clone(), f);
        let parallel = par_map(8, items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_count_jobs() {
        let (_, stats) = par_map_stats(4, (0..40).collect::<Vec<usize>>(), |_, x| x);
        assert_eq!(stats.jobs, 40);
        assert_eq!(stats.threads, 4);
        assert!(stats.peak_queue_depth >= 1);
    }

    #[test]
    fn par_map_mut_mutates_in_place() {
        let mut v: Vec<usize> = (0..32).collect();
        let doubled = par_map_mut(4, &mut v, |_, x| {
            *x *= 2;
            *x
        });
        assert_eq!(v, (0..32).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(doubled, v);
    }

    #[test]
    fn caught_map_records_every_outcome() {
        for threads in [1, 4] {
            let out = par_map_caught(threads, (0..16).collect::<Vec<usize>>(), |_, x| {
                if x % 5 == 3 {
                    panic!("job {x} failed");
                }
                x * 10
            });
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i, "threads={threads}");
                    assert_eq!(p.message(), format!("job {i} failed"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_lowest_index_panic() {
        for threads in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, (0..32).collect::<Vec<usize>>(), |_, x| {
                    if x == 7 || x == 21 {
                        panic!("boom {x}");
                    }
                    x
                })
            }))
            .unwrap_err();
            let msg = caught.downcast_ref::<String>().cloned().unwrap();
            assert_eq!(msg, "boom 7", "threads={threads}: deterministic re-raise");
        }
    }

    #[test]
    fn run_caught_returns_value_or_payload() {
        assert_eq!(run_caught(|| 5).unwrap(), 5);
        let p = run_caught(|| -> u8 { panic!("solo") }).unwrap_err();
        assert_eq!(p.message(), "solo");
        // typed payloads survive for downcast by the caller
        let p = run_caught(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(p.payload.downcast_ref::<usize>(), Some(&42));
        assert_eq!(p.message(), "non-string panic payload");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(4, Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pre_cancelled_run_skips_every_job_in_order() {
        use std::sync::atomic::AtomicBool;
        for threads in [1, 4] {
            let cancel = AtomicBool::new(true);
            let out = run_cancellable(threads, (0..12).collect::<Vec<usize>>(), &cancel, |_, x| {
                x * 2
            });
            assert_eq!(out.len(), 12, "threads={threads}");
            for (i, o) in out.into_iter().enumerate() {
                assert_eq!(o, JobOutcome::Skipped(i), "threads={threads}");
            }
        }
    }

    #[test]
    fn cancellation_mid_run_skips_the_remaining_jobs() {
        use std::sync::atomic::AtomicBool;
        // inline (threads=1) runs jobs strictly in order, so cancelling
        // inside job 2 deterministically skips jobs 3 and up
        let cancel = AtomicBool::new(false);
        let out = run_cancellable(1, (0..8).collect::<Vec<usize>>(), &cancel, |i, x| {
            if i == 2 {
                cancel.store(true, Ordering::Relaxed);
            }
            x * 10
        });
        for (i, o) in out.into_iter().enumerate() {
            if i <= 2 {
                assert_eq!(o, JobOutcome::Done(i * 10));
                assert_eq!(o.done(), Some(i * 10));
            } else {
                assert_eq!(o, JobOutcome::Skipped(i));
                assert_eq!(o.done(), None);
            }
        }
    }

    #[test]
    fn uncancelled_run_matches_par_map() {
        use std::sync::atomic::AtomicBool;
        let cancel = AtomicBool::new(false);
        let out = run_cancellable(4, (0..32).collect::<Vec<u64>>(), &cancel, |_, x| x + 1);
        let expect: Vec<JobOutcome<u64, u64>> = (0..32).map(|x| JobOutcome::Done(x + 1)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pool_jobs_attribute_to_the_submitting_span() {
        use foldic_obs::trace;
        trace::set_enabled(true);
        let submit_id = {
            let submit = foldic_obs::span!("fanout_test");
            let id = submit.id().unwrap();
            let out = par_map(4, (0..16).collect::<Vec<usize>>(), |_, x| x * 3);
            assert_eq!(out, (0..16).map(|x| x * 3).collect::<Vec<_>>());
            id
        };
        trace::set_enabled(false);
        let events = trace::take_events();
        // Other tests may run par_map concurrently; only count jobs that
        // claim *our* span as parent.
        let mine: Vec<_> = events
            .iter()
            .filter(|e| {
                e.name == "job" && e.kind == trace::EventKind::Begin && e.parent == Some(submit_id)
            })
            .collect();
        assert_eq!(mine.len(), 16, "every pool job inherits the fan-out span");
        // jobs really ran on pool workers, not the submitting thread
        let submit_tid = events
            .iter()
            .find(|e| e.name == "fanout_test")
            .map(|e| e.tid)
            .unwrap();
        assert!(mine.iter().all(|e| e.tid != submit_tid));
    }

    #[test]
    fn pool_jobs_inherit_the_submitting_run_context() {
        use foldic_obs::trace::{current_run, enter_run};
        use std::sync::Arc;
        let run_tag = |_: usize, _: u32| {
            let tid = std::thread::current().id();
            let tag = current_run().and_then(|r| r.downcast_ref::<u32>().copied());
            (tid, tag)
        };
        let outer = std::thread::current().id();
        let seen = {
            let _run = enter_run(Some(Arc::new(7u32)));
            par_map(4, vec![0u32; 16], run_tag)
        };
        assert!(seen.iter().all(|(_, tag)| *tag == Some(7)), "{seen:?}");
        assert!(
            seen.iter().all(|(tid, _)| *tid != outer),
            "jobs ran on workers"
        );
        // the guard restored the empty slot, and workers leave nothing behind
        assert!(current_run().is_none());
        assert!(par_map(2, vec![0u32; 4], run_tag)
            .iter()
            .all(|(_, t)| t.is_none()));
    }
}
