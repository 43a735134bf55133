//! End-to-end gate for resource governance: per-job memory budgets
//! through [`BenchRunner::run_budgeted`] and cost-estimate admission
//! through the serve scheduler, against the real experiment flow.
//!
//! Every budgeted run carries its policy in its own run context and
//! measures its own threads, so the tests run in parallel.

use foldic_bench::serve::BenchRunner;
use foldic_obs::json::Json;
use foldic_obs::manifest::RunManifest;
use foldic_serve::queue::{JobState, Scheduler, SchedulerConfig, StudyRunner, Submission};
use foldic_serve::JobSpec;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn spec(names: &[&str], seed: u64) -> JobSpec {
    JobSpec {
        experiments: names.iter().map(|s| (*s).to_owned()).collect(),
        size: "tiny".to_owned(),
        seed: Some(seed),
        ..JobSpec::default()
    }
}

/// Manifest body with the `resources` section dropped — peak figures
/// sit outside the layer's determinism boundary (they depend on what
/// the thread freed during the window), so determinism assertions
/// compare everything else.
fn modulo_resources(body: &str) -> Json {
    let mut doc = Json::parse(body).expect("manifest body parses");
    if let Some(obj) = doc.as_obj_mut() {
        obj.remove("resources");
    }
    doc
}

#[test]
fn tight_budget_degrades_with_provenance_and_thread_invariance() {
    let runner = BenchRunner;
    // 64 KiB is far below every tiny block's working set even after the
    // retry ladder triples it, so every cluster block must degrade to
    // the analytical model — and the job must still succeed.
    let tight = Some(64 << 10);
    let body_t1 = runner
        .run_budgeted(&spec(&["table2"], 7), tight)
        .0
        .expect("tight budget degrades, never fails the job");
    let manifest = RunManifest::parse(&body_t1).expect("body is a manifest");
    assert!(
        !manifest.mem_exceeded.is_empty(),
        "a tight budget must surface mem_exceeded provenance"
    );
    assert!(
        manifest
            .mem_exceeded
            .iter()
            .any(|e| e.disposition == "degraded"),
        "64k cannot be recovered into; some block must degrade"
    );
    assert!(
        !manifest.resources.is_empty(),
        "budgeted runs record per-stage peak provenance"
    );
    assert!(
        manifest.results.contains_key("table2"),
        "degraded blocks still yield a result"
    );

    // Breach decisions are per-thread net deltas, so the same blocks
    // degrade whether the pool has 1 worker or 4 and the body matches
    // modulo the peak figures.
    let mut wide = spec(&["table2"], 7);
    wide.threads = 4;
    let body_t4 = runner
        .run_budgeted(&wide, tight)
        .0
        .expect("threads do not change the outcome");
    // config records only size/seed/cluster/experiments, so the two
    // bodies are comparable directly
    assert_eq!(
        modulo_resources(&body_t1),
        modulo_resources(&body_t4),
        "tight-budget degradation must be thread-invariant"
    );
}

#[test]
fn generous_budget_changes_nothing_but_adds_provenance() {
    let runner = BenchRunner;
    let plain = runner.run(&spec(&["table2"], 7)).expect("unbudgeted run");
    let budgeted = runner
        .run_budgeted(&spec(&["table2"], 7), Some(64 << 20))
        .0
        .expect("generous budget");
    let plain_manifest = RunManifest::parse(&plain).expect("plain manifest");
    let manifest = RunManifest::parse(&budgeted).expect("budgeted manifest");
    assert!(
        manifest.mem_exceeded.is_empty(),
        "64M covers every tiny block with two orders of magnitude to spare"
    );
    assert!(
        !manifest.resources.is_empty(),
        "peaks are recorded even when nothing breaches"
    );
    assert_eq!(
        plain_manifest.results, manifest.results,
        "an unbreached budget must not perturb results"
    );
    // pay-for-use in the other direction: the unbudgeted body carries
    // neither section
    assert!(plain_manifest.mem_exceeded.is_empty() && plain_manifest.resources.is_empty());
    assert!(!plain.contains("resources") && !plain.contains("mem_exceeded"));
}

#[test]
fn scheduler_admission_prices_sheds_and_budgets_real_jobs() {
    // 5 MiB admits one single-study tiny job (~4 MiB estimate) and
    // classifies a two-study spec oversized — the same geometry the
    // overload harness uses against the daemon.
    let limit = 5 << 20;
    let sched = Scheduler::new(
        Arc::new(BenchRunner),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 2,
            mem_limit: Some(limit),
        },
    );

    // The oversized job reserves the whole ledger at admission...
    let over = match sched.submit(spec(&["table2", "fig2"], 0xF01D)) {
        Submission::Queued { id } => id,
        other => panic!("oversized spec must be admitted, got {other:?}"),
    };
    // ...so a fitting job right behind it is shed with a usable hint.
    match sched.submit(spec(&["table2"], 1)) {
        Submission::Shed { retry_after_secs } => {
            assert!(retry_after_secs >= 1, "shed must carry a backoff hint");
        }
        other => panic!("expected Shed while the ledger is full, got {other:?}"),
    }

    assert_eq!(sched.wait_terminal(over, WAIT), Some(JobState::Done));
    let status = sched.status(over).expect("oversized job status");
    assert!(
        status.cache_key.is_none(),
        "budget-degraded bodies must stay out of the content cache"
    );
    let body = status.body.expect("oversized job body");
    let manifest = RunManifest::parse(&body).expect("oversized body is a manifest");
    assert!(
        !manifest.resources.is_empty(),
        "the derived budget must leave resources provenance in the body"
    );

    // With the ledger drained the same fitting spec is admitted, runs
    // unbudgeted, and its body carries no resource sections.
    let fit = match sched.submit(spec(&["table2"], 1)) {
        Submission::Queued { id } => id,
        other => panic!("fitting spec must be admitted after drain, got {other:?}"),
    };
    assert_eq!(sched.wait_terminal(fit, WAIT), Some(JobState::Done));
    let fit_body = sched
        .status(fit)
        .expect("fitting status")
        .body
        .expect("body");
    assert!(
        !fit_body.contains("resources") && !fit_body.contains("mem_exceeded"),
        "fitting jobs run unbudgeted and pay nothing"
    );

    // The ledger and counters line up with what we just observed.
    let stats = sched.stats_json();
    let resources = stats.get("resources").expect("stats resources section");
    let num = |key: &str| resources.get(key).and_then(Json::as_f64).map(|n| n as u64);
    assert_eq!(num("limit_bytes"), Some(limit));
    assert_eq!(num("oversized"), Some(1));
    assert_eq!(num("mem_shed"), Some(1));
    assert_eq!(num("reserved_bytes"), Some(0), "reservations must drain");
    assert!(num("reserved_peak_bytes") >= Some(limit));
    sched.shutdown();
}

#[test]
fn unlimited_scheduler_stats_stay_byte_identical() {
    // Pay-for-use at the daemon surface: without --mem-limit, /stats
    // must not grow a resources section and /metrics must not emit the
    // mem families.
    let sched = Scheduler::new(
        Arc::new(BenchRunner),
        SchedulerConfig {
            queue_capacity: 8,
            workers: 1,
            mem_limit: None,
        },
    );
    let id = match sched.submit(spec(&["table1"], 2)) {
        Submission::Queued { id } => id,
        other => panic!("expected Queued, got {other:?}"),
    };
    assert_eq!(sched.wait_terminal(id, WAIT), Some(JobState::Done));
    assert!(
        sched.stats_json().get("resources").is_none(),
        "no limit, no resources section"
    );
    let metrics = sched.metrics_text();
    assert!(
        !metrics.contains("foldic_serve_mem_") && !metrics.contains("foldic_serve_jobs_oversized"),
        "no limit, no mem metric families"
    );
    sched.shutdown();
}
