//! End-to-end fault-tolerance gates on the `repro` binary: the
//! acceptance scenario (an injected route-stage panic in one block must
//! not kill the run, must degrade exactly that block, and must leave the
//! report byte-identical across thread counts), the `--retries` knob,
//! and checkpoint/resume equivalence after a simulated kill.

use foldic_obs::manifest::RunManifest;
use foldic_obs::metrics::Metric;
use std::path::Path;
use std::process::Command;

mod common;
use common::Scratch;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs repro, asserting success, and returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = repro().args(args).output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn stripped(path: &Path) -> String {
    let mut m = RunManifest::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    m.strip_timing();
    m.to_json_text()
}

/// The acceptance scenario: `route:ccx:panic` fires on every attempt, so
/// `ccx` exhausts its retries and degrades in each of table2's three
/// full-chip runs — and nothing else changes: exit code 0, every other
/// block intact, and the whole report (tables, footers, manifest)
/// byte-identical between `--threads 1` and `--threads 4`.
#[test]
fn injected_route_panic_degrades_one_block_and_stays_thread_invariant() {
    let scratch = Scratch::new("fault-gate-route-panic");
    let m1 = scratch.path("faulted-t1.json");
    let m4 = scratch.path("faulted-t4.json");
    let base = ["table2", "--size", "tiny", "--faults", "route:ccx:panic"];
    let out1 = run_ok(
        &[
            &base[..],
            &["--threads", "1", "--manifest", m1.to_str().unwrap()],
        ]
        .concat(),
    );
    let out4 = run_ok(
        &[
            &base[..],
            &["--threads", "4", "--manifest", m4.to_str().unwrap()],
        ]
        .concat(),
    );

    // the report body carries the fault footer, once per run scope
    for out in [&out1, &out4] {
        assert!(out.contains("-- faults --"), "fault footer missing");
        assert_eq!(
            out.matches("ccx: route degraded after 3 attempts").count(),
            3,
            "ccx degrades in all three table2 runs"
        );
    }

    // non-timing manifest content is byte-identical across thread counts
    let s1 = stripped(&m1);
    assert_eq!(
        s1,
        stripped(&m4),
        "faulted manifests must not depend on --threads"
    );

    // the manifest records the provenance: scope, stage, attempts, outcome
    let m = RunManifest::parse(&s1).unwrap();
    assert_eq!(
        m.config.get("faults").map(String::as_str),
        Some("route:ccx:panic")
    );
    assert_eq!(m.faults.len(), 3);
    let mut scopes: Vec<&str> = m.faults.iter().map(|f| f.scope.as_str()).collect();
    scopes.sort_unstable();
    assert_eq!(scopes, ["2d", "core_cache", "core_core"]);
    for f in &m.faults {
        assert_eq!(f.block, "ccx");
        assert_eq!(f.stage, "route");
        assert_eq!(f.attempts, 3);
        assert_eq!(f.disposition, "degraded");
    }

    // and the compare gate agrees the two runs match
    let status = repro()
        .args(["compare", m1.to_str().unwrap(), m4.to_str().unwrap()])
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(0),
        "cross-thread faulted compare is clean"
    );
}

/// Observability bookkeeping is charged to no job. The metrics registry
/// and the trace buffers allocate (key inserts, histogram buckets, shard
/// growth, span attributes) on whichever job thread records first, and
/// memory budgets used to charge that job, so `--manifest` could flip a
/// block flow sitting near a retry threshold. At a budget where some
/// block flows recover or degrade and the rest run clean, `table2` must
/// print the same budget events with and without `--manifest`, on 1
/// thread and on 4.
#[test]
fn budget_events_do_not_depend_on_manifest_or_threads() {
    let scratch = Scratch::new("fault-gate-budget-events");
    let events = |threads: &str, manifest: Option<&str>| -> Vec<String> {
        let path = manifest.map(|name| scratch.path(name).to_str().unwrap().to_owned());
        let mut args = vec!["table2", "--size", "tiny", "--mem-budget", "246k"];
        args.extend(["--threads", threads]);
        if let Some(path) = &path {
            args.extend(["--manifest", path]);
        }
        run_ok(&args)
            .lines()
            .filter(|l| l.starts_with("!! "))
            .map(str::to_owned)
            .collect()
    };
    let base = events("1", None);
    assert!(
        base.iter().any(|l| l.contains("degraded after")),
        "246k must degrade some block flow: {base:#?}"
    );
    assert!(
        base.iter().any(|l| l.contains("recovered after")),
        "246k must let some block flow recover: {base:#?}"
    );
    assert!(
        base.len() < 46,
        "246k must leave most block flows clean: {} events",
        base.len()
    );
    for (threads, manifest) in [
        ("1", Some("budget-t1.json")),
        ("4", None),
        ("4", Some("budget-t4.json")),
    ] {
        assert_eq!(
            events(threads, manifest),
            base,
            "--threads {threads}, manifest {manifest:?}"
        );
    }
}

/// `--retries 0` disables retrying: a transient fault that the first
/// retry would have recovered degrades the block instead, after exactly
/// one attempt.
#[test]
fn retries_zero_degrades_without_a_second_attempt() {
    let scratch = Scratch::new("fault-gate-retries0");
    let m = scratch.path("retries0.json");
    run_ok(&[
        "table3",
        "--size",
        "tiny",
        "--faults",
        "route:ccx:error:1",
        "--retries",
        "0",
        "--manifest",
        m.to_str().unwrap(),
    ]);
    let m = RunManifest::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert_eq!(m.config.get("retries").map(String::as_str), Some("0"));
    assert_eq!(m.faults.len(), 1);
    assert_eq!(m.faults[0].block, "ccx");
    assert_eq!(m.faults[0].attempts, 1);
    assert_eq!(m.faults[0].disposition, "degraded");
}

/// Interrupt-and-resume: a run checkpoints every finished block; after a
/// simulated kill (torn tail chopped into the checkpoint), a resumed run
/// replays the intact blocks and produces a byte-identical manifest.
#[test]
fn resumed_run_after_torn_checkpoint_is_byte_identical() {
    let scratch = Scratch::new("fault-gate-resume");
    let ckpt = scratch.path("resume.jsonl");
    let ma = scratch.path("resume-a.json");
    let mb = scratch.path("resume-b.json");
    run_ok(&[
        "table3",
        "--size",
        "tiny",
        "--resume",
        ckpt.to_str().unwrap(),
        "--manifest",
        ma.to_str().unwrap(),
    ]);

    // simulate a kill mid-append: chop into the checkpoint's last entry
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() - 40]).unwrap();

    let out = run_ok(&[
        "table3",
        "--size",
        "tiny",
        "--threads",
        "2",
        "--resume",
        ckpt.to_str().unwrap(),
        "--manifest",
        mb.to_str().unwrap(),
    ]);
    assert!(
        out.contains("resume:"),
        "resumed run reports replayed blocks"
    );
    assert!(
        out.contains("checkpoint:"),
        "resumed run reports store stats"
    );

    // Result digests, gauges and fault records must match bit-exactly.
    // Work counters and histograms legitimately shrink on resume —
    // replayed blocks skip their flow stages — so they are not compared.
    let load = |p: &Path| RunManifest::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
    let a = load(&ma);
    let b = load(&mb);
    assert_eq!(a.results, b.results, "resume must not change any result");
    assert_eq!(a.faults, b.faults, "resume must not change fault records");
    let gauges = |m: &RunManifest| -> Vec<(String, u64)> {
        m.metrics
            .metrics
            .iter()
            .filter_map(|(k, v)| match v {
                Metric::Gauge(g) => Some((k.clone(), g.to_bits())),
                _ => None,
            })
            .collect()
    };
    let ga = gauges(&a);
    assert!(!ga.is_empty(), "manifest carries fullchip gauges");
    assert_eq!(ga, gauges(&b), "resume must not move a gauge by one bit");
}
