//! End-to-end deadline gates on the `repro` binary: the acceptance
//! scenario (a stage budget converts an injected stall into a
//! deterministic timed-out degrade, thread-invariantly), graceful
//! degradation under an overall `--deadline`, pay-for-use manifest
//! layout, and usage-error rejection of malformed deadline flags.

use foldic_obs::manifest::RunManifest;
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

/// The acceptance scenario: `route:ccx:slow` stalls ccx's route stage on
/// every attempt and `--stage-timeout route=0.1` bounds it, so ccx times
/// out, retries once, times out again and degrades — deterministically,
/// in each of table2's three full-chip runs — while every other block
/// (whose route finishes organically well inside the budget) is
/// untouched. The whole report must not depend on `--threads`.
#[test]
fn stage_timeout_degrades_stalled_block_and_stays_thread_invariant() {
    let scratch = Scratch::new("deadline-gate-stage-timeout");
    let m1 = scratch.path("timed-t1.json");
    let m4 = scratch.path("timed-t4.json");
    let base = [
        "table2",
        "--size",
        "tiny",
        "--faults",
        "route:ccx:slow",
        "--stage-timeout",
        "route=0.1",
        "--retries",
        "1",
    ];
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

    // the footer names the timeout, once per run scope
    for out in [&out1, &out4] {
        assert_eq!(
            out.matches("ccx: route degraded after 2 attempts (timed out)")
                .count(),
            3,
            "ccx times out in all three table2 runs:\n{out}"
        );
        assert!(
            out.contains("timeouts: 3 run(s) hit a wall-clock budget"),
            "summary line missing:\n{out}"
        );
    }

    // non-timing manifest content is byte-identical across thread counts
    let s1 = stripped(&m1);
    assert_eq!(
        s1,
        stripped(&m4),
        "timed-out manifests must not depend on --threads"
    );

    // provenance lands in `timeouts`, not `faults`, with the canonical
    // stage-budget spec in config
    let m = RunManifest::parse(&s1).unwrap();
    assert_eq!(
        m.config.get("stage_timeouts").map(String::as_str),
        Some("route=0.1")
    );
    assert!(
        m.faults.is_empty(),
        "injected slow is a timeout, not a fault"
    );
    assert_eq!(m.timeouts.len(), 3);
    let mut scopes: Vec<&str> = m.timeouts.iter().map(|f| f.scope.as_str()).collect();
    scopes.sort_unstable();
    assert_eq!(scopes, ["2d", "core_cache", "core_core"]);
    for f in &m.timeouts {
        assert_eq!(f.block, "ccx");
        assert_eq!(f.stage, "route");
        assert_eq!(f.attempts, 2);
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
        "cross-thread timed-out compare is clean"
    );
}

/// An overall `--deadline` degrades instead of hanging: with every
/// block's route stage stalled, the run still exits 0 within a bounded
/// wall clock, records what it had to give up, and says so on stdout.
/// (Which blocks degrade in-flight vs. skipped depends on scheduling, so
/// this gate checks outcome shape, not byte identity.)
#[test]
fn overall_deadline_degrades_gracefully_instead_of_hanging() {
    let scratch = Scratch::new("deadline-gate-overall");
    let m = scratch.path("overall.json");
    let out = run_ok(&[
        "table3",
        "--size",
        "tiny",
        "--threads",
        "2",
        "--faults",
        "route:*:slow",
        "--retries",
        "0",
        "--deadline",
        "2",
        "--manifest",
        m.to_str().unwrap(),
    ]);
    assert!(
        out.contains("timeouts:"),
        "stalled run must report timeouts:\n{out}"
    );
    let m = RunManifest::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert_eq!(m.config.get("deadline").map(String::as_str), Some("2"));
    assert!(
        !m.timeouts.is_empty(),
        "stalled blocks must land in the timeouts section"
    );
    for f in &m.timeouts {
        assert_eq!(f.disposition, "degraded");
    }
}

/// Pay-for-use: a run without deadline flags writes a manifest with no
/// `timeouts` key and no deadline config entries — byte-compatible with
/// manifests from before the deadline layer existed.
#[test]
fn deadline_free_manifest_has_no_timeout_keys() {
    let scratch = Scratch::new("deadline-gate-noflags");
    let m = scratch.path("noflags.json");
    run_ok(&[
        "table3",
        "--size",
        "tiny",
        "--manifest",
        m.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&m).unwrap();
    assert!(
        !text.contains("\"timeouts\""),
        "timeouts key must be absent"
    );
    let m = RunManifest::parse(&text).unwrap();
    assert!(!m.config.contains_key("deadline"));
    assert!(!m.config.contains_key("stage_timeouts"));
}

/// Malformed deadline flags are usage errors (exit 2 with a message),
/// caught before any computation starts.
#[test]
fn malformed_deadline_flags_are_usage_errors() {
    let cases: &[&[&str]] = &[
        &["table3", "--deadline", "0"],
        &["table3", "--deadline", "-1"],
        &["table3", "--deadline", "soon"],
        &["table3", "--deadline", "inf"],
        &["table3", "--deadline", "1", "--deadline", "2"],
        &["table3", "--stage-timeout", "route"],
        &["table3", "--stage-timeout", "route=abc"],
        &["table3", "--stage-timeout", "warp=1"],
        &["table3", "--stage-timeout", "route=-0.5"],
        &["table3", "--stage-timeout", "route=1,route=2"],
        &["table3", "--stage-timeout", ","],
    ];
    for args in cases {
        let out = repro().args(*args).output().expect("repro runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must be a usage error, stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: repro"),
            "{args:?} must print usage, stderr:\n{err}"
        );
    }
}
