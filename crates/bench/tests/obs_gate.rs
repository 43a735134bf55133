//! End-to-end observability gates on the `repro` binary: manifest
//! determinism across thread counts, Chrome-trace validity, and the
//! `repro compare` exit-code contract.

use foldic_obs::json::Json;
use foldic_obs::manifest::RunManifest;
use foldic_obs::metrics::Metric;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

mod common;
use common::Scratch;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_ok(args: &[&str]) {
    let out = repro().args(args).output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn stripped(path: &Path) -> String {
    let mut m = RunManifest::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    m.strip_timing();
    m.to_json_text()
}

/// `(key, calls, iters)` of each row of one experiment's stage table.
type StageCounts = Vec<(String, f64, f64)>;

/// The thread-invariant part of each experiment's `timing` table.
fn stage_counts(path: &Path) -> BTreeMap<String, StageCounts> {
    let m = RunManifest::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let experiments = m.timing.get("experiments").and_then(Json::as_obj).unwrap();
    experiments
        .iter()
        .map(|(name, timing)| {
            let stages = timing.get("stages").and_then(Json::as_obj).unwrap();
            let rows = stages
                .iter()
                .map(|(key, row)| {
                    let num = |field: &str| row.get(field).and_then(Json::as_f64).unwrap();
                    (key.clone(), num("calls"), num("iters"))
                })
                .collect();
            (name.clone(), rows)
        })
        .collect()
}

/// The acceptance gate of the PR: `table2 table3 fig2 --size tiny`
/// manifests are byte-identical across `--threads 1` and `--threads 4`
/// once the `timing` section (wall clocks, steal counts, thread count)
/// is stripped, and that section's stage keys, calls and iterations are
/// equal too. The Chrome trace is balanced and monotonic, and `repro
/// compare` exits 0 on the pair. One test so the two expensive runs
/// happen exactly once.
#[test]
fn manifests_are_thread_count_invariant_and_trace_is_valid() {
    let scratch = Scratch::new("obs-gate-manifests");
    let m1 = scratch.path("table2-t1.json");
    let m4 = scratch.path("table2-t4.json");
    let trace = scratch.path("table2-t1-trace.json");
    run_ok(&[
        "table2",
        "table3",
        "fig2",
        "--size",
        "tiny",
        "--threads",
        "1",
        "--manifest",
        m1.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    run_ok(&[
        "table2",
        "table3",
        "fig2",
        "--size",
        "tiny",
        "--threads",
        "4",
        "--manifest",
        m4.to_str().unwrap(),
    ]);

    // --- determinism guard: non-timing content is byte-identical ---
    let s1 = stripped(&m1);
    let s4 = stripped(&m4);
    assert_eq!(s1, s4, "manifest content must not depend on --threads");
    // sanity: the manifests carry real content, not empty sections
    let m = RunManifest::parse(&s1).unwrap();
    assert!(m.results.contains_key("table2"));
    assert!(m.metrics.counter("sta.runs") > 0);
    assert!(m.metrics.counter("place.runs") > 0);
    assert!(m.metrics.counter("opt.rounds") > 0);
    assert!(m.metrics.histogram("route.net_length_um").is_some());

    // --- stage tables: same keys, calls and iterations at any --threads ---
    let counts = stage_counts(&m1);
    assert_eq!(counts, stage_counts(&m4), "stage rows depend on --threads");
    let experiments: Vec<&str> = counts.keys().map(String::as_str).collect();
    assert_eq!(experiments, ["fig2", "table2", "table3"]);
    let fig2 = &counts["fig2"];
    assert!(
        fig2.iter()
            .any(|(key, calls, _)| key.rsplit('/').next() == Some("partition") && *calls > 0.0),
        "fig2's folds have a partition row: {fig2:?}"
    );

    // --- compare contract: 0 across thread counts, 1 on perturbation ---
    let status = repro()
        .args(["compare", m1.to_str().unwrap(), m4.to_str().unwrap()])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "cross-thread self-compare is clean");

    let mut bad = RunManifest::parse(&std::fs::read_to_string(&m1).unwrap()).unwrap();
    let (name, old) = bad
        .metrics
        .metrics
        .iter()
        .find_map(|(k, v)| match v {
            Metric::Gauge(g) => Some((k.clone(), *g)),
            _ => None,
        })
        .expect("manifest has a gauge to perturb");
    bad.metrics.metrics.insert(name, Metric::Gauge(old * 1.1));
    let bad_path = scratch.path("table2-perturbed.json");
    std::fs::write(&bad_path, bad.to_json_text()).unwrap();
    let status = repro()
        .args(["compare", m1.to_str().unwrap(), bad_path.to_str().unwrap()])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1), "10% gauge drift must fail the gate");

    // --- Chrome-trace validity: parses, balanced B/E, monotonic ts ---
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "table2 must emit trace events");
    let mut depth = 0i64;
    let mut last_ts = f64::NEG_INFINITY;
    for e in events {
        match e.get("ph").unwrap().as_str().unwrap() {
            "B" => depth += 1,
            "E" => depth -= 1,
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        assert!(depth >= 0, "E before matching B");
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        assert!(ts >= last_ts, "timestamps must be monotonic");
        last_ts = ts;
    }
    assert_eq!(depth, 0, "unbalanced B/E pairs");
    // flow spans actually made it into the trace
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for expected in [
        "fullchip",
        "block_flows",
        "block_flow",
        "place",
        "opt",
        "sta",
        "job",
    ] {
        assert!(names.contains(&expected), "trace misses span {expected:?}");
    }
}

/// `(key, calls, iters)` of every row `--profile` prints.
fn profile_rows(stdout: &str) -> Vec<(String, String, String)> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("-- profile:"))
        .skip(2) // the banner and the column header
        .take_while(|l| !l.starts_with("pool:"))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols[0].to_owned(), cols[1].to_owned(), cols[4].to_owned())
        })
        .collect()
}

/// Run alone, `table3` fans its block flows out over the pool itself:
/// its profile rows must not depend on which threads ran them.
#[test]
fn profile_rows_are_thread_count_invariant() {
    let rows = |threads: &str| {
        let out = repro()
            .args([
                "table3",
                "--size",
                "tiny",
                "--threads",
                threads,
                "--profile",
            ])
            .output()
            .expect("repro runs");
        assert!(out.status.success());
        profile_rows(&String::from_utf8_lossy(&out.stdout))
    };
    let serial = rows("1");
    assert!(
        serial.iter().any(|(key, _, _)| key.ends_with("/place")),
        "{serial:?}"
    );
    assert_eq!(serial, rows("4"));
}

#[test]
fn duplicate_and_conflicting_output_flags_are_usage_errors() {
    let out = repro()
        .args(["table1", "--trace", "a.json", "--trace", "b.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate --trace"));

    let out = repro()
        .args(["table1", "--trace", "same.json", "--manifest", "same.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("same path"));
}

#[test]
fn compare_usage_errors_exit_2() {
    let out = repro().args(["compare", "only-one.json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let scratch = Scratch::new("obs-gate-compare-usage");
    let missing = scratch.path("does-not-exist.json");
    let out = repro()
        .args([
            "compare",
            missing.to_str().unwrap(),
            missing.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
