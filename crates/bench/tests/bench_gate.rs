//! CI gate for `repro bench`: the run must exit 0 and emit a well-formed
//! `foldic-kernel-bench/1` document with every expected kernel. Wall-time
//! thresholds are deliberately absent — the CI container has one shared
//! core, so only *completing with valid output* is gated; the absolute
//! numbers live in `BENCH_kernels.json` as a trajectory record.

use foldic_obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("foldic-bench-gate-{}-{name}", std::process::id()));
    p
}

#[test]
fn bench_json_is_well_formed_and_complete() {
    let out = tmp("kernels.json");
    let _ = std::fs::remove_file(&out);
    let status = repro()
        .args(["bench", "--json"])
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro bench exited {status}");
    let text = std::fs::read_to_string(&out).expect("bench JSON written");
    let json = Json::parse(&text).expect("bench JSON parses");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("foldic-kernel-bench/1")
    );
    let kernels = json
        .get("kernels")
        .and_then(Json::as_obj)
        .expect("kernels object");
    for name in [
        "pack_n14",
        "pack_n46",
        "pack_n128",
        "sa_temp_step_n46",
        "quadratic_solve_l2t",
        "fm_bipartition_l2t",
        "fm_fubs_spc0",
        "wiring_analyze_l2t",
        "sta_rounds_l2t",
        "t2gen_tiny",
        "study_fig2_tiny",
        "db_load_tiny",
    ] {
        let k = kernels
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        for field in ["median_ms", "min_ms", "max_ms"] {
            let v = k
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}.{field} missing"));
            assert!(v > 0.0 && v.is_finite(), "{name}.{field} = {v}");
        }
        let iters = k.get("iters").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(iters >= 1.0, "{name}.iters = {iters}");
        let samples = k.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(samples >= 1.0, "{name}.samples = {samples}");
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn bench_filter_narrows_and_unknown_filter_is_not_an_error() {
    let out = tmp("filtered.json");
    let _ = std::fs::remove_file(&out);
    // a filter selecting only the packing kernels
    let status = repro()
        .args(["bench", "pack_n", "--json"])
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success());
    let json = Json::parse(&std::fs::read_to_string(&out).expect("written")).expect("parses");
    let kernels = json.get("kernels").and_then(Json::as_obj).expect("kernels");
    assert_eq!(kernels.len(), 3, "pack_n matches exactly the pack kernels");
    assert!(kernels.keys().all(|k| k.starts_with("pack_n")));
    // a filter matching nothing still succeeds with an empty map
    let status = repro()
        .args(["bench", "no-such-kernel", "--json"])
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success());
    let json = Json::parse(&std::fs::read_to_string(&out).expect("written")).expect("parses");
    assert_eq!(
        json.get("kernels").and_then(Json::as_obj).map(|m| m.len()),
        Some(0)
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn bench_usage_errors_exit_2() {
    for bad in [
        vec!["bench", "--json"],
        vec!["bench", "a", "b"],
        vec!["bench", "--nope"],
    ] {
        let out = repro().args(&bad).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
}
