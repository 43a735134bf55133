//! The benchmark's own checks: its contract file is well formed and
//! agrees with `layers.json`, and a tiny-size run of every workload, in
//! both modes, passes its output checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use foldic_obs::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");
const LAYERS: &str = include_str!("../layers.json");

fn doc(text: &str) -> Json {
    Json::parse(text).expect("parses")
}

fn list<'a>(d: &'a Json, key: &str) -> &'a [Json] {
    d.get(key).and_then(Json::as_arr).expect(key)
}

fn text<'a>(d: &'a Json, key: &str) -> &'a str {
    d.get(key).and_then(Json::as_str).expect(key)
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn contract_round_trips() {
    let d = doc(CONTRACT);
    assert_eq!(doc(&d.to_compact()), d);
    assert_eq!(doc(&d.to_pretty()), d);
    let keys: Vec<&str> = d
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn metrics_have_names_units_and_directions() {
    let d = doc(CONTRACT);
    let mut seen = BTreeSet::new();
    for section in ["end_to_end", "per_layer", "workloads"] {
        for m in list(&d, section) {
            let name = text(m, "name");
            assert!(is_name(name), "bad name `{name}`");
            assert!(seen.insert(name.to_owned()), "`{name}` used twice");
            if section == "workloads" {
                assert!(text(m, "why").len() <= 200, "{name}: why too long");
                continue;
            }
            assert!(is_unit(text(m, "unit")), "{name}: bad unit");
            assert!(matches!(text(m, "better"), "lower" | "higher"), "{name}");
            let bound = m.get("bound").and_then(Json::as_f64);
            if section == "end_to_end" {
                let b = bound.expect("an end-to-end metric has a bound");
                assert!(b > 0.0 && b <= 0.25, "{name}: bound {b}");
            } else {
                assert!(bound.is_none(), "{name}: a per-layer metric has no bound");
            }
        }
    }
    let setup = list(&d, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn layers_map_covers_the_contract() {
    let (d, l) = (doc(CONTRACT), doc(LAYERS));
    let names = |section| -> BTreeSet<String> {
        list(&d, section)
            .iter()
            .map(|m| text(m, "name").to_owned())
            .collect()
    };
    let (e2e, layer, workloads) = (names("end_to_end"), names("per_layer"), names("workloads"));
    let described: BTreeSet<String> = l
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads")
        .keys()
        .cloned()
        .collect();
    assert_eq!(described, workloads);
    let mut mapped = BTreeSet::new();
    for row in list(&l, "per_layer_moves") {
        for m in list(row, "metrics") {
            let m = m.as_str().expect("metric name");
            assert!(layer.contains(m), "`{m}` is not a per-layer metric");
            mapped.insert(m.to_owned());
        }
        for m in list(row, "moves") {
            assert!(e2e.contains(m.as_str().expect("name")), "{m:?}");
        }
        for key in ["workloads", "flat_on"] {
            for w in list(row, key) {
                assert!(workloads.contains(w.as_str().expect("name")), "{w:?}");
            }
        }
    }
    assert_eq!(mapped, layer, "every per-layer metric is mapped");
}

/// The target directory this test binary was built into.
fn target_dir(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .expect("<target>/<profile>/perfbench")
        .to_path_buf()
}

/// Builds the `repro` daemon beside `perfbench`, as `run.py` does.
fn build_repro(exe: &Path) {
    if exe.with_file_name("repro").is_file() {
        return;
    }
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args([
        "build",
        "--offline",
        "--quiet",
        "-p",
        "foldic-bench",
        "--bin",
        "repro",
    ])
    .arg("--manifest-path")
    .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
    .env("CARGO_TARGET_DIR", target_dir(exe));
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    assert!(
        cmd.status().expect("cargo runs").success(),
        "building repro"
    );
}

fn smoke(workload: &str) {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    build_repro(&exe);
    let d = doc(CONTRACT);
    let work = target_dir(&exe).join("smoke-work");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "2",
                "--size",
                "tiny",
            ])
            .args(["--trace", trace])
            .arg("--work-dir")
            .arg(&work)
            .output()
            .expect("perfbench runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{workload}: {stdout}");
        let result = doc(stdout.lines().last().expect("a result line"));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        let wanted: Vec<&str> = list(&d, section).iter().map(|m| text(m, "name")).collect();
        assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), {
            let mut w = wanted.clone();
            w.sort_unstable();
            w
        });
        if trace == "0" {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).expect("value");
                assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
            }
        }
    }
}

#[test]
fn smoke_t2_small() {
    smoke("t2_small");
}

#[test]
fn smoke_serve_mix() {
    smoke("serve_mix");
}
