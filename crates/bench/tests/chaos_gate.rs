//! End-to-end crash-safety gates for the serve stack, driven through the
//! real `repro` binary:
//!
//! * a hand-rolled crash-recovery smoke — boot with `--journal` and
//!   `--cache-dir`, compute a job, SIGKILL the daemon, restart on the
//!   same state, and require the recovered result byte-identical plus
//!   the restored lifetime counters in `/stats`;
//! * the chaos scenario itself ([`foldic_serve::scenario`]) — seeded
//!   load with slow-loris headers and mid-request disconnects, a
//!   mid-flight SIGKILL, and the no-acked-job-lost / byte-identical /
//!   idempotent-replay gate.

use foldic_obs::json::Json;
use foldic_serve::client;
use foldic_serve::scenario::{self, Config, Daemon, Scenario, Target};
use foldic_serve::JobSpec;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);
/// Debug-build experiment runs are slow; completion polls get a
/// generous ceiling.
const POLL: Duration = Duration::from_secs(600);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foldic-chaos-gate-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_repro").to_owned(), "serve".to_owned()]
}

/// Boots `repro serve --journal --cache-dir` against `dir` and waits for
/// its port file. Dropping the handle SIGKILLs the daemon.
fn boot(dir: &Path, boot_index: u32) -> Daemon {
    let (journal, cache) = (dir.join("journal.jsonl"), dir.join("cache"));
    let flags = [
        "--workers",
        "1",
        "--journal",
        journal.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let port_file = dir.join(format!("addr-{boot_index}.txt"));
    Daemon::spawn(&serve_cmd(), &flags, &port_file, TIMEOUT).expect("daemon boots")
}

fn await_result(addr: SocketAddr, id: u64) -> String {
    let settled = scenario::settle(addr, id, POLL).expect("job settles");
    assert_eq!(settled.state, "done", "job {id} ended {}", settled.state);
    String::from_utf8(settled.body.expect("done job has a body")).expect("manifest is UTF-8")
}

#[test]
fn sigkilled_daemon_restarts_with_identical_bytes_and_restored_counters() {
    let dir = tmp_dir("smoke");
    let daemon = boot(&dir, 1);
    let addr = daemon.addr();

    let spec = JobSpec {
        experiments: vec!["fig2".to_owned()],
        size: "tiny".to_owned(),
        ..JobSpec::default()
    };
    let response = client::post_json(addr, "/jobs", &spec.to_json(), TIMEOUT).expect("submit");
    assert_eq!(response.status, 202, "{:?}", response.body_text());
    let id = response
        .body_json()
        .unwrap()
        .get("job")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    let body = await_result(addr, id);

    // SIGKILL: no drain, no flush beyond what the journal already
    // fsync'd before acks.
    drop(daemon);

    let mut daemon = boot(&dir, 2);
    let addr = daemon.addr();
    // The finished job survives with byte-identical bytes…
    assert_eq!(
        client::get(addr, &format!("/jobs/{id}"), TIMEOUT)
            .unwrap()
            .body_json()
            .unwrap()
            .get("state")
            .and_then(Json::as_str),
        Some("done"),
        "terminal state must survive the crash"
    );
    assert_eq!(
        await_result(addr, id),
        body,
        "recovered result must be byte-identical"
    );
    // …an identical resubmit is a cache hit served from disk…
    let response = client::post_json(addr, "/jobs", &spec.to_json(), TIMEOUT).expect("resubmit");
    assert_eq!(response.status, 200, "{:?}", response.body_text());
    assert_eq!(
        response
            .body_json()
            .unwrap()
            .get("cache")
            .and_then(Json::as_str),
        Some("hit")
    );
    // …and /stats reports the replayed lifetime counters instead of
    // starting from zero.
    let stats = client::get(addr, "/stats", TIMEOUT)
        .unwrap()
        .body_json()
        .unwrap();
    let num = |path: &[&str]| -> f64 {
        let mut cursor = &stats;
        for key in path {
            cursor = cursor
                .get(key)
                .unwrap_or_else(|| panic!("stats missing {}", path.join(".")));
        }
        cursor.as_f64().unwrap()
    };
    assert!(num(&["counters", "submitted"]) >= 2.0);
    assert!(num(&["counters", "completed"]) >= 1.0);
    assert!(num(&["durability", "journal", "replayed_jobs"]) >= 1.0);
    assert_eq!(num(&["durability", "journal", "reenqueued"]), 0.0);
    assert!(num(&["cache", "insertions"]) >= 1.0, "insertions restored");

    let down = client::post(addr, "/shutdown", TIMEOUT).unwrap();
    assert_eq!(down.status, 200);
    let status = daemon.wait(POLL).expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_harness_gate_holds_under_seeded_kill() {
    let dir = tmp_dir("harness");
    let cfg = Config {
        seed: 42,
        jobs: 5,
        experiments: vec!["fig2".to_owned()],
        timeout: POLL,
        ..Config::new(
            Scenario::Chaos,
            Target::Spawn {
                serve_cmd: serve_cmd(),
                dir: dir.clone(),
            },
        )
    };
    let report = scenario::run(&cfg).expect("chaos harness runs");
    assert!(
        report.count("acked") >= 5,
        "harness acked {} jobs",
        report.count("acked")
    );
    if let Err(problems) = report.gate() {
        panic!("chaos gate failed: {}", problems.join("; "));
    }
    // The report document round-trips through the obs JSON layer.
    let doc = report.to_json();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(scenario::SCHEMA)
    );
    assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
    let _ = std::fs::remove_dir_all(&dir);
}
