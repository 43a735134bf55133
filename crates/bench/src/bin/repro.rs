//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--size full|small|tiny] [--threads N] [--profile]
//!       [--trace out.json] [--events out.jsonl] [--manifest out.json]
//!       [--faults SPEC] [--retries N] [--resume ckpt.jsonl]
//!       [--deadline SECS] [--stage-timeout STAGE=SECS,...]
//! repro compare <baseline.json> <candidate.json> [--tol PCT]
//! repro bench [FILTER] [--json out.json]
//! repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--port-file PATH]
//! repro loadgen --addr HOST:PORT [--jobs N] [--clients N] [--seed S] [--mix SPEC]
//!               [--experiments a+b] [--size S] [--json out.json] [--gate] [--shutdown]
//! repro loadgen --chaos SEED [--jobs N] [--experiments a+b] [--size S] [--json out.json] [--gate]
//! repro loadgen --overload SEED [--jobs N] [--json out.json] [--gate]
//!
//! EXPERIMENT: table1 table2 table3 table4 table5
//!             fig2 fig3 fig5 fig6 fig7 fig8
//!             thermal ablations layouts
//!             all (default)
//! ```
//!
//! `--threads N` fans the per-block loops and configuration sweeps out
//! over N workers (default: `FOLDIC_THREADS` or all cores; 1 = serial).
//! Reports are byte-identical for every thread count. `--profile` prints
//! a per-stage wall-time/iteration table after each experiment, folded
//! from the experiment's trace spans and keyed by span path (the same
//! keys at any `--threads`).
//!
//! `--trace` writes a Chrome-trace JSON (load in `chrome://tracing` or
//! <https://ui.perfetto.dev>), `--events` a JSONL event log, and
//! `--manifest` a machine-readable run manifest (config, per-stage
//! timings — the `--profile` table as JSON — metrics snapshot,
//! per-experiment result digests). If the
//! manifest path is an existing directory, the file is named
//! `run-<experiments>-<size>.json` inside it. `repro compare` diffs two
//! manifests (timing ignored) and exits nonzero when a metric moved more
//! than `--tol` percent (default 0.5) or a result digest changed.
//!
//! `--faults SPEC` installs a deterministic fault-injection plan
//! (`stage:block[:kind[:attempts]]`, comma-separated). Faulted blocks are
//! retried with perturbed seeds and a progressively relaxed configuration
//! (`--retries N` extra attempts on top of the first run, default 2;
//! `--retries 0` disables retrying) and degrade to analytical estimates
//! when every attempt fails. Recovered and degraded blocks show up in the
//! report footers and in the manifest's `faults` section. `--resume
//! ckpt.jsonl` records every finished block in a checkpoint file and
//! replays it on the next run with the same file, skipping finished
//! blocks while keeping the output byte-identical.
//!
//! `repro bench` times the hot kernels (sequence-pair packing at
//! n = 14/46/128, one SA temperature step, one quadratic-system solve)
//! with the built-in median-of-samples harness; `--json` writes a
//! `foldic-kernel-bench/1` document for the CI gate and the perf
//! trajectory baseline (`BENCH_kernels.json`).
//!
//! `repro serve` boots the batch design-study daemon (`foldic-serve`):
//! an HTTP/1.1 job API with a bounded queue and a content-addressed
//! result cache keyed on the canonical manifest config. `--addr` defaults
//! to `127.0.0.1:0` (ephemeral port; the bound address is printed and,
//! with `--port-file`, written to a file for scripts). The daemon runs
//! until `POST /shutdown`, then drains in-flight jobs and exits. The
//! daemon traces every request (`GET /jobs/<id>/trace` serves a job's
//! span tree), exposes Prometheus-style counters on `GET /metrics`, and
//! with `--log PATH` appends a structured JSONL access+app log
//! (`--log-level` filters severities). `repro loadgen` runs one of the
//! seeded scenarios in `foldic_serve::scenario` and emits its
//! `foldic-serve-scenario/1` report. By default it replays a
//! mix of hit/miss/cancel/deadline jobs against the daemon at `--addr`
//! and compares the clients' counts with the daemon's own `/metrics`
//! counter deltas (`--shutdown` asks the daemon to drain afterwards).
//! `--chaos SEED` boots a journaled daemon from this binary, SIGKILLs it
//! mid-load and restarts it twice; `--overload SEED` boots one with a
//! small `--mem-limit` and floods it. `--gate` exits 1 when the report
//! lists a violated invariant. A second scenario selector, or a flag the
//! chosen scenario does not read, is a usage error (exit 2).
//!
//! `--deadline SECS` bounds the whole run's wall clock: a watchdog trips
//! a cancellation token on expiry, in-flight blocks stop at their next
//! cooperative checkpoint and degrade, and not-yet-started blocks are
//! skipped (also degraded). `--stage-timeout STAGE=SECS,...` bounds
//! individual flow stages per block; a timed-out stage takes the normal
//! retry → degrade path, with each retry given a larger share of the
//! remaining budget. Timed-out runs land in the manifest's `timeouts`
//! section, gated by `repro compare` like `faults`.
//!
//! Output is printed to stdout; tee it into a file to archive a run.

use foldic::prelude::*;
use foldic::{
    parse_bytes, parse_stage_mem, CheckpointStore, DeadlinePolicy, FaultPlan, FlowStage,
    ResourcePolicy, RetryPolicy, RunCtx,
};
use foldic_bench::{experiments, Ctx};
use foldic_obs::json::Json;
use foldic_obs::manifest::{compare, CompareConfig, RunManifest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: repro [EXPERIMENT...] [--size full|small|tiny] [--threads N] [--profile]\n\
       \x20            [--design design.fdb] [--trace out.json] [--events out.jsonl]\n\
       \x20            [--manifest out.json]\n\
       \x20            [--faults SPEC] [--retries N] [--resume ckpt.jsonl]\n\
       \x20            [--deadline SECS] [--stage-timeout STAGE=SECS,...]\n\
       \x20            [--mem-budget BYTES] [--stage-mem STAGE=BYTES,...]\n\
       repro gen --out design.fdb [--size full|small|tiny] [--cells N] [--seed S]\n\
       repro compare <baseline.json> <candidate.json> [--tol PCT]\n\
       repro bench [FILTER] [--json out.json]\n\
       repro bench scale [--max-cells N] [--json out.json]\n\
       repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--port-file PATH]\n\
       \x20           [--log PATH] [--log-level debug|info|warn|error]\n\
       \x20           [--journal PATH] [--cache-dir DIR] [--breaker FAILURES[:COOLDOWN_SECS]]\n\
       \x20           [--mem-limit BYTES]\n\
       repro loadgen --addr HOST:PORT [--jobs N] [--clients N] [--seed S] [--mix SPEC]\n\
       \x20             [--experiments a+b] [--size S] [--json out.json] [--gate] [--shutdown]\n\
       repro loadgen --chaos SEED [--jobs N] [--experiments a+b] [--size S] [--json out.json] [--gate]\n\
       repro loadgen --overload SEED [--jobs N] [--json out.json] [--gate]\n\
       repro probe --addr HOST:PORT [--submit a+b] [--size S] [--seed S] [--shutdown]\n\
experiments: table1 table2 table3 table4 table5 fig2 fig3 fig5 fig6 fig7 fig8 thermal ablations layouts all\n\
fault spec:  stage:block[:kind[:attempts]],... e.g. route:ccx:panic or place:mcu0:error:1\n\
             (stages: validate partition place opt route sta power floorplan; kinds: panic error slow)\n\
deadlines:   --deadline 30 bounds the whole run; --stage-timeout route=0.5,opt=2 bounds stages per block\n\
memory:      --mem-budget 64M bounds each block job's net allocation; --stage-mem place=16M,route=8M\n\
             bounds stages per block (suffixes k/M/G are binary; breaches degrade like timeouts)";

fn usage_err(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("gen") {
        std::process::exit(run_gen(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("compare") {
        std::process::exit(run_compare(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("bench") {
        std::process::exit(run_bench(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("serve") {
        std::process::exit(run_serve(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("loadgen") {
        std::process::exit(run_loadgen(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("probe") {
        std::process::exit(run_probe(&raw[1..]));
    }

    let mut size = "full".to_owned();
    let mut picks: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut profile = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut events_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut design_path: Option<PathBuf> = None;
    let mut faults_spec: Option<String> = None;
    let mut retries: Option<u32> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut deadline_secs: Option<f64> = None;
    let mut stage_timeout_spec: Option<String> = None;
    let mut mem_budget: Option<u64> = None;
    let mut stage_mem_spec: Option<String> = None;
    let mut args = raw.into_iter();
    // an output flag may appear once, and distinct outputs must not share
    // a path — catch both before spending minutes computing
    let path_flag = |slot: &mut Option<PathBuf>, flag: &str, value: Option<String>| {
        let value = value.unwrap_or_else(|| usage_err(&format!("{flag} needs a path")));
        if slot.is_some() {
            usage_err(&format!("duplicate {flag}"));
        }
        *slot = Some(PathBuf::from(value));
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => {
                size = args
                    .next()
                    .unwrap_or_else(|| usage_err("--size needs a value (full|small|tiny)"))
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_err("--threads needs a value"));
                threads = Some(v.parse().unwrap_or_else(|_| {
                    usage_err(&format!("--threads needs a positive integer, got `{v}`"))
                }));
            }
            "--profile" => profile = true,
            "--trace" => path_flag(&mut trace_path, "--trace", args.next()),
            "--events" => path_flag(&mut events_path, "--events", args.next()),
            "--manifest" => path_flag(&mut manifest_path, "--manifest", args.next()),
            "--design" => path_flag(&mut design_path, "--design", args.next()),
            "--faults" => {
                let v = args.next().unwrap_or_else(|| {
                    usage_err("--faults needs a spec (stage:block[:kind[:attempts]],...)")
                });
                if faults_spec.is_some() {
                    usage_err("duplicate --faults");
                }
                faults_spec = Some(v);
            }
            "--retries" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_err("--retries needs a value"));
                retries = Some(v.parse().unwrap_or_else(|_| {
                    usage_err(&format!(
                        "--retries needs a non-negative integer, got `{v}`"
                    ))
                }));
            }
            "--resume" => path_flag(&mut resume_path, "--resume", args.next()),
            "--deadline" => {
                let v = args.next().unwrap_or_else(|| {
                    usage_err("--deadline needs a wall-clock budget in seconds")
                });
                if deadline_secs.is_some() {
                    usage_err("duplicate --deadline");
                }
                let secs: f64 = v.parse().unwrap_or_else(|_| {
                    usage_err(&format!("--deadline needs a number of seconds, got `{v}`"))
                });
                if !(secs.is_finite() && secs > 0.0) {
                    usage_err(&format!("--deadline needs a positive budget, got `{v}`"));
                }
                deadline_secs = Some(secs);
            }
            "--stage-timeout" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_err("--stage-timeout needs a spec (STAGE=SECS,...)"));
                if stage_timeout_spec.is_some() {
                    usage_err("duplicate --stage-timeout");
                }
                stage_timeout_spec = Some(v);
            }
            "--mem-budget" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_err("--mem-budget needs a byte count (e.g. 64M)"));
                if mem_budget.is_some() {
                    usage_err("duplicate --mem-budget");
                }
                mem_budget = Some(
                    parse_bytes(&v).unwrap_or_else(|e| usage_err(&format!("--mem-budget: {e}"))),
                );
            }
            "--stage-mem" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_err("--stage-mem needs a spec (STAGE=BYTES,...)"));
                if stage_mem_spec.is_some() {
                    usage_err("duplicate --stage-mem");
                }
                stage_mem_spec = Some(v);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                usage_err(&format!("unknown flag `{other}`"));
            }
            other => picks.push(other.to_owned()),
        }
    }
    let outputs = [
        ("--trace", &trace_path),
        ("--events", &events_path),
        ("--manifest", &manifest_path),
        ("--resume", &resume_path),
    ];
    for (i, (fa, pa)) in outputs.iter().enumerate() {
        for (fb, pb) in outputs.iter().skip(i + 1) {
            if let (Some(pa), Some(pb)) = (pa, pb) {
                if pa == pb {
                    usage_err(&format!("{fa} and {fb} point at the same path {pa:?}"));
                }
            }
        }
    }

    let threads = foldic_exec::resolve_threads(threads);
    // `tracing`: every event is kept for --trace/--events; the stage
    // tables of --profile and --manifest fold each experiment's events
    let tracing = trace_path.is_some() || events_path.is_some();
    if tracing || profile || manifest_path.is_some() {
        foldic_obs::trace::set_enabled(true);
    }
    if manifest_path.is_some() {
        foldic_obs::metrics::set_enabled(true);
    }
    if picks.is_empty() {
        picks.push("all".to_owned());
    }
    let size_cfg = |label: &str| match label {
        "full" => T2Config::full(),
        "small" => T2Config::small(),
        "tiny" => T2Config::tiny(),
        other => usage_err(&format!("unknown size `{other}` (full|small|tiny)")),
    };
    let mut cfg = size_cfg(&size);

    // A snapshot-backed run: the file's provenance overrides the size
    // flag entirely, so the run is the one the snapshot was generated
    // for — report bodies must come out byte-identical either way.
    let mut loaded_design = None;
    let mut db_info = None;
    if let Some(path) = &design_path {
        let (design, info) = foldic_netlist::db::load_design(path).unwrap_or_else(|e| {
            eprintln!("cannot load design {}: {e}", path.display());
            std::process::exit(2);
        });
        match info.meta.get("generator").map(String::as_str) {
            Some("t2") => {}
            other => {
                eprintln!(
                    "--design: snapshot generator `{}` cannot drive the experiments (need t2; \
                     scale snapshots are for `repro bench scale`)",
                    other.unwrap_or("<missing>")
                );
                std::process::exit(2);
            }
        }
        if let Some(label) = info.meta.get("size") {
            size = label.clone();
            cfg = size_cfg(&size);
        }
        if let Some(v) = info.meta.get("seed").and_then(|v| parse_u64_maybe_hex(v)) {
            cfg.seed = v;
        }
        let f64_meta = |key: &str| info.meta.get(key).and_then(|v| v.parse::<f64>().ok());
        if let Some(v) = f64_meta("size_factor") {
            cfg.size = v;
        }
        if let Some(v) = f64_meta("cluster_size") {
            cfg.cluster_size = v;
        }
        if let Some(v) = f64_meta("utilization") {
            cfg.utilization = v;
        }
        loaded_design = Some(design);
        db_info = Some(info);
    }

    let mut manifest = RunManifest::default();
    manifest.config.insert("size".into(), size.clone());
    manifest
        .config
        .insert("seed".into(), format!("{:#x}", cfg.seed));
    manifest
        .config
        .insert("cluster_size".into(), cfg.cluster_size.to_string());
    let mut run = RunCtx::new();
    if let Some(spec) = &faults_spec {
        let plan = FaultPlan::parse(spec).unwrap_or_else(|e| usage_err(&format!("--faults: {e}")));
        // canonical spec: the plan participates in manifest comparison
        manifest.config.insert("faults".into(), plan.to_spec());
        run = run.with_faults(plan);
    }
    if let Some(n) = retries {
        manifest.config.insert("retries".into(), n.to_string());
    }
    let mut deadline_policy = DeadlinePolicy::default();
    if let Some(secs) = deadline_secs {
        deadline_policy.overall = Some(Duration::from_secs_f64(secs));
        manifest.config.insert("deadline".into(), format!("{secs}"));
    }
    if let Some(spec) = &stage_timeout_spec {
        deadline_policy.stage_budgets = parse_stage_timeouts(spec);
        let canonical: Vec<String> = deadline_policy
            .stage_budgets
            .iter()
            .map(|(s, d)| format!("{s}={}", d.as_secs_f64()))
            .collect();
        manifest
            .config
            .insert("stage_timeouts".into(), canonical.join(","));
    }
    run = run.with_deadline(&deadline_policy, "run");
    let mut resource_policy = ResourcePolicy::default();
    if let Some(bytes) = mem_budget {
        resource_policy.overall = Some(bytes);
        // canonical value: decimal bytes, independent of the suffix typed
        manifest
            .config
            .insert("mem_budget".into(), bytes.to_string());
    }
    if let Some(spec) = &stage_mem_spec {
        resource_policy.stage_budgets =
            parse_stage_mem(spec).unwrap_or_else(|e| usage_err(&format!("--stage-mem: {e}")));
        manifest
            .config
            .insert("stage_mem".into(), resource_policy.stage_spec());
    }
    if !resource_policy.is_empty() {
        run = run.with_resource(resource_policy);
    }
    let entered = run.enter();
    // per-experiment wall clocks and pool stats go here — everything in
    // this object may vary across thread counts and is stripped before
    // determinism comparisons
    let mut timing_experiments: BTreeMap<String, Json> = BTreeMap::new();
    let mut kept_events = Vec::new();

    println!(
        "foldic repro — synthetic OpenSPARC T2 @ size={size} (seed {:#x}, cluster {}x, {threads} thread{})",
        cfg.seed,
        cfg.cluster_size,
        if threads == 1 { "" } else { "s" }
    );
    let t0 = Instant::now();
    let mut ctx = match loaded_design.take() {
        Some(design) => {
            let tech = cfg.scaled_technology();
            Ctx::with_design(cfg, design, tech, threads)
        }
        None => Ctx::with_threads(cfg, threads),
    };
    if let Some(n) = retries {
        // `--retries N` counts the retries on top of the first attempt
        ctx.retry = RetryPolicy::attempts(n.saturating_add(1));
    }
    if let Some(path) = &resume_path {
        let store = CheckpointStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open checkpoint {}: {e}", path.display());
            std::process::exit(2);
        });
        if !store.is_empty() {
            println!(
                "resume: {} checkpointed block(s) in {}",
                store.len(),
                path.display()
            );
        }
        ctx.checkpoint = Some(std::sync::Arc::new(store));
    }
    if let Some(path) = &design_path {
        println!(
            "loaded {} blocks, {} instances from {} in {:?}\n",
            ctx.design.num_blocks(),
            ctx.design.total_insts(),
            path.display(),
            t0.elapsed()
        );
    } else {
        println!(
            "generated {} blocks, {} instances in {:?}\n",
            ctx.design.num_blocks(),
            ctx.design.total_insts(),
            t0.elapsed()
        );
    }

    let want = |name: &str, picks: &[String]| picks.iter().any(|p| p == name || p == "all");
    let mut ran: Vec<String> = Vec::new();
    macro_rules! run {
        ($name:literal, $body:expr) => {
            if want($name, &picks) {
                let t = Instant::now();
                let report = $body;
                let text = report.to_string();
                println!("{text}");
                let events = foldic_obs::trace::take_events();
                let stages = foldic_obs::stages::fold(&events);
                if tracing {
                    kept_events.extend(events);
                }
                if profile {
                    println!("-- profile: {} --\n{}", $name, stages);
                }
                if manifest_path.is_some() {
                    manifest.record_result($name, &text);
                    let mut timing = stages.to_json();
                    if let Some(fields) = timing.as_obj_mut() {
                        fields.insert("wall_s".to_owned(), Json::Num(t.elapsed().as_secs_f64()));
                    }
                    timing_experiments.insert($name.to_owned(), timing);
                }
                println!("[{} finished in {:?}]\n", $name, t.elapsed());
                ran.push($name.to_owned());
            }
        };
    }

    run!("table1", experiments::table1(&ctx.tech));
    run!("table2", experiments::table2(&mut ctx));
    run!("table3", experiments::table3(&mut ctx));
    run!("table4", experiments::table4(&mut ctx));
    run!("fig2", experiments::fig2(&mut ctx));
    run!("fig3", experiments::fig3(&mut ctx));
    run!("fig5", experiments::fig5(&mut ctx));
    run!("fig6", experiments::fig6(&mut ctx));
    run!("fig7", experiments::fig7(&mut ctx));
    run!("fig8", experiments::fig8(&mut ctx));
    run!("table5", experiments::table5(&mut ctx));
    run!("thermal", experiments::thermal(&mut ctx));
    run!("ablations", experiments::ablations(&mut ctx));
    if want("layouts", &picks) {
        let t = Instant::now();
        let report = experiments::layouts(&mut ctx, Path::new("layouts"));
        println!("{report}");
        println!("[layouts finished in {:?}]\n", t.elapsed());
        ran.push("layouts".to_owned());
    }

    if ran.is_empty() {
        eprintln!("no experiment matched {picks:?}; see --help");
        std::process::exit(2);
    }
    println!("total wall time {:?}", t0.elapsed());
    drop(entered);
    let outcome = run.finish();
    if !outcome.faults.is_empty() {
        println!(
            "faults: {} block run(s) recovered or degraded (see report footers)",
            outcome.faults.len()
        );
    }
    if !outcome.timeouts.is_empty() {
        println!(
            "timeouts: {} run(s) hit a wall-clock budget and degraded (see report footers)",
            outcome.timeouts.len()
        );
    }
    if !outcome.mem_exceeded.is_empty() {
        println!(
            "memory: {} run(s) hit a memory budget and recovered or degraded (see report footers)",
            outcome.mem_exceeded.len()
        );
    }
    if outcome.deadline_tripped {
        println!("deadline: overall budget expired before the run finished");
    }
    if let Some(store) = &ctx.checkpoint {
        println!(
            "checkpoint: {} block(s) stored, {} replayed",
            store.len(),
            store.hits()
        );
    }

    if tracing {
        foldic_obs::trace::set_enabled(false);
        let mut events = kept_events;
        events.extend(foldic_obs::trace::take_events());
        if let Some(path) = &trace_path {
            write_or_die(path, &foldic_obs::trace::chrome_trace_json(&events));
            println!("trace: {} events -> {}", events.len(), path.display());
        }
        if let Some(path) = &events_path {
            write_or_die(path, &foldic_obs::trace::events_jsonl(&events));
            println!("events: {} -> {}", events.len(), path.display());
        }
    }
    if let Some(path) = manifest_path {
        manifest.config.insert("experiments".into(), ran.join("+"));
        outcome.record_in(&mut manifest);
        // Design-database provenance: a snapshot-backed run records the
        // file's digest directly; a generated run streams the pristine
        // design into a temp snapshot with the same canonical meta
        // `repro gen` writes, so the two digests agree whenever the
        // designs do.
        let (db_digest, db_source) = match &db_info {
            Some(info) => (info.digest.clone(), "snapshot"),
            None => {
                let tmp = std::env::temp_dir()
                    .join(format!("foldic-manifest-{}.fdb", std::process::id()));
                let meta = t2_meta(&ctx.cfg, &size);
                let meta_refs: Vec<(&str, &str)> =
                    meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let digest = foldic_netlist::db::save_design(&ctx.design, &meta_refs, &tmp)
                    .and_then(|()| foldic_netlist::db::file_digest(&tmp))
                    .unwrap_or_else(|e| {
                        eprintln!("cannot digest design for manifest: {e}");
                        std::process::exit(1);
                    });
                let _ = std::fs::remove_file(&tmp);
                (digest, "generated")
            }
        };
        manifest.db.insert("digest".into(), db_digest);
        manifest
            .db
            .insert("cells".into(), ctx.design.total_insts().to_string());
        manifest
            .db
            .insert("nets".into(), ctx.design.total_nets().to_string());
        manifest.db.insert("source".into(), db_source.into());
        manifest.metrics = foldic_obs::metrics::take();
        foldic_obs::metrics::set_enabled(false);
        manifest.timing = Json::obj([
            ("threads".to_owned(), Json::Num(threads as f64)),
            (
                "total_wall_s".to_owned(),
                Json::Num(t0.elapsed().as_secs_f64()),
            ),
            ("experiments".to_owned(), Json::Obj(timing_experiments)),
        ]);
        let path = if path.is_dir() {
            path.join(format!("run-{}-{size}.json", ran.join("+")))
        } else {
            path
        };
        write_or_die(&path, &manifest.to_json_text());
        println!("manifest: {}", path.display());
    }
}

/// Parses a `--stage-timeout` spec (`STAGE=SECS,...`) into per-stage
/// budgets; exits with a usage error on an unknown stage, a bad number,
/// or a duplicate stage. A zero budget is allowed and times the stage
/// out at entry (useful for skipping a stage class wholesale).
fn parse_stage_timeouts(spec: &str) -> Vec<(FlowStage, Duration)> {
    let mut budgets: Vec<(FlowStage, Duration)> = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((stage, secs)) = entry.split_once('=') else {
            usage_err(&format!(
                "--stage-timeout entry `{entry}` is not STAGE=SECS"
            ));
        };
        let stage: FlowStage = stage
            .trim()
            .parse()
            .unwrap_or_else(|e: String| usage_err(&format!("--stage-timeout: {e}")));
        let secs: f64 = secs.trim().parse().unwrap_or_else(|_| {
            usage_err(&format!(
                "--stage-timeout: `{entry}` needs a number of seconds"
            ))
        });
        if !(secs.is_finite() && secs >= 0.0) {
            usage_err(&format!(
                "--stage-timeout: `{entry}` needs a non-negative budget"
            ));
        }
        if budgets.iter().any(|(s, _)| *s == stage) {
            usage_err(&format!("--stage-timeout: duplicate stage `{stage}`"));
        }
        budgets.push((stage, Duration::from_secs_f64(secs)));
    }
    if budgets.is_empty() {
        usage_err("--stage-timeout spec is empty");
    }
    budgets
}

fn write_or_die(path: &Path, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Canonical snapshot provenance for a T2 config: everything needed to
/// reconstruct the config (and thus the scaled technology) on load.
/// `repro gen` and the manifest's generated-design digest both write
/// exactly this, so their file digests agree for the same design.
fn t2_meta(cfg: &T2Config, size_label: &str) -> Vec<(String, String)> {
    vec![
        ("generator".into(), "t2".into()),
        ("size".into(), size_label.into()),
        ("seed".into(), format!("{:#x}", cfg.seed)),
        ("size_factor".into(), cfg.size.to_string()),
        ("cluster_size".into(), cfg.cluster_size.to_string()),
        ("utilization".into(), cfg.utilization.to_string()),
    ]
}

/// `repro gen --out design.fdb [--size full|small|tiny] [--cells N]
/// [--seed S]`. Writes a `foldic-db/1` snapshot: the T2 design for a
/// size label, or (with `--cells`) a synthetic scale design streamed
/// block-by-block. Exit code: 0 on success, 1 on write errors, 2 on
/// usage errors.
fn run_gen(args: &[String]) -> i32 {
    let mut out: Option<PathBuf> = None;
    let mut size = "full".to_owned();
    let mut cells: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage_err("--out needs a path"));
                if out.is_some() {
                    usage_err("duplicate --out");
                }
                out = Some(PathBuf::from(v));
            }
            "--size" => {
                size = it
                    .next()
                    .unwrap_or_else(|| usage_err("--size needs a value (full|small|tiny)"))
                    .clone();
            }
            "--cells" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--cells needs a count"));
                cells =
                    Some(parse_u64_maybe_hex(v).unwrap_or_else(|| {
                        usage_err(&format!("--cells needs an integer, got `{v}`"))
                    }));
            }
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--seed needs a value"));
                seed =
                    Some(parse_u64_maybe_hex(v).unwrap_or_else(|| {
                        usage_err(&format!("--seed needs an integer, got `{v}`"))
                    }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => usage_err(&format!("unknown gen argument `{other}`")),
        }
    }
    let out = out.unwrap_or_else(|| usage_err("gen needs --out design.fdb"));
    let t0 = Instant::now();
    let result = if let Some(cells) = cells {
        let cfg =
            foldic_t2::ScaleConfig::new(cells, seed.unwrap_or(foldic_bench::scale::SCALE_SEED));
        println!(
            "gen: scale design, {} cells in {} block(s) (seed {:#x})",
            cfg.cells,
            cfg.num_blocks(),
            cfg.seed
        );
        cfg.save(&foldic_tech::Technology::cmos28(), &out)
    } else {
        let mut cfg = match size.as_str() {
            "full" => T2Config::full(),
            "small" => T2Config::small(),
            "tiny" => T2Config::tiny(),
            other => usage_err(&format!("unknown size `{other}` (full|small|tiny)")),
        };
        if let Some(s) = seed {
            cfg.seed = s;
        }
        println!(
            "gen: t2 design @ size={size} (seed {:#x}, cluster {}x)",
            cfg.seed, cfg.cluster_size
        );
        let (design, _tech) = cfg.generate();
        let meta = t2_meta(&cfg, &size);
        let meta_refs: Vec<(&str, &str)> =
            meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        foldic_netlist::db::save_design(&design, &meta_refs, &out)
    };
    if let Err(e) = result {
        eprintln!("gen: cannot write {}: {e}", out.display());
        return 1;
    }
    match foldic_netlist::db::load_design(&out) {
        Ok((design, info)) => {
            println!(
                "gen: {} -> {} blocks, {} cells, {} nets, {} bytes, {} in {:?}",
                out.display(),
                design.num_blocks(),
                info.cells,
                info.nets,
                std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0),
                info.digest,
                t0.elapsed()
            );
            0
        }
        Err(e) => {
            eprintln!("gen: wrote {} but cannot read it back: {e}", out.display());
            1
        }
    }
}

/// `repro bench [FILTER] [--json out.json]`.
/// Exit code: 0 on success (even when the filter matches nothing — the
/// JSON then carries an empty kernel map), 2 on usage errors.
fn run_bench(args: &[String]) -> i32 {
    let mut filter: Option<String> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut max_cells: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--json needs a path"));
                if json_path.is_some() {
                    usage_err("duplicate --json");
                }
                json_path = Some(PathBuf::from(v));
            }
            "--max-cells" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--max-cells needs a count"));
                max_cells = Some(parse_u64_maybe_hex(v).unwrap_or_else(|| {
                    usage_err(&format!("--max-cells needs an integer, got `{v}`"))
                }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => usage_err(&format!("unknown flag `{other}`")),
            other => {
                if filter.is_some() {
                    usage_err("bench takes at most one FILTER");
                }
                filter = Some(other.to_owned());
            }
        }
    }
    if filter.as_deref() == Some("scale") {
        // the database scaling sweep: 10k -> 1M cells, build/save/load/
        // check wall times, bytes/cell vs the String-per-entity baseline
        let report = foldic_bench::scale::run(
            foldic_bench::scale::SCALE_SEED,
            max_cells.unwrap_or(u64::MAX),
            &std::env::temp_dir(),
        );
        print!("{}", report.render());
        if let Some(path) = json_path {
            write_or_die(&path, &report.to_json());
            println!("bench: scale sweep -> {}", path.display());
        }
        return 0;
    }
    if max_cells.is_some() {
        usage_err("--max-cells only applies to `bench scale`");
    }
    let results = foldic_bench::kernels::run_kernels(&filter);
    if results.is_empty() {
        if let Some(pat) = &filter {
            println!("no kernel matched `{pat}`");
        }
    }
    if let Some(path) = json_path {
        write_or_die(&path, &foldic_bench::kernels::to_json(&results).to_pretty());
        println!("bench: {} kernel(s) -> {}", results.len(), path.display());
    }
    0
}

/// `repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
/// [--port-file PATH] [--log PATH] [--log-level LEVEL] [--journal PATH]
/// [--cache-dir DIR] [--breaker FAILURES[:COOLDOWN_SECS]]
/// [--mem-limit BYTES]`. Runs until
/// `POST /shutdown`, then drains. Exit code: 0 after a clean drain, 2 on
/// usage/bind errors (including an unreadable journal or cache dir: a
/// daemon that cannot honor its durability configuration must not boot).
fn run_serve(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut cfg = foldic_serve::ServerConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut log_path: Option<PathBuf> = None;
    let mut log_level = foldic_obs::log::Level::Info;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--log" => {
                let v = it.next().unwrap_or_else(|| usage_err("--log needs a path"));
                log_path = Some(PathBuf::from(v));
            }
            "--log-level" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--log-level needs debug|info|warn|error"));
                log_level = foldic_obs::log::Level::parse(v).unwrap_or_else(|| {
                    usage_err(&format!("unknown log level `{v}` (debug|info|warn|error)"))
                });
            }
            "--addr" => {
                addr = it
                    .next()
                    .unwrap_or_else(|| usage_err("--addr needs HOST:PORT"))
                    .clone();
            }
            "--workers" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--workers needs a value"));
                cfg.scheduler.workers = v.parse().unwrap_or_else(|_| {
                    usage_err(&format!("--workers needs a positive integer, got `{v}`"))
                });
                if cfg.scheduler.workers == 0 {
                    usage_err("--workers must be at least 1");
                }
            }
            "--queue-cap" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--queue-cap needs a value"));
                cfg.scheduler.queue_capacity = v.parse().unwrap_or_else(|_| {
                    usage_err(&format!("--queue-cap needs a positive integer, got `{v}`"))
                });
                if cfg.scheduler.queue_capacity == 0 {
                    usage_err("--queue-cap must be at least 1");
                }
            }
            "--port-file" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--port-file needs a path"));
                port_file = Some(PathBuf::from(v));
            }
            "--journal" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--journal needs a path"));
                cfg.journal = Some(PathBuf::from(v));
            }
            "--cache-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--cache-dir needs a directory"));
                cfg.cache_dir = Some(PathBuf::from(v));
            }
            "--mem-limit" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--mem-limit needs BYTES (e.g. 512M)"));
                if cfg.scheduler.mem_limit.is_some() {
                    usage_err("duplicate --mem-limit");
                }
                cfg.scheduler.mem_limit = Some(
                    parse_bytes(v)
                        .unwrap_or_else(|e: String| usage_err(&format!("--mem-limit: {e}"))),
                );
            }
            "--breaker" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--breaker needs FAILURES[:COOLDOWN_SECS]"));
                let (fails, cooldown) = match v.split_once(':') {
                    Some((f, c)) => (f, Some(c)),
                    None => (v.as_str(), None),
                };
                let failure_threshold: u32 = fails.parse().unwrap_or_else(|_| {
                    usage_err(&format!(
                        "--breaker needs a positive failure count, got `{v}`"
                    ))
                });
                if failure_threshold == 0 {
                    usage_err("--breaker failure count must be at least 1");
                }
                let default = foldic_serve::supervise::BreakerConfig::default();
                let cooldown = match cooldown {
                    Some(c) => std::time::Duration::from_secs(c.parse().unwrap_or_else(|_| {
                        usage_err(&format!(
                            "--breaker cooldown needs an integer number of seconds, got `{v}`"
                        ))
                    })),
                    None => default.cooldown,
                };
                cfg.breaker = Some(foldic_serve::supervise::BreakerConfig {
                    failure_threshold,
                    cooldown,
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => usage_err(&format!("unknown serve argument `{other}`")),
        }
    }
    let log = match &log_path {
        Some(path) => match foldic_obs::log::LogSink::to_file(path, log_level) {
            Ok(sink) => Some(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("serve: cannot open log {}: {e}", path.display());
                return 2;
            }
        },
        None => None,
    };
    let telemetry =
        foldic_serve::Telemetry::new(foldic_serve::TelemetryConfig { trace: true, log });
    let server = match foldic_serve::Server::bind_with_telemetry(
        &addr,
        std::sync::Arc::new(foldic_bench::serve::BenchRunner),
        cfg.clone(),
        telemetry,
    ) {
        Ok(server) => server,
        Err(e) => {
            // the error names the socket, cache dir or journal that failed
            eprintln!("serve: {e}");
            return 2;
        }
    };
    let bound = server.local_addr();
    println!(
        "serve: listening on {bound} ({} worker(s), queue capacity {})",
        cfg.scheduler.workers, cfg.scheduler.queue_capacity
    );
    if let Some(path) = &cfg.journal {
        println!("serve: job journal -> {}", path.display());
    }
    if let Some(dir) = &cfg.cache_dir {
        println!("serve: persistent result cache -> {}", dir.display());
    }
    if let Some(breaker) = &cfg.breaker {
        println!(
            "serve: circuit breaker armed ({} failure(s), {}s cooldown)",
            breaker.failure_threshold,
            breaker.cooldown.as_secs()
        );
    }
    if let Some(limit) = cfg.scheduler.mem_limit {
        println!(
            "serve: memory admission limit {} (cost-estimate reservations)",
            foldic::format_bytes(limit)
        );
    }
    if let Some(path) = &log_path {
        println!(
            "serve: structured log -> {} ({})",
            path.display(),
            log_level.as_str()
        );
    }
    if let Some(path) = port_file {
        // The port file is how scripts learn an ephemeral port; written
        // after the listener is live so its existence means "ready".
        write_or_die(&path, &bound.to_string());
        println!("serve: address written to {}", path.display());
    }
    server.wait_shutdown();
    println!("serve: drained, exiting");
    0
}

/// `repro loadgen`: runs one seeded scenario (`foldic_serve::scenario`):
/// load against `--addr`, or `--chaos SEED` / `--overload SEED` against
/// a daemon it boots from this same binary. Exit code: 0 on success (and
/// a passing gate when `--gate` is set), 1 on gate failure, 2 on usage
/// or harness errors, including a second scenario selector or a flag the
/// chosen scenario does not read.
fn run_loadgen(args: &[String]) -> i32 {
    use foldic_serve::scenario::{self, Config, Daemon, MixWeights, Scenario, Target};
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            flag @ ("--gate" | "--shutdown") => {
                flags.insert(flag, "");
            }
            flag @ ("--addr" | "--jobs" | "--clients" | "--seed" | "--mix" | "--experiments"
            | "--size" | "--json" | "--chaos" | "--overload") => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err(&format!("{flag} needs a value")));
                flags.insert(flag, v);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => usage_err(&format!("unknown loadgen argument `{other}`")),
        }
    }
    let (scenario, seed_flag, reads): (Scenario, &str, &[&str]) = match (
        flags.contains_key("--chaos"),
        flags.contains_key("--overload"),
    ) {
        (true, true) => usage_err("--chaos and --overload each select a scenario; give one"),
        (true, false) => (Scenario::Chaos, "--chaos", &["--experiments", "--size"]),
        (false, true) => (Scenario::Overload, "--overload", &[]),
        (false, false) => (
            Scenario::Load,
            "--seed",
            &[
                "--addr",
                "--clients",
                "--mix",
                "--experiments",
                "--size",
                "--shutdown",
            ],
        ),
    };
    let name = scenario.as_str();
    if let Some(flag) = flags
        .keys()
        .find(|&&f| !reads.contains(&f) && ![seed_flag, "--jobs", "--json", "--gate"].contains(&f))
    {
        usage_err(&format!("the {name} scenario does not read {flag}"));
    }
    let seed = flags.get(seed_flag).map(|v| {
        parse_u64_maybe_hex(v).unwrap_or_else(|| {
            usage_err(&format!(
                "{seed_flag} needs an integer seed (decimal or 0x hex), got `{v}`"
            ))
        })
    });
    let target = if scenario == Scenario::Load {
        let Some(v) = flags.get("--addr") else {
            usage_err(
                "loadgen needs --addr HOST:PORT (or --chaos SEED / --overload SEED for a harness)",
            );
        };
        Target::Attach(
            v.parse()
                .unwrap_or_else(|_| usage_err(&format!("--addr needs HOST:PORT, got `{v}`"))),
        )
    } else {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe.display().to_string(),
            Err(e) => {
                eprintln!("{name}: cannot locate own executable: {e}");
                return 2;
            }
        };
        // Kept on a failure so the journal and cache can be inspected; a
        // passing run removes it.
        let dir = std::env::temp_dir().join(format!(
            "foldic-{name}-{:x}-{}",
            seed.unwrap_or_default(),
            std::process::id()
        ));
        Target::Spawn {
            serve_cmd: vec![exe, "serve".to_owned()],
            dir,
        }
    };
    let mut cfg = Config::new(scenario, target);
    cfg.seed = seed.unwrap_or(cfg.seed);
    let positive = |flag: &str| -> Option<usize> {
        flags.get(flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                usage_err(&format!("{flag} needs a positive integer, got `{v}`"))
            })
        })
    };
    cfg.jobs = positive("--jobs").unwrap_or(cfg.jobs);
    cfg.clients = positive("--clients").unwrap_or(cfg.clients);
    if let Some(v) = flags.get("--mix") {
        cfg.mix = MixWeights::parse(v).unwrap_or_else(|e| usage_err(&format!("--mix: {e}")));
    }
    if let Some(v) = flags.get("--experiments") {
        cfg.experiments = v.split('+').map(str::to_owned).collect();
    }
    if let Some(v) = flags.get("--size") {
        cfg.size = (*v).to_owned();
    }

    let scratch = match &cfg.target {
        Target::Spawn { dir, .. } => format!(", scratch {}", dir.display()),
        Target::Attach(_) => String::new(),
    };
    println!("{name}: seed {:#x}, {} job(s){scratch}", cfg.seed, cfg.jobs);
    let report = match scenario::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{name}: {e}");
            return 2;
        }
    };
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(count, n)| format!("{count} {n}"))
        .collect();
    println!("{name}: {}", counts.join(", "));
    if scenario == Scenario::Load {
        let ms = |p| report.latency_ms.get(p).copied().unwrap_or(0.0);
        println!(
            "{name}: throughput {:.1} jobs/s, latency p50/p90/p99/max = {:.1}/{:.1}/{:.1}/{:.1} ms",
            report.throughput_jps,
            ms("p50"),
            ms("p90"),
            ms("p99"),
            ms("max"),
        );
    }
    if let Some(path) = flags.get("--json") {
        write_or_die(Path::new(path), &report.to_json().to_pretty());
        println!("{name}: report -> {path}");
    }
    let verdict = report.gate();
    match &cfg.target {
        Target::Attach(addr) if flags.contains_key("--shutdown") => {
            match Daemon::attach(*addr).shutdown(Duration::from_secs(10)) {
                Ok(()) => println!("{name}: asked {addr} to shut down"),
                Err(e) => eprintln!("{name}: {e}"),
            }
        }
        Target::Spawn { dir, .. } if verdict.is_ok() => {
            let _ = std::fs::remove_dir_all(dir);
        }
        _ => {}
    }
    if flags.contains_key("--gate") {
        if let Err(violations) = verdict {
            eprintln!("{name}: GATE FAILED: {}", violations.join("; "));
            return 1;
        }
        println!("{name}: gate passed");
    }
    0
}

/// `repro probe --addr HOST:PORT [--submit a+b] [--size S] [--seed S]
/// [--shutdown]`. A diagnostic client that validates a daemon's
/// telemetry surface with the in-repo parsers: `/healthz` liveness
/// fields, a `/metrics` scrape parsed as an exposition with the
/// contract series present, and (with `--submit`) one computed job
/// whose `/jobs/<id>/trace` loads as Chrome-trace JSON with the
/// `http.request → queue.wait → job.run` span chain. Exit code: 0 when
/// every probe passes, 1 on a telemetry contract violation, 2 on
/// usage errors.
fn run_probe(args: &[String]) -> i32 {
    let mut addr: Option<std::net::SocketAddr> = None;
    let mut submit: Option<Vec<String>> = None;
    let mut size = "tiny".to_owned();
    let mut seed: Option<u64> = None;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--addr needs HOST:PORT"));
                addr =
                    Some(v.parse().unwrap_or_else(|_| {
                        usage_err(&format!("--addr needs HOST:PORT, got `{v}`"))
                    }));
            }
            "--submit" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--submit needs a +-separated list"));
                submit = Some(v.split('+').map(str::to_owned).collect());
            }
            "--size" => {
                size = it
                    .next()
                    .unwrap_or_else(|| usage_err("--size needs a value (full|small|tiny)"))
                    .clone();
            }
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--seed needs a value"));
                seed = Some(parse_u64_maybe_hex(v).unwrap_or_else(|| {
                    usage_err(&format!(
                        "--seed needs an integer (decimal or 0x hex), got `{v}`"
                    ))
                }));
            }
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => usage_err(&format!("unknown probe argument `{other}`")),
        }
    }
    let Some(addr) = addr else {
        usage_err("probe needs --addr HOST:PORT");
    };
    match probe(addr, submit, &size, seed, shutdown) {
        Ok(()) => {
            println!("probe: ok");
            0
        }
        Err(e) => {
            eprintln!("probe: FAILED: {e}");
            1
        }
    }
}

fn probe(
    addr: std::net::SocketAddr,
    submit: Option<Vec<String>>,
    size: &str,
    seed: Option<u64>,
    shutdown: bool,
) -> Result<(), String> {
    use foldic_serve::scenario::{self, Submitted};
    use foldic_serve::{client, telemetry};
    const T: Duration = Duration::from_secs(30);
    const POLL: Duration = Duration::from_secs(600);

    let health = client::get(addr, "/healthz", T).map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }
    let doc = health.body_json()?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err("healthz body lacks ok=true".to_owned());
    }
    let version = doc
        .get("version")
        .and_then(Json::as_str)
        .ok_or("healthz lacks a version")?
        .to_owned();
    let uptime = doc
        .get("uptime_seconds")
        .and_then(Json::as_f64)
        .ok_or("healthz lacks uptime_seconds")?;
    println!("probe: healthz ok — version {version}, up {uptime:.1}s");

    let mut traced_job = None;
    if let Some(experiments) = submit {
        let spec = foldic_serve::JobSpec {
            experiments,
            size: size.to_owned(),
            seed,
            ..foldic_serve::JobSpec::default()
        };
        let id = match scenario::submit(addr, &spec) {
            // A hit never dispatches, so its trace has no execution
            // spans; the probe needs a config the daemon hasn't seen.
            Submitted::Hit(_) => {
                return Err(
                    "submitted config was already cached; probe with a fresh --seed".to_owned(),
                )
            }
            other => other.acked()?,
        };
        let settled = scenario::settle(addr, id, POLL)?;
        if settled.state != "done" {
            return Err(format!("job {id} ended {}", settled.state));
        }

        let trace = client::get(addr, &format!("/jobs/{id}/trace"), T)
            .map_err(|e| format!("trace fetch: {e}"))?;
        if trace.status != 200 {
            return Err(format!("trace returned {}", trace.status));
        }
        let doc = Json::parse(trace.body_text()?)?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("trace lacks a traceEvents array")?;
        let mut spans: BTreeMap<u64, (String, Option<u64>)> = BTreeMap::new();
        for event in events {
            if event.get("ph").and_then(Json::as_str) != Some("B") {
                continue;
            }
            let name = event
                .get("name")
                .and_then(Json::as_str)
                .ok_or("begin event lacks a name")?
                .to_owned();
            let args = event.get("args").ok_or("begin event lacks args")?;
            let span = args
                .get("span")
                .and_then(Json::as_f64)
                .ok_or("begin event lacks a span id")? as u64;
            let parent = args.get("parent").and_then(Json::as_f64).map(|p| p as u64);
            spans.insert(span, (name, parent));
        }
        let lookup = |want: &str| -> Result<(u64, Option<u64>), String> {
            spans
                .iter()
                .find(|(_, (name, _))| name == want)
                .map(|(span, (_, parent))| (*span, *parent))
                .ok_or_else(|| format!("trace lacks a `{want}` span"))
        };
        let (http_span, _) = lookup("http.request")?;
        let (qwait_span, qwait_parent) = lookup("queue.wait")?;
        let (run_span, run_parent) = lookup("job.run")?;
        if qwait_parent != Some(http_span) || run_parent != Some(qwait_span) {
            return Err(
                "trace spans are not nested http.request → queue.wait → job.run".to_owned(),
            );
        }
        println!(
            "probe: job {id} trace ok — {} begin span(s), root span {run_span} chain intact",
            spans.len()
        );
        traced_job = Some(id);
    }

    let scrape = client::get(addr, "/metrics", T).map_err(|e| format!("metrics: {e}"))?;
    if scrape.status != 200 {
        return Err(format!("metrics returned {}", scrape.status));
    }
    let samples = foldic_obs::expo::parse_exposition(scrape.body_text()?)?;
    for series in [
        telemetry::requests_series("healthz", "GET", 200),
        telemetry::SERIES_JOBS_SUBMITTED.to_owned(),
        "foldic_serve_uptime_seconds".to_owned(),
        "foldic_serve_workers".to_owned(),
    ] {
        if !samples.contains_key(&series) {
            return Err(format!("/metrics lacks required series {series}"));
        }
    }
    if traced_job.is_some()
        && samples
            .get(&telemetry::jobs_state_series("done"))
            .copied()
            .unwrap_or(0.0)
            < 1.0
    {
        return Err("/metrics does not count the probe job as done".to_owned());
    }
    println!(
        "probe: metrics ok — {} series ({})",
        samples.len(),
        telemetry::METRICS_SCHEMA
    );

    if shutdown {
        client::post(addr, "/shutdown", T).map_err(|e| format!("shutdown: {e}"))?;
        println!("probe: asked {addr} to shut down");
    }
    Ok(())
}

/// Parses `123` or `0x7b`.
fn parse_u64_maybe_hex(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// `repro compare <baseline.json> <candidate.json> [--tol PCT]`.
/// Exit code: 0 clean, 1 regression, 2 usage/parse error.
fn run_compare(args: &[String]) -> i32 {
    let mut paths: Vec<&str> = Vec::new();
    let mut cfg = CompareConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_err("--tol needs a percentage"));
                cfg.rel_tol_pct = v.parse().unwrap_or_else(|_| {
                    usage_err(&format!("--tol needs a number (percent), got `{v}`"))
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => usage_err(&format!("unknown flag `{other}`")),
            other => paths.push(other),
        }
    }
    let [base_path, cand_path] = paths[..] else {
        usage_err("compare needs exactly <baseline.json> <candidate.json>");
    };
    let load = |p: &str| -> RunManifest {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        RunManifest::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let base = load(base_path);
    let cand = load(cand_path);
    let outcome = compare(&base, &cand, cfg);
    for c in &outcome.changes {
        println!("  ~ {c}");
    }
    for r in &outcome.regressions {
        println!("  ! {r}");
    }
    println!(
        "compare: {} values, {} in-tolerance changes, {} regressions (tol {}%)",
        outcome.compared,
        outcome.changes.len(),
        outcome.regressions.len(),
        cfg.rel_tol_pct
    );
    if outcome.is_ok() {
        println!("OK: {cand_path} matches {base_path}");
        0
    } else {
        println!("REGRESSION: {cand_path} deviates from {base_path}");
        1
    }
}
