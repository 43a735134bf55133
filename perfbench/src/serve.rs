//! The `serve_mix` workload: a `repro serve` daemon with two workers,
//! driven open loop at a fixed arrival rate over at most two connections
//! (one submitter, one poller — `nproc` on the reference machine).
//!
//! Every job is timed from when it was due, not from when it was sent,
//! so a stalled generator shows up as latency; how late the generator ran
//! is reported beside the latencies.

use crate::report::{median, mix, ms_since, peak_rss_mib, percentile, RunReport};
use foldic::{run_fullchip, DesignStyle, FullChipConfig};
use foldic_bench::serve::BenchRunner;
use foldic_obs::expo::parse_exposition;
use foldic_obs::json::Json;
use foldic_serve::client::{get, post, post_json, HttpResponse};
use foldic_serve::queue::StudyRunner;
use foldic_serve::telemetry::{
    jobs_state_series, SERIES_CACHE_HITS, SERIES_CACHE_MISSES, SERIES_JOBS_REJECTED,
};
use foldic_serve::JobSpec;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const WORKERS: &str = "2";
/// Daemon boots (each with its cache warm-up) per run; `setup_s` is the
/// median.
const SETUP_REPS: usize = 7;
/// Distinct cached studies the hit jobs draw from.
const HIT_CONFIGS: u64 = 2;
/// The arrival pattern, repeated: five cache hits, three tiny misses, one
/// cancel and one generous-deadline job per block of ten. The order is
/// fixed so every run meets the same queueing.
const BLOCK: [Kind; 10] = [
    Kind::Hit,
    Kind::Miss,
    Kind::Hit,
    Kind::Cancel,
    Kind::Hit,
    Kind::Miss,
    Kind::Hit,
    Kind::Deadline,
    Kind::Hit,
    Kind::Miss,
];
/// Seconds between arrivals. A computed job (a tiny-size `fig2` study)
/// takes ~0.3 s of one worker and arrives 1 s after the previous one, so
/// computed jobs do not overlap and the workers stay busy about 15 % of
/// the time. Busier mixes (`table3` misses of ~0.8 s: ~40 %) overlap
/// jobs whenever the shared host slows, which amplified its drift into
/// 15 % run-to-run latency spreads.
const INTERARRIVAL_S: f64 = 0.5;
const POLL_INTERVAL: Duration = Duration::from_millis(10);
const TIMEOUT: Duration = Duration::from_secs(30);
/// How long outstanding jobs may take to finish after the last arrival.
const DRAIN: Duration = Duration::from_secs(60);
/// The generous wall-clock budget of deadline jobs.
const DEADLINE_SECS: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Deadline,
    Cancel,
}

fn spec(seed: u64, deadline: bool) -> JobSpec {
    JobSpec {
        experiments: vec!["fig2".to_owned()],
        size: "tiny".to_owned(),
        seed: Some(seed),
        deadline_secs: deadline.then_some(DEADLINE_SECS),
        ..JobSpec::default()
    }
}

/// The `k`-th study design of a pool, as a seed in the range a JSON
/// number carries exactly. Every run draws from the same pools — tiny
/// designs differ in run time by tens of percent, which would otherwise
/// swamp the latencies — and the workload seed only orders them.
fn design_seed(pool: u64, k: u64) -> u64 {
    mix(0x0DAC_2014, pool << 32 | k) >> 12
}

/// Pool ids of the studies each kind of job submits.
const HIT_POOL: u64 = 0;
fn pool_of(kind: Kind) -> u64 {
    match kind {
        Kind::Hit => HIT_POOL,
        Kind::Miss => 1,
        Kind::Deadline => 2,
        Kind::Cancel => 3,
    }
}

/// A `repro serve` child, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn boot(repro: &Path, work: &Path, tag: usize) -> Result<Self, String> {
        let port_file = work.join(format!("serve-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join("serve.stderr"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", WORKERS])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let start = Instant::now();
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse().ok())
            {
                daemon.addr = addr;
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during boot: {status}"));
            }
            if start.elapsed() > TIMEOUT {
                return Err("daemon did not write its port file".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = std::fs::remove_file(&port_file);
        while !get(daemon.addr, "/healthz", TIMEOUT).is_ok_and(|r| r.status == 200) {
            if start.elapsed() > TIMEOUT {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let r = get(self.addr, "/metrics", TIMEOUT).map_err(|e| format!("/metrics: {e}"))?;
        parse_exposition(r.body_text()?)
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) {
        let _ = post(self.addr, "/shutdown", TIMEOUT);
        let start = Instant::now();
        while start.elapsed() < TIMEOUT {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn job_id(r: &HttpResponse) -> Result<u64, String> {
    r.body_json()?
        .get("job")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| "response without a job id".to_owned())
}

fn state_of(r: &HttpResponse) -> Option<String> {
    r.body_json()
        .ok()?
        .get("state")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// Submits the hit studies and waits until the daemon has cached them.
fn warm(d: &Daemon) -> Result<(), String> {
    let mut ids = Vec::new();
    for k in 0..HIT_CONFIGS {
        let r = post_json(
            d.addr,
            "/jobs",
            &spec(design_seed(HIT_POOL, k), false).to_json(),
            TIMEOUT,
        )
        .map_err(|e| format!("warm-up submit: {e}"))?;
        ids.push(job_id(&r)?);
    }
    let start = Instant::now();
    for id in ids {
        loop {
            let r = get(d.addr, &format!("/jobs/{id}"), TIMEOUT)
                .map_err(|e| format!("warm-up poll: {e}"))?;
            match state_of(&r).as_deref() {
                Some("done") => break,
                Some("failed" | "cancelled") => return Err(format!("warm-up job {id} failed")),
                _ if start.elapsed() > DRAIN => return Err("warm-up timed out".into()),
                _ => std::thread::sleep(POLL_INTERVAL),
            }
        }
    }
    Ok(())
}

struct Planned {
    kind: Kind,
    due: Duration,
    spec: JobSpec,
}

/// The arrival plan for `seconds`: whole blocks of [`BLOCK`] at a fixed
/// spacing. Each kind takes its pool's studies in a seeded order; every
/// computed study is distinct within a run, so it misses the cache.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let blocks = ((seconds / INTERARRIVAL_S) as usize / BLOCK.len()).max(1);
    let kinds: Vec<Kind> = BLOCK
        .iter()
        .cycle()
        .take(blocks * BLOCK.len())
        .copied()
        .collect();
    let mut orders: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &kind in &kinds {
        let size = if kind == Kind::Hit { HIT_CONFIGS } else { 0 };
        orders
            .entry(pool_of(kind))
            .or_insert_with(|| (0..size).collect());
        if kind != Kind::Hit {
            let order = orders.get_mut(&pool_of(kind)).expect("inserted");
            order.push(order.len() as u64);
        }
    }
    for (pool, order) in &mut orders {
        for i in (1..order.len()).rev() {
            let j = (mix(seed, *pool << 32 | i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    let mut next: BTreeMap<u64, usize> = BTreeMap::new();
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let pool = pool_of(kind);
            let order = &orders[&pool];
            let slot = next.entry(pool).or_insert(0);
            let k = order[*slot % order.len()];
            *slot += 1;
            let spec = spec(design_seed(pool, k), kind == Kind::Deadline);
            Planned {
                kind,
                due: Duration::from_secs_f64(i as f64 * INTERARRIVAL_S),
                spec,
            }
        })
        .collect()
}

/// A queued job handed from the submitter to the poller.
struct Pending {
    id: u64,
    kind: Kind,
    due: Instant,
    spec: JobSpec,
}

/// What one finished job looked like from the client.
struct Outcome {
    kind: Kind,
    state: String,
    latency_ms: f64,
    spec: JobSpec,
    body: Option<String>,
}

#[derive(Default)]
struct Client {
    submitted: u64,
    rejected: u64,
    errors: Vec<String>,
    hit_missed: u64,
    miss_hit: u64,
    lag_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    polls: u64,
    useful_polls: u64,
}

/// Runs the plan against the daemon: the calling thread submits on
/// schedule, a second thread polls queued jobs to completion.
fn drive(d: &Daemon, planned: Vec<Planned>) -> (Client, f64) {
    let addr = d.addr;
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    let poller = std::thread::spawn(move || poll_jobs(addr, rx));
    let mut c = Client::default();
    for p in planned {
        let due = start + p.due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        c.lag_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let t = Instant::now();
        let r = match post_json(addr, "/jobs", &p.spec.to_json(), TIMEOUT) {
            Ok(r) => r,
            Err(e) => {
                c.errors.push(format!("submit: {e}"));
                continue;
            }
        };
        c.submit_ms.push(ms_since(t));
        c.submitted += 1;
        match r.status {
            200 => {
                if p.kind != Kind::Hit {
                    c.miss_hit += 1;
                }
                let outcome = job_id(&r).and_then(|id| {
                    let r = get(addr, &format!("/jobs/{id}/result"), TIMEOUT)
                        .map_err(|e| format!("hit result: {e}"))?;
                    Ok(r.body_text()?.to_owned())
                });
                match outcome {
                    Ok(body) => c.outcomes.push(Outcome {
                        kind: Kind::Hit,
                        state: "done".into(),
                        latency_ms: Instant::now().duration_since(due).as_secs_f64() * 1e3,
                        spec: p.spec,
                        body: Some(body),
                    }),
                    Err(e) => c.errors.push(e),
                }
            }
            202 => {
                if p.kind == Kind::Hit {
                    c.hit_missed += 1;
                }
                let id = match job_id(&r) {
                    Ok(id) => id,
                    Err(e) => {
                        c.errors.push(e);
                        continue;
                    }
                };
                if p.kind == Kind::Cancel {
                    if let Err(e) = post(addr, &format!("/jobs/{id}/cancel"), TIMEOUT) {
                        c.errors.push(format!("cancel: {e}"));
                    }
                }
                let _ = tx.send(Pending {
                    id,
                    kind: p.kind,
                    due,
                    spec: p.spec,
                });
            }
            429 | 503 => c.rejected += 1,
            s => c.errors.push(format!("submit answered {s}")),
        }
    }
    drop(tx);
    let (outcomes, polls, useful, errors) = poller.join().expect("poller thread panicked");
    c.outcomes.extend(outcomes);
    c.polls = polls;
    c.useful_polls = useful;
    c.errors.extend(errors);
    (c, start.elapsed().as_secs_f64())
}

type Polled = (Vec<Outcome>, u64, u64, Vec<String>);

fn poll_jobs(addr: SocketAddr, rx: mpsc::Receiver<Pending>) -> Polled {
    let mut pending: Vec<Pending> = Vec::new();
    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    let (mut polls, mut useful) = (0u64, 0u64);
    let mut open = true;
    let mut closed_at: Option<Instant> = None;
    while open || !pending.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    closed_at.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        if closed_at.is_some_and(|t| t.elapsed() > DRAIN) {
            errors.push(format!(
                "{} jobs still running after the drain",
                pending.len()
            ));
            break;
        }
        let mut k = 0;
        while k < pending.len() {
            let p = &pending[k];
            polls += 1;
            let state = match get(addr, &format!("/jobs/{}", p.id), TIMEOUT) {
                Ok(r) => state_of(&r),
                Err(e) => {
                    errors.push(format!("poll: {e}"));
                    None
                }
            };
            let Some(state) =
                state.filter(|s| matches!(s.as_str(), "done" | "failed" | "cancelled"))
            else {
                k += 1;
                continue;
            };
            useful += 1;
            let p = pending.swap_remove(k);
            let body = if state == "done" {
                match get(addr, &format!("/jobs/{}/result", p.id), TIMEOUT) {
                    Ok(r) => r.body_text().ok().map(str::to_owned),
                    Err(e) => {
                        errors.push(format!("result: {e}"));
                        None
                    }
                }
            } else {
                None
            };
            outcomes.push(Outcome {
                kind: p.kind,
                state,
                latency_ms: Instant::now().duration_since(p.due).as_secs_f64() * 1e3,
                spec: p.spec,
                body,
            });
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    (outcomes, polls, useful, errors)
}

/// Percentile estimate from the bucket deltas of a power-of-two
/// histogram in the exposition (`family_bucket{le="…"}` series).
fn histogram_percentile(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    family: &str,
    q: f64,
) -> f64 {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = after
        .iter()
        .filter_map(|(k, v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, v - before.get(k).copied().unwrap_or(0.0)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, cum) in buckets {
        if cum >= target {
            if le.is_infinite() {
                return lo;
            }
            let inside = cum - below;
            let frac = if inside > 0.0 {
                (target - below) / inside
            } else {
                1.0
            };
            return lo + (le - lo) * frac;
        }
        lo = if le > 0.0 { le } else { 0.0 };
        below = cum;
    }
    lo
}

fn repro_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("repro");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing; build foldic-bench's repro beside perfbench",
            path.display()
        ))
    }
}

/// QoR of the flows the jobs are made of: 2D and core/core on the
/// paper's tiny design, in process, before the daemon starts.
fn reference_flows(rep: &mut RunReport) -> Result<(), String> {
    let (design, tech) = crate::flow::t2_config("tiny").generate();
    let cfg = FullChipConfig {
        threads: 1,
        ..FullChipConfig::default()
    };
    let mut results = Vec::new();
    for style in [DesignStyle::Flat2d, DesignStyle::CoreCore] {
        let mut d = design.clone();
        results.push(
            run_fullchip(&mut d, &tech, style, &cfg)
                .map_err(|e| format!("full-chip {}: {e}", style.slug()))?,
        );
    }
    let (base, head) = (&results[0], &results[1]);
    rep.check(
        head.chip.power.total_uw() < base.chip.power.total_uw(),
        || "core/core is not below 2D in power".into(),
    );
    crate::flow::qor_metrics(base, head, &tech, rep);
    Ok(())
}

/// Runs the workload; the per-layer metrics ride along in every run.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<RunReport, String> {
    let repro = repro_path()?;
    let mut rep = RunReport::default();
    reference_flows(&mut rep)?;

    // set-up: boot to healthy plus cache warm-up, several times
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for tag in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        let t = Instant::now();
        let d = Daemon::boot(&repro, work, tag)?;
        warm(&d)?;
        setup_s.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let d = daemon.expect("at least one boot");

    let before = d.metrics()?;
    let planned = plan(seed, seconds);
    let planned_kinds: Vec<Kind> = planned.iter().map(|p| p.kind).collect();
    let (c, window_s) = drive(&d, planned);
    let after = d.metrics()?;
    let rss = d.peak_rss_mib().ok_or("cannot read the daemon's VmHWM")?;
    d.shutdown();

    let count = |k: Kind| planned_kinds.iter().filter(|&&p| p == k).count() as u64;
    let ended = |state: &str| c.outcomes.iter().filter(|o| o.state == state).count() as f64;
    let lat = |kinds: &[Kind]| -> Vec<f64> {
        c.outcomes
            .iter()
            .filter(|o| kinds.contains(&o.kind) && o.state == "done")
            .map(|o| o.latency_ms)
            .collect()
    };
    let failed_jobs = c
        .outcomes
        .iter()
        .filter(|o| o.state == "failed" || (o.kind != Kind::Cancel && o.state != "done"))
        .count() as u64;
    rep.attempted = planned_kinds.len() as u64;
    rep.failed = failed_jobs + c.rejected + c.errors.len() as u64;
    for e in &c.errors {
        rep.check(false, || format!("client error: {e}"));
    }
    rep.check(c.hit_missed == 0, || {
        format!("{} planned hits missed", c.hit_missed)
    });
    rep.check(c.miss_hit == 0, || {
        format!("{} planned misses hit", c.miss_hit)
    });
    rep.check(failed_jobs == 0, || format!("{failed_jobs} jobs failed"));

    // the daemon's own counters must agree with the client's view
    let delta = |series: &str| {
        after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
    };
    let completed = ended("done");
    let hits = lat(&[Kind::Hit]).len() as f64;
    for (what, series, client) in [
        ("done jobs", jobs_state_series("done"), completed),
        (
            "cancelled jobs",
            jobs_state_series("cancelled"),
            ended("cancelled"),
        ),
        ("failed jobs", jobs_state_series("failed"), ended("failed")),
        (
            "rejections",
            SERIES_JOBS_REJECTED.to_owned(),
            c.rejected as f64,
        ),
        ("cache hits", SERIES_CACHE_HITS.to_owned(), hits),
        (
            "cache misses",
            SERIES_CACHE_MISSES.to_owned(),
            c.submitted as f64 - hits - count(Kind::Deadline) as f64,
        ),
    ] {
        let server = delta(&series);
        rep.check(server == client, || {
            format!("daemon counted {server} {what}, the client saw {client}")
        });
    }

    // served bodies must equal one-shot runs of the same study
    let mut bodies: BTreeMap<String, (JobSpec, String)> = BTreeMap::new();
    for o in &c.outcomes {
        if let Some(body) = &o.body {
            let key = format!("{:?}", o.spec);
            match bodies.get(&key) {
                Some((_, first)) => rep.check(first == body, || {
                    format!("two served bodies of {key} differ")
                }),
                None => {
                    bodies.insert(key, (o.spec.clone(), body.clone()));
                }
            }
        }
    }
    let mut checked = [false; 3];
    for (spec, body) in bodies.values() {
        let slot = match (spec.deadline_secs.is_some(), spec.seed) {
            (true, _) => 2,
            (false, Some(s)) if (0..HIT_CONFIGS).any(|k| design_seed(HIT_POOL, k) == s) => 0,
            _ => 1,
        };
        if std::mem::replace(&mut checked[slot], true) {
            continue;
        }
        let one_shot = BenchRunner.run(spec)?;
        rep.check(&one_shot == body, || {
            format!("served body of {spec:?} differs from the one-shot run")
        });
    }
    rep.check(checked.iter().all(|&c| c), || {
        "not every job kind produced a body to check".into()
    });

    // end-to-end
    let misses = lat(&[Kind::Miss, Kind::Deadline]);
    let run_ms = delta("foldic_serve_job_run_ms_sum");
    rep.set("setup_s", median(&setup_s), "s");
    // the daemon's own run time of a job: the flows it serves
    let mean_run_s = run_ms / 1e3 / delta("foldic_serve_job_run_ms_count").max(1.0);
    rep.set("flow_s", mean_run_s, "s");
    rep.set("jobs_per_s", completed / window_s, "1/s");
    rep.set("miss_latency_p50_ms", percentile(&misses, 0.5), "ms");
    rep.set("miss_latency_p75_ms", percentile(&misses, 0.75), "ms");
    rep.set("peak_rss_mib", rss, "MiB");

    // per layer
    let wait_p90 = histogram_percentile(&before, &after, "foldic_serve_job_wait_ms", 0.9);
    let run_p50 = histogram_percentile(&before, &after, "foldic_serve_job_run_ms", 0.5);
    let workers: f64 = WORKERS.parse().expect("a worker count");
    let high_water = after.get("foldic_serve_queue_high_water").copied();
    let layer = [
        ("serve.submit_p90_ms", percentile(&c.submit_ms, 0.9), "ms"),
        (
            "serve.hit_latency_p90_ms",
            percentile(&lat(&[Kind::Hit]), 0.9),
            "ms",
        ),
        (
            "serve.cache_hit_ratio",
            hits / (hits + delta(SERIES_CACHE_MISSES)).max(1.0),
            "ratio",
        ),
        ("serve.queue_wait_p90_ms", wait_p90, "ms"),
        ("serve.run_p50_ms", run_p50, "ms"),
        ("serve.queue_high_water", high_water.unwrap_or(0.0), "count"),
        (
            "serve.deadline_latency_p50_ms",
            percentile(&lat(&[Kind::Deadline]), 0.5),
            "ms",
        ),
        (
            "serve.worker_busy_ratio",
            run_ms / (1e3 * workers * window_s),
            "ratio",
        ),
        (
            "serve.poll_useful_ratio",
            c.useful_polls as f64 / c.polls.max(1) as f64,
            "ratio",
        ),
        ("serve.rejected", c.rejected as f64, "count"),
        (
            "serve.fail_ratio",
            rep.failed as f64 / rep.attempted as f64,
            "ratio",
        ),
        ("serve.gen_lag_p50_ms", percentile(&c.lag_ms, 0.5), "ms"),
        ("serve.gen_lag_max_ms", percentile(&c.lag_ms, 1.0), "ms"),
    ];
    for (name, value, unit) in layer {
        rep.set(name, value, unit);
    }
    Ok(rep)
}
