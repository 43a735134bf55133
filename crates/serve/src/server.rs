//! The TCP daemon: accept loop, routing, graceful shutdown.
//!
//! One thread accepts connections; each connection is handled on its own
//! thread, one request per connection (`Connection: close` — clients of a
//! batch service submit a handful of jobs, not thousands of pipelined
//! requests, and closed connections make the torn-write story simple).
//! Shutdown is graceful on both layers: the accept loop stops, in-flight
//! connections finish their single request, and the scheduler drains its
//! running jobs before workers are joined.
//!
//! Routes:
//!
//! | Method + path            | Purpose                                   |
//! |--------------------------|-------------------------------------------|
//! | `GET /healthz`           | liveness: version, uptime, build profile  |
//! | `GET /stats`             | scheduler + cache counters                |
//! | `GET /metrics`           | `foldic-serve-metrics/1` text exposition  |
//! | `POST /jobs`             | submit a job (`foldic-serve-job/1` body)  |
//! | `GET /jobs/<id>`         | job status                                |
//! | `GET /jobs/<id>/result`  | manifest body of a finished job           |
//! | `GET /jobs/<id>/trace`   | the job's span tree as Chrome-trace JSON  |
//! | `POST /jobs/<id>/cancel` | cancel a queued job                       |
//! | `GET /cache/<key>`       | provenance of a cached study              |
//! | `POST /shutdown`         | ask the daemon to drain and exit          |
//!
//! Every request is assigned a **request id** — taken from a
//! well-formed `X-Request-Id` header, freshly allocated otherwise —
//! echoed back in the `X-Request-Id` response header, stamped into every
//! 4xx/5xx JSON body as `request_id`, written on the access-log line,
//! and (for submissions) threaded into the scheduler so the job's span
//! tree roots under this request's `http.request` span.

use crate::cache::ResultCache;
use crate::http::{read_request, HttpError, Request, Response};
use crate::job::JobSpec;
use crate::journal::Journal;
use crate::queue::{
    Durability, JobState, Scheduler, SchedulerConfig, StudyRunner, Submission, SubmitCtx,
};
use crate::supervise::BreakerConfig;
use crate::telemetry::{endpoint_class, Telemetry, TelemetryConfig};
use foldic_obs::json::Json;
use foldic_obs::trace::{AttrValue, SpanGuard, SpanId};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The scheduler behind the daemon: queue capacity, workers and the
    /// cost-aware admission memory limit (`--mem-limit`).
    pub scheduler: SchedulerConfig,
    /// Socket read timeout — bounds how long a torn write can hold a
    /// connection thread (the request then fails with 408).
    pub read_timeout: Duration,
    /// Write-ahead job journal path (`--journal`): acknowledged jobs
    /// survive a crash and are replayed at the next boot. `None` (the
    /// default) keeps the daemon byte-identical to its pre-durability
    /// behavior.
    pub journal: Option<PathBuf>,
    /// Result-cache spill directory (`--cache-dir`): cached bodies
    /// persist across restarts, verified on load.
    pub cache_dir: Option<PathBuf>,
    /// Circuit-breaker tuning; `None` (the default) disables shedding.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            read_timeout: Duration::from_secs(5),
            journal: None,
            cache_dir: None,
            breaker: None,
        }
    }
}

struct Inner {
    scheduler: Scheduler,
    telemetry: Arc<Telemetry>,
    cfg: ServerConfig,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Set once a shutdown has been requested (endpoint or programmatic).
    signal: Mutex<bool>,
    signal_cv: Condvar,
    /// Open connection threads, drained before the scheduler stops.
    active: Mutex<usize>,
    active_cv: Condvar,
}

/// The running daemon.
pub struct Server {
    inner: Arc<Inner>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    done: Mutex<bool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// scheduler workers and the accept loop, and returns the handle.
    /// Tracing is on (so `/jobs/<id>/trace` serves span trees); no log
    /// sink is attached. Use [`Server::bind_with_telemetry`] to choose.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(
        addr: &str,
        runner: Arc<dyn StudyRunner>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_with_telemetry(
            addr,
            runner,
            cfg,
            Telemetry::new(TelemetryConfig {
                trace: true,
                log: None,
            }),
        )
    }

    /// [`Server::bind`] with an explicit telemetry hub (tracing choice,
    /// structured-log sink).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures, an unopenable/corrupt-header
    /// journal and an uncreatable cache directory — a daemon that cannot
    /// honor its durability configuration must not boot. The error's
    /// message names what failed: `cannot bind <addr>`, `cache dir
    /// <path>` or `journal <path>`.
    pub fn bind_with_telemetry(
        addr: &str,
        runner: Arc<dyn StudyRunner>,
        cfg: ServerConfig,
        telemetry: Arc<Telemetry>,
    ) -> std::io::Result<Self> {
        let naming = |what: String| {
            move |e: std::io::Error| std::io::Error::new(e.kind(), format!("{what}: {e}"))
        };
        let listener = TcpListener::bind(addr).map_err(naming(format!("cannot bind {addr}")))?;
        let local = listener
            .local_addr()
            .map_err(naming(format!("cannot bind {addr}")))?;
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::with_dir(dir)
                .map_err(naming(format!("cache dir {}", dir.display())))?,
            None => ResultCache::new(),
        };
        let journal =
            match &cfg.journal {
                Some(path) => Some(Journal::open(path).map_err(|e| {
                    std::io::Error::other(format!("journal {}: {e}", path.display()))
                })?),
                None => None,
            };
        let durability = Durability {
            journal,
            cache,
            breaker: cfg.breaker,
        };
        let inner = Arc::new(Inner {
            scheduler: Scheduler::with_durability(
                runner,
                cfg.scheduler,
                Arc::clone(&telemetry),
                durability,
            ),
            telemetry,
            cfg,
            addr: local,
            stop: AtomicBool::new(false),
            signal: Mutex::new(false),
            signal_cv: Condvar::new(),
            active: Mutex::new(0),
            active_cv: Condvar::new(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("foldic-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_inner))?;
        Ok(Self {
            inner,
            accept: Mutex::new(Some(accept)),
            done: Mutex::new(false),
        })
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The scheduler (direct submissions in tests, stats probes).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Blocks until a shutdown is requested (`POST /shutdown` or a
    /// concurrent [`Server::shutdown`] call), then drains and stops.
    pub fn wait_shutdown(&self) {
        let mut signalled = self.inner.signal.lock().unwrap_or_else(|e| e.into_inner());
        while !*signalled {
            signalled = self
                .inner
                .signal_cv
                .wait(signalled)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(signalled);
        self.shutdown();
    }

    /// Drains and stops: accept loop closed, open connections finished,
    /// scheduler drained, workers joined. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            if *done {
                return;
            }
            *done = true;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.signal_shutdown();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        let handle = {
            let mut guard = self.accept.lock().unwrap_or_else(|e| e.into_inner());
            guard.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // Let in-flight connections write their responses.
        let mut active = self.inner.active.lock().unwrap_or_else(|e| e.into_inner());
        while *active > 0 {
            active = self
                .inner
                .active_cv
                .wait(active)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(active);
        self.inner.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn signal_shutdown(&self) {
        let mut signalled = self.signal.lock().unwrap_or_else(|e| e.into_inner());
        *signalled = true;
        self.signal_cv.notify_all();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut active = inner.active.lock().unwrap_or_else(|e| e.into_inner());
            *active += 1;
        }
        let conn_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("foldic-serve-conn".to_owned())
            .spawn(move || {
                handle_connection(stream, &conn_inner);
                let mut active = conn_inner.active.lock().unwrap_or_else(|e| e.into_inner());
                *active -= 1;
                conn_inner.active_cv.notify_all();
            });
        if spawned.is_err() {
            let mut active = inner.active.lock().unwrap_or_else(|e| e.into_inner());
            *active -= 1;
            inner.active_cv.notify_all();
        }
    }
}

/// Per-request context handed down the routing tree.
struct RequestCtx {
    /// The request id (client-supplied or allocated).
    request_id: String,
    /// The `http.request` span, when tracing is on.
    span: Option<SpanId>,
}

/// A well-formed client token: 1–64 chars of `[A-Za-z0-9._-]`. Shared
/// by `X-Request-Id` and `X-Idempotency-Key` validation.
fn well_formed_token(value: &str) -> bool {
    !value.is_empty()
        && value.len() <= 64
        && value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The request id for `request`: a well-formed `X-Request-Id` header is
/// honored, anything else replaced with a freshly allocated id.
fn request_id_for(request: &Request, telemetry: &Telemetry) -> String {
    if let Some(supplied) = request.header("x-request-id") {
        if well_formed_token(supplied) {
            return supplied.to_owned();
        }
    }
    telemetry.next_request_id()
}

fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut stream = stream;
    let started = Instant::now();
    let telemetry = &inner.telemetry;
    let (mut response, endpoint, method, request_id) = match read_request(&mut reader) {
        Ok(request) => {
            let request_id = request_id_for(&request, telemetry);
            let endpoint = endpoint_class(&request.method, &request.path);
            // The request span roots the whole tree: queue wait, run and
            // flow/stage spans of a submitted job all nest beneath it.
            let span = if telemetry.trace_enabled() {
                SpanGuard::begin(
                    "http.request",
                    vec![
                        ("method", AttrValue::from(request.method.clone())),
                        ("path", AttrValue::from(request.path.clone())),
                        ("request_id", AttrValue::from(request_id.clone())),
                    ],
                )
            } else {
                SpanGuard::disabled()
            };
            let ctx = RequestCtx {
                request_id: request_id.clone(),
                span: span.id(),
            };
            let response = route(&request, inner, &ctx);
            drop(span);
            (response, endpoint, request.method.clone(), request_id)
        }
        Err(HttpError::Closed) => return,
        Err(e) => (
            Response::error(e.status(), e.message()),
            "invalid",
            "-".to_owned(),
            telemetry.next_request_id(),
        ),
    };
    if response.status >= 400 {
        response = response.with_request_id(&request_id);
    }
    let response = response.with_header("X-Request-Id", request_id.clone());
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    telemetry.record_request(endpoint, &method, response.status, latency_ms, &request_id);
    let _ = response.write_to(&mut stream);
}

/// Dispatches one parsed request to its handler.
fn route(request: &Request, inner: &Arc<Inner>, ctx: &RequestCtx) -> Response {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj([
                ("ok".to_owned(), Json::Bool(true)),
                (
                    "profile".to_owned(),
                    Json::Str(
                        if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }
                        .to_owned(),
                    ),
                ),
                (
                    "schema".to_owned(),
                    Json::Str("foldic-serve-health/1".to_owned()),
                ),
                (
                    "uptime_seconds".to_owned(),
                    Json::Num(inner.telemetry.uptime_secs() as f64),
                ),
                (
                    "version".to_owned(),
                    Json::Str(env!("CARGO_PKG_VERSION").to_owned()),
                ),
            ]),
        ),
        ("GET", "/stats") => Response::json(200, &inner.scheduler.stats_json()),
        ("GET", "/metrics") => Response {
            status: 200,
            headers: Vec::new(),
            body: inner.scheduler.metrics_text().into_bytes(),
            content_type: "text/plain; version=0.0.4",
        },
        ("POST", "/jobs") => submit(request, inner, ctx),
        ("POST", "/shutdown") => {
            inner.signal_shutdown();
            Response::json(
                200,
                &Json::obj([
                    ("ok".to_owned(), Json::Bool(true)),
                    ("draining".to_owned(), Json::Bool(true)),
                ]),
            )
        }
        (_, "/healthz" | "/stats" | "/metrics" | "/jobs" | "/shutdown") => {
            Response::error(405, &format!("method {method} not allowed on {path}"))
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                return job_route(method, rest, inner);
            }
            if let Some(key) = path.strip_prefix("/cache/") {
                if method != "GET" {
                    return Response::error(405, "cache entries are read-only");
                }
                return match inner.scheduler.cache().provenance_json(key) {
                    Some(doc) => Response::json(200, &doc),
                    None => Response::error(404, &format!("no cache entry `{key}`")),
                };
            }
            Response::error(404, &format!("no route for {path}"))
        }
    }
}

/// `POST /jobs`: parse, validate, submit, map the outcome to a response.
fn submit(request: &Request, inner: &Arc<Inner>, ctx: &RequestCtx) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&json) {
        Ok(spec) => spec,
        Err(msg) => return Response::error(400, &msg),
    };
    // A malformed idempotency key is a client bug worth surfacing — a
    // silently dropped key would quietly re-enable double enqueues.
    let idempotency_key = match request.header("x-idempotency-key") {
        Some(supplied) if well_formed_token(supplied) => Some(supplied.to_owned()),
        Some(_) => {
            return Response::error(
                400,
                "x-idempotency-key must be 1-64 chars of [A-Za-z0-9._-]",
            )
        }
        None => None,
    };
    let submit_ctx = SubmitCtx {
        request_id: ctx.request_id.clone(),
        parent_span: ctx.span,
        idempotency_key,
    };
    match inner.scheduler.submit_traced(spec, Some(submit_ctx)) {
        Submission::Hit { id } => Response::json(
            200,
            &Json::obj([
                ("job".to_owned(), Json::Num(id as f64)),
                ("state".to_owned(), Json::Str("done".to_owned())),
                ("cache".to_owned(), Json::Str("hit".to_owned())),
            ]),
        ),
        Submission::Queued { id } => Response::json(
            202,
            &Json::obj([
                ("job".to_owned(), Json::Num(id as f64)),
                ("state".to_owned(), Json::Str("queued".to_owned())),
                ("cache".to_owned(), Json::Str("miss".to_owned())),
            ]),
        ),
        Submission::Duplicate { id } => {
            // The earlier acceptance already answered this logical
            // request: point the client at that job.
            let state = inner
                .scheduler
                .status(id)
                .map_or(JobState::Queued, |s| s.state);
            Response::json(
                200,
                &Json::obj([
                    ("idempotent_replay".to_owned(), Json::Bool(true)),
                    ("job".to_owned(), Json::Num(id as f64)),
                    ("state".to_owned(), Json::Str(state.as_str().to_owned())),
                ]),
            )
        }
        Submission::Rejected { retry_after_secs } => {
            Response::error(429, "queue full; retry later")
                .with_header("Retry-After", retry_after_secs.to_string())
        }
        Submission::Shed { retry_after_secs } => {
            Response::error(503, "service unhealthy; retry later")
                .with_header("Retry-After", retry_after_secs.to_string())
        }
        Submission::Draining => Response::error(503, "daemon is draining"),
        Submission::Invalid(msg) => Response::error(400, &msg),
    }
}

/// `/jobs/<id>`, `/jobs/<id>/result`, `/jobs/<id>/trace`,
/// `/jobs/<id>/cancel`.
fn job_route(method: &str, rest: &str, inner: &Arc<Inner>) -> Response {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id `{id_text}`"));
    };
    match (method, tail) {
        ("GET", None) => match inner.scheduler.status(id) {
            Some(status) => Response::json(200, &status.to_json()),
            None => Response::error(404, &format!("no job {id}")),
        },
        ("GET", Some("result")) => match inner.scheduler.status(id) {
            None => Response::error(404, &format!("no job {id}")),
            Some(status) => match status.state {
                JobState::Done => match status.body {
                    Some(body) => Response::json_text(200, &body),
                    None => Response::error(500, "done job has no body"),
                },
                JobState::Failed => {
                    Response::error(500, status.error.as_deref().unwrap_or("job failed"))
                }
                state => Response::error(409, &format!("job {id} is {}, not done", state.as_str())),
            },
        },
        ("GET", Some("trace")) => {
            if inner.scheduler.status(id).is_none() {
                return Response::error(404, &format!("no job {id}"));
            }
            match inner.telemetry.job_trace_json(id) {
                Some(doc) => Response::json_text(200, &doc),
                None => Response::error(404, &format!("no trace recorded for job {id}")),
            }
        }
        ("POST", Some("cancel")) => match inner.scheduler.cancel(id) {
            Some(state) => Response::json(
                200,
                &Json::obj([
                    ("job".to_owned(), Json::Num(id as f64)),
                    ("state".to_owned(), Json::Str(state.as_str().to_owned())),
                ]),
            ),
            None => Response::error(404, &format!("no job {id}")),
        },
        _ => Response::error(405, &format!("no {method} on /jobs/{rest}")),
    }
}
