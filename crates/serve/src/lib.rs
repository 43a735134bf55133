#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `foldic-serve` — a batch design-study daemon.
//!
//! The rest of the workspace computes one study per process: the `repro`
//! CLI generates a design, runs the requested experiments and exits. The
//! dominant traffic shape of a *service* built on that harness is very
//! different — mostly re-runs of the same study with a small config delta
//! — which turns the manifest digest machinery of `foldic-obs` into a
//! cache key. This crate supplies the serving layer, zero-dependency like
//! the rest of the workspace (hand-rolled TCP + HTTP/1.1 + JSON, same
//! idiom as `foldic_obs::json`):
//!
//! * [`http`] — a bounded, typed HTTP/1.1 request parser and response
//!   writer. Truncated requests, oversized headers/bodies and malformed
//!   syntax yield typed 4xx errors, never panics or hangs;
//! * [`job`] — the job-submission JSON schema ([`job::JobSpec`]) with
//!   strict field validation;
//! * [`queue`] — a bounded FIFO [`queue::Scheduler`] with admission
//!   control (full queue ⇒ 429 + `Retry-After`), cancel-before-start,
//!   oversized jobs run alone, and drain-on-shutdown — a thread driver
//!   around one job-lifecycle state machine;
//! * [`supervise`] — the poison ledger and circuit breaker that state
//!   machine drives, as pure clock-explicit state machines;
//! * [`cache`] — the content-addressed [`cache::ResultCache`], keyed on
//!   the FNV-1a digest of the canonical manifest config (the `repro
//!   compare` schema), entries carrying full manifest provenance,
//!   optionally spilled to a verified-on-load cache directory;
//! * [`journal`] — the write-ahead job [`journal::Journal`]
//!   (`foldic-serve-journal/1`): fsync-before-ack acceptance records and
//!   torn-tail-tolerant replay, so a SIGKILLed daemon loses no
//!   acknowledged job;
//! * [`server`] — the TCP daemon tying it together: job submission,
//!   status/result/cancel endpoints, stats, graceful shutdown;
//! * [`client`] — a minimal blocking HTTP client for tests, the
//!   scenarios and `repro probe`;
//! * [`scenario`] — the seeded scenarios behind `repro loadgen`:
//!   a load mix cross-checked against the daemon's own counters, a
//!   SIGKILL-and-restart chaos run and a ledger-overload run, sharing one
//!   daemon handle, one submit-and-settle path and one
//!   `foldic-serve-scenario/1` report whose gate lists every violated
//!   invariant, so "heavy traffic", crash safety and graceful
//!   degradation are tested properties;
//! * [`telemetry`] — the live-telemetry hub: the
//!   `foldic-serve-metrics/1` exposition contract behind `GET /metrics`,
//!   request-id allocation, structured-log plumbing and the per-job
//!   trace mux behind `GET /jobs/<id>/trace`.
//!
//! The daemon is generic over a [`queue::StudyRunner`]; the real runner
//! (which executes `foldic-bench` experiments and emits run manifests)
//! lives in `foldic-bench`, keeping this crate free of flow dependencies.

pub mod cache;
pub mod client;
pub mod cost;
pub mod http;
pub mod job;
pub mod journal;
pub mod queue;
pub mod scenario;
pub mod server;
pub mod supervise;
pub mod telemetry;

pub use cache::ResultCache;
pub use job::JobSpec;
pub use journal::{Journal, JournalError, Replay};
pub use queue::{Scheduler, SchedulerConfig, StudyRunner, Submission};
pub use server::{Server, ServerConfig};
pub use telemetry::{Telemetry, TelemetryConfig};
