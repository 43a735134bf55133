//! `foldic-obs` — observability for the foldic flows.
//!
//! Three layers, all zero-dependency and offline-first like
//! `foldic-exec`:
//!
//! 1. **Structured spans and events** ([`trace`]): the [`span!`] macro
//!    opens a named, attributed span; nesting is tracked per thread and
//!    inherited across `foldic-exec` pool jobs. Recorded events export as
//!    Chrome-trace JSON (loadable in `chrome://tracing` or Perfetto) or
//!    JSONL, or fold into the per-stage table ([`stages`]).
//! 2. **Metrics registry** ([`metrics`]): named counters, gauges, and
//!    log-bucketed histograms with order-independent accumulators, a
//!    stable-ordered text dump, and JSON export.
//! 3. **Run manifests** ([`manifest`]): the machine-readable record of a
//!    `repro` run, plus [`manifest::compare`] — the regression gate
//!    behind `repro compare`.
//!
//! Serving telemetry adds two more, built on the same layers:
//!
//! 4. **Text exposition** ([`expo`]): Prometheus-style rendering of a
//!    metrics [`Snapshot`], with a matching parser and series filter —
//!    the format behind the daemon's `GET /metrics`.
//! 5. **Structured logs** ([`log`]): leveled JSONL with deterministic
//!    field order — the daemon's access+app log.
//!
//! Every hook costs one relaxed atomic load while its layer is disabled
//! and allocates nothing, so instrumentation stays in release builds.

#![warn(missing_docs)]

pub mod expo;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod stages;
pub mod trace;

pub use manifest::{compare, CompareConfig, CompareOutcome, RunManifest};
pub use metrics::{Registry, Snapshot};
pub use trace::SpanGuard;

/// Opens a span that closes when the returned guard drops.
///
/// ```
/// let _span = foldic_obs::span!("place", block = "cpu0", tier = 1i64);
/// // ... work ...
/// ```
///
/// Attribute values are anything convertible to
/// [`trace::AttrValue`] (`&str`, `String`, integers, `f64`, `bool`).
/// When tracing is disabled the macro performs a single relaxed atomic
/// load and allocates nothing.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::is_enabled() {
            $crate::trace::SpanGuard::begin(
                $name,
                vec![$((stringify!($key), $crate::trace::AttrValue::from($value))),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}
