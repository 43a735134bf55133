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
//! While a layer records, its bookkeeping runs inside [`Bookkeeping`],
//! which memory accounting skips: what the registry, the trace buffers
//! and span attributes allocate is charged to no job.

#![warn(missing_docs)]

use std::cell::Cell;
use std::marker::PhantomData;

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

thread_local! {
    /// Depth of [`Bookkeeping`] guards open on this thread. Const-initialized
    /// `Cell`: reading it never allocates, so a global allocator may.
    static BOOKKEEPING: Cell<u32> = const { Cell::new(0) };
}

/// `true` while this thread runs observability bookkeeping (inside a
/// [`Bookkeeping`] guard). A memory accountant skips allocations made
/// here, so whether metrics or traces record never changes what a job is
/// charged. Never allocates.
#[inline]
pub fn in_bookkeeping() -> bool {
    BOOKKEEPING
        .try_with(|depth| depth.get() > 0)
        .unwrap_or(false)
}

/// Marks observability bookkeeping on this thread until dropped; nests.
/// Allocations and frees inside must pair up inside (the layers keep what
/// they allocate until they drain it), or accounting drifts.
#[must_use = "bookkeeping ends when the guard drops"]
pub struct Bookkeeping(PhantomData<*const ()>);

impl Bookkeeping {
    /// Opens a bookkeeping section on this thread.
    #[inline]
    pub fn enter() -> Self {
        BOOKKEEPING.with(|depth| depth.set(depth.get() + 1));
        Self(PhantomData)
    }
}

impl Drop for Bookkeeping {
    fn drop(&mut self) {
        let _ = BOOKKEEPING.try_with(|depth| depth.set(depth.get() - 1));
    }
}

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
            let _bookkeeping = $crate::Bookkeeping::enter();
            $crate::trace::SpanGuard::begin(
                $name,
                vec![$((stringify!($key), $crate::trace::AttrValue::from($value))),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}
