//! Named counters, gauges and log-bucketed histograms.
//!
//! Flow code reports *sampled aggregates* (a counter add per SA
//! temperature step, a histogram batch per wiring analysis — never a call
//! per inner-loop move), so one global mutex-protected registry is cheap.
//! Every hook starts with one relaxed atomic load and allocates nothing
//! while recording is disabled, so the hooks stay in release builds.
//!
//! # Determinism
//!
//! Registry snapshots feed run manifests, which must be byte-identical
//! across worker-thread counts. Every accumulator is therefore
//! order-independent:
//!
//! * counters are `u64` sums;
//! * histograms keep `u64` bucket counts, a **fixed-point** value sum
//!   (integer addition is associative; float addition is not) and
//!   min/max;
//! * histogram buckets are *binary-exponent* buckets — bucket `k` holds
//!   values in `[2^k, 2^(k+1))`, computed from the IEEE-754 exponent bits
//!   rather than `log2()` so bucketing never depends on libm rounding.
//!
//! Gauges are last-write-wins and belong in serial roll-up code (or under
//! keys only one job writes, e.g. per-style full-chip summaries).
//!
//! Recording runs inside [`crate::Bookkeeping`]: a key insert or a new
//! histogram bucket allocates on whichever job thread records it first,
//! and a memory budget must not charge that job for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Fixed-point scale for histogram sums: 2⁻¹⁶ resolution.
const FP_ONE: f64 = 65536.0;

/// The process-global registry the free functions below record into.
static GLOBAL: Registry = Registry::new();

/// An instantiable metrics registry.
///
/// Flow code records into the process-global registry through the free
/// functions ([`add`], [`observe`], …), which manifests snapshot and
/// drain. Long-lived components that must not perturb manifest bytes —
/// the serve daemon's `/metrics` endpoint, most prominently — own a
/// `Registry` of their own instead, with the same recording semantics
/// and the same determinism contract.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, disabled registry (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns recording on or off. Turning it on clears the registry.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.metrics.lock().unwrap().clear();
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` while recording — one relaxed load, the cost of every
    /// disabled hook.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `n` to the counter `name` (created at 0).
    pub fn add(&self, name: &str, n: u64) {
        if !self.is_enabled() || n == 0 {
            return;
        }
        let _bookkeeping = crate::Bookkeeping::enter();
        let mut reg = self.metrics.lock().unwrap();
        match reg.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            other => debug_assert!(false, "{name} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name`. Call from serial code or under per-job keys
    /// — concurrent writers to one key would race the final value.
    pub fn set_gauge(&self, name: &str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        let _bookkeeping = crate::Bookkeeping::enter();
        let mut reg = self.metrics.lock().unwrap();
        match reg.entry(name.to_owned()).or_insert(Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g = v,
            other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
        }
    }

    /// Raises the gauge `name` to at least `v` (max-merge, commutative —
    /// safe for concurrent writers).
    pub fn set_gauge_max(&self, name: &str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        let _bookkeeping = crate::Bookkeeping::enter();
        let mut reg = self.metrics.lock().unwrap();
        match reg.entry(name.to_owned()).or_insert(Metric::Gauge(v)) {
            Metric::Gauge(g) => *g = g.max(v),
            other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        self.observe_all(name, std::slice::from_ref(&v));
    }

    /// Records a batch of observations under one registry lock.
    pub fn observe_all(&self, name: &str, values: &[f64]) {
        if !self.is_enabled() || values.is_empty() {
            return;
        }
        let _bookkeeping = crate::Bookkeeping::enter();
        let mut reg = self.metrics.lock().unwrap();
        match reg
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => {
                for &v in values {
                    h.observe(v);
                }
            }
            other => debug_assert!(false, "{name} is not a histogram: {other:?}"),
        }
    }

    /// Copies the registry without clearing it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self.metrics.lock().unwrap().clone(),
        }
    }

    /// Drains the registry, leaving it empty.
    pub fn take(&self) -> Snapshot {
        Snapshot {
            metrics: std::mem::take(&mut *self.metrics.lock().unwrap()),
        }
    }
}

/// Turns global metric recording on or off. Turning it on clears the
/// registry.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// `true` while the global registry records — one relaxed load, the cost
/// of every disabled hook.
#[inline]
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// A log-bucketed histogram with order-independent accumulators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Fixed-point (2⁻¹⁶) sum of observed values.
    pub sum_fp: i128,
    /// Smallest observation (`+inf` before the first).
    pub min: f64,
    /// Largest observation (`-inf` before the first).
    pub max: f64,
    /// Binary-exponent bucket → count. Bucket `k` covers `[2^k, 2^(k+1))`;
    /// [`Histogram::UNDERFLOW`] collects zero, negative and non-finite
    /// values.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// Bucket index for values ≤ 0 (and NaN).
    pub const UNDERFLOW: i32 = i32::MIN;

    fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Self::default()
        }
    }

    /// The bucket a value lands in: its IEEE-754 binary exponent.
    pub fn bucket_of(v: f64) -> i32 {
        if v <= 0.0 || !v.is_finite() {
            return Self::UNDERFLOW;
        }
        let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
        if biased == 0 {
            -1023 // subnormals share one bucket
        } else {
            biased - 1023
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.sum_fp += (v * FP_ONE).round() as i128;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
    }

    /// Sum of the observed values.
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / FP_ONE
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated `u64`.
    Counter(u64),
    /// A last-write-wins value.
    Gauge(f64),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// Adds `n` to the global counter `name` (created at 0).
pub fn add(name: &str, n: u64) {
    GLOBAL.add(name, n);
}

/// Sets the global gauge `name`. Call from serial code or under per-job
/// keys — concurrent writers to one key would race the final value.
pub fn set_gauge(name: &str, v: f64) {
    GLOBAL.set_gauge(name, v);
}

/// Raises the global gauge `name` to at least `v` (max-merge). Unlike
/// [`set_gauge`], max is commutative and associative, so concurrent
/// writers from pool jobs converge to the same value regardless of
/// scheduling — safe for keys written inside parallel flows (e.g.
/// high-water scratch-reuse counts).
pub fn set_gauge_max(name: &str, v: f64) {
    GLOBAL.set_gauge_max(name, v);
}

/// Records one observation into the global histogram `name`.
pub fn observe(name: &str, v: f64) {
    GLOBAL.observe(name, v);
}

/// Records a batch of observations under one registry lock — the shape
/// instrumented loops should use (compute locally, flush once).
pub fn observe_all(name: &str, values: &[f64]) {
    GLOBAL.observe_all(name, values);
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → value, deterministically ordered.
    pub metrics: BTreeMap<String, Metric>,
}

/// Copies the global registry without clearing it.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

/// Drains the global registry, leaving it empty.
pub fn take() -> Snapshot {
    GLOBAL.take()
}

impl Snapshot {
    /// Counter value (0 when absent or of another kind) — handy in tests.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Stable-ordered text table (for `--profile`-style terminal output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<40} {:>14} detail", "metric", "value");
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name:<40} {c:>14} counter");
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name:<40} {g:>14.3} gauge");
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<40} {:>14} n; mean {:.3} min {:.3} max {:.3}",
                        h.count,
                        h.mean(),
                        if h.min.is_finite() { h.min } else { 0.0 },
                        if h.max.is_finite() { h.max } else { 0.0 },
                    );
                }
            }
        }
        out
    }

    /// JSON form (the `metrics` section of a run manifest).
    pub fn to_json(&self) -> Json {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), Json::Num(*c as f64));
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), Json::Num(*g));
                }
                Metric::Histogram(h) => {
                    let buckets: Vec<Json> = h
                        .buckets
                        .iter()
                        .map(|(&exp, &count)| {
                            Json::Arr(vec![Json::Num(exp as f64), Json::Num(count as f64)])
                        })
                        .collect();
                    histograms.insert(
                        name.clone(),
                        Json::obj([
                            ("count".to_owned(), Json::Num(h.count as f64)),
                            ("sum".to_owned(), Json::Num(h.sum())),
                            (
                                "min".to_owned(),
                                if h.min.is_finite() {
                                    Json::Num(h.min)
                                } else {
                                    Json::Null
                                },
                            ),
                            (
                                "max".to_owned(),
                                if h.max.is_finite() {
                                    Json::Num(h.max)
                                } else {
                                    Json::Null
                                },
                            ),
                            ("buckets".to_owned(), Json::Arr(buckets)),
                        ]),
                    );
                }
            }
        }
        Json::obj([
            ("counters".to_owned(), Json::Obj(counters)),
            ("gauges".to_owned(), Json::Obj(gauges)),
            ("histograms".to_owned(), Json::Obj(histograms)),
        ])
    }

    /// Parses the JSON form back (for `repro compare`).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut metrics = BTreeMap::new();
        let section = |key: &str| -> Result<BTreeMap<String, Json>, String> {
            match json.get(key) {
                None => Ok(BTreeMap::new()),
                Some(Json::Obj(m)) => Ok(m.clone()),
                Some(_) => Err(format!("metrics.{key} is not an object")),
            }
        };
        for (name, v) in section("counters")? {
            let c = v.as_f64().ok_or_else(|| format!("counter {name}"))?;
            metrics.insert(name, Metric::Counter(c as u64));
        }
        for (name, v) in section("gauges")? {
            let g = v.as_f64().ok_or_else(|| format!("gauge {name}"))?;
            metrics.insert(name, Metric::Gauge(g));
        }
        for (name, v) in section("histograms")? {
            let num = |key: &str| -> Result<f64, String> {
                v.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {name}.{key}"))
            };
            let mut h = Histogram::new();
            h.count = num("count")? as u64;
            h.sum_fp = (num("sum")? * FP_ONE).round() as i128;
            h.min = v.get("min").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
            h.max = v
                .get("max")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NEG_INFINITY);
            if let Some(buckets) = v.get("buckets").and_then(Json::as_arr) {
                for b in buckets {
                    let pair = b
                        .as_arr()
                        .ok_or_else(|| format!("histogram {name} bucket"))?;
                    if let [exp, count] = pair {
                        h.buckets.insert(
                            exp.as_f64().unwrap_or(0.0) as i32,
                            count.as_f64().unwrap_or(0.0) as u64,
                        );
                    }
                }
            }
            metrics.insert(name, Metric::Histogram(h));
        }
        Ok(Self { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The registry is global: serialize tests that enable it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bucket_boundaries_follow_binary_exponents() {
        // [2^k, 2^(k+1)) — exact powers of two land in their own bucket
        assert_eq!(Histogram::bucket_of(1.0), 0);
        assert_eq!(Histogram::bucket_of(1.999), 0);
        assert_eq!(Histogram::bucket_of(2.0), 1);
        assert_eq!(Histogram::bucket_of(4.0), 2);
        assert_eq!(Histogram::bucket_of(3.999), 1);
        assert_eq!(Histogram::bucket_of(0.5), -1);
        assert_eq!(Histogram::bucket_of(0.25), -2);
        assert_eq!(Histogram::bucket_of(1e6), 19); // 2^19 = 524288 ≤ 1e6 < 2^20
                                                   // the degenerate cases share the underflow bucket
        assert_eq!(Histogram::bucket_of(0.0), Histogram::UNDERFLOW);
        assert_eq!(Histogram::bucket_of(-3.0), Histogram::UNDERFLOW);
        assert_eq!(Histogram::bucket_of(f64::NAN), Histogram::UNDERFLOW);
        assert_eq!(Histogram::bucket_of(f64::INFINITY), Histogram::UNDERFLOW);
    }

    #[test]
    fn disabled_hooks_record_nothing_and_counters_stay_zero() {
        let _gate = lock();
        set_enabled(false);
        let _ = take();
        add("ghost.counter", 41);
        set_gauge("ghost.gauge", 1.0);
        observe("ghost.histogram", 2.0);
        observe_all("ghost.batch", &[1.0, 2.0, 3.0]);
        let snap = take();
        assert!(snap.metrics.is_empty(), "disabled hooks must not record");
        assert_eq!(snap.counter("ghost.counter"), 0);
    }

    #[test]
    fn accumulators_are_order_independent() {
        let _gate = lock();
        let run = |values: &[f64]| {
            set_enabled(true);
            observe_all("h", values);
            add("c", values.len() as u64);
            let snap = take();
            set_enabled(false);
            snap
        };
        let fwd = run(&[0.1, 2.5, 1e6, 3.0, 0.0]);
        let rev = run(&[0.0, 3.0, 1e6, 2.5, 0.1]);
        assert_eq!(fwd, rev, "histogram accumulation must commute");
        let h = fwd.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[&Histogram::UNDERFLOW], 1);
        assert!((h.sum() - (0.1 + 2.5 + 1e6 + 3.0)).abs() < 1e-3);
    }

    #[test]
    fn gauge_max_merge_commutes_across_writers() {
        let _gate = lock();
        let run = |values: &[f64]| {
            set_enabled(true);
            for &v in values {
                set_gauge_max("scratch.reuse", v);
            }
            let snap = take();
            set_enabled(false);
            snap
        };
        let fwd = run(&[1.0, 9.0, 4.0]);
        let rev = run(&[4.0, 1.0, 9.0]);
        assert_eq!(fwd, rev, "max-merge must commute");
        assert_eq!(fwd.gauge("scratch.reuse"), Some(9.0));
        // disabled hook records nothing
        set_enabled(false);
        set_gauge_max("scratch.reuse", 99.0);
        assert!(take().metrics.is_empty());
    }

    #[test]
    fn instance_registries_are_independent_of_the_global() {
        let _gate = lock();
        set_enabled(false);
        let _ = take();
        let reg = Registry::new();
        reg.set_enabled(true);
        reg.add("local.counter", 3);
        reg.observe("local.hist", 2.0);
        reg.set_gauge("local.gauge", 1.5);
        reg.set_gauge_max("local.gauge", 4.0);
        // nothing leaked into the process-global registry
        assert!(take().metrics.is_empty(), "global must stay untouched");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("local.counter"), 3);
        assert_eq!(snap.gauge("local.gauge"), Some(4.0));
        assert_eq!(snap.histogram("local.hist").unwrap().count, 1);
        let drained = reg.take();
        assert_eq!(drained, snap);
        assert!(reg.take().metrics.is_empty(), "take drains");
        // a disabled instance records nothing
        reg.set_enabled(false);
        reg.add("local.counter", 1);
        assert!(reg.snapshot().metrics.is_empty());
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let _gate = lock();
        set_enabled(true);
        add("sa.moves", 7200);
        set_gauge("fullchip.2d.power_total_uw", 123456.789);
        observe_all("route.net_length_um", &[10.0, 55.5, 1024.0]);
        let snap = take();
        set_enabled(false);
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.counter("sa.moves"), 7200);
        assert_eq!(back.gauge("fullchip.2d.power_total_uw"), Some(123456.789));
        let h = back.histogram("route.net_length_um").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(
            h.buckets,
            snap.histogram("route.net_length_um").unwrap().buckets
        );
        // text dump is stable-ordered and mentions every metric
        let text = snap.to_text();
        assert!(text.contains("sa.moves"));
        assert!(text.contains("route.net_length_um"));
    }
}
