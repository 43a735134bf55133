//! Run manifests and the `repro compare` regression gate.
//!
//! A [`RunManifest`] is the machine-readable record of one `repro` run:
//! the configuration that produced it, per-stage wall-clock timings, a
//! metrics-registry snapshot, a digest + line count per experiment
//! report, and the run's fault-handling events (blocks that were
//! recovered by a retry or degraded to analytical estimates). Manifests are written as pretty JSON with deterministically
//! ordered keys, so two runs of the same build are byte-identical —
//! *except* for the `timing` section, which holds everything wall-clock
//! or scheduling dependent (stage seconds, steal counts, thread count).
//! [`RunManifest::strip_timing`] removes exactly that section; what
//! remains must not vary across `--threads` values.
//!
//! [`compare`] diffs two manifests with per-metric relative tolerances
//! and reports regressions, which the `repro compare` subcommand turns
//! into a nonzero exit code.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Metric, Snapshot};

/// Manifest schema identifier, bumped on incompatible layout changes.
pub const SCHEMA: &str = "foldic-run-manifest/1";

/// Digest + shape of one experiment's report text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentResult {
    /// FNV-1a 64 digest of the report text, `"fnv64:<16 hex>"`.
    pub digest: String,
    /// Number of lines in the report text.
    pub lines: u64,
}

/// One fault-handling event from the run's `faults` section: a block
/// that failed mid-flow and was either recovered by a retry or degraded
/// to analytical estimates.
///
/// This is the manifest-side mirror of the flow's fault records;
/// `foldic-obs` sits at the bottom of the dependency graph, so the
/// fields are plain strings rather than the flow's typed enums.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEntry {
    /// Run scope the fault occurred under (e.g. `"folded_f2b.dvt"`).
    pub scope: String,
    /// Block name.
    pub block: String,
    /// Flow stage of the last failure (e.g. `"route"`).
    pub stage: String,
    /// Attempts consumed, including the first run.
    pub attempts: u64,
    /// Final outcome: `"recovered"` or `"degraded"`.
    pub disposition: String,
}

impl FaultEntry {
    fn site(&self) -> String {
        format!("{}/{}", self.scope, self.block)
    }
}

/// The structured record of one `repro` run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Key/value configuration (experiment names, size, seed, …).
    /// Everything here participates in comparison.
    pub config: BTreeMap<String, String>,
    /// Wall-clock and scheduling data (per-stage seconds, thread count,
    /// steal totals). Excluded from determinism digests and comparison.
    pub timing: Json,
    /// Metrics-registry snapshot at the end of the run.
    pub metrics: Snapshot,
    /// Experiment name → result digest.
    pub results: BTreeMap<String, ExperimentResult>,
    /// Fault-handling events, sorted. Empty for a clean run; manifests
    /// written before this section existed parse as empty.
    pub faults: Vec<FaultEntry>,
    /// Wall-clock timeout events (stages cancelled by a deadline),
    /// sorted. Same shape as `faults` but gated separately. Pay-for-use:
    /// the key is omitted from the JSON when empty, so runs without
    /// deadline flags serialize byte-identically to older manifests.
    pub timeouts: Vec<FaultEntry>,
    /// Memory-budget breach events (stages stopped by a resource
    /// policy), sorted. Same shape and pay-for-use rule as `timeouts`.
    pub mem_exceeded: Vec<FaultEntry>,
    /// Peak net-allocated bytes per flow stage, recorded only for a run
    /// with a resource policy (pay-for-use: the key is omitted
    /// when empty). Peaks are sampled at poll granularity on the worker
    /// thread, so they are compared with a relative tolerance
    /// ([`CompareConfig::mem_tol_pct`]), never byte-exactly.
    pub resources: BTreeMap<String, u64>,
    /// Design-database provenance: snapshot digest (path-less), cell and
    /// net counts, and whether the design was `generated` in-process or
    /// loaded from a `snapshot` file. Pay-for-use like `resources`.
    /// Everything except `source` is compared for exact equality — the
    /// same design loaded from disk must digest identically to the one
    /// generated in memory.
    pub db: BTreeMap<String, String>,
}

/// FNV-1a 64-bit digest of a report text, formatted `fnv64:<16 hex>`.
pub fn digest_report(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("fnv64:{hash:016x}")
}

impl RunManifest {
    /// Records one experiment's report text as a digest entry.
    pub fn record_result(&mut self, experiment: &str, report_text: &str) {
        self.results.insert(
            experiment.to_owned(),
            ExperimentResult {
                digest: digest_report(report_text),
                lines: report_text.lines().count() as u64,
            },
        );
    }

    /// Drops the wall-clock section; the remainder must be identical
    /// across thread counts for the same build + config.
    pub fn strip_timing(&mut self) {
        self.timing = Json::Null;
    }

    /// Serializes to the JSON layout described by [`SCHEMA`].
    pub fn to_json(&self) -> Json {
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        let results = self
            .results
            .iter()
            .map(|(name, r)| {
                (
                    name.clone(),
                    Json::obj([
                        ("digest".to_owned(), Json::Str(r.digest.clone())),
                        ("lines".to_owned(), Json::Num(r.lines as f64)),
                    ]),
                )
            })
            .collect();
        let entries = |list: &[FaultEntry]| -> Vec<Json> {
            list.iter()
                .map(|f| {
                    Json::obj([
                        ("scope".to_owned(), Json::Str(f.scope.clone())),
                        ("block".to_owned(), Json::Str(f.block.clone())),
                        ("stage".to_owned(), Json::Str(f.stage.clone())),
                        ("attempts".to_owned(), Json::Num(f.attempts as f64)),
                        ("disposition".to_owned(), Json::Str(f.disposition.clone())),
                    ])
                })
                .collect()
        };
        let mut fields = vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("config".to_owned(), Json::Obj(config)),
            ("timing".to_owned(), self.timing.clone()),
            ("metrics".to_owned(), self.metrics.to_json()),
            ("results".to_owned(), Json::Obj(results)),
            ("faults".to_owned(), Json::Arr(entries(&self.faults))),
        ];
        // pay-for-use: deadline-less runs keep the pre-timeouts layout
        if !self.timeouts.is_empty() {
            fields.push(("timeouts".to_owned(), Json::Arr(entries(&self.timeouts))));
        }
        // same rule for the resource-governance sections
        if !self.mem_exceeded.is_empty() {
            fields.push((
                "mem_exceeded".to_owned(),
                Json::Arr(entries(&self.mem_exceeded)),
            ));
        }
        if !self.resources.is_empty() {
            let resources = self
                .resources
                .iter()
                .map(|(stage, bytes)| (stage.clone(), Json::Num(*bytes as f64)))
                .collect();
            fields.push(("resources".to_owned(), Json::Obj(resources)));
        }
        if !self.db.is_empty() {
            let db = self
                .db
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect();
            fields.push(("db".to_owned(), Json::Obj(db)));
        }
        Json::obj(fields)
    }

    /// Pretty JSON text of [`RunManifest::to_json`].
    pub fn to_json_text(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a manifest back from its JSON form.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported manifest schema {other:?}")),
            None => return Err("missing manifest schema".to_owned()),
        }
        let mut manifest = Self::default();
        if let Some(Json::Obj(config)) = json.get("config") {
            for (k, v) in config {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("config.{k} is not a string"))?;
                manifest.config.insert(k.clone(), v.to_owned());
            }
        }
        manifest.timing = json.get("timing").cloned().unwrap_or(Json::Null);
        if let Some(metrics) = json.get("metrics") {
            manifest.metrics = Snapshot::from_json(metrics)?;
        }
        if let Some(Json::Obj(results)) = json.get("results") {
            for (name, r) in results {
                let digest = r
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("results.{name}.digest missing"))?;
                let lines = r.get("lines").and_then(Json::as_f64).unwrap_or(0.0);
                manifest.results.insert(
                    name.clone(),
                    ExperimentResult {
                        digest: digest.to_owned(),
                        lines: lines as u64,
                    },
                );
            }
        }
        // manifests predating the fault/timeout sections simply have none
        let read_entries = |section: &str| -> Result<Vec<FaultEntry>, String> {
            let mut out = Vec::new();
            if let Some(Json::Arr(list)) = json.get(section) {
                for (i, f) in list.iter().enumerate() {
                    let text = |key: &str| -> Result<String, String> {
                        f.get(key)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("{section}[{i}].{key} missing"))
                    };
                    out.push(FaultEntry {
                        scope: text("scope")?,
                        block: text("block")?,
                        stage: text("stage")?,
                        attempts: f.get("attempts").and_then(Json::as_f64).unwrap_or(1.0) as u64,
                        disposition: text("disposition")?,
                    });
                }
                out.sort();
            }
            Ok(out)
        };
        manifest.faults = read_entries("faults")?;
        manifest.timeouts = read_entries("timeouts")?;
        manifest.mem_exceeded = read_entries("mem_exceeded")?;
        if let Some(Json::Obj(resources)) = json.get("resources") {
            for (stage, v) in resources {
                let bytes = v
                    .as_f64()
                    .filter(|n| n.is_finite() && *n >= 0.0)
                    .ok_or_else(|| format!("resources.{stage} is not a byte count"))?;
                manifest.resources.insert(stage.clone(), bytes as u64);
            }
        }
        if let Some(Json::Obj(db)) = json.get("db") {
            for (k, v) in db {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("db.{k} is not a string"))?;
                manifest.db.insert(k.clone(), v.to_owned());
            }
        }
        Ok(manifest)
    }

    /// Parses manifest JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Tolerances for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Maximum allowed relative delta, in percent, for numeric metrics
    /// (counters, gauges, histogram count/sum).
    pub rel_tol_pct: f64,
    /// Maximum allowed relative delta, in percent, for the `resources`
    /// peak-bytes section. Much looser than `rel_tol_pct`: peaks are
    /// poll-granularity samples of a per-thread net counter, so small
    /// allocator- and schedule-dependent drift is expected.
    pub mem_tol_pct: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            rel_tol_pct: 0.5,
            mem_tol_pct: 25.0,
        }
    }
}

/// Outcome of comparing a candidate manifest against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Deltas beyond tolerance, missing metrics/results, digest or
    /// config mismatches. Non-empty ⇒ the gate fails.
    pub regressions: Vec<String>,
    /// In-tolerance deltas, reported for context.
    pub changes: Vec<String>,
    /// Number of metric/result values compared.
    pub compared: usize,
}

impl CompareOutcome {
    /// `true` when nothing regressed.
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn rel_delta_pct(base: f64, cand: f64) -> f64 {
    if base == cand {
        return 0.0;
    }
    let denom = base.abs().max(1e-12);
    (cand - base).abs() / denom * 100.0
}

/// Diffs `cand` against `base`. The `timing` sections are ignored;
/// everything else is compared — config keys for equality, result
/// digests for equality, and numeric metric values within
/// `cfg.rel_tol_pct` percent. A metric or experiment present in the
/// baseline but missing from the candidate is a regression; one only in
/// the candidate is reported as an in-tolerance change (new telemetry
/// must not fail old baselines).
pub fn compare(base: &RunManifest, cand: &RunManifest, cfg: CompareConfig) -> CompareOutcome {
    let mut out = CompareOutcome::default();

    for (key, bv) in &base.config {
        match cand.config.get(key) {
            Some(cv) if cv == bv => {}
            Some(cv) => out
                .regressions
                .push(format!("config {key}: baseline {bv:?} vs candidate {cv:?}")),
            None => out
                .regressions
                .push(format!("config {key}: missing from candidate")),
        }
        out.compared += 1;
    }

    for (name, br) in &base.results {
        out.compared += 1;
        match cand.results.get(name) {
            None => out
                .regressions
                .push(format!("result {name}: missing from candidate")),
            Some(cr) if cr.digest == br.digest => {}
            Some(cr) => out.regressions.push(format!(
                "result {name}: digest {} vs {} ({} vs {} lines)",
                br.digest, cr.digest, br.lines, cr.lines
            )),
        }
    }
    for name in cand.results.keys() {
        if !base.results.contains_key(name) {
            out.changes.push(format!("result {name}: new in candidate"));
        }
    }

    // Fault gate: a block that newly degrades (relative to the baseline)
    // is a regression — its numbers are estimates, not flow results. A
    // fault that clears, or degrades into a mere recovery, is an
    // improvement and reported as a change. The `timeouts` section is
    // gated by the same rule under its own label.
    fn gate_entries(
        out: &mut CompareOutcome,
        label: &str,
        base: &[FaultEntry],
        cand: &[FaultEntry],
    ) {
        let base_entries: BTreeMap<String, &FaultEntry> =
            base.iter().map(|f| (f.site(), f)).collect();
        let cand_entries: BTreeMap<String, &FaultEntry> =
            cand.iter().map(|f| (f.site(), f)).collect();
        for (site, cf) in &cand_entries {
            out.compared += 1;
            let newly_degraded = cf.disposition == "degraded"
                && base_entries
                    .get(site)
                    .is_none_or(|bf| bf.disposition != "degraded");
            if newly_degraded {
                out.regressions.push(format!(
                    "{label} {site}: newly degraded at {} after {} attempts",
                    cf.stage, cf.attempts
                ));
            } else {
                match base_entries.get(site) {
                    Some(bf) if *bf == *cf => {}
                    Some(bf) => out.changes.push(format!(
                        "{label} {site}: {} {} -> {} {}",
                        bf.stage, bf.disposition, cf.stage, cf.disposition
                    )),
                    None => out.changes.push(format!(
                        "{label} {site}: new {} at {}",
                        cf.disposition, cf.stage
                    )),
                }
            }
        }
        for (site, bf) in &base_entries {
            if !cand_entries.contains_key(site) {
                out.changes.push(format!(
                    "{label} {site}: cleared (was {} at {})",
                    bf.disposition, bf.stage
                ));
            }
        }
    }
    gate_entries(&mut out, "fault", &base.faults, &cand.faults);
    gate_entries(&mut out, "timeout", &base.timeouts, &cand.timeouts);
    gate_entries(
        &mut out,
        "mem_exceeded",
        &base.mem_exceeded,
        &cand.mem_exceeded,
    );

    fn check(
        out: &mut CompareOutcome,
        tol_pct: f64,
        name: &str,
        what: &str,
        base_v: f64,
        cand_v: f64,
    ) {
        out.compared += 1;
        let delta = rel_delta_pct(base_v, cand_v);
        if delta > tol_pct {
            out.regressions.push(format!(
                "metric {name} {what}: {base_v} -> {cand_v} ({delta:.2}% > {tol_pct:.2}%)"
            ));
        } else if delta > 0.0 {
            out.changes.push(format!(
                "metric {name} {what}: {base_v} -> {cand_v} ({delta:.2}%)"
            ));
        }
    }

    let tol = cfg.rel_tol_pct;
    for (name, bm) in &base.metrics.metrics {
        match (bm, cand.metrics.metrics.get(name)) {
            (_, None) => {
                out.compared += 1;
                out.regressions
                    .push(format!("metric {name}: missing from candidate"));
            }
            (Metric::Counter(b), Some(Metric::Counter(c))) => {
                check(&mut out, tol, name, "count", *b as f64, *c as f64);
            }
            (Metric::Gauge(b), Some(Metric::Gauge(c))) => {
                check(&mut out, tol, name, "value", *b, *c);
            }
            (Metric::Histogram(b), Some(Metric::Histogram(c))) => {
                check(&mut out, tol, name, "count", b.count as f64, c.count as f64);
                check(&mut out, tol, name, "sum", b.sum(), c.sum());
            }
            (_, Some(other)) => {
                out.compared += 1;
                out.regressions
                    .push(format!("metric {name}: kind changed to {other:?}"));
            }
        }
    }
    for name in cand.metrics.metrics.keys() {
        if !base.metrics.metrics.contains_key(name) {
            out.changes.push(format!("metric {name}: new in candidate"));
        }
    }

    // Peak-bytes section: numeric like metrics, but under the looser
    // memory tolerance — see `CompareConfig::mem_tol_pct`.
    for (stage, bv) in &base.resources {
        match cand.resources.get(stage) {
            None => {
                out.compared += 1;
                out.regressions
                    .push(format!("resources {stage}: missing from candidate"));
            }
            Some(cv) => check(
                &mut out,
                cfg.mem_tol_pct,
                &format!("resources {stage}"),
                "peak_bytes",
                *bv as f64,
                *cv as f64,
            ),
        }
    }
    for stage in cand.resources.keys() {
        if !base.resources.contains_key(stage) {
            out.changes
                .push(format!("resources {stage}: new in candidate"));
        }
    }

    // Design-database section: exact equality, except `source` — the
    // whole point of the digest is that a snapshot-loaded design and a
    // generated one are interchangeable, so provenance alone is a
    // change, never a regression.
    for (key, bv) in &base.db {
        out.compared += 1;
        match cand.db.get(key) {
            Some(cv) if cv == bv => {}
            Some(cv) if key == "source" => out
                .changes
                .push(format!("db source: {bv} -> {cv} (digest gated separately)")),
            Some(cv) => out
                .regressions
                .push(format!("db {key}: baseline {bv:?} vs candidate {cv:?}")),
            None => out
                .regressions
                .push(format!("db {key}: missing from candidate")),
        }
    }
    for key in cand.db.keys() {
        if !base.db.contains_key(key) {
            out.changes.push(format!("db {key}: new in candidate"));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample() -> RunManifest {
        let mut m = RunManifest::default();
        m.config.insert("experiments".into(), "table2".into());
        m.config.insert("size".into(), "tiny".into());
        m.config.insert("seed".into(), "42".into());
        m.timing = Json::obj([("wall_s".to_owned(), Json::Num(1.25))]);
        m.metrics
            .metrics
            .insert("sa.moves".into(), Metric::Counter(7200));
        m.metrics
            .metrics
            .insert("fullchip.2d.power_total_uw".into(), Metric::Gauge(1000.0));
        let mut h = Histogram {
            count: 3,
            sum_fp: (30.0 * 65536.0) as i128,
            min: 5.0,
            max: 15.0,
            ..Histogram::default()
        };
        h.buckets.insert(2, 1);
        h.buckets.insert(3, 2);
        m.metrics
            .metrics
            .insert("route.net_length_um".into(), Metric::Histogram(h));
        m.record_result("table2", "Table 2\nrow a\nrow b\n");
        m.faults.push(FaultEntry {
            scope: "folded_f2b".into(),
            block: "ccx".into(),
            stage: "route".into(),
            attempts: 2,
            disposition: "recovered".into(),
        });
        m
    }

    #[test]
    fn manifest_roundtrips_through_json_text() {
        let m = sample();
        let text = m.to_json_text();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back.config, m.config);
        assert_eq!(back.results, m.results);
        assert_eq!(back.metrics, m.metrics);
        assert_eq!(back.faults, m.faults);
        // serialization is deterministic
        assert_eq!(back.to_json_text(), text);
    }

    #[test]
    fn manifest_without_fault_section_parses_as_clean() {
        // manifests from before the fault section existed (e.g. pinned
        // CI baselines) must keep parsing
        let mut m = sample();
        m.faults.clear();
        let mut json = m.to_json();
        if let Json::Obj(obj) = &mut json {
            obj.remove("faults");
        }
        let back = RunManifest::parse(&json.to_pretty()).unwrap();
        assert!(back.faults.is_empty());
        assert!(compare(&back, &m, CompareConfig::default()).is_ok());
    }

    #[test]
    fn newly_degraded_block_fails_the_gate_but_recovery_does_not() {
        let base = sample();

        // same fault in both runs: clean
        let cand = sample();
        assert!(compare(&base, &cand, CompareConfig::default()).is_ok());

        // candidate-only recovered fault: informational change
        let mut cand = sample();
        cand.faults.push(FaultEntry {
            scope: "core_cache".into(),
            block: "spc0".into(),
            stage: "place".into(),
            attempts: 3,
            disposition: "recovered".into(),
        });
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        assert!(out.changes.iter().any(|c| c.contains("spc0")));

        // candidate-only degraded fault: regression
        let mut cand = sample();
        cand.faults.push(FaultEntry {
            scope: "core_cache".into(),
            block: "spc0".into(),
            stage: "place".into(),
            attempts: 3,
            disposition: "degraded".into(),
        });
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(!out.is_ok(), "newly degraded block must trip the gate");

        // recovered -> degraded at the same site: also a regression
        let mut cand = sample();
        cand.faults[0].disposition = "degraded".into();
        assert!(!compare(&base, &cand, CompareConfig::default()).is_ok());

        // degraded in both runs: pinned by the baseline, clean
        let mut base2 = sample();
        base2.faults[0].disposition = "degraded".into();
        let mut cand = sample();
        cand.faults[0].disposition = "degraded".into();
        assert!(compare(&base2, &cand, CompareConfig::default()).is_ok());

        // fault cleared in the candidate: improvement, reported only
        let mut cand = sample();
        cand.faults.clear();
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        assert!(out.changes.iter().any(|c| c.contains("cleared")));
    }

    #[test]
    fn timeouts_section_is_pay_for_use_and_gated_like_faults() {
        // no timeouts: the key is absent, so the JSON is byte-identical
        // to the pre-deadline layout
        let m = sample();
        assert!(m.timeouts.is_empty());
        assert!(!m.to_json_text().contains("\"timeouts\""));

        // with timeouts: round-trips and serializes deterministically
        let mut t = sample();
        t.timeouts.push(FaultEntry {
            scope: "2d".into(),
            block: "ccx".into(),
            stage: "route".into(),
            attempts: 2,
            disposition: "degraded".into(),
        });
        let text = t.to_json_text();
        assert!(text.contains("\"timeouts\""));
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back.timeouts, t.timeouts);
        assert_eq!(back.to_json_text(), text);

        // a newly timed-out degrade is a regression, like a fault
        let out = compare(&m, &t, CompareConfig::default());
        assert!(!out.is_ok(), "newly timed-out block must trip the gate");
        assert!(out.regressions.iter().any(|r| r.starts_with("timeout ")));

        // the same timeout pinned in the baseline compares clean
        assert!(compare(&t, &t, CompareConfig::default()).is_ok());

        // cleared timeout: improvement, reported only
        let out = compare(&t, &m, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        assert!(out
            .changes
            .iter()
            .any(|c| c.starts_with("timeout ") && c.contains("cleared")));
    }

    #[test]
    fn resource_sections_are_pay_for_use_and_gated() {
        // no resource policy: both keys absent, JSON byte-identical to
        // the pre-resource layout
        let m = sample();
        assert!(m.mem_exceeded.is_empty() && m.resources.is_empty());
        let text = m.to_json_text();
        assert!(!text.contains("\"mem_exceeded\"") && !text.contains("\"resources\""));

        // with a policy: both sections round-trip deterministically
        let mut r = sample();
        r.mem_exceeded.push(FaultEntry {
            scope: "2d".into(),
            block: "ccx".into(),
            stage: "place".into(),
            attempts: 2,
            disposition: "degraded".into(),
        });
        r.resources.insert("place".into(), 48 * 1024 * 1024);
        r.resources.insert("job".into(), 96 * 1024 * 1024);
        let text = r.to_json_text();
        assert!(text.contains("\"mem_exceeded\"") && text.contains("\"resources\""));
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back.mem_exceeded, r.mem_exceeded);
        assert_eq!(back.resources, r.resources);
        assert_eq!(back.to_json_text(), text);

        // a newly mem-degraded block is a regression, like a timeout
        let out = compare(&m, &r, CompareConfig::default());
        assert!(!out.is_ok(), "newly mem-degraded block must trip the gate");
        assert!(out
            .regressions
            .iter()
            .any(|x| x.starts_with("mem_exceeded ")));

        // the same breach pinned in the baseline compares clean
        assert!(compare(&r, &r, CompareConfig::default()).is_ok());

        // peaks drift within the memory tolerance: clean; beyond: gated
        let mut cand = r.clone();
        cand.resources.insert("place".into(), 52 * 1024 * 1024); // ~8%
        let out = compare(&r, &cand, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        cand.resources.insert("place".into(), 90 * 1024 * 1024); // ~88%
        let out = compare(&r, &cand, CompareConfig::default());
        assert!(!out.is_ok(), "an 88% peak jump must trip the 25% gate");

        // a stage peak vanishing from the candidate is a regression;
        // a new stage peak is an informational change
        let mut cand = r.clone();
        cand.resources.remove("place");
        cand.resources.insert("route".into(), 1024);
        let out = compare(&r, &cand, CompareConfig::default());
        assert!(!out.is_ok());
        assert!(out
            .regressions
            .iter()
            .any(|x| x.contains("resources place") && x.contains("missing")));
        assert!(out
            .changes
            .iter()
            .any(|c| c.contains("resources route") && c.contains("new in candidate")));
    }

    #[test]
    fn db_section_is_pay_for_use_and_gated_exactly() {
        // no --design and no digest recorded: key absent, layout unchanged
        let m = sample();
        assert!(!m.to_json_text().contains("\"db\""));

        // with provenance: round-trips byte-identically
        let mut base = sample();
        base.db
            .insert("digest".into(), "fnv64:00aabbccddeeff11".into());
        base.db.insert("cells".into(), "120000".into());
        base.db.insert("nets".into(), "118000".into());
        base.db.insert("source".into(), "generated".into());
        let text = base.to_json_text();
        assert!(text.contains("\"db\""));
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back.db, base.db);
        assert_eq!(back.to_json_text(), text);

        // snapshot-loaded run with the same digest: source flips but the
        // gate stays green — provenance is informational
        let mut cand = base.clone();
        cand.db.insert("source".into(), "snapshot".into());
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        assert!(out.changes.iter().any(|c| c.contains("db source")));

        // a digest or census drift is a hard regression
        let mut cand = base.clone();
        cand.db
            .insert("digest".into(), "fnv64:ffffffffffffffff".into());
        assert!(!compare(&base, &cand, CompareConfig::default()).is_ok());
        let mut cand = base.clone();
        cand.db.remove("cells");
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(out
            .regressions
            .iter()
            .any(|x| x.contains("db cells") && x.contains("missing")));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let d = digest_report("Table 2\nrow a\n");
        assert!(d.starts_with("fnv64:") && d.len() == 6 + 16, "{d}");
        assert_eq!(d, digest_report("Table 2\nrow a\n"));
        assert_ne!(d, digest_report("Table 2\nrow b\n"));
    }

    #[test]
    fn self_compare_is_clean_even_with_different_timing() {
        let base = sample();
        let mut cand = sample();
        cand.timing = Json::obj([("wall_s".to_owned(), Json::Num(99.9))]);
        let out = compare(&base, &cand, CompareConfig::default());
        assert!(out.is_ok(), "{:?}", out.regressions);
        assert!(out.compared > 0);
    }

    #[test]
    fn perturbation_beyond_threshold_regresses_but_within_does_not() {
        let base = sample();
        let mut cand = sample();
        cand.metrics
            .metrics
            .insert("fullchip.2d.power_total_uw".into(), Metric::Gauge(1020.0));
        let out = compare(
            &base,
            &cand,
            CompareConfig {
                rel_tol_pct: 0.5,
                ..CompareConfig::default()
            },
        );
        assert!(!out.is_ok(), "2% gauge drift must trip a 0.5% gate");
        let loose = compare(
            &base,
            &cand,
            CompareConfig {
                rel_tol_pct: 5.0,
                ..CompareConfig::default()
            },
        );
        assert!(loose.is_ok(), "{:?}", loose.regressions);
        assert!(!loose.changes.is_empty(), "in-tolerance drift is reported");
    }

    #[test]
    fn missing_metric_config_drift_and_digest_change_regress() {
        let base = sample();

        let mut cand = sample();
        cand.metrics.metrics.remove("sa.moves");
        assert!(!compare(&base, &cand, CompareConfig::default()).is_ok());

        let mut cand = sample();
        cand.config.insert("size".into(), "small".into());
        assert!(!compare(&base, &cand, CompareConfig::default()).is_ok());

        let mut cand = sample();
        cand.record_result("table2", "Table 2\nrow a\nrow CHANGED\n");
        assert!(!compare(&base, &cand, CompareConfig::default()).is_ok());

        // extra metrics/results in the candidate are fine
        let mut cand = sample();
        cand.metrics
            .metrics
            .insert("new.metric".into(), Metric::Counter(1));
        cand.record_result("fig2", "Fig 2\n");
        assert!(compare(&base, &cand, CompareConfig::default()).is_ok());
    }
}
