//! Measurement helpers and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One named metric of a run.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a run found: the operation counts, the output checks that failed,
/// and its metrics by name.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl RunReport {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), Metric { value, unit });
    }

    /// Records a failed output check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, holding exactly the `wanted` `(name, unit)`
    /// metrics. A wanted metric the run did not measure reads 0 when
    /// `zero_fill` is set (a layer the workload bypasses) and otherwise
    /// makes the run incorrect, as do a unit that disagrees with the
    /// contract and a non-finite value. Values keep every digit of Rust's
    /// shortest round-trip formatting.
    pub fn result_line(&self, wanted: &[(String, String)], zero_fill: bool) -> String {
        let mut problems = self.problems.clone();
        let mut metrics = String::new();
        for (k, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(m) if m.unit != unit => {
                    problems.push(format!("{name} measured in {}, not {unit}", m.unit));
                    m.value
                }
                Some(m) => m.value,
                None if zero_fill => 0.0,
                None => {
                    problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                problems.push(format!("{name} is not finite"));
                0.0
            };
            if k > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        for p in &problems[self.problems.len()..] {
            println!("CHECK FAILED: {p}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process in MiB, from procfs.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.set("a.b", 1.25, "ms");
        let wanted = [("a.b".to_owned(), "ms".to_owned())];
        assert_eq!(
            r.result_line(&wanted, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let missing = [("c".to_owned(), "s".to_owned())];
        assert!(r
            .result_line(&missing, false)
            .starts_with("{\"correct\": false"));
        assert!(r
            .result_line(&missing, true)
            .starts_with("{\"correct\": true"));
        r.check(false, || "boom".into());
        assert!(r
            .result_line(&wanted, false)
            .starts_with("{\"correct\": false"));
    }
}
