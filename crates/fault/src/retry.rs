//! Retry policy, panic isolation, and fault provenance records.

use crate::{FlowError, FlowStage};
use foldic_obs::json::Json;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How often a failing block is retried before it degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `3` = one run + two
    /// retries). Retries perturb the heuristic seeds and progressively
    /// relax the stage configuration; `1` disables retrying.
    pub max_attempts: u32,
    /// Wait between attempts. The wait is cancellable: when the run's
    /// deadline token trips mid-backoff the block stops retrying and
    /// degrades instead of sleeping past the budget. Zero (the default)
    /// retries immediately.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy with `n` total attempts (clamped to ≥ 1).
    pub fn attempts(n: u32) -> Self {
        Self {
            max_attempts: n.max(1),
            ..Self::default()
        }
    }

    /// The same policy with a backoff between attempts.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// Final outcome of a faulted block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Disposition {
    /// A retry succeeded; the block's results are real flow results.
    Recovered,
    /// Every attempt failed; the block carries analytical estimates.
    Degraded,
}

impl Disposition {
    /// Stable lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Recovered => "recovered",
            Disposition::Degraded => "degraded",
        }
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Provenance of one faulted block: where it failed, how often it was
/// tried, and how it ended up. These records land in the run manifest's
/// `faults` section and in the report footers of the result tables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// Run scope the fault occurred in (e.g. `"core_cache"` or
    /// `"folded_f2b.dvt"`).
    pub scope: String,
    /// Block name.
    pub block: String,
    /// Stage of the *last* failure.
    pub stage: FlowStage,
    /// Attempts consumed (including the first run).
    pub attempts: u32,
    /// Final outcome.
    pub disposition: Disposition,
    /// `true` when the last failure was a wall-clock timeout
    /// ([`FaultCause::TimedOut`](crate::FaultCause::TimedOut)); such
    /// records land in the manifest's `timeouts` section instead of
    /// `faults`.
    pub timed_out: bool,
    /// `true` when the last failure was a memory-budget breach
    /// ([`FaultCause::MemExceeded`](crate::FaultCause::MemExceeded));
    /// such records land in the manifest's `mem_exceeded` section
    /// instead of `faults`.
    pub mem_exceeded: bool,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} {} after {} attempt{}{}{}",
            self.scope,
            self.block,
            self.stage,
            self.disposition,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            if self.timed_out { " (timed out)" } else { "" },
            if self.mem_exceeded {
                " (mem exceeded)"
            } else {
                ""
            }
        )
    }
}

impl FaultRecord {
    /// JSON form for manifests and checkpoints. The `timed_out` and
    /// `mem_exceeded` keys are only written when set, so records from
    /// runs without deadlines or memory budgets serialize
    /// byte-identically to the earlier formats.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scope".to_owned(), Json::Str(self.scope.clone())),
            ("block".to_owned(), Json::Str(self.block.clone())),
            (
                "stage".to_owned(),
                Json::Str(self.stage.as_str().to_owned()),
            ),
            ("attempts".to_owned(), Json::Num(self.attempts as f64)),
            (
                "disposition".to_owned(),
                Json::Str(self.disposition.as_str().to_owned()),
            ),
        ];
        if self.timed_out {
            fields.push(("timed_out".to_owned(), Json::Bool(true)));
        }
        if self.mem_exceeded {
            fields.push(("mem_exceeded".to_owned(), Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// The manifest-side mirror of this record (plain strings, so
    /// `foldic-obs` needs no knowledge of the flow's enums).
    pub fn to_manifest_entry(&self) -> foldic_obs::manifest::FaultEntry {
        foldic_obs::manifest::FaultEntry {
            scope: self.scope.clone(),
            block: self.block.clone(),
            stage: self.stage.as_str().to_owned(),
            attempts: u64::from(self.attempts),
            disposition: self.disposition.as_str().to_owned(),
        }
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is missing or malformed —
    /// including a non-numeric, negative, fractional, or out-of-range
    /// `attempts` count, which older versions silently truncated.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("fault record missing `{key}`"))
        };
        let stage: FlowStage = text("stage")?.parse()?;
        let disposition = match text("disposition")?.as_str() {
            "recovered" => Disposition::Recovered,
            "degraded" => Disposition::Degraded,
            other => return Err(format!("unknown disposition `{other}`")),
        };
        let attempts = match json.get("attempts") {
            None => 1,
            Some(v) => {
                let n = v
                    .as_f64()
                    .ok_or_else(|| "fault record `attempts` is not a number".to_owned())?;
                if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
                    return Err(format!("fault record `attempts` out of range: {n}"));
                }
                n as u32
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match json.get(key) {
                None => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("fault record `{key}` is not a bool")),
            }
        };
        Ok(Self {
            scope: text("scope")?,
            block: text("block")?,
            stage,
            attempts,
            disposition,
            timed_out: flag("timed_out")?,
            mem_exceeded: flag("mem_exceeded")?,
        })
    }
}

/// Runs `f` behind an unwind boundary, translating panics into
/// [`FlowError`]s. Injected panics carry a `FlowError` payload and come
/// back intact (stage and block preserved); organic panics are
/// stringified and attributed to [`FlowStage::Job`].
///
/// # Errors
///
/// Propagates `f`'s own error, or the translated panic.
pub fn isolate<R>(f: impl FnOnce() -> Result<R, FlowError>) -> Result<R, FlowError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(match payload.downcast::<FlowError>() {
            Ok(e) => *e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                FlowError::panic(msg)
            }
        }),
    }
}

/// Appends a record to the fault log of the run entered on the calling
/// thread; [`RunCtx::finish`](crate::RunCtx::finish) drains it, sorted.
/// Dropped when no run is entered (the record still reaches the caller's
/// own result, e.g. `FullChipResult::faults`).
pub fn log_fault(record: FaultRecord) {
    if let Some(run) = crate::ctx::current() {
        crate::ctx::lock(&run.log).push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultCause;

    #[test]
    fn isolate_passes_results_and_translates_panics() {
        assert_eq!(isolate(|| Ok(7)), Ok(7));
        let e = isolate::<()>(|| panic!("organic {}", "boom")).unwrap_err();
        assert_eq!(e.stage, FlowStage::Job);
        assert_eq!(e.cause, FaultCause::Panic("organic boom".to_owned()));
        // injected panics keep their typed payload
        let injected = FlowError::injected(FlowStage::Route, "x").with_block("dec");
        let back = isolate::<()>(|| std::panic::panic_any(injected.clone())).unwrap_err();
        assert_eq!(back, injected);
    }

    #[test]
    fn records_roundtrip_and_sort_stably() {
        let r = FaultRecord {
            scope: "core_cache".into(),
            block: "dec".into(),
            stage: FlowStage::Route,
            attempts: 3,
            disposition: Disposition::Degraded,
            timed_out: false,
            mem_exceeded: false,
        };
        let back = FaultRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(r.to_string().contains("degraded after 3 attempts"));

        // logged outside any run: dropped
        log_fault(r.clone());
        let run = crate::RunCtx::new();
        {
            let _entered = run.enter();
            log_fault(FaultRecord {
                scope: "z".into(),
                ..r.clone()
            });
            log_fault(r.clone());
        }
        let z = FaultRecord {
            scope: "z".into(),
            ..r.clone()
        };
        assert_eq!(run.finish().faults, [r, z], "drained sorted");
    }

    #[test]
    fn retry_policy_clamps() {
        assert_eq!(RetryPolicy::attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 3);
        assert_eq!(RetryPolicy::default().backoff, Duration::ZERO);
        let with = RetryPolicy::attempts(2).with_backoff(Duration::from_millis(10));
        assert_eq!(with.backoff, Duration::from_millis(10));
    }

    #[test]
    fn timed_out_records_mark_display_and_json_but_stay_backward_compatible() {
        let mut r = FaultRecord {
            scope: "2d".into(),
            block: "ccx".into(),
            stage: FlowStage::Route,
            attempts: 2,
            disposition: Disposition::Degraded,
            timed_out: true,
            mem_exceeded: false,
        };
        assert!(r.to_string().ends_with("after 2 attempts (timed out)"));
        let back = FaultRecord::from_json(&r.to_json()).unwrap();
        assert!(back.timed_out);
        // a plain record's JSON has no timed_out key at all, so old
        // checkpoints and manifests are byte-identical
        r.timed_out = false;
        assert!(!r.to_json().to_compact().contains("timed_out"));
        assert!(!r.to_string().contains("timed out"));
    }

    #[test]
    fn mem_exceeded_records_mark_display_and_json_but_stay_backward_compatible() {
        let mut r = FaultRecord {
            scope: "2d".into(),
            block: "spc0".into(),
            stage: FlowStage::Place,
            attempts: 3,
            disposition: Disposition::Degraded,
            timed_out: false,
            mem_exceeded: true,
        };
        assert!(r.to_string().ends_with("after 3 attempts (mem exceeded)"));
        let back = FaultRecord::from_json(&r.to_json()).unwrap();
        assert!(back.mem_exceeded && !back.timed_out);
        // a plain record's JSON has no mem_exceeded key at all, so old
        // checkpoints and manifests are byte-identical
        r.mem_exceeded = false;
        assert!(!r.to_json().to_compact().contains("mem_exceeded"));
        assert!(!r.to_string().contains("mem exceeded"));
        let mut json = r.to_json();
        if let Some(obj) = json.as_obj_mut() {
            obj.insert("mem_exceeded".to_owned(), Json::Num(1.0));
        }
        assert!(FaultRecord::from_json(&json).is_err());
    }

    #[test]
    fn from_json_rejects_malformed_attempts_and_flags() {
        let base = FaultRecord {
            scope: "s".into(),
            block: "b".into(),
            stage: FlowStage::Sta,
            attempts: 1,
            disposition: Disposition::Recovered,
            timed_out: false,
            mem_exceeded: false,
        };
        let with = |key: &str, value: Json| {
            let mut json = base.to_json();
            if let Some(obj) = json.as_obj_mut() {
                obj.insert(key.to_owned(), value);
            }
            json
        };
        for bad in [
            Json::Num(-1.0),
            Json::Num(1.5),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(5e12),
            Json::Str("three".into()),
        ] {
            let json = with("attempts", bad.clone());
            assert!(
                FaultRecord::from_json(&json).is_err(),
                "attempts {bad:?} must be rejected"
            );
        }
        assert!(FaultRecord::from_json(&with("timed_out", Json::Num(1.0))).is_err());
        // a missing attempts key still defaults to 1 (legacy records)
        let mut json = base.to_json();
        if let Some(obj) = json.as_obj_mut() {
            obj.remove("attempts");
        }
        assert_eq!(FaultRecord::from_json(&json).unwrap().attempts, 1);
    }
}
