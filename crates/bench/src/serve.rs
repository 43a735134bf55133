//! The real [`StudyRunner`] behind `repro serve`: executes paper
//! experiments and emits `foldic-run-manifest/1` bodies.
//!
//! The canonical config this runner resolves a job to is **byte-for-byte
//! the map the one-shot `repro --manifest` CLI writes** (`size`, hex
//! `seed`, `cluster_size`, `experiments` in the fixed run order, plus
//! `deadline` when bounded). That equality is what makes the daemon's
//! content-addressed cache interoperate with offline manifests: a served
//! result and a CLI run of the same study digest-compare clean with
//! `repro compare`, and the serve cache key is a pure function of the
//! same bytes. The e2e gate (`crates/bench/tests/serve_gate.rs`) pins it.
//!
//! Serve jobs keep the manifest's `timing` section `Null` and its
//! `metrics` snapshot empty: both are process-global observations that
//! would race between concurrent jobs, and both are excluded from
//! comparison anyway. Every job runs under its own `foldic-fault`
//! [`RunCtx`] — its deadline, memory budget and fault log — so jobs on
//! concurrent workers never see each other's policies or records.

use crate::{experiments, Ctx};
use foldic::{DeadlinePolicy, FaultRecord, ResourcePolicy, RunCtx, RunOutcome};
use foldic_exec::JobPanic;
use foldic_obs::json::Json;
use foldic_obs::manifest::RunManifest;
use foldic_serve::queue::{FlightRecord, StudyRunner};
use foldic_serve::JobSpec;
use foldic_t2::T2Config;
use std::collections::BTreeMap;
use std::time::Duration;

/// Experiments the daemon serves, in the fixed `repro` run order.
/// `layouts` (writes files) and the `all` alias are deliberately not
/// servable: a job names its studies explicitly.
pub const SERVABLE: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table5",
    "thermal",
    "ablations",
];

/// Executes `foldic-bench` experiments for the serve scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchRunner;

/// A resolved, runnable study.
struct Resolved {
    cfg: T2Config,
    names: Vec<&'static str>,
    config: BTreeMap<String, String>,
}

fn resolve_spec(spec: &JobSpec) -> Result<Resolved, String> {
    let mut cfg = match spec.size.as_str() {
        "full" => T2Config::full(),
        "small" => T2Config::small(),
        "tiny" => T2Config::tiny(),
        other => return Err(format!("unknown size `{other}` (full|small|tiny)")),
    };
    if let Some(seed) = spec.seed {
        cfg.seed = seed;
    }
    for name in &spec.experiments {
        if !SERVABLE.contains(&name.as_str()) {
            return Err(format!(
                "experiment `{name}` is not servable (servable: {})",
                SERVABLE.join(" ")
            ));
        }
    }
    // Canonical order + dedup: the run order is fixed, so two jobs naming
    // the same set of studies resolve to the same config — and the same
    // cache entry — regardless of how the client ordered them.
    let names: Vec<&'static str> = SERVABLE
        .iter()
        .copied()
        .filter(|name| spec.experiments.iter().any(|e| e == name))
        .collect();

    let mut config = BTreeMap::new();
    config.insert("size".to_owned(), spec.size.clone());
    config.insert("seed".to_owned(), format!("{:#x}", cfg.seed));
    config.insert("cluster_size".to_owned(), cfg.cluster_size.to_string());
    config.insert("experiments".to_owned(), names.join("+"));
    if let Some(secs) = spec.deadline_secs {
        config.insert("deadline".to_owned(), format!("{secs}"));
    }
    Ok(Resolved { cfg, names, config })
}

fn run_experiments(ctx: &mut Ctx, names: &[&'static str], manifest: &mut RunManifest) {
    for name in names {
        let text = match *name {
            "table1" => experiments::table1(&ctx.tech),
            "table2" => experiments::table2(ctx),
            "table3" => experiments::table3(ctx),
            "table4" => experiments::table4(ctx),
            "fig2" => experiments::fig2(ctx),
            "fig3" => experiments::fig3(ctx),
            "fig5" => experiments::fig5(ctx),
            "fig6" => experiments::fig6(ctx),
            "fig7" => experiments::fig7(ctx),
            "fig8" => experiments::fig8(ctx),
            "table5" => experiments::table5(ctx),
            "thermal" => experiments::thermal(ctx),
            "ablations" => experiments::ablations(ctx),
            other => unreachable!("unservable experiment `{other}` past resolve"),
        };
        manifest.record_result(name, &text);
    }
}

impl StudyRunner for BenchRunner {
    fn resolve(&self, spec: &JobSpec) -> Result<BTreeMap<String, String>, String> {
        Ok(resolve_spec(spec)?.config)
    }

    fn run(&self, spec: &JobSpec) -> Result<String, String> {
        self.run_budgeted(spec, None).0
    }

    fn run_budgeted(
        &self,
        spec: &JobSpec,
        mem_budget: Option<u64>,
    ) -> (Result<String, String>, Vec<FlightRecord>) {
        let resolved = match resolve_spec(spec) {
            Ok(resolved) => resolved,
            Err(e) => return (Err(e), Vec::new()),
        };
        let mut manifest = RunManifest {
            config: resolved.config,
            ..RunManifest::default()
        };
        let mut ctx = Ctx::with_threads(resolved.cfg, spec.threads.max(1));

        // Bounded jobs leave provenance records, which a degraded job's
        // status payload carries. Unbounded jobs keep their status
        // payloads free of them.
        let bounded = spec.deadline_secs.is_some() || mem_budget.is_some();
        let mut flight = Vec::new();
        if bounded {
            let mut start_fields = vec![
                (
                    "experiments".to_owned(),
                    Json::Str(resolved.names.join("+")),
                ),
                ("size".to_owned(), Json::Str(spec.size.clone())),
            ];
            if let Some(secs) = spec.deadline_secs {
                start_fields.push(("deadline_secs".to_owned(), Json::Num(secs)));
            }
            if let Some(bytes) = mem_budget {
                start_fields.push(("mem_budget_bytes".to_owned(), Json::Num(bytes as f64)));
            }
            flight.push(FlightRecord::new("job.start", start_fields));
        }
        let mut run = RunCtx::new();
        if let Some(secs) = spec.deadline_secs {
            let policy = DeadlinePolicy {
                overall: Some(Duration::from_secs_f64(secs)),
                ..DeadlinePolicy::default()
            };
            run = run.with_deadline(&policy, "serve");
        }
        if let Some(bytes) = mem_budget {
            run = run.with_resource(ResourcePolicy {
                overall: Some(bytes),
                stage_budgets: Vec::new(),
            });
        }
        let caught = {
            let _entered = run.enter();
            foldic_exec::run_caught(std::panic::AssertUnwindSafe(|| {
                run_experiments(&mut ctx, &resolved.names, &mut manifest);
            }))
        };
        let outcome = run.finish();
        if bounded {
            record_flight(
                &mut flight,
                &outcome,
                caught.as_ref().err(),
                mem_budget.is_some(),
            );
        }
        let body = match caught {
            Ok(()) => {
                outcome.record_in(&mut manifest);
                Ok(manifest.to_json_text())
            }
            Err(panic) if bounded => Err(format!("job panicked: {}", panic.message())),
            // an unbounded job's panic stays the scheduler's to handle
            Err(panic) => std::panic::resume_unwind(panic.payload),
        };
        (body, flight)
    }
}

/// Pushes a bounded job's provenance onto `flight`: one record per
/// timed-out, budget-breached or faulted block, the panic if the run
/// panicked, and an end summary.
fn record_flight(
    flight: &mut Vec<FlightRecord>,
    outcome: &RunOutcome,
    panic: Option<&JobPanic>,
    budgeted: bool,
) {
    let flight_fields = |record: &FaultRecord| {
        [
            ("block".to_owned(), Json::Str(record.block.clone())),
            (
                "disposition".to_owned(),
                Json::Str(record.disposition.as_str().to_owned()),
            ),
            ("scope".to_owned(), Json::Str(record.scope.clone())),
            (
                "stage".to_owned(),
                Json::Str(record.stage.as_str().to_owned()),
            ),
        ]
    };
    for (name, records) in [
        ("stage.timeout", &outcome.timeouts),
        ("stage.mem_exceeded", &outcome.mem_exceeded),
        ("stage.fault", &outcome.faults),
    ] {
        for record in records {
            flight.push(FlightRecord::new(name, flight_fields(record)));
        }
    }
    if let Some(panic) = panic {
        flight.push(FlightRecord::new(
            "job.panic",
            [("message".to_owned(), Json::Str(panic.message().to_owned()))],
        ));
    }
    let mut end_fields = vec![
        ("faults".to_owned(), Json::Num(outcome.faults.len() as f64)),
        (
            "outcome".to_owned(),
            Json::Str(if panic.is_none() { "ok" } else { "panicked" }.to_owned()),
        ),
        (
            "timeouts".to_owned(),
            Json::Num(outcome.timeouts.len() as f64),
        ),
    ];
    if budgeted {
        // pay-for-use: deadline-only jobs keep their pre-budget flight
        // shape byte-for-byte
        end_fields.push((
            "mem_exceeded".to_owned(),
            Json::Num(outcome.mem_exceeded.len() as f64),
        ));
    }
    flight.push(FlightRecord::new("job.end", end_fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(names: &[&str], size: &str) -> JobSpec {
        JobSpec {
            experiments: names.iter().map(|s| (*s).to_owned()).collect(),
            size: size.to_owned(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn resolve_canonicalizes_order_and_dedups() {
        let runner = BenchRunner;
        let a = runner
            .resolve(&spec(&["fig2", "table1", "fig2"], "tiny"))
            .unwrap();
        let b = runner.resolve(&spec(&["table1", "fig2"], "tiny")).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get("experiments").unwrap(), "table1+fig2");
        assert_eq!(a.get("size").unwrap(), "tiny");
        assert_eq!(
            a.get("seed").unwrap(),
            &format!("{:#x}", T2Config::tiny().seed)
        );
        assert_eq!(
            a.get("cluster_size").unwrap(),
            &T2Config::tiny().cluster_size.to_string()
        );
    }

    #[test]
    fn resolve_rejects_unservable_and_unknown() {
        let runner = BenchRunner;
        for bad in ["layouts", "all", "bogus"] {
            let err = runner.resolve(&spec(&[bad], "tiny")).unwrap_err();
            assert!(err.contains("not servable"), "{bad}: {err}");
        }
        assert!(runner
            .resolve(&spec(&["table1"], "huge"))
            .unwrap_err()
            .contains("unknown size"));
    }

    #[test]
    fn seed_override_lands_in_the_config() {
        let runner = BenchRunner;
        let mut s = spec(&["table1"], "tiny");
        s.seed = Some(0xBEEF);
        let config = runner.resolve(&s).unwrap();
        assert_eq!(config.get("seed").unwrap(), "0xbeef");
    }

    #[test]
    fn unbudgeted_run_budgeted_is_plain_run() {
        // With no budget the body is byte-identical to `run`
        // (pay-for-use). The budgeted path itself is exercised end to
        // end by the resource gate.
        let runner = BenchRunner;
        let s = spec(&["table1"], "tiny");
        assert_eq!(
            runner.run(&s).unwrap(),
            runner.run_budgeted(&s, None).0.unwrap()
        );
    }

    #[test]
    fn run_emits_a_parseable_manifest_with_results() {
        let runner = BenchRunner;
        let body = runner.run(&spec(&["table1"], "tiny")).unwrap();
        let manifest = RunManifest::parse(&body).unwrap();
        assert_eq!(manifest.config.get("experiments").unwrap(), "table1");
        assert!(manifest.results.contains_key("table1"));
        assert!(manifest.faults.is_empty());
        assert!(manifest.timeouts.is_empty());
        // determinism: identical spec, identical bytes
        let again = runner.run(&spec(&["table1"], "tiny")).unwrap();
        assert_eq!(body, again);
    }
}
