//! `perfbench`: runs one workload of the foldic benchmark and prints
//! every metric by name and unit, ending with one JSON result line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size small|tiny] [--work-dir DIR]
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `layers.json` beside this crate):
//! `t2_small`, `serve_mix`. `--size tiny` shrinks the flow workload's
//! design for smoke tests; the benchmark itself always runs `small`.

mod flow;
mod report;
mod serve;
mod trace;

use foldic_obs::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's contract: workloads and metrics with units.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of the contract.
fn contract_metrics(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .expect("every metric has a name and a unit")
            .to_owned()
    };
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: String,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: "small".to_owned(),
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--size" => {
                args.size = value()?;
                if !matches!(args.size.as_str(), "small" | "tiny") {
                    return Err(format!("--size takes small or tiny, got `{}`", args.size));
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let (size, seed, work) = (args.size.as_str(), args.seed, args.work_dir.as_path());
    let report = match (args.workload.as_str(), args.trace) {
        ("t2_small", false) => flow::run(size, seed, args.seconds, work),
        ("t2_small", true) => flow::run_traced(size, seed, work),
        ("serve_mix", _) => match serve::run(seed, args.seconds, work) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: serve_mix: {e}");
                return ExitCode::FAILURE;
            }
        },
        (other, _) => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    for (name, m) in &report.metrics {
        println!("{name:<28} {:>16.4} {}", m.value, m.unit);
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!(
        "{}",
        report.result_line(&contract_metrics(section), args.trace)
    );
    ExitCode::SUCCESS
}
