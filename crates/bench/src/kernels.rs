//! Kernel microbenchmarks behind `repro bench`.
//!
//! Times the hot kernels of the flow — sequence-pair packing (the SA
//! inner loop), one SA temperature step, one quadratic-system solve, one
//! FM bipartition, one SPC's folded-FUB partition, one wiring analysis
//! and one opt call's STA rounds — one load of the tiny T2's snapshot,
//! and the two halves of a served study miss (one tiny T2 generation;
//! one tiny `fig2` from a fresh context),
//! with the same built-in harness the `cargo bench` targets use
//! (fixed sample count, median/min/max; Criterion is a registry
//! dependency and this workspace is offline-first). `--json` emits a
//! `foldic-kernel-bench/1` document so CI can gate on the run completing
//! with well-formed output; wall-time thresholds are deliberately not
//! enforced (the reference container has one core and shares it).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::{experiments, Ctx};
use foldic_floorplan::seqpair::{anneal_floorplan, FpBlock, Packer, SaConfig, SeqPair};
use foldic_netlist::{db, InstId, InstMaster};
use foldic_obs::json::Json;
use foldic_opt::{insert_buffers, OptConfig};
use foldic_partition::{bipartition, bipartition_subsets, PartitionConfig};
use foldic_place::{place_block, PlacerConfig, QuadraticSystem};
use foldic_route::wiring::DEFAULT_DETOUR;
use foldic_route::BlockWiring;
use foldic_t2::T2Config;
use foldic_tech::VthClass;
use foldic_timing::{StaConfig, TimingBudgets, TimingGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timing samples per kernel.
const SAMPLES: usize = 10;

/// One timed kernel: wall times are per *sample*, each sample running the
/// kernel body `iters` times back to back (sub-µs kernels need batching
/// for a stable clock read).
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name (stable key in the JSON document).
    pub name: String,
    /// Median wall time of one sample, ms.
    pub median_ms: f64,
    /// Fastest sample, ms.
    pub min_ms: f64,
    /// Slowest sample, ms.
    pub max_ms: f64,
    /// Samples taken.
    pub samples: usize,
    /// Kernel executions per sample.
    pub iters: u64,
}

/// Whether `filter` selects the kernel `name`.
fn selected(filter: &Option<String>, name: &str) -> bool {
    filter
        .as_ref()
        .is_none_or(|pat| name.contains(pat.as_str()))
}

fn time_kernel(
    filter: &Option<String>,
    name: &str,
    iters: u64,
    mut f: impl FnMut(),
) -> Option<KernelResult> {
    if !selected(filter, name) {
        return None;
    }
    let mut run = || {
        for _ in 0..iters {
            f();
        }
    };
    run(); // warm-up
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(KernelResult {
        name: name.to_owned(),
        median_ms: times[times.len() / 2],
        min_ms: times[0],
        max_ms: times[times.len() - 1],
        samples: SAMPLES,
        iters,
    })
}

/// Deterministic random blocks for the packing kernels (dims in the range
/// the study's floorplans see).
fn random_blocks(rng: &mut StdRng, n: usize) -> Vec<FpBlock> {
    (0..n)
        .map(|_| FpBlock {
            w: rng.gen::<f64>() * 120.0 + 5.0,
            h: rng.gen::<f64>() * 120.0 + 5.0,
        })
        .collect()
}

/// A deterministic random permutation pair over `n` blocks.
fn random_seq_pair(rng: &mut StdRng, n: usize) -> SeqPair {
    let mut sp = SeqPair::identity(n);
    for i in (1..n).rev() {
        sp.pos.swap(i, rng.gen_range(0..i + 1));
        sp.neg.swap(i, rng.gen_range(0..i + 1));
    }
    sp
}

/// Runs every kernel matching `filter` (substring; `None` = all) and
/// returns the results in execution order.
pub fn run_kernels(filter: &Option<String>) -> Vec<KernelResult> {
    let mut results = Vec::new();
    let mut push = |r: Option<KernelResult>| {
        if let Some(r) = r {
            println!(
                "{:<24} median {:>10.3} ms   min {:>10.3} ms   max {:>10.3} ms   ({} iters/sample)",
                r.name, r.median_ms, r.min_ms, r.max_ms, r.iters
            );
            results.push(r);
        }
    };

    // Sequence-pair packing at the paper-relevant sizes: 14 top-level
    // units, 46 blocks (the study's block count), 128 as the stress size.
    // Batched because a single pack is sub-µs after the FAST-SP rewrite.
    for (n, iters) in [(14usize, 400u64), (46, 200), (128, 100)] {
        let mut rng = StdRng::seed_from_u64(0xDAC2_0140 + n as u64);
        let blocks = random_blocks(&mut rng, n);
        let sp = random_seq_pair(&mut rng, n);
        let mut packer = Packer::new();
        push(time_kernel(filter, &format!("pack_n{n}"), iters, || {
            black_box(packer.pack(&sp, &blocks));
        }));
    }

    // One SA temperature step over 46 blocks inside a fixed outline: the
    // per-step cost the annealer pays `steps` times per floorplan.
    {
        let mut rng = StdRng::seed_from_u64(0xDAC2_0146);
        let blocks = random_blocks(&mut rng, 46);
        let cfg = SaConfig {
            steps: 1,
            ..Default::default()
        };
        push(time_kernel(filter, "sa_temp_step_n46", 1, || {
            black_box(anneal_floorplan(
                &blocks,
                &Vec::new(),
                Some((300.0, 300.0)),
                &cfg,
            ));
        }));
    }

    let (design, tech) = T2Config::tiny().generate();

    // One load of the tiny T2's `foldic-db/1` snapshot, as a
    // snapshot-backed run starts: the file read, the one digest pass and
    // the column copies. The snapshot is written once to a directory of
    // its own, which is removed after.
    if selected(filter, "db_load_tiny") {
        let dir = std::env::temp_dir().join(format!("foldic-bench-db-{}", std::process::id()));
        let path = dir.join("t2-tiny.fdb");
        let written = std::fs::create_dir_all(&dir)
            .map_err(db::DbError::from)
            .and_then(|()| db::save_design(&design, &[("generator", "t2")], &path))
            .and_then(|()| db::load_design(&path));
        if let Err(e) = written {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("snapshotting the tiny T2 failed: {e}");
            std::process::exit(2);
        }
        push(time_kernel(filter, "db_load_tiny", 1, || {
            black_box(db::load_design(&path).map(|(d, _)| d.total_insts()).ok());
        }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let l2t = design
        .find_block("l2t0")
        .map(|id| design.block(id))
        .unwrap_or_else(|| {
            eprintln!("tiny T2 design lost its l2t0 block");
            std::process::exit(2);
        });

    // One quadratic-system solve on the tiny T2's l2t0 block (the solve
    // the placer repeats `iterations` times per block), always from the
    // generator's positions: re-solving at the previous solution would
    // stop CG after a few iterations and time almost nothing of it.
    {
        let outline = l2t.outline;
        let mut nl = l2t.netlist.clone();
        let start: Vec<_> = nl.insts().map(|(id, inst)| (id, inst.pos)).collect();
        let mut sys = QuadraticSystem::build(&nl, outline);
        push(time_kernel(filter, "quadratic_solve_l2t", 10, || {
            for &(id, pos) in &start {
                nl.inst_mut(id).pos = pos;
            }
            sys.solve(&mut nl, outline, 60, 0.1);
            black_box(sys.num_movable());
        }));
    }

    // One FM bipartition of the same block at the default config: the
    // min-cut an L2T fold runs.
    push(time_kernel(filter, "fm_bipartition_l2t", 1, || {
        black_box(bipartition(&l2t.netlist, &tech, &PartitionConfig::default()).cut);
    }));

    // The six folded FUBs of the tiny T2's spc0, min-cut as the SPC's
    // second-level fold does: one walk over the block's nets, then FM on
    // each FUB's hypergraph.
    if selected(filter, "fm_fubs_spc0") {
        let spc = design
            .find_block("spc0")
            .map(|id| &design.block(id).netlist)
            .unwrap_or_else(|| {
                eprintln!("tiny T2 design lost its spc0 block");
                std::process::exit(2);
            });
        let fubs: Vec<Vec<InstId>> = foldic_t2::SPC_FUBS
            .iter()
            .filter(|&&(_, _, folded)| folded)
            .map(|&(name, _, _)| {
                spc.insts()
                    .filter(|(_, inst)| inst.group.is_some_and(|g| spc.group_name(g) == name))
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        push(time_kernel(filter, "fm_fubs_spc0", 10, || {
            let parts = bipartition_subsets(spc, &tech, &PartitionConfig::default(), &fubs);
            black_box(parts.iter().map(|p| p.cut).sum::<usize>());
        }));
    }

    // The same block placed once at `quality()`, for the kernels opt runs.
    let placed = || {
        let mut nl = l2t.netlist.clone();
        place_block(&mut nl, &tech, l2t.outline, &PlacerConfig::quality()).unwrap_or_else(|e| {
            eprintln!("placing l2t0 failed: {e}");
            std::process::exit(2);
        });
        nl
    };

    // One wiring analysis of the placed block: the analysis opt runs
    // after buffering.
    if selected(filter, "wiring_analyze_l2t") {
        let nl = placed();
        push(time_kernel(filter, "wiring_analyze_l2t", 10, || {
            let _ = black_box(BlockWiring::analyze(&nl, &tech, DEFAULT_DETOUR, None));
        }));
    }

    // One opt call's STA on the placed, buffered block: a timing-graph
    // build, a first timing, then five rounds that each resize a fixed
    // random eighth of the cells (a drive up or down, to HVT or back)
    // and re-time. Each sample restores the starting masters at the end.
    if selected(filter, "sta_rounds_l2t") {
        let mut nl = placed();
        let opt = OptConfig::default();
        insert_buffers(&mut nl, &tech, &opt, None).unwrap_or_else(|e| {
            eprintln!("buffering l2t0 failed: {e}");
            std::process::exit(2);
        });
        let wiring = BlockWiring::analyze(&nl, &tech, opt.detour, None).unwrap_or_else(|e| {
            eprintln!("analysing l2t0 failed: {e}");
            std::process::exit(2);
        });
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let sta = StaConfig {
            max_layer: opt.max_layer,
            via_kind: None,
        };
        let start: Vec<(InstId, InstMaster)> =
            nl.insts().map(|(id, inst)| (id, inst.master)).collect();
        let mut rng = StdRng::seed_from_u64(0xDAC2_0157);
        let rounds: Vec<Vec<(InstId, InstMaster)>> = (0..5)
            .map(|_| {
                let mut moves = Vec::new();
                for (id, inst) in nl.insts() {
                    let InstMaster::Cell(m) = inst.master else {
                        continue;
                    };
                    if !rng.gen_bool(0.125) {
                        continue;
                    }
                    let next = match rng.gen_range(0..4) {
                        0 => tech.cells.upsize(m),
                        1 => tech.cells.downsize(m),
                        2 => Some(tech.cells.with_vth(m, VthClass::Hvt)),
                        _ => Some(tech.cells.with_vth(m, VthClass::Rvt)),
                    };
                    if let Some(next) = next {
                        moves.push((id, InstMaster::Cell(next)));
                    }
                }
                for &(id, master) in &moves {
                    nl.inst_mut(id).master = master;
                }
                moves
            })
            .collect();
        for &(id, master) in &start {
            nl.inst_mut(id).master = master;
        }
        push(time_kernel(filter, "sta_rounds_l2t", 10, || {
            let mut graph = TimingGraph::build(&nl, &tech, &wiring, &budgets, &sta);
            let _ = black_box(graph.time(&nl, &tech));
            for moves in &rounds {
                for &(id, master) in moves {
                    nl.inst_mut(id).master = master;
                }
                let _ = black_box(graph.time(&nl, &tech));
            }
            for &(id, master) in &start {
                nl.inst_mut(id).master = master;
            }
        }));
    }

    // A served study miss on the tiny T2, in its two halves: generating
    // the design, and a fresh context (generation included) running
    // `fig2`, as `repro serve` runs a `fig2` job.
    push(time_kernel(filter, "t2gen_tiny", 1, || {
        black_box(T2Config::tiny().generate().0.total_insts());
    }));
    push(time_kernel(filter, "study_fig2_tiny", 1, || {
        let mut ctx = Ctx::with_threads(T2Config::tiny(), 1);
        black_box(experiments::fig2(&mut ctx).len());
    }));

    results
}

/// Serializes results as a `foldic-kernel-bench/1` document.
pub fn to_json(results: &[KernelResult]) -> Json {
    let kernels: BTreeMap<String, Json> = results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                Json::obj([
                    ("median_ms".to_owned(), Json::Num(r.median_ms)),
                    ("min_ms".to_owned(), Json::Num(r.min_ms)),
                    ("max_ms".to_owned(), Json::Num(r.max_ms)),
                    ("samples".to_owned(), Json::Num(r.samples as f64)),
                    ("iters".to_owned(), Json::Num(r.iters as f64)),
                ]),
            )
        })
        .collect();
    Json::obj([
        (
            "schema".to_owned(),
            Json::Str("foldic-kernel-bench/1".to_owned()),
        ),
        ("kernels".to_owned(), Json::Obj(kernels)),
    ])
}
