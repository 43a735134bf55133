#![warn(missing_docs)]
//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The [`experiments`] module holds one runner per table/figure; each
//! returns a formatted report comparing the measured values against the
//! paper's published numbers ([`paper`]). The `repro` binary drives them
//! from the command line; the Criterion benches in `benches/` time the
//! underlying kernels.
//!
//! Absolute numbers are not expected to match the paper — the substrate
//! is a synthetic design and an open tool chain, not the OpenSPARC T2 RTL
//! under commercial sign-off tools. What must match is the *shape*: which
//! design wins, by roughly what factor, and where the crossovers fall.

pub mod experiments;
pub mod kernels;
pub mod paper;
pub mod scale;
pub mod serve;

use foldic::prelude::*;
use foldic::{CheckpointStore, FaultRecord, FlowStage, RetryPolicy};
use foldic_partition::{bipartition, degrade_partition, Partition};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Shared experiment context: one generated design plus cached full-chip
/// runs (several experiments read the same runs).
///
/// `threads` fans both the per-block loops inside a full-chip run and the
/// multi-configuration sweeps of the experiments out over the execution
/// engine. Every reported number is identical for any thread count: jobs
/// are independent, each seeds its own RNG stream, and the engine returns
/// results in submission order.
pub struct Ctx {
    /// The pristine generated design (cloned per run).
    pub design: Design,
    /// Matching technology.
    pub tech: Technology,
    /// Generation config used.
    pub cfg: T2Config,
    /// Worker threads for full-chip runs and experiment sweeps.
    pub threads: usize,
    /// Retry policy for faulted blocks inside full-chip runs.
    pub retry: RetryPolicy,
    /// Optional checkpoint store shared by every full-chip run: finished
    /// blocks are recorded and replayed on resume.
    pub checkpoint: Option<Arc<CheckpointStore>>,
    cache: HashMap<(DesignStyle, bool), FullChipResult>,
}

impl Ctx {
    /// Generates the design for `cfg` (serial execution).
    pub fn new(cfg: T2Config) -> Self {
        Self::with_threads(cfg, 1)
    }

    /// Generates the design for `cfg` with a worker-thread count.
    pub fn with_threads(cfg: T2Config, threads: usize) -> Self {
        let (design, tech) = cfg.generate();
        Self::with_design(cfg, design, tech, threads)
    }

    /// Wraps a pre-built design (e.g. loaded from a `foldic-db/1`
    /// snapshot) instead of generating one. `cfg` must be the config the
    /// design was generated from, so experiment headers and manifests
    /// stay truthful.
    pub fn with_design(cfg: T2Config, design: Design, tech: Technology, threads: usize) -> Self {
        Self {
            design,
            tech,
            cfg,
            threads,
            retry: RetryPolicy::default(),
            checkpoint: None,
            cache: HashMap::new(),
        }
    }

    /// Runs (or returns the cached) full-chip flow for a style.
    pub fn fullchip(&mut self, style: DesignStyle, dual_vth: bool) -> &FullChipResult {
        if !self.cache.contains_key(&(style, dual_vth)) {
            let mut design = self.design.clone();
            let cfg = FullChipConfig {
                dual_vth,
                threads: self.threads,
                retry: self.retry,
                checkpoint: self.checkpoint.clone(),
                ..FullChipConfig::default()
            };
            let result = run_fullchip(&mut design, &self.tech, style, &cfg)
                .unwrap_or_else(|e| panic!("full-chip {} failed: {e}", style.label()));
            self.cache.insert((style, dual_vth), result);
        }
        &self.cache[&(style, dual_vth)]
    }

    /// Fills the cache for several `(style, dual_vth)` configurations at
    /// once, one engine job per missing configuration (the sweep-level
    /// fan-out; each job runs its blocks serially). Results are identical
    /// to filling the cache through [`Ctx::fullchip`].
    pub fn warm(&mut self, runs: &[(DesignStyle, bool)]) {
        let missing: Vec<(DesignStyle, bool)> = runs
            .iter()
            .copied()
            .filter(|k| !self.cache.contains_key(k))
            .collect();
        if missing.is_empty() {
            return;
        }
        let design = &self.design;
        let tech = &self.tech;
        let retry = self.retry;
        let checkpoint = &self.checkpoint;
        let results = foldic_exec::par_map(self.threads, missing, |_, (style, dual_vth)| {
            let mut d = design.clone();
            let cfg = FullChipConfig {
                dual_vth,
                threads: 1,
                retry,
                checkpoint: checkpoint.clone(),
                ..FullChipConfig::default()
            };
            let result = run_fullchip(&mut d, tech, style, &cfg)
                .unwrap_or_else(|e| panic!("full-chip {} failed: {e}", style.label()));
            ((style, dual_vth), result)
        });
        self.cache.extend(results);
    }

    /// Returns a previously computed full-chip run (panics when the
    /// configuration has not been run; see [`Ctx::warm`]).
    pub fn cached(&self, style: DesignStyle, dual_vth: bool) -> &FullChipResult {
        self.cache
            .get(&(style, dual_vth))
            .expect("full-chip run cached via warm()/fullchip()")
    }

    /// One pristine block by name.
    fn pristine(&self, name: &str) -> &Block {
        let id = self
            .design
            .find_block(name)
            .unwrap_or_else(|| panic!("unknown block {name}"));
        self.design.block(id)
    }

    /// A clone of one pristine block, for the studies that fold, place or
    /// flow a single block (full-chip runs clone the whole design).
    pub fn block(&self, name: &str) -> Block {
        self.pristine(name).clone()
    }

    /// The min-cut a default [`FoldConfig`] computes for one pristine
    /// block, under a `partition` span so `--profile` shows it. A sweep
    /// computes it once and folds every point from it through
    /// [`quality_fold`](Ctx::quality_fold).
    pub fn min_cut(&self, name: &str) -> Partition {
        let _span = foldic_obs::trace::SpanGuard::enter(FlowStage::Partition.as_str());
        let cfg = FoldConfig::default().partition;
        bipartition(&self.pristine(name).netlist, &self.tech, &cfg)
    }

    /// The strategy that folds `name` exactly as a default [`FoldConfig`]
    /// with [`FoldStrategy::Quality`]`(quality)` does, from the block's
    /// [`min_cut`](Ctx::min_cut) instead of a fresh one.
    pub fn quality_fold(&self, name: &str, min_cut: &Partition, quality: f64) -> FoldStrategy {
        let cfg = FoldConfig::default().partition;
        let netlist = &self.pristine(name).netlist;
        FoldStrategy::Given(degrade_partition(netlist, &cfg, min_cut.clone(), quality))
    }

    /// Runs the plain 2D block flow on a clone of one block and returns
    /// its metrics.
    pub fn block_2d(&self, name: &str) -> DesignMetrics {
        let mut b = self.block(name);
        let budgets = foldic_timing::TimingBudgets::relaxed(&b.netlist, &self.tech);
        foldic::flow::run_block_flow(&mut b, &self.tech, &budgets, &FlowConfig::default())
            .unwrap_or_else(|e| panic!("2D flow for {name} failed: {e}"))
            .metrics
    }
}

/// Formats the fault footer appended to reports whose full-chip runs
/// recovered or degraded blocks. Empty for clean runs, so fault-free
/// reports stay byte-identical to pre-fault-tolerance output. Records
/// are sorted and deduplicated (several experiments share cached runs),
/// so the footer is deterministic across thread counts.
pub fn fault_footer(runs: &[&FullChipResult]) -> String {
    let mut records: Vec<&FaultRecord> = runs.iter().flat_map(|r| r.faults.iter()).collect();
    records.sort();
    records.dedup();
    if records.is_empty() {
        return String::new();
    }
    let mut out = String::from("-- faults --\n");
    for r in records {
        let _ = writeln!(out, "!! {r}");
    }
    out
}

/// Percentage delta, `(new − base) / base × 100`.
pub fn pct(base: f64, new: f64) -> f64 {
    foldic::metrics::pct(base, new)
}

/// Formats a `measured vs paper` delta pair.
pub fn fmt_delta(measured: f64, paper: f64) -> String {
    format!("{measured:+7.1}% (paper {paper:+6.1}%)")
}
