//! The full-chip flow workload (`t2_small`).
//!
//! The untraced run times `foldic::run_fullchip` as a user calls it. The
//! traced run recomposes the same full-chip run from the layers' public
//! functions, one call at a time, with a span and a memory scope around
//! each call, and must reproduce the untraced QoR bit for bit.

use crate::report::{median, mix, ms_since, peak_rss_mib, percentile, RunReport};
use crate::trace::Tracer;
use foldic::flow::{block_max_layer, collect_metrics};
use foldic::folding::{fold_spc_second_level, fold_with_partition, FoldedBlock};
use foldic::fullchip::{assign_port_positions, chip_budgets};
use foldic::{
    run_fullchip, DesignMetrics, DesignStyle, FoldAspect, FoldConfig, FoldStrategy, FullChipConfig,
    FullChipResult,
};
use foldic_fault::deadline::stage_scope;
use foldic_fault::{clear_resource, install_resource, take_peaks, FlowStage, ResourcePolicy};
use foldic_floorplan::{floorplan_t2, plan_chip_tsvs, FloorplanStyle};
use foldic_geom::{Point, Tier};
use foldic_netlist::{Block, BlockId, BlockKind, Design, GroupId, InstId};
use foldic_opt::{chip_repeater_spacing_um, optimize_block_with_vias, OptStats};
use foldic_partition::{bipartition, bipartition_seeded, partition_by_groups, Partition};
use foldic_power::{analyze_block, PowerConfig, PowerReport};
use foldic_route::{place_vias, BlockWiring, GlobalRouter};
use foldic_t2::T2Config;
use foldic_tech::{BondingStyle, CellKind, Drive, Technology, VthClass};
use foldic_timing::{analyze, StaConfig, TimingBudgets};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 15;
/// Chip-level constants of `foldic::fullchip`'s roll-up (private there).
const TRACK_UTILIZATION: f64 = 0.6;
const CHIP_NET_ACTIVITY: f64 = 0.15;
const MIB: f64 = 1024.0 * 1024.0;

/// The styles of one pass: 2D, the paper's block-level 3D (core/core: the
/// floorplan-heavy, fold-free path) and both bonding styles of the folded
/// design (the partition, fold and via path).
const STYLES: [DesignStyle; 4] = [
    DesignStyle::Flat2d,
    DesignStyle::CoreCore,
    DesignStyle::FoldedF2b,
    DesignStyle::FoldedF2f,
];
/// The style whose QoR the end-to-end metrics report.
const HEADLINE: DesignStyle = DesignStyle::FoldedF2f;

/// The paper's synthetic T2 at the given size. Every run uses the same
/// design: its generation seed moves the worst block's slack by tens of
/// percent and the flow time by about ten, more than any bound could
/// absorb, so the workload seed only orders the styles of each pass.
pub fn t2_config(size: &str) -> T2Config {
    if size == "tiny" {
        T2Config::tiny()
    } else {
        T2Config::small()
    }
}

/// The style order of pass `pass`: a seeded permutation.
fn style_order(seed: u64, pass: u64) -> Vec<DesignStyle> {
    let mut styles = STYLES.to_vec();
    for i in (1..styles.len()).rev() {
        let j = (mix(seed, pass * 16 + i as u64) % (i as u64 + 1)) as usize;
        styles.swap(i, j);
    }
    styles
}

/// The full-chip configuration of the flow workload: defaults, one worker
/// thread.
fn chip_cfg() -> FullChipConfig {
    FullChipConfig {
        threads: 1,
        ..FullChipConfig::default()
    }
}

/// Everything the QoR checks compare, as a string: `Debug` prints each
/// `f64` in its shortest round-trip form, so equal strings mean
/// bit-identical values.
pub fn qor_text(r: &FullChipResult) -> String {
    format!(
        "{:?}|{:?}|{}|{}|{:?}|{}",
        r.chip, r.per_block, r.chip_vias, r.intra_block_vias, r.interblock_wl_um, r.route_overflow
    )
}

struct Setup {
    design: Design,
    tech: Technology,
    /// Median host seconds of one set-up.
    setup_s: f64,
}

/// Builds the design as a user of the snapshot path does: generation and
/// a `foldic-db/1` snapshot write once, then the snapshot's load and
/// structural check, timed as set-up. The flows run on the loaded design.
/// Generation is left out of set-up: its time moves by a third from one
/// process to the next on the shared host, where the load's holds.
fn setup(cfg: &T2Config, work: &Path, rep: &mut RunReport) -> Setup {
    let t = Instant::now();
    let (generated, tech) = cfg.generate();
    rep.set("t2gen.generate_ms", ms_since(t), "ms");
    let cells: usize = generated.blocks().map(|(_, b)| b.netlist.num_insts()).sum();
    rep.set("t2gen.cells", cells as f64, "count");
    let path = work.join(format!("t2-{}.fdb", std::process::id()));
    let seed_text = format!("{:#x}", cfg.seed);
    foldic_netlist::db::save_design(
        &generated,
        &[("generator", "t2"), ("seed", &seed_text)],
        &path,
    )
    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));

    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut check_ms = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (d, _info) = foldic_netlist::db::load_design(&path)
            .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
        load_ms.push(ms_since(t));
        let c = Instant::now();
        for (_, b) in d.blocks() {
            b.netlist
                .check()
                .unwrap_or_else(|e| panic!("snapshot block {} fails its check: {e}", b.name));
        }
        check_ms.push(ms_since(c));
        setup_s.push(t.elapsed().as_secs_f64());
        loaded = Some(d);
    }
    let _ = std::fs::remove_file(&path);
    let design = loaded.expect("at least one load");
    rep.check(design_text(&design) == design_text(&generated), || {
        "the loaded snapshot differs from the generated design".into()
    });
    rep.set("netlist.db_load_ms", median(&load_ms), "ms");
    rep.set("netlist.check_ms", median(&check_ms), "ms");
    rep.set("netlist.db_mib", design.heap_bytes() as f64 / MIB, "MiB");
    Setup {
        design,
        tech,
        setup_s: median(&setup_s),
    }
}

/// The design's shape as text: block names, sizes and outlines.
fn design_text(d: &Design) -> String {
    let mut text = String::new();
    for (_, b) in d.blocks() {
        text.push_str(&format!(
            "{}:{}:{}:{:?};",
            b.name,
            b.netlist.num_insts(),
            b.netlist.num_nets(),
            b.outline
        ));
    }
    text.push_str(&d.chip_nets().len().to_string());
    text
}

/// Checks one pass's results: no faulted or degraded block, every 3D
/// style below 2D in total power (the paper's sign), and folded F2F below
/// folded F2B (the paper's bonding-style result, which the small design
/// reproduces: 2.151 W against 2.368 W).
fn check_pass(results: &[FullChipResult], rep: &mut RunReport) {
    for r in results {
        rep.attempted += r.per_block.len() as u64;
        let bad = r
            .per_block
            .iter()
            .filter(|(_, _, m)| m.degraded)
            .count()
            .max(r.faults.len());
        rep.failed += bad as u64;
        rep.check(bad == 0 && !r.chip.degraded, || {
            format!("{}: {bad} faulted or degraded blocks", r.style.slug())
        });
    }
    let power = |s: DesignStyle| {
        results
            .iter()
            .find(|r| r.style == s)
            .map(|r| r.chip.power.total_uw())
    };
    let base = power(DesignStyle::Flat2d).expect("every pass runs 2D");
    for &s in STYLES.iter().filter(|s| s.is_3d()) {
        let p = power(s).expect("style ran");
        rep.check(p < base, || {
            format!("{} power {p} uW is not below 2D {base} uW", s.slug())
        });
    }
    if let (Some(f2b), Some(f2f)) = (power(DesignStyle::FoldedF2b), power(DesignStyle::FoldedF2f)) {
        rep.check(f2f < f2b, || {
            format!("folded F2F power {f2f} uW is not below folded F2B {f2b} uW")
        });
    }
}

fn headline_metrics(results: &[FullChipResult], tech: &Technology, rep: &mut RunReport) {
    let find = |s| results.iter().find(|r| r.style == s).expect("style ran");
    for r in results {
        let name = format!("qor.{}.power_w", r.style.slug());
        rep.set(&name, r.chip.power.total_w(), "W");
    }
    qor_metrics(find(DesignStyle::Flat2d), find(HEADLINE), tech, rep);
}

/// The headline style's QoR against 2D.
pub fn qor_metrics(
    base: &FullChipResult,
    head: &FullChipResult,
    tech: &Technology,
    rep: &mut RunReport,
) {
    rep.set("chip_power_w", head.chip.power.total_w(), "W");
    rep.set("wirelength_m", head.chip.wirelength_m(), "m");
    rep.set(
        "wns_pct_period",
        100.0 * head.chip.wns_ps / tech.cpu_period_ps(),
        "%",
    );
    let saving = -foldic::metrics::pct(base.chip.power.total_uw(), head.chip.power.total_uw());
    rep.set("power_saving_pct", saving, "%");
}

/// Runs one pass over `styles` through `run_fullchip`, returning the
/// results and each style's wall time in ms.
fn untraced_pass(styles: &[DesignStyle], s: &Setup) -> (Vec<FullChipResult>, Vec<f64>) {
    let cfg = chip_cfg();
    let mut results = Vec::new();
    let mut ms = Vec::new();
    for &style in styles {
        let t = Instant::now();
        let mut design = s.design.clone();
        let r = run_fullchip(&mut design, &s.tech, style, &cfg)
            .unwrap_or_else(|e| panic!("full-chip {} failed: {e}", style.slug()));
        ms.push(ms_since(t));
        results.push(r);
    }
    (results, ms)
}

/// The untraced run: repeated passes for about `seconds`, end-to-end
/// metrics.
pub fn run(size: &str, seed: u64, seconds: f64, work: &Path) -> RunReport {
    let mut rep = RunReport::default();
    let cfg = t2_config(size);
    let s = setup(&cfg, work, &mut rep);
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = 0u64;
    let mut style_ms: Vec<Vec<f64>> = vec![Vec::new(); STYLES.len()];
    let mut first_qor: Option<Vec<String>> = None;
    let mut blocks = 0usize;
    let mut last = Vec::new();
    let mut last_pass = Duration::ZERO;
    // a pass starts only if at least half of it should fall within the
    // window, so a run lasts `seconds` give or take half a pass
    while passes == 0 || start.elapsed() + last_pass / 2 <= window {
        let t = Instant::now();
        let order = style_order(seed, passes);
        let (mut results, ms) = untraced_pass(&order, &s);
        last_pass = t.elapsed();
        passes += 1;
        for (style, ms) in order.iter().zip(ms) {
            let k = STYLES
                .iter()
                .position(|s| s == style)
                .expect("a pass style");
            style_ms[k].push(ms);
        }
        results.sort_by_key(|r| STYLES.iter().position(|&s| s == r.style));
        check_pass(&results, &mut rep);
        blocks += results.iter().map(|r| r.per_block.len()).sum::<usize>();
        let qor: Vec<String> = results.iter().map(qor_text).collect();
        match &first_qor {
            None => first_qor = Some(qor),
            Some(first) => rep.check(*first == qor, || "QoR differs between passes".into()),
        }
        last = results;
    }
    headline_metrics(&last, &s.tech, &mut rep);
    rep.set("setup_s", s.setup_s, "s");
    // a pass as the sum of each style's median run, so one slow run,
    // whatever its style, does not set the figure
    let per_style: Vec<f64> = style_ms.iter().map(|ms| median(ms)).collect();
    let flow_s = per_style.iter().sum::<f64>() / 1e3;
    rep.set("flow_s", flow_s, "s");
    rep.set("jobs_per_s", blocks as f64 / passes as f64 / flow_s, "1/s");
    // a full-chip run is the flow's computed job
    rep.set("miss_latency_p50_ms", percentile(&per_style, 0.5), "ms");
    rep.set("miss_latency_p75_ms", percentile(&per_style, 0.75), "ms");
    rep.set(
        "peak_rss_mib",
        peak_rss_mib("self").expect("procfs VmHWM"),
        "MiB",
    );
    rep
}

/// The traced run: one untraced pass as the reference, then one pass
/// recomposed layer by layer; per-layer metrics.
pub fn run_traced(size: &str, seed: u64, work: &Path) -> RunReport {
    let mut rep = RunReport::default();
    let cfg = t2_config(size);
    let s = setup(&cfg, work, &mut rep);
    let order = style_order(seed, 0);
    let (reference, ms) = untraced_pass(&order, &s);
    let untraced_s = ms.iter().sum::<f64>() / 1e3;
    check_pass(&reference, &mut rep);

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    install_resource(&ResourcePolicy::default());
    let t = Instant::now();
    let mut traced = Vec::new();
    for &style in &order {
        let mut design = s.design.clone();
        let root = tracer.open(&format!("fullchip.{}", style.slug()), None);
        traced.push(recompose(
            &mut design,
            &s.tech,
            style,
            &mut tracer,
            root,
            &mut layers,
        ));
        tracer.close(root);
    }
    let traced_s = t.elapsed().as_secs_f64();
    clear_resource();
    let peaks: BTreeMap<FlowStage, u64> = take_peaks().into_iter().collect();

    for (u, tr) in reference.iter().zip(&traced) {
        rep.check(qor_text(u) == qor_text(tr), || {
            format!(
                "{}: the layer-by-layer recomposition differs from run_fullchip",
                u.style.slug()
            )
        });
    }
    headline_metrics(&traced, &s.tech, &mut rep);
    tracer.write(&work.join(format!("trace-t2_small-{seed}.json")));
    layers.report(&mut rep);
    for (name, stage) in [
        ("place.peak_mib", FlowStage::Place),
        ("opt.peak_mib", FlowStage::Opt),
        ("route.peak_mib", FlowStage::Route),
        ("partition.peak_mib", FlowStage::Partition),
        ("floorplan.peak_mib", FlowStage::Floorplan),
    ] {
        let bytes = peaks.get(&stage).copied().unwrap_or(0);
        rep.set(name, bytes as f64 / MIB, "MiB");
    }
    rep.set("trace.untraced_flow_s", untraced_s, "s");
    rep.set("trace.overhead_s", traced_s - untraced_s, "s");
    rep
}

/// Per-layer counters of the traced run.
#[derive(Default)]
struct Layers {
    floorplan_calls: u64,
    floorplan_ms: f64,
    tsv_ms: f64,
    partition_calls: u64,
    partition_ms: f64,
    cut_nets: u64,
    fold_calls: u64,
    fold_ms: f64,
    place_calls: u64,
    place_ms: f64,
    place_cells: u64,
    opt_calls: u64,
    opt_ms: f64,
    opt: OptStats,
    wiring_calls: u64,
    wiring_ms: f64,
    via_calls: u64,
    via_ms: f64,
    vias: u64,
    chip_ms: f64,
    chip_overflow: u64,
    timing_calls: u64,
    timing_ms: f64,
    power_calls: u64,
    power_ms: f64,
}

impl Layers {
    fn add_opt(&mut self, s: &OptStats) {
        self.opt.rounds += s.rounds;
        self.opt.buffers_added += s.buffers_added;
        self.opt.upsized += s.upsized;
        self.opt.downsized += s.downsized;
        self.opt.hvt_swapped += s.hvt_swapped;
    }

    fn report(&self, rep: &mut RunReport) {
        let n = |v: u64| v as f64;
        let c = "count";
        rep.set("floorplan.calls", n(self.floorplan_calls), c);
        rep.set("floorplan.busy_ms", self.floorplan_ms, "ms");
        rep.set("floorplan.tsv_ms", self.tsv_ms, "ms");
        rep.set("partition.calls", n(self.partition_calls), c);
        rep.set("partition.busy_ms", self.partition_ms, "ms");
        rep.set("partition.cut_nets", n(self.cut_nets), c);
        rep.set("core.fold_calls", n(self.fold_calls), c);
        rep.set("core.fold_ms", self.fold_ms, "ms");
        rep.set("place.calls", n(self.place_calls), c);
        rep.set("place.busy_ms", self.place_ms, "ms");
        rep.set("place.cells", n(self.place_cells), c);
        rep.set("opt.calls", n(self.opt_calls), c);
        rep.set("opt.busy_ms", self.opt_ms, "ms");
        rep.set("opt.rounds", self.opt.rounds as f64, c);
        rep.set("opt.buffers_added", self.opt.buffers_added as f64, c);
        rep.set(
            "opt.resized",
            (self.opt.upsized + self.opt.downsized) as f64,
            c,
        );
        rep.set("opt.hvt_swapped", self.opt.hvt_swapped as f64, c);
        rep.set("route.wiring_calls", n(self.wiring_calls), c);
        rep.set("route.wiring_ms", self.wiring_ms, "ms");
        rep.set("route.via_calls", n(self.via_calls), c);
        rep.set("route.via_ms", self.via_ms, "ms");
        rep.set("route.vias", n(self.vias), c);
        rep.set("route.chip_ms", self.chip_ms, "ms");
        rep.set("route.chip_overflow", n(self.chip_overflow), c);
        rep.set("timing.calls", n(self.timing_calls), c);
        rep.set("timing.busy_ms", self.timing_ms, "ms");
        rep.set("power.calls", n(self.power_calls), c);
        rep.set("power.busy_ms", self.power_ms, "ms");
    }
}

/// Times `f` as one layer call: a span under `parent` and a memory scope
/// of `stage` (observational: the installed policy has no budgets).
fn layer<T>(
    tracer: &mut Tracer,
    parent: usize,
    name: &str,
    stage: FlowStage,
    block: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.open(name, Some(parent));
    let t = Instant::now();
    let out = {
        let _mem = stage_scope(stage, block, 0).expect("no deadline policy is installed");
        f()
    };
    let ms = ms_since(t);
    tracer.close(span);
    (out, ms)
}

/// The fold strategy `run_fullchip` uses for a non-SPC block kind.
fn fold_plan(kind: BlockKind) -> (FoldStrategy, FoldAspect) {
    match kind {
        BlockKind::Ccx => (
            FoldStrategy::NaturalGroups(vec!["pcx".into()]),
            FoldAspect::Square,
        ),
        BlockKind::L2d => (FoldStrategy::MacroRows, FoldAspect::KeepWidth),
        _ => (FoldStrategy::MinCut, FoldAspect::Keep),
    }
}

/// The die partition `fold_block_with_budgets` computes for `strategy`.
fn partition(block: &Block, tech: &Technology, cfg: &FoldConfig) -> Partition {
    let nl = &block.netlist;
    match &cfg.strategy {
        FoldStrategy::NaturalGroups(names) => {
            let ids: Vec<GroupId> = (0..nl.num_groups())
                .map(|i| GroupId(i as u32))
                .filter(|&g| names.iter().any(|n| n == nl.group_name(g)))
                .collect();
            partition_by_groups(nl, &ids)
        }
        FoldStrategy::MacroRows => {
            let mut macros: Vec<(InstId, Point)> = nl
                .insts()
                .filter(|(_, i)| i.master.is_macro())
                .map(|(id, i)| (id, i.pos))
                .collect();
            macros.sort_by(|a, b| a.1.y.total_cmp(&b.1.y).then(a.1.x.total_cmp(&b.1.x)));
            let half = macros.len() / 2;
            let locks: HashMap<InstId, Tier> = macros
                .iter()
                .enumerate()
                .map(|(k, &(id, _))| (id, if k < half { Tier::Bottom } else { Tier::Top }))
                .collect();
            let lock_fn = |id: InstId| locks.get(&id).copied();
            bipartition_seeded(nl, tech, &cfg.partition, Some(&lock_fn))
        }
        _ => bipartition(nl, tech, &cfg.partition),
    }
}

/// `run_fullchip` for one style, rebuilt from the layers' public calls.
/// Fault isolation, retries and checkpoints are left out: the untraced
/// run of the same design must show no faulted block, and the recomposed
/// QoR is compared with it bit for bit.
fn recompose(
    design: &mut Design,
    tech: &Technology,
    style: DesignStyle,
    tr: &mut Tracer,
    root: usize,
    l: &mut Layers,
) -> FullChipResult {
    let cfg = chip_cfg();
    let bonding = style.bonding();

    // 1. folds
    let mut folded: HashMap<BlockId, DesignMetrics> = HashMap::new();
    let mut intra_block_vias = 0;
    if style.folded() {
        let fold_cfg = |strategy, aspect| FoldConfig {
            strategy,
            aspect,
            bonding,
            placer: cfg.flow.placer.clone(),
            opt: cfg.flow.opt.clone(),
            dual_vth: cfg.dual_vth,
            ..FoldConfig::default()
        };
        for (id, block) in design.blocks_mut() {
            let foldable = matches!(
                block.kind,
                BlockKind::Spc | BlockKind::Ccx | BlockKind::L2d | BlockKind::L2t
            ) || (block.kind == BlockKind::Rtx && cfg.fold_rtx);
            if !foldable {
                continue;
            }
            let name = block.name.clone();
            let folded_block: FoldedBlock = if block.kind == BlockKind::Spc {
                let c = fold_cfg(FoldStrategy::MinCut, FoldAspect::Keep);
                let (r, ms) = layer(tr, root, "core.fold_spc", FlowStage::Job, &name, || {
                    fold_spc_second_level(block, tech, &c)
                });
                l.fold_ms += ms;
                r
            } else {
                let (strategy, aspect) = fold_plan(block.kind);
                let c = fold_cfg(strategy, aspect);
                let budgets = TimingBudgets::relaxed(&block.netlist, tech);
                block
                    .validate(tech)
                    .unwrap_or_else(|e| panic!("block {name} fails validation: {e}"));
                let (part, ms) = layer(tr, root, "partition", FlowStage::Partition, &name, || {
                    partition(block, tech, &c)
                });
                l.partition_calls += 1;
                l.partition_ms += ms;
                let (r, ms) = layer(tr, root, "core.fold", FlowStage::Job, &name, || {
                    fold_with_partition(block, tech, &budgets, &c, part)
                });
                l.fold_ms += ms;
                r
            }
            .unwrap_or_else(|e| panic!("fold of {name} failed: {e}"));
            l.fold_calls += 1;
            l.cut_nets += folded_block.cut as u64;
            l.add_opt(&folded_block.opt);
            // the sign-off via placement again, timed on its own: a pure
            // function of the folded netlist, so it must match the fold's
            let (vias, ms) = layer(tr, root, "route.vias", FlowStage::Route, &name, || {
                place_vias(&block.netlist, tech, block.outline, bonding)
            });
            let vias = vias.unwrap_or_else(|e| panic!("via placement of {name} failed: {e}"));
            assert_eq!(vias.len(), folded_block.vias.len(), "{name}: via count");
            l.via_calls += 1;
            l.via_ms += ms;
            l.vias += vias.len() as u64;
            intra_block_vias += folded_block.metrics.num_3d_connections;
            folded.insert(id, folded_block.metrics);
        }
    }

    // 2. floorplan and chip TSVs
    let fp_style = match style {
        DesignStyle::CoreCache => FloorplanStyle::CoreCache,
        DesignStyle::CoreCore => FloorplanStyle::CoreCore,
        _ => FloorplanStyle::Flat2d,
    };
    let (mut plan, ms) = layer(tr, root, "floorplan", FlowStage::Floorplan, "chip", || {
        floorplan_t2(design, fp_style, tech)
    });
    l.floorplan_calls += 1;
    l.floorplan_ms += ms;
    if style.folded() {
        let die = plan.die;
        let (tsvs, ms) = layer(
            tr,
            root,
            "floorplan.tsvs",
            FlowStage::Floorplan,
            "chip",
            || plan_chip_tsvs(design, die, tech),
        );
        plan.tsvs = tsvs;
        l.floorplan_calls += 1;
        l.floorplan_ms += ms;
        l.tsv_ms += ms;
    }

    // 3. pin assignment and budgets
    assign_port_positions(design, &plan);
    let budgets = chip_budgets(design, &plan, tech);

    // 4. block flows, as `run_block_flow` runs them
    let mut flow_cfg = cfg.flow.clone();
    flow_cfg.bonding = bonding;
    flow_cfg.dual_vth = cfg.dual_vth;
    let mut flow_metrics: HashMap<BlockId, DesignMetrics> = HashMap::new();
    for (id, block) in design.blocks_mut() {
        if folded.contains_key(&id) {
            continue;
        }
        let name = block.name.clone();
        let b = &budgets[&id];
        block
            .validate(tech)
            .unwrap_or_else(|e| panic!("block {name} fails validation: {e}"));
        let outline = block.outline;
        let max_layer = block_max_layer(block, flow_cfg.bonding, &flow_cfg.policy);
        let (placed, ms) = layer(tr, root, "place", FlowStage::Place, &name, || {
            foldic_place::place_block(&mut block.netlist, tech, outline, &flow_cfg.placer)
        });
        placed.unwrap_or_else(|e| panic!("placement of {name} failed: {e}"));
        l.place_calls += 1;
        l.place_ms += ms;
        l.place_cells += block.netlist.num_insts() as u64;

        let mut opt_cfg = flow_cfg.opt.clone();
        opt_cfg.max_layer = max_layer;
        opt_cfg.via_kind = None;
        opt_cfg.dual_vth = flow_cfg.dual_vth;
        let (opt, ms) = layer(tr, root, "opt", FlowStage::Opt, &name, || {
            optimize_block_with_vias(&mut block.netlist, tech, b, &opt_cfg, None)
        });
        l.add_opt(&opt.unwrap_or_else(|e| panic!("optimization of {name} failed: {e}")));
        l.opt_calls += 1;
        l.opt_ms += ms;

        let (wiring, ms) = layer(tr, root, "route.wiring", FlowStage::Route, &name, || {
            BlockWiring::analyze(&block.netlist, tech, opt_cfg.detour, None)
        });
        let wiring = wiring.unwrap_or_else(|e| panic!("wiring of {name} failed: {e}"));
        l.wiring_calls += 1;
        l.wiring_ms += ms;

        let sta_cfg = StaConfig {
            max_layer,
            via_kind: None,
        };
        let (sta, ms) = layer(tr, root, "timing", FlowStage::Sta, &name, || {
            analyze(&block.netlist, tech, &wiring, b, &sta_cfg)
        });
        let sta = sta.unwrap_or_else(|e| panic!("timing of {name} failed: {e}"));
        l.timing_calls += 1;
        l.timing_ms += ms;

        let mut pw_cfg = PowerConfig::for_block(block);
        pw_cfg.max_layer = max_layer;
        let (power, ms) = layer(tr, root, "power", FlowStage::Power, &name, || {
            analyze_block(&block.netlist, tech, &wiring, &pw_cfg)
        });
        let power = power.unwrap_or_else(|e| panic!("power of {name} failed: {e}"));
        l.power_calls += 1;
        l.power_ms += ms;
        let m = collect_metrics(
            &block.netlist,
            block,
            tech,
            &wiring,
            None,
            power,
            sta.wns_ps,
        );
        flow_metrics.insert(id, m);
    }
    let order: Vec<BlockId> = design.block_ids().collect();
    let per_block: Vec<(String, BlockKind, DesignMetrics)> = order
        .into_iter()
        .map(|id| {
            let m = folded
                .get(&id)
                .copied()
                .unwrap_or_else(|| flow_metrics[&id]);
            let b = design.block(id);
            (b.name.clone(), b.kind, m)
        })
        .collect();

    // 5. inter-block routing and roll-up
    let span = tr.open("route.chip", Some(root));
    let t = Instant::now();
    let top = tech.metal.top_layer();
    let tracks_per_um = 2.0 / top.pitch_um * TRACK_UTILIZATION;
    let mut router = GlobalRouter::new(plan.die, plan.die.width().max(64.0) / 32.0, tracks_per_um);
    for (_, b) in design.blocks() {
        let open_fraction: f64 = if b.routing_hungry() {
            if style.is_3d() && !b.folded {
                0.5
            } else {
                0.0
            }
        } else if b.folded {
            match bonding {
                BondingStyle::FaceToFace => 0.0,
                BondingStyle::FaceToBack => 0.5,
            }
        } else {
            1.0
        };
        if open_fraction < 1.0 {
            router.scale_capacity(b.chip_rect(), open_fraction);
        }
    }
    let mut tsv_iter = plan.tsvs.iter();
    let mut chip_net_wire_cap_ghz = 0.0;
    for net in design.chip_nets() {
        let pts: Vec<(Point, Tier)> = net
            .endpoints
            .iter()
            .map(|&(bid, pid)| {
                let b = design.block(bid);
                let port = b.netlist.port(pid);
                let tier = if b.folded { port.tier } else { b.tier };
                (b.to_chip(port.pos), tier)
            })
            .collect();
        let cross = pts.windows(2).any(|w| w[0].1 != w[1].1);
        let routed = if cross {
            let via = tsv_iter
                .next()
                .copied()
                .unwrap_or_else(|| pts[0].0.midpoint(pts[pts.len() - 1].0));
            let mut len = 0.0;
            for &(p, _) in &pts {
                len += router.route(p, via, net.bits as f64);
            }
            len
        } else {
            let mut len = 0.0;
            for w in pts.windows(2) {
                len += router.route(w[0].0, w[1].0, net.bits as f64);
            }
            len
        };
        let f = net.domain.frequency_ghz(tech);
        chip_net_wire_cap_ghz += routed * net.bits as f64 * top.c_per_um * f;
    }
    let route_stats = router.stats();
    l.chip_ms += ms_since(t);
    l.chip_overflow += route_stats.overflowed as u64;
    tr.close(span);
    let interblock_wl_um = route_stats.routed_um;

    let spacing = chip_repeater_spacing_um(tech);
    let chip_buffers = (interblock_wl_um / spacing).round() as usize;
    let buf = tech.cells.get(CellKind::Buf, Drive::X8, VthClass::Rvt);
    let mut chip = DesignMetrics {
        footprint_um2: plan.die.area(),
        ..Default::default()
    };
    for (_, _, m) in &per_block {
        chip.absorb(m);
    }
    chip.wirelength_um += interblock_wl_um;
    chip.num_buffers += chip_buffers;
    chip.num_cells += chip_buffers;
    let via_cap = match bonding {
        BondingStyle::FaceToBack => tech.tsv.capacitance_ff(),
        BondingStyle::FaceToFace => tech.f2f_via.capacitance_ff(),
    };
    let cross_nets = plan.tsvs.len();
    chip.power += PowerReport {
        cell_uw: chip_buffers as f64
            * buf.internal_energy_fj
            * tech.cpu_clock_ghz
            * CHIP_NET_ACTIVITY,
        net_wire_uw: (chip_net_wire_cap_ghz + cross_nets as f64 * via_cap * tech.cpu_clock_ghz)
            * tech.vdd
            * tech.vdd
            * CHIP_NET_ACTIVITY,
        net_pin_uw: 0.0,
        leakage_uw: chip_buffers as f64 * buf.leakage_uw,
    };
    chip.num_3d_connections = cross_nets + intra_block_vias;
    FullChipResult {
        style,
        die: plan.die,
        chip,
        per_block,
        chip_vias: cross_nets,
        intra_block_vias,
        interblock_wl_um,
        interblock_detour: route_stats.detour(),
        route_overflow: route_stats.overflowed,
        faults: Vec::new(),
    }
}
