//! Block folding (§4) and its interaction with bonding styles (§5).
//!
//! Folding a block means partitioning it into two sub-blocks stacked on
//! the two dies and connecting them with intra-block TSVs (face-to-back)
//! or F2F vias (face-to-face). The flow here follows the paper:
//!
//! 1. choose a die partition — generic min-cut, the natural PCX/CPX group
//!    split for the crossbar, macro-row splitting for memory-dominated
//!    blocks, a deliberately degraded partition for the Fig. 7 sweep, or
//!    one the caller computed;
//! 2. shrink the outline to hold the bigger die half (plus TSV keep-out
//!    area under face-to-back bonding);
//! 3. re-pack the macros of each die and run the mixed-size 3D placer
//!    with an ideal 3D interconnect;
//! 4. place the 3D vias (§5.1) — TSVs claim silicon sites outside macros,
//!    F2F vias go wherever the 3D-net routing wants them;
//! 5. for face-to-back, grow the outline by the TSV area and re-place
//!    with the keep-outs as obstacles (the Fig. 6 degradation);
//! 6. re-run the timing/power optimization and sign off.

use crate::flow::{block_max_layer, collect_metrics};
use crate::metrics::DesignMetrics;
use foldic_fault::deadline::stage_scope;
use foldic_fault::{fault_point, FlowError, FlowStage};
use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{Block, GroupId, InstId, Netlist, PinRef};
use foldic_opt::{optimize_block_with_vias, OptStats};
use foldic_partition::{
    apply_partition, bipartition, bipartition_seeded, bipartition_subsets, partition_by_groups,
    partition_with_quality, Partition, PartitionConfig,
};
use foldic_place::{place_folded, Obstacle, PlacerConfig};
use foldic_power::{analyze_block, PowerConfig};
use foldic_route::{place_vias, BlockWiring, ViaPlacement};
use foldic_tech::{BondingStyle, Technology};
use foldic_timing::{analyze, StaConfig, TimingBudgets};

/// How to split the block across the dies.
#[derive(Debug, Clone)]
pub enum FoldStrategy {
    /// Area-balanced min-cut (FM).
    MinCut,
    /// Put the named instance groups on the top die (§4.3's PCX/CPX
    /// natural split).
    NaturalGroups(Vec<String>),
    /// Min-cut degraded toward random: `1.0` = pure min-cut, lower values
    /// cut more nets (the partition cases #1–#5 of Fig. 7).
    Quality(f64),
    /// Split the macro array between the dies (alternating rows), lock
    /// the macros, then min-cut the logic (§4.4's `scdata` fold).
    MacroRows,
    /// A partition the caller computed for this block, e.g. one point of
    /// a sweep that shares one min-cut
    /// ([`foldic_partition::degrade_partition`]). The partitioner settings
    /// are not consulted, so a retry folds the same partition.
    Given(Partition),
}

/// How the folded outline is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldAspect {
    /// Keep the block's original aspect ratio.
    #[default]
    Keep,
    /// Reshape to a square (the paper folds the 490×2060 µm crossbar into
    /// two 680×680 µm dies).
    Square,
    /// Keep the original width and halve the height (the natural shape
    /// for a macro-row fold: the paper's scdata keeps its 910 µm width).
    KeepWidth,
}

/// Folding configuration.
#[derive(Debug, Clone)]
pub struct FoldConfig {
    /// Partition strategy.
    pub strategy: FoldStrategy,
    /// Folded outline shaping.
    pub aspect: FoldAspect,
    /// Bonding style of the stack.
    pub bonding: BondingStyle,
    /// Placer settings.
    pub placer: PlacerConfig,
    /// Optimizer settings.
    pub opt: foldic_opt::OptConfig,
    /// Partitioner settings.
    pub partition: PartitionConfig,
    /// Placement utilization target of the folded dies.
    pub utilization: f64,
    /// Enable dual-Vth.
    pub dual_vth: bool,
    /// Routing-layer policy.
    pub policy: foldic_tech::RoutingPolicy,
    /// Which retry attempt this configuration belongs to (`0` = the
    /// first run). Addressed by the fault-injection harness and bumped
    /// by [`Self::relaxed_for_retry`].
    pub retry_attempt: u32,
}

impl Default for FoldConfig {
    fn default() -> Self {
        Self {
            strategy: FoldStrategy::MinCut,
            aspect: FoldAspect::Keep,
            bonding: BondingStyle::FaceToBack,
            placer: PlacerConfig::quality(),
            opt: foldic_opt::OptConfig::default(),
            partition: PartitionConfig::default(),
            utilization: 0.70,
            dual_vth: false,
            policy: foldic_tech::RoutingPolicy::dac14(),
            retry_attempt: 0,
        }
    }
}

impl FoldConfig {
    /// Fast settings for tests.
    pub fn fast() -> Self {
        Self {
            placer: PlacerConfig::fast(),
            ..Self::default()
        }
    }

    /// The configuration a retry runs under: attempt `0` is this config
    /// unchanged; later attempts deterministically perturb the
    /// partitioner seed (so min-cut explores different initial
    /// solutions) and relax the expensive knobs.
    pub fn relaxed_for_retry(&self, attempt: u32) -> Self {
        let mut cfg = self.clone();
        cfg.retry_attempt = attempt;
        if attempt > 0 {
            cfg.partition.seed = cfg
                .partition
                .seed
                .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let a = attempt as usize;
            cfg.placer.iterations = cfg.placer.iterations.saturating_sub(a).max(2);
            cfg.opt.rounds = cfg.opt.rounds.saturating_sub(a).max(1);
        }
        cfg
    }
}

/// Outcome of folding one block.
#[derive(Debug, Clone)]
pub struct FoldedBlock {
    /// Sign-off metrics of the folded block (footprint = one die).
    pub metrics: DesignMetrics,
    /// Final 3D-via placement.
    pub vias: ViaPlacement,
    /// Optimizer audit.
    pub opt: OptStats,
    /// Signal cut size of the partition (= 3D connections before
    /// buffering).
    pub cut: usize,
}

/// Folds a block in place with the default per-port budgets.
///
/// # Errors
///
/// See [`fold_block_with_budgets`].
pub fn fold_block(
    block: &mut Block,
    tech: &Technology,
    cfg: &FoldConfig,
) -> Result<FoldedBlock, FlowError> {
    let budgets = TimingBudgets::relaxed(&block.netlist, tech);
    fold_block_with_budgets(block, tech, &budgets, cfg)
}

/// Folds a block in place against chip-supplied port budgets.
///
/// # Errors
///
/// Returns [`FlowError`] when the block fails validation at entry (not
/// retryable) or when a fold stage fails — organically or through an
/// the entered run's [`foldic_fault::FaultPlan`]. On error the block may be
/// partially mutated; the caller restores it before retrying.
pub fn fold_block_with_budgets(
    block: &mut Block,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &FoldConfig,
) -> Result<FoldedBlock, FlowError> {
    let name = block.name.clone();
    {
        let _scope = stage_scope(FlowStage::Validate, &name, cfg.retry_attempt)?;
        fault_point(FlowStage::Validate, &name, cfg.retry_attempt)?;
        block.validate(tech).map_err(|e| {
            FlowError::invalid(FlowStage::Validate, e.to_string()).with_block(&name)
        })?;
    }
    let part = {
        let _scope = stage_scope(FlowStage::Partition, &name, cfg.retry_attempt)?;
        fault_point(FlowStage::Partition, &name, cfg.retry_attempt)?;
        let part = make_partition(&block.netlist, tech, cfg);
        if part.tier_of.len() != block.netlist.num_insts() {
            return Err(FlowError::invalid(
                FlowStage::Partition,
                format!(
                    "partition assigns {} instances, the block has {}",
                    part.tier_of.len(),
                    block.netlist.num_insts()
                ),
            )
            .with_block(&name));
        }
        part
    };
    fold_with_partition(block, tech, budgets, cfg, part)
}

fn make_partition(netlist: &Netlist, tech: &Technology, cfg: &FoldConfig) -> Partition {
    match &cfg.strategy {
        FoldStrategy::MinCut => bipartition(netlist, tech, &cfg.partition),
        FoldStrategy::Quality(q) => partition_with_quality(netlist, tech, &cfg.partition, *q),
        FoldStrategy::Given(part) => part.clone(),
        FoldStrategy::NaturalGroups(names) => {
            let ids: Vec<GroupId> = (0..netlist.num_groups())
                .map(|i| GroupId(i as u32))
                .filter(|&g| names.iter().any(|n| n == netlist.group_name(g)))
                .collect();
            partition_by_groups(netlist, &ids)
        }
        FoldStrategy::MacroRows => {
            // macros sorted by y, alternating runs of rows per die
            let mut macros: Vec<(InstId, Point)> = netlist
                .insts()
                .filter(|(_, i)| i.master.is_macro())
                .map(|(id, i)| (id, i.pos))
                .collect();
            macros.sort_by(|a, b| a.1.y.total_cmp(&b.1.y).then(a.1.x.total_cmp(&b.1.x)));
            let half = macros.len() / 2;
            let locks: std::collections::HashMap<InstId, Tier> = macros
                .iter()
                .enumerate()
                .map(|(k, &(id, _))| (id, if k < half { Tier::Bottom } else { Tier::Top }))
                .collect();
            let lock_fn = |id: InstId| locks.get(&id).copied();
            bipartition_seeded(netlist, tech, &cfg.partition, Some(&lock_fn))
        }
    }
}

/// The shared fold pipeline, given a partition.
///
/// # Errors
///
/// Returns [`FlowError`] when a fold stage fails — organically or
/// through the entered run's [`foldic_fault::FaultPlan`].
pub fn fold_with_partition(
    block: &mut Block,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &FoldConfig,
    part: Partition,
) -> Result<FoldedBlock, FlowError> {
    let name = block.name.clone();
    let attempt = cfg.retry_attempt;
    let cut = part.cut;
    apply_partition(&mut block.netlist, &part);
    block.folded = true;

    // --- folded outline --------------------------------------------------
    let aspect = match cfg.aspect {
        FoldAspect::Keep => block.outline.width() / block.outline.height(),
        FoldAspect::Square => 1.0,
        FoldAspect::KeepWidth => f64::NAN, // handled below
    };
    let (a_bot, a_top) = part.area_per_tier(&block.netlist, tech);
    let per_die = a_bot.max(a_top) / cfg.utilization;
    let mut outline = if cfg.aspect == FoldAspect::KeepWidth {
        let w = block.outline.width();
        Rect::new(0.0, 0.0, w, per_die / w)
    } else {
        sized_outline(per_die, aspect)
    };

    // --- rescale the inherited geometry into the folded outline ------------
    // Each tier's content is mapped from its own pre-fold bounding region
    // onto the full folded outline: a min-cut fold (interleaved tiers)
    // rescales uniformly, while a macro-row fold (each tier owned one half
    // of the block) stretches each half over the whole new die. Ports stay
    // on the perimeter because the boundary maps onto the boundary.
    for tier in Tier::ALL {
        rescale_tier_geometry(&mut block.netlist, tier, block.outline, outline);
    }

    // --- macro re-packing and placement ----------------------------------
    {
        let _scope = stage_scope(FlowStage::Place, &name, attempt)?;
        fault_point(FlowStage::Place, &name, attempt)?;
        repack_macros(&mut block.netlist, tech, outline);
        place_folded(&mut block.netlist, tech, outline, &cfg.placer, &[])
            .map_err(|e| e.with_block(&name))?;
        // the fold scattered each clock leaf's flops across the dies:
        // re-run the leaf level of CTS per tier before committing 3D vias
        recluster_clock_leaves(&mut block.netlist);
    }
    let vias = {
        let _scope = stage_scope(FlowStage::Route, &name, attempt)?;
        fault_point(FlowStage::Route, &name, attempt)?;
        let mut vias = place_vias(&block.netlist, tech, outline, cfg.bonding)
            .map_err(|e| e.with_block(&name))?;

        // --- face-to-back: pay the TSV area and re-place ------------------
        if cfg.bonding == BondingStyle::FaceToBack && !vias.is_empty() {
            let tsv_area = vias.silicon_area_um2(tech);
            let grown = (a_bot.max(a_top) + tsv_area) / cfg.utilization;
            let prev = outline;
            outline = if cfg.aspect == FoldAspect::KeepWidth {
                let w = prev.width();
                Rect::new(0.0, 0.0, w, grown / w)
            } else {
                sized_outline(grown, aspect)
            };
            for tier in Tier::ALL {
                rescale_tier_geometry(&mut block.netlist, tier, prev, outline);
            }
            repack_macros(&mut block.netlist, tech, outline);
            // first re-place against the old via keep-outs, then refresh
            let obstacles: Vec<Obstacle> = vias
                .keepouts(tech)
                .into_iter()
                .map(|rect| Obstacle { rect, tier: None })
                .collect();
            place_folded(&mut block.netlist, tech, outline, &cfg.placer, &obstacles)
                .map_err(|e| e.with_block(&name))?;
            vias = place_vias(&block.netlist, tech, outline, cfg.bonding)
                .map_err(|e| e.with_block(&name))?;
        }
        vias
    };
    block.outline = outline;

    // --- optimization ------------------------------------------------------
    let max_layer = block_max_layer(block, cfg.bonding, &cfg.policy);
    let mut opt_cfg = cfg.opt.clone();
    opt_cfg.max_layer = max_layer;
    opt_cfg.via_kind = Some(vias.kind());
    opt_cfg.dual_vth = cfg.dual_vth;
    let opt = {
        let _scope = stage_scope(FlowStage::Opt, &name, attempt)?;
        fault_point(FlowStage::Opt, &name, attempt)?;
        optimize_block_with_vias(&mut block.netlist, tech, budgets, &opt_cfg, Some(&vias))
            .map_err(|e| e.with_block(&name))?
    };

    // --- sign-off ------------------------------------------------------------
    // buffering re-shaped the nets: refresh the via assignment
    let (vias, wiring) = {
        let _scope = stage_scope(FlowStage::Route, &name, attempt)?;
        let vias = place_vias(&block.netlist, tech, outline, cfg.bonding)
            .map_err(|e| e.with_block(&name))?;
        let wiring = BlockWiring::analyze(&block.netlist, tech, opt_cfg.detour, Some(&vias))
            .map_err(|e| e.with_block(&name))?;
        (vias, wiring)
    };
    let sta = {
        let _scope = stage_scope(FlowStage::Sta, &name, attempt)?;
        fault_point(FlowStage::Sta, &name, attempt)?;
        analyze(
            &block.netlist,
            tech,
            &wiring,
            budgets,
            &StaConfig {
                max_layer,
                via_kind: Some(vias.kind()),
            },
        )
        .map_err(|e| e.with_block(&name))?
    };
    let mut pw_cfg = PowerConfig::for_block(block);
    pw_cfg.max_layer = max_layer;
    pw_cfg.via_kind = Some(vias.kind());
    let power = {
        let _scope = stage_scope(FlowStage::Power, &name, attempt)?;
        fault_point(FlowStage::Power, &name, attempt)?;
        analyze_block(&block.netlist, tech, &wiring, &pw_cfg).map_err(|e| e.with_block(&name))?
    };
    let metrics = collect_metrics(
        &block.netlist,
        block,
        tech,
        &wiring,
        Some(&vias),
        power,
        sta.wns_ps,
    );
    Ok(FoldedBlock {
        metrics,
        vias,
        opt,
        cut,
    })
}

/// Re-runs the leaf level of clock-tree synthesis after a fold: the
/// partition scattered each leaf buffer's flops across both dies, which
/// would turn the α = 1 clock nets into sprawling 3D webs. Flop clock
/// pins are re-clustered by (tier, position) and reassigned to the
/// existing leaf buffers, whose tier and location move to their cluster.
pub fn recluster_clock_leaves(netlist: &mut Netlist) {
    // leaf clock nets: is_clock, driven by an instance, sinking into flops
    let mut leaf_nets: Vec<foldic_netlist::NetId> = Vec::new();
    let mut all_sinks: Vec<PinRef> = Vec::new();
    // a leaf net's sinks are not clock buffers themselves: detect by
    // checking whether any sink drives another clock net
    let drives_clock: std::collections::HashSet<InstId> = netlist
        .nets()
        .filter(|(_, n)| n.is_clock)
        .filter_map(|(_, n)| match n.driver {
            Some(PinRef::InstOut(i)) => Some(i),
            _ => None,
        })
        .collect();
    for (nid, net) in netlist.nets() {
        if !net.is_clock || !matches!(net.driver, Some(PinRef::InstOut(_))) {
            continue;
        }
        let is_leaf = net
            .sinks()
            .all(|s| s.inst().is_none_or(|i| !drives_clock.contains(&i)));
        if is_leaf && net.fanout() > 0 {
            leaf_nets.push(nid);
            all_sinks.extend(net.sinks());
        }
    }
    if leaf_nets.is_empty() {
        return;
    }
    // sort sinks by (tier, y, x) and chunk them evenly over the leaves
    all_sinks.sort_by(|&a, &b| {
        let (pa, ta) = (netlist.pin_pos(a), netlist.pin_tier(a));
        let (pb, tb) = (netlist.pin_pos(b), netlist.pin_tier(b));
        ta.cmp(&tb)
            .then(pa.y.total_cmp(&pb.y))
            .then(pa.x.total_cmp(&pb.x))
    });
    let per_leaf = all_sinks.len().div_ceil(leaf_nets.len());
    for (k, nid) in leaf_nets.iter().enumerate() {
        let chunk: Vec<PinRef> = all_sinks
            .iter()
            .copied()
            .skip(k * per_leaf)
            .take(per_leaf)
            .collect();
        // move the leaf buffer to the chunk's centroid and tier
        if let Some(PinRef::InstOut(driver)) = netlist.net(*nid).driver {
            if !chunk.is_empty() {
                let centroid = chunk
                    .iter()
                    .fold(Point::ORIGIN, |acc, &s| acc + netlist.pin_pos(s))
                    * (1.0 / chunk.len() as f64);
                let tier = netlist.pin_tier(chunk[0]);
                let mut inst = netlist.inst_mut(driver);
                inst.pos = centroid;
                inst.tier = tier;
            }
        }
        netlist.set_sinks(*nid, &chunk);
    }
}

/// Linearly maps the positions of one tier's instances and ports from the
/// tier's occupied sub-region of `fallback` onto `to`.
fn rescale_tier_geometry(netlist: &mut Netlist, tier: Tier, fallback: Rect, to: Rect) {
    // the source frame is where this tier's content actually sits
    let mut from = Rect::empty();
    for (_, inst) in netlist.insts() {
        if inst.tier == tier {
            from.expand_to(inst.pos);
        }
    }
    if from.is_empty() || from.width() < 1.0 || from.height() < 1.0 {
        from = fallback;
    }
    let sx = to.width() / from.width();
    let sy = to.height() / from.height();
    let map = |p: Point| {
        Point::new(
            to.llx + (p.x - from.llx) * sx,
            to.lly + (p.y - from.lly) * sy,
        )
        .clamped(to)
    };
    let ids: Vec<InstId> = netlist.inst_ids().collect();
    for id in ids {
        let mut inst = netlist.inst_mut(id);
        if inst.tier == tier {
            inst.pos = map(inst.pos);
        }
    }
    for idx in 0..netlist.num_ports() {
        let port = netlist.port_mut(foldic_netlist::PortId::from(idx));
        if port.tier == tier {
            port.pos = map(port.pos);
        }
    }
}

fn sized_outline(area: f64, aspect: f64) -> Rect {
    let w = (area * aspect).sqrt();
    Rect::new(0.0, 0.0, w, area / w)
}

/// Re-packs all hard macros tier by tier inside the (new) outline: a grid
/// for uniform arrays of ≥ 6 macros, edge rings otherwise. Macros stay
/// `fixed`.
pub fn repack_macros(netlist: &mut Netlist, tech: &Technology, outline: Rect) {
    for tier in Tier::ALL {
        let mut macros: Vec<(InstId, f64, f64)> = netlist
            .insts()
            .filter(|(_, i)| i.master.is_macro() && i.tier == tier)
            .map(|(id, i)| {
                let (w, h) = i.dims_um(tech);
                (id, w, h)
            })
            .collect();
        // keep the pre-fold spatial order so each macro stays near the
        // logic that talks to it (grid slots are assigned row-major)
        macros.sort_by(|a, b| {
            let pa = netlist.inst(a.0).pos;
            let pb = netlist.inst(b.0).pos;
            pa.y.total_cmp(&pb.y).then(pa.x.total_cmp(&pb.x))
        });
        if macros.is_empty() {
            continue;
        }
        let uniform = macros
            .iter()
            .all(|&(_, w, h)| (w - macros[0].1).abs() < 1e-9 && (h - macros[0].2).abs() < 1e-9);
        let positions = if uniform && macros.len() >= 6 {
            grid_positions(&macros, outline)
        } else {
            ring_positions(&macros, outline)
        };
        for (&(id, _, _), pos) in macros.iter().zip(positions) {
            netlist.inst_mut(id).pos = pos;
        }
    }
}

fn grid_positions(macros: &[(InstId, f64, f64)], outline: Rect) -> Vec<Point> {
    let (mw, mh) = (macros[0].1, macros[0].2);
    let n = macros.len();
    let bw = outline.width();
    let bh = outline.height();
    let mut cols = ((bw / (mw * 1.15)).floor() as usize).clamp(1, n);
    let mut rows = n.div_ceil(cols);
    while rows as f64 * mh * 1.1 > bh && cols < n {
        cols += 1;
        rows = n.div_ceil(cols);
    }
    let gap_x = ((bw - cols as f64 * mw) / (cols + 1) as f64).max(0.0);
    let gap_y = ((bh - rows as f64 * mh) / (rows + 1) as f64).max(0.0);
    (0..n)
        .map(|i| {
            let c = i % cols;
            let r = i / cols;
            Point::new(
                outline.llx + gap_x + c as f64 * (mw + gap_x) + mw / 2.0,
                outline.lly + gap_y + r as f64 * (mh + gap_y) + mh / 2.0,
            )
        })
        .collect()
}

fn ring_positions(macros: &[(InstId, f64, f64)], outline: Rect) -> Vec<Point> {
    let bh = outline.height();
    let bw = outline.width();
    let mut positions = Vec::with_capacity(macros.len());
    let mut x_bot = outline.llx + 4.0;
    let mut x_top = outline.llx + 4.0;
    let mut band_bot = 0.0;
    let mut band_top = 0.0;
    for (i, &(_, mw, mh)) in macros.iter().enumerate() {
        if i % 2 == 0 {
            if x_bot + mw + 4.0 > outline.llx + bw {
                x_bot = outline.llx + 4.0;
                band_bot += mh + 4.0;
            }
            positions.push(Point::new(
                x_bot + mw / 2.0,
                outline.lly + band_bot + mh / 2.0 + 2.0,
            ));
            x_bot += mw + 4.0;
        } else {
            if x_top + mw + 4.0 > outline.llx + bw {
                x_top = outline.llx + 4.0;
                band_top += mh + 4.0;
            }
            positions.push(Point::new(
                x_top + mw / 2.0,
                outline.lly + bh - band_top - mh / 2.0 - 2.0,
            ));
            x_top += mw + 4.0;
        }
    }
    positions
}

// ---------------------------------------------------------------------------
// Second-level folding of the SPARC core (§4.5)
// ---------------------------------------------------------------------------

/// The FUB arrangement of Fig. 3 for the *unfolded* FUBs: which die each
/// one lives on.
const UNFOLDED_FUB_TIERS: [(&str, Tier); 8] = [
    ("pku", Tier::Top),
    ("dec", Tier::Top),
    ("ifu_cmu", Tier::Top),
    ("ifu_ibu", Tier::Top),
    ("mmu", Tier::Bottom),
    ("gkt", Tier::Bottom),
    ("pmu", Tier::Bottom),
    ("spu", Tier::Bottom),
];

/// Second-level folding: folds the six large FUBs of an SPC *individually*
/// (each FUB's halves stack on top of each other) and assigns the eight
/// small FUBs wholesale per Fig. 3, then runs the shared fold pipeline.
///
/// # Errors
///
/// See [`fold_block_with_budgets`].
pub fn fold_spc_second_level(
    block: &mut Block,
    tech: &Technology,
    cfg: &FoldConfig,
) -> Result<FoldedBlock, FlowError> {
    let name = block.name.clone();
    {
        let _scope = stage_scope(FlowStage::Validate, &name, cfg.retry_attempt)?;
        fault_point(FlowStage::Validate, &name, cfg.retry_attempt)?;
        block.validate(tech).map_err(|e| {
            FlowError::invalid(FlowStage::Validate, e.to_string()).with_block(&name)
        })?;
    }
    let part_scope = stage_scope(FlowStage::Partition, &name, cfg.retry_attempt)?;
    fault_point(FlowStage::Partition, &name, cfg.retry_attempt)?;
    let budgets = TimingBudgets::relaxed(&block.netlist, tech);
    let part = spc_second_level_partition(&block.netlist, tech, cfg);
    drop(part_scope);
    fold_with_partition(block, tech, &budgets, cfg, part)
}

/// The die assignment of [`fold_spc_second_level`]: the six large FUBs
/// min-cut one by one, the small ones wholesale per Fig. 3.
fn spc_second_level_partition(nl: &Netlist, tech: &Technology, cfg: &FoldConfig) -> Partition {
    /// What the fold does with one group's instances.
    #[derive(Clone, Copy)]
    enum Fub {
        /// An unfolded FUB, assigned wholesale.
        Wholesale(Tier),
        /// A folded FUB: index of its member list.
        MinCut(usize),
    }
    // group membership lookup
    let group_of_name = |name: &str| -> Option<GroupId> {
        (0..nl.num_groups())
            .map(|i| GroupId(i as u32))
            .find(|&g| nl.group_name(g) == name)
    };
    let mut role: Vec<Option<Fub>> = vec![None; nl.num_groups()];
    for (name, tier) in UNFOLDED_FUB_TIERS {
        if let Some(g) = group_of_name(name) {
            role[g.index()] = Some(Fub::Wholesale(tier));
        }
    }
    let mut members: Vec<Vec<InstId>> = Vec::new();
    for &(name, _, folded) in foldic_t2::SPC_FUBS.iter() {
        if let (true, Some(g)) = (folded, group_of_name(name)) {
            role[g.index()] = Some(Fub::MinCut(members.len()));
            members.push(Vec::new());
        }
    }

    let mut tier_of = vec![Tier::Bottom; nl.num_insts()];
    for (id, inst) in nl.insts() {
        match inst.group.and_then(|g| role[g.index()]) {
            Some(Fub::Wholesale(tier)) => tier_of[id.index()] = tier,
            Some(Fub::MinCut(k)) => members[k].push(id),
            None => {}
        }
    }
    // folded FUBs: per-FUB min-cut of the nets inside each FUB
    let parts = bipartition_subsets(nl, tech, &cfg.partition, &members);
    for (fub, part) in members.iter().zip(&parts) {
        for (&id, &tier) in fub.iter().zip(&part.tier_of) {
            tier_of[id.index()] = tier;
        }
    }

    let mut part = Partition { tier_of, cut: 0 };
    part.cut = part.cut_size(nl);
    part
}

// ---------------------------------------------------------------------------
// Folding-candidate selection (§4.1, Table 3)
// ---------------------------------------------------------------------------

/// One row of the Table 3 census.
#[derive(Debug, Clone)]
pub struct CandidateRow {
    /// Block kind label (multi-copy blocks are averaged).
    pub kind: foldic_netlist::BlockKind,
    /// Share of the total chip power per copy (e.g. `0.058` for SPC).
    pub power_share: f64,
    /// Net power / total power of the block.
    pub net_power_frac: f64,
    /// Long wires per copy.
    pub long_wires: usize,
    /// Number of copies.
    pub copies: usize,
    /// Clock-domain remark (matches the paper's table).
    pub remark: &'static str,
    /// `true` when the §4.1 criteria select the block for folding.
    pub selected: bool,
}

/// Applies the folding criteria of §4.1 to per-block sign-off metrics:
/// power share ≥ 1 %, a healthy net-power portion, and a long-wire count
/// worth folding. Returns rows sorted by power share (largest first).
pub fn fold_candidates(
    per_block: &[(String, foldic_netlist::BlockKind, DesignMetrics)],
) -> Vec<CandidateRow> {
    // BTreeMap so equal power shares tie-break in a stable kind order —
    // HashMap iteration order would make the sorted rows run-dependent
    use std::collections::BTreeMap;
    let total: f64 = per_block.iter().map(|(_, _, m)| m.power.total_uw()).sum();
    let mut agg: BTreeMap<foldic_netlist::BlockKind, (f64, f64, usize, usize)> = BTreeMap::new();
    for (_, kind, m) in per_block {
        let e = agg.entry(*kind).or_insert((0.0, 0.0, 0, 0));
        e.0 += m.power.total_uw();
        e.1 += m.power.net_fraction();
        e.2 += m.long_wires;
        e.3 += 1;
    }
    let mut rows: Vec<CandidateRow> = agg
        .into_iter()
        .map(|(kind, (p, nf, lw, n))| {
            let share = p / total / n as f64;
            let net_frac = nf / n as f64;
            let long = lw / n;
            CandidateRow {
                kind,
                power_share: share,
                net_power_frac: net_frac,
                long_wires: long,
                copies: n,
                remark: match kind.clock() {
                    foldic_netlist::ClockDomain::Cpu => "CPU clock",
                    foldic_netlist::ClockDomain::Io => "I/O clock",
                },
                selected: false,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.power_share.total_cmp(&a.power_share));
    // §4.1: ≥1 % of system power, then favour net-power-heavy blocks with
    // many long wires
    let long_median = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.long_wires).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    for r in &mut rows {
        r.selected = r.power_share >= 0.01
            && (r.net_power_frac >= 0.30 || r.long_wires > long_median)
            && r.long_wires > 0;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::InstMaster;
    use foldic_t2::T2Config;
    use foldic_tech::{CellKind, Drive, VthClass};

    fn design() -> (foldic_netlist::Design, Technology) {
        T2Config::tiny().generate()
    }

    /// The sub-netlist the per-FUB fold partitioned before
    /// `bipartition_subsets`: `members`' instances plus the nets whose pins
    /// all lie inside the set (boundary and clock nets are dropped).
    /// Returns the sub-netlist and the original id of each sub-instance.
    fn induced_subnetlist(nl: &Netlist, members: &[InstId]) -> (Netlist, Vec<InstId>) {
        let member_set: std::collections::HashSet<InstId> = members.iter().copied().collect();
        let mut sub = Netlist::new("fub");
        let mut back = Vec::with_capacity(members.len());
        let mut map: std::collections::HashMap<InstId, InstId> = Default::default();
        for &id in members {
            let inst = nl.inst(id);
            // resolve through the parent interner: symbols are per-netlist
            let new = sub.add_inst(nl.name_of(inst.name).to_string(), inst.master);
            sub.inst_mut(new).pos = inst.pos;
            map.insert(id, new);
            back.push(id);
        }
        for (_, net) in nl.nets() {
            if net.is_clock {
                continue;
            }
            let pins: Vec<PinRef> = net.pins().collect();
            let all_inside = pins
                .iter()
                .all(|p| p.inst().is_some_and(|i| member_set.contains(&i)));
            if !all_inside || pins.len() < 2 {
                continue;
            }
            let nid = sub.add_net(nl.name_of(net.name).to_string());
            let remap = |p: PinRef| match p {
                PinRef::InstOut(i) => PinRef::InstOut(map[&i]),
                PinRef::InstIn(i, k) => PinRef::InstIn(map[&i], k),
                PinRef::Port(_) => unreachable!("ports filtered above"),
            };
            if let Some(d) = net.driver {
                sub.connect_driver(nid, remap(d));
            }
            for s in net.sinks() {
                sub.connect_sink(nid, remap(s));
            }
        }
        (sub, back)
    }

    /// `bipartition_subsets` against `bipartition` of each subset's
    /// induced sub-netlist: every tier and the cut.
    fn assert_subsets_match_oracle(
        nl: &Netlist,
        tech: &Technology,
        cfg: &PartitionConfig,
        subsets: &[Vec<InstId>],
        case: &str,
    ) {
        let direct = bipartition_subsets(nl, tech, cfg, subsets);
        assert_eq!(direct.len(), subsets.len());
        for (k, (members, got)) in subsets.iter().zip(&direct).enumerate() {
            let (sub, back) = induced_subnetlist(nl, members);
            assert_eq!(&back, members);
            let want = bipartition(&sub, tech, cfg);
            assert_eq!(got.tier_of, want.tier_of, "{case} subset {k}: tiers differ");
            assert_eq!(got.cut, want.cut, "{case} subset {k}: cut differs");
        }
    }

    /// The direct FUB partitions equal `induced_subnetlist` + `bipartition`
    /// on every folded FUB of every tiny-T2 SPC, and on random disjoint
    /// member subsets of random netlists with ports, clock nets,
    /// driverless and one-pin nets, repeated pins and nets that cross
    /// subsets (seeded by `FOLDIC_FUZZ_SEED`).
    #[test]
    fn fub_partitions_match_the_induced_subnetlist_oracle() {
        use rand::{Rng, SeedableRng};
        let (design, tech) = design();
        let cfg = PartitionConfig::default();
        let mut spcs = 0;
        for (_, b) in design.blocks() {
            if b.kind != foldic_netlist::BlockKind::Spc {
                continue;
            }
            let nl = &b.netlist;
            let subsets: Vec<Vec<InstId>> = foldic_t2::SPC_FUBS
                .iter()
                .filter(|fub| fub.2)
                .filter_map(|&(name, _, _)| {
                    let g = (0..nl.num_groups())
                        .map(|i| GroupId(i as u32))
                        .find(|&g| nl.group_name(g) == name)?;
                    Some(
                        nl.insts()
                            .filter(|(_, i)| i.group == Some(g))
                            .map(|(id, _)| id)
                            .collect(),
                    )
                })
                .collect();
            assert_eq!(subsets.len(), 6, "{}", b.name);
            assert_subsets_match_oracle(nl, &tech, &cfg, &subsets, &b.name);
            spcs += 1;
        }
        assert!(spcs > 0);

        let seed = std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xF0B5_u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lib = &tech.cells;
        let masters = [
            lib.id_of(CellKind::Nand2, Drive::X1, VthClass::Rvt),
            lib.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt),
            lib.id_of(CellKind::Dff, Drive::X1, VthClass::Rvt),
        ];
        for case in 0..300 {
            let n = rng.gen_range(0..40usize);
            let mut nl = Netlist::new("fuzz");
            let ids: Vec<InstId> = (0..n)
                .map(|i| {
                    let m = masters[rng.gen_range(0..masters.len())];
                    nl.add_inst(format!("u{i}"), InstMaster::Cell(m))
                })
                .collect();
            let ports: Vec<_> = (0..3)
                .map(|i| {
                    nl.add_port(
                        format!("p{i}"),
                        foldic_netlist::PortDir::Input,
                        foldic_netlist::ClockDomain::Cpu,
                    )
                })
                .collect();
            let pin = |rng: &mut rand::rngs::StdRng, input: bool| {
                if n == 0 || rng.gen_bool(0.05) {
                    PinRef::port(ports[rng.gen_range(0..ports.len())])
                } else if input {
                    PinRef::input(ids[rng.gen_range(0..n)], rng.gen_range(0..2u16))
                } else {
                    PinRef::output(ids[rng.gen_range(0..n)])
                }
            };
            for k in 0..rng.gen_range(0..3 * n + 2) {
                let net = nl.add_net(format!("n{k}"));
                if rng.gen_bool(0.9) {
                    let d = pin(&mut rng, false);
                    nl.connect_driver(net, d);
                }
                for _ in 0..rng.gen_range(0..6usize) {
                    let s = pin(&mut rng, true);
                    nl.connect_sink(net, s);
                }
                if rng.gen_bool(0.05) {
                    nl.net_mut(net).is_clock = true;
                }
            }
            // each instance joins one of `k` subsets, or none
            let k = rng.gen_range(1..4usize);
            let mut subsets = vec![Vec::new(); k];
            for &id in &ids {
                let s = rng.gen_range(0..k + 1);
                if s < k {
                    subsets[s].push(id);
                }
            }
            assert_subsets_match_oracle(&nl, &tech, &cfg, &subsets, &format!("case {case}"));
        }
    }

    /// Digest of the tiny T2's chip fold pass partitions, in block order.
    const CHIP_FOLDS_DIGEST: &str = "301963f3b127d121";
    /// Digest of the Fig. 2 (CCX) and Fig. 7 (L2T) quality sweeps.
    const QUALITY_SWEEPS_DIGEST: &str = "8051fab15ccf1530";

    /// 64-bit FNV-1a over each partition's cut and tiers (one byte each).
    fn partition_digest(parts: &[Partition]) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for part in parts {
            let tiers = part.tier_of.iter().map(|&t| u8::from(t == Tier::Top));
            for byte in (part.cut as u64).to_le_bytes().into_iter().chain(tiers) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Pins every partition the tiny T2's folds compute across commits,
    /// as `crates/place/tests/pinned_bits.rs` pins placements: the chip
    /// fold pass (each SPC's second-level split, the CCX's natural split,
    /// each L2D's macro rows, each L2T's and the RTX's min-cut) and the
    /// partition-quality sweeps of Figs. 2 and 7. A change meant to move
    /// a partition must update the constants and say why.
    #[test]
    fn tiny_t2_fold_partitions_are_pinned() {
        use foldic_netlist::BlockKind;
        let (design, tech) = design();
        let with = |strategy| FoldConfig {
            strategy,
            ..FoldConfig::default()
        };
        let mut chip = Vec::new();
        for (_, b) in design.blocks() {
            let nl = &b.netlist;
            chip.push(match b.kind {
                BlockKind::Spc => spc_second_level_partition(nl, &tech, &FoldConfig::default()),
                BlockKind::Ccx => make_partition(
                    nl,
                    &tech,
                    &with(FoldStrategy::NaturalGroups(vec!["pcx".into()])),
                ),
                BlockKind::L2d => make_partition(nl, &tech, &with(FoldStrategy::MacroRows)),
                BlockKind::L2t | BlockKind::Rtx => {
                    make_partition(nl, &tech, &with(FoldStrategy::MinCut))
                }
                _ => continue,
            });
        }
        let mut quality = Vec::new();
        for (name, qs) in [
            ("ccx", &[1.0, 0.6, 0.3, 0.0][..]),
            ("l2t0", &[1.0, 0.75, 0.5, 0.25, 0.0][..]),
        ] {
            let nl = &design.block(design.find_block(name).unwrap()).netlist;
            for &q in qs {
                quality.push(make_partition(nl, &tech, &with(FoldStrategy::Quality(q))));
            }
        }
        let cuts = |parts: &[Partition]| parts.iter().map(|p| p.cut).collect::<Vec<_>>();
        assert_eq!(
            partition_digest(&chip),
            CHIP_FOLDS_DIGEST,
            "chip fold cuts {:?}",
            cuts(&chip)
        );
        assert_eq!(
            partition_digest(&quality),
            QUALITY_SWEEPS_DIGEST,
            "quality sweep cuts {:?}",
            cuts(&quality)
        );
    }

    #[test]
    fn folding_ccx_naturally_uses_few_vias() {
        let (mut d, tech) = design();
        let id = d.find_block("ccx").unwrap();
        let before_fp = d.block(id).outline.area();
        let cfg = FoldConfig {
            strategy: FoldStrategy::NaturalGroups(vec!["pcx".into()]),
            bonding: BondingStyle::FaceToBack,
            ..FoldConfig::fast()
        };
        let folded = fold_block(d.block_mut(id), &tech, &cfg).unwrap();
        // tiny cut (the paper reports 4 signal TSVs)
        assert!(folded.cut <= 8, "cut {}", folded.cut);
        // footprint roughly halves (−54.6 % in the paper)
        let after_fp = d.block(id).outline.area();
        assert!(
            after_fp < 0.70 * before_fp,
            "footprint {before_fp} -> {after_fp}"
        );
        assert!(d.block(id).folded);
        d.block(id).netlist.check().expect("sound after folding");
    }

    #[test]
    fn macro_rows_strategy_balances_l2d_macros() {
        let (mut d, tech) = design();
        let id = d.find_block("l2d0").unwrap();
        let cfg = FoldConfig {
            strategy: FoldStrategy::MacroRows,
            bonding: BondingStyle::FaceToBack,
            ..FoldConfig::fast()
        };
        let _folded = fold_block(d.block_mut(id), &tech, &cfg).unwrap();
        let nl = &d.block(id).netlist;
        let (bot, top): (Vec<_>, Vec<_>) = nl
            .insts()
            .filter(|(_, i)| i.master.is_macro())
            .partition(|(_, i)| i.tier == Tier::Bottom);
        assert_eq!(bot.len(), 16);
        assert_eq!(top.len(), 16);
        // macros legal inside the folded outline
        let outline = d.block(id).outline;
        for (_, m) in nl.insts().filter(|(_, i)| i.master.is_macro()) {
            assert!(
                outline.inflated(1.0).contains_rect(m.rect(&tech)),
                "macro at {} outside {}",
                m.pos,
                outline
            );
        }
    }

    #[test]
    fn f2f_fold_beats_f2b_fold_on_footprint() {
        let (d0, tech) = design();
        let id = d0.find_block("l2t0").unwrap();
        let run = |bonding| {
            let mut d = d0.clone();
            let cfg = FoldConfig {
                strategy: FoldStrategy::MinCut,
                bonding,
                ..FoldConfig::fast()
            };
            let folded = fold_block(d.block_mut(id), &tech, &cfg).unwrap();
            (d.block(id).outline.area(), folded)
        };
        let (fp_f2b, f2b) = run(BondingStyle::FaceToBack);
        let (fp_f2f, f2f) = run(BondingStyle::FaceToFace);
        assert!(fp_f2f < fp_f2b, "F2F {fp_f2f} vs F2B {fp_f2b}");
        // same partition seed → comparable via counts
        assert!(f2b.metrics.num_3d_connections > 0);
        assert!(f2f.metrics.num_3d_connections > 0);
        // F2F vias sit nearer their ideals
        assert!(f2f.vias.mean_displacement_um() <= f2b.vias.mean_displacement_um());
    }

    #[test]
    fn quality_sweep_changes_via_count() {
        let (d0, tech) = design();
        let id = d0.find_block("l2t0").unwrap();
        let cut_at = |q: f64| {
            let mut d = d0.clone();
            let cfg = FoldConfig {
                strategy: FoldStrategy::Quality(q),
                bonding: BondingStyle::FaceToFace,
                ..FoldConfig::fast()
            };
            fold_block(d.block_mut(id), &tech, &cfg).unwrap().cut
        };
        assert!(cut_at(0.0) > cut_at(1.0));
    }

    #[test]
    fn second_level_folding_splits_big_fubs() {
        let (mut d, tech) = design();
        let id = d.find_block("spc0").unwrap();
        let cfg = FoldConfig {
            bonding: BondingStyle::FaceToFace,
            ..FoldConfig::fast()
        };
        let folded = fold_spc_second_level(d.block_mut(id), &tech, &cfg).unwrap();
        assert!(folded.metrics.num_3d_connections > 0);
        let nl = &d.block(id).netlist;
        // each folded FUB must have cells on both tiers
        for &(name, _, is_folded) in foldic_t2::SPC_FUBS.iter() {
            if !is_folded {
                continue;
            }
            let g = (0..nl.num_groups())
                .map(|i| GroupId(i as u32))
                .find(|&g| nl.group_name(g) == name)
                .unwrap();
            let tiers: std::collections::HashSet<Tier> = nl
                .insts()
                .filter(|(_, i)| i.group == Some(g) && !i.master.is_macro())
                .map(|(_, i)| i.tier)
                .collect();
            assert_eq!(tiers.len(), 2, "FUB {name} not folded");
        }
    }

    #[test]
    fn candidate_table_ranks_spc_on_top() {
        // synthetic metric set mimicking Table 3's structure
        use foldic_netlist::BlockKind::*;
        let m = |power: f64, net_frac: f64, long: usize| DesignMetrics {
            power: foldic_power::PowerReport {
                cell_uw: power * (1.0 - net_frac) * 0.7,
                net_wire_uw: power * net_frac * 0.8,
                net_pin_uw: power * net_frac * 0.2,
                leakage_uw: power * (1.0 - net_frac) * 0.3,
            },
            long_wires: long,
            ..Default::default()
        };
        let mut blocks = Vec::new();
        for i in 0..8 {
            blocks.push((format!("spc{i}"), Spc, m(58.0, 0.55, 277)));
            blocks.push((format!("l2d{i}"), L2d, m(21.0, 0.29, 65)));
        }
        blocks.push(("ccx".into(), Ccx, m(28.0, 0.58, 124)));
        blocks.push(("rtx".into(), Rtx, m(36.0, 0.44, 275)));
        blocks.push(("ncu".into(), Ncu, m(5.0, 0.2, 3)));
        let rows = fold_candidates(&blocks);
        assert_eq!(rows[0].kind, Spc);
        let spc = &rows[0];
        assert!(spc.selected);
        let ncu = rows.iter().find(|r| r.kind == Ncu).unwrap();
        assert!(!ncu.selected, "NCU is below the 1% criterion");
        let l2d = rows.iter().find(|r| r.kind == L2d).unwrap();
        assert!(
            (l2d.power_share - 0.021 / (0.021 * 8.0 + 0.058 * 8.0 + 0.028 + 0.036 + 0.005) * 1.0)
                .abs()
                < 1.0
        );
    }
}
