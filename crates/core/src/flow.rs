//! The block-level physical design flow of §2.2.
//!
//! For each block: mixed-size placement, wiring analysis, STA against the
//! chip-level port budgets, iterative timing optimization (buffer
//! insertion, upsizing), power optimization (downsizing, optional HVT
//! swap), and power sign-off.

use crate::metrics::DesignMetrics;
use foldic_fault::deadline::stage_scope;
use foldic_fault::{fault_point, FlowError, FlowStage};
use foldic_netlist::{Block, InstMaster, Netlist};
use foldic_opt::{optimize_block_analyzed, OptConfig, OptOutcome, OptStats};
use foldic_place::{place_block, PlacerConfig};
use foldic_power::{analyze_block, PowerConfig};
use foldic_route::{BlockWiring, ViaPlacement};
use foldic_tech::{BondingStyle, CellKind, RoutingPolicy, Technology, VthClass};
use foldic_timing::TimingBudgets;

/// Configuration of the block flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Placer settings.
    pub placer: PlacerConfig,
    /// Optimizer settings (layer/via fields are overwritten per block).
    pub opt: OptConfig,
    /// Bonding style of the stack the block lives in.
    pub bonding: BondingStyle,
    /// Enable the dual-Vth pass.
    pub dual_vth: bool,
    /// Routing-layer policy.
    pub policy: RoutingPolicy,
    /// Which retry attempt this configuration belongs to (`0` = the
    /// first run). Addressed by the fault-injection harness and bumped
    /// by [`Self::relaxed_for_retry`].
    pub retry_attempt: u32,
}

impl FlowConfig {
    /// Fast settings for tests.
    pub fn fast() -> Self {
        Self {
            placer: PlacerConfig::fast(),
            ..Self::default()
        }
    }

    /// The configuration a retry runs under: attempt `0` is this config
    /// unchanged; later attempts progressively relax the expensive
    /// knobs (fewer placer iterations, fewer optimization rounds) so a
    /// numerically marginal block gets an easier, different trajectory.
    pub fn relaxed_for_retry(&self, attempt: u32) -> Self {
        let mut cfg = self.clone();
        cfg.retry_attempt = attempt;
        if attempt > 0 {
            let a = attempt as usize;
            cfg.placer.iterations = cfg.placer.iterations.saturating_sub(a).max(2);
            cfg.opt.rounds = cfg.opt.rounds.saturating_sub(a).max(1);
        }
        cfg
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            placer: PlacerConfig::quality(),
            opt: OptConfig::default(),
            bonding: BondingStyle::FaceToBack,
            dual_vth: false,
            policy: RoutingPolicy::dac14(),
            retry_attempt: 0,
        }
    }
}

/// Outcome of running the flow on one block.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Sign-off metrics.
    pub metrics: DesignMetrics,
    /// What the optimizer did.
    pub opt: OptStats,
}

/// Effective routing-layer ceiling for STA/power inside a block.
pub fn block_max_layer(block: &Block, bonding: BondingStyle, policy: &RoutingPolicy) -> usize {
    if block.routing_hungry() {
        return policy.hungry_max_layer;
    }
    if block.folded {
        // F2B folded blocks mix an M7 bottom die and an M9 top die; F2F
        // folded blocks route through M9 on both dies
        return match bonding {
            BondingStyle::FaceToBack => policy.block_max_layer + 1,
            BondingStyle::FaceToFace => policy.hungry_max_layer,
        };
    }
    policy.block_max_layer
}

/// Collects [`DesignMetrics`] from a finished (placed + optimized) block.
pub fn collect_metrics(
    netlist: &Netlist,
    block: &Block,
    tech: &Technology,
    wiring: &BlockWiring,
    vias: Option<&ViaPlacement>,
    power: foldic_power::PowerReport,
    wns_ps: f64,
) -> DesignMetrics {
    let mut m = DesignMetrics {
        footprint_um2: block.outline.area(),
        wirelength_um: wiring.total_um,
        long_wires: wiring.long_wires,
        num_3d_connections: vias.map(|v| v.len()).unwrap_or(0),
        power,
        wns_ps,
        ..Default::default()
    };
    for (_, inst) in netlist.insts() {
        match inst.master {
            InstMaster::Cell(id) => {
                let master = tech.cells.master(id);
                m.num_cells += 1;
                if matches!(master.kind, CellKind::Buf | CellKind::ClkBuf) {
                    m.num_buffers += 1;
                }
                if master.vth == VthClass::Hvt {
                    m.num_hvt += 1;
                }
            }
            InstMaster::Macro(_) => m.num_macros += 1,
        }
    }
    m
}

/// Runs the full flow on an *unfolded* block in place: placement,
/// optimization and sign-off. The block's netlist is mutated (placement,
/// buffers, sizing, Vth).
///
/// # Errors
///
/// Returns [`FlowError`] when the block fails validation at entry
/// ([`FaultCause::Invalid`](foldic_fault::FaultCause::Invalid), not
/// retryable) or when a stage fails — organically or through an
/// the entered run's [`foldic_fault::FaultPlan`]. On error the block may be
/// partially mutated; the caller restores it before retrying.
pub fn run_block_flow(
    block: &mut Block,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &FlowConfig,
) -> Result<BlockResult, FlowError> {
    let _span = foldic_obs::span!(
        "block_flow",
        block = block.name.as_str(),
        folded = block.folded,
    );
    let name = block.name.clone();
    let attempt = cfg.retry_attempt;

    // 0. validation: a malformed block fails the same way on every
    //    attempt, so this is the one non-recoverable failure
    {
        let _scope = stage_scope(FlowStage::Validate, &name, attempt)?;
        fault_point(FlowStage::Validate, &name, attempt)?;
        block.validate(tech).map_err(|e| {
            FlowError::invalid(FlowStage::Validate, e.to_string()).with_block(&name)
        })?;
    }

    let outline = block.outline;
    let max_layer = block_max_layer(block, cfg.bonding, &cfg.policy);

    // 1. placement
    {
        let _scope = stage_scope(FlowStage::Place, &name, attempt)?;
        fault_point(FlowStage::Place, &name, attempt)?;
        place_block(&mut block.netlist, tech, outline, &cfg.placer)
            .map_err(|e| e.with_block(&name))?;
    }

    // 2. timing + power optimization
    let mut opt_cfg = cfg.opt.clone();
    opt_cfg.max_layer = max_layer;
    opt_cfg.via_kind = None;
    opt_cfg.dual_vth = cfg.dual_vth;
    let OptOutcome {
        stats: opt,
        wiring,
        report,
    } = {
        let _scope = stage_scope(FlowStage::Opt, &name, attempt)?;
        fault_point(FlowStage::Opt, &name, attempt)?;
        optimize_block_analyzed(&mut block.netlist, tech, budgets, &opt_cfg, None)
            .map_err(|e| e.with_block(&name))?
    };

    // 3. sign-off. Opt's last STA round analysed this netlist with the
    //    sign-off's detour, layer ceiling and (absent) vias, and sizing
    //    never moves the wiring, so its wiring and report are the sign-off
    //    analysis. The route and STA stages still open their scopes, so
    //    fault plans and stage deadlines fire there.
    for stage in [FlowStage::Route, FlowStage::Sta] {
        let _scope = stage_scope(stage, &name, attempt)?;
        fault_point(stage, &name, attempt)?;
    }
    let mut pw_cfg = PowerConfig::for_block(block);
    pw_cfg.max_layer = max_layer;
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
        None,
        power,
        report.wns_ps,
    );
    if foldic_obs::metrics::is_enabled() {
        foldic_obs::metrics::add("flow.blocks", 1);
        foldic_obs::metrics::observe("flow.block_wns_ps", metrics.wns_ps);
        foldic_obs::metrics::observe("flow.block_power_uw", metrics.power.total_uw());
        foldic_obs::metrics::observe("flow.block_wirelength_um", metrics.wirelength_um);
    }
    Ok(BlockResult { metrics, opt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_t2::T2Config;

    #[test]
    fn flow_produces_consistent_metrics() {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block("mcu0").unwrap();
        let block = design.block_mut(id);
        let budgets = TimingBudgets::relaxed(&block.netlist, &tech);
        let before_cells = block
            .netlist
            .insts()
            .filter(|(_, i)| !i.master.is_macro())
            .count();
        let result = run_block_flow(block, &tech, &budgets, &FlowConfig::fast()).unwrap();
        assert!(result.metrics.num_cells >= before_cells, "buffers only add");
        assert!(result.metrics.power.total_uw() > 0.0);
        assert!(result.metrics.wirelength_um > 0.0);
        assert_eq!(result.metrics.num_3d_connections, 0);
        block.netlist.check().expect("flow keeps netlist sound");
    }

    #[test]
    fn dvt_flow_reports_hvt_cells() {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block("ccu").unwrap();
        let block = design.block_mut(id);
        let budgets = TimingBudgets::relaxed(&block.netlist, &tech);
        let mut cfg = FlowConfig::fast();
        cfg.dual_vth = true;
        let result = run_block_flow(block, &tech, &budgets, &cfg).unwrap();
        assert!(result.metrics.num_hvt > 0);
        assert!(result.metrics.hvt_fraction() > 0.3);
    }

    /// The sign-off reuses opt's last wiring analysis and STA report. It
    /// must equal re-running both after opt, bit for bit, on a normal and
    /// a routing-hungry block, with and without the dual-Vth pass.
    #[test]
    fn signoff_reuse_matches_fresh_analyses_bitwise() {
        use foldic_opt::optimize_block_with_vias;
        use foldic_timing::{analyze, StaConfig};
        let (design, tech) = T2Config::tiny().generate();
        for name in ["ccu", "spc0"] {
            let block = design.block(design.find_block(name).unwrap());
            let budgets = TimingBudgets::relaxed(&block.netlist, &tech);
            for dual_vth in [false, true] {
                let mut cfg = FlowConfig::fast();
                cfg.dual_vth = dual_vth;
                let mut flowed = block.clone();
                let got = run_block_flow(&mut flowed, &tech, &budgets, &cfg).unwrap();

                let mut b = block.clone();
                let max_layer = block_max_layer(&b, cfg.bonding, &cfg.policy);
                place_block(&mut b.netlist, &tech, b.outline, &cfg.placer).unwrap();
                let mut opt_cfg = cfg.opt.clone();
                opt_cfg.max_layer = max_layer;
                opt_cfg.dual_vth = dual_vth;
                let stats =
                    optimize_block_with_vias(&mut b.netlist, &tech, &budgets, &opt_cfg, None)
                        .unwrap();
                let wiring = BlockWiring::analyze(&b.netlist, &tech, opt_cfg.detour, None).unwrap();
                let sta_cfg = StaConfig {
                    max_layer,
                    via_kind: None,
                };
                let sta = analyze(&b.netlist, &tech, &wiring, &budgets, &sta_cfg).unwrap();
                let mut pw_cfg = PowerConfig::for_block(&b);
                pw_cfg.max_layer = max_layer;
                let power = analyze_block(&b.netlist, &tech, &wiring, &pw_cfg).unwrap();
                let want = collect_metrics(&b.netlist, &b, &tech, &wiring, None, power, sta.wns_ps);
                // f64 Debug output round-trips, so equal text is equal bits
                let ctx = format!("{name} dual_vth={dual_vth}");
                assert_eq!(format!("{:?}", got.metrics), format!("{want:?}"), "{ctx}");
                assert_eq!(format!("{:?}", got.opt), format!("{stats:?}"), "{ctx}");
            }
        }
    }

    #[test]
    fn layer_policy_follows_block_and_bonding() {
        let (mut design, tech) = T2Config::tiny().generate();
        let policy = RoutingPolicy::dac14();
        let _ = tech;
        let spc = design.find_block("spc0").unwrap();
        assert_eq!(
            block_max_layer(design.block(spc), BondingStyle::FaceToBack, &policy),
            9
        );
        let mcu = design.find_block("mcu0").unwrap();
        assert_eq!(
            block_max_layer(design.block(mcu), BondingStyle::FaceToBack, &policy),
            7
        );
        design.block_mut(mcu).folded = true;
        assert_eq!(
            block_max_layer(design.block(mcu), BondingStyle::FaceToBack, &policy),
            8
        );
        assert_eq!(
            block_max_layer(design.block(mcu), BondingStyle::FaceToFace, &policy),
            9
        );
    }
}
