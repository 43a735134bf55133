#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Power analysis: cell, net (wire + pin) and leakage power.
//!
//! Reproduces the decomposition the paper reports in every table:
//!
//! * **cell power** — internal energy of cells (and access energy of
//!   memory macros) times clock frequency and toggle activity;
//! * **net power** — `(C_wire + C_pin) · V² · f · α` per net, split into
//!   the wire and pin contributions ("the net power is defined as the sum
//!   of wire and pin power", §3.2). Tier-crossing nets add their TSV /
//!   F2F-via capacitance;
//! * **leakage power** — per-cell/macro leakage tables (halved for HVT
//!   cells, which is the dual-Vth lever of §6.2).
//!
//! Clock nets toggle every cycle (α = 1); signal nets toggle with the
//! block's activity.
//!
//! # Examples
//!
//! ```
//! use foldic_t2::T2Config;
//! use foldic_route::BlockWiring;
//! use foldic_power::{analyze_block, PowerConfig};
//!
//! let (design, tech) = T2Config::tiny().generate();
//! let block = design.block(design.find_block("ccu").unwrap());
//! let wiring = BlockWiring::analyze(&block.netlist, &tech, 1.1, None).unwrap();
//! let p = analyze_block(&block.netlist, &tech, &wiring, &PowerConfig::for_block(block)).unwrap();
//! assert!(p.total_uw() > 0.0);
//! assert!(p.leakage_uw > 0.0);
//! ```

pub mod census;

pub use census::{power_census, CategoryPower, PowerCensus};

use foldic_fault::{FlowError, FlowStage};
use foldic_netlist::{Block, InstMaster, Netlist, PinRef};
use foldic_tech::{Technology, Via3dKind};
use std::ops::{Add, AddAssign};

/// Per-analysis knobs.
#[derive(Debug, Clone)]
pub struct PowerConfig {
    /// Toggle activity of signal nets/cells (expected toggles per cycle).
    pub activity: f64,
    /// Macro access activity (reads/writes per cycle).
    pub macro_activity: f64,
    /// Highest metal layer for wire-capacitance estimation.
    pub max_layer: usize,
    /// 3D-via kind on tier-crossing nets, if the block is folded.
    pub via_kind: Option<Via3dKind>,
    /// Include the TSV-to-wire coupling capacitance on tier-crossing nets
    /// (the paper's §7 future-work parasitic; off by default to match the
    /// main study's model).
    pub tsv_coupling: bool,
    /// Fraction of a cell's internal energy attributed to the *hidden*
    /// nets inside it. When one synthetic cell stands for a cluster of
    /// real cells, the short real nets between them are physically wire +
    /// pin switching and must be reported as net power (the paper's
    /// decomposition), even though they are bookkept inside the cluster's
    /// internal energy.
    pub hidden_net_fraction: f64,
}

impl PowerConfig {
    /// Builds the configuration for an (unfolded) block using its
    /// generator-assigned activity.
    pub fn for_block(block: &Block) -> Self {
        Self {
            activity: block.activity,
            macro_activity: 0.5 * block.activity,
            max_layer: 7,
            via_kind: None,
            tsv_coupling: false,
            hidden_net_fraction: 0.55,
        }
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        Self {
            activity: 0.10,
            macro_activity: 0.05,
            max_layer: 7,
            via_kind: None,
            tsv_coupling: false,
            hidden_net_fraction: 0.55,
        }
    }
}

/// A power breakdown in µW.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerReport {
    /// Internal (cell + macro) switching power.
    pub cell_uw: f64,
    /// Wire part of the net power.
    pub net_wire_uw: f64,
    /// Pin part of the net power.
    pub net_pin_uw: f64,
    /// Leakage power.
    pub leakage_uw: f64,
}

impl PowerReport {
    /// Net power (wire + pin) in µW.
    pub fn net_uw(&self) -> f64 {
        self.net_wire_uw + self.net_pin_uw
    }

    /// Total power in µW.
    pub fn total_uw(&self) -> f64 {
        self.cell_uw + self.net_uw() + self.leakage_uw
    }

    /// Total power in watts.
    pub fn total_w(&self) -> f64 {
        self.total_uw() * 1e-6
    }

    /// Net power share of the total (Table 3's "net power portion").
    pub fn net_fraction(&self) -> f64 {
        if self.total_uw() > 0.0 {
            self.net_uw() / self.total_uw()
        } else {
            0.0
        }
    }
}

impl Add for PowerReport {
    type Output = PowerReport;
    fn add(self, rhs: PowerReport) -> PowerReport {
        PowerReport {
            cell_uw: self.cell_uw + rhs.cell_uw,
            net_wire_uw: self.net_wire_uw + rhs.net_wire_uw,
            net_pin_uw: self.net_pin_uw + rhs.net_pin_uw,
            leakage_uw: self.leakage_uw + rhs.leakage_uw,
        }
    }
}

impl AddAssign for PowerReport {
    fn add_assign(&mut self, rhs: PowerReport) {
        *self = *self + rhs;
    }
}

/// Analyzes one placed block.
///
/// # Errors
///
/// Returns a [`FlowError`] at [`FlowStage::Power`] when the report sums
/// to a non-finite total (corrupt activity or wiring inputs).
pub fn analyze_block(
    netlist: &Netlist,
    tech: &Technology,
    wiring: &foldic_route::BlockWiring,
    cfg: &PowerConfig,
) -> Result<PowerReport, FlowError> {
    foldic_obs::trace::add_iters(netlist.num_nets() as u64);
    let mut report = PowerReport::default();
    let v2 = tech.vdd * tech.vdd;
    let c_um = tech.metal.effective_c_per_um(cfg.max_layer);

    // ---- leakage + internal power -------------------------------------------
    // Toggle rate per instance: the frequency of the net it drives (or the
    // block default); activity α for signal cells, 1.0 for clock cells.
    let mut drives_clock = vec![false; netlist.num_insts()];
    let mut domain_ghz = vec![tech.cpu_clock_ghz; netlist.num_insts()];
    for (_, net) in netlist.nets() {
        if let Some(PinRef::InstOut(i)) = net.driver {
            domain_ghz[i.index()] = net.domain.frequency_ghz(tech);
            if net.is_clock {
                drives_clock[i.index()] = true;
            }
        }
    }
    for (id, inst) in netlist.insts() {
        match inst.master {
            InstMaster::Cell(m) => {
                let master = tech.cells.master(m);
                report.leakage_uw += master.leakage_uw;
                let alpha = if drives_clock[id.index()] {
                    1.0
                } else {
                    cfg.activity
                };
                let e = master.internal_energy_fj * domain_ghz[id.index()] * alpha;
                // split off the hidden intra-cluster net switching
                let hidden = e * cfg.hidden_net_fraction;
                report.cell_uw += e - hidden;
                report.net_wire_uw += 0.5 * hidden;
                report.net_pin_uw += 0.5 * hidden;
            }
            InstMaster::Macro(k) => {
                let m = tech.macros.get(k);
                report.leakage_uw += m.leakage_uw;
                report.cell_uw += m.access_energy_fj * domain_ghz[id.index()] * cfg.macro_activity;
            }
        }
    }

    // ---- net power ------------------------------------------------------------
    for (nid, net) in netlist.nets() {
        let rec = wiring.net(nid);
        let f = net.domain.frequency_ghz(tech);
        let alpha = if net.is_clock { 1.0 } else { cfg.activity };
        let mut wire_cap = rec.length_um * c_um;
        if rec.is_3d {
            if let Some(kind) = cfg.via_kind {
                wire_cap += match kind {
                    Via3dKind::Tsv => {
                        tech.tsv.capacitance_ff()
                            + if cfg.tsv_coupling {
                                tech.tsv.coupling_cap_ff()
                            } else {
                                0.0
                            }
                    }
                    Via3dKind::F2fVia => tech.f2f_via.capacitance_ff(),
                };
            }
        }
        let pin_cap: f64 = net
            .sinks()
            .map(|s| match s {
                PinRef::InstIn(i, _) => match netlist.inst(i).master {
                    InstMaster::Cell(m) => tech.cells.master(m).input_cap_ff,
                    InstMaster::Macro(k) => tech.macros.get(k).pin_cap_ff,
                },
                _ => 0.0,
            })
            .sum();
        report.net_wire_uw += wire_cap * v2 * f * alpha;
        report.net_pin_uw += pin_cap * v2 * f * alpha;
    }
    if !report.total_uw().is_finite() {
        return Err(FlowError::stage(
            FlowStage::Power,
            "power analysis produced a non-finite total",
        ));
    }
    if foldic_obs::metrics::is_enabled() {
        foldic_obs::metrics::add("power.analyses", 1);
        foldic_obs::metrics::observe("power.net_fraction", report.net_fraction());
        foldic_obs::metrics::observe("power.total_uw", report.total_uw());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_route::BlockWiring;
    use foldic_t2::T2Config;

    fn block_power(name: &str) -> (PowerReport, foldic_netlist::Design, Technology) {
        let (design, tech) = T2Config::tiny().generate();
        let id = design.find_block(name).unwrap();
        let block = design.block(id);
        let wiring = BlockWiring::analyze(&block.netlist, &tech, 1.1, None).unwrap();
        let p = analyze_block(
            &block.netlist,
            &tech,
            &wiring,
            &PowerConfig::for_block(block),
        )
        .unwrap();
        (p, design, tech)
    }

    #[test]
    fn breakdown_is_positive_and_consistent() {
        let (p, _, _) = block_power("mcu0");
        assert!(p.cell_uw > 0.0 && p.net_wire_uw > 0.0 && p.net_pin_uw > 0.0 && p.leakage_uw > 0.0);
        assert!((p.total_uw() - (p.cell_uw + p.net_uw() + p.leakage_uw)).abs() < 1e-9);
        assert!(p.net_fraction() > 0.0 && p.net_fraction() < 1.0);
    }

    #[test]
    fn l2d_is_memory_power_dominated() {
        // §4.4: scdata's cell+leakage power is dominated by macros and its
        // net power portion is low (~29 % in the paper).
        let (l2d, _, _) = block_power("l2d0");
        let (ccx, _, _) = block_power("ccx");
        assert!(l2d.net_fraction() < 0.45, "{}", l2d.net_fraction());
        assert!(
            ccx.net_fraction() > l2d.net_fraction(),
            "ccx {} vs l2d {}",
            ccx.net_fraction(),
            l2d.net_fraction()
        );
    }

    #[test]
    fn shorter_wires_mean_less_net_power() {
        let (design, tech) = T2Config::tiny().generate();
        let id = design.find_block("l2t0").unwrap();
        let block = design.block(id);
        let cfg = PowerConfig::for_block(block);
        let w1 = BlockWiring::analyze(&block.netlist, &tech, 1.0, None).unwrap();
        let w2 = BlockWiring::analyze(&block.netlist, &tech, 1.3, None).unwrap();
        let p1 = analyze_block(&block.netlist, &tech, &w1, &cfg).unwrap();
        let p2 = analyze_block(&block.netlist, &tech, &w2, &cfg).unwrap();
        assert!(p2.net_wire_uw > p1.net_wire_uw);
        // pin and cell power don't depend on the detour
        assert!((p2.net_pin_uw - p1.net_pin_uw).abs() < 1e-9);
        assert!((p2.cell_uw - p1.cell_uw).abs() < 1e-9);
    }

    #[test]
    fn tsv_nets_burn_more_than_f2f_nets() {
        let (design, tech) = T2Config::tiny().generate();
        let id = design.find_block("l2t0").unwrap();
        let mut block = design.block(id).clone();
        // fold crudely: alternate tiers
        let ids: Vec<_> = block.netlist.inst_ids().collect();
        for (k, iid) in ids.into_iter().enumerate() {
            if k % 2 == 0 {
                block.netlist.inst_mut(iid).tier = foldic_geom::Tier::Top;
            }
        }
        let wiring = BlockWiring::analyze(&block.netlist, &tech, 1.1, None).unwrap();
        let mut cfg = PowerConfig::for_block(&block);
        cfg.via_kind = Some(Via3dKind::Tsv);
        let tsv = analyze_block(&block.netlist, &tech, &wiring, &cfg).unwrap();
        cfg.via_kind = Some(Via3dKind::F2fVia);
        let f2f = analyze_block(&block.netlist, &tech, &wiring, &cfg).unwrap();
        assert!(tsv.net_wire_uw > f2f.net_wire_uw);
    }

    #[test]
    fn reports_accumulate() {
        let (a, _, _) = block_power("ccu");
        let mut sum = a;
        sum += a;
        assert!((sum.total_uw() - 2.0 * a.total_uw()).abs() < 1e-9);
    }
}
