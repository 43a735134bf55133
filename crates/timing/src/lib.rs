#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Multi-clock static timing analysis with Elmore wire delay.
//!
//! A graph STA over one block's netlist, mirroring what the paper's flow
//! obtains from PrimeTime (§2.2): forward arrival propagation from clocked
//! sources and input ports, backward required-time propagation from
//! endpoints, per-endpoint slack, and the aggregate WNS/TNS the
//! optimization passes (buffering, sizing, Vth assignment) consume.
//!
//! * **Sources** — flip-flop and macro outputs (clock-to-out delay), and
//!   input ports with externally supplied arrival budgets (the chip-level
//!   timing constraints extracted for each block's I/O pins).
//! * **Endpoints** — flip-flop data pins, macro input pins (setup against
//!   the capturing clock), and output ports with required-time budgets.
//! * **Delay model** — library cell delay `intrinsic + R_out·C_load` plus
//!   Elmore wire delay along the Steiner path to each sink; tier-crossing
//!   nets add the TSV / F2F-via RC of the bonding style.
//! * **Combinational cycles** — synthetic netlists may contain loops; the
//!   levelization breaks them by processing strongly-cyclic remainders
//!   with their partially-known arrivals (a standard loop-breaking
//!   approximation).
//!
//! # Examples
//!
//! ```
//! use foldic_t2::T2Config;
//! use foldic_route::BlockWiring;
//! use foldic_timing::{analyze, StaConfig, TimingBudgets};
//!
//! let (design, tech) = T2Config::tiny().generate();
//! let block = design.block(design.find_block("ccu").unwrap());
//! let wiring = BlockWiring::analyze(&block.netlist, &tech, 1.1, None).unwrap();
//! let budgets = TimingBudgets::relaxed(&block.netlist, &tech);
//! let report = analyze(&block.netlist, &tech, &wiring, &budgets, &StaConfig::default()).unwrap();
//! assert!(report.max_arrival_ps > 0.0);
//! ```

mod graph;
#[cfg(test)]
mod oracle;

pub use graph::TimingGraph;

use foldic_fault::FlowError;
use foldic_netlist::Netlist;
use foldic_route::BlockWiring;
use foldic_tech::{Technology, Via3dKind};

/// Setup margin at capturing endpoints in ps.
pub const SETUP_PS: f64 = 30.0;

/// STA knobs.
#[derive(Debug, Clone)]
pub struct StaConfig {
    /// Highest metal layer available inside the block (sets effective
    /// wire R/C; see the routing policy of §2.2/§6.1).
    pub max_layer: usize,
    /// 3D-via kind on tier-crossing nets, if the block is folded.
    pub via_kind: Option<Via3dKind>,
}

impl Default for StaConfig {
    fn default() -> Self {
        Self {
            max_layer: 7,
            via_kind: None,
        }
    }
}

/// Per-port timing budgets (the "new timing constraints for each block's
/// I/O pins" of §2.2).
#[derive(Debug, Clone)]
pub struct TimingBudgets {
    /// Arrival time at each input port in ps (indexed by `PortId`).
    pub input_arrival_ps: Vec<f64>,
    /// Required time at each output port in ps (indexed by `PortId`).
    pub output_required_ps: Vec<f64>,
}

impl TimingBudgets {
    /// Uniform default budgets: inputs arrive at 25 % of their domain
    /// period, outputs must be ready by 75 %.
    pub fn relaxed(netlist: &Netlist, tech: &Technology) -> Self {
        let mut input = vec![0.0; netlist.num_ports()];
        let mut output = vec![f64::INFINITY; netlist.num_ports()];
        for (pid, port) in netlist.ports() {
            let period = port.domain.period_ps(tech);
            input[pid.index()] = 0.25 * period;
            output[pid.index()] = 0.75 * period;
        }
        Self {
            input_arrival_ps: input,
            output_required_ps: output,
        }
    }
}

/// Result of one STA run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Arrival time at every instance output in ps.
    pub arrival_ps: Vec<f64>,
    /// Slack at every instance output in ps (`+∞` where unconstrained).
    pub slack_ps: Vec<f64>,
    /// Worst negative slack (0 when timing is met).
    pub wns_ps: f64,
    /// Total negative slack over all endpoints.
    pub tns_ps: f64,
    /// Number of violated endpoints.
    pub violations: usize,
    /// Number of timing endpoints.
    pub endpoints: usize,
    /// Largest arrival seen (the critical path length).
    pub max_arrival_ps: f64,
}

impl TimingReport {
    /// `true` when every endpoint meets timing.
    pub fn met(&self) -> bool {
        self.violations == 0
    }
}

/// Effective wire resistance/capacitance per µm under the layer budget.
fn wire_rc(tech: &Technology, max_layer: usize) -> (f64, f64) {
    (
        tech.metal.effective_r_per_um(max_layer),
        tech.metal.effective_c_per_um(max_layer),
    )
}

fn via_rc(tech: &Technology, kind: Via3dKind) -> (f64, f64) {
    match kind {
        Via3dKind::Tsv => (tech.tsv.resistance_ohm(), tech.tsv.capacitance_ff()),
        Via3dKind::F2fVia => (tech.f2f_via.resistance_ohm(), tech.f2f_via.capacitance_ff()),
    }
}

/// Runs STA and returns the report. `wiring` must come from the same
/// placement state (it supplies routed per-sink path lengths); pass the
/// via placement through `wiring` for folded blocks and set
/// `cfg.via_kind` so tier-crossing nets get their via RC.
///
/// This builds a [`TimingGraph`] and times it once; a caller that
/// re-times the same block after sizing moves keeps the graph instead.
///
/// # Errors
///
/// Returns a [`FlowError`] at [`FlowStage::Sta`] when delay propagation
/// produces a non-finite worst slack (broken RC inputs upstream).
///
/// [`FlowStage::Sta`]: foldic_fault::FlowStage::Sta
pub fn analyze(
    netlist: &Netlist,
    tech: &Technology,
    wiring: &BlockWiring,
    budgets: &TimingBudgets,
    cfg: &StaConfig,
) -> Result<TimingReport, FlowError> {
    TimingGraph::build(netlist, tech, wiring, budgets, cfg).time(netlist, tech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_geom::Point;
    use foldic_netlist::{ClockDomain as CD, InstId, InstMaster, PinRef, PortDir};
    use foldic_tech::{CellKind, CellLibrary, Drive, VthClass};

    fn tech() -> Technology {
        Technology::cmos28()
    }

    /// port -> inv -> inv -> flop chain with controllable spacing.
    fn chain(spacing: f64) -> (Netlist, Technology) {
        let t = tech();
        let lib = CellLibrary::cmos28();
        let inv = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt));
        let dff = InstMaster::Cell(lib.id_of(CellKind::Dff, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("chain");
        let pin = nl.add_port("in", PortDir::Input, CD::Cpu);
        nl.port_mut(pin).pos = Point::new(0.0, 0.0);
        let a = nl.add_inst("a", inv);
        let b = nl.add_inst("b", inv);
        let f = nl.add_inst("f", dff);
        nl.inst_mut(a).pos = Point::new(spacing, 0.0);
        nl.inst_mut(b).pos = Point::new(2.0 * spacing, 0.0);
        nl.inst_mut(f).pos = Point::new(3.0 * spacing, 0.0);
        let n0 = nl.add_net("n0");
        nl.connect_driver(n0, PinRef::port(pin));
        nl.connect_sink(n0, PinRef::input(a, 0));
        let n1 = nl.add_net("n1");
        nl.connect_driver(n1, PinRef::output(a));
        nl.connect_sink(n1, PinRef::input(b, 0));
        let n2 = nl.add_net("n2");
        nl.connect_driver(n2, PinRef::output(b));
        nl.connect_sink(n2, PinRef::input(f, 0));
        (nl, t)
    }

    fn run(nl: &Netlist, t: &Technology) -> TimingReport {
        let wiring = BlockWiring::analyze(nl, t, 1.0, None).unwrap();
        let budgets = TimingBudgets::relaxed(nl, t);
        analyze(nl, t, &wiring, &budgets, &StaConfig::default()).unwrap()
    }

    #[test]
    fn short_chain_meets_timing() {
        let (nl, t) = chain(20.0);
        let rep = run(&nl, &t);
        assert!(rep.met(), "wns {}", rep.wns_ps);
        assert_eq!(rep.endpoints, 1);
        assert!(rep.max_arrival_ps > 0.0);
    }

    #[test]
    fn longer_wires_mean_later_arrivals() {
        let (nl_short, t) = chain(20.0);
        let (nl_long, _) = chain(2000.0);
        let short = run(&nl_short, &t);
        let long = run(&nl_long, &t);
        assert!(long.max_arrival_ps > short.max_arrival_ps + 100.0);
    }

    #[test]
    fn absurdly_long_wires_violate() {
        let (nl, t) = chain(12_000.0);
        let rep = run(&nl, &t);
        assert!(!rep.met());
        assert!(rep.wns_ps > 0.0);
        assert!(rep.tns_ps >= rep.wns_ps);
    }

    #[test]
    fn slack_decreases_along_the_path() {
        let (nl, t) = chain(1000.0);
        let rep = run(&nl, &t);
        // slacks of a and b are equal along a single path (same endpoint)
        let sa = rep.slack_ps[0];
        let sb = rep.slack_ps[1];
        assert!((sa - sb).abs() < 1.0, "{sa} vs {sb}");
    }

    #[test]
    fn combinational_loops_do_not_hang() {
        let t = tech();
        let lib = CellLibrary::cmos28();
        let inv = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("loop");
        let a = nl.add_inst("a", inv);
        let b = nl.add_inst("b", inv);
        let n0 = nl.add_net("n0");
        nl.connect_driver(n0, PinRef::output(a));
        nl.connect_sink(n0, PinRef::input(b, 0));
        let n1 = nl.add_net("n1");
        nl.connect_driver(n1, PinRef::output(b));
        nl.connect_sink(n1, PinRef::input(a, 0));
        let rep = run(&nl, &t);
        assert_eq!(rep.endpoints, 0);
        let _ = rep;
    }

    #[test]
    fn tsv_slows_3d_nets_more_than_f2f() {
        let (mut nl, t) = chain(500.0);
        nl.inst_mut(InstId(1)).tier = foldic_geom::Tier::Top;
        nl.inst_mut(InstId(2)).tier = foldic_geom::Tier::Top;
        let wiring = BlockWiring::analyze(&nl, &t, 1.0, None).unwrap();
        let budgets = TimingBudgets::relaxed(&nl, &t);
        let tsv = analyze(
            &nl,
            &t,
            &wiring,
            &budgets,
            &StaConfig {
                max_layer: 7,
                via_kind: Some(Via3dKind::Tsv),
            },
        )
        .unwrap();
        let f2f = analyze(
            &nl,
            &t,
            &wiring,
            &budgets,
            &StaConfig {
                max_layer: 9,
                via_kind: Some(Via3dKind::F2fVia),
            },
        )
        .unwrap();
        assert!(tsv.max_arrival_ps > f2f.max_arrival_ps);
    }
}
