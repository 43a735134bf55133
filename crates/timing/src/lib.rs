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

use foldic_fault::{FlowError, FlowStage};
use foldic_netlist::{InstMaster, Netlist, PinRef};
use foldic_route::BlockWiring;
use foldic_tech::units::RC_TO_PS;
use foldic_tech::{CellKind, Technology, Via3dKind};

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

/// Input pin capacitance of a sink pin in fF.
fn sink_cap(netlist: &Netlist, tech: &Technology, pin: PinRef) -> f64 {
    match pin {
        PinRef::InstIn(i, _) => match netlist.inst(i).master {
            InstMaster::Cell(m) => tech.cells.master(m).input_cap_ff,
            InstMaster::Macro(k) => tech.macros.get(k).pin_cap_ff,
        },
        PinRef::Port(_) => 2.0, // boundary load (next block's input)
        PinRef::InstOut(_) => 0.0,
    }
}

/// Runs STA and returns the report. `wiring` must come from the same
/// placement state (it supplies routed per-sink path lengths); pass the
/// via placement through `wiring` for folded blocks and set
/// `cfg.via_kind` so tier-crossing nets get their via RC.
///
/// # Errors
///
/// Returns a [`FlowError`] at [`FlowStage::Sta`] when delay propagation
/// produces a non-finite worst slack (broken RC inputs upstream).
pub fn analyze(
    netlist: &Netlist,
    tech: &Technology,
    wiring: &BlockWiring,
    budgets: &TimingBudgets,
    cfg: &StaConfig,
) -> Result<TimingReport, FlowError> {
    foldic_obs::trace::add_iters(netlist.num_nets() as u64);
    foldic_obs::metrics::add("sta.runs", 1);
    let n_insts = netlist.num_insts();
    let (r_um, c_um) = wire_rc(tech, cfg.max_layer);

    // ---- per-net load and edge delays --------------------------------------
    // node = instance output; edges net-driver -> each sink
    #[derive(Clone, Copy)]
    struct Edge {
        from: u32,
        to: u32,
        delay: f64,
    }
    // endpoint records: (arrival source node, delay, required, domain)
    struct Endpoint {
        from: u32,
        delay: f64,
        required: f64,
    }
    const PORT_BASE: u32 = u32::MAX / 2;

    let mut edges: Vec<Edge> = Vec::new();
    let mut endpoints: Vec<Endpoint> = Vec::new();
    let mut source_arrival: Vec<Option<f64>> = vec![None; n_insts];

    for (nid, net) in netlist.nets() {
        if net.is_clock {
            continue; // ideal clocks: skew-free
        }
        let Some(driver) = net.driver else { continue };
        let rec = wiring.net(nid);
        // total load on the driver
        let wire_cap = rec.length_um * c_um;
        let via = cfg.via_kind.filter(|_| rec.is_3d).map(|k| via_rc(tech, k));
        let pins_cap: f64 = net.sinks().map(|s| sink_cap(netlist, tech, s)).sum();
        let load = wire_cap + pins_cap + via.map(|(_, c)| c).unwrap_or(0.0);

        // driver delay and source node
        let (from, drive_delay) = match driver {
            PinRef::InstOut(i) => {
                let d = match netlist.inst(i).master {
                    InstMaster::Cell(m) => {
                        let master = tech.cells.master(m);
                        if master.kind == CellKind::Dff {
                            // clocked source: clk->q absorbs the load delay
                            source_arrival[i.index()] = Some(master.delay_ps(load));
                        }
                        master.delay_ps(load)
                    }
                    InstMaster::Macro(k) => {
                        let m = tech.macros.get(k);
                        let d = m.access_delay_ps + m.output_res_ohm * load * RC_TO_PS;
                        source_arrival[i.index()] = Some(d);
                        d
                    }
                };
                (i.0, d)
            }
            PinRef::Port(p) => {
                // input port: arrival budget + a boundary driver delay
                (PORT_BASE + p.0, 500.0 * load * RC_TO_PS)
            }
            PinRef::InstIn(..) => continue, // malformed; skip
        };

        for (k, s) in net.sinks().enumerate() {
            let path = rec.sink_paths.get(k).copied().unwrap_or(0.0);
            let scap = sink_cap(netlist, tech, s);
            // Elmore along the path: distributed wire + sink pin, plus the
            // via resistance midway for 3D nets.
            let mut wire_delay =
                (0.5 * r_um * path * (c_um * path) + r_um * path * scap) * RC_TO_PS;
            if let Some((rv, cv)) = via {
                wire_delay += rv * (scap + 0.5 * c_um * path + 0.5 * cv) * RC_TO_PS;
            }
            let delay = drive_delay + wire_delay;
            match s {
                PinRef::InstIn(i, pin) => {
                    let inst = netlist.inst(i);
                    match inst.master {
                        InstMaster::Cell(m) if tech.cells.master(m).kind == CellKind::Dff => {
                            if pin == 0 {
                                // data endpoint
                                endpoints.push(Endpoint {
                                    from,
                                    delay,
                                    required: net.domain.period_ps(tech) - SETUP_PS,
                                });
                            }
                        }
                        InstMaster::Cell(_) => {
                            edges.push(Edge {
                                from,
                                to: i.0,
                                delay,
                            });
                        }
                        InstMaster::Macro(_) => {
                            endpoints.push(Endpoint {
                                from,
                                delay,
                                required: net.domain.period_ps(tech) - SETUP_PS,
                            });
                        }
                    }
                }
                PinRef::Port(p) => {
                    endpoints.push(Endpoint {
                        from,
                        delay,
                        required: budgets.output_required_ps[p.index()],
                    });
                }
                PinRef::InstOut(_) => {}
            }
        }
    }

    // ---- forward propagation (Kahn with loop-breaking) ---------------------
    let mut arrival = vec![0.0f64; n_insts];
    for (i, a) in source_arrival.iter().enumerate() {
        if let Some(a) = a {
            arrival[i] = *a;
        }
    }
    let port_arrival = |p: u32| budgets.input_arrival_ps[(p - PORT_BASE) as usize];

    // adjacency + in-degrees over combinational inst->inst edges
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_insts];
    let mut indeg = vec![0u32; n_insts];
    for (ei, e) in edges.iter().enumerate() {
        if e.from < PORT_BASE && source_arrival[e.from as usize].is_none() {
            adj[e.from as usize].push(ei as u32);
            indeg[e.to as usize] += 1;
        } else {
            // source-driven edge: apply immediately
            let base = if e.from >= PORT_BASE {
                port_arrival(e.from)
            } else {
                arrival[e.from as usize]
            };
            let a = base + e.delay;
            if a > arrival[e.to as usize] {
                arrival[e.to as usize] = a;
            }
        }
    }
    // adj and the in-degrees cover comb-driven edges only; source-driven
    // edges were resolved above and never hold a node back.
    let mut queue: Vec<u32> = (0..n_insts as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut head = 0;
    let mut processed = vec![false; n_insts];
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        if processed[u] {
            continue;
        }
        processed[u] = true;
        for &ei in &adj[u] {
            let e = edges[ei as usize];
            let a = arrival[u] + e.delay;
            let v = e.to as usize;
            if a > arrival[v] {
                arrival[v] = a;
            }
            indeg[v] = indeg[v].saturating_sub(1);
            if indeg[v] == 0 {
                queue.push(e.to);
            }
        }
    }
    // loop remainder: process unvisited nodes once in id order
    for u in 0..n_insts {
        if !processed[u] {
            for &ei in &adj[u] {
                let e = edges[ei as usize];
                let a = arrival[u] + e.delay;
                if a > arrival[e.to as usize] {
                    arrival[e.to as usize] = a;
                }
            }
        }
    }

    // ---- backward required propagation --------------------------------------
    let mut required = vec![f64::INFINITY; n_insts];
    let mut wns: f64 = 0.0;
    let mut tns = 0.0;
    let mut violations = 0;
    let mut max_arrival: f64 = 0.0;
    for ep in &endpoints {
        let a = if ep.from >= PORT_BASE {
            port_arrival(ep.from)
        } else {
            arrival[ep.from as usize]
        } + ep.delay;
        max_arrival = max_arrival.max(a);
        let slack = ep.required - a;
        if slack < 0.0 {
            violations += 1;
            tns += -slack;
            wns = wns.max(-slack);
        }
        if ep.from < PORT_BASE {
            let r = ep.required - ep.delay;
            if r < required[ep.from as usize] {
                required[ep.from as usize] = r;
            }
        }
    }
    // propagate required backward through comb edges, in reverse topo order
    for &u in queue.iter().rev() {
        let u = u as usize;
        for &ei in &adj[u] {
            let e = edges[ei as usize];
            let r = required[e.to as usize] - e.delay;
            if r < required[u] {
                required[u] = r;
            }
        }
    }
    let slack: Vec<f64> = (0..n_insts).map(|i| required[i] - arrival[i]).collect();

    if !wns.is_finite() {
        return Err(FlowError::stage(
            FlowStage::Sta,
            "timing analysis produced a non-finite worst slack",
        ));
    }
    foldic_obs::metrics::observe("sta.wns_ps", wns);
    Ok(TimingReport {
        arrival_ps: arrival,
        slack_ps: slack,
        wns_ps: wns,
        tns_ps: tns,
        violations,
        endpoints: endpoints.len(),
        max_arrival_ps: max_arrival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_geom::Point;
    use foldic_netlist::{ClockDomain as CD, InstId, InstMaster, PortDir};
    use foldic_tech::{CellLibrary, Drive, VthClass};

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
