//! The timing graph: one block's STA topology, built once and re-timed
//! after every sizing pass.
//!
//! [`analyze`](crate::analyze) builds a graph and times it once. Opt
//! builds one per call, after buffering and its one wiring analysis, and
//! times every STA round on it: sizing only rewrites masters, so the
//! timed nets, each sink's role and the propagation order stay fixed.
//! A round recomputes the delays of the nets a resized cell drives or
//! loads, then runs the full forward and backward sweeps in the cached
//! order, with the expressions and summation order of a from-scratch
//! analysis, so every round's report is bit-identical to one.

use crate::{via_rc, wire_rc, StaConfig, TimingBudgets, TimingReport, SETUP_PS};
use foldic_fault::{FlowError, FlowStage};
use foldic_netlist::{ClockDomain, InstId, InstMaster, Net, Netlist, PinRef};
use foldic_route::BlockWiring;
use foldic_tech::units::RC_TO_PS;
use foldic_tech::{CellKind, Technology};

/// Node ids at or above this are ports (`PORT_BASE + port`); the nodes
/// below are instance outputs.
const PORT_BASE: u32 = u32::MAX / 2;
/// `sink_node` of an output pin listed as a sink: it loads nothing.
const NO_NODE: u32 = u32::MAX;
/// `src_last` of an instance that is not a timing source.
const NOT_SOURCE: u32 = u32::MAX;
/// `net_flags` bit: the net crosses tiers and carries the via RC.
const FLAG_3D: u8 = 1;
/// `net_flags` bit: the net is in the I/O clock domain.
const FLAG_IO: u8 = 1 << 1;

/// What a sink is to STA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A combinational cell input: an edge to that cell's output.
    Edge,
    /// A flop data pin, a macro input or an output port.
    Endpoint,
    /// Only a load: a flop's other pins, or an output pin.
    Load,
}

/// One block's STA graph.
///
/// A *timed net* is a non-clock net driven by an instance output or an
/// input port. Nodes are instance outputs; each sink of a timed net is a
/// combinational edge, an endpoint, or only a load.
///
/// The graph stays valid while the netlist's topology, pin positions,
/// wiring, budgets and every instance's cell kind stay as they were at
/// [`TimingGraph::build`]. Gate sizing and Vth swaps keep all of them.
/// Every array is sized exactly at build; the graph costs about 100
/// bytes per instance on the T2 blocks.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    num_insts: usize,
    num_nets: usize,
    num_endpoints: usize,
    r_um: f64,
    c_um: f64,
    /// Via `(R, C)` of the block's 3D-via kind, carried by 3D nets.
    via: Option<(f64, f64)>,
    /// Required time at a flop or macro endpoint by the net's domain,
    /// `[Cpu, Io]`: the period less [`SETUP_PS`].
    domain_required: [f64; 2],
    /// Arrival budgets at the input ports, by port.
    input_arrival: Vec<f64>,
    /// Required budgets at the output ports, by port.
    output_required: Vec<f64>,

    // Per timed net, in net order.
    /// Driving node.
    net_driver: Vec<u32>,
    /// `length_um · c`.
    net_wire_cap: Vec<f64>,
    /// `FLAG_3D` and `FLAG_IO` bits.
    net_flags: Vec<u8>,
    /// Sinks of timed net `t` are `net_sinks[t]..net_sinks[t + 1]`.
    net_sinks: Vec<u32>,
    /// Nets whose delays are stale.
    dirty: Vec<bool>,

    // Per sink of a timed net, in sink order.
    /// The instance whose input pin this is, `PORT_BASE + port`, or
    /// `NO_NODE`.
    sink_node: Vec<u32>,
    sink_role: Vec<Role>,
    /// Routed driver-to-sink path in µm.
    sink_path: Vec<f64>,
    /// Driver plus wire delay to the sink (edges and endpoints only).
    sink_delay: Vec<f64>,

    // Sources: flops and macros driving a timed net.
    /// Per instance: the last timed net it drives if it is a source, whose
    /// driver delay is its arrival; `NOT_SOURCE` otherwise.
    src_last: Vec<u32>,
    /// Source instances in id order.
    sources: Vec<u32>,
    /// Per instance: the source arrival (read for sources only).
    src_arrival: Vec<f64>,

    // Propagation order. Edge order is net order, then sink order.
    /// Timed nets driven by a source or a port, in net order: their edges
    /// are relaxed first.
    launch_nets: Vec<u32>,
    /// Timed nets each other instance drives (CSR, net order), so a
    /// node's edges come out in edge order.
    out_off: Vec<u32>,
    out_nets: Vec<u32>,
    /// Kahn order over the edges of non-source instances.
    queue: Vec<u32>,
    /// Nodes Kahn never reaches (loops and their fan-out) that drive a
    /// timed net, in id order.
    remainder: Vec<u32>,

    /// Every instance's master at the last [`TimingGraph::time`]; empty
    /// before the first.
    masters: Vec<InstMaster>,
}

/// Input pin capacitance of an instance in fF.
fn input_cap(master: InstMaster, tech: &Technology) -> f64 {
    match master {
        InstMaster::Cell(m) => tech.cells.master(m).input_cap_ff,
        InstMaster::Macro(k) => tech.macros.get(k).pin_cap_ff,
    }
}

/// The cell kind STA classifies an instance by (`None` for macros).
fn cell_kind(master: InstMaster, tech: &Technology) -> Option<CellKind> {
    match master {
        InstMaster::Cell(m) => Some(tech.cells.master(m).kind),
        InstMaster::Macro(_) => None,
    }
}

/// The node driving `net` if STA times it.
fn timed_driver(net: &Net<'_>) -> Option<u32> {
    match net.driver {
        _ if net.is_clock => None, // ideal clocks: skew-free
        Some(PinRef::InstOut(i)) => Some(i.0),
        Some(PinRef::Port(p)) => Some(PORT_BASE + p.0),
        // undriven, or driven by an input pin (malformed)
        Some(PinRef::InstIn(..)) | None => None,
    }
}

impl TimingGraph {
    /// Builds the graph of `netlist` under `wiring` (which supplies the
    /// routed per-sink paths), `budgets` and `cfg`. See
    /// [`analyze`](crate::analyze) for what each input means.
    pub fn build(
        netlist: &Netlist,
        tech: &Technology,
        wiring: &BlockWiring,
        budgets: &TimingBudgets,
        cfg: &StaConfig,
    ) -> Self {
        let n = netlist.num_insts();
        let (mut nets, mut sinks) = (0, 0);
        for (_, net) in netlist.nets() {
            if timed_driver(&net).is_some() {
                nets += 1;
                sinks += net.fanout();
            }
        }
        let (r_um, c_um) = wire_rc(tech, cfg.max_layer);
        let required = |d: ClockDomain| d.period_ps(tech) - SETUP_PS;
        let mut g = Self {
            num_insts: n,
            num_nets: netlist.num_nets(),
            num_endpoints: 0,
            r_um,
            c_um,
            via: cfg.via_kind.map(|k| via_rc(tech, k)),
            domain_required: [required(ClockDomain::Cpu), required(ClockDomain::Io)],
            input_arrival: budgets.input_arrival_ps.clone(),
            output_required: budgets.output_required_ps.clone(),
            net_driver: Vec::with_capacity(nets),
            net_wire_cap: Vec::with_capacity(nets),
            net_flags: Vec::with_capacity(nets),
            net_sinks: Vec::with_capacity(nets + 1),
            dirty: vec![true; nets],
            sink_node: Vec::with_capacity(sinks),
            sink_role: Vec::with_capacity(sinks),
            sink_path: Vec::with_capacity(sinks),
            sink_delay: vec![0.0; sinks],
            src_last: vec![NOT_SOURCE; n],
            sources: Vec::new(),
            src_arrival: vec![0.0; n],
            launch_nets: Vec::new(),
            out_off: Vec::new(),
            out_nets: Vec::new(),
            queue: Vec::new(),
            remainder: Vec::new(),
            masters: Vec::new(),
        };
        g.net_sinks.push(0);
        for (nid, net) in netlist.nets() {
            let Some(from) = timed_driver(&net) else {
                continue;
            };
            if from < PORT_BASE {
                let master = netlist.inst(InstId(from)).master;
                if master.is_macro() || cell_kind(master, tech) == Some(CellKind::Dff) {
                    g.src_last[from as usize] = g.net_driver.len() as u32;
                }
            }
            let rec = wiring.net(nid);
            g.net_driver.push(from);
            g.net_wire_cap.push(rec.length_um * c_um);
            let mut flags = 0;
            if rec.is_3d {
                flags |= FLAG_3D;
            }
            if net.domain == ClockDomain::Io {
                flags |= FLAG_IO;
            }
            g.net_flags.push(flags);
            for (k, s) in net.sinks().enumerate() {
                let (node, role) = match s {
                    PinRef::InstIn(i, pin) => {
                        let role = match cell_kind(netlist.inst(i).master, tech) {
                            Some(CellKind::Dff) if pin == 0 => Role::Endpoint, // data pin
                            Some(CellKind::Dff) => Role::Load,
                            Some(_) => Role::Edge,
                            None => Role::Endpoint, // macro input
                        };
                        (i.0, role)
                    }
                    PinRef::Port(p) => (PORT_BASE + p.0, Role::Endpoint),
                    PinRef::InstOut(_) => (NO_NODE, Role::Load),
                };
                g.num_endpoints += usize::from(role == Role::Endpoint);
                g.sink_node.push(node);
                g.sink_role.push(role);
                g.sink_path
                    .push(rec.sink_paths.get(k).copied().unwrap_or(0.0));
            }
            g.net_sinks.push(g.sink_node.len() as u32);
        }
        g.sources = (0..n as u32)
            .filter(|&i| g.src_last[i as usize] != NOT_SOURCE)
            .collect();
        g.order();
        g
    }

    /// Sinks of timed net `t`.
    fn sinks(&self, t: usize) -> std::ops::Range<usize> {
        self.net_sinks[t] as usize..self.net_sinks[t + 1] as usize
    }

    /// Edge sinks of timed net `t`, in sink order.
    fn edges(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.sinks(t).filter(|&k| self.sink_role[k] == Role::Edge)
    }

    /// Timed nets instance `u` drives if it is not a source.
    fn out_nets(&self, u: usize) -> &[u32] {
        &self.out_nets[self.out_off[u] as usize..self.out_off[u + 1] as usize]
    }

    /// Splits the timed nets into launch nets and the out-nets of other
    /// instances, and fixes the Kahn order over the latter's edges with
    /// the id-order remainder.
    fn order(&mut self) {
        let n = self.num_insts;
        let comb = |from: u32| from < PORT_BASE && self.src_last[from as usize] == NOT_SOURCE;
        let mut out_off = vec![0u32; n + 1];
        for &from in self.net_driver.iter().filter(|&&from| comb(from)) {
            out_off[from as usize + 1] += 1;
        }
        for i in 0..n {
            out_off[i + 1] += out_off[i];
        }
        let mut cursor = out_off[..n].to_vec();
        let mut out_nets = vec![0u32; out_off[n] as usize];
        let mut launch_nets = Vec::with_capacity(self.net_driver.len() - out_nets.len());
        let mut indeg = vec![0u32; n];
        for (t, &from) in self.net_driver.iter().enumerate() {
            if comb(from) {
                out_nets[cursor[from as usize] as usize] = t as u32;
                cursor[from as usize] += 1;
                for k in self.edges(t) {
                    indeg[self.sink_node[k] as usize] += 1;
                }
            } else {
                launch_nets.push(t as u32);
            }
        }
        self.out_off = out_off;
        self.out_nets = out_nets;
        self.launch_nets = launch_nets;

        // A node enters the queue once: at the start if no edge of a
        // non-source reaches it, else when the last one is relaxed.
        let mut queue = Vec::with_capacity(n);
        queue.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut processed = vec![false; n];
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            debug_assert!(!processed[u], "node {u} queued twice");
            processed[u] = true;
            for &t in self.out_nets(u) {
                for k in self.edges(t as usize) {
                    let v = self.sink_node[k] as usize;
                    indeg[v] = indeg[v].saturating_sub(1);
                    if indeg[v] == 0 {
                        queue.push(v as u32);
                    }
                }
            }
        }
        self.remainder = (0..n)
            .filter(|&u| !processed[u] && !self.out_nets(u).is_empty())
            .map(|u| u as u32)
            .collect();
        self.queue = queue;
    }

    /// Times the netlist in its current sizing and returns the report,
    /// bit-identical to a from-scratch [`analyze`](crate::analyze) of it.
    ///
    /// Every call counts as one STA run (`sta.runs`, the span's
    /// iterations, the `sta.wns_ps` sample), as `analyze` does.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] at [`FlowStage::Sta`] when delay
    /// propagation produces a non-finite worst slack.
    pub fn time(
        &mut self,
        netlist: &Netlist,
        tech: &Technology,
    ) -> Result<TimingReport, FlowError> {
        foldic_obs::trace::add_iters(netlist.num_nets() as u64);
        foldic_obs::metrics::add("sta.runs", 1);
        debug_assert!(
            netlist.num_insts() == self.num_insts && netlist.num_nets() == self.num_nets,
            "the netlist's topology changed since the timing graph was built"
        );
        if self.masters.len() == self.num_insts {
            self.mark_resized(netlist, tech);
        } else {
            self.masters = netlist.insts().map(|(_, inst)| inst.master).collect();
        }
        for t in 0..self.dirty.len() {
            if self.dirty[t] {
                self.dirty[t] = false;
                self.refresh(t, tech);
            }
        }
        self.propagate()
    }

    /// Marks dirty every timed net that an instance whose master changed
    /// since the last round drives or loads. A scan of the sink nodes:
    /// an instance-to-net incidence would cost the graph a sixth more
    /// memory to save it.
    fn mark_resized(&mut self, netlist: &Netlist, tech: &Technology) {
        let mut resized = vec![false; self.num_insts];
        let mut any = false;
        for (i, old) in self.masters.iter_mut().enumerate() {
            let master = netlist.inst(InstId::from(i)).master;
            if master != *old {
                debug_assert_eq!(
                    cell_kind(*old, tech),
                    cell_kind(master, tech),
                    "instance {i} changed kind since the timing graph was built"
                );
                *old = master;
                resized[i] = true;
                any = true;
            }
        }
        if !any {
            return;
        }
        // ports and output-pin sinks carry no instance load
        let touched = |node: u32| node < PORT_BASE && resized[node as usize];
        for t in 0..self.net_driver.len() {
            if touched(self.net_driver[t])
                || self.sink_node[self.sinks(t)].iter().any(|&s| touched(s))
            {
                self.dirty[t] = true;
            }
        }
    }

    /// Recomputes timed net `t`'s load, driver delay and sink delays, and
    /// its driver's source arrival if `t` is the last net it drives.
    fn refresh(&mut self, t: usize, tech: &Technology) {
        let sinks = self.sinks(t);
        let masters = &self.masters;
        let cap = |node: u32| match node {
            NO_NODE => 0.0,
            PORT_BASE.. => 2.0, // boundary load (next block's input)
            i => input_cap(masters[i as usize], tech),
        };
        let via = self.via.filter(|_| self.net_flags[t] & FLAG_3D != 0);
        let pins_cap: f64 = self.sink_node[sinks.clone()].iter().map(|&s| cap(s)).sum();
        let load = self.net_wire_cap[t] + pins_cap + via.map(|(_, c)| c).unwrap_or(0.0);

        let from = self.net_driver[t];
        let drive_delay = if from >= PORT_BASE {
            // input port: a boundary driver
            500.0 * load * RC_TO_PS
        } else {
            let d = match masters[from as usize] {
                InstMaster::Cell(m) => tech.cells.master(m).delay_ps(load),
                InstMaster::Macro(k) => {
                    let m = tech.macros.get(k);
                    m.access_delay_ps + m.output_res_ohm * load * RC_TO_PS
                }
            };
            // a source driving several nets launches from the last one
            if self.src_last[from as usize] == t as u32 {
                self.src_arrival[from as usize] = d;
            }
            d
        };

        let (r_um, c_um) = (self.r_um, self.c_um);
        for k in sinks {
            if self.sink_role[k] == Role::Load {
                continue;
            }
            let path = self.sink_path[k];
            let scap = cap(self.sink_node[k]);
            // Elmore along the path: distributed wire + sink pin, plus the
            // via resistance midway for 3D nets.
            let mut wire_delay =
                (0.5 * r_um * path * (c_um * path) + r_um * path * scap) * RC_TO_PS;
            if let Some((rv, cv)) = via {
                wire_delay += rv * (scap + 0.5 * c_um * path + 0.5 * cv) * RC_TO_PS;
            }
            self.sink_delay[k] = drive_delay + wire_delay;
        }
    }

    /// Forward arrivals and backward required times over the cached order.
    fn propagate(&self) -> Result<TimingReport, FlowError> {
        let n = self.num_insts;
        let node_arrival = |arrival: &[f64], from: u32| {
            if from >= PORT_BASE {
                self.input_arrival[(from - PORT_BASE) as usize]
            } else {
                arrival[from as usize]
            }
        };
        let mut arrival = vec![0.0f64; n];
        for &i in &self.sources {
            arrival[i as usize] = self.src_arrival[i as usize];
        }
        let relax = |arrival: &mut [f64], base: f64, k: usize| {
            let a = base + self.sink_delay[k];
            let v = self.sink_node[k] as usize;
            if a > arrival[v] {
                arrival[v] = a;
            }
        };
        for &t in &self.launch_nets {
            let from = self.net_driver[t as usize];
            for k in self.edges(t as usize) {
                let base = node_arrival(&arrival, from);
                relax(&mut arrival, base, k);
            }
        }
        for &u in self.queue.iter().chain(&self.remainder) {
            let u = u as usize;
            for &t in self.out_nets(u) {
                for k in self.edges(t as usize) {
                    // read per edge: a self-loop in the remainder raises it
                    let base = arrival[u];
                    relax(&mut arrival, base, k);
                }
            }
        }

        let mut required = vec![f64::INFINITY; n];
        let mut wns: f64 = 0.0;
        let mut tns = 0.0;
        let mut violations = 0;
        let mut max_arrival: f64 = 0.0;
        for (t, &from) in self.net_driver.iter().enumerate() {
            let domain_required =
                self.domain_required[usize::from(self.net_flags[t] & FLAG_IO != 0)];
            for k in self.sinks(t) {
                if self.sink_role[k] != Role::Endpoint {
                    continue;
                }
                let (node, delay) = (self.sink_node[k], self.sink_delay[k]);
                let req = if node >= PORT_BASE {
                    self.output_required[(node - PORT_BASE) as usize]
                } else {
                    domain_required
                };
                let a = node_arrival(&arrival, from) + delay;
                max_arrival = max_arrival.max(a);
                let slack = req - a;
                if slack < 0.0 {
                    violations += 1;
                    tns += -slack;
                    wns = wns.max(-slack);
                }
                if from < PORT_BASE {
                    let r = req - delay;
                    if r < required[from as usize] {
                        required[from as usize] = r;
                    }
                }
            }
        }
        // required times flow back through the edges in reverse Kahn order
        for &u in self.queue.iter().rev() {
            let u = u as usize;
            for &t in self.out_nets(u) {
                for k in self.edges(t as usize) {
                    let r = required[self.sink_node[k] as usize] - self.sink_delay[k];
                    if r < required[u] {
                        required[u] = r;
                    }
                }
            }
        }
        let slack: Vec<f64> = (0..n).map(|i| required[i] - arrival[i]).collect();

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
            endpoints: self.num_endpoints,
            max_arrival_ps: max_arrival,
        })
    }
}
