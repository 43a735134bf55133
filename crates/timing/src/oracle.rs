//! Test oracles for STA.
//!
//! * [`analyze_monolithic`] is the analysis `analyze` ran before the
//!   [`TimingGraph`](crate::TimingGraph): one pass that rebuilds the edge
//!   list, the adjacency and the Kahn order from the netlist on every
//!   call. Every graph round must equal it bit for bit.
//! * A brute-force reference enumerates every source-to-node and
//!   node-to-endpoint path of small acyclic random netlists.

use crate::{via_rc, wire_rc, StaConfig, TimingBudgets, TimingReport, SETUP_PS};
use foldic_fault::{FlowError, FlowStage};
use foldic_netlist::{InstMaster, Netlist, PinRef};
use foldic_route::BlockWiring;
use foldic_tech::units::RC_TO_PS;
use foldic_tech::{CellKind, Technology};

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

/// The retired single-pass analysis, kept verbatim as the reference the
/// timing graph is checked against.
pub(crate) fn analyze_monolithic(
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

// ---- random netlists ------------------------------------------------------

use crate::{analyze, TimingGraph};
use foldic_geom::{Point, Tier};
use foldic_netlist::{ClockDomain, InstId, NetId, PortDir};
use foldic_route::ViaPlacement;
use foldic_tech::{Drive, MacroKind, Via3dKind, VthClass};

fn fuzz_seed() -> u64 {
    std::env::var("FOLDIC_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDAC1_4571)
}

/// SplitMix64: the timing crate has no RNG dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One small block with everything STA reads.
struct Case {
    nl: Netlist,
    wiring: BlockWiring,
    budgets: TimingBudgets,
    cfg: StaConfig,
}

#[derive(Clone, Copy)]
enum Role {
    Flop,
    Macro,
    Comb(CellKind),
}

/// A random block of at most 12 cells: one to three flops (the first
/// drives two nets), at most one macro (driving one or two nets), the
/// rest combinational, with input and output ports, a clock net on most
/// cases, mixed clock domains, and random tiers on half the cases so 3D
/// nets carry via RC (through placed vias on some). Instance and net ids
/// are shuffled against the logic order. A combinational input reads
/// only nets of lower-ranked cells, so the logic is acyclic, unless
/// `cyclic`, which closes a loop through one or two cells.
fn random_case(rng: &mut SplitMix, tech: &Technology, cyclic: bool) -> Case {
    let flops = 1 + rng.below(3);
    let macros = rng.below(2);
    let combs = 1 + rng.below(12 - flops - macros);
    let mut roles: Vec<Role> = std::iter::repeat_n(Role::Flop, flops)
        .chain(std::iter::repeat_n(Role::Macro, macros))
        .chain((0..combs).map(|_| {
            Role::Comb(rng.pick(&[
                CellKind::Inv,
                CellKind::Buf,
                CellKind::Nand2,
                CellKind::Nor2,
                CellKind::Aoi21,
                CellKind::Xor2,
                CellKind::Mux2,
            ]))
        }))
        .collect();
    rng.shuffle(&mut roles);

    let span = rng.pick(&[150.0, 1200.0, 5000.0]);
    let folded = rng.chance(0.5);
    let place = |rng: &mut SplitMix| {
        let tier = if folded && rng.chance(0.5) {
            Tier::Top
        } else {
            Tier::Bottom
        };
        (Point::new(rng.unit() * span, rng.unit() * span), tier)
    };
    let mut nl = Netlist::new("rand");
    let vth = |rng: &mut SplitMix| rng.pick(&[VthClass::Rvt, VthClass::Hvt]);
    let mut insts = Vec::new();
    for (k, &role) in roles.iter().enumerate() {
        let master = match role {
            Role::Flop => {
                let v = vth(rng);
                InstMaster::Cell(tech.cells.id_of(
                    CellKind::Dff,
                    rng.pick(&[Drive::X1, Drive::X2]),
                    v,
                ))
            }
            Role::Macro => InstMaster::Macro(rng.pick(&MacroKind::ALL)),
            Role::Comb(kind) => {
                let (d, v) = (rng.pick(&[Drive::X1, Drive::X2, Drive::X4]), vth(rng));
                InstMaster::Cell(tech.cells.id_of(kind, d, v))
            }
        };
        let id = nl.add_inst(format!("u{k}"), master);
        let (pos, tier) = place(rng);
        let mut inst = nl.inst_mut(id);
        inst.pos = pos;
        inst.tier = tier;
        insts.push((id, role));
    }
    let domain = |rng: &mut SplitMix| {
        if rng.chance(0.3) {
            ClockDomain::Io
        } else {
            ClockDomain::Cpu
        }
    };
    let port = |nl: &mut Netlist, rng: &mut SplitMix, name: String, dir| {
        let d = domain(rng);
        let p = nl.add_port(name, dir, d);
        let (pos, tier) = place(rng);
        let port = nl.port_mut(p);
        port.pos = pos;
        port.tier = tier;
        p
    };
    let inputs: Vec<_> = (0..1 + rng.below(3))
        .map(|k| port(&mut nl, rng, format!("in{k}"), PortDir::Input))
        .collect();
    let outputs: Vec<_> = (0..1 + rng.below(2))
        .map(|k| port(&mut nl, rng, format!("out{k}"), PortDir::Output))
        .collect();

    // Drivers, in shuffled net order: the ports, every flop (the first
    // twice), the macro (once or twice) and every comb cell.
    let mut drivers: Vec<PinRef> = inputs.iter().map(|&p| PinRef::port(p)).collect();
    let mut first_flop = true;
    for &(id, role) in &insts {
        let nets = match role {
            Role::Flop if first_flop => {
                first_flop = false;
                2
            }
            Role::Macro => 1 + rng.below(2),
            _ => 1,
        };
        drivers.extend(std::iter::repeat_n(PinRef::output(id), nets));
    }
    rng.shuffle(&mut drivers);
    let mut net_of: Vec<Option<NetId>> = vec![None; nl.num_insts()];
    let mut launch: Vec<NetId> = Vec::new(); // nets of ports, flops and macros
    let mut all: Vec<NetId> = Vec::new();
    for (k, &driver) in drivers.iter().enumerate() {
        let net = nl.add_net(format!("n{k}"));
        nl.connect_driver(net, driver);
        nl.net_mut(net).domain = domain(rng);
        all.push(net);
        match driver.inst().map(|i| (i, insts[i.index()].1)) {
            Some((i, Role::Comb(_))) => net_of[i.index()] = Some(net),
            _ => launch.push(net),
        }
    }

    // Sinks, connected in shuffled order.
    let mut sinks: Vec<(NetId, PinRef)> = Vec::new();
    let mut ranked: Vec<InstId> = insts
        .iter()
        .filter(|(_, r)| matches!(r, Role::Comb(_)))
        .map(|&(id, _)| id)
        .collect();
    rng.shuffle(&mut ranked);
    for (rank, &id) in ranked.iter().enumerate() {
        let Role::Comb(kind) = insts[id.index()].1 else {
            unreachable!()
        };
        for pin in 0..kind.input_count() {
            let earlier = ranked[..rank].iter().filter_map(|&c| net_of[c.index()]);
            let eligible: Vec<NetId> = launch.iter().copied().chain(earlier).collect();
            sinks.push((rng.pick(&eligible), PinRef::input(id, pin as u16)));
        }
    }
    if cyclic {
        // rank a reads rank b ≥ a (itself: a self-loop); b reads a
        let a = rng.below(ranked.len());
        let b = a + rng.below(ranked.len() - a);
        let (ca, cb) = (ranked[a], ranked[b]);
        for (reader, source) in [(ca, cb), (cb, ca)] {
            let pin0 = sinks
                .iter_mut()
                .find(|(_, p)| *p == PinRef::input(reader, 0))
                .expect("every comb cell has a pin 0");
            pin0.0 = net_of[source.index()].expect("every comb cell drives a net");
        }
    }
    let clock = (rng.chance(0.7)).then(|| {
        let clk = port(&mut nl, rng, "clk".to_owned(), PortDir::Input);
        let net = nl.add_net("clk");
        nl.connect_driver(net, PinRef::port(clk));
        nl.net_mut(net).is_clock = true;
        net
    });
    for &(id, role) in &insts {
        match role {
            Role::Flop => {
                sinks.push((rng.pick(&all), PinRef::input(id, 0)));
                // the clock pin: the clock net, or a data net it only loads
                match clock {
                    Some(clk) => sinks.push((clk, PinRef::input(id, 1))),
                    None if rng.chance(0.4) => sinks.push((rng.pick(&all), PinRef::input(id, 1))),
                    None => {}
                }
            }
            Role::Macro => {
                for pin in 0..1 + rng.below(3) {
                    sinks.push((rng.pick(&all), PinRef::input(id, pin as u16)));
                }
            }
            Role::Comb(_) => {}
        }
    }
    for &p in &outputs {
        sinks.push((rng.pick(&all), PinRef::port(p)));
    }
    if rng.chance(0.2) {
        // an output pin listed as a sink: no load, no timing
        let (id, _) = insts[rng.below(insts.len())];
        sinks.push((rng.pick(&all), PinRef::output(id)));
    }
    rng.shuffle(&mut sinks);
    for (net, pin) in sinks {
        nl.connect_sink(net, pin);
    }

    let via_kind = rng.pick(&[None, Some(Via3dKind::Tsv), Some(Via3dKind::F2fVia)]);
    let vias = (folded && rng.chance(0.5)).then(|| {
        let pairs = nl
            .net_ids()
            .filter(|&n| nl.net_is_3d(n))
            .map(|n| (n, Point::new(rng.unit() * span, rng.unit() * span)))
            .collect();
        ViaPlacement::from_pairs(&nl, pairs, via_kind.unwrap_or(Via3dKind::Tsv))
    });
    let detour = 1.0 + 0.2 * rng.unit();
    let wiring = BlockWiring::analyze(&nl, tech, detour, vias.as_ref()).expect("finite wiring");
    let budgets = if rng.chance(0.3) {
        TimingBudgets::relaxed(&nl, tech)
    } else {
        TimingBudgets {
            input_arrival_ps: (0..nl.num_ports()).map(|_| 300.0 * rng.unit()).collect(),
            output_required_ps: (0..nl.num_ports())
                .map(|_| 50.0 + 600.0 * rng.unit())
                .collect(),
        }
    };
    let cfg = StaConfig {
        max_layer: rng.pick(&[5, 7, 9]),
        via_kind,
    };
    Case {
        nl,
        wiring,
        budgets,
        cfg,
    }
}

/// Resizes each cell with probability `share`: one drive up or down, to
/// HVT or back to RVT. Returns how many masters changed.
fn resize(nl: &mut Netlist, tech: &Technology, rng: &mut SplitMix, share: f64) -> usize {
    let mut moved = 0;
    for id in nl.inst_ids().collect::<Vec<_>>() {
        if !rng.chance(share) {
            continue;
        }
        let InstMaster::Cell(m) = nl.inst(id).master else {
            continue;
        };
        let next = match rng.below(4) {
            0 => tech.cells.upsize(m),
            1 => tech.cells.downsize(m),
            2 => Some(tech.cells.with_vth(m, VthClass::Hvt)),
            _ => Some(tech.cells.with_vth(m, VthClass::Rvt)),
        };
        if let Some(next) = next.filter(|&n| n != m) {
            nl.inst_mut(id).master = InstMaster::Cell(next);
            moved += 1;
        }
    }
    moved
}

// ---- brute-force path enumeration -----------------------------------------

/// Where a path starts or an endpoint is fed from.
#[derive(Clone, Copy, PartialEq)]
enum Node {
    Inst(usize),
    Port(usize),
}

/// Per-sink delays of every timed net, derived directly from the delay
/// model: what the enumeration walks.
#[derive(Default)]
struct Delays {
    /// A flop's or macro's launch time: its driver delay on the last
    /// timed net it drives.
    launch: Vec<Option<f64>>,
    /// Combinational edges `(from, to, delay)`.
    edges: Vec<(Node, usize, f64)>,
    /// Endpoints `(from, delay, required)`, in net then sink order.
    endpoints: Vec<(Node, f64, f64)>,
}

fn delays(case: &Case, tech: &Technology) -> Delays {
    let Case {
        nl,
        wiring,
        budgets,
        cfg,
    } = case;
    let (r, c) = wire_rc(tech, cfg.max_layer);
    let mut out = Delays {
        launch: vec![None; nl.num_insts()],
        ..Delays::default()
    };
    for (nid, net) in nl.nets() {
        let (Some(driver), false) = (net.driver, net.is_clock) else {
            continue;
        };
        let rec = wiring.net(nid);
        let via = cfg.via_kind.filter(|_| rec.is_3d).map(|k| via_rc(tech, k));
        let load = rec.length_um * c
            + net.sinks().map(|s| sink_cap(nl, tech, s)).sum::<f64>()
            + via.map_or(0.0, |(_, cv)| cv);
        let (from, drive) = match driver {
            PinRef::InstOut(i) => {
                let d = match nl.inst(i).master {
                    InstMaster::Cell(m) => tech.cells.master(m).delay_ps(load),
                    InstMaster::Macro(k) => {
                        let m = tech.macros.get(k);
                        m.access_delay_ps + m.output_res_ohm * load * RC_TO_PS
                    }
                };
                if matches!(cell_kind(nl, tech, i.index()), None | Some(CellKind::Dff)) {
                    out.launch[i.index()] = Some(d);
                }
                (Node::Inst(i.index()), d)
            }
            PinRef::Port(p) => (Node::Port(p.index()), 500.0 * load * RC_TO_PS),
            PinRef::InstIn(..) => continue,
        };
        for (k, s) in net.sinks().enumerate() {
            let (path, cap) = (rec.sink_paths[k], sink_cap(nl, tech, s));
            let mut wire = (0.5 * r * path * (c * path) + r * path * cap) * RC_TO_PS;
            if let Some((rv, cv)) = via {
                wire += rv * (cap + 0.5 * c * path + 0.5 * cv) * RC_TO_PS;
            }
            let delay = drive + wire;
            let period = net.domain.period_ps(tech) - SETUP_PS;
            match s {
                PinRef::InstIn(i, pin) => match cell_kind(nl, tech, i.index()) {
                    Some(CellKind::Dff) if pin != 0 => {}
                    Some(CellKind::Dff) | None => out.endpoints.push((from, delay, period)),
                    Some(_) => out.edges.push((from, i.index(), delay)),
                },
                PinRef::Port(p) => {
                    out.endpoints
                        .push((from, delay, budgets.output_required_ps[p.index()]))
                }
                PinRef::InstOut(_) => {}
            }
        }
    }
    out
}

fn cell_kind(nl: &Netlist, tech: &Technology, i: usize) -> Option<CellKind> {
    match nl.inst(foldic_netlist::InstId::from(i)).master {
        InstMaster::Cell(m) => Some(tech.cells.master(m).kind),
        InstMaster::Macro(_) => None,
    }
}

/// Walks every path leaving `node` that started at `a`, raising each
/// instance's best arrival (sums run left to right along the path).
fn walk_arrivals(d: &Delays, node: Node, a: f64, best: &mut [f64]) {
    for &(from, to, delay) in &d.edges {
        if from == node {
            let a = a + delay;
            if a > best[to] {
                best[to] = a;
            }
            walk_arrivals(d, Node::Inst(to), a, best);
        }
    }
}

/// The least required time over every path from instance `u` to an
/// endpoint, subtracting the path's delays from the endpoint back. With
/// `through_logic` false only endpoints `u` drives directly count.
fn walk_required(d: &Delays, u: usize, path: &mut Vec<f64>, through_logic: bool) -> f64 {
    let mut best = f64::INFINITY;
    for &(from, delay, required) in &d.endpoints {
        if from == Node::Inst(u) {
            let r = path.iter().rev().fold(required - delay, |r, &x| r - x);
            best = best.min(r);
        }
    }
    if through_logic {
        for &(from, to, delay) in &d.edges {
            if from == Node::Inst(u) {
                path.push(delay);
                best = best.min(walk_required(d, to, path, true));
                path.pop();
            }
        }
    }
    best
}

fn close(a: f64, b: f64, scale: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(scale).max(1.0)
}

/// STA against brute force on small random netlists. On acyclic ones,
/// every arrival is the largest source-to-node path sum (a flop or
/// macro launching at its drive delay, a port at its budget, any other
/// cell at 0); every required time (`slack + arrival`) is the least
/// endpoint-to-node difference; and WNS, TNS, the violation count and
/// the critical path follow from the enumerated endpoint arrivals. On
/// cyclic ones STA must simply return.
#[test]
fn sta_matches_brute_force_path_enumeration() {
    const CASES: usize = 400;
    let tech = Technology::cmos28();
    let mut rng = SplitMix(fuzz_seed());
    let (mut violated, mut logic_required) = (0, 0);
    for case_no in 0..CASES {
        let cyclic = case_no % 5 == 4;
        let case = random_case(&mut rng, &tech, cyclic);
        let report = analyze(&case.nl, &tech, &case.wiring, &case.budgets, &case.cfg);
        if cyclic {
            continue; // loop-breaking is an approximation: returning is enough
        }
        let report = report.expect("finite inputs time");
        let d = delays(&case, &tech);
        let n = case.nl.num_insts();

        let mut arrival = vec![0.0f64; n];
        for (i, launch) in d.launch.iter().enumerate() {
            if let Some(a) = *launch {
                arrival[i] = a;
            }
        }
        let starts = (0..case.nl.num_ports())
            .map(|p| (Node::Port(p), case.budgets.input_arrival_ps[p]))
            .chain((0..n).map(|i| (Node::Inst(i), arrival[i])))
            .collect::<Vec<_>>();
        for (node, a) in starts {
            walk_arrivals(&d, node, a, &mut arrival);
        }
        for (i, &a) in arrival.iter().enumerate() {
            let got = report.arrival_ps[i];
            assert!(
                close(got, a, 0.0),
                "case {case_no}: arrival of {i}: {got} vs {a}"
            );
            // A flop's or macro's own slack counts only the endpoints it
            // drives directly: the backward pass walks comb-driven edges
            // only, so paths through its fan-out logic do not reach it.
            let through_logic = d.launch[i].is_none();
            let want = walk_required(&d, i, &mut Vec::new(), through_logic);
            let got = report.slack_ps[i] + report.arrival_ps[i];
            assert!(
                close(got, want, a),
                "case {case_no}: required of {i}: {got} vs {want}"
            );
            if through_logic && want.is_finite() && d.edges.iter().any(|e| e.0 == Node::Inst(i)) {
                logic_required += 1;
            }
        }

        let (mut wns, mut tns, mut violations, mut max_arrival) = (0.0f64, 0.0, 0, 0.0f64);
        for &(from, delay, required) in &d.endpoints {
            let a = match from {
                Node::Port(p) => case.budgets.input_arrival_ps[p],
                Node::Inst(i) => arrival[i],
            } + delay;
            max_arrival = max_arrival.max(a);
            let slack = required - a;
            if slack < 0.0 {
                violations += 1;
                tns += -slack;
                wns = wns.max(-slack);
            }
        }
        assert_eq!(report.endpoints, d.endpoints.len(), "case {case_no}");
        assert_eq!(report.violations, violations, "case {case_no}");
        assert!(close(report.wns_ps, wns, 0.0), "case {case_no}: wns");
        assert!(close(report.tns_ps, tns, 0.0), "case {case_no}: tns");
        assert!(
            close(report.max_arrival_ps, max_arrival, 0.0),
            "case {case_no}"
        );
        violated += usize::from(violations > 0);
    }
    assert!(
        violated > CASES / 10,
        "only {violated} cases violate timing"
    );
    assert!(
        logic_required > CASES / 4,
        "only {logic_required} required times cross logic"
    );
}

// ---- the timing graph against the monolithic analysis ----------------------

/// Times `nl` on `graph` and with the monolithic analysis, requiring the
/// two results to print identically (every bit of every report field).
fn assert_same(graph: &mut TimingGraph, case: &Case, tech: &Technology, what: &str) {
    let Case {
        nl,
        wiring,
        budgets,
        cfg,
    } = case;
    let got = format!("{:?}", graph.time(nl, tech));
    let want = format!("{:?}", analyze_monolithic(nl, tech, wiring, budgets, cfg));
    assert!(
        got == want,
        "{what}: re-timed graph\n{got}\nvs monolithic\n{want}"
    );
}

/// Random resize sequences on random netlists (a flop driving two nets,
/// macros, loops, ports, 3D nets with via RC): after every step the
/// re-timed graph equals a from-scratch monolithic analysis bit for bit.
#[test]
fn retimed_graph_matches_monolithic_analyze_on_random_netlists() {
    const CASES: usize = 300;
    const STEPS: usize = 8;
    let tech = Technology::cmos28();
    let mut rng = SplitMix(fuzz_seed() ^ 0x6EA9);
    let mut moved = 0;
    for case_no in 0..CASES {
        let mut case = random_case(&mut rng, &tech, case_no % 4 == 3);
        let mut graph = TimingGraph::build(&case.nl, &tech, &case.wiring, &case.budgets, &case.cfg);
        for step in 0..STEPS {
            if step > 0 {
                let share = rng.pick(&[0.1, 0.3, 0.7]);
                moved += resize(&mut case.nl, &tech, &mut rng, share);
            }
            assert_same(
                &mut graph,
                &case,
                &tech,
                &format!("case {case_no} step {step}"),
            );
        }
    }
    assert!(moved > CASES * STEPS, "only {moved} resizes");
}

/// The same on every block of the tiny T2 at the generator's placement.
#[test]
fn retimed_graph_matches_monolithic_analyze_on_tiny_t2_blocks() {
    const STEPS: usize = 5;
    let (design, tech) = foldic_t2::T2Config::tiny().generate();
    let mut rng = SplitMix(fuzz_seed() ^ 0x72B1);
    for (_, block) in design.blocks() {
        let nl = block.netlist.clone();
        let wiring = BlockWiring::analyze(&nl, &tech, 1.1, None).expect("finite wiring");
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let cfg = StaConfig {
            max_layer: rng.pick(&[7, 9]),
            via_kind: None,
        };
        let mut case = Case {
            nl,
            wiring,
            budgets,
            cfg,
        };
        let mut graph = TimingGraph::build(&case.nl, &tech, &case.wiring, &case.budgets, &case.cfg);
        for step in 0..STEPS {
            if step > 0 {
                let share = rng.pick(&[0.02, 0.12, 0.5]);
                resize(&mut case.nl, &tech, &mut rng, share);
            }
            assert_same(
                &mut graph,
                &case,
                &tech,
                &format!("{} step {step}", block.name),
            );
        }
    }
}
