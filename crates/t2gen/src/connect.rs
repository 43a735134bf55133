//! Inter-block connectivity synthesis.
//!
//! Creates boundary ports on each block, wires them to nearby internal
//! logic, and records chip-level nets. Bus widths follow the published T2
//! connectivity (≈280 wires between the CCX and each SPC / L2-tag, cache
//! buses per bank, NIU-confined wiring). The crossbar's request buses land
//! on PCX cells and its return buses are driven by CPX cells, preserving
//! the structure §4.3 exploits when folding.

use crate::T2Config;
use foldic_geom::Point;
use foldic_netlist::{
    BlockId, ChipNet, ClockDomain, Design, GroupId, InstId, NetId, PinRef, PortDir,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One logical bus between two blocks.
struct Bus {
    from: &'static str,
    to: &'static str,
    bits: usize,
    domain: ClockDomain,
}

/// Names of the eight copies of each per-core or per-bank block, and of
/// the four memory controllers (two banks each).
const SPC: [&str; 8] = [
    "spc0", "spc1", "spc2", "spc3", "spc4", "spc5", "spc6", "spc7",
];
const L2T: [&str; 8] = [
    "l2t0", "l2t1", "l2t2", "l2t3", "l2t4", "l2t5", "l2t6", "l2t7",
];
const L2D: [&str; 8] = [
    "l2d0", "l2d1", "l2d2", "l2d3", "l2d4", "l2d5", "l2d6", "l2d7",
];
const L2B: [&str; 8] = [
    "l2b0", "l2b1", "l2b2", "l2b3", "l2b4", "l2b5", "l2b6", "l2b7",
];
const MCU: [&str; 4] = ["mcu0", "mcu1", "mcu2", "mcu3"];

fn bus_table() -> Vec<Bus> {
    let mut buses = Vec::new();
    let b = |from: &'static str, to: &'static str, bits, domain| Bus {
        from,
        to,
        bits,
        domain,
    };
    use ClockDomain::{Cpu, Io};
    for i in 0..8 {
        let (spc, l2t, l2d, l2b, mcu) = (SPC[i], L2T[i], L2D[i], L2B[i], MCU[i / 2]);
        buses.push(b(spc, "ccx", 130, Cpu));
        buses.push(b("ccx", spc, 150, Cpu));
        buses.push(b("ccx", l2t, 130, Cpu));
        buses.push(b(l2t, "ccx", 150, Cpu));
        buses.push(b(l2t, l2d, 180, Cpu));
        buses.push(b(l2d, l2t, 160, Cpu));
        buses.push(b(l2t, l2b, 90, Cpu));
        buses.push(b(l2b, l2t, 80, Cpu));
        buses.push(b(l2d, mcu, 160, Cpu));
        buses.push(b(mcu, l2d, 140, Cpu));
        buses.push(b("ncu", spc, 40, Cpu));
        buses.push(b(spc, "ncu", 40, Cpu));
        buses.push(b("siu", l2b, 50, Cpu));
        buses.push(b(l2b, "siu", 60, Cpu));
    }
    // NIU cluster: RTX talks to MAC/RDP/TDS (and SIU); the paper notes
    // "almost all signals to/from [RTX] are connected with MAC, TDS, and
    // RDP that form a network interface unit".
    for (f, t, bits) in [
        ("rtx", "mac", 200),
        ("mac", "rtx", 200),
        ("rtx", "rdp", 150),
        ("rdp", "rtx", 140),
        ("rtx", "tds", 150),
        ("tds", "rtx", 140),
        ("rdp", "mac", 90),
        ("mac", "tds", 90),
        ("rtx", "siu", 100),
        ("siu", "rtx", 90),
    ] {
        buses.push(b(f, t, bits, Io));
    }
    // Control / peripheral fabric.
    for (f, t, bits) in [
        ("dmu", "peu", 150),
        ("peu", "dmu", 150),
        ("dmu", "siu", 90),
        ("siu", "dmu", 90),
        ("ncu", "dmu", 80),
        ("dmu", "ncu", 60),
        ("ccu", "ncu", 16),
    ] {
        buses.push(b(f, t, bits, Cpu));
    }
    buses
}

/// A connectable logic cell: its instance, seed position and the signal
/// net it drives.
struct Cell {
    inst: InstId,
    pos: Point,
    net: NetId,
}

/// Per-block lookup data built once before mutation starts.
struct BlockIndex {
    /// Every connectable logic cell, in instance order.
    cells: Vec<Cell>,
    /// Per group (indexed by `GroupId`), the indices into `cells` of its
    /// members, in `cells` order.
    pools: Vec<Vec<u32>>,
    /// Group name → id.
    groups: HashMap<String, GroupId>,
    /// Outline dims.
    w: f64,
    h: f64,
    /// Per-peer running pin offset along the perimeter.
    pin_cursor: HashMap<&'static str, f64>,
}

impl BlockIndex {
    fn build(design: &Design, id: BlockId) -> Self {
        let block = design.block(id);
        let nl = &block.netlist;
        // the first signal net each instance drives
        let mut driver_net: Vec<Option<NetId>> = vec![None; nl.num_insts()];
        for (nid, net) in nl.nets() {
            if net.is_clock {
                continue;
            }
            if let Some(PinRef::InstOut(i)) = net.driver {
                driver_net[i.index()].get_or_insert(nid);
            }
        }
        let mut cells = Vec::new();
        let mut pools = vec![Vec::new(); nl.num_groups()];
        for (iid, inst) in nl.insts() {
            // only signal-driving logic cells are connectable (clock-tree
            // buffers drive clock nets exclusively and stay internal)
            let Some(net) = driver_net[iid.index()] else {
                continue;
            };
            if inst.master.is_macro() || inst.fixed {
                continue;
            }
            if let Some(g) = inst.group {
                pools[g.index()].push(cells.len() as u32);
            }
            cells.push(Cell {
                inst: iid,
                pos: inst.pos,
                net,
            });
        }
        let groups = (0..nl.num_groups())
            .map(|g| {
                (
                    nl.group_name(GroupId(g as u32)).to_owned(),
                    GroupId(g as u32),
                )
            })
            .collect();
        Self {
            cells,
            pools,
            groups,
            w: block.outline.width(),
            h: block.outline.height(),
            pin_cursor: HashMap::new(),
        }
    }

    /// Picks a connectable cell near `p`, optionally restricted to `group`
    /// (all cells when the group has none), by sampling candidates and
    /// keeping the closest.
    fn pick_near(&self, p: Point, group: Option<GroupId>, rng: &mut StdRng) -> &Cell {
        let pool = group.map_or(&[][..], |g| self.pools[g.index()].as_slice());
        let n = if pool.is_empty() {
            self.cells.len()
        } else {
            pool.len()
        };
        assert!(n > 0, "block has no connectable cells");
        let at = |k: usize| &self.cells[if pool.is_empty() { k } else { pool[k] as usize }];
        let mut best = at(rng.gen_range(0..n));
        let mut best_d = best.pos.manhattan(p);
        for _ in 0..48 {
            let c = at(rng.gen_range(0..n));
            let d = c.pos.manhattan(p);
            if d < best_d {
                best = c;
                best_d = d;
            }
        }
        best
    }

    /// Next pin location on the perimeter for a bus to/from `peer`.
    fn next_pin_pos(&mut self, peer: &'static str) -> Point {
        let perim = 2.0 * (self.w + self.h);
        // base offset from a stable hash of the peer name
        let hash = peer
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64));
        let base = (hash % 1000) as f64 / 1000.0 * perim;
        let cursor = self.pin_cursor.entry(peer).or_insert(0.0);
        let t = (base + *cursor) % perim;
        *cursor += 1.5; // pin pitch along the boundary in µm
                        // walk the perimeter: bottom, right, top, left
        if t < self.w {
            Point::new(t, 0.0)
        } else if t < self.w + self.h {
            Point::new(self.w, t - self.w)
        } else if t < 2.0 * self.w + self.h {
            Point::new(2.0 * self.w + self.h - t, self.h)
        } else {
            Point::new(0.0, perim - t)
        }
    }
}

/// Group a CCX-side endpoint must attach to: requests land on PCX, returns
/// are driven by CPX; L2-side requests are driven by PCX and returns land
/// on CPX.
fn ccx_group(idx: &BlockIndex, peer: &str, incoming: bool) -> Option<GroupId> {
    let name = if peer.starts_with("spc") {
        if incoming {
            "pcx" // request from a core enters the processor-to-cache crossbar
        } else {
            "cpx" // return to a core leaves the cache-to-processor crossbar
        }
    } else if incoming {
        "cpx" // return data arriving from an L2 bank
    } else {
        "pcx" // request leaving toward an L2 bank
    };
    idx.groups.get(name).copied()
}

/// Wires the whole chip: ports, port nets and chip-level nets.
pub fn wire_chip(design: &mut Design, cfg: &T2Config, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bus_scale = cfg.size.powf(0.6);
    // Build indices for every block up front, indexed by `BlockId`.
    let mut index: Vec<BlockIndex> = design
        .block_ids()
        .map(|id| BlockIndex::build(design, id))
        .collect();

    for bus in bus_table() {
        let Some(from_id) = design.find_block(bus.from) else {
            continue;
        };
        let Some(to_id) = design.find_block(bus.to) else {
            continue;
        };
        let bits = ((bus.bits as f64 * bus_scale).round() as usize).max(1);
        for bit in 0..bits {
            // --- source side: output port driven by internal logic -------
            let (out_port, out_pos) = {
                let idx = &mut index[from_id.index()];
                let pos = idx.next_pin_pos(bus.to);
                let group = if bus.from == "ccx" {
                    ccx_group(idx, bus.to, false)
                } else {
                    None
                };
                let net = idx.pick_near(pos, group, &mut rng).net;
                let block = design.block_mut(from_id);
                let port = block.netlist.add_port(
                    format!("{}_{}_o{bit}", bus.from, bus.to),
                    PortDir::Output,
                    bus.domain,
                );
                block.netlist.port_mut(port).pos = pos;
                block.netlist.connect_sink(net, PinRef::port(port));
                (port, pos)
            };
            let _ = out_pos;
            // --- sink side: input port driving internal sinks -------------
            let in_port = {
                let idx = &mut index[to_id.index()];
                let pos = idx.next_pin_pos(bus.from);
                let group = if bus.to == "ccx" {
                    ccx_group(idx, bus.from, true)
                } else {
                    None
                };
                let sink_a = idx.pick_near(pos, group, &mut rng).inst;
                let sink_b = if rng.gen::<f64>() < 0.3 {
                    Some(idx.pick_near(pos, group, &mut rng).inst)
                } else {
                    None
                };
                let block = design.block_mut(to_id);
                let port = block.netlist.add_port(
                    format!("{}_{}_i{bit}", bus.to, bus.from),
                    PortDir::Input,
                    bus.domain,
                );
                block.netlist.port_mut(port).pos = pos;
                let net = block
                    .netlist
                    .add_net(format!("n_{}_{}_i{bit}", bus.to, bus.from));
                block.netlist.net_mut(net).domain = bus.domain;
                block.netlist.connect_driver(net, PinRef::port(port));
                block.netlist.connect_sink(net, PinRef::input(sink_a, 0));
                if let Some(b) = sink_b {
                    if b != sink_a {
                        block.netlist.connect_sink(net, PinRef::input(b, 0));
                    }
                }
                port
            };
            design.add_chip_net(ChipNet {
                name: format!("{}__{}_{bit}", bus.from, bus.to),
                endpoints: vec![(from_id, out_port), (to_id, in_port)],
                bits: 1,
                domain: bus.domain,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::T2Config;

    #[test]
    fn chip_nets_connect_existing_ports() {
        let (d, _) = T2Config::tiny().generate();
        assert!(!d.chip_nets().is_empty());
        for net in d.chip_nets() {
            assert_eq!(net.arity(), 2);
            for &(bid, pid) in &net.endpoints {
                let block = d.block(bid);
                assert!(pid.index() < block.netlist.num_ports(), "{}", net.name);
            }
        }
    }

    #[test]
    fn ccx_spc_bus_width_matches_paper_ratio() {
        // At full size each SPC↔CCX direction pair is ≈280 wires; at tiny
        // size it scales by size^0.6 but must stay symmetric across cores.
        let (d, _) = T2Config::tiny().generate();
        let count = |a: &str, b: &str| {
            d.chip_nets()
                .iter()
                .filter(|n| n.name.starts_with(&format!("{a}__{b}_")))
                .count()
        };
        let c0 = count("spc0", "ccx") + count("ccx", "spc0");
        let c7 = count("spc7", "ccx") + count("ccx", "spc7");
        assert_eq!(c0, c7);
        assert!(c0 > 10);
    }

    #[test]
    fn ccx_request_ports_land_on_pcx() {
        let (d, _) = T2Config::tiny().generate();
        let ccx_id = d.find_block("ccx").unwrap();
        let ccx = d.block(ccx_id);
        let pcx = (0..ccx.netlist.num_groups())
            .map(|g| GroupId(g as u32))
            .find(|&g| ccx.netlist.group_name(g) == "pcx")
            .unwrap();
        // find an input port from spc0 and check its net's sinks are PCX cells
        let mut checked = 0;
        for (_, net) in ccx.netlist.nets() {
            if let Some(PinRef::Port(p)) = net.driver {
                let pname = ccx.netlist.name_of(ccx.netlist.port(p).name).to_string();
                if pname.starts_with("ccx_spc") {
                    for s in net.sinks() {
                        let inst = ccx.netlist.inst(s.inst().unwrap());
                        assert_eq!(
                            inst.group,
                            Some(pcx),
                            "sink {}",
                            ccx.netlist.name_of(inst.name)
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn niu_wiring_is_confined() {
        // RTX's chip nets must touch only MAC/RDP/TDS/SIU.
        let (d, _) = T2Config::tiny().generate();
        let allowed = ["mac", "rdp", "tds", "siu", "rtx"];
        for net in d.chip_nets() {
            if net.name.starts_with("rtx__") || net.name.contains("__rtx_") {
                for &(bid, _) in &net.endpoints {
                    assert!(
                        allowed.contains(&d.block(bid).name.as_str()),
                        "{}",
                        net.name
                    );
                }
            }
        }
    }
}
