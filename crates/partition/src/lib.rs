#![warn(missing_docs)]
//! Min-cut bipartitioning for block folding.
//!
//! Folding a block (paper §4) means splitting its netlist across the two
//! dies of the stack so that the halves sit on top of each other. The
//! number of 3D connections (TSVs or F2F vias) equals the **cut size** of
//! the bipartition, and die area balance decides the folded footprint —
//! exactly the objective of the Fiduccia–Mattheyses heuristic implemented
//! here.
//!
//! Three entry points cover the paper's folding scenarios:
//!
//! * [`bipartition`] — area-balanced min-cut FM with multi-start, used for
//!   generic blocks (L2T, RTX); [`bipartition_subsets`] runs it on each
//!   folded FUB of the SPC without building the FUB's sub-netlist.
//! * [`partition_by_groups`] — the *natural split* of §4.3: assign whole
//!   instance groups to dies (PCX vs CPX needs only four 3D wires).
//! * [`partition_with_quality`] — degrades a min-cut solution toward a
//!   random balanced one, generating the increasing-cut partition cases
//!   #1–#5 of Fig. 7; [`degrade_partition`] is the degrade step alone, for
//!   sweeps that share one min-cut.
//!
//! # Examples
//!
//! ```
//! use foldic_partition::{bipartition, PartitionConfig};
//! use foldic_t2::T2Config;
//!
//! let (design, tech) = T2Config::tiny().generate();
//! let block = design.block(design.find_block("l2t0").unwrap());
//! let part = bipartition(&block.netlist, &tech, &PartitionConfig::default());
//! assert!(part.balance(&block.netlist, &tech) < 0.2);
//! ```

mod fm;

pub use fm::{bipartition, bipartition_seeded, bipartition_subsets, Partition, PartitionConfig};

use foldic_geom::Tier;
use foldic_netlist::{GroupId, Netlist};
use foldic_tech::Technology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assigns each instance a die by its group membership.
///
/// `top_groups` lists the groups placed on the top die; everything else
/// (including ungrouped instances) goes to the bottom die. This is the
/// "natural way to fold" the CCX: "placing the entire PCX block in one die
/// and the CPX in another" (§4.3).
pub fn partition_by_groups(netlist: &Netlist, top_groups: &[GroupId]) -> Partition {
    let tier_of = netlist
        .insts()
        .map(|(_, inst)| match inst.group {
            Some(g) if top_groups.contains(&g) => Tier::Top,
            _ => Tier::Bottom,
        })
        .collect();
    let mut p = Partition { tier_of, cut: 0 };
    p.cut = p.cut_size(netlist);
    p
}

/// Produces a partition of controlled quality for the Fig. 7 sweep: the
/// [`bipartition`] min-cut, degraded by [`degrade_partition`].
///
/// `quality = 1.0` returns the plain min-cut result; lower values randomly
/// swap a growing fraction of balanced instance pairs across the dies,
/// monotonically (in expectation) increasing the number of 3D connections
/// while preserving area balance.
pub fn partition_with_quality(
    netlist: &Netlist,
    tech: &Technology,
    cfg: &PartitionConfig,
    quality: f64,
) -> Partition {
    degrade_partition(netlist, cfg, bipartition(netlist, tech, cfg), quality)
}

/// Degrades a min-cut partition of `netlist` toward a random balanced one
/// (see [`partition_with_quality`]).
///
/// A pure function of `min_cut`, `quality` and `cfg.seed`: a sweep can
/// compute the min-cut once and degrade a copy per point, and each point
/// equals its own `partition_with_quality` call bit for bit.
pub fn degrade_partition(
    netlist: &Netlist,
    cfg: &PartitionConfig,
    min_cut: Partition,
    quality: f64,
) -> Partition {
    let mut part = min_cut;
    let degrade = (1.0 - quality.clamp(0.0, 1.0)) * 0.5;
    if degrade <= 0.0 {
        return part;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF167);
    // collect movable ids per side
    let mut bottom = Vec::new();
    let mut top = Vec::new();
    for (id, inst) in netlist.insts() {
        if inst.fixed {
            continue;
        }
        match part.tier_of[id.index()] {
            Tier::Bottom => bottom.push(id),
            Tier::Top => top.push(id),
        }
    }
    let swaps = ((bottom.len().min(top.len()) as f64) * degrade) as usize;
    for _ in 0..swaps {
        if bottom.is_empty() || top.is_empty() {
            break;
        }
        let i = rng.gen_range(0..bottom.len());
        let j = rng.gen_range(0..top.len());
        part.tier_of[bottom[i].index()] = Tier::Top;
        part.tier_of[top[j].index()] = Tier::Bottom;
        std::mem::swap(&mut bottom[i], &mut top[j]);
    }
    part.cut = part.cut_size(netlist);
    part
}

/// Applies a partition to the netlist: sets every instance's `tier`, and
/// moves each boundary port to the tier holding the majority of its net's
/// pins (ports follow their logic).
pub fn apply_partition(netlist: &mut Netlist, part: &Partition) {
    for (idx, tier) in part.tier_of.iter().enumerate() {
        netlist.inst_mut(foldic_netlist::InstId::from(idx)).tier = *tier;
    }
    // ports follow the majority tier of the cells on their nets
    let mut port_votes: Vec<(u32, u32)> = vec![(0, 0); netlist.num_ports()];
    for (_, net) in netlist.nets() {
        let mut counts = (0u32, 0u32);
        let mut ports = Vec::new();
        for pin in net.pins() {
            match pin {
                foldic_netlist::PinRef::Port(p) => ports.push(p),
                other => {
                    if let Some(i) = other.inst() {
                        match part.tier_of[i.index()] {
                            Tier::Bottom => counts.0 += 1,
                            Tier::Top => counts.1 += 1,
                        }
                    }
                }
            }
        }
        for p in ports {
            port_votes[p.index()].0 += counts.0;
            port_votes[p.index()].1 += counts.1;
        }
    }
    for (idx, (b, t)) in port_votes.iter().enumerate() {
        let port = netlist.port_mut(foldic_netlist::PortId::from(idx));
        port.tier = if t > b { Tier::Top } else { Tier::Bottom };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_t2::T2Config;

    fn block_netlist(name: &str) -> (Netlist, Technology) {
        let (design, tech) = T2Config::tiny().generate();
        let b = design.block(design.find_block(name).unwrap());
        (b.netlist.clone(), tech)
    }

    #[test]
    fn group_split_of_ccx_has_tiny_cut() {
        let (nl, tech) = block_netlist("ccx");
        let pcx = (0..nl.num_groups())
            .map(|i| GroupId(i as u32))
            .find(|&g| nl.group_name(g) == "pcx")
            .unwrap();
        let natural = partition_by_groups(&nl, &[pcx]);
        let fm = bipartition(&nl, &tech, &PartitionConfig::default());
        // The natural PCX/CPX split cuts only the stray test wiring — a
        // handful of 3D nets (the paper's CCX fold uses just 4 signal
        // TSVs). FM can do no better than the disconnected structure.
        assert!(natural.cut <= 8, "natural cut {} too big", natural.cut);
        assert!(
            natural.cut <= fm.cut,
            "natural {} vs fm {}",
            natural.cut,
            fm.cut
        );
    }

    #[test]
    fn quality_sweep_increases_cut() {
        let (nl, tech) = block_netlist("l2t0");
        let cfg = PartitionConfig::default();
        let cuts: Vec<usize> = [1.0, 0.75, 0.5, 0.25, 0.0]
            .iter()
            .map(|&q| partition_with_quality(&nl, &tech, &cfg, q).cut)
            .collect();
        assert!(cuts[0] <= cuts[2] && cuts[2] <= cuts[4], "{cuts:?}");
        assert!(cuts[4] > cuts[0], "{cuts:?}");
    }

    #[test]
    fn apply_partition_moves_ports_with_logic() {
        let (mut nl, tech) = block_netlist("mcu0");
        let part = bipartition(&nl, &tech, &PartitionConfig::default());
        apply_partition(&mut nl, &part);
        // inst tiers match the partition
        for (id, inst) in nl.insts() {
            assert_eq!(inst.tier, part.tier_of[id.index()]);
        }
        // every port sits on the majority tier of the cells on its nets
        for (pid, port) in nl.ports() {
            let (mut b, mut t) = (0u32, 0u32);
            for (_, net) in nl.nets() {
                let on_net = net
                    .pins()
                    .any(|p| matches!(p, foldic_netlist::PinRef::Port(q) if q == pid));
                if !on_net {
                    continue;
                }
                for pin in net.pins() {
                    if let Some(i) = pin.inst() {
                        match part.tier_of[i.index()] {
                            Tier::Bottom => b += 1,
                            Tier::Top => t += 1,
                        }
                    }
                }
            }
            let expected = if t > b { Tier::Top } else { Tier::Bottom };
            assert_eq!(port.tier, expected, "port {}", nl.name_of(port.name));
        }
    }
}
