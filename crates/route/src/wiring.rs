//! Per-block wiring analysis: routed lengths, per-sink paths, long-wire
//! census.

use crate::steiner::{steiner_length, Prim};
use crate::via::ViaPlacement;
use foldic_fault::{FlowError, FlowStage};
use foldic_geom::{Point, Tier};
use foldic_netlist::{NetId, Netlist};
use foldic_tech::Technology;

/// Default detour factor between Steiner length and routed length.
pub const DEFAULT_DETOUR: f64 = 1.10;

/// Routed-length record for one net.
#[derive(Debug, Clone)]
pub struct NetLength {
    /// The net.
    pub net: NetId,
    /// Routed total length in µm (detour included).
    pub length_um: f64,
    /// Driver-to-sink path length per sink, in `net.sinks` order.
    pub sink_paths: Vec<f64>,
    /// `true` when the net crosses tiers (carries a TSV / F2F via).
    pub is_3d: bool,
}

/// Wiring report of a placed block.
#[derive(Debug, Clone)]
pub struct BlockWiring {
    /// Per-net records, indexed by `NetId`.
    pub nets: Vec<NetLength>,
    /// Total routed wirelength in µm.
    pub total_um: f64,
    /// Nets longer than the technology's long-wire threshold (Table 3).
    pub long_wires: usize,
    /// Number of tier-crossing nets.
    pub num_3d: usize,
}

impl BlockWiring {
    /// Analyzes a placed netlist.
    ///
    /// `vias` supplies 3D-via locations for folded blocks; without it,
    /// tier-crossing nets are measured with an *ideal* 3D interconnect
    /// (pins treated as coplanar) — the assumption of the §5.1 flow's
    /// first pass.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] at [`FlowStage::Route`] when the analysis
    /// produces a non-finite total length or sink path (NaN or infinite
    /// coordinates from an upstream stage, or a non-finite `detour`).
    /// Prim leaves a non-finite pin out of the tree, so the total can stay
    /// finite while that pin's path does not.
    pub fn analyze(
        netlist: &Netlist,
        tech: &Technology,
        detour: f64,
        vias: Option<&ViaPlacement>,
    ) -> Result<Self, FlowError> {
        foldic_obs::trace::add_iters(netlist.num_nets() as u64);
        let mut scratch = NetScratch::default();
        let mut nets = Vec::with_capacity(netlist.num_nets());
        for nid in netlist.net_ids() {
            // cooperative deadline checkpoint, every 256 nets
            if nid.index() % 256 == 0 {
                foldic_fault::deadline::poll()?;
            }
            nets.push(scratch.record(netlist, nid, detour, vias)?);
        }
        let mut wiring = Self {
            nets,
            total_um: 0.0,
            long_wires: 0,
            num_3d: 0,
        };
        wiring.sum(tech)?;
        Ok(wiring)
    }

    /// Brings this analysis of `netlist` up to date, in place, after
    /// buffer insertion: re-analyses the `rewired` nets (nets whose pins
    /// changed) and appends records for the nets added since the analysis,
    /// then re-sums the totals over every record in net order. It
    /// equals a fresh [`Self::analyze`] bit for bit when every other net
    /// kept its pins, their positions and tiers, and `detour` and `vias`
    /// are the ones the analysis ran with: a net's record reads only
    /// those. Counts as one analysis (`route.analyses`, `num_nets` span
    /// iterations).
    ///
    /// # Errors
    ///
    /// See [`Self::analyze`].
    pub fn reanalyze(
        &mut self,
        netlist: &Netlist,
        tech: &Technology,
        detour: f64,
        vias: Option<&ViaPlacement>,
        rewired: &[NetId],
    ) -> Result<(), FlowError> {
        debug_assert!(rewired.iter().all(|n| n.index() < self.nets.len()));
        foldic_obs::trace::add_iters(netlist.num_nets() as u64);
        let mut scratch = NetScratch::default();
        let added = self.nets.len()..netlist.num_nets();
        self.nets.reserve_exact(added.len());
        let nids = rewired.iter().copied().chain(added.map(NetId::from));
        for (k, nid) in nids.enumerate() {
            // cooperative deadline checkpoint, every 256 nets
            if k % 256 == 0 {
                foldic_fault::deadline::poll()?;
            }
            let rec = scratch.record(netlist, nid, detour, vias)?;
            match self.nets.get_mut(nid.index()) {
                Some(old) => *old = rec,
                None => self.nets.push(rec),
            }
        }
        self.sum(tech)
    }

    /// Sets the totals from the records, summed in net order.
    fn sum(&mut self, tech: &Technology) -> Result<(), FlowError> {
        let threshold = tech.long_wire_threshold();
        let mut total = 0.0;
        self.long_wires = 0;
        self.num_3d = 0;
        for rec in &self.nets {
            self.num_3d += usize::from(rec.is_3d);
            self.long_wires += usize::from(rec.length_um > threshold);
            total += rec.length_um;
        }
        self.total_um = finite(total)?;
        if foldic_obs::metrics::is_enabled() {
            foldic_obs::metrics::add("route.analyses", 1);
            let _bookkeeping = foldic_obs::Bookkeeping::enter();
            let lengths: Vec<f64> = self.nets.iter().map(|r| r.length_um).collect();
            foldic_obs::metrics::observe_all("route.net_length_um", &lengths);
        }
        Ok(())
    }

    /// The record of `net`.
    pub fn net(&self, net: NetId) -> &NetLength {
        &self.nets[net.index()]
    }

    /// Total routed length in metres (the unit of the paper's tables).
    pub fn total_m(&self) -> f64 {
        self.total_um * 1e-6
    }
}

/// Per-call scratch of the per-net analysis, refilled per net.
#[derive(Default)]
struct NetScratch {
    prim: Prim,
    sinks: Vec<(Point, Tier)>,
}

impl NetScratch {
    /// The routed-length record of one net.
    fn record(
        &mut self,
        netlist: &Netlist,
        nid: NetId,
        detour: f64,
        vias: Option<&ViaPlacement>,
    ) -> Result<NetLength, FlowError> {
        let net = netlist.net(nid);
        let Some(driver) = net.driver else {
            return Ok(NetLength {
                net: nid,
                length_um: 0.0,
                sink_paths: Vec::new(),
                is_3d: false,
            });
        };
        let Self { prim, sinks } = self;
        let dpos = netlist.pin_pos(driver);
        let dtier = netlist.pin_tier(driver);
        sinks.clear();
        sinks.extend(
            net.sinks()
                .map(|s| (netlist.pin_pos(s), netlist.pin_tier(s))),
        );
        let is_3d = sinks.iter().any(|&(_, t)| t != dtier);

        let (length_um, sink_paths) = match (is_3d, vias.and_then(|v| v.via_of(nid))) {
            (true, Some(via)) => route_3d(prim, dpos, dtier, sinks, via.pos, detour)?,
            _ => {
                // coplanar (2D net, or ideal 3D interconnect)
                prim.start(dpos);
                prim.points.extend(sinks.iter().map(|&(p, _)| p));
                let mst_len = prim.build();
                let paths = prim.path_len[1..]
                    .iter()
                    .map(|&l| finite(l * detour))
                    .collect::<Result<_, _>>()?;
                (steiner_length(mst_len, prim.points.len()) * detour, paths)
            }
        };
        Ok(NetLength {
            net: nid,
            length_um,
            sink_paths,
            is_3d,
        })
    }
}

/// `x`, or the Route-stage error when it is NaN or infinite.
fn finite(x: f64) -> Result<f64, FlowError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(FlowError::stage(
            FlowStage::Route,
            "wiring analysis produced a non-finite length",
        ))
    }
}

/// Routes a tier-crossing net through its via: one subtree per tier with
/// the via as the crossing point.
fn route_3d(
    prim: &mut Prim,
    dpos: Point,
    dtier: Tier,
    sinks: &[(Point, Tier)],
    via: Point,
    detour: f64,
) -> Result<(f64, Vec<f64>), FlowError> {
    // near tree: driver + near sinks + the via
    prim.start(dpos);
    prim.points
        .extend(sinks.iter().filter(|&&(_, t)| t == dtier).map(|&(p, _)| p));
    prim.points.push(via);
    let near_len = steiner_length(prim.build(), prim.points.len());
    let via_path = prim.path_len[prim.points.len() - 1];
    // per-sink paths in the original sink order: the near sinks' now, the
    // far sinks' once the far tree is built
    let mut k = 0;
    let mut paths: Vec<f64> = sinks
        .iter()
        .map(|&(_, t)| {
            if t == dtier {
                k += 1;
                finite(prim.path_len[k] * detour)
            } else {
                Ok(0.0)
            }
        })
        .collect::<Result<_, _>>()?;
    // far tree: via acts as the driver
    prim.start(via);
    prim.points
        .extend(sinks.iter().filter(|&&(_, t)| t != dtier).map(|&(p, _)| p));
    let far_len = steiner_length(prim.build(), prim.points.len());
    let mut k = 0;
    for (path, &(_, t)) in paths.iter_mut().zip(sinks) {
        if t != dtier {
            k += 1;
            *path = finite((via_path + prim.path_len[k]) * detour)?;
        }
    }
    Ok(((near_len + far_len) * detour, paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::SteinerTree;
    use crate::via::place_vias;
    use foldic_netlist::{ClockDomain, InstMaster, PinRef, PortDir};
    use foldic_tech::{CellKind, Drive, VthClass};

    fn tech() -> Technology {
        Technology::cmos28()
    }

    fn two_cell_net(dist: f64) -> Netlist {
        let t = tech();
        let m = InstMaster::Cell(t.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("n");
        let a = nl.add_inst("a", m);
        let b = nl.add_inst("b", m);
        nl.inst_mut(b).pos = Point::new(dist, 0.0);
        let n = nl.add_net("w");
        nl.connect_driver(n, PinRef::output(a));
        nl.connect_sink(n, PinRef::input(b, 0));
        nl
    }

    #[test]
    fn detour_scales_length() {
        let nl = two_cell_net(100.0);
        let w = BlockWiring::analyze(&nl, &tech(), 1.1, None).unwrap();
        assert!((w.total_um - 110.0).abs() < 1e-9);
        assert_eq!(w.nets[0].sink_paths.len(), 1);
    }

    #[test]
    fn long_wire_census_uses_threshold() {
        let t = tech();
        let short = BlockWiring::analyze(&two_cell_net(50.0), &t, 1.0, None).unwrap();
        assert_eq!(short.long_wires, 0);
        let long = BlockWiring::analyze(&two_cell_net(150.0), &t, 1.0, None).unwrap();
        assert_eq!(long.long_wires, 1);
    }

    #[test]
    fn ideal_3d_net_is_coplanar() {
        let mut nl = two_cell_net(100.0);
        let b = foldic_netlist::InstId(1);
        nl.inst_mut(b).tier = Tier::Top;
        let w = BlockWiring::analyze(&nl, &tech(), 1.0, None).unwrap();
        assert_eq!(w.num_3d, 1);
        assert!((w.total_um - 100.0).abs() < 1e-9);
    }

    /// The per-net computation `analyze` ran before it shared one Prim
    /// scratch per call: a fresh [`SteinerTree`] per tree.
    fn cold_net(
        netlist: &Netlist,
        nid: NetId,
        detour: f64,
        vias: Option<&ViaPlacement>,
    ) -> (f64, Vec<f64>) {
        let net = netlist.net(nid);
        let Some(driver) = net.driver else {
            return (0.0, Vec::new());
        };
        let (dpos, dtier) = (netlist.pin_pos(driver), netlist.pin_tier(driver));
        let sinks: Vec<(Point, Tier)> = net
            .sinks()
            .map(|s| (netlist.pin_pos(s), netlist.pin_tier(s)))
            .collect();
        let is_3d = sinks.iter().any(|&(_, t)| t != dtier);
        if let (true, Some(via)) = (is_3d, vias.and_then(|v| v.via_of(nid))) {
            let pick = |near: bool| -> Vec<Point> {
                sinks
                    .iter()
                    .filter(|&&(_, t)| (t == dtier) == near)
                    .map(|&(p, _)| p)
                    .collect()
            };
            let (near, far) = (pick(true), pick(false));
            let mut near_pts = near.clone();
            near_pts.push(via.pos);
            let near_tree = SteinerTree::build(dpos, &near_pts);
            let via_path = near_tree.sink_path_length(near.len());
            let far_tree = SteinerTree::build(via.pos, &far);
            let (mut n, mut f) = (0, 0);
            let paths = sinks
                .iter()
                .map(|&(_, t)| {
                    if t == dtier {
                        n += 1;
                        near_tree.sink_path_length(n - 1) * detour
                    } else {
                        f += 1;
                        (via_path + far_tree.sink_path_length(f - 1)) * detour
                    }
                })
                .collect();
            let length = (near_tree.total_length() + far_tree.total_length()) * detour;
            return (length, paths);
        }
        let pts: Vec<Point> = sinks.iter().map(|&(p, _)| p).collect();
        let tree = SteinerTree::build(dpos, &pts);
        let paths = (0..pts.len())
            .map(|i| tree.sink_path_length(i) * detour)
            .collect();
        (tree.total_length() * detour, paths)
    }

    /// The shared per-call scratch leaves every net's length and sink
    /// paths bit-identical to fresh trees, flat and folded with F2F vias
    /// and TSVs.
    #[test]
    fn scratch_reuse_matches_fresh_trees_bitwise() {
        use foldic_partition::{apply_partition, bipartition, PartitionConfig};
        use foldic_tech::BondingStyle;
        let (design, t) = foldic_t2::T2Config::tiny().generate();
        let block = design.block(design.find_block("l2t0").unwrap());
        let mut nl = block.netlist.clone();
        let flat = BlockWiring::analyze(&nl, &t, 1.1, None).unwrap();
        let mut runs = vec![(flat, None)];
        let part = bipartition(&nl, &t, &PartitionConfig::default());
        apply_partition(&mut nl, &part);
        for bonding in [BondingStyle::FaceToFace, BondingStyle::FaceToBack] {
            let vias = place_vias(&nl, &t, block.outline, bonding).unwrap();
            assert!(!vias.is_empty());
            let w = BlockWiring::analyze(&nl, &t, 1.1, Some(&vias)).unwrap();
            runs.push((w, Some(vias)));
        }
        for (k, (w, vias)) in runs.iter().enumerate() {
            let netlist = if k == 0 { &block.netlist } else { &nl };
            let mut total = 0.0;
            for rec in &w.nets {
                let (length, paths) = cold_net(netlist, rec.net, 1.1, vias.as_ref());
                assert_eq!(rec.length_um.to_bits(), length.to_bits(), "{:?}", rec.net);
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rec.sink_paths), bits(&paths), "{:?}", rec.net);
                total += length;
            }
            assert_eq!(w.total_um.to_bits(), total.to_bits());
        }
    }

    /// A port drives an inverter that drives two flops, one at `(NaN, 0)`.
    /// Prim leaves that flop out of the tree, so the total stays finite
    /// (33 µm) while its path is NaN: the analysis must refuse it rather
    /// than hand STA a path no comparison can see. Coplanar and through a
    /// via alike.
    #[test]
    fn non_finite_sink_path_is_a_route_error() {
        let t = tech();
        let inv = InstMaster::Cell(t.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let dff = InstMaster::Cell(t.cells.id_of(CellKind::Dff, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("nan");
        let pin = nl.add_port("in", PortDir::Input, ClockDomain::Cpu);
        let a = nl.add_inst("a", inv);
        let f = nl.add_inst("f", dff);
        let g = nl.add_inst("g", dff);
        nl.inst_mut(a).pos = Point::new(10.0, 0.0);
        nl.inst_mut(f).pos = Point::new(f64::NAN, 0.0);
        nl.inst_mut(g).pos = Point::new(30.0, 0.0);
        let n0 = nl.add_net("n0");
        nl.connect_driver(n0, PinRef::port(pin));
        nl.connect_sink(n0, PinRef::input(a, 0));
        let n1 = nl.add_net("n1");
        nl.connect_driver(n1, PinRef::output(a));
        nl.connect_sink(n1, PinRef::input(f, 0));
        nl.connect_sink(n1, PinRef::input(g, 0));
        let err = BlockWiring::analyze(&nl, &t, 1.1, None).unwrap_err();
        assert_eq!(err.stage, FlowStage::Route);

        // the same flop across the tiers, routed through a via
        nl.inst_mut(f).tier = Tier::Top;
        let vias = ViaPlacement::from_pairs(
            &nl,
            vec![(n1, Point::new(20.0, 0.0))],
            foldic_tech::Via3dKind::F2fVia,
        );
        let err = BlockWiring::analyze(&nl, &t, 1.1, Some(&vias)).unwrap_err();
        assert_eq!(err.stage, FlowStage::Route);

        // with the flop back at a finite spot both analyses pass
        nl.inst_mut(f).pos = Point::new(20.0, 5.0);
        assert!(BlockWiring::analyze(&nl, &t, 1.1, Some(&vias)).is_ok());
        nl.inst_mut(f).tier = Tier::Bottom;
        assert!(BlockWiring::analyze(&nl, &t, 1.1, None).is_ok());
    }

    #[test]
    fn via_detour_lengthens_3d_net() {
        let mut nl = two_cell_net(100.0);
        let b = foldic_netlist::InstId(1);
        nl.inst_mut(b).tier = Tier::Top;
        // a via off the direct path adds length
        let vias = ViaPlacement::from_pairs(
            &nl,
            vec![(foldic_netlist::NetId(0), Point::new(50.0, 30.0))],
            foldic_tech::Via3dKind::F2fVia,
        );
        let w = BlockWiring::analyze(&nl, &tech(), 1.0, Some(&vias)).unwrap();
        assert!((w.total_um - 160.0).abs() < 1e-9, "{}", w.total_um);
        // sink path = driver->via + via->sink
        assert!((w.nets[0].sink_paths[0] - 160.0).abs() < 1e-9);
    }
}
