//! 3D-via placement for folded blocks (paper §5.1).
//!
//! Every tier-crossing net needs exactly one 3D connection. Its ideal
//! location is the Manhattan median of the net's pins; the two bonding
//! styles differ in how freely that ideal can be realized:
//!
//! * **F2F vias** live between the two top metals: they consume no
//!   silicon, sit on a sub-µm pitch grid and may land over cells *and*
//!   macros — so nearly every via gets its ideal spot.
//! * **TSVs** punch through silicon: they occupy a pitch² keep-out that
//!   cells cannot share, are forbidden under macros, and collide with each
//!   other on their coarse pitch grid — each conflict pushes the via away
//!   from its ideal location and stretches the net (Fig. 6).

use foldic_fault::{FlowError, FlowStage};
use foldic_geom::{spiral_sites, Point, Rect};
use foldic_netlist::{NetId, Netlist};
use foldic_tech::{BondingStyle, Technology, Via3dKind};
use std::collections::HashSet;

/// One placed 3D connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Via3d {
    /// The tier-crossing net this via serves.
    pub net: NetId,
    /// Via centre in block-local µm.
    pub pos: Point,
    /// TSV or F2F via.
    pub kind: Via3dKind,
    /// Manhattan displacement from the net's ideal crossing point in µm.
    pub displacement_um: f64,
}

/// The complete via assignment of a folded block.
#[derive(Debug, Clone)]
pub struct ViaPlacement {
    vias: Vec<Via3d>,
    by_net: Vec<Option<u32>>,
    kind: Via3dKind,
}

impl ViaPlacement {
    /// Builds a placement from explicit `(net, position)` pairs (mainly
    /// for tests and replaying stored results).
    pub fn from_pairs(netlist: &Netlist, pairs: Vec<(NetId, Point)>, kind: Via3dKind) -> Self {
        let mut by_net = vec![None; netlist.num_nets()];
        let vias = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (net, pos))| {
                by_net[net.index()] = Some(i as u32);
                Via3d {
                    net,
                    pos,
                    kind,
                    displacement_um: 0.0,
                }
            })
            .collect();
        Self { vias, by_net, kind }
    }

    /// The via serving `net`, if that net crosses tiers.
    pub fn via_of(&self, net: NetId) -> Option<&Via3d> {
        self.by_net
            .get(net.index())
            .copied()
            .flatten()
            .map(|i| &self.vias[i as usize])
    }

    /// Number of 3D connections.
    pub fn len(&self) -> usize {
        self.vias.len()
    }

    /// `true` when the block has no 3D connections.
    pub fn is_empty(&self) -> bool {
        self.vias.is_empty()
    }

    /// Iterates over the vias.
    pub fn iter(&self) -> impl Iterator<Item = &Via3d> {
        self.vias.iter()
    }

    /// Which element realizes the connections.
    pub fn kind(&self) -> Via3dKind {
        self.kind
    }

    /// Silicon area consumed by the vias in µm² (zero for F2F bonding —
    /// its pads live in the metal stack).
    pub fn silicon_area_um2(&self, tech: &Technology) -> f64 {
        match self.kind {
            Via3dKind::Tsv => self.vias.len() as f64 * tech.tsv.keepout_area_um2(),
            Via3dKind::F2fVia => 0.0,
        }
    }

    /// Mean displacement from the ideal crossing points in µm.
    pub fn mean_displacement_um(&self) -> f64 {
        if self.vias.is_empty() {
            0.0
        } else {
            self.vias.iter().map(|v| v.displacement_um).sum::<f64>() / self.vias.len() as f64
        }
    }

    /// TSV keep-out rectangles (for re-placing cells around them);
    /// empty for F2F bonding.
    pub fn keepouts(&self, tech: &Technology) -> Vec<Rect> {
        match self.kind {
            Via3dKind::F2fVia => Vec::new(),
            Via3dKind::Tsv => {
                let p = tech.tsv.pitch_um;
                self.vias
                    .iter()
                    .map(|v| Rect::centered(v.pos, p, p))
                    .collect()
            }
        }
    }
}

/// Places one 3D via per tier-crossing net of a folded, placed block.
///
/// Nets are processed in ascending id order (deterministic). Each via
/// requests the Manhattan median of its net's pins, snapped to the
/// element's pitch grid; occupied or illegal sites trigger an outward
/// [`spiral_sites`] search.
///
/// # Errors
///
/// Returns a [`FlowError`] at [`FlowStage::Route`] when a 3D net's pins
/// sit at non-finite coordinates (a diverged upstream placement).
pub fn place_vias(
    netlist: &Netlist,
    tech: &Technology,
    outline: Rect,
    bonding: BondingStyle,
) -> Result<ViaPlacement, FlowError> {
    let kind = match bonding {
        BondingStyle::FaceToBack => Via3dKind::Tsv,
        BondingStyle::FaceToFace => Via3dKind::F2fVia,
    };
    let pitch = match kind {
        Via3dKind::Tsv => tech.tsv.pitch_um,
        Via3dKind::F2fVia => tech.f2f_via.pitch_um,
    };
    // Macro keep-outs apply to TSVs only.
    let macro_rects: Vec<Rect> = if kind == Via3dKind::Tsv {
        netlist
            .insts()
            .filter(|(_, i)| i.master.is_macro())
            .map(|(_, i)| i.rect(tech).inflated(pitch * 0.5))
            .collect()
    } else {
        Vec::new()
    };

    let cols = (outline.width() / pitch).floor() as i64;
    let rows = (outline.height() / pitch).floor() as i64;
    let site_center = |c: i64, r: i64| {
        Point::new(
            outline.llx + (c as f64 + 0.5) * pitch,
            outline.lly + (r as f64 + 0.5) * pitch,
        )
    };
    let legal = |c: i64, r: i64| {
        let p = site_center(c, r);
        !macro_rects.iter().any(|m| m.contains(p))
    };

    let mut occupied: HashSet<(i64, i64)> = HashSet::new();
    let mut vias = Vec::new();
    let mut by_net = vec![None; netlist.num_nets()];
    for (nid, net) in netlist.nets() {
        if !netlist.net_is_3d(nid) {
            continue;
        }
        // cooperative deadline checkpoint, every 64 placed vias (the ring
        // search below is the expensive part)
        if vias.len() % 64 == 0 {
            foldic_fault::deadline::poll()?;
        }
        // ideal crossing point: Manhattan median of all pins
        let mut xs: Vec<f64> = net.pins().map(|p| netlist.pin_pos(p).x).collect();
        let mut ys: Vec<f64> = net.pins().map(|p| netlist.pin_pos(p).y).collect();
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        let median = Point::new(xs[xs.len() / 2], ys[ys.len() / 2]);
        if !(median.x.is_finite() && median.y.is_finite()) {
            return Err(FlowError::stage(
                FlowStage::Route,
                format!(
                    "3D net `{}` has pins at non-finite coordinates",
                    netlist.name_of(net.name)
                ),
            ));
        }
        let ideal = median.clamped(outline);
        let c0 = ((ideal.x - outline.llx) / pitch).floor() as i64;
        let r0 = ((ideal.y - outline.lly) / pitch).floor() as i64;
        // spiral outward for a free legal site
        let placed = spiral_sites((c0, r0), 0, cols, rows)
            .find(|&(c, r)| legal(c, r) && !occupied.contains(&(c, r)));
        let Some((c, r)) = placed else {
            // no site at all (degenerate outline): drop the via, the net
            // is measured with the ideal interconnect instead
            continue;
        };
        occupied.insert((c, r));
        let pos = site_center(c, r);
        by_net[nid.index()] = Some(vias.len() as u32);
        vias.push(Via3d {
            net: nid,
            pos,
            kind,
            displacement_um: pos.manhattan(ideal),
        });
    }
    Ok(ViaPlacement { vias, by_net, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_geom::Tier;
    use foldic_netlist::{InstMaster, PinRef};
    use foldic_tech::{CellKind, Drive, MacroKind, VthClass};

    /// Builds a folded netlist with `n` vertical 3D nets in a row and an
    /// optional macro in the middle.
    fn folded(n: usize, with_macro: bool) -> (Netlist, Technology, Rect) {
        let tech = Technology::cmos28();
        let m = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("f");
        let outline = Rect::new(0.0, 0.0, 400.0, 400.0);
        for i in 0..n {
            let a = nl.add_inst(format!("a{i}"), m);
            let b = nl.add_inst(format!("b{i}"), m);
            let x = 200.0;
            let y = 190.0 + 0.01 * i as f64;
            nl.inst_mut(a).pos = Point::new(x, y);
            {
                let mut inst = nl.inst_mut(b);
                inst.pos = Point::new(x, y);
                inst.tier = Tier::Top;
            }
            let net = nl.add_net(format!("n{i}"));
            nl.connect_driver(net, PinRef::output(a));
            nl.connect_sink(net, PinRef::input(b, 0));
        }
        if with_macro {
            let mac = nl.add_inst("mem", InstMaster::Macro(MacroKind::Sram16k));
            let mut inst = nl.inst_mut(mac);
            inst.pos = Point::new(200.0, 200.0);
            inst.fixed = true;
        }
        (nl, tech, outline)
    }

    #[test]
    fn f2f_vias_hit_their_ideal_sites() {
        let (nl, tech, outline) = folded(10, false);
        let vp = place_vias(&nl, &tech, outline, BondingStyle::FaceToFace).unwrap();
        assert_eq!(vp.len(), 10);
        // F2F pitch is sub-µm: everything lands within a pitch or two
        assert!(
            vp.mean_displacement_um() < 5.0,
            "{}",
            vp.mean_displacement_um()
        );
        assert_eq!(vp.silicon_area_um2(&tech), 0.0);
    }

    #[test]
    fn tsvs_collide_and_spread() {
        let (nl, tech, outline) = folded(10, false);
        let vp = place_vias(&nl, &tech, outline, BondingStyle::FaceToBack).unwrap();
        assert_eq!(vp.len(), 10);
        // ten TSVs wanting the same spot on a coarse pitch must spread out
        assert!(
            vp.mean_displacement_um() > tech.tsv.pitch_um,
            "{}",
            vp.mean_displacement_um()
        );
        assert!(vp.silicon_area_um2(&tech) > 0.0);
        // all distinct sites
        let mut seen = std::collections::HashSet::new();
        for v in vp.iter() {
            assert!(seen.insert((v.pos.x.to_bits(), v.pos.y.to_bits())));
        }
    }

    #[test]
    fn tsvs_avoid_macros_but_f2f_vias_do_not() {
        let (nl, tech, outline) = folded(6, true);
        let mac_rect = nl
            .insts()
            .find(|(_, i)| i.master.is_macro())
            .map(|(_, i)| i.rect(&tech))
            .unwrap();
        let tsv = place_vias(&nl, &tech, outline, BondingStyle::FaceToBack).unwrap();
        for v in tsv.iter() {
            assert!(!mac_rect.contains(v.pos), "TSV at {} over macro", v.pos);
        }
        let f2f = place_vias(&nl, &tech, outline, BondingStyle::FaceToFace).unwrap();
        // the ideal spots are inside the macro, and F2F may use them
        assert!(f2f.iter().any(|v| mac_rect.contains(v.pos)));
        // which makes the F2F assignment strictly closer to ideal
        assert!(f2f.mean_displacement_um() < tsv.mean_displacement_um());
    }

    #[test]
    fn keepouts_only_for_tsv() {
        let (nl, tech, outline) = folded(3, false);
        let tsv = place_vias(&nl, &tech, outline, BondingStyle::FaceToBack).unwrap();
        assert_eq!(tsv.keepouts(&tech).len(), 3);
        let f2f = place_vias(&nl, &tech, outline, BondingStyle::FaceToFace).unwrap();
        assert!(f2f.keepouts(&tech).is_empty());
    }
}
