//! Abacus-style row legalization around macros and obstacles.
//!
//! Cells of a tier are snapped into standard-cell rows; each row is split
//! into free segments by the macros (and TSV obstacles) on that tier.
//! Within a segment, cells are packed by the Abacus cluster-collapse
//! method: clusters of touching cells share an optimal position (the mean
//! of their desired left edges), so the segment never strands dead space
//! while displacement stays minimal.

use crate::Obstacle;
use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{InstId, Netlist};
use foldic_tech::Technology;

#[derive(Debug)]
struct Segment {
    x0: f64,
    x1: f64,
    used: f64,
    /// `(inst, desired left edge, width)`
    cells: Vec<(InstId, f64, f64)>,
}

impl Segment {
    fn width(&self) -> f64 {
        self.x1 - self.x0
    }
}

#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Σ (desired left edge − offset inside cluster)
    q: f64,
    /// total width
    w: f64,
    /// cell count
    n: usize,
    /// first cell index in the segment's sorted order
    first: usize,
}

/// Legalizes the movable cells of `tier` (`None` = all tiers) into rows.
pub fn legalize_tier(
    netlist: &mut Netlist,
    tech: &Technology,
    outline: Rect,
    obstacles: &[Obstacle],
    tier: Option<Tier>,
) {
    let row_h = tech.row_height;
    let num_rows = ((outline.height() / row_h).floor() as usize).max(1);

    // blocked rects on this tier
    let mut blocked: Vec<Rect> = netlist
        .insts()
        .filter(|(_, i)| i.fixed && i.master.is_macro() && tier.is_none_or(|t| i.tier == t))
        .map(|(_, i)| i.rect(tech).inflated(0.2))
        .collect();
    blocked.extend(
        obstacles
            .iter()
            .filter(|o| tier.is_none() || o.tier.is_none() || o.tier == tier)
            .map(|o| o.rect),
    );

    // build row segments
    let mut rows: Vec<Vec<Segment>> = Vec::with_capacity(num_rows);
    for r in 0..num_rows {
        let y0 = outline.lly + r as f64 * row_h;
        let row_rect = Rect::new(outline.llx, y0, outline.urx, y0 + row_h);
        let mut cuts: Vec<(f64, f64)> = blocked
            .iter()
            .filter(|b| b.overlaps(row_rect))
            .map(|b| (b.llx, b.urx))
            .collect();
        cuts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut segs = Vec::new();
        let mut x = outline.llx;
        for (c0, c1) in cuts {
            if c0 > x {
                segs.push(Segment {
                    x0: x,
                    x1: c0,
                    used: 0.0,
                    cells: Vec::new(),
                });
            }
            x = x.max(c1);
        }
        if x < outline.urx {
            segs.push(Segment {
                x0: x,
                x1: outline.urx,
                used: 0.0,
                cells: Vec::new(),
            });
        }
        rows.push(segs);
    }

    // assign each cell to a segment (nearest row with room), x order
    let mut cells: Vec<(InstId, Point, f64)> = netlist
        .insts()
        .filter(|(_, i)| !i.fixed && !i.master.is_macro() && tier.is_none_or(|t| i.tier == t))
        .map(|(id, i)| {
            let (w, _) = i.dims_um(tech);
            (id, i.pos, w)
        })
        .collect();
    cells.sort_by(|a, b| a.1.x.total_cmp(&b.1.x).then(a.1.y.total_cmp(&b.1.y)));

    for (id, want, w) in cells {
        let want_row = (((want.y - outline.lly) / row_h).floor() as isize)
            .clamp(0, num_rows as isize - 1) as usize;
        let mut best: Option<(usize, usize, f64)> = None; // (row, seg, cost)
        for radius in 0..num_rows {
            for row in row_candidates(want_row, radius, num_rows) {
                let y = outline.lly + (row as f64 + 0.5) * row_h;
                for (si, seg) in rows[row].iter().enumerate() {
                    if seg.used + w > seg.width() {
                        continue;
                    }
                    // x displacement lower bound: distance from the
                    // desired spot to the segment interval
                    let dx = if want.x < seg.x0 {
                        seg.x0 - want.x
                    } else if want.x > seg.x1 {
                        want.x - seg.x1
                    } else {
                        0.0
                    };
                    let cost = dx + (y - want.y).abs();
                    if best.as_ref().is_none_or(|b| cost < b.2) {
                        best = Some((row, si, cost));
                    }
                }
            }
            if let Some(b) = &best {
                if radius as f64 * row_h > b.2 {
                    break;
                }
            }
        }
        match best {
            Some((row, si, _)) => {
                let seg = &mut rows[row][si];
                seg.used += w;
                seg.cells.push((id, want.x - w / 2.0, w));
            }
            None => {
                // over-full block: clamp the footprint inside the outline
                let half = w / 2.0;
                let x = want.x.clamp(
                    outline.llx + half,
                    (outline.urx - half).max(outline.llx + half),
                );
                let y = outline.lly + (want_row as f64 + 0.5) * row_h;
                netlist.set_pos(id, Point::new(x, y));
            }
        }
    }

    // Abacus collapse per segment, then write back final positions.
    for (r, segs) in rows.iter_mut().enumerate() {
        let y = outline.lly + (r as f64 + 0.5) * row_h;
        for seg in segs {
            if seg.cells.is_empty() {
                continue;
            }
            seg.cells.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut clusters: Vec<Cluster> = Vec::new();
            for (i, &(_, e, w)) in seg.cells.iter().enumerate() {
                clusters.push(Cluster {
                    q: e,
                    w,
                    n: 1,
                    first: i,
                });
                // merge while the new cluster overlaps its predecessor
                loop {
                    let len = clusters.len();
                    if len < 2 {
                        break;
                    }
                    let prev = clusters[len - 2];
                    let cur = clusters[len - 1];
                    let prev_x = cluster_pos(&prev, seg);
                    let cur_x = cluster_pos(&cur, seg);
                    if prev_x + prev.w <= cur_x + 1e-9 {
                        break;
                    }
                    // merge cur into prev: cur's offsets shift by prev.w
                    let merged = Cluster {
                        q: prev.q + cur.q - cur.n as f64 * prev.w,
                        w: prev.w + cur.w,
                        n: prev.n + cur.n,
                        first: prev.first,
                    };
                    clusters.truncate(len - 2);
                    clusters.push(merged);
                }
            }
            for c in &clusters {
                let mut x = cluster_pos(c, seg);
                for k in 0..c.n {
                    let (id, _, w) = seg.cells[c.first + k];
                    netlist.set_pos(id, Point::new(x + w / 2.0, y));
                    x += w;
                }
            }
        }
    }
}

fn cluster_pos(c: &Cluster, seg: &Segment) -> f64 {
    (c.q / c.n as f64).clamp(seg.x0, (seg.x1 - c.w).max(seg.x0))
}

/// The rows `radius` away from `center`: below first, then above, each
/// only if it exists (the centre row alone at radius 0).
fn row_candidates(center: usize, radius: usize, num_rows: usize) -> impl Iterator<Item = usize> {
    let below = center.checked_sub(radius);
    let above = (radius > 0 && center + radius < num_rows).then_some(center + radius);
    below.into_iter().chain(above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::InstMaster;
    use foldic_tech::{CellKind, Drive, VthClass};

    #[test]
    fn stacked_cells_get_separated() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Nand2, Drive::X2, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 40.0, 24.0);
        let mut nl = Netlist::new("stack");
        for i in 0..60 {
            let id = nl.add_inst(format!("c{i}"), master);
            nl.inst_mut(id).pos = Point::new(20.0, 12.0); // all on one spot
        }
        legalize_tier(&mut nl, &tech, outline, &[], None);
        // pairwise overlaps must be (nearly) zero
        let rects: Vec<Rect> = nl.insts().map(|(_, i)| i.rect(&tech)).collect();
        let mut overlap = 0.0;
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                if let Some(x) = a.intersection(*b) {
                    overlap += x.area();
                }
            }
        }
        assert!(overlap < 1e-6, "residual overlap {overlap}");
        // everyone on a row centre
        for r in &rects {
            let c = r.center();
            let frac = ((c.y / tech.row_height) - 0.5).fract().abs();
            assert!(frac < 1e-6 || (frac - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn abacus_preserves_spread_positions() {
        // Cells already legally spaced must barely move.
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 100.0, 2.4);
        let mut nl = Netlist::new("spread");
        let mut ids = Vec::new();
        for i in 0..10 {
            let id = nl.add_inst(format!("c{i}"), master);
            nl.inst_mut(id).pos = Point::new(5.0 + 10.0 * i as f64, 0.6);
            ids.push(id);
        }
        legalize_tier(&mut nl, &tech, outline, &[], None);
        for (i, &id) in ids.iter().enumerate() {
            let p = nl.inst(id).pos;
            assert!(
                (p.x - (5.0 + 10.0 * i as f64)).abs() < 0.5,
                "cell {i} moved to {p}"
            );
        }
    }

    #[test]
    fn cells_never_land_on_obstacles() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 30.0, 12.0);
        let hole = Rect::new(10.0, 0.0, 20.0, 12.0);
        let mut nl = Netlist::new("obst");
        for i in 0..40 {
            let id = nl.add_inst(format!("c{i}"), master);
            nl.inst_mut(id).pos = Point::new(15.0, 6.0); // in the middle of the hole
        }
        legalize_tier(
            &mut nl,
            &tech,
            outline,
            &[Obstacle {
                rect: hole,
                tier: None,
            }],
            None,
        );
        for (_, inst) in nl.insts() {
            assert!(
                !hole.overlaps(inst.rect(&tech).inflated(-0.01)),
                "{} at {}",
                nl.name_of(inst.name),
                inst.pos
            );
        }
    }

    #[test]
    fn per_tier_legalization_ignores_other_tier() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 20.0, 6.0);
        let mut nl = Netlist::new("tiers");
        let a = nl.add_inst("a", master);
        let b = nl.add_inst("b", master);
        nl.inst_mut(a).pos = Point::new(10.0, 3.0);
        nl.inst_mut(b).pos = Point::new(10.0, 3.0);
        nl.inst_mut(b).tier = Tier::Top;
        legalize_tier(&mut nl, &tech, outline, &[], Some(Tier::Bottom));
        // a is snapped to a row; b untouched
        assert_eq!(nl.inst(b).pos, Point::new(10.0, 3.0));
    }
}
