//! Supply/demand spreading by monotone 1-D equalization.
//!
//! After each quadratic solve the cells cluster in dense knots. This pass
//! remaps cell coordinates so that the cumulative *demand* distribution
//! matches the cumulative *supply* distribution bin-row by bin-row (x
//! pass) and bin-column by bin-column (y pass). Macro holes carry zero
//! supply, so the monotone remap transports cells around them — no halos,
//! regardless of macro size (the §4.2 requirement).

use crate::{MacroMode, Obstacle, PlacerConfig};
use foldic_geom::{BinGrid, DensityMap, Point, Rect, Tier};
use foldic_netlist::{InstId, Netlist};
use foldic_tech::Technology;

/// Damping of the equalization move (1.0 = jump straight to the target).
const DAMP: f64 = 0.65;

/// One tier's spreading state for a placement call. The bin grid, the
/// bin capacities (the hole-punched density map's supply) and the movable
/// cells with their areas depend only on the outline, the config, the
/// obstacles and the fixed macros, and neither the solves nor the
/// spreading passes change anything but movable positions, so the placer
/// builds this once per call and runs every iteration's pass on it. The
/// passes' work buffers live here too and are refilled per pass.
#[derive(Debug)]
pub(crate) struct TierSpreader {
    /// Bins over the outline (its region *is* the outline).
    grid: BinGrid,
    /// Bin capacities lane by lane, for the x pass (lanes are bin rows)
    /// and the y pass (lanes are bin columns).
    cap: [Vec<f64>; 2],
    /// The tier's movable cells and their areas, in instance order.
    cells: Vec<(InstId, f64)>,
    work: Work,
}

/// The per-pass buffers of [`TierSpreader`].
#[derive(Debug, Default)]
struct Work {
    /// Cell positions, in `cells` order.
    pos: Vec<Point>,
    /// Demand per (lane, bin), lane-major.
    demand: Vec<f64>,
    /// Lane membership as a CSR: lane `l`'s cells, in cell order, are
    /// `members[lane_off[l]..lane_off[l + 1]]`.
    lane_off: Vec<u32>,
    members: Vec<u32>,
    /// Each cell's lane, and the fill cursor of each lane.
    lane_of: Vec<u32>,
    cursor: Vec<u32>,
    /// One lane's water-filled demand and both cumulative profiles.
    dp: Vec<f64>,
    d_cum: Vec<f64>,
    dp_cum: Vec<f64>,
}

impl TierSpreader {
    /// Builds the state for the movable cells of `tier` (`None` = all
    /// tiers, for unfolded blocks).
    pub(crate) fn new(
        netlist: &Netlist,
        tech: &Technology,
        outline: Rect,
        cfg: &PlacerConfig,
        obstacles: &[Obstacle],
        tier: Option<Tier>,
    ) -> Self {
        let min_dim = outline.width().min(outline.height());
        let bin = (cfg.bin_rows * tech.row_height).clamp(min_dim / 32.0, min_dim / 8.0);
        let grid = BinGrid::with_bin_size(outline, bin);
        let mut dm = DensityMap::new(grid.clone(), cfg.target_util);
        // macros: holes (the paper's §4.2 fix) or plain demand inflation
        // (the Kraftwerk2 baseline that leaves halos)
        for (_, inst) in netlist.insts() {
            if inst.fixed && inst.master.is_macro() && tier.is_none_or(|t| inst.tier == t) {
                match cfg.macro_mode {
                    MacroMode::Hole => dm.punch_hole(inst.rect(tech)),
                    MacroMode::DemandInflation => {
                        // the macro participates in the spreading system as a
                        // huge immovable demand; its pressure pushes cells
                        // beyond the physical outline — the halo whitespace
                        // Kraftwerk2-style handling leaves around big macros
                        let r = inst.rect(tech);
                        let halo = 0.2 * r.width().min(r.height());
                        dm.punch_hole(r.inflated(halo));
                    }
                }
            }
        }
        for ob in obstacles {
            if tier.is_none() || ob.tier.is_none() || ob.tier == tier {
                dm.punch_hole(ob.rect);
            }
        }
        let cap = [Axis::X, Axis::Y].map(|axis| {
            let (lanes, bins_per_lane) = axis.shape(&grid);
            (0..lanes)
                .flat_map(|lane| (0..bins_per_lane).map(move |b| axis.bin(lane, b)))
                .map(|(c, r)| dm.supply(c, r))
                .collect()
        });
        let cells = netlist
            .insts()
            .filter(|(_, i)| !i.fixed && tier.is_none_or(|t| i.tier == t))
            .map(|(id, i)| (id, i.area_um2(tech)))
            .collect();
        Self {
            grid,
            cap,
            cells,
            work: Work::default(),
        }
    }

    /// Runs one x+y equalization pass from the cells' current positions.
    pub(crate) fn equalize(&mut self, netlist: &mut Netlist) {
        if self.cells.is_empty() {
            return;
        }
        let Self {
            grid,
            cap,
            cells,
            work,
        } = self;
        work.pos.clear();
        work.pos
            .extend(cells.iter().map(|&(id, _)| netlist.pos(id)));

        // --- x pass: equalize within each bin row ---------------------------
        work.remap_axis(grid, &cap[0], cells, Axis::X);
        // --- y pass: equalize within each bin column ------------------------
        work.remap_axis(grid, &cap[1], cells, Axis::Y);

        let outline = grid.region();
        for (&(id, _), p) in cells.iter().zip(&work.pos) {
            netlist.set_pos(id, p.clamped(outline));
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Axis {
    X,
    Y,
}

impl Axis {
    /// `(lanes, bins per lane)` of a pass along this axis.
    fn shape(self, grid: &BinGrid) -> (usize, usize) {
        match self {
            Axis::X => (grid.rows(), grid.cols()),
            Axis::Y => (grid.cols(), grid.rows()),
        }
    }

    /// The `(column, row)` of bin `b` of `lane`.
    fn bin(self, lane: usize, b: usize) -> (usize, usize) {
        match self {
            Axis::X => (b, lane),
            Axis::Y => (lane, b),
        }
    }
}

impl Work {
    /// Equalizes one axis with **overflow-driven** transport: for every
    /// lane of bins perpendicular to `axis`, overflow (demand beyond
    /// capacity `cap`) is water-filled into the nearest bins with spare
    /// capacity, and cells are remapped monotonically from the old
    /// cumulative demand profile onto the feasible one. Bins below
    /// capacity keep their cells in place — an under-utilized region
    /// (e.g. the sparse logic channels of a macro-dominated block) is
    /// never stretched to fill its whitespace.
    fn remap_axis(&mut self, grid: &BinGrid, cap: &[f64], cells: &[(InstId, f64)], axis: Axis) {
        let (lanes, bins_per_lane) = axis.shape(grid);
        let Self {
            pos,
            demand,
            lane_off,
            members,
            lane_of,
            cursor,
            dp,
            d_cum,
            dp_cum,
        } = self;
        // demand per (lane, bin) from current positions, summed in cell
        // order, and each lane's cells by counting sort (cell order kept)
        demand.clear();
        demand.resize(lanes * bins_per_lane, 0.0);
        lane_off.clear();
        lane_off.resize(lanes + 1, 0);
        lane_of.clear();
        for (k, p) in pos.iter().enumerate() {
            let (c, r) = grid.bin_of(*p);
            let (lane, b) = match axis {
                Axis::X => (r, c),
                Axis::Y => (c, r),
            };
            demand[lane * bins_per_lane + b] += cells[k].1;
            lane_of.push(lane as u32);
            lane_off[lane + 1] += 1;
        }
        for lane in 0..lanes {
            lane_off[lane + 1] += lane_off[lane];
        }
        cursor.clear();
        cursor.extend_from_slice(&lane_off[..lanes]);
        members.clear();
        members.resize(pos.len(), 0);
        for (k, &lane) in lane_of.iter().enumerate() {
            members[cursor[lane as usize] as usize] = k as u32;
            cursor[lane as usize] += 1;
        }

        let region = grid.region();
        for lane in 0..lanes {
            let lane_cells = &members[lane_off[lane] as usize..lane_off[lane + 1] as usize];
            if lane_cells.is_empty() {
                continue;
            }
            let bins = lane * bins_per_lane..(lane + 1) * bins_per_lane;
            let (d, cap) = (&demand[bins.clone()], &cap[bins]);
            if d.iter().zip(cap).all(|(di, ci)| di <= ci) {
                continue; // lane already feasible: nothing moves
            }
            // water-fill the overflow into neighbouring spare capacity
            dp.clear();
            dp.extend_from_slice(d);
            for _ in 0..2 {
                // left -> right
                for b in 0..bins_per_lane - 1 {
                    let e = dp[b] - cap[b];
                    if e > 0.0 {
                        dp[b] -= e;
                        dp[b + 1] += e;
                    }
                }
                // right -> left
                for b in (1..bins_per_lane).rev() {
                    let e = dp[b] - cap[b];
                    if e > 0.0 {
                        dp[b] -= e;
                        dp[b - 1] += e;
                    }
                }
            }
            // monotone remap: old cumulative demand -> new cumulative demand
            d_cum.clear();
            d_cum.resize(bins_per_lane + 1, 0.0);
            dp_cum.clear();
            dp_cum.resize(bins_per_lane + 1, 0.0);
            for b in 0..bins_per_lane {
                d_cum[b + 1] = d_cum[b] + d[b];
                dp_cum[b + 1] = dp_cum[b] + dp[b];
            }
            let total = d_cum[bins_per_lane];
            if total <= 0.0 {
                continue;
            }
            let (lo, step) = match axis {
                Axis::X => (region.llx, grid.bin_width()),
                Axis::Y => (region.lly, grid.bin_height()),
            };
            for &k in lane_cells {
                let k = k as usize;
                let coord = match axis {
                    Axis::X => pos[k].x,
                    Axis::Y => pos[k].y,
                };
                let fbin = ((coord - lo) / step).clamp(0.0, bins_per_lane as f64 - 1e-9);
                let b = fbin as usize;
                let frac = fbin - b as f64;
                let here = d_cum[b] + frac * (d_cum[b + 1] - d_cum[b]);
                // invert the new profile at the same cumulative mass: the
                // first bin whose upper edge reaches `here`, else the last.
                // `dp_cum` is non-decreasing (water-filling keeps every `dp`
                // non-negative), so the test flips once and a binary search
                // finds that bin; a NaN `here` reaches no bin.
                let t = here - 1e-12;
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let nb = dp_cum[1..]
                    .partition_point(|&c| !(c >= t))
                    .min(bins_per_lane - 1);
                let seg = dp_cum[nb + 1] - dp_cum[nb];
                let f = if seg > 0.0 {
                    ((here - dp_cum[nb]) / seg).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                let new_coord = lo + (nb as f64 + f) * step;
                let c = match axis {
                    Axis::X => &mut pos[k].x,
                    Axis::Y => &mut pos[k].y,
                };
                *c += DAMP * (new_coord - *c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::InstMaster;
    use foldic_tech::{CellKind, Drive, VthClass};

    /// The spreading pass `TierSpreader` replaces, verbatim: it rebuilds
    /// the grid, the density map and the movable list on every call and
    /// inverts the water-filled profile with a linear scan.
    fn equalize_tier_reference(
        netlist: &mut Netlist,
        tech: &Technology,
        outline: Rect,
        cfg: &PlacerConfig,
        obstacles: &[Obstacle],
        tier: Option<Tier>,
    ) {
        let min_dim = outline.width().min(outline.height());
        let bin = (cfg.bin_rows * tech.row_height).clamp(min_dim / 32.0, min_dim / 8.0);
        let grid = BinGrid::with_bin_size(outline, bin);
        let mut dm = DensityMap::new(grid.clone(), cfg.target_util);
        // macros: holes (the paper's §4.2 fix) or plain demand inflation
        // (the Kraftwerk2 baseline that leaves halos)
        for (_, inst) in netlist.insts() {
            if inst.fixed && inst.master.is_macro() && tier.is_none_or(|t| inst.tier == t) {
                match cfg.macro_mode {
                    MacroMode::Hole => dm.punch_hole(inst.rect(tech)),
                    MacroMode::DemandInflation => {
                        // the macro participates in the spreading system as a
                        // huge immovable demand; its pressure pushes cells
                        // beyond the physical outline — the halo whitespace
                        // Kraftwerk2-style handling leaves around big macros
                        let r = inst.rect(tech);
                        let halo = 0.2 * r.width().min(r.height());
                        dm.punch_hole(r.inflated(halo));
                    }
                }
            }
        }
        for ob in obstacles {
            if tier.is_none() || ob.tier.is_none() || ob.tier == tier {
                dm.punch_hole(ob.rect);
            }
        }

        let movable: Vec<(InstId, Point, f64)> = netlist
            .insts()
            .filter(|(_, i)| !i.fixed && tier.is_none_or(|t| i.tier == t))
            .map(|(id, i)| (id, i.pos, i.area_um2(tech)))
            .collect();
        if movable.is_empty() {
            return;
        }

        let mut pos: Vec<Point> = movable.iter().map(|m| m.1).collect();

        // --- x pass: equalize within each bin row -------------------------------
        remap_axis_reference(&grid, &dm, &movable, &mut pos, Axis::X);
        // --- y pass: equalize within each bin column ----------------------------
        remap_axis_reference(&grid, &dm, &movable, &mut pos, Axis::Y);

        for ((id, _, _), p) in movable.iter().zip(&pos) {
            netlist.inst_mut(*id).pos = p.clamped(outline);
        }
    }

    /// `remap_axis` with the retired linear-scan inversion. Equalizes one
    /// axis with **overflow-driven** transport: for every lane
    /// of bins perpendicular to `axis`, overflow (demand beyond capacity) is
    /// water-filled into the nearest bins with spare capacity, and cells are
    /// remapped monotonically from the old cumulative demand profile onto the
    /// feasible one. Bins below capacity keep their cells in place — an
    /// under-utilized region (e.g. the sparse logic channels of a
    /// macro-dominated block) is never stretched to fill its whitespace.
    fn remap_axis_reference(
        grid: &BinGrid,
        dm: &DensityMap,
        movable: &[(InstId, Point, f64)],
        pos: &mut [Point],
        axis: Axis,
    ) {
        let (lanes, bins_per_lane) = match axis {
            Axis::X => (grid.rows(), grid.cols()),
            Axis::Y => (grid.cols(), grid.rows()),
        };
        // demand per (lane, bin) from current positions
        let mut demand = vec![0.0f64; lanes * bins_per_lane];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for (k, p) in pos.iter().enumerate() {
            let (c, r) = grid.bin_of(*p);
            let (lane, b) = match axis {
                Axis::X => (r, c),
                Axis::Y => (c, r),
            };
            demand[lane * bins_per_lane + b] += movable[k].2;
            members[lane].push(k);
        }
        let region = grid.region();
        for lane in 0..lanes {
            if members[lane].is_empty() {
                continue;
            }
            let cap: Vec<f64> = (0..bins_per_lane)
                .map(|b| {
                    let (c, r) = match axis {
                        Axis::X => (b, lane),
                        Axis::Y => (lane, b),
                    };
                    dm.supply(c, r)
                })
                .collect();
            let d: Vec<f64> = (0..bins_per_lane)
                .map(|b| demand[lane * bins_per_lane + b])
                .collect();
            if d.iter().zip(&cap).all(|(di, ci)| di <= ci) {
                continue; // lane already feasible: nothing moves
            }
            // water-fill the overflow into neighbouring spare capacity
            let mut dp = d.clone();
            for _ in 0..2 {
                // left -> right
                for b in 0..bins_per_lane - 1 {
                    let e = dp[b] - cap[b];
                    if e > 0.0 {
                        dp[b] -= e;
                        dp[b + 1] += e;
                    }
                }
                // right -> left
                for b in (1..bins_per_lane).rev() {
                    let e = dp[b] - cap[b];
                    if e > 0.0 {
                        dp[b] -= e;
                        dp[b - 1] += e;
                    }
                }
            }
            // monotone remap: old cumulative demand -> new cumulative demand
            let mut d_cum = vec![0.0; bins_per_lane + 1];
            let mut dp_cum = vec![0.0; bins_per_lane + 1];
            for b in 0..bins_per_lane {
                d_cum[b + 1] = d_cum[b] + d[b];
                dp_cum[b + 1] = dp_cum[b] + dp[b];
            }
            let total = d_cum[bins_per_lane];
            if total <= 0.0 {
                continue;
            }
            let (lo, step) = match axis {
                Axis::X => (region.llx, grid.bin_width()),
                Axis::Y => (region.lly, grid.bin_height()),
            };
            for &k in &members[lane] {
                let coord = match axis {
                    Axis::X => pos[k].x,
                    Axis::Y => pos[k].y,
                };
                let fbin = ((coord - lo) / step).clamp(0.0, bins_per_lane as f64 - 1e-9);
                let b = fbin as usize;
                let frac = fbin - b as f64;
                let here = d_cum[b] + frac * (d_cum[b + 1] - d_cum[b]);
                // invert the new profile at the same cumulative mass
                let mut nb = bins_per_lane - 1;
                for bb in 0..bins_per_lane {
                    if dp_cum[bb + 1] >= here - 1e-12 {
                        nb = bb;
                        break;
                    }
                }
                let seg = dp_cum[nb + 1] - dp_cum[nb];
                let f = if seg > 0.0 {
                    ((here - dp_cum[nb]) / seg).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                let new_coord = lo + (nb as f64 + f) * step;
                let c = match axis {
                    Axis::X => &mut pos[k].x,
                    Axis::Y => &mut pos[k].y,
                };
                *c += DAMP * (new_coord - *c);
            }
        }
    }

    /// All cells start stacked in one corner; after a few equalization
    /// passes the bin overflow must drop dramatically.
    #[test]
    fn spreading_reduces_overflow() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Nand2, Drive::X2, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 60.0, 60.0);
        let mut nl = Netlist::new("blob");
        for i in 0..400 {
            let id = nl.add_inst(format!("c{i}"), master);
            nl.inst_mut(id).pos =
                Point::new(5.0 + (i % 7) as f64 * 0.3, 5.0 + (i / 7) as f64 * 0.2);
        }
        let cfg = PlacerConfig::fast();
        let overflow = |nl: &Netlist| {
            let grid = BinGrid::with_bin_size(outline, 6.0);
            let mut dm = DensityMap::new(grid, cfg.target_util);
            for (_, inst) in nl.insts() {
                dm.add_demand(inst.rect(&tech), inst.area_um2(&tech));
            }
            dm.overflow()
        };
        let before = overflow(&nl);
        let mut spreader = TierSpreader::new(&nl, &tech, outline, &cfg, &[], None);
        for _ in 0..6 {
            spreader.equalize(&mut nl);
        }
        let after = overflow(&nl);
        assert!(after < 0.35 * before, "overflow {before} -> {after}");
    }

    /// Cells must flow around a hole, not into it.
    #[test]
    fn holes_stay_empty() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 60.0, 60.0);
        let hole = Rect::new(20.0, 20.0, 40.0, 40.0);
        let mut nl = Netlist::new("hole");
        for i in 0..300 {
            let id = nl.add_inst(format!("c{i}"), master);
            // start everyone inside the future hole
            nl.inst_mut(id).pos = Point::new(21.0 + (i % 10) as f64, 21.0 + (i / 10) as f64 * 0.5);
        }
        let cfg = PlacerConfig::fast();
        let obstacles = [Obstacle {
            rect: hole,
            tier: None,
        }];
        let mut spreader = TierSpreader::new(&nl, &tech, outline, &cfg, &obstacles, None);
        for _ in 0..8 {
            spreader.equalize(&mut nl);
        }
        // the density grid punches whole bins only, so measure against the
        // interior that is guaranteed to be holed (bins fully covered)
        let inside = nl
            .insts()
            .filter(|(_, i)| hole.inflated(-4.0).contains(i.pos))
            .count();
        assert!(inside <= 10, "{inside} cells still deep inside the hole");
    }

    /// The per-call spreader must reproduce the rebuild-per-iteration,
    /// linear-scan pass bit for bit across iterations: a folded tiny-T2
    /// block with macros and TSV keep-outs on each tier and on both,
    /// under both macro modes, with a quadratic solve before every pass
    /// as in the placer.
    #[test]
    fn per_call_spreader_matches_the_rebuilding_pass_bitwise() {
        let (mut design, tech) = foldic_t2::T2Config::tiny().generate();
        let id = design.find_block("l2d0").unwrap();
        let outline = design.block(id).outline;
        let nl = &mut design.block_mut(id).netlist;
        let part =
            foldic_partition::bipartition(nl, &tech, &foldic_partition::PartitionConfig::default());
        foldic_partition::apply_partition(nl, &part);
        assert!(nl.insts().any(|(_, i)| i.fixed && i.master.is_macro()));
        // a lattice of TSV keep-outs cycling bottom / top / both: 12 µm
        // arrays that hole whole bins and single 4 µm sites that only
        // shave supply
        let tiers = [Some(Tier::Bottom), Some(Tier::Top), None];
        let mut obstacles = Vec::new();
        for k in 0..36 {
            let x = outline.llx + outline.width() * ((k % 6) as f64 + 0.5) / 6.0;
            let y = outline.lly + outline.height() * ((k / 6) as f64 + 0.5) / 6.0;
            let half = if k % 2 == 0 { 6.0 } else { 2.0 };
            obstacles.push(Obstacle {
                rect: Rect::new(x - half, y - half, x + half, y + half),
                tier: tiers[k % 3],
            });
        }
        for macro_mode in [MacroMode::Hole, MacroMode::DemandInflation] {
            let cfg = PlacerConfig {
                macro_mode,
                ..PlacerConfig::quality()
            };
            let mut nl = nl.clone();
            let mut system = crate::QuadraticSystem::build(&nl, outline);
            let mut spreaders: Vec<TierSpreader> = tiers[..2]
                .iter()
                .map(|&t| TierSpreader::new(&nl, &tech, outline, &cfg, &obstacles, t))
                .collect();
            for iter in 0..4 {
                let anchor_w = cfg.anchor_growth * (iter as f64 + 0.3);
                system.solve(&mut nl, outline, cfg.cg_iterations, anchor_w);
                let mut reference = nl.clone();
                for spreader in &mut spreaders {
                    spreader.equalize(&mut nl);
                }
                for &t in &tiers[..2] {
                    equalize_tier_reference(&mut reference, &tech, outline, &cfg, &obstacles, t);
                }
                let mut moved = 0;
                for ((_, a), (_, b)) in nl.insts().zip(reference.insts()) {
                    assert_eq!(
                        (a.pos.x.to_bits(), a.pos.y.to_bits()),
                        (b.pos.x.to_bits(), b.pos.y.to_bits()),
                        "{macro_mode:?} iteration {iter}: {} drifted",
                        nl.name_of(a.name)
                    );
                    moved += usize::from(!a.fixed);
                }
                assert!(moved > 0);
            }
        }
    }
}
