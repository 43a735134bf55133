//! Spatial netlist synthesis for one block.
//!
//! Every cell receives a physical seed location inside the block outline;
//! nets are drawn with a distance-biased sink selection so that placement
//! recovers a realistic wirelength distribution. Group structure (FUBs,
//! PCX/CPX) constrains where cells live and how nets cross groups.

use crate::spec::{BlockSpec, GroupPlan, MacroLayout};
use crate::T2Config;
use foldic_geom::{Point, Rect};
use foldic_netlist::{Block, GroupId, InstId, InstMaster, Netlist, PinRef, PortDir};
use foldic_tech::{CellKind, Drive, Technology, VthClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 14 functional unit blocks of a SPARC core with their share of the
/// core's logic. The six marked `true` are the ones §4.5 folds.
pub const SPC_FUBS: [(&str, f64, bool); 14] = [
    ("exu0", 0.08, true),
    ("exu1", 0.08, true),
    ("fgu", 0.14, true),
    ("lsu", 0.14, true),
    ("tlu", 0.10, true),
    ("ifu_ftu", 0.10, true),
    ("ifu_cmu", 0.05, false),
    ("ifu_ibu", 0.05, false),
    ("mmu", 0.06, false),
    ("gkt", 0.04, false),
    ("pku", 0.05, false),
    ("pmu", 0.03, false),
    ("dec", 0.04, false),
    ("spu", 0.04, false),
];

/// Number of interleaved PCX/CPX stripes the 2D crossbar layout splits
/// into (the port-driven fragmentation of Fig. 2(a)).
const CCX_SEGMENTS: usize = 16;

struct CellPlan {
    kind: CellKind,
    drive: Drive,
}

/// Samples a combinational/sequential cell mix.
fn sample_cell(rng: &mut StdRng, flop_frac: f64) -> CellPlan {
    if rng.gen::<f64>() < flop_frac {
        return CellPlan {
            kind: CellKind::Dff,
            drive: Drive::X1,
        };
    }
    let kinds = [
        (CellKind::Nand2, 0.20),
        (CellKind::Inv, 0.15),
        (CellKind::Mux2, 0.12),
        (CellKind::Nor2, 0.10),
        (CellKind::Aoi21, 0.08),
        (CellKind::Oai21, 0.08),
        (CellKind::And2, 0.08),
        (CellKind::Xor2, 0.08),
        (CellKind::Or2, 0.06),
        (CellKind::Buf, 0.05),
    ];
    let kind = weighted(rng, &kinds);
    let drives = [
        (Drive::X1, 0.40),
        (Drive::X2, 0.35),
        (Drive::X4, 0.20),
        (Drive::X8, 0.05),
    ];
    let drive = weighted(rng, &drives);
    CellPlan { kind, drive }
}

fn weighted<T: Copy>(rng: &mut StdRng, table: &[(T, f64)]) -> T {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut r = rng.gen::<f64>() * total;
    for &(v, w) in table {
        if r < w {
            return v;
        }
        r -= w;
    }
    table.last().expect("non-empty table").0
}

/// Fan-out distribution: mostly small, occasional control fan-outs.
fn sample_fanout(rng: &mut StdRng) -> usize {
    weighted(
        rng,
        &[
            (1usize, 0.45),
            (2, 0.22),
            (3, 0.12),
            (4, 0.08),
            (6, 0.05),
            (8, 0.04),
            (12, 0.02),
            (24, 0.015),
            (48, 0.005),
        ],
    )
}

/// Simple spatial bucket index over instance seed positions.
struct Buckets {
    grid_w: usize,
    grid_h: usize,
    w: f64,
    h: f64,
    cells: Vec<Vec<usize>>,
}

impl Buckets {
    fn new(w: f64, h: f64, positions: &[Point]) -> Self {
        let n = positions.len().max(1);
        let per_bucket = 12.0;
        let buckets = ((n as f64 / per_bucket).sqrt().ceil() as usize).max(1);
        let grid_w = buckets;
        let grid_h = buckets;
        let mut cells = vec![Vec::new(); grid_w * grid_h];
        for (i, p) in positions.iter().enumerate() {
            let (bx, by) = Self::bin(w, h, grid_w, grid_h, *p);
            cells[by * grid_w + bx].push(i);
        }
        Self {
            grid_w,
            grid_h,
            w,
            h,
            cells,
        }
    }

    fn bin(w: f64, h: f64, gw: usize, gh: usize, p: Point) -> (usize, usize) {
        let bx = ((p.x / w) * gw as f64).floor() as isize;
        let by = ((p.y / h) * gh as f64).floor() as isize;
        (
            bx.clamp(0, gw as isize - 1) as usize,
            by.clamp(0, gh as isize - 1) as usize,
        )
    }

    /// Picks a random instance whose seed position is near `p`, widening
    /// the search ring until something is found: one uniform draw over the
    /// ring's members, found by walking its bins in row-major order.
    fn pick_near(&self, p: Point, rng: &mut StdRng) -> Option<usize> {
        let (bx, by) = Self::bin(self.w, self.h, self.grid_w, self.grid_h, p);
        for ring in 0..self.grid_w.max(self.grid_h) {
            let count: usize = self.ring_bins(bx, by, ring).map(<[usize]>::len).sum();
            if count == 0 {
                continue;
            }
            let mut k = rng.gen_range(0..count);
            for bin in self.ring_bins(bx, by, ring) {
                if k < bin.len() {
                    return Some(bin[k]);
                }
                k -= bin.len();
            }
        }
        None
    }

    /// The bins of search ring `ring` around bin `(bx, by)`, row by row:
    /// only the ring boundary, since the interior was covered before.
    fn ring_bins(&self, bx: usize, by: usize, ring: usize) -> impl Iterator<Item = &[usize]> {
        let x0 = bx.saturating_sub(ring);
        let x1 = (bx + ring).min(self.grid_w - 1);
        let y0 = by.saturating_sub(ring);
        let y1 = (by + ring).min(self.grid_h - 1);
        (y0..=y1)
            .flat_map(move |y| (x0..=x1).map(move |x| (x, y)))
            .filter(move |&(x, y)| ring == 0 || x == x0 || x == x1 || y == y0 || y == y1)
            .map(|(x, y)| self.cells[y * self.grid_w + x].as_slice())
    }
}

/// Packs macros into legal fixed positions inside `outline`, returning
/// their centre positions. Grid layout fills the block interior (L2D
/// sub-arrays); ring layout lines the top and bottom edges.
fn pack_macros(layout: MacroLayout, dims: &[(f64, f64)], outline: Rect) -> Vec<Point> {
    if dims.is_empty() {
        return Vec::new();
    }
    let (bw, bh) = (outline.width(), outline.height());
    match layout {
        MacroLayout::Grid => {
            let (mw, mh) = dims[0];
            let n = dims.len();
            // choose a column count that fits the outline aspect
            let mut cols = ((bw / (mw * 1.15)).floor() as usize).clamp(1, n);
            let mut rows = n.div_ceil(cols);
            while rows as f64 * mh * 1.1 > bh && cols < n {
                cols += 1;
                rows = n.div_ceil(cols);
            }
            let gap_x = (bw - cols as f64 * mw) / (cols + 1) as f64;
            let gap_y = (bh - rows as f64 * mh) / (rows + 1) as f64;
            (0..n)
                .map(|i| {
                    let c = i % cols;
                    let r = i / cols;
                    Point::new(
                        gap_x + c as f64 * (mw + gap_x) + mw / 2.0,
                        gap_y + r as f64 * (mh + gap_y) + mh / 2.0,
                    )
                })
                .collect()
        }
        MacroLayout::Ring => {
            // alternate bottom edge, top edge; wrap into a second band
            // when an edge fills up (narrow blocks)
            let mut positions = Vec::with_capacity(dims.len());
            let mut x_bot = 4.0;
            let mut x_top = 4.0;
            let mut band_bot = 0.0;
            let mut band_top = 0.0;
            for (i, &(mw, mh)) in dims.iter().enumerate() {
                if i % 2 == 0 {
                    if x_bot + mw + 4.0 > bw {
                        x_bot = 4.0;
                        band_bot += mh + 4.0;
                    }
                    positions.push(Point::new(x_bot + mw / 2.0, band_bot + mh / 2.0 + 2.0));
                    x_bot += mw + 4.0;
                } else {
                    if x_top + mw + 4.0 > bw {
                        x_top = 4.0;
                        band_top += mh + 4.0;
                    }
                    positions.push(Point::new(x_top + mw / 2.0, bh - band_top - mh / 2.0 - 2.0));
                    x_top += mw + 4.0;
                }
            }
            positions
        }
    }
}

/// Group region plan: each group owns a sub-rectangle of the unit square.
fn group_regions(plan: GroupPlan) -> Vec<(String, f64, Rect)> {
    match plan {
        GroupPlan::Flat => vec![("all".to_owned(), 1.0, Rect::new(0.0, 0.0, 1.0, 1.0))],
        GroupPlan::Fubs => {
            // Tile the unit square with 14 regions: rows of 4,4,3,3.
            let rows = [4usize, 4, 3, 3];
            let mut regions = Vec::new();
            let mut fub = 0;
            for (r, &cols) in rows.iter().enumerate() {
                let y0 = r as f64 / rows.len() as f64;
                let y1 = (r + 1) as f64 / rows.len() as f64;
                for c in 0..cols {
                    let x0 = c as f64 / cols as f64;
                    let x1 = (c + 1) as f64 / cols as f64;
                    let (name, weight, _) = SPC_FUBS[fub];
                    regions.push((name.to_owned(), weight, Rect::new(x0, y0, x1, y1)));
                    fub += 1;
                }
            }
            regions
        }
        GroupPlan::CcxSplit => {
            // 16 interleaved horizontal stripes: even = pcx, odd = cpx.
            // Both groups span the whole block but live in alternating
            // stripes — the port-driven fragmentation of the 2D layout.
            // Regions are per-stripe; group identity is by parity.
            (0..CCX_SEGMENTS)
                .map(|s| {
                    let y0 = s as f64 / CCX_SEGMENTS as f64;
                    let y1 = (s + 1) as f64 / CCX_SEGMENTS as f64;
                    let name = if s % 2 == 0 { "pcx" } else { "cpx" };
                    (
                        name.to_owned(),
                        1.0 / CCX_SEGMENTS as f64,
                        Rect::new(0.0, y0, 1.0, y1),
                    )
                })
                .collect()
        }
    }
}

/// Synthesizes one block.
pub fn synthesize_block(
    spec: &BlockSpec,
    copy: usize,
    cfg: &T2Config,
    tech: &Technology,
    seed: u64,
) -> Block {
    let mut rng = StdRng::seed_from_u64(seed);
    let name = spec.instance_name(copy);
    let mut nl = Netlist::new(name.clone());
    // derived-name templates: one u32 per entity instead of a String each,
    // resolving to the exact text the old format! calls produced
    let t_mem = nl.name_template(&format!("{name}_mem"), "");
    let t_cell = nl.name_template(&format!("{name}_u"), "");
    let t_net = nl.name_template(&format!("n_{name}_"), "");
    let t_cklf = nl.name_template(&format!("{name}_cklf"), "");
    let t_ncklf = nl.name_template(&format!("n_{name}_cklf"), "");

    // ---- plan cells --------------------------------------------------------
    let n_cells = ((spec.cells as f64 * cfg.size).round() as usize).max(40);
    let plans: Vec<CellPlan> = (0..n_cells)
        .map(|_| sample_cell(&mut rng, spec.flop_frac))
        .collect();
    let cell_area: f64 = plans
        .iter()
        .map(|p| tech.cells.get(p.kind, p.drive, VthClass::Rvt).area_um2)
        .sum();

    // ---- macros ------------------------------------------------------------
    let macro_dims: Vec<(foldic_tech::MacroKind, f64, f64)> = spec
        .macros
        .iter()
        .flat_map(|&(kind, n)| {
            let m = tech.macros.get(kind);
            std::iter::repeat_n((kind, m.width_um, m.height_um), n)
        })
        .collect();
    let macro_area: f64 = macro_dims.iter().map(|&(_, w, h)| w * h).sum();

    // ---- outline -----------------------------------------------------------
    let total = (cell_area + macro_area) / spec.utilization;
    let mut bw = (total * spec.aspect).sqrt();
    let mut bh = total / bw;
    if let Some(&(_, mw, mh)) = macro_dims.first() {
        // make sure the outline can hold the macros with margin
        bw = bw.max(mw * 1.3);
        bh = bh.max(mh * 1.3);
        if spec.macro_layout == MacroLayout::Grid {
            // grid must fit: inflate until pack succeeds trivially
            let n = macro_dims.len() as f64;
            while (bw / (mw * 1.15)).floor() * (bh / (mh * 1.1)).floor() < n {
                bw *= 1.05;
                bh *= 1.05;
            }
        }
    }
    let outline = Rect::new(0.0, 0.0, bw, bh);

    // ---- groups ------------------------------------------------------------
    let regions = group_regions(spec.groups);
    // the group of each region; regions sharing a name share a group
    let mut region_group: Vec<GroupId> = Vec::with_capacity(regions.len());
    for (r, (gname, _, _)) in regions.iter().enumerate() {
        let id = match regions[..r].iter().position(|(n, _, _)| n == gname) {
            Some(first) => region_group[first],
            None => nl.add_group(gname),
        };
        region_group.push(id);
    }

    // ---- instantiate macros (fixed) -----------------------------------------
    let macro_centers = pack_macros(
        spec.macro_layout,
        &macro_dims
            .iter()
            .map(|&(_, w, h)| (w, h))
            .collect::<Vec<_>>(),
        outline,
    );
    let mut macro_insts: Vec<InstId> = Vec::new();
    for (i, (&(kind, _, _), &pos)) in macro_dims.iter().zip(&macro_centers).enumerate() {
        let id = nl.add_inst(t_mem.at(i), InstMaster::Macro(kind));
        let mut inst = nl.inst_mut(id);
        inst.pos = pos;
        inst.fixed = true;
        // macros join the region (group) containing their centre
        let v = Point::new(pos.x / bw, pos.y / bh);
        inst.group = regions
            .iter()
            .position(|(_, _, r)| r.contains(v))
            .map(|r| region_group[r]);
        macro_insts.push(id);
    }

    // ---- instantiate cells ---------------------------------------------------
    // Assign each cell to a region by weight, seed-position uniform in region.
    let region_weights: Vec<f64> = regions.iter().map(|(_, w, _)| *w).collect();
    let total_w: f64 = region_weights.iter().sum();
    let mut cell_ids: Vec<InstId> = Vec::with_capacity(n_cells);
    let mut positions: Vec<Point> = Vec::with_capacity(n_cells);
    let mut cell_groups: Vec<GroupId> = Vec::with_capacity(n_cells);
    for (i, plan) in plans.iter().enumerate() {
        let mut r = rng.gen::<f64>() * total_w;
        let mut region = 0;
        for (k, reg) in regions.iter().enumerate() {
            if r < reg.1 {
                region = k;
                break;
            }
            r -= reg.1;
        }
        let rect = regions[region].2;
        let p = Point::new(
            (rect.llx + rng.gen::<f64>() * rect.width()) * bw,
            (rect.lly + rng.gen::<f64>() * rect.height()) * bh,
        );
        let master = tech.cells.id_of(plan.kind, plan.drive, VthClass::Rvt);
        let id = nl.add_inst(t_cell.at(i), InstMaster::Cell(master));
        let gid = region_group[region];
        let mut inst = nl.inst_mut(id);
        inst.pos = p;
        inst.group = Some(gid);
        cell_ids.push(id);
        positions.push(p);
        cell_groups.push(gid);
    }

    let buckets = Buckets::new(bw, bh, &positions);
    // per-group member lists (indexed by `GroupId`, members in cell order)
    // for cross-group / crossbar sink sampling
    let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); nl.num_groups()];
    for (i, g) in cell_groups.iter().enumerate() {
        by_group[g.index()].push(i);
    }

    let domain = spec.kind.clock();
    let span_scale = spec.locality * bw.max(bh);
    let is_ccx = spec.groups == GroupPlan::CcxSplit;
    let cross_frac = match spec.groups {
        GroupPlan::Fubs => 0.12,
        GroupPlan::CcxSplit => 0.001, // only test signals cross PCX/CPX
        GroupPlan::Flat => 0.0,
    };

    // ---- signal nets ---------------------------------------------------------
    // the groups that have cells, in id order
    let group_list: Vec<usize> = (0..by_group.len())
        .filter(|&g| !by_group[g].is_empty())
        .collect();
    // the sinks a net already reaches (its driver first), reused per net
    let mut connected: Vec<usize> = Vec::new();
    for (i, &driver) in cell_ids.iter().enumerate() {
        let fanout = sample_fanout(&mut rng);
        let net = nl.add_net(t_net.at(i));
        nl.net_mut(net).domain = domain;
        nl.connect_driver(net, PinRef::output(driver));
        let dpos = positions[i];
        let dgroup = cell_groups[i];
        connected.clear();
        connected.push(i);
        for _ in 0..fanout {
            let sink_idx = if cross_frac > 0.0 && rng.gen::<f64>() < cross_frac {
                // inter-group net: sink uniform in another group
                let og = group_list[rng.gen_range(0..group_list.len())];
                let members = &by_group[og];
                members[rng.gen_range(0..members.len())]
            } else if is_ccx && rng.gen::<f64>() < 0.5 {
                // crossbar all-to-all: uniform within the same group
                let members = &by_group[dgroup.index()];
                members[rng.gen_range(0..members.len())]
            } else {
                // distance-biased local sink
                let span = if rng.gen::<f64>() < spec.long_frac {
                    (0.25 + 0.70 * rng.gen::<f64>()) * bw.max(bh)
                } else {
                    let u: f64 = rng.gen::<f64>().max(1e-9);
                    (span_scale * -u.ln()).min(1.2 * bw.max(bh))
                };
                let ang = rng.gen::<f64>() * std::f64::consts::TAU;
                let target = Point::new(dpos.x + span * ang.cos(), dpos.y + span * ang.sin())
                    .clamped(outline);
                if is_ccx {
                    // PCX and CPX share no signal wiring: keep even local
                    // sinks strictly inside the driver's group by sampling
                    // group members and keeping the closest to the target.
                    let members = &by_group[dgroup.index()];
                    let mut best = members[rng.gen_range(0..members.len())];
                    let mut best_d = positions[best].manhattan(target);
                    for _ in 0..40 {
                        let c = members[rng.gen_range(0..members.len())];
                        let d = positions[c].manhattan(target);
                        if d < best_d {
                            best = c;
                            best_d = d;
                        }
                    }
                    best
                } else {
                    match buckets.pick_near(target, &mut rng) {
                        Some(s) => s,
                        None => continue,
                    }
                }
            };
            if connected.contains(&sink_idx) {
                continue;
            }
            connected.push(sink_idx);
            let sink = cell_ids[sink_idx];
            let kind = plans[sink_idx].kind;
            // flop data pin is 0 (pin 1 is the clock)
            let pin = if kind == CellKind::Dff {
                0
            } else {
                rng.gen_range(0..kind.input_count()) as u16
            };
            nl.connect_sink(net, PinRef::input(sink, pin));
        }
    }

    // ---- macro pin nets --------------------------------------------------------
    for (mi, &mid) in macro_insts.iter().enumerate() {
        let kind = match nl.inst(mid).master {
            InstMaster::Macro(k) => k,
            InstMaster::Cell(_) => unreachable!(),
        };
        let master = tech.macros.get(kind);
        let pins_used =
            ((master.pin_count as f64 * cfg.size).round() as usize).clamp(4, master.pin_count);
        let mpos = nl.inst(mid).pos;
        let t_mpin = nl.name_template(&format!("n_{name}_m{mi}_"), "");
        for p in 0..pins_used {
            let net = nl.add_net(t_mpin.at(p));
            nl.net_mut(net).domain = domain;
            // nearby logic partner
            let target = Point::new(
                mpos.x + rng.gen_range(-0.1..0.1) * bw,
                mpos.y + rng.gen_range(-0.1..0.1) * bh,
            )
            .clamped(outline);
            let Some(partner_idx) = buckets.pick_near(target, &mut rng) else {
                // no logic cells at all (cannot happen: n_cells >= 40)
                continue;
            };
            let partner = cell_ids[partner_idx];
            if p % 2 == 0 {
                // macro read port drives logic
                nl.connect_driver(net, PinRef::output(mid));
                let kind = match nl.inst(partner).master {
                    InstMaster::Cell(c) => tech.cells.master(c).kind,
                    InstMaster::Macro(_) => unreachable!(),
                };
                nl.connect_sink(net, PinRef::input(partner, 0));
                let _ = kind;
            } else {
                // logic drives macro address/data input; reuse the
                // partner's output net by adding the macro as a sink
                nl.connect_driver(net, PinRef::output(partner));
                nl.connect_sink(net, PinRef::input(mid, p as u16));
            }
        }
    }

    // ---- clock tree --------------------------------------------------------------
    let flops: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind == CellKind::Dff)
        .map(|(i, _)| i)
        .collect();
    if !flops.is_empty() {
        let clk_port = nl.add_port("clk", PortDir::Input, domain);
        nl.port_mut(clk_port).pos = Point::new(0.0, bh / 2.0);
        let root_master = tech
            .cells
            .id_of(CellKind::ClkBuf, Drive::X16, VthClass::Rvt);
        let root = nl.add_inst(format!("{name}_ckroot"), InstMaster::Cell(root_master));
        let root_group = cell_groups.first().copied();
        {
            let mut inst = nl.inst_mut(root);
            inst.pos = Point::new(bw / 2.0, bh / 2.0);
            inst.group = root_group;
        }
        let root_in = nl.add_net("clk");
        nl.net_mut(root_in).domain = domain;
        nl.net_mut(root_in).is_clock = true;
        nl.connect_driver(root_in, PinRef::port(clk_port));
        nl.connect_sink(root_in, PinRef::input(root, 0));

        let trunk = nl.add_net(format!("n_{name}_cktrunk"));
        nl.net_mut(trunk).domain = domain;
        nl.net_mut(trunk).is_clock = true;
        nl.connect_driver(trunk, PinRef::output(root));

        // sort flops spatially and chunk into leaf groups of ≤ 32
        let mut sorted = flops.clone();
        sorted.sort_by(|&a, &b| {
            let (pa, pb) = (positions[a], positions[b]);
            (pa.y, pa.x)
                .partial_cmp(&(pb.y, pb.x))
                .expect("finite coords")
        });
        let leaf_master = tech.cells.id_of(CellKind::ClkBuf, Drive::X8, VthClass::Rvt);
        for (li, chunk) in sorted.chunks(32).enumerate() {
            let centroid = chunk
                .iter()
                .fold(Point::ORIGIN, |acc, &i| acc + positions[i])
                * (1.0 / chunk.len() as f64);
            let leaf = nl.add_inst(t_cklf.at(li), InstMaster::Cell(leaf_master));
            let leaf_group = cell_groups[chunk[0]];
            {
                let mut inst = nl.inst_mut(leaf);
                inst.pos = centroid;
                inst.group = Some(leaf_group);
            }
            nl.connect_sink(trunk, PinRef::input(leaf, 0));
            let leaf_net = nl.add_net(t_ncklf.at(li));
            nl.net_mut(leaf_net).domain = domain;
            nl.net_mut(leaf_net).is_clock = true;
            nl.connect_driver(leaf_net, PinRef::output(leaf));
            for &fi in chunk {
                nl.connect_sink(leaf_net, PinRef::input(cell_ids[fi], 1));
            }
        }
    }

    let mut block = Block::new(name, spec.kind, nl, outline);
    block.activity = spec.activity;
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::block_specs;
    use foldic_netlist::BlockKind;

    fn tech() -> Technology {
        T2Config::tiny().scaled_technology()
    }

    fn synth(kind: BlockKind) -> Block {
        let cfg = T2Config::tiny();
        let spec = block_specs().into_iter().find(|s| s.kind == kind).unwrap();
        synthesize_block(&spec, 0, &cfg, &tech(), 7)
    }

    #[test]
    fn spc_has_14_fubs() {
        let b = synth(BlockKind::Spc);
        assert_eq!(b.netlist.num_groups(), 14);
        assert!(b.netlist.check().is_ok());
        // every cell belongs to a FUB
        assert!(b.netlist.insts().all(|(_, i)| i.group.is_some()));
    }

    #[test]
    fn ccx_has_pcx_and_cpx_only() {
        let b = synth(BlockKind::Ccx);
        assert_eq!(b.netlist.num_groups(), 2);
        let names: Vec<_> = (0..2)
            .map(|i| b.netlist.group_name(foldic_netlist::GroupId(i)).to_owned())
            .collect();
        assert!(names.contains(&"pcx".to_owned()));
        assert!(names.contains(&"cpx".to_owned()));
    }

    #[test]
    fn l2d_macros_fit_inside_outline() {
        let t = tech();
        let b = synth(BlockKind::L2d);
        let macros: Vec<_> = b
            .netlist
            .insts()
            .filter(|(_, i)| i.master.is_macro())
            .collect();
        assert_eq!(macros.len(), 32);
        for (_, m) in &macros {
            assert!(
                b.outline.contains_rect(m.rect(&t)),
                "macro at {} escapes outline {}",
                m.pos,
                b.outline
            );
            assert!(m.fixed);
        }
        // macros must not overlap each other
        for (i, (_, a)) in macros.iter().enumerate() {
            for (_, c) in &macros[i + 1..] {
                assert!(!a.rect(&t).overlaps(c.rect(&t)));
            }
        }
    }

    #[test]
    fn cells_seeded_inside_outline() {
        let b = synth(BlockKind::L2t);
        for (_, i) in b.netlist.insts() {
            assert!(
                b.outline.contains(i.pos),
                "{} at {}",
                b.netlist.name_of(i.name),
                i.pos
            );
        }
    }

    #[test]
    fn clock_tree_reaches_all_flops() {
        let t = tech();
        let b = synth(BlockKind::Mcu);
        let mut clocked = std::collections::HashSet::new();
        for (_, net) in b.netlist.nets() {
            if net.is_clock {
                for s in net.sinks() {
                    if let Some(i) = s.inst() {
                        clocked.insert(i);
                    }
                }
            }
        }
        for (id, inst) in b.netlist.insts() {
            if let InstMaster::Cell(m) = inst.master {
                if t.cells.master(m).kind == CellKind::Dff {
                    assert!(
                        clocked.contains(&id),
                        "flop {} unclocked",
                        b.netlist.name_of(inst.name)
                    );
                }
            }
        }
    }

    #[test]
    fn rtx_has_longer_nets_than_mcu() {
        // RTX's fat long-net tail must show up in seed-position net spans.
        let rtx = synth(BlockKind::Rtx);
        let mcu = synth(BlockKind::Mcu);
        let avg_span = |b: &Block| {
            let nl = &b.netlist;
            let (mut sum, mut n) = (0.0, 0usize);
            for (_, net) in nl.nets() {
                if net.is_clock {
                    continue;
                }
                let bb = foldic_geom::Rect::bounding(net.pins().map(|p| nl.pin_pos(p)));
                sum += bb.half_perimeter() / b.outline.half_perimeter();
                n += 1;
            }
            sum / n as f64
        };
        assert!(avg_span(&rtx) > avg_span(&mcu));
    }
}
