#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Mixed-size quadratic 3D placer with supply/demand spreading and macro
//! holes.
//!
//! This is the placement engine the paper's block-folding flow needs
//! (§4.2): a force-directed quadratic placer in the Kraftwerk2 family
//! \[7\], extended with
//!
//! * **macro holes** — the paper's fix for extremely large hard macros:
//!   the supply *and* demand of the bins a macro covers are pinned to
//!   zero, so the spreading system routes cells *around* the macro instead
//!   of leaving halo whitespace next to it;
//! * **tier awareness** — for folded blocks, cells on the two dies share
//!   the quadratic wirelength system (3D nets pull across tiers at zero
//!   distance, modelling the ideal 3D interconnect of the §5.1 flow), but
//!   each die spreads against its own density map and macro set;
//! * **obstacles** — TSV keep-out sites can be injected as additional
//!   holes, which is how face-to-back bonding degrades folded placements
//!   (Fig. 6).
//!
//! The algorithm alternates conjugate-gradient solves of the quadratic
//! wirelength system with a monotone 1-D supply/demand equalization in x
//! and y, then legalizes cells into row segments between the macros.
//!
//! # Examples
//!
//! ```
//! use foldic_place::{place_block, PlacerConfig};
//! use foldic_t2::T2Config;
//!
//! let (mut design, tech) = T2Config::tiny().generate();
//! let id = design.find_block("mcu0").unwrap();
//! let outline = design.block(id).outline;
//! let block = design.block_mut(id);
//! place_block(&mut block.netlist, &tech, outline, &PlacerConfig::fast()).unwrap();
//! // every movable cell ends inside the outline
//! for (_, inst) in block.netlist.insts() {
//!     assert!(outline.inflated(1.0).contains(inst.pos));
//! }
//! ```

mod legalize;
mod solver;
mod spread;

pub use legalize::legalize_tier;
pub use solver::QuadraticSystem;

use foldic_fault::{FlowError, FlowStage};
use foldic_geom::{Rect, Tier};
use foldic_netlist::Netlist;
use foldic_tech::Technology;

/// A placement blockage (e.g. a TSV keep-out square) on one tier, or on
/// both when `tier` is `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Blocked region in block-local µm.
    pub rect: Rect,
    /// Affected tier; `None` blocks both dies.
    pub tier: Option<Tier>,
}

/// How the spreading system treats hard macros (the §4.2 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacroMode {
    /// The paper's approach: supply *and* demand zeroed under the macro —
    /// a hole the transport routes around.
    #[default]
    Hole,
    /// The Kraftwerk2 baseline the paper found insufficient: the macro
    /// stays in the map as a large demand, which leaves halo whitespace
    /// around big macros.
    DemandInflation,
}

/// Placer parameters.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Number of solve→spread iterations.
    pub iterations: usize,
    /// Conjugate-gradient iterations per solve.
    pub cg_iterations: usize,
    /// Bin edge as a multiple of the row height.
    pub bin_rows: f64,
    /// Target placement utilization inside each bin.
    pub target_util: f64,
    /// Anchor weight growth per iteration (stabilizes late iterations).
    pub anchor_growth: f64,
    /// Hard-macro handling in the density map.
    pub macro_mode: MacroMode,
}

impl PlacerConfig {
    /// Quality settings used by the experiments.
    pub fn quality() -> Self {
        Self {
            iterations: 10,
            cg_iterations: 120,
            bin_rows: 10.0,
            target_util: 0.85,
            anchor_growth: 0.18,
            macro_mode: MacroMode::default(),
        }
    }

    /// Faster, slightly worse settings for tests.
    pub fn fast() -> Self {
        Self {
            iterations: 5,
            cg_iterations: 60,
            ..Self::quality()
        }
    }
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self::quality()
    }
}

/// Places all movable instances of a (non-folded) block inside `outline`.
///
/// Fixed instances (pre-placed macros) and ports act as anchors. Instance
/// positions are updated in place.
///
/// # Errors
///
/// Returns a [`FlowError`] at [`FlowStage::Place`] when the quadratic
/// system diverges (non-finite positions) — a retry with perturbed
/// settings may succeed.
pub fn place_block(
    netlist: &mut Netlist,
    tech: &Technology,
    outline: Rect,
    cfg: &PlacerConfig,
) -> Result<(), FlowError> {
    place_with_obstacles(netlist, tech, outline, cfg, &[], false)
}

/// Places a folded block: cells on both tiers share the wirelength system
/// while spreading and legalization run per tier.
///
/// # Errors
///
/// See [`place_block`].
pub fn place_folded(
    netlist: &mut Netlist,
    tech: &Technology,
    outline: Rect,
    cfg: &PlacerConfig,
    obstacles: &[Obstacle],
) -> Result<(), FlowError> {
    place_with_obstacles(netlist, tech, outline, cfg, obstacles, true)
}

/// Full-control entry point: see [`place_block`] / [`place_folded`].
///
/// # Errors
///
/// See [`place_block`]. An instance or port that enters at a non-finite
/// position is an invalid input ([`FlowError::invalid`]): the solve would
/// carry it into every anchor, and legalization would pack the result
/// into legal-looking rows.
pub fn place_with_obstacles(
    netlist: &mut Netlist,
    tech: &Technology,
    outline: Rect,
    cfg: &PlacerConfig,
    obstacles: &[Obstacle],
    per_tier: bool,
) -> Result<(), FlowError> {
    let non_finite = |what: &str, name| {
        FlowError::invalid(
            FlowStage::Place,
            format!("{what} `{name}` enters placement at a non-finite position"),
        )
    };
    for id in netlist.inst_ids() {
        if !netlist.pos(id).is_finite() {
            let name = netlist.name_of(netlist.inst(id).name);
            return Err(non_finite("instance", name));
        }
    }
    for (_, port) in netlist.ports() {
        if !port.pos.is_finite() {
            return Err(non_finite("port", netlist.name_of(port.name)));
        }
    }
    let tiers: &[Option<Tier>] = if per_tier {
        &[Some(Tier::Bottom), Some(Tier::Top)]
    } else {
        &[None]
    };

    let mut system = solver::QuadraticSystem::build(netlist, outline);
    if system.num_movable() == 0 {
        return Ok(());
    }
    let mut spreaders: Vec<spread::TierSpreader> = tiers
        .iter()
        .map(|&tier| spread::TierSpreader::new(netlist, tech, outline, cfg, obstacles, tier))
        .collect();

    for iter in 0..cfg.iterations {
        // cooperative deadline checkpoint, once per solver iteration
        foldic_fault::deadline::poll()?;
        let anchor_w = cfg.anchor_growth * (iter as f64 + 0.3);
        system.solve(netlist, outline, cfg.cg_iterations, anchor_w);
        for spreader in &mut spreaders {
            spreader.equalize(netlist);
        }
    }
    for &tier in tiers {
        legalize::legalize_tier(netlist, tech, outline, obstacles, tier);
    }
    // The CG solve has no step-size guard; a pathological system (e.g.
    // near-singular from a degenerate anchor set) surfaces as NaN/Inf
    // coordinates. Catch it here as a typed, retryable stage error
    // instead of letting downstream geometry panic.
    for (_, inst) in netlist.insts() {
        if !(inst.pos.x.is_finite() && inst.pos.y.is_finite()) {
            return Err(FlowError::stage(
                FlowStage::Place,
                format!(
                    "placement diverged: `{}` at non-finite position",
                    netlist.name_of(inst.name)
                ),
            ));
        }
    }
    foldic_obs::trace::add_iters(cfg.iterations as u64);
    if foldic_obs::metrics::is_enabled() {
        foldic_obs::metrics::add("place.runs", 1);
        foldic_obs::metrics::add("place.iterations", cfg.iterations as u64);
        foldic_obs::metrics::add("place.movable_insts", system.num_movable() as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::InstMaster;
    use foldic_t2::T2Config;

    fn placed_block(name: &str) -> (foldic_netlist::Netlist, Technology, Rect) {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block(name).unwrap();
        let outline = design.block(id).outline;
        let nl = &mut design.block_mut(id).netlist;
        place_block(nl, &tech, outline, &PlacerConfig::fast()).unwrap();
        (nl.clone(), tech, outline)
    }

    fn hpwl(nl: &foldic_netlist::Netlist) -> f64 {
        nl.nets()
            .map(|(_, net)| {
                foldic_geom::Rect::bounding(net.pins().map(|p| nl.pin_pos(p))).half_perimeter()
            })
            .sum()
    }

    #[test]
    fn placement_recovers_from_scrambled_start() {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block("l2t0").unwrap();
        let outline = design.block(id).outline;
        let nl = &mut design.block_mut(id).netlist;
        let seed_wl = hpwl(nl);
        // scramble all movable cells deterministically
        let ids: Vec<_> = nl
            .insts()
            .filter(|(_, i)| !i.fixed)
            .map(|(id, _)| id)
            .collect();
        let mut state = 0x5EEDu64;
        for id in ids {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let fx = ((state >> 16) & 0xFFFF) as f64 / 65536.0;
            let fy = ((state >> 32) & 0xFFFF) as f64 / 65536.0;
            nl.inst_mut(id).pos = foldic_geom::Point::new(
                outline.llx + fx * outline.width(),
                outline.lly + fy * outline.height(),
            );
        }
        let scrambled_wl = hpwl(nl);
        place_block(nl, &tech, outline, &PlacerConfig::quality()).unwrap();
        let after = hpwl(nl);
        // the placer must recover most of the structure the scramble lost
        assert!(
            after < 0.6 * scrambled_wl,
            "placer barely improved: {after} vs scrambled {scrambled_wl}"
        );
        // and land in the same league as the generator's embedding (the
        // seed is a near-oracle lower bound the netlist was sampled from)
        assert!(
            after < 1.75 * seed_wl,
            "placer far off the seed embedding: {after} vs {seed_wl}"
        );
    }

    /// A three-inverter chain with its middle cell at `(NaN, 5)`: the solve
    /// would spread the NaN into the anchors and legalization would pack
    /// all three cells into one row, so placement must refuse it up front.
    /// A port at a non-finite position is refused the same way.
    #[test]
    fn non_finite_start_position_is_an_invalid_input() {
        use foldic_fault::FaultCause;
        use foldic_geom::Point;
        use foldic_netlist::PinRef;
        use foldic_tech::{CellKind, Drive, VthClass};
        let tech = Technology::cmos28();
        let inv = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 40.0, 40.0);
        let mut nl = foldic_netlist::Netlist::new("nan_chain");
        let cells: Vec<_> = (0..3).map(|i| nl.add_inst(format!("u{i}"), inv)).collect();
        for (i, &c) in cells.iter().enumerate() {
            nl.set_pos(c, Point::new(10.0 * (i as f64 + 1.0), 5.0));
        }
        for (k, pair) in cells.windows(2).enumerate() {
            let n = nl.add_net(format!("n{k}"));
            nl.connect_driver(n, PinRef::output(pair[0]));
            nl.connect_sink(n, PinRef::input(pair[1], 0));
        }
        let placed = nl.clone();
        nl.set_pos(cells[1], Point::new(f64::NAN, 5.0));
        let err = place_block(&mut nl, &tech, outline, &PlacerConfig::fast()).unwrap_err();
        assert_eq!(err.stage, FlowStage::Place);
        assert!(
            matches!(&err.cause, FaultCause::Invalid(m) if m.contains("`u1`")),
            "{err:?}"
        );

        let mut nl = placed.clone();
        let p = nl.add_port(
            "in",
            foldic_netlist::PortDir::Input,
            foldic_netlist::ClockDomain::Cpu,
        );
        nl.port_mut(p).pos = Point::new(0.0, f64::INFINITY);
        let err = place_block(&mut nl, &tech, outline, &PlacerConfig::fast()).unwrap_err();
        assert!(
            matches!(&err.cause, FaultCause::Invalid(m) if m.contains("port `in`")),
            "{err:?}"
        );

        // the same chain at finite positions places
        let mut nl = placed;
        place_block(&mut nl, &tech, outline, &PlacerConfig::fast()).unwrap();
    }

    #[test]
    fn cells_stay_inside_outline() {
        let (nl, tech, outline) = placed_block("mcu0");
        for (_, inst) in nl.insts() {
            if inst.fixed {
                continue;
            }
            let r = inst.rect(&tech);
            assert!(
                outline.inflated(1e-6).contains_rect(r),
                "{} at {} escapes {}",
                nl.name_of(inst.name),
                inst.pos,
                outline
            );
        }
    }

    #[test]
    fn cells_avoid_macro_holes() {
        let (nl, tech, _) = placed_block("l2d0");
        let macros: Vec<foldic_geom::Rect> = nl
            .insts()
            .filter(|(_, i)| i.master.is_macro())
            .map(|(_, i)| i.rect(&tech))
            .collect();
        let mut violations = 0;
        let mut total = 0;
        for (_, inst) in nl.insts() {
            if inst.fixed || inst.master.is_macro() {
                continue;
            }
            total += 1;
            if macros.iter().any(|m| m.contains(inst.pos)) {
                violations += 1;
            }
        }
        assert!(total > 0);
        assert!(
            violations * 50 <= total,
            "{violations}/{total} cells sit on macros"
        );
    }

    #[test]
    fn legalized_cells_do_not_overlap_much() {
        let (nl, tech, _) = placed_block("ccu");
        let cells: Vec<foldic_geom::Rect> = nl
            .insts()
            .filter(|(_, i)| !i.fixed && !i.master.is_macro())
            .map(|(_, i)| i.rect(&tech))
            .collect();
        let mut overlap_area = 0.0;
        let mut total_area = 0.0;
        for (i, a) in cells.iter().enumerate() {
            total_area += a.area();
            for b in &cells[i + 1..] {
                if let Some(x) = a.intersection(*b) {
                    overlap_area += x.area();
                }
            }
        }
        assert!(
            overlap_area <= 0.02 * total_area,
            "overlap {overlap_area} of {total_area}"
        );
    }

    #[test]
    fn folded_placement_keeps_tiers_separate() {
        let (mut design, tech) = T2Config::tiny().generate();
        let id = design.find_block("l2t0").unwrap();
        let outline = design.block(id).outline;
        let nl = &mut design.block_mut(id).netlist;
        let part =
            foldic_partition::bipartition(nl, &tech, &foldic_partition::PartitionConfig::default());
        foldic_partition::apply_partition(nl, &part);
        place_folded(nl, &tech, outline, &PlacerConfig::fast(), &[]).unwrap();
        // both tiers hold cells, and all stay in the outline
        let mut per_tier = [0usize; 2];
        for (_, inst) in nl.insts() {
            if let InstMaster::Cell(_) = inst.master {
                per_tier[inst.tier.index()] += 1;
                assert!(outline.inflated(1e-6).contains(inst.pos));
            }
        }
        assert!(per_tier[0] > 0 && per_tier[1] > 0);
    }
}
