#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Timing and power optimization: buffer insertion, gate sizing, dual-Vth.
//!
//! Mirrors the paper's iterative optimization steps (§2.2: "block-level
//! and chip-level timing optimizations (buffer insertion and gate sizing)
//! as well as power optimizations (gate sizing)", and §6.2's dual-Vth
//! swap). The passes run in the classic order:
//!
//! 1. **Repeater insertion** ([`insert_buffers`]) — nets longer than the
//!    optimal repeater distance get evenly spaced BUF chains; multi-fanout
//!    nets get a buffer in front of their far sink cluster. This is where
//!    shorter 3D wirelength directly converts into a smaller buffer count
//!    (Table 2's −16 %).
//! 2. **Upsizing** ([`upsize_critical`]) — drivers of violated paths step
//!    up one drive until timing is met or X16 is reached.
//! 3. **Downsizing** ([`downsize_with_slack`]) — drivers with comfortable
//!    positive slack step down, trading the slack 3D layouts create for
//!    cell power ("cells can be downsized in the 3D design if this change
//!    still meets the timing constraint", §3.2).
//! 4. **HVT swap** ([`swap_to_hvt`]) — positive-slack cells move to the
//!    high-Vth library flavour (−50 % leakage, −5 % cell power, +30 %
//!    delay).
//!
//! [`optimize_block`] chains the passes with STA between them and returns
//! an [`OptStats`] audit.
//!
//! # Examples
//!
//! ```
//! use foldic_t2::T2Config;
//! use foldic_opt::{optimize_block, OptConfig};
//! use foldic_timing::TimingBudgets;
//!
//! let (mut design, tech) = T2Config::tiny().generate();
//! let id = design.find_block("ccu").unwrap();
//! let block = design.block_mut(id);
//! let budgets = TimingBudgets::relaxed(&block.netlist, &tech);
//! let stats = optimize_block(&mut block.netlist, &tech, &budgets, &OptConfig::default()).unwrap();
//! assert!(stats.rounds > 0);
//! ```

pub mod cts;

use foldic_fault::FlowError;
use foldic_geom::Point;
use foldic_netlist::{InstId, InstMaster, NetId, Netlist, PinRef};
use foldic_route::{BlockWiring, ViaPlacement};
use foldic_tech::units::RC_TO_PS;
use foldic_tech::{CellKind, Drive, Technology, Via3dKind, VthClass};
use foldic_timing::{StaConfig, TimingBudgets, TimingGraph, TimingReport};

/// Optimizer knobs.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Routed detour factor used for wiring analysis between passes.
    pub detour: f64,
    /// Highest metal layer inside the block.
    pub max_layer: usize,
    /// 3D-via kind for folded blocks.
    pub via_kind: Option<Via3dKind>,
    /// Slack a cell must keep after a power move, in ps.
    pub slack_margin_ps: f64,
    /// Number of STA→fix rounds for each timing pass.
    pub rounds: usize,
    /// Enable the dual-Vth (HVT swap) pass.
    pub dual_vth: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            detour: foldic_route::wiring::DEFAULT_DETOUR,
            max_layer: 7,
            via_kind: None,
            slack_margin_ps: 60.0,
            rounds: 3,
            dual_vth: false,
        }
    }
}

/// What the optimizer did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptStats {
    /// Buffers inserted.
    pub buffers_added: usize,
    /// Upsize moves applied.
    pub upsized: usize,
    /// Downsize moves applied.
    pub downsized: usize,
    /// Cells swapped to HVT.
    pub hvt_swapped: usize,
    /// STA rounds executed.
    pub rounds: usize,
    /// Final timing report's worst negative slack in ps.
    pub final_wns_ps: f64,
    /// Final violation count.
    pub final_violations: usize,
}

/// Power-optimal repeater spacing in µm.
///
/// Delay-optimal spacing is `√(2·R_buf·C_buf / (r·c))`; production flows
/// insert repeaters ~1.8× sparser, trading a few percent of delay for a
/// large repeater-power saving — the spacing the paper's power-optimized
/// designs reflect.
pub fn repeater_spacing_um(tech: &Technology, max_layer: usize) -> f64 {
    let buf = tech.cells.get(CellKind::Buf, Drive::X8, VthClass::Rvt);
    let r = tech.metal.effective_r_per_um(max_layer);
    let c = tech.metal.effective_c_per_um(max_layer);
    1.8 * (2.0 * buf.output_res_ohm * buf.input_cap_ff / (r * c)).sqrt()
}

/// Repeater spacing for chip-level wiring in µm: inter-block buses ride
/// the thick M8/M9 global layers, so their repeaters sit much further
/// apart than block-internal ones.
pub fn chip_repeater_spacing_um(tech: &Technology) -> f64 {
    let buf = tech.cells.get(CellKind::Buf, Drive::X8, VthClass::Rvt);
    let n = tech.metal.num_layers();
    let r = (tech.metal.layer(n).r_per_um + tech.metal.layer(n - 1).r_per_um) / 2.0;
    let c = tech.metal.top_layer().c_per_um;
    1.8 * (2.0 * buf.output_res_ohm * buf.input_cap_ff / (r * c)).sqrt()
}

/// Inserts repeaters on long nets; returns the number added.
///
/// Two-terminal segments longer than the repeater spacing get an evenly
/// spaced BUF X8 chain. On a multi-fanout net the sinks farther than one
/// spacing form a far cluster, driven through one buffer placed on the
/// line toward the cluster's centroid, one spacing from the driver but at
/// most halfway there.
///
/// # Errors
///
/// Propagates wiring-analysis failures.
pub fn insert_buffers(
    netlist: &mut Netlist,
    tech: &Technology,
    cfg: &OptConfig,
    vias: Option<&ViaPlacement>,
) -> Result<usize, FlowError> {
    buffer_nets(netlist, tech, cfg, vias).map(|b| b.added)
}

/// What [`buffer_nets`] did, with the analysis it decided on.
struct Buffered {
    /// Buffers inserted.
    added: usize,
    /// The wiring analysis of the netlist before buffering.
    wiring: BlockWiring,
    /// The nets that lost sinks to a buffer chain or a far cluster, in
    /// net order. Every net buffering added has an id past `wiring`'s.
    rewired: Vec<NetId>,
}

/// [`insert_buffers`], also returning its analysis and the nets it
/// rewired, from which [`BlockWiring::reanalyze`] brings the analysis up
/// to date.
fn buffer_nets(
    netlist: &mut Netlist,
    tech: &Technology,
    cfg: &OptConfig,
    vias: Option<&ViaPlacement>,
) -> Result<Buffered, FlowError> {
    let spacing = repeater_spacing_um(tech, cfg.max_layer);
    let wiring = BlockWiring::analyze(netlist, tech, cfg.detour, vias)?;
    let buf_master = tech.cells.id_of(CellKind::Buf, Drive::X8, VthClass::Rvt);
    let mut added = 0;
    let mut rewired = Vec::new();
    let net_ids: Vec<NetId> = netlist.net_ids().collect();
    for (k, nid) in net_ids.into_iter().enumerate() {
        // cooperative deadline checkpoint, every 256 nets
        if k % 256 == 0 {
            foldic_fault::deadline::poll()?;
        }
        let net = netlist.net(nid);
        if net.is_clock || net.fanout() == 0 {
            continue;
        }
        let Some(driver) = net.driver else { continue };
        let rec = wiring.net(nid);
        if rec.length_um <= spacing {
            continue;
        }
        let domain = net.domain;
        let dpos = netlist.pin_pos(driver);
        let dtier = netlist.pin_tier(driver);

        if net.fanout() == 1 {
            // chain along the straight line to the sink
            let sink = net.sink(0);
            let spos = netlist.pin_pos(sink);
            let stier = netlist.pin_tier(sink);
            let len = rec.length_um;
            let k = ((len / spacing).floor() as usize).min(8);
            if k == 0 {
                continue;
            }
            let mut prev_net = nid;
            for step in 1..=k {
                let t = step as f64 / (k + 1) as f64;
                let pos = Point::new(
                    dpos.x + (spos.x - dpos.x) * t,
                    dpos.y + (spos.y - dpos.y) * t,
                );
                let b = netlist.add_inst(
                    format!("optbuf_{}_{}", nid.0, step),
                    InstMaster::Cell(buf_master),
                );
                {
                    let mut inst = netlist.inst_mut(b);
                    inst.pos = pos;
                    inst.tier = if t < 0.5 { dtier } else { stier };
                }
                let new_net = netlist.add_net(format!("optnet_{}_{}", nid.0, step));
                netlist.net_mut(new_net).domain = domain;
                // move the sink from prev_net to new_net, buffer bridges
                netlist.move_sinks(prev_net, new_net, |p| p == sink);
                netlist.connect_sink(prev_net, PinRef::input(b, 0));
                netlist.connect_driver(new_net, PinRef::output(b));
                prev_net = new_net;
                added += 1;
            }
            rewired.push(nid);
        } else {
            // multi-fanout: buffer the far cluster once
            let far: Vec<PinRef> = net
                .sinks()
                .zip(rec.sink_paths.iter())
                .filter(|&(_, &d)| d > spacing)
                .map(|(s, _)| s)
                .collect();
            if far.is_empty() {
                continue;
            }
            let centroid = far
                .iter()
                .fold(Point::ORIGIN, |acc, &s| acc + netlist.pin_pos(s))
                * (1.0 / far.len() as f64);
            // buffer placed toward the cluster, one spacing from driver
            let d = dpos.manhattan(centroid).max(1.0);
            let t = (spacing / d).min(0.5);
            let pos = Point::new(
                dpos.x + (centroid.x - dpos.x) * t,
                dpos.y + (centroid.y - dpos.y) * t,
            );
            let b = netlist.add_inst(format!("optbuf_{}_c", nid.0), InstMaster::Cell(buf_master));
            {
                let mut inst = netlist.inst_mut(b);
                inst.pos = pos;
                inst.tier = dtier;
            }
            let new_net = netlist.add_net(format!("optnet_{}_c", nid.0));
            netlist.net_mut(new_net).domain = domain;
            let far_set: std::collections::HashSet<PinRef> = far.into_iter().collect();
            netlist.move_sinks(nid, new_net, |p| far_set.contains(&p));
            netlist.connect_sink(nid, PinRef::input(b, 0));
            netlist.connect_driver(new_net, PinRef::output(b));
            added += 1;
            rewired.push(nid);
        }
    }
    Ok(Buffered {
        added,
        wiring,
        rewired,
    })
}

/// Upsizes drivers on violated paths; returns moves applied.
pub fn upsize_critical(netlist: &mut Netlist, tech: &Technology, report: &TimingReport) -> usize {
    let mut moves = 0;
    let ids: Vec<InstId> = netlist.inst_ids().collect();
    for id in ids {
        if report.slack_ps[id.index()] >= 0.0 {
            continue;
        }
        let InstMaster::Cell(m) = netlist.inst(id).master else {
            continue;
        };
        if let Some(up) = tech.cells.upsize(m) {
            netlist.inst_mut(id).master = InstMaster::Cell(up);
            moves += 1;
        }
    }
    moves
}

/// Downsizes drivers with comfortable slack; returns moves applied.
///
/// A move is taken only when the locally estimated delay increase fits
/// inside half the available slack (the paper's power optimization by
/// gate sizing, §2.2/§3.2).
pub fn downsize_with_slack(
    netlist: &mut Netlist,
    tech: &Technology,
    report: &TimingReport,
    cfg: &OptConfig,
    loads: &BlockWiring,
) -> usize {
    let c_um = tech.metal.effective_c_per_um(cfg.max_layer);
    // net driven by each inst
    let mut driven: Vec<Option<NetId>> = vec![None; netlist.num_insts()];
    for (nid, net) in netlist.nets() {
        if let Some(PinRef::InstOut(i)) = net.driver {
            driven[i.index()] = Some(nid);
        }
    }
    let mut moves = 0;
    let ids: Vec<InstId> = netlist.inst_ids().collect();
    for id in ids {
        let slack = report.slack_ps[id.index()];
        if !slack.is_finite() || slack < cfg.slack_margin_ps {
            continue;
        }
        let InstMaster::Cell(m) = netlist.inst(id).master else {
            continue;
        };
        let master = tech.cells.master(m);
        if master.kind == CellKind::ClkBuf {
            continue; // clock tree stays balanced
        }
        let Some(down) = tech.cells.downsize(m) else {
            continue;
        };
        // local delay penalty estimate
        let load = match driven[id.index()] {
            Some(nid) => {
                let net = netlist.net(nid);
                let wire = loads.net(nid).length_um * c_um;
                let pins: f64 = net
                    .sinks()
                    .map(|s| match s {
                        PinRef::InstIn(i, _) => match netlist.inst(i).master {
                            InstMaster::Cell(mm) => tech.cells.master(mm).input_cap_ff,
                            InstMaster::Macro(k) => tech.macros.get(k).pin_cap_ff,
                        },
                        _ => 0.0,
                    })
                    .sum();
                wire + pins
            }
            None => 0.0,
        };
        let new_master = tech.cells.master(down);
        let delta = (new_master.output_res_ohm - master.output_res_ohm) * load * RC_TO_PS
            + (new_master.intrinsic_delay_ps - master.intrinsic_delay_ps);
        if delta < slack * 0.5 {
            netlist.inst_mut(id).master = InstMaster::Cell(down);
            moves += 1;
        }
    }
    moves
}

/// Swaps positive-slack cells to the HVT flavour; returns moves applied.
///
/// Generous by design: production dual-Vth flows end up with ~90 % HVT
/// usage (the paper reports 87.8–94.0 %), keeping RVT only on critical
/// paths. Cells with unknown (unconstrained) or comfortably positive
/// slack swap; [`revert_hvt_on_violations`] pulls back the ones the
/// follow-up STA proves wrong.
pub fn swap_to_hvt(
    netlist: &mut Netlist,
    tech: &Technology,
    report: &TimingReport,
    cfg: &OptConfig,
) -> usize {
    let mut moves = 0;
    let ids: Vec<InstId> = netlist.inst_ids().collect();
    for id in ids {
        let slack = report.slack_ps[id.index()];
        // NaN/negative slack: skip; +inf (unconstrained) swaps freely
        if slack.is_nan() || slack < cfg.slack_margin_ps * 0.5 {
            continue;
        }
        let InstMaster::Cell(m) = netlist.inst(id).master else {
            continue;
        };
        let master = tech.cells.master(m);
        if master.vth == VthClass::Hvt {
            continue;
        }
        // the local +30% stage-delay penalty must fit into the slack
        let delay_penalty = 0.3 * master.intrinsic_delay_ps;
        if 2.0 * delay_penalty < slack {
            netlist.inst_mut(id).master = InstMaster::Cell(tech.cells.with_vth(m, VthClass::Hvt));
            moves += 1;
        }
    }
    moves
}

/// Reverts HVT cells on violated paths back to RVT; returns moves.
pub fn revert_hvt_on_violations(
    netlist: &mut Netlist,
    tech: &Technology,
    report: &TimingReport,
) -> usize {
    let mut moves = 0;
    let ids: Vec<InstId> = netlist.inst_ids().collect();
    for id in ids {
        if report.slack_ps[id.index()] >= 0.0 {
            continue;
        }
        let InstMaster::Cell(m) = netlist.inst(id).master else {
            continue;
        };
        if tech.cells.master(m).vth == VthClass::Hvt {
            netlist.inst_mut(id).master = InstMaster::Cell(tech.cells.with_vth(m, VthClass::Rvt));
            moves += 1;
        }
    }
    moves
}

/// Runs the full optimization recipe on one block.
///
/// # Errors
///
/// Propagates wiring-analysis and STA failures from the inner rounds.
pub fn optimize_block(
    netlist: &mut Netlist,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &OptConfig,
) -> Result<OptStats, FlowError> {
    optimize_block_with_vias(netlist, tech, budgets, cfg, None)
}

/// [`optimize_block`] for folded blocks with a via placement.
///
/// # Errors
///
/// See [`optimize_block`].
pub fn optimize_block_with_vias(
    netlist: &mut Netlist,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &OptConfig,
    vias: Option<&ViaPlacement>,
) -> Result<OptStats, FlowError> {
    optimize_block_analyzed(netlist, tech, budgets, cfg, vias).map(|out| out.stats)
}

/// What the optimization recipe did, with the analysis its last STA round
/// ran on.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// What the optimizer did.
    pub stats: OptStats,
    /// Wiring analysis of the buffered netlist, under `cfg.detour` and the
    /// given vias. Sizing never moves it.
    pub wiring: BlockWiring,
    /// The final STA round's report: the netlist as returned, under
    /// `wiring`, `budgets`, `cfg.max_layer` and `cfg.via_kind`.
    pub report: TimingReport,
}

/// [`optimize_block_with_vias`], also returning the final wiring and
/// timing report, so a caller whose sign-off would re-run the same
/// analyses on the same netlist can use them instead.
///
/// # Errors
///
/// See [`optimize_block`].
pub fn optimize_block_analyzed(
    netlist: &mut Netlist,
    tech: &Technology,
    budgets: &TimingBudgets,
    cfg: &OptConfig,
    vias: Option<&ViaPlacement>,
) -> Result<OptOutcome, FlowError> {
    // 1. repeaters on long wires
    let Buffered {
        added,
        mut wiring,
        rewired,
    } = buffer_nets(netlist, tech, cfg, vias)?;
    let mut stats = OptStats {
        buffers_added: added,
        ..Default::default()
    };
    // Buffering changed the pins of the rewired nets and added nets; no
    // other net's pins, positions or tiers moved, so updating those
    // records equals a fresh analysis. Every later pass only rewrites
    // masters, and the wiring analysis reads connectivity, pin positions
    // and tiers — none of which depend on the master — so this one
    // analysis serves every STA round and sizing pass.
    wiring.reanalyze(netlist, tech, cfg.detour, vias, &rewired)?;
    let sta_cfg = StaConfig {
        max_layer: cfg.max_layer,
        via_kind: cfg.via_kind,
    };
    // For the same reason one timing graph serves every STA round: a round
    // re-times only the nets whose cells were resized since the last.
    let mut graph = TimingGraph::build(netlist, tech, &wiring, budgets, &sta_cfg);
    let mut sta = |netlist: &Netlist| graph.time(netlist, tech);

    // Per-round WNS, one sample per STA round (no hook inside the fix
    // loops). The histogram is order-independent, and the round's trace
    // instant is built as observability bookkeeping, charged to no job.
    let note = |round: usize, wns_ps: f64| {
        foldic_obs::metrics::observe("opt.round_wns_ps", wns_ps);
        if foldic_obs::trace::is_enabled() {
            let _bookkeeping = foldic_obs::Bookkeeping::enter();
            foldic_obs::trace::instant(
                "opt_round",
                vec![("round", round.into()), ("wns_ps", wns_ps.into())],
            );
        }
    };

    // 2. timing recovery rounds
    let mut report = sta(netlist)?;
    stats.rounds += 1;
    note(stats.rounds, report.wns_ps);
    for _ in 0..cfg.rounds {
        // cooperative deadline checkpoint, once per recovery round
        foldic_fault::deadline::poll()?;
        if report.met() {
            break;
        }
        let up = upsize_critical(netlist, tech, &report);
        stats.upsized += up;
        report = sta(netlist)?;
        stats.rounds += 1;
        note(stats.rounds, report.wns_ps);
        if up == 0 {
            break;
        }
    }

    // 3. power recovery: downsizing
    for _ in 0..cfg.rounds.min(2) {
        foldic_fault::deadline::poll()?;
        let down = downsize_with_slack(netlist, tech, &report, cfg, &wiring);
        stats.downsized += down;
        report = sta(netlist)?;
        stats.rounds += 1;
        note(stats.rounds, report.wns_ps);
        if down == 0 {
            break;
        }
    }

    // 4. dual-Vth: swap generously, then revert the cells the follow-up
    //    STA proves critical (two refinement rounds)
    if cfg.dual_vth {
        stats.hvt_swapped = swap_to_hvt(netlist, tech, &report, cfg);
        report = sta(netlist)?;
        stats.rounds += 1;
        note(stats.rounds, report.wns_ps);
        for _ in 0..2 {
            if report.met() {
                break;
            }
            let reverted = revert_hvt_on_violations(netlist, tech, &report);
            stats.hvt_swapped = stats.hvt_swapped.saturating_sub(reverted);
            report = sta(netlist)?;
            stats.rounds += 1;
            note(stats.rounds, report.wns_ps);
            if reverted == 0 {
                break;
            }
        }
    }

    stats.final_wns_ps = report.wns_ps;
    stats.final_violations = report.violations;
    foldic_obs::trace::add_iters(stats.rounds as u64);
    if foldic_obs::metrics::is_enabled() {
        foldic_obs::metrics::add("opt.buffers_added", stats.buffers_added as u64);
        foldic_obs::metrics::add("opt.upsized", stats.upsized as u64);
        foldic_obs::metrics::add("opt.downsized", stats.downsized as u64);
        foldic_obs::metrics::add("opt.hvt_swapped", stats.hvt_swapped as u64);
        foldic_obs::metrics::add("opt.rounds", stats.rounds as u64);
    }
    Ok(OptOutcome {
        stats,
        wiring,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_t2::T2Config;
    use foldic_timing::analyze;

    fn block(name: &str) -> (Netlist, Technology) {
        let (design, tech) = T2Config::tiny().generate();
        let b = design.block(design.find_block(name).unwrap());
        (b.netlist.clone(), tech)
    }

    fn sta_2d(
        nl: &Netlist,
        tech: &Technology,
        budgets: &TimingBudgets,
        cfg: &OptConfig,
    ) -> TimingReport {
        let wiring = BlockWiring::analyze(nl, tech, cfg.detour, None).unwrap();
        let sta_cfg = StaConfig {
            max_layer: cfg.max_layer,
            via_kind: cfg.via_kind,
        };
        analyze(nl, tech, &wiring, budgets, &sta_cfg).unwrap()
    }

    /// Every record (length, sink paths, 3D flag) and the totals of two
    /// analyses, bit for bit.
    fn assert_same_analysis(got: &BlockWiring, want: &BlockWiring, case: &str) {
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.nets.len(), want.nets.len(), "{case}: record count");
        for (g, w) in got.nets.iter().zip(&want.nets) {
            let net = w.net;
            assert_eq!(g.net, net, "{case}");
            assert_eq!(
                g.length_um.to_bits(),
                w.length_um.to_bits(),
                "{case}: {net:?}"
            );
            assert_eq!(bits(&g.sink_paths), bits(&w.sink_paths), "{case}: {net:?}");
            assert_eq!(g.is_3d, w.is_3d, "{case}: {net:?}");
        }
        assert_eq!(got.total_um.to_bits(), want.total_um.to_bits(), "{case}");
        assert_eq!(got.long_wires, want.long_wires, "{case}");
        assert_eq!(got.num_3d, want.num_3d, "{case}");
    }

    /// Buffers `nl` as opt does, brings the pre-buffering analysis up to
    /// date in place and compares it with a fresh analysis of the
    /// buffered netlist. Returns the buffers added.
    fn check_reanalysis(
        nl: &mut Netlist,
        tech: &Technology,
        vias: Option<&ViaPlacement>,
        case: &str,
    ) -> usize {
        let cfg = OptConfig::default();
        let Buffered {
            added,
            mut wiring,
            rewired,
        } = buffer_nets(nl, tech, &cfg, vias).unwrap();
        wiring
            .reanalyze(nl, tech, cfg.detour, vias, &rewired)
            .unwrap();
        let fresh = BlockWiring::analyze(nl, tech, cfg.detour, vias).unwrap();
        assert_same_analysis(&wiring, &fresh, case);
        added
    }

    /// The in-place update after buffering equals a from-scratch analysis
    /// on every tiny-T2 block, flat and folded (right half on top) with
    /// F2F vias and with TSVs.
    #[test]
    fn reanalysis_after_buffering_matches_a_fresh_analysis_on_tiny_t2() {
        use foldic_geom::Tier;
        use foldic_route::place_vias;
        use foldic_tech::BondingStyle;
        let (design, tech) = T2Config::tiny().generate();
        let (mut blocks, mut buffered) = (0, 0);
        for (_, b) in design.blocks() {
            let mut nl = b.netlist.clone();
            buffered += check_reanalysis(&mut nl, &tech, None, &format!("{} flat", b.name));
            let mut folded = b.netlist.clone();
            let mid = b.outline.llx + b.outline.width() / 2.0;
            for id in folded.inst_ids() {
                if folded.pos(id).x > mid {
                    folded.inst_mut(id).tier = Tier::Top;
                }
            }
            for bonding in [BondingStyle::FaceToFace, BondingStyle::FaceToBack] {
                let mut nl = folded.clone();
                let vias = place_vias(&nl, &tech, b.outline, bonding).unwrap();
                let case = format!("{} {bonding:?}", b.name);
                buffered += check_reanalysis(&mut nl, &tech, Some(&vias), &case);
            }
            blocks += 1;
        }
        assert_eq!(blocks, 46);
        assert!(buffered > 0);
    }

    /// SplitMix64, enough randomness for the seeded oracle below.
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
    }

    /// The same comparison on random netlists (seeded by
    /// `FOLDIC_FUZZ_SEED`): spans from below one repeater spacing to many,
    /// port drivers and sinks, multi-fanout nets with near and far sinks,
    /// driverless and clock nets, both tiers with F2F vias, TSVs, or
    /// ideal 3D nets without vias.
    #[test]
    fn reanalysis_after_buffering_matches_a_fresh_analysis_on_random_netlists() {
        use foldic_geom::{Rect, Tier};
        use foldic_netlist::{ClockDomain, PortDir};
        use foldic_route::place_vias;
        use foldic_tech::BondingStyle;
        let seed = std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x0B0F_FE25_u64);
        let mut rng = SplitMix(seed);
        let tech = Technology::cmos28();
        let masters = [
            tech.cells.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt),
            tech.cells.id_of(CellKind::Nand2, Drive::X1, VthClass::Rvt),
            tech.cells.id_of(CellKind::Dff, Drive::X1, VthClass::Rvt),
        ];
        let mut buffered = 0;
        for case in 0..400 {
            let span = [150.0, 1200.0, 5000.0][rng.below(3)];
            let outline = Rect::new(0.0, 0.0, span, span);
            let folded = case % 4 != 0;
            let mut nl = Netlist::new("fuzz");
            let n = 1 + rng.below(24);
            let ids: Vec<InstId> = (0..n)
                .map(|i| {
                    let m = masters[rng.below(masters.len())];
                    let id = nl.add_inst(format!("u{i}"), InstMaster::Cell(m));
                    nl.set_pos(id, Point::new(rng.unit() * span, rng.unit() * span));
                    if folded && rng.below(2) == 1 {
                        nl.inst_mut(id).tier = Tier::Top;
                    }
                    id
                })
                .collect();
            let ports: Vec<_> = (0..2)
                .map(|i| {
                    let p = nl.add_port(format!("p{i}"), PortDir::Input, ClockDomain::Cpu);
                    nl.port_mut(p).pos = Point::new(0.0, rng.unit() * span);
                    p
                })
                .collect();
            for k in 0..1 + rng.below(3 * n) {
                let net = nl.add_net(format!("n{k}"));
                match rng.below(10) {
                    0 => {}
                    1 => nl.connect_driver(net, PinRef::port(ports[rng.below(2)])),
                    _ => nl.connect_driver(net, PinRef::output(ids[rng.below(n)])),
                }
                let fanout = if rng.below(2) == 0 { 1 } else { rng.below(7) };
                for _ in 0..fanout {
                    if rng.below(12) == 0 {
                        nl.connect_sink(net, PinRef::port(ports[rng.below(2)]));
                    } else {
                        nl.connect_sink(net, PinRef::input(ids[rng.below(n)], 0));
                    }
                }
                if rng.below(20) == 0 {
                    nl.net_mut(net).is_clock = true;
                }
            }
            let bonding = [BondingStyle::FaceToFace, BondingStyle::FaceToBack]
                .get(case % 3)
                .filter(|_| folded);
            let vias = bonding.map(|&b| place_vias(&nl, &tech, outline, b).unwrap());
            let case = format!("case {case}");
            buffered += check_reanalysis(&mut nl, &tech, vias.as_ref(), &case);
        }
        assert!(buffered > 0);
    }

    #[test]
    fn repeater_spacing_is_physical() {
        let tech = Technology::cmos28();
        let s = repeater_spacing_um(&tech, 7);
        assert!(s > 50.0 && s < 1000.0, "spacing {s}");
        // opening the fat top layers lengthens the optimal segment
        assert!(repeater_spacing_um(&tech, 9) > s);
    }

    #[test]
    fn buffers_reduce_arrival_on_long_nets() {
        let (mut nl, tech) = block("rtx");
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let cfg = OptConfig::default();
        let before = sta_2d(&nl, &tech, &budgets, &cfg);
        let added = insert_buffers(&mut nl, &tech, &cfg, None).unwrap();
        assert!(added > 0, "RTX has long nets to buffer");
        nl.check().expect("buffering must keep the netlist sound");
        let after = sta_2d(&nl, &tech, &budgets, &cfg);
        assert!(
            after.max_arrival_ps < before.max_arrival_ps,
            "{} -> {}",
            before.max_arrival_ps,
            after.max_arrival_ps
        );
    }

    #[test]
    fn full_recipe_improves_timing_and_reports() {
        let (mut nl, tech) = block("l2t0");
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let cfg = OptConfig::default();
        let before = sta_2d(&nl, &tech, &budgets, &cfg);
        let stats = optimize_block(&mut nl, &tech, &budgets, &cfg).unwrap();
        assert!(stats.rounds >= 1);
        let after = sta_2d(&nl, &tech, &budgets, &cfg);
        assert!(after.tns_ps <= before.tns_ps);
        nl.check().expect("netlist stays sound");
    }

    #[test]
    fn dvt_swap_cuts_leakage_without_breaking_timing() {
        let (mut nl, tech) = block("mcu0");
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let mut cfg = OptConfig {
            dual_vth: true,
            ..Default::default()
        };
        let leak = |nl: &Netlist| -> f64 {
            nl.insts()
                .filter_map(|(_, i)| match i.master {
                    InstMaster::Cell(m) => Some(tech.cells.master(m).leakage_uw),
                    InstMaster::Macro(_) => None,
                })
                .sum()
        };
        // settle timing first so the swap is measured in isolation
        cfg.dual_vth = false;
        optimize_block(&mut nl, &tech, &budgets, &cfg).unwrap();
        let leak_before = leak(&nl);
        let report = sta_2d(&nl, &tech, &budgets, &cfg);
        let swapped = swap_to_hvt(&mut nl, &tech, &report, &cfg);
        assert!(swapped > 0);
        assert!(leak(&nl) < leak_before);
        let after = sta_2d(&nl, &tech, &budgets, &cfg);
        assert!(
            after.violations <= report.violations,
            "wns {}",
            after.wns_ps
        );
    }

    #[test]
    fn downsizing_respects_slack_margin() {
        let (mut nl, tech) = block("ccu");
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        let cfg = OptConfig::default();
        let report = sta_2d(&nl, &tech, &budgets, &cfg);
        let wiring = BlockWiring::analyze(&nl, &tech, cfg.detour, None).unwrap();
        let down = downsize_with_slack(&mut nl, &tech, &report, &cfg, &wiring);
        // after downsizing the block must still meet timing
        let after = sta_2d(&nl, &tech, &budgets, &cfg);
        assert!(
            after.violations <= report.violations,
            "downsize moves {down}"
        );
    }
}
