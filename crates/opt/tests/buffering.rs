//! Buffer-insertion topology and sizing-pass invariants.

use foldic_geom::{Point, Tier};
use foldic_netlist::{InstId, InstMaster, Netlist, PinRef};
use foldic_opt::{
    downsize_with_slack, insert_buffers, optimize_block, repeater_spacing_um,
    revert_hvt_on_violations, swap_to_hvt, upsize_critical, OptConfig,
};
use foldic_place::{place_block, place_folded, PlacerConfig};
use foldic_route::{place_vias, BlockWiring};
use foldic_tech::{BondingStyle, CellKind, Drive, Technology, VthClass};
use foldic_timing::{analyze, StaConfig, TimingBudgets};

fn two_point_net(len: f64) -> (Netlist, Technology) {
    let tech = Technology::cmos28();
    let m = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt));
    let mut nl = Netlist::new("t");
    let a = nl.add_inst("a", m);
    let b = nl.add_inst("b", m);
    nl.inst_mut(b).pos = Point::new(len, 0.0);
    let n = nl.add_net("w");
    nl.connect_driver(n, PinRef::output(a));
    nl.connect_sink(n, PinRef::input(b, 0));
    (nl, tech)
}

#[test]
fn chain_splits_into_even_segments() {
    let tech = Technology::cmos28();
    let spacing = repeater_spacing_um(&tech, 7);
    let len = spacing * 3.5;
    let (mut nl, tech) = two_point_net(len);
    let cfg = OptConfig::default();
    let added = insert_buffers(&mut nl, &tech, &cfg, None).unwrap();
    assert!(
        added >= 2,
        "expected a chain on a {len:.0} µm net, got {added}"
    );
    nl.check().expect("sound after chaining");
    // total wirelength must stay ~the same (detour-free straight line)
    let wiring = BlockWiring::analyze(&nl, &tech, 1.0, None).unwrap();
    assert!(
        (wiring.total_um - len).abs() < 0.05 * len,
        "chain stretched the route: {} vs {len}",
        wiring.total_um
    );
    // every inserted buffer lies on the segment between the endpoints
    for (_, inst) in nl.insts() {
        assert!(inst.pos.x >= -1.0 && inst.pos.x <= len + 1.0);
        assert!(inst.pos.y.abs() < 1.0);
    }
    // and no segment exceeds the spacing by much
    for (_, net) in nl.nets() {
        let d = net.pins().map(|p| nl.pin_pos(p)).collect::<Vec<_>>();
        if d.len() == 2 {
            assert!(d[0].manhattan(d[1]) < spacing * 1.6);
        }
    }
}

#[test]
fn short_nets_are_left_alone() {
    let (mut nl, tech) = two_point_net(20.0);
    let cfg = OptConfig::default();
    let added = insert_buffers(&mut nl, &tech, &cfg, None).unwrap();
    assert_eq!(added, 0);
    assert_eq!(nl.num_insts(), 2);
}

#[test]
fn fanout_buffer_takes_only_far_sinks() {
    let tech = Technology::cmos28();
    let spacing = repeater_spacing_um(&tech, 7);
    let m = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt));
    let mut nl = Netlist::new("fan");
    let d = nl.add_inst("d", m);
    let near = nl.add_inst("near", m);
    let far1 = nl.add_inst("far1", m);
    let far2 = nl.add_inst("far2", m);
    nl.inst_mut(near).pos = Point::new(10.0, 0.0);
    nl.inst_mut(far1).pos = Point::new(2.2 * spacing, 10.0);
    nl.inst_mut(far2).pos = Point::new(2.2 * spacing, -10.0);
    let n = nl.add_net("w");
    nl.connect_driver(n, PinRef::output(d));
    for s in [near, far1, far2] {
        nl.connect_sink(n, PinRef::input(s, 0));
    }
    let cfg = OptConfig::default();
    let added = insert_buffers(&mut nl, &tech, &cfg, None).unwrap();
    assert!(added >= 1);
    nl.check().expect("sound");
    // the near sink must still hang on the original net
    let orig = nl.net(foldic_netlist::NetId(0));
    assert!(orig.sinks().any(|s| s == PinRef::input(near, 0)));
    assert!(!orig.sinks().any(|s| s == PinRef::input(far1, 0)));
}

#[test]
fn upsizing_saturates_at_x16() {
    let tech = Technology::cmos28();
    let (mut nl, _) = two_point_net(9000.0);
    let budgets = TimingBudgets::relaxed(&nl, &tech);
    // hammer the upsizer many rounds; drives must cap at X16
    for _ in 0..10 {
        let wiring = BlockWiring::analyze(&nl, &tech, 1.1, None).unwrap();
        let rep = analyze(&nl, &tech, &wiring, &budgets, &StaConfig::default()).unwrap();
        upsize_critical(&mut nl, &tech, &rep);
    }
    for (_, inst) in nl.insts() {
        if let InstMaster::Cell(m) = inst.master {
            assert!(tech.cells.master(m).drive.factor() <= 16.0);
        }
    }
}

#[test]
fn optimize_block_never_leaves_dangling_nets() {
    let (design, tech) = foldic_t2::T2Config::tiny().generate();
    for name in ["ccu", "ncu", "rtx"] {
        let mut nl = design
            .block(design.find_block(name).unwrap())
            .netlist
            .clone();
        let budgets = TimingBudgets::relaxed(&nl, &tech);
        optimize_block(&mut nl, &tech, &budgets, &OptConfig::default()).unwrap();
        nl.check().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn second_optimization_pass_is_nearly_idempotent() {
    let (design, tech) = foldic_t2::T2Config::tiny().generate();
    let mut nl = design
        .block(design.find_block("mcu0").unwrap())
        .netlist
        .clone();
    let budgets = TimingBudgets::relaxed(&nl, &tech);
    let cfg = OptConfig::default();
    optimize_block(&mut nl, &tech, &budgets, &cfg).unwrap();
    let cells_after_first = nl.num_insts();
    let stats = optimize_block(&mut nl, &tech, &budgets, &cfg).unwrap();
    // a settled design re-optimized must barely change
    assert!(
        stats.buffers_added * 20 <= cells_after_first,
        "second pass added {} buffers on {cells_after_first} cells",
        stats.buffers_added
    );
}

/// One `NetLength` as exact bits: net index, length, sink paths, 3D flag.
type NetLengthBits = (usize, u64, Vec<u64>, bool);

/// A wiring analysis as exact bits: every `NetLength`, then the total.
fn wiring_bits(w: &BlockWiring) -> (Vec<NetLengthBits>, u64) {
    let nets = w
        .nets
        .iter()
        .map(|n| {
            let paths = n.sink_paths.iter().map(|p| p.to_bits()).collect();
            (n.net.index(), n.length_um.to_bits(), paths, n.is_3d)
        })
        .collect();
    (nets, w.total_um.to_bits())
}

/// The optimizer analyses a block's wiring once, after buffering, and
/// reuses it through every sizing round. That is sound only while sizing
/// moves (which rewrite masters) leave the analysis untouched: pin
/// positions and tiers must not depend on the master.
#[test]
fn sizing_moves_leave_the_wiring_analysis_bit_identical() {
    let (design, tech) = foldic_t2::T2Config::tiny().generate();
    let block = design.block(design.find_block("rtx").unwrap());
    let outline = block.outline;
    let cfg = OptConfig {
        dual_vth: true,
        ..Default::default()
    };
    for folded in [false, true] {
        let mut nl = block.netlist.clone();
        let vias = if folded {
            // fold by geometry: the right half of the block goes on top
            let mid = outline.center().x;
            let ids: Vec<InstId> = nl.inst_ids().collect();
            for id in ids {
                if nl.inst(id).pos.x > mid {
                    nl.inst_mut(id).tier = Tier::Top;
                }
            }
            place_folded(&mut nl, &tech, outline, &PlacerConfig::fast(), &[]).unwrap();
            Some(place_vias(&nl, &tech, outline, BondingStyle::FaceToBack).unwrap())
        } else {
            place_block(&mut nl, &tech, outline, &PlacerConfig::fast()).unwrap();
            None
        };
        let vias = vias.as_ref();
        assert!(insert_buffers(&mut nl, &tech, &cfg, vias).unwrap() > 0);
        let before = BlockWiring::analyze(&nl, &tech, cfg.detour, vias).unwrap();
        if folded {
            assert!(before.num_3d > 0, "the fold must cut nets");
        }

        // tight budgets, so the upsizer has violations to fix
        let mut budgets = TimingBudgets::relaxed(&nl, &tech);
        for r in &mut budgets.output_required_ps {
            *r *= 0.2;
        }
        let sta_cfg = StaConfig {
            max_layer: cfg.max_layer,
            via_kind: vias.map(|v| v.kind()),
        };
        let sta = |nl: &Netlist| analyze(nl, &tech, &before, &budgets, &sta_cfg).unwrap();
        let report = sta(&nl);
        let up = upsize_critical(&mut nl, &tech, &report);
        let report = sta(&nl);
        let down = downsize_with_slack(&mut nl, &tech, &report, &cfg, &before);
        let report = sta(&nl);
        let hvt = swap_to_hvt(&mut nl, &tech, &report, &cfg);
        let report = sta(&nl);
        revert_hvt_on_violations(&mut nl, &tech, &report);
        assert!(
            up > 0 && down > 0 && hvt > 0,
            "folded {folded}: every kind of sizing move must fire \
             (up {up}, down {down}, hvt {hvt})"
        );

        let after = BlockWiring::analyze(&nl, &tech, cfg.detour, vias).unwrap();
        assert!(
            wiring_bits(&before) == wiring_bits(&after),
            "folded {folded}: sizing moved the wiring analysis"
        );
        assert_eq!(before.long_wires, after.long_wires);
        assert_eq!(before.num_3d, after.num_3d);
    }
}
