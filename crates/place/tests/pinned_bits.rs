//! Pins the placer's output bits across commits.
//!
//! The goldens compare reports at three decimals, so a placement drift
//! below 1e-3 µm would pass every other gate. This test places one
//! synthetic block — built with integer arithmetic only, so no libm
//! rounding can move it between platforms — flat and folded at
//! `PlacerConfig::quality()`, and compares an FNV-1a digest of every
//! coordinate's bit pattern with a recorded value. A change that is meant
//! to move placements must update the constants and say why.

use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{ClockDomain, InstId, InstMaster, Netlist, PinRef, PortDir};
use foldic_place::{place_block, place_folded, Obstacle, PlacerConfig};
use foldic_tech::{CellKind, Drive, MacroKind, Technology, VthClass};

const CELLS: usize = 600;

/// Digest of the flat placement (`place_block`).
const FLAT_DIGEST: &str = "7c7276d8406051f6";
/// Digest of the folded placement (`place_folded`, one top-tier obstacle).
const FOLDED_DIGEST: &str = "f759b917bc82b617";

/// A 240 × 192 µm block: 600 cells at LCG-scattered integer positions,
/// one fixed register-file macro, eight boundary ports, 3-pin chain nets
/// (cliques), 13-pin fan-out nets (stars) and a macro-driven net.
fn synthetic_block(tech: &Technology) -> (Netlist, Rect) {
    let outline = Rect::new(0.0, 0.0, 240.0, 192.0);
    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Buf,
        CellKind::Aoi21,
        CellKind::Dff,
    ];
    let mut nl = Netlist::new("pinned");
    let mut state = 0x2014_0DACu64;
    let cells: Vec<InstId> = (0..CELLS)
        .map(|k| {
            let drive = if k % 3 == 0 { Drive::X2 } else { Drive::X1 };
            let kind = kinds[k % kinds.len()];
            let id = nl.add_inst(
                format!("c{k}"),
                InstMaster::Cell(tech.cells.id_of(kind, drive, VthClass::Rvt)),
            );
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = ((state >> 33) % 239) as f64 + 0.5;
            let y = ((state >> 13) % 191) as f64 + 0.5;
            nl.inst_mut(id).pos = Point::new(x, y);
            id
        })
        .collect();
    let regfile = nl.add_inst("rf", InstMaster::Macro(MacroKind::RegFile));
    {
        let mut m = nl.inst_mut(regfile);
        m.pos = Point::new(75.0, 60.0);
        m.fixed = true;
    }
    let ports: Vec<PinRef> = (0..8)
        .map(|i| {
            let p = nl.add_port(format!("p{i}"), PortDir::Input, ClockDomain::Cpu);
            nl.port_mut(p).pos = match i % 4 {
                0 => Point::new(0.0, 24.0 * i as f64),
                1 => Point::new(240.0, 24.0 * i as f64),
                2 => Point::new(30.0 * i as f64, 0.0),
                _ => Point::new(30.0 * i as f64, 192.0),
            };
            PinRef::port(p)
        })
        .collect();
    for k in 0..CELLS - 1 {
        let net = nl.add_net(format!("n{k}"));
        nl.connect_driver(net, PinRef::output(cells[k]));
        nl.connect_sink(net, PinRef::input(cells[k + 1], 0));
        nl.connect_sink(net, PinRef::input(cells[(k * 7 + 3) % CELLS], 1));
    }
    for k in (0..CELLS).step_by(40) {
        let net = nl.add_net(format!("fan{k}"));
        nl.connect_driver(net, PinRef::output(cells[(k + 5) % CELLS]));
        for j in 1..13 {
            nl.connect_sink(net, PinRef::input(cells[(k + 13 * j) % CELLS], 0));
        }
    }
    for (i, &port) in ports.iter().enumerate() {
        let net = nl.add_net(format!("in{i}"));
        nl.connect_driver(net, port);
        nl.connect_sink(net, PinRef::input(cells[i * 71], 1));
    }
    let rd = nl.add_net("rd");
    nl.connect_driver(rd, PinRef::output(regfile));
    for j in 0..6 {
        nl.connect_sink(rd, PinRef::input(cells[100 + 11 * j], 0));
    }
    (nl, outline)
}

/// 64-bit FNV-1a over the little-endian bit patterns of every instance
/// coordinate, in instance order.
fn position_digest(nl: &Netlist) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, inst) in nl.insts() {
        for v in [inst.pos.x, inst.pos.y] {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

#[test]
fn placement_bits_match_the_recorded_digests() {
    let tech = Technology::cmos28();
    let cfg = PlacerConfig::quality();
    let (base, outline) = synthetic_block(&tech);

    let mut flat = base.clone();
    place_block(&mut flat, &tech, outline, &cfg).unwrap();

    let mut folded = base;
    let ids: Vec<InstId> = folded
        .insts()
        .filter(|(_, i)| !i.fixed)
        .map(|(id, _)| id)
        .collect();
    for (k, id) in ids.into_iter().enumerate() {
        if k * 5 % 7 < 3 {
            folded.inst_mut(id).tier = Tier::Top;
        }
    }
    let obstacle = Obstacle {
        rect: Rect::new(150.0, 120.0, 170.0, 140.0),
        tier: Some(Tier::Top),
    };
    place_folded(&mut folded, &tech, outline, &cfg, &[obstacle]).unwrap();

    assert_eq!(
        [position_digest(&flat), position_digest(&folded)],
        [FLAT_DIGEST, FOLDED_DIGEST]
    );
}
