//! Adversarial property tests for the `foldic-db/1` snapshot reader:
//! `load_design_bytes` consumes whatever bytes land on disk, so arbitrary
//! input must yield a loaded design or a typed [`DbError`], **never** a
//! panic — and every form of file damage (truncation, bit flips, header
//! corruption) must surface as the matching error variant. A final
//! round-trip property checks that randomly-shaped valid designs survive
//! save → load → save byte-identically.
//!
//! Seeding matches `crates/serve/tests/cost_fuzz.rs`: `FOLDIC_FUZZ_SEED`
//! (decimal u64) when set, a fixed default otherwise.

use foldic_geom::{Rect, Tier};
use foldic_netlist::db::{load_design_bytes, save_design, DbError};
use foldic_netlist::{
    Block, BlockKind, ChipNet, ClockDomain, Design, InstMaster, Netlist, PinRef, PortDir, PortId,
};
use foldic_tech::{CellKind, CellLibrary, Drive, MacroKind, VthClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const SOUP_ITERS: usize = 10_000;

fn fuzz_seed() -> u64 {
    std::env::var("FOLDIC_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDBF0_0D14)
}

/// Saves a design through the real writer and hands back the file bytes
/// (the reader's bytes entry point skips no validation, so fuzzing the
/// in-memory path covers the file path too).
fn save_to_vec(d: &Design, salt: &str) -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("foldic-db-fuzz-{}-{call}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join(format!("{salt}.fdb"));
    save_design(d, &[("generator", "db_fuzz"), ("salt", salt)], &path).unwrap();
    std::fs::read(&path).unwrap()
}

/// A directory removed when the guard drops, also when an assertion fails.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A structurally valid design with randomized shape: 1–3 blocks, a
/// random mix of chains and fan-out nets, optional ports, groups, tiers,
/// macros, clock nets and chip nets — everything the format serializes.
fn random_design(rng: &mut StdRng) -> Design {
    let lib = CellLibrary::cmos28();
    let inv = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
    let nand = InstMaster::Cell(lib.id_of(CellKind::Nand2, Drive::X2, VthClass::Hvt));
    let mut d = Design::new("fuzz-chip");
    let blocks = rng.gen_range(1..4usize);
    let mut first_ports = 0usize;
    for b in 0..blocks {
        let mut nl = Netlist::new(format!("b{b}"));
        let t = nl.name_template("u", "");
        let nt = nl.name_template("n", "");
        let group = rng.gen_bool(0.5).then(|| nl.add_group("g"));
        let ports = rng.gen_range(0..4usize);
        if b == 0 {
            first_ports = ports;
        }
        for p in 0..ports {
            let dir = if p % 2 == 0 {
                PortDir::Input
            } else {
                PortDir::Output
            };
            nl.add_port(format!("p{p}"), dir, ClockDomain::Io);
        }
        let n = rng.gen_range(1..40usize);
        let mut prev = None;
        for i in 0..n {
            let master = if rng.gen_bool(0.1) {
                InstMaster::Macro(MacroKind::Sram4k)
            } else if rng.gen_bool(0.5) {
                inv
            } else {
                nand
            };
            let u = nl.add_inst(t.at(i), master);
            if rng.gen_bool(0.3) {
                nl.inst_mut(u).tier = Tier::Top;
            }
            if let Some(g) = group {
                if rng.gen_bool(0.3) {
                    nl.inst_mut(u).group = Some(g);
                }
            }
            let net = nl.add_net(nt.at(i));
            match prev {
                None => {}
                Some(q) => nl.connect_driver(net, PinRef::output(q)),
            }
            if prev.is_some() {
                nl.connect_sink(net, PinRef::input(u, 0));
                if rng.gen_bool(0.3) {
                    nl.connect_sink(net, PinRef::input(u, 1));
                }
            }
            prev = Some(u);
        }
        if rng.gen_bool(0.5) {
            let clk = nl.add_net("clk");
            nl.connect_driver(clk, PinRef::output(prev.unwrap()));
            nl.net_mut(clk).is_clock = true;
        }
        d.add_block(Block::new(
            format!("b{b}"),
            if b == 0 {
                BlockKind::Misc
            } else {
                BlockKind::Ccx
            },
            nl,
            Rect::new(0.0, 0.0, 50.0, 50.0),
        ));
    }
    if first_ports > 0 && rng.gen_bool(0.5) {
        d.add_chip_net(ChipNet {
            name: "bus".into(),
            endpoints: vec![(foldic_netlist::BlockId(0), PortId(0))],
            bits: rng.gen_range(1..65u32),
            domain: ClockDomain::Cpu,
        });
    }
    d
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed());
    for i in 0..SOUP_ITERS {
        let len = rng.gen_range(0..600usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        // half the time, lead with valid magic (and often a valid
        // version) so the fuzz reaches past the header checks
        if rng.gen_bool(0.5) && bytes.len() >= 12 {
            bytes[..8].copy_from_slice(b"FOLDICDB");
            if rng.gen_bool(0.5) {
                bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            }
        }
        let result = std::panic::catch_unwind(|| load_design_bytes(&bytes).is_ok());
        match result {
            Ok(loaded) => assert!(
                !loaded,
                "iteration {i} (seed {}): random soup loaded as a design",
                fuzz_seed()
            ),
            Err(_) => panic!("iteration {i} (seed {}): reader panicked", fuzz_seed()),
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x7472_756E);
    let bytes = save_to_vec(&random_design(&mut rng), "trunc");
    for cut in 0..bytes.len() {
        match load_design_bytes(&bytes[..cut]) {
            Ok(_) => panic!("prefix of {cut}/{} bytes loaded as a design", bytes.len()),
            Err(DbError::Truncated | DbError::Corrupt(_) | DbError::SectionDigest { .. }) => {}
            Err(other) => panic!("truncation at {cut} gave unexpected error: {other}"),
        }
    }
    assert!(
        load_design_bytes(&bytes).is_ok(),
        "the untruncated file loads"
    );
}

#[test]
fn every_single_byte_flip_is_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x666C_6970);
    let bytes = save_to_vec(&random_design(&mut rng), "flip");
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        let result = std::panic::catch_unwind(|| load_design_bytes(&bad).is_ok());
        match result {
            Ok(loaded) => assert!(
                !loaded,
                "flip at byte {pos}/{} loaded anyway (seed {})",
                bytes.len(),
                fuzz_seed()
            ),
            Err(_) => panic!("flip at byte {pos} panicked (seed {})", fuzz_seed()),
        }
    }
}

#[test]
fn section_body_damage_fails_the_section_digest() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x6469_6765);
    let bytes = save_to_vec(&random_design(&mut rng), "digest");
    // Header: magic[0..8] version[8..12] count[12..16] table_off[16..24].
    // Everything in [24, table_off) is section bodies, each digested.
    let table_off = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    assert!(table_off > 24 && table_off <= bytes.len());
    for _ in 0..200 {
        let pos = rng.gen_range(24..table_off);
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(
            matches!(load_design_bytes(&bad), Err(DbError::SectionDigest { .. })),
            "body flip at {pos} (table at {table_off}) missed the digest check"
        );
    }
}

#[test]
fn random_designs_round_trip_byte_identically() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x7274_7270);
    for i in 0..100 {
        let d = random_design(&mut rng);
        let bytes = save_to_vec(&d, "rt");
        let (d2, info) = match load_design_bytes(&bytes) {
            Ok(ok) => ok,
            Err(e) => panic!(
                "iteration {i} (seed {}): valid design rejected: {e}",
                fuzz_seed()
            ),
        };
        assert_eq!(info.cells, d.total_insts() as u64, "iteration {i}");
        assert_eq!(info.nets, d.total_nets() as u64, "iteration {i}");
        assert_eq!(d2.num_blocks(), d.num_blocks(), "iteration {i}");
        for (id, a) in d.blocks() {
            let b = d2.block(id);
            assert_eq!(a.netlist.num_insts(), b.netlist.num_insts());
            assert_eq!(a.netlist.num_nets(), b.netlist.num_nets());
            for (nid, net) in a.netlist.nets() {
                let other = b.netlist.net(nid);
                assert_eq!(net.driver, other.driver, "iteration {i}");
                assert!(net.sinks().eq(other.sinks()), "iteration {i}");
            }
        }
        assert_eq!(
            save_to_vec(&d2, "rt"),
            bytes,
            "iteration {i} (seed {}): re-save is not byte-identical",
            fuzz_seed()
        );
    }
}
