//! Adversarial property tests for the `foldic-db/1` snapshot reader:
//! `load_design_bytes` consumes whatever bytes land on disk, so arbitrary
//! input must yield a loaded design or a typed [`DbError`], **never** a
//! panic — and every form of file damage (truncation, bit flips, header
//! corruption) must surface as the matching error variant. Crafted section
//! tables (shuffled records, edge and wrapping offsets, overlapping
//! records) pin the reader's table scan; a plain byte-at-a-time FNV-1a
//! is the oracle for the digests its one-pass walk computes. A final
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
use rand::seq::SliceRandom;
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

/// Header: magic[0..8] version[8..12] count[12..16] table_off[16..24].
/// Each 32-byte table record: tag[0..4] index[4..8] off[8..16]
/// len[16..24] digest[24..32].
const RECORD_LEN: usize = 32;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Where the section table starts, and its record count.
fn table_of(bytes: &[u8]) -> (usize, usize) {
    (u64_at(bytes, 16) as usize, u32_at(bytes, 12) as usize)
}

/// The reference digest: FNV-1a one byte at a time, in the `fnv64:`
/// notation of `DbInfo::digest`.
fn plain_fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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
    for _ in 0..20 {
        let bytes = save_to_vec(&random_design(&mut rng), "digest");
        // Everything in [24, table_off) is section bodies, each digested.
        let (table, n) = table_of(&bytes);
        assert!(table > 24 && table <= bytes.len());
        for _ in 0..20 {
            let pos = rng.gen_range(24..table);
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << rng.gen_range(0..8u32);
            let rec = (0..n)
                .map(|r| table + r * RECORD_LEN)
                .find(|&at| {
                    let off = u64_at(&bytes, at + 8) as usize;
                    (off..off + u64_at(&bytes, at + 16) as usize).contains(&pos)
                })
                .expect("every body byte lies in a section");
            let (tag, index) = (u32_at(&bytes, rec), u32_at(&bytes, rec + 4));
            match load_design_bytes(&bad) {
                Err(DbError::SectionDigest { tag: t, index: i }) if (t, i) == (tag, index) => {}
                other => {
                    panic!("body flip at {pos} (section tag={tag} index={index}) gave {other:?}")
                }
            }
        }
    }
}

#[test]
fn load_digests_match_a_plain_fnv1a() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x6f72_6163);
    for i in 0..100 {
        let bytes = save_to_vec(&random_design(&mut rng), "oracle");
        let (_, info) = load_design_bytes(&bytes).expect("valid design loads");
        assert_eq!(
            info.digest,
            format!("fnv64:{:016x}", plain_fnv1a(&bytes)),
            "iteration {i} (seed {})",
            fuzz_seed()
        );
        let (table, n) = table_of(&bytes);
        for at in (0..n).map(|r| table + r * RECORD_LEN) {
            let off = u64_at(&bytes, at + 8) as usize;
            let len = u64_at(&bytes, at + 16) as usize;
            assert_eq!(
                u64_at(&bytes, at + 24),
                plain_fnv1a(&bytes[off..off + len]),
                "iteration {i}: record at {at}"
            );
        }
    }
}

#[test]
fn shuffled_table_records_load_the_same_design() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x7368_7566);
    for i in 0..50 {
        let bytes = save_to_vec(&random_design(&mut rng), "shuffle");
        let (_, want) = load_design_bytes(&bytes).expect("valid design loads");
        let (table, _) = table_of(&bytes);
        let mut records: Vec<&[u8]> = bytes[table..].chunks_exact(RECORD_LEN).collect();
        records.shuffle(&mut rng);
        let mut shuffled = bytes[..table].to_vec();
        for r in records {
            shuffled.extend_from_slice(r);
        }
        let (d, info) = match load_design_bytes(&shuffled) {
            Ok(ok) => ok,
            Err(e) => panic!(
                "iteration {i} (seed {}): shuffled table rejected: {e}",
                fuzz_seed()
            ),
        };
        assert_eq!(info.meta, want.meta, "iteration {i}");
        assert_eq!(
            (info.cells, info.nets),
            (want.cells, want.nets),
            "iteration {i}"
        );
        assert_eq!(
            info.digest,
            format!("fnv64:{:016x}", plain_fnv1a(&shuffled)),
            "iteration {i}"
        );
        assert_eq!(
            save_to_vec(&d, "shuffle"),
            bytes,
            "iteration {i}: another design"
        );
    }
}

#[test]
fn edge_section_offsets_and_lengths_are_typed_errors() {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x6564_6765);
    let bytes = save_to_vec(&random_design(&mut rng), "edges");
    let (table, n) = table_of(&bytes);
    let t = table as u64;
    let mut edges = vec![0, 23, 24, t - 1, t, t + 1];
    edges.extend([0, 1, 7, 8, 23, 24, t - 1, t, t + 1].map(|k| u64::MAX - k));
    for r in 0..n {
        let at = table + r * RECORD_LEN;
        for field in [8, 16] {
            for &v in &edges {
                if u64_at(&bytes, at + field) == v {
                    continue;
                }
                let mut bad = bytes.clone();
                bad[at + field..at + field + 8].copy_from_slice(&v.to_le_bytes());
                let (off, len) = (u64_at(&bad, at + 8), u64_at(&bad, at + 16));
                let outside = off < 24 || off.checked_add(len).is_none_or(|end| end > t);
                let what = format!("record {r} with off={off} len={len} (table at {t})");
                match std::panic::catch_unwind(|| load_design_bytes(&bad)) {
                    Err(_) => panic!("{what} panicked (seed {})", fuzz_seed()),
                    Ok(Err(DbError::Truncated)) if outside => {}
                    Ok(Err(DbError::Corrupt(_) | DbError::SectionDigest { .. })) if !outside => {}
                    Ok(other) => panic!("{what} gave {:?}", other.map(|_| ())),
                }
            }
        }
        // another record's bytes, digest and all: the two overlap
        for other in (0..n).filter(|&o| o != r) {
            let from = table + other * RECORD_LEN;
            let mut bad = bytes.clone();
            bad.copy_within(from + 8..from + RECORD_LEN, at + 8);
            assert!(
                matches!(load_design_bytes(&bad), Err(DbError::Corrupt(_))),
                "record {r} naming record {other}'s bytes was not rejected as corrupt"
            );
        }
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
