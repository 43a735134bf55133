//! Property-based tests on the core data structures and algorithmic
//! invariants.
//!
//! Offline-first: instead of `proptest` (a registry dependency), each
//! property runs over a seeded stream of random cases from the
//! workspace's own deterministic RNG. Failures print the case seed so a
//! run can be reproduced exactly.

use foldic_geom::{BinGrid, DensityMap, Point, Rect, Tier};
use foldic_netlist::{InstMaster, Netlist, PinRef};
use foldic_partition::{bipartition, PartitionConfig};
use foldic_place::legalize_tier;
use foldic_route::SteinerTree;
use foldic_tech::{CellKind, Drive, Technology, VthClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn rng_for(test: &str, case: u64) -> StdRng {
    StdRng::seed_from_u64(rand::derive_seed(&[
        "suite-properties",
        test,
        &case.to_string(),
    ]))
}

fn rand_point(rng: &mut StdRng, max: f64) -> Point {
    Point::new(rng.gen_range(0.0..max), rng.gen_range(0.0..max))
}

/// Rect intersection is commutative and contained in both operands.
#[test]
fn rect_intersection_properties() {
    for case in 0..CASES {
        let mut rng = rng_for("rect-intersection", case);
        let rect = |rng: &mut StdRng| {
            let x = rng.gen_range(0.0..100.0);
            let y = rng.gen_range(0.0..100.0);
            let w = rng.gen_range(1.0..50.0);
            let h = rng.gen_range(1.0..50.0);
            Rect::new(x, y, x + w, y + h)
        };
        let ra = rect(&mut rng);
        let rb = rect(&mut rng);
        let ab = ra.intersection(rb);
        let ba = rb.intersection(ra);
        assert_eq!(ab, ba, "case {case}");
        if let Some(i) = ab {
            assert!(ra.contains_rect(i), "case {case}");
            assert!(rb.contains_rect(i), "case {case}");
            assert!(i.area() <= ra.area().min(rb.area()) + 1e-9, "case {case}");
        }
        // union always covers both
        let u = ra.union(rb);
        assert!(u.contains_rect(ra), "case {case}");
        assert!(u.contains_rect(rb), "case {case}");
    }
}

/// The Steiner tree is connected: every sink has a finite path to the
/// driver no shorter than its Manhattan distance, and the tree length is
/// at least the farthest pin's distance while never exceeding the star
/// topology's total.
#[test]
fn steiner_tree_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for("steiner", case);
        let driver = rand_point(&mut rng, 1000.0);
        let n = rng.gen_range(1..12usize);
        let sinks: Vec<Point> = (0..n).map(|_| rand_point(&mut rng, 1000.0)).collect();
        let tree = SteinerTree::build(driver, &sinks);
        let mut star = 0.0f64;
        for (i, s) in sinks.iter().enumerate() {
            let d = driver.manhattan(*s);
            let path = tree.sink_path_length(i);
            assert!(path.is_finite(), "case {case}");
            assert!(
                path >= d - 1e-6,
                "case {case}: tree path {path} < direct {d}"
            );
            star += d;
        }
        assert!(tree.mst_length() <= star + 1e-6, "case {case}");
        let farthest = sinks
            .iter()
            .map(|s| driver.manhattan(*s))
            .fold(0.0, f64::max);
        assert!(tree.mst_length() >= farthest - 1e-6, "case {case}");
    }
}

/// Density map conservation: distributed demand never exceeds what was
/// added, and equals it when no holes exist.
#[test]
fn density_demand_is_conserved() {
    for case in 0..CASES {
        let mut rng = rng_for("density", case);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10, 10);
        let mut dm = DensityMap::new(grid, 0.9);
        let mut added = 0.0;
        for _ in 0..rng.gen_range(1..20usize) {
            let x = rng.gen_range(0.0..90.0);
            let y = rng.gen_range(0.0..90.0);
            let w = rng.gen_range(1.0..10.0);
            let h = rng.gen_range(1.0..10.0);
            let r = Rect::new(x, y, x + w, y + h);
            dm.add_demand(r, r.area());
            added += r.area();
        }
        assert!(
            (dm.total_demand() - added).abs() < 1e-6 * added.max(1.0),
            "case {case}"
        );
    }
}

/// FM partitioning on random netlists: the reported cut matches a
/// recount and balance respects the (loose) tolerance. Two cases in three
/// add a signal net over 64 or 65 distinct instances (one of them on two
/// pins): the recount must apply FM's degree cap too.
#[test]
fn fm_cut_matches_recount() {
    for case in 0..CASES {
        let mut rng = rng_for("fm-recount", case);
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Nand2, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("rand");
        let ids: Vec<_> = (0..70)
            .map(|i| nl.add_inst(format!("c{i}"), master))
            .collect();
        let num_edges = rng.gen_range(10..120usize);
        for k in 0..num_edges {
            let a = rng.gen_range(0..40usize);
            let b = rng.gen_range(0..40usize);
            if a == b {
                continue;
            }
            let n = nl.add_net(format!("n{k}"));
            nl.connect_driver(n, PinRef::output(ids[a]));
            nl.connect_sink(n, PinRef::input(ids[b], 0));
        }
        let width = [0, 64, 65][case as usize % 3];
        if width > 0 {
            let n = nl.add_net("wide");
            nl.connect_driver(n, PinRef::output(ids[0]));
            for &s in &ids[1..width] {
                nl.connect_sink(n, PinRef::input(s, 0));
            }
            nl.connect_sink(n, PinRef::input(ids[1], 1));
        }
        let seed = rng.gen_range(0..50u64);
        let cfg = PartitionConfig {
            seed,
            ..Default::default()
        };
        let part = bipartition(&nl, &tech, &cfg);
        assert_eq!(part.cut, part.cut_size(&nl), "case {case}");
        assert!(part.balance(&nl, &tech) <= 0.25, "case {case}");
    }
}

/// Legalization produces overlap-free, in-outline placements for any
/// random overfilled-but-feasible start.
#[test]
fn legalizer_is_overlap_free() {
    for case in 0..CASES {
        let mut rng = rng_for("legalize", case);
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X2, VthClass::Rvt));
        let outline = Rect::new(0.0, 0.0, 80.0, 24.0);
        let mut nl = Netlist::new("legal");
        for i in 0..rng.gen_range(5..60usize) {
            let p = rand_point(&mut rng, 80.0);
            let id = nl.add_inst(format!("c{i}"), master);
            nl.inst_mut(id).pos = Point::new(p.x, p.y.min(23.0));
        }
        legalize_tier(&mut nl, &tech, outline, &[], None);
        let rects: Vec<Rect> = nl.insts().map(|(_, i)| i.rect(&tech)).collect();
        for (i, a) in rects.iter().enumerate() {
            assert!(outline.inflated(1e-6).contains_rect(*a), "case {case}");
            for b in &rects[i + 1..] {
                let overlap = a.intersection(*b).map(|x| x.area()).unwrap_or(0.0);
                assert!(overlap < 1e-9, "case {case}: overlap {overlap}");
            }
        }
    }
}

/// Tier involution and pin-tier consistency on random tier flips.
#[test]
fn net_3d_detection_matches_tiers() {
    for case in 0..CASES {
        let mut rng = rng_for("tiers", case);
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Buf, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("tiers");
        let ids: Vec<_> = (0..8)
            .map(|i| nl.add_inst(format!("c{i}"), master))
            .collect();
        let flips: Vec<bool> = (0..8).map(|_| rng.gen::<bool>()).collect();
        for (i, f) in flips.iter().enumerate() {
            if *f {
                nl.inst_mut(ids[i]).tier = Tier::Top;
            }
        }
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(ids[0]));
        for &s in &ids[1..] {
            nl.connect_sink(n, PinRef::input(s, 0));
        }
        let mixed = flips.iter().any(|&f| f != flips[0]);
        assert_eq!(nl.net_is_3d(n), mixed, "case {case}");
    }
}
