//! Rectilinear net topology: Prim spanning tree with per-sink path
//! lengths and a Steiner-ratio correction.

use foldic_geom::Point;

/// Empirical ratio between a rectilinear Steiner tree and the rectilinear
/// MST for random point sets; the router applies it to MST lengths.
pub const STEINER_RATIO: f64 = 0.85;

/// A routing topology for one net: a spanning tree over the driver and
/// sink positions in the Manhattan metric.
#[derive(Debug, Clone)]
pub struct SteinerTree {
    /// Pin positions; index 0 is the driver.
    points: Vec<Point>,
    /// Parent index per point (parent of the driver is itself).
    parent: Vec<usize>,
    /// Tree distance from the driver to each point.
    path_len: Vec<f64>,
    /// Total edge length (MST, before the Steiner correction).
    mst_len: f64,
}

impl SteinerTree {
    /// Builds the topology for a driver and its sinks (Prim's algorithm,
    /// O(p²) — net degrees are small).
    pub fn build(driver: Point, sinks: &[Point]) -> Self {
        let mut prim = Prim::default();
        prim.start(driver);
        prim.points.extend_from_slice(sinks);
        let mst_len = prim.build();
        Self {
            points: prim.points,
            parent: prim.parent,
            path_len: prim.path_len,
            mst_len,
        }
    }

    /// Steiner-corrected total wirelength of the net in µm.
    pub fn total_length(&self) -> f64 {
        steiner_length(self.mst_len, self.points.len())
    }

    /// Raw spanning-tree length in µm.
    pub fn mst_length(&self) -> f64 {
        self.mst_len
    }

    /// Tree distance from the driver to sink `i` (0-based over the sink
    /// slice passed to [`SteinerTree::build`]).
    pub fn sink_path_length(&self, i: usize) -> f64 {
        self.path_len[i + 1]
    }

    /// Number of pins (driver + sinks).
    pub fn num_pins(&self) -> usize {
        self.points.len()
    }

    /// Tree edges as `(child, parent)` point pairs (for plotting / the
    /// global router).
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        (1..self.points.len()).map(|i| (self.points[i], self.points[self.parent[i]]))
    }
}

/// Steiner-corrected length of a spanning tree of `num_pins` pins.
pub(crate) fn steiner_length(mst_len: f64, num_pins: usize) -> f64 {
    if num_pins <= 3 {
        // MST is optimal (equals RSMT) for 2 pins; near-optimal for 3
        mst_len
    } else {
        mst_len * STEINER_RATIO
    }
}

/// Prim's algorithm with its buffers, reusable across nets: the wiring
/// analysis keeps one per call and refills it per net.
#[derive(Debug, Default)]
pub(crate) struct Prim {
    /// Pin positions; index 0 is the driver. Filled by the caller after
    /// [`Prim::start`].
    pub(crate) points: Vec<Point>,
    parent: Vec<usize>,
    /// Tree distance from the driver to each point, after [`Prim::build`].
    pub(crate) path_len: Vec<f64>,
    in_tree: Vec<bool>,
    best_d: Vec<f64>,
    best_p: Vec<usize>,
}

impl Prim {
    /// Starts a net at `driver`, dropping the previous net's points.
    pub(crate) fn start(&mut self, driver: Point) {
        self.points.clear();
        self.points.push(driver);
    }

    /// Builds the spanning tree over `points` and returns its length.
    ///
    /// A point's driver path is set when Prim inserts it, from its parent's
    /// (already final) path. A NaN or infinite coordinate can end the scan
    /// before every point is in the tree; such a point keeps parent 0 and
    /// gets `path_len[0] + manhattan(driver, p)`.
    pub(crate) fn build(&mut self) -> f64 {
        let points = &self.points;
        let n = points.len();
        self.parent.clear();
        self.parent.resize(n, 0);
        self.path_len.clear();
        self.path_len.resize(n, 0.0);
        self.in_tree.clear();
        self.in_tree.resize(n, false);
        self.best_d.clear();
        self.best_d.resize(n, f64::INFINITY);
        self.best_p.clear();
        self.best_p.resize(n, 0);
        self.in_tree[0] = true;
        for i in 1..n {
            self.best_d[i] = points[0].manhattan(points[i]);
        }
        let mut mst_len = 0.0;
        for _ in 1..n {
            // pick the nearest out-of-tree point
            let mut v = usize::MAX;
            let mut d = f64::INFINITY;
            for i in 1..n {
                if !self.in_tree[i] && self.best_d[i] < d {
                    d = self.best_d[i];
                    v = i;
                }
            }
            if v == usize::MAX {
                break;
            }
            self.in_tree[v] = true;
            let p = self.best_p[v];
            self.parent[v] = p;
            // best_d[v] is points[p].manhattan(points[v])
            self.path_len[v] = self.path_len[p] + d;
            mst_len += d;
            for i in 1..n {
                if !self.in_tree[i] {
                    let nd = points[v].manhattan(points[i]);
                    if nd < self.best_d[i] {
                        self.best_d[i] = nd;
                        self.best_p[i] = v;
                    }
                }
            }
        }
        for i in 1..n {
            if !self.in_tree[i] {
                self.path_len[i] = self.path_len[0] + points[0].manhattan(points[i]);
            }
        }
        mst_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pin_net_is_manhattan() {
        let t = SteinerTree::build(Point::new(0.0, 0.0), &[Point::new(3.0, 4.0)]);
        assert_eq!(t.total_length(), 7.0);
        assert_eq!(t.sink_path_length(0), 7.0);
    }

    #[test]
    fn chain_paths_accumulate() {
        let sinks = [
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let t = SteinerTree::build(Point::new(0.0, 0.0), &sinks);
        assert_eq!(t.mst_length(), 30.0);
        assert_eq!(t.sink_path_length(2), 30.0);
        assert_eq!(t.sink_path_length(0), 10.0);
    }

    #[test]
    fn steiner_ratio_applies_to_big_nets() {
        let sinks: Vec<Point> = (0..8)
            .map(|i| Point::new((i % 3) as f64 * 10.0, (i / 3) as f64 * 10.0))
            .collect();
        let t = SteinerTree::build(Point::new(15.0, 15.0), &sinks);
        assert!((t.total_length() - t.mst_length() * STEINER_RATIO).abs() < 1e-9);
        assert!(t.total_length() < t.mst_length());
    }

    #[test]
    fn star_prefers_hub_edges() {
        // sinks around a central driver must connect directly (no chain)
        let sinks = [
            Point::new(10.0, 0.0),
            Point::new(-10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(0.0, -10.0),
        ];
        let t = SteinerTree::build(Point::ORIGIN, &sinks);
        assert_eq!(t.mst_length(), 40.0);
        for i in 0..4 {
            assert_eq!(t.sink_path_length(i), 10.0);
        }
    }

    #[test]
    fn degenerate_single_pin() {
        let t = SteinerTree::build(Point::ORIGIN, &[]);
        assert_eq!(t.total_length(), 0.0);
        assert_eq!(t.num_pins(), 1);
    }

    #[test]
    fn unreached_points_get_the_direct_driver_distance() {
        let sinks = [
            Point::new(10.0, 0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(f64::INFINITY, 5.0),
        ];
        let t = SteinerTree::build(Point::ORIGIN, &sinks);
        assert_eq!(t.mst_length(), 10.0, "only the finite sink joins");
        assert_eq!(t.sink_path_length(0), 10.0);
        assert!(t.sink_path_length(1).is_nan());
        assert_eq!(t.sink_path_length(2), f64::INFINITY);
    }

    // ---- insertion-order paths vs relaxation oracle ----------------------

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDAC1_4D1A)
    }

    /// SplitMix64: the route crate has no RNG dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The build [`SteinerTree::build`] replaced: Prim without path
    /// bookkeeping, then driver paths resolved by repeated relaxation.
    fn build_relaxed(driver: Point, sinks: &[Point]) -> SteinerTree {
        let mut points = Vec::with_capacity(sinks.len() + 1);
        points.push(driver);
        points.extend_from_slice(sinks);
        let n = points.len();
        let mut parent = vec![0usize; n];
        let mut in_tree = vec![false; n];
        let mut best_d = vec![f64::INFINITY; n];
        let mut best_p = vec![0usize; n];
        in_tree[0] = true;
        for i in 1..n {
            best_d[i] = points[0].manhattan(points[i]);
        }
        let mut mst_len = 0.0;
        for _ in 1..n {
            let mut v = usize::MAX;
            let mut d = f64::INFINITY;
            for i in 1..n {
                if !in_tree[i] && best_d[i] < d {
                    d = best_d[i];
                    v = i;
                }
            }
            if v == usize::MAX {
                break;
            }
            in_tree[v] = true;
            parent[v] = best_p[v];
            mst_len += d;
            for i in 1..n {
                if !in_tree[i] {
                    let nd = points[v].manhattan(points[i]);
                    if nd < best_d[i] {
                        best_d[i] = nd;
                        best_p[i] = v;
                    }
                }
            }
        }
        let mut path_len = vec![0.0; n];
        let mut resolved = vec![false; n];
        resolved[0] = true;
        let mut remaining = n - 1;
        while remaining > 0 {
            let mut progressed = false;
            for i in 1..n {
                if !resolved[i] && resolved[parent[i]] {
                    path_len[i] = path_len[parent[i]] + points[parent[i]].manhattan(points[i]);
                    resolved[i] = true;
                    remaining -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        SteinerTree {
            points,
            parent,
            path_len,
            mst_len,
        }
    }

    /// A coordinate: continuous, on a coarse integer grid (duplicates and
    /// equal-distance ties), or on one line (collinear ties); now and then
    /// NaN or ±inf.
    fn coord(rng: &mut SplitMix, mode: u64, special: bool) -> f64 {
        if special && rng.below(12) == 0 {
            return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
        }
        match mode {
            0 => rng.unit() * 1000.0,
            _ => rng.below(6) as f64 * 10.0,
        }
    }

    /// 4,000 random nets: the insertion-order build must equal the
    /// relaxation oracle bit for bit — MST length, every sink path and
    /// every edge. Covers 0–3 sinks, duplicate points, collinear points
    /// with equal-distance ties, 160-sink nets, and NaN/±inf coordinates
    /// (which leave points out of the tree). Seeded via
    /// `FOLDIC_FUZZ_SEED` like the other oracle suites.
    #[test]
    fn insertion_order_paths_match_relaxation_oracle_bitwise() {
        const ITERS: usize = 4_000;
        let mut rng = SplitMix(fuzz_seed());
        let mut unreached = 0usize;
        for iter in 0..ITERS {
            let sinks_n = match iter % 10 {
                0 => iter / 10 % 4,
                1 if iter % 50 == 1 => 160,
                _ => 1 + rng.below(40) as usize,
            };
            let mode = rng.below(3);
            let special = iter % 4 == 3;
            let point = |rng: &mut SplitMix| {
                let x = coord(rng, mode, special);
                let y = if mode == 2 {
                    0.0
                } else {
                    coord(rng, mode, special)
                };
                Point::new(x, y)
            };
            let driver = point(&mut rng);
            let sinks: Vec<Point> = (0..sinks_n).map(|_| point(&mut rng)).collect();
            let new = SteinerTree::build(driver, &sinks);
            let old = build_relaxed(driver, &sinks);
            assert_eq!(
                new.mst_length().to_bits(),
                old.mst_length().to_bits(),
                "case {iter}: mst"
            );
            for i in 0..sinks_n {
                let (a, b) = (new.sink_path_length(i), old.sink_path_length(i));
                assert_eq!(a.to_bits(), b.to_bits(), "case {iter}: sink {i}");
                if !a.is_finite() {
                    unreached += 1;
                }
            }
            let bits = |t: &SteinerTree| -> Vec<[u64; 4]> {
                t.edges()
                    .map(|(c, p)| [c.x.to_bits(), c.y.to_bits(), p.x.to_bits(), p.y.to_bits()])
                    .collect()
            };
            assert_eq!(bits(&new), bits(&old), "case {iter}: edges");
        }
        assert!(unreached > 0, "no case left a point out of the tree");
    }
}
