//! Outward square-ring search over a site grid.
//!
//! Both the chip-level TSV planner and the block-level 3D-via placer look
//! for the free legal site nearest an ideal grid position by walking
//! square rings of growing Chebyshev radius around it. The walks share
//! one visit order, defined here: ring by ring outward; within a ring,
//! columns ascending, and within a column rows ascending. That is the
//! order of the textbook loop
//!
//! ```text
//! for dc in -ring..=ring {
//!     for dr in -ring..=ring {
//!         if dc.abs() != ring && dr.abs() != ring { continue; }
//!         visit(c0 + dc, r0 + dr);
//!     }
//! }
//! ```
//!
//! which spends O(ring²) steps per ring skipping the interior. The walk
//! here steps only along the perimeter, O(ring) per ring, and drops sites
//! outside the grid. It is a hand-rolled iterator rather than an adaptor
//! chain: most searches stop within a ring or two, where per-site cost
//! decides, and there nested `flat_map`s cost several times the loop.

/// The ring of `center` that `site` lies on: their Chebyshev distance.
///
/// # Examples
///
/// ```
/// assert_eq!(foldic_geom::ring_of((2, 2), (5, 1)), 3);
/// ```
#[inline]
pub fn ring_of(center: (i64, i64), site: (i64, i64)) -> i64 {
    (site.0 - center.0).abs().max((site.1 - center.1).abs())
}

/// Grid sites around `center`, ring by ring outward over the rings
/// `first_ring..max(cols, rows, 1)`; off-grid sites are skipped.
///
/// Within a ring the columns ascend. The ring's two edge columns yield
/// their rows ascending, an inner column its bottom site, then its top
/// site. `center` may lie outside the grid.
///
/// From a centre inside the grid the rings `0..` reach every site exactly
/// once, nearest rings first, so `spiral_sites(c, 0, ..).find(free)` is
/// the nearest free site in Chebyshev distance with ties broken by visit
/// order. A search that knows its inner rings hold no free site may start
/// at a later `first_ring` and finds the same site.
///
/// # Examples
///
/// ```
/// use foldic_geom::spiral_sites;
///
/// let all: Vec<_> = spiral_sites((0, 0), 0, 2, 2).collect();
/// assert_eq!(all, [(0, 0), (0, 1), (1, 0), (1, 1)]);
/// let outer: Vec<_> = spiral_sites((0, 0), 1, 2, 2).collect();
/// assert_eq!(outer, [(0, 1), (1, 0), (1, 1)]);
/// ```
pub fn spiral_sites(
    center: (i64, i64),
    first_ring: i64,
    cols: i64,
    rows: i64,
) -> impl Iterator<Item = (i64, i64)> {
    Rings::new(center, first_ring, cols.max(rows).max(1), cols, rows)
}

/// The walk over the rings `first_ring..end`, as a cursor into the
/// current column.
struct Rings {
    center: (i64, i64),
    cols: i64,
    rows: i64,
    ring: i64,
    end: i64,
    /// Current column and the ring's last on-grid column.
    col: i64,
    last_col: i64,
    /// Next row of the current column, its last row, and the row step.
    row: i64,
    last_row: i64,
    step: i64,
}

impl Rings {
    fn new(center: (i64, i64), first_ring: i64, end: i64, cols: i64, rows: i64) -> Self {
        // start "past" an empty column of the ring before `first_ring`,
        // so the first `next` enters `first_ring`
        Self {
            center,
            cols,
            rows,
            ring: first_ring.max(0) - 1,
            end,
            col: 0,
            last_col: 0,
            row: 1,
            last_row: 0,
            step: 1,
        }
    }
}

impl Iterator for Rings {
    type Item = (i64, i64);

    #[inline]
    fn next(&mut self) -> Option<(i64, i64)> {
        let (c0, r0) = self.center;
        loop {
            while self.row <= self.last_row {
                let r = self.row;
                self.row += self.step;
                if (0..self.rows).contains(&r) {
                    return Some((self.col, r));
                }
            }
            if self.col < self.last_col {
                self.col += 1;
            } else {
                self.ring += 1;
                if self.ring >= self.end {
                    self.ring = self.end;
                    return None;
                }
                self.col = (c0 - self.ring).max(0);
                self.last_col = (c0 + self.ring).min(self.cols - 1);
                if self.col > self.last_col {
                    continue; // the ring misses the grid's columns
                }
            }
            let ring = self.ring;
            if (self.col - c0).abs() == ring {
                self.row = (r0 - ring).max(0);
                self.last_row = (r0 + ring).min(self.rows - 1);
                self.step = 1;
            } else {
                // an inner column crosses the ring only at dr = ±ring
                self.row = r0 - ring;
                self.last_row = r0 + ring;
                self.step = 2 * ring;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sites of one ring, in visit order.
    fn ring_sites(center: (i64, i64), ring: i64, cols: i64, rows: i64) -> Vec<(i64, i64)> {
        Rings::new(center, ring, ring + 1, cols, rows).collect()
    }

    /// The skip-interior walk the iterator replaces, kept as the oracle.
    fn naive_ring(center: (i64, i64), ring: i64, cols: i64, rows: i64) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for dc in -ring..=ring {
            for dr in -ring..=ring {
                if dc.abs() != ring && dr.abs() != ring {
                    continue;
                }
                let (c, r) = (center.0 + dc, center.1 + dr);
                if c >= 0 && r >= 0 && c < cols && r < rows {
                    out.push((c, r));
                }
            }
        }
        out
    }

    #[test]
    fn unclipped_rings_match_the_skip_interior_walk() {
        // a grid wide enough that no ring up to 64 is clipped: the sites
        // are exactly the old (dc, dr) sequence shifted by the centre
        let center = (100, 100);
        for ring in 0..=64 {
            let got = ring_sites(center, ring, 201, 201);
            let offsets: Vec<_> = got.iter().map(|&(c, r)| (c - 100, r - 100)).collect();
            assert_eq!(got, naive_ring(center, ring, 201, 201), "ring {ring}");
            assert_eq!(got.len() as i64, if ring == 0 { 1 } else { 8 * ring });
            if ring > 0 {
                assert_eq!(offsets[0], (-ring, -ring));
                assert_eq!(offsets[1], (-ring, -ring + 1));
                assert_eq!(*offsets.last().unwrap(), (ring, ring));
            }
        }
        assert_eq!(ring_sites(center, 0, 201, 201), [center]);
    }

    #[test]
    fn clipped_rings_match_the_skip_interior_walk() {
        // grids smaller than the ring, centres on corners, edges, inside
        // and outside the grid (a clamped coordinate can equal `cols`)
        let grids = [(0, 0), (1, 1), (1, 7), (3, 2), (5, 5), (9, 4)];
        for (cols, rows) in grids {
            for c0 in -2..=cols + 2 {
                for r0 in -2..=rows + 2 {
                    for ring in 0..=12 {
                        assert_eq!(
                            ring_sites((c0, r0), ring, cols, rows),
                            naive_ring((c0, r0), ring, cols, rows),
                            "grid {cols}x{rows} centre ({c0}, {r0}) ring {ring}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spiral_follows_the_old_ring_bound() {
        for (cols, rows) in [(0, 0), (1, 1), (4, 1), (3, 6), (8, 8)] {
            for center in [(0, 0), (cols / 2, rows / 2), (cols, rows), (-1, rows + 3)] {
                let naive: Vec<_> = (0..cols.max(rows).max(1))
                    .flat_map(|ring| naive_ring(center, ring, cols, rows))
                    .collect();
                let got: Vec<_> = spiral_sites(center, 0, cols, rows).collect();
                assert_eq!(got, naive, "grid {cols}x{rows} centre {center:?}");
                // a later first ring drops exactly the inner rings
                let outer: Vec<_> = spiral_sites(center, 2, cols, rows).collect();
                let inner = naive.iter().filter(|&&s| ring_of(center, s) < 2).count();
                assert_eq!(
                    outer,
                    naive[inner..],
                    "grid {cols}x{rows} centre {center:?}"
                );
            }
        }
    }

    #[test]
    fn spiral_from_inside_covers_every_site_once() {
        let (cols, rows) = (7, 4);
        let mut got: Vec<_> = spiral_sites((5, 1), 0, cols, rows).collect();
        assert_eq!(got.len(), (cols * rows) as usize);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), (cols * rows) as usize);
    }
}
