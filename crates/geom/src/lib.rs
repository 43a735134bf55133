#![warn(missing_docs)]
//! Geometric primitives for 3D-IC physical design.
//!
//! All coordinates are in **microns** (µm) stored as `f64`. The crate
//! provides points, axis-aligned rectangles, tier (die) identifiers for
//! 2-tier 3D stacks, uniform bin grids, and the supply/demand density map
//! used by the mixed-size placer (including the "macro hole" mechanism of
//! the paper's §4.2), and the outward ring search that TSV and 3D-via
//! placement share.
//!
//! # Examples
//!
//! ```
//! use foldic_geom::{Point, Rect};
//!
//! let r = Rect::new(0.0, 0.0, 10.0, 4.0);
//! assert_eq!(r.area(), 40.0);
//! assert!(r.contains(Point::new(5.0, 2.0)));
//! ```

mod density;
mod grid;
mod point;
mod rect;
mod spiral;
mod tier;

pub use density::DensityMap;
pub use grid::BinGrid;
pub use point::Point;
pub use rect::Rect;
pub use spiral::{ring_of, spiral_sites};
pub use tier::Tier;

/// Clamps `v` into the inclusive range `[lo, hi]`.
///
/// # Panics
///
/// Panics in debug builds if `lo > hi`.
///
/// # Examples
///
/// ```
/// assert_eq!(foldic_geom::clamp(11.0, 0.0, 10.0), 10.0);
/// ```
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_within_bounds() {
        assert_eq!(clamp(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clamp(-1.0, 0.0, 10.0), 0.0);
        assert_eq!(clamp(11.0, 0.0, 10.0), 10.0);
    }
}
