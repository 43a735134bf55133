//! Constructive user-defined floorplans for the three Fig. 8 styles.

use crate::FloorplanStyle;
use foldic_geom::{Point, Rect, Tier};
use foldic_netlist::{BlockId, Design};

/// Spacing between adjacent blocks in µm (routing channels).
const GAP: f64 = 20.0;
/// Margin between the block array and the die edge in µm.
const MARGIN: f64 = 40.0;

/// One tier's arrangement: rows of block names, bottom-up.
type Rows = Vec<Vec<&'static str>>;

fn rows_2d() -> Rows {
    vec![
        vec!["mac", "rdp", "tds", "rtx", "peu", "dmu"],
        vec!["spc4", "spc5", "spc6", "spc7"],
        vec![
            "l2t4", "l2b4", "l2t5", "l2b5", "l2t6", "l2b6", "l2t7", "l2b7",
        ],
        vec!["l2d4", "l2d5", "mcu2", "mcu3", "l2d6", "l2d7"],
        vec!["ncu", "ccu", "ccx", "siu"],
        vec!["l2d0", "l2d1", "mcu0", "mcu1", "l2d2", "l2d3"],
        vec![
            "l2t0", "l2b0", "l2t1", "l2b1", "l2t2", "l2b2", "l2t3", "l2b3",
        ],
        vec!["spc0", "spc1", "spc2", "spc3"],
    ]
}

fn rows_core_cache() -> (Rows, Rows) {
    let bottom = vec![
        vec!["mac", "rdp", "tds", "rtx", "peu", "dmu"],
        vec![
            "l2t4", "l2b4", "l2t5", "l2b5", "l2t6", "l2b6", "l2t7", "l2b7",
        ],
        vec!["l2d4", "l2d5", "mcu2", "mcu3", "l2d6", "l2d7"],
        vec!["ncu", "ccu", "ccx", "siu"],
        vec!["l2d0", "l2d1", "mcu0", "mcu1", "l2d2", "l2d3"],
        vec![
            "l2t0", "l2b0", "l2t1", "l2b1", "l2t2", "l2b2", "l2t3", "l2b3",
        ],
    ];
    let top = vec![
        vec!["spc4", "spc5", "spc6", "spc7"],
        vec!["spc0", "spc1", "spc2", "spc3"],
    ];
    (bottom, top)
}

fn rows_core_core() -> (Rows, Rows) {
    // Four cores plus a cache slice per die. The tag and data halves of
    // each slice sit on *opposite* dies (tags over data), which is what
    // drives the style's much higher TSV count in Fig. 8 (7,606 vs 3,263).
    let bottom = vec![
        vec!["mac", "rdp", "tds", "rtx"],
        vec![
            "l2t0", "l2b0", "l2t1", "l2b1", "l2t2", "l2b2", "l2t3", "l2b3",
        ],
        vec!["l2d4", "l2d5", "mcu2", "mcu3", "l2d6", "l2d7"],
        vec!["ncu", "ccu", "ccx", "siu"],
        vec!["spc0", "spc1", "spc2", "spc3"],
    ];
    let top = vec![
        vec!["peu", "dmu"],
        vec![
            "l2t4", "l2b4", "l2t5", "l2b5", "l2t6", "l2b6", "l2t7", "l2b7",
        ],
        vec!["l2d0", "l2d1", "mcu0", "mcu1", "l2d2", "l2d3"],
        vec!["spc4", "spc5", "spc6", "spc7"],
    ];
    (bottom, top)
}

/// Packs `rows` of blocks bottom-up, centring each row, and returns the
/// bounding array size `(width, height)` before margins. Positions are
/// written relative to `(0, 0)`; the caller recentres afterwards.
fn pack_rows(design: &mut Design, rows: &Rows, tier: Tier) -> (f64, f64) {
    // resolve ids and row dims first
    let resolved: Vec<Vec<BlockId>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|name| {
                    design
                        .find_block(name)
                        .unwrap_or_else(|| panic!("floorplan references unknown block {name}"))
                })
                .collect()
        })
        .collect();
    let width: f64 = resolved
        .iter()
        .map(|row_ids| {
            row_ids
                .iter()
                .map(|&id| design.block(id).outline.width())
                .sum::<f64>()
                + GAP * (row_ids.len().saturating_sub(1)) as f64
        })
        .fold(0.0, f64::max);
    // place rows bottom-up, centring each row
    let mut y_cursor = 0.0;
    for row_ids in &resolved {
        let row_w: f64 = row_ids
            .iter()
            .map(|&id| design.block(id).outline.width())
            .sum::<f64>()
            + GAP * (row_ids.len().saturating_sub(1)) as f64;
        let row_h = row_ids
            .iter()
            .map(|&id| design.block(id).outline.height())
            .fold(0.0f64, f64::max);
        let mut x = (width - row_w) / 2.0;
        for &id in row_ids {
            let b = design.block_mut(id);
            let h = b.outline.height();
            b.pos = Point::new(x, y_cursor + (row_h - h) / 2.0);
            b.tier = tier;
            x += b.outline.width() + GAP;
        }
        y_cursor += row_h + GAP;
    }
    (width, y_cursor - GAP)
}

/// Translates every block of `tier` so the array is centred inside `die`.
fn recentre(design: &mut Design, tier: Tier, array_w: f64, array_h: f64, die: Rect) {
    let dx = die.llx + (die.width() - array_w) / 2.0;
    let dy = die.lly + (die.height() - array_h) / 2.0;
    for (_, b) in design.blocks_mut() {
        if b.tier == tier {
            b.pos += Point::new(dx, dy);
        }
    }
}

/// Places all blocks per the style's recipe and returns the die outline.
pub fn place_blocks(design: &mut Design, style: FloorplanStyle) -> Rect {
    assert_coverage(design, style);
    match style {
        FloorplanStyle::Flat2d => {
            let rows = rows_2d();
            let (w, h) = pack_rows(design, &rows, Tier::Bottom);
            let die = Rect::new(0.0, 0.0, w + 2.0 * MARGIN, h + 2.0 * MARGIN);
            recentre(design, Tier::Bottom, w, h, die);
            die
        }
        FloorplanStyle::CoreCache | FloorplanStyle::CoreCore => {
            let (bottom, top) = if style == FloorplanStyle::CoreCache {
                rows_core_cache()
            } else {
                rows_core_core()
            };
            let (wb, hb) = pack_rows(design, &bottom, Tier::Bottom);
            let (wt, ht) = pack_rows(design, &top, Tier::Top);
            let die = Rect::new(
                0.0,
                0.0,
                wb.max(wt) + 2.0 * MARGIN,
                hb.max(ht) + 2.0 * MARGIN,
            );
            recentre(design, Tier::Bottom, wb, hb, die);
            recentre(design, Tier::Top, wt, ht, die);
            die
        }
    }
}

/// Checks that `style`'s recipe places every block of `design` exactly
/// once and names no block the design lacks. The error names the first
/// offending block.
///
/// # Errors
///
/// A message naming a block the recipe places twice, one of the design's
/// blocks it leaves out, or a block it names that the design lacks.
pub fn check_coverage(design: &Design, style: FloorplanStyle) -> Result<(), String> {
    let recipe: Vec<&str> = match style {
        FloorplanStyle::Flat2d => rows_2d().into_iter().flatten().collect(),
        FloorplanStyle::CoreCache | FloorplanStyle::CoreCore => {
            let (bottom, top) = if style == FloorplanStyle::CoreCache {
                rows_core_cache()
            } else {
                rows_core_core()
            };
            bottom.into_iter().chain(top).flatten().collect()
        }
    };
    let mut seen = std::collections::HashSet::new();
    if let Some(name) = recipe.iter().find(|name| !seen.insert(**name)) {
        return Err(format!("block {name} placed twice"));
    }
    if let Some((_, b)) = design
        .blocks()
        .find(|(_, b)| !seen.contains(b.name.as_str()))
    {
        return Err(format!(
            "block {} missing from the floorplan recipe",
            b.name
        ));
    }
    match recipe.iter().find(|name| design.find_block(name).is_none()) {
        Some(name) => Err(format!("floorplan references unknown block {name}")),
        None => Ok(()),
    }
}

/// Panics unless [`check_coverage`] passes: the T2 flow only floorplans
/// designs the recipes cover.
fn assert_coverage(design: &Design, style: FloorplanStyle) {
    if let Err(msg) = check_coverage(design, style) {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_cover_each_block_once() {
        let all: Vec<&str> = rows_2d().into_iter().flatten().collect();
        assert_eq!(all.len(), 46);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn stacked_recipes_match_flat_inventory() {
        let flat: std::collections::HashSet<&str> = rows_2d().into_iter().flatten().collect();
        for (bottom, top) in [rows_core_cache(), rows_core_core()] {
            let stacked: std::collections::HashSet<&str> = bottom
                .into_iter()
                .flatten()
                .chain(top.into_iter().flatten())
                .collect();
            assert_eq!(flat, stacked);
        }
    }
}
