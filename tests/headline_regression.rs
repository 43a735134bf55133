//! Heavier regression checks of the headline reproduction numbers at
//! `small` scale. Ignored by default (each runs small-size chips; the
//! three take under 10 s together in release on a 2-vCPU host); CI runs
//! them with
//!
//! ```text
//! cargo test --release --offline --test headline_regression -- --ignored
//! ```

use foldic::prelude::*;
use foldic_timing::TimingBudgets;

fn pct(base: f64, new: f64) -> f64 {
    (new - base) / base * 100.0
}

/// Fig. 2's headline: the CCX fold saves ≈30 % power with a handful of
/// TSVs (paper −32.8 % with 4).
#[test]
#[ignore = "heavy: small-scale regression"]
fn ccx_fold_saves_about_thirty_percent() {
    let (design, tech) = T2Config::small().generate();
    let id = design.find_block("ccx").unwrap();
    let mut d2 = design.clone();
    let baseline = {
        let b = d2.block_mut(id);
        let budgets = TimingBudgets::relaxed(&b.netlist, &tech);
        run_block_flow(b, &tech, &budgets, &FlowConfig::default())
            .unwrap()
            .metrics
    };
    let mut d3 = design.clone();
    let folded = fold_block(
        d3.block_mut(id),
        &tech,
        &FoldConfig {
            strategy: FoldStrategy::NaturalGroups(vec!["pcx".into()]),
            aspect: FoldAspect::Square,
            bonding: BondingStyle::FaceToBack,
            ..FoldConfig::default()
        },
    )
    .unwrap();
    let delta = pct(baseline.power.total_uw(), folded.metrics.power.total_uw());
    assert!(
        (-45.0..=-15.0).contains(&delta),
        "CCX fold power delta {delta:.1}% out of the paper band"
    );
    assert!(folded.cut <= 12, "cut {}", folded.cut);
}

/// Table 2's headline: both stacking styles beat 2D on total power, by
/// single-digit percent, and land within a few percent of each other.
#[test]
#[ignore = "heavy: small-scale regression"]
fn stacking_saves_single_digit_percent() {
    let (design, tech) = T2Config::small().generate();
    let cfg = FullChipConfig::default();
    let mut d = design.clone();
    let r2 = run_fullchip(&mut d, &tech, DesignStyle::Flat2d, &cfg).unwrap();
    let mut deltas = Vec::new();
    for style in [DesignStyle::CoreCache, DesignStyle::CoreCore] {
        let mut d3 = design.clone();
        let r3 = run_fullchip(&mut d3, &tech, style, &cfg).unwrap();
        let delta = pct(r2.chip.power.total_uw(), r3.chip.power.total_uw());
        assert!(
            (-15.0..0.0).contains(&delta),
            "{}: {delta:.1}%",
            style.label()
        );
        deltas.push(delta);
    }
    assert!(
        (deltas[0] - deltas[1]).abs() < 6.0,
        "the two stacking styles must be close: {deltas:?}"
    );
}

/// Table 5's headline: the folded F2F chip beats the unfolded 3D chip by
/// a clear margin, and 2D by the most.
#[test]
#[ignore = "heavy: small-scale regression"]
fn folding_is_the_bigger_lever() {
    let (design, tech) = T2Config::small().generate();
    let cfg = FullChipConfig {
        dual_vth: true,
        ..FullChipConfig::default()
    };
    let run = |style| {
        let mut d = design.clone();
        run_fullchip(&mut d, &tech, style, &cfg)
            .unwrap()
            .chip
            .power
            .total_uw()
    };
    let p2d = run(DesignStyle::Flat2d);
    let p3d = run(DesignStyle::CoreCache);
    let pfold = run(DesignStyle::FoldedF2f);
    assert!(p3d < p2d);
    assert!(pfold < p3d, "folding {pfold} must beat stacking {p3d}");
    let total = pct(p2d, pfold);
    assert!(
        (-30.0..=-10.0).contains(&total),
        "folded-F2F total delta {total:.1}% out of the paper band (paper -20.3%)"
    );
}
