//! Folding from a partition the caller computed.
//!
//! The Fig. 2 and Fig. 7 sweeps and the ablations compute each block's
//! min-cut once and fold every point from a degraded copy of it. That is
//! only sound if such a fold is the `Quality(q)` fold bit for bit.

use foldic::prelude::*;
use foldic::{FlowError, FlowStage};
use foldic_partition::{bipartition, degrade_partition, PartitionConfig};

/// Metrics as `Debug` text, the via count and the cut of one fold.
fn fold_summary(block: &Block, tech: &Technology, cfg: &FoldConfig) -> (String, usize, usize) {
    let mut block = block.clone();
    let f = fold_block(&mut block, tech, cfg).expect("fold");
    (format!("{:?}", f.metrics), f.vias.len(), f.cut)
}

#[test]
fn folding_a_degraded_shared_min_cut_matches_the_quality_fold() {
    let (design, tech) = T2Config::tiny().generate();
    let pcfg = PartitionConfig::default();
    for name in ["ccx", "l2t0"] {
        let block = design.block(design.find_block(name).expect("block exists"));
        let min_cut = bipartition(&block.netlist, &tech, &pcfg);
        for q in [1.0, 0.6, 0.0] {
            let given = degrade_partition(&block.netlist, &pcfg, min_cut.clone(), q);
            for bonding in [BondingStyle::FaceToBack, BondingStyle::FaceToFace] {
                let cfg = |strategy| FoldConfig {
                    strategy,
                    bonding,
                    partition: pcfg.clone(),
                    ..FoldConfig::fast()
                };
                assert_eq!(
                    fold_summary(block, &tech, &cfg(FoldStrategy::Given(given.clone()))),
                    fold_summary(block, &tech, &cfg(FoldStrategy::Quality(q))),
                    "{name} q={q} {bonding:?}"
                );
            }
        }
    }
}

#[test]
fn a_partition_of_another_block_is_a_typed_partition_error() {
    let (design, tech) = T2Config::tiny().generate();
    let pcfg = PartitionConfig::default();
    let ccx = design.block(design.find_block("ccx").expect("ccx"));
    let l2t = design.block(design.find_block("l2t0").expect("l2t0"));
    let wrong = bipartition(&ccx.netlist, &tech, &pcfg);
    assert_ne!(wrong.tier_of.len(), l2t.netlist.num_insts());
    let mut block = l2t.clone();
    let cfg = FoldConfig {
        strategy: FoldStrategy::Given(wrong),
        ..FoldConfig::fast()
    };
    let err: FlowError = fold_block(&mut block, &tech, &cfg).expect_err("size mismatch");
    assert_eq!(err.stage, FlowStage::Partition);
    assert_eq!(err.block.as_deref(), Some("l2t0"));
    assert!(!block.folded, "the block is untouched");
}
