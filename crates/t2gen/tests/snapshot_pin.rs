//! Pins the generator's output byte for byte: the whole-file digest of
//! the `foldic-db/1` snapshot of the tiny and small T2 at the default
//! seed, and of the tiny T2 at eight more seeds. Every sampler must make
//! the same RNG draws, with the same bounds, over pools in the same
//! member order, or a digest moves. A change meant to move the generated
//! design must update the constants and say why.

use foldic_netlist::db::{file_digest, save_design};
use foldic_t2::T2Config;
use std::path::{Path, PathBuf};

/// A per-process scratch directory, removed on drop (also when an
/// assertion fails).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("foldic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn snapshot_digest(cfg: &T2Config, dir: &Path) -> String {
    let (design, _) = cfg.generate();
    let path = dir.join(format!("t2-{}-{:x}.db", cfg.size, cfg.seed));
    save_design(&design, &[("generator", "t2")], &path).expect("save snapshot");
    file_digest(&path).expect("digest snapshot")
}

#[test]
fn default_seed_snapshots_are_pinned() {
    let dir = ScratchDir::new("t2-pin-default");
    assert_eq!(
        snapshot_digest(&T2Config::tiny(), &dir.0),
        "fnv64:8dc32405f1667ea0"
    );
    assert_eq!(
        snapshot_digest(&T2Config::small(), &dir.0),
        "fnv64:048e11eb7a0c04bb"
    );
}

#[test]
fn tiny_snapshots_at_eight_seeds_are_pinned() {
    const PINNED: [(u64, &str); 8] = [
        (1, "fnv64:30aa9298d0b3fe49"),
        (2, "fnv64:b46847dfc1930aa6"),
        (7, "fnv64:f40d09e7e5033f33"),
        (42, "fnv64:2a726bdc1678215b"),
        (501, "fnv64:8d7794c9d4c0caf2"),
        (0xBEEF, "fnv64:7d80da9dd1608e07"),
        (0x5EED_5EED, "fnv64:ac8ee41d235adbaf"),
        (u64::MAX, "fnv64:34aa9d35b4ace854"),
    ];
    let dir = ScratchDir::new("t2-pin-seeds");
    let got: Vec<(u64, String)> = PINNED
        .iter()
        .map(|&(seed, _)| {
            let cfg = T2Config {
                seed,
                ..T2Config::tiny()
            };
            (seed, snapshot_digest(&cfg, &dir.0))
        })
        .collect();
    let want: Vec<(u64, String)> = PINNED.iter().map(|&(s, d)| (s, d.to_owned())).collect();
    assert_eq!(got, want);
}
