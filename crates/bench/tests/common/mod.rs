//! Shared helpers of the `repro` gate tests.

use std::path::PathBuf;

/// A scratch directory of one test, `<tmp>/foldic-<name>-<pid>`, removed
/// when the guard drops, so a failing assertion cleans up too.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates the directory (removing what an earlier run of the same
    /// process id left there).
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("foldic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    /// A path inside the directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
