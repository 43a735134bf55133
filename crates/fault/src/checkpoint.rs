//! Checkpoint/resume for long full-chip runs.
//!
//! A [`CheckpointStore`] persists completed per-block results in a
//! [`Jsonl`] log (`foldic-checkpoint/1`), one compact line per entry
//! (`{"key":…,"value":…}`). Appending after every completed block means
//! an interrupted run loses at most the blocks that were in flight; a
//! resumed run replays the finished ones from the store and recomputes
//! only the rest. Values round-trip bit-exactly (the JSON writer uses
//! shortest round-trip float formatting), which is what makes resumed
//! output byte-identical to an uninterrupted run.
//!
//! Loading keeps the log's intact prefix: a torn, corrupt or non-UTF-8
//! line (a killed append) is dropped with everything after it, and
//! those blocks are simply recomputed.

use crate::jsonl::{Jsonl, JsonlError};
use foldic_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag written as the first line of every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "foldic-checkpoint/1";

/// An append-only key→JSON store backed by a JSONL log (or memory).
///
/// Keys are free-form strings; the flow uses `style_key/block` so one
/// store covers every run scope of a full-chip experiment. Duplicate
/// keys are last-wins, so re-running a block simply supersedes its
/// earlier entry.
#[derive(Debug)]
pub struct CheckpointStore {
    entries: Mutex<BTreeMap<String, Json>>,
    /// The backing log; `None` for an in-memory store.
    log: Option<Jsonl>,
    hits: AtomicU64,
}

impl CheckpointStore {
    /// Opens (or creates) a checkpoint file, loading the entries of its
    /// intact prefix (see the module docs) and trimming the rest, so
    /// later appends start on a clean boundary.
    ///
    /// # Errors
    ///
    /// A [`JsonlError`] when the file cannot be created or read, carries
    /// a different schema tag, or holds the same key twice with
    /// different values ([`JsonlError::Conflict`]: two runs with
    /// different configurations shared the file; identical duplicates
    /// are fine, since re-running a block re-appends its entry).
    pub fn open(path: &Path) -> Result<Self, JsonlError> {
        let mut entries: BTreeMap<String, Json> = BTreeMap::new();
        let (log, _) = Jsonl::open(path, CHECKPOINT_SCHEMA, |line| {
            let (Some(key), Some(value)) =
                (line.get("key").and_then(Json::as_str), line.get("value"))
            else {
                return Ok(false);
            };
            if entries.get(key).is_some_and(|prev| prev != value) {
                return Err(format!(
                    "checkpoint key `{key}` appears twice with different values"
                ));
            }
            entries.insert(key.to_owned(), value.clone());
            Ok(true)
        })?;
        Ok(Self {
            entries: Mutex::new(entries),
            log: Some(log),
            hits: AtomicU64::new(0),
        })
    }

    /// A store with no backing file (used by tests and `--resume`-less
    /// runs that still want the replay API).
    pub fn in_memory() -> Self {
        Self {
            entries: Mutex::new(BTreeMap::new()),
            log: None,
            hits: AtomicU64::new(0),
        }
    }

    /// Looks up a completed entry; counts a resume hit when found.
    pub fn get(&self, key: &str) -> Option<Json> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a completed entry and appends it to the backing file
    /// (written before returning, so a kill right after loses nothing).
    pub fn put(&self, key: &str, value: Json) {
        let line = Json::obj([
            ("key".to_owned(), Json::Str(key.to_owned())),
            ("value".to_owned(), value.clone()),
        ]);
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_owned(), value);
        if let Some(log) = &self.log {
            // Checkpointing is best-effort: an unwritable disk degrades
            // resume, it must not fail the run.
            let _ = log.append([line], false);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of [`CheckpointStore::get`] calls that found an entry —
    /// i.e. blocks skipped on resume.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("foldic-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn persists_and_reloads_bit_exact() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let value = Json::obj([
            ("wl".to_owned(), Json::Num(1_234.567_890_123_4)),
            ("pi".to_owned(), Json::Num(std::f64::consts::PI)),
        ]);
        {
            let store = CheckpointStore::open(&path).unwrap();
            store.put("flat2d/dec", value.clone());
            store.put("flat2d/dec", value.clone()); // last-wins duplicate
            store.put("folded/ccu", Json::Num(-1e-17));
        }
        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("flat2d/dec"), Some(value));
        assert_eq!(store.get("folded/ccu"), Some(Json::Num(-1e-17)));
        assert_eq!(store.get("missing"), None);
        assert_eq!(store.hits(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerates_torn_tail() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path).unwrap();
            store.put("a", Json::Num(1.0));
            store.put("b", Json::Num(2.0));
        }
        // simulate a kill mid-append: chop the last 7 bytes
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "torn entry dropped, intact entry kept");
        assert_eq!(store.get("a"), Some(Json::Num(1.0)));
        // the store stays appendable after a torn load
        store.put("c", Json::Num(3.0));
        let again = CheckpointStore::open(&path).unwrap();
        assert_eq!(again.get("c"), Some(Json::Num(3.0)));
        let _ = std::fs::remove_file(&path);
    }

    /// One byte set to 0xFF in the second entry, or a cut inside its
    /// `—`: the first entry loads, the file is trimmed to it, and a
    /// reopen sees the same store (both used to fail as I/O errors).
    #[test]
    fn non_utf8_second_entry_keeps_the_first() {
        let path = tmp("utf8");
        for flip in [true, false] {
            let _ = std::fs::remove_file(&path);
            {
                let store = CheckpointStore::open(&path).unwrap();
                store.put("a", Json::Num(1.0));
                store.put("b", Json::Str("x — y".to_owned()));
            }
            let mut bytes = std::fs::read(&path).unwrap();
            let dash = bytes.windows(3).position(|w| w == "—".as_bytes()).unwrap();
            if flip {
                bytes[dash - 2] = 0xFF;
            } else {
                bytes.truncate(dash + 1);
            }
            std::fs::write(&path, &bytes).unwrap();
            let first_end = bytes[..dash].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            for _ in 0..2 {
                let store = CheckpointStore::open(&path).unwrap();
                assert_eq!(store.len(), 1, "flip {flip}");
                assert_eq!(store.get("a"), Some(Json::Num(1.0)));
                assert_eq!(std::fs::read(&path).unwrap(), bytes[..first_end]);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_schema() {
        let path = tmp("schema");
        std::fs::write(&path, "{\"schema\":\"other/9\"}\n").unwrap();
        assert_eq!(
            CheckpointStore::open(&path).unwrap_err(),
            JsonlError::SchemaMismatch {
                want: CHECKPOINT_SCHEMA,
                got: Some("other/9".to_owned())
            }
        );
        std::fs::write(&path, "{\"version\":1}\n").unwrap();
        assert_eq!(
            CheckpointStore::open(&path).unwrap_err(),
            JsonlError::SchemaMismatch {
                want: CHECKPOINT_SCHEMA,
                got: None
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_unparseable_header() {
        let path = tmp("badheader");
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(matches!(
            CheckpointStore::open(&path).unwrap_err(),
            JsonlError::BadHeader(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_conflicting_duplicate_but_keeps_identical_rewrites() {
        let path = tmp("dup");
        let _ = std::fs::remove_file(&path);
        let header = format!("{{\"schema\":\"{CHECKPOINT_SCHEMA}\"}}\n");
        // identical re-append (a legitimately re-run block): loads fine
        std::fs::write(
            &path,
            format!("{header}{{\"key\":\"a\",\"value\":1}}\n{{\"key\":\"a\",\"value\":1}}\n"),
        )
        .unwrap();
        assert_eq!(CheckpointStore::open(&path).unwrap().len(), 1);
        // same key, different value: two incompatible runs shared the
        // file — refuse to replay either
        std::fs::write(
            &path,
            format!("{header}{{\"key\":\"a\",\"value\":1}}\n{{\"key\":\"a\",\"value\":2}}\n"),
        )
        .unwrap();
        assert!(matches!(
            CheckpointStore::open(&path).unwrap_err(),
            JsonlError::Conflict(msg) if msg.contains("`a`")
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_errors_are_typed() {
        let dir = std::env::temp_dir().join("foldic-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // opening a directory as a checkpoint file fails with Io
        assert!(matches!(
            CheckpointStore::open(&dir).unwrap_err(),
            JsonlError::Io(_)
        ));
    }

    #[test]
    fn in_memory_store_needs_no_disk() {
        let store = CheckpointStore::in_memory();
        assert!(store.is_empty());
        store.put("k", Json::Bool(true));
        assert_eq!(store.get("k"), Some(Json::Bool(true)));
    }
}
