//! Adversarial property tests for the write-ahead job journal loader,
//! 10 000 seeded iterations across three corruption families.
//!
//! Properties:
//!
//! 1. **The loader never panics**: torn tails (a SIGKILL mid-append),
//!    duplicated and interleaved records, and arbitrary byte mutations
//!    all yield `Ok` or a *typed* `JsonlError` — never an unwind.
//!    The journal is the recovery path; a panic here turns one crash
//!    into a boot loop. A tail torn anywhere, even inside a multi-byte
//!    character of a record, must load.
//! 2. **Replay is idempotent**: whenever a corrupted file loads at all,
//!    loading it again yields the *identical* [`Replay`] — the first
//!    open trims the torn suffix, so the second sees a clean file. This
//!    is the invariant the chaos gate's third boot asserts end-to-end.
//! 3. **Corruption never invents jobs**: every job id a corrupted load
//!    reports was accepted by the uncorrupted writer (mutations can
//!    lose records, never fabricate them) — checked for the torn-tail
//!    family where the valid prefix is known exactly.
//!
//! The iteration stream is deterministic: seeded from `FOLDIC_FUZZ_SEED`
//! (decimal u64) when set, a fixed default otherwise, so CI failures
//! reproduce locally by exporting the same seed.

use foldic_serve::journal::{Journal, Record, Replay};
use foldic_serve::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const ITERS: usize = 10_000;

fn fuzz_seed() -> u64 {
    std::env::var("FOLDIC_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDAC1_4F00D)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("foldic-journal-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// A random but *internally consistent* record stream: re-accepts of a
/// job id reuse its digest (the legitimate restart shape), so the
/// uncorrupted file always loads.
fn random_records(rng: &mut StdRng) -> Vec<Record> {
    let names = ["table1", "table2", "fig2", "fig3"];
    let n = rng.gen_range(1..12usize);
    let mut digests: BTreeMap<u64, String> = BTreeMap::new();
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let job = rng.gen_range(1..6u64);
        let attempt = rng.gen_range(1..4u32);
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let name = names[rng.gen_range(0..names.len())];
                let digest = digests
                    .entry(job)
                    .or_insert_with(|| format!("fnv64:{job:016x}"))
                    .clone();
                let mut config = BTreeMap::new();
                config.insert("experiments".to_owned(), name.to_owned());
                config.insert("size".to_owned(), "tiny".to_owned());
                records.push(Record::Accepted {
                    job,
                    attempt,
                    digest,
                    spec: JobSpec {
                        experiments: vec![name.to_owned()],
                        size: "tiny".to_owned(),
                        ..JobSpec::default()
                    },
                    config,
                    request_id: rng.gen_bool(0.5).then(|| format!("req-{job:06x}")),
                    idempotency_key: rng.gen_bool(0.3).then(|| format!("spec-{job:016x}")),
                });
            }
            5..=6 => records.push(Record::Started { job, attempt }),
            _ => {
                let state = ["done", "failed", "cancelled"][rng.gen_range(0..3usize)];
                records.push(Record::Terminal {
                    job,
                    attempt,
                    state: state.to_owned(),
                    error: (state == "failed").then(|| "boom\nwith newline".to_owned()),
                    body: (state == "done" && rng.gen_bool(0.5)).then(|| {
                        let text = ["\"quotes\" and \n newlines", "non-ASCII — é 設計"];
                        format!("body with {}", text[rng.gen_range(0..2usize)])
                    }),
                });
            }
        }
    }
    records
}

/// Writes `records` through the real appender and returns the on-disk
/// bytes plus the replay a clean load of them produces.
fn valid_journal(path: &PathBuf, records: &[Record]) -> (Vec<u8>, Replay) {
    let _ = std::fs::remove_file(path);
    {
        let (journal, _) = Journal::open(path).unwrap();
        journal.append_sync(records).unwrap();
    }
    let bytes = std::fs::read(path).unwrap();
    let (_, replay) = Journal::open(path).unwrap();
    (bytes, replay)
}

/// Loads `bytes` as a journal twice. Asserts no panic and, when the
/// first load succeeds, that the second yields the identical replay.
/// Returns the first load's replay when it succeeded.
fn load_twice(path: &PathBuf, bytes: &[u8], what: &str) -> Option<Replay> {
    std::fs::write(path, bytes).unwrap();
    let first = catch_unwind(AssertUnwindSafe(|| Journal::open(path).map(|(_, r)| r)))
        .unwrap_or_else(|_| panic!("journal loader panicked on {what}"));
    let Ok(first) = first else {
        return None; // typed error — acceptable, nothing to replay
    };
    let second = Journal::open(path)
        .unwrap_or_else(|e| panic!("reopen after {what} failed: {e}"))
        .1;
    // The first open trims the torn suffix off the file, so the second
    // sees a clean one: same jobs, same records, nothing left to trim.
    assert_eq!(
        first.jobs, second.jobs,
        "replay not idempotent after {what}"
    );
    assert_eq!(
        first.records, second.records,
        "record count changed after {what}"
    );
    assert_eq!(
        second.trimmed_bytes, 0,
        "first open left a torn tail after {what}"
    );
    Some(first)
}

#[test]
fn torn_tails_trim_to_a_replayable_prefix() {
    let path = tmp("torn");
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x7041);
    for _ in 0..ITERS / 3 {
        let records = random_records(&mut rng);
        let (bytes, clean) = valid_journal(&path, &records);
        let cut = rng.gen_range(0..bytes.len());
        let replay = load_twice(&path, &bytes[..cut], "a torn tail");
        // Every cut loads: one inside the header restarts the journal,
        // one after its newline keeps the intact prefix. Every surviving
        // job must come from the clean replay with the same digest.
        let Some(replay) = replay else {
            panic!(
                "a tail torn at byte {cut} of {} failed to load",
                bytes.len()
            );
        };
        for (id, job) in &replay.jobs {
            let original = clean
                .jobs
                .get(id)
                .unwrap_or_else(|| panic!("torn load invented job {id}"));
            assert_eq!(original.digest, job.digest, "torn load mutated job {id}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interleaved_and_duplicated_records_replay_idempotently() {
    let path = tmp("dup");
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xD0B1);
    for _ in 0..ITERS / 3 {
        let records = random_records(&mut rng);
        let (bytes, _) = valid_journal(&path, &records);
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.len() > 1 {
            // duplicate a random record line…
            let pick = rng.gen_range(1..lines.len());
            let at = rng.gen_range(1..lines.len() + 1);
            let line = lines[pick];
            lines.insert(at, line);
            // …and sometimes swap two records (interleaving across jobs)
            if lines.len() > 2 && rng.gen_bool(0.5) {
                let i = rng.gen_range(1..lines.len());
                let j = rng.gen_range(1..lines.len());
                lines.swap(i, j);
            }
        }
        let mangled = lines.join("\n") + "\n";
        // Duplicated accepts reuse the job's digest, so this family must
        // always load: the apply-merge rules absorb replays and reorder.
        let replay = load_twice(&path, mangled.as_bytes(), "duplicated records");
        assert!(replay.is_some(), "consistent duplicates must replay");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutated_bytes_never_panic_the_loader() {
    let path = tmp("mutate");
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xBADB);
    for _ in 0..ITERS / 3 {
        let records = random_records(&mut rng);
        let (mut bytes, _) = valid_journal(&path, &records);
        for _ in 0..rng.gen_range(1..8u32) {
            match rng.gen_range(0..3u32) {
                0 => {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen_range(0..256u32) as u8;
                }
                1 => {
                    let at = rng.gen_range(0..bytes.len() + 1);
                    bytes.insert(at, rng.gen_range(0..256u32) as u8);
                }
                _ => {
                    let at = rng.gen_range(0..bytes.len());
                    bytes.remove(at);
                    if bytes.is_empty() {
                        bytes.push(b'\n');
                    }
                }
            }
        }
        load_twice(&path, &bytes, "random byte mutations");
    }
    let _ = std::fs::remove_file(&path);
}
