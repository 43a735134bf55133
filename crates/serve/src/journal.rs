//! The write-ahead job journal (`foldic-serve-journal/1`).
//!
//! A [`foldic_fault::jsonl`] log with one compact line per job
//! transition. Three record kinds cover a job's lifetime:
//!
//! * `accepted` — written (and fsync'd) **before** `POST /jobs` returns,
//!   carrying the full spec, its canonical config, the spec digest, the
//!   request id and attempt count. The ack is the durability promise: a
//!   daemon killed any time after responding can prove on restart that
//!   the job existed and re-run it.
//! * `started` — a worker picked the job up. Written but *not* fsync'd:
//!   losing it merely means replay re-enqueues a job that had already
//!   started, and the determinism contract makes the re-run
//!   byte-identical.
//! * `terminal` — the job reached `done`/`failed`/`cancelled`, fsync'd.
//!   `done` records carry the result body inline only when the
//!   persistent cache cannot (non-cacheable jobs or no `--cache-dir`);
//!   otherwise the body lives in the cache under the recorded digest.
//!
//! Loading keeps the log's intact prefix: a line torn or corrupted by a
//! SIGKILL mid-append, or one that is not a well-formed record, ends it,
//! and the file is trimmed back. Replaying the same file twice therefore
//! yields the same [`Replay`] — the idempotence the chaos gate asserts.
//! Records that reference a job id no accepted record introduced are
//! skipped (not errors): they can only arise from a trimmed prefix of a
//! foreign file, and skipping keeps the loader total.

use crate::job::JobSpec;
use foldic_fault::jsonl::{Jsonl, JsonlError};
use foldic_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag written as the first line of every journal file.
pub const JOURNAL_SCHEMA: &str = "foldic-serve-journal/1";

/// One journal transition, ready to serialize or just deserialized.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The scheduler admitted a job; fsync'd before the client's ack.
    Accepted {
        /// Scheduler job id.
        job: u64,
        /// 1 on first submission; replay re-enqueues bump it.
        attempt: u32,
        /// [`crate::job::cache_key`] digest of the canonical config.
        digest: String,
        /// The validated submission.
        spec: JobSpec,
        /// Canonical config the runner resolved the spec to.
        config: BTreeMap<String, String>,
        /// Request id of the submitting HTTP request, when any.
        request_id: Option<String>,
        /// Client idempotency key, when supplied.
        idempotency_key: Option<String>,
    },
    /// A worker picked the job up (flushed, not fsync'd).
    Started {
        /// Scheduler job id.
        job: u64,
        /// Attempt this start belongs to.
        attempt: u32,
    },
    /// The job reached a terminal state; fsync'd.
    Terminal {
        /// Scheduler job id.
        job: u64,
        /// Attempt that terminated.
        attempt: u32,
        /// `done`, `failed` or `cancelled`.
        state: String,
        /// Failure message for `failed`.
        error: Option<String>,
        /// Result body for `done`, when the persistent cache does not
        /// hold it (non-cacheable job or no cache directory).
        body: Option<String>,
    },
}

impl Record {
    /// Serializes to the compact single-line JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            Record::Accepted {
                job,
                attempt,
                digest,
                spec,
                config,
                request_id,
                idempotency_key,
            } => {
                let mut fields = vec![
                    ("record".to_owned(), Json::Str("accepted".to_owned())),
                    ("job".to_owned(), Json::Num(*job as f64)),
                    ("attempt".to_owned(), Json::Num(f64::from(*attempt))),
                    ("digest".to_owned(), Json::Str(digest.clone())),
                    ("spec".to_owned(), spec.to_json()),
                    (
                        "config".to_owned(),
                        Json::Obj(
                            config
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ];
                if let Some(rid) = request_id {
                    fields.push(("request_id".to_owned(), Json::Str(rid.clone())));
                }
                if let Some(key) = idempotency_key {
                    fields.push(("idempotency_key".to_owned(), Json::Str(key.clone())));
                }
                Json::obj(fields)
            }
            Record::Started { job, attempt } => Json::obj([
                ("record".to_owned(), Json::Str("started".to_owned())),
                ("job".to_owned(), Json::Num(*job as f64)),
                ("attempt".to_owned(), Json::Num(f64::from(*attempt))),
            ]),
            Record::Terminal {
                job,
                attempt,
                state,
                error,
                body,
            } => {
                let mut fields = vec![
                    ("record".to_owned(), Json::Str("terminal".to_owned())),
                    ("job".to_owned(), Json::Num(*job as f64)),
                    ("attempt".to_owned(), Json::Num(f64::from(*attempt))),
                    ("state".to_owned(), Json::Str(state.clone())),
                ];
                if let Some(err) = error {
                    fields.push(("error".to_owned(), Json::Str(err.clone())));
                }
                if let Some(body) = body {
                    fields.push(("body".to_owned(), Json::Str(body.clone())));
                }
                Json::obj(fields)
            }
        }
    }

    /// Parses one journal line. `None` means the line is not a
    /// well-formed record of a known kind — the loader treats that as
    /// the start of a torn/corrupt tail.
    pub fn parse(json: &Json) -> Option<Record> {
        let id = |field: &str| -> Option<u64> {
            let v = json.get(field)?.as_f64()?;
            (v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53))
                .then_some(v as u64)
        };
        let job = id("job")?;
        let attempt = u32::try_from(id("attempt")?).ok()?;
        // absent field → None; present non-string → malformed line
        let optional_str = |field: &str| -> Result<Option<String>, ()> {
            match json.get(field) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(()),
            }
        };
        match json.get("record")?.as_str()? {
            "accepted" => {
                let digest = json.get("digest")?.as_str()?.to_owned();
                let spec = JobSpec::from_json(json.get("spec")?).ok()?;
                let config_obj = json.get("config")?.as_obj()?;
                let mut config = BTreeMap::new();
                for (k, v) in config_obj {
                    config.insert(k.clone(), v.as_str()?.to_owned());
                }
                Some(Record::Accepted {
                    job,
                    attempt,
                    digest,
                    spec,
                    config,
                    request_id: optional_str("request_id").ok()?,
                    idempotency_key: optional_str("idempotency_key").ok()?,
                })
            }
            "started" => Some(Record::Started { job, attempt }),
            "terminal" => {
                let state = json.get("state")?.as_str()?.to_owned();
                if !matches!(state.as_str(), "done" | "failed" | "cancelled") {
                    return None;
                }
                Some(Record::Terminal {
                    job,
                    attempt,
                    state,
                    error: optional_str("error").ok()?,
                    body: optional_str("body").ok()?,
                })
            }
            _ => None,
        }
    }
}

/// Terminal outcome of a replayed job.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalRecord {
    /// `done`, `failed` or `cancelled`.
    pub state: String,
    /// Failure message for `failed`.
    pub error: Option<String>,
    /// Inline result body, when the journal carries it.
    pub body: Option<String>,
}

/// Everything the loader learned about one job id.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// Scheduler job id.
    pub id: u64,
    /// Highest attempt seen across the job's records.
    pub attempt: u32,
    /// The validated submission.
    pub spec: JobSpec,
    /// Spec digest from the accepted record.
    pub digest: String,
    /// Canonical config from the accepted record.
    pub config: BTreeMap<String, String>,
    /// Request id of the original submission, when recorded.
    pub request_id: Option<String>,
    /// Client idempotency key, when recorded.
    pub idempotency_key: Option<String>,
    /// `true` when a `started` record was seen for the job.
    pub started: bool,
    /// Terminal outcome, when the job finished before the journal ended.
    pub terminal: Option<TerminalRecord>,
}

/// The replayable state of a journal file: one entry per accepted job,
/// in id order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Accepted jobs by id.
    pub jobs: BTreeMap<u64, ReplayJob>,
    /// Well-formed records loaded (including duplicates and skips).
    pub records: u64,
    /// Bytes trimmed off the tail (torn/corrupt suffix).
    pub trimmed_bytes: u64,
}

impl Replay {
    /// First job id a restarted scheduler may allocate without colliding
    /// with a journaled one.
    pub fn next_id(&self) -> u64 {
        self.jobs.keys().next_back().map_or(1, |max| max + 1)
    }

    /// Jobs that never reached a terminal state, in id (= FIFO) order.
    pub fn non_terminal(&self) -> impl Iterator<Item = &ReplayJob> {
        self.jobs.values().filter(|job| job.terminal.is_none())
    }
}

/// An open write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    log: Jsonl,
}

impl Journal {
    /// Opens (or creates) a journal, replaying the records of its intact
    /// prefix (see the module docs) and trimming the rest, so later
    /// appends start on a clean boundary.
    ///
    /// # Errors
    ///
    /// A [`JsonlError`] when the file cannot be created or read, carries
    /// a different schema tag, or accepted the same job id under two
    /// different spec digests ([`JsonlError::Conflict`]: two daemons
    /// shared the file; identical re-accepts are fine, since restart
    /// re-enqueues re-append them with `attempt+1`).
    pub fn open(path: &Path) -> Result<(Self, Replay), JsonlError> {
        let mut replay = Replay::default();
        let (log, trimmed) = Jsonl::open(path, JOURNAL_SCHEMA, |line| {
            let Some(record) = Record::parse(line) else {
                return Ok(false);
            };
            replay.records += 1;
            apply(&mut replay, record)?;
            Ok(true)
        })?;
        replay.trimmed_bytes = trimmed;
        Ok((Self { log }, replay))
    }

    /// Appends `records` as one batch and fsyncs once. This is the ack
    /// gate: callers must not acknowledge the corresponding transition
    /// until it returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`JsonlError::Io`] when writing or syncing fails; the caller
    /// rolls the transition back (e.g. sheds the submission).
    pub fn append_sync(&self, records: &[Record]) -> Result<(), JsonlError> {
        self.log.append(records.iter().map(Record::to_json), true)
    }

    /// Appends one record best-effort (not fsync'd). Used for `started`:
    /// losing it across a crash only costs a re-run.
    pub fn append(&self, record: &Record) {
        let _ = self.log.append([record.to_json()], false);
    }
}

/// Folds one record into the replay state (see module docs for the
/// tolerance rules).
fn apply(replay: &mut Replay, record: Record) -> Result<(), String> {
    match record {
        Record::Accepted {
            job,
            attempt,
            digest,
            spec,
            config,
            request_id,
            idempotency_key,
        } => {
            if let Some(existing) = replay.jobs.get_mut(&job) {
                if existing.digest != digest {
                    return Err(format!(
                        "journal job {job} accepted twice with different spec digests"
                    ));
                }
                // a restart's re-enqueue: keep the job, bump the attempt
                existing.attempt = existing.attempt.max(attempt);
                // re-acceptance reopens the job for its next terminal
                existing.terminal = None;
                existing.started = false;
            } else {
                replay.jobs.insert(
                    job,
                    ReplayJob {
                        id: job,
                        attempt,
                        spec,
                        digest,
                        config,
                        request_id,
                        idempotency_key,
                        started: false,
                        terminal: None,
                    },
                );
            }
        }
        Record::Started { job, attempt } => {
            if let Some(existing) = replay.jobs.get_mut(&job) {
                existing.attempt = existing.attempt.max(attempt);
                existing.started = true;
            }
        }
        Record::Terminal {
            job,
            attempt,
            state,
            error,
            body,
        } => {
            if let Some(existing) = replay.jobs.get_mut(&job) {
                existing.attempt = existing.attempt.max(attempt);
                existing.terminal = Some(TerminalRecord { state, error, body });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("foldic-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            experiments: vec![name.to_owned()],
            size: "tiny".to_owned(),
            ..JobSpec::default()
        }
    }

    fn accepted(job: u64, attempt: u32, name: &str) -> Record {
        let mut config = BTreeMap::new();
        config.insert("experiments".to_owned(), name.to_owned());
        config.insert("size".to_owned(), "tiny".to_owned());
        Record::Accepted {
            job,
            attempt,
            digest: crate::job::cache_key(&config),
            spec: spec(name),
            config,
            request_id: Some(format!("req-{job:06x}")),
            idempotency_key: None,
        }
    }

    #[test]
    fn lifecycle_round_trips_and_replays() {
        let path = tmp("lifecycle");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, replay) = Journal::open(&path).unwrap();
            assert!(replay.jobs.is_empty());
            assert_eq!(replay.next_id(), 1);
            journal.append_sync(&[accepted(1, 1, "table1")]).unwrap();
            journal.append(&Record::Started { job: 1, attempt: 1 });
            journal
                .append_sync(&[Record::Terminal {
                    job: 1,
                    attempt: 1,
                    state: "done".to_owned(),
                    error: None,
                    body: Some("result body\nwith newline".to_owned()),
                }])
                .unwrap();
            journal.append_sync(&[accepted(2, 1, "fig2")]).unwrap();
        }
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs.len(), 2);
        assert_eq!(replay.records, 4);
        assert_eq!(replay.next_id(), 3);
        let done = &replay.jobs[&1];
        assert!(done.started);
        let terminal = done.terminal.as_ref().unwrap();
        assert_eq!(terminal.state, "done");
        assert_eq!(terminal.body.as_deref(), Some("result body\nwith newline"));
        // job 2 never started or finished → it is the one to re-enqueue
        let pending: Vec<u64> = replay.non_terminal().map(|j| j.id).collect();
        assert_eq!(pending, [2]);
        assert_eq!(replay.jobs[&2].request_id.as_deref(), Some("req-000002"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_trimmed_and_replay_is_idempotent() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append_sync(&[accepted(1, 1, "table1")]).unwrap();
            journal.append_sync(&[accepted(2, 1, "fig2")]).unwrap();
        }
        // simulate SIGKILL mid-append: chop the last 9 bytes
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let (journal, first) = Journal::open(&path).unwrap();
        assert_eq!(first.jobs.len(), 1, "torn record dropped");
        assert!(first.trimmed_bytes > 0);
        // the journal stays appendable after a torn load
        journal.append_sync(&[accepted(5, 2, "fig3")]).unwrap();
        drop(journal);
        let (_, second) = Journal::open(&path).unwrap();
        assert_eq!(second.jobs.len(), 2);
        assert_eq!(second.jobs[&5].attempt, 2);
        assert_eq!(second.next_id(), 6);
        // idempotence: a third open sees exactly the same state
        let (_, third) = Journal::open(&path).unwrap();
        assert_eq!(second, third);
        let _ = std::fs::remove_file(&path);
    }

    /// One byte set to 0xFF in the second record, or a cut inside its
    /// `—`: the first record replays, the file is trimmed to it, and a
    /// reopen replays the same (both used to fail as I/O errors, so
    /// `repro serve --journal` refused to boot).
    #[test]
    fn non_utf8_second_record_keeps_the_first() {
        let path = tmp("utf8");
        for flip in [true, false] {
            let _ = std::fs::remove_file(&path);
            {
                let (journal, _) = Journal::open(&path).unwrap();
                journal.append_sync(&[accepted(1, 1, "table1")]).unwrap();
                journal
                    .append_sync(&[Record::Terminal {
                        job: 1,
                        attempt: 1,
                        state: "done".to_owned(),
                        error: None,
                        body: Some("x — y".to_owned()),
                    }])
                    .unwrap();
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
            let (_, first) = Journal::open(&path).unwrap();
            assert_eq!(first.records, 1, "flip {flip}");
            assert!(first.jobs[&1].terminal.is_none());
            assert_eq!(first.trimmed_bytes as usize, bytes.len() - first_end);
            assert_eq!(std::fs::read(&path).unwrap(), bytes[..first_end]);
            let (_, second) = Journal::open(&path).unwrap();
            assert_eq!(second.jobs, first.jobs);
            assert_eq!(second.trimmed_bytes, 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reaccept_bumps_attempt_and_reopens_terminal() {
        let path = tmp("reaccept");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append_sync(&[accepted(1, 1, "table1")]).unwrap();
            journal
                .append_sync(&[Record::Terminal {
                    job: 1,
                    attempt: 1,
                    state: "failed".to_owned(),
                    error: Some("worker died".to_owned()),
                    body: None,
                }])
                .unwrap();
            // restart re-enqueues the job as attempt 2…
            journal.append_sync(&[accepted(1, 2, "table1")]).unwrap();
        }
        let (_, replay) = Journal::open(&path).unwrap();
        let job = &replay.jobs[&1];
        assert_eq!(job.attempt, 2);
        assert!(job.terminal.is_none(), "re-accept reopens the job");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conflicting_accept_is_rejected() {
        let path = tmp("conflict");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.append_sync(&[accepted(1, 1, "table1")]).unwrap();
            journal.append_sync(&[accepted(1, 1, "fig2")]).unwrap();
        }
        assert!(matches!(
            Journal::open(&path).unwrap_err(),
            JsonlError::Conflict(msg) if msg.contains("job 1 ")
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn orphan_records_are_skipped_not_fatal() {
        let path = tmp("orphan");
        let header = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n");
        std::fs::write(
            &path,
            format!(
                "{header}{}\n{}\n",
                Record::Started { job: 9, attempt: 1 }
                    .to_json()
                    .to_compact(),
                Record::Terminal {
                    job: 9,
                    attempt: 1,
                    state: "done".to_owned(),
                    error: None,
                    body: None,
                }
                .to_json()
                .to_compact()
            ),
        )
        .unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.jobs.is_empty());
        assert_eq!(replay.records, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_schema_and_bad_header() {
        let path = tmp("schema");
        std::fs::write(&path, "{\"schema\":\"other/9\"}\n").unwrap();
        assert_eq!(
            Journal::open(&path).unwrap_err(),
            JsonlError::SchemaMismatch {
                want: JOURNAL_SCHEMA,
                got: Some("other/9".to_owned())
            }
        );
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            Journal::open(&path).unwrap_err(),
            JsonlError::BadHeader(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_errors_are_typed() {
        let dir = std::env::temp_dir().join("foldic-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Journal::open(&dir).unwrap_err(),
            JsonlError::Io(_)
        ));
    }
}
