//! One append-only JSONL log: the on-disk format under
//! [`crate::CheckpointStore`] and `foldic-serve`'s job journal.
//!
//! A log is a header line naming its schema (`{"schema":"…"}`), then one
//! compact JSON value per line. [`Jsonl::open`] walks the lines in order
//! and hands each value to the caller's fold. The walk stops at the first
//! line that is torn (no trailing newline: a killed append), not UTF-8,
//! not JSON, or that the fold declines; that line and everything after
//! it are dropped, and the file is trimmed back to the lines before it.
//! So later appends start on a clean boundary and opening the same file
//! again folds the same values. Blank lines are skipped. A file with no
//! intact header starts fresh: it is emptied and gets a header, synced
//! with its directory before `open` returns, so a created-but-empty log
//! survives a crash.
//!
//! The only load-time errors are the ones where keeping the prefix would
//! be wrong: an unreadable or unwritable file, a header that is not JSON
//! or names another schema, and a fold's [`JsonlError::Conflict`].

use foldic_obs::json::Json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a log could not be opened or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonlError {
    /// The file could not be read, created, trimmed, written or synced:
    /// `<path>: cannot <step>: <I/O error>`.
    Io(String),
    /// The header line is not UTF-8 JSON.
    BadHeader(String),
    /// The header names another schema: a log written by an incompatible
    /// version must not be replayed.
    SchemaMismatch {
        /// The schema the caller reads and writes.
        want: &'static str,
        /// The schema found in the file, when any.
        got: Option<String>,
    },
    /// The fold found two lines it cannot reconcile (two runs shared the
    /// file); replaying either silently would be wrong.
    Conflict(String),
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(msg) => f.write_str(msg),
            JsonlError::BadHeader(msg) => write!(f, "bad log header: {msg}"),
            JsonlError::SchemaMismatch { want, got } => {
                write!(f, "log schema mismatch: want {want}, got {got:?}")
            }
            JsonlError::Conflict(msg) => {
                write!(f, "{msg}; refusing to replay an ambiguous log")
            }
        }
    }
}

impl std::error::Error for JsonlError {}

/// An open append-only JSONL log.
#[derive(Debug)]
pub struct Jsonl {
    file: Mutex<File>,
    path: PathBuf,
}

impl Jsonl {
    /// Opens (or creates) the log at `path`, folding every intact line
    /// after the header through `fold`, and returns the log plus the
    /// number of bytes trimmed off its tail.
    ///
    /// `fold` returns `Ok(true)` to keep a line, `Ok(false)` to end the
    /// intact prefix at it (a malformed record), or `Err(message)` to
    /// refuse the whole log as [`JsonlError::Conflict`].
    ///
    /// # Errors
    ///
    /// [`JsonlError::Io`], [`JsonlError::BadHeader`],
    /// [`JsonlError::SchemaMismatch`] and the fold's
    /// [`JsonlError::Conflict`].
    pub fn open(
        path: &Path,
        schema: &'static str,
        mut fold: impl FnMut(&Json) -> Result<bool, String>,
    ) -> Result<(Self, u64), JsonlError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, "read")(e)),
        };
        let mut header_seen = false;
        let mut valid_end = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(body) = line.strip_suffix(b"\n") else {
                break; // torn tail from a killed append
            };
            let text = std::str::from_utf8(body).map(str::trim);
            if text == Ok("") {
                // blank line: skipped, kept
            } else if !header_seen {
                let header = text
                    .map_err(|e| e.to_string())
                    .and_then(Json::parse)
                    .map_err(JsonlError::BadHeader)?;
                match header.get("schema").and_then(Json::as_str) {
                    Some(got) if got == schema => header_seen = true,
                    got => {
                        return Err(JsonlError::SchemaMismatch {
                            want: schema,
                            got: got.map(str::to_owned),
                        })
                    }
                }
            } else {
                let Some(value) = text.ok().and_then(|t| Json::parse(t).ok()) else {
                    break; // corrupt line: keep the intact prefix
                };
                if !fold(&value).map_err(JsonlError::Conflict)? {
                    break;
                }
            }
            valid_end += line.len();
        }
        if !header_seen {
            valid_end = 0;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err(path, "open"))?;
        file.set_len(valid_end as u64)
            .map_err(io_err(path, "trim"))?;
        let log = Self {
            file: Mutex::new(file),
            path: path.to_owned(),
        };
        if valid_end == 0 {
            let header = Json::obj([("schema".to_owned(), Json::Str(schema.to_owned()))]);
            log.append([header], true)?;
            // A new file's directory entry must survive a crash too.
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))
                .and_then(|d| d.sync_all())
                .map_err(io_err(path, "sync directory"))?;
        }
        Ok((log, (bytes.len() - valid_end) as u64))
    }

    /// Appends one line per value, each with a single `write_all`, then
    /// syncs the file when `sync` is set. Unsynced lines reach the OS on
    /// return and survive a killed process, not a lost machine.
    ///
    /// # Errors
    ///
    /// [`JsonlError::Io`] when a write or the sync fails.
    pub fn append(
        &self,
        values: impl IntoIterator<Item = Json>,
        sync: bool,
    ) -> Result<(), JsonlError> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        for value in values {
            let mut line = value.to_compact();
            line.push('\n');
            file.write_all(line.as_bytes())
                .map_err(io_err(&self.path, "append"))?;
        }
        if sync {
            file.sync_data().map_err(io_err(&self.path, "sync"))?;
        }
        Ok(())
    }
}

/// Maps an I/O error met while doing `what` to `path` to [`JsonlError::Io`].
fn io_err<'a>(path: &'a Path, what: &'a str) -> impl Fn(std::io::Error) -> JsonlError + 'a {
    move |e| JsonlError::Io(format!("{}: cannot {what}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SCHEMA: &str = "foldic-jsonl-test/1";

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("foldic-jsonl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    /// Opens `path` keeping every line; returns the folded values and the
    /// trimmed byte count.
    fn load(path: &Path) -> Result<(Vec<Json>, u64), JsonlError> {
        let mut values = Vec::new();
        let (_, trimmed) = Jsonl::open(path, SCHEMA, |v| {
            values.push(v.clone());
            Ok(true)
        })?;
        Ok((values, trimmed))
    }

    fn header() -> String {
        format!("{{\"schema\":\"{SCHEMA}\"}}\n")
    }

    #[test]
    fn appends_reload_and_header_is_written_once() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let values = [Json::Num(1.5), Json::Str("a — b\nc".to_owned()), Json::Null];
        {
            let (log, trimmed) = Jsonl::open(&path, SCHEMA, |_| Ok(true)).unwrap();
            assert_eq!(trimmed, 0);
            log.append(values[..2].iter().cloned(), true).unwrap();
            log.append([values[2].clone()], false).unwrap();
        }
        let expected: String = std::iter::once(header())
            .chain(values.iter().map(|v| format!("{}\n", v.to_compact())))
            .collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        assert_eq!(load(&path).unwrap(), (values.to_vec(), 0));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fold_ends_the_prefix_or_refuses_the_log() {
        let path = tmp("fold");
        std::fs::write(&path, format!("{}1\n2\n3\n", header())).unwrap();
        let (_, trimmed) = Jsonl::open(&path, SCHEMA, |v| Ok(v.as_f64() != Some(2.0))).unwrap();
        assert_eq!(trimmed, 4, "`2` and everything after it dropped");
        assert_eq!(load(&path).unwrap(), (vec![Json::Num(1.0)], 0));
        std::fs::write(&path, format!("{}1\n2\n", header())).unwrap();
        let err = Jsonl::open(&path, SCHEMA, |_| Err("two runs".to_owned())).unwrap_err();
        assert_eq!(err, JsonlError::Conflict("two runs".to_owned()));
        let _ = std::fs::remove_file(&path);
    }

    /// The stores' own tests cover a foreign schema, a non-JSON header
    /// and an unreadable path; these are the header cases they do not.
    #[test]
    fn non_utf8_headers_fail_and_headerless_files_start_fresh() {
        let path = tmp("header");
        std::fs::write(&path, b"{\"schema\":\"\xff\"}\n").unwrap();
        assert!(matches!(load(&path), Err(JsonlError::BadHeader(_))));
        // blank lines and a torn header are no header: the file restarts
        std::fs::write(&path, "\n \n{\"sch").unwrap();
        assert_eq!(load(&path).unwrap(), (Vec::new(), 8));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), header());
        let _ = std::fs::remove_file(&path);
    }

    fn random_value(rng: &mut StdRng) -> Json {
        let text = |rng: &mut StdRng| -> String {
            let alphabet = [
                "a",
                "Z",
                "9",
                " ",
                "\"",
                "\\",
                "\n",
                "é",
                "—",
                "ß",
                "\u{1F600}",
            ];
            (0..rng.gen_range(0..12usize))
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect()
        };
        match rng.gen_range(0..4u32) {
            0 => Json::Num(rng.gen_range(-1e6..1e6)),
            1 => Json::Str(text(rng)),
            2 => Json::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| Json::Bool(rng.gen_bool(0.5)))
                    .collect(),
            ),
            _ => Json::obj(
                (0..rng.gen_range(1..4usize)).map(|i| (format!("k{i}"), Json::Str(text(rng)))),
            ),
        }
    }

    /// Random values, then a random cut or byte flip: the intact prefix
    /// loads (exactly, for a cut), a line that is not UTF-8 ends it, the
    /// file is trimmed to what loaded, and a reopen folds the same values
    /// with nothing left to trim.
    #[test]
    fn cuts_and_flips_load_the_intact_prefix() {
        let seed = std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x4A53_4F4E_u64);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A73_6F6E);
        let path = tmp("fuzz");
        for i in 0..500 {
            let values: Vec<Json> = (0..rng.gen_range(1..8usize))
                .map(|_| random_value(&mut rng))
                .collect();
            let mut bytes = header().into_bytes();
            // ends[k]: end of line k (0 = header, k = record k - 1)
            let mut ends = vec![bytes.len()];
            for v in &values {
                bytes.extend(format!("{}\n", v.to_compact()).into_bytes());
                ends.push(bytes.len());
            }
            let what = format!("iteration {i} (seed {seed})");
            let mut corrupt = bytes.clone();
            let (intact, exact) = if rng.gen_bool(0.5) {
                let cut = rng.gen_range(0..bytes.len() + 1);
                corrupt.truncate(cut);
                let complete = ends.iter().filter(|&&end| end <= cut).count();
                (complete.saturating_sub(1), true)
            } else {
                let at = rng.gen_range(ends[0]..bytes.len());
                corrupt[at] ^= rng.gen_range(1..256u32) as u8;
                let line = ends.iter().position(|&end| at < end).unwrap();
                let body = &corrupt[ends[line - 1]..ends[line] - 1];
                let ends_prefix = !body.contains(&b'\n') && std::str::from_utf8(body).is_err();
                (line - 1, ends_prefix)
            };
            std::fs::write(&path, &corrupt).unwrap();
            let (loaded, trimmed) = load(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(loaded.len() >= intact, "{what}: lost an intact line");
            assert_eq!(loaded[..intact], values[..intact], "{what}");
            if exact {
                assert_eq!(loaded.len(), intact, "{what}: loaded past the prefix");
            }
            let kept = corrupt.len() - trimmed as usize;
            let expected = if kept == 0 {
                header().into_bytes()
            } else {
                corrupt[..kept].to_vec()
            };
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{what}: trim");
            assert_eq!(load(&path).unwrap(), (loaded, 0), "{what}: reopen differs");
        }
        let _ = std::fs::remove_file(&path);
    }
}
