//! Append-only JSONL segments (one JSON document per line).
//!
//! Used for the persisted query log: cheap to append, human-greppable,
//! and naturally tolerant of torn tails — a crash mid-append leaves a
//! final line without a newline (or with unparseable JSON), which
//! [`load_and_repair`] drops and truncates away so later appends extend
//! a clean file. Damage with parseable lines behind it is refused, as
//! the WAL refuses it: truncating there would drop logged queries.

use crate::{FsyncPolicy, IoCounter};
use sqlshare_common::json::{self, Json};
use sqlshare_common::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Internal(format!("jsonl {what} {}: {e}", path.display()))
}

/// Load every complete, parseable line from a JSONL file, truncating
/// the file after the last good line (torn-tail repair). Returns the
/// parsed documents and the number of bytes discarded. A missing file
/// loads as empty. A bad line with a parseable line after it is not a
/// torn tail: that is `Error::Corrupt`, and the file is not touched.
pub fn load_and_repair(path: &Path) -> Result<(Vec<Json>, u64)> {
    load_and_repair_counted(path, &IoCounter::new())
}

/// [`load_and_repair`] recording its filesystem operations against `io`.
pub fn load_and_repair_counted(path: &Path, io: &IoCounter) -> Result<(Vec<Json>, u64)> {
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    io.bump();
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read", path, e))?;

    let mut docs = Vec::new();
    let mut valid = 0usize;
    while let Some(nl) = bytes[valid..].iter().position(|&b| b == b'\n') {
        let Some(doc) = parse_line(&bytes[valid..valid + nl]) else {
            break;
        };
        docs.push(doc);
        valid += nl + 1;
    }
    // A crash mid-append leaves one partial final line, so a torn tail
    // has nothing parseable after the break. A parseable line beyond a
    // bad one is interior damage: refuse, leaving the file as it was,
    // rather than truncate the documents behind it.
    if let Some(nl) = bytes[valid..].iter().position(|&b| b == b'\n') {
        let rest = &bytes[valid + nl + 1..];
        if rest.split(|&b| b == b'\n').any(|line| parse_line(line).is_some()) {
            return Err(Error::Corrupt(format!(
                "jsonl {}: line {} is not a JSON document but later lines are; refusing to \
                 truncate past it — repair or remove that line",
                path.display(),
                docs.len() + 1
            )));
        }
    }

    let truncated = (bytes.len() - valid) as u64;
    if truncated > 0 {
        io.bump();
        OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(valid as u64))
            .map_err(|e| io_err("repair", path, e))?;
    }
    Ok((docs, truncated))
}

fn parse_line(line: &[u8]) -> Option<Json> {
    json::parse(std::str::from_utf8(line).ok()?).ok()
}

/// An open JSONL file handle for appending.
#[derive(Debug)]
pub struct JsonlAppender {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    since_sync: u64,
    io: IoCounter,
}

impl JsonlAppender {
    /// Open (creating if absent) for appending. Callers recovering
    /// state should run [`load_and_repair`] first so appends extend a
    /// clean file.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<JsonlAppender> {
        JsonlAppender::open_counted(path, policy, IoCounter::new())
    }

    /// [`JsonlAppender::open`] with a caller-supplied [`IoCounter`].
    pub fn open_counted(
        path: &Path,
        policy: FsyncPolicy,
        io: IoCounter,
    ) -> Result<JsonlAppender> {
        io.bump();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        Ok(JsonlAppender {
            path: path.to_path_buf(),
            file,
            policy,
            since_sync: 0,
            io,
        })
    }

    /// Append one document as a single line.
    pub fn append(&mut self, doc: &Json) -> Result<()> {
        let mut line = doc.to_string();
        debug_assert!(
            !line.contains('\n'),
            "compact JSON serialization must be single-line"
        );
        line.push('\n');
        self.io.bump();
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err("write", &self.path, e))?;
        let want_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => self.since_sync + 1 >= FsyncPolicy::BATCH_INTERVAL,
            FsyncPolicy::Off => false,
        };
        if want_sync {
            self.io.bump();
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync", &self.path, e))?;
            self.since_sync = 0;
        } else {
            self.since_sync += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-jsonl-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.jsonl")
    }

    fn doc(n: f64) -> Json {
        let mut obj = sqlshare_common::json::JsonObject::new();
        obj.insert("n".to_string(), Json::Number(n));
        Json::Object(obj)
    }

    #[test]
    fn append_and_load_round_trips() {
        let path = temp_file("round");
        let mut w = JsonlAppender::open(&path, FsyncPolicy::Off).unwrap();
        w.append(&doc(1.0)).unwrap();
        w.append(&doc(2.0)).unwrap();
        drop(w);
        let (docs, truncated) = load_and_repair(&path).unwrap();
        assert_eq!(truncated, 0);
        assert_eq!(docs, vec![doc(1.0), doc(2.0)]);
    }

    #[test]
    fn torn_final_line_is_dropped_and_repaired() {
        let path = temp_file("torn");
        let mut w = JsonlAppender::open(&path, FsyncPolicy::Always).unwrap();
        w.append(&doc(1.0)).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a partial second line, no newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"n":2"#);
        std::fs::write(&path, &bytes).unwrap();

        let (docs, truncated) = load_and_repair(&path).unwrap();
        assert_eq!(docs, vec![doc(1.0)]);
        assert_eq!(truncated, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // Appends after repair extend a clean file.
        let mut w = JsonlAppender::open(&path, FsyncPolicy::Off).unwrap();
        w.append(&doc(3.0)).unwrap();
        drop(w);
        let (docs, _) = load_and_repair(&path).unwrap();
        assert_eq!(docs, vec![doc(1.0), doc(3.0)]);
    }

    #[test]
    fn garbage_line_stops_the_load() {
        // Followed by a parseable line: interior damage, refused untouched.
        let path = temp_file("garbage");
        let bytes = "{\"n\":1}\nnot json\n{\"n\":2}\n";
        std::fs::write(&path, bytes).unwrap();
        let err = load_and_repair(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "{err}");
        assert!(err.message().contains("line 2"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), bytes);
        // Followed by nothing parseable: a torn tail, truncated.
        std::fs::write(&path, "{\"n\":1}\nnot json\n{\"n\":\n").unwrap();
        let (docs, truncated) = load_and_repair(&path).unwrap();
        assert_eq!(docs, vec![doc(1.0)]);
        assert_eq!(truncated, 15);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"n\":1}\n");
    }

    #[test]
    fn missing_file_loads_empty() {
        let (docs, truncated) = load_and_repair(&temp_file("missing")).unwrap();
        assert!(docs.is_empty());
        assert_eq!(truncated, 0);
    }
}
