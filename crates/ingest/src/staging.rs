//! Server-side file staging (§3.1).
//!
//! "By staging the file server-side we ensure robustness: if ingest
//! fails, we can retry without forcing the user to re-upload the data."
//! A staged file survives a *transient* failure (the fault injector
//! stands in for one) so the attempt can be repeated; an attempt that ran
//! consumes it, accepted or rejected — `ingest_text` is a pure function,
//! so a file it rejects once it rejects forever, and keeping it would
//! only leak its content.

use crate::{ingest_text, IngestOptions, IngestReport};
use sqlshare_common::{Error, Result};
use sqlshare_engine::Table;
use std::collections::HashMap;

/// Identifier of a staged upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u64);

/// One staged file.
#[derive(Debug, Clone)]
pub struct StagedFile {
    pub id: StageId,
    pub filename: String,
    pub content: String,
    /// How many ingest attempts have been made against this staged file.
    pub attempts: u32,
}

/// The staging area.
#[derive(Debug, Default)]
pub struct Staging {
    files: HashMap<StageId, StagedFile>,
    next_id: u64,
    /// Fault injection: fail the next N ingest attempts (any file).
    inject_failures: u32,
}

impl Staging {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage an uploaded file; returns its id for later ingest/retry.
    pub fn stage(&mut self, filename: impl Into<String>, content: impl Into<String>) -> StageId {
        let id = StageId(self.next_id);
        self.next_id += 1;
        self.files.insert(
            id,
            StagedFile {
                id,
                filename: filename.into(),
                content: content.into(),
                attempts: 0,
            },
        );
        id
    }

    /// Look a staged file up.
    pub fn get(&self, id: StageId) -> Option<&StagedFile> {
        self.files.get(&id)
    }

    /// Number of files currently staged.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Make the next `n` ingest attempts fail (tests/chaos).
    pub fn inject_failures(&mut self, n: u32) {
        self.inject_failures = n;
    }

    /// Attempt to ingest a staged file into a table named `table_name`.
    /// On a transient failure the file *remains staged* so the caller can
    /// retry without re-uploading; once `ingest_text` has run it is
    /// removed, whatever the verdict.
    pub fn ingest(
        &mut self,
        id: StageId,
        table_name: &str,
        options: &IngestOptions,
    ) -> Result<(Table, IngestReport)> {
        let file = self
            .files
            .get_mut(&id)
            .ok_or_else(|| Error::Ingest(format!("no staged file with id {}", id.0)))?;
        file.attempts += 1;
        if self.inject_failures > 0 {
            self.inject_failures -= 1;
            return Err(Error::Ingest(
                "transient backend failure during ingest (staged file retained)".into(),
            ));
        }
        let file = self.files.remove(&id).expect("looked up above");
        ingest_text(table_name, &file.content, options)
    }

    /// Discard a staged file without ingesting it.
    pub fn discard(&mut self, id: StageId) -> bool {
        self.files.remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ingest_removes_file() {
        let mut s = Staging::new();
        let id = s.stage("data.csv", "a,b\n1,2\n");
        assert_eq!(s.len(), 1);
        let (table, _) = s.ingest(id, "data", &IngestOptions::default()).unwrap();
        assert_eq!(table.row_count(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn failed_ingest_keeps_file_for_retry() {
        let mut s = Staging::new();
        let id = s.stage("data.csv", "a,b\n1,2\n");
        s.inject_failures(1);
        assert!(s.ingest(id, "data", &IngestOptions::default()).is_err());
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).unwrap().attempts, 1);
        // Retry succeeds without re-staging.
        let (table, _) = s.ingest(id, "data", &IngestOptions::default()).unwrap();
        assert_eq!(table.row_count(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn rejected_content_is_not_kept() {
        let mut s = Staging::new();
        let id = s.stage("empty.csv", "   ");
        s.inject_failures(1);
        assert!(s.ingest(id, "empty", &IngestOptions::default()).is_err());
        assert_eq!(s.len(), 1, "a transient failure keeps the file");
        assert!(s.ingest(id, "empty", &IngestOptions::default()).is_err());
        assert!(s.is_empty(), "a deterministic rejection does not");
        assert!(!s.discard(id));
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut s = Staging::new();
        assert!(s
            .ingest(StageId(42), "x", &IngestOptions::default())
            .is_err());
    }
}
