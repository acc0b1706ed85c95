//! The integrity ladder on the service: quarantine of base tables whose
//! pages failed verification, and their repair, cheapest rung first
//! (`crate::integrity` has the registry and the ladder's description).

use super::SqlShare;
use crate::integrity::{IntegrityHub, Repair};
use crate::persist::{self, BaseTable, DurableStore, Mutation, Segments};
use sqlshare_common::json;
use sqlshare_common::{Error, Result};
use sqlshare_engine::Table;
use sqlshare_storage::{read_tail, segment_lsn, SnapshotStore};
use std::sync::Arc;

impl SqlShare {
    /// The shared quarantine registry and repair counters behind
    /// `GET /api/integrity`.
    pub fn integrity(&self) -> &Arc<IntegrityHub> {
        &self.integrity
    }

    /// Whether the node is serving degraded: at least one object is
    /// quarantined for corruption. Everything else keeps serving.
    pub fn is_degraded(&self) -> bool {
        self.integrity.degraded()
    }

    /// Map an on-disk page file back to the base table it backs, if
    /// any (scrub findings name files, quarantine names tables).
    pub fn table_for_file(&self, path: &std::path::Path) -> Option<String> {
        for t in self.engine.catalog().tables() {
            if let Some(paged) = t.paged() {
                if paged.backing_files().iter().any(|(_, f)| f == path) {
                    return Some(t.name.clone());
                }
            }
        }
        None
    }

    /// Quarantine the table owning `path` because of a scrub finding.
    /// Returns the table name, or `None` when no table owns the file
    /// (WAL, snapshot, and query-log findings have their own handling;
    /// spill files are transient). A rotted segment of this node's data
    /// directory is noted instead: the next snapshot writes its live
    /// tables afresh, from memory, so that a crash after the one after
    /// that no longer depends on it.
    pub fn quarantine_file_finding(&self, path: &std::path::Path, detail: &str) -> Option<String> {
        if let Some(lsn) = segment_lsn(path) {
            if self
                .journal
                .data_dir()
                .is_some_and(|dir| path.parent() == Some(dir))
            {
                self.journal.note_rotted_segment(lsn);
            }
            return None;
        }
        let table = self.table_for_file(path)?;
        self.integrity.quarantine(&table, detail);
        Some(table)
    }

    /// Sweep every paged table for buffer-pool poison verdicts —
    /// query-time corruption detections — and quarantine the owners.
    /// Returns newly quarantined table names.
    pub fn quarantine_poisoned(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in self.engine.catalog().tables() {
            let Some(paged) = t.paged() else { continue };
            for (file, pages) in paged.poisoned() {
                let what = match file {
                    None => "heap".to_string(),
                    Some(col) => format!("secondary index on column {col}"),
                };
                let detail = format!("{what}: checksum-failed pages {pages:?}");
                if self.integrity.quarantine(&t.name, detail) {
                    out.push(t.name.clone());
                }
            }
        }
        out
    }

    /// Run the local rungs of the repair ladder over every quarantined
    /// object, cheapest first: rebuild from the intact local heap
    /// (index rot), then re-materialize from local snapshot + WAL
    /// records (heap rot). Objects neither rung can fix stay
    /// quarantined with [`Repair::NeedsReplica`] — the server's scrub
    /// thread (or a test harness) then fetches replacement pages from a
    /// replica via [`SqlShare::install_replica_page`].
    pub fn repair_quarantined(&mut self) -> Vec<(String, Repair)> {
        let names: Vec<String> = self
            .integrity
            .quarantined()
            .into_iter()
            .map(|q| q.table)
            .collect();
        let mut out = Vec::new();
        for name in names {
            let repair = self.repair_table(&name);
            self.integrity.record_repair(&repair);
            if !matches!(repair, Repair::NeedsReplica(_)) {
                self.integrity.unquarantine(&name);
            }
            out.push((name, repair));
        }
        if !out.is_empty() {
            self.invalidate_snapshot();
        }
        out
    }

    fn repair_table(&mut self, name: &str) -> Repair {
        match self.engine.rebuild_table_from_heap(name) {
            Ok(true) => Repair::RebuiltFromHeap,
            Ok(false) => Repair::Vacuous,
            Err(heap_err) => match self.rematerialize_table(name) {
                Ok(true) => Repair::Rematerialized,
                Ok(false) => Repair::NeedsReplica(heap_err.to_string()),
                Err(e) => {
                    Repair::NeedsReplica(format!("{heap_err}; rematerialization failed: {e}"))
                }
            },
        }
    }

    /// Rung 2: rebuild one base table from local durable state — its
    /// rows as the latest snapshot holds them (read from the one segment
    /// its manifest entry names, or inline in a manifest of an earlier
    /// version), brought forward in journal order by every later WAL
    /// record whose base-table effect ([`Mutation::base_table`]) names
    /// the same object. Returns `Ok(false)` when no local durable source
    /// mentions the table (ephemeral mode, or the rot predates every
    /// surviving snapshot).
    fn rematerialize_table(&mut self, name: &str) -> Result<bool> {
        let Some(dir) = self.journal.data_dir() else {
            return Ok(false);
        };
        let mut candidate: Option<Table> = None;
        let mut mentioned = false;
        let store = SnapshotStore::new(dir);
        let loaded = store.load_latest_counted()?;
        // A corrupt candidate newer than the loadable snapshot means the
        // WAL was reset past it: local durable state cannot prove what
        // this table held at the tip, so escalate to the replica rung
        // instead of rebuilding a possibly stale generation.
        if loaded.max_skipped_lsn > loaded.latest.as_ref().map_or(0, |(lsn, _)| *lsn) {
            return Ok(false);
        }
        if let Some((_, payload)) = loaded.latest {
            let doc = json::parse(&payload)?;
            for entry in persist::array_of(persist::field(&doc, "state")?, "tables")? {
                let entry_name = persist::str_of(entry, "name")?;
                if !entry_name.eq_ignore_ascii_case(name) {
                    continue;
                }
                let table = match persist::table_ref_of(entry)? {
                    None => persist::table_from_json(entry)?,
                    Some(r) => {
                        let segment = store.read_segment(r.segment).ok_or_else(|| {
                            Error::Corrupt(format!("segment-{}.json does not verify", r.segment))
                        })?;
                        let segments = Segments::from([(r.segment, segment)]);
                        persist::table_from_json(&persist::segment_table(
                            &segments,
                            &entry_name,
                            r,
                        )?)?
                    }
                };
                candidate = Some(table);
                mentioned = true;
            }
        }
        let wal_path = DurableStore::wal_path(dir);
        if wal_path.exists() {
            // Non-mutating tail read: the WAL is live and owned by the
            // store; repair must not truncate anything.
            let tail = read_tail(&wal_path, 0)
                .map_err(|e| Error::Internal(format!("repair: wal read failed: {e}")))?;
            for payload in &tail.records {
                let Some((_, _, m)) = Mutation::decode(payload) else {
                    break;
                };
                match m.base_table() {
                    Some((key, effect)) if key.eq_ignore_ascii_case(name) => {
                        mentioned = true;
                        candidate = match effect {
                            BaseTable::Created(source) => Some(source.build(&key)?.0),
                            BaseTable::Dropped => None,
                        };
                    }
                    _ => {}
                }
            }
        }
        if !mentioned {
            return Ok(false);
        }
        self.engine.drop_relation(name);
        if let Some(table) = candidate {
            self.engine.create_table(table)?;
        }
        Ok(true)
    }

    /// Serve the raw sealed bytes of one backing page of a base table —
    /// the serving side of repair-from-replica (`GET /api/repl/page`).
    /// `file` is `None` for the heap, `Some(col)` for a secondary
    /// index. Page files are byte-deterministic across replicas, so the
    /// image is the exact replacement a corrupted peer needs; the
    /// fetcher still checksum-verifies before installing.
    pub fn replication_page(&self, table: &str, file: Option<usize>, no: u32) -> Result<Vec<u8>> {
        let t = self.engine.catalog().table(table)?;
        let Some(paged) = t.paged() else {
            return Err(Error::Request(format!(
                "table '{table}' has no paged backing to serve pages from"
            )));
        };
        paged.read_raw_page(file, no)
    }

    /// Install a replacement page image fetched from a replica. The
    /// image must pass checksum verification before it touches the
    /// file. Returns `true` when the table has no poisoned pages left —
    /// the quarantine lifts and the repair is counted.
    pub fn install_replica_page(
        &mut self,
        table: &str,
        file: Option<usize>,
        no: u32,
        bytes: &[u8],
    ) -> Result<bool> {
        let name = {
            let t = self.engine.catalog().table(table)?;
            let Some(paged) = t.paged() else {
                return Err(Error::Request(format!(
                    "table '{table}' has no paged backing to repair"
                )));
            };
            paged.install_page(file, no, bytes)?;
            if !paged.poisoned().is_empty() {
                return Ok(false);
            }
            t.name.clone()
        };
        self.integrity.record_replica_repair();
        self.integrity.unquarantine(&name);
        self.invalidate_snapshot();
        Ok(true)
    }

    /// Poisoned pages of one table's backing files — the fetch list for
    /// repair-from-replica. Empty for unknown or memory-backed tables.
    pub fn poisoned_pages(&self, table: &str) -> Vec<(Option<usize>, Vec<u32>)> {
        self.engine
            .catalog()
            .table(table)
            .ok()
            .and_then(|t| t.paged())
            .map(|p| p.poisoned())
            .unwrap_or_default()
    }

    /// Row count of a base table, if it exists — the cheap identity
    /// check a repairing node runs against a peer's answer before
    /// installing fetched pages (a lagging replica serving a different
    /// table generation would pass page checksums but fail this).
    pub fn table_row_count(&self, table: &str) -> Option<usize> {
        self.engine
            .catalog()
            .table(table)
            .ok()
            .map(Table::row_count)
    }
}
