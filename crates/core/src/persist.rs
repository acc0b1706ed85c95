//! Durability for the service: the mutation journal, state codecs, and
//! the [`DurableStore`] that owns a data directory.
//!
//! SQLShare's catalog — users, datasets, permissions, the query corpus —
//! was the product of a multi-year deployment; losing it on restart
//! would make the service pointless. This module gives
//! [`crate::service::SqlShare`] a journal-before-apply protocol:
//!
//! 1. the public mutating method **validates** the request against live
//!    state (permissions, quotas, name collisions, parse errors) —
//!    nothing is changed and nothing journaled on rejection;
//! 2. the mutation is encoded as one [`Mutation`] record and appended to
//!    the write-ahead log with the next LSN — only after the append
//!    succeeds is the mutation acknowledged;
//! 3. the in-memory **apply** runs — the same code recovery replays, so
//!    a recovered service is bit-for-bit the service that never crashed.
//!
//! Records are self-contained: anything nondeterministic or
//! state-dependent at apply time (creation timestamps, materialized
//! snapshot rows, rewritten append SQL) is computed during validation
//! and embedded in the record, so replay never re-runs a query whose
//! result could differ. Every `snapshot_every` records the service
//! takes an atomic snapshot and truncates the WAL. A base table never
//! changes once created, so a snapshot writes the rows of only the
//! tables born since the last one, as one segment; its manifest holds
//! the rest of the durable state and names each table's segment
//! ([`SegmentIndex`]).
//!
//! Values are encoded as *tagged strings* (`i:`, `f:` hex bit pattern,
//! `d:`, `t:`) rather than JSON numbers: `i64` above 2^53 and
//! non-finite floats do not survive an f64 round-trip, and recovery
//! promises byte-identical state.

use crate::clock::SimInstant;
use crate::dataset::{Dataset, DatasetKind, DatasetName, Metadata, Preview};
use crate::permissions::Visibility;
use sqlshare_common::json::{self, Json, JsonWriter};
use sqlshare_common::{Error, Result};
use sqlshare_engine::vector::{Batch, ColumnData};
use sqlshare_engine::{Column, DataType, FaultPlan, Row, Schema, Table, Value};
use sqlshare_ingest::{ingest_text, HeaderMode, IngestOptions, IngestReport};
use sqlshare_storage::{CrashPoint, FsyncPolicy, SnapshotLoad, SnapshotStep, SnapshotStore, Wal};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Configuration for opening a durable service.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Data directory holding `wal.log`, the `snapshot-<lsn>.json`
    /// manifests and `segment-<lsn>.json` segments, and `querylog.log`.
    /// Created if missing.
    pub dir: PathBuf,
    /// When journal appends are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Journaled mutations between automatic catalog snapshots.
    pub snapshot_every: u64,
}

impl DurableOptions {
    /// Journaled mutations between snapshots unless told otherwise.
    pub const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            snapshot_every: Self::DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// Builder: set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder: set the snapshot cadence (minimum 1).
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records.max(1);
        self
    }
}

/// What startup recovery found and did, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (0 = none).
    pub snapshot_lsn: u64,
    /// WAL records applied on top of the snapshot.
    pub replayed_records: u64,
    /// Records skipped because their LSN was already applied
    /// (idempotent replay).
    pub skipped_records: u64,
    /// Records whose apply failed deterministically (journaled but
    /// never took effect live either).
    pub failed_records: u64,
    /// Bytes discarded from the WAL's torn/corrupt tail.
    pub truncated_wal_bytes: u64,
    /// Highest LSN in durable state after recovery.
    pub last_lsn: u64,
    /// Query-log entries reloaded from `querylog.log`.
    pub querylog_entries: u64,
    /// Bytes discarded from the query log's torn tail.
    pub querylog_truncated_bytes: u64,
    /// Snapshot candidates newer than the one used that were skipped as
    /// corrupt or unparseable — at-rest rot surfaced at boot.
    pub snapshot_candidates_skipped: u64,
}

/// The open durable storage behind a service: WAL + snapshots.
#[derive(Debug)]
pub(crate) struct DurableStore {
    wal: Wal,
    snapshots: SnapshotStore,
    epoch_file: PathBuf,
    last_lsn: u64,
    epoch: u64,
    records_since_snapshot: u64,
    snapshot_every: u64,
}

impl DurableStore {
    pub(crate) fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// The query log: a record log in the WAL's frame format, one
    /// `QueryLogEntry` JSON document per record.
    pub(crate) fn querylog_path(dir: &Path) -> PathBuf {
        dir.join("querylog.log")
    }

    pub(crate) fn epoch_path(dir: &Path) -> PathBuf {
        dir.join("lease.epoch")
    }

    /// Highest lease epoch this node has durably observed. The WAL also
    /// carries epochs, but a freshly promoted primary may crash before
    /// journaling anything at its new epoch — the meta file keeps the
    /// fence across that restart.
    pub(crate) fn load_epoch(dir: &Path) -> u64 {
        std::fs::read_to_string(Self::epoch_path(dir))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Open the WAL for appending. Run recovery (scan + replay) first;
    /// `last_lsn` must be the highest LSN recovery applied.
    pub(crate) fn open(options: &DurableOptions, last_lsn: u64) -> Result<DurableStore> {
        Ok(DurableStore {
            wal: Wal::open(&Self::wal_path(&options.dir), options.fsync)?,
            snapshots: SnapshotStore::new(&options.dir),
            epoch_file: Self::epoch_path(&options.dir),
            last_lsn,
            epoch: 0,
            records_since_snapshot: 0,
            snapshot_every: options.snapshot_every.max(1),
        })
    }

    /// Journal one mutation under the next LSN and this node's lease
    /// epoch; on success it is durable under the configured fsync policy
    /// and its LSN is committed.
    pub(crate) fn journal(&mut self, m: &Mutation) -> Result<u64> {
        let lsn = self.last_lsn + 1;
        self.journal_at(lsn, self.epoch, m)?;
        Ok(lsn)
    }

    /// Journal a record at a given position: a record replicated from a
    /// primary keeps the primary's LSN and lease epoch, so the standby's
    /// WAL replays to byte-identical state. Replication delivers records
    /// in order, so the LSN simply becomes the new high-water mark.
    pub(crate) fn journal_at(&mut self, lsn: u64, epoch: u64, m: &Mutation) -> Result<()> {
        if self.snapshots.crashed() {
            return Err(Error::Internal("simulated crash: snapshot store is dead".into()));
        }
        self.wal.append(m.encode(lsn, epoch).as_bytes())?;
        self.last_lsn = lsn;
        self.records_since_snapshot += 1;
        Ok(())
    }

    pub(crate) fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Reset the durable high-water mark after a snapshot install
    /// (standby catch-up jumps the LSN forward).
    pub(crate) fn set_last_lsn(&mut self, lsn: u64) {
        self.last_lsn = lsn;
    }

    /// Set the lease epoch stamped on every subsequently journaled
    /// record (bumped on promotion, adopted from records on standby).
    /// Epoch advances are mirrored to the meta file so the fence
    /// survives a restart even before anything is journaled at the new
    /// epoch; best-effort, since recovery also re-derives the epoch
    /// from the WAL and snapshots.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            let _ = std::fs::write(&self.epoch_file, epoch.to_string());
        }
        self.epoch = epoch;
    }

    pub(crate) fn wants_snapshot(&self) -> bool {
        self.records_since_snapshot >= self.snapshot_every
    }

    /// Whether `segment-<lsn>.json` exists already. A snapshot at an
    /// LSN that has one (a second snapshot at the same LSN) must not
    /// replace it, since a manifest on disk may name it.
    pub(crate) fn segment_exists(&self, lsn: u64) -> bool {
        self.snapshots.segment_exists(lsn)
    }

    /// Persist `files` as the snapshot at the current LSN — the segment,
    /// if any, then the manifest — record where its tables are in
    /// `index`, truncate the WAL it makes redundant, and prune. On
    /// failure the WAL keeps full history and the previous snapshot
    /// stays authoritative.
    pub(crate) fn take_snapshot(&mut self, files: SnapshotFiles, index: &mut SegmentIndex) -> Result<()> {
        // Success or failure, restart the cadence — a persistently
        // failing disk shouldn't retry on every mutation.
        self.records_since_snapshot = 0;
        self.wal.sync()?;
        let lsn = self.last_lsn;
        self.snapshots
            .write_snapshot(lsn, files.segment.as_deref(), &files.manifest)?;
        index.written(lsn, files.placed, files.segment.map(|s| s.len() as u64));
        self.wal.reset()?;
        self.snapshots.crash_after(SnapshotStep::WalReset)?;
        // Best effort, as the snapshot is durable already: what a failed
        // prune leaves, the next one deletes.
        let _ = self.prune(lsn, index);
        Ok(())
    }

    /// Keep the two newest manifests up to `lsn`, the one just written,
    /// and the segments either names; delete every other manifest and
    /// segment, and `.tmp` leftovers. A manifest past `lsn` is of a
    /// lineage a reseed to an older LSN replaced: kept, it would be what
    /// recovery loads. Manifests go first, so a crash part-way never
    /// leaves a manifest naming a deleted segment.
    fn prune(&self, lsn: u64, index: &mut SegmentIndex) -> Result<()> {
        let mut kept = self.snapshots.list()?;
        kept.retain(|&m| m <= lsn);
        kept.sort_unstable_by(|a, b| b.cmp(a));
        kept.truncate(2);
        let mut named = BTreeSet::new();
        for manifest in kept.iter().copied() {
            match index.manifests.get(&manifest) {
                Some(segments) => named.extend(segments),
                // Not one this process wrote or loaded: read its names.
                // One that does not read names nothing and never loads.
                None => {
                    if let Some(doc) = self
                        .snapshots
                        .read_manifest(manifest)
                        .and_then(|payload| json::parse(&payload).ok())
                    {
                        named.extend(manifest_segments(&doc));
                    }
                }
            }
        }
        self.snapshots.prune_manifests(&kept)?;
        self.snapshots.crash_after(SnapshotStep::Prune)?;
        self.snapshots.prune_segments(&named)?;
        index.manifests.retain(|m, _| kept.contains(m));
        Ok(())
    }

    pub(crate) fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.wal.set_fault_plan(plan.clone());
        self.snapshots.set_fault_plan(plan);
    }

    pub(crate) fn set_crash_point(&mut self, cp: Option<CrashPoint>) {
        self.wal.set_crash_point(cp);
    }

    pub(crate) fn set_snapshot_crash_step(&mut self, step: Option<SnapshotStep>) {
        self.snapshots.set_crash_step(step);
    }

    /// Whether a simulated [`CrashPoint`] or [`SnapshotStep`] crash has
    /// fired: every further journal append is rejected.
    pub(crate) fn crashed(&self) -> bool {
        self.wal.crashed() || self.snapshots.crashed()
    }
}

/// Where a table's rows are: the byte range of its `{name, schema,
/// rows}` object inside the payload of `segment-<segment>.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableRef {
    pub(crate) segment: u64,
    pub(crate) at: u64,
    pub(crate) len: u64,
}

/// Segment payloads by LSN, as recovery read and verified them.
pub(crate) type Segments = HashMap<u64, String>;

/// The files of one snapshot, encoded before anything is written.
#[derive(Debug)]
pub(crate) struct SnapshotFiles {
    /// The tables no kept segment holds, when there are any.
    pub(crate) segment: Option<String>,
    pub(crate) manifest: String,
    /// Where every live table a segment holds is once the snapshot is
    /// written, by (catalog key, generation).
    pub(crate) placed: HashMap<(String, u64), TableRef>,
}

/// Which segment holds each live table's rows, so that a table's rows
/// are encoded once in its life: filled by the snapshot writer and by
/// recovery, keyed by (catalog key, generation) — a table re-created
/// under its old name has a new generation, and is a new table.
#[derive(Debug, Default)]
pub(crate) struct SegmentIndex {
    tables: HashMap<(String, u64), TableRef>,
    /// Payload bytes of each segment a live table is in.
    sizes: HashMap<u64, u64>,
    /// The segments each manifest this process wrote or loaded names.
    manifests: BTreeMap<u64, BTreeSet<u64>>,
    /// Segments the scrubber found rotted. The next snapshot writes
    /// their live tables afresh, so that no newer manifest names them
    /// (the findings arrive under a shared lock, hence the mutex).
    rotted: Mutex<BTreeSet<u64>>,
}

impl SegmentIndex {
    /// The index of a restored snapshot: `placed` are its tables read
    /// from `segments`.
    pub(crate) fn restored(
        lsn: u64,
        placed: HashMap<(String, u64), TableRef>,
        segments: &Segments,
    ) -> SegmentIndex {
        let named: BTreeSet<u64> = placed.values().map(|r| r.segment).collect();
        SegmentIndex {
            sizes: named
                .iter()
                .map(|s| (*s, segments.get(s).map_or(0, |p| p.len() as u64)))
                .collect(),
            manifests: BTreeMap::from([(lsn, named)]),
            tables: placed,
            rotted: Mutex::default(),
        }
    }

    /// The scrubber found `segment-<lsn>.json` rotted.
    pub(crate) fn note_rotted(&self, lsn: u64) {
        self.rotted.lock().unwrap_or_else(|e| e.into_inner()).insert(lsn);
    }

    /// Where each live table (catalog key, generation) stays in the next
    /// snapshot; `None` for one the next segment must hold: a table no
    /// segment holds, one in a segment found rotted, or one in a segment
    /// less than half of whose bytes are live tables — copying those out
    /// lets the segment go, which keeps disk bounded by twice the live
    /// bytes.
    pub(crate) fn place(&self, live: &[(String, u64)]) -> Vec<Option<TableRef>> {
        let refs: Vec<Option<TableRef>> =
            live.iter().map(|key| self.tables.get(key).copied()).collect();
        let mut live_bytes: HashMap<u64, u64> = HashMap::new();
        for r in refs.iter().flatten() {
            *live_bytes.entry(r.segment).or_default() += r.len;
        }
        let rotted = self.rotted.lock().unwrap_or_else(|e| e.into_inner());
        let kept = |r: &TableRef| {
            !rotted.contains(&r.segment)
                && 2 * live_bytes[&r.segment] >= self.sizes.get(&r.segment).copied().unwrap_or(0)
        };
        refs.into_iter().map(|r| r.filter(kept)).collect()
    }

    /// A snapshot at `lsn` is on disk: its live tables are `placed`, and
    /// its new segment, if any, has `segment_bytes` of payload.
    fn written(
        &mut self,
        lsn: u64,
        placed: HashMap<(String, u64), TableRef>,
        segment_bytes: Option<u64>,
    ) {
        if let Some(bytes) = segment_bytes {
            self.sizes.insert(lsn, bytes);
        }
        let named: BTreeSet<u64> = placed.values().map(|r| r.segment).collect();
        self.sizes.retain(|s, _| named.contains(s));
        self.rotted
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| named.contains(s));
        self.tables = placed;
        self.manifests.insert(lsn, named);
    }
}

/// A segment holding `tables`, and where each one is in it. The payload
/// is `{"lsn": lsn, "tables": [..]}`, each table as [`write_table`]
/// encodes it.
pub(crate) fn encode_segment(lsn: u64, tables: &[&Table]) -> (String, Vec<TableRef>) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("lsn").number(lsn as f64);
    w.key("tables").begin_array();
    let mut refs = Vec::with_capacity(tables.len());
    for (i, table) in tables.iter().enumerate() {
        // The separator before every table but the first is not its.
        let at = (w.len() + usize::from(i > 0)) as u64;
        write_table(&mut w, table);
        refs.push(TableRef {
            segment: lsn,
            at,
            len: w.len() as u64 - at,
        });
    }
    w.end_array();
    w.end_object();
    (w.finish(), refs)
}

/// A manifest's table entry: `{name, segment, at, len}`.
pub(crate) fn write_table_ref(w: &mut JsonWriter, name: &str, r: TableRef) {
    w.begin_object();
    w.key("name").string(name);
    w.key("segment").number(r.segment as f64);
    w.key("at").number(r.at as f64);
    w.key("len").number(r.len as f64);
    w.end_object();
}

/// The segment reference of a manifest's table entry; `None` for a
/// table written inline with its rows (a full-state snapshot of an
/// earlier version, a replication document, or a table whose segment
/// name was taken).
pub(crate) fn table_ref_of(j: &Json) -> Result<Option<TableRef>> {
    if j.get("segment").is_none() {
        return Ok(None);
    }
    Ok(Some(TableRef {
        segment: u64_of(j, "segment")?,
        at: u64_of(j, "at")?,
        len: u64_of(j, "len")?,
    }))
}

/// The `{name, schema, rows}` object a table entry names in `segments`.
/// Its bytes are checksummed with the segment; that the range holds an
/// object of the entry's name guards against a manifest and a segment
/// that do not belong together.
pub(crate) fn segment_table(segments: &Segments, name: &str, r: TableRef) -> Result<Json> {
    let corrupt = |what: &str| {
        Error::Corrupt(format!(
            "segment-{}.json: table '{name}' at {}+{}: {what}",
            r.segment, r.at, r.len
        ))
    };
    let payload = segments.get(&r.segment).ok_or_else(|| corrupt("segment not loaded"))?;
    let end = r.at.checked_add(r.len).and_then(|end| usize::try_from(end).ok());
    let text = (usize::try_from(r.at).ok())
        .zip(end)
        .and_then(|(at, end)| payload.get(at..end))
        .ok_or_else(|| corrupt("out of range"))?;
    let table = json::parse(text).map_err(|_| corrupt("not a table"))?;
    if table.get("name").and_then(Json::as_str) != Some(name) {
        return Err(corrupt("another table"));
    }
    Ok(table)
}

/// The segments a manifest's table entries name.
pub(crate) fn manifest_segments(doc: &Json) -> BTreeSet<u64> {
    let tables = doc
        .get("state")
        .and_then(|s| s.get("tables"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    tables
        .iter()
        .filter_map(|t| table_ref_of(t).ok().flatten())
        .map(|r| r.segment)
        .collect()
}

/// The newest snapshot in `dir` whose manifest verifies and every
/// segment it names verifies too, parsed, with those segments' payloads.
/// A manifest naming a missing or rotted segment is a skipped candidate
/// like a rotted manifest.
pub(crate) fn load_snapshot(dir: &Path) -> Result<(SnapshotLoad<Json>, Segments)> {
    let store = SnapshotStore::new(dir);
    let mut read: HashMap<u64, Option<String>> = HashMap::new();
    let loaded = store.load_latest_with(|_, payload| {
        let doc = json::parse(payload).ok()?;
        for segment in manifest_segments(&doc) {
            read.entry(segment)
                .or_insert_with(|| store.read_segment(segment))
                .as_ref()?;
        }
        Some(doc)
    })?;
    let named = loaded
        .latest
        .as_ref()
        .map(|(_, doc)| manifest_segments(doc))
        .unwrap_or_default();
    let segments = read
        .into_iter()
        .filter(|(lsn, _)| named.contains(lsn))
        .filter_map(|(lsn, payload)| Some((lsn, payload?)))
        .collect();
    Ok((loaded, segments))
}

/// One journaled catalog mutation. Every field a replay needs is in the
/// record; nothing is recomputed from sources that could have moved.
#[derive(Debug, Clone)]
pub(crate) enum Mutation {
    RegisterUser {
        username: String,
        email: String,
    },
    SetAdmin {
        username: String,
        admin: bool,
    },
    AdvanceDays {
        days: i32,
    },
    /// The raw upload. Replay re-runs schema inference on `content` —
    /// `ingest_text` is a pure function, so the rebuilt table is
    /// byte-identical to the live one.
    Upload {
        user: String,
        dataset: String,
        content: String,
        options: IngestOptions,
        created: SimInstant,
    },
    SaveDataset {
        user: String,
        dataset: String,
        /// Canonical (qualified, ORDER-BY-stripped) view SQL.
        sql: String,
        metadata: Metadata,
        created: SimInstant,
    },
    /// UNION-append, recorded as the final rewritten view SQL.
    Append {
        existing: DatasetName,
        sql: String,
    },
    /// Materialized snapshot. The rows are captured at validation time
    /// and embedded: re-running the source query during replay could
    /// observe different float merge orders under parallel execution.
    Materialize {
        source: DatasetName,
        name: DatasetName,
        schema: Schema,
        rows: Vec<Row>,
        created: SimInstant,
    },
    Delete {
        name: DatasetName,
    },
    SetVisibility {
        name: DatasetName,
        visibility: Visibility,
    },
    SetMetadata {
        name: DatasetName,
        metadata: Metadata,
    },
    MintDoi {
        name: DatasetName,
        doi: String,
    },
    RegisterUdf {
        name: String,
    },
}

impl Mutation {
    /// The journal record for this mutation, written straight from the
    /// borrowed fields: the upload's content is copied once, escaped, into
    /// the record and nowhere else.
    pub(crate) fn encode(&self, lsn: u64, epoch: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("lsn").number(lsn as f64);
        if epoch > 0 {
            // Epoch 0 is elided so single-node WALs keep their original
            // byte format (and old WALs decode as epoch 0).
            w.key("epoch").number(epoch as f64);
        }
        match self {
            Mutation::RegisterUser { username, email } => {
                w.key("op").string("register-user");
                w.key("username").string(username);
                w.key("email").string(email);
            }
            Mutation::SetAdmin { username, admin } => {
                w.key("op").string("set-admin");
                w.key("username").string(username);
                w.key("admin").bool(*admin);
            }
            Mutation::AdvanceDays { days } => {
                w.key("op").string("advance-days");
                w.key("days").number(*days as f64);
            }
            Mutation::Upload {
                user,
                dataset,
                content,
                options,
                created,
            } => {
                w.key("op").string("upload");
                w.key("user").string(user);
                w.key("dataset").string(dataset);
                w.key("content").string(content);
                write_options(w.key("options"), options);
                write_instant(w.key("created"), *created);
            }
            Mutation::SaveDataset {
                user,
                dataset,
                sql,
                metadata,
                created,
            } => {
                w.key("op").string("save-dataset");
                w.key("user").string(user);
                w.key("dataset").string(dataset);
                w.key("sql").string(sql);
                write_metadata(w.key("metadata"), metadata);
                write_instant(w.key("created"), *created);
            }
            Mutation::Append { existing, sql } => {
                w.key("op").string("append");
                write_dsname(w.key("existing"), existing);
                w.key("sql").string(sql);
            }
            Mutation::Materialize {
                source,
                name,
                schema,
                rows,
                created,
            } => {
                w.key("op").string("materialize");
                write_dsname(w.key("source"), source);
                write_dsname(w.key("name"), name);
                write_schema(w.key("schema"), schema);
                write_rows(w.key("rows"), rows);
                write_instant(w.key("created"), *created);
            }
            Mutation::Delete { name } => {
                w.key("op").string("delete");
                write_dsname(w.key("name"), name);
            }
            Mutation::SetVisibility { name, visibility } => {
                w.key("op").string("set-visibility");
                write_dsname(w.key("name"), name);
                write_visibility(w.key("visibility"), visibility);
            }
            Mutation::SetMetadata { name, metadata } => {
                w.key("op").string("set-metadata");
                write_dsname(w.key("name"), name);
                write_metadata(w.key("metadata"), metadata);
            }
            Mutation::MintDoi { name, doi } => {
                w.key("op").string("mint-doi");
                write_dsname(w.key("name"), name);
                w.key("doi").string(doi);
            }
            Mutation::RegisterUdf { name } => {
                w.key("op").string("register-udf");
                w.key("name").string(name);
            }
        }
        w.end_object();
        w.finish()
    }

    /// Lease epoch carried by a journaled record. Records written before
    /// replication existed (or by an epoch-0 primary) have none.
    pub(crate) fn epoch_of(j: &Json) -> u64 {
        u64_of(j, "epoch").unwrap_or(0)
    }

    pub(crate) fn from_json(j: &Json) -> Result<(u64, Mutation)> {
        let lsn = u64_of(j, "lsn")?;
        let op = str_of(j, "op")?;
        let m = match op.as_str() {
            "register-user" => Mutation::RegisterUser {
                username: str_of(j, "username")?,
                email: str_of(j, "email")?,
            },
            "set-admin" => Mutation::SetAdmin {
                username: str_of(j, "username")?,
                admin: bool_of(j, "admin")?,
            },
            "advance-days" => Mutation::AdvanceDays {
                days: u64_of(j, "days").map(|d| d as i32).or_else(|_| {
                    field(j, "days")?
                        .as_f64()
                        .map(|f| f as i32)
                        .ok_or_else(|| bad("days"))
                })?,
            },
            "upload" => Mutation::Upload {
                user: str_of(j, "user")?,
                dataset: str_of(j, "dataset")?,
                content: str_of(j, "content")?,
                options: options_from_json(field(j, "options")?)?,
                created: instant_from_json(field(j, "created")?)?,
            },
            "save-dataset" => Mutation::SaveDataset {
                user: str_of(j, "user")?,
                dataset: str_of(j, "dataset")?,
                sql: str_of(j, "sql")?,
                metadata: metadata_from_json(field(j, "metadata")?)?,
                created: instant_from_json(field(j, "created")?)?,
            },
            "append" => Mutation::Append {
                existing: dsname_from_json(field(j, "existing")?)?,
                sql: str_of(j, "sql")?,
            },
            "materialize" => Mutation::Materialize {
                source: dsname_from_json(field(j, "source")?)?,
                name: dsname_from_json(field(j, "name")?)?,
                schema: schema_from_json(field(j, "schema")?)?,
                rows: rows_from_json(field(j, "rows")?)?,
                created: instant_from_json(field(j, "created")?)?,
            },
            "delete" => Mutation::Delete {
                name: dsname_from_json(field(j, "name")?)?,
            },
            "set-visibility" => Mutation::SetVisibility {
                name: dsname_from_json(field(j, "name")?)?,
                visibility: visibility_from_json(field(j, "visibility")?)?,
            },
            "set-metadata" => Mutation::SetMetadata {
                name: dsname_from_json(field(j, "name")?)?,
                metadata: metadata_from_json(field(j, "metadata")?)?,
            },
            "mint-doi" => Mutation::MintDoi {
                name: dsname_from_json(field(j, "name")?)?,
                doi: str_of(j, "doi")?,
            },
            "register-udf" => Mutation::RegisterUdf {
                name: str_of(j, "name")?,
            },
            other => return Err(Error::Json(format!("unknown mutation op '{other}'"))),
        };
        Ok((lsn, m))
    }

    /// Decode one WAL record payload into `(lsn, epoch, mutation)`;
    /// `None` for bytes that are not a record this build understands.
    pub(crate) fn decode(record: &[u8]) -> Option<(u64, u64, Mutation)> {
        let doc = sqlshare_common::json::parse(std::str::from_utf8(record).ok()?).ok()?;
        let (lsn, m) = Mutation::from_json(&doc).ok()?;
        Some((lsn, Mutation::epoch_of(&doc), m))
    }

    /// The base table this record creates, by catalog key, and where its
    /// rows come from: the one reading of which records create a base
    /// table, under what name and from what content.
    pub(crate) fn base_table(&self) -> Option<(String, TableSource<'_>)> {
        match self {
            Mutation::Upload {
                user,
                dataset,
                content,
                options,
                ..
            } => Some((
                base_table_key(&DatasetName::new(user.clone(), dataset.clone())),
                TableSource::Upload { content, options },
            )),
            Mutation::Materialize {
                name, schema, rows, ..
            } => Some((base_table_key(name), TableSource::Rows { schema, rows })),
            Mutation::Delete { .. }
            | Mutation::RegisterUser { .. }
            | Mutation::SetAdmin { .. }
            | Mutation::AdvanceDays { .. }
            | Mutation::SaveDataset { .. }
            | Mutation::Append { .. }
            | Mutation::SetVisibility { .. }
            | Mutation::SetMetadata { .. }
            | Mutation::MintDoi { .. }
            | Mutation::RegisterUdf { .. } => None,
        }
    }
}

/// The base table behind a dataset: `owner.<name>$base`.
pub(crate) fn base_table_key(name: &DatasetName) -> String {
    format!("{}.{}", name.owner, base_name_part(&name.name))
}

pub(crate) fn base_name_part(dataset: &str) -> String {
    format!("{dataset}$base")
}

/// Where a created base table's rows come from — always the record.
pub(crate) enum TableSource<'a> {
    /// The raw upload: `ingest_text` is a pure function, so the rebuilt
    /// table is byte-identical to the live one.
    Upload {
        content: &'a str,
        options: &'a IngestOptions,
    },
    /// Rows captured at validation time.
    Rows { schema: &'a Schema, rows: &'a [Row] },
}

impl TableSource<'_> {
    /// Build the table under `key`, with the ingest report an upload has.
    pub(crate) fn build(&self, key: &str) -> Result<(Table, Option<IngestReport>)> {
        match self {
            TableSource::Upload { content, options } => {
                ingest_text(key, content, options).map(|(table, report)| (table, Some(report)))
            }
            TableSource::Rows { schema, rows } => {
                Ok((Table::new(key, (*schema).clone(), rows.to_vec()), None))
            }
        }
    }
}

// ---- JSON codec helpers -------------------------------------------------

fn bad(what: &str) -> Error {
    Error::Json(format!("malformed durable record: bad or missing '{what}'"))
}

pub(crate) fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json> {
    j.get(key).ok_or_else(|| bad(key))
}

pub(crate) fn str_of(j: &Json, key: &str) -> Result<String> {
    field(j, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(key))
}

pub(crate) fn u64_of(j: &Json, key: &str) -> Result<u64> {
    field(j, key)?
        .as_f64()
        .filter(|f| *f >= 0.0)
        .map(|f| f as u64)
        .ok_or_else(|| bad(key))
}

pub(crate) fn bool_of(j: &Json, key: &str) -> Result<bool> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(key)),
    }
}

pub(crate) fn array_of<'a>(j: &'a Json, key: &str) -> Result<&'a [Json]> {
    field(j, key)?.as_array().ok_or_else(|| bad(key))
}

pub(crate) fn strings_of(j: &Json, key: &str) -> Result<Vec<String>> {
    array_of(j, key)?
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or_else(|| bad(key)))
        .collect()
}

/// A `[key, value]` pair — how preview dependencies, the generation
/// table and the visibility map store their entries.
pub(crate) fn keyed_pair<'a>(j: &'a Json, what: &str) -> Result<(&'a str, &'a Json)> {
    match j.as_array() {
        Some([Json::String(key), value]) => Ok((key, value)),
        _ => Err(bad(what)),
    }
}

/// A `[catalog key, generation]` pair.
pub(crate) fn generation_pair(j: &Json) -> Result<(String, u64)> {
    let (key, generation) = keyed_pair(j, "generation")?;
    let generation = generation.as_f64().ok_or_else(|| bad("generation"))?;
    Ok((key.to_string(), generation as u64))
}

// Durable state has one encoder: the `write_*` functions below, each
// emitting one value through a [`JsonWriter`] from borrowed data. The
// decoders read the parsed tree.

pub(crate) fn write_instant(w: &mut JsonWriter, at: SimInstant) {
    w.begin_object();
    w.key("day").number(at.day as f64);
    w.key("seq").number(at.sequence as f64);
    w.end_object();
}

/// The query log keeps entries as trees (replication ships them as
/// documents), so its timestamps are built as one.
pub(crate) fn instant_to_json(at: SimInstant) -> Json {
    Json::object([
        ("day", Json::Number(at.day as f64)),
        ("seq", Json::Number(at.sequence as f64)),
    ])
}

pub(crate) fn instant_from_json(j: &Json) -> Result<SimInstant> {
    Ok(SimInstant {
        day: field(j, "day")?.as_f64().ok_or_else(|| bad("day"))? as i32,
        sequence: u64_of(j, "seq")?,
    })
}

/// Tagged-string value encoding: exact for the full `i64` range and for
/// every `f64` bit pattern (including NaN, which plain JSON cannot
/// carry).
pub(crate) fn write_value(w: &mut JsonWriter, v: &Value) {
    // A snapshot writes one of these per cell of every table, so the
    // numeric tags are formatted on the stack, not through `format!`.
    match v {
        Value::Null => w.null(),
        Value::Bool(b) => w.bool(*b),
        Value::Int(i) => w.string_parts(&["i:", decimal(*i, &mut [0; 20])]),
        Value::Float(f) => w.string_parts(&["f:", float_bits(*f, &mut [0; 20])]),
        Value::Date(d) => w.string_parts(&["d:", decimal(*d as i64, &mut [0; 20])]),
        Value::Text(s) => w.string_parts(&["t:", s]),
    };
}

/// The bit pattern of `f` as sixteen lowercase hex digits, in `buf`.
fn float_bits(f: f64, buf: &mut [u8; 20]) -> &str {
    let bits = f.to_bits();
    for (k, digit) in buf[..16].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(bits >> (60 - 4 * k)) as usize & 0xf];
    }
    std::str::from_utf8(&buf[..16]).expect("hex digits")
}

/// `n` in decimal, as `Display` prints it, in the tail of `buf`.
fn decimal(n: i64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    std::str::from_utf8(&buf[at..]).expect("ascii digits")
}

pub(crate) fn value_from_json(j: &Json) -> Result<Value> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::String(s) => match s.split_at_checked(2) {
            Some(("i:", rest)) => rest
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| bad("int value")),
            Some(("f:", rest)) => u64::from_str_radix(rest, 16)
                .map(|bits| Value::Float(f64::from_bits(bits)))
                .map_err(|_| bad("float value")),
            Some(("d:", rest)) => rest
                .parse::<i32>()
                .map(Value::Date)
                .map_err(|_| bad("date value")),
            Some(("t:", rest)) => Ok(Value::Text(rest.to_string())),
            _ => Err(bad("value tag")),
        },
        _ => Err(bad("value")),
    }
}

pub(crate) fn write_rows(w: &mut JsonWriter, rows: &[Row]) {
    w.begin_array();
    for row in rows {
        w.begin_array();
        for v in row {
            write_value(w, v);
        }
        w.end_array();
    }
    w.end_array();
}

pub(crate) fn rows_from_json(j: &Json) -> Result<Vec<Row>> {
    j.as_array()
        .ok_or_else(|| bad("rows"))?
        .iter()
        .map(|r| {
            r.as_array()
                .ok_or_else(|| bad("row"))?
                .iter()
                .map(value_from_json)
                .collect()
        })
        .collect()
}

fn datatype_tag(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Date => "date",
        DataType::Text => "text",
    }
}

fn datatype_from_tag(tag: &str) -> Result<DataType> {
    Ok(match tag {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "date" => DataType::Date,
        "text" => DataType::Text,
        _ => return Err(bad("type")),
    })
}

pub(crate) fn write_schema(w: &mut JsonWriter, schema: &Schema) {
    w.begin_array();
    for c in &schema.columns {
        w.begin_object();
        w.key("name").string(&c.name);
        w.key("type").string(datatype_tag(c.ty));
        if let Some(q) = &c.qualifier {
            w.key("qualifier").string(q);
        }
        if let Some(s) = &c.source_table {
            w.key("source").string(s);
        }
        w.end_object();
    }
    w.end_array();
}

pub(crate) fn schema_from_json(j: &Json) -> Result<Schema> {
    let columns = j
        .as_array()
        .ok_or_else(|| bad("schema"))?
        .iter()
        .map(|c| {
            let mut col = Column::new(str_of(c, "name")?, datatype_from_tag(&str_of(c, "type")?)?);
            col.qualifier = c.get("qualifier").and_then(Json::as_str).map(str::to_string);
            col.source_table = c.get("source").and_then(Json::as_str).map(str::to_string);
            Ok(col)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Schema::new(columns))
}

/// A table as `{name, schema, rows}`: rows row-major, each cell read out
/// of its typed column (text borrowed, not cloned) and encoded as
/// [`write_value`] would.
pub(crate) fn write_table(w: &mut JsonWriter, table: &Table) {
    let batch = table.batch();
    w.begin_object();
    w.key("name").string(&table.name);
    write_schema(w.key("schema"), &table.schema);
    w.key("rows").raw_value(|out| write_rows_of(out, &batch));
    w.end_object();
}

/// A batch's rows as a compact JSON array, straight from the typed
/// columns: byte for byte what [`write_value`] per cell would write, at
/// a fraction of the cost — the rows are most of a snapshot's bytes.
/// A text column's dictionary entries are escaped once each.
fn write_rows_of(out: &mut String, batch: &Batch) {
    let texts: Vec<Option<(String, Vec<usize>)>> = batch
        .cols
        .iter()
        .map(|col| match &col.vec.data {
            ColumnData::Text { dict, .. } => {
                let mut escaped = String::new();
                let mut ends = Vec::with_capacity(dict.len() + 1);
                ends.push(0);
                for s in dict.iter() {
                    escaped.push_str("\"t:");
                    json::escape_into(&mut escaped, s);
                    escaped.push('"');
                    ends.push(escaped.len());
                }
                Some((escaped, ends))
            }
            _ => None,
        })
        .collect();
    let mut digits = [0; 20];
    out.push('[');
    for i in 0..batch.len {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (c, col) in batch.cols.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            let at = col.off + i;
            if !col.vec.is_valid(at) {
                out.push_str("null");
                continue;
            }
            let (tag, text) = match &col.vec.data {
                ColumnData::Int(v) => ("\"i:", decimal(v[at], &mut digits)),
                ColumnData::Float(v) => ("\"f:", float_bits(v[at], &mut digits)),
                ColumnData::Date(v) => ("\"d:", decimal(i64::from(v[at]), &mut digits)),
                ColumnData::Bool(v) => {
                    out.push_str(if v[at] { "true" } else { "false" });
                    continue;
                }
                ColumnData::Text { codes, .. } => {
                    let (escaped, ends) = texts[c].as_ref().expect("a text column");
                    let code = codes[at] as usize;
                    out.push_str(&escaped[ends[code]..ends[code + 1]]);
                    continue;
                }
            };
            out.push_str(tag);
            out.push_str(text);
            out.push('"');
        }
        out.push(']');
    }
    out.push(']');
}

pub(crate) fn table_from_json(j: &Json) -> Result<Table> {
    Ok(Table::new(
        str_of(j, "name")?,
        schema_from_json(field(j, "schema")?)?,
        rows_from_json(field(j, "rows")?)?,
    ))
}

pub(crate) fn write_dsname(w: &mut JsonWriter, name: &DatasetName) {
    w.begin_object();
    w.key("owner").string(&name.owner);
    w.key("name").string(&name.name);
    w.end_object();
}

pub(crate) fn dsname_from_json(j: &Json) -> Result<DatasetName> {
    Ok(DatasetName {
        owner: str_of(j, "owner")?,
        name: str_of(j, "name")?,
    })
}

pub(crate) fn write_metadata(w: &mut JsonWriter, m: &Metadata) {
    w.begin_object();
    w.key("description").string(&m.description);
    w.key("tags").begin_array();
    for t in &m.tags {
        w.string(t);
    }
    w.end_array();
    w.end_object();
}

pub(crate) fn metadata_from_json(j: &Json) -> Result<Metadata> {
    Ok(Metadata {
        description: str_of(j, "description")?,
        tags: strings_of(j, "tags")?,
    })
}

pub(crate) fn write_visibility(w: &mut JsonWriter, v: &Visibility) {
    match v {
        Visibility::Private => w.string("private"),
        Visibility::Public => w.string("public"),
        Visibility::Shared(users) => {
            w.begin_object();
            w.key("shared").begin_array();
            for u in users {
                w.string(u);
            }
            w.end_array();
            w.end_object()
        }
    };
}

pub(crate) fn visibility_from_json(j: &Json) -> Result<Visibility> {
    match j {
        Json::String(s) if s == "private" => Ok(Visibility::Private),
        Json::String(s) if s == "public" => Ok(Visibility::Public),
        Json::Object(_) => Ok(Visibility::Shared(strings_of(j, "shared")?)),
        _ => Err(bad("visibility")),
    }
}

fn write_options(w: &mut JsonWriter, o: &IngestOptions) {
    w.begin_object();
    w.key("header").string(match o.header {
        HeaderMode::Auto => "auto",
        HeaderMode::Present => "present",
        HeaderMode::Absent => "absent",
    });
    w.key("prefix").number(o.inference_prefix as f64);
    if let Some(d) = o.delimiter {
        w.key("delimiter").string(d.encode_utf8(&mut [0; 4]));
    }
    w.end_object();
}

fn options_from_json(j: &Json) -> Result<IngestOptions> {
    Ok(IngestOptions {
        header: match str_of(j, "header")?.as_str() {
            "auto" => HeaderMode::Auto,
            "present" => HeaderMode::Present,
            "absent" => HeaderMode::Absent,
            _ => return Err(bad("header")),
        },
        inference_prefix: u64_of(j, "prefix")? as usize,
        delimiter: j
            .get("delimiter")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next()),
    })
}

fn kind_tag(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Uploaded => "uploaded",
        DatasetKind::Derived => "derived",
        DatasetKind::Snapshot => "snapshot",
    }
}

fn kind_from_tag(tag: &str) -> Result<DatasetKind> {
    Ok(match tag {
        "uploaded" => DatasetKind::Uploaded,
        "derived" => DatasetKind::Derived,
        "snapshot" => DatasetKind::Snapshot,
        _ => return Err(bad("kind")),
    })
}

fn write_preview(w: &mut JsonWriter, p: &Preview) {
    w.begin_object();
    write_schema(w.key("schema"), &p.schema);
    write_rows(w.key("rows"), &p.rows);
    w.key("truncated").bool(p.truncated);
    w.key("deps").begin_array();
    for (k, g) in &p.deps {
        w.begin_array().string(k).number(*g as f64).end_array();
    }
    w.end_array();
    w.end_object();
}

fn preview_from_json(j: &Json) -> Result<Preview> {
    let deps = array_of(j, "deps")?
        .iter()
        .map(generation_pair)
        .collect::<Result<Vec<_>>>()?;
    Ok(Preview {
        schema: schema_from_json(field(j, "schema")?)?,
        rows: rows_from_json(field(j, "rows")?)?,
        truncated: bool_of(j, "truncated")?,
        deps,
    })
}

pub(crate) fn write_dataset(w: &mut JsonWriter, d: &Dataset, include_preview: bool) {
    w.begin_object();
    w.key("owner").string(&d.name.owner);
    w.key("name").string(&d.name.name);
    w.key("sql").string(&d.sql);
    write_metadata(w.key("metadata"), &d.metadata);
    w.key("kind").string(kind_tag(d.kind));
    if let Some(b) = &d.base_table {
        w.key("base").string(b);
    }
    write_instant(w.key("created"), d.created);
    if include_preview {
        if let Some(p) = &d.preview {
            write_preview(w.key("preview"), p);
        }
    }
    w.end_object();
}

pub(crate) fn dataset_from_json(j: &Json) -> Result<Dataset> {
    Ok(Dataset {
        name: DatasetName {
            owner: str_of(j, "owner")?,
            name: str_of(j, "name")?,
        },
        sql: str_of(j, "sql")?,
        metadata: metadata_from_json(field(j, "metadata")?)?,
        preview: match j.get("preview") {
            Some(p) => Some(preview_from_json(p)?),
            None => None,
        },
        kind: kind_from_tag(&str_of(j, "kind")?)?,
        base_table: j.get("base").and_then(Json::as_str).map(str::to_string),
        created: instant_from_json(field(j, "created")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_exactly() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int((1_i64 << 53) + 1), // would be lossy as an f64
            Value::Float(0.1),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Date(-719162),
            Value::Text("i:not-an-int".into()), // tag collision must survive
            Value::Text(String::new()),
        ];
        for v in &values {
            let mut w = JsonWriter::new();
            write_value(&mut w, v);
            let reparsed = sqlshare_common::json::parse(&w.finish()).expect("valid json");
            let back = value_from_json(&reparsed).expect("decodes");
            // Bit-exact comparison (Value's PartialEq treats NaN != NaN).
            assert_eq!(format!("{v:?}"), format!("{back:?}"));
            if let (Value::Float(a), Value::Float(b)) = (v, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn mutations_round_trip_through_json() {
        let ms = [
            Mutation::RegisterUser {
                username: "ada".into(),
                email: "ada@uw.edu".into(),
            },
            Mutation::Upload {
                user: "ada".into(),
                dataset: "tides".into(),
                content: "a,b\n1,2\n".into(),
                options: IngestOptions {
                    header: HeaderMode::Present,
                    inference_prefix: 50,
                    delimiter: Some('|'),
                },
                created: SimInstant { day: 14977, sequence: 3 },
            },
            Mutation::Materialize {
                source: DatasetName::new("ada", "tides"),
                name: DatasetName::new("ada", "snap"),
                schema: Schema::from_pairs([("x", DataType::Int), ("y", DataType::Float)]),
                rows: vec![vec![Value::Int(1), Value::Float(2.5)]],
                created: SimInstant { day: 14977, sequence: 9 },
            },
            Mutation::SetVisibility {
                name: DatasetName::new("ada", "tides"),
                visibility: Visibility::Shared(vec!["bob".into(), "cy".into()]),
            },
        ];
        for (i, m) in ms.iter().enumerate() {
            let lsn = (i + 1) as u64;
            let epoch = (i as u64) % 3; // exercise elided epoch 0 too
            let text = m.encode(lsn, epoch);
            let reparsed = sqlshare_common::json::parse(&text).expect("valid json");
            let (got_lsn, back) = Mutation::from_json(&reparsed).expect("decodes");
            assert_eq!(got_lsn, lsn);
            assert_eq!(Mutation::epoch_of(&reparsed), epoch);
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn epoch_zero_keeps_the_pre_replication_record_format() {
        let m = Mutation::RegisterUser {
            username: "ada".into(),
            email: "ada@uw.edu".into(),
        };
        let text = m.encode(4, 0);
        assert!(!text.contains("epoch"), "{text}");
        let reparsed = sqlshare_common::json::parse(&text).unwrap();
        assert_eq!(Mutation::epoch_of(&reparsed), 0);
        let stamped = m.encode(4, 2);
        assert!(stamped.contains("\"epoch\""), "{stamped}");
    }

    /// Every record of a WAL the pre-streaming encoder wrote (see
    /// `tests/format_stability.rs`) decodes and encodes back to its own
    /// bytes.
    #[test]
    fn parent_wal_records_re_encode_to_their_own_bytes() {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent_format/wal.log");
        // Scan a copy: a scan repairs the file it reads.
        let copy = std::env::temp_dir().join(format!("sqlshare-wal-fixture-{}", std::process::id()));
        std::fs::copy(fixture, &copy).unwrap();
        let scan = Wal::scan(&copy).unwrap();
        std::fs::remove_file(&copy).unwrap();
        assert_eq!((scan.records.len(), scan.truncated_bytes), (14, 0));
        for record in &scan.records {
            let text = std::str::from_utf8(record).unwrap();
            let doc = sqlshare_common::json::parse(text).unwrap();
            let (lsn, m) = Mutation::from_json(&doc).unwrap();
            assert_eq!(m.encode(lsn, Mutation::epoch_of(&doc)), text);
        }
    }

    #[test]
    fn rows_encode_as_their_cells_do() {
        let t = |s: &str| Value::Text(s.into());
        let hostile = || t("q\"\\\n\u{1}😀");
        let (int, float, date) = (Value::Int, Value::Float, Value::Date);
        let rows = vec![
            vec![int(i64::MIN), float(-0.0), hostile(), date(-3), Value::Bool(true)],
            vec![Value::Null, float(f64::NAN), t(""), Value::Null, Value::Bool(false)],
            vec![int(7), Value::Null, hostile(), date(19_000), Value::Null],
            vec![int(-1), float(1e-320), Value::Null, date(0), Value::Bool(true)],
        ];
        let schema = Schema::new(
            [DataType::Int, DataType::Float, DataType::Text, DataType::Date, DataType::Bool]
                .into_iter()
                .enumerate()
                .map(|(i, ty)| Column::new(format!("c{i}"), ty))
                .collect(),
        );
        let batch = Table::new("t", schema, rows).batch();
        for range in [0..4, 1..3, 2..2] {
            let slice = batch.slice(range.clone());
            let mut want = JsonWriter::new();
            write_rows(&mut want, &slice.to_rows());
            let mut got = String::new();
            write_rows_of(&mut got, &slice);
            assert_eq!(got, want.finish(), "rows {range:?}");
        }
    }

    #[test]
    fn a_segment_less_than_half_live_is_compacted() {
        let r = |segment, at, len| TableRef { segment, at, len };
        let key = |k: &str| (k.to_string(), 1);
        let segments = Segments::from([(4, "x".repeat(100)), (9, "y".repeat(50))]);
        let placed = HashMap::from([
            (key("a"), r(4, 10, 40)),
            (key("b"), r(4, 55, 40)),
            (key("c"), r(9, 10, 30)),
        ]);
        let index = SegmentIndex::restored(9, placed, &segments);
        // All live: every table stays where it is.
        let all = [key("a"), key("b"), key("c")];
        assert_eq!(index.place(&all), [Some(r(4, 10, 40)), Some(r(4, 55, 40)), Some(r(9, 10, 30))]);
        // `b` dropped: 40 of segment 4's 100 bytes are live, so `a` moves
        // to the next segment; `d` is new; `c` keeps 30 of 50.
        let live = [key("a"), key("c"), key("d")];
        assert_eq!(index.place(&live), [None, Some(r(9, 10, 30)), None]);
        // A re-created table is another generation: not in any segment.
        assert_eq!(index.place(&[("a".to_string(), 2)]), [None]);
    }

    #[test]
    fn unknown_op_is_rejected() {
        let j = sqlshare_common::json::parse(r#"{"lsn":1,"op":"frobnicate"}"#).unwrap();
        assert!(Mutation::from_json(&j).is_err());
    }

    #[test]
    fn durable_options_builders_clamp() {
        let o = DurableOptions::new("/tmp/x")
            .fsync(FsyncPolicy::Always)
            .snapshot_every(0);
        assert_eq!(o.snapshot_every, 1, "cadence is clamped to >= 1");
        assert_eq!(o.fsync, FsyncPolicy::Always);
    }
}
