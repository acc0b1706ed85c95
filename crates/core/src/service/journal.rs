//! The journal side of the service: where a validated mutation is
//! journaled and installed, and everything that shares that path —
//! replication, startup recovery, snapshots, roles and lease epochs.
//!
//! A snapshot is a manifest of the durable state plus, when tables were
//! born since the last one, one segment holding their rows: base tables
//! never change, so the [`SegmentIndex`] remembers which segment holds
//! each live table and no table is encoded twice (compaction aside).
//! Recovery reads the newest manifest whose segments all verify.
//!
//! A mutation is validated by the public method that takes it
//! (`service.rs`), journaled here, and installed by
//! [`SqlShare::install`] — the one function that makes a record or a
//! whole snapshot current. It has four callers: the live commit, a
//! replicated record, recovery replay and a standby's snapshot install,
//! so a node that got its state any of those ways holds the same state.
//! DESIGN §4.11 has the stage × caller table.

use super::{SqlShare, StateLayout};
use crate::clock::SimInstant;
use crate::persist::{
    self, DurableOptions, DurableStore, Mutation, RecoveryReport, SegmentIndex, Segments,
    SnapshotFiles,
};
use crate::querylog::{QueryLog, QueryLogEntry};
use crate::repl::{ReplApply, ReplState, Role};
use sqlshare_common::json::{self, Json, JsonWriter};
use sqlshare_common::{Error, Result};
use sqlshare_engine::catalog::canonical_key;
use sqlshare_engine::{FaultPlan, Table};
use sqlshare_ingest::IngestReport;
use sqlshare_storage::{segment_lsn, CrashPoint, FsyncPolicy, SnapshotStep, Wal};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability and replication state.
#[derive(Debug, Default)]
pub(super) struct Journal {
    /// Durable storage (WAL + snapshots), `None` in ephemeral mode. The
    /// ephemeral path never touches the filesystem.
    store: Option<DurableStore>,
    /// Which segment on disk holds each live table (durable mode).
    segments: SegmentIndex,
    /// Data directory in durable mode, kept so replication can serve
    /// the live WAL file without going through the store.
    data_dir: Option<PathBuf>,
    /// Replication role, lease epoch, and lag hint.
    repl: ReplState,
    /// What the last recovery found, for observability.
    recovery: Option<RecoveryReport>,
    /// True only while startup recovery is replaying; the REST layer
    /// returns 503 for everything but `/api/ready` until it clears.
    recovering: bool,
}

impl Journal {
    pub(super) fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Share a fault plan with the store, so one seeded plan covers
    /// query and durability fault sites alike.
    pub(super) fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        if let Some(store) = &mut self.store {
            store.set_fault_plan(plan);
        }
    }
}

/// What an install makes current.
pub(super) enum Install<'a> {
    /// One journal record, with the table the validate stage already
    /// built for it when there is one.
    Record(&'a Mutation, Option<(Table, IngestReport)>),
    /// A whole snapshot document, replacing whatever the node held,
    /// with the segments its table entries name (none for a document
    /// holding its tables inline).
    Snapshot(&'a Json, &'a Segments),
}

impl SqlShare {
    /// Open a durable service: run crash recovery against the data
    /// directory (latest valid snapshot, then the WAL tail, truncating
    /// any torn record), reload the persisted query log, and start
    /// journaling new mutations.
    pub fn open(options: DurableOptions) -> Result<Self> {
        Self::new().recover(options)
    }

    /// [`SqlShare::open`] into this service, which must be freshly
    /// constructed. What was configured on it first is in force while
    /// recovery replays.
    pub fn recover(self, options: DurableOptions) -> Result<Self> {
        if self.journal.store.is_some() || !self.users.is_empty() || !self.datasets.is_empty() {
            return Err(Error::Internal(
                "recover: the service already holds state".into(),
            ));
        }
        let mut svc = self;
        svc.journal.recovering = true;
        std::fs::create_dir_all(&options.dir).map_err(|e| {
            Error::Internal(format!("create data dir {}: {e}", options.dir.display()))
        })?;
        let mut report = RecoveryReport::default();

        // 1. Latest valid snapshot (a manifest that is corrupt or names
        //    a corrupt segment is skipped; an older snapshot just means a
        //    longer replay).
        let (loaded, segments) = persist::load_snapshot(&options.dir)?;
        report.snapshot_candidates_skipped = loaded.skipped_candidates;
        if let Some((lsn, doc)) = &loaded.latest {
            svc.install(
                *lsn,
                Mutation::epoch_of(doc),
                Install::Snapshot(doc, &segments),
            )?;
            report.snapshot_lsn = *lsn;
        }
        drop(segments);
        // 2. WAL tail. The scan already truncated any torn/corrupt
        //    suffix; each surviving record is installed exactly as a
        //    live commit installs it. Records at or below the snapshot
        //    LSN are skipped (double replay is idempotent); a record
        //    whose apply fails is counted and skipped — the failure was
        //    deterministic, so it never took effect live either.
        let scan = Wal::scan(&DurableStore::wal_path(&options.dir))?;
        report.truncated_wal_bytes = scan.truncated_bytes;
        for record in &scan.records {
            let Some((lsn, epoch, m)) = Mutation::decode(record) else {
                report.failed_records += 1;
                continue;
            };
            // A restarted node resumes in the highest lease epoch it
            // ever journaled under, so a deposed primary stays fenced
            // across its own restart. The tail epoch tracks the epoch
            // of whatever record ends up at the last LSN — including
            // skipped ones, which still occupy their LSN on disk.
            let repl = &mut svc.journal.repl;
            repl.epoch = repl.epoch.max(epoch);
            repl.tail_epoch = epoch;
            let applied_lsn = repl.applied_lsn;
            if lsn <= applied_lsn {
                report.skipped_records += 1;
                continue;
            }
            // LSNs are contiguous within one lineage, so the first
            // replayed record landing past `applied_lsn + 1` proves the
            // WAL was reset by a snapshot that no longer loads (rotted
            // or deleted). The missing prefix is on no surviving
            // medium; refuse rather than replay onto the wrong base.
            if report.replayed_records == 0 && report.failed_records == 0 && lsn > applied_lsn + 1 {
                return Err(Error::Corrupt(format!(
                    "WAL resumes at lsn {lsn} but recovery only reaches lsn {applied_lsn}: \
                     the snapshot covering lsns {}..={} is gone — restore it from a \
                     replica before restarting",
                    applied_lsn + 1,
                    lsn - 1
                )));
            }
            match svc.install(lsn, epoch, Install::Record(&m, None)) {
                Ok(_) => report.replayed_records += 1,
                Err(_) => {
                    report.failed_records += 1;
                    // Applied or not, the record occupies its LSN.
                    svc.journal.repl.applied_lsn = lsn;
                }
            }
        }
        let applied_lsn = svc.journal.repl.applied_lsn;
        // A corrupt snapshot candidate newer than everything recovery
        // reached means the mutations up to its LSN are on no surviving
        // medium (the install that wrote it also reset the WAL): refuse
        // rather than boot a state that silently lost acknowledged
        // writes. A skipped candidate the WAL replays *past* — e.g. a
        // write torn before the reset — is harmless: state is complete
        // and the skip is merely counted in the report.
        if loaded.max_skipped_lsn > applied_lsn {
            return Err(Error::Corrupt(format!(
                "snapshot-{}.json is corrupt (or a segment it names is) and recovery \
                 only reaches lsn {}; no surviving snapshot or WAL record covers the \
                 gap — restore the file from a replica, or delete it to explicitly \
                 accept losing lsns {}..={}",
                loaded.max_skipped_lsn,
                applied_lsn,
                applied_lsn + 1,
                loaded.max_skipped_lsn
            )));
        }
        report.last_lsn = applied_lsn;

        // 3. Persisted query log, scanned like the WAL: a torn tail is
        //    truncated, interior damage refused, and so is a valid frame
        //    that does not decode as an entry; an entry is kept only as
        //    its id and instant. Query ticks are not journaled in the WAL,
        //    so the clock must also fast-forward past the newest logged
        //    timestamp — otherwise a recovered service would re-issue
        //    instants the crashed process already spent on queries.
        let querylog_path = DurableStore::querylog_path(&options.dir);
        let dropped = migrate_jsonl_querylog(&options.dir, &querylog_path)?;
        let scan = Wal::scan(&querylog_path)?;
        report.querylog_truncated_bytes = dropped + scan.truncated_bytes;
        let (mut high_id, mut newest_logged) = (0, None::<SimInstant>);
        for (i, record) in scan.records.iter().enumerate() {
            let entry = QueryLogEntry::decode(record).ok_or_else(|| {
                Error::Corrupt(format!(
                    "{}: record {} is not a query log entry",
                    querylog_path.display(),
                    i + 1
                ))
            })?;
            high_id = high_id.max(entry.id);
            newest_logged = newest_logged.max(Some(entry.at));
        }
        report.querylog_entries = scan.records.len() as u64;
        if let Some(at) = newest_logged {
            svc.sync_clock(at);
        }

        // 4. Go live: open the WAL and the query log for appending.
        // The lease-epoch meta file may outrun the journaled epochs: a
        // promotion that crashed before journaling anything still
        // fences the old lease after restart.
        let journal = &mut svc.journal;
        journal.repl.epoch = journal
            .repl
            .epoch
            .max(DurableStore::load_epoch(&options.dir));
        let mut store = DurableStore::open(&options, applied_lsn)?;
        store.set_epoch(journal.repl.epoch);
        journal.data_dir = Some(options.dir.clone());
        journal.store = Some(store);
        // The query log is never reset and carries no fault plan or
        // crash point.
        let querylog = Wal::open(&querylog_path, options.fsync)?;
        *svc.log() = QueryLog::durable(querylog, scan.records.len(), high_id);
        svc.journal.recovering = false;
        svc.journal.recovery = Some(report);
        Ok(svc)
    }

    // ---- the mutation pipeline, after validation ----------------------

    /// Journal, then install, one validated mutation. In ephemeral mode
    /// the journal stage is empty and the position does not move; in
    /// durable mode the mutation is acknowledged only after the WAL
    /// append succeeds.
    pub(super) fn commit(
        &mut self,
        m: Mutation,
        prebuilt: Option<(Table, IngestReport)>,
    ) -> Result<Option<IngestReport>> {
        let journal = &mut self.journal;
        if journal.repl.role == Role::Standby {
            return Err(Error::ReadOnly(
                "node is a replication standby; send writes to the primary".into(),
            ));
        }
        let (lsn, epoch) = match &mut journal.store {
            Some(store) => (store.journal(&m)?, journal.repl.epoch),
            None => (journal.repl.applied_lsn, journal.repl.tail_epoch),
        };
        self.install(lsn, epoch, Install::Record(&m, prebuilt))
    }

    /// Make `what` current at position (`lsn`, `epoch`): apply it, move
    /// the position, bring the derived state after it (previews, the
    /// workers' engine snapshot), and snapshot when one is due. Live
    /// commits, replicated records, recovery replay and snapshot installs
    /// all end here, so they cannot leave different state behind. The
    /// position moves only once the apply succeeded; every caller has
    /// already decided the record belongs at this LSN.
    pub(super) fn install(
        &mut self,
        lsn: u64,
        epoch: u64,
        what: Install<'_>,
    ) -> Result<Option<IngestReport>> {
        let (report, reseeded) = match what {
            Install::Record(m, prebuilt) => (self.apply_mutation(m, prebuilt)?, false),
            Install::Snapshot(doc, segments) => {
                // The snapshot is authoritative: local history (including
                // any divergent tail that forced a reseed) is gone, so
                // the tail epoch is exactly the snapshot's. Snapshots
                // written before replication carry no epoch. Only the
                // tables read from segments are known to be on disk.
                let placed = self.replace_state(doc, segments)?;
                self.journal.segments = SegmentIndex::restored(lsn, placed, segments);
                self.journal.repl.epoch = self.journal.repl.epoch.max(epoch);
                (None, true)
            }
        };
        self.journal.repl.applied_lsn = lsn;
        self.journal.repl.tail_epoch = epoch;
        self.refresh_previews();
        self.invalidate_snapshot();
        if !reseeded {
            self.maybe_snapshot();
        } else if let Some(store) = &mut self.journal.store {
            // No local WAL leads to an installed snapshot: persist it at
            // once, at the primary's LSN, so a crash right after catch-up
            // recovers to it — and fail the install if that fails.
            store.set_last_lsn(lsn);
            store.set_epoch(self.journal.repl.epoch);
            self.force_snapshot()?;
        }
        Ok(report)
    }

    /// Take an automatic snapshot when the cadence is due. Best effort:
    /// a failed snapshot leaves the WAL holding full history, and the
    /// next commit retries after another full cadence interval.
    fn maybe_snapshot(&mut self) {
        if self
            .journal
            .store
            .as_ref()
            .is_some_and(DurableStore::wants_snapshot)
        {
            let _ = self.force_snapshot();
        }
    }

    /// Force a snapshot now (durable mode only) — truncates the WAL.
    pub fn force_snapshot(&mut self) -> Result<()> {
        let Some(store) = &self.journal.store else {
            return Err(Error::Request(
                "service has no data directory (ephemeral mode)".into(),
            ));
        };
        let lsn = store.last_lsn();
        let files = self.snapshot_files(lsn, store.segment_exists(lsn));
        let journal = &mut self.journal;
        let store = journal.store.as_mut().expect("checked above");
        store.take_snapshot(files, &mut journal.segments)
    }

    /// The files of a snapshot at `lsn`: a segment of the live tables no
    /// kept segment holds ([`SegmentIndex::place`]), and the manifest
    /// naming each table's segment. When a segment of this LSN exists
    /// already (`name_taken`: a second snapshot at the same LSN), those
    /// tables go into the manifest inline instead, and into a segment at
    /// the next snapshot.
    fn snapshot_files(&self, lsn: u64, name_taken: bool) -> SnapshotFiles {
        let catalog = self.engine.catalog();
        let mut tables: Vec<&Table> = catalog.tables().collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        let keys: Vec<(String, u64)> = tables
            .iter()
            .map(|t| {
                let key = canonical_key(&t.name);
                let generation = catalog.generation_of(&key);
                (key, generation)
            })
            .collect();
        let mut places = self.journal.segments.place(&keys);
        let born: Vec<usize> = (0..tables.len()).filter(|&i| places[i].is_none()).collect();
        let mut segment = None;
        if !born.is_empty() && !name_taken {
            let members: Vec<&Table> = born.iter().map(|&i| tables[i]).collect();
            let (payload, refs) = persist::encode_segment(lsn, &members);
            for (&i, r) in born.iter().zip(refs) {
                places[i] = Some(r);
            }
            segment = Some(payload);
        }
        let placed: HashMap<(String, u64), _> = keys
            .into_iter()
            .zip(places)
            .filter_map(|(key, place)| Some((key, place?)))
            .collect();
        let manifest = self.snapshot_document(lsn, StateLayout::Manifest(&placed));
        SnapshotFiles {
            segment,
            manifest,
            placed,
        }
    }

    /// A snapshot document (`lsn`, `epoch`, `clock`, `state`), streamed
    /// from live state into one string — no tree of the whole service is
    /// built on the way.
    fn snapshot_document(&self, lsn: u64, layout: StateLayout<'_>) -> String {
        // Copy the clock out first: a second `self.clock()` while the
        // first guard is alive would self-deadlock.
        let clock = *self.clock();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("lsn").number(lsn as f64);
        w.key("epoch").number(self.journal.repl.epoch as f64);
        let now = SimInstant {
            day: clock.day,
            sequence: clock.sequence,
        };
        persist::write_instant(w.key("clock"), now);
        self.write_durable_state(w.key("state"), layout);
        w.end_object();
        w.finish()
    }

    /// True while startup recovery is still replaying. The REST layer
    /// turns this into 503s on every route but `/api/ready`.
    pub fn is_recovering(&self) -> bool {
        self.journal.recovering
    }

    /// Test hook: flip the recovering gate without running a recovery.
    #[doc(hidden)]
    pub fn set_recovering(&mut self, recovering: bool) {
        self.journal.recovering = recovering;
    }

    /// What the last startup recovery found, if this service was opened
    /// from a data directory.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.journal.recovery
    }

    /// Arm a simulated crash after `after_records` more WAL appends
    /// (optionally tearing the final record). Chaos-test hook; no-op in
    /// ephemeral mode.
    pub fn set_storage_crash_point(&mut self, crash: Option<CrashPoint>) {
        if let Some(store) = &mut self.journal.store {
            store.set_crash_point(crash);
        }
    }

    /// Arm a simulated crash right after `step` of the next snapshot's
    /// write protocol. Chaos-test hook; no-op in ephemeral mode.
    pub fn set_snapshot_crash_step(&mut self, step: Option<SnapshotStep>) {
        if let Some(store) = &mut self.journal.store {
            store.set_snapshot_crash_step(step);
        }
    }

    /// Whether an armed crash point has fired. After a simulated crash
    /// the WAL is dead — every further mutation is rejected — and the
    /// only way forward is to reopen the data directory (recovery). Ops
    /// that swallow journal errors (`advance_days`, `register_udf`)
    /// make this the only reliable crash signal for chaos harnesses.
    pub fn storage_crashed(&self) -> bool {
        self.journal
            .store
            .as_ref()
            .is_some_and(DurableStore::crashed)
    }

    // ---- replication ---------------------------------------------------

    /// This node's replication role. Every node is a primary until it
    /// is demoted (configured to follow someone) or promoted back.
    pub fn role(&self) -> Role {
        self.journal.repl.role
    }

    /// Current lease epoch: stamped on every journaled record so a
    /// deposed primary's stale writes are recognizable and fenced.
    pub fn epoch(&self) -> u64 {
        self.journal.repl.epoch
    }

    /// Highest LSN in durable state (journaled locally or applied from
    /// replication). 0 for a fresh ephemeral service.
    pub fn last_lsn(&self) -> u64 {
        let journal = &self.journal;
        journal
            .store
            .as_ref()
            .map_or(journal.repl.applied_lsn, DurableStore::last_lsn)
    }

    /// Path of the live WAL file, for replication streaming. `None` in
    /// ephemeral mode.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.journal.data_dir().map(DurableStore::wal_path)
    }

    /// Where the durable query log lives (`None` in ephemeral mode) —
    /// the second file replication streams, because the log is durable
    /// acknowledged state too (it is the paper's research corpus) and
    /// recovery reads it back.
    pub fn querylog_path(&self) -> Option<PathBuf> {
        self.journal.data_dir().map(DurableStore::querylog_path)
    }

    /// Act on a scrub finding at `path`. A rotted segment of this node's
    /// data directory is noted: the next snapshot writes its live tables
    /// afresh, from memory, so that a crash after the one after that no
    /// longer depends on it. Findings in the record logs and manifests
    /// are left where they are: recovery refuses interior damage with a
    /// typed error rather than read past it.
    pub fn note_scrub_finding(&self, path: &Path) {
        let ours = path.parent().is_some_and(|dir| self.journal.data_dir() == Some(dir));
        if let (Some(lsn), true) = (segment_lsn(path), ours) {
            self.journal.segments.note_rotted(lsn);
        }
    }

    /// Adopt a lease epoch in memory and in the store, which mirrors an
    /// advance to the meta file.
    fn set_epoch(&mut self, epoch: u64) {
        self.journal.repl.epoch = epoch;
        if let Some(store) = &mut self.journal.store {
            store.set_epoch(epoch);
        }
    }

    /// Become the primary: bump the lease epoch so everything journaled
    /// from here on supersedes the deposed primary's lease. Returns the
    /// new epoch.
    pub fn promote(&mut self) -> u64 {
        self.journal.repl.role = Role::Primary;
        self.set_epoch(self.journal.repl.epoch + 1);
        self.journal.repl.epoch
    }

    /// Become (or stay) a standby, adopting `epoch` if it is newer than
    /// ours. A returned ex-primary is demoted with the cluster's
    /// current epoch, which fences its stale lease: it now rejects
    /// client writes and its old-epoch records are refused by
    /// [`apply_replicated`](Self::apply_replicated) everywhere.
    pub fn demote(&mut self, epoch: u64) {
        self.journal.repl.role = Role::Standby;
        self.set_epoch(self.journal.repl.epoch.max(epoch));
    }

    /// Record the newest LSN the primary has advertised, for lag
    /// accounting on standbys.
    pub fn note_primary_lsn(&mut self, lsn: u64) {
        let repl = &mut self.journal.repl;
        repl.primary_lsn_hint = repl.primary_lsn_hint.max(lsn);
    }

    /// How many LSNs this node trails the primary it follows (0 on a
    /// primary, or when fully caught up).
    pub fn replication_lag(&self) -> u64 {
        self.journal
            .repl
            .primary_lsn_hint
            .saturating_sub(self.last_lsn())
    }

    /// Apply one replicated WAL record, a frame's payload of the primary's
    /// `wal.log`, decoded as recovery decodes it; returns its LSN and the
    /// outcome. The record is re-journaled locally under the primary's LSN
    /// and epoch, then installed as a live commit or a recovered record
    /// is — replication correctness *is* the recovery path.
    ///
    /// Outcomes, checked in order:
    ///
    /// * `lsn <= last_lsn` with the record's epoch at or below our tail
    ///   epoch ⇒ [`ReplApply::Duplicate`] — idempotent redelivery of
    ///   history we already hold.
    /// * `lsn <= last_lsn` with a *newer* epoch ⇒ [`ReplApply::Diverged`]
    ///   — our record at that LSN belongs to an older lease the upstream
    ///   never saw (a deposed primary's un-replicated tail). Skipping it
    ///   as a duplicate would silently keep divergent state *and* ack an
    ///   LSN we never applied from the new history, so the caller must
    ///   reseed from a snapshot.
    /// * `lsn > last_lsn + 1` ⇒ [`ReplApply::Diverged`] — the record
    ///   would leave a gap (e.g. the upstream WAL was truncated and
    ///   regrew past our offset); replaying it out of order is unsound.
    /// * An epoch older than ours ⇒ `Err(ReadOnly)` — fencing: a deposed
    ///   primary's stale lease cannot extend our history.
    /// * Otherwise the record is journaled and applied:
    ///   [`ReplApply::Applied`].
    pub fn apply_replicated(&mut self, payload: &[u8]) -> Result<(u64, ReplApply)> {
        let (lsn, epoch, m) = Mutation::decode(payload)
            .ok_or_else(|| Error::Corrupt("replicated WAL payload is not a record".into()))?;
        let last = self.last_lsn();
        if lsn > last + 1 || (lsn <= last && epoch > self.journal.repl.tail_epoch) {
            return Ok((lsn, ReplApply::Diverged));
        }
        if lsn <= last {
            return Ok((lsn, ReplApply::Duplicate));
        }
        if epoch < self.journal.repl.epoch {
            return Err(Error::ReadOnly(format!(
                "fenced replicated record: lease epoch {epoch} predates current epoch {}",
                self.journal.repl.epoch
            )));
        }
        self.set_epoch(epoch);
        if let Some(store) = &mut self.journal.store {
            store.journal_at(lsn, epoch, &m)?;
        }
        self.install(lsn, epoch, Install::Record(&m, None))?;
        Ok((lsn, ReplApply::Applied))
    }

    /// Apply one replicated query-log entry (a frame's payload of the
    /// primary's `querylog.log`) — the query-log analogue of
    /// [`apply_replicated`](Self::apply_replicated), idempotent by
    /// entry id (the primary's log is in id order). The entry lands in
    /// this node's own log, or the call fails and it stays unapplied.
    /// Its timestamp fast-forwards the clock: queries tick the
    /// simulated clock on the primary, and a promoted standby must issue
    /// timestamps from where the primary left off, not from its last
    /// replicated *mutation*.
    pub fn apply_replicated_query_entry(&mut self, payload: &[u8]) -> Result<bool> {
        let entry = QueryLogEntry::decode(payload)
            .ok_or_else(|| Error::Corrupt("replicated query-log payload is not an entry".into()))?;
        let mut log = self.log();
        if entry.id <= log.high_id() {
            return Ok(false);
        }
        log.append(&entry)?;
        drop(log);
        self.sync_clock(entry.at);
        Ok(true)
    }

    /// The document a standby needs to catch up when the WAL it was
    /// streaming has been truncated by a snapshot: the shape of a
    /// manifest (`lsn`, `epoch`, `clock`, `state`), self-contained — every
    /// table with its rows, every dataset with its preview.
    pub fn replication_snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_document(self.last_lsn(), StateLayout::Replica)
            .into_bytes()
    }

    /// The same document parsed, for seeding a service in-process.
    pub fn replication_snapshot(&self) -> Json {
        let payload = self.snapshot_document(self.last_lsn(), StateLayout::Replica);
        json::parse(&payload).expect("the snapshot encoder writes valid JSON")
    }

    /// Replace this node's state with a primary's snapshot document and
    /// resume streaming from there. Existing catalog state is dropped —
    /// the snapshot is authoritative — while the engine's settings stay.
    /// In durable mode the installed state is immediately snapshotted
    /// locally so a crash right after catch-up recovers to it. Returns
    /// the snapshot's LSN.
    pub fn install_replica_snapshot(&mut self, doc: &Json) -> Result<u64> {
        let lsn = persist::u64_of(doc, "lsn")?;
        let inline = Segments::new();
        self.install(
            lsn,
            Mutation::epoch_of(doc),
            Install::Snapshot(doc, &inline),
        )?;
        Ok(lsn)
    }
}

/// One-time migration of a query log written before it was a record log:
/// `querylog.jsonl`, one entry per line. A torn tail — a bad line with
/// nothing parseable after it — is dropped; any other bad line refuses,
/// and nothing is written. The lines become frames, byte for byte, in a
/// temp file, fsynced and renamed to `log`, and only then is the old file
/// deleted: a crash reruns the migration (a leftover temp file is
/// discarded) or finishes it (both files present: only the delete was
/// left). Returns the bytes dropped.
fn migrate_jsonl_querylog(dir: &Path, log: &Path) -> Result<u64> {
    let old = dir.join("querylog.jsonl");
    let io = |what: &str, e: std::io::Error| {
        Error::Internal(format!("migrating {}: {what}: {e}", old.display()))
    };
    if !old.exists() {
        return Ok(0);
    }
    let mut dropped = 0;
    if !log.exists() {
        let bytes = std::fs::read(&old).map_err(|e| io("read", e))?;
        // The piece after the last newline is empty, or a torn append.
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let entries = lines[..lines.len() - 1]
            .iter()
            .take_while(|line| QueryLogEntry::decode(line).is_some())
            .count();
        let parses = |line: &&[u8]| std::str::from_utf8(line).is_ok_and(|t| json::parse(t).is_ok());
        if entries + 1 < lines.len() && lines[entries..].iter().any(parses) {
            return Err(Error::Corrupt(format!(
                "{}: line {} is not a query log entry and not a torn tail; nothing was \
                 migrated — repair or remove that line",
                old.display(),
                entries + 1
            )));
        }
        let tmp = log.with_extension("log.tmp");
        let _ = std::fs::remove_file(&tmp);
        let mut frames = Wal::open(&tmp, FsyncPolicy::Off)?;
        for line in &lines[..entries] {
            frames.append(line)?;
        }
        frames.sync()?;
        std::fs::rename(&tmp, log).map_err(|e| io("rename", e))?;
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all(); // the rename is durable before the delete
        }
        let kept: usize = lines[..entries].iter().map(|l| l.len() + 1).sum();
        dropped = (bytes.len() - kept) as u64;
    }
    std::fs::remove_file(&old).map_err(|e| io("remove", e))?;
    Ok(dropped)
}
