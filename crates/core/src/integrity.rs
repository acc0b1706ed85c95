//! At-rest corruption bookkeeping: the quarantine registry, repair
//! counters, and scrub-progress mirror behind `GET /api/integrity`.
//!
//! Detection lives elsewhere — page checksums fail in the storage
//! layer, the background scrubber sweeps cold files — and both funnel
//! here. A detected-corrupt base table is **quarantined**: queries that
//! touch it fail fast with a typed `corrupt` error (503 + `Retry-After`
//! at the REST layer, via the buffer pool's negative page pins) while
//! every *other* dataset keeps serving normally. Repair walks a ladder
//! cheapest-first:
//!
//! 1. **Rebuild from the local heap** — when only a secondary-index
//!    page rotted, the heap still holds every row; the table is
//!    re-created, which rewrites heap + indexes into fresh files.
//! 2. **Re-materialize from local durable state** — snapshots embed
//!    full rows and WAL `upload`/`materialize` records are
//!    self-contained, so a table whose heap rotted is rebuilt by a
//!    targeted replay.
//! 3. **Fetch pages from a replica** — page files are
//!    byte-deterministic across nodes, so a healthy peer serves the
//!    exact replacement image (`GET /api/repl/page`); it is
//!    checksum-verified before it touches the local file.
//!
//! The hub is interior-locked and `Arc`-shared between the service, the
//! REST layer, and the server's scrub thread, so scrub findings can be
//! recorded under the server's *read* lock.

use sqlshare_common::json::Json;
use sqlshare_storage::ScrubStatus;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One quarantined object: a base table with a backing page that failed
/// verification.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Engine name of the base table (e.g. `alice.tides$base`).
    pub table: String,
    /// What the detector saw (checksum mismatch, structural audit
    /// failure, …).
    pub detail: String,
}

/// How a quarantined table was (or was not) repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repair {
    /// Rung 1: secondary-index rot; rebuilt from the intact local heap.
    RebuiltFromHeap,
    /// Rung 2: heap rot; re-materialized from local snapshot + WAL.
    Rematerialized,
    /// The object no longer exists (or is memory-backed); nothing to do.
    Vacuous,
    /// Local rungs failed; only a replica fetch can repair it. Carries
    /// the last local error.
    NeedsReplica(String),
}

/// Shared integrity registry. All methods take `&self`.
#[derive(Debug, Default)]
pub struct IntegrityHub {
    quarantined: Mutex<BTreeMap<String, Quarantined>>,
    /// Latest scrub progress, pushed by the server's scrub thread.
    scrub: Mutex<Option<ScrubStatus>>,
    repairs_index_rebuild: AtomicU64,
    repairs_rematerialized: AtomicU64,
    repairs_replica_fetch: AtomicU64,
}

impl IntegrityHub {
    /// Quarantine `table`; returns whether it was newly quarantined.
    /// The first detail wins — later detections of the same object are
    /// usually downstream symptoms of the same rot.
    pub fn quarantine(&self, table: &str, detail: impl Into<String>) -> bool {
        let mut q = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        if q.contains_key(table) {
            return false;
        }
        q.insert(
            table.to_string(),
            Quarantined {
                table: table.to_string(),
                detail: detail.into(),
            },
        );
        true
    }

    /// Lift a quarantine after a successful repair.
    pub fn unquarantine(&self, table: &str) -> bool {
        self.quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(table)
            .is_some()
    }

    pub fn is_quarantined(&self, table: &str) -> bool {
        self.quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(table)
    }

    /// Snapshot of the quarantine list, in table-name order.
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Degraded = at least one object is quarantined. Everything else
    /// still serves; `/api/ready` surfaces this flag.
    pub fn degraded(&self) -> bool {
        !self
            .quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Record a completed repair for the counters.
    pub fn record_repair(&self, repair: &Repair) {
        match repair {
            Repair::RebuiltFromHeap => &self.repairs_index_rebuild,
            Repair::Rematerialized => &self.repairs_rematerialized,
            Repair::NeedsReplica(_) | Repair::Vacuous => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed replica-fetch repair (driven by the server,
    /// which owns the HTTP side).
    pub fn record_replica_repair(&self) {
        self.repairs_replica_fetch.fetch_add(1, Ordering::Relaxed);
    }

    /// Mirror the latest scrub progress (from the scrub thread).
    pub fn set_scrub_status(&self, status: ScrubStatus) {
        *self.scrub.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// The `GET /api/integrity` body.
    pub fn report(&self) -> Json {
        let quarantined: Vec<Json> = self
            .quarantined()
            .into_iter()
            .map(|q| {
                Json::object([
                    ("table", Json::str(q.table)),
                    ("detail", Json::str(q.detail)),
                ])
            })
            .collect();
        let scrub = match *self.scrub.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(s) => Json::object([
                ("ticks", Json::num(s.ticks as f64)),
                ("passes", Json::num(s.passes as f64)),
                ("pagesVerified", Json::num(s.pages as f64)),
                ("walFramesVerified", Json::num(s.wal_frames as f64)),
                ("snapshotsVerified", Json::num(s.snapshots as f64)),
                ("findings", Json::num(s.findings as f64)),
            ]),
            None => Json::Null,
        };
        Json::object([
            ("degraded", Json::Bool(!quarantined.is_empty())),
            ("quarantined", Json::Array(quarantined)),
            ("scrub", scrub),
            (
                "repairs",
                Json::object([
                    (
                        "indexRebuilds",
                        Json::num(self.repairs_index_rebuild.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "rematerializations",
                        Json::num(self.repairs_rematerialized.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "replicaFetches",
                        Json::num(self.repairs_replica_fetch.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_is_idempotent_and_first_detail_wins() {
        let hub = IntegrityHub::default();
        assert!(!hub.degraded());
        assert!(hub.quarantine("a.t$base", "checksum mismatch on page 3"));
        assert!(!hub.quarantine("a.t$base", "later symptom"));
        assert!(hub.is_quarantined("a.t$base"));
        assert!(hub.degraded());
        let q = hub.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].detail, "checksum mismatch on page 3");
        assert!(hub.unquarantine("a.t$base"));
        assert!(!hub.unquarantine("a.t$base"));
        assert!(!hub.degraded());
    }

    #[test]
    fn report_counts_repairs_by_rung() {
        let hub = IntegrityHub::default();
        hub.record_repair(&Repair::RebuiltFromHeap);
        hub.record_repair(&Repair::Rematerialized);
        hub.record_repair(&Repair::Rematerialized);
        hub.record_repair(&Repair::NeedsReplica("x".into()));
        hub.record_replica_repair();
        let report = hub.report();
        let repairs = report.get("repairs").unwrap();
        assert_eq!(repairs.get("indexRebuilds").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            repairs.get("rematerializations").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(repairs.get("replicaFetches").and_then(Json::as_f64), Some(1.0));
        assert_eq!(report.get("degraded"), Some(&Json::Bool(false)));
    }
}
