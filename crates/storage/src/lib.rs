//! Storage primitives: the record log and atomic snapshots.
//!
//! SQLShare ran for years as a public service; the value of such a
//! service is the corpus that survives every crash and restart (§2–3 of
//! the paper). This crate is the durability spine under
//! `sqlshare-core`: the service journals every catalog mutation to a
//! [`wal::Wal`] *before* applying it, periodically captures the durable
//! state as an atomically-renamed [`snapshot`] (a manifest, and a
//! segment of the tables born since the last one), and appends the
//! query log to a second [`wal::Wal`] of its own (an ephemeral service
//! keeps the same [`frame`]s in memory). Both logs are
//! recovered by [`Wal::scan`] (a torn tail is truncated, interior damage
//! refused), checked by [`Wal::verify`] and shipped by [`read_tail`].
//! An operator that spills writes the same frames to a temp file and
//! reads them back through a [`FrameReader`].
//!
//! Design rules:
//!
//! * **Ephemeral mode is zero-overhead.** Nothing in this crate runs
//!   unless the service was opened with a data directory; every
//!   filesystem touch increments the owning store's [`IoCounter`],
//!   which regression tests assert stays at zero for ephemeral
//!   services.
//! * **Failed writes leave no trace.** A WAL append that fails (a real
//!   I/O error, or an injected `FaultSite::WalAppend` /
//!   `FaultSite::WalFsync` fault) truncates the file back to its
//!   pre-append length, so an unacknowledged mutation can never be
//!   half-journaled — except under a simulated [`wal::CrashPoint`],
//!   which deliberately leaves a torn tail the recovery scan must
//!   tolerate.
//! * **Torn writes are detected.** Every log record and spill frame
//!   carries an fnv64 checksum over its payload, and every snapshot
//!   file a trailer checksum over its whole payload.
//! * **No panics escape.** Fault-plan checks sit under `catch_unwind`;
//!   storage failures surface as typed `Error`s.

pub mod scrub;
pub mod snapshot;
pub mod stream;
pub mod wal;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use scrub::{ScrubConfig, ScrubFinding, ScrubStatus, Scrubber};
pub use snapshot::{segment_lsn, SnapshotLoad, SnapshotStep, SnapshotStore};
pub use stream::{read_tail, TailRead};
pub use wal::{frame, frames, wal_generation, CrashPoint, FrameReader, Wal, WalAudit, WalScan};

/// A shareable count of filesystem operations. Every store in this
/// crate (WAL, snapshot store, scrubber) owns one;
/// callers that want an aggregate (e.g. "all durability I/O for this
/// service") construct a single counter and thread it through the
/// `*_counted` constructors. Per-store counters keep concurrent test
/// binaries and unrelated subsystems from cross-contaminating counts —
/// there is deliberately no process-global counter.
#[derive(Debug, Clone, Default)]
pub struct IoCounter(Arc<AtomicU64>);

impl IoCounter {
    pub fn new() -> IoCounter {
        IoCounter::default()
    }

    /// Operations recorded so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (per-test isolation without a fresh store).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Record one filesystem operation.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// When to force journal writes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended record — maximum durability, one
    /// device round-trip per mutation.
    Always,
    /// fsync every [`FsyncPolicy::BATCH_INTERVAL`] records and at every
    /// snapshot — bounded loss window, amortized cost. The default.
    #[default]
    Batch,
    /// Never fsync; the OS flushes on its own schedule. For tests and
    /// throwaway corpora.
    Off,
}

impl FsyncPolicy {
    /// Records between forced syncs under [`FsyncPolicy::Batch`].
    pub const BATCH_INTERVAL: u64 = 32;

    /// Parse a policy name (`always`, `batch`, `off`); `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse(" BATCH "), Some(FsyncPolicy::Batch));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn io_counter_is_shared_and_resettable() {
        let a = IoCounter::new();
        let b = a.clone();
        a.bump();
        b.bump();
        assert_eq!(a.get(), 2);
        a.reset();
        assert_eq!(b.get(), 0);
    }
}
