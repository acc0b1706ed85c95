//! At-rest corruption bookkeeping: the scrub-progress mirror behind
//! `GET /api/integrity`.
//!
//! Detection lives elsewhere: every durable file carries checksums
//! (record-log frames, snapshot trailers), recovery refuses interior
//! damage with a typed `corrupt` error rather than truncate
//! acknowledged records, and the server's background scrubber re-reads
//! the data directory on a budget. A rotted segment the scrubber finds
//! is rewritten from memory by the next snapshot
//! (`SqlShare::note_scrub_finding`); a rotted journal is replaced by a
//! replica's byte-identical one.
//!
//! The hub is interior-locked and `Arc`-shared between the service, the
//! REST layer, and the server's scrub thread, so scrub progress can be
//! recorded under the server's *read* lock.

use sqlshare_common::json::Json;
use sqlshare_storage::ScrubStatus;
use std::sync::Mutex;

/// Shared integrity registry. All methods take `&self`.
#[derive(Debug, Default)]
pub struct IntegrityHub {
    /// Latest scrub progress, pushed by the server's scrub thread.
    scrub: Mutex<Option<ScrubStatus>>,
}

impl IntegrityHub {
    /// Mirror the latest scrub progress (from the scrub thread).
    pub fn set_scrub_status(&self, status: ScrubStatus) {
        *self.scrub.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// The `GET /api/integrity` body.
    pub fn report(&self) -> Json {
        let scrub = match *self.scrub.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(s) => Json::object([
                ("ticks", Json::num(s.ticks as f64)),
                ("passes", Json::num(s.passes as f64)),
                ("walFramesVerified", Json::num(s.wal_frames as f64)),
                ("snapshotsVerified", Json::num(s.snapshots as f64)),
                ("findings", Json::num(s.findings as f64)),
            ]),
            None => Json::Null,
        };
        Json::object([("scrub", scrub)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mirrors_the_latest_scrub_status() {
        let hub = IntegrityHub::default();
        assert_eq!(hub.report().get("scrub"), Some(&Json::Null));
        hub.set_scrub_status(ScrubStatus {
            passes: 2,
            findings: 1,
            ..ScrubStatus::default()
        });
        let scrub = hub.report().get("scrub").cloned().unwrap();
        assert_eq!(scrub.get("passes").and_then(Json::as_f64), Some(2.0));
        assert_eq!(scrub.get("findings").and_then(Json::as_f64), Some(1.0));
    }
}
