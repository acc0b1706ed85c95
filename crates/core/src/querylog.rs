//! The query log — the paper's research instrument (§4).
//!
//! Every executed query is recorded with its author, simulated timestamp,
//! SQL text, measured runtime, the Listing-1 JSON plan, and the datasets
//! and base tables it touched. The `sqlshare-workload` crate consumes
//! this log exactly as the paper's pipeline consumed the released corpus.
//!
//! The log is its frames (`querylog.log` when durable, the same bytes in
//! memory otherwise); [`QueryLog::entries`] decodes them for analysis.

use crate::clock::SimInstant;
use crate::persist::{
    bool_of, field, instant_from_json, instant_to_json, str_of, strings_of, u64_of,
};
use sqlshare_common::json::{self, Json, JsonObject};
use sqlshare_common::Result;
use sqlshare_storage::{frame, frames, Wal};
use std::borrow::Cow;

/// Outcome of a logged query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Success {
        rows: usize,
        runtime_micros: u64,
    },
    /// The error kind string (`parse`, `binding`, `permission`, ...).
    Error(String),
}

impl Outcome {
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success { .. })
    }

    /// Failure class for error-rate reporting: `internal` (contained
    /// panics / engine bugs), `resource` (memory-budget exhaustion),
    /// `timeout`, `cancelled`, or `error` for ordinary query errors
    /// (parse, binding, permission, execution, ...). `None` on success.
    pub fn failure_class(&self) -> Option<&'static str> {
        match self {
            Outcome::Success { .. } => None,
            Outcome::Error(kind) => Some(match kind.as_str() {
                "internal" => "internal",
                "resource" => "resource",
                "timeout" => "timeout",
                "cancelled" => "cancelled",
                _ => "error",
            }),
        }
    }
}

impl Outcome {
    fn to_json(&self) -> Json {
        match self {
            Outcome::Success {
                rows,
                runtime_micros,
            } => Json::object([
                ("rows", Json::Number(*rows as f64)),
                ("runtime_micros", Json::Number(*runtime_micros as f64)),
            ]),
            Outcome::Error(kind) => Json::str(kind.clone()),
        }
    }

    fn from_json(j: &Json) -> Result<Outcome> {
        match j {
            Json::String(kind) => Ok(Outcome::Error(kind.clone())),
            Json::Object(_) => Ok(Outcome::Success {
                rows: u64_of(j, "rows")? as usize,
                runtime_micros: u64_of(j, "runtime_micros")?,
            }),
            _ => Err(sqlshare_common::Error::Json(
                "malformed query-log outcome".into(),
            )),
        }
    }
}

/// One entry in the query log.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    pub id: u64,
    pub user: String,
    pub at: SimInstant,
    pub sql: String,
    pub outcome: Outcome,
    /// Time the query spent queued in the scheduler before a worker
    /// started it, in microseconds (0 for synchronous execution). The
    /// queue-wait/runtime split lets the workload analysis separate
    /// service load from query cost.
    pub queue_wait_micros: u64,
    /// Whether the rows were served from the result cache instead of
    /// being executed (successful queries only; always false on errors).
    pub cache_hit: bool,
    /// True when the query exhausted its memory budget at full DOP and
    /// went through the serial (DOP-1, cache-bypassed) degraded retry —
    /// whatever the final outcome was.
    pub degraded_retry: bool,
    /// Bytes of join/sort state spilled to spill files during execution
    /// (0 when everything fit in memory).
    pub spill_bytes: u64,
    /// The cleaned JSON plan (Phase 1 output, Fig. 5a). Present only for
    /// successful queries, and written to the log only when the encoded
    /// entry stays within [`json::MAX_DEPTH`], so every entry reads back.
    pub plan_json: Option<Json>,
    /// Base tables touched (catalog keys).
    pub tables: Vec<String>,
    /// Dataset names (owner.name keys) referenced, including views.
    pub datasets: Vec<String>,
    /// True when the query touches a dataset the author does not own
    /// (§5.2 reports >10% of queries do).
    pub touches_foreign_data: bool,
}

impl QueryLogEntry {
    /// One-line JSON encoding: the payload of a `querylog.log` record.
    pub fn to_json(&self) -> Json {
        let mut o = JsonObject::new();
        o.insert("id", Json::Number(self.id as f64));
        o.insert("user", Json::str(self.user.clone()));
        o.insert("at", instant_to_json(self.at));
        o.insert("sql", Json::str(self.sql.clone()));
        o.insert("outcome", self.outcome.to_json());
        o.insert("queue_wait_micros", Json::Number(self.queue_wait_micros as f64));
        o.insert("cache_hit", Json::Bool(self.cache_hit));
        o.insert("degraded_retry", Json::Bool(self.degraded_retry));
        o.insert("spill_bytes", Json::Number(self.spill_bytes as f64));
        // The entry adds one level to its plan's (two per operator); a plan
        // that would take it past what `json::parse` reads is left out.
        if let Some(plan) = self
            .plan_json
            .as_ref()
            .filter(|p| p.depth() < json::MAX_DEPTH)
        {
            o.insert("plan", plan.clone());
        }
        o.insert(
            "tables",
            Json::Array(self.tables.iter().map(|t| Json::str(t.clone())).collect()),
        );
        o.insert(
            "datasets",
            Json::Array(self.datasets.iter().map(|d| Json::str(d.clone())).collect()),
        );
        o.insert("foreign", Json::Bool(self.touches_foreign_data));
        Json::Object(o)
    }

    pub fn from_json(j: &Json) -> Result<QueryLogEntry> {
        Ok(QueryLogEntry {
            id: u64_of(j, "id")?,
            user: str_of(j, "user")?,
            at: instant_from_json(field(j, "at")?)?,
            sql: str_of(j, "sql")?,
            outcome: Outcome::from_json(field(j, "outcome")?)?,
            queue_wait_micros: u64_of(j, "queue_wait_micros")?,
            cache_hit: bool_of(j, "cache_hit")?,
            degraded_retry: bool_of(j, "degraded_retry")?,
            // Absent in logs written before operators could spill.
            spill_bytes: j
                .get("spill_bytes")
                .map(|_| u64_of(j, "spill_bytes"))
                .transpose()?
                .unwrap_or(0),
            plan_json: j.get("plan").cloned(),
            tables: strings_of(j, "tables")?,
            datasets: strings_of(j, "datasets")?,
            touches_foreign_data: bool_of(j, "foreign")?,
        })
    }

    /// A `querylog.log` record's payload as an entry, if it is one.
    pub fn decode(payload: &[u8]) -> Option<QueryLogEntry> {
        let doc = json::parse(std::str::from_utf8(payload).ok()?).ok()?;
        QueryLogEntry::from_json(&doc).ok()
    }
}

/// Append-only query log: its frames, and what the next append needs.
#[derive(Debug, Default)]
pub struct QueryLog {
    frames: Frames,
    len: usize,
    /// Highest entry id ever appended. Replicated entries carry ids the
    /// primary assigned, so after a reseed or rejoin the count says
    /// neither what has been applied nor which id is free.
    high_id: u64,
}

/// Where a log's frames live: `querylog.log` when durable, else memory.
#[derive(Debug)]
enum Frames {
    File(Wal),
    Memory(Vec<u8>),
}

impl Default for Frames {
    fn default() -> Self {
        Frames::Memory(Vec::new())
    }
}

impl QueryLog {
    /// The durable log `wal`, holding `len` entries up to id `high_id`.
    pub(crate) fn durable(wal: Wal, len: usize, high_id: u64) -> Self {
        QueryLog {
            frames: Frames::File(wal),
            len,
            high_id,
        }
    }

    /// Append `entry` as one frame. The caller holds the log's lock and
    /// has assigned or checked the id under it, so the frames are in id
    /// order. A failed append leaves the log as it was.
    pub(crate) fn append(&mut self, entry: &QueryLogEntry) -> Result<()> {
        let payload = entry.to_json().to_string();
        match &mut self.frames {
            Frames::File(wal) => wal.append(payload.as_bytes())?,
            Frames::Memory(bytes) => bytes.extend_from_slice(&frame(payload.as_bytes())),
        }
        self.len += 1;
        self.high_id = self.high_id.max(entry.id);
        Ok(())
    }

    pub(crate) fn high_id(&self) -> u64 {
        self.high_id
    }

    /// Every entry, decoded from the frames in append order.
    ///
    /// # Panics
    /// When a durable log's file cannot be read back.
    pub fn entries(&self) -> Vec<QueryLogEntry> {
        let bytes = match &self.frames {
            Frames::File(wal) => Cow::Owned(std::fs::read(wal.path()).expect("the log reads back")),
            Frames::Memory(bytes) => Cow::Borrowed(bytes),
        };
        frames(&bytes)
            .map(|(payload, _)| QueryLogEntry::decode(payload).expect("a logged entry"))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, user: &str, ok: bool) -> QueryLogEntry {
        QueryLogEntry {
            id,
            user: user.into(),
            at: SimInstant { day: 0, sequence: id },
            sql: format!("SELECT {id}"),
            outcome: if ok {
                Outcome::Success {
                    rows: 1,
                    runtime_micros: 10,
                }
            } else {
                Outcome::Error("binding".into())
            },
            queue_wait_micros: 0,
            cache_hit: false,
            degraded_retry: false,
            spill_bytes: 0,
            plan_json: None,
            tables: vec![],
            datasets: vec![],
            touches_foreign_data: false,
        }
    }

    #[test]
    fn an_ephemeral_log_is_its_frames() {
        let mut log = QueryLog::default();
        let appended = [entry(1, "ada", true), entry(2, "ada", false), entry(5, "bob", true)];
        for e in &appended {
            log.append(e).unwrap();
        }
        assert_eq!((log.len(), log.high_id()), (3, 5));
        let framed: Vec<u8> =
            appended.iter().flat_map(|e| frame(e.to_json().to_string().as_bytes())).collect();
        assert!(matches!(&log.frames, Frames::Memory(bytes) if *bytes == framed));
        assert_eq!(format!("{:?}", log.entries()), format!("{appended:?}"));
    }

    #[test]
    fn outcome_kinds() {
        assert!(Outcome::Success { rows: 0, runtime_micros: 0 }.is_success());
        assert!(!Outcome::Error("x".into()).is_success());
    }

    #[test]
    fn failure_classes_group_error_kinds() {
        assert_eq!(
            Outcome::Success { rows: 0, runtime_micros: 0 }.failure_class(),
            None
        );
        assert_eq!(
            Outcome::Error("internal".into()).failure_class(),
            Some("internal")
        );
        assert_eq!(
            Outcome::Error("resource".into()).failure_class(),
            Some("resource")
        );
        assert_eq!(
            Outcome::Error("timeout".into()).failure_class(),
            Some("timeout")
        );
        assert_eq!(
            Outcome::Error("cancelled".into()).failure_class(),
            Some("cancelled")
        );
        assert_eq!(Outcome::Error("parse".into()).failure_class(), Some("error"));
        assert_eq!(
            Outcome::Error("execution".into()).failure_class(),
            Some("error")
        );
    }

    #[test]
    fn entries_round_trip_through_json() {
        let mut success = entry(7, "ada", true);
        success.queue_wait_micros = 1234;
        success.cache_hit = true;
        success.degraded_retry = true;
        success.plan_json = Some(Json::object([("op", Json::str("Scan"))]));
        success.tables = vec!["ada.t$base".into()];
        success.datasets = vec!["ada.t".into(), "bob.v".into()];
        success.touches_foreign_data = true;
        let failure = entry(8, "bob", false);
        for e in [&success, &failure] {
            let line = e.to_json().to_string();
            assert!(!line.contains('\n'));
            let parsed = sqlshare_common::json::parse(&line).expect("valid json");
            let back = QueryLogEntry::from_json(&parsed).expect("decodes");
            assert_eq!(format!("{e:?}"), format!("{back:?}"));
        }
    }
}
