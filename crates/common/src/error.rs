//! The unified error type used across the SQLShare reproduction.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// All the ways a SQLShare operation can fail.
///
/// The variants are deliberately coarse: they mirror the error categories a
/// user of the original service could observe (a SQL syntax error, a failed
/// ingest, a permission denial, ...) rather than internal engine states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing or parsing failed. Carries a human-readable message with the
    /// offending position when available.
    Parse(String),
    /// The query referenced a table, view, column, or function that does
    /// not exist or is ambiguous.
    Binding(String),
    /// Planning failed: the query is well-formed but the engine cannot
    /// produce a plan for it.
    Plan(String),
    /// Runtime evaluation failed (bad cast, arithmetic on NULL-only
    /// aggregates, division by zero, ...).
    Execution(String),
    /// Ingest failed after staging and retries (§3.1).
    Ingest(String),
    /// The caller is not allowed to perform the operation, including broken
    /// ownership chains (§3.2).
    Permission(String),
    /// Dataset/catalog-level problems: duplicate names, missing datasets,
    /// attempts to modify read-only datasets.
    Catalog(String),
    /// JSON parsing or serialization failure.
    Json(String),
    /// Malformed REST request (unknown route, bad arguments).
    Request(String),
    /// Quota exceeded (datasets or storage bytes per user).
    Quota(String),
    /// Admission control rejected the query: the tenant's queue is full.
    Overloaded(String),
    /// The query's deadline expired before it finished.
    Timeout(String),
    /// The query was cancelled by its owner or an administrator.
    Cancelled(String),
    /// A bug surfaced mid-query (a contained panic inside an operator or
    /// a parallel worker). The query fails; the process keeps serving.
    Internal(String),
    /// The query exceeded its memory budget or the engine-wide memory
    /// pool.
    ResourceExhausted(String),
    /// The node cannot accept writes: it is a replication standby (or a
    /// fenced ex-primary). Reads still work; mutations should be retried
    /// against the current primary.
    ReadOnly(String),
    /// Bytes read back from a file failed their check: a record-log
    /// frame, a snapshot manifest or segment, or an operator's spill
    /// file (a checksum mismatch, a short frame, a record that does not
    /// decode). Recovery refuses with it rather than truncate
    /// acknowledged records; a query whose spill file fails it fails.
    /// The REST layer maps this to 503 with Retry-After, never a
    /// generic 500.
    Corrupt(String),
}

impl Error {
    /// Short machine-readable category, used by the REST layer.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Parse(_) => "parse",
            Error::Binding(_) => "binding",
            Error::Plan(_) => "plan",
            Error::Execution(_) => "execution",
            Error::Ingest(_) => "ingest",
            Error::Permission(_) => "permission",
            Error::Catalog(_) => "catalog",
            Error::Json(_) => "json",
            Error::Request(_) => "request",
            Error::Quota(_) => "quota",
            Error::Overloaded(_) => "overloaded",
            Error::Timeout(_) => "timeout",
            Error::Cancelled(_) => "cancelled",
            Error::Internal(_) => "internal",
            Error::ResourceExhausted(_) => "resource",
            Error::ReadOnly(_) => "read-only",
            Error::Corrupt(_) => "corrupt",
        }
    }

    /// Convert a payload caught by `std::panic::catch_unwind` into an
    /// [`Error::Internal`], preserving the panic message when it is a
    /// string (the common `panic!("...")` case).
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Error {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        Error::Internal(format!("contained panic: {msg}"))
    }

    /// The human-readable message carried by the variant.
    pub fn message(&self) -> &str {
        match self {
            Error::Parse(m)
            | Error::Binding(m)
            | Error::Plan(m)
            | Error::Execution(m)
            | Error::Ingest(m)
            | Error::Permission(m)
            | Error::Catalog(m)
            | Error::Json(m)
            | Error::Request(m)
            | Error::Quota(m)
            | Error::Overloaded(m)
            | Error::Timeout(m)
            | Error::Cancelled(m)
            | Error::Internal(m)
            | Error::ResourceExhausted(m)
            | Error::ReadOnly(m)
            | Error::Corrupt(m) => m,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_message_round_trip() {
        let e = Error::Parse("unexpected token".into());
        assert_eq!(e.kind(), "parse");
        assert_eq!(e.message(), "unexpected token");
        assert_eq!(e.to_string(), "parse error: unexpected token");
    }

    #[test]
    fn all_variants_have_distinct_kinds() {
        let errs = [
            Error::Parse(String::new()),
            Error::Binding(String::new()),
            Error::Plan(String::new()),
            Error::Execution(String::new()),
            Error::Ingest(String::new()),
            Error::Permission(String::new()),
            Error::Catalog(String::new()),
            Error::Json(String::new()),
            Error::Request(String::new()),
            Error::Quota(String::new()),
            Error::Overloaded(String::new()),
            Error::Timeout(String::new()),
            Error::Cancelled(String::new()),
            Error::Internal(String::new()),
            Error::ResourceExhausted(String::new()),
            Error::ReadOnly(String::new()),
            Error::Corrupt(String::new()),
        ];
        let mut kinds: Vec<_> = errs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), errs.len());
    }

    #[test]
    fn panic_payloads_become_internal_errors() {
        let caught =
            std::panic::catch_unwind(|| panic!("boom at row {}", 7)).unwrap_err();
        let err = Error::from_panic(caught);
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("boom at row 7"), "{err}");

        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert!(Error::from_panic(caught).message().contains("non-string"));
    }
}
