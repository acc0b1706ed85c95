//! `sqlshare-core` — the SQLShare platform.
//!
//! This crate is the paper's primary artifact: a database-as-a-service
//! layer that makes relational technology usable for ad hoc science
//! workloads by reducing everything to *upload, query, share*:
//!
//! * [`service::SqlShare`] — the platform facade (upload with relaxed
//!   schemas, query with async handles, views/append/snapshot, sharing,
//!   quotas, the query log).
//! * [`dataset`] — datasets as `(sql, metadata, preview)` 3-tuples with
//!   wrapper views erasing the table/view distinction (§3.2, Fig. 2).
//! * [`permissions`] — private/public/shared visibility with SQL Server
//!   ownership-chain semantics.
//! * [`querylog`] — the research corpus (§4): per-query plans, runtimes,
//!   touched datasets.
//! * [`macros`] — the paper's proposed conveniences, implemented: query
//!   macros with FROM-clause parameters (§5.2) and `prefix*` column
//!   pattern expansion (§5.3), plus DOI minting on the service (§5.2).
//! * [`persist`] — durability: the journaled mutation log, catalog
//!   snapshots, and crash recovery ([`DurableOptions`]).
//! * [`rest`] — the REST surface as typed request dispatch, used by the
//!   dependency-free HTTP server in `examples/rest_server.rs`.
//! * [`accounts`], [`clock`] — users/quotas and the simulated timeline.

pub mod accounts;
pub mod clock;
pub mod dataset;
pub mod integrity;
pub mod macros;
pub mod permissions;
pub mod persist;
pub mod querylog;
pub mod repl;
pub mod rest;
pub mod service;

pub use accounts::{Quota, User};
pub use clock::{SimClock, SimInstant};
pub use dataset::{Dataset, DatasetKind, DatasetName, Metadata, Preview};
pub use integrity::IntegrityHub;
pub use permissions::Visibility;
pub use persist::{DurableOptions, RecoveryReport};
pub use querylog::{Outcome, QueryLog, QueryLogEntry};
pub use repl::{AckMode, ReplApply, ReplConfig, Role};
pub use service::{JobStatus, QueryJob, QueryResult, SqlShare};
pub use sqlshare_engine::cache::{DEFAULT_HOT_VIEW_THRESHOLD, DEFAULT_RESULT_CACHE_MB};
pub use sqlshare_engine::Engine;
pub use sqlshare_scheduler::{SchedulerConfig, SchedulerStats, TenantStats};
pub use sqlshare_storage::{
    frame, read_tail, wal_generation, CrashPoint, FrameReader, FsyncPolicy, IoCounter, ScrubConfig,
    ScrubFinding, ScrubStatus, Scrubber, SnapshotStep, TailRead,
};
