//! Deterministic fault injection, re-exported from `sqlshare-common`.
//!
//! The implementation lives in [`sqlshare_common::faults`] so that the
//! storage crate (WAL, snapshots) can inject faults at its own sites
//! without depending on the engine — the engine depends on storage for
//! its spill files, so the fault plumbing has to sit below both. Engine-side callers keep using `sqlshare_engine::faults::*`.

pub use sqlshare_common::faults::*;
