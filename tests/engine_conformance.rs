//! Property-based conformance tests spanning the SQL front end, the
//! engine, and ingest: algebraic invariants that must hold for *any*
//! input, checked with proptest — once per engine mode
//! (`tests/support/modes.rs`).

#[macro_use]
#[path = "support/modes.rs"]
mod modes;

in_every_mode!("engine_conformance/cases.rs");
