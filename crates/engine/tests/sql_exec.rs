//! End-to-end SQL execution tests: parse → bind → plan → execute against
//! small in-memory tables, checking both results and plan shapes — once
//! per engine mode (`tests/support/modes.rs`).

#[macro_use]
#[path = "../../../tests/support/modes.rs"]
mod modes;

in_every_mode!("sql_exec/cases.rs");
