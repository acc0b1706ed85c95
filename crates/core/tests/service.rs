//! Platform-level tests: the upload → query → share → append → snapshot
//! lifecycle, permissions, previews, quotas, and the query log — once
//! per engine mode (`tests/support/modes.rs`).

#[macro_use]
#[path = "../../../tests/support/modes.rs"]
mod modes;

in_every_mode!("service/cases.rs");
