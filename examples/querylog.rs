//! Print a data directory's query log — the research corpus — as one
//! JSON document per line, ready for `grep` or `jq`:
//!
//! ```sh
//! cargo run --release -p sqlshare-core --example querylog -- <data-dir>
//! ```
//!
//! `querylog.log` holds checksummed frames; `read_tail` validates them
//! and never repairs or truncates the file, so this is safe against a
//! live primary (a record still being written is not printed yet).

use std::io::{Error, ErrorKind, Write};
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let dir = std::env::args_os().nth(1).map(PathBuf::from);
    let Some(path) = dir.map(|d| d.join("querylog.log")).filter(|p| p.exists()) else {
        return Err(Error::new(
            ErrorKind::NotFound,
            "usage: querylog <data-dir with querylog.log>",
        ));
    };
    let mut out = std::io::stdout().lock();
    for record in sqlshare_core::read_tail(&path, 0)?.records {
        out.write_all(&record)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}
