//! Deployment configuration: the one place `SQLSHARE_*` variables are
//! read.
//!
//! The rule: **binaries parse, libraries take values, tests construct.**
//! A binary calls [`Config::from_env`] once, prints what it got, and
//! builds its service and server from the value. No library constructor
//! looks at the process environment — `Engine::new()`, `SqlShare::new()`
//! and `HttpConfig::default()` are the same in every process — and a
//! test that wants a setting calls the setter.
//!
//! [`VARS`] is the whole supported surface. A malformed value, or a
//! `SQLSHARE_*` name the table does not list, is refused with a
//! [`ConfigError`] naming the variable: a typo must not silently run
//! the defaults.

use crate::HttpConfig;
use sqlshare_core::{
    AckMode, DurableOptions, Engine, FsyncPolicy, SqlShare, DEFAULT_HOT_VIEW_THRESHOLD,
    DEFAULT_RESULT_CACHE_MB,
};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

const MIB: usize = 1024 * 1024;

/// A deployment's configuration, parsed. `Default` is what an empty
/// environment gives: the libraries' own defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    pub data_dir: Option<PathBuf>,
    pub fsync: FsyncPolicy,
    pub snapshot_every: u64,
    pub max_dop: Option<usize>,
    pub result_cache_mb: usize,
    pub query_mem_mb: Option<usize>,
    pub total_mem_mb: Option<usize>,
    /// What [`crate::Server::start`] takes, replication and scrubber
    /// settings included.
    pub http: HttpConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            data_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every: DurableOptions::DEFAULT_SNAPSHOT_EVERY,
            max_dop: None,
            result_cache_mb: DEFAULT_RESULT_CACHE_MB,
            query_mem_mb: None,
            total_mem_mb: None,
            http: HttpConfig::default(),
        }
    }
}

/// One supported environment variable.
pub struct Var {
    pub name: &'static str,
    /// What a value looks like; quoted back when one does not.
    pub kind: &'static str,
    /// The value in force when the variable is unset or empty.
    pub default: &'static str,
    pub doc: &'static str,
    /// Store a non-empty value; `None` when it is not a `kind`.
    set: fn(&mut Config, &str) -> Option<()>,
}

const COUNT: &str = "a whole number";
const POSITIVE: &str = "a whole number, 1 or more";
const MIB_SIZE: &str = "a size in MiB";

fn positive<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n >= T::from(1))
}

/// MiB that are still a `usize` as bytes.
fn mib(v: &str) -> Option<usize> {
    v.parse().ok().filter(|mb: &usize| mb.checked_mul(MIB).is_some())
}

fn millis(v: &str) -> Option<Duration> {
    positive(v).map(Duration::from_millis)
}

fn ack_mode(v: &str) -> Option<AckMode> {
    match v {
        "async" => Some(AckMode::Async),
        "quorum" => Some(AckMode::Quorum),
        _ => None,
    }
}

fn put<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

/// Every `SQLSHARE_*` variable a server reads. The README's table is
/// checked against this one.
#[rustfmt::skip]
pub const VARS: &[Var] = &[
    Var {
        name: "SQLSHARE_DATA_DIR", kind: "a directory path", default: "(unset)",
        doc: "Run durably: WAL, snapshots and query log live here and are recovered on start. Unset: ephemeral.",
        set: |c, v| put(&mut c.data_dir, Some(Some(v.into()))),
    },
    Var {
        name: "SQLSHARE_FSYNC", kind: "`always`, `batch` or `off`", default: "batch",
        doc: "When journal appends are forced to stable storage.",
        set: |c, v| put(&mut c.fsync, FsyncPolicy::parse(v)),
    },
    Var {
        name: "SQLSHARE_SNAPSHOT_EVERY", kind: POSITIVE, default: "64",
        doc: "Journaled mutations between catalog snapshots.",
        set: |c, v| put(&mut c.snapshot_every, positive(v)),
    },
    Var {
        name: "SQLSHARE_MAX_DOP", kind: POSITIVE, default: "(CPUs)",
        doc: "Per-query parallelism cap and worker threads per parallel region; 1 disables the parallel executor.",
        set: |c, v| put(&mut c.max_dop, positive(v).map(Some)),
    },
    Var {
        name: "SQLSHARE_RESULT_CACHE_MB", kind: MIB_SIZE, default: "64",
        doc: "Result-cache budget; 0 disables the result cache and hot views.",
        set: |c, v| put(&mut c.result_cache_mb, mib(v)),
    },
    Var {
        name: "SQLSHARE_QUERY_MEM_MB", kind: MIB_SIZE, default: "(unset)",
        doc: "Per-query memory budget; over it, joins and sorts spill to the data directory (else the temp directory). Unset: unlimited.",
        set: |c, v| put(&mut c.query_mem_mb, mib(v).map(Some)),
    },
    Var {
        name: "SQLSHARE_TOTAL_MEM_MB", kind: MIB_SIZE, default: "(unset)",
        doc: "Memory pool shared by all running queries. Unset: unlimited.",
        set: |c, v| put(&mut c.total_mem_mb, mib(v).map(Some)),
    },
    Var {
        name: "SQLSHARE_HTTP_THREADS", kind: POSITIVE, default: "(CPUs, 2 to 4)",
        doc: "Event-loop threads (at most 64).",
        set: |c, v| put(&mut c.http.threads, positive(v).map(|n: usize| n.min(64))),
    },
    Var {
        name: "SQLSHARE_HTTP_WORKERS", kind: POSITIVE, default: "(CPUs, at least 4)",
        doc: "Dispatch worker threads (at most 256).",
        set: |c, v| put(&mut c.http.workers, positive(v).map(|n: usize| n.min(256))),
    },
    Var {
        name: "SQLSHARE_MAX_CONNS", kind: POSITIVE, default: "1024",
        doc: "Concurrent connections; further accepts get 503.",
        set: |c, v| put(&mut c.http.max_conns, positive(v)),
    },
    Var {
        name: "SQLSHARE_MAX_INFLIGHT", kind: POSITIVE, default: "256",
        doc: "Requests queued or dispatching; further requests get 429.",
        set: |c, v| put(&mut c.http.max_inflight, positive(v)),
    },
    Var {
        name: "SQLSHARE_MAX_BODY_MB", kind: MIB_SIZE, default: "4",
        doc: "Request body cap; larger uploads get 413.",
        set: |c, v| put(&mut c.http.max_body, mib(v).map(|mb| mb.max(1) * MIB)),
    },
    Var {
        name: "SQLSHARE_REPL_PRIMARY", kind: "a host:port address", default: "(unset)",
        doc: "Follow this primary as a read-only standby. Unset: this node is a primary.",
        set: |c, v| put(&mut c.http.repl.primary, Some(Some(v.into()))),
    },
    Var {
        name: "SQLSHARE_REPL_ACK", kind: "`async` or `quorum`", default: "async",
        doc: "Acknowledge a mutation once journaled locally, or only after standbys confirm it.",
        set: |c, v| put(&mut c.http.repl.ack, ack_mode(v)),
    },
    Var {
        name: "SQLSHARE_REPL_QUORUM", kind: POSITIVE, default: "1",
        doc: "Standby confirmations a quorum acknowledgement needs.",
        set: |c, v| put(&mut c.http.repl.quorum, positive(v)),
    },
    Var {
        name: "SQLSHARE_REPL_ACK_TIMEOUT_MS", kind: POSITIVE, default: "2000",
        doc: "How long a quorum commit waits before answering with a timeout.",
        set: |c, v| put(&mut c.http.repl.ack_timeout, millis(v)),
    },
    Var {
        name: "SQLSHARE_REPL_HEARTBEAT_MS", kind: POSITIVE, default: "500",
        doc: "Standby poll interval; each poll renews the primary's lease.",
        set: |c, v| put(&mut c.http.repl.heartbeat, millis(v)),
    },
    Var {
        name: "SQLSHARE_REPL_LEASE_MISSES", kind: POSITIVE, default: "3",
        doc: "Failed polls after which a standby promotes itself.",
        set: |c, v| put(&mut c.http.repl.lease_misses, positive(v)),
    },
    Var {
        name: "SQLSHARE_SCRUB_EVERY_MS", kind: COUNT, default: "1000",
        doc: "Interval between integrity-scrubber ticks; 0 disables the scrubber.",
        set: |c, v| put(&mut c.http.scrub.every_ms, v.parse().ok()),
    },
    Var {
        name: "SQLSHARE_SCRUB_IO_BUDGET", kind: POSITIVE, default: "256",
        doc: "8 KiB reads the scrubber may issue per tick.",
        set: |c, v| put(&mut c.http.scrub.io_budget, positive(v)),
    },
];

/// Why the environment was refused: which variable, and what is wrong
/// with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub name: String,
    pub problem: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.problem)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse a configuration out of `lookup` (name → value). Unset and
    /// empty mean the default; anything else must parse.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        for var in VARS {
            let value = lookup(var.name).unwrap_or_default();
            let value = value.trim();
            if !value.is_empty() && (var.set)(&mut config, value).is_none() {
                return Err(ConfigError {
                    name: var.name.into(),
                    problem: format!("{value:?} is not {}", var.kind),
                });
            }
        }
        Ok(config)
    }

    /// Refuse a `SQLSHARE_*` name that [`VARS`] does not list: misspelt,
    /// or no longer supported.
    pub fn check_name(name: &str) -> Result<(), ConfigError> {
        if name.starts_with("SQLSHARE_") && !VARS.iter().any(|v| v.name == name) {
            return Err(ConfigError {
                name: name.into(),
                problem: "not a variable this server reads (the README lists them)".into(),
            });
        }
        Ok(())
    }

    /// The process environment, checked for unknown names and parsed.
    /// Only a binary's `main` calls this. A value that is not UTF-8
    /// reads with U+FFFD in it, which only a path or an address accepts.
    pub fn from_env() -> Result<Config, ConfigError> {
        for (name, _) in std::env::vars_os() {
            Self::check_name(&name.to_string_lossy())?;
        }
        Self::from_lookup(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Build the service this configuration describes: the engine first,
    /// so a durable service recovers under its settings. Over-budget
    /// joins and sorts spill to the data directory, or without one to
    /// the temp directory.
    pub fn open_service(&self) -> sqlshare_common::Result<SqlShare> {
        let mut engine = Engine::new();
        if let Some(dop) = self.max_dop {
            engine.set_max_dop(dop);
        }
        engine.set_cache_config(self.result_cache_mb, DEFAULT_HOT_VIEW_THRESHOLD);
        if let Some(mb) = self.query_mem_mb {
            engine.set_query_mem_limit(mb * MIB);
        }
        if let Some(mb) = self.total_mem_mb {
            engine.set_total_mem_limit(mb * MIB);
        }
        engine.set_spill_dir(Some(self.data_dir.clone().unwrap_or_else(std::env::temp_dir)));
        let service = SqlShare::with_engine(engine);
        match &self.data_dir {
            Some(dir) => service.recover(
                DurableOptions::new(dir)
                    .fsync(self.fsync)
                    .snapshot_every(self.snapshot_every),
            ),
            None => Ok(service),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        Config::from_lookup(|name| map.get(name).map(|v| v.to_string()))
    }

    #[test]
    fn an_empty_environment_is_the_library_defaults() {
        let c = parse(&[]).unwrap();
        assert_eq!(c, Config::default());
        let options = DurableOptions::new("x");
        assert_eq!((c.fsync, c.snapshot_every), (options.fsync, options.snapshot_every));
        let engine = Engine::new();
        assert_eq!(c.open_service().unwrap().engine().max_dop(), engine.max_dop());
        assert_eq!(c.result_cache_mb * MIB, engine.cache().result_budget());
        // Setting nothing and setting every variable to blanks are the same.
        let blanks: Vec<(&str, &str)> = VARS.iter().map(|v| (v.name, " ")).collect();
        assert_eq!(parse(&blanks).unwrap(), c);
    }

    #[test]
    fn every_variable_reads_its_default_and_another_value() {
        // In table order: a value that is not the default, and the one
        // field it moves.
        type Moves = fn(&mut Config);
        #[rustfmt::skip]
        let others: [(&str, Moves); 20] = [
            ("/var/lib/sqlshare", |c| c.data_dir = Some("/var/lib/sqlshare".into())),
            ("always", |c| c.fsync = FsyncPolicy::Always),
            ("7", |c| c.snapshot_every = 7),
            ("2", |c| c.max_dop = Some(2)),
            ("0", |c| c.result_cache_mb = 0),
            ("16", |c| c.query_mem_mb = Some(16)),
            ("512", |c| c.total_mem_mb = Some(512)),
            ("7", |c| c.http.threads = 7),
            ("9", |c| c.http.workers = 9),
            ("7", |c| c.http.max_conns = 7),
            ("3", |c| c.http.max_inflight = 3),
            ("2", |c| c.http.max_body = 2 * MIB),
            ("127.0.0.1:7981", |c| c.http.repl.primary = Some("127.0.0.1:7981".into())),
            ("quorum", |c| c.http.repl.ack = AckMode::Quorum),
            ("2", |c| c.http.repl.quorum = 2),
            ("150", |c| c.http.repl.ack_timeout = Duration::from_millis(150)),
            ("100", |c| c.http.repl.heartbeat = Duration::from_millis(100)),
            ("5", |c| c.http.repl.lease_misses = 5),
            ("0", |c| c.http.scrub.every_ms = 0),
            ("100000", |c| c.http.scrub.io_budget = 100_000),
        ];
        let defaults = Config::default();
        for (var, (other, moved)) in VARS.iter().zip(others) {
            let name = var.name;
            // The table's default is the default: spelling it out changes
            // nothing.
            if !var.default.starts_with('(') {
                assert_eq!(parse(&[(name, var.default)]).unwrap(), defaults, "{name}");
            }
            let mut want = defaults.clone();
            moved(&mut want);
            assert_ne!(want, defaults, "{name}");
            assert_eq!(parse(&[(name, other)]).unwrap(), want, "{name}={other}");
        }
    }

    #[test]
    fn malformed_values_and_unknown_names_are_refused_by_name() {
        for (name, value) in [
            ("SQLSHARE_FSYNC", "alwys"),
            ("SQLSHARE_MAX_DOP", "four"),
            ("SQLSHARE_MAX_DOP", "0"),
            ("SQLSHARE_REPL_ACK", "quorom"),
            ("SQLSHARE_QUERY_MEM_MB", "-1"),
            ("SQLSHARE_TOTAL_MEM_MB", "99999999999999999999999"),
            ("SQLSHARE_RESULT_CACHE_MB", "18446744073709551615"),
            ("SQLSHARE_MAX_BODY_MB", "1e3"),
            ("SQLSHARE_REPL_HEARTBEAT_MS", "0"),
            ("SQLSHARE_SCRUB_EVERY_MS", "1s"),
            ("SQLSHARE_HTTP_THREADS", "\u{fffd}"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err();
            assert_eq!(err.name, name);
            assert!(err.problem.contains(value), "{err}");
            assert!(err.to_string().starts_with(name), "{err}");
        }
        // A misspelling, and names that were variables once: unknown
        // now, not ignored.
        for name in ["SQLSHARE_MAXDOP", "SQLSHARE_VECTORIZED", "SQLSHARE_FAULTS"] {
            assert_eq!(Config::check_name(name).unwrap_err().name, name);
        }
        for name in VARS.iter().map(|v| v.name).chain(["PATH", "SQLSHAREX"]) {
            assert_eq!(Config::check_name(name), Ok(()));
        }
    }

    #[test]
    fn limits_on_thread_counts_and_the_body_cap_are_kept() {
        let c = parse(&[
            ("SQLSHARE_HTTP_THREADS", "1000"),
            ("SQLSHARE_HTTP_WORKERS", "1000"),
            ("SQLSHARE_MAX_BODY_MB", "0"),
        ])
        .unwrap();
        assert_eq!((c.http.threads, c.http.workers, c.http.max_body), (64, 256, MIB));
    }

    #[test]
    fn the_service_is_built_as_configured_and_spills_where_its_data_lives() {
        let dir = std::env::temp_dir().join(format!("sqlshare-config-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = parse(&[
            ("SQLSHARE_DATA_DIR", dir.to_str().unwrap()),
            ("SQLSHARE_FSYNC", "off"),
            ("SQLSHARE_MAX_DOP", "2"),
            ("SQLSHARE_RESULT_CACHE_MB", "0"),
            ("SQLSHARE_TOTAL_MEM_MB", "8"),
        ])
        .unwrap();
        let mut service = c.open_service().unwrap();
        let engine = service.engine();
        assert_eq!(engine.max_dop(), 2);
        assert!(!engine.cache().results_enabled());
        assert_eq!(engine.memory_pool().limit(), 8 * MIB);
        assert_eq!(engine.spill_dir(), Some(dir.as_path()));
        service.register_user("ada", "ada@uw.edu").unwrap();
        service.upload("ada", "t", "a,b\n1,2\n", &Default::default()).unwrap();
        drop(service);

        let service = c.open_service().unwrap();
        assert_eq!(service.recovery_report().unwrap().replayed_records, 2);
        assert_eq!(service.engine().spill_dir(), Some(dir.as_path()));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);

        // Without a data directory, the temp directory.
        let ephemeral = parse(&[]).unwrap().open_service().unwrap();
        assert_eq!(ephemeral.engine().spill_dir(), Some(std::env::temp_dir().as_path()));
    }
}
