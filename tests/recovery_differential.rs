//! Kill-and-recover chaos differential for durable storage.
//!
//! The durability promise (DESIGN.md): every *acknowledged* mutation
//! survives a crash, recovery replays the WAL tail over the latest
//! snapshot, a torn final record is truncated, and replay is idempotent
//! by LSN. This suite checks the promise end to end against a
//! never-crashed oracle:
//!
//! - a randomized mutation workload built from **both** wlgen corpora
//!   (SQLShare behavioural + SDSS template) is applied op-for-op to a
//!   durable service and an ephemeral oracle; outcomes and the durable
//!   state digest must match;
//! - simulated crashes are armed at random WAL positions, torn and
//!   clean alternating. After each reopen the recovered digest must be
//!   byte-identical to the oracle's (a torn record was never
//!   acknowledged, so the op is retried; a clean crash journaled the
//!   record, so recovery must replay it);
//! - replaying the same WAL twice (self-concatenated log) is a no-op;
//! - a WAL truncated at *every byte boundary* recovers exactly the
//!   longest valid record prefix;
//! - an injected journal fault rejects the mutation with no trace, and
//!   the service keeps working once the fault clears.
//!
//! The workload seed comes from `SQLSHARE_RECOVERY_SEED` (the CI
//! recovery leg pins one) or a fixed in-code default.

#[path = "support/fsync.rs"]
mod fsync;

use sqlshare_core::{
    CrashPoint, DatasetName, DurableOptions, Metadata, SnapshotStep, SqlShare, Visibility,
};
use sqlshare_engine::{FaultPlan, FaultSite, Table};
use sqlshare_ingest::IngestOptions;
use sqlshare_sql::rewrite::AppendMode;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Deterministic RNG (splitmix64) — no external dependency, stable
// across platforms, reproducible from the seed alone.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

fn workload_seed() -> u64 {
    std::env::var("SQLSHARE_RECOVERY_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x5EED_0FD1)
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-recovery-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_options(dir: &std::path::Path, snapshot_every: u64) -> DurableOptions {
    // The CI legs set `SQLSHARE_FSYNC`: `off` for the crash loop,
    // `always` for a smoke.
    DurableOptions::new(dir)
        .fsync(fsync::policy())
        .snapshot_every(snapshot_every)
}

// ---------------------------------------------------------------------
// The mutation script: one op per service call, applied identically to
// the durable subject and the ephemeral oracle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    RegisterUser { user: String, email: String },
    RegisterUdf { name: String },
    AdvanceDays { days: i32 },
    Upload { user: String, dataset: String, csv: String },
    SaveView { user: String, dataset: String, sql: String },
    Append { user: String, existing: DatasetName, new: DatasetName },
    Materialize { user: String, source: DatasetName, name: String },
    Delete { user: String, name: DatasetName },
    SetVisibility { user: String, name: DatasetName, vis: Visibility },
    SetMetadata { user: String, name: DatasetName, desc: String },
    MintDoi { user: String, name: DatasetName },
    Query { user: String, sql: String },
}

/// Apply one op, reducing the outcome to an error-kind string so the
/// subject and oracle can be compared without comparing timings.
fn apply(s: &mut SqlShare, op: &Op) -> Result<(), String> {
    let kind = |e: sqlshare_common::Error| e.kind().to_string();
    match op {
        Op::RegisterUser { user, email } => s.register_user(user, email).map_err(kind),
        Op::RegisterUdf { name } => {
            s.register_udf(name);
            Ok(())
        }
        Op::AdvanceDays { days } => {
            s.advance_days(*days);
            Ok(())
        }
        Op::Upload { user, dataset, csv } => s
            .upload(user, dataset, csv, &IngestOptions::default())
            .map(|_| ())
            .map_err(kind),
        Op::SaveView { user, dataset, sql } => s
            .save_dataset(user, dataset, sql, Metadata::default())
            .map(|_| ())
            .map_err(kind),
        Op::Append { user, existing, new } => {
            s.append(user, existing, new, AppendMode::UnionAll).map_err(kind)
        }
        Op::Materialize { user, source, name } => {
            s.materialize(user, source, name).map(|_| ()).map_err(kind)
        }
        Op::Delete { user, name } => s.delete_dataset(user, name).map_err(kind),
        Op::SetVisibility { user, name, vis } => {
            s.set_visibility(user, name, vis.clone()).map_err(kind)
        }
        Op::SetMetadata { user, name, desc } => s
            .set_metadata(
                user,
                name,
                Metadata {
                    description: desc.clone(),
                    tags: vec!["chaos".into()],
                },
            )
            .map_err(kind),
        Op::MintDoi { user, name } => s.mint_doi(user, name).map(|_| ()).map_err(kind),
        Op::Query { user, sql } => s.run_query(user, sql).map(|_| ()).map_err(kind),
    }
}

/// Rebuild a base table as CSV for re-upload. `None` for tables whose
/// cells would need quoting — the differential only needs *a* realistic
/// corpus slice, not every table.
fn table_to_csv(t: &Table) -> Option<String> {
    const MAX_ROWS: usize = 120;
    if t.schema.is_empty() || t.row_count() == 0 {
        return None;
    }
    let unquotable = |s: &str| s.contains([',', '"', '\n', '\r']);
    let mut out = String::new();
    for (i, c) in t.schema.columns.iter().enumerate() {
        if c.name.is_empty() || unquotable(&c.name) {
            return None;
        }
        if i > 0 {
            out.push(',');
        }
        out.push_str(&c.name);
    }
    out.push('\n');
    for row in t.batch().to_rows().iter().take(MAX_ROWS) {
        for (i, v) in row.iter().enumerate() {
            let text = v.to_text();
            if unquotable(&text) {
                return None;
            }
            if i > 0 {
                out.push(',');
            }
            out.push_str(&text);
        }
        out.push('\n');
    }
    Some(out)
}

/// Extract a replayable mutation script from one generated corpus:
/// its users, a slice of its uploads (rebuilt as CSV), derived views in
/// creation order, logged queries biased toward ones whose inputs made
/// the slice, plus randomized extra mutations targeting what exists.
fn corpus_ops(corpus: &wl::GeneratedCorpus, rng: &mut Rng, tag: &str, ops: &mut Vec<Op>) {
    const MAX_UPLOADS: usize = 9;
    const MAX_VIEWS: usize = 9;
    const MAX_QUERIES: usize = 8;

    let mut udfs: Vec<String> = corpus
        .service
        .engine()
        .catalog()
        .udfs()
        .map(str::to_string)
        .collect();
    udfs.sort();
    for name in udfs {
        ops.push(Op::RegisterUdf { name });
    }

    // Datasets in creation order, so dependencies come first.
    let mut datasets: Vec<_> = corpus.service.datasets().collect();
    datasets.sort_by_key(|d| (d.created.day, d.created.sequence, d.name.key()));

    let mut creations: Vec<(Op, DatasetName)> = Vec::new();
    let mut uploads = 0;
    let mut views = 0;
    for ds in &datasets {
        if let Some(base_key) = &ds.base_table {
            if uploads >= MAX_UPLOADS {
                continue;
            }
            let Ok(table) = corpus.service.engine().catalog().table(base_key) else {
                continue;
            };
            let Some(csv) = table_to_csv(table) else {
                continue;
            };
            uploads += 1;
            creations.push((
                Op::Upload {
                    user: ds.name.owner.clone(),
                    dataset: ds.name.name.clone(),
                    csv,
                },
                ds.name.clone(),
            ));
        } else {
            if views >= MAX_VIEWS {
                continue;
            }
            views += 1;
            creations.push((
                Op::SaveView {
                    user: ds.name.owner.clone(),
                    dataset: ds.name.name.clone(),
                    sql: ds.sql.clone(),
                },
                ds.name.clone(),
            ));
        }
    }

    // Register every owner (original email) before anything references
    // them.
    let mut seen_users = HashSet::new();
    for (_, name) in &creations {
        if seen_users.insert(name.owner.to_lowercase()) {
            let email = corpus
                .service
                .user(&name.owner)
                .map(|u| u.email.clone())
                .unwrap_or_else(|| format!("{}@example.org", name.owner));
            ops.push(Op::RegisterUser {
                user: name.owner.clone(),
                email,
            });
        }
    }

    // Logged queries whose inputs all made the slice, topped up with
    // uncovered ones (those fail — identically on both services, which
    // is itself part of the differential).
    let planned: HashSet<String> = creations.iter().map(|(_, n)| n.key()).collect();
    let mut queries = Vec::new();
    let mut uncovered = Vec::new();
    {
        let log = corpus.service.log();
        for e in log.entries() {
            if e.sql.len() > 400 || !seen_users.contains(&e.user.to_lowercase()) {
                continue;
            }
            let covered =
                !e.datasets.is_empty() && e.datasets.iter().all(|k| planned.contains(k));
            let bucket = if covered { &mut queries } else { &mut uncovered };
            if bucket.len() < MAX_QUERIES {
                bucket.push(Op::Query {
                    user: e.user.clone(),
                    sql: e.sql.clone(),
                });
            }
        }
    }
    queries.extend(uncovered);
    queries.truncate(MAX_QUERIES);
    let mut queries = queries.into_iter();

    // Interleave: each creation is published (visibility) so later views
    // and foreign queries resolve, with randomized extra mutations and
    // queries sprinkled between.
    let users: Vec<String> = seen_users.iter().cloned().collect();
    let mut live: Vec<DatasetName> = Vec::new();
    let mut snaps: Vec<DatasetName> = Vec::new();
    let mut counter = 0usize;
    for (op, name) in creations {
        let user = name.owner.clone();
        ops.push(op);
        ops.push(Op::SetVisibility {
            user: user.clone(),
            name: name.clone(),
            vis: Visibility::Public,
        });
        live.push(name);

        if rng.below(3) == 0 {
            if let Some(q) = queries.next() {
                ops.push(q);
            }
        }
        if rng.below(5) < 2 {
            counter += 1;
            let target = live[rng.below(live.len())].clone();
            let owner = target.owner.clone();
            match rng.below(8) {
                0 => ops.push(Op::AdvanceDays {
                    days: 1 + rng.below(15) as i32,
                }),
                1 => ops.push(Op::SetMetadata {
                    user: owner,
                    name: target,
                    desc: format!("chaos edit {counter}"),
                }),
                2 => {
                    let vis = if rng.flag() {
                        Visibility::Public
                    } else {
                        Visibility::Shared(vec![users[rng.below(users.len())].clone()])
                    };
                    ops.push(Op::SetVisibility {
                        user: owner,
                        name: target,
                        vis,
                    });
                }
                3 => {
                    let snap = DatasetName::new(&owner, format!("{tag}_snap_{counter}"));
                    ops.push(Op::Materialize {
                        user: owner,
                        source: target,
                        name: snap.name.clone(),
                    });
                    snaps.push(snap.clone());
                    live.push(snap);
                }
                4 => {
                    let other = live[rng.below(live.len())].clone();
                    if other.owner.eq_ignore_ascii_case(&owner) {
                        ops.push(Op::Append {
                            user: owner,
                            existing: target,
                            new: other,
                        });
                    }
                }
                5 => ops.push(Op::MintDoi {
                    user: owner,
                    name: target,
                }),
                6 => {
                    if !snaps.is_empty() {
                        let victim = snaps.swap_remove(rng.below(snaps.len()));
                        live.retain(|n| n != &victim);
                        ops.push(Op::Delete {
                            user: victim.owner.clone(),
                            name: victim,
                        });
                    }
                }
                _ => ops.push(Op::RegisterUser {
                    user: format!("{tag}_chaos{counter}"),
                    email: format!("{tag}{counter}@chaos.test"),
                }),
            }
        }
    }
    ops.extend(queries);
}

/// The shared script, built once per process from both corpora.
fn script() -> &'static [Op] {
    static SCRIPT: OnceLock<Vec<Op>> = OnceLock::new();
    SCRIPT.get_or_init(|| {
        let mut rng = Rng(workload_seed());
        let config = GeneratorConfig::dev();
        let mut ops = Vec::new();
        corpus_ops(&wl::generate(&config), &mut rng, "sq", &mut ops);
        corpus_ops(&sdss::generate(&config), &mut rng, "sd", &mut ops);
        ops
    })
}

/// Pin both services to serial plans: parallel aggregate merge order can
/// legally perturb float bits, and `materialize` journals result rows.
fn pin_serial(s: &mut SqlShare) {
    s.set_parallelism(1, f64::MAX);
}

// ---------------------------------------------------------------------
// 1. No crashes: a durable service is observationally identical to an
//    ephemeral one, and its state survives reopen byte-for-byte.
// ---------------------------------------------------------------------

#[test]
fn durable_service_matches_ephemeral_oracle_and_survives_reopen() {
    let dir = temp_dir("clean");
    let options = durable_options(&dir, 25);
    let mut subject = SqlShare::open(options.clone()).expect("open fresh dir");
    let mut oracle = SqlShare::new();
    pin_serial(&mut subject);
    pin_serial(&mut oracle);

    for (i, op) in script().iter().enumerate() {
        let want = apply(&mut oracle, op);
        let got = apply(&mut subject, op);
        assert_eq!(got, want, "op {i} diverged: {op:?}");
        assert!(!subject.storage_crashed(), "no crash was armed");
    }
    assert_eq!(subject.durable_digest(), oracle.durable_digest());
    let live_log_len = subject.log().len();
    assert_eq!(live_log_len, oracle.log().len());
    drop(subject);

    // Reopen: recovery must reproduce the exact same durable state and
    // the persisted query log, and a second recovery (double replay of
    // whatever the WAL holds) must be a no-op.
    for round in 0..2 {
        let reopened = SqlShare::open(options.clone()).expect("recovery");
        let report = reopened.recovery_report().expect("durable service");
        assert_eq!(
            reopened.durable_digest(),
            oracle.durable_digest(),
            "round {round}: {report:?}"
        );
        assert_eq!(reopened.log().len(), live_log_len, "round {round}");
        assert_eq!(report.failed_records, 0, "round {round}: {report:?}");
        assert_eq!(report.truncated_wal_bytes, 0, "round {round}");
        assert!(!reopened.is_recovering());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. Kill and recover: repeated simulated crashes at random WAL
//    positions, torn and clean. After every recovery the durable state
//    digest must equal the never-crashed oracle's.
// ---------------------------------------------------------------------

#[test]
fn kill_and_recover_matches_never_crashed_oracle() {
    let dir = temp_dir("chaos");
    // Aggressive snapshot cadence so recoveries cross snapshot + WAL
    // reset + prune boundaries, not just WAL replay.
    let options = durable_options(&dir, 4);
    let mut subject = SqlShare::open(options.clone()).expect("open fresh dir");
    let mut oracle = SqlShare::new();
    pin_serial(&mut subject);
    pin_serial(&mut oracle);

    let mut rng = Rng(workload_seed() ^ 0xC4A5_4E57);
    let arm = |s: &mut SqlShare, rng: &mut Rng| -> bool {
        let torn = rng.flag();
        s.set_storage_crash_point(Some(CrashPoint {
            after_records: 3 + rng.below(6) as u64,
            torn_bytes: torn.then(|| 1 + rng.below(24)),
        }));
        torn
    };
    let mut torn_armed = arm(&mut subject, &mut rng);
    let (mut torn_crashes, mut clean_crashes, mut snapshot_recoveries) = (0u32, 0u32, 0u32);

    for (i, op) in script().iter().enumerate() {
        let want = apply(&mut oracle, op);
        let got = apply(&mut subject, op);
        if subject.storage_crashed() {
            // The op's journal append died mid-flight. Reopen the data
            // directory — recovery truncates a torn record (the op was
            // never acknowledged, so retry it) or replays a clean one
            // (journaled == happened; retrying would double-apply).
            drop(subject);
            subject = SqlShare::open(options.clone()).expect("recovery after crash");
            pin_serial(&mut subject);
            let report = subject.recovery_report().expect("durable service");
            if torn_armed {
                torn_crashes += 1;
                assert!(
                    report.truncated_wal_bytes > 0,
                    "op {i}: torn crash left no torn tail: {report:?}"
                );
                let retried = apply(&mut subject, op);
                assert_eq!(retried, want, "op {i} retry diverged: {op:?}");
            } else {
                clean_crashes += 1;
                assert_eq!(
                    report.truncated_wal_bytes, 0,
                    "op {i}: clean crash tore the log: {report:?}"
                );
            }
            if report.snapshot_lsn > 0 {
                snapshot_recoveries += 1;
            }
            assert_eq!(
                subject.durable_digest(),
                oracle.durable_digest(),
                "op {i}: recovered state diverged from oracle: {report:?}"
            );
            torn_armed = arm(&mut subject, &mut rng);
        } else {
            assert_eq!(got, want, "op {i} diverged: {op:?}");
        }
    }

    assert_eq!(subject.durable_digest(), oracle.durable_digest());
    assert!(torn_crashes >= 2, "workload too small: {torn_crashes} torn crashes");
    assert!(clean_crashes >= 2, "workload too small: {clean_crashes} clean crashes");
    assert!(
        snapshot_recoveries >= 1,
        "no recovery ever started from a snapshot"
    );

    // One final clean recovery: everything the crashed-and-recovered
    // lineage accumulated is reproducible from disk alone.
    let log_len = subject.log().len();
    assert_eq!(log_len, oracle.log().len());
    drop(subject);
    let reopened = SqlShare::open(options).expect("final recovery");
    assert_eq!(reopened.durable_digest(), oracle.durable_digest());
    assert_eq!(reopened.log().len(), log_len);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2b. A crash at each step of the snapshot write protocol: segment tmp
//     written, segment renamed, manifest renamed, WAL reset, prune part
//     done. The op whose commit was due the snapshot was acknowledged
//     before it, so recovery must hold it.
// ---------------------------------------------------------------------

/// Names and sizes of the files in `dir`.
fn listing(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    files.sort();
    files
}

fn count_prefixed(dir: &std::path::Path, prefix: &str) -> usize {
    listing(dir)
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .count()
}

#[test]
fn durable_service_matches_oracle_after_a_crash_at_each_snapshot_step() {
    use SnapshotStep::*;
    for step in [SegmentTmp, SegmentRename, ManifestRename, WalReset, Prune] {
        let dir = temp_dir("snapstep");
        let options = durable_options(&dir, 5);
        let mut subject = SqlShare::open(options.clone()).expect("open fresh dir");
        let mut oracle = SqlShare::new();
        pin_serial(&mut subject);
        pin_serial(&mut oracle);
        let mut ops = script().iter().enumerate();
        // Two snapshots first, so the crash lands with segments and a
        // manifest to prune behind it.
        let mut armed = false;
        for (i, op) in ops.by_ref() {
            let want = apply(&mut oracle, op);
            assert_eq!(
                apply(&mut subject, op),
                want,
                "{step:?}: op {i} diverged: {op:?}"
            );
            if subject.storage_crashed() {
                break;
            }
            if !armed && count_prefixed(&dir, "snapshot-") >= 2 {
                subject.set_snapshot_crash_step(Some(step));
                armed = true;
            }
        }
        assert!(
            armed && subject.storage_crashed(),
            "{step:?}: the crash never fired"
        );
        let tmp = listing(&dir).iter().any(|(n, _)| n.ends_with(".json.tmp"));
        assert_eq!(tmp, step == SegmentTmp, "{step:?}: {:?}", listing(&dir));
        let log_len = oracle.log().len();
        drop(subject);

        // Recovery holds every acknowledged op; a second reopen reads
        // the same files to the same state and changes none of them.
        let recovered = SqlShare::open(options.clone()).expect("recovery");
        let report = recovered.recovery_report().unwrap();
        assert_eq!(
            recovered.durable_digest(),
            oracle.durable_digest(),
            "{step:?}: {report:?}"
        );
        assert_eq!(recovered.log().len(), log_len, "{step:?}");
        assert_eq!(report.failed_records, 0, "{step:?}: {report:?}");
        drop(recovered);
        let files = listing(&dir);
        let again = SqlShare::open(options.clone()).expect("second recovery");
        assert_eq!(again.recovery_report(), Some(report), "{step:?}");
        assert_eq!(again.durable_digest(), oracle.durable_digest(), "{step:?}");
        assert_eq!(listing(&dir), files, "{step:?}: the second reopen wrote");

        // The recovered service snapshots on: a few more ops, through at
        // least one more snapshot, and a reopen still matches.
        let mut subject = again;
        pin_serial(&mut subject);
        for (i, op) in ops.by_ref().take(12) {
            let want = apply(&mut oracle, op);
            assert_eq!(
                apply(&mut subject, op),
                want,
                "{step:?}: op {i} diverged: {op:?}"
            );
        }
        subject.force_snapshot().unwrap();
        drop(subject);
        let reopened = SqlShare::open(options).expect("reopen after more snapshots");
        assert_eq!(
            reopened.durable_digest(),
            oracle.durable_digest(),
            "{step:?}"
        );
        assert!(
            !listing(&dir).iter().any(|(n, _)| n.ends_with(".tmp")),
            "{step:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// 3–5. Focused recovery invariants on a small hand-rolled state.
// ---------------------------------------------------------------------

type FixtureOp = Box<dyn Fn(&mut SqlShare)>;

/// Six mutations, one WAL record each, no snapshot (cadence 1000): the
/// fixture for the idempotence and byte-boundary tests.
fn small_ops() -> Vec<FixtureOp> {
    vec![
        Box::new(|s| s.register_user("ada", "ada@uw.edu").unwrap()),
        Box::new(|s| {
            s.upload("ada", "tides", "station,level\n1,2.5\n2,3.25\n", &IngestOptions::default())
                .map(|_| ())
                .unwrap()
        }),
        Box::new(|s| {
            s.upload("ada", "tides2", "station,level\n3,1.5\n", &IngestOptions::default())
                .map(|_| ())
                .unwrap()
        }),
        Box::new(|s| {
            s.save_dataset("ada", "means", "SELECT station FROM ada.tides", Metadata::default())
                .map(|_| ())
                .unwrap()
        }),
        Box::new(|s| {
            s.set_visibility("ada", &DatasetName::new("ada", "tides"), Visibility::Public)
                .unwrap()
        }),
        Box::new(|s| {
            s.set_metadata(
                "ada",
                &DatasetName::new("ada", "tides"),
                Metadata {
                    description: "sea levels".into(),
                    tags: vec!["ocean".into()],
                },
            )
            .unwrap()
        }),
    ]
}

#[test]
fn replaying_the_wal_twice_is_idempotent() {
    let dir = temp_dir("twice");
    let options = durable_options(&dir, 1000);
    let mut subject = SqlShare::open(options.clone()).expect("open");
    for op in small_ops() {
        op(&mut subject);
    }
    let digest = subject.durable_digest();
    drop(subject);

    // Self-concatenate the log: every record now appears twice, the
    // second copy at an LSN recovery has already applied.
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes);
    std::fs::write(&wal_path, &doubled).unwrap();

    let reopened = SqlShare::open(options).expect("recovery");
    let report = reopened.recovery_report().unwrap();
    assert_eq!(reopened.durable_digest(), digest, "{report:?}");
    assert_eq!(report.replayed_records, 6, "{report:?}");
    assert_eq!(report.skipped_records, 6, "{report:?}");
    assert_eq!(report.failed_records, 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_truncated_at_every_byte_recovers_the_longest_valid_prefix() {
    // Build the durable lineage once and capture the oracle's digest
    // after every mutation: truncating the WAL after k complete records
    // must recover exactly prefix-digest k.
    let dir = temp_dir("boundary-src");
    let mut subject = SqlShare::open(durable_options(&dir, 1000)).expect("open");
    let mut oracle = SqlShare::new();
    let mut prefix_digests = vec![oracle.durable_digest()];
    for op in small_ops() {
        op(&mut subject);
        op(&mut oracle);
        prefix_digests.push(oracle.durable_digest());
    }
    drop(subject);
    let full = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Record end offsets, from the frame headers (u32 length + u64
    // checksum + payload).
    let mut ends = Vec::new();
    let mut pos = 0usize;
    while full.len() - pos >= 12 {
        let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
        assert!(pos <= full.len(), "corrupt fixture wal");
        ends.push(pos);
    }
    assert_eq!(ends.len(), 6, "fixture must journal one record per op");

    let replay_dir = temp_dir("boundary");
    let options = durable_options(&replay_dir, 1000);
    let wal_path = replay_dir.join("wal.log");
    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered = SqlShare::open(options.clone()).expect("recovery");
        let report = recovered.recovery_report().unwrap();
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            recovered.durable_digest(),
            prefix_digests[complete],
            "cut at byte {cut} ({complete} complete records): {report:?}"
        );
        let prefix_bytes = ends[..complete].last().copied().unwrap_or(0);
        assert_eq!(report.replayed_records as usize, complete, "cut at {cut}");
        assert_eq!(report.truncated_wal_bytes as usize, cut - prefix_bytes, "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&replay_dir);
}

#[test]
fn journal_fault_rejects_the_mutation_without_a_trace() {
    let dir = temp_dir("fault");
    let options = durable_options(&dir, 1000);
    let mut subject = SqlShare::open(options.clone()).expect("open");
    subject.register_user("ada", "ada@uw.edu").unwrap();
    subject
        .upload("ada", "t", "a\n1\n", &IngestOptions::default())
        .unwrap();
    let digest = subject.durable_digest();

    // Every journal append now fails: the mutation must be rejected as a
    // typed error with both the in-memory and on-disk state untouched.
    subject.set_fault_plan(Some(FaultPlan::fail_at(FaultSite::WalAppend)));
    let err = subject.register_user("bob", "b@x.org").unwrap_err();
    assert_eq!(err.kind(), "execution", "{err}");
    assert!(subject.user("bob").is_none(), "rejected mutation applied anyway");
    assert_eq!(subject.durable_digest(), digest);

    // Clearing the fault restores service on the same handle...
    subject.set_fault_plan(None);
    subject.register_user("bob", "b@x.org").unwrap();
    let digest = subject.durable_digest();
    drop(subject);

    // ...and the failed append left nothing for recovery to trip over.
    let reopened = SqlShare::open(options).expect("recovery");
    let report = reopened.recovery_report().unwrap();
    assert_eq!(reopened.durable_digest(), digest, "{report:?}");
    assert_eq!(report.failed_records, 0, "{report:?}");
    assert!(reopened.user("bob").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
