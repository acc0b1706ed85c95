//! Kill-the-primary chaos differential for WAL replication.
//!
//! The replication promise (DESIGN.md §4.7): a standby applies the
//! primary's WAL records through the same LSN-idempotent path crash
//! recovery uses, a quorum-acked mutation survives primary loss, and a
//! promotion fences the deposed primary behind a bumped lease epoch.
//! This suite checks the promise against a never-killed oracle:
//!
//! - a randomized mutation workload built from both wlgen corpora runs
//!   on a primary/standby pair; the primary is killed at ≥ 50 random
//!   points, *including mid-ack* (some of a batch replicated, the rest
//!   journaled on the primary only);
//! - at every kill the promoted standby must hold exactly the acked
//!   prefix: its WAL records are byte-identical to the primary's, its
//!   state digest equals the digest recorded when that prefix was
//!   acked, and un-acked mutations are cleanly absent (or, on the dead
//!   primary's own disk, cleanly applied — never torn);
//! - the un-acked tail is retried on the survivor; after the retries
//!   the survivor must be byte-identical to the oracle again;
//! - a deposed primary is fenced: the promoted node refuses its
//!   old-epoch records and the deposed node, once demoted, rejects
//!   writes with the typed `read-only` error;
//! - over HTTP the same story holds end to end: quorum-acked uploads,
//!   lease-lapse self-promotion, client failover, zero acked-write
//!   loss.
//!
//! The seed comes from `SQLSHARE_REPL_SEED` (the CI failover leg pins
//! one) or a fixed in-code default.

#[path = "support/fsync.rs"]
mod fsync;
#[allow(dead_code)]
#[path = "support/http.rs"]
mod http;

use sqlshare_common::json::{self, Json};
use sqlshare_core::{
    read_tail, AckMode, DatasetName, DurableOptions, Metadata, ReplApply,
    SqlShare, Visibility,
};
use sqlshare_ingest::IngestOptions;
use sqlshare_sql::rewrite::AppendMode;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Deterministic RNG (splitmix64), seed, temp dirs — the recovery
// suite's idiom.
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
    std::env::var("SQLSHARE_REPL_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x0FA1_70E4)
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-failover-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_options(dir: &std::path::Path, snapshot_every: u64) -> DurableOptions {
    // The CI leg runs the kill loop with `SQLSHARE_FSYNC=off`.
    DurableOptions::new(dir)
        .fsync(fsync::policy())
        .snapshot_every(snapshot_every)
}

// ---------------------------------------------------------------------
// The mutation script — identical machinery to the recovery suite, so
// replication is exercised by the same realistic corpus-derived ops.
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

fn table_to_csv(t: &sqlshare_engine::Table) -> Option<String> {
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

/// Serial plans on every node: parallel aggregate merge order can
/// legally perturb float bits, and replication compares digests.
fn pin_serial(s: &mut SqlShare) {
    s.set_parallelism(1, f64::MAX);
}

// ---------------------------------------------------------------------
// Replication plumbing for the in-process pair: stream the primary's
// WAL file through `read_tail` (the server's serving path) and apply
// each record's payload through `apply_replicated` (the recovery path).
// ---------------------------------------------------------------------

/// Feed WAL records from `wal` (starting at byte `from`) into `standby`
/// until it holds `max_lsn`: the history is linear, so each new record
/// is the standby's next LSN. Returns the new byte offset and the raw
/// record payloads that were fed.
fn replicate_upto(
    wal: &std::path::Path,
    from: u64,
    standby: &mut SqlShare,
    max_lsn: u64,
) -> (u64, Vec<Vec<u8>>) {
    let tail = read_tail(wal, from).expect("read primary wal tail");
    assert!(!tail.reset, "primary WAL shrank unexpectedly");
    let mut offset = from;
    let mut fed = Vec::new();
    for payload in tail.records {
        if standby.last_lsn() >= max_lsn {
            break;
        }
        let (_, outcome) = standby
            .apply_replicated(&payload)
            .expect("standby refused a current-epoch record");
        assert_ne!(
            outcome,
            ReplApply::Diverged,
            "standby flagged divergence on a linear history"
        );
        offset += 12 + payload.len() as u64;
        fed.push(payload);
    }
    (offset, fed)
}

/// Replay the primary's query-log file (the records in bytes `0..to`)
/// into the standby through `read_tail`, as the server serves it —
/// `apply_replicated_query_entry` is idempotent by entry id, so
/// replaying from 0 every time is safe. The log must replicate too: it
/// is durable acknowledged state (the paper's research corpus), and
/// query executions tick the simulated clock, so a promoted standby
/// that missed them would stamp different timestamps than the primary
/// lineage.
fn replicate_log_upto(path: &std::path::Path, to: u64, standby: &mut SqlShare) {
    let tail = read_tail(path, 0).expect("read primary query log");
    for (record, end) in tail.records.iter().zip(&tail.ends) {
        if *end > to {
            break;
        }
        standby
            .apply_replicated_query_entry(record)
            .expect("standby refused a query-log entry");
    }
}

/// A `/api/repl/*` 200 body read as the frames it is: the first frame's
/// JSON and the payloads of the frames after it, which must tile it.
fn body_frames(body: &[u8]) -> (Json, Vec<&[u8]>) {
    let frames: Vec<(&[u8], usize)> = sqlshare_storage::frames(body).collect();
    assert_eq!(
        frames.last().map_or(0, |f| f.1),
        body.len(),
        "the body is not whole frames"
    );
    let first = json::parse(std::str::from_utf8(frames[0].0).unwrap()).unwrap();
    (first, frames[1..].iter().map(|f| f.0).collect())
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The byte-identity audit: the standby's own WAL from `from` onward
/// must hold exactly the payloads the primary shipped, byte for byte —
/// re-journaling through `journal_replicated` is canonical.
fn assert_byte_identical(standby_wal: &std::path::Path, from: u64, shipped: &[Vec<u8>]) -> u64 {
    let tail = read_tail(standby_wal, from).expect("read standby wal tail");
    assert!(!tail.reset);
    assert_eq!(
        tail.records.len(),
        shipped.len(),
        "standby journaled a different record count than was shipped"
    );
    for (i, (got, want)) in tail.records.iter().zip(shipped).enumerate() {
        assert_eq!(
            got, want,
            "shipped record {i} is not byte-identical on the standby"
        );
    }
    tail.end_offset
}

// ---------------------------------------------------------------------
// 1. The tentpole: ≥ 50 randomized kill-primary points, mid-ack
//    included, with zero acknowledged-write loss and clean fencing.
// ---------------------------------------------------------------------

#[test]
fn kill_primary_at_fifty_random_points_loses_no_acked_mutation() {
    const ROUNDS: usize = 50;
    let mut rng = Rng(workload_seed() ^ 0xFA11_0E4D);
    let mut dirs: Vec<PathBuf> = Vec::new();
    let fresh_dir = |dirs: &mut Vec<PathBuf>, tag: &str| {
        let d = temp_dir(tag);
        dirs.push(d.clone());
        d
    };

    let mut oracle = SqlShare::new();
    pin_serial(&mut oracle);
    let primary_dir = fresh_dir(&mut dirs, "p0");
    let mut primary =
        SqlShare::open(durable_options(&primary_dir, u64::MAX)).expect("open primary");
    pin_serial(&mut primary);
    let standby_dir = fresh_dir(&mut dirs, "s0");
    let mut standby =
        SqlShare::open(durable_options(&standby_dir, u64::MAX)).expect("open standby");
    pin_serial(&mut standby);
    standby.demote(0);

    let mut primary_dir = primary_dir;
    let mut standby_dir = standby_dir;
    // Byte offset of the standby's replication cursor into the
    // primary's WAL, and into its own WAL (for the byte-identity audit).
    let mut repl_offset: u64 = 0;
    let mut standby_wal_end: u64 = 0;

    let script = script();
    let mut next_op = 0usize;
    let mut round_digest = primary.durable_digest();
    let mut round_qlog = file_len(&primary.querylog_path().expect("durable primary"));
    let (mut midack_kills, mut fence_checks, mut fresh_syncs) = (0u32, 0u32, 0u32);

    for round in 0..ROUNDS {
        // --- run a batch of ops on the primary (and the oracle) -------
        let qlog = primary.querylog_path().expect("durable primary");
        let batch_len = 1 + rng.below(3);
        // (op index, outcome, lsn after, digest after, query-log bytes after)
        let mut batch = Vec::new();
        for _ in 0..batch_len {
            let op = &script[next_op % script.len()];
            let want = apply(&mut oracle, op);
            let got = apply(&mut primary, op);
            assert_eq!(got, want, "round {round}: op {next_op} diverged: {op:?}");
            batch.push((
                next_op,
                want,
                primary.last_lsn(),
                primary.durable_digest(),
                file_len(&qlog),
            ));
            next_op += 1;
        }
        assert_eq!(
            batch.last().unwrap().3,
            oracle.durable_digest(),
            "round {round}: primary diverged from oracle before the kill"
        );

        // --- replicate an acked prefix: k < batch_len is a mid-ack
        //     kill (the tail is journaled on the primary only) ---------
        let k = rng.below(batch_len + 1);
        if k < batch_len {
            midack_kills += 1;
        }
        let (ack_lsn, ack_digest, ack_qlog) = if k == 0 {
            (standby.last_lsn(), round_digest, round_qlog)
        } else {
            (batch[k - 1].2, batch[k - 1].3, batch[k - 1].4)
        };
        let wal = primary.wal_path().expect("durable primary");
        let (new_offset, shipped) = replicate_upto(&wal, repl_offset, &mut standby, ack_lsn);
        repl_offset = new_offset;
        // The query log rides along to the same acked boundary: its
        // entries are durable acknowledged state, and their timestamps
        // drive the simulated clock the next mutation will stamp.
        replicate_log_upto(&qlog, ack_qlog, &mut standby);
        // The poll response carries the primary's lease epoch; the
        // standby adopts it even when no shipped record does, so its
        // promotion always fences the node it was following.
        standby.demote(primary.epoch());
        let standby_wal = standby.wal_path().expect("durable standby");
        standby_wal_end = assert_byte_identical(&standby_wal, standby_wal_end, &shipped);
        assert_eq!(standby.last_lsn(), ack_lsn, "round {round}: ack cursor");
        assert_eq!(
            standby.durable_digest(),
            ack_digest,
            "round {round}: standby state is not the acked prefix"
        );
        // Lag accounting, as /api/ready reports it.
        let tip = batch.last().unwrap().2;
        standby.note_primary_lsn(tip);
        assert_eq!(standby.replication_lag(), tip - ack_lsn, "round {round}");

        // --- kill the primary, promote the standby --------------------
        let dead_epoch = primary.epoch();
        drop(primary);
        let dead_dir = primary_dir.clone();
        let new_epoch = standby.promote();
        assert!(
            new_epoch > dead_epoch,
            "round {round}: promotion must bump the lease epoch"
        );

        if round % 7 == 3 {
            fence_checks += 1;
            // The promoted node refuses the dead primary's un-acked
            // records: they carry a deposed epoch.
            let dead_tail = read_tail(&wal, repl_offset).expect("dead primary wal");
            if let Some(stale) = dead_tail.records.first() {
                let err = standby.apply_replicated(stale).unwrap_err();
                assert_eq!(err.kind(), "read-only", "round {round}: {err}");
            }
            // The deposed primary's disk holds the un-acked tail
            // cleanly applied — never torn — and once demoted the node
            // rejects writes with the typed error.
            let mut deposed = SqlShare::open(durable_options(&dead_dir, u64::MAX))
                .expect("reopen deposed primary");
            pin_serial(&mut deposed);
            assert_eq!(
                deposed.durable_digest(),
                batch.last().unwrap().3,
                "round {round}: deposed primary's un-acked tail was torn"
            );
            deposed.demote(new_epoch);
            let err = apply(
                &mut deposed,
                &Op::RegisterUser {
                    user: format!("fenced_{round}"),
                    email: "f@x.test".into(),
                },
            )
            .unwrap_err();
            assert_eq!(err, "read-only", "round {round}: fenced write");
        }

        // --- the survivor is the new primary; the driver retries the
        //     un-acked tail (never acknowledged, so retry is safe) -----
        for (op_idx, want, _, _, _) in &batch[k..] {
            let op = &script[op_idx % script.len()];
            let got = apply(&mut standby, op);
            assert_eq!(&got, want, "round {round}: retried op {op_idx} diverged");
        }
        assert_eq!(
            standby.durable_digest(),
            oracle.durable_digest(),
            "round {round}: survivor diverged from oracle after retries"
        );
        // The research corpus survives the failover intact: the
        // survivor's query log holds exactly the oracle's entries.
        assert_eq!(
            standby.log().len(),
            oracle.log().len(),
            "round {round}: survivor lost query-log entries across the failover"
        );

        // --- attach a standby to the new primary ----------------------
        let survivor_wal_end = standby_wal_end;
        primary = standby;
        primary_dir = standby_dir.clone();
        let survivor_qlog = primary.querylog_path().unwrap();
        if round % 5 == 0 {
            // A brand-new standby syncs the full history from offset 0.
            fresh_syncs += 1;
            standby_dir = fresh_dir(&mut dirs, "fresh");
            standby =
                SqlShare::open(durable_options(&standby_dir, u64::MAX)).expect("open standby");
            pin_serial(&mut standby);
            standby.demote(0);
            let wal = primary.wal_path().unwrap();
            let (off, shipped) = replicate_upto(&wal, 0, &mut standby, u64::MAX);
            repl_offset = off;
            replicate_log_upto(&survivor_qlog, file_len(&survivor_qlog), &mut standby);
            standby.demote(primary.epoch());
            let standby_wal = standby.wal_path().unwrap();
            standby_wal_end = assert_byte_identical(&standby_wal, 0, &shipped);
        } else {
            // Recycle the dead primary's disk: truncate its WAL — and
            // its query log — at the acked boundary (exactly what it
            // had confirmed shipping) and recover it — recovery and
            // replication are the same path, so it must come back as
            // the acked prefix.
            let dead_wal = dead_dir.join("wal.log");
            let bytes = std::fs::read(&dead_wal).unwrap();
            std::fs::write(&dead_wal, &bytes[..repl_offset as usize]).unwrap();
            let dead_qlog = dead_dir.join("querylog.log");
            let qbytes = std::fs::read(&dead_qlog).unwrap_or_default();
            let cut = (ack_qlog as usize).min(qbytes.len());
            std::fs::write(&dead_qlog, &qbytes[..cut]).unwrap();
            standby_dir = dead_dir;
            standby = SqlShare::open(durable_options(&standby_dir, u64::MAX))
                .expect("recover recycled standby");
            pin_serial(&mut standby);
            standby.demote(0);
            assert_eq!(
                standby.last_lsn(),
                ack_lsn,
                "round {round}: recycled standby recovered past the ack boundary"
            );
            assert_eq!(
                standby.durable_digest(),
                ack_digest,
                "round {round}: recovery disagreed with replication on the acked prefix"
            );
            // Its own WAL is the primary's first `repl_offset` bytes.
            standby_wal_end = repl_offset;
            // Catch up over the records it missed (the retried tail and
            // everything the old standby had journaled past its state).
            let wal = primary.wal_path().unwrap();
            let (off, shipped) =
                replicate_upto(&wal, survivor_wal_end, &mut standby, u64::MAX);
            repl_offset = off;
            // Query-log catch-up replays from 0 — applies are idempotent
            // by entry id, so the already-recovered prefix is skipped.
            replicate_log_upto(&survivor_qlog, file_len(&survivor_qlog), &mut standby);
            standby.demote(primary.epoch());
            // The catch-up records land byte-identically too.
            let standby_wal = standby.wal_path().unwrap();
            standby_wal_end = assert_byte_identical(&standby_wal, standby_wal_end, &shipped);
        }
        assert_eq!(
            standby.durable_digest(),
            primary.durable_digest(),
            "round {round}: standby not in sync at round end"
        );
        assert_eq!(
            standby.log().len(),
            primary.log().len(),
            "round {round}: standby query log not in sync at round end"
        );
        round_digest = primary.durable_digest();
        round_qlog = file_len(&primary.querylog_path().unwrap());
    }

    assert!(midack_kills >= 10, "only {midack_kills} mid-ack kills");
    assert!(fence_checks >= 5, "only {fence_checks} fence checks");
    assert!(fresh_syncs >= 5, "only {fresh_syncs} fresh-standby syncs");
    assert!(
        next_op >= ROUNDS,
        "workload too small: {next_op} ops over {ROUNDS} rounds"
    );

    // The surviving lineage is byte-reproducible from disk alone.
    assert_eq!(primary.durable_digest(), oracle.durable_digest());
    let final_epoch = primary.epoch();
    drop(primary);
    let reopened = SqlShare::open(durable_options(&primary_dir, u64::MAX)).expect("reopen");
    assert_eq!(reopened.durable_digest(), oracle.durable_digest());
    assert_eq!(
        reopened.epoch(),
        final_epoch,
        "the lease epoch must survive recovery (fencing across restart)"
    );
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
}

// ---------------------------------------------------------------------
// 2. Snapshot catch-up: a standby whose cursor outlives the primary's
//    WAL (reset by a snapshot) reseeds from the replication snapshot
//    and resumes from offset 0.
// ---------------------------------------------------------------------

#[test]
fn standby_reseeds_from_snapshot_after_primary_wal_reset() {
    let p_dir = temp_dir("snapshot-p");
    let s_dir = temp_dir("snapshot-s");
    // Aggressive snapshot cadence: the primary's WAL resets mid-run.
    let mut primary = SqlShare::open(durable_options(&p_dir, 3)).expect("open primary");
    let mut standby = SqlShare::open(durable_options(&s_dir, u64::MAX)).expect("open standby");
    pin_serial(&mut primary);
    pin_serial(&mut standby);
    standby.demote(0);

    primary.register_user("ada", "ada@uw.edu").unwrap();
    let wal = primary.wal_path().unwrap();
    let (mut offset, _) = replicate_upto(&wal, 0, &mut standby, u64::MAX);
    assert_eq!(standby.last_lsn(), primary.last_lsn());

    // Enough mutations to cross the snapshot cadence at least twice.
    for i in 0..8 {
        primary
            .upload("ada", &format!("t{i}"), "a,b\n1,2\n", &IngestOptions::default())
            .unwrap();
    }
    // The WAL was reset behind the standby's cursor.
    let tail = read_tail(&wal, offset).expect("tail");
    assert!(tail.reset, "snapshot cadence never reset the WAL");

    // The standby reseeds from the replication snapshot, then resumes
    // streaming from offset 0 — the server's NeedSnapshot path.
    let snap = primary.replication_snapshot();
    let installed_lsn = standby.install_replica_snapshot(&snap).expect("install");
    let (new_offset, _) = replicate_upto(&wal, 0, &mut standby, u64::MAX);
    offset = new_offset;
    assert!(offset > 0 || installed_lsn == primary.last_lsn());
    assert_eq!(standby.last_lsn(), primary.last_lsn());
    assert_eq!(standby.durable_digest(), primary.durable_digest());

    // And the reseeded standby can be promoted and serve writes.
    standby.promote();
    standby
        .upload("ada", "after", "x\n9\n", &IngestOptions::default())
        .unwrap();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

/// A node reseeded from a snapshot at an older LSN than its own
/// snapshots reach (a deposed primary that ran ahead) recovers to what
/// it installed, not to its own abandoned lineage: the snapshot prune
/// keeps no manifest past the installed LSN.
#[test]
fn a_reseed_to_an_older_lsn_than_the_nodes_own_snapshots_survives_a_reopen() {
    let a_dir = temp_dir("reseed-older-a");
    let b_dir = temp_dir("reseed-older-b");
    let mut a = SqlShare::open(durable_options(&a_dir, 2)).unwrap();
    for i in 0..10 {
        a.register_user(&format!("a{i}"), "a@uw.edu").unwrap();
    }
    let mut b = SqlShare::open(durable_options(&b_dir, 2)).unwrap();
    for i in 0..5 {
        b.register_user(&format!("b{i}"), "b@uw.edu").unwrap();
    }
    b.upload("b0", "t", "x\n1\n", &IngestOptions::default()).unwrap();
    assert!(a.last_lsn() > b.last_lsn());
    a.install_replica_snapshot(&b.replication_snapshot()).unwrap();
    assert_eq!(a.durable_digest(), b.durable_digest());
    drop(a);
    let a = SqlShare::open(durable_options(&a_dir, 2)).unwrap();
    assert_eq!(a.last_lsn(), b.last_lsn());
    assert_eq!(a.durable_digest(), b.durable_digest());
    let _ = std::fs::remove_dir_all(&a_dir);
    let _ = std::fs::remove_dir_all(&b_dir);
}

// ---------------------------------------------------------------------
// 2b. Divergent-tail rejoin: a deposed primary whose WAL holds records
//     the new lineage never saw must not pass them off as already-
//     replicated history. The epoch-aware duplicate check flags the
//     first new-lineage record landing on an occupied LSN as Diverged,
//     and the reseed brings the rejoined node onto the new history.
// ---------------------------------------------------------------------

#[test]
fn deposed_primary_with_divergent_tail_reseeds_instead_of_skipping() {
    let a_dir = temp_dir("diverge-a");
    let b_dir = temp_dir("diverge-b");
    let mut a = SqlShare::open(durable_options(&a_dir, u64::MAX)).expect("open a");
    let mut b = SqlShare::open(durable_options(&b_dir, u64::MAX)).expect("open b");
    pin_serial(&mut a);
    pin_serial(&mut b);
    b.demote(0);

    // Shared history: lsn 1..=2 on both nodes.
    a.register_user("ada", "ada@uw.edu").unwrap();
    a.upload("ada", "base", "a\n1\n", &IngestOptions::default())
        .unwrap();
    let a_wal = a.wal_path().unwrap();
    replicate_upto(&a_wal, 0, &mut b, u64::MAX);
    let fork_lsn = b.last_lsn();

    // A journals lsn 3..=4 that never replicate (async tail), then dies.
    a.upload("ada", "lost1", "x\n1\n", &IngestOptions::default())
        .unwrap();
    a.upload("ada", "lost2", "x\n2\n", &IngestOptions::default())
        .unwrap();
    assert_eq!(a.last_lsn(), fork_lsn + 2);

    // B promotes and writes its own lsn 3..=4 — a different history.
    b.promote();
    b.upload("ada", "won1", "y\n1\n", &IngestOptions::default())
        .unwrap();
    b.upload("ada", "won2", "y\n2\n", &IngestOptions::default())
        .unwrap();
    assert_eq!(b.last_lsn(), a.last_lsn(), "same LSNs, different records");
    assert_ne!(a.durable_digest(), b.durable_digest());

    // A rejoins as a standby and streams B's WAL from offset 0. The
    // shared prefix is an idempotent duplicate; the first new-epoch
    // record at an occupied LSN must come back Diverged — never a
    // silent skip that would let A ack history it does not hold.
    a.demote(b.epoch());
    let b_wal = b.wal_path().unwrap();
    let tail = read_tail(&b_wal, 0).expect("b wal");
    let mut saw_diverged = false;
    for payload in &tail.records {
        let (lsn, outcome) = a.apply_replicated(payload).expect("apply");
        match outcome {
            ReplApply::Duplicate => {
                assert!(lsn <= fork_lsn, "post-fork record skipped as duplicate")
            }
            ReplApply::Diverged => {
                assert!(lsn > fork_lsn, "shared prefix flagged divergent");
                saw_diverged = true;
                break;
            }
            ReplApply::Applied => panic!("occupied lsn {lsn} applied over divergent state"),
        }
    }
    assert!(saw_diverged, "divergent tail was never detected");
    assert_ne!(a.durable_digest(), b.durable_digest(), "still divergent");

    // The reseed (the server's NeedSnapshot path) resolves it.
    let lsn = a
        .install_replica_snapshot(&b.replication_snapshot())
        .expect("reseed");
    assert_eq!(lsn, b.last_lsn());
    assert_eq!(a.durable_digest(), b.durable_digest());

    // And the stream resumes cleanly past the reseed point.
    b.upload("ada", "after", "z\n1\n", &IngestOptions::default())
        .unwrap();
    let tail = read_tail(&b_wal, 0).expect("b wal");
    for payload in &tail.records {
        assert_ne!(
            a.apply_replicated(payload).expect("resume").1,
            ReplApply::Diverged,
            "reseeded standby re-flagged divergence"
        );
    }
    assert_eq!(a.durable_digest(), b.durable_digest());
    let _ = std::fs::remove_dir_all(&a_dir);
    let _ = std::fs::remove_dir_all(&b_dir);
}

// ---------------------------------------------------------------------
// 2c. Gap detection: a record that would skip LSNs (the upstream WAL
//     truncated and regrew behind the follower's offset) is Diverged,
//     not applied out of order.
// ---------------------------------------------------------------------

#[test]
fn lsn_gap_in_the_stream_forces_a_reseed() {
    let p_dir = temp_dir("gap-p");
    let s_dir = temp_dir("gap-s");
    let mut primary = SqlShare::open(durable_options(&p_dir, u64::MAX)).expect("open primary");
    let mut standby = SqlShare::open(durable_options(&s_dir, u64::MAX)).expect("open standby");
    pin_serial(&mut primary);
    pin_serial(&mut standby);
    standby.demote(0);

    primary.register_user("ada", "ada@uw.edu").unwrap();
    primary
        .upload("ada", "one", "a\n1\n", &IngestOptions::default())
        .unwrap();
    primary
        .upload("ada", "two", "a\n2\n", &IngestOptions::default())
        .unwrap();
    let wal = primary.wal_path().unwrap();
    let tail = read_tail(&wal, 0).expect("wal");
    // Feed record 1, then record 3 — record 2 "vanished with a reset".
    assert_eq!(
        standby.apply_replicated(&tail.records[0]).unwrap(),
        (1, ReplApply::Applied)
    );
    assert_eq!(
        standby.apply_replicated(&tail.records[2]).unwrap(),
        (3, ReplApply::Diverged),
        "a gapped record must trigger a reseed, not an out-of-order apply"
    );
    assert_eq!(standby.last_lsn(), 1, "the gapped record must not journal");
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

// ---------------------------------------------------------------------
// 2d. The truncate-and-regrow race the length heuristic cannot see:
//     after a reset the WAL regrows past the follower's offset within
//     one poll interval. read_tail reports nothing amiss — only the
//     persisted generation counter exposes the reset.
// ---------------------------------------------------------------------

#[test]
fn wal_generation_exposes_truncate_and_regrow_behind_a_follower() {
    use sqlshare_core::wal_generation;
    let dir = temp_dir("regrow");
    // Cadence 2: every other mutation snapshots and resets the WAL.
    let mut primary = SqlShare::open(durable_options(&dir, 2)).expect("open");
    pin_serial(&mut primary);
    primary.register_user("ada", "ada@uw.edu").unwrap();
    let wal = primary.wal_path().unwrap();
    let offset = read_tail(&wal, 0).expect("tail").end_offset;
    let gen_before = wal_generation(&wal);

    // Reset, then regrow well past the follower's offset: many records
    // with long payloads land after the truncation.
    for i in 0..6 {
        let mut content = String::from("a,b,c,d\n");
        for row in 0..25 {
            content.push_str(&format!("{i},{row},{row},{row}\n"));
        }
        primary
            .upload("ada", &format!("wide{i}"), &content, &IngestOptions::default())
            .unwrap();
    }
    let len = std::fs::metadata(&wal).unwrap().len();
    assert!(
        len > offset,
        "scenario needs the regrown WAL ({len}B) past the old offset ({offset}B)"
    );
    let tail = read_tail(&wal, offset).expect("tail");
    assert!(
        !tail.reset,
        "the length heuristic sees nothing wrong — that is the trap"
    );
    assert_ne!(
        wal_generation(&wal),
        gen_before,
        "the generation counter must expose the reset the length check missed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3b. Replicated query-log dedup is by entry id, not local count: after
//     a reseed a standby's local entry count no longer matches the
//     upstream's id sequence, and redelivery must still be idempotent.
// ---------------------------------------------------------------------

#[test]
fn replicated_query_entries_dedup_by_id_not_local_count() {
    let p_dir = temp_dir("qdedup-p");
    let s_dir = temp_dir("qdedup-s");
    let mut primary = SqlShare::open(durable_options(&p_dir, u64::MAX)).expect("open primary");
    let mut standby = SqlShare::open(durable_options(&s_dir, u64::MAX)).expect("open standby");
    pin_serial(&mut primary);
    pin_serial(&mut standby);
    standby.demote(0);

    primary.register_user("ada", "ada@uw.edu").unwrap();
    primary
        .upload("ada", "t", "a\n1\n", &IngestOptions::default())
        .unwrap();
    for _ in 0..4 {
        primary.run_query("ada", "SELECT a FROM t").unwrap();
    }
    let qlog = primary.querylog_path().unwrap();
    let lines = read_tail(&qlog, 0).unwrap().records;
    assert!(lines.len() >= 4);

    // A reseeded standby starts mid-stream: it receives entries whose
    // upstream ids exceed its local (empty) log.
    let feed = |standby: &mut SqlShare, lines: &[Vec<u8>]| {
        for line in lines {
            standby.apply_replicated_query_entry(line).unwrap();
        }
    };
    feed(&mut standby, &lines[2..]);
    let after_first = standby.log().len();
    assert_eq!(after_first, lines.len() - 2);

    // Redelivery of the same tail (a poll retry after a dropped ack)
    // must be a no-op — counting-based dedup would duplicate every
    // entry whose id exceeds the local length.
    feed(&mut standby, &lines[2..]);
    assert_eq!(
        standby.log().len(),
        after_first,
        "redelivered query-log entries were duplicated"
    );
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

// ---------------------------------------------------------------------
// 3c. A standby runs no queries of its own. A query logs an entry and
//     ticks the clock; on a standby that entry took the id of the
//     primary's next one — which then came back "already applied" and
//     was dropped from the research corpus — and the clock stopped
//     following the primary's. The one entry both query paths share
//     refuses with the typed read-only error instead.
// ---------------------------------------------------------------------

#[test]
fn a_standby_refuses_queries_and_loses_no_replicated_log_entry() {
    let p_dir = temp_dir("squery-p");
    let mut primary = SqlShare::open(durable_options(&p_dir, u64::MAX)).expect("open primary");
    let mut standby = SqlShare::new();
    primary.register_user("ada", "ada@uw.edu").unwrap();
    primary.upload("ada", "t", "a\n1\n2\n", &IngestOptions::default()).unwrap();
    standby.install_replica_snapshot(&primary.replication_snapshot()).unwrap();
    standby.demote(0);
    let clock = |s: &SqlShare| s.replication_snapshot().get("clock").unwrap().to_string();
    let clock_before = clock(&standby);

    let t = DatasetName::new("ada", "t");
    for err in [
        standby.run_query("ada", "SELECT a FROM t").map(|_| ()).unwrap_err(),
        standby.submit_query("ada", "SELECT a FROM t").map(|_| ()).unwrap_err(),
        standby.download("ada", &t).map(|_| ()).unwrap_err(),
    ] {
        assert_eq!(err.kind(), "read-only", "{err}");
    }
    assert!(standby.log().is_empty(), "a refused query was logged");
    assert_eq!(clock(&standby), clock_before, "a refused query ticked the clock");
    // What reads state without writing any keeps serving.
    assert_eq!(standby.preview("ada", &t).unwrap().rows.len(), 2);

    // The primary's first entry still has its id free on the standby,
    // and the standby's clock follows it.
    primary.run_query("ada", "SELECT a FROM t").unwrap();
    let tail = read_tail(&primary.querylog_path().unwrap(), 0).unwrap();
    assert!(
        standby
            .apply_replicated_query_entry(&tail.records[0])
            .unwrap(),
        "the primary's entry was dropped"
    );
    assert_eq!(standby.log().entries()[0].id, 1);
    assert_eq!(clock(&standby), clock(&primary));

    // Promoted, it answers queries again, under the next id.
    standby.promote();
    standby.run_query("ada", "SELECT a FROM t").unwrap();
    assert_eq!(standby.log().entries()[1].id, 2);
    let _ = std::fs::remove_dir_all(&p_dir);
}

// ---------------------------------------------------------------------
// 4. The full stack over HTTP: quorum acks, lease-lapse promotion,
//    client failover, read-only rejection with Retry-After.
// ---------------------------------------------------------------------

#[test]
fn http_pair_fails_over_with_zero_acked_write_loss() {
    use crate::http::{FailoverClient, HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};
    use std::time::Duration;

    let p_dir = temp_dir("http-p");
    let s_dir = temp_dir("http-s");
    let heartbeat = Duration::from_millis(20);

    let mut primary_svc = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap();
    primary_svc.register_user("ada", "ada@uw.edu").unwrap();
    let mut primary_cfg = HttpConfig::default();
    primary_cfg.repl.ack = AckMode::Quorum;
    primary_cfg.repl.quorum = 1;
    primary_cfg.repl.ack_timeout = Duration::from_secs(10);
    primary_cfg.repl.heartbeat = heartbeat;
    let primary = Server::start(primary_svc, "127.0.0.1:0", primary_cfg).expect("bind primary");

    let standby_svc = SqlShare::open(durable_options(&s_dir, u64::MAX)).unwrap();
    let mut standby_cfg = HttpConfig::default();
    standby_cfg.repl.primary = Some(primary.addr().to_string());
    standby_cfg.repl.heartbeat = heartbeat;
    standby_cfg.repl.lease_misses = 3;
    let standby = Server::start(standby_svc, "127.0.0.1:0", standby_cfg).expect("bind standby");

    // A standby rejects mutations as 503 with a Retry-After hint and
    // reports its role and lag on the readiness probe.
    let mut direct = HttpClient::new(standby.addr());
    let resp = direct
        .request(&ReplayOp::Post(
            "/api/datasets".into(),
            r#"{"user":"ada","name":"nope","content":"a\n1\n"}"#.into(),
        ))
        .unwrap();
    assert_eq!(resp.status, 503, "standby accepted a write");
    assert!(resp.retry_after.is_some(), "503 without Retry-After");
    let ready = direct.request(&ReplayOp::Get("/api/ready".into())).unwrap();
    let doc = json::parse(&String::from_utf8_lossy(&ready.body)).unwrap();
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("standby"));
    assert!(doc.get("lagLsns").is_some(), "readiness lacks lag");
    // So is a query — it would write the log — and a client that
    // follows the primary rotates off the standby for it exactly as it
    // does for a refused write.
    let query = ReplayOp::Post(
        "/api/queries".into(),
        r#"{"user":"ada","sql":"SELECT 1"}"#.into(),
    );
    let resp = direct.request(&query).unwrap();
    assert_eq!(resp.status, 503, "standby accepted a query");
    assert!(resp.retry_after.is_some(), "503 without Retry-After");
    let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("read-only"));
    let mut follower = FailoverClient::new(vec![standby.addr(), primary.addr()]);
    let resp = follower.request(&query).unwrap();
    assert_eq!(resp.status, 201, "query through the failover client");
    assert_eq!((follower.failovers, follower.active_addr()), (1, primary.addr()));

    // Quorum-acked uploads through the failover client; kill the
    // primary halfway.
    let mut client = FailoverClient::new(vec![primary.addr(), standby.addr()]);
    let mut acked = Vec::new();
    let mut primary = Some(primary);
    for i in 0..10 {
        if i == 5 {
            primary.take().unwrap().shutdown();
        }
        let body =
            format!(r#"{{"user":"ada","name":"d{i}","content":"a,b\n{i},{i}\n"}}"#);
        let resp = client
            .request(&ReplayOp::Post("/api/datasets".into(), body))
            .unwrap_or_else(|e| panic!("upload d{i} failed: {e}"));
        assert!(resp.status < 300, "upload d{i}: status {}", resp.status);
        acked.push(format!("d{i}"));
    }
    assert!(client.failovers >= 1, "client never failed over");

    // Every acked upload is on the survivor, which now reports primary.
    for name in &acked {
        let resp = client
            .request(&ReplayOp::Get(format!("/api/datasets/ada/{name}?user=ada")))
            .unwrap();
        assert_eq!(resp.status, 200, "acked upload {name} lost in failover");
    }
    let ready = client.request(&ReplayOp::Get("/api/ready".into())).unwrap();
    let doc = json::parse(&String::from_utf8_lossy(&ready.body)).unwrap();
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));

    standby.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

// ---------------------------------------------------------------------
// 4a. Multibyte text on the wire. Uploads and logged SQL hold characters
//     of two and three bytes (`µg/L`, `€`, `café`); records and the
//     reseed snapshot are over 64 KiB, the size above which the server
//     chunks a body for an HTTP/1.1 peer in 32 KiB slices. At every one
//     of twelve byte alignments the standby follows the primary through
//     the WAL tail and through a snapshot reseed.
// ---------------------------------------------------------------------

#[test]
fn a_live_pair_carries_multibyte_text_at_every_alignment() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server, ServerHandle};
    use std::time::{Duration, Instant};

    let heartbeat = Duration::from_millis(20);
    let state = |server: &ServerHandle| {
        server.with_service(|s| {
            let ids: Vec<u64> = s.log().entries().iter().map(|e| e.id).collect();
            (s.last_lsn(), s.durable_digest(), ids)
        })
    };
    let in_step = |primary: &ServerHandle, standby: &ServerHandle, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        let want = state(primary);
        while state(standby) != want {
            assert!(
                Instant::now() < deadline,
                "{what}: the standby holds (lsn, digest, log ids) {:?}, the primary {:?}",
                state(standby),
                want
            );
            std::thread::sleep(heartbeat);
        }
    };
    let upload = |client: &mut HttpClient, name: &str| {
        let mut csv = String::from("label\n");
        for i in 0..3200 {
            csv.push_str(&format!("{i} µg/L €€ café\n"));
        }
        let body = Json::object([
            ("user", Json::str("ada")),
            ("name", Json::str(name)),
            ("content", Json::str(csv)),
        ]);
        let resp = client
            .request(&ReplayOp::Post("/api/datasets".into(), body.to_string()))
            .unwrap();
        assert!(
            resp.status < 300,
            "upload {name}: {}",
            String::from_utf8_lossy(&resp.body)
        );
    };

    for pad in 0..12 {
        let p_dir = temp_dir("utf8-p");
        let s_dir = temp_dir("utf8-s");
        // The third mutation snapshots and resets the primary's WAL.
        let mut primary_svc = SqlShare::open(durable_options(&p_dir, 3)).unwrap();
        primary_svc.register_user("ada", "ada@uw.edu").unwrap();
        let mut primary_cfg = HttpConfig::default();
        primary_cfg.repl.heartbeat = heartbeat;
        let primary = Server::start(primary_svc, "127.0.0.1:0", primary_cfg).expect("bind primary");
        let standby_svc = SqlShare::open(durable_options(&s_dir, u64::MAX)).unwrap();
        let mut standby_cfg = HttpConfig::default();
        standby_cfg.repl.primary = Some(primary.addr().to_string());
        standby_cfg.repl.heartbeat = heartbeat;
        let standby = Server::start(standby_svc, "127.0.0.1:0", standby_cfg).expect("bind standby");

        // The name's length shifts every byte of the record after it.
        let mut client = HttpClient::new(primary.addr());
        let name = format!("probe{}", "x".repeat(pad));
        upload(&mut client, &name);
        let sql = format!("SELECT COUNT(*) FROM {name} WHERE label LIKE '%€€ café'");
        let query = Json::object([("user", Json::str("ada")), ("sql", Json::str(sql))]);
        let resp = client
            .request(&ReplayOp::Post("/api/queries".into(), query.to_string()))
            .unwrap();
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let deadline = Instant::now() + Duration::from_secs(20);
        while state(&primary).2.is_empty() {
            assert!(
                Instant::now() < deadline,
                "the primary never logged the query"
            );
            std::thread::sleep(heartbeat);
        }
        in_step(&primary, &standby, &format!("pad {pad}, streamed"));

        // The snapshot resets the WAL behind the standby's cursor: it
        // reseeds from the snapshot document, then streams the write
        // after it from the new WAL's head.
        upload(&mut client, &format!("{name}_again"));
        let reset = std::fs::metadata(p_dir.join("wal.log")).map_or(0, |m| m.len()) == 0;
        assert!(reset, "pad {pad}: the snapshot did not reset the WAL");
        let resp = client
            .request(&ReplayOp::Post(
                "/api/users".into(),
                r#"{"username":"bob","email":"bob@uw.edu"}"#.into(),
            ))
            .unwrap();
        assert!(resp.status < 300, "{}", String::from_utf8_lossy(&resp.body));
        in_step(&primary, &standby, &format!("pad {pad}, reseeded"));

        standby.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&p_dir);
        let _ = std::fs::remove_dir_all(&s_dir);
    }
}

// ---------------------------------------------------------------------
// 4b. Concurrent queries over sockets: four clients submit at once, the
//     primary's scheduler workers finish them in any order, and the
//     standby tailing the primary's query log ends up with exactly the
//     primary's ids — none dropped as "already applied".
// ---------------------------------------------------------------------

#[test]
fn a_standby_holds_the_primarys_ids_after_concurrent_http_queries() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server, ServerHandle};
    use std::time::{Duration, Instant};

    let p_dir = temp_dir("qorder-p");
    let s_dir = temp_dir("qorder-s");
    let heartbeat = Duration::from_millis(20);

    // One tenant per client, so no client can fill a tenant's queue
    // (64) and be refused.
    let (clients, per_client) = (4, 60);
    let mut primary_svc = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap();
    for c in 0..clients {
        let user = format!("u{c}");
        primary_svc.register_user(&user, "u@uw.edu").unwrap();
        primary_svc
            .upload(&user, "t", "a\n1\n2\n3\n", &IngestOptions::default())
            .unwrap();
    }
    let mut primary_cfg = HttpConfig::default();
    primary_cfg.repl.heartbeat = heartbeat;
    let primary = Server::start(primary_svc, "127.0.0.1:0", primary_cfg).expect("bind primary");

    let standby_svc = SqlShare::open(durable_options(&s_dir, u64::MAX)).unwrap();
    let mut standby_cfg = HttpConfig::default();
    standby_cfg.repl.primary = Some(primary.addr().to_string());
    standby_cfg.repl.heartbeat = heartbeat;
    let standby = Server::start(standby_svc, "127.0.0.1:0", standby_cfg).expect("bind standby");

    let addr = primary.addr();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                let query = ReplayOp::Post(
                    "/api/queries".into(),
                    format!(r#"{{"user":"u{c}","sql":"SELECT SUM(a) FROM t"}}"#),
                );
                for _ in 0..per_client {
                    let resp = client.request(&query).unwrap();
                    assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
                }
            });
        }
    });

    let ids = |server: &ServerHandle| -> Vec<u64> {
        server.with_service(|s| s.log().entries().iter().map(|e| e.id).collect())
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut logged = ids(&primary);
    while logged.len() < clients * per_client && Instant::now() < deadline {
        std::thread::sleep(heartbeat);
        logged = ids(&primary);
    }
    assert_eq!(logged.len(), clients * per_client, "the primary did not log every query");
    let mut replicated = ids(&standby);
    while replicated != logged && Instant::now() < deadline {
        std::thread::sleep(heartbeat);
        replicated = ids(&standby);
    }
    let missing = logged.iter().filter(|id| !replicated.contains(id)).count();
    assert_eq!(missing, 0, "the standby dropped {missing} of the primary's entries");
    assert_eq!(replicated, logged);

    standby.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

// ---------------------------------------------------------------------
// 5. Demote is fenced: a healthy primary steps down only for a strictly
//    newer lease epoch. Equal or stale epochs — anyone can POST them —
//    must not be able to leave the cluster writeless.
// ---------------------------------------------------------------------

#[test]
fn demote_endpoint_refuses_epochs_that_do_not_supersede_the_lease() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};

    let dir = temp_dir("demote");
    let mut svc = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    svc.register_user("ada", "ada@uw.edu").unwrap();
    let server = Server::start(svc, "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let mut client = HttpClient::new(server.addr());
    let role = |client: &mut HttpClient| {
        let ready = client.request(&ReplayOp::Get("/api/ready".into())).unwrap();
        let doc = json::parse(&String::from_utf8_lossy(&ready.body)).unwrap();
        doc.get("role").and_then(Json::as_str).unwrap().to_string()
    };
    let demote = |client: &mut HttpClient, epoch: u64| {
        client
            .request(&ReplayOp::Post(
                "/api/repl/demote".into(),
                format!(r#"{{"epoch":{epoch}}}"#),
            ))
            .unwrap()
            .status
    };

    // Bump the lease so stale != 0 is also covered.
    let resp = client
        .request(&ReplayOp::Post("/api/repl/promote".into(), "{}".into()))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(role(&mut client), "primary");

    assert_eq!(demote(&mut client, 0), 409, "epoch 0 deposed a primary");
    assert_eq!(demote(&mut client, 1), 409, "equal epoch deposed a primary");
    assert_eq!(role(&mut client), "primary");
    // Writes still flow after the refused demotions.
    let up = client
        .request(&ReplayOp::Post(
            "/api/datasets".into(),
            r#"{"user":"ada","name":"still","content":"a\n1\n"}"#.into(),
        ))
        .unwrap();
    assert!(up.status < 300, "refused demote broke the primary");

    // A strictly newer lease is proof of a promotion elsewhere: obey it.
    assert_eq!(demote(&mut client, 2), 200);
    assert_eq!(role(&mut client), "standby");
    // A standby adopts epochs freely (it takes the max; no-op is fine).
    assert_eq!(demote(&mut client, 1), 200);

    // The WAL poll response now carries the reset generation.
    let wal = client
        .request(&ReplayOp::Get("/api/repl/wal?from=0".into()))
        .unwrap();
    let (doc, _) = body_frames(&wal.body);
    assert!(
        doc.get("generation").and_then(Json::as_f64).is_some(),
        "wal poll response lacks the generation counter"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5b. A tail poll names the byte offset it resumes from. A poll without
//     one, or with one that is not a whole number, is refused with 400
//     naming the parameter — not answered with the whole log from 0.
// ---------------------------------------------------------------------

#[test]
fn repl_tail_routes_refuse_a_missing_or_malformed_from() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};

    let dir = temp_dir("tail-from");
    let mut svc = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    svc.register_user("ada", "ada@uw.edu").unwrap();
    svc.upload("ada", "t", "a\n1\n", &IngestOptions::default()).unwrap();
    svc.run_query("ada", "SELECT a FROM t").unwrap();
    let server = Server::start(svc, "127.0.0.1:0", HttpConfig::default()).expect("bind");
    let mut client = HttpClient::new(server.addr());
    for route in ["/api/repl/wal", "/api/repl/querylog"] {
        for query in ["", "?from=", "?from=abc", "?from=-1", "?from=1.5", "?to=0"] {
            let resp = client
                .request(&ReplayOp::Get(format!("{route}{query}")))
                .unwrap();
            assert_eq!(resp.status, 400, "{route}{query}");
            let body = String::from_utf8_lossy(&resp.body);
            assert!(body.contains("'from'"), "{route}{query}: {body}");
        }
        let resp = client
            .request(&ReplayOp::Get(format!("{route}?from=0")))
            .unwrap();
        assert_eq!(resp.status, 200, "{route}");
        let (_, records) = body_frames(&resp.body);
        assert!(!records.is_empty(), "{route} shipped nothing from 0");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 6. The quorum wait happens outside the service write lock: while a
//    mutation is parked waiting for standby confirmations, reads keep
//    answering. (Before the fix the commit blocked inside the lock and
//    froze every reader for the full ack timeout.)
// ---------------------------------------------------------------------

#[test]
fn quorum_wait_does_not_hold_the_write_lock() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};
    use std::time::{Duration, Instant};

    let dir = temp_dir("quorum-lock");
    let mut svc = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    svc.register_user("ada", "ada@uw.edu").unwrap();
    let mut cfg = HttpConfig::default();
    cfg.repl.ack = AckMode::Quorum;
    cfg.repl.quorum = 1;
    cfg.repl.ack_timeout = Duration::from_secs(4);
    // No standby ever acks: every mutation parks for the full timeout.
    let server = Server::start(svc, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();

    let writer = std::thread::spawn(move || {
        let mut client = HttpClient::new(addr);
        let started = Instant::now();
        let resp = client
            .request(&ReplayOp::Post(
                "/api/datasets".into(),
                r#"{"user":"ada","name":"parked","content":"a\n1\n"}"#.into(),
            ))
            .unwrap();
        (resp, started.elapsed())
    });

    // Give the writer time to journal and park in the quorum wait, then
    // read while it is parked.
    std::thread::sleep(Duration::from_millis(300));
    let mut client = HttpClient::new(addr);
    let started = Instant::now();
    let ready = client.request(&ReplayOp::Get("/api/ready".into())).unwrap();
    let read_latency = started.elapsed();
    assert_eq!(ready.status, 200);

    let (resp, write_latency) = writer.join().unwrap();
    assert!(
        write_latency >= Duration::from_secs(3),
        "writer was not parked ({write_latency:?}); the scenario did not exercise the wait"
    );
    assert!(
        read_latency < Duration::from_secs(2),
        "a read stalled {read_latency:?} behind a parked quorum commit"
    );
    // The unconfirmed mutation reports the typed timeout, and it is
    // journaled: durable but unacked, exactly the DESIGN §4.7 line.
    assert_eq!(resp.status, 504, "body: {}", String::from_utf8_lossy(&resp.body));
    let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("timeout"));
    let got = client
        .request(&ReplayOp::Get("/api/datasets/ada/parked?user=ada".into()))
        .unwrap();
    assert_eq!(got.status, 200, "timed-out mutation is still durable state");
    let (lsn, digest) = server.with_service(|s| (s.last_lsn(), s.durable_digest()));

    server.shutdown();
    // The journaled-but-unacked mutation survives recovery cleanly.
    let reopened = SqlShare::open(durable_options(&dir, u64::MAX)).expect("recovery");
    assert_eq!(reopened.last_lsn(), lsn);
    assert_eq!(reopened.durable_digest(), digest);
    assert!(reopened.dataset(&DatasetName::new("ada", "parked")).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
