//! The write path pays for an upload once: what an upload, append or
//! rejected upload leaves behind, and what its cost may depend on.

use proptest::prelude::*;
use sqlshare_core::dataset::PREVIEW_ROWS;
use sqlshare_core::{DatasetName, DurableOptions, FsyncPolicy, Metadata, SqlShare, Visibility};
use sqlshare_engine::physical::PhysOp;
use sqlshare_ingest::{HeaderMode, IngestOptions};
use sqlshare_sql::rewrite::AppendMode;

fn service() -> SqlShare {
    let mut s = SqlShare::new();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.register_user("bob", "bob@uw.edu").unwrap();
    s
}

fn csv(rows: usize, salt: usize) -> String {
    let mut content = String::from("id,reading,site\n");
    for i in 0..rows {
        content.push_str(&format!("{i},{}.5,site-{}\n", i * 3 + salt, (i + salt) % 7));
    }
    content
}

/// Row bounds on the scans of the plan a preview of `sql` runs.
fn preview_scan_bounds(s: &SqlShare, sql: &str) -> (Vec<Option<u64>>, usize) {
    let head = s.engine().run_head(sql, PREVIEW_ROWS as u64 + 1).unwrap();
    let mut bounds = Vec::new();
    head.plan.visit(&mut |n| {
        if let PhysOp::Scan { head, .. } = &n.op {
            bounds.push(*head);
        }
    });
    (bounds, head.rows.len())
}

/// What `user` stores, recounted from the rows themselves.
fn recount(s: &SqlShare, user: &str) -> (usize, usize) {
    let owned: Vec<_> = s
        .datasets()
        .filter(|d| d.name.owner.eq_ignore_ascii_case(user))
        .collect();
    let bytes = owned
        .iter()
        .filter_map(|d| d.base_table.as_ref())
        .map(|b| {
            let table = s.engine().catalog().table(b).unwrap();
            table
                .batch()
                .to_rows()
                .iter()
                .flatten()
                .map(|v| v.estimated_size())
                .sum::<usize>()
        })
        .sum();
    (owned.len(), bytes)
}

#[test]
fn rejected_uploads_are_not_kept_in_staging() {
    let mut s = service();
    let present = IngestOptions { header: HeaderMode::Present, ..Default::default() };
    for i in 0..1_000 {
        let (content, options) = match i % 3 {
            0 => (String::new(), IngestOptions::default()),
            1 => ("   \n\t\n".to_string(), IngestOptions::default()),
            _ => (format!("only,a,header,{i}\n"), present.clone()),
        };
        assert!(s.upload("ada", &format!("bad{i}"), &content, &options).is_err());
    }
    assert_eq!(s.staged_uploads(), 0);
    assert_eq!(s.datasets().count(), 0);
    // And an accepted upload leaves nothing staged either.
    s.upload("ada", "good", &csv(10, 0), &IngestOptions::default()).unwrap();
    assert_eq!(s.staged_uploads(), 0);
}

#[test]
fn uploads_and_appends_leave_the_query_caches_as_they_found_them() {
    let mut s = service();
    s.set_cache_config(64, 3);
    s.upload("ada", "base", &csv(900, 0), &IngestOptions::default()).unwrap();
    let base = DatasetName::new("ada", "base");
    s.save_dataset("ada", "high", "SELECT id, reading FROM base WHERE reading > 100", Metadata::default())
        .unwrap();
    // A user's queries do fill the cache and heat the views...
    s.run_query("ada", "SELECT COUNT(*) FROM ada.high").unwrap();
    s.run_query("ada", "SELECT site, COUNT(*) FROM ada.base GROUP BY site").unwrap();
    let counters = |s: &SqlShare| {
        let c = s.cache_stats();
        (c.result_entries, c.result_bytes, c.view_hits, c.materializations)
    };
    let before = counters(&s);
    assert!(before.0 == 2 && before.1 > 0 && before.2 == 3, "{before:?}");
    // ...the service's own preview reads do neither: an upload leaves
    // every counter exactly as it found it.
    for i in 0..5 {
        s.upload("ada", &format!("batch{i}"), &csv(100, i), &IngestOptions::default()).unwrap();
        assert_eq!(counters(&s), before);
    }
    // An append redefines `base`, which drops the two results that read
    // it and restarts its own hit count — the hit on `high` stands. What
    // it must not do is add: no result parked for its UNION ALL preview
    // or for the refreshed preview of `high`, no hit for either.
    for i in 0..5 {
        let batch = DatasetName::new("ada", format!("batch{i}"));
        s.append("ada", &base, &batch, AppendMode::UnionAll).unwrap();
        assert_eq!(counters(&s), (0, 0, 1, 0));
    }
    assert_eq!(s.preview("ada", &base).unwrap().rows.len(), PREVIEW_ROWS);
}

#[test]
fn preview_of_a_large_upload_reads_its_head_only() {
    let mut s = service();
    s.upload("ada", "big", &csv(100_000, 1), &IngestOptions::default()).unwrap();
    let big = DatasetName::new("ada", "big");
    let preview = s.preview("ada", &big).unwrap();
    assert_eq!(preview.rows.len(), PREVIEW_ROWS);
    assert!(preview.truncated);
    // The plan the preview ran: every scan bounded to the preview plus
    // the one row that says "there is more".
    let bound = Some(PREVIEW_ROWS as u64 + 1);
    let sql = s.dataset(&big).unwrap().sql.clone();
    assert_eq!(preview_scan_bounds(&s, &sql), (vec![bound], PREVIEW_ROWS + 1));
    let head = s.engine().run_head(&sql, PREVIEW_ROWS as u64 + 1).unwrap();
    assert_eq!(head.rows[..PREVIEW_ROWS], s.preview("ada", &big).unwrap().rows[..]);
    // Appending keeps it so: both arms of the UNION ALL are bounded.
    s.upload("ada", "more", &csv(50_000, 2), &IngestOptions::default()).unwrap();
    s.append("ada", &big, &DatasetName::new("ada", "more"), AppendMode::UnionAll).unwrap();
    let sql = s.dataset(&big).unwrap().sql.clone();
    let (bounds, rows) = preview_scan_bounds(&s, &sql);
    assert_eq!(bounds, vec![bound; 2]);
    assert!(rows <= 2 * (PREVIEW_ROWS + 1));
}

#[test]
fn an_upload_costs_the_same_beside_ten_datasets_or_a_thousand() {
    // The same CSV into a service where its owner holds 10 datasets and
    // one where they hold 1,000 (and a neighbour holds as many): the
    // quota totals are sums of the tables' stored sizes over exactly the
    // owner's datasets. (`Table::estimated_bytes` reading a stored field
    // is `table::tests::size_is_a_stored_field_not_a_walk`.)
    let content = csv(300, 5);
    let mut usage = Vec::new();
    for held in [10, 1_000] {
        let mut s = service();
        for i in 0..held {
            s.upload("ada", &format!("d{i}"), &csv(3, i), &IngestOptions::default()).unwrap();
            s.upload("bob", &format!("d{i}"), &csv(4, i), &IngestOptions::default()).unwrap();
        }
        let (count, bytes) = s.usage_of("ada");
        assert_eq!((count, bytes), recount(&s, "ada"));
        assert_eq!(count, held);
        let (_, report) = s.upload("ADA", "subject", &content, &IngestOptions::default()).unwrap();
        assert_eq!(report.rows, 300);
        let after = s.usage_of("Ada");
        assert_eq!(after, recount(&s, "ada"));
        assert_eq!(s.usage_of("bob"), recount(&s, "bob"));
        usage.push((after.0 - count, after.1 - bytes));
    }
    assert_eq!(usage[0], usage[1]);
    assert_eq!(usage[0].0, 1);
}

#[test]
fn mutations_that_move_no_generation_change_no_preview() {
    let mut s = service();
    s.upload("ada", "base", &csv(150, 0), &IngestOptions::default()).unwrap();
    let base = DatasetName::new("ada", "base");
    let view = s
        .save_dataset("ada", "v", "SELECT id FROM base WHERE id > 10", Metadata::default())
        .unwrap();
    let previews = |s: &SqlShare| -> Vec<String> {
        s.datasets().map(|d| format!("{:?}", d.preview)).collect()
    };
    let before = previews(&s);
    let generation = s.engine().catalog().generation();
    s.set_visibility("ada", &base, Visibility::Public).unwrap();
    s.set_visibility("ada", &view, Visibility::Public).unwrap();
    s.set_metadata("ada", &view, Metadata { description: "d".into(), tags: vec![] }).unwrap();
    s.mint_doi("ada", &view).unwrap();
    s.register_user("cy", "cy@uw.edu").unwrap();
    s.set_admin("cy", true).unwrap();
    s.advance_days(2);
    assert_eq!(s.engine().catalog().generation(), generation);
    assert_eq!(previews(&s), before);
    // A mutation that does move one still reaches the downstream preview.
    s.upload("ada", "more", &csv(20, 1), &IngestOptions::default()).unwrap();
    s.append("ada", &base, &DatasetName::new("ada", "more"), AppendMode::UnionAll).unwrap();
    let v = s.preview("ada", &view).unwrap();
    assert!(v.truncated);
    assert_ne!(previews(&s), before);
}

#[derive(Debug, Clone)]
enum Step {
    Upload(usize, usize),
    Append(usize, usize),
    Materialize(usize),
    Delete(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8, 1usize..40).prop_map(|(d, rows)| Step::Upload(d, rows)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Step::Append(a, b)),
        (0usize..8).prop_map(Step::Materialize),
        (0usize..8).prop_map(Step::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of uploads, appends, materializations and
    /// deletes — and after reopening the directory — the totals the
    /// quota check reads equal a recount over the rows.
    #[test]
    fn quota_totals_equal_a_recount(steps in proptest::collection::vec((step(), any::<bool>()), 1..40), case in any::<u32>()) {
        let dir = std::env::temp_dir().join(format!("sqlshare-quota-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurableOptions::new(&dir).fsync(FsyncPolicy::Off).snapshot_every(7);
        let mut s = SqlShare::open(options.clone()).unwrap();
        s.register_user("ada", "a@uw.edu").unwrap();
        s.register_user("bob", "b@uw.edu").unwrap();
        for (i, (step, as_bob)) in steps.iter().enumerate() {
            let user = if *as_bob { "bob" } else { "ada" };
            let name = |d: usize| DatasetName::new(user, format!("d{d}"));
            // Rejections (name taken, unknown dataset) are part of the walk.
            let _ = match step {
                Step::Upload(d, rows) => s
                    .upload(user, &format!("d{d}"), &csv(*rows, i), &IngestOptions::default())
                    .map(|_| ()),
                Step::Append(a, b) => s.append(user, &name(*a), &name(*b), AppendMode::UnionAll),
                Step::Materialize(d) => s.materialize(user, &name(*d), &format!("d{}", d + 8)).map(|_| ()),
                Step::Delete(d) => s.delete_dataset(user, &name(*d)),
            };
            for user in ["ada", "bob"] {
                prop_assert_eq!(s.usage_of(user), recount(&s, user));
            }
        }
        let live = (s.usage_of("ada"), s.usage_of("bob"), s.stored_bytes());
        drop(s);
        let reopened = SqlShare::open(options).unwrap();
        prop_assert_eq!((reopened.usage_of("ada"), reopened.usage_of("bob"), reopened.stored_bytes()), live);
        prop_assert_eq!(reopened.usage_of("ada"), recount(&reopened, "ada"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The position of a durable service: what a rejected mutation must
/// leave exactly as it found it.
fn position(s: &SqlShare) -> (u64, u64, String) {
    let clock = s.replication_snapshot().get("clock").expect("snapshot clock").to_string();
    (s.last_lsn(), s.durable_digest(), clock)
}

fn durable(tag: &str, snapshot_every: u64) -> (std::path::PathBuf, DurableOptions) {
    let dir = std::env::temp_dir().join(format!("sqlshare-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurableOptions::new(&dir).fsync(FsyncPolicy::Off).snapshot_every(snapshot_every);
    (dir, options)
}

/// The three rejections that took an LSN: a view that does not bind, a
/// view named like another dataset's base table, and an upload whose
/// base table is named like an existing view. Each is refused by the
/// validate stage — nothing journaled, nothing for recovery to fail on.
#[test]
fn a_rejected_mutation_takes_no_lsn() {
    let (dir, options) = durable("rejected", u64::MAX);
    let mut s = SqlShare::open(options.clone()).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload("ada", "x", &csv(5, 0), &IngestOptions::default()).unwrap();
    s.save_dataset("ada", "y$base", "SELECT id FROM x", Metadata::default()).unwrap();
    let before = position(&s);
    assert_eq!(before.0, 3);

    let err = s.save_dataset("ada", "v", "SELECT * FROM nonexistent", Metadata::default()).unwrap_err();
    assert_eq!(err.kind(), "binding", "{err}");
    let err = s.save_dataset("ada", "x$base", "SELECT id FROM x", Metadata::default()).unwrap_err();
    assert_eq!(err.kind(), "catalog", "{err}");
    let err = s.upload("ada", "y", &csv(3, 1), &IngestOptions::default()).unwrap_err();
    assert_eq!(err.kind(), "catalog", "{err}");
    let err = s.materialize("ada", &DatasetName::new("ada", "x"), "y").unwrap_err();
    assert_eq!(err.kind(), "catalog", "{err}");
    assert_eq!(position(&s), before);

    drop(s);
    let reopened = SqlShare::open(options).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!((report.replayed_records, report.failed_records, report.last_lsn), (3, 0, 3));
    assert_eq!(reopened.durable_digest(), before.1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dataset names chosen to collide: with each other by case, with the
/// base table of another (`x$base` is where `x` keeps its rows), and —
/// since each is tried as both users — with the other user's datasets.
const NAMES: [&str; 8] = ["x", "X", "x$base", "y", "y$base", "Y$Base", "v", "v$base$base"];

/// View definitions: bindable, unbindable, unparsable, reading the other
/// user's (usually private) data, and shaped to collide on append.
const VIEWS: [&str; 8] = [
    "SELECT id, reading FROM x WHERE id > 1",
    "SELECT * FROM y ORDER BY id",
    "SELECT * FROM nonexistent",
    "SELECT nope FROM x",
    "SELEC oops FROM",
    "SELECT * FROM ada.x",
    "SELECT * FROM bob.y",
    "SELECT site FROM x",
];

#[derive(Debug, Clone)]
enum Write {
    Upload(usize, usize),
    Save(usize, usize),
    Append(usize, usize),
    Materialize(usize, usize),
    Delete(usize),
    Visibility(usize, u8),
    Metadata(usize),
    Doi(usize),
}

fn write() -> impl Strategy<Value = Write> {
    let name = || 0usize..NAMES.len();
    prop_oneof![
        (name(), 1usize..12).prop_map(|(n, rows)| Write::Upload(n, rows)),
        (name(), 0usize..VIEWS.len()).prop_map(|(n, v)| Write::Save(n, v)),
        (name(), name()).prop_map(|(a, b)| Write::Append(a, b)),
        (name(), name()).prop_map(|(a, b)| Write::Materialize(a, b)),
        name().prop_map(Write::Delete),
        (name(), 0u8..3).prop_map(|(n, v)| Write::Visibility(n, v)),
        name().prop_map(Write::Metadata),
        name().prop_map(Write::Doi),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A mutation is journaled iff it is acknowledged: `Err` leaves the
    /// LSN, the durable state and the clock where they were, `Ok` takes
    /// exactly one LSN, and a reopened service replays every record
    /// without a failure into the same state.
    #[test]
    fn a_mutation_is_journaled_iff_it_is_acknowledged(
        steps in proptest::collection::vec((write(), any::<bool>(), any::<bool>()), 1..48),
        case in any::<u32>(),
    ) {
        // Half the walks cross snapshots; the other half keep every
        // record in the WAL, so reopening replays (and would count a
        // failure on) each of them.
        let cadence = if case.is_multiple_of(2) { 5 } else { u64::MAX };
        let (dir, options) = durable(&format!("iff-{case}"), cadence);
        let mut s = SqlShare::open(options.clone()).unwrap();
        s.register_user("ada", "a@uw.edu").unwrap();
        s.register_user("bob", "b@uw.edu").unwrap();
        let mut acknowledged = 2;
        for (i, (step, as_bob, on_own)) in steps.iter().enumerate() {
            let (user, other) = if *as_bob { ("bob", "ada") } else { ("ada", "bob") };
            // Owner-checked operations aim at the other user's datasets
            // half the time.
            let target = |n: usize| DatasetName::new(if *on_own { user } else { other }, NAMES[n]);
            let before = position(&s);
            let minted = matches!(step, Write::Doi(n) if s.dataset(&target(*n))
                .is_some_and(|d| d.metadata.tags.iter().any(|t| t.starts_with("doi:"))));
            let outcome = match step {
                Write::Upload(n, rows) => s
                    .upload(user, NAMES[*n], &csv(*rows, i), &IngestOptions::default())
                    .map(|_| ()),
                Write::Save(n, v) => s.save_dataset(user, NAMES[*n], VIEWS[*v], Metadata::default()).map(|_| ()),
                Write::Append(a, b) => s.append(user, &target(*a), &DatasetName::new(user, NAMES[*b]), AppendMode::UnionAll),
                Write::Materialize(a, b) => s.materialize(user, &target(*a), NAMES[*b]).map(|_| ()),
                Write::Delete(n) => s.delete_dataset(user, &target(*n)),
                Write::Visibility(n, v) => s.set_visibility(user, &target(*n), match v {
                    0 => Visibility::Private,
                    1 => Visibility::Public,
                    _ => Visibility::Shared(vec![other.to_string()]),
                }),
                Write::Metadata(n) => s.set_metadata(user, &target(*n), Metadata { description: format!("step {i}"), tags: vec![] }),
                Write::Doi(n) => s.mint_doi(user, &target(*n)).map(|_| ()),
            };
            match outcome {
                // Minting twice answers with the DOI already there.
                Ok(()) if minted => prop_assert_eq!(position(&s), before, "{:?}", step),
                Ok(()) => {
                    acknowledged += 1;
                    prop_assert_eq!(s.last_lsn(), before.0 + 1, "{:?} acknowledged", step);
                }
                Err(e) => prop_assert_eq!(position(&s), before, "{:?} rejected: {}", step, e),
            }
        }
        let live = position(&s);
        prop_assert_eq!(live.0, acknowledged);
        drop(s);
        let reopened = SqlShare::open(options).unwrap();
        let report = reopened.recovery_report().unwrap();
        prop_assert_eq!(report.failed_records, 0);
        prop_assert_eq!(report.last_lsn, acknowledged);
        if cadence == u64::MAX {
            prop_assert_eq!(report.replayed_records, acknowledged);
        }
        prop_assert_eq!(position(&reopened), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Names and sizes of the files in `dir` whose names start with `prefix`.
fn files(dir: &std::path::Path, prefix: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .map(|e| (e.file_name().into_string().unwrap(), e.metadata().unwrap().len()))
        .collect();
    out.sort();
    out
}

/// A snapshot writes the rows of the tables born since the last one and
/// no others: each table is in exactly one segment, a snapshot with no
/// table born writes none, and under a create/drop churn the segments
/// hold at most twice the live tables' bytes (compaction) beside the
/// two manifests kept.
#[test]
fn a_snapshot_writes_only_the_tables_born_since_the_last() {
    let (dir, options) = durable("segments", 6);
    let mut s = SqlShare::open(options.clone()).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    for i in 0..20 {
        s.upload("ada", &format!("t{i}"), &csv(30 + i * 7, i), &IngestOptions::default())
            .unwrap();
    }
    let segments: Vec<String> = files(&dir, "segment-")
        .iter()
        .map(|(name, _)| std::fs::read_to_string(dir.join(name)).unwrap())
        .collect();
    assert!(segments.len() >= 3, "{} segments", segments.len());
    for i in 0..20 {
        let name = format!("\"name\":\"ada.t{i}$base\"");
        let copies: usize = segments.iter().map(|p| p.matches(&name).count()).sum();
        assert!(copies <= 1, "t{i} encoded {copies} times");
    }

    // Churn: each upload drops the table five before it.
    for i in 20..100 {
        s.upload("ada", &format!("t{i}"), &csv(20 + (i * 37) % 200, i), &IngestOptions::default())
            .unwrap();
        s.delete_dataset("ada", &DatasetName::new("ada", format!("t{}", i - 5)))
            .unwrap();
    }
    // Snapshots with no table born: the first may compact, no later one
    // writes a segment.
    let quiet = |s: &mut SqlShare, j: usize| {
        s.register_user(&format!("u{j}"), "u@uw.edu").unwrap();
        s.force_snapshot().unwrap();
    };
    quiet(&mut s, 0);
    let after_churn = files(&dir, "segment-");
    for j in 1..4 {
        quiet(&mut s, j);
        assert_eq!(files(&dir, "segment-"), after_churn, "quiet snapshot {j} wrote a segment");
    }
    let manifests = files(&dir, "snapshot-");
    assert_eq!(manifests.len(), 2, "{manifests:?}");

    // The live tables' bytes, from the newest manifest's references.
    let newest = &manifests.iter().max_by_key(|(n, _)| {
        n.trim_start_matches("snapshot-").trim_end_matches(".json").parse::<u64>().unwrap()
    });
    let text = std::fs::read_to_string(dir.join(&newest.unwrap().0)).unwrap();
    let doc = sqlshare_common::json::parse(&text[..text.rfind("\n#fnv64=").unwrap()]).unwrap();
    let tables = doc.get("state").unwrap().get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 20, "t0..t14 and the last five");
    let live: u64 = tables
        .iter()
        .map(|t| t.get("len").and_then(|l| l.as_f64()).expect("in a segment") as u64)
        .sum();
    const TRAILER: u64 = 25;
    let payloads: u64 = after_churn.iter().map(|(_, len)| len - TRAILER).sum();
    assert!(payloads <= 2 * live, "segments {payloads} B for {live} B of live tables");

    let digest = s.durable_digest();
    drop(s);
    assert_eq!(SqlShare::open(options).unwrap().durable_digest(), digest);
    let _ = std::fs::remove_dir_all(&dir);
}
