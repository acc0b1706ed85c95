//! Cross-crate end-to-end test: the complete SQLShare story on one
//! service instance — messy upload through ingest, schema inference,
//! cleaning views, collaboration with ownership chains, appends,
//! snapshots, async query handles, and the query log feeding the
//! analysis pipeline.

use sqlshare_core::{DatasetKind, DatasetName, Metadata, SqlShare, Visibility};
use sqlshare_ingest::IngestOptions;
use sqlshare_sql::rewrite::AppendMode;
use sqlshare_workload::extract::extract_corpus;
use sqlshare_workload::users::view_depths;

#[test]
fn full_platform_walkthrough() {
    let mut s = SqlShare::new();
    s.register_user("howe", "howe@uw.edu").unwrap();
    s.register_user("jain", "jain@uw.edu").unwrap();

    // --- messy upload -----------------------------------------------------
    let csv = "\
7,0.5,0.31,ok
7,1.5,-999,bad
9,0.5,0.44,ok
9,1.5,0.51
11,0.5,NA,ok
";
    let (raw, report) = s
        .upload("howe", "armbrust lab nutrients", csv, &IngestOptions::default())
        .unwrap();
    assert!(!report.header_used);
    assert_eq!(report.default_names_assigned, 4);
    assert_eq!(report.padded_rows, 1);

    // --- schematize in SQL -------------------------------------------------
    let _clean = s
        .save_dataset(
            "howe",
            "nutrients_clean",
            "SELECT column0 AS station, column1 AS depth, \
             TRY_CAST(NULLIF(NULLIF(column2, '-999'), 'NA') AS FLOAT) AS nitrate \
             FROM [armbrust lab nutrients]",
            Metadata {
                description: "cleaned".into(),
                tags: vec!["qc".into()],
            },
        )
        .unwrap();
    let layered = s
        .save_dataset(
            "howe",
            "station_means",
            "SELECT station, AVG(nitrate) AS mean_nitrate, COUNT(*) AS n \
             FROM howe.nutrients_clean GROUP BY station",
            Metadata::default(),
        )
        .unwrap();

    // Depths: clean=0 over upload, station_means=1 over clean.
    let depths = view_depths(&s);
    assert_eq!(depths["howe.nutrients_clean"], 0);
    assert_eq!(depths["howe.station_means"], 1);

    // --- results are right -------------------------------------------------
    let out = s
        .run_query("howe", "SELECT station, mean_nitrate, n FROM station_means ORDER BY station")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0][0].to_text(), "7");
    assert_eq!(out.rows[0][1].to_text(), "0.31"); // -999 nulled out
    assert_eq!(out.rows[2][0].to_text(), "11");
    assert!(out.rows[2][1].is_null()); // NA only

    // --- sharing with ownership chains --------------------------------------
    s.set_visibility("howe", &layered, Visibility::Shared(vec!["jain".into()]))
        .unwrap();
    let shared = s
        .run_query("jain", "SELECT COUNT(*) FROM howe.station_means")
        .unwrap();
    assert_eq!(shared.rows[0][0].to_text(), "3");
    assert!(s.run_query("jain", "SELECT * FROM howe.nutrients_clean").is_err());

    // jain derives over the shared view; sharing *that* breaks the chain.
    s.register_user("carol", "c@elsewhere.org").unwrap();
    let derived = s
        .save_dataset(
            "jain",
            "means_copy",
            "SELECT * FROM howe.station_means",
            Metadata::default(),
        )
        .unwrap();
    s.set_visibility("jain", &derived, Visibility::Shared(vec!["carol".into()]))
        .unwrap();
    assert!(s.run_query("carol", "SELECT * FROM jain.means_copy").is_err());

    // --- append + snapshot ---------------------------------------------------
    let (batch2, _) = s
        .upload(
            "howe",
            "nutrients_batch2",
            "13,0.5,0.29,ok\n",
            &IngestOptions::default(),
        )
        .unwrap();
    let snap = s.materialize("howe", &layered, "means_frozen").unwrap();
    s.append("howe", &raw, &batch2, AppendMode::UnionAll).unwrap();
    // Downstream views see the new station; the snapshot does not.
    let live = s
        .run_query("howe", "SELECT COUNT(*) FROM howe.station_means")
        .unwrap();
    assert_eq!(live.rows[0][0].to_text(), "4");
    let frozen = s
        .run_query("howe", "SELECT COUNT(*) FROM howe.means_frozen")
        .unwrap();
    assert_eq!(frozen.rows[0][0].to_text(), "3");
    assert_eq!(s.dataset(&snap).unwrap().kind, DatasetKind::Snapshot);

    // --- async handles -------------------------------------------------------
    let job = s
        .submit_query("howe", "SELECT TOP 2 station FROM howe.nutrients_clean ORDER BY station DESC")
        .unwrap();
    let status = s
        .wait_for_job(job, std::time::Duration::from_secs(10))
        .unwrap();
    assert!(matches!(status, sqlshare_core::JobStatus::Complete));
    assert_eq!(s.query_results(job).unwrap().rows.len(), 2);

    // --- the log is a research corpus ----------------------------------------
    let corpus = extract_corpus(s.log().entries());
    assert!(!corpus.is_empty());
    let with_agg = corpus
        .iter()
        .filter(|q| q.ops.iter().any(|o| o.contains("Aggregate")))
        .count();
    assert!(with_agg >= 2);
    // Every successful entry has a plan with costs.
    for q in &corpus {
        assert!(q.est_cost > 0.0, "query '{}' has no cost", q.sql);
        assert!(!q.tables.is_empty() || !q.sql.contains("FROM"));
    }

    // --- delete: lazily breaks dependents ------------------------------------
    s.delete_dataset("howe", &DatasetName::new("howe", "armbrust lab nutrients"))
        .unwrap();
    assert!(s.run_query("howe", "SELECT * FROM howe.nutrients_clean").is_err());
    // The snapshot survives: it has its own physical table.
    assert!(s.run_query("howe", "SELECT * FROM howe.means_frozen").is_ok());
}

#[test]
fn preview_is_served_from_cache_and_truncated() {
    let mut s = SqlShare::new();
    s.register_user("u", "u@x.edu").unwrap();
    let mut csv = String::from("k,v\n");
    for i in 0..250 {
        csv.push_str(&format!("{i},{}\n", i * 2));
    }
    s.upload("u", "big", &csv, &IngestOptions::default()).unwrap();
    let queries_before = s.log().len();
    let preview = s
        .preview("u", &DatasetName::new("u", "big"))
        .unwrap();
    assert_eq!(preview.rows.len(), 100);
    assert!(preview.truncated);
    // Serving the preview did not run (or log) a query.
    assert_eq!(s.log().len(), queries_before);
}

#[test]
fn ephemeral_mode_performs_zero_storage_io() {
    // The durability layer must cost nothing when no data directory is
    // configured: a full session of mutations and queries on an
    // ephemeral service may not touch the storage crate at all. I/O
    // counters are per-store (every WAL and snapshot store owns its own
    // `IoCounter`), so the guarantee is
    // structural — an ephemeral service constructs none of them, and
    // this test asserts those handles really are absent afterwards.
    let mut s = SqlShare::new();
    s.register_user("eve", "eve@x.edu").unwrap();
    s.upload("eve", "t", "a,b\n1,2\n3,4\n", &IngestOptions::default())
        .unwrap();
    s.save_dataset("eve", "v", "SELECT a FROM eve.t", Metadata::default())
        .unwrap();
    s.set_visibility("eve", &DatasetName::new("eve", "t"), Visibility::Public)
        .unwrap();
    s.materialize("eve", &DatasetName::new("eve", "v"), "frozen").unwrap();
    s.run_query("eve", "SELECT COUNT(*) FROM eve.t").unwrap();
    s.advance_days(3);
    s.delete_dataset("eve", &DatasetName::new("eve", "frozen")).unwrap();
    assert!(s.recovery_report().is_none());
    // No store, so no I/O counter that could even exist.
    assert!(
        s.wal_path().is_none() && s.querylog_path().is_none(),
        "ephemeral service opened a store"
    );
}
