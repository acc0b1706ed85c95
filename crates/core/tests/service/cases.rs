// The cases of `service.rs`, compiled once per engine mode.

use sqlshare_core::{
    DatasetKind, DatasetName, Metadata, Outcome, SqlShare, Visibility,
};
use sqlshare_ingest::{HeaderMode, IngestOptions};
use sqlshare_sql::rewrite::AppendMode;

const SENSOR_CSV: &str = "station,depth,nitrate\n1,5.0,0.31\n1,10.0,-999\n2,5.0,0.58\n";

/// An empty service whose engine runs in this copy's mode.
fn service() -> SqlShare {
    SqlShare::with_engine(mode().engine())
}

fn service_with_ada() -> SqlShare {
    let mut s = service();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "sensors", SENSOR_CSV, &IngestOptions::default())
        .unwrap();
    s
}

#[test]
fn upload_creates_dataset_with_preview() {
    let s = service_with_ada();
    let name = DatasetName::new("ada", "sensors");
    let ds = s.dataset(&name).unwrap();
    assert_eq!(ds.kind, DatasetKind::Uploaded);
    assert_eq!(ds.sql, "SELECT * FROM ada.sensors$base");
    let preview = ds.preview.as_ref().unwrap();
    assert_eq!(preview.rows.len(), 3);
    assert!(!preview.truncated);
}

#[test]
fn owner_queries_with_short_names() {
    let s = service_with_ada();
    let out = s
        .run_query("ada", "SELECT COUNT(*) FROM sensors WHERE depth > 5.0")
        .unwrap();
    assert_eq!(out.rows[0][0].to_text(), "1");
}

#[test]
fn qualified_names_work_for_everyone_public() {
    let mut s = service_with_ada();
    s.register_user("bob", "bob@example.com").unwrap();
    let name = DatasetName::new("ada", "sensors");
    // Private: bob is rejected...
    let err = s
        .run_query("bob", "SELECT * FROM ada.sensors")
        .unwrap_err();
    assert_eq!(err.kind(), "permission");
    // ...and the failure is logged.
    assert!(matches!(
        s.log().entries().last().unwrap().outcome,
        Outcome::Error(_)
    ));
    // Public: bob succeeds.
    s.set_visibility("ada", &name, Visibility::Public).unwrap();
    let out = s.run_query("bob", "SELECT * FROM ada.sensors").unwrap();
    assert_eq!(out.rows.len(), 3);
    let log = s.log();
    let entry = log.entries().last().unwrap();
    assert!(entry.touches_foreign_data);
    assert!(entry.plan_json.is_some());
}

#[test]
fn derived_views_and_unbroken_ownership_chain() {
    let mut s = service_with_ada();
    s.register_user("bob", "bob@example.com").unwrap();
    // Ada cleans her data in SQL (§5.1 idioms) and shares only the view.
    let clean = s
        .save_dataset(
            "ada",
            "sensors_clean",
            "SELECT station, depth, \
             CASE WHEN nitrate = -999 THEN NULL ELSE nitrate END AS nitrate \
             FROM sensors",
            Metadata {
                description: "nitrate with sentinels nulled".into(),
                tags: vec!["cleaning".into()],
            },
        )
        .unwrap();
    s.set_visibility("ada", &clean, Visibility::Shared(vec!["bob".into()]))
        .unwrap();
    // Bob reads through the view even though the base data is private.
    let out = s
        .run_query("bob", "SELECT COUNT(*) FROM ada.sensors_clean WHERE nitrate IS NULL")
        .unwrap();
    assert_eq!(out.rows[0][0].to_text(), "1");
    // But not the underlying dataset.
    assert!(s.run_query("bob", "SELECT * FROM ada.sensors").is_err());
}

#[test]
fn broken_ownership_chain_rejected() {
    let mut s = service_with_ada();
    s.register_user("bob", "bob@example.com").unwrap();
    s.register_user("carol", "carol@example.com").unwrap();
    let clean = s
        .save_dataset("ada", "v1", "SELECT station FROM sensors", Metadata::default())
        .unwrap();
    s.set_visibility("ada", &clean, Visibility::Shared(vec!["bob".into()]))
        .unwrap();
    // Bob derives v2 over ada.v1 and shares it with carol.
    let v2 = s
        .save_dataset("bob", "v2", "SELECT * FROM ada.v1", Metadata::default())
        .unwrap();
    s.set_visibility("bob", &v2, Visibility::Shared(vec!["carol".into()]))
        .unwrap();
    // Carol hits the broken chain (paper §3.2's exact scenario).
    let err = s.run_query("carol", "SELECT * FROM bob.v2").unwrap_err();
    assert!(err.to_string().contains("ownership chain broken"), "{err}");
    // Bob himself is fine.
    assert!(s.run_query("bob", "SELECT * FROM bob.v2").is_ok());
}

#[test]
fn append_rewrites_view_and_downstream_sees_new_rows() {
    let mut s = service_with_ada();
    // A downstream view exists before the append.
    s.save_dataset(
        "ada",
        "station_counts",
        "SELECT station, COUNT(*) AS n FROM sensors GROUP BY station",
        Metadata::default(),
    )
    .unwrap();
    s.upload(
        "ada",
        "sensors_june",
        "station,depth,nitrate\n3,5.0,0.12\n",
        &IngestOptions::default(),
    )
    .unwrap();
    s.append(
        "ada",
        &DatasetName::new("ada", "sensors"),
        &DatasetName::new("ada", "sensors_june"),
        AppendMode::UnionAll,
    )
    .unwrap();
    let ds = s.dataset(&DatasetName::new("ada", "sensors")).unwrap();
    assert!(ds.sql.contains("UNION ALL"));
    // Downstream view sees the new station with no changes (§3.2).
    let out = s
        .run_query("ada", "SELECT COUNT(*) FROM station_counts")
        .unwrap();
    assert_eq!(out.rows[0][0].to_text(), "3");
}

#[test]
fn append_schema_mismatch_rejected() {
    let mut s = service_with_ada();
    s.upload("ada", "two_cols", "a,b\n1,2\n", &IngestOptions::default())
        .unwrap();
    let err = s
        .append(
            "ada",
            &DatasetName::new("ada", "sensors"),
            &DatasetName::new("ada", "two_cols"),
            AppendMode::UnionAll,
        )
        .unwrap_err();
    assert!(err.to_string().contains("schema mismatch"));
}

#[test]
fn snapshot_is_isolated_from_source_changes() {
    let mut s = service_with_ada();
    let snap = s
        .materialize("ada", &DatasetName::new("ada", "sensors"), "sensors_snap")
        .unwrap();
    // Append new data to the source...
    s.upload(
        "ada",
        "more",
        "station,depth,nitrate\n9,1.0,0.5\n",
        &IngestOptions::default(),
    )
    .unwrap();
    s.append(
        "ada",
        &DatasetName::new("ada", "sensors"),
        &DatasetName::new("ada", "more"),
        AppendMode::UnionAll,
    )
    .unwrap();
    // ...the snapshot still has the old row count.
    let out = s.run_query("ada", "SELECT COUNT(*) FROM sensors_snap").unwrap();
    assert_eq!(out.rows[0][0].to_text(), "3");
    let out = s.run_query("ada", "SELECT COUNT(*) FROM sensors").unwrap();
    assert_eq!(out.rows[0][0].to_text(), "4");
    assert_eq!(s.dataset(&snap).unwrap().kind, DatasetKind::Snapshot);
}

#[test]
fn delete_leaves_dependents_failing_lazily() {
    let mut s = service_with_ada();
    s.save_dataset("ada", "v", "SELECT * FROM sensors", Metadata::default())
        .unwrap();
    s.delete_dataset("ada", &DatasetName::new("ada", "sensors"))
        .unwrap();
    let err = s.run_query("ada", "SELECT * FROM ada.v").unwrap_err();
    assert_eq!(err.kind(), "binding");
    // The dataset itself is gone.
    assert!(s.dataset(&DatasetName::new("ada", "sensors")).is_none());
}

#[test]
fn only_owner_may_share_delete_or_edit() {
    let mut s = service_with_ada();
    s.register_user("bob", "bob@example.com").unwrap();
    let name = DatasetName::new("ada", "sensors");
    assert!(s
        .set_visibility("bob", &name, Visibility::Public)
        .is_err());
    assert!(s.delete_dataset("bob", &name).is_err());
    assert!(s
        .set_metadata("bob", &name, Metadata::default())
        .is_err());
}

#[test]
fn async_query_handles() {
    use std::time::Duration;
    let s = service_with_ada();
    let id = s.submit_query("ada", "SELECT COUNT(*) FROM sensors").unwrap();
    // submit_query no longer blocks: poll until the job lands.
    let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, sqlshare_core::JobStatus::Complete));
    let result = s.query_results(id).unwrap();
    assert_eq!(result.rows[0][0].to_text(), "3");
    // Failed jobs report failure but are pollable.
    let id = s.submit_query("ada", "SELECT nope FROM sensors").unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, sqlshare_core::JobStatus::Failed(_)));
    assert!(s.query_results(id).is_err());
    assert!(s.query_status(9999).is_err());
    // Both jobs hit the log, with the queue-wait/runtime split recorded.
    let log = s.log();
    assert_eq!(log.len(), 2);
    assert!(log.entries().iter().all(|e| e.queue_wait_micros < 10_000_000));
}

#[test]
fn download_produces_csv() {
    let s = service_with_ada();
    let csv = s
        .download("ada", &DatasetName::new("ada", "sensors"))
        .unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next().unwrap(), "station,depth,nitrate");
    assert_eq!(csv.lines().count(), 4);
}

#[test]
fn headerless_upload_and_rename_in_sql() {
    let mut s = service_with_ada();
    s.upload(
        "ada",
        "mystery",
        "1,4.5\n2,6.7\n",
        &IngestOptions {
            header: HeaderMode::Auto,
            ..Default::default()
        },
    )
    .unwrap();
    // Default names assigned; the §5.1 renaming idiom fixes them.
    let renamed = s
        .save_dataset(
            "ada",
            "mystery_named",
            "SELECT column0 AS station, column1 AS temperature FROM mystery",
            Metadata::default(),
        )
        .unwrap();
    let ds = s.dataset(&renamed).unwrap();
    let preview = ds.preview.as_ref().unwrap();
    assert_eq!(preview.schema.names(), vec!["station", "temperature"]);
}

#[test]
fn query_log_records_everything() {
    let s = service_with_ada();
    s.run_query("ada", "SELECT * FROM sensors").unwrap();
    let _ = s.run_query("ada", "SELECT * FROM nope");
    let log = s.log();
    assert_eq!(log.len(), 2);
    let ok = &log.entries()[0];
    assert!(ok.outcome.is_success());
    assert_eq!(ok.tables, vec!["ada.sensors$base"]);
    assert_eq!(ok.datasets, vec!["ada.sensors"]);
    assert!(!ok.touches_foreign_data);
    let bad = &log.entries()[1];
    assert!(matches!(&bad.outcome, Outcome::Error(k) if k == "binding"));
}

#[test]
fn clock_advances_between_events() {
    let mut s = service_with_ada();
    s.run_query("ada", "SELECT 1").unwrap();
    s.advance_days(30);
    s.run_query("ada", "SELECT 2").unwrap();
    let log = s.log();
    let entries = log.entries();
    assert_eq!(
        entries[1].at.day - entries[0].at.day,
        30
    );
}

#[test]
fn duplicate_names_rejected() {
    let mut s = service_with_ada();
    assert!(s
        .upload("ada", "sensors", "a\n1\n", &IngestOptions::default())
        .is_err());
    assert!(s
        .save_dataset("ada", "sensors", "SELECT 1", Metadata::default())
        .is_err());
    assert!(s.register_user("ada", "x@y.edu").is_err());
}

#[test]
fn unknown_user_rejected_everywhere() {
    let mut s = service();
    assert!(s
        .upload("ghost", "d", "a\n1\n", &IngestOptions::default())
        .is_err());
    assert!(s.run_query("ghost", "SELECT 1").is_err());
}

#[test]
fn stored_bytes_reported() {
    let s = service_with_ada();
    assert!(s.stored_bytes() > 0);
}

#[test]
fn save_dataset_strips_order_by() {
    let mut s = service_with_ada();
    let name = s
        .save_dataset(
            "ada",
            "sorted_view",
            "SELECT station FROM sensors ORDER BY station",
            Metadata::default(),
        )
        .unwrap();
    assert!(!s.dataset(&name).unwrap().sql.contains("ORDER BY"));
    // With TOP, the ORDER BY is load-bearing and kept.
    let name = s
        .save_dataset(
            "ada",
            "top_view",
            "SELECT TOP 2 station FROM sensors ORDER BY depth DESC",
            Metadata::default(),
        )
        .unwrap();
    assert!(s.dataset(&name).unwrap().sql.contains("ORDER BY"));
}

#[test]
fn query_macros_substitute_tables() {
    let mut s = service_with_ada();
    s.upload(
        "ada",
        "sensors_b",
        "station,depth,nitrate\n5,1.0,0.2\n",
        &IngestOptions::default(),
    )
    .unwrap();
    let body = "SELECT COUNT(*) FROM $source WHERE depth >= $min_depth";
    let mut bindings = sqlshare_core::macros::MacroBindings::new();
    bindings.insert("source".into(), "ada.sensors".into());
    bindings.insert("min_depth".into(), "5.0".into());
    let a = s.run_macro("ada", body, &bindings).unwrap();
    assert_eq!(a.rows[0][0].to_text(), "3");
    // Same macro, different FROM binding — the §5.2 copy-paste pattern,
    // lifted into the interface.
    bindings.insert("source".into(), "ada.sensors_b".into());
    let b = s.run_macro("ada", body, &bindings).unwrap();
    assert_eq!(b.rows[0][0].to_text(), "0");
    // Missing bindings are a client error, not a parse error.
    bindings.remove("min_depth");
    assert!(s.run_macro("ada", body, &bindings).is_err());
}

#[test]
fn column_patterns_expand_against_schema() {
    let mut s = service();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload(
        "ada",
        "wide",
        "site,var_temp,var_sal,notes\n1,12.5,33.1,ok\n2,13.0,32.8,ok\n",
        &IngestOptions::default(),
    )
    .unwrap();
    let out = s
        .run_with_column_patterns(
            "ada",
            "SELECT site, CAST(var* AS FLOAT) AS $v FROM wide",
            &DatasetName::new("ada", "wide"),
        )
        .unwrap();
    assert_eq!(out.schema.names(), vec!["site", "var_temp", "var_sal"]);
    assert_eq!(out.rows.len(), 2);
    // No match is a clear error.
    assert!(s
        .run_with_column_patterns(
            "ada",
            "SELECT zz* FROM wide",
            &DatasetName::new("ada", "wide")
        )
        .is_err());
}

#[test]
fn doi_minting_requires_public_and_is_idempotent() {
    let mut s = service_with_ada();
    let name = DatasetName::new("ada", "sensors");
    // Private datasets cannot carry a resolvable identifier.
    assert!(s.mint_doi("ada", &name).is_err());
    s.set_visibility("ada", &name, Visibility::Public).unwrap();
    let doi = s.mint_doi("ada", &name).unwrap();
    assert!(doi.starts_with("10.5072/sqlshare."), "{doi}");
    // Idempotent: the same DOI comes back, and it is recorded as a tag.
    assert_eq!(s.mint_doi("ada", &name).unwrap(), doi);
    let tags = &s.dataset(&name).unwrap().metadata.tags;
    assert_eq!(tags.iter().filter(|t| t.starts_with("doi:")).count(), 1);
    // Only the owner mints.
    s.register_user("bob", "b@x.org").unwrap();
    assert!(s.mint_doi("bob", &name).is_err());
}

/// A standby reseeded from a primary's snapshot replaces its catalog,
/// not its configuration: executor, parallelism, cache budget and the
/// storage layer its tables live in are what it was built with.
#[test]
fn a_reseeded_standby_keeps_its_engine_settings() {
    let primary = service_with_ada();
    let mut standby = service();
    standby.register_user("stale", "stale@uw.edu").unwrap();
    standby.upload("stale", "gone", "x\n1\n", &IngestOptions::default()).unwrap();
    standby.run_query("stale", "SELECT COUNT(*) FROM gone").unwrap();
    standby.install_replica_snapshot(&primary.replication_snapshot()).unwrap();

    let (built, reseeded) = (mode().engine(), standby.engine());
    assert_eq!(reseeded.max_dop(), built.max_dop());
    assert_eq!(reseeded.vectorized(), built.vectorized());
    assert_eq!(reseeded.cache().result_budget(), built.cache().result_budget());
    let sql = "SELECT station, COUNT(*) FROM ada.sensors$base GROUP BY station";
    assert_eq!(reseeded.plan_dop(sql), primary.engine().plan_dop(sql));
    let table = reseeded.catalog().table("ada.sensors$base").unwrap();
    assert_eq!(table.paged().is_some(), built.storage().is_some());
    assert!(reseeded.catalog().table("stale.gone$base").is_err());
    assert_eq!(reseeded.cache_stats().result_entries, 0);
    let out = standby.run_query("ada", "SELECT COUNT(*) FROM sensors").unwrap();
    assert_eq!(out.rows[0][0].to_text(), "3");
}
