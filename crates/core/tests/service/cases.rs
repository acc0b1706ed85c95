// The cases of `service.rs`, compiled once per engine mode.

use sqlshare_core::{
    DatasetKind, DatasetName, Metadata, Outcome, SqlShare, Visibility,
};
use sqlshare_engine::Value;
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
    let entries = log.entries();
    let entry = entries.last().unwrap();
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
fn an_appended_batch_whose_column_infers_as_text_turns_the_column_to_text() {
    // The paper's workflow: an upload whose column infers as integers,
    // then an appended batch whose same column infers as text. The
    // appended view's column is their unified type, and every cell of
    // the preview has the type the dataset lists.
    let mut s = service();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "obs", "k\n3\n4\n", &IngestOptions::default()).unwrap();
    s.upload("ada", "obs_late", "k\na\n3\n", &IngestOptions::default()).unwrap();
    let obs = DatasetName::new("ada", "obs");
    s.append("ada", &obs, &DatasetName::new("ada", "obs_late"), AppendMode::UnionAll)
        .unwrap();
    let ds = s.dataset(&obs).unwrap();
    let preview = ds.preview.as_ref().unwrap();
    assert_eq!(preview.schema.types(), [sqlshare_engine::DataType::Text]);
    assert_eq!(preview.rows.len(), 4);
    for row in &preview.rows {
        for (v, c) in row.iter().zip(&preview.schema.columns) {
            assert_eq!(v.data_type(), Some(c.ty), "{v:?} in column '{}'", c.name);
        }
    }
    // 3 and '3' are one value of the column, and one group.
    let out = s.run_query("ada", "SELECT k, COUNT(*) FROM obs GROUP BY k").unwrap();
    let groups: Vec<(String, String)> =
        out.rows.iter().map(|r| (r[0].to_text(), r[1].to_text())).collect();
    assert_eq!(groups, [("3".into(), "2".into()), ("4".into(), "1".into()), ("a".into(), "1".into())]);
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

/// A result cached over a table does not outlive the table, and a table
/// re-created under its name is read afresh. The catalog keeps a
/// generation for each live relation only.
#[test]
fn a_cached_result_does_not_survive_its_table_being_dropped() {
    let mut s = service_with_ada();
    let sql = "SELECT COUNT(*), SUM(depth) FROM ada.sensors";
    let first = s.run_query("ada", sql).unwrap().rows;
    assert_eq!(s.run_query("ada", sql).unwrap().rows, first);
    let name = DatasetName::new("ada", "sensors");
    s.delete_dataset("ada", &name).unwrap();
    assert_eq!(s.run_query("ada", sql).unwrap_err().kind(), "binding");
    s.upload("ada", "sensors", "station,depth,nitrate\n9,100.0,1\n", &IngestOptions::default())
        .unwrap();
    let again = s.run_query("ada", sql).unwrap().rows;
    assert_eq!(again, vec![vec![Value::Int(1), Value::Float(100.0)]]);
    for i in 0..50 {
        let churn = DatasetName::new("ada", format!("c{i}"));
        s.upload("ada", &churn.name, SENSOR_CSV, &IngestOptions::default())
            .unwrap();
        s.delete_dataset("ada", &churn).unwrap();
    }
    let catalog = s.engine().catalog();
    let (_, generations) = catalog.export_generations();
    assert_eq!(generations.len(), catalog.table_count() + catalog.view_count());
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
    assert_eq!(reseeded.spill_dir(), built.spill_dir());
    assert!(reseeded.catalog().table("stale.gone$base").is_err());
    assert_eq!(reseeded.cache_stats().result_entries, 0);
    let out = standby.run_query("ada", "SELECT COUNT(*) FROM sensors").unwrap();
    assert_eq!(out.rows[0][0].to_text(), "3");
}

/// Two users, one private dataset each, and a table big enough for a
/// memory budget to matter.
fn service_for_the_log() -> SqlShare {
    let mut s = service_with_ada();
    s.register_user("bob", "bob@example.com").unwrap();
    let mut nums = String::from("n,label\n");
    for i in 0..3_000 {
        nums.push_str(&format!("{i},row-number-{i}\n"));
    }
    s.upload("ada", "nums", &nums, &IngestOptions::default()).unwrap();
    s
}

/// A budget the query exceeds as planned but fits under once degraded
/// to a serial, cache-bypassed run — if this mode has one (a mode that
/// already plans serially has nothing to degrade to).
fn budget_only_the_degraded_run_fits(sql: &str) -> Option<usize> {
    let probe = service_for_the_log();
    let canonical = probe.canonicalize("ada", sql).unwrap();
    (5..60).map(|step| step * (32 << 10)).find(|&bytes| {
        let mut engine = probe.engine().clone();
        engine.disable_cache();
        engine.set_query_mem_limit(bytes);
        matches!(engine.run(&canonical), Err(e) if e.kind() == "resource")
            && engine
                .run_degraded_with_cancel(&canonical, sqlshare_common::CancellationToken::new())
                .is_ok()
    })
}

/// `run_query` and `submit_query` are one pipeline: the same statements
/// through each, on two fresh services so neither warms the other's
/// caches, leave the same log — every field but the entry's id and
/// timestamp, its queue wait and its measured runtime.
#[test]
fn sync_and_async_queries_leave_the_same_log() {
    let join = "SELECT a.n, a.label, b.label FROM nums a JOIN nums b ON a.n = b.n";
    let degradable = budget_only_the_degraded_run_fits(join);
    if mode().name == "dop4_forced" {
        assert!(degradable.is_some(), "a forced-parallel join must have a degradable budget");
    }
    let statements = |budget: Option<usize>| -> Vec<(&'static str, &'static str, Option<usize>)> {
        let mut all = vec![
            ("ada", "SELECT COUNT(*) FROM sensors WHERE depth > 5.0", None),
            ("ada", "SELECT COUNT(*) FROM sensors WHERE depth > 5.0", None), // a cache hit
            ("ada", "SELEC oops FROM", None),
            ("bob", "SELECT * FROM ada.sensors", None),
            ("ada", "SELECT nope FROM sensors", None),
            // Memory-killed, and too big even for the degraded retry.
            ("ada", join, Some(16 << 10)),
        ];
        if let Some(bytes) = budget {
            // Memory-killed, and answered by the degraded retry.
            all.push(("ada", join, Some(bytes)));
        }
        all
    };

    let mut sync = service_for_the_log();
    let mut submitted = service_for_the_log();
    for (user, sql, budget) in statements(degradable) {
        for s in [&mut sync, &mut submitted] {
            s.set_query_mem_limit(budget.unwrap_or(usize::MAX));
        }
        let ran = sync.run_query(user, sql).map(|r| r.rows);
        let id = submitted.submit_query(user, sql).unwrap();
        let status = submitted.wait_for_job(id, std::time::Duration::from_secs(60)).unwrap();
        assert!(status.is_terminal(), "{sql}: {status:?}");
        let polled = submitted.query_results(id).map(|r| r.rows);
        assert_eq!(ran, polled, "{sql}");
    }

    let normalized = |s: &SqlShare| -> Vec<String> {
        s.log()
            .entries()
            .iter()
            .cloned()
            .map(|mut e| {
                e.id = 0;
                e.at = sqlshare_core::SimInstant { day: 0, sequence: 0 };
                e.queue_wait_micros = 0;
                if let Outcome::Success { runtime_micros, .. } = &mut e.outcome {
                    *runtime_micros = 0;
                }
                format!("{e:?}")
            })
            .collect()
    };
    let (sync_log, submitted_log) = (normalized(&sync), normalized(&submitted));
    assert_eq!(sync_log.len(), statements(degradable).len());
    for (a, b) in sync_log.iter().zip(&submitted_log) {
        assert_eq!(a, b);
    }
    assert_eq!(sync_log.len(), submitted_log.len());

    let log = sync.log();
    let entries = log.entries();
    assert!(entries[0].outcome.is_success() && !entries[0].cache_hit);
    assert_eq!(entries[1].cache_hit, mode().name != "cache_off");
    let kinds: Vec<_> = entries[2..6].iter().map(|e| e.outcome.clone()).collect();
    let error = |kind: &str| Outcome::Error(kind.into());
    assert_eq!(kinds, [error("parse"), error("permission"), error("binding"), error("resource")]);
    assert!(entries[5].degraded_retry && !entries[4].degraded_retry);
    if let Some(retried) = entries.get(6) {
        assert!(retried.degraded_retry && retried.outcome.is_success(), "{retried:?}");
        assert!(retried.plan_json.is_some() && retried.datasets == ["ada.nums"]);
    }
}
