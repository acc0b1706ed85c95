//! One function per table/figure, returning the rendered report section.

use crate::Workbench;
use sqlshare_common::text::{bar_chart, pct, thousands, TextTable};
use sqlshare_workload::diversity::max_workload_diversity;
use sqlshare_workload::entropy::entropy;
use sqlshare_workload::expressions::{expression_report, string_op_share};
use sqlshare_workload::idioms::{feature_usage, idiom_counts, sharing_stats};
use sqlshare_workload::lifetimes::{coverage_auc, coverage_curve, lifetimes_per_user, most_active_users};
use sqlshare_workload::metrics::{
    distinct_op_histogram, length_histogram, operator_frequency, query_means, workload_metadata,
};
use sqlshare_workload::reuse::reuse_analysis;
use sqlshare_workload::users::{
    classify_users, max_view_depth_per_user, queries_per_table, view_depth_buckets, UsagePattern,
};

fn header(id: &str, title: &str) -> String {
    format!("\n## {id} — {title}\n\n")
}

/// Table 2: workload and query metadata.
pub fn table2(wb: &Workbench) -> String {
    let mut out = header("Table 2", "Aggregate summary of SQLShare metadata");
    let meta = workload_metadata(&wb.sqlshare.service);
    let mut t = TextTable::new(["metric", "paper", "measured"]);
    t.row(["Users", "591", &thousands(meta.users as u64)]);
    t.row(["Tables", "3891", &thousands(meta.tables as u64)]);
    t.row(["Columns", "73070", &thousands(meta.columns as u64)]);
    t.row(["Views (datasets)", "7958", &thousands(meta.views as u64)]);
    t.row([
        "Non-trivial views",
        "4535",
        &thousands(meta.non_trivial_views as u64),
    ]);
    t.row(["Queries", "24275", &thousands(meta.queries as u64)]);
    out.push_str(&t.render());
    out.push('\n');

    let means = query_means(&wb.sqlshare_queries);
    let mut t = TextTable::new(["per-query mean", "paper", "measured"]);
    t.row([
        "Length (chars)",
        "217.32",
        &format!("{:.2}", means.length_chars),
    ]);
    t.row([
        "Runtime",
        "3175.38 s (Azure)",
        &format!("{:.0} us (in-process engine)", means.runtime_micros),
    ]);
    t.row([
        "# of operators",
        "18.12",
        &format!("{:.2}", means.operators),
    ]);
    t.row([
        "# distinct operators",
        "2.71",
        &format!("{:.2}", means.distinct_operators),
    ]);
    t.row([
        "# tables accessed",
        "2.31",
        &format!("{:.2}", means.tables_accessed),
    ]);
    t.row([
        "# columns accessed",
        "16.22",
        &format!("{:.2}", means.columns_accessed),
    ]);
    out.push_str(&t.render());
    out
}

/// Fig. 4: queries-per-table histogram.
pub fn fig4(wb: &Workbench) -> String {
    let mut out = header("Figure 4", "Distribution of queries per table");
    let buckets = queries_per_table(&wb.sqlshare_queries);
    let paper = [1351usize, 407, 358, 186, 1589];
    let mut t = TextTable::new(["queries per table", "paper (tables)", "measured (tables)"]);
    for ((label, measured), p) in buckets.iter().zip(paper) {
        t.row([label.as_str(), &thousands(p as u64), &thousands(*measured as u64)]);
    }
    out.push_str(&t.render());
    let total: usize = buckets.iter().map(|(_, c)| c).sum();
    let once = buckets.first().map(|(_, c)| *c).unwrap_or(0);
    let heavy = buckets.last().map(|(_, c)| *c).unwrap_or(0);
    out.push_str(&format!(
        "\nShape check: {} of tables accessed once, {} accessed >=5 times \
         (paper: ~35% and ~41% — two distinct use cases).\n",
        pct(once, total.max(1)),
        pct(heavy, total.max(1)),
    ));
    out
}

/// Fig. 6: max view depth for the 100 most active users.
pub fn fig6(wb: &Workbench) -> String {
    let mut out = header("Figure 6", "Max view depth for the most active users");
    let n = (100.0 * wb.config.scale).ceil().max(5.0) as usize;
    let top = most_active_users(&wb.sqlshare_queries, n);
    let per_user = max_view_depth_per_user(&wb.sqlshare.service, &top);
    let buckets = view_depth_buckets(&per_user);
    let items: Vec<(String, f64)> = buckets
        .iter()
        .map(|(l, c)| (format!("depth {l}"), *c as f64))
        .collect();
    out.push_str(&bar_chart(&items, 40));
    out.push_str(&format!(
        "\n(top {n} users; paper reports most users at depth 1-3 with a tail \
         reaching 8+)\n"
    ));
    out
}

/// Fig. 7: query length histograms, SQLShare vs SDSS.
pub fn fig7(wb: &Workbench) -> String {
    let mut out = header("Figure 7", "Query length (characters)");
    let ss = length_histogram(&wb.sqlshare_queries);
    let sdss = length_histogram(&wb.sdss_queries);
    let paper_ss = [28.0, 61.0, 6.0, 5.0]; // approximate bar readings
    let paper_sdss = [20.0, 78.0, 1.5, 0.5];
    let mut t = TextTable::new([
        "bucket",
        "paper SDSS %",
        "measured SDSS %",
        "paper SQLShare %",
        "measured SQLShare %",
    ]);
    for i in 0..4 {
        t.row([
            ss.buckets[i].0.as_str(),
            &format!("~{:.0}", paper_sdss[i]),
            &format!("{:.1}", sdss.buckets[i].1),
            &format!("~{:.0}", paper_ss[i]),
            &format!("{:.1}", ss.buckets[i].1),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: SQLShare has a heavier long-query tail (>1000 chars) \
         than SDSS; SDSS mass concentrates in one canned-length band.\n",
    );
    out
}

/// Fig. 8: distinct operators per query.
pub fn fig8(wb: &Workbench) -> String {
    let mut out = header("Figure 8", "Distinct physical operators per query");
    let ss = distinct_op_histogram(&wb.sqlshare_queries);
    let sdss = distinct_op_histogram(&wb.sdss_queries);
    let mut t = TextTable::new(["bucket", "SDSS %", "SQLShare %"]);
    for i in 0..3 {
        t.row([
            ss.buckets[i].0.as_str(),
            &format!("{:.1}", sdss.buckets[i].1),
            &format!("{:.1}", ss.buckets[i].1),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nShape check: SQLShare's >=8 share ({:.1}%) should exceed SDSS's \
         ({:.1}%) — the most complex SQLShare queries out-complex SDSS's.\n",
        ss.buckets[2].1, sdss.buckets[2].1
    ));
    out
}

/// Fig. 9: SQLShare operator frequency.
pub fn fig9(wb: &Workbench) -> String {
    let mut out = header(
        "Figure 9",
        "Most common physical operators, SQLShare (Clustered Index Scan excluded)",
    );
    let freq = operator_frequency(&wb.sqlshare_queries, &["Clustered Index Scan"]);
    let items: Vec<(String, f64)> = freq.iter().take(10).map(|(o, p)| (o.clone(), *p)).collect();
    out.push_str(&bar_chart(&items, 40));
    out.push_str(
        "\nPaper's top operators: Stream Aggregate 27.7, Clustered Index Seek 22.8, \
         Compute Scalar 13.9, Sort 11.1, Hash Match 9.2, Merge Join 7.0, \
         Nested Loops 4.9, Filter 1.8, Concatenation 1.6 (% of instances).\n",
    );
    out
}

/// Fig. 10: SDSS operator frequency.
pub fn fig10(wb: &Workbench) -> String {
    let mut out = header("Figure 10", "Most common physical operators, SDSS");
    let freq = operator_frequency(&wb.sdss_queries, &[]);
    let items: Vec<(String, f64)> = freq.iter().take(10).map(|(o, p)| (o.clone(), *p)).collect();
    out.push_str(&bar_chart(&items, 40));
    out.push_str(
        "\nPaper's top operators: Compute Scalar 18.0, Clustered Index Seek 16.4, \
         Nested Loops 14.3, Sort 12.6, Index Seek 7.5, Clustered Index Scan 6.7, \
         Table-valued function 6.7, Table Scan 6.7, Sequence 6.7, Top 4.6.\n\
         Shape check: scalar computation (UDF-heavy) leads; aggregates are \
         rarer than in SQLShare.\n",
    );
    out
}

/// Table 3: workload entropy.
pub fn table3(wb: &Workbench) -> String {
    let mut out = header("Table 3", "Workload entropy");
    let ss = entropy(&wb.sqlshare_queries);
    let sdss = entropy(&wb.sdss_queries);
    let mut t = TextTable::new(["diversity metric", "SDSS", "SQLShare"]);
    t.row([
        "Total queries",
        &thousands(sdss.total_queries as u64),
        &thousands(ss.total_queries as u64),
    ]);
    t.row([
        "String distinct",
        &format!(
            "{} ({:.1}% of total; paper 3%)",
            thousands(sdss.string_distinct as u64),
            sdss.string_pct()
        ),
        &format!(
            "{} ({:.1}% of total; paper 96%)",
            thousands(ss.string_distinct as u64),
            ss.string_pct()
        ),
    ]);
    t.row([
        "Column distinct",
        &format!(
            "{} ({:.1}% of distinct; paper 0.2%)",
            thousands(sdss.column_distinct as u64),
            sdss.column_pct()
        ),
        &format!(
            "{} ({:.1}% of distinct; paper 45.35%)",
            thousands(ss.column_distinct as u64),
            ss.column_pct()
        ),
    ]);
    t.row([
        "Distinct query templates",
        &format!(
            "{} ({:.1}% of distinct; paper 0.3%)",
            thousands(sdss.template_distinct as u64),
            sdss.template_pct()
        ),
        &format!(
            "{} ({:.1}% of distinct; paper 63.07%)",
            thousands(ss.template_distinct as u64),
            ss.template_pct()
        ),
    ]);
    out.push_str(&t.render());
    out
}

/// Table 4: most common expression operators.
pub fn table4(wb: &Workbench) -> String {
    let mut out = header("Table 4", "Most common expression operators");
    let ss = expression_report(&wb.sqlshare_queries);
    let sdss = expression_report(&wb.sdss_queries);
    let mut t = TextTable::new(["rank", "SQLShare op", "count", "SDSS op", "count"]);
    for i in 0..10 {
        let a = ss.ranked.get(i);
        let b = sdss.ranked.get(i);
        t.row([
            format!("{}", i + 1),
            a.map(|(o, _)| o.clone()).unwrap_or_default(),
            a.map(|(_, c)| thousands(*c as u64)).unwrap_or_default(),
            b.map(|(o, _)| o.clone()).unwrap_or_default(),
            b.map(|(_, c)| thousands(*c as u64)).unwrap_or_default(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nDistinct expression operators: SQLShare {} (paper 89), SDSS {} (paper 49). \
         UDFs: SQLShare {} (paper 56), SDSS {} (paper 22). \
         String-op share of SQLShare expressions: {:.1}% \
         (paper: string operations dominate Table 4a).\n",
        ss.distinct_operators,
        sdss.distinct_operators,
        ss.distinct_udfs,
        sdss.distinct_udfs,
        string_op_share(&ss),
    ));
    out
}

/// Fig. 11: dataset lifetimes of the most active users.
pub fn fig11(wb: &Workbench) -> String {
    let mut out = header("Figure 11", "Dataset lifetimes, 12 most active users");
    let top = most_active_users(&wb.sqlshare_queries, 12);
    let lifetimes = lifetimes_per_user(&wb.sqlshare_queries, &top);
    let mut t = TextTable::new(["user", "datasets", "median life (d)", "p90 (d)", "max (d)"]);
    let mut short_lived = 0usize;
    let mut total = 0usize;
    for (user, lives) in &lifetimes {
        if lives.is_empty() {
            continue;
        }
        let median = lives[lives.len() / 2];
        let p90 = lives[lives.len() / 10];
        total += lives.len();
        short_lived += lives.iter().filter(|d| **d <= 10).count();
        t.row([
            user.clone(),
            lives.len().to_string(),
            median.to_string(),
            p90.to_string(),
            lives.first().copied().unwrap_or(0).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nShape check: {} of these users' datasets live <=10 days \
         (paper: 'the great majority of datasets are accessed across a span \
         of less [than] 10 days, but some are accessed across periods of years').\n",
        pct(short_lived, total.max(1)),
    ));
    out
}

/// Fig. 12: table coverage curves.
pub fn fig12(wb: &Workbench) -> String {
    let mut out = header("Figure 12", "Query coverage of uploaded data, 12 most active users");
    let top = most_active_users(&wb.sqlshare_queries, 12);
    let mut t = TextTable::new(["user", "queries", "tables", "coverage AUC"]);
    let mut ad_hoc = 0usize;
    for user in &top {
        let pts = coverage_curve(&wb.sqlshare_queries, user);
        if pts.is_empty() {
            continue;
        }
        let auc = coverage_auc(&pts);
        if auc < 0.75 {
            ad_hoc += 1;
        }
        let tables = (pts.last().unwrap().1 * 1000.0).round(); // denominator recovery not needed
        let _ = tables;
        t.row([
            user.clone(),
            pts.len().to_string(),
            "-".to_string(),
            format!("{auc:.2}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nAUC ~0.5 = slope-one diagonal (ad hoc: uploads interleave with \
         queries); AUC ~1.0 = conventional (upload first, query forever). \
         {ad_hoc}/12 most-active users are ad hoc here — the paper finds \
         'the ad hoc pattern dominates'.\n",
    ));
    out
}

/// Fig. 13: user classification scatter.
pub fn fig13(wb: &Workbench) -> String {
    let mut out = header("Figure 13", "Datasets vs queries per user");
    let users = classify_users(&wb.sqlshare.service, &wb.sqlshare_queries);
    let count = |p: UsagePattern| users.iter().filter(|u| u.pattern == p).count();
    let one_shot = count(UsagePattern::OneShot);
    let exploratory = count(UsagePattern::Exploratory);
    let analytical = count(UsagePattern::Analytical);
    let items = vec![
        ("One-shot".to_string(), one_shot as f64),
        ("Exploratory".to_string(), exploratory as f64),
        ("Analytical".to_string(), analytical as f64),
    ];
    out.push_str(&bar_chart(&items, 40));
    out.push_str(&format!(
        "\n{} users. Paper: most users sit near the queries≈datasets diagonal \
         (exploratory), a cluster of analytical users query few datasets \
         repeatedly, and a one-shot fringe uploads once and leaves.\n",
        users.len(),
    ));
    // A small sample of the scatter for eyeballing.
    let mut t = TextTable::new(["user", "datasets", "queries", "class"]);
    for u in users.iter().take(12) {
        t.row([
            u.user.clone(),
            u.datasets.to_string(),
            u.queries.to_string(),
            format!("{:?}", u.pattern),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// §5.1: schematization idioms.
pub fn sec51(wb: &Workbench) -> String {
    let mut out = header("Section 5.1", "Relaxed schemas afford integration");
    let idioms = idiom_counts(&wb.sqlshare.service);
    let meta = workload_metadata(&wb.sqlshare.service);
    let mut t = TextTable::new(["idiom", "paper", "measured"]);
    t.row([
        "Derived views inspected",
        "4535",
        &idioms.derived_views.to_string(),
    ]);
    t.row([
        "NULL injection (CASE->NULL)",
        "~220",
        &idioms.null_injection.to_string(),
    ]);
    t.row([
        "Post hoc column types (CAST)",
        "~200",
        &idioms.post_hoc_cast.to_string(),
    ]);
    t.row([
        "Vertical recomposition (UNION)",
        "~100",
        &idioms.vertical_recomposition.to_string(),
    ]);
    t.row([
        "Column renaming",
        "16% of datasets",
        &pct(idioms.column_renaming, meta.views.max(1)),
    ]);
    out.push_str(&t.render());

    // Ingest-side §3.1/§5.1 stats from the live datasets' base tables.
    let headerless = wb
        .sqlshare
        .service
        .datasets()
        .filter(|d| d.base_table.is_some())
        .filter(|d| {
            d.preview
                .as_ref()
                .map(|p| p.schema.columns.iter().any(|c| c.name.starts_with("column")))
                .unwrap_or(false)
        })
        .count();
    out.push_str(&format!(
        "\nUploads with at least one defaulted column name: {} of {} tables \
         (paper: 1996 of 3891, with 1691 entirely defaulted; 9% of uploads \
         used ragged-row padding).\n",
        headerless, meta.tables,
    ));
    out
}

/// §5.2: views and sharing.
pub fn sec52(wb: &Workbench) -> String {
    let mut out = header("Section 5.2", "Views afford controlled data sharing");
    let stats = sharing_stats(&wb.sqlshare.service);
    let mut t = TextTable::new(["metric", "paper", "measured"]);
    t.row([
        "Datasets derived from others (views)",
        "56%",
        &format!("{:.1}%", stats.derived_pct),
    ]);
    t.row(["Public datasets", "37%", &format!("{:.1}%", stats.public_pct)]);
    t.row([
        "Shared with specific users",
        "9%",
        &format!("{:.1}%", stats.shared_specific_pct),
    ]);
    t.row([
        "Views referencing non-owned data",
        "2.5%",
        &format!("{:.1}%", stats.cross_owner_view_pct),
    ]);
    t.row([
        "Queries touching non-owned data",
        ">10%",
        &format!("{:.1}%", stats.foreign_query_pct),
    ]);
    out.push_str(&t.render());
    out
}

/// §5.3: SQL feature usage.
pub fn sec53(wb: &Workbench) -> String {
    let mut out = header("Section 5.3", "Frequent SQL idioms");
    let usage = feature_usage(&wb.sqlshare_queries);
    let mut t = TextTable::new(["feature", "paper", "measured"]);
    t.row(["Sorting (ORDER BY)", "24%", &format!("{:.1}%", usage.sorting_pct)]);
    t.row(["Top-k", "2%", &format!("{:.1}%", usage.top_k_pct)]);
    t.row(["Outer join", "11%", &format!("{:.1}%", usage.outer_join_pct)]);
    t.row([
        "Window functions (OVER)",
        "4%",
        &format!("{:.1}%", usage.window_function_pct),
    ]);
    t.row(["Set operations", "-", &format!("{:.1}%", usage.set_operation_pct)]);
    t.row(["Subqueries", "-", &format!("{:.1}%", usage.subquery_pct)]);
    t.row(["GROUP BY", "-", &format!("{:.1}%", usage.group_by_pct)]);
    t.row(["CASE", "-", &format!("{:.1}%", usage.case_pct)]);
    t.row(["CAST", "-", &format!("{:.1}%", usage.cast_pct)]);
    out.push_str(&t.render());
    out
}

/// §6.2: reuse potential.
pub fn reuse(wb: &Workbench) -> String {
    let mut out = header("Section 6.2", "Reuse: compressible runtimes");
    let ss = reuse_analysis(&wb.sqlshare_queries);
    let sdss = reuse_analysis(&wb.sdss_queries);
    let mut t = TextTable::new(["workload", "paper saving", "measured saving", ">90% saved", "<10% saved"]);
    t.row([
        "SDSS (string-distinct)",
        "14%",
        &format!("{:.1}%", sdss.saved_pct()),
        &format!("{:.1}%", sdss.share_above(0.9)),
        &format!("{:.1}%", 100.0 - sdss.share_above(0.1)),
    ]);
    t.row([
        "SQLShare (string-distinct)",
        "37%",
        &format!("{:.1}%", ss.saved_pct()),
        &format!("{:.1}%", ss.share_above(0.9)),
        &format!("{:.1}%", 100.0 - ss.share_above(0.1)),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: most per-query savings are either >90% or <10%, so a small \
         cache with a good admission heuristic captures most of the benefit.\n",
    );
    out
}

/// §6.4: Mozafari-style workload diversity.
pub fn diversity(wb: &Workbench) -> String {
    let mut out = header("Section 6.4", "Chunked workload distance (Mozafari)");
    let top_ss = most_active_users(&wb.sqlshare_queries, 12);
    let top_sdss = most_active_users(&wb.sdss_queries, 12);
    let d_ss = max_workload_diversity(&wb.sqlshare_queries, &top_ss, 10);
    let d_sdss = max_workload_diversity(&wb.sdss_queries, &top_sdss, 10);
    let mut t = TextTable::new(["workload", "max chunk distance"]);
    t.row(["Mozafari et al. reference", "0.003"]);
    t.row(["SDSS (measured)", &format!("{d_sdss:.4}")]);
    t.row(["SQLShare (measured)", &format!("{d_ss:.4}")]);
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: SQLShare users exhibit orders of magnitude more \
         chunk-to-chunk diversity than the 0.003 reference.\n",
    );
    out
}

/// Corpus-level generation summary (not a paper exhibit; sanity context).
pub fn summary(wb: &Workbench) -> String {
    let mut out = header("Corpus", "Generation summary");
    out.push_str(&format!(
        "SQLShare: {} users, {} uploads, {} views, {} queries ({} failed), \
         {} deletions, {} appends, {} snapshots, {} stored bytes.\n",
        wb.sqlshare.stats.users,
        wb.sqlshare.stats.uploads,
        wb.sqlshare.stats.views_created,
        wb.sqlshare.stats.queries_attempted,
        wb.sqlshare.stats.queries_failed,
        wb.sqlshare.stats.deletions,
        wb.sqlshare.stats.appends,
        wb.sqlshare.stats.snapshots,
        wb.sqlshare.service.stored_bytes(),
    ));
    out.push_str(&format!(
        "SDSS: {} users, {} tables, {} queries ({} failed).\n",
        wb.sdss.stats.users,
        wb.sdss.stats.uploads,
        wb.sdss.stats.queries_attempted,
        wb.sdss.stats.queries_failed,
    ));
    out
}

/// Intra-query parallelism benchmark (not a paper exhibit): wall time of
/// scan-heavy join/aggregate queries at DOP 1 vs 2 vs 4 over a synthetic
/// star schema, reporting the speedup of the morsel-driven parallel
/// executor over the serial operators.
pub fn parallelism(_wb: &Workbench) -> String {
    use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
    use std::time::Instant;

    const FACT_ROWS: i64 = 120_000;
    const DIM_ROWS: i64 = 500;

    let mut engine = Engine::new();
    engine.set_max_dop(4);
    // Median-of-5 reruns must time the morsel executor, not the result
    // cache: a repeat that short-circuits to cached rows would report a
    // fake DOP speedup.
    engine.disable_cache();
    engine
        .create_table(Table::new(
            "facts",
            Schema::from_pairs([
                ("k", DataType::Int),
                ("v", DataType::Float),
                ("w", DataType::Float),
            ]),
            (0..FACT_ROWS)
                .map(|i| {
                    vec![
                        Value::Int(i % DIM_ROWS),
                        Value::Float((i % 977) as f64 * 0.25),
                        Value::Float((i % 31) as f64 - 15.0),
                    ]
                })
                .collect(),
        ))
        .unwrap();
    engine
        .create_table(Table::new(
            "dims",
            Schema::from_pairs([("id", DataType::Int), ("name", DataType::Text)]),
            (0..DIM_ROWS)
                .map(|i| vec![Value::Int(i), Value::Text(format!("dim{i}"))])
                .collect(),
        ))
        .unwrap();

    // The first entry is the headline scan-heavy join + aggregate
    // experiment the DOP-4 speedup target is measured on; the rest give
    // context for other plan shapes.
    let suite: &[(&str, &str)] = &[
        (
            "join+group-by",
            "SELECT d.name, COUNT(*) AS n, SUM(f.v) AS s FROM facts AS f \
             JOIN dims AS d ON f.k = d.id GROUP BY d.name",
        ),
        (
            "join+agg",
            "SELECT COUNT(*) AS n, SUM(f.v) AS s FROM facts AS f \
             JOIN dims AS d ON f.k = d.id WHERE f.w > -10.0",
        ),
        (
            "group-by",
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, MAX(w) AS hi FROM facts \
             WHERE w > -14.0 GROUP BY k",
        ),
    ];

    /// Median-of-5 wall time at a fixed DOP, after one warmup run.
    fn time_at(engine: &Engine, sql: &str, dop: usize) -> (f64, usize) {
        let rows = engine.run_with_dop(sql, dop).unwrap().rows.len();
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                engine.run_with_dop(sql, dop).unwrap();
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        (samples[2], rows)
    }

    let mut out = header("Parallelism", "Morsel-driven parallel execution speedup");
    let mut t = TextTable::new([
        "query",
        "rows out",
        "DOP 1 ms",
        "DOP 2 ms",
        "DOP 4 ms",
        "speedup (4x)",
    ]);
    let mut headline: f64 = 0.0;
    for (label, sql) in suite {
        assert_eq!(
            engine.plan_dop(sql),
            4,
            "{label} must plan parallel at a DOP cap of 4"
        );
        let (t1, rows) = time_at(&engine, sql, 1);
        let (t2, _) = time_at(&engine, sql, 2);
        let (t4, _) = time_at(&engine, sql, 4);
        let speedup = t1 / t4;
        if headline == 0.0 {
            headline = speedup;
        }
        t.row([
            label.to_string(),
            thousands(rows as u64),
            format!("{:.1}", t1 * 1e3),
            format!("{:.1}", t2 * 1e3),
            format!("{:.1}", t4 * 1e3),
            format!("{speedup:.2}x"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n{} fact rows joined against {} dimension rows; medians of 5 runs \
         after warmup. Headline join+group-by DOP-4 speedup: {headline:.2}x \
         (target >= 1.5x: {}).\n",
        thousands(FACT_ROWS as u64),
        thousands(DIM_ROWS as u64),
        if headline >= 1.5 { "met" } else { "MISSED" },
    ));
    out
}

/// Scheduler benchmark (not a paper exhibit): submit→complete latency
/// and throughput of the multi-tenant query scheduler at 1/4/8 worker
/// threads over a mixed four-tenant workload.
pub fn scheduler(_wb: &Workbench) -> String {
    use sqlshare_core::{SchedulerConfig, SqlShare};
    use sqlshare_ingest::IngestOptions;
    use std::time::{Duration, Instant};

    fn run_at(workers: usize) -> (u64, f64, f64, f64) {
        let mut s = SqlShare::with_scheduler(SchedulerConfig {
            workers,
            queue_capacity: 256,
            ..Default::default()
        });
        // The workload repeats three queries per tenant; with the result
        // cache on, later rounds would hit and mean-exec would measure
        // cache lookups instead of scheduler-driven execution.
        s.set_cache_config(0, 3);
        let tenants = ["ada", "bob", "carol", "dan"];
        let mut csv = String::from("n,v\n");
        for i in 0..64 {
            csv.push_str(&format!("{i},{}\n", (i * 7) % 10));
        }
        for t in tenants {
            s.register_user(t, &format!("{t}@example.com")).unwrap();
            s.upload(t, "nums", &csv, &IngestOptions::default()).unwrap();
        }
        let queries = [
            "SELECT COUNT(*) FROM nums",
            "SELECT v, COUNT(*) FROM nums GROUP BY v ORDER BY v",
            "SELECT COUNT(*) FROM nums a JOIN nums b ON a.v = b.v",
        ];
        let started = Instant::now();
        let mut jobs = 0u64;
        for round in 0..8 {
            for t in tenants {
                s.submit_query(t, queries[round % queries.len()]).unwrap();
                jobs += 1;
            }
        }
        assert!(s.scheduler().wait_idle(Duration::from_secs(120)));
        let wall = started.elapsed().as_secs_f64();
        let stats = s.scheduler_stats();
        assert_eq!(stats.totals.completed, jobs);
        let mean_wait: f64 = stats
            .tenants
            .values()
            .map(|t| t.mean_queue_wait_micros())
            .sum::<f64>()
            / stats.tenants.len() as f64;
        let mean_exec: f64 = stats
            .tenants
            .values()
            .map(|t| t.mean_exec_micros())
            .sum::<f64>()
            / stats.tenants.len() as f64;
        (jobs, wall, mean_wait, mean_exec)
    }

    let mut out = header("Scheduler", "Multi-tenant scheduler throughput");
    let mut t = TextTable::new([
        "workers",
        "jobs",
        "wall ms",
        "jobs/s",
        "mean queue wait ms",
        "mean exec ms",
    ]);
    for workers in [1usize, 4, 8] {
        let (jobs, wall, wait, exec) = run_at(workers);
        t.row([
            &workers.to_string(),
            &jobs.to_string(),
            &format!("{:.1}", wall * 1e3),
            &format!("{:.0}", jobs as f64 / wall),
            &format!("{:.2}", wait / 1e3),
            &format!("{:.2}", exec / 1e3),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: queue wait shrinks as workers grow; throughput \
         rises until the workload stops saturating the pool.\n",
    );
    out
}

/// Runs per timing in [`ablations`], each after one warm-up run.
const ABLATION_RUNS: usize = 15;

/// Median wall time of `run` over [`ABLATION_RUNS`] runs, after one
/// warm-up run.
fn median_of_runs<T>(mut run: impl FnMut() -> T) -> std::time::Duration {
    std::hint::black_box(run());
    let mut samples: Vec<std::time::Duration> = (0..ABLATION_RUNS)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(run());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[ABLATION_RUNS / 2]
}

/// Distinct keys in `keys`.
fn distinct<K: Eq + std::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
    keys.collect::<std::collections::HashSet<_>>().len()
}

/// Design-decision ablations (not paper exhibits; DESIGN.md §10): each
/// decision timed against its alternative on the same input. The first
/// variant of each ablation is the decision the system makes.
pub fn ablations(wb: &Workbench) -> String {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlshare_core::{DatasetName, Metadata, SqlShare};
    use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
    use sqlshare_ingest::parser::parse_delimited;
    use sqlshare_ingest::types::infer_types;
    use sqlshare_ingest::IngestOptions;
    use sqlshare_wlgen::tables::{generate_csv, Dirtiness};
    use sqlshare_workload::template::{equivalence_keys, template_hash};

    let mut rows: Vec<(&str, String, std::time::Duration)> = Vec::new();

    // §3.4: every table is clustered on all its columns, so a predicate
    // on the leading column is a seek; one of similar selectivity on
    // other columns scans. The result cache is off so every run plans
    // and executes.
    let mut engine = Engine::new();
    engine.disable_cache();
    engine
        .create_table(Table::new(
            "m",
            Schema::from_pairs([
                ("key", DataType::Int),
                ("value", DataType::Float),
                ("grp", DataType::Int),
                ("site", DataType::Text),
            ]),
            (0..10_000)
                .map(|i| {
                    vec![
                        Value::Int(i % 500),
                        Value::Float((i % 97) as f64 * 1.5),
                        Value::Int(i % 7),
                        Value::Text(format!("site_{}", i % 23)),
                    ]
                })
                .collect(),
        ))
        .unwrap();
    for (variant, predicate) in [
        ("seek", "key = 250"),
        ("scan", "grp = 3 AND site = 'site_9'"),
    ] {
        let sql = format!("SELECT * FROM m WHERE {predicate}");
        let plan = engine.explain(&sql).unwrap();
        let seeks = plan.operator_names().contains(&"Clustered Index Seek");
        assert_eq!(seeks, variant == "seek", "{sql}: wrong access path");
        let time = median_of_runs(|| engine.run(&sql).unwrap());
        rows.push((
            "clustered index (§3.4)",
            format!("{variant}: {predicate}"),
            time,
        ));
    }

    // §3.3: a dataset's preview is saved with it and served, instead of
    // re-running its query on every access. The result cache is off so
    // the re-run executes.
    let mut service = SqlShare::new();
    service.set_cache_config(0, 3);
    service.register_user("ada", "a@uw.edu").unwrap();
    let mut csv = String::from("k,v,g\n");
    for i in 0..20_000 {
        csv.push_str(&format!("{i},{},{}\n", (i * 13) % 997, i % 50));
    }
    service
        .upload("ada", "big", &csv, &IngestOptions::default())
        .unwrap();
    service
        .save_dataset(
            "ada",
            "big_summary",
            "SELECT g, COUNT(*) AS n, AVG(v) AS mean_v FROM big GROUP BY g",
            Metadata::default(),
        )
        .unwrap();
    for (ablation, name) in [
        ("preview, wrapper view (§3.3)", "big"),
        ("preview, aggregate view (§3.3)", "big_summary"),
    ] {
        let dataset = DatasetName::new("ada", name);
        let sql = format!("SELECT * FROM ada.{name}");
        let saved = median_of_runs(|| service.preview("ada", &dataset).unwrap().rows.len());
        let rerun = median_of_runs(|| service.run_query("ada", &sql).unwrap().rows.len());
        rows.push((ablation, "serve the saved preview".to_string(), saved));
        rows.push((ablation, format!("re-run {sql}"), rerun));
    }

    // §3.1: column types come from the first N rows, reverting to text
    // on a later mismatch. One messy 1,000 x 8 file (headerless, ragged,
    // sentinels, mixed types) at three prefixes; 100 is the default.
    let messy = generate_csv(
        &mut StdRng::seed_from_u64(7),
        8,
        1000,
        &Dirtiness {
            headerless: 1.0,
            ragged: 1.0,
            sentinel: 0.1,
            mixed_type: 0.5,
        },
    )
    .content;
    let records = parse_delimited(&messy, ',');
    for n in [100usize, 10, 1000] {
        let time = median_of_runs(|| infer_types(&records, n));
        rows.push(("type-inference prefix (§3.1)", format!("N = {n}"), time));
    }

    // Table 3: the template key against the cheaper string key and the
    // column-set key, over this corpus's extracted SQLShare queries.
    let queries = &wb.sqlshare_queries;
    let keys: [(&str, &dyn Fn() -> usize); 3] = [
        ("template", &|| distinct(queries.iter().map(template_hash))),
        ("string", &|| {
            distinct(queries.iter().map(|q| q.sql.as_str()))
        }),
        ("column set", &|| {
            distinct(queries.iter().map(|q| equivalence_keys(q).column_key))
        }),
    ];
    for (key, count) in keys {
        let time = median_of_runs(count);
        let variant = format!("{key}: {} distinct of {}", count(), queries.len());
        rows.push(("equivalence key (Table 3)", variant, time));
    }

    let mut out = header(
        "Ablations",
        &format!("Design decisions vs their alternatives (median of {ABLATION_RUNS} runs after a warm-up)"),
    );
    let mut t = TextTable::new(["ablation", "variant", "median us", "vs decision"]);
    let mut decision: Option<(&str, f64)> = None;
    for (ablation, variant, time) in &rows {
        let us = time.as_secs_f64() * 1e6;
        let base = match decision {
            Some((name, base)) if name == *ablation => base,
            _ => {
                decision = Some((ablation, us));
                us
            }
        };
        t.row([
            ablation.to_string(),
            variant.clone(),
            format!("{us:.1}"),
            format!("{:.2}x", us / base.max(1e-3)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe first variant of each ablation is the system's decision (DESIGN.md \
         §10); `vs decision` is the variant's median over the decision's. \
         Inputs: a 10,000-row table (§3.4), a 20,000-row dataset (§3.3), a \
         seeded 1,000 x 8 messy file (§3.1), this corpus's extracted SQLShare \
         queries (Table 3).\n",
    );
    out
}
