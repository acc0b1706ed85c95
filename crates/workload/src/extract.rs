//! Phase 1 + Phase 2 extraction (Fig. 5 of the paper).
//!
//! Phase 1 already happened at query time: the engine's EXPLAIN produced
//! a cleaned JSON plan that the service stored in the log (the paper's
//! SHOWPLAN_XML → JSON step). This module is Phase 2: walk each JSON
//! plan and extract per-query metadata — operators, expressions, tables,
//! columns, filters, and costs — into an [`ExtractedQuery`] record, the
//! unit all later analyses consume.

use sqlshare_common::json::Json;
use sqlshare_core::{Outcome, QueryLogEntry};

/// Per-query metadata extracted from the plan (the paper's "query
/// catalog" row).
#[derive(Debug, Clone)]
pub struct ExtractedQuery {
    pub id: u64,
    pub user: String,
    /// Simulated day of execution.
    pub day: i32,
    /// Within-day sequence, for stable chronological ordering.
    pub sequence: u64,
    pub sql: String,
    /// ASCII character length of the query text (§6.1's naive metric).
    pub length: usize,
    pub runtime_micros: u64,
    pub result_rows: usize,
    /// Physical operator names in plan (pre-order) order.
    pub ops: Vec<String>,
    /// Number of distinct physical operators.
    pub distinct_ops: usize,
    /// Expression operator mnemonics (Table 4 accounting).
    pub expressions: Vec<String>,
    /// Base tables referenced.
    pub tables: Vec<String>,
    /// `(table, column)` pairs referenced.
    pub columns: Vec<(String, String)>,
    /// Rendered filter predicates across the plan.
    pub filters: Vec<String>,
    /// Optimizer total cost of the root.
    pub est_cost: f64,
    /// Highest `degreeOfParallelism` any plan node carries (1 for a
    /// fully serial plan — the paper-era backend likewise reports DOP
    /// only on Parallelism exchanges).
    pub max_dop: usize,
    /// Whether the rows were served from the result cache (no operator
    /// below the root actually ran).
    pub cache_hit: bool,
    /// Plan nodes that read a pinned hot-view result (`cached: true`
    /// Clustered Index Seeks spliced in by the materializer).
    pub cached_scans: usize,
    /// The JSON plan itself (for template extraction and reuse analysis).
    pub plan: Json,
}

/// Extract one successful log entry; returns `None` for failed queries
/// (they have no plan) — the paper's corpus likewise contains executed
/// queries.
pub fn extract_entry(entry: &QueryLogEntry) -> Option<ExtractedQuery> {
    let Outcome::Success {
        rows,
        runtime_micros,
    } = entry.outcome
    else {
        return None;
    };
    let plan = entry.plan_json.clone()?;
    let mut facts = PlanFacts::default();
    walk_plan(&plan, &mut facts);
    let PlanFacts {
        ops,
        expressions,
        mut tables,
        mut columns,
        filters,
        max_dop,
        cached_scans,
    } = facts;
    tables.sort();
    tables.dedup();
    columns.sort();
    columns.dedup();
    let mut distinct: Vec<&String> = ops.iter().collect();
    distinct.sort();
    distinct.dedup();
    Some(ExtractedQuery {
        id: entry.id,
        user: entry.user.clone(),
        day: entry.at.day,
        sequence: entry.at.sequence,
        sql: entry.sql.clone(),
        length: entry.sql.chars().count(),
        runtime_micros,
        result_rows: rows,
        distinct_ops: distinct.len(),
        ops,
        expressions,
        tables,
        columns,
        filters,
        est_cost: plan.get("total").and_then(Json::as_f64).unwrap_or(0.0),
        max_dop,
        cache_hit: entry.cache_hit,
        cached_scans,
        plan,
    })
}

/// Extract every successful query in a log.
pub fn extract_corpus(entries: impl IntoIterator<Item = QueryLogEntry>) -> Vec<ExtractedQuery> {
    entries.into_iter().filter_map(|e| extract_entry(&e)).collect()
}

/// Accumulators for one plan walk.
struct PlanFacts {
    ops: Vec<String>,
    expressions: Vec<String>,
    tables: Vec<String>,
    columns: Vec<(String, String)>,
    filters: Vec<String>,
    max_dop: usize,
    cached_scans: usize,
}

impl Default for PlanFacts {
    fn default() -> Self {
        PlanFacts {
            ops: Vec::new(),
            expressions: Vec::new(),
            tables: Vec::new(),
            columns: Vec::new(),
            filters: Vec::new(),
            // A plan with no Parallelism exchange is serial.
            max_dop: 1,
            cached_scans: 0,
        }
    }
}

fn walk_plan(node: &Json, facts: &mut PlanFacts) {
    if let Some(op) = node.get("physicalOp").and_then(Json::as_str) {
        facts.ops.push(op.to_string());
    }
    if let Some(dop) = node.get("degreeOfParallelism").and_then(Json::as_f64) {
        facts.max_dop = facts.max_dop.max(dop as usize);
    }
    if matches!(node.get("cached"), Some(Json::Bool(true))) {
        facts.cached_scans += 1;
    }
    if let Some(Json::Array(exprs)) = node.get("expressions") {
        for e in exprs {
            if let Some(s) = e.as_str() {
                facts.expressions.push(s.to_string());
            }
        }
    }
    if let Some(Json::Array(fs)) = node.get("filters") {
        for f in fs {
            if let Some(s) = f.as_str() {
                facts.filters.push(s.to_string());
            }
        }
    }
    if let Some(cols) = node.get("columns").and_then(Json::as_object) {
        for (table, col_list) in cols.iter() {
            facts.tables.push(table.to_string());
            if let Some(list) = col_list.as_array() {
                for c in list {
                    if let Some(name) = c.as_str() {
                        facts.columns.push((table.to_string(), name.to_string()));
                    }
                }
            }
        }
    }
    if let Some(children) = node.get("children").and_then(Json::as_array) {
        for c in children {
            walk_plan(c, facts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlshare_core::{Metadata, SqlShare};
    use sqlshare_ingest::IngestOptions;

    fn corpus() -> Vec<ExtractedQuery> {
        let mut s = SqlShare::new();
        s.register_user("ada", "a@uw.edu").unwrap();
        s.upload(
            "ada",
            "t",
            "k,v\n1,0.5\n2,0.7\n3,0.9\n",
            &IngestOptions::default(),
        )
        .unwrap();
        s.save_dataset(
            "ada",
            "big",
            "SELECT k, v FROM t WHERE v > 0.6",
            Metadata::default(),
        )
        .unwrap();
        s.run_query("ada", "SELECT COUNT(*) FROM t WHERE k > 1").unwrap();
        s.run_query("ada", "SELECT k, SUM(v) FROM big GROUP BY k ORDER BY k")
            .unwrap();
        let _ = s.run_query("ada", "SELECT broken FROM t");
        let log = s.log();
        extract_corpus(log.entries())
    }

    #[test]
    fn failures_are_skipped() {
        let c = corpus();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn operators_extracted() {
        let c = corpus();
        assert!(c[0].ops.contains(&"Clustered Index Seek".to_string()));
        assert!(c[0].ops.contains(&"Stream Aggregate".to_string()));
        assert!(c[1].ops.iter().any(|o| o == "Sort"));
        assert!(c[0].distinct_ops >= 2);
    }

    #[test]
    fn tables_and_columns_extracted() {
        let c = corpus();
        assert_eq!(c[0].tables, vec!["ada.t$base"]);
        assert!(c[0]
            .columns
            .iter()
            .any(|(t, col)| t == "ada.t$base" && col == "k"));
    }

    #[test]
    fn filters_and_costs_present() {
        let c = corpus();
        assert!(c[0].filters.iter().any(|f| f.contains("GT")));
        assert!(c[0].est_cost > 0.0);
        assert_eq!(c[0].length, c[0].sql.chars().count());
    }

    #[test]
    fn serial_plans_report_dop_one() {
        let c = corpus();
        assert!(c.iter().all(|q| q.max_dop == 1));
    }

    #[test]
    fn parallel_plans_report_degree_of_parallelism() {
        let mut s = SqlShare::new();
        s.register_user("ada", "a@uw.edu").unwrap();
        s.upload(
            "ada",
            "t",
            "k,v\n1,0.5\n2,0.7\n3,0.9\n",
            &IngestOptions::default(),
        )
        .unwrap();
        s.set_parallelism(4, 0.0);
        s.run_query("ada", "SELECT k, SUM(v) FROM t WHERE v > 0.1 GROUP BY k")
            .unwrap();
        let log = s.log();
        let c = extract_corpus(log.entries());
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].max_dop, 4);
        assert!(c[0]
            .ops
            .iter()
            .any(|o| o == "Parallelism (Gather Streams)"));
    }

    #[test]
    fn cache_hits_and_splices_flow_through() {
        let mut s = SqlShare::new();
        s.set_cache_config(64, 2);
        s.register_user("ada", "a@uw.edu").unwrap();
        s.upload(
            "ada",
            "t",
            "k,v\n1,0.5\n2,0.7\n3,0.9\n",
            &IngestOptions::default(),
        )
        .unwrap();
        s.save_dataset(
            "ada",
            "scaled",
            "SELECT k, v * 10 AS v10 FROM t",
            Metadata::default(),
        )
        .unwrap();
        let q = "SELECT SUM(v10) FROM scaled";
        s.run_query("ada", q).unwrap();
        s.run_query("ada", q).unwrap(); // result-cache hit, heats the view
        s.run_query("ada", "SELECT MAX(v10) FROM scaled").unwrap(); // spliced
        let log = s.log();
        let c = extract_corpus(log.entries());
        assert_eq!(c.len(), 3);
        assert!(!c[0].cache_hit);
        assert!(c[1].cache_hit, "repeat must extract as a cache hit");
        assert!(
            c[2].cached_scans >= 1,
            "hot-view splice must extract as a cached scan: ops {:?}",
            c[2].ops
        );
    }

    #[test]
    fn expression_ops_flow_through() {
        let c = corpus();
        // The second query computes SUM over a view with a comparison.
        assert!(c[1].expressions.iter().any(|e| e == "GT"));
    }
}
