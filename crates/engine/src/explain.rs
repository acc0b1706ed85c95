//! EXPLAIN output: physical plan → JSON, in the paper's Listing-1 format.
//!
//! The paper's Phase 1 (Fig. 5a) asks the backend for a SHOWPLAN_XML
//! document, cleans it, and stores a simplified JSON plan in the query
//! catalog. Our engine produces that JSON directly. Invisible operators
//! (trivial projections) are spliced out, like SHOWPLAN omits them.

use crate::physical::PhysicalPlan;
use sqlshare_common::json::{Json, JsonObject};

/// Serialize a plan tree to the Listing-1 JSON shape, with the query text
/// attached at the root.
pub fn plan_to_json(query: &str, plan: &PhysicalPlan) -> Json {
    let mut root = node_to_json(plan);
    // Attach the query at the front of the root object.
    let mut obj = JsonObject::new();
    obj.insert("query", Json::str(query));
    if let Json::Object(inner) = &root {
        for (k, v) in inner.iter() {
            obj.insert(k.to_string(), v.clone());
        }
    }
    root = Json::Object(obj);
    root
}

fn node_to_json(plan: &PhysicalPlan) -> Json {
    // Splice invisible nodes: their (data) children stand in for them.
    if !plan.visible {
        if let Some(first) = plan.children.first() {
            return node_to_json(first);
        }
    }
    let mut obj = JsonObject::new();
    obj.insert("physicalOp", Json::str(plan.physical_op.clone()));
    obj.insert("logicalOp", Json::str(plan.logical_op.clone()));
    obj.insert("io", Json::num(plan.est.io));
    obj.insert("cpu", Json::num(plan.est.cpu));
    obj.insert("rowSize", Json::num(plan.est.row_size));
    obj.insert("numRows", Json::num(plan.est.rows));
    obj.insert("total", Json::num(plan.total_cost()));
    if let Some(dop) = plan.degree_of_parallelism {
        obj.insert("degreeOfParallelism", Json::num(dop as f64));
    }
    // Hot-view splices read a pinned result instead of the base data; the
    // workload extractor passes this property through.
    if matches!(plan.op, crate::physical::PhysOp::CachedScan { .. }) {
        obj.insert("cached", Json::Bool(true));
    }
    if plan.batch_mode {
        obj.insert("batchMode", Json::Bool(true));
    }
    if !plan.filters.is_empty() {
        obj.insert(
            "filters",
            Json::Array(plan.filters.iter().map(|f| Json::str(f.clone())).collect()),
        );
    }
    if !plan.expr_ops.is_empty() {
        obj.insert(
            "expressions",
            Json::Array(
                plan.expr_ops
                    .iter()
                    .map(|e| Json::str(e.clone()))
                    .collect(),
            ),
        );
    }
    if !plan.columns.is_empty() {
        let mut by_table: Vec<(String, Vec<String>)> = Vec::new();
        for (t, c) in &plan.columns {
            match by_table.iter_mut().find(|(bt, _)| bt == t) {
                Some((_, cols)) => {
                    if !cols.contains(c) {
                        cols.push(c.clone());
                    }
                }
                None => by_table.push((t.clone(), vec![c.clone()])),
            }
        }
        let mut cols_obj = JsonObject::new();
        for (t, cols) in by_table {
            cols_obj.insert(t, Json::Array(cols.into_iter().map(Json::String).collect()));
        }
        obj.insert("columns", Json::Object(cols_obj));
    }
    let children: Vec<Json> = plan
        .children
        .iter()
        .flat_map(|c| {
            // An invisible child with no children of its own vanishes.
            if !c.visible && c.children.is_empty() {
                vec![]
            } else {
                vec![node_to_json(c)]
            }
        })
        .collect();
    obj.insert("children", Json::Array(children));
    Json::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Estimates;
    use crate::physical::PhysOp;

    fn leaf(name: &str, visible: bool) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::ConstantScan,
            physical_op: name.to_string(),
            logical_op: name.to_string(),
            visible,
            est: Estimates {
                rows: 3.0,
                io: 0.003125,
                cpu: 0.0001603,
                row_size: 31.0,
            },
            filters: vec!["income GT 500000".into()],
            expr_ops: vec![],
            columns: vec![("incomes".into(), "income".into())],
            degree_of_parallelism: None,
            batch_mode: false,
            types: vec![],
            children: vec![],
        }
    }

    #[test]
    fn listing_1_shape() {
        let plan = leaf("Clustered Index Seek", true);
        let json = plan_to_json("SELECT * FROM incomes WHERE income > 500000", &plan);
        assert_eq!(
            json.get("query").unwrap().as_str().unwrap(),
            "SELECT * FROM incomes WHERE income > 500000"
        );
        assert_eq!(
            json.get("physicalOp").unwrap().as_str().unwrap(),
            "Clustered Index Seek"
        );
        assert_eq!(json.get("numRows").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            json.get("filters").unwrap().as_array().unwrap()[0].as_str(),
            Some("income GT 500000")
        );
        assert!(json.get("children").unwrap().as_array().unwrap().is_empty());
        assert_eq!(
            json.get("columns")
                .unwrap()
                .get("incomes")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn invisible_nodes_are_spliced() {
        let mut invisible = leaf("Compute Scalar", false);
        invisible.children.push(leaf("Clustered Index Scan", true));
        let mut root = leaf("Sort", true);
        root.children.push(invisible);
        let json = plan_to_json("q", &root);
        let children = json.get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(
            children[0].get("physicalOp").unwrap().as_str().unwrap(),
            "Clustered Index Scan"
        );
    }
}
