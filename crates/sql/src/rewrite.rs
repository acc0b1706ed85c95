//! Service-side SQL rewrites (§3.2, §3.5 of the paper).
//!
//! SQLShare applies a small set of automatic rewrites when queries become
//! datasets:
//!
//! * [`strip_order_by_for_view`] — "when creating a view, we automatically
//!   remove any ORDER BY clause to comply with the SQL standard" (§3.5).
//!   T-SQL permits ORDER BY in a view only together with TOP, so that case
//!   is preserved.
//! * [`append_union`] — the REST append call: "the query definition
//!   associated with E will be rewritten as (E) UNION (N)" (§3.2). We
//!   default to `UNION ALL` (an append must preserve duplicate rows) and
//!   expose the paper's literal `UNION` as an option.
//! * [`wrapper_view`] — the trivial `SELECT * FROM T` wrapper created for
//!   every uploaded base table (§3.2), which erases the table/view
//!   distinction and doubles as the starter query for novices.
//! * [`rename_tables`] — how the service resolves an owner's short
//!   dataset names (`FROM tides` for `ada.tides`) before binding and
//!   before a view's text is stored.

use crate::ast::{ObjectName, PartMut, Query, Select, SelectItem, SetExpr, SetOp, TableRef};
use crate::parser::parse_query;
use sqlshare_common::Result;

/// Duplicate handling for [`append_union`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppendMode {
    /// `UNION ALL`: keeps duplicates; the semantically correct append.
    #[default]
    UnionAll,
    /// Plain `UNION` as literally described in §3.2 (deduplicates).
    Union,
}

/// Strip a query-level ORDER BY when saving a query as a view, unless the
/// outermost SELECT has TOP (where ORDER BY is semantically load-bearing).
/// Returns the rewritten query and whether a clause was removed.
pub fn strip_order_by_for_view(query: &Query) -> (Query, bool) {
    if query.order_by.is_empty() {
        return (query.clone(), false);
    }
    let has_top = match &query.body {
        SetExpr::Select(s) => s.top.is_some(),
        SetExpr::SetOp { .. } => false,
    };
    if has_top {
        (query.clone(), false)
    } else {
        let mut stripped = query.clone();
        stripped.order_by.clear();
        (stripped, true)
    }
}

/// Build the trivial wrapper view `SELECT * FROM <table>` for an uploaded
/// base table.
pub fn wrapper_view(base_table: &ObjectName) -> Query {
    Query::from_select(Select {
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::Named {
            name: base_table.clone(),
            alias: None,
        }],
        ..Select::default()
    })
}

/// Rewrite dataset `existing`'s definition to additionally include the
/// rows of dataset `newly_uploaded`:
/// `(<existing definition>) UNION ALL SELECT * FROM <newly_uploaded>`.
///
/// The existing definition is parsed so the result is a well-formed AST
/// (the caller has already verified schema compatibility).
pub fn append_union(
    existing_definition: &str,
    newly_uploaded: &ObjectName,
    mode: AppendMode,
) -> Result<Query> {
    let existing = parse_query(existing_definition)?;
    // ORDER BY cannot appear under a set operation; views have had it
    // stripped already, but tolerate stragglers by stripping here too.
    let (existing, _) = strip_order_by_for_view(&existing);
    let new_branch = wrapper_view(newly_uploaded);
    Ok(Query {
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: mode == AppendMode::UnionAll,
            left: Box::new(existing.body),
            right: Box::new(new_branch.body),
        },
        order_by: Vec::new(),
    })
}

/// Rewrite table names via `f` (returning `Some` replaces) wherever the
/// query names one: FROM clauses, derived tables, and subqueries in any
/// expression position — the same positions [`Query::referenced_tables`]
/// reports to the permission check, since both are the one walk.
pub fn rename_tables(query: &mut Query, f: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
    PartMut::Query(query).walk(&mut |part| {
        if let PartMut::Table(TableRef::Named { name, alias }) = part {
            if let Some(new_name) = f(name) {
                // Keep the original short name visible as an alias so
                // column qualifiers keep resolving.
                if alias.is_none() {
                    *alias = Some(name.base().to_string());
                }
                *name = new_name;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_order_by_without_top() {
        let q = parse_query("SELECT a FROM t ORDER BY a").unwrap();
        let (stripped, removed) = strip_order_by_for_view(&q);
        assert!(removed);
        assert_eq!(stripped.to_string(), "SELECT a FROM t");
    }

    #[test]
    fn keeps_order_by_with_top() {
        let q = parse_query("SELECT TOP 10 a FROM t ORDER BY a DESC").unwrap();
        let (kept, removed) = strip_order_by_for_view(&q);
        assert!(!removed);
        assert_eq!(kept.to_string(), "SELECT TOP 10 a FROM t ORDER BY a DESC");
    }

    #[test]
    fn no_order_by_is_a_no_op() {
        let q = parse_query("SELECT a FROM t").unwrap();
        let (same, removed) = strip_order_by_for_view(&q);
        assert!(!removed);
        assert_eq!(same, q);
    }

    #[test]
    fn wrapper_view_renders() {
        let q = wrapper_view(&ObjectName::simple("sensor_data"));
        assert_eq!(q.to_string(), "SELECT * FROM sensor_data");
        let q = wrapper_view(&ObjectName(vec!["alice".into(), "raw 2013".into()]));
        assert_eq!(q.to_string(), "SELECT * FROM alice.[raw 2013]");
    }

    #[test]
    fn append_rewrites_to_union_all() {
        let q = append_union(
            "SELECT * FROM batch1",
            &ObjectName::simple("batch2"),
            AppendMode::UnionAll,
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT * FROM batch1 UNION ALL SELECT * FROM batch2"
        );
    }

    #[test]
    fn append_paper_mode_uses_plain_union() {
        let q = append_union(
            "SELECT * FROM batch1",
            &ObjectName::simple("batch2"),
            AppendMode::Union,
        )
        .unwrap();
        assert_eq!(q.to_string(), "SELECT * FROM batch1 UNION SELECT * FROM batch2");
    }

    #[test]
    fn append_chains_accumulate() {
        let first = append_union(
            "SELECT * FROM b1",
            &ObjectName::simple("b2"),
            AppendMode::UnionAll,
        )
        .unwrap();
        let second = append_union(
            &first.to_string(),
            &ObjectName::simple("b3"),
            AppendMode::UnionAll,
        )
        .unwrap();
        assert_eq!(
            second.to_string(),
            "SELECT * FROM b1 UNION ALL SELECT * FROM b2 UNION ALL SELECT * FROM b3"
        );
    }

    #[test]
    fn append_strips_inner_order_by() {
        let q = append_union(
            "SELECT a FROM t ORDER BY a",
            &ObjectName::simple("u"),
            AppendMode::UnionAll,
        )
        .unwrap();
        assert_eq!(q.to_string(), "SELECT a FROM t UNION ALL SELECT * FROM u");
    }
}
