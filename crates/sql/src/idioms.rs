//! Schematization idiom detection (§5.1 of the paper).
//!
//! SQLShare's bet is that users will "upload first, ask questions later"
//! and then use SQL itself to impose structure. The paper searches the
//! corpus of derived views for four idioms and reports their prevalence:
//!
//! * **NULL injection** (≈220 views): a `CASE` expression mapping sentinel
//!   values (`-999`, `'NA'`, `''`) to `NULL`, or `NULLIF`.
//! * **Post-hoc column types** (≈200 views): `CAST`/`TRY_CAST` applied to
//!   a column reference.
//! * **Vertical recomposition** (≈100 views): `UNION`/`UNION ALL` of
//!   selects over *different* tables, stitching a logically-single dataset
//!   back together.
//! * **Column renaming** (≈16% of datasets): a projection aliasing a bare
//!   column to a different name.

use crate::ast::*;

/// Which §5.1 idioms a view definition exhibits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchematizationIdioms {
    pub null_injection: bool,
    pub post_hoc_cast: bool,
    pub vertical_recomposition: bool,
    pub column_renaming: bool,
}

impl SchematizationIdioms {
    /// True if any idiom fired.
    pub fn any(&self) -> bool {
        self.null_injection
            || self.post_hoc_cast
            || self.vertical_recomposition
            || self.column_renaming
    }

    /// Detect idioms in a view definition.
    pub fn detect(query: &Query) -> Self {
        let mut idioms = SchematizationIdioms::default();

        query.walk_exprs(&mut |e| match e {
            // CASE with a NULL result arm, or NULLIF(...).
            Expr::Case {
                branches,
                else_result,
                ..
            } => {
                let arm_null = branches
                    .iter()
                    .any(|(_, v)| matches!(v, Expr::Literal(Literal::Null)));
                let else_null = matches!(
                    else_result.as_deref(),
                    Some(Expr::Literal(Literal::Null))
                );
                if arm_null || else_null {
                    idioms.null_injection = true;
                }
            }
            Expr::Function(call) if call.name.eq_ignore_ascii_case("NULLIF") => {
                idioms.null_injection = true;
            }
            // CAST applied (possibly through CASE/arithmetic) to a column.
            Expr::Cast { expr, .. } => {
                let mut touches_column = false;
                expr.walk(&mut |inner| {
                    if matches!(inner, Expr::Column(_)) {
                        touches_column = true;
                    }
                });
                if touches_column {
                    idioms.post_hoc_cast = true;
                }
            }
            _ => {}
        });

        idioms.vertical_recomposition = detect_vertical_recomposition(&query.body);
        idioms.column_renaming = detect_renaming(query);
        idioms
    }
}

/// UNION whose branches draw from at least two distinct base tables.
fn detect_vertical_recomposition(body: &SetExpr) -> bool {
    fn collect_union_branches<'a>(e: &'a SetExpr, out: &mut Vec<&'a SetExpr>) -> bool {
        match e {
            SetExpr::SetOp {
                op: SetOp::Union,
                left,
                right,
                ..
            } => {
                let l = collect_union_branches(left, out);
                let r = collect_union_branches(right, out);
                l && r
            }
            other => {
                out.push(other);
                true
            }
        }
    }
    let mut branches = Vec::new();
    if !collect_union_branches(body, &mut branches) || branches.len() < 2 {
        return false;
    }
    // Tables named directly in each branch's FROM (joins descended,
    // derived tables not entered).
    let mut tables: Vec<String> = Vec::new();
    for b in &branches {
        if let SetExpr::Select(s) = b {
            Part::Select(s).walk(&mut |part| match part {
                Part::Table(TableRef::Named { name, .. }) => {
                    tables.push(name.flat().to_ascii_lowercase());
                    false
                }
                Part::Table(_) => true,
                Part::Query(_) | Part::Select(_) | Part::Expr(_) => false,
            });
        }
    }
    tables.sort();
    tables.dedup();
    tables.len() >= 2
}

/// A projection item of the form `col AS other_name` (alias differs from
/// the column's own name).
fn detect_renaming(query: &Query) -> bool {
    let mut found = false;
    query.walk_selects(&mut |s| {
        for item in &s.projection {
            if let SelectItem::Expr {
                expr: Expr::Column(c),
                alias: Some(alias),
            } = item
            {
                if !alias.eq_ignore_ascii_case(&c.name) {
                    found = true;
                }
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn detect(sql: &str) -> SchematizationIdioms {
        SchematizationIdioms::detect(&parse_query(sql).unwrap())
    }

    #[test]
    fn null_injection_via_case() {
        let i = detect("SELECT CASE WHEN flag = '-999' THEN NULL ELSE flag END AS flag FROM raw");
        assert!(i.null_injection);
        let i = detect("SELECT CASE WHEN ok = 1 THEN v ELSE NULL END FROM raw");
        assert!(i.null_injection);
        let i = detect("SELECT CASE WHEN ok = 1 THEN v ELSE 0 END FROM raw");
        assert!(!i.null_injection);
    }

    #[test]
    fn null_injection_via_nullif() {
        assert!(detect("SELECT NULLIF(v, '-999') FROM raw").null_injection);
    }

    #[test]
    fn post_hoc_cast_requires_column() {
        assert!(detect("SELECT CAST(v AS FLOAT) FROM raw").post_hoc_cast);
        assert!(!detect("SELECT CAST('3' AS INT) FROM raw").post_hoc_cast);
        assert!(detect("SELECT CAST(CASE WHEN v = '' THEN NULL ELSE v END AS FLOAT) FROM raw")
            .post_hoc_cast);
    }

    #[test]
    fn vertical_recomposition_needs_distinct_tables() {
        assert!(detect("SELECT * FROM jan UNION ALL SELECT * FROM feb").vertical_recomposition);
        assert!(
            detect("SELECT * FROM jan UNION ALL SELECT * FROM feb UNION ALL SELECT * FROM mar")
                .vertical_recomposition
        );
        // Self-union is dataset-level dedup, not recomposition.
        assert!(!detect("SELECT * FROM t UNION SELECT * FROM t").vertical_recomposition);
        // INTERSECT is not recomposition.
        assert!(!detect("SELECT * FROM a INTERSECT SELECT * FROM b").vertical_recomposition);
    }

    #[test]
    fn renaming_detected() {
        assert!(detect("SELECT column0 AS station_id FROM raw").column_renaming);
        assert!(!detect("SELECT station_id AS station_id FROM raw").column_renaming);
        assert!(!detect("SELECT station_id FROM raw").column_renaming);
        // An aliased expression is a computation, not a rename.
        assert!(!detect("SELECT x + 1 AS y FROM raw").column_renaming);
    }

    #[test]
    fn any_aggregates() {
        assert!(!SchematizationIdioms::default().any());
        assert!(detect("SELECT column0 AS id FROM t").any());
    }
}
