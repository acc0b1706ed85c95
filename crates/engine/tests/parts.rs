//! The engine's two `parts` enumerators: for a sample of every
//! [`BoundExpr`] and [`LogicalPlan`] variant the visited parts are exactly
//! its expression- and plan-typed fields, `parts_mut` visits the same
//! parts, and a rebuild that replaces every part by itself returns an
//! equal tree. Operands are marker columns `#0, #1, …`, inputs marker
//! scans `t0, t1`.

use sqlshare_engine::aggregate::{AggCall, AggFunc};
use sqlshare_engine::expr::BoundExpr;
use sqlshare_engine::functions::ScalarFunc;
use sqlshare_engine::logical::{LogicalPlan, Part, PartMut, SortKey};
use sqlshare_engine::window::{WinFunc, WindowCall};
use sqlshare_engine::{DataType, Schema, Value};
use sqlshare_sql::ast::{BinaryOp, JoinKind, SetOp};
use std::sync::Arc;

fn c(i: usize) -> BoundExpr {
    BoundExpr::Column(i)
}

fn b(i: usize) -> Box<BoundExpr> {
    Box::new(c(i))
}

fn schema() -> Schema {
    Schema::from_pairs([("k", DataType::Int)])
}

fn scan(i: usize) -> LogicalPlan {
    LogicalPlan::Scan {
        table: format!("t{i}"),
        schema: schema(),
    }
}

fn input(i: usize) -> Box<LogicalPlan> {
    Box::new(scan(i))
}

/// Exhaustive on purpose: a new variant must be named here, and then the
/// coverage test asks for its sample.
fn expr_variant(e: &BoundExpr) -> &'static str {
    match e {
        BoundExpr::Column(_) => "Column",
        BoundExpr::Literal(_) => "Literal",
        BoundExpr::Not(_) => "Not",
        BoundExpr::Neg(_) => "Neg",
        BoundExpr::Binary { .. } => "Binary",
        BoundExpr::Func { .. } => "Func",
        BoundExpr::Udf { .. } => "Udf",
        BoundExpr::Case { .. } => "Case",
        BoundExpr::Cast { .. } => "Cast",
        BoundExpr::IsNull { .. } => "IsNull",
        BoundExpr::InList { .. } => "InList",
        BoundExpr::InSet { .. } => "InSet",
        BoundExpr::Between { .. } => "Between",
        BoundExpr::Like { .. } => "Like",
        BoundExpr::ScalarSubquery(_) => "ScalarSubquery",
        BoundExpr::InSubquery { .. } => "InSubquery",
        BoundExpr::Exists { .. } => "Exists",
    }
}

const EXPR_VARIANTS: [&str; 17] = [
    "Column", "Literal", "Not", "Neg", "Binary", "Func", "Udf", "Case", "Cast", "IsNull",
    "InList", "InSet", "Between", "Like", "ScalarSubquery", "InSubquery", "Exists",
];

/// `(sample, number of operand expressions — markers #0.., subquery plans held)`.
fn expr_samples() -> Vec<(BoundExpr, usize, usize)> {
    vec![
        (c(0), 0, 0),
        (BoundExpr::Literal(Value::Int(1)), 0, 0),
        (BoundExpr::Not(b(0)), 1, 0),
        (BoundExpr::Neg(b(0)), 1, 0),
        (
            BoundExpr::Binary {
                left: b(0),
                op: BinaryOp::Add,
                right: b(1),
            },
            2,
            0,
        ),
        (
            BoundExpr::Func {
                func: ScalarFunc::Len,
                args: vec![c(0), c(1)],
            },
            2,
            0,
        ),
        (
            BoundExpr::Udf {
                name: "f".into(),
                args: vec![c(0), c(1), c(2)],
            },
            3,
            0,
        ),
        (
            BoundExpr::Case {
                operand: Some(b(0)),
                branches: vec![(c(1), c(2)), (c(3), c(4))],
                else_result: Some(b(5)),
            },
            6,
            0,
        ),
        (
            BoundExpr::Cast {
                expr: b(0),
                ty: DataType::Int,
                try_cast: false,
            },
            1,
            0,
        ),
        (
            BoundExpr::IsNull {
                expr: b(0),
                negated: true,
            },
            1,
            0,
        ),
        (
            BoundExpr::InList {
                expr: b(0),
                list: vec![c(1), c(2)],
                negated: false,
            },
            3,
            0,
        ),
        (
            BoundExpr::InSet {
                expr: b(0),
                values: vec![Value::Int(1)],
                negated: false,
            },
            1,
            0,
        ),
        (
            BoundExpr::Between {
                expr: b(0),
                low: b(1),
                high: b(2),
                negated: false,
            },
            3,
            0,
        ),
        (
            BoundExpr::Like {
                expr: b(0),
                pattern: b(1),
                negated: false,
            },
            2,
            0,
        ),
        (BoundExpr::ScalarSubquery(input(0)), 0, 1),
        (
            BoundExpr::InSubquery {
                expr: b(0),
                plan: input(0),
                negated: false,
            },
            1,
            1,
        ),
        (
            BoundExpr::Exists {
                plan: input(0),
                negated: false,
            },
            0,
            1,
        ),
    ]
}

fn markers(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("#{i}")).collect()
}

fn tables(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i}")).collect()
}

fn table_of(p: &LogicalPlan) -> String {
    match p {
        LogicalPlan::Scan { table, .. } => table.clone(),
        other => panic!("marker inputs are scans, got {other:?}"),
    }
}

#[test]
fn bound_expr_parts_are_exactly_its_fields() {
    let samples = expr_samples();
    for v in EXPR_VARIANTS {
        assert!(
            samples.iter().any(|(e, ..)| expr_variant(e) == v),
            "no sample for BoundExpr::{v}"
        );
    }
    for (sample, operands, plans) in samples {
        let (mut exprs, mut held) = (Vec::new(), Vec::new());
        sample.parts(&mut |part| match part {
            Part::Expr(e) => exprs.push(e.to_string()),
            Part::Plan(p) => held.push(table_of(p)),
        });
        assert_eq!(exprs, markers(operands), "{sample:?}");
        assert_eq!(held, tables(plans), "{sample:?}");
        assert_eq!(sample.holds_subquery(), plans > 0, "{sample:?}");

        let mut rebuilt = sample.clone();
        let (mut exprs, mut held) = (Vec::new(), Vec::new());
        rebuilt.parts_mut(&mut |part| match part {
            PartMut::Expr(e) => {
                exprs.push(e.to_string());
                *e = e.clone();
            }
            PartMut::Plan(p) => {
                held.push(table_of(p));
                *p = p.clone();
            }
        });
        assert_eq!(exprs, markers(operands), "{sample:?}");
        assert_eq!(held, tables(plans), "{sample:?}");
        assert_eq!(rebuilt, sample);
        assert_eq!(sample.remap_columns(&|i| i), sample);
    }
}

#[test]
fn column_rewrites_reach_every_operand() {
    for (sample, operands, _) in expr_samples() {
        if matches!(sample, BoundExpr::Column(_)) {
            continue;
        }
        // Shift every marker by 10, then substitute it back.
        let shifted = sample.remap_columns(&|i| i + 10);
        let mut seen = Vec::new();
        shifted.column_indexes(&mut seen);
        assert_eq!(seen, (10..10 + operands).collect::<Vec<_>>(), "{sample:?}");
        let mapping: Vec<BoundExpr> = (0..10 + operands).map(|i| c(i.saturating_sub(10))).collect();
        assert_eq!(shifted.substitute_columns(&mapping), sample);
    }
}

fn plan_variant(p: &LogicalPlan) -> &'static str {
    match p {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::CachedScan { .. } => "CachedScan",
        LogicalPlan::OneRow => "OneRow",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Window { .. } => "Window",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Top { .. } => "Top",
        LogicalPlan::Distinct { .. } => "Distinct",
        LogicalPlan::SetOp { .. } => "SetOp",
    }
}

const PLAN_VARIANTS: [&str; 12] = [
    "Scan", "CachedScan", "OneRow", "Filter", "Project", "Join", "Aggregate", "Window", "Sort",
    "Top", "Distinct", "SetOp",
];

/// `(sample, input plans — markers t0.., expression positions — markers #0..)`.
fn plan_samples() -> Vec<(LogicalPlan, usize, usize)> {
    vec![
        (scan(0), 0, 0),
        (
            LogicalPlan::CachedScan {
                name: "v".into(),
                schema: schema(),
                batch: Arc::default(),
            },
            0,
            0,
        ),
        (LogicalPlan::OneRow, 0, 0),
        (
            LogicalPlan::Filter {
                input: input(0),
                predicate: c(0),
            },
            1,
            1,
        ),
        (
            LogicalPlan::Project {
                input: input(0),
                exprs: vec![c(0), c(1)],
                schema: schema(),
            },
            1,
            2,
        ),
        (
            LogicalPlan::Join {
                left: input(0),
                right: input(1),
                kind: JoinKind::Inner,
                on: Some(c(0)),
                schema: schema(),
            },
            2,
            1,
        ),
        (
            LogicalPlan::Aggregate {
                input: input(0),
                group: vec![c(0), c(1)],
                aggs: vec![
                    AggCall {
                        func: AggFunc::Sum,
                        arg: Some(c(2)),
                        distinct: false,
                    },
                    AggCall {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    },
                    AggCall {
                        func: AggFunc::Max,
                        arg: Some(c(3)),
                        distinct: false,
                    },
                ],
                schema: schema(),
            },
            1,
            4,
        ),
        (
            LogicalPlan::Window {
                input: input(0),
                calls: vec![
                    WindowCall {
                        func: WinFunc::Agg(AggFunc::Sum),
                        args: vec![c(0)],
                        partition_by: vec![c(1), c(2)],
                        order_by: vec![(c(3), true)],
                    },
                    WindowCall {
                        func: WinFunc::Lag,
                        args: vec![c(4), c(5)],
                        partition_by: vec![c(6)],
                        order_by: vec![(c(7), false), (c(8), true)],
                    },
                ],
                schema: schema(),
            },
            1,
            9,
        ),
        (
            LogicalPlan::Sort {
                input: input(0),
                keys: vec![
                    SortKey {
                        expr: c(0),
                        desc: false,
                    },
                    SortKey {
                        expr: c(1),
                        desc: true,
                    },
                ],
            },
            1,
            2,
        ),
        (
            LogicalPlan::Top {
                input: input(0),
                quantity: 3,
                percent: false,
            },
            1,
            0,
        ),
        (LogicalPlan::Distinct { input: input(0) }, 1, 0),
        (
            LogicalPlan::SetOp {
                op: SetOp::Union,
                all: true,
                left: input(0),
                right: input(1),
                schema: schema(),
            },
            2,
            0,
        ),
    ]
}

#[test]
fn logical_plan_parts_are_its_inputs_and_every_expression_position() {
    let samples = plan_samples();
    for v in PLAN_VARIANTS {
        assert!(
            samples.iter().any(|(p, ..)| plan_variant(p) == v),
            "no sample for LogicalPlan::{v}"
        );
    }
    for (sample, inputs, exprs) in samples {
        let (mut plans, mut positions) = (Vec::new(), Vec::new());
        sample.parts(&mut |part| match part {
            Part::Plan(p) => plans.push(table_of(p)),
            Part::Expr(e) => positions.push(e.to_string()),
        });
        assert_eq!(plans, tables(inputs), "{sample:?}");
        assert_eq!(positions, markers(exprs), "{sample:?}");

        let mut rebuilt = sample.clone();
        let (mut plans, mut positions) = (Vec::new(), Vec::new());
        rebuilt.parts_mut(&mut |part| match part {
            PartMut::Plan(p) => {
                plans.push(table_of(p));
                *p = p.clone();
            }
            PartMut::Expr(e) => {
                positions.push(e.to_string());
                *e = e.clone();
            }
        });
        assert_eq!(plans, tables(inputs), "{sample:?}");
        assert_eq!(positions, markers(exprs), "{sample:?}");
        assert_eq!(rebuilt, sample);
        assert_eq!(sample.clone().map_inputs(&mut |p| p), sample);
    }
}
