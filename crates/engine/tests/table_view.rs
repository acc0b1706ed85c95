//! An in-memory table is its column batch in clustered order. These
//! properties pin what `Table` hands out against plain rows sorted with
//! `cmp_rows`, which never pass through `Batch`: the stored batch, its
//! prefixes, its leading-column seeks and its size.

use proptest::prelude::*;
use sqlshare_engine::table::cmp_rows;
use sqlshare_engine::{DataType, Row, Schema, Table, Value};
use std::ops::{Bound, Range};

/// Rows compared cell for cell, floats by their bits: `Value`'s equality
/// cannot tell NaN payloads or `-0.0` from `0.0` apart.
fn exact(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("Float({:016x})", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The ordinal range of `rows` (sorted) whose leading cell lies within
/// the bounds, found by `partition_point`.
fn leading_range(rows: &[Row], lower: Bound<&Value>, upper: Bound<&Value>) -> Range<usize> {
    let point = |v: &Value, keep: fn(std::cmp::Ordering) -> bool| {
        rows.partition_point(|r| keep(r[0].total_cmp(v)))
    };
    let start = match lower {
        Bound::Unbounded => 0,
        Bound::Included(v) => point(v, std::cmp::Ordering::is_lt),
        Bound::Excluded(v) => point(v, std::cmp::Ordering::is_le),
    };
    let end = match upper {
        Bound::Unbounded => rows.len(),
        Bound::Included(v) => point(v, std::cmp::Ordering::is_le),
        Bound::Excluded(v) => point(v, std::cmp::Ordering::is_lt),
    };
    if start >= end {
        0..0
    } else {
        start..end
    }
}

/// Every reader of `Table::new(rows)`, columns of `types`, against
/// `rows` sorted by `cmp_rows`; seeks are bounded by each of `probes`.
fn assert_view(types: &[DataType], rows: Vec<Row>, probes: &[Value]) {
    let schema = Schema::from_pairs(types.iter().enumerate().map(|(i, &ty)| (format!("c{i}"), ty)));
    let mut want = rows.clone();
    want.sort_by(cmp_rows);
    let table = Table::new("t", schema, rows);

    assert_eq!(exact(&table.batch().to_rows()), exact(&want));
    for n in [0, 1, 2, want.len() / 2, want.len(), want.len() + 1] {
        let prefix = &want[..n.min(want.len())];
        assert_eq!(exact(&table.head(n).to_rows()), exact(prefix), "head({n})");
    }
    let bounds = probes
        .iter()
        .flat_map(|v| [Bound::Included(v), Bound::Excluded(v)])
        .chain([Bound::Unbounded]);
    for lower in bounds.clone() {
        for upper in bounds.clone() {
            let got = table.seek(lower, upper).to_rows();
            let range = leading_range(&want, lower, upper);
            assert_eq!(exact(&got), exact(&want[range]), "seek({lower:?}, {upper:?})");
        }
    }
    let bytes: usize = want.iter().flatten().map(Value::estimated_size).sum();
    assert_eq!(table.estimated_bytes(), bytes);
}

const TWO_53: i64 = 1 << 53;

/// The type and boundary values of each column flavor: integers at the
/// ends of `i64` and above 2^53 where neighbours share an `f64` image,
/// floats with distinct NaN payloads and both zeros, text with `""`,
/// dates, booleans, and nothing at all.
fn pool(flavor: usize) -> (DataType, Vec<Value>) {
    let nan = |bits: u64| Value::Float(f64::from_bits(bits));
    let ty = [DataType::Int, DataType::Float, DataType::Text, DataType::Date, DataType::Bool]
        .get(flavor)
        .copied()
        .unwrap_or(DataType::Int);
    let values = match flavor {
        0 => vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Int(TWO_53 + 2),
            Value::Null,
        ],
        1 => vec![
            nan(0x7ff8_0000_0000_0000),
            nan(0x7ff8_0000_0000_0001),
            nan(0xfff8_0000_0000_0000),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1.5),
            Value::Null,
        ],
        2 => vec![
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text("aa".into()),
            Value::Text("é".into()),
            Value::Null,
        ],
        3 => vec![Value::Date(-1), Value::Date(0), Value::Date(19_000), Value::Null],
        4 => vec![Value::Bool(false), Value::Bool(true), Value::Null],
        _ => vec![Value::Null],
    };
    (ty, values)
}

#[test]
fn boundary_tables_read_as_their_sorted_rows() {
    let text = |s: &str| Value::Text(s.into());
    // `''` behind a leading NULL: the dictionary's placeholder and the
    // real empty string share one code.
    assert_view(
        &[DataType::Text, DataType::Int],
        vec![
            vec![Value::Null, Value::Int(3)],
            vec![text(""), Value::Int(2)],
            vec![text("b"), Value::Null],
            vec![text(""), Value::Int(1)],
        ],
        &[text(""), Value::Null, text("a")],
    );
    // 2^53 and 2^53 + 1 share an f64 image, so they tie on the leading
    // column: the second column orders them, and where it ties too they
    // keep their input order. Comparing the `i64`s would get both wrong.
    assert_view(
        &[DataType::Int, DataType::Int],
        vec![
            vec![Value::Int(TWO_53 + 1), Value::Int(7)],
            vec![Value::Int(TWO_53), Value::Int(7)],
            vec![Value::Int(TWO_53), Value::Int(1)],
            vec![Value::Int(TWO_53 + 1), Value::Int(0)],
            vec![Value::Int(i64::MAX), Value::Int(0)],
            vec![Value::Int(i64::MIN), Value::Int(0)],
        ],
        &[Value::Int(TWO_53), Value::Int(TWO_53 + 1), Value::Float(TWO_53 as f64)],
    );
    // An all-NULL column beside a Float one, leading and trailing.
    let (_, floats) = pool(1);
    let nulls_first = floats.iter().map(|v| vec![Value::Null, v.clone()]).collect();
    assert_view(&[DataType::Text, DataType::Float], nulls_first, &[Value::Null]);
    let nulls_last = floats.iter().rev().map(|v| vec![v.clone(), Value::Null]).collect();
    assert_view(&[DataType::Float, DataType::Text], nulls_last, &floats);
    // NaN payloads and signed zeros.
    assert_view(&[DataType::Float], floats.iter().rev().map(|v| vec![v.clone()]).collect(), &floats);
    // The empty table.
    assert_view(&[DataType::Int, DataType::Text, DataType::Date], Vec::new(), &[Value::Int(0)]);
}

#[test]
fn cells_of_other_types_widen_their_column() {
    // Rows from outside the engine (a parent version's record) may hold
    // cells the declared type does not: the column widens to `unify` of
    // them all and every cell is cast to it.
    let schema =
        Schema::from_pairs([("n", DataType::Int), ("s", DataType::Int), ("d", DataType::Date)]);
    let t = |s: &str| Value::Text(s.into());
    let rows = vec![
        vec![Value::Int(2), Value::Int(10), Value::Date(0)],
        vec![Value::Float(0.5), t("9"), Value::Null],
    ];
    let table = Table::new("t", schema, rows);
    assert_eq!(table.schema.types(), [DataType::Float, DataType::Text, DataType::Date]);
    let batch = table.batch();
    assert_eq!(batch.types(), table.schema.types());
    assert_eq!(
        batch.to_rows(),
        vec![
            vec![Value::Float(0.5), t("9"), Value::Null],
            vec![Value::Float(2.0), t("10"), Value::Date(0)],
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn a_table_reads_as_its_rows_sorted_by_cmp_rows(
        flavors in proptest::collection::vec(0usize..6, 1..4),
        picks in proptest::collection::vec(0usize..64, 0..120),
    ) {
        let width = flavors.len();
        let (types, pools): (Vec<DataType>, Vec<Vec<Value>>) = flavors.iter().map(|&f| pool(f)).unzip();
        let rows: Vec<Row> = picks
            .chunks(width)
            .filter(|c| c.len() == width)
            .map(|c| c.iter().zip(&pools).map(|(&p, pool)| pool[p % pool.len()].clone()).collect())
            .collect();
        assert_view(&types, rows, &pools[0]);
    }
}
