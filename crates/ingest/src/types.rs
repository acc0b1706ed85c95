//! Column type inference.
//!
//! "To infer column types, the first N records are inspected. For each
//! column, the most-specific type is identified. ... This prefix
//! inspection heuristic can fail, and non-integer types may be
//! encountered further down in the dataset. In that case, the database
//! raises an exception, we revert the type to a string via ALTER TABLE,
//! and the ingest continues." (§3.1)

use crate::cell_to_value;
use sqlshare_engine::vector::{Batch, Col, ColumnBuilder};
use sqlshare_engine::{DataType, Value};

/// The specificity lattice walked during inference, most specific first.
/// (`unify` in the engine encodes the same lattice; inference tries each
/// type in this order and takes the first that fits all prefix values.)
const LATTICE: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Date,
    DataType::Bool,
];

/// Infer one type per column from the first `prefix` records. Columns with
/// no non-empty prefix values fall back to Text.
pub fn infer_types<S: AsRef<str>>(records: &[Vec<S>], prefix: usize) -> Vec<DataType> {
    let width = records.iter().map(Vec::len).max().unwrap_or(0);
    let sample = &records[..records.len().min(prefix.max(1))];
    (0..width)
        .map(|col| {
            let cells = || {
                sample
                    .iter()
                    .filter_map(move |row| row.get(col))
                    .map(AsRef::as_ref)
                    .filter(|cell| !cell.trim().is_empty())
            };
            if cells().next().is_none() {
                return DataType::Text;
            }
            LATTICE
                .into_iter()
                .find(|&ty| cells().all(|cell| cell_to_value(cell, ty).is_some()))
                .unwrap_or(DataType::Text)
        })
        .collect()
}

/// Convert all records under the inferred types into typed columns, a
/// column at a time, each cell straight from its borrowed text (a text
/// cell is interned, never copied per row). When a value past the
/// prefix fails to convert, the column *reverts to string* (the paper's
/// ALTER TABLE fallback): it is built again from its cells as written.
/// Short records are padded with NULLs. Returns the columns, the final
/// per-column types, and the indexes of reverted columns.
pub fn convert_columns<S: AsRef<str>>(
    records: &[Vec<S>],
    inferred: &[DataType],
) -> (Batch, Vec<DataType>, Vec<usize>) {
    let mut types = inferred.to_vec();
    let mut reverted = Vec::new();
    let build = |col: usize, ty: DataType| {
        let mut builder = ColumnBuilder::with_capacity(ty, records.len());
        let converted = records.iter().all(|record| push_cell(&mut builder, record, col, ty));
        converted.then(|| Col::new(builder.finish()))
    };
    let cols = (0..types.len())
        .map(|col| {
            build(col, types[col]).unwrap_or_else(|| {
                types[col] = DataType::Text;
                reverted.push(col);
                build(col, DataType::Text).expect("every cell converts to text")
            })
        })
        .collect();
    (Batch::new(cols, records.len()), types, reverted)
}

/// Push the record's cell `col` (NULL past the end of a short record)
/// as a value of type `ty`; false, pushing nothing, when it does not
/// convert.
fn push_cell<S: AsRef<str>>(
    builder: &mut ColumnBuilder,
    record: &[S],
    col: usize,
    ty: DataType,
) -> bool {
    match record.get(col).map(AsRef::as_ref) {
        Some(text) if ty == DataType::Text && !text.trim().is_empty() => builder.push_str(text),
        Some(cell) => match cell_to_value(cell, ty) {
            Some(v) => builder.push(&v),
            None => return false,
        },
        None => builder.push(&Value::Null),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn most_specific_type_wins() {
        let r = recs(&[&["1", "1.5", "2013-01-02", "true", "abc"]]);
        assert_eq!(
            infer_types(&r, 10),
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Date,
                DataType::Bool,
                DataType::Text
            ]
        );
    }

    #[test]
    fn ints_generalize_to_float() {
        let r = recs(&[&["1"], &["2.5"]]);
        assert_eq!(infer_types(&r, 10), vec![DataType::Float]);
    }

    #[test]
    fn empty_cells_do_not_block_inference() {
        let r = recs(&[&[""], &["3"], &[""]]);
        assert_eq!(infer_types(&r, 10), vec![DataType::Int]);
    }

    #[test]
    fn all_empty_column_is_text() {
        let r = recs(&[&["", "1"], &["", "2"]]);
        assert_eq!(infer_types(&r, 10), vec![DataType::Text, DataType::Int]);
    }

    #[test]
    fn prefix_limits_inspection() {
        let r = recs(&[&["1"], &["2"], &["oops"]]);
        // With prefix 2, inference says Int...
        assert_eq!(infer_types(&r, 2), vec![DataType::Int]);
        // ...and conversion reverts to Text.
        let (batch, types, reverted) = convert_columns(&r, &[DataType::Int]);
        assert_eq!(types, vec![DataType::Text]);
        assert_eq!(reverted, vec![0]);
        assert_eq!(batch.to_rows()[2][0], Value::Text("oops".into()));
    }

    #[test]
    fn conversion_produces_nulls_for_missing() {
        let r = recs(&[&["1", "x"], &["2"]]);
        let (batch, _, _) = convert_columns(&r, &[DataType::Int, DataType::Text]);
        assert!(batch.to_rows()[1][1].is_null());
    }

    #[test]
    fn no_false_reverts() {
        let r = recs(&[&["1"], &["2"], &["3"]]);
        let (_, types, reverted) = convert_columns(&r, &[DataType::Int]);
        assert_eq!(types, vec![DataType::Int]);
        assert!(reverted.is_empty());
    }
}
