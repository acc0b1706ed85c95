//! Relaxed-schema ingest (§3.1 of the paper).
//!
//! SQLShare's ingest is deliberately forgiving: "we have designed the
//! system to ensure that we do not reject such dirty data". Files are
//! staged server-side, the row/column format is inferred by trying
//! delimiters until the first N rows parse with identical column counts,
//! column types are inferred from a prefix with a revert-to-string
//! fallback when later rows disagree, missing column names get defaults
//! (almost 50% of real uploads had none), and ragged rows are padded
//! with NULLs (9% of real uploads used this).
//!
//! The entry point is [`ingest_text`]; [`staging::Staging`] adds the
//! server-side staging/retry behaviour.

pub mod delimiter;
pub mod names;
pub mod parser;
pub mod staging;
pub mod types;

use sqlshare_common::{Error, Result};
use sqlshare_engine::{Column, DataType, Schema, Table, Value};

/// Header handling for an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeaderMode {
    /// Decide from the data (first row looks like labels, not values).
    #[default]
    Auto,
    /// The first row is a header.
    Present,
    /// There is no header; assign default names.
    Absent,
}

/// Ingest options.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    pub header: HeaderMode,
    /// How many rows the inference prefix inspects (the paper's "first N
    /// records").
    pub inference_prefix: usize,
    /// Force a column delimiter instead of inferring one.
    pub delimiter: Option<char>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            header: HeaderMode::Auto,
            inference_prefix: 100,
            delimiter: None,
        }
    }
}

/// What happened during an ingest — the §3.1/§5.1 accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Inferred (or forced) column delimiter.
    pub delimiter: char,
    /// Whether a header row was used.
    pub header_used: bool,
    /// Number of columns that received a default (`columnN`) name.
    pub default_names_assigned: usize,
    /// True when *every* column name was defaulted (1691 of 3891 tables in
    /// the paper's corpus).
    pub all_names_defaulted: bool,
    /// Rows shorter than the widest row, padded with NULLs.
    pub padded_rows: usize,
    /// Columns whose inferred type was reverted to string when a
    /// non-conforming value appeared past the inference prefix.
    pub type_reverts: Vec<String>,
    /// Ingested row count.
    pub rows: usize,
    /// Final column count.
    pub columns: usize,
}

/// Parse, infer, and load a delimited text file into an engine [`Table`].
pub fn ingest_text(name: &str, content: &str, options: &IngestOptions) -> Result<(Table, IngestReport)> {
    if content.trim().is_empty() {
        return Err(Error::Ingest(format!("upload '{name}' is empty")));
    }
    let delimiter = match options.delimiter {
        Some(d) => d,
        None => delimiter::infer_delimiter(content, options.inference_prefix)?,
    };
    let records = parser::parse_delimited(content, delimiter);
    if records.is_empty() {
        return Err(Error::Ingest(format!("upload '{name}' has no rows")));
    }

    // Widest row defines the column count; short rows get NULL padding.
    let width = records.iter().map(Vec::len).max().unwrap_or(0);
    if width == 0 {
        return Err(Error::Ingest(format!("upload '{name}' has no columns")));
    }

    // Header handling.
    let header_used = match options.header {
        HeaderMode::Present => true,
        HeaderMode::Absent => false,
        HeaderMode::Auto => names::looks_like_header(&records),
    };
    let (header, records) = records.split_at(header_used as usize);
    let raw_names: Vec<Option<String>> = (0..width)
        .map(|i| {
            header
                .first()
                .and_then(|h| h.get(i))
                .map(|s| s.trim())
                .filter(|s| !s.is_empty())
                .map(str::to_string)
        })
        .collect();
    if records.is_empty() {
        return Err(Error::Ingest(format!(
            "upload '{name}' contains only a header row"
        )));
    }
    let (column_names, default_names_assigned) = names::finalize_names(&raw_names);
    let all_names_defaulted = default_names_assigned == width;

    let padded_rows = records.iter().filter(|r| r.len() < width).count();

    // Type inference over the prefix, then full conversion with
    // revert-to-string fallback (which also pads the ragged rows).
    let mut inferred = types::infer_types(records, options.inference_prefix);
    inferred.resize(width, DataType::Text);
    let (columns, final_types, reverted) = types::convert_columns(records, &inferred);
    let type_reverts: Vec<String> = reverted
        .iter()
        .map(|&i| column_names[i].clone())
        .collect();

    let schema = Schema::new(
        column_names
            .iter()
            .zip(&final_types)
            .map(|(n, t)| Column::new(n.clone(), *t))
            .collect(),
    );
    let report = IngestReport {
        delimiter,
        header_used,
        default_names_assigned,
        all_names_defaulted,
        padded_rows,
        type_reverts,
        rows: columns.len,
        columns: width,
    };
    Ok((Table::from_batch(name, schema, columns), report))
}

/// Convert a parsed cell to a NULL-aware value of the given type; used by
/// `types::convert_columns` and exposed for tests.
pub fn cell_to_value(cell: &str, ty: DataType) -> Option<Value> {
    let trimmed = cell.trim();
    if trimmed.is_empty() {
        return Some(Value::Null);
    }
    match ty {
        DataType::Text => Some(Value::Text(cell.to_string())),
        DataType::Int => trimmed.parse::<i64>().ok().map(Value::Int),
        DataType::Float => trimmed.parse::<f64>().ok().map(Value::Float),
        DataType::Bool => {
            let is = |words: [&str; 3]| words.iter().any(|w| trimmed.eq_ignore_ascii_case(w));
            if is(["true", "t", "yes"]) {
                Some(Value::Bool(true))
            } else if is(["false", "f", "no"]) {
                Some(Value::Bool(false))
            } else {
                None
            }
        }
        DataType::Date => sqlshare_engine::value::parse_date(trimmed).map(Value::Date),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_csv_with_header() {
        let (table, report) = ingest_text(
            "t",
            "station,depth,ph\n1,5.0,8.1\n2,10.0,7.9\n",
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(report.delimiter, ',');
        assert!(report.header_used);
        assert_eq!(report.default_names_assigned, 0);
        assert_eq!(table.schema.names(), vec!["station", "depth", "ph"]);
        assert_eq!(table.schema.columns[0].ty, DataType::Int);
        assert_eq!(table.schema.columns[1].ty, DataType::Float);
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn headerless_csv_gets_default_names() {
        let (table, report) = ingest_text("t", "1,2\n3,4\n", &IngestOptions::default()).unwrap();
        assert!(!report.header_used);
        assert_eq!(table.schema.names(), vec!["column0", "column1"]);
        assert!(report.all_names_defaulted);
        assert_eq!(report.default_names_assigned, 2);
    }

    #[test]
    fn tab_separated_inferred() {
        let (table, report) =
            ingest_text("t", "a\tb\n1\tx\n2\ty\n", &IngestOptions::default()).unwrap();
        assert_eq!(report.delimiter, '\t');
        assert_eq!(table.schema.names(), vec!["a", "b"]);
    }

    #[test]
    fn ragged_rows_padded_with_null() {
        let (table, report) = ingest_text(
            "t",
            "a,b,c\n1,2,3\n4,5\n6\n",
            &IngestOptions {
                header: HeaderMode::Present,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.padded_rows, 2);
        assert_eq!(table.row_count(), 3);
        let rows = table.batch().to_rows();
        let short = rows.iter().find(|r| r[0] == Value::Int(6)).unwrap();
        assert!(short[1].is_null() && short[2].is_null());
    }

    #[test]
    fn partial_header_names_filled_in() {
        let (table, report) = ingest_text(
            "t",
            "id,,notes\n1,5.5,hello\n",
            &IngestOptions {
                header: HeaderMode::Present,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(table.schema.names(), vec!["id", "column1", "notes"]);
        assert_eq!(report.default_names_assigned, 1);
        assert!(!report.all_names_defaulted);
    }

    #[test]
    fn revert_to_string_past_prefix() {
        // First 3 rows are integers; a later row is not. The column must
        // revert to text and keep every original value.
        let mut content = String::from("v\n");
        for i in 0..5 {
            content.push_str(&format!("{i}\n"));
        }
        content.push_str("oops\n");
        let (table, report) = ingest_text(
            "t",
            &content,
            &IngestOptions {
                header: HeaderMode::Present,
                inference_prefix: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.type_reverts, vec!["v"]);
        assert_eq!(table.schema.columns[0].ty, DataType::Text);
        assert_eq!(table.row_count(), 6);
        let rows = table.batch().to_rows();
        assert!(rows.iter().any(|r| r[0] == Value::Text("oops".into())));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(ingest_text("t", "", &IngestOptions::default()).is_err());
        assert!(ingest_text("t", "   \n  ", &IngestOptions::default()).is_err());
    }

    #[test]
    fn header_only_rejected() {
        let err = ingest_text(
            "t",
            "a,b,c\n",
            &IngestOptions {
                header: HeaderMode::Present,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("only a header"));
    }

    #[test]
    fn missing_values_become_null_not_text() {
        let (table, _) = ingest_text(
            "t",
            "a,b\n1,\n2,3\n",
            &IngestOptions {
                header: HeaderMode::Present,
                ..Default::default()
            },
        )
        .unwrap();
        // Column b stays Int despite the empty cell.
        assert_eq!(table.schema.columns[1].ty, DataType::Int);
        assert!(table.batch().to_rows().iter().any(|r| r[1].is_null()));
    }

    #[test]
    fn forced_delimiter_wins() {
        let (table, report) = ingest_text(
            "t",
            "a;b\n1;2\n",
            &IngestOptions {
                delimiter: Some(';'),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.delimiter, ';');
        assert_eq!(table.schema.len(), 2);
    }

    #[test]
    fn dates_inferred() {
        let (table, _) = ingest_text(
            "t",
            "day,v\n2013-06-01,1\n2013-06-02,2\n",
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(table.schema.columns[0].ty, DataType::Date);
    }
}
