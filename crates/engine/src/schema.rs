//! Schemas: ordered, named, typed columns.
//!
//! During planning every column additionally carries the *source table*
//! it came from (when it is a base-table column), which is what lets the
//! plan extractor report per-node `columns: {table: [col, ...]}` maps as
//! in the paper's Listing 1.

use crate::value::DataType;
use sqlshare_common::{Error, Result};

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
    /// The table alias/name this column is visible under, if any.
    pub qualifier: Option<String>,
    /// The physical base table the column originates from, if traceable.
    pub source_table: Option<String>,
}

impl Column {
    /// A fresh unqualified column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
            qualifier: None,
            source_table: None,
        }
    }

    /// Attach a visibility qualifier (table alias).
    pub fn with_qualifier(mut self, q: impl Into<String>) -> Self {
        self.qualifier = Some(q.into());
        self
    }

    /// Attach the originating base table.
    pub fn with_source(mut self, t: impl Into<String>) -> Self {
        self.source_table = Some(t.into());
        self
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Build from `(name, type)` pairs.
    pub fn from_pairs<S: Into<String>>(pairs: impl IntoIterator<Item = (S, DataType)>) -> Self {
        Schema {
            columns: pairs
                .into_iter()
                .map(|(n, t)| Column::new(n, t))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Estimated row width in bytes (cost-model `rowSize`).
    pub fn estimated_row_size(&self) -> usize {
        self.columns.iter().map(|c| c.ty.estimated_size()).sum()
    }

    /// Resolve a possibly-qualified column reference case-insensitively.
    ///
    /// Returns the column index. Ambiguous unqualified references (the
    /// same name visible from two tables) are an error, as in SQL.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut matches = self.columns.iter().enumerate().filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && match qualifier {
                    None => true,
                    Some(q) => c
                        .qualifier
                        .as_deref()
                        .map(|cq| cq.eq_ignore_ascii_case(q))
                        .unwrap_or(false),
                }
        });
        let first = matches.next();
        let second = matches.next();
        match (first, second) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(Error::Binding(format!(
                "column reference '{}' is ambiguous",
                display_ref(qualifier, name)
            ))),
            (None, _) => Err(Error::Binding(format!(
                "unknown column '{}'",
                display_ref(qualifier, name)
            ))),
        }
    }

    /// All column indexes visible under a given qualifier (for `t.*`).
    pub fn indexes_for_qualifier(&self, qualifier: &str) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.qualifier
                    .as_deref()
                    .map(|q| q.eq_ignore_ascii_case(qualifier))
                    .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Schema { columns }
    }

    /// Column types in order.
    pub fn types(&self) -> Vec<DataType> {
        self.columns.iter().map(|c| c.ty).collect()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

fn display_ref(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).with_qualifier("t"),
            Column::new("name", DataType::Text).with_qualifier("t"),
            Column::new("id", DataType::Int).with_qualifier("u"),
        ])
    }

    #[test]
    fn resolve_qualified() {
        let s = sample();
        assert_eq!(s.resolve(Some("t"), "id").unwrap(), 0);
        assert_eq!(s.resolve(Some("u"), "ID").unwrap(), 2);
        assert_eq!(s.resolve(Some("T"), "Id").unwrap(), 0);
    }

    #[test]
    fn resolve_unqualified_unique() {
        let s = sample();
        assert_eq!(s.resolve(None, "name").unwrap(), 1);
    }

    #[test]
    fn resolve_ambiguous_errors() {
        let s = sample();
        let err = s.resolve(None, "id").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn resolve_unknown_errors() {
        let s = sample();
        assert!(s.resolve(None, "nope").is_err());
        assert!(s.resolve(Some("x"), "id").is_err());
    }

    #[test]
    fn qualified_wildcard() {
        let s = sample();
        assert_eq!(s.indexes_for_qualifier("t"), vec![0, 1]);
        assert_eq!(s.indexes_for_qualifier("u"), vec![2]);
        assert!(s.indexes_for_qualifier("zz").is_empty());
    }

    #[test]
    fn join_concatenates() {
        let s = sample();
        let j = s.join(&Schema::from_pairs([("extra", DataType::Float)]));
        assert_eq!(j.len(), 4);
        assert_eq!(j.columns[3].name, "extra");
    }

    #[test]
    fn row_size_estimate() {
        let s = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]);
        assert_eq!(s.estimated_row_size(), 32);
    }
}
