//! Column-name handling: header detection, default names, deduplication.
//!
//! "Somewhat surprisingly, almost 50% of the datasets uploaded did not
//! have column names supplied in the source file" (§3.1), so default
//! names are a first-class path, and §5.1 measures how often users later
//! rename them in SQL.

/// Heuristic header detection: the first row is a header when it has no
/// empty cells, none of its cells parse as a number or date, and at least
/// one column *below* it is numeric or date-like (i.e. the first row is
/// typed differently from the data).
pub fn looks_like_header<S: AsRef<str>>(records: &[Vec<S>]) -> bool {
    if records.len() < 2 {
        return false;
    }
    let first: Vec<&str> = records[0].iter().map(AsRef::as_ref).collect();
    if first.is_empty() || first.iter().any(|c| c.trim().is_empty()) {
        return false;
    }
    if first.iter().any(|c| is_data_like(c)) {
        return false;
    }
    // Does some column below look typed?
    let width = first.len();
    for col in 0..width {
        let mut saw_value = false;
        let mut all_data_like = true;
        for row in records.iter().skip(1).take(50) {
            if let Some(cell) = row.get(col).map(AsRef::as_ref) {
                if cell.trim().is_empty() {
                    continue;
                }
                saw_value = true;
                if !is_data_like(cell) {
                    all_data_like = false;
                    break;
                }
            }
        }
        if saw_value && all_data_like {
            return true;
        }
    }
    // All-text data: still treat the first row as a header when its cells
    // are unique identifiers (common for categorical tables).
    let mut sorted: Vec<String> = first.iter().map(|s| s.trim().to_lowercase()).collect();
    sorted.sort();
    sorted.dedup();
    sorted.len() == first.len() && first.iter().all(|c| looks_like_identifier(c))
}

fn is_data_like(cell: &str) -> bool {
    let t = cell.trim();
    !t.is_empty()
        && (t.parse::<f64>().is_ok() || sqlshare_engine::value::parse_date(t).is_some())
}

fn looks_like_identifier(cell: &str) -> bool {
    let t = cell.trim();
    !t.is_empty()
        && t.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == ' ' || c == '-' || c == '.')
}

/// Fill in missing names with `columnN` defaults, sanitize nothing (the
/// engine brackets weird identifiers), and deduplicate collisions with
/// numeric suffixes. Returns the final names and how many were defaulted.
pub fn finalize_names(raw: &[Option<String>]) -> (Vec<String>, usize) {
    let mut names: Vec<String> = Vec::with_capacity(raw.len());
    let mut defaulted = 0usize;
    for (i, n) in raw.iter().enumerate() {
        match n {
            Some(name) => names.push(name.clone()),
            None => {
                names.push(format!("column{i}"));
                defaulted += 1;
            }
        }
    }
    // Deduplicate case-insensitively.
    for i in 0..names.len() {
        let mut candidate = names[i].clone();
        let mut suffix = 1usize;
        while names[..i]
            .iter()
            .any(|n| n.eq_ignore_ascii_case(&candidate))
        {
            suffix += 1;
            candidate = format!("{}_{suffix}", names[i]);
        }
        names[i] = candidate;
    }
    (names, defaulted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn numeric_data_under_labels_is_a_header() {
        assert!(looks_like_header(&rows(&[
            &["station", "depth"],
            &["1", "5.0"],
            &["2", "10.0"],
        ])));
    }

    #[test]
    fn all_numeric_first_row_is_data() {
        assert!(!looks_like_header(&rows(&[&["1", "2"], &["3", "4"]])));
    }

    #[test]
    fn empty_header_cell_means_no_header() {
        assert!(!looks_like_header(&rows(&[
            &["a", ""],
            &["1", "2"],
        ])));
    }

    #[test]
    fn date_in_first_row_is_data() {
        assert!(!looks_like_header(&rows(&[
            &["2013-06-01", "x"],
            &["2013-06-02", "y"],
        ])));
    }

    #[test]
    fn single_row_never_a_header() {
        assert!(!looks_like_header(&rows(&[&["a", "b"]])));
    }

    #[test]
    fn all_text_unique_identifiers_count_as_header() {
        assert!(looks_like_header(&rows(&[
            &["name", "species"],
            &["rex", "dog"],
            &["tom", "cat"],
        ])));
    }

    #[test]
    fn defaults_and_dedup() {
        let (names, defaulted) = finalize_names(&[
            Some("a".into()),
            None,
            Some("A".into()),
            None,
        ]);
        assert_eq!(names, vec!["a", "column1", "A_2", "column3"]);
        assert_eq!(defaulted, 2);
    }

    #[test]
    fn all_default() {
        let (names, defaulted) = finalize_names(&[None, None]);
        assert_eq!(names, vec!["column0", "column1"]);
        assert_eq!(defaulted, 2);
    }
}
