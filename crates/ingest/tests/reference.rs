//! The differential oracle for the ingest path, and the proptests that
//! hold the single-pass implementation to it.
//!
//! `mod oracle` is the ingest code as it stood before the single-pass
//! rewrite — `parse_delimited`, `infer_delimiter`, `infer_types`,
//! `convert_rows`, `cell_to_value`, the header and name helpers and the
//! `ingest_text` that strings them together — moved here verbatim. It
//! calls nothing in `sqlshare_ingest`; the only things it shares with the
//! crate under test are the plain option and report structs, so the two
//! sides can be compared field for field. It parses the whole file once
//! per candidate delimiter and converts every cell twice; that is the
//! point: it is slow, obvious, and independent.

mod oracle {
    use sqlshare_common::{Error, Result};
    use sqlshare_engine::table::cmp_rows;
    use sqlshare_engine::{Column, DataType, Row, Schema, Value};
    use sqlshare_ingest::{HeaderMode, IngestOptions, IngestReport};

    // ---- parser.rs -------------------------------------------------------

    pub fn parse_delimited(content: &str, delimiter: char) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = content.chars().peekable();
        let mut field_started = false;

        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            field.push('"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    }
                    other => field.push(other),
                }
                continue;
            }
            match c {
                '"' if field.is_empty() && !field_started => {
                    in_quotes = true;
                    field_started = true;
                }
                '\r' => {
                    // Swallow; `\n` handles the record break.
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    field_started = false;
                    // Skip records that are entirely empty (blank lines).
                    if record.len() > 1 || !record[0].trim().is_empty() {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                c if c == delimiter => {
                    record.push(std::mem::take(&mut field));
                    field_started = false;
                }
                other => {
                    field.push(other);
                    field_started = true;
                }
            }
        }
        // Trailing record without newline.
        if field_started || !field.is_empty() || !record.is_empty() {
            record.push(field);
            if record.len() > 1 || !record[0].trim().is_empty() {
                records.push(record);
            }
        }
        records
    }

    // ---- delimiter.rs ----------------------------------------------------

    /// Candidate column delimiters, in preference order.
    pub const CANDIDATES: [char; 4] = [',', '\t', ';', '|'];

    pub fn infer_delimiter(content: &str, prefix: usize) -> Result<char> {
        let prefix = prefix.max(2);
        let mut best: Option<(char, usize)> = None;
        for &candidate in &CANDIDATES {
            let rows = parse_delimited(content, candidate);
            let sample: Vec<_> = rows.iter().take(prefix).collect();
            if sample.is_empty() {
                continue;
            }
            let width = sample[0].len();
            // A single-column parse is trivially uniform and proves nothing;
            // it only wins through the fallback below.
            if width < 2 || !sample.iter().all(|r| r.len() == width) {
                continue;
            }
            if best.map(|(_, w)| width > w).unwrap_or(true) {
                best = Some((candidate, width));
            }
        }
        if let Some((c, _)) = best {
            return Ok(c);
        }
        // No candidate parses uniformly: fall back to the candidate with the
        // most common width in the prefix (dirty data is tolerated, not
        // rejected — ragged rows are padded later).
        let mut fallback: Option<(char, usize, usize)> = None; // (delim, mode_count, width)
        for &candidate in &CANDIDATES {
            let rows = parse_delimited(content, candidate);
            let sample: Vec<_> = rows.iter().take(prefix).collect();
            if sample.is_empty() {
                continue;
            }
            let mut counts: Vec<(usize, usize)> = Vec::new(); // (width, freq)
            for r in &sample {
                match counts.iter_mut().find(|(w, _)| *w == r.len()) {
                    Some((_, f)) => *f += 1,
                    None => counts.push((r.len(), 1)),
                }
            }
            let (width, freq) = counts
                .into_iter()
                .max_by_key(|&(w, f)| (f, w))
                .unwrap_or((1, 0));
            if width == 0 {
                continue;
            }
            // Rank multi-column parses above single-column ones, then by
            // modal frequency, then by width.
            let better = match fallback {
                None => true,
                Some((_, bf, bw)) => {
                    ((width > 1) as u8, freq, width) > ((bw > 1) as u8, bf, bw)
                }
            };
            if better {
                fallback = Some((candidate, freq, width));
            }
        }
        fallback
            .map(|(c, _, _)| c)
            .ok_or_else(|| Error::Ingest("could not infer a column delimiter".into()))
    }

    // ---- names.rs --------------------------------------------------------

    pub fn looks_like_header(records: &[Vec<String>]) -> bool {
        if records.len() < 2 {
            return false;
        }
        let first = &records[0];
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
                if let Some(cell) = row.get(col) {
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

    // ---- types.rs --------------------------------------------------------

    const LATTICE: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Date,
        DataType::Bool,
    ];

    pub fn infer_types(records: &[Vec<String>], prefix: usize) -> Vec<DataType> {
        let width = records.iter().map(Vec::len).max().unwrap_or(0);
        let sample = &records[..records.len().min(prefix.max(1))];
        (0..width)
            .map(|col| {
                let mut any = false;
                let ty = LATTICE
                    .into_iter()
                    .find(|&ty| {
                        sample.iter().all(|row| match row.get(col) {
                            None => true,
                            Some(cell) if cell.trim().is_empty() => true,
                            Some(cell) => {
                                any = true;
                                cell_to_value(cell, ty).is_some()
                            }
                        })
                    })
                    .unwrap_or(DataType::Text);
                // Track whether the column had any value at all in the prefix;
                // an all-empty column is Text.
                let mut saw_value = false;
                for row in sample {
                    if let Some(cell) = row.get(col) {
                        if !cell.trim().is_empty() {
                            saw_value = true;
                            break;
                        }
                    }
                }
                if saw_value {
                    ty
                } else {
                    DataType::Text
                }
            })
            .collect()
    }

    pub fn convert_rows(
        records: &[Vec<String>],
        inferred: &[DataType],
    ) -> (Vec<Row>, Vec<DataType>, Vec<usize>) {
        let width = inferred.len();
        let mut types = inferred.to_vec();
        let mut reverted = Vec::new();

        // Find columns that need reverting (single pass per column).
        for (col, ty) in types.iter_mut().enumerate() {
            if *ty == DataType::Text {
                continue;
            }
            let fails = records.iter().any(|row| {
                row.get(col)
                    .map(|cell| cell_to_value(cell, *ty).is_none())
                    .unwrap_or(false)
            });
            if fails {
                *ty = DataType::Text;
                reverted.push(col);
            }
        }

        let rows = records
            .iter()
            .map(|record| {
                (0..width)
                    .map(|col| {
                        record
                            .get(col)
                            .map(|cell| {
                                cell_to_value(cell, types[col]).unwrap_or_else(|| {
                                    // Unreachable after the revert pass, but be
                                    // lenient rather than panic on logic drift.
                                    Value::Text(cell.clone())
                                })
                            })
                            .unwrap_or(Value::Null)
                    })
                    .collect()
            })
            .collect();
        (rows, types, reverted)
    }

    // ---- lib.rs ----------------------------------------------------------

    pub fn ingest_text(
        name: &str,
        content: &str,
        options: &IngestOptions,
    ) -> Result<(Schema, Vec<Row>, IngestReport)> {
        if content.trim().is_empty() {
            return Err(Error::Ingest(format!("upload '{name}' is empty")));
        }
        let delimiter = match options.delimiter {
            Some(d) => d,
            None => infer_delimiter(content, options.inference_prefix)?,
        };
        let mut records = parse_delimited(content, delimiter);
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
            HeaderMode::Auto => looks_like_header(&records),
        };
        let raw_names: Vec<Option<String>> = if header_used {
            let header = records.remove(0);
            (0..width)
                .map(|i| {
                    header
                        .get(i)
                        .map(|s| s.trim())
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                })
                .collect()
        } else {
            vec![None; width]
        };
        if records.is_empty() {
            return Err(Error::Ingest(format!(
                "upload '{name}' contains only a header row"
            )));
        }
        let (column_names, default_names_assigned) = finalize_names(&raw_names);
        let all_names_defaulted = default_names_assigned == width;

        // Pad ragged rows.
        let mut padded_rows = 0usize;
        for r in &mut records {
            if r.len() < width {
                padded_rows += 1;
                r.resize(width, String::new());
            }
        }

        // Type inference over the prefix, then full conversion with
        // revert-to-string fallback.
        let inferred = infer_types(&records, options.inference_prefix);
        let (rows, final_types, reverted) = convert_rows(&records, &inferred);
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
            rows: rows.len(),
            columns: width,
        };
        // Clustered order by the row comparison, never through `Table`:
        // the reference stays independent of how tables cluster columns.
        let mut rows = rows;
        rows.sort_by(cmp_rows);
        Ok((schema, rows, report))
    }

    pub fn cell_to_value(cell: &str, ty: DataType) -> Option<Value> {
        let trimmed = cell.trim();
        if trimmed.is_empty() {
            return Some(Value::Null);
        }
        match ty {
            DataType::Text => Some(Value::Text(cell.to_string())),
            DataType::Int => trimmed.parse::<i64>().ok().map(Value::Int),
            DataType::Float => trimmed.parse::<f64>().ok().map(Value::Float),
            DataType::Bool => match trimmed.to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" => Some(Value::Bool(true)),
                "false" | "f" | "no" => Some(Value::Bool(false)),
                _ => None,
            },
            DataType::Date => sqlshare_engine::value::parse_date(trimmed).map(Value::Date),
        }
    }
}

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlshare_ingest::{ingest_text, HeaderMode, IngestOptions};
use sqlshare_wlgen::tables::{generate_csv, Dirtiness};

/// Ingest `content` both ways and require the same verdict: equal table
/// (name, schema, rows in clustered order, size) and equal report, or
/// the same rejection. Rows are compared through `Debug` because `Value`'s
/// `PartialEq` says NaN != NaN and "nan" is a perfectly good float cell.
fn assert_same(content: &str, options: &IngestOptions) {
    let new = ingest_text("t", content, options);
    let old = oracle::ingest_text("t", content, options);
    match (new, old) {
        (Ok((table, report)), Ok((want_schema, want_rows, want_report))) => {
            assert_eq!(report, want_report, "report for {content:?} under {options:?}");
            assert_eq!(table.name, "t");
            assert_eq!(table.schema, want_schema, "schema for {content:?} under {options:?}");
            assert_eq!(
                format!("{:?}", table.batch().to_rows()),
                format!("{:?}", want_rows),
                "rows for {content:?} under {options:?}"
            );
            let want_bytes: usize = want_rows.iter().flatten().map(|v| v.estimated_size()).sum();
            assert_eq!(table.estimated_bytes(), want_bytes);
            // Every column's layout is its schema type.
            assert_eq!(table.batch().types(), table.schema.types());
        }
        (Err(e), Err(want)) => assert_eq!(e.to_string(), want.to_string(), "{content:?}"),
        (new, old) => panic!(
            "verdicts differ for {content:?} under {options:?}: new {:?}, oracle {:?}",
            new.map(|(_, r)| r),
            old.map(|(_, _, r)| r)
        ),
    }
}

const HEADERS: [HeaderMode; 3] = [HeaderMode::Auto, HeaderMode::Present, HeaderMode::Absent];
const PREFIXES: [usize; 6] = [0, 1, 2, 3, 7, 100];
/// `None` infers; the rest are forced: every candidate, then delimiters
/// that collide with the format's own characters, then a multi-byte one.
const DELIMITERS: [Option<char>; 10] = [
    None,
    Some(','),
    Some('\t'),
    Some(';'),
    Some('|'),
    Some('"'),
    Some('\r'),
    Some('\n'),
    Some(' '),
    Some('→'),
];

fn options(header: usize, prefix: usize, delimiter: usize) -> IngestOptions {
    IngestOptions {
        header: HEADERS[header],
        inference_prefix: PREFIXES[prefix],
        delimiter: DELIMITERS[delimiter],
    }
}

/// Every knob of `Dirtiness` off, on, and at the paper's rates.
fn dirtiness_settings() -> Vec<Dirtiness> {
    let off = Dirtiness { headerless: 0.0, ragged: 0.0, sentinel: 0.0, mixed_type: 0.0 };
    vec![
        Dirtiness::default(),
        off,
        Dirtiness { headerless: 1.0, ..off },
        Dirtiness { ragged: 1.0, ..off },
        Dirtiness { sentinel: 0.5, ..off },
        Dirtiness { mixed_type: 1.0, ..off },
        Dirtiness { headerless: 1.0, ragged: 1.0, sentinel: 0.3, mixed_type: 1.0 },
    ]
}

/// The pieces hostile files are assembled from: every candidate
/// delimiter, quotes alone and doubled, all three line endings, blank
/// and whitespace-only material, cells of every type, a type breaker,
/// non-ASCII (two-, three- and four-byte) text.
const TOKENS: [&str; 34] = [
    ",", ",", ",", "\t", ";", "|", "\"", "\"", "\"\"", "\n", "\n", "\n", "\r\n", "\r", " ", "  ",
    "", "a", "name", "1", "-7", "2.5", "nan", "1e3", "2013-01-02", "true", "F", "NA", "é", "→",
    "😀", "\u{a0}", "x y", "007",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_csvs_at_every_dirtiness(
        seed in any::<u64>(),
        width in 2usize..12,
        rows in 1usize..420,
        header in 0usize..3,
        prefix in 0usize..6,
        delimiter in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dirt in dirtiness_settings() {
            let generated = generate_csv(&mut rng, width, rows, &dirt);
            assert_same(&generated.content, &options(header, prefix, delimiter));
            // The same file with CRLF endings and no trailing newline.
            let crlf = generated.content.trim_end().replace('\n', "\r\n");
            assert_same(&crlf, &options(header, prefix, 0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn hostile_token_soup(
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..90),
        header in 0usize..3,
        prefix in 0usize..6,
        delimiter in 0usize..DELIMITERS.len(),
    ) {
        let content: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        assert_same(&content, &options(header, prefix, delimiter));
    }

    /// Well-formed rows whose cells are hostile: quoted delimiters and
    /// newlines, `""` escapes, a lone `\r` mid-field, ragged rows inside
    /// and past the prefix, a type revert past the prefix.
    #[test]
    fn hostile_cells_in_regular_rows(
        cells in proptest::collection::vec((0usize..12, 0usize..TOKENS.len()), 4..160),
        width in 1usize..6,
        ragged_every in 2usize..9,
        header in 0usize..3,
        prefix in 0usize..6,
        delimiter in 0usize..5,
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let sep = DELIMITERS[delimiter].unwrap_or(';');
        let mut content = String::new();
        for (r, row) in cells.chunks(width).enumerate() {
            // Drop the last cell of every n-th row: ragged.
            let keep = if r % ragged_every == 0 { row.len().max(2) - 1 } else { row.len() };
            for (c, &(shape, token)) in row[..keep].iter().enumerate() {
                if c > 0 {
                    content.push(sep);
                }
                let text = TOKENS[token];
                match shape {
                    0 => content.push_str(&format!("\"{text}{sep}{text}\"")),
                    1 => content.push_str(&format!("\"{text}\n{text}\"")),
                    2 => content.push_str(&format!("\"say \"\"{text}\"\"\"")),
                    3 => content.push_str(&format!("{}\r{}", r, c)),
                    4 => content.push_str(&format!("\"{text}\"tail")),
                    // Mostly numbers, so columns infer a type the odd
                    // token can break further down.
                    _ => content.push_str(&(r * 3 + c).to_string()),
                }
            }
            content.push_str(if crlf { "\r\n" } else { "\n" });
        }
        if !trailing_newline {
            content.truncate(content.trim_end().len());
        }
        assert_same(&content, &options(header, prefix, delimiter));
    }
}

#[test]
fn a_revert_past_the_prefix_rewrites_the_rows_already_built() {
    let mut content = String::from("id,v,w\n");
    for i in 0..150 {
        content.push_str(&format!("{i}, 00{i} ,{}\n", i as f64 / 4.0));
    }
    content.push_str("150,oops,\n151,,1e2\n");
    for prefix in [1, 50, 100, 200] {
        let options = IngestOptions { inference_prefix: prefix, ..Default::default() };
        assert_same(&content, &options);
    }
    let (table, report) = ingest_text("t", &content, &IngestOptions::default()).unwrap();
    assert_eq!(report.type_reverts, vec!["v"]);
    // The cells converted as integers before the revert come back as
    // written, padding included.
    let rows = table.batch().to_rows();
    assert!(rows.iter().any(|r| format!("{:?}", r[1]) == "Text(\" 007 \")"));
}
