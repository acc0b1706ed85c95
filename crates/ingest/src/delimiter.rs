//! Delimiter inference.
//!
//! "To infer the format, we consider various row and column delimiter
//! values until the first N rows can be parsed with identical column
//! counts" (§3.1). Row delimiters are `\n` / `\r\n`; column candidates
//! are comma, tab, semicolon, and pipe.

use crate::parser::RecordReader;
use sqlshare_common::{Error, Result};

/// Candidate column delimiters, in preference order.
pub const CANDIDATES: [char; 4] = [',', '\t', ';', '|'];

/// Infer the column delimiter: the candidate under which the first
/// `prefix` parsed rows all have the same column count, preferring the
/// candidate that yields the most columns (a consistent 1-column parse is
/// always possible, so width breaks ties meaningfully). Only the prefix
/// is read, once per candidate.
pub fn infer_delimiter(content: &str, prefix: usize) -> Result<char> {
    infer_delimiter_scanned(content, prefix).0
}

/// [`infer_delimiter`], plus the furthest byte offset of `content` any
/// candidate's reader consumed — the count that shows inference cost
/// tracks the prefix, not the file.
pub(crate) fn infer_delimiter_scanned(content: &str, prefix: usize) -> (Result<char>, usize) {
    let prefix = prefix.max(2);
    let mut scanned = 0;
    let mut fields = Vec::new();
    // Per candidate, the column counts of its first `prefix` records.
    let samples: Vec<(char, Vec<usize>)> = CANDIDATES
        .iter()
        .map(|&candidate| {
            let mut reader = RecordReader::new(content, candidate);
            let mut widths = Vec::with_capacity(prefix);
            while widths.len() < prefix {
                fields.clear();
                match reader.read_into(&mut fields) {
                    Some(width) => widths.push(width),
                    None => break,
                }
            }
            scanned = scanned.max(reader.offset());
            (candidate, widths)
        })
        .filter(|(_, widths)| !widths.is_empty())
        .collect();

    let mut best: Option<(char, usize)> = None;
    for (candidate, widths) in &samples {
        let width = widths[0];
        // A single-column parse is trivially uniform and proves nothing;
        // it only wins through the fallback below.
        if width < 2 || !widths.iter().all(|w| *w == width) {
            continue;
        }
        if best.map(|(_, w)| width > w).unwrap_or(true) {
            best = Some((*candidate, width));
        }
    }
    if let Some((c, _)) = best {
        return (Ok(c), scanned);
    }
    // No candidate parses uniformly: fall back to the candidate with the
    // most common width in the prefix (dirty data is tolerated, not
    // rejected — ragged rows are padded later).
    let mut fallback: Option<(char, usize, usize)> = None; // (delim, mode_count, width)
    for (candidate, widths) in &samples {
        let mut counts: Vec<(usize, usize)> = Vec::new(); // (width, freq)
        for w in widths {
            match counts.iter_mut().find(|(cw, _)| cw == w) {
                Some((_, f)) => *f += 1,
                None => counts.push((*w, 1)),
            }
        }
        let (width, freq) = counts
            .into_iter()
            .max_by_key(|&(w, f)| (f, w))
            .expect("samples hold at least one record");
        // Rank multi-column parses above single-column ones, then by
        // modal frequency, then by width.
        let better = match fallback {
            None => true,
            Some((_, bf, bw)) => {
                ((width > 1) as u8, freq, width) > ((bw > 1) as u8, bf, bw)
            }
        };
        if better {
            fallback = Some((*candidate, freq, width));
        }
    }
    let inferred = fallback
        .map(|(c, _, _)| c)
        .ok_or_else(|| Error::Ingest("could not infer a column delimiter".into()));
    (inferred, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_delimited;

    #[test]
    fn comma_preferred_when_uniform() {
        assert_eq!(infer_delimiter("a,b,c\n1,2,3\n", 10).unwrap(), ',');
    }

    #[test]
    fn tab_detected() {
        assert_eq!(infer_delimiter("a\tb\n1\t2\n", 10).unwrap(), '\t');
    }

    #[test]
    fn semicolon_and_pipe() {
        assert_eq!(infer_delimiter("a;b;c\n1;2;3\n", 10).unwrap(), ';');
        assert_eq!(infer_delimiter("a|b\n1|2\n", 10).unwrap(), '|');
    }

    #[test]
    fn widest_uniform_parse_wins() {
        // Commas appear in every row; semicolons only in one. The comma
        // parse is uniform and wider.
        assert_eq!(infer_delimiter("a,b,c\nd,e;f,g\n", 10).unwrap(), ',');
    }

    #[test]
    fn single_column_file_falls_back() {
        assert_eq!(infer_delimiter("alpha\nbeta\n", 10).unwrap(), ',');
    }

    #[test]
    fn ragged_file_uses_modal_width() {
        // Three comma rows of width 3, one of width 2: no uniform parse,
        // but comma has the strongest mode.
        let d = infer_delimiter("1,2,3\n4,5,6\n7,8\n9,10,11\n", 10).unwrap();
        assert_eq!(d, ',');
    }

    #[test]
    fn quoted_delimiters_do_not_confuse() {
        let d = infer_delimiter("\"a,b\",c\n\"d,e\",f\n", 10).unwrap();
        assert_eq!(d, ',');
        // And the parse under that delimiter is 2 columns wide.
        let rows = parse_delimited("\"a,b\",c\n\"d,e\",f\n", d);
        assert!(rows.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn only_the_prefix_is_read_however_long_the_file() {
        // 100 records the inference looks at, then 100k more (10 MB)
        // it must not: the furthest byte any candidate's reader consumed
        // is the end of the 100th record.
        let mut content = String::new();
        for i in 0..100 {
            content.push_str(&format!("{i};\"q;{i}\";x|y\n"));
        }
        let prefix_bytes = content.len();
        let filler = "f".repeat(95);
        for i in 0..100_000 {
            content.push_str(&format!("{i};{filler};z\n"));
        }
        assert!(content.len() > 10_000_000);
        let (inferred, scanned) = infer_delimiter_scanned(&content, 100);
        assert_eq!(inferred.unwrap(), ';');
        assert_eq!(scanned, prefix_bytes);
        // A ragged prefix takes the fallback ranking; still one read.
        let ragged = format!("a;b;c\n{content}");
        let (inferred, scanned) = infer_delimiter_scanned(&ragged, 100);
        assert_eq!(inferred.unwrap(), ';');
        assert!(scanned < prefix_bytes);
    }
}
