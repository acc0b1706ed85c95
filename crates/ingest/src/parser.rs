//! Delimited-text parsing with RFC-4180-style quoting.
//!
//! One scanner, [`RecordReader`], serves both callers: delimiter
//! inference pulls the first N records under each candidate and stops,
//! the full parse pulls all of them. Fields are slices of the input; a
//! field is copied only when its value is not one contiguous run of the
//! file (a `""` escape, a `\r` dropped mid-field, text after a closing
//! quote).

use std::borrow::Cow;

/// One parsed record: its fields, borrowed from the file where possible.
pub type Record<'a> = Vec<Cow<'a, str>>;

/// Pulls records out of `content` one at a time. Supports `"quoted"`
/// fields with `""` escapes and embedded delimiters/newlines, drops every
/// unquoted `\r` (so `\r\n` line endings work), and skips blank lines.
/// Reads no byte past the record it returns, except one byte of lookahead
/// after a `"` inside a quoted field.
pub struct RecordReader<'a> {
    content: &'a str,
    pos: usize,
    delimiter: [u8; 4],
    delimiter_len: usize,
}

/// A field under construction: the contiguous run of value bytes
/// `content[start..end]`, preceded by whatever earlier runs had to be
/// copied into `copied` because a skipped byte separated them.
struct Field {
    start: usize,
    end: usize,
    copied: Option<String>,
}

impl Field {
    fn at(pos: usize) -> Field {
        Field { start: pos, end: pos, copied: None }
    }

    /// Add `content[from..to]` to the value.
    fn include(&mut self, content: &str, from: usize, to: usize) {
        if from != self.end {
            if self.start != self.end {
                self.copied
                    .get_or_insert_with(String::new)
                    .push_str(&content[self.start..self.end]);
            }
            self.start = from;
        }
        self.end = to;
    }

    fn finish(self, content: &str) -> Cow<'_, str> {
        let run = &content[self.start..self.end];
        match self.copied {
            None => Cow::Borrowed(run),
            Some(mut s) => {
                s.push_str(run);
                Cow::Owned(s)
            }
        }
    }
}

impl<'a> RecordReader<'a> {
    pub fn new(content: &'a str, delimiter: char) -> Self {
        let mut buf = [0u8; 4];
        let delimiter_len = delimiter.encode_utf8(&mut buf).len();
        RecordReader { content, pos: 0, delimiter: buf, delimiter_len }
    }

    /// Byte offset of the first byte not yet consumed.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Append the next non-blank record's fields to `out` and return how
    /// many there were; `None` at end of input. (Appending lets a caller
    /// that only wants widths reuse one buffer.)
    pub fn read_into(&mut self, out: &mut Vec<Cow<'a, str>>) -> Option<usize> {
        let bytes = self.content.as_bytes();
        let delim = &self.delimiter[..self.delimiter_len];
        let first = out.len();
        let mut field = Field::at(self.pos);
        // A field has started once a quote opened it or a value byte
        // arrived; only an unstarted field can open a quote.
        let mut started = false;
        let mut in_quotes = false;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                // End of input closes a trailing record without newline
                // (and an unterminated quote).
                if started || out.len() > first {
                    out.push(field.finish(self.content));
                    if keep(&out[first..]) {
                        return Some(out.len() - first);
                    }
                    out.truncate(first);
                }
                return None;
            };
            if in_quotes {
                let close = bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'"')
                    .map_or(bytes.len(), |i| self.pos + i);
                field.include(self.content, self.pos, close);
                if bytes.get(close + 1) == Some(&b'"') {
                    field.include(self.content, close, close + 1);
                    self.pos = close + 2;
                } else {
                    in_quotes = false;
                    self.pos = (close + 1).min(bytes.len());
                }
                continue;
            }
            // The order of these tests is the format: a delimiter that is
            // itself `"`, `\r` or `\n` loses to that character's own role.
            if b == b'"' && !started {
                in_quotes = true;
                started = true;
                self.pos += 1;
            } else if b == b'\r' {
                self.pos += 1;
            } else if b == b'\n' {
                self.pos += 1;
                out.push(std::mem::replace(&mut field, Field::at(self.pos)).finish(self.content));
                if keep(&out[first..]) {
                    return Some(out.len() - first);
                }
                out.truncate(first);
                started = false;
            } else if bytes[self.pos..].starts_with(delim) {
                self.pos += delim.len();
                out.push(std::mem::replace(&mut field, Field::at(self.pos)).finish(self.content));
                started = false;
            } else {
                // A run of plain bytes, up to the next byte that could
                // end the field (a `"` is literal once the field started).
                let run = bytes[self.pos + 1..]
                    .iter()
                    .position(|&b| b == b'\r' || b == b'\n' || b == delim[0])
                    .map_or(bytes.len(), |i| self.pos + 1 + i);
                field.include(self.content, self.pos, run);
                started = true;
                self.pos = run;
            }
        }
    }
}

/// Blank lines (one field, nothing but whitespace) are not records.
fn keep(record: &[Cow<'_, str>]) -> bool {
    record.len() > 1 || !record[0].trim().is_empty()
}

/// Parse all of `content` into records using `delimiter`.
pub fn parse_delimited(content: &str, delimiter: char) -> Vec<Record<'_>> {
    let mut reader = RecordReader::new(content, delimiter);
    let mut records = Vec::new();
    let mut width = 0;
    loop {
        let mut record = Vec::with_capacity(width);
        match reader.read_into(&mut record) {
            Some(n) => width = n,
            None => return records,
        }
        records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_rows() {
        let rows = parse_delimited("a,b\n1,2\n", ',');
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn no_trailing_newline() {
        let rows = parse_delimited("a,b\n1,2", ',');
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn crlf_line_endings() {
        let rows = parse_delimited("a,b\r\n1,2\r\n", ',');
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn quoted_fields() {
        let rows = parse_delimited("\"a,x\",b\n\"line\nbreak\",2\n", ',');
        assert_eq!(rows[0][0], "a,x");
        assert_eq!(rows[1][0], "line\nbreak");
    }

    #[test]
    fn escaped_quotes() {
        let rows = parse_delimited("\"he said \"\"hi\"\"\",2\n", ',');
        assert_eq!(rows[0][0], "he said \"hi\"");
    }

    #[test]
    fn blank_lines_skipped() {
        let rows = parse_delimited("a,b\n\n1,2\n   \n", ',');
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_fields_preserved() {
        let rows = parse_delimited("a,,c\n", ',');
        assert_eq!(rows[0], vec!["a", "", "c"]);
    }

    #[test]
    fn trailing_delimiter_makes_empty_field() {
        let rows = parse_delimited("a,b,\n", ',');
        assert_eq!(rows[0], vec!["a", "b", ""]);
    }

    #[test]
    fn quote_midfield_is_literal() {
        let rows = parse_delimited("ab\"cd,e\n", ',');
        assert_eq!(rows[0], vec!["ab\"cd", "e"]);
    }

    #[test]
    fn fields_borrow_unless_the_value_is_split() {
        let rows = parse_delimited("plain,\"quoted, whole\",\"es\"\"caped\",c\rr\r\n", ',');
        let borrowed: Vec<bool> = rows[0].iter().map(|f| matches!(f, Cow::Borrowed(_))).collect();
        assert_eq!(rows[0], vec!["plain", "quoted, whole", "es\"caped", "cr"]);
        assert_eq!(borrowed, vec![true, true, false, false]);
    }

    #[test]
    fn multibyte_delimiter_and_text() {
        let rows = parse_delimited("é→ü→\"→\"\nx→→z", '→');
        assert_eq!(rows, vec![vec!["é", "ü", "→"], vec!["x", "", "z"]]);
    }

    #[test]
    fn reader_stops_where_the_record_ends() {
        let content = "a,b\n\"c\",d\ne,f\n";
        let mut reader = RecordReader::new(content, ',');
        let mut out = Vec::new();
        assert_eq!(reader.read_into(&mut out), Some(2));
        assert_eq!(reader.offset(), 4);
        assert_eq!(reader.read_into(&mut out), Some(2));
        assert_eq!(reader.offset(), 10);
        assert_eq!(out, vec!["a", "b", "c", "d"]);
    }
}
