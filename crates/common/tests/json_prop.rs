//! Property tests for the from-scratch JSON implementation: arbitrary
//! documents round-trip through both the compact and pretty serializers.

use proptest::prelude::*;
use sqlshare_common::json::{parse, Json, JsonObject};

fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e12f64..1.0e12).prop_map(Json::Number),
        any::<i32>().prop_map(|i| Json::Number(i as f64)),
        "\\PC{0,16}".prop_map(Json::String),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::vec(("[a-zA-Z0-9_ .$-]{1,10}", inner), 0..6).prop_map(|pairs| {
                let mut obj = JsonObject::new();
                for (k, v) in pairs {
                    obj.insert(k, v);
                }
                Json::Object(obj)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_round_trip(doc in json_strategy()) {
        let text = doc.to_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert_eq!(doc, back);
    }

    #[test]
    fn pretty_round_trip(doc in json_strategy()) {
        let text = doc.to_pretty_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert_eq!(doc, back);
    }

    #[test]
    fn serialization_is_deterministic(doc in json_strategy()) {
        prop_assert_eq!(doc.to_string(), parse(&doc.to_string()).unwrap().to_string());
    }

    /// The parser never panics on arbitrary input — it returns a result.
    #[test]
    fn parser_is_total(input in "\\PC{0,64}") {
        let _ = parse(&input);
    }
}

/// The serializer `Json` had before it was rebuilt on `JsonWriter`: a
/// recursive walk of the tree with its own escaper, kept here verbatim
/// (over the public API) as the oracle for the streaming writer.
mod tree_writer {
    use sqlshare_common::json::Json;
    use std::fmt::Write as _;

    pub fn compact(doc: &Json) -> String {
        let mut out = String::new();
        write(doc, &mut out, None, 0);
        out
    }

    pub fn pretty(doc: &Json) -> String {
        let mut out = String::new();
        write(doc, &mut out, Some(2), 0);
        out
    }

    fn write(doc: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        match doc {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write(item, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(obj) => {
                if obj.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in obj.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write(v, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
    }

    fn write_number(out: &mut String, n: f64) {
        if n.is_nan() || n.is_infinite() {
            // JSON has no NaN/Inf; plans never produce them, but be safe.
            out.push_str("null");
        } else if n == n.trunc() && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{}", n);
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Documents whose strings are dense in what the escaper must handle.
fn hostile_json_strategy() -> impl Strategy<Value = Json> {
    let text = prop::collection::vec(
        prop_oneof![
            Just("\""), Just("\\"), Just("\n"), Just("\r"), Just("\t"), Just("\u{0}"),
            Just("\u{1f}"), Just("\u{7f}"), Just("é"), Just("😀"), Just("a"), Just(" "),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat());
    let leaf = prop_oneof![
        text.prop_map(Json::String),
        prop_oneof![
            Just(f64::NAN), Just(f64::INFINITY), Just(-0.0), Just(1e15), Just(-1e15 + 1.0),
            Just(0.1), Just(1e300), Just(i64::MAX as f64),
        ]
        .prop_map(Json::Number),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            prop::collection::vec(("[a\"\\\\]{0,3}", inner), 0..4)
                .prop_map(|pairs| Json::Object(pairs.into_iter().collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_matches_the_tree_serializer(doc in json_strategy()) {
        prop_assert_eq!(doc.to_string(), tree_writer::compact(&doc));
        prop_assert_eq!(doc.to_pretty_string(), tree_writer::pretty(&doc));
    }

    #[test]
    fn writer_matches_the_tree_serializer_on_hostile_strings(doc in hostile_json_strategy()) {
        prop_assert_eq!(doc.to_string(), tree_writer::compact(&doc));
        prop_assert_eq!(doc.to_pretty_string(), tree_writer::pretty(&doc));
    }
}

/// Every golden EXPLAIN plan of the engine, re-encoded both ways.
#[test]
fn writer_matches_the_tree_serializer_on_every_golden_plan() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../engine/tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("engine golden directory") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.to_string(), tree_writer::compact(&doc), "{}", path.display());
        assert_eq!(doc.to_pretty_string(), tree_writer::pretty(&doc), "{}", path.display());
        // The goldens are stored pretty-printed: the writer reproduces
        // the file itself.
        assert_eq!(doc.to_pretty_string(), text.trim_end(), "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 8, "only {seen} golden plans found in {}", dir.display());
}
