//! Byte-level properties of the SQL front end, the decoder every
//! submitted query meets: arbitrary token soups and every recursive
//! construct repeated up to 100k times parse to a query or to a typed
//! parse error — never a panic, never a stack overflow. An accepted
//! query also renders and drops, as the service does with it.

use proptest::prelude::*;
use sqlshare_sql::{parse_query, parse_statement};

/// The stack every server and scheduler thread runs on.
const THREAD_STACK: usize = 2 << 20;

/// Tokens the parser branches on, plus arbitrary bytes and numbers.
fn fragment() -> BoxedStrategy<String> {
    let token = prop_oneof![
        Just("SELECT"),
        Just("FROM"),
        Just("WHERE"),
        Just("GROUP BY"),
        Just("ORDER BY"),
        Just("HAVING"),
        Just("TOP"),
        Just("DISTINCT"),
        Just("UNION ALL"),
        Just("EXCEPT"),
        Just("JOIN"),
        Just("LEFT OUTER JOIN"),
        Just("ON"),
        Just("AS"),
        Just("AND"),
        Just("OR"),
        Just("NOT"),
        Just("IN"),
        Just("LIKE"),
        Just("BETWEEN"),
        Just("IS NULL"),
        Just("EXISTS"),
        Just("CASE WHEN"),
        Just("THEN"),
        Just("ELSE"),
        Just("END"),
        Just("CAST("),
        Just("ABS("),
        Just("OVER (PARTITION BY"),
        Just("("),
        Just(")"),
        Just(","),
        Just("."),
        Just("*"),
        Just("-"),
        Just("+"),
        Just("="),
        Just("<>"),
        Just("'text'"),
        Just("[quoted id]"),
        Just("t"),
        Just("x"),
        Just(";"),
        Just("--"),
        Just("/*"),
    ];
    prop_oneof![
        token.prop_map(|t: &str| format!(" {t} ")),
        prop::collection::vec(any::<u8>(), 0..8)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        (0u64..100_000).prop_map(|n| format!(" {n} ")),
    ]
    .boxed()
}

/// A recursive construct: prefix, repeated opening, core, repeated
/// closing, suffix. Nesting repeats both sides, a chain only the opening.
type Construct = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

fn construct() -> impl Strategy<Value = Construct> {
    prop_oneof![
        Just(("SELECT ", "(", "1", ")", "")),
        Just(("SELECT ", "ABS(", "1", ")", "")),
        Just(("SELECT ", "CASE WHEN 1=1 THEN ", "1", " END", "")),
        Just(("SELECT * FROM ", "(SELECT * FROM ", "t", ") AS d", "")),
        Just(("SELECT * FROM ", "(", "t", ")", "")),
        Just((
            "SELECT x FROM t WHERE x IN ",
            "(SELECT x FROM t WHERE x IN ",
            "(1)",
            ")",
            ""
        )),
        Just(("SELECT 1 WHERE ", "- ", "1 = 1", "", "")),
        Just(("SELECT 1 WHERE ", "+ ", "1 = 1", "", "")),
        Just(("SELECT 1 WHERE ", "NOT ", "1 = 1", "", "")),
        Just(("SELECT 1 AS x WHERE 1=1", " AND 1=1", "", "", "")),
        Just(("SELECT 1 AS x WHERE 1=1", " OR 1=1", "", "", "")),
        Just(("SELECT 1", " + 1", "", "", " AS x")),
        Just(("SELECT 1", " * 1", "", "", "")),
        Just(("SELECT x FROM t WHERE x", " IS NULL", "", "", "")),
        Just(("SELECT 1", " UNION ALL SELECT 1", "", "", "")),
        Just(("SELECT 1", " EXCEPT SELECT 1", "", "", "")),
        Just(("SELECT * FROM t", " JOIN t ON 1=1", "", "", "")),
        Just(("SELECT * FROM t", ", t", "", "", "")),
    ]
}

/// Parse `sql` as the service does, on a thread with the service's
/// stack: the outcome is `Ok` or a typed parse error, and an accepted
/// query renders and drops. A panic or an overflow fails the test (an
/// overflow aborts the test process).
fn front_end_is_total(sql: String) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(THREAD_STACK)
        .spawn(move || {
            if let Err(err) = parse_statement(&sql) {
                if err.kind() != "parse" {
                    return Err(format!("untyped error {err:?}"));
                }
            }
            match parse_query(&sql) {
                Ok(query) => drop(query.to_string()),
                Err(err) if err.kind() == "parse" => {}
                Err(err) => return Err(format!("untyped error {err:?}")),
            }
            Ok(())
        })
        .unwrap()
        .join()
        .map_err(|_| "the front end panicked".to_string())?
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn token_soup_is_a_query_or_a_typed_error(
        soup in prop::collection::vec(fragment(), 0..40),
        select in any::<bool>(),
    ) {
        let body: String = soup.concat();
        let sql = if select { format!("SELECT {body}") } else { body };
        prop_assert_eq!(front_end_is_total(sql), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_recursive_construct_repeated_up_to_100k_times_is_total(
        (prefix, open, core, close, suffix) in construct(),
        repeats in prop_oneof![0usize..100, 0usize..100_001],
        closed in any::<bool>(),
    ) {
        let close = if closed { close.repeat(repeats) } else { String::new() };
        let sql = format!("{prefix}{}{core}{close}{suffix}", open.repeat(repeats));
        prop_assert_eq!(front_end_is_total(sql), Ok(()));
    }
}
