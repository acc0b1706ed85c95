//! The scalar function library.
//!
//! Table 4a of the paper shows SQLShare's expression mix is dominated by
//! string operations (`like`, `patindex`, `substring`, `charindex`,
//! `isnumeric`, `len`) plus arithmetic (`ADD`, `DIV`, `SUB`, `MULT`,
//! `square`); these are all implemented here with T-SQL semantics
//! (1-based string positions, NULL propagation, case-insensitive LIKE).

use crate::value::{parse_date, ymd_from_date, DataType, Value};
use sqlshare_common::{Error, Result};

/// Evaluation context threaded through scalar evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext {
    /// The simulated "today" used by GETDATE(); deterministic corpora
    /// depend on this being injected rather than read from the system.
    pub current_date: i32,
}

impl Default for EvalContext {
    fn default() -> Self {
        // 2013-01-01, mid-deployment in the paper's 2011-2015 window.
        EvalContext {
            current_date: 15706,
        }
    }
}

/// Scalar functions known to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    // string
    Upper,
    Lower,
    Len,
    Substring,
    Charindex,
    Patindex,
    IsNumeric,
    Replace,
    Ltrim,
    Rtrim,
    Trim,
    Left,
    Right,
    Reverse,
    Concat,
    // null handling
    Coalesce,
    IsNullFn,
    NullIf,
    // math
    Abs,
    Square,
    Sqrt,
    Round,
    Floor,
    Ceiling,
    Power,
    Exp,
    Log,
    Sign,
    // date
    Year,
    Month,
    Day,
    Datepart,
    Datediff,
    Dateadd,
    Getdate,
}

impl ScalarFunc {
    /// Look a function up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        use ScalarFunc::*;
        Some(match name.to_ascii_uppercase().as_str() {
            "UPPER" | "UCASE" => Upper,
            "LOWER" | "LCASE" => Lower,
            "LEN" | "LENGTH" => Len,
            "SUBSTRING" | "SUBSTR" => Substring,
            "CHARINDEX" => Charindex,
            "PATINDEX" => Patindex,
            "ISNUMERIC" => IsNumeric,
            "REPLACE" => Replace,
            "LTRIM" => Ltrim,
            "RTRIM" => Rtrim,
            "TRIM" => Trim,
            "LEFT" => Left,
            "RIGHT" => Right,
            "REVERSE" => Reverse,
            "CONCAT" => Concat,
            "COALESCE" => Coalesce,
            "ISNULL" => IsNullFn,
            "NULLIF" => NullIf,
            "ABS" => Abs,
            "SQUARE" => Square,
            "SQRT" => Sqrt,
            "ROUND" => Round,
            "FLOOR" => Floor,
            "CEILING" | "CEIL" => Ceiling,
            "POWER" => Power,
            "EXP" => Exp,
            "LOG" => Log,
            "SIGN" => Sign,
            "YEAR" => Year,
            "MONTH" => Month,
            "DAY" => Day,
            "DATEPART" => Datepart,
            "DATEDIFF" => Datediff,
            "DATEADD" => Dateadd,
            "GETDATE" => Getdate,
            _ => return None,
        })
    }

    /// The expression-operator mnemonic used in plan extraction (lowercase,
    /// matching Table 4's `like`/`patindex`/`square` style).
    pub fn mnemonic(&self) -> &'static str {
        use ScalarFunc::*;
        match self {
            Upper => "upper",
            Lower => "lower",
            Len => "len",
            Substring => "substring",
            Charindex => "charindex",
            Patindex => "patindex",
            IsNumeric => "isnumeric",
            Replace => "replace",
            Ltrim => "ltrim",
            Rtrim => "rtrim",
            Trim => "trim",
            Left => "left",
            Right => "right",
            Reverse => "reverse",
            Concat => "concat",
            Coalesce => "coalesce",
            IsNullFn => "isnull",
            NullIf => "nullif",
            Abs => "abs",
            Square => "square",
            Sqrt => "sqrt",
            Round => "round",
            Floor => "floor",
            Ceiling => "ceiling",
            Power => "power",
            Exp => "exp",
            Log => "log",
            Sign => "sign",
            Year => "year",
            Month => "month",
            Day => "day",
            Datepart => "datepart",
            Datediff => "datediff",
            Dateadd => "dateadd",
            Getdate => "getdate",
        }
    }

    /// Argument count range accepted.
    pub fn arity(&self) -> (usize, usize) {
        use ScalarFunc::*;
        match self {
            Getdate => (0, 0),
            Upper | Lower | Len | IsNumeric | Ltrim | Rtrim | Trim | Reverse | Abs | Square
            | Sqrt | Floor | Ceiling | Exp | Log | Sign | Year | Month | Day => (1, 1),
            Charindex => (2, 3),
            Substring => (3, 3),
            Replace => (3, 3),
            Patindex | Left | Right | NullIf | IsNullFn | Power | Round => (2, 2),
            Concat | Coalesce => (1, usize::MAX),
            Datepart | Dateadd | Datediff => (2, 3),
        }
    }

    /// The type of every non-NULL value [`ScalarFunc::eval`] returns;
    /// `None` for the NULL-handling trio, which return an argument:
    /// `NULLIF` has its first argument's type, `COALESCE` / `ISNULL` the
    /// arguments' common type.
    pub fn result_type(&self) -> Option<DataType> {
        use ScalarFunc::*;
        Some(match self {
            Upper | Lower | Substring | Replace | Ltrim | Rtrim | Trim | Left | Right
            | Reverse | Concat => DataType::Text,
            Len | Charindex | Patindex | IsNumeric | Sign | Year | Month | Day | Datepart
            | Datediff => DataType::Int,
            Abs | Square | Sqrt | Round | Floor | Ceiling | Power | Exp | Log => DataType::Float,
            Coalesce | IsNullFn | NullIf => return None,
            Dateadd | Getdate => DataType::Date,
        })
    }

    /// Evaluate the function.
    pub fn eval(&self, args: &[Value], ctx: &EvalContext) -> Result<Value> {
        use ScalarFunc::*;
        let (min, max) = self.arity();
        if args.len() < min || args.len() > max {
            return Err(Error::Execution(format!(
                "{}: expected {}..{} arguments, got {}",
                self.mnemonic(),
                min,
                if max == usize::MAX {
                    "N".to_string()
                } else {
                    max.to_string()
                },
                args.len()
            )));
        }
        // NULL propagation for everything except the NULL-handling trio.
        if !matches!(self, Coalesce | IsNullFn | NullIf | Concat)
            && args.iter().any(Value::is_null)
        {
            return Ok(Value::Null);
        }
        match self {
            Upper => Ok(Value::Text(text(&args[0]).to_uppercase())),
            Lower => Ok(Value::Text(text(&args[0]).to_lowercase())),
            Len => Ok(Value::Int(
                // T-SQL LEN ignores trailing spaces.
                text(&args[0]).trim_end().chars().count() as i64,
            )),
            Substring => {
                let s: Vec<char> = text(&args[0]).chars().collect();
                let start = int(&args[1])?.max(1) as usize;
                let len = int(&args[2])?.max(0) as usize;
                let from = (start - 1).min(s.len());
                let to = (from + len).min(s.len());
                Ok(Value::Text(s[from..to].iter().collect()))
            }
            Charindex => {
                let needle = text(&args[0]).to_lowercase();
                let hay = text(&args[1]).to_lowercase();
                let start = if args.len() == 3 {
                    (int(&args[2])?.max(1) - 1) as usize
                } else {
                    0
                };
                if needle.is_empty() {
                    return Ok(Value::Int(0));
                }
                let hay_chars: Vec<char> = hay.chars().collect();
                let needle_chars: Vec<char> = needle.chars().collect();
                for i in start..hay_chars.len().saturating_sub(needle_chars.len() - 1) {
                    if hay_chars[i..i + needle_chars.len()] == needle_chars[..] {
                        return Ok(Value::Int((i + 1) as i64));
                    }
                }
                Ok(Value::Int(0))
            }
            Patindex => {
                let pattern = text(&args[0]);
                let hay = text(&args[1]);
                Ok(Value::Int(patindex(&pattern, &hay)))
            }
            IsNumeric => {
                let t = text(&args[0]);
                let t = t.trim();
                Ok(Value::Int(i64::from(
                    !t.is_empty() && t.parse::<f64>().is_ok(),
                )))
            }
            Replace => Ok(Value::Text(text(&args[0]).replace(
                text(&args[1]).as_str(),
                text(&args[2]).as_str(),
            ))),
            Ltrim => Ok(Value::Text(text(&args[0]).trim_start().to_string())),
            Rtrim => Ok(Value::Text(text(&args[0]).trim_end().to_string())),
            Trim => Ok(Value::Text(text(&args[0]).trim().to_string())),
            Left => {
                let s: Vec<char> = text(&args[0]).chars().collect();
                let n = int(&args[1])?.max(0) as usize;
                Ok(Value::Text(s[..n.min(s.len())].iter().collect()))
            }
            Right => {
                let s: Vec<char> = text(&args[0]).chars().collect();
                let n = int(&args[1])?.max(0) as usize;
                Ok(Value::Text(s[s.len() - n.min(s.len())..].iter().collect()))
            }
            Reverse => Ok(Value::Text(text(&args[0]).chars().rev().collect())),
            Concat => Ok(Value::Text(
                args.iter()
                    .map(|v| if v.is_null() { String::new() } else { text(v) })
                    .collect(),
            )),
            Coalesce => Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null)),
            IsNullFn => Ok(if args[0].is_null() {
                args[1].clone()
            } else {
                args[0].clone()
            }),
            NullIf => {
                if args[0].sql_eq(&args[1]) == Some(true) {
                    Ok(Value::Null)
                } else {
                    Ok(args[0].clone())
                }
            }
            Abs => num_unary(&args[0], f64::abs),
            Square => num_unary(&args[0], |x| x * x),
            Sqrt => num_unary(&args[0], f64::sqrt),
            Round => {
                let x = float(&args[0])?;
                let places = int(&args[1])?;
                let factor = 10f64.powi(places as i32);
                Ok(Value::Float((x * factor).round() / factor))
            }
            Floor => num_unary(&args[0], f64::floor),
            Ceiling => num_unary(&args[0], f64::ceil),
            Power => {
                let base = float(&args[0])?;
                let exp = float(&args[1])?;
                Ok(Value::Float(base.powf(exp)))
            }
            Exp => num_unary(&args[0], f64::exp),
            Log => {
                let x = float(&args[0])?;
                if x <= 0.0 {
                    return Err(Error::Execution("LOG of non-positive value".into()));
                }
                Ok(Value::Float(x.ln()))
            }
            Sign => {
                let x = float(&args[0])?;
                Ok(Value::Int(if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                }))
            }
            Year => date_part(&args[0], "year"),
            Month => date_part(&args[0], "month"),
            Day => date_part(&args[0], "day"),
            Datepart => {
                let part = text(&args[0]).to_ascii_lowercase();
                date_part(&args[1], &part)
            }
            Datediff => {
                let part = text(&args[0]).to_ascii_lowercase();
                let a = date(&args[1])?;
                let b = date(&args[2])?;
                let days = i64::from(b) - i64::from(a);
                Ok(Value::Int(match part.as_str() {
                    "day" | "dd" | "d" => days,
                    "week" | "wk" | "ww" => days / 7,
                    "month" | "mm" | "m" => {
                        let (ya, ma, _) = ymd_from_date(a);
                        let (yb, mb, _) = ymd_from_date(b);
                        i64::from(yb - ya) * 12 + i64::from(mb) - i64::from(ma)
                    }
                    "year" | "yy" | "yyyy" => {
                        let (ya, _, _) = ymd_from_date(a);
                        let (yb, _, _) = ymd_from_date(b);
                        i64::from(yb - ya)
                    }
                    other => {
                        return Err(Error::Execution(format!("unknown datepart '{other}'")))
                    }
                }))
            }
            Dateadd => {
                let part = text(&args[0]).to_ascii_lowercase();
                let n = int(&args[1])?;
                let d = date(&args[2])?;
                Ok(Value::Date(match part.as_str() {
                    "day" | "dd" | "d" => d + n as i32,
                    "week" | "wk" | "ww" => d + (n * 7) as i32,
                    "month" | "mm" | "m" => add_months(d, n as i32),
                    "year" | "yy" | "yyyy" => add_months(d, n as i32 * 12),
                    other => {
                        return Err(Error::Execution(format!("unknown datepart '{other}'")))
                    }
                }))
            }
            Getdate => Ok(Value::Date(ctx.current_date)),
        }
    }
}

fn text(v: &Value) -> String {
    v.to_text()
}

fn int(v: &Value) -> Result<i64> {
    match v.cast(DataType::Int)? {
        Value::Int(i) => Ok(i),
        _ => Err(Error::Execution("expected integer".into())),
    }
}

fn float(v: &Value) -> Result<f64> {
    match v.cast(DataType::Float)? {
        Value::Float(f) => Ok(f),
        _ => Err(Error::Execution("expected number".into())),
    }
}

fn date(v: &Value) -> Result<i32> {
    match v {
        Value::Date(d) => Ok(*d),
        Value::Text(s) => {
            parse_date(s).ok_or_else(|| Error::Execution(format!("'{s}' is not a date")))
        }
        other => Err(Error::Execution(format!(
            "'{}' is not a date",
            other.to_text()
        ))),
    }
}

fn num_unary(v: &Value, f: impl Fn(f64) -> f64) -> Result<Value> {
    Ok(Value::Float(f(float(v)?)))
}

fn date_part(v: &Value, part: &str) -> Result<Value> {
    let d = date(v)?;
    let (y, m, day) = ymd_from_date(d);
    Ok(Value::Int(match part {
        "year" | "yy" | "yyyy" => i64::from(y),
        "month" | "mm" | "m" => i64::from(m),
        "day" | "dd" | "d" => i64::from(day),
        "quarter" | "qq" | "q" => i64::from((m - 1) / 3 + 1),
        other => return Err(Error::Execution(format!("unknown datepart '{other}'"))),
    }))
}

fn add_months(days: i32, months: i32) -> i32 {
    let (y, m, d) = ymd_from_date(days);
    let total = y * 12 + (m as i32 - 1) + months;
    let ny = total.div_euclid(12);
    let nm = (total.rem_euclid(12) + 1) as u32;
    // Clamp the day to the end of the new month.
    let mut nd = d;
    loop {
        if let Some(v) = crate::value::date_from_ymd(ny, nm, nd) {
            return v;
        }
        nd -= 1;
        if nd == 0 {
            return days;
        }
    }
}

/// T-SQL LIKE matching: `%` any run, `_` any single char, `[abc]`/`[a-z]`
/// character classes, `[^...]` negated. Case-insensitive like the default
/// SQL Server collation.
pub fn like_match(pattern: &str, input: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let s: Vec<char> = input.to_lowercase().chars().collect();
    like_rec(&p, &s)
}

fn like_rec(p: &[char], s: &[char]) -> bool {
    if p.is_empty() {
        return s.is_empty();
    }
    match p[0] {
        '%' => {
            // Collapse consecutive %.
            let rest = &p[1..];
            for skip in 0..=s.len() {
                if like_rec(rest, &s[skip..]) {
                    return true;
                }
            }
            false
        }
        '_' => !s.is_empty() && like_rec(&p[1..], &s[1..]),
        '[' => {
            let close = match p.iter().position(|&c| c == ']') {
                Some(i) if i > 0 => i,
                _ => return !s.is_empty() && s[0] == '[' && like_rec(&p[1..], &s[1..]),
            };
            if s.is_empty() {
                return false;
            }
            let class = &p[1..close];
            let (negated, class) = if class.first() == Some(&'^') {
                (true, &class[1..])
            } else {
                (false, class)
            };
            let mut matched = false;
            let mut i = 0;
            while i < class.len() {
                if i + 2 < class.len() && class[i + 1] == '-' {
                    if class[i] <= s[0] && s[0] <= class[i + 2] {
                        matched = true;
                    }
                    i += 3;
                } else {
                    if class[i] == s[0] {
                        matched = true;
                    }
                    i += 1;
                }
            }
            if matched != negated {
                like_rec(&p[close + 1..], &s[1..])
            } else {
                false
            }
        }
        c => !s.is_empty() && s[0] == c && like_rec(&p[1..], &s[1..]),
    }
}

/// T-SQL PATINDEX: 1-based position where the pattern's *content* begins;
/// 0 when there is no match. A pattern without a leading `%` must match
/// the entire input (from position 1).
pub fn patindex(pattern: &str, input: &str) -> i64 {
    if !pattern.starts_with('%') {
        return if like_match(pattern, input) { 1 } else { 0 };
    }
    let inner: &str = pattern.trim_start_matches('%');
    let (inner, open_end) = match inner.strip_suffix('%') {
        Some(stripped) => (stripped.trim_end_matches('%'), true),
        None => (inner, false),
    };
    if inner.is_empty() {
        // Pattern was all '%': matches at position 1 (even on "").
        return 1;
    }
    let chars: Vec<char> = input.chars().collect();
    let n = chars.len();
    for i in 0..n {
        if open_end {
            // Content may end anywhere: try every end position.
            for j in i..=n {
                let candidate: String = chars[i..j].iter().collect();
                if like_match(inner, &candidate) {
                    return (i + 1) as i64;
                }
            }
        } else {
            // No trailing %: content must run to the end of the input.
            let candidate: String = chars[i..].iter().collect();
            if like_match(inner, &candidate) {
                return (i + 1) as i64;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::date_from_ymd;

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn t(s: &str) -> Value {
        Value::Text(s.into())
    }

    #[test]
    fn string_functions() {
        let c = ctx();
        assert_eq!(
            ScalarFunc::Upper.eval(&[t("abc")], &c).unwrap(),
            t("ABC")
        );
        assert_eq!(ScalarFunc::Len.eval(&[t("abc  ")], &c).unwrap(), Value::Int(3));
        assert_eq!(
            ScalarFunc::Substring
                .eval(&[t("hello"), Value::Int(2), Value::Int(3)], &c)
                .unwrap(),
            t("ell")
        );
        assert_eq!(
            ScalarFunc::Charindex.eval(&[t("lo"), t("hello")], &c).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            ScalarFunc::Charindex.eval(&[t("zz"), t("hello")], &c).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            ScalarFunc::Replace.eval(&[t("a-b-c"), t("-"), t("_")], &c).unwrap(),
            t("a_b_c")
        );
        assert_eq!(
            ScalarFunc::Left.eval(&[t("hello"), Value::Int(2)], &c).unwrap(),
            t("he")
        );
        assert_eq!(
            ScalarFunc::Right.eval(&[t("hello"), Value::Int(2)], &c).unwrap(),
            t("lo")
        );
        assert_eq!(
            ScalarFunc::Reverse.eval(&[t("abc")], &c).unwrap(),
            t("cba")
        );
    }

    #[test]
    fn isnumeric_behaviour() {
        let c = ctx();
        assert_eq!(ScalarFunc::IsNumeric.eval(&[t("3.5")], &c).unwrap(), Value::Int(1));
        assert_eq!(ScalarFunc::IsNumeric.eval(&[t("-999")], &c).unwrap(), Value::Int(1));
        assert_eq!(ScalarFunc::IsNumeric.eval(&[t("NA")], &c).unwrap(), Value::Int(0));
        assert_eq!(ScalarFunc::IsNumeric.eval(&[t("")], &c).unwrap(), Value::Int(0));
    }

    #[test]
    fn null_propagation_and_null_functions() {
        let c = ctx();
        assert!(ScalarFunc::Upper.eval(&[Value::Null], &c).unwrap().is_null());
        assert_eq!(
            ScalarFunc::Coalesce
                .eval(&[Value::Null, Value::Int(3)], &c)
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            ScalarFunc::IsNullFn
                .eval(&[Value::Null, Value::Int(0)], &c)
                .unwrap(),
            Value::Int(0)
        );
        assert!(ScalarFunc::NullIf
            .eval(&[t("-999"), t("-999")], &c)
            .unwrap()
            .is_null());
        assert_eq!(
            ScalarFunc::NullIf.eval(&[t("ok"), t("-999")], &c).unwrap(),
            t("ok")
        );
    }

    #[test]
    fn math_functions() {
        let c = ctx();
        assert_eq!(
            ScalarFunc::Square.eval(&[Value::Int(4)], &c).unwrap(),
            Value::Float(16.0)
        );
        assert_eq!(
            ScalarFunc::Round
                .eval(&[Value::Float(2.345), Value::Int(2)], &c)
                .unwrap(),
            Value::Float(2.35)
        );
        assert_eq!(
            ScalarFunc::Sign.eval(&[Value::Float(-2.0)], &c).unwrap(),
            Value::Int(-1)
        );
        assert!(ScalarFunc::Log.eval(&[Value::Int(0)], &c).is_err());
    }

    #[test]
    fn date_functions() {
        let c = ctx();
        let d = Value::Date(date_from_ymd(2013, 6, 15).unwrap());
        assert_eq!(ScalarFunc::Year.eval(std::slice::from_ref(&d), &c).unwrap(), Value::Int(2013));
        assert_eq!(ScalarFunc::Month.eval(std::slice::from_ref(&d), &c).unwrap(), Value::Int(6));
        assert_eq!(
            ScalarFunc::Datediff
                .eval(&[t("day"), d.clone(), Value::Date(date_from_ymd(2013, 6, 20).unwrap())], &c)
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            ScalarFunc::Dateadd
                .eval(&[t("month"), Value::Int(1), Value::Date(date_from_ymd(2013, 1, 31).unwrap())], &c)
                .unwrap(),
            Value::Date(date_from_ymd(2013, 2, 28).unwrap())
        );
        // Dates parse from text transparently.
        assert_eq!(
            ScalarFunc::Year.eval(&[t("2014-03-09")], &c).unwrap(),
            Value::Int(2014)
        );
    }

    #[test]
    fn getdate_uses_context() {
        let c = EvalContext { current_date: 100 };
        assert_eq!(ScalarFunc::Getdate.eval(&[], &c).unwrap(), Value::Date(100));
    }

    #[test]
    fn like_basic() {
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("ABC", "abc"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn like_character_classes() {
        assert!(like_match("[ab]x", "ax"));
        assert!(like_match("[a-c]x", "bx"));
        assert!(!like_match("[a-c]x", "dx"));
        assert!(like_match("[^a-c]x", "dx"));
        assert!(!like_match("[^a-c]x", "bx"));
    }

    #[test]
    fn patindex_positions() {
        assert_eq!(patindex("%ell%", "hello"), 2);
        assert_eq!(patindex("%zz%", "hello"), 0);
        assert_eq!(patindex("%[0-9]%", "ab3cd"), 3);
        assert_eq!(patindex("h%", "hello"), 1);
    }

    #[test]
    fn arity_enforced() {
        let c = ctx();
        assert!(ScalarFunc::Len.eval(&[], &c).is_err());
        assert!(ScalarFunc::Substring.eval(&[t("x")], &c).is_err());
    }

    #[test]
    fn from_name_resolves_aliases() {
        assert_eq!(ScalarFunc::from_name("len"), Some(ScalarFunc::Len));
        assert_eq!(ScalarFunc::from_name("LENGTH"), Some(ScalarFunc::Len));
        assert_eq!(ScalarFunc::from_name("nope"), None);
    }
}
