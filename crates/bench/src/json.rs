//! The one JSON writer: an ordered value and the pretty-printer that
//! lays out `results/*.json` (two-space indent, empty containers on
//! one line, non-finite floats as `null`, no trailing newline).

use std::fmt::{self, Write};

/// A JSON value. Object fields keep insertion order, so a results file
/// reads in the order its experiment wrote it.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed exactly.
    Int(i128),
    /// A float, printed as Rust's shortest round-trip decimal (`1.0`
    /// prints `1`); JSON has no NaN or infinity, so those print `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

/// `obj! { key: value, .. }` — an object whose field names are the
/// identifiers and whose values go through `Json::from`.
macro_rules! obj {
    ($($key:ident: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $((stringify!($key), $crate::json::Json::from($value))),*
        ])
    };
}
pub(crate) use obj;

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
from_int!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    fn write(&self, out: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Float(x) if x.is_finite() => write!(out, "{x}"),
            Json::Float(_) => out.write_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => block(out, depth, '[', ']', items, |out, item| {
                item.write(out, depth + 1)
            }),
            Json::Obj(fields) => block(out, depth, '{', '}', fields, |out, (key, value)| {
                write_string(out, key)?;
                out.write_str(": ")?;
                value.write(out, depth + 1)
            }),
        }
    }
}

/// One container: each item on its own line one level in, the closer
/// back at `depth`; an empty container stays `[]` / `{}`.
fn block<T>(
    out: &mut fmt::Formatter<'_>,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if items.is_empty() {
        return out.write_char(close);
    }
    for (i, it) in items.iter().enumerate() {
        out.write_str(if i == 0 { "\n" } else { ",\n" })?;
        write!(out, "{:w$}", "", w = 2 * (depth + 1))?;
        item(out, it)?;
    }
    write!(out, "\n{:w$}{close}", "", w = 2 * depth)
}

fn write_string(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: impl Into<Json>) -> String {
        v.into().to_string()
    }

    #[test]
    fn scalars_and_strings() {
        assert_eq!(s(42u64), "42");
        assert_eq!(s(-3i64), "-3");
        assert_eq!(s(u64::MAX), "18446744073709551615");
        assert_eq!(s(true), "true");
        assert_eq!(s(1.5), "1.5");
        assert_eq!(s(1.0), "1");
        assert_eq!(s(0.5479999999999999), "0.5479999999999999");
        assert_eq!(s(f64::NAN), "null");
        assert_eq!(s(f64::INFINITY), "null");
        assert_eq!(s(f64::NEG_INFINITY), "null");
        assert_eq!(s("a\"b\\c\nd\r\te"), r#""a\"b\\c\nd\r\te""#);
        assert_eq!(s("\u{1}\u{1f} µ"), r#""\u0001\u001f µ""#);
    }

    #[test]
    fn containers() {
        assert_eq!(s(vec![1u32, 2, 3]), "[\n  1,\n  2,\n  3\n]");
        assert_eq!(s(Some(7u64)), "7");
        assert_eq!(s(None::<f64>), "null");
        assert_eq!(s(Vec::<u64>::new()), "[]");
        assert_eq!(obj! {}.to_string(), "{}");
        assert_eq!(Json::default(), Json::Null);
    }

    #[test]
    fn pretty_roundtrip_shape() {
        let v = obj! {
            a: 1u64,
            b: vec![obj! { x: 0.5, y: Vec::<u64>::new() }],
            c: obj! {},
            d: "x,y:{}[]",
        };
        let want = "{\n  \"a\": 1,\n  \"b\": [\n    {\n      \"x\": 0.5,\n      \
                    \"y\": []\n    }\n  ],\n  \"c\": {},\n  \"d\": \"x,y:{}[]\"\n}";
        assert_eq!(v.to_string(), want);
    }
}
