//! A minimal JSON value and writer. Strings are escaped completely,
//! control characters included, so a result line stays valid JSON
//! whatever a file name or CPU model string holds.

use std::fmt::Write as _;

/// A JSON value; objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (no-op on other values).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(fields) = self {
            fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// Serialize compactly on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// and every character below U+0020 is escaped as RFC 8259 requires.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i).map_or(Json::Num(i as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::from(i as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_tab_and_newline_inside_a_string_value() {
        let mut o = Json::obj();
        o.set("file", "we\tird\nname.xml");
        assert_eq!(o.render(), r#"{"file": "we\tird\nname.xml"}"#);
    }

    #[test]
    fn escapes_every_control_character() {
        let s: String = (0u8..0x20).map(char::from).collect();
        let rendered = Json::from(s.as_str()).render();
        assert!(rendered.bytes().all(|b| b >= 0x20), "{rendered}");
        assert!(rendered.contains("\\u0001") && rendered.contains("\\u001f"));
        assert_eq!(Json::from("a\"b\\c").render(), r#""a\"b\\c""#);
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::from(0.1234567891234).render(), "0.1234567891234");
        assert_eq!(Json::from(3.0).render(), "3.0");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(42u64).render(), "42");
    }

    #[test]
    fn nested_values_render_in_order() {
        let mut inner = Json::obj();
        inner.set("value", 1.5).set("unit", "ms");
        let mut o = Json::obj();
        o.set("ok", true).set("m", inner).set("xs", vec![Json::Int(1), Json::Null]);
        assert_eq!(
            o.render(),
            r#"{"ok": true, "m": {"value": 1.5, "unit": "ms"}, "xs": [1, null]}"#
        );
    }
}
