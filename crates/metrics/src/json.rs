//! A minimal JSON document builder for machine-readable reports.
//!
//! The offline build environment has no `serde_json`; report binaries
//! (`chaos_net`, `vopr`) emit JSON so results can be diffed, plotted,
//! and gated in CI. This module gives them a tiny value tree plus a
//! deterministic pretty-printer instead of hand-formatted `format!` strings:
//! object keys render in insertion order, strings are escaped per RFC 8259,
//! and non-finite floats degrade to `null` (JSON has no NaN/Inf).

/// A JSON value. Construct via the variants or the `From` impls
/// (`Json::from(42u64)`, `Json::from("text")`, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// An unsigned integer (rendered without a decimal point).
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order so reports diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object. Panics when `self` is not an
    /// object — report builders construct the shape statically.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Renders the value as pretty-printed JSON (two-space indent) with a
    /// trailing newline, ready to write to a report file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) if f.is_finite() => {
                // Keep integral floats readable ("3.0", not "3") so the field
                // type stays visibly float across runs.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` renders as `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::from(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::from(7u64).render(), "7\n");
        assert_eq!(Json::from(2.5).render(), "2.5\n");
        assert_eq!(Json::from(3.0).render(), "3.0\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"b\"\n\t\\ \u{1}");
        assert_eq!(s.render(), "\"a \\\"b\\\"\\n\\t\\\\ \\u0001\"\n");
    }

    #[test]
    fn objects_keep_insertion_order_and_nest() {
        let mut inner = Json::obj();
        inner.push("z", 1u64).push("a", 2u64);
        let mut doc = Json::obj();
        doc.push("name", "run").push("inner", inner.clone());
        doc.push("list", vec![Json::from(1u64), Json::Null]);
        let text = doc.render();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
        assert_eq!(
            text,
            "{\n  \"name\": \"run\",\n  \"inner\": {\n    \"z\": 1,\n    \"a\": 2\n  },\n  \
             \"list\": [\n    1,\n    null\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().render(), "{}\n");
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
    }

    #[test]
    #[should_panic(expected = "Json::push on non-object")]
    fn push_on_scalar_panics() {
        Json::Null.push("k", 1u64);
    }
}
