//! A minimal JSON writer (the repository builds without crates.io).

use std::fmt::Write;

/// A JSON value. `Raw` embeds text that is already valid JSON (a child
/// run's result line) without re-parsing it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN/Infinity; a measurement that produced one is
            // reported as null instead of as invalid JSON.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` prints the shortest text that round-trips, keeping a
            // decimal point (`3.0`), so every measured digit survives.
            Json::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_value_kind() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(42)),
            ("x", Json::Num(1.5)),
            ("whole", Json::Num(3.0)),
            ("tiny", Json::Num(1.25e-7)),
            ("nan", Json::Num(f64::NAN)),
            ("none", Json::Null),
            ("raw", Json::Raw("{\"k\": 1}".into())),
        ]);
        assert_eq!(
            v.render(),
            "{\"ok\": true, \"n\": 42, \"x\": 1.5, \"whole\": 3.0, \"tiny\": 1.25e-7, \
             \"nan\": null, \"none\": null, \"raw\": {\"k\": 1}}"
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}é").render(),
            "\"a\\\"b\\\\c\\nd\\u0001é\""
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }
}
