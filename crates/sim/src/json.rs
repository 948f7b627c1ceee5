//! Minimal JSON: a value tree with a renderer and a parser.
//!
//! The workspace builds offline with no serialization crate, so this
//! layer is the one JSON writer and reader.  It exists for `benchmark/`: its result lines, reports and span export
//! are [`JsonValue`] trees, it reads result lines and `BENCHMARK.json` back
//! with [`JsonValue::parse`], and it renders a run's [`RunMetrics`] through
//! [`ToJson`].  The `figures` driver uses the parser once, to check that the
//! Chrome trace export stayed valid JSON.

use crate::experiment::RunMetrics;

/// A JSON value assembled programmatically and rendered with
/// [`JsonValue::render`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document (the inverse of [`JsonValue::render`]).
    ///
    /// Object keys keep their document order.  Returns `None` on any syntax
    /// error or trailing garbage.
    pub fn parse(text: &str) -> Option<Self> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Self::parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Option<Self> {
        skip_ws(b, pos);
        match b.get(*pos)? {
            b'n' => parse_literal(b, pos, "null", JsonValue::Null),
            b't' => parse_literal(b, pos, "true", JsonValue::Bool(true)),
            b'f' => parse_literal(b, pos, "false", JsonValue::Bool(false)),
            b'"' => Self::parse_string(b, pos).map(JsonValue::Str),
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(JsonValue::Array(items));
                }
                loop {
                    items.push(Self::parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(JsonValue::Array(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'{' => {
                *pos += 1;
                let mut entries = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(JsonValue::Object(entries));
                }
                loop {
                    skip_ws(b, pos);
                    let key = Self::parse_string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return None;
                    }
                    *pos += 1;
                    entries.push((key, Self::parse_value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(JsonValue::Object(entries));
                        }
                        _ => return None,
                    }
                }
            }
            _ => Self::parse_number(b, pos),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b.get(*pos + 1..*pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            // Surrogates are not expected in our own output;
                            // map unpaired ones to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                &c if c < 0x20 => return None,
                _ => {
                    // Copy a whole UTF-8 scalar.
                    let start = *pos;
                    let mut end = start + 1;
                    while end < b.len() && (b[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..end]).ok()?);
                    *pos = end;
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Option<Self> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while matches!(
            b.get(*pos),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            *pos += 1;
        }
        if *pos == start {
            return None;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Num)
    }

    /// Convenience constructor for object values.
    pub fn object(entries: impl IntoIterator<Item = (&'static str, JsonValue)>) -> Self {
        JsonValue::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip float formatting is valid
                    // JSON for finite values.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                saguaro_trace::escape_json(s, out);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(
        b.get(*pos),
        Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
    ) {
        *pos += 1;
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Option<JsonValue> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

/// Types that know their JSON representation.
pub trait ToJson {
    /// Converts the value into a [`JsonValue`] tree.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("offered_tps", JsonValue::Num(self.offered_tps)),
            ("throughput_tps", JsonValue::Num(self.throughput_tps)),
            ("avg_latency_ms", JsonValue::Num(self.avg_latency_ms)),
            ("p50_latency_ms", JsonValue::Num(self.p50_latency_ms)),
            ("p95_latency_ms", JsonValue::Num(self.p95_latency_ms)),
            ("p99_latency_ms", JsonValue::Num(self.p99_latency_ms)),
            ("committed", JsonValue::Num(self.committed as f64)),
            ("aborted", JsonValue::Num(self.aborted as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = JsonValue::object([
            ("label", JsonValue::Str("Opt-90%C \"quoted\"\n".into())),
            (
                "points",
                JsonValue::Array(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Num(-2e-3),
                    JsonValue::Bool(false),
                    JsonValue::Null,
                    JsonValue::Object(vec![]),
                ]),
            ),
        ]);
        let parsed = JsonValue::parse(&doc.render()).expect("own output parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            JsonValue::parse(" { \"a\" : [ 1 , 2 ] } "),
            Some(JsonValue::object([(
                "a",
                JsonValue::Array(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])
            )]))
        );
        assert_eq!(JsonValue::parse("{\"a\":1} trailing"), None);
        assert_eq!(JsonValue::parse("{\"a\":}"), None);
        assert_eq!(JsonValue::parse("[1,]"), None);
        assert_eq!(JsonValue::parse(""), None);
    }

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Num(1.5).render(), "1.5");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Str("a\"b\n".into()).render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn metrics_render_as_an_object_with_every_field() {
        let m = RunMetrics {
            offered_tps: 600.0,
            throughput_tps: 590.0,
            avg_latency_ms: 8.5,
            p50_latency_ms: 1.0,
            p95_latency_ms: 37.0,
            p99_latency_ms: 46.0,
            committed: 177,
            aborted: 1,
        };
        let json = m.to_json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "offered_tps",
            "throughput_tps",
            "avg_latency_ms",
            "p50_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "committed",
            "aborted",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"committed\":177"));
    }
}
