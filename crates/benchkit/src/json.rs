//! Minimal deterministic JSON: a value tree, a pretty writer and a
//! recursive-descent parser.
//!
//! The build environment is offline (no serde); everything benchkit
//! emits or reads — `BENCH_contory.json`, `results/baseline.json`, the
//! embedded obskit metrics snapshot — goes through this module. Objects
//! are ordered `(key, value)` vectors, so the *writer* controls key
//! order and the output is byte-deterministic for a given tree; the
//! parser preserves encounter order, which keeps parse→render
//! round-trips stable too.

use obskit::json::{escape_into, fmt_f64};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite floats render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an *ordered* key/value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// `Num` when present, `Null` otherwise.
    pub fn opt_num(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    /// Sets `key` on an object (replacing an existing entry in place).
    ///
    /// No-op on non-objects.
    pub fn set(&mut self, key: &str, v: Json) {
        if let Json::Obj(entries) = self {
            if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                e.1 = v;
            } else {
                entries.push((key.to_owned(), v));
            }
        }
    }

    /// Looks a key up on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the tree pretty-printed (2-space indent, `\n` line ends,
    /// trailing newline). Byte-deterministic for a given tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    item.write_into(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\": ");
                    v.write_into(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry a byte offset and a short
    /// description; arrays and objects nested more than 128 deep are
    /// an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Each level
/// costs a stack frame, so without a bound a hostile document could
/// overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_owned());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogates are not expected in our own
                            // output; map unpaired ones to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        b => return Err(format!("unknown escape '\\{}'", b as char)),
                    }
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_owned())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure() {
        let mut doc = Json::obj();
        doc.set("schema", Json::str("contory-bench/1"));
        doc.set("n", Json::num(3.0));
        doc.set("half", Json::num(0.5));
        doc.set("neg", Json::num(-42.25));
        doc.set("flag", Json::Bool(true));
        doc.set("nothing", Json::Null);
        doc.set(
            "arr",
            Json::Arr(vec![Json::num(1.0), Json::str("x\n\"y\""), Json::obj()]),
        );
        let text = doc.render();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        // Render is idempotent → byte-determinism through round-trips.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn set_replaces_in_place() {
        let mut o = Json::obj();
        o.set("a", Json::num(1.0));
        o.set("b", Json::num(2.0));
        o.set("a", Json::num(9.0));
        assert_eq!(o.get("a").and_then(Json::as_f64), Some(9.0));
        let Json::Obj(entries) = &o else {
            panic!("not an object: {o:?}");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a", "order preserved on replace");
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::Num(1.0).render(), "1\n");
        assert_eq!(Json::Num(0.078).render(), "0.078\n");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(10_000);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread panicked");
        let err = res.expect_err("10,000 levels must be refused");
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn parses_nested_metrics_snapshot_shape() {
        let text = "{\"counters\":{\"a\":1},\"gauges\":{\"g\":-0.5},\
                    \"histograms\":{\"h\":{\"count\":2,\"p50\":7,\"p90\":127,\"p99\":127}}}";
        let v = Json::parse(text).expect("parse");
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("h"))
                .and_then(|h| h.get("p90"))
                .and_then(Json::as_f64),
            Some(127.0)
        );
    }
}
