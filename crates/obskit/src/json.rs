//! The JSON string escaper and number formatter every obs exporter
//! shares: obskit's metrics and span exports, and benchkit's JSON
//! writer and report text.

use std::fmt::Write as _;

/// JSON string-escapes `s` into `out` (quotes, backslashes and control
/// characters), so an exporter never emits malformed JSON.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Formats a float as a JSON number: Rust's shortest round-trip `{}`
/// representation (deterministic), with non-finite values mapped to
/// `null` (JSON has no NaN/Inf).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
