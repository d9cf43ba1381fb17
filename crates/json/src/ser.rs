//! JSON serialization: compact and pretty printers.

use crate::value::Value;
use std::fmt::Write as _;

/// Serializes a value to compact JSON (no insignificant whitespace).
///
/// Object keys are emitted in sorted order (see [`Value`]), so output is
/// deterministic.
///
/// # Examples
///
/// ```
/// use ev_json::Value;
/// let v = Value::array([Value::Int(1), Value::from("x")]);
/// assert_eq!(ev_json::to_string(&v), r#"[1,"x"]"#);
/// ```
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Serializes a value with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => write_int(out, *i),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Appends `i` as [`to_string`] writes a [`Value::Int`]: for callers
/// that write a document straight into text, without a [`Value`].
pub fn write_int(out: &mut String, i: i64) {
    if i < 0 {
        out.push('-');
    }
    write_digits(out, i.unsigned_abs());
}

/// Writes `n` in decimal.
fn write_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

/// Appends `f` as [`to_string`] writes a [`Value::Float`]: in a form
/// that parses back to the same value. JSON has no NaN/Infinity; they
/// serialize as `null`, matching common JS `JSON.stringify` behaviour.
pub fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // A whole number below 1e15 is exact as a u64. Keep the sign
            // (so -0.0 stays -0.0) and a trailing .0 so the value
            // re-parses as Float, not Int.
            if f.is_sign_negative() {
                out.push('-');
            }
            write_digits(out, f.abs() as u64);
            out.push_str(".0");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as [`to_string`] writes a [`Value::String`] or an object
/// key: a JSON string literal, each run of bytes that needs no escape
/// copied in one piece.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use ev_test::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn compact_forms() {
        assert_eq!(to_string(&Value::Null), "null");
        assert_eq!(to_string(&Value::Bool(true)), "true");
        assert_eq!(to_string(&Value::Int(-7)), "-7");
        assert_eq!(to_string(&Value::Float(1.5)), "1.5");
        assert_eq!(to_string(&Value::from("a\"b")), r#""a\"b""#);
        assert_eq!(to_string(&Value::Array(vec![])), "[]");
        assert_eq!(to_string(&Value::Object(BTreeMap::new())), "{}");
    }

    #[test]
    fn float_whole_numbers_keep_point() {
        assert_eq!(to_string(&Value::Float(2.0)), "2.0");
        let reparsed = parse(&to_string(&Value::Float(2.0))).unwrap();
        assert_eq!(reparsed, Value::Float(2.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn control_characters_escaped() {
        assert_eq!(to_string(&Value::from("\u{1}")), "\"\\u0001\"");
        assert_eq!(to_string(&Value::from("\n\t")), r#""\n\t""#);
    }

    #[test]
    fn pretty_layout() {
        let v = Value::object([("a", Value::array([Value::Int(1)]))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    /// Recursive documents via the seeded escape hatch: a size budget
    /// bounds total node count, `depth` bounds nesting.
    fn arb_value() -> impl Gen<Value = Value> {
        seeded(1..48, |rng, size| build_value(rng, size, 4))
    }

    fn build_value(rng: &mut ev_test::Rng, size: usize, depth: u32) -> Value {
        const CHARS: &[char] = &[
            'a', 'b', 'z', ' ', '"', '\\', '/', '\u{1}', '\n', '\u{7f}', '\u{e9}', '\u{4e2d}',
        ];
        let branching = depth > 0 && size > 1;
        match rng.gen_range(0u8..if branching { 7 } else { 5 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => {
                // Finite floats only: NaN/Inf intentionally do not roundtrip.
                let f = loop {
                    let f = f64::from_bits(rng.next_u64());
                    if f.is_finite() {
                        break f;
                    }
                };
                Value::Float(f)
            }
            4 => {
                let n = rng.gen_range(0usize..12);
                Value::from(
                    (0..n)
                        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                        .collect::<String>(),
                )
            }
            5 => {
                let n = rng.gen_range(0usize..6.min(size));
                Value::Array(
                    (0..n)
                        .map(|_| build_value(rng, size / n.max(1), depth - 1))
                        .collect(),
                )
            }
            _ => {
                let n = rng.gen_range(0usize..6.min(size));
                Value::Object(
                    (0..n)
                        .map(|_| {
                            let klen = rng.gen_range(0usize..7);
                            let key: String = (0..klen)
                                .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                                .collect();
                            (key, build_value(rng, size / n.max(1), depth - 1))
                        })
                        .collect(),
                )
            }
        }
    }

    property! {
        fn parse_to_string_roundtrip(v in arb_value()) {
            let s = to_string(&v);
            let reparsed = parse(&s).unwrap();
            // Floats may lose Int/Float distinction only when we wrote a
            // trailing .0 — compare via serialization fixpoint instead.
            prop_assert_eq!(to_string(&reparsed), s);
        }

        fn pretty_parses_to_same_value(v in arb_value()) {
            let compact = parse(&to_string(&v)).unwrap();
            let pretty = parse(&to_string_pretty(&v)).unwrap();
            prop_assert_eq!(compact, pretty);
        }
    }
}
