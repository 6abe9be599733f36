//! The JSON value model.
//!
//! [`Json`] is the interchange tree every serializable type converts
//! through. Integers are kept exact — a coredump routinely carries
//! `u64::MAX`-adjacent addresses and register values, so numbers are
//! stored as `U64`/`I64` (with `F64` only for non-integral input) rather
//! than lossy doubles.

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for machine words).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A non-integral number. Never produced by this repo's own types;
    /// accepted on input for interoperability.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved so serialization is
    /// deterministic and matches declaration order of struct fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The payload of an externally-tagged enum variant: `Some(inner)`
    /// when this is a single-entry object `{"name": inner}`.
    pub fn variant_payload(&self, name: &str) -> Option<&Json> {
        match self.as_obj() {
            Some([(k, v)]) if k == name => Some(v),
            _ => None,
        }
    }

    /// A short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serializes to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Serializes with 2-space indentation (the `serde_json` pretty
    /// layout, kept so existing fixtures and docs remain recognizable).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out
    }
}

/// Writes `s` as a JSON string token, copying the runs between escapes
/// in one step each.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` holds an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` in decimal, from a stack buffer and without `fmt`: the
/// bytes `n.to_string()` would produce. JSON numbers and the suffix
/// identity text (`res_core::ExecutionSuffix::identity_bytes`) share it.
#[inline]
pub fn write_u64(mut n: u64, out: &mut String) {
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Writes `n` in decimal, with a leading `-` when negative.
#[inline]
pub(crate) fn write_i64(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    write_u64(n.unsigned_abs(), out);
}

fn write_number_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Match serde_json: integral floats keep a trailing ".0".
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // JSON has no Inf/NaN; serde_json emits null.
        out.push_str("null");
    }
}

pub(crate) fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => write_u64(*n, out),
        Json::I64(n) => write_i64(*n, out),
        Json::F64(n) => write_number_f64(*n, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push(']');
        }
        Json::Obj(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_layout() {
        let v = Json::Obj(vec![
            ("a".into(), Json::U64(1)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.to_string_compact(), r#"{"a":1,"b":[null,true]}"#);
    }

    #[test]
    fn pretty_layout_matches_serde_json_style() {
        let v = Json::Obj(vec![
            ("a".into(), Json::U64(1)),
            ("b".into(), Json::Arr(vec![Json::U64(2)])),
            ("c".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ],\n  \"c\": {}\n}"
        );
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn u64_max_survives_exactly() {
        assert_eq!(
            Json::U64(u64::MAX).to_string_compact(),
            "18446744073709551615"
        );
        assert_eq!(Json::I64(-42).to_string_compact(), "-42");
    }

    #[test]
    fn variant_payload_requires_single_key() {
        let one = Json::Obj(vec![("X".into(), Json::U64(1))]);
        assert_eq!(one.variant_payload("X"), Some(&Json::U64(1)));
        assert_eq!(one.variant_payload("Y"), None);
        let two = Json::Obj(vec![("X".into(), Json::U64(1)), ("Y".into(), Json::U64(2))]);
        assert_eq!(two.variant_payload("X"), None);
    }
}
