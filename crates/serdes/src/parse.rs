//! Recursive-descent JSON reader.
//!
//! Strict RFC 8259 input grammar: no comments, no trailing commas, no
//! leading zeros, no numbers beyond the range of an `f64`. One byte
//! cursor, [`Reader`], serves both decoding paths: [`parse`] builds a
//! [`Json`] tree with it, and the typed
//! [`FromJson::read_json`](crate::FromJson::read_json) readers pull
//! values straight out of it. Both share the string and number
//! scanners, so they accept the same grammar. The parser reports byte
//! offsets in errors and caps nesting so a malicious dump file cannot
//! blow the stack.

use std::borrow::Cow;

use crate::value::Json;

/// Maximum array/object nesting accepted by [`parse`].
const MAX_DEPTH: usize = 1024;

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (leading/trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Reader::new(input);
    p.skip_ws();
    let v = p.value_at(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// A byte cursor over JSON text.
///
/// The typed methods (`null`, `u64`, `str`, `array`, `object`, ...)
/// each skip the whitespace before their token and return `None` when
/// the next token is not what they read. A `None` is a *refusal*, not
/// an error report: it leaves the cursor anywhere, and the caller
/// ([`from_str`](crate::from_str)) abandons the reader and decodes the
/// text again through [`parse`], which produces the error message.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers the typed methods have opened and not yet closed.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// `true` when only whitespace is left.
    #[inline]
    pub fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.bytes.len()
    }

    /// The first byte of the next token, if any.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Consumes the next token if it is the single byte `b`.
    #[inline]
    pub fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes a `null` token; `false` (nothing consumed) otherwise.
    #[inline]
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        self.keyword("null")
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        self.skip_ws();
        if self.keyword("true") {
            Some(true)
        } else if self.keyword("false") {
            Some(false)
        } else {
            None
        }
    }

    /// Reads a non-negative integer that fits a `u64`. Refuses a sign,
    /// a fraction or an exponent, which [`parse`] would not read as an
    /// unsigned integer either.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.skip_ws();
        self.digits()
    }

    /// Reads an integer that fits an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        self.skip_ws();
        if self.byte() == Some(b'-') {
            self.pos += 1;
            let magnitude = self.digits()?;
            // -2^63 is the one magnitude with no positive i64.
            (magnitude <= 1 << 63).then(|| (magnitude as i64).wrapping_neg())
        } else {
            i64::try_from(self.digits()?).ok()
        }
    }

    /// Reads a string token, borrowing it from the input when it holds
    /// no escapes.
    pub fn str(&mut self) -> Option<Cow<'a, str>> {
        self.skip_ws();
        self.string().ok()
    }

    /// Reads an array, calling `each` once per element with the cursor
    /// at the element. `each` must read exactly one value.
    pub fn array(&mut self, mut each: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.open(b'[')?;
        if !self.eat(b']') {
            loop {
                each(self)?;
                if self.eat(b',') {
                    continue;
                }
                if !self.eat(b']') {
                    return None;
                }
                break;
            }
        }
        self.depth -= 1;
        Some(())
    }

    /// Reads an object, calling `each` once per member with its key and
    /// the cursor at its value. `each` must read exactly one value.
    pub fn object(&mut self, mut each: impl FnMut(&mut Self, &str) -> Option<()>) -> Option<()> {
        self.open(b'{')?;
        if !self.eat(b'}') {
            loop {
                let key = self.str()?;
                if !self.eat(b':') {
                    return None;
                }
                each(self, &key)?;
                if self.eat(b',') {
                    continue;
                }
                if !self.eat(b'}') {
                    return None;
                }
                break;
            }
        }
        self.depth -= 1;
        Some(())
    }

    /// Reads any value into a tree, under the nesting already open.
    pub fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        self.value_at(self.depth).ok()
    }

    #[inline]
    fn open(&mut self, b: u8) -> Option<()> {
        if !self.eat(b) {
            return None;
        }
        self.depth += 1;
        (self.depth <= MAX_DEPTH).then_some(())
    }

    /// An unsigned digit run with no leading zero, not followed by a
    /// fraction or an exponent, that fits a `u64`.
    #[inline]
    fn digits(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d) = self
            .byte()
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            // Nineteen digits cannot overflow a u64; a longer run is
            // checked.
            v = if self.pos - start < 19 {
                v * 10 + u64::from(d)
            } else {
                v.checked_mul(10)?.checked_add(u64::from(d))?
            };
            self.pos += 1;
        }
        let len = self.pos - start;
        if len == 0 || (len > 1 && self.bytes[start] == b'0') {
            return None;
        }
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        Some(v)
    }

    #[inline]
    fn keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    // ---- the tree path ----------------------------------------------

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, ParseError> {
        if self.keyword(kw) {
            Ok(v)
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.byte() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.array_at(depth),
            Some(b'{') => self.object_at(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array_at(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value_at(depth + 1)?);
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object_at(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value_at(depth + 1)?;
            entries.push((key, val));
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Advances over bytes that stand for themselves inside a string.
    /// It stops only at ASCII bytes, so the run ends on a char boundary.
    fn plain_run(&mut self) {
        while let Some(b) = self.byte() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// The string token at the cursor, copied in plain runs between
    /// escapes, and borrowed from the input when it has none.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Four hex digits; a sign or any other byte is refused.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated unicode escape"));
        };
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid unicode escape"))?;
            v = (v << 4) | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        let int_start = self.pos;
        // The integer part, accumulated inline; `None` on overflow.
        let mut int = Some(0u64);
        while let Some(d) = self.byte().filter(u8::is_ascii_digit) {
            int = int.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
            self.pos = int_start + 1;
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Some(v) = int {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::U64(42));
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(parse("-0").unwrap(), Json::I64(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
        assert_eq!(parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(parse("0.5").unwrap(), Json::F64(0.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_containers() {
        assert_eq!(
            parse(r#"[1, "a", {"k": [true]}]"#).unwrap(),
            Json::Arr(vec![
                Json::U64(1),
                Json::Str("a".into()),
                Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Bool(true)]))]),
            ])
        );
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\u0041""#).unwrap(),
            Json::Str("a\"b\\c\ndA".into())
        );
        assert_eq!(parse(r#""\u00e9\u00E9""#).unwrap(), Json::Str("éé".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        // Non-ASCII passthrough, in a plain run and between escapes.
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
        assert_eq!(parse("\"é\\né\"").unwrap(), Json::Str("é\né".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1 2]",
            "1 2",
            "\"abc",
            "{\"a\":1,}",
            "nul",
            "+1",
            "01a",
            "\"\\q\"",
            "[",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "01",
            "-007",
            "00",
            "[1,01]",
            "1E400",
            "-1e400",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn grammar_errors_point_at_the_offending_byte() {
        let at = |text: &str| parse(text).unwrap_err().offset;
        // The sign inside the escape, where four hex digits must start.
        assert_eq!(at("\"\\u+041\""), 3);
        // The digit after a leading zero.
        assert_eq!(at("01"), 1);
        assert_eq!(at("-007"), 2);
        assert_eq!(at("00"), 1);
        assert_eq!(at("[1, 01]"), 5);
        // The number that overflows an f64.
        assert_eq!(at("1E400"), 0);
        assert_eq!(at("[0, -2e999]"), 4);
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(3000) + &"]".repeat(3000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn round_trips_through_printer() {
        let src = r#"{"a":1,"b":[null,true,"x\ny"],"c":{"d":18446744073709551615},"e":-3}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string_compact(), src);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn typed_reads_refuse_what_the_tree_path_would_not_read_the_same() {
        let u = |text: &str| Reader::new(text).u64();
        assert_eq!(u(" 42"), Some(42));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        for refused in ["18446744073709551616", "-0", "01", "1.0", "1e2", "+1", ""] {
            assert_eq!(u(refused), None, "{refused:?}");
        }
        let i = |text: &str| Reader::new(text).i64();
        assert_eq!(i("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(i("9223372036854775807"), Some(i64::MAX));
        assert_eq!(i("-0"), Some(0));
        for refused in ["9223372036854775808", "-9223372036854775809", "- 1", "-01"] {
            assert_eq!(i(refused), None, "{refused:?}");
        }
    }

    #[test]
    fn typed_containers_track_nesting() {
        let mut sum = 0;
        let mut r = Reader::new(" [ 1 , 2 ] ");
        r.array(|r| {
            sum += r.u64()?;
            Some(())
        })
        .unwrap();
        assert!(r.at_end());
        assert_eq!(sum, 3);
        for refused in ["[1,]", "[,1]", "[1 2]", "[1"] {
            assert!(Reader::new(refused).array(|r| r.u64().map(drop)).is_none());
        }
        let mut keys = Vec::new();
        let mut r = Reader::new(r#"{"a":null,"b\n":null}"#);
        r.object(|r, k| {
            keys.push(k.to_string());
            r.null().then_some(())
        })
        .unwrap();
        assert_eq!(keys, ["a", "b\n"]);
    }
}
