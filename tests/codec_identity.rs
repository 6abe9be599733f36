//! Codec identity: the direct JSON paths against the codec they replaced.
//!
//! `mvm_json::to_string` writes typed values straight to text, and
//! `mvm_json::from_str` reads them straight back, falling back to the
//! tree path whenever the direct reader refuses. Neither may change a
//! byte or an error: `to_string` must equal the reference tree printer
//! on `to_json()`, and `from_str` must equal the reference `parse` plus
//! `from_json`, error messages and byte offsets included. The reference
//! is kept in this file as it was before the direct paths (see
//! [`reference`]). The checks run on every JSON payload in
//! `tests/fixtures/`, on generated populations (programs, genuine and
//! hardware-corrupted dumps, wire frames, trace files and store
//! entries), and, as properties, on arbitrary `Json` values and on
//! mutated text. Reproduce a property failure with
//! `RES_PROP_SEED=<seed> cargo test --test codec_identity`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;

use mvm_json::{json_enum, json_struct, FromJson, Json, JsonError, Reader, ToJson};
use mvm_prng::Xoshiro256StarStar;
use proptest_mini::{any_u64, check, pair, prop_assert_eq, usize_range, Config, PropResult};
use res_debugger::coredump::{Coredump, HwFlavor, Minidump};
use res_debugger::isa::Program;
use res_debugger::machine::Memory;
use res_debugger::obs::Recorder;
use res_debugger::res::{hardware_verdict, replay_suffix, HwVerdict, ResConfig};
use res_debugger::serve::{StatsRequest, WireRequest, WireResponse};
use res_debugger::store::{decode_record, Header, StoreStats, Tag};
use res_debugger::symbolic::{CanonFp, PortableResult};
use res_debugger::trace::{
    record_trace, ExpectedOutcome, TraceFile, TraceHeader, TraceImage, TraceInputs, TraceStep,
};
use res_debugger::triage::{triage, with_shared_store, TriageRequest, TriageResponse};
use res_debugger::workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass, GeneratedProgram,
};

mod reference {
    //! The JSON codec as it was before the direct paths: the tree
    //! printer verbatim, and the recursive-descent parser verbatim but
    //! for the three grammar fixes, each marked `FIX:`.

    use mvm_json::{Json, ParseError};

    const MAX_DEPTH: usize = 1024;

    /// The compact printer.
    pub fn to_string_compact(v: &Json) -> String {
        let mut out = String::new();
        write_compact(v, &mut out);
        out
    }

    /// The parser.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{0008}' => out.push_str("\\b"),
                '\u{000C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
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

    fn write_compact(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
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

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: impl Into<String>) -> ParseError {
            ParseError {
                offset: self.pos,
                message: msg.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected '{}'", b as char)))
            }
        }

        fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, ParseError> {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                Ok(v)
            } else {
                Err(self.err(format!("expected '{kw}'")))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
            if depth > MAX_DEPTH {
                return Err(self.err("maximum nesting depth exceeded"));
            }
            match self.peek() {
                Some(b'n') => self.eat_keyword("null", Json::Null),
                Some(b't') => self.eat_keyword("true", Json::Bool(true)),
                Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
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
                self.skip_ws();
                let val = self.value(depth + 1)?;
                entries.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
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
                        // Consume one UTF-8 scalar (input is valid UTF-8 by
                        // construction from &str).
                        let start = self.pos;
                        let mut end = start + 1;
                        while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                        self.pos = end;
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated unicode escape"));
            }
            let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("invalid unicode escape"))?;
            // FIX: `from_str_radix` accepts a sign; four hex digits do not.
            if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(self.err("invalid unicode escape"));
            }
            let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
            self.pos += 4;
            Ok(v)
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            let negative = self.peek() == Some(b'-');
            if negative {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit"));
            }
            let int_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            // FIX: no leading zeros; the error points at the second digit.
            if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
                self.pos = int_start + 1;
                return Err(self.err("leading zero in number"));
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("expected digit after decimal point"));
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("expected digit in exponent"));
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if !is_float {
                if negative {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Json::I64(v));
                    }
                } else if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::U64(v));
                }
            }
            // FIX: a number beyond the range of an f64 is refused at its start.
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
}

/// `from_str` as the reference defines it.
fn reference_decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&reference::parse(text)?)
}

/// `from_str` agrees with the reference on `text`, whatever it holds.
fn decode_like_reference<T: FromJson + PartialEq + Debug>(what: &str, text: &str) -> PropResult {
    let direct = mvm_json::from_str::<T>(text);
    let tree = reference_decode::<T>(text);
    if direct != tree {
        return Err(format!(
            "{what}: from_str differs from the reference on {text:?}\n  from_str:  {direct:?}\n  reference: {tree:?}"
        ));
    }
    Ok(())
}

/// Both directions agree with the reference on `value`: its compact
/// text byte for byte, and the decoding of its compact and pretty text.
fn codec_like_reference<T: ToJson + FromJson + PartialEq + Debug>(what: &str, value: &T) {
    let text = mvm_json::to_string(value);
    assert_eq!(
        text,
        reference::to_string_compact(&value.to_json()),
        "{what}: to_string differs from the reference printer"
    );
    assert_eq!(
        mvm_json::from_str::<T>(&text).as_ref(),
        Ok(value),
        "{what}: the compact text does not read back"
    );
    decode_like_reference::<T>(what, &text).unwrap();
    let pretty = mvm_json::to_string_pretty(value);
    decode_like_reference::<T>(what, &pretty).unwrap();
    // The repo's own payloads take the direct path, compact or pretty.
    for text in [&text, &pretty] {
        let mut r = Reader::new(text);
        assert!(
            T::read_json(&mut r).is_some() && r.at_end(),
            "{what}: the direct reader refuses {text}"
        );
    }
}

/// The shape of a store's `E` record payload.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    fp: CanonFp,
    result: PortableResult,
}
json_struct!(Entry { fp, result });

/// Decodes one record payload of a store (`RES-STORE`) or trace
/// (`RES-TRACE`) file by its tag, checking it against the reference and
/// that it re-encodes to its own bytes.
fn record_like_reference(what: &str, tag: Tag, payload: &str) {
    fn check<T: ToJson + FromJson + PartialEq + Debug>(what: &str, payload: &str) {
        decode_like_reference::<T>(what, payload).unwrap();
        let value: T = mvm_json::from_str(payload).expect("the record decodes");
        codec_like_reference(what, &value);
        assert_eq!(
            mvm_json::to_string(&value),
            payload,
            "{what}: the record does not re-encode to its bytes"
        );
    }
    let what = &format!("{what} record {tag:?}");
    match tag {
        // Stores and traces both lead with `H`; the shapes differ.
        Tag::Header if payload.contains("\"isa\"") => check::<Header>(what, payload),
        Tag::Header => check::<TraceHeader>(what, payload),
        Tag::Entry => check::<Entry>(what, payload),
        Tag::Stats => check::<StoreStats>(what, payload),
        Tag::Unknown(b'D') => check::<Coredump>(what, payload),
        Tag::Unknown(b'M') => check::<TraceImage>(what, payload),
        Tag::Unknown(b'I') => check::<TraceInputs>(what, payload),
        Tag::Unknown(b'T') => check::<TraceStep>(what, payload),
        Tag::Unknown(b'X') => check::<ExpectedOutcome>(what, payload),
        Tag::Unknown(other) => panic!("{what}: unexpected tag {}", other as char),
    }
}

/// Every record of a store or trace file (the first line is its magic).
fn records_like_reference(what: &str, text: &str) -> usize {
    let mut n = 0;
    for line in text.lines().skip(1) {
        let (tag, payload) = decode_record(line).expect("a well-framed record");
        record_like_reference(what, tag, payload);
        n += 1;
    }
    n
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A pretty-printed JSON fixture decodes like the reference, its value
/// round-trips like it, and printing it again gives the fixture.
fn json_fixture_like_reference<T: ToJson + FromJson + PartialEq + Debug>(name: &str) {
    let text = fixture(name);
    decode_like_reference::<T>(name, &text).unwrap();
    let value: T = mvm_json::from_str(&text).expect("the fixture decodes");
    codec_like_reference(name, &value);
    assert_eq!(
        mvm_json::to_string_pretty(&value),
        text.trim_end(),
        "{name}"
    );
}

#[test]
fn fixtures_decode_and_encode_like_the_reference() {
    json_fixture_like_reference::<Program>("program.json");
    json_fixture_like_reference::<Coredump>("coredump.json");
    json_fixture_like_reference::<Minidump>("minidump.json");
    assert_eq!(
        records_like_reference("store_v1.resstore", &fixture("store_v1.resstore")),
        4
    );
    assert!(records_like_reference("trace_v1.restrace", &fixture("trace_v1.restrace")) > 5);
}

/// One generated program with its first dumps, the second of them
/// hardware-corrupted.
fn population(class: GenClass, seed: u64) -> (GeneratedProgram, Vec<Coredump>) {
    let gp = generate(corpus_specs(&[class], 1, seed, 1)[0]);
    let failures = collect_failures(&gp, 3);
    let mut dumps: Vec<Coredump> = failures.iter().map(|f| f.dump.clone()).collect();
    if failures.len() > 1 {
        let flavor = if seed.is_multiple_of(2) {
            HwFlavor::BitFlip
        } else {
            HwFlavor::RegCorrupt
        };
        dumps.push(hardware_variant(&gp, &failures[1], flavor).0);
    }
    (gp, dumps)
}

#[test]
fn generated_payloads_encode_and_decode_like_the_reference() {
    let dir = std::env::temp_dir().join(format!("res-codec-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let cfg = ResConfig::default();
    let mut traces = 0;
    for (i, class) in [
        GenClass::DataRace,
        GenClass::DivByZero,
        GenClass::UseAfterFree,
        GenClass::Deadlock,
    ]
    .into_iter()
    .enumerate()
    {
        let (gp, dumps) = population(class, 40 + i as u64);
        let program = &gp.program;
        let what = format!("{class:?}");
        codec_like_reference(&format!("{what} program"), program);
        let mut requests = Vec::new();
        let mut verdicts: Vec<HwVerdict> = Vec::new();
        for (k, dump) in dumps.iter().enumerate() {
            let what = format!("{what} dump {k}");
            codec_like_reference(&what, dump);
            codec_like_reference(&what, &Minidump::from_coredump(dump));
            codec_like_reference(&what, &dump.memory);
            let req = TriageRequest::new(program.clone(), dump.clone());
            let resp: TriageResponse = triage(&req, &cfg);
            codec_like_reference(&what, &resp);
            codec_like_reference(&what, &WireRequest::Triage(req.clone()));
            codec_like_reference(&what, &WireResponse::Triage(resp.clone()));
            verdicts.push(hardware_verdict(
                program,
                dump,
                &with_shared_store(&cfg, &dir, program),
            ));
            requests.push(req);
            // A trace of the first reproducing suffix, if any.
            let result = res_debugger::res::ResEngine::new(program, cfg.clone()).synthesize(dump);
            if let Some(sfx) = result
                .suffixes
                .iter()
                .find(|s| replay_suffix(program, dump, s).reproduced)
            {
                let trace: TraceFile = record_trace(
                    program,
                    dump,
                    sfx,
                    Some(resp.bucket_key.clone()),
                    &Recorder::disabled(),
                )
                .expect("record a reproducing suffix");
                let text = String::from_utf8(trace.to_text_bytes()).expect("a UTF-8 trace");
                records_like_reference(&what, &text);
                traces += 1;
            }
        }
        codec_like_reference(&what, &WireRequest::BucketBatch(requests.clone()));
        codec_like_reference(&what, &WireRequest::HwFilterBatch(requests));
        codec_like_reference(&what, &WireResponse::HwFilterBatch(verdicts));
    }
    codec_like_reference(
        "stats query",
        &WireRequest::StatsQuery(StatsRequest::default()),
    );
    codec_like_reference("shutdown", &WireRequest::Shutdown);
    codec_like_reference("shutting down", &WireResponse::ShuttingDown);
    codec_like_reference(
        "rejected",
        &WireResponse::Rejected {
            reason: "queue \"full\"\n\u{1}é😀".into(),
            queue_depth: u64::MAX,
        },
    );
    codec_like_reference("error", &WireResponse::Error("bad\tframe\\".into()));
    codec_like_reference(
        "bucket batch",
        &WireResponse::BucketBatch(vec!["k/1".into(), String::new()]),
    );
    assert!(traces > 0, "no trace was recorded");
    // The hardware verdicts populated one store per program.
    let mut stores = 0;
    for file in std::fs::read_dir(&dir).expect("list the stores") {
        let text = std::fs::read_to_string(file.expect("a store").path()).expect("read a store");
        assert!(records_like_reference("store", &text) > 1);
        stores += 1;
    }
    // Hang dumps get their verdict without a search, so the deadlock
    // program has no store.
    assert_eq!(stores, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- properties ------------------------------------------------------

/// Strings that exercise escapes, control characters, non-ASCII text
/// and surrogate pairs.
fn gen_string(rng: &mut Xoshiro256StarStar) -> String {
    const PIECES: [&str; 14] = [
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "😀",
    ];
    let n = rng.next_below(6);
    (0..n)
        .map(|_| PIECES[rng.next_below(PIECES.len() as u64) as usize])
        .collect()
}

fn gen_scalar(rng: &mut Xoshiro256StarStar) -> Json {
    match rng.next_below(9) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_below(2) == 1),
        2 => Json::U64(rng.next_below(300)),
        3 => Json::U64(rng.next_u64()),
        4 => Json::U64(u64::MAX - rng.next_below(2)),
        5 => Json::I64(-(rng.next_below(1 << 20) as i64) - 1),
        6 => Json::I64(i64::MIN + rng.next_below(2) as i64),
        7 => {
            let v = f64::from_bits(rng.next_u64());
            Json::F64(if v.is_finite() { v } else { 0.5 })
        }
        _ => Json::Str(gen_string(rng)),
    }
}

/// A random tree of at most `budget` nodes. Object keys come from a
/// small set, so repeated keys are common.
fn gen_json(rng: &mut Xoshiro256StarStar, budget: &mut usize, depth: usize) -> Json {
    if *budget == 0 || depth > 5 || rng.next_below(3) == 0 {
        return gen_scalar(rng);
    }
    *budget -= 1;
    let n = rng.next_below(5) as usize;
    if rng.next_below(2) == 0 {
        Json::Arr((0..n).map(|_| gen_json(rng, budget, depth + 1)).collect())
    } else {
        const KEYS: [&str; 5] = ["a", "b", "hi", "lo", "pages"];
        Json::Obj(
            (0..n)
                .map(|_| {
                    let key = if rng.next_below(4) == 0 {
                        gen_string(rng)
                    } else {
                        KEYS[rng.next_below(KEYS.len() as u64) as usize].to_string()
                    };
                    (key, gen_json(rng, budget, depth + 1))
                })
                .collect(),
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Unit,
    New(i32),
    Rec { a: u8, b: Option<String> },
}
json_enum!(Shape {
    Unit,
    New(i32),
    Rec { a: u8, b: Option<String> },
});

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    a: u64,
    b: Option<Vec<Shape>>,
    hi: (u32, i64),
    lo: BTreeMap<u64, Vec<u8>>,
}
json_struct!(Doc { a, b, hi, lo });

/// `from_str` agrees with the reference on `text` for every type the
/// properties decode.
fn all_types_like_reference(text: &str) -> PropResult {
    decode_like_reference::<u64>("u64", text)?;
    decode_like_reference::<i16>("i16", text)?;
    decode_like_reference::<bool>("bool", text)?;
    decode_like_reference::<String>("String", text)?;
    decode_like_reference::<Option<Vec<u8>>>("Option<Vec<u8>>", text)?;
    decode_like_reference::<(u64, String, i64)>("triple", text)?;
    decode_like_reference::<BTreeMap<u64, Option<u64>>>("map", text)?;
    decode_like_reference::<Shape>("Shape", text)?;
    decode_like_reference::<Doc>("Doc", text)?;
    decode_like_reference::<CanonFp>("CanonFp", text)?;
    decode_like_reference::<Memory>("Memory", text)?;
    decode_like_reference::<Entry>("Entry", text)
}

#[test]
fn arbitrary_json_values_print_and_parse_like_the_reference() {
    check(
        "arbitrary_json_values_print_and_parse_like_the_reference",
        &Config::with_cases(256),
        &pair(any_u64(), usize_range(0, 40)),
        |&(seed, size)| {
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut budget = size;
            let v = gen_json(&mut rng, &mut budget, 0);
            let text = v.to_string_compact();
            prop_assert_eq!(text, reference::to_string_compact(&v));
            prop_assert_eq!(mvm_json::parse(&text), reference::parse(&text));
            let pretty = v.to_string_pretty();
            prop_assert_eq!(mvm_json::parse(&pretty), reference::parse(&pretty));
            all_types_like_reference(&text)?;
            all_types_like_reference(&pretty)
        },
    );
}

/// Counts the tree's nodes (or only its objects) in pre-order.
fn count(v: &Json, objects_only: bool) -> usize {
    let own = usize::from(!objects_only || matches!(v, Json::Obj(_)));
    own + match v {
        Json::Arr(items) => items.iter().map(|v| count(v, objects_only)).sum(),
        Json::Obj(entries) => entries.iter().map(|(_, v)| count(v, objects_only)).sum(),
        _ => 0,
    }
}

/// Changes the first scalar of `v` (in pre-order) to another of the
/// same kind, so a typed reader still accepts it but reads a different
/// value.
fn perturb(v: &mut Json) -> bool {
    match v {
        Json::U64(n) => *n = if *n == 0 { 1 } else { *n - 1 },
        Json::I64(n) => *n = n.wrapping_add(1).min(-1),
        Json::Bool(b) => *b = !*b,
        Json::Str(s) => s.push('x'),
        Json::Arr(items) => return items.iter_mut().any(perturb),
        Json::Obj(entries) => return entries.iter_mut().any(|(_, v)| perturb(v)),
        Json::Null | Json::F64(_) => return false,
    }
    true
}

/// Applies one edit to the `target`th node (or object) in pre-order.
/// An object gets its members reordered, one member repeated (as is,
/// with a changed value of the same kind, or with an arbitrary
/// scalar), an unknown member added, or a member dropped. Any other
/// node gets a changed value of its own kind or an arbitrary scalar,
/// or loses an array element.
fn edit(v: &mut Json, target: &mut usize, objects_only: bool, rng: &mut Xoshiro256StarStar) {
    if !objects_only || matches!(v, Json::Obj(_)) {
        if *target == 0 {
            *target = usize::MAX;
            match v {
                Json::Obj(entries) if !entries.is_empty() => {
                    let i = rng.next_below(entries.len() as u64) as usize;
                    let at = rng.next_below(entries.len() as u64 + 1) as usize;
                    let mut repeat = entries[i].clone();
                    match rng.next_below(7) {
                        0 => entries.reverse(),
                        1 | 2 => {
                            perturb(&mut repeat.1);
                            entries.insert(at, repeat);
                        }
                        3 => entries.insert(at, repeat),
                        4 => {
                            repeat.1 = gen_scalar(rng);
                            entries.insert(at, repeat);
                        }
                        5 => entries.insert(at, ("unknown".into(), gen_scalar(rng))),
                        _ => {
                            entries.remove(i);
                        }
                    }
                }
                Json::Arr(items) if !items.is_empty() && rng.next_below(3) == 0 => {
                    items.remove(rng.next_below(items.len() as u64) as usize);
                }
                node => {
                    if rng.next_below(2) == 0 || !perturb(node) {
                        *node = gen_scalar(rng);
                    }
                }
            }
            return;
        }
        *target -= 1;
    }
    match v {
        Json::Arr(items) => items
            .iter_mut()
            .for_each(|v| edit(v, target, objects_only, rng)),
        Json::Obj(entries) => entries
            .iter_mut()
            .for_each(|(_, v)| edit(v, target, objects_only, rng)),
        _ => {}
    }
}

/// A byte-level edit of ASCII text: replace, delete or insert a few
/// bytes from a JSON-heavy alphabet, or cut the text short.
fn mangle(text: &str, rng: &mut Xoshiro256StarStar) -> String {
    const ALPHABET: &[u8] = b"{}[]:,\" \n\\0123456789-+.eEnulltrfasx";
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = rng.next_below(bytes.len() as u64) as usize;
    let b = ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize];
    match rng.next_below(4) {
        0 => bytes[at] = b,
        1 => {
            let end = (at + 1 + rng.next_below(3) as usize).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => bytes.insert(at, b),
        _ => bytes.truncate(at),
    }
    String::from_utf8(bytes).unwrap_or_default()
}

/// Rewrites one number of the text into a form the grammar or the
/// target type may refuse: a leading zero, a sign, a fraction, an
/// exponent, or a value past `u64::MAX`.
fn renumber(text: &str, rng: &mut Xoshiro256StarStar) -> String {
    let starts: Vec<usize> = text
        .char_indices()
        .filter(|&(i, c)| {
            c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit() || p == '-')
        })
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        return text.to_string();
    }
    let at = starts[rng.next_below(starts.len() as u64) as usize];
    let end = text[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(text.len(), |n| at + n);
    let digits = &text[at..end];
    let new = match rng.next_below(7) {
        0 => format!("0{digits}"),
        1 => format!("-{digits}"),
        2 => format!("+{digits}"),
        3 => format!("{digits}.0"),
        4 => format!("{digits}e0"),
        5 => "-0".to_string(),
        _ => "18446744073709551616".to_string(),
    };
    format!("{}{new}{}", &text[..at], &text[end..])
}

#[test]
fn mutated_payloads_decode_like_the_reference() {
    let (gp, dumps) = population(GenClass::UseAfterFree, 7);
    let dump = &dumps[0];
    let entry = Entry {
        fp: CanonFp(u128::MAX - 5),
        result: mvm_json::from_str(
            r#"{"verdict":{"Sat":[[0,1],[2,18446744073709551615]]},"assignments":9}"#,
        )
        .expect("a portable result"),
    };
    let doc = Doc {
        a: 3,
        b: Some(vec![
            Shape::Unit,
            Shape::New(-4),
            Shape::Rec {
                a: 255,
                b: Some("x\"y".into()),
            },
        ]),
        hi: (7, -1),
        lo: BTreeMap::from([(0, vec![1, 2]), (4096, vec![])]),
    };
    // Each base payload with the check for its own type.
    type Check = fn(&str) -> PropResult;
    let bases: Vec<(String, Check)> = vec![
        (mvm_json::to_string(&gp.program), |t| {
            decode_like_reference::<Program>("Program", t)
        }),
        (mvm_json::to_string(dump), |t| {
            decode_like_reference::<Coredump>("Coredump", t)
        }),
        (mvm_json::to_string(&Minidump::from_coredump(dump)), |t| {
            decode_like_reference::<Minidump>("Minidump", t)
        }),
        (
            mvm_json::to_string(&WireRequest::HwFilterBatch(vec![TriageRequest::new(
                gp.program.clone(),
                dumps[1].clone(),
            )])),
            |t| decode_like_reference::<WireRequest>("WireRequest", t),
        ),
        (mvm_json::to_string(&entry), |t| {
            decode_like_reference::<Entry>("Entry", t)
        }),
        (mvm_json::to_string(&doc), all_types_like_reference),
    ];
    let payloads: Vec<(Json, Check)> = bases
        .iter()
        .map(|(text, check)| {
            (
                mvm_json::parse(text).expect("a base payload parses"),
                *check,
            )
        })
        .collect();
    check(
        "mutated_payloads_decode_like_the_reference",
        &Config::with_cases(192),
        &pair(usize_range(0, payloads.len()), any_u64()),
        |&(which, seed)| {
            let mut rng = Xoshiro256StarStar::new(seed);
            let (base, check) = &payloads[which];
            let mut v = base.clone();
            for _ in 0..1 + rng.next_below(3) {
                let objects_only = rng.next_below(2) == 0 && count(&v, true) > 0;
                let mut target = rng.next_below(count(&v, objects_only) as u64) as usize;
                edit(&mut v, &mut target, objects_only, &mut rng);
            }
            let mut text = if rng.next_below(4) == 0 {
                v.to_string_pretty()
            } else {
                v.to_string_compact()
            };
            match rng.next_below(3) {
                0 => text = mangle(&text, &mut rng),
                1 => text = renumber(&text, &mut rng),
                _ => {}
            }
            prop_assert_eq!(mvm_json::parse(&text), reference::parse(&text));
            check(&text)
        },
    );
}
