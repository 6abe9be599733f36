//! The compact binary encoding (`.restrace.bin`).
//!
//! The binary file carries exactly the same sections as the text
//! encoding — same tags, same JSON trees — but each record is framed
//! as raw bytes instead of a text line:
//!
//! ```text
//! RES-TRACE-BIN 1\n
//! <tag u8> <len u32 LE> <fnv64 u64 LE> <payload bytes>   (repeated)
//! ```
//!
//! and each payload is a varint-coded binary rendering of the JSON
//! tree rather than JSON text. Value tags:
//!
//! | tag | value | payload |
//! |-----|-------|---------|
//! | 0 | `null` | — |
//! | 1 | `false` | — |
//! | 2 | `true` | — |
//! | 3 | non-negative integer | LEB128 varint |
//! | 4 | negative integer | zigzag LEB128 varint |
//! | 5 | float | 8-byte LE IEEE-754 bits |
//! | 6 | string | varint byte length + UTF-8 bytes |
//! | 7 | array | varint count + elements |
//! | 8 | object | varint count + (string key, value) pairs |
//!
//! The mapping is one-to-one with the [`Json`] tree (object order
//! preserved, integer signedness preserved), so text → binary → text
//! round-trips byte-identically.

use mvm_json::Json;

use crate::format::{TraceError, TraceFile, FORMAT_VERSION};

/// The binary magic, including its version digit and terminating
/// newline (so `head -1` on a binary trace still identifies it).
pub const BIN_MAGIC: &[u8] = b"RES-TRACE-BIN 1\n";

const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_U64: u8 = 3;
const T_I64: u8 = 4;
const T_F64: u8 = 5;
const T_STR: u8 = 6;
const T_ARR: u8 = 7;
const T_OBJ: u8 = 8;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or("varint runs past the buffer")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint longer than 64 bits".to_string());
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or("string length overflows")?;
    if end > bytes.len() {
        return Err("string runs past the buffer".to_string());
    }
    let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "string is not UTF-8")?;
    *pos = end;
    Ok(s.to_string())
}

/// Appends the binary rendering of a JSON tree.
pub fn encode_json(v: &Json, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.push(T_NULL),
        Json::Bool(false) => out.push(T_FALSE),
        Json::Bool(true) => out.push(T_TRUE),
        Json::U64(n) => {
            out.push(T_U64);
            put_varint(out, *n);
        }
        Json::I64(n) => {
            out.push(T_I64);
            put_varint(out, zigzag(*n));
        }
        Json::F64(n) => {
            out.push(T_F64);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            out.push(T_STR);
            put_str(out, s);
        }
        Json::Arr(items) => {
            out.push(T_ARR);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_json(item, out);
            }
        }
        Json::Obj(entries) => {
            out.push(T_OBJ);
            put_varint(out, entries.len() as u64);
            for (k, item) in entries {
                put_str(out, k);
                encode_json(item, out);
            }
        }
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let &tag = bytes.get(*pos).ok_or("value tag runs past the buffer")?;
    *pos += 1;
    match tag {
        T_NULL => Ok(Json::Null),
        T_FALSE => Ok(Json::Bool(false)),
        T_TRUE => Ok(Json::Bool(true)),
        T_U64 => Ok(Json::U64(get_varint(bytes, pos)?)),
        T_I64 => Ok(Json::I64(unzigzag(get_varint(bytes, pos)?))),
        T_F64 => {
            let end = *pos + 8;
            if end > bytes.len() {
                return Err("float runs past the buffer".to_string());
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[*pos..end]);
            *pos = end;
            Ok(Json::F64(f64::from_bits(u64::from_le_bytes(raw))))
        }
        T_STR => Ok(Json::Str(get_str(bytes, pos)?)),
        T_ARR => {
            let n = get_varint(bytes, pos)? as usize;
            if n > bytes.len() {
                return Err("array count exceeds the buffer".to_string());
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(bytes, pos)?);
            }
            Ok(Json::Arr(items))
        }
        T_OBJ => {
            let n = get_varint(bytes, pos)? as usize;
            if n > bytes.len() {
                return Err("object count exceeds the buffer".to_string());
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_str(bytes, pos)?;
                entries.push((k, decode_value(bytes, pos)?));
            }
            Ok(Json::Obj(entries))
        }
        other => Err(format!("unknown binary value tag {other}")),
    }
}

/// Decodes a binary JSON tree, requiring the whole buffer to be
/// consumed.
pub fn decode_json(bytes: &[u8]) -> Result<Json, String> {
    let mut pos = 0usize;
    let v = decode_value(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the value",
            bytes.len() - pos
        ));
    }
    Ok(v)
}

/// Serializes a trace to the binary encoding.
pub fn to_bin_bytes(trace: &TraceFile) -> Vec<u8> {
    let mut out = BIN_MAGIC.to_vec();
    for (tag, json) in trace.sections() {
        let mut payload = Vec::new();
        encode_json(&json, &mut payload);
        out.push(tag_byte(tag));
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&res_store::fnv64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

fn tag_byte(tag: res_store::Tag) -> u8 {
    match tag {
        res_store::Tag::Header => b'H',
        res_store::Tag::Entry => b'E',
        res_store::Tag::Stats => b'S',
        res_store::Tag::Unknown(b) => b,
    }
}

fn tag_from_byte(b: u8) -> res_store::Tag {
    match b {
        b'H' => res_store::Tag::Header,
        b'E' => res_store::Tag::Entry,
        b'S' => res_store::Tag::Stats,
        other => res_store::Tag::Unknown(other),
    }
}

/// Parses the binary encoding.
pub fn from_bin_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    let rest = match bytes.strip_prefix(BIN_MAGIC) {
        Some(rest) => rest,
        None => {
            // A binary trace from a different format version: surface
            // the version rather than "not a trace".
            if let Some(tail) = bytes.strip_prefix(b"RES-TRACE-BIN ") {
                let line: Vec<u8> = tail.iter().copied().take_while(|&b| b != b'\n').collect();
                if let Ok(v) = std::str::from_utf8(&line).unwrap_or("").parse::<u32>() {
                    if v != FORMAT_VERSION {
                        return Err(TraceError::Version(v));
                    }
                }
            }
            return Err(TraceError::NotATrace);
        }
    };
    let mut sections: Vec<(res_store::Tag, Json)> = Vec::new();
    let mut pos = 0usize;
    let mut record = 0usize;
    while pos < rest.len() {
        if pos + 13 > rest.len() {
            return Err(TraceError::Torn { record });
        }
        let tag = tag_from_byte(rest[pos]);
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&rest[pos + 1..pos + 5]);
        let len = u32::from_le_bytes(len4) as usize;
        let mut crc8 = [0u8; 8];
        crc8.copy_from_slice(&rest[pos + 5..pos + 13]);
        let crc = u64::from_le_bytes(crc8);
        let start = pos + 13;
        let end = match start.checked_add(len) {
            Some(end) if end <= rest.len() => end,
            _ => return Err(TraceError::Torn { record }),
        };
        let payload = &rest[start..end];
        if res_store::fnv64(payload) != crc {
            return Err(TraceError::Torn { record });
        }
        let json = decode_json(payload).map_err(|_| TraceError::Torn { record })?;
        sections.push((tag, json));
        pos = end;
        record += 1;
    }
    TraceFile::from_sections(sections.iter().map(|(t, j)| (*t, j)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Json) {
        let mut out = Vec::new();
        encode_json(&v, &mut out);
        assert_eq!(decode_json(&out).unwrap(), v);
    }

    #[test]
    fn scalar_values_round_trip() {
        round_trip(Json::Null);
        round_trip(Json::Bool(false));
        round_trip(Json::Bool(true));
        round_trip(Json::U64(0));
        round_trip(Json::U64(u64::MAX));
        round_trip(Json::I64(-1));
        round_trip(Json::I64(i64::MIN));
        round_trip(Json::F64(1.5));
        round_trip(Json::Str(String::new()));
        round_trip(Json::Str("with \"quotes\" and \n newlines".to_string()));
    }

    #[test]
    fn nested_values_round_trip() {
        round_trip(Json::Arr(vec![
            Json::U64(1),
            Json::Obj(vec![
                ("k".to_string(), Json::Arr(vec![])),
                ("z".to_string(), Json::Null),
            ]),
        ]));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        encode_json(&Json::U64(7), &mut out);
        out.push(0);
        assert!(decode_json(&out).is_err());
    }

    #[test]
    fn truncated_values_are_rejected() {
        let mut out = Vec::new();
        encode_json(&Json::Str("hello".to_string()), &mut out);
        assert!(decode_json(&out[..out.len() - 1]).is_err());
    }
}
