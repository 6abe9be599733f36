//! Record framing for the store file (see the crate docs for the
//! format specification).

use mvm_json::json_struct;

/// First token of a store file's magic line.
pub const MAGIC: &str = "RES-STORE";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a over 64 bits — the per-record checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The store's header record: what the file is and which program's
/// results it holds. `writer` is deliberately static metadata (crate
/// name and version, no timestamps) so that identical runs produce
/// byte-identical stores — the golden round-trip fixture depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format version, duplicated from the magic line.
    pub format_version: u32,
    /// Fingerprint of the program whose results the store holds
    /// (see [`program_fingerprint`](crate::program_fingerprint)).
    pub program_fp: u64,
    /// The ISA family the program is encoded in.
    pub isa: String,
    /// Creating tool, for forensics.
    pub writer: String,
}

json_struct!(Header {
    format_version,
    program_fp,
    isa,
    writer
});

impl Header {
    /// The header this build writes for a program fingerprint.
    pub fn new(program_fp: u64) -> Self {
        Header {
            format_version: FORMAT_VERSION,
            program_fp,
            isa: "mvm".to_string(),
            writer: concat!("res-store ", env!("CARGO_PKG_VERSION")).to_string(),
        }
    }
}

/// Record tags. Unknown tags with valid framing are tolerated on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// The header record.
    Header,
    /// One `CanonFp → PortableResult` entry.
    Entry,
    /// A [`StoreStats`](crate::StoreStats) observability block.
    Stats,
    /// A tag this build does not know (skipped).
    Unknown(u8),
}

impl Tag {
    fn to_char(self) -> char {
        match self {
            Tag::Header => 'H',
            Tag::Entry => 'E',
            Tag::Stats => 'S',
            Tag::Unknown(b) => b as char,
        }
    }

    fn from_str(s: &str) -> Option<Tag> {
        let mut bytes = s.bytes();
        let b = bytes.next()?;
        if bytes.next().is_some() || !b.is_ascii_uppercase() {
            return None;
        }
        Some(match b {
            b'H' => Tag::Header,
            b'E' => Tag::Entry,
            b'S' => Tag::Stats,
            other => Tag::Unknown(other),
        })
    }
}

/// Appends one framed record line: `<tag> <len> <fnv64-hex> <payload>\n`.
/// The payload is compact JSON and therefore never contains a newline.
pub fn encode_record(tag: Tag, payload: &str, out: &mut Vec<u8>) {
    debug_assert!(!payload.contains('\n'));
    out.extend_from_slice(
        format!(
            "{} {} {:016x} {}\n",
            tag.to_char(),
            payload.len(),
            fnv64(payload.as_bytes()),
            payload
        )
        .as_bytes(),
    );
}

/// The magic line this build writes (without the newline).
pub fn magic_line() -> String {
    format!("{MAGIC} {FORMAT_VERSION}")
}

/// Parses a magic line; returns the declared format version.
pub fn parse_magic(line: &str) -> Option<u32> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    rest.parse().ok()
}

/// Decodes one record line (`line` excludes the trailing newline).
/// Returns the tag and payload, or `None` when the framing, length, or
/// checksum is wrong — the reader treats that as a torn tail.
pub fn decode_record(line: &str) -> Option<(Tag, &str)> {
    let mut parts = line.splitn(4, ' ');
    let tag = Tag::from_str(parts.next()?)?;
    let len: usize = parts.next()?.parse().ok()?;
    let crc = u64::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    if payload.len() != len || fnv64(payload.as_bytes()) != crc {
        return None;
    }
    Some((tag, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let mut out = Vec::new();
        encode_record(Tag::Entry, r#"{"a":1}"#, &mut out);
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        let (tag, payload) = decode_record(line).unwrap();
        assert_eq!(tag, Tag::Entry);
        assert_eq!(payload, r#"{"a":1}"#);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut out = Vec::new();
        encode_record(Tag::Entry, r#"{"a":1}"#, &mut out);
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        let tampered = line.replace(r#"{"a":1}"#, r#"{"a":2}"#);
        assert!(decode_record(&tampered).is_none());
    }

    #[test]
    fn truncated_payload_fails_the_length() {
        let mut out = Vec::new();
        encode_record(Tag::Entry, r#"{"key":123456}"#, &mut out);
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        assert!(decode_record(&line[..line.len() - 3]).is_none());
    }

    #[test]
    fn unknown_tags_still_frame() {
        let mut out = Vec::new();
        encode_record(Tag::Unknown(b'X'), "[]", &mut out);
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        let (tag, payload) = decode_record(line).unwrap();
        assert_eq!(tag, Tag::Unknown(b'X'));
        assert_eq!(payload, "[]");
    }

    #[test]
    fn magic_line_round_trips_and_rejects_others() {
        assert_eq!(parse_magic(&magic_line()), Some(FORMAT_VERSION));
        assert_eq!(parse_magic("RES-STORE 99"), Some(99));
        assert_eq!(parse_magic("NOT-A-STORE 1"), None);
        assert_eq!(parse_magic(""), None);
    }
}
