//! The trace file model and both on-disk encodings.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

use mvm_core::Coredump;
use mvm_isa::{InputKind, Loc, Width};
use mvm_json::{json_struct, FromJson, Json, ToJson};
use mvm_machine::{Fault, ThreadId};
use mvm_symbolic::Model;
use res_core::blockexec::EndPoint;
use res_core::{ExecutionSuffix, ObservedEvent, SuffixStep};
use res_obs::Recorder;
use res_store::{decode_record, encode_record, fnv64, Tag};

use crate::binary;

/// First token of a text trace file's magic line.
pub const MAGIC: &str = "RES-TRACE";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Extension of the text encoding.
pub const EXT_JSON: &str = "restrace";

/// Extension of the binary encoding (note: a *double* extension — the
/// auto-detection keys on the full `.restrace.bin` suffix).
pub const EXT_BIN: &str = "restrace.bin";

/// The trace header: what the file is and which program it replays.
/// `writer` is deliberately static (crate name and version, no
/// timestamps) so identical recordings are byte-identical files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version, duplicated from the magic line.
    pub format_version: u32,
    /// Fingerprint of the program the trace was recorded against
    /// (see [`res_store::program_fingerprint`]).
    pub program_fp: u64,
    /// Creating tool, for forensics.
    pub writer: String,
}

json_struct!(TraceHeader {
    format_version,
    program_fp,
    writer
});

impl TraceHeader {
    /// The header this build writes for a program fingerprint.
    pub fn new(program_fp: u64) -> Self {
        TraceHeader {
            format_version: FORMAT_VERSION,
            program_fp,
            writer: concat!("res-trace ", env!("CARGO_PKG_VERSION")).to_string(),
        }
    }
}

/// One recorded schedule event: the suffix step's static shape plus
/// the concrete behaviour observed when the recording replayed it
/// (start/end pc and every memory write). The writes are what `verify`
/// compares instruction-for-instruction against a modified program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Executing thread.
    pub tid: ThreadId,
    /// Frame depth the range executes in.
    pub frame_depth: usize,
    /// Pc at range start.
    pub start: Loc,
    /// Frame-depth change across the range.
    pub end_depth_delta: i32,
    /// Pc after the range.
    pub end: Loc,
    /// Instructions in the range.
    pub steps: u64,
    /// Kinds of the inputs consumed, in order.
    pub input_kinds: Vec<InputKind>,
    /// Allocations performed.
    pub allocs: usize,
    /// Frees performed (payload bases).
    pub frees: Vec<u64>,
    /// Memory writes performed `(addr, width, value)`, in order.
    pub writes: Vec<(u64, Width, u64)>,
}

json_struct!(TraceStep {
    tid,
    frame_depth,
    start,
    end_depth_delta,
    end,
    steps,
    input_kinds,
    allocs,
    frees,
    writes
});

/// The initial state `Mi`: everything installed before replay starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceImage {
    /// Concrete cell values overlaid on the dump's memory.
    pub initial_cells: Vec<(u64, Width, u64)>,
    /// Initial register files: `(frame_depth, regs)` per thread.
    pub initial_regs: BTreeMap<ThreadId, (usize, Vec<u64>)>,
    /// Start position per thread: `(frame_depth, loc)`.
    pub start_positions: BTreeMap<ThreadId, (usize, Loc)>,
    /// `true` if the synthesis took an unsound shortcut.
    pub approximate: bool,
}

json_struct!(TraceImage {
    initial_cells,
    initial_regs,
    start_positions,
    approximate
});

/// Concrete input values per thread, in consumption order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInputs {
    /// The scripted input values.
    pub inputs: BTreeMap<ThreadId, Vec<u64>>,
}

json_struct!(TraceInputs { inputs });

/// What replaying the trace must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedOutcome {
    /// The fault the recorded execution hit.
    pub fault: Fault,
    /// The thread that faulted.
    pub faulting_tid: ThreadId,
    /// Total scheduled instructions across all steps.
    pub total_steps: u64,
    /// fnv64 over the canonical JSON of (image, inputs, steps) — a
    /// quick equality check between two traces.
    pub suffix_fp: u64,
    /// Root-cause bucket key, when the recorder computed one.
    pub bucket: Option<String>,
}

json_struct!(ExpectedOutcome {
    fault,
    faulting_tid,
    total_steps,
    suffix_fp,
    bucket
});

/// A complete trace: the coredump, the synthesized initial state and
/// schedule, the observed per-event behaviour, and the expected
/// outcome. Self-contained except for the program, whose fingerprint
/// is pinned in the header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// File identity.
    pub header: TraceHeader,
    /// The coredump the trace reproduces.
    pub dump: Coredump,
    /// Initial state `Mi`.
    pub image: TraceImage,
    /// Concrete inputs per thread.
    pub inputs: BTreeMap<ThreadId, Vec<u64>>,
    /// The schedule with observed behaviour, forward order.
    pub steps: Vec<TraceStep>,
    /// The outcome replay must reproduce.
    pub expected: ExpectedOutcome,
}

/// Which on-disk encoding a trace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// mvm-json text records (`.restrace`).
    Json,
    /// Compact binary records (`.restrace.bin`).
    Binary,
}

impl Encoding {
    /// The encoding a path's extension selects (write side).
    pub fn for_path(path: &Path) -> Encoding {
        if path.to_string_lossy().ends_with(".bin") {
            Encoding::Binary
        } else {
            Encoding::Json
        }
    }

    /// Detects the encoding from file contents (read side). The binary
    /// magic shares the text prefix, so it is checked first.
    pub fn sniff(bytes: &[u8]) -> Option<Encoding> {
        if bytes.starts_with(b"RES-TRACE-BIN ") {
            Some(Encoding::Binary)
        } else if bytes.starts_with(MAGIC.as_bytes()) {
            Some(Encoding::Json)
        } else {
            None
        }
    }

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
        }
    }
}

/// Why a trace could not be read (or replayed). A trace is
/// all-or-nothing: unlike the solver store, which degrades damage to a
/// cold start, a half-readable schedule cannot be replayed soundly, so
/// every defect is a typed error naming the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read.
    Io(String),
    /// The file does not start with a trace magic line.
    NotATrace,
    /// The file declares a format version this build does not read.
    Version(u32),
    /// Record `record` (0-based, after the magic line) failed framing
    /// or checksum validation — a torn write or bit rot.
    Torn {
        /// Index of the damaged record.
        record: usize,
    },
    /// A required section is absent.
    Missing(&'static str),
    /// A payload decoded but its JSON shape is wrong.
    Json(String),
    /// The program's fingerprint does not match the trace header
    /// (strict replay refuses; `verify` proceeds and reports).
    Fingerprint {
        /// Fingerprint recorded in the trace.
        expected: u64,
        /// Fingerprint of the supplied program.
        got: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "io error: {e}"),
            TraceError::NotATrace => write!(f, "not a trace file (bad magic)"),
            TraceError::Version(v) => write!(
                f,
                "unsupported trace format version {v} (this build reads {FORMAT_VERSION})"
            ),
            TraceError::Torn { record } => {
                write!(f, "trace record {record} is torn or corrupt")
            }
            TraceError::Missing(section) => write!(f, "trace is missing its {section} section"),
            TraceError::Json(e) => write!(f, "trace payload malformed: {e}"),
            TraceError::Fingerprint { expected, got } => write!(
                f,
                "program fingerprint {got:016x} does not match the trace's {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// The magic line the text encoding writes (without the newline).
pub fn magic_line() -> String {
    format!("{MAGIC} {FORMAT_VERSION}")
}

/// Parses a text magic line; returns the declared format version.
pub fn parse_magic(line: &str) -> Option<u32> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    rest.parse().ok()
}

// Section tags, spelled via the shared store framing. `H` reuses the
// store's own header tag; the rest are trace-specific letters chosen
// not to collide with the store's `E`/`S`/`V` so a tag byte always
// identifies its format family.
const TAG_DUMP: Tag = Tag::Unknown(b'D');
const TAG_IMAGE: Tag = Tag::Unknown(b'M');
const TAG_INPUTS: Tag = Tag::Unknown(b'I');
const TAG_STEP: Tag = Tag::Unknown(b'T');
const TAG_EXPECTED: Tag = Tag::Unknown(b'X');

/// fnv64 over the canonical JSON of the replay-relevant sections — the
/// cheap "same suffix?" equality check stored in [`ExpectedOutcome`].
pub fn suffix_fingerprint(
    image: &TraceImage,
    inputs: &BTreeMap<ThreadId, Vec<u64>>,
    steps: &[TraceStep],
) -> u64 {
    let mut text = mvm_json::to_string(image);
    text.push_str(&mvm_json::to_string(&TraceInputs {
        inputs: inputs.clone(),
    }));
    for s in steps {
        text.push_str(&mvm_json::to_string(s));
    }
    fnv64(text.as_bytes())
}

impl TraceFile {
    /// Builds a trace from a synthesized suffix and the per-event
    /// behaviour observed while replaying it
    /// ([`res_core::replay_observed`]). `observed` must align 1:1 with
    /// `suffix.steps`.
    pub fn from_suffix(
        program_fp: u64,
        dump: &Coredump,
        suffix: &ExecutionSuffix,
        observed: &[ObservedEvent],
        bucket: Option<String>,
    ) -> TraceFile {
        assert_eq!(
            suffix.steps.len(),
            observed.len(),
            "observed events must align with suffix steps"
        );
        let steps: Vec<TraceStep> = suffix
            .steps
            .iter()
            .zip(observed)
            .map(|(s, o)| TraceStep {
                tid: s.tid,
                frame_depth: s.frame_depth,
                start: o.start,
                end_depth_delta: s.end.depth_delta,
                end: o.end,
                steps: s.steps,
                input_kinds: s.input_kinds.clone(),
                allocs: s.allocs,
                frees: s.frees.clone(),
                writes: o.writes.clone(),
            })
            .collect();
        let image = TraceImage {
            initial_cells: suffix.initial_cells.clone(),
            initial_regs: suffix.initial_regs.clone(),
            start_positions: suffix.start_positions.clone(),
            approximate: suffix.approximate,
        };
        let suffix_fp = suffix_fingerprint(&image, &suffix.inputs, &steps);
        TraceFile {
            header: TraceHeader::new(program_fp),
            dump: dump.clone(),
            image,
            inputs: suffix.inputs.clone(),
            steps,
            expected: ExpectedOutcome {
                fault: dump.fault.clone(),
                faulting_tid: dump.faulting_tid,
                total_steps: suffix.total_steps(),
                suffix_fp,
                bucket,
            },
        }
    }

    /// Reconstructs a replayable [`ExecutionSuffix`]. Symbolic
    /// artifacts (model, constraints, transfer/read sets) are not
    /// persisted — replay does not consult them — so the reconstruction
    /// carries empty ones.
    pub fn to_suffix(&self) -> ExecutionSuffix {
        ExecutionSuffix {
            steps: self
                .steps
                .iter()
                .map(|s| SuffixStep {
                    tid: s.tid,
                    frame_depth: s.frame_depth,
                    start: s.start,
                    end: EndPoint {
                        depth_delta: s.end_depth_delta,
                        loc: s.end,
                    },
                    transfers: Vec::new(),
                    inputs: Vec::new(),
                    input_kinds: s.input_kinds.clone(),
                    allocs: s.allocs,
                    frees: s.frees.clone(),
                    reads: Vec::new(),
                    writes: s.writes.iter().map(|&(a, w, _)| (a, w)).collect(),
                    steps: s.steps,
                })
                .collect(),
            model: Model::new(),
            initial_cells: self.image.initial_cells.clone(),
            initial_regs: self.image.initial_regs.clone(),
            start_positions: self.image.start_positions.clone(),
            inputs: self.inputs.clone(),
            constraints: Vec::new(),
            approximate: self.image.approximate,
        }
    }

    /// The recorded per-event behaviour, as the expectation `verify`
    /// compares a replay against.
    pub fn expected_events(&self) -> Vec<ObservedEvent> {
        self.steps
            .iter()
            .map(|s| ObservedEvent {
                tid: s.tid,
                start: s.start,
                end: s.end,
                steps: s.steps,
                writes: s.writes.clone(),
            })
            .collect()
    }

    /// Per-thread schedule totals `(tid, events, instructions)`, in
    /// first-use order — the `store-inspect` summary line.
    pub fn schedule_summary(&self) -> Vec<(ThreadId, usize, u64)> {
        let mut out: Vec<(ThreadId, usize, u64)> = Vec::new();
        for s in &self.steps {
            match out.iter_mut().find(|(tid, _, _)| *tid == s.tid) {
                Some((_, events, insts)) => {
                    *events += 1;
                    *insts += s.steps;
                }
                None => out.push((s.tid, 1, s.steps)),
            }
        }
        out
    }

    /// Total memory writes recorded across all steps.
    pub fn total_writes(&self) -> usize {
        self.steps.iter().map(|s| s.writes.len()).sum()
    }

    /// Serializes to the chosen encoding.
    pub fn to_bytes(&self, encoding: Encoding) -> Vec<u8> {
        match encoding {
            Encoding::Json => self.to_text_bytes(),
            Encoding::Binary => binary::to_bin_bytes(self),
        }
    }

    /// Parses either encoding, auto-detected from the magic.
    pub fn from_bytes(bytes: &[u8]) -> Result<(TraceFile, Encoding), TraceError> {
        match Encoding::sniff(bytes) {
            Some(Encoding::Json) => Ok((Self::from_text_bytes(bytes)?, Encoding::Json)),
            Some(Encoding::Binary) => Ok((binary::from_bin_bytes(bytes)?, Encoding::Binary)),
            None => Err(TraceError::NotATrace),
        }
    }

    /// The text encoding: magic line + framed single-line JSON records.
    pub fn to_text_bytes(&self) -> Vec<u8> {
        let mut out = format!("{}\n", magic_line()).into_bytes();
        for (tag, payload) in self.sections() {
            encode_record(tag, &payload.to_string_compact(), &mut out);
        }
        out
    }

    /// The sections in file order, each as `(tag, json-tree)`. Shared
    /// by both encodings so they stay logically identical.
    pub(crate) fn sections(&self) -> Vec<(Tag, Json)> {
        let mut out = vec![
            (Tag::Header, self.header.to_json()),
            (TAG_DUMP, self.dump.to_json()),
            (TAG_IMAGE, self.image.to_json()),
            (
                TAG_INPUTS,
                TraceInputs {
                    inputs: self.inputs.clone(),
                }
                .to_json(),
            ),
        ];
        for s in &self.steps {
            out.push((TAG_STEP, s.to_json()));
        }
        out.push((TAG_EXPECTED, self.expected.to_json()));
        out
    }

    /// Assembles a trace from decoded `(tag, json)` sections, shared
    /// by both encodings.
    pub(crate) fn from_sections<'a>(
        sections: impl Iterator<Item = (Tag, &'a Json)>,
    ) -> Result<TraceFile, TraceError> {
        let mut header: Option<TraceHeader> = None;
        let mut dump: Option<Coredump> = None;
        let mut image: Option<TraceImage> = None;
        let mut inputs: Option<TraceInputs> = None;
        let mut steps: Vec<TraceStep> = Vec::new();
        let mut expected: Option<ExpectedOutcome> = None;
        fn parse<T: FromJson>(payload: &Json) -> Result<T, TraceError> {
            T::from_json(payload).map_err(|e| TraceError::Json(e.to_string()))
        }
        for (tag, payload) in sections {
            match tag {
                Tag::Header => header = Some(parse(payload)?),
                TAG_DUMP => dump = Some(parse(payload)?),
                TAG_IMAGE => image = Some(parse(payload)?),
                TAG_INPUTS => inputs = Some(parse(payload)?),
                TAG_STEP => steps.push(parse(payload)?),
                TAG_EXPECTED => expected = Some(parse(payload)?),
                // Unknown (future) sections are skipped; store-family
                // tags in a trace file are equally unknown here.
                _ => {}
            }
        }
        let header = header.ok_or(TraceError::Missing("header"))?;
        if header.format_version != FORMAT_VERSION {
            return Err(TraceError::Version(header.format_version));
        }
        Ok(TraceFile {
            header,
            dump: dump.ok_or(TraceError::Missing("dump"))?,
            image: image.ok_or(TraceError::Missing("image"))?,
            inputs: inputs.ok_or(TraceError::Missing("inputs"))?.inputs,
            steps,
            expected: expected.ok_or(TraceError::Missing("expected-outcome"))?,
        })
    }

    /// Parses the text encoding.
    pub fn from_text_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
        let text = std::str::from_utf8(bytes).map_err(|_| TraceError::NotATrace)?;
        let mut lines = text.lines();
        let version = lines
            .next()
            .and_then(parse_magic)
            .ok_or(TraceError::NotATrace)?;
        if version != FORMAT_VERSION {
            return Err(TraceError::Version(version));
        }
        let mut sections: Vec<(Tag, Json)> = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let (tag, payload) = decode_record(line).ok_or(TraceError::Torn { record: i })?;
            let json = mvm_json::parse(payload).map_err(|e| TraceError::Json(e.to_string()))?;
            sections.push((tag, json));
        }
        Self::from_sections(sections.iter().map(|(t, j)| (*t, j)))
    }

    /// Writes the trace to `path` atomically
    /// ([`res_store::write_atomic`]: tmp + sync + rename), choosing the
    /// encoding from the extension (`.bin` → binary).
    pub fn write(&self, path: &Path) -> io::Result<Encoding> {
        self.write_with(path, &Recorder::disabled())
    }

    /// [`write`](Self::write) with a `trace.write` observability mark.
    pub fn write_with(&self, path: &Path, rec: &Recorder) -> io::Result<Encoding> {
        let encoding = Encoding::for_path(path);
        let bytes = self.to_bytes(encoding);
        res_store::write_atomic(path, &bytes)?;
        rec.event_with("trace.write", || {
            vec![
                ("path".to_string(), path.display().to_string()),
                ("encoding".to_string(), encoding.name().to_string()),
                ("bytes".to_string(), bytes.len().to_string()),
                ("steps".to_string(), self.steps.len().to_string()),
            ]
        });
        Ok(encoding)
    }

    /// Reads a trace from `path`, auto-detecting the encoding.
    pub fn read(path: &Path) -> Result<(TraceFile, Encoding), TraceError> {
        Self::read_with(path, &Recorder::disabled())
    }

    /// [`read`](Self::read) with a `trace.read` observability mark.
    pub fn read_with(path: &Path, rec: &Recorder) -> Result<(TraceFile, Encoding), TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        let (trace, encoding) = Self::from_bytes(&bytes)?;
        rec.event_with("trace.read", || {
            vec![
                ("path".to_string(), path.display().to_string()),
                ("encoding".to_string(), encoding.name().to_string()),
                ("bytes".to_string(), bytes.len().to_string()),
                ("steps".to_string(), trace.steps.len().to_string()),
            ]
        });
        Ok((trace, encoding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_round_trips() {
        assert_eq!(parse_magic(&magic_line()), Some(FORMAT_VERSION));
        assert_eq!(parse_magic("RES-TRACE 9"), Some(9));
        assert_eq!(parse_magic("RES-STORE 1"), None);
        assert_eq!(parse_magic(""), None);
    }

    #[test]
    fn encoding_selection_and_sniffing() {
        assert_eq!(
            Encoding::for_path(Path::new("a/repro.restrace")),
            Encoding::Json
        );
        assert_eq!(
            Encoding::for_path(Path::new("a/repro.restrace.bin")),
            Encoding::Binary
        );
        assert_eq!(Encoding::sniff(b"RES-TRACE 1\n"), Some(Encoding::Json));
        assert_eq!(
            Encoding::sniff(b"RES-TRACE-BIN 1\n"),
            Some(Encoding::Binary)
        );
        assert_eq!(Encoding::sniff(b"RES-STORE 1\n"), None);
        assert_eq!(Encoding::sniff(b""), None);
    }
}
