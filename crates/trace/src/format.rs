//! The trace file model and its on-disk encoding.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

use mvm_core::{Coredump, ProgramMismatch};
use mvm_isa::{InputKind, Loc, Reg, Width};
use mvm_json::{json_struct, FromJson};
use mvm_machine::{Fault, ThreadId};
use mvm_symbolic::Model;
use res_core::blockexec::EndPoint;
use res_core::{ExecutionSuffix, ObservedEvent, SuffixStep};
use res_obs::Recorder;
use res_store::{decode_record, encode_record, fnv64, Tag};

/// First token of a trace file's magic line.
pub const MAGIC: &str = "RES-TRACE";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The conventional extension of a trace file.
pub const EXT_JSON: &str = "restrace";

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
    /// A section names a thread the dump lacks, so replay would start
    /// or schedule a thread it has no state for.
    UnknownThread {
        /// The section naming it: `start_positions` or `initial_regs`
        /// of the image, or `step`.
        section: &'static str,
        /// The thread.
        tid: ThreadId,
    },
    /// The image names a start position for a dump thread that replay
    /// cannot build: the thread has no register file, its start depth
    /// lies past the dump thread's frames, or its register file sits at
    /// another depth or is not [`Reg::COUNT`] long.
    BadStart {
        /// The thread.
        tid: ThreadId,
        /// What is wrong with its start.
        defect: &'static str,
    },
    /// The trace's dump names code the program lacks, or the program
    /// is malformed, so no replay can run it.
    Program(ProgramMismatch),
    /// The image starts a thread, or a step starts or ends, at code
    /// the program lacks.
    MissingCode {
        /// The section naming it: `start_positions` of the image, or
        /// a step's `start` or `end`.
        section: &'static str,
        /// The thread.
        tid: ThreadId,
        /// The location the program lacks.
        loc: Loc,
    },
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
            TraceError::UnknownThread { section, tid } => {
                write!(
                    f,
                    "trace {section} names thread {tid}, which its dump lacks"
                )
            }
            TraceError::BadStart { tid, defect } => {
                write!(f, "trace image cannot start thread {tid}: {defect}")
            }
            TraceError::Program(e) => write!(f, "trace does not fit the program: {e}"),
            TraceError::MissingCode { section, tid, loc } => write!(
                f,
                "trace {section} of thread {tid} is at {loc}, which the program lacks"
            ),
            TraceError::Fingerprint { expected, got } => write!(
                f,
                "program fingerprint {got:016x} does not match the trace's {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// The magic line a trace file starts with (without the newline).
pub fn magic_line() -> String {
    format!("{MAGIC} {FORMAT_VERSION}")
}

/// Parses a magic line; returns the declared format version.
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

    /// The file bytes: the magic line, then one framed single-line JSON
    /// record per section, in file order.
    pub fn to_text_bytes(&self) -> Vec<u8> {
        let mut out = format!("{}\n", magic_line()).into_bytes();
        encode_record(Tag::Header, &mvm_json::to_string(&self.header), &mut out);
        encode_record(TAG_DUMP, &mvm_json::to_string(&self.dump), &mut out);
        encode_record(TAG_IMAGE, &mvm_json::to_string(&self.image), &mut out);
        let inputs = TraceInputs {
            inputs: self.inputs.clone(),
        };
        encode_record(TAG_INPUTS, &mvm_json::to_string(&inputs), &mut out);
        for s in &self.steps {
            encode_record(TAG_STEP, &mvm_json::to_string(s), &mut out);
        }
        encode_record(TAG_EXPECTED, &mvm_json::to_string(&self.expected), &mut out);
        out
    }

    /// Parses file bytes. Anything that does not start with this
    /// build's magic line, including the binary traces older builds
    /// wrote, is [`TraceError::NotATrace`]; a trace whose sections name
    /// a thread its dump lacks is [`TraceError::UnknownThread`], and one
    /// whose image cannot start a thread is [`TraceError::BadStart`].
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
        fn parse<T: FromJson>(payload: &str) -> Result<T, TraceError> {
            mvm_json::from_str(payload).map_err(|e| TraceError::Json(e.to_string()))
        }
        let mut header: Option<TraceHeader> = None;
        let mut dump: Option<Coredump> = None;
        let mut image: Option<TraceImage> = None;
        let mut inputs: Option<TraceInputs> = None;
        let mut steps: Vec<TraceStep> = Vec::new();
        let mut expected: Option<ExpectedOutcome> = None;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let (tag, payload) = decode_record(line).ok_or(TraceError::Torn { record: i })?;
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
        let trace = TraceFile {
            header,
            dump: dump.ok_or(TraceError::Missing("dump"))?,
            image: image.ok_or(TraceError::Missing("image"))?,
            inputs: inputs.ok_or(TraceError::Missing("inputs"))?.inputs,
            steps,
            expected: expected.ok_or(TraceError::Missing("expected-outcome"))?,
        };
        trace.check_threads()?;
        Ok(trace)
    }

    /// Refuses a trace whose image or steps name a thread its dump
    /// lacks, in file order, and then one whose image cannot start a
    /// thread: replay builds each start frame from the image's register
    /// file at the start depth, on top of the dump thread's frames below
    /// that depth.
    fn check_threads(&self) -> Result<(), TraceError> {
        let starts = self.image.start_positions.keys();
        let regs = self.image.initial_regs.keys();
        let named = starts
            .map(|&tid| ("start_positions", tid))
            .chain(regs.map(|&tid| ("initial_regs", tid)))
            .chain(self.steps.iter().map(|s| ("step", s.tid)));
        for (section, tid) in named {
            if self.dump.thread(tid).is_none() {
                return Err(TraceError::UnknownThread { section, tid });
            }
        }
        for (&tid, &(depth, _)) in &self.image.start_positions {
            let frames = self.dump.thread(tid).map_or(0, |t| t.frames.len());
            let defect = match self.image.initial_regs.get(&tid) {
                None => "start_positions names it, initial_regs does not",
                Some(_) if depth >= frames => "its start depth lies past the dump thread's frames",
                Some((at, _)) if *at != depth => "its initial_regs depth is not its start depth",
                Some((_, regs)) if regs.len() != Reg::COUNT => {
                    "its initial_regs register file is not Reg::COUNT long"
                }
                Some(_) => continue,
            };
            return Err(TraceError::BadStart { tid, defect });
        }
        Ok(())
    }

    /// Writes the trace to `path` atomically
    /// ([`res_store::write_atomic`]: tmp + sync + rename).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        self.write_with(path, &Recorder::disabled())
    }

    /// [`write`](Self::write) with a `trace.write` observability mark.
    pub fn write_with(&self, path: &Path, rec: &Recorder) -> io::Result<()> {
        let bytes = self.to_text_bytes();
        res_store::write_atomic(path, &bytes)?;
        rec.event_with("trace.write", || {
            vec![
                ("path".to_string(), path.display().to_string()),
                ("bytes".to_string(), bytes.len().to_string()),
                ("steps".to_string(), self.steps.len().to_string()),
            ]
        });
        Ok(())
    }

    /// Reads a trace from `path`.
    pub fn read(path: &Path) -> Result<TraceFile, TraceError> {
        Self::read_with(path, &Recorder::disabled())
    }

    /// [`read`](Self::read) with a `trace.read` observability mark.
    pub fn read_with(path: &Path, rec: &Recorder) -> Result<TraceFile, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        let trace = Self::from_text_bytes(&bytes)?;
        rec.event_with("trace.read", || {
            vec![
                ("path".to_string(), path.display().to_string()),
                ("bytes".to_string(), bytes.len().to_string()),
                ("steps".to_string(), trace.steps.len().to_string()),
            ]
        });
        Ok(trace)
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
}
