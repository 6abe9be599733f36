//! # Portable on-disk replay traces (`res-trace`)
//!
//! The engine's output artifact — a synthesized suffix (initial memory
//! image `Mi`, inferred inputs, block-granular thread schedule) — is a
//! complete deterministic reproduction of a failure, but until this
//! crate it lived only as an in-memory `SynthesisResult`. A
//! [`TraceFile`] makes it durable and portable: everything replay needs
//! in one versioned file that can be attached to a bug report, returned
//! by the `res-serve` daemon, or re-checked after a fix.
//!
//! ## File formats
//!
//! Two interchangeable encodings carry the same logical content and
//! are auto-detected on read (and selected by extension on write):
//!
//! * **mvm-json text** (`.restrace`) — a `RES-TRACE 1` magic line
//!   followed by `res-store`-framed records (`<tag> <len> <fnv64-hex>
//!   <payload-json>`), one JSON payload per line. Human-greppable.
//! * **compact binary** (`.restrace.bin`) — a `RES-TRACE-BIN 1` magic
//!   line followed by length-prefixed, fnv64-checksummed binary records
//!   holding the same JSON trees in a varint-coded binary form
//!   (typically 3–4× smaller). See [`binary`].
//!
//! Record tags (section order is fixed; unknown tags are skipped so
//! future versions can append sections without a version bump):
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | `H` | header | [`TraceHeader`]: format version, program fingerprint, writer |
//! | `D` | dump | the [`Coredump`](mvm_core::Coredump) the trace reproduces |
//! | `M` | image | [`TraceImage`]: `Mi` cells, initial registers, start positions |
//! | `I` | inputs | [`TraceInputs`]: concrete input values per thread |
//! | `T` | step | one [`TraceStep`] per schedule event, in order |
//! | `X` | expected | [`ExpectedOutcome`]: fault, bucket, fingerprints |
//!
//! Writes are atomic (tmp file + sync + rename) and deterministic: no
//! timestamps, static writer metadata, so identical suffixes produce
//! byte-identical trace files at any worker count.
//!
//! Unlike the solver store (which degrades any damage to a cold
//! start), a damaged trace is *unusable* — replaying half a schedule
//! would "reproduce" a different execution — so every defect surfaces
//! as a typed [`TraceError`] naming the damaged record, never a panic
//! and never a silent partial load.
//!
//! ## The record → fix → verify workflow
//!
//! [`record_trace`] replays a synthesized suffix while observing every
//! schedule event (start/end pc, instruction count, and each concrete
//! memory write) and persists the observations. [`verify_trace`] later
//! replays the trace against a possibly-modified program and compares
//! step by step: the first deviation — a different write, a different
//! branch target, a missing fault — is reported as a
//! [`Divergence`](res_core::Divergence) with the event index, thread,
//! and expected-vs-got payload. A fix that prevents the failure shows
//! up as a loud `FAIL` whose divergence pinpoints where behaviour
//! changed; an unrelated change that still faults identically verifies
//! `PASS`.

pub mod binary;
pub mod format;
pub mod ops;

pub use binary::{decode_json, encode_json, BIN_MAGIC};
pub use format::{
    Encoding, ExpectedOutcome, TraceError, TraceFile, TraceHeader, TraceImage, TraceInputs,
    TraceStep, EXT_BIN, EXT_JSON, FORMAT_VERSION, MAGIC,
};
pub use ops::{record_trace, replay_trace, verify_trace, RecordError, VerifyOutcome};
