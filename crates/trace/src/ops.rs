//! The record / replay / verify operations over [`TraceFile`]s.

use std::fmt;

use mvm_core::Coredump;
use mvm_isa::Program;
use res_core::{replay_observed, replay_suffix, Divergence, ExecutionSuffix, ReplayReport};
use res_obs::Recorder;
use res_store::program_fingerprint;

use crate::format::{TraceError, TraceFile};

/// Why a recording was refused.
#[derive(Debug, Clone)]
pub enum RecordError {
    /// The suffix did not reproduce the dump when replayed against the
    /// program — persisting it would ship a broken reproduction.
    NotReproduced(Box<ReplayReport>),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::NotReproduced(report) => write!(
                f,
                "suffix does not reproduce the dump (fault_matches: {}, replay fault: {:?})",
                report.fault_matches, report.replay_fault
            ),
        }
    }
}

impl std::error::Error for RecordError {}

/// Records a trace: replays `suffix` against `program`/`dump` while
/// observing every schedule event (start/end pc and concrete writes)
/// and packages the observations as a [`TraceFile`]. Refuses suffixes
/// that do not reproduce. `bucket` is the caller-computed root-cause
/// bucket key, if any (this crate cannot compute one — `res-triage`
/// sits above it).
pub fn record_trace(
    program: &Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    bucket: Option<String>,
    rec: &Recorder,
) -> Result<TraceFile, RecordError> {
    let span = rec.span("trace.record");
    let (report, observed, _) = replay_observed(program, dump, suffix, None);
    if !report.reproduced {
        span.end();
        return Err(RecordError::NotReproduced(Box::new(report)));
    }
    let trace = TraceFile::from_suffix(
        program_fingerprint(program),
        dump,
        suffix,
        &observed,
        bucket,
    );
    rec.counter("trace.recorded", 1);
    rec.event_with("trace.record.done", || {
        vec![
            ("steps".to_string(), trace.steps.len().to_string()),
            (
                "instructions".to_string(),
                trace.expected.total_steps.to_string(),
            ),
            ("writes".to_string(), trace.total_writes().to_string()),
        ]
    });
    span.end();
    Ok(trace)
}

/// Replays a trace against the program it was recorded from and
/// verifies reproduction. Strict: a program whose fingerprint differs
/// from the header is refused (use [`verify_trace`] to ask whether a
/// *modified* program still reproduces), and so is a trace whose dump
/// names code the program lacks ([`TraceError::Program`]).
pub fn replay_trace(
    program: &Program,
    trace: &TraceFile,
    rec: &Recorder,
) -> Result<ReplayReport, TraceError> {
    let got = program_fingerprint(program);
    if got != trace.header.program_fp {
        return Err(TraceError::Fingerprint {
            expected: trace.header.program_fp,
            got,
        });
    }
    trace
        .dump
        .check_program(program)
        .map_err(TraceError::Program)?;
    let span = rec.span("trace.replay");
    let report = replay_suffix(program, &trace.dump, &trace.to_suffix());
    rec.counter("trace.replayed", 1);
    span.end();
    Ok(report)
}

/// The `verify` verdict: did a (possibly fixed) program re-execute the
/// recorded trace identically?
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// `true` when the replay matched the recording event for event
    /// and reproduced the fault and end state.
    pub pass: bool,
    /// `false` when the program under verification differs from the
    /// recorded one (the usual case for a fix).
    pub fingerprint_matches: bool,
    /// The point of first difference, when `pass` is `false`.
    pub divergence: Option<Divergence>,
    /// The underlying replay report.
    pub report: ReplayReport,
}

/// Replays a trace against a possibly-modified program, comparing
/// every schedule event against the recording. Returns `pass` when the
/// execution is indistinguishable from the recorded one; otherwise the
/// [`Divergence`] names the first event (index, thread, expected vs
/// got) where behaviour changed — the wasm-rr "did the fix work?"
/// verdict. A trace whose dump names code the program lacks cannot be
/// replayed on it and is refused ([`TraceError::Program`]).
pub fn verify_trace(
    program: &Program,
    trace: &TraceFile,
    rec: &Recorder,
) -> Result<VerifyOutcome, TraceError> {
    trace
        .dump
        .check_program(program)
        .map_err(TraceError::Program)?;
    let span = rec.span("trace.verify");
    let fingerprint_matches = program_fingerprint(program) == trace.header.program_fp;
    let expected = trace.expected_events();
    let (report, _, divergence) =
        replay_observed(program, &trace.dump, &trace.to_suffix(), Some(&expected));
    let pass = report.reproduced && divergence.is_none();
    rec.counter("trace.verified", 1);
    if let Some(div) = &divergence {
        rec.event_with("trace.diverged", || {
            vec![
                ("event".to_string(), div.event.to_string()),
                ("tid".to_string(), div.tid.to_string()),
                ("kind".to_string(), div.kind.to_string()),
            ]
        });
    }
    span.end();
    Ok(VerifyOutcome {
        pass,
        fingerprint_matches,
        divergence,
        report,
    })
}
