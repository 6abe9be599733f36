//! Record-replay cost models (the paper's §1 motivation).
//!
//! "Making a multi-threaded execution on a multicore CPU reproducible
//! requires logging a large number of memory operations, and this causes
//! existing deterministic record-replay systems to have high performance
//! overhead (e.g., 400% for SMP-ReVirt and 60% for ODR, even for a
//! 2-core CPU)."
//!
//! The baseline runs a workload with full tracing and converts the event
//! stream into the *log volume* and *slowdown* an always-on recorder
//! would impose. The per-event costs are models (documented constants
//! chosen to land the published 2-core numbers in the right ballpark);
//! the experiment's claim is the *shape*: full memory-order recording ≫
//! output-deterministic recording ≫ no recording (RES), and both logs
//! grow linearly without bound while RES records nothing.

use mvm_isa::Program;
use mvm_machine::{
    InputSource,
    Machine,
    MachineConfig,
    Outcome,
    SchedPolicy,
    TraceEvent,
    TraceLevel, //
};

/// Which recorder to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderKind {
    /// SMP-ReVirt-like: logs the outcome of every shared-memory access
    /// (CREW page-protection faults dominate its cost).
    FullMemoryOrder,
    /// ODR-like output-deterministic recording: inputs, synchronization
    /// order, and outputs only; memory races are *not* logged and must
    /// be inferred offline.
    OutputDeterministic,
    /// No recording at all — RES's operating point.
    None,
}

impl RecorderKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RecorderKind::FullMemoryOrder => "full-memory-order (SMP-ReVirt-like)",
            RecorderKind::OutputDeterministic => "output-deterministic (ODR-like)",
            RecorderKind::None => "no recording (RES)",
        }
    }
}

/// Cost model constants (per event, in "instruction equivalents" and
/// log bytes). The instruction-equivalent costs are calibrated so a
/// memory-heavy 2-thread workload lands near the published 2-core
/// overheads (≈400% / ≈60%).
mod model {
    /// Extra instruction-equivalents per logged memory access
    /// (page-protection fault + ownership transfer amortized).
    pub const FULL_PER_MEM: f64 = 9.0;
    /// Log bytes per memory-order entry (addr + value + vector stamp).
    pub const FULL_BYTES_PER_MEM: u64 = 20;
    /// Extra instruction-equivalents per input/sync/output event for
    /// output-deterministic recording.
    pub const ODR_PER_EVENT: f64 = 6.0;
    /// Extra instruction-equivalents per branch for ODR's path sketch.
    pub const ODR_PER_BRANCH: f64 = 0.45;
    /// Log bytes per input/sync/output entry.
    pub const ODR_BYTES_PER_EVENT: u64 = 12;
    /// Log bytes per 64 branches (bit-packed path sketch).
    pub const ODR_BYTES_PER_BRANCH_WORD: u64 = 8;
}

/// Measured/modelled recording cost for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingCost {
    /// Recorder modelled.
    pub kind: RecorderKind,
    /// Instructions the bare program executed.
    pub base_steps: u64,
    /// Events the recorder must log.
    pub events_logged: u64,
    /// Log bytes produced.
    pub log_bytes: u64,
    /// Modelled slowdown as a percentage over bare execution (0 = no
    /// overhead, 400 = 5× slower).
    pub overhead_percent: f64,
}

/// Runs `program` and models the recorder's cost on that execution.
pub fn measure_recording(program: &Program, kind: RecorderKind, seed: u64) -> RecordingCost {
    let mut m = Machine::new(
        program,
        MachineConfig {
            sched: SchedPolicy::Random {
                seed,
                switch_per_mille: 300,
            },
            input: InputSource::Seeded { seed },
            trace: TraceLevel::Full,
            max_steps: 20_000_000,
            ..MachineConfig::default()
        },
    );
    let outcome = m.run();
    let base_steps = match outcome {
        Outcome::Halted { steps }
        | Outcome::Faulted { steps, .. }
        | Outcome::StepLimit { steps } => steps,
    };
    let mut mem_events = 0u64;
    let mut io_sync_events = 0u64;
    for e in m.tracer().events() {
        match e {
            TraceEvent::Mem { .. } => mem_events += 1,
            TraceEvent::Input { .. } | TraceEvent::Sync { .. } => io_sync_events += 1,
            _ => {}
        }
    }
    let outputs = m.outputs().len() as u64;
    let branches = m
        .tracer()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::BlockEnter { .. }))
        .count() as u64;

    let (events_logged, log_bytes, extra_insts) = match kind {
        RecorderKind::FullMemoryOrder => (
            mem_events,
            mem_events * model::FULL_BYTES_PER_MEM,
            mem_events as f64 * model::FULL_PER_MEM,
        ),
        RecorderKind::OutputDeterministic => {
            let ev = io_sync_events + outputs;
            (
                ev + branches,
                ev * model::ODR_BYTES_PER_EVENT
                    + branches.div_ceil(64) * model::ODR_BYTES_PER_BRANCH_WORD,
                ev as f64 * model::ODR_PER_EVENT + branches as f64 * model::ODR_PER_BRANCH,
            )
        }
        RecorderKind::None => (0, 0, 0.0),
    };
    let overhead_percent = if base_steps == 0 {
        0.0
    } else {
        100.0 * extra_insts / base_steps as f64
    };
    RecordingCost {
        kind,
        base_steps,
        events_logged,
        log_bytes,
        overhead_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use res_workloads::{build, BugKind, WorkloadParams};

    fn workload(prefix: u64) -> Program {
        build(
            BugKind::DataRace,
            WorkloadParams {
                prefix_iters: prefix,
                ..WorkloadParams::default()
            },
        )
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        let p = workload(200);
        let full = measure_recording(&p, RecorderKind::FullMemoryOrder, 7);
        let odr = measure_recording(&p, RecorderKind::OutputDeterministic, 7);
        let none = measure_recording(&p, RecorderKind::None, 7);
        assert!(full.overhead_percent > odr.overhead_percent);
        assert!(odr.overhead_percent > none.overhead_percent);
        assert_eq!(none.overhead_percent, 0.0);
        assert_eq!(none.log_bytes, 0);
    }

    #[test]
    fn overheads_land_in_published_ballpark() {
        // Shape check: full-order recording in the hundreds of percent,
        // output-deterministic in the tens.
        let p = workload(500);
        let full = measure_recording(&p, RecorderKind::FullMemoryOrder, 3);
        let odr = measure_recording(&p, RecorderKind::OutputDeterministic, 3);
        assert!(
            full.overhead_percent > 150.0 && full.overhead_percent < 1200.0,
            "full: {}",
            full.overhead_percent
        );
        assert!(
            odr.overhead_percent > 10.0 && odr.overhead_percent < 150.0,
            "odr: {}",
            odr.overhead_percent
        );
    }

    #[test]
    fn logs_grow_with_execution_length() {
        let short = measure_recording(&workload(100), RecorderKind::FullMemoryOrder, 5);
        let long = measure_recording(&workload(10_000), RecorderKind::FullMemoryOrder, 5);
        assert!(long.log_bytes > short.log_bytes * 10);
    }
}
