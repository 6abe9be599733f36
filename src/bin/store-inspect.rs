//! `store-inspect` — examine (and optionally compact) a `res-store`
//! solver-result store, or dump the header of a `res-trace` replay
//! trace.
//!
//! ```text
//! store-inspect <file>             print header, stats, record counts
//! store-inspect <file> --compact   also rewrite the file dropping
//!                                  superseded records
//! ```
//!
//! The file kind is sniffed from its magic bytes: replay traces
//! (`.restrace`) get a trace report — header, fingerprints, event
//! counts, schedule summary, expected outcome; anything else is
//! treated as a solver store. Read-only by
//! default (`--compact` is refused on traces): inspection never
//! modifies the file. The program fingerprint is taken from the file's
//! own header, so any valid file can be inspected without the program
//! it was built for.

use std::path::Path;

use res_debugger::store::{LoadOutcome, SolverStore};
use res_debugger::trace::{TraceFile, MAGIC};

fn inspect_trace(path: &Path, compact: bool) -> Result<(), String> {
    if compact {
        return Err("replay traces are immutable; --compact applies only to stores".into());
    }
    let trace = TraceFile::read(path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("replay trace: {}", path.display());
    println!("  format version:   {}", trace.header.format_version);
    println!("  program fp:       {:#018x}", trace.header.program_fp);
    println!("  suffix fp:        {:#018x}", trace.expected.suffix_fp);
    println!("  writer:           {}", trace.header.writer);
    println!("  bytes:            {bytes}");
    println!("  events:           {}", trace.steps.len());
    println!("  instructions:     {}", trace.expected.total_steps);
    println!("  recorded writes:  {}", trace.total_writes());
    println!(
        "  image:            {} cells, {} thread(s){}",
        trace.image.initial_cells.len(),
        trace.image.start_positions.len(),
        if trace.image.approximate {
            ", approximate"
        } else {
            ""
        }
    );
    let scripted: usize = trace.inputs.values().map(Vec::len).sum();
    println!("  scripted inputs:  {scripted}");
    println!("  schedule:");
    for (tid, events, steps) in trace.schedule_summary() {
        println!("    thread {tid}: {events} event(s), {steps} instruction(s)");
    }
    println!(
        "  expected:         `{}` in thread {}",
        trace.expected.fault, trace.expected.faulting_tid
    );
    if let Some(bucket) = &trace.expected.bucket {
        println!("  bucket:           {bucket}");
    }
    Ok(())
}

fn inspect(path: &Path, compact: bool) -> Result<(), String> {
    if !path.exists() {
        return Err(format!("no store at {}", path.display()));
    }
    let head = std::fs::read(path).map_err(|e| e.to_string())?;
    if head.starts_with(MAGIC.as_bytes()) {
        return inspect_trace(path, compact);
    }
    let mut store = SolverStore::open_for_inspection(path);
    let report = *store.load_report();
    let header = store.header().clone();
    let stats = *store.stats();

    println!("store: {}", path.display());
    println!("  outcome:          {:?}", report.outcome);
    println!("  format version:   {}", header.format_version);
    println!("  program fp:       {:#018x}", header.program_fp);
    println!("  isa:              {}", header.isa);
    println!("  writer:           {}", header.writer);
    println!("  bytes:            {}", report.bytes);
    println!("  live entries:     {}", report.entries_loaded);
    println!("  superseded:       {}", report.superseded);
    println!("  torn/skipped:     {}", report.records_skipped);
    let total = report.entries_loaded + report.superseded;
    let ratio = if total == 0 {
        0.0
    } else {
        report.superseded as f64 / total as f64
    };
    println!("  superseded ratio: {ratio:.2}");
    println!("  stats (persisted at the last commit that wrote entries):");
    println!("    entries:        {}", stats.entries);
    println!("    bytes:          {}", stats.bytes);
    println!(
        "    absorbed hits:  {} (up to that write)",
        stats.absorbed_hits
    );
    println!("    commits:        {}", stats.commits);
    println!("    compactions:    {}", stats.compactions);

    if !compact {
        return Ok(());
    }
    if report.outcome != LoadOutcome::Loaded {
        return Err(format!(
            "refusing to compact: store did not load cleanly ({:?})",
            report.outcome
        ));
    }
    let c = store.compact().map_err(|e| format!("compacting: {e}"))?;
    println!(
        "compacted: dropped {} superseded record(s), {} -> {} bytes",
        c.dropped, c.bytes_before, c.bytes_after
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let compact = args.iter().any(|a| a == "--compact");
    let paths: Vec<&String> = args.iter().filter(|a| *a != "--compact").collect();
    let [path] = paths.as_slice() else {
        eprintln!("usage: store-inspect <store-file> [--compact]");
        std::process::exit(2);
    };
    if let Err(e) = inspect(Path::new(path), compact) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
