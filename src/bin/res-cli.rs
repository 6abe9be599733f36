//! `res-cli` — drive the RES pipeline from the command line.
//!
//! ```text
//! res-cli demo <bug>          run a bundled buggy workload end to end
//! res-cli list                list bundled bug workloads
//! res-cli crash <bug> <dir> [--emit-fixed]
//!                             crash a workload; write program.json + dump.json
//!                             (--emit-fixed also writes program.fixed.json)
//! res-cli synthesize <dir> [--store FILE] [--trace PATH]
//!                             synthesize + replay + root-cause from those files
//! res-cli record <dir> [--out FILE] [--store FILE] [--trace PATH]
//!                             synthesize, then save a portable replay trace
//! res-cli replay <dir> <trace>
//!                             re-run a recorded trace; exit 0 iff REPRODUCED
//! res-cli verify <dir> <trace>
//!                             check the dir's program against a recording:
//!                             PASS, or FAIL with the first divergence
//! res-cli verdict <dir>       hardware-vs-software verdict for the dump
//! res-cli trace <journal>     pretty-print a res-obs JSONL trace journal
//! res-cli submit <dir> [--addr A] [--max-nodes N] [--deadline-ms N]
//!               [--emit-trace FILE]
//!                             send the dir's program+dump to a running daemon
//! res-cli shutdown [--addr A] ask a running daemon to exit
//! res-cli stats [--addr A] [--json]
//!                             one-shot telemetry snapshot from a daemon
//! res-cli top [--addr A] [--interval-ms N] [--count N]
//!                             polling live view of a daemon's telemetry
//! res-cli journal <file> [--span PREFIX] [--counters GLOB] [--req ID]
//!                [--requests] [--quantiles]
//!                             query a JSONL journal: span subtrees, counter
//!                             globs, per-request trees, percentile summaries
//! ```
//!
//! Programs and coredumps are exchanged as JSON, so dumps can be
//! inspected, archived, or corrupted (for §3.2 experiments) with
//! ordinary tools. `submit`, `shutdown`, `stats` and `top` talk to a
//! `res-serve` daemon in the typed
//! [`res_debugger::triage::TriageRequest`] wire protocol over loopback
//! TCP or (with `--addr unix:/path`) a unix socket.
//!
//! # Observability journal precedence
//!
//! Every subcommand that journals res-obs events (`synthesize`,
//! `record`) resolves the journal path the same way: an
//! explicit `--trace PATH` flag always wins; otherwise the `RES_TRACE`
//! environment variable is the fallback; otherwise no journal is
//! written. This is the single authoritative statement of that
//! precedence — [`journal_path`] implements it. (Replay traces —
//! `record`/`replay`/`verify` files — are unrelated to the journal;
//! they use `--out` and positional paths.)

use std::path::Path;

use res_debugger::obs::{query, read_journal_full, Event, EventKind};
use res_debugger::prelude::*;
use res_debugger::serve::{StatsRequest, StatsResponse, TriageClient};
use res_debugger::triage::{bucket_key_for, TriageRequest};
use res_debugger::workloads::{build_fixed, run_to_failure};

const DEFAULT_ADDR: &str = "127.0.0.1:7466";

/// Splits `args` into positional operands and `--flag value` pairs.
/// Unknown flags and missing values fall through to `usage()`.
fn parse_flags(args: &[String], known: &[&str]) -> (Vec<String>, Vec<(String, String)>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                usage();
            }
            match it.next() {
                Some(v) => flags.push((name.to_string(), v.clone())),
                None => usage(),
            }
        } else {
            pos.push(a.clone());
        }
    }
    (pos, flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    match flag(flags, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name}: invalid value `{v}`")),
    }
}

fn find_kind(name: &str) -> Option<BugKind> {
    BugKind::ALL.into_iter().find(|k| k.name() == name)
}

fn load_program(dir: &Path) -> Result<Program, String> {
    let p = std::fs::read_to_string(dir.join("program.json"))
        .map_err(|e| format!("reading program.json: {e}"))?;
    mvm_json::from_str(&p).map_err(|e| format!("parsing program.json: {e}"))
}

fn load(dir: &Path) -> Result<(Program, Coredump), String> {
    let program = load_program(dir)?;
    let d = std::fs::read_to_string(dir.join("dump.json"))
        .map_err(|e| format!("reading dump.json: {e}"))?;
    let dump: Coredump = mvm_json::from_str(&d).map_err(|e| format!("parsing dump.json: {e}"))?;
    dump.check_program(&program)
        .map_err(|e| format!("dump.json does not fit program.json: {e}"))?;
    Ok((program, dump))
}

/// The one place `--trace` vs `RES_TRACE` precedence is decided: the
/// flag wins, the environment variable is the fallback.
fn journal_path(flags: &[(String, String)]) -> Option<String> {
    flag(flags, "trace")
        .map(str::to_string)
        .or_else(|| std::env::var("RES_TRACE").ok())
}

/// Shared `--store` / `--trace` handling for the subcommands that run
/// a synthesis ([`cmd_synthesize`], [`cmd_record`]).
fn synth_opts(flags: &[(String, String)]) -> SynthOptions {
    let mut opts = SynthOptions::default();
    if let Some(s) = flag(flags, "store") {
        opts = opts.cache_path(s);
    }
    if let Some(t) = journal_path(flags) {
        opts = opts.trace(t);
    }
    opts
}

fn cmd_list() {
    println!("bundled bug workloads:");
    for k in BugKind::ALL {
        println!(
            "  {:<24} {}",
            k.name(),
            if k.is_concurrent() {
                "(concurrent)"
            } else {
                ""
            }
        );
    }
}

fn cmd_crash(kind: BugKind, dir: &Path, emit_fixed: bool) -> Result<(), String> {
    let program = build_workload(kind, WorkloadParams::default());
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .ok_or_else(|| format!("{} did not fail in 500 schedules", kind.name()))?;
    let dump = Coredump::capture(&machine);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("program.json"),
        mvm_json::to_string_pretty(&program),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(dir.join("dump.json"), mvm_json::to_string_pretty(&dump))
        .map_err(|e| e.to_string())?;
    println!(
        "crashed {} (`{}` in thread {}); wrote {}/program.json and dump.json",
        kind.name(),
        dump.fault,
        dump.faulting_tid,
        dir.display()
    );
    if emit_fixed {
        let fixed = build_fixed(kind, WorkloadParams::default())
            .ok_or_else(|| format!("{} has no fixed variant", kind.name()))?;
        std::fs::write(
            dir.join("program.fixed.json"),
            mvm_json::to_string_pretty(&fixed),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {}/program.fixed.json (bug repaired)", dir.display());
    }
    Ok(())
}

fn cmd_synthesize(dir: &Path, flags: &[(String, String)]) -> Result<(), String> {
    let (program, dump) = load(dir)?;
    println!(
        "fault: `{}` at {} (thread {})",
        dump.fault,
        dump.fault_pc(),
        dump.faulting_tid
    );
    let opts = synth_opts(flags);
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize_with(&dump, opts);
    println!(
        "verdict: {:?} — {} suffix(es), {} hypotheses, deepest {}",
        result.verdict,
        result.suffixes.len(),
        result.stats.hypotheses,
        result.stats.deepest
    );
    for (i, sfx) in result.suffixes.iter().enumerate() {
        let (rep, rc) = replay_and_diagnose(&program, &dump, sfx);
        print!(
            "suffix #{i}: {} blocks / {} instructions, replay {}",
            sfx.len(),
            sfx.total_steps(),
            if rep.reproduced {
                "REPRODUCED"
            } else {
                "diverged"
            }
        );
        if rep.reproduced {
            println!(", root cause: {}", rc.bucket_key());
        } else {
            println!();
        }
    }
    Ok(())
}

fn cmd_record(dir: &Path, flags: &[(String, String)]) -> Result<(), String> {
    let (program, dump) = load(dir)?;
    let opts = synth_opts(flags);
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize_with(&dump, opts);
    if result.suffixes.is_empty() {
        return Err(format!(
            "synthesis produced no suffixes (verdict {:?})",
            result.verdict
        ));
    }
    let bucket = bucket_key_for(&program, &dump, &result.suffixes);
    let out = flag(flags, "out")
        .map(Into::into)
        .unwrap_or_else(|| dir.join("repro.restrace"));
    let rec = Recorder::disabled();
    let mut last_err = String::from("no suffix replayed deterministically");
    for sfx in &result.suffixes {
        let trace = match record_trace(&program, &dump, sfx, Some(bucket.clone()), &rec) {
            Ok(t) => t,
            Err(e) => {
                last_err = e.to_string();
                continue;
            }
        };
        trace
            .write(&out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!(
            "recorded {}: {} events / {} instructions, {} writes, bucket {}",
            out.display(),
            trace.steps.len(),
            trace.expected.total_steps,
            trace.total_writes(),
            bucket
        );
        return Ok(());
    }
    Err(last_err)
}

fn cmd_replay(dir: &Path, trace_path: &Path) -> Result<(), String> {
    let program = load_program(dir)?;
    let trace = TraceFile::read(trace_path).map_err(|e| e.to_string())?;
    println!(
        "{}: format v{}, program {:016x}, {} events, expected `{}`",
        trace_path.display(),
        trace.header.format_version,
        trace.header.program_fp,
        trace.steps.len(),
        trace.expected.fault
    );
    let report =
        replay_trace(&program, &trace, &Recorder::disabled()).map_err(|e| e.to_string())?;
    if report.reproduced {
        println!("replay REPRODUCED the recorded failure");
        Ok(())
    } else {
        Err("replay diverged from the recorded failure".into())
    }
}

fn cmd_verify(dir: &Path, trace_path: &Path) -> Result<(), String> {
    let program = load_program(dir)?;
    let trace = TraceFile::read(trace_path).map_err(|e| e.to_string())?;
    let out = verify_trace(&program, &trace, &Recorder::disabled()).map_err(|e| e.to_string())?;
    if !out.fingerprint_matches {
        println!(
            "note: program differs from the recording (recorded {:016x})",
            trace.header.program_fp
        );
    }
    if out.pass {
        println!(
            "PASS: {} events replayed identically; fault `{}` reproduced",
            trace.steps.len(),
            trace.expected.fault
        );
        Ok(())
    } else {
        match &out.divergence {
            Some(d) => println!("FAIL: first divergence at {d}"),
            None => println!("FAIL: replay did not reproduce the recorded failure"),
        }
        Err("trace verification failed".into())
    }
}

fn cmd_verdict(dir: &Path) -> Result<(), String> {
    let (program, dump) = load(dir)?;
    let verdict = hardware_verdict(&program, &dump, &ResConfig::default());
    println!("{verdict:?}");
    Ok(())
}

fn cmd_trace(path: &Path) -> Result<(), String> {
    let events = read_journal(path)?;
    println!("{} events in {}", events.len(), path.display());
    print!("{}", res_debugger::obs::render::render(&events));
    Ok(())
}

fn cmd_demo(kind: BugKind) -> Result<(), String> {
    let program = build_workload(kind, WorkloadParams::default());
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .ok_or_else(|| format!("{} did not fail in 500 schedules", kind.name()))?;
    let dump = Coredump::capture(&machine);
    println!(
        "production failure: `{}` after {} steps",
        dump.fault, dump.steps
    );
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    println!(
        "synthesis: {:?} ({} hypotheses)",
        result.verdict, result.stats.hypotheses
    );
    for sfx in &result.suffixes {
        let (rep, rc) = replay_and_diagnose(&program, &dump, sfx);
        if !rep.reproduced {
            continue;
        }
        println!(
            "replay-verified suffix: {} blocks, schedule {:?}",
            sfx.len(),
            sfx.schedule()
        );
        println!("root cause: {rc:?}");
        return Ok(());
    }
    Err("no suffix replayed".into())
}

fn cmd_submit(dir: &Path, flags: &[(String, String)]) -> Result<(), String> {
    let (program, dump) = load(dir)?;
    let mut req = TriageRequest::new(program, dump);
    if let Some(n) = parsed(flags, "max-nodes")? {
        req = req.max_nodes(n);
    }
    if let Some(ms) = parsed(flags, "deadline-ms")? {
        req = req.deadline_ms(ms);
    }
    let emit_trace = flag(flags, "emit-trace");
    if emit_trace.is_some() {
        req = req.return_trace(true);
    }
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    let mut client =
        TriageClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = client.triage(req).map_err(|e| format!("submitting: {e}"))?;
    match resp {
        Ok(r) => {
            println!("verdict: {:?}", r.verdict);
            println!("bucket: {}", r.bucket_key);
            for (i, s) in r.suffixes.iter().enumerate() {
                println!(
                    "suffix #{i}: {} blocks / {} instructions, replay {}",
                    s.steps,
                    s.instructions,
                    if s.replayed { "REPRODUCED" } else { "diverged" }
                );
            }
            if let Some(path) = emit_trace {
                match &r.trace {
                    Some(text) => {
                        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
                        println!("wrote replay trace to {path}");
                    }
                    None => println!("daemon returned no replay trace (nothing reproduced?)"),
                }
            }
            Ok(())
        }
        Err(other) => Err(format!("daemon declined the request: {other:?}")),
    }
}

fn cmd_shutdown(flags: &[(String, String)]) -> Result<(), String> {
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    let mut client =
        TriageClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .shutdown()
        .map_err(|e| format!("shutting down: {e}"))?;
    println!("daemon at {addr} is shutting down");
    Ok(())
}

/// Renders a `StatsResponse` through `obs::render` by synthesizing a
/// small event stream from it: gauges for the counters, bucketed
/// histogram events for the latency distributions, one mark per
/// flight-recorder entry. One renderer for journals, `stats`, and
/// `top`.
fn stats_events(resp: &StatsResponse) -> Vec<Event> {
    let mut kinds: Vec<EventKind> = Vec::new();
    let s = &resp.server;
    for (name, value) in [
        ("serve.queue.depth", s.queue_depth),
        ("serve.queue.cap", s.queue_cap),
        ("serve.workers", s.workers),
        ("serve.hot.programs", s.hot_programs),
        ("serve.hot.hits", s.hot_hits),
        ("serve.hot.misses", s.hot_misses),
        ("serve.hot.evictions", s.hot_evictions),
        ("serve.admitted", s.admitted),
        ("serve.rejected.queue", s.rejected_queue),
        ("serve.rejected.budget", s.rejected_budget),
        ("serve.completed", s.completed),
        ("serve.requests", resp.requests),
        ("serve.connections", resp.connections),
    ] {
        kinds.push(EventKind::Gauge {
            name: name.into(),
            value,
        });
    }
    for h in &resp.histograms {
        kinds.push(EventKind::Histo {
            name: h.name.clone(),
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: Some(h.buckets.clone()),
        });
    }
    for r in &resp.recent {
        kinds.push(EventKind::Mark {
            name: format!("recent.{}", r.req_id),
            fields: vec![
                ("endpoint".into(), r.endpoint.clone()),
                ("outcome".into(), r.outcome.clone()),
                ("total_us".into(), r.total_us.to_string()),
                ("queue_wait_us".into(), r.queue_wait_us.to_string()),
                ("synth_us".into(), r.synth_us.to_string()),
                ("store_us".into(), r.store_us.to_string()),
            ],
        });
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: i as u64,
            t_us: 0,
            kind,
        })
        .collect()
}

fn fetch_stats(addr: &str) -> Result<StatsResponse, String> {
    let mut client =
        TriageClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .stats_query(&StatsRequest::default())
        .map_err(|e| format!("querying stats: {e}"))
}

fn cmd_stats(flags: &[(String, String)], json: bool) -> Result<(), String> {
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    let resp = fetch_stats(addr)?;
    if json {
        println!("{}", mvm_json::to_string_pretty(&resp));
        return Ok(());
    }
    println!(
        "daemon {addr}: up {}ms, {} requests over {} connections",
        resp.uptime_us / 1_000,
        resp.requests,
        resp.connections
    );
    print!(
        "{}",
        res_debugger::obs::render::render(&stats_events(&resp))
    );
    Ok(())
}

fn cmd_top(flags: &[(String, String)]) -> Result<(), String> {
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    let interval_ms: u64 = parsed(flags, "interval-ms")?.unwrap_or(1000);
    let count: u64 = parsed(flags, "count")?.unwrap_or(0);
    let mut shown = 0u64;
    loop {
        let resp = fetch_stats(addr)?;
        // Clear the screen and home the cursor between frames.
        print!("\x1b[2J\x1b[H");
        println!(
            "res-serve {addr} — up {}ms, {} requests / {} connections (^C to quit)",
            resp.uptime_us / 1_000,
            resp.requests,
            resp.connections
        );
        print!(
            "{}",
            res_debugger::obs::render::render(&stats_events(&resp))
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        shown += 1;
        if count != 0 && shown >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn cmd_journal(
    path: &Path,
    flags: &[(String, String)],
    requests: bool,
    quantiles: bool,
) -> Result<(), String> {
    let journal = read_journal_full(path)?;
    let events = &journal.events;
    println!("{} events in {}", events.len(), path.display());
    for (line, version) in &journal.skipped {
        println!("  skipped line {line}: unknown journal version {version}");
    }

    let mut filtered = false;
    if let Some(prefix) = flag(flags, "span") {
        filtered = true;
        let tree = query::render_span_prefix(events, prefix);
        if tree.is_empty() {
            println!("no spans under prefix {prefix:?}");
        } else {
            print!("{tree}");
        }
    }
    if let Some(pattern) = flag(flags, "counters") {
        filtered = true;
        let counters = query::counters_matching(events, pattern);
        if counters.is_empty() {
            println!("no counters matching {pattern:?}");
        } else {
            for (name, total) in counters {
                println!("{name:<44} {total}");
            }
        }
    }
    if let Some(req_id) = flag(flags, "req") {
        filtered = true;
        match query::render_request(events, req_id) {
            Some(tree) => print!("{tree}"),
            None => return Err(format!("no request {req_id:?} in {}", path.display())),
        }
    }
    if quantiles {
        filtered = true;
        for h in query::histo_summaries(events) {
            println!(
                "{:<44} n={} p50={} p95={} p99={} max={}",
                h.name, h.count, h.p50, h.p95, h.p99, h.max
            );
        }
    }
    if requests || !filtered {
        let entries = query::requests(events);
        if entries.is_empty() {
            println!("no requests (no *.req.meta marks)");
        } else {
            println!(
                "{:<10} {:<16} {:>5}  {:<8} dur_us",
                "req", "endpoint", "spans", "status"
            );
            let mut broken = 0usize;
            for e in &entries {
                let status = if e.reconciled() { "ok" } else { "BROKEN" };
                if !e.reconciled() {
                    broken += 1;
                }
                println!(
                    "{:<10} {:<16} {:>5}  {:<8} {}",
                    e.req_id,
                    e.endpoint,
                    e.spans,
                    status,
                    e.dur_us
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "open".into())
                );
            }
            // The CI reconciliation gate: every request's span tree
            // must resolve, carry phase children, and be fully closed.
            if requests && broken > 0 {
                return Err(format!("{broken} request(s) did not reconcile"));
            }
        }
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage:
  res-cli list
  res-cli demo <bug>
  res-cli crash <bug> <dir> [--emit-fixed]
  res-cli synthesize <dir> [--store FILE] [--trace PATH]
  res-cli record <dir> [--out FILE] [--store FILE] [--trace PATH]
  res-cli replay <dir> <trace-file>
  res-cli verify <dir> <trace-file>
  res-cli verdict <dir>
  res-cli trace <journal>
  res-cli submit <dir> [--addr A] [--max-nodes N] [--deadline-ms N] [--emit-trace FILE]
  res-cli shutdown [--addr A]
  res-cli stats [--addr A] [--json]
  res-cli top [--addr A] [--interval-ms N] [--count N]
  res-cli journal <file> [--span PREFIX] [--counters GLOB] [--req ID] [--requests] [--quantiles]

replay traces end in .restrace.
--trace PATH is the res-obs journal; it wins over the RES_TRACE env fallback."
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("demo") => match args.get(1).and_then(|n| find_kind(n)) {
            Some(kind) => cmd_demo(kind),
            None => Err("unknown bug name (try `res-cli list`)".into()),
        },
        Some("crash") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let emit_fixed = match rest.iter().position(|a| a == "--emit-fixed") {
                Some(i) => {
                    rest.remove(i);
                    true
                }
                None => false,
            };
            match (rest.first().and_then(|n| find_kind(n)), rest.get(1)) {
                (Some(kind), Some(dir)) => cmd_crash(kind, Path::new(dir), emit_fixed),
                _ => usage(),
            }
        }
        Some("synthesize") => {
            let (pos, flags) = parse_flags(&args[1..], &["store", "trace"]);
            match pos.first() {
                Some(dir) => cmd_synthesize(Path::new(dir), &flags),
                None => usage(),
            }
        }
        Some("record") => {
            let (pos, flags) = parse_flags(&args[1..], &["out", "store", "trace"]);
            match pos.first() {
                Some(dir) => cmd_record(Path::new(dir), &flags),
                None => usage(),
            }
        }
        Some("replay") => match (args.get(1), args.get(2)) {
            (Some(dir), Some(trace)) => cmd_replay(Path::new(dir), Path::new(trace)),
            _ => usage(),
        },
        Some("verify") => match (args.get(1), args.get(2)) {
            (Some(dir), Some(trace)) => cmd_verify(Path::new(dir), Path::new(trace)),
            _ => usage(),
        },
        Some("verdict") => match args.get(1) {
            Some(dir) => cmd_verdict(Path::new(dir)),
            None => usage(),
        },
        Some("trace") => match args.get(1) {
            Some(journal) => cmd_trace(Path::new(journal)),
            None => usage(),
        },
        Some("submit") => {
            let (pos, flags) = parse_flags(
                &args[1..],
                &["addr", "max-nodes", "deadline-ms", "emit-trace"],
            );
            match pos.first() {
                Some(dir) => cmd_submit(Path::new(dir), &flags),
                None => usage(),
            }
        }
        Some("shutdown") => {
            let (pos, flags) = parse_flags(&args[1..], &["addr"]);
            if !pos.is_empty() {
                usage();
            }
            cmd_shutdown(&flags)
        }
        Some("stats") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let mut bool_flag = |name: &str| match rest.iter().position(|a| a == name) {
                Some(i) => {
                    rest.remove(i);
                    true
                }
                None => false,
            };
            let json = bool_flag("--json");
            let (pos, flags) = parse_flags(&rest, &["addr"]);
            if !pos.is_empty() {
                usage();
            }
            cmd_stats(&flags, json)
        }
        Some("top") => {
            let (pos, flags) = parse_flags(&args[1..], &["addr", "interval-ms", "count"]);
            if !pos.is_empty() {
                usage();
            }
            cmd_top(&flags)
        }
        Some("journal") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let mut bool_flag = |name: &str| match rest.iter().position(|a| a == name) {
                Some(i) => {
                    rest.remove(i);
                    true
                }
                None => false,
            };
            let requests = bool_flag("--requests");
            let quantiles = bool_flag("--quantiles");
            let (pos, flags) = parse_flags(&rest, &["span", "counters", "req"]);
            match pos.first() {
                Some(file) => cmd_journal(Path::new(file), &flags, requests, quantiles),
                None => usage(),
            }
        }
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
