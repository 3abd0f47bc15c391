//! Offline causal-trace analyzer for NCL JSONL trace files.
//!
//! Replays the `{"type": "span"}` JSONL stream (record-path spans, control
//! phases and facts) a run wrote through `Telemetry::set_jsonl_sink` (the
//! chaos harness and the splitfs testbed both emit this format) through
//! `telemetry::analyze`, i.e. through the invariant engine
//! (`telemetry::checker`, whose module docs hold the table of rules) that
//! the online monitor runs live and the integration tests assert with
//! in-process. Each violation is printed
//! with its invariant code:
//!
//! * `orphan-span` — a span in a rooted trace does not resolve its parent;
//! * `ack-coverage` — an acked write (an `ncl.write` root) lacks staging, a
//!   doorbell, or wire/catch-up coverage on a write quorum of peers;
//! * `degraded-write` — a write roots inside a degraded window outside
//!   reattach replay;
//! * `ap-map-order` — a recovery or repair moved the ap-map before its
//!   catch-up finished;
//! * `ap-map-monotone` — ap-map epochs went backwards for a file.
//!
//! Usage:
//!
//! ```text
//! trace_analyzer [--quorum N] FILE...           analyze files, print reports
//! trace_analyzer [--quorum N] --check DIR       analyze every trace-*.jsonl
//! trace_analyzer --chrome OUT.json FILE         also export a Chrome trace
//! trace_analyzer --selfcheck                    exercise exporters, no input
//! ```
//!
//! Exit status: 0 when every file is clean, 1 on any violation, orphan span
//! or malformed line, 2 on usage or I/O errors. CI runs `--check` over the
//! chaos matrix's trace artifacts and `--selfcheck` in the lint job.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use telemetry::analyze::{analyze, parse_jsonl, TraceReport};
use telemetry::export::chrome;
use telemetry::{spans, Telemetry};

struct Options {
    quorum: usize,
    check_dir: Option<PathBuf>,
    chrome_out: Option<PathBuf>,
    selfcheck: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quorum: 2,
        check_dir: None,
        chrome_out: None,
        selfcheck: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quorum" => {
                let v = args.next().ok_or("--quorum needs a value")?;
                opts.quorum = v.parse().map_err(|_| format!("bad quorum: {v}"))?;
                if opts.quorum == 0 {
                    return Err("quorum must be at least 1".into());
                }
            }
            "--check" => {
                let v = args.next().ok_or("--check needs a directory")?;
                opts.check_dir = Some(PathBuf::from(v));
            }
            "--chrome" => {
                let v = args.next().ok_or("--chrome needs an output path")?;
                opts.chrome_out = Some(PathBuf::from(v));
            }
            "--selfcheck" => opts.selfcheck = true,
            "--help" | "-h" => {
                return Err(
                    "usage: trace_analyzer [--quorum N] [--check DIR | FILE...] \
                     [--chrome OUT.json] [--selfcheck]"
                        .into(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    Ok(opts)
}

/// Analyzes one trace file; returns the report, or an error string for
/// unreadable or malformed input (CI treats both as failures — a truncated
/// artifact must not pass as "no violations found").
fn analyze_file(path: &Path, quorum: usize) -> Result<TraceReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(analyze(&spans, quorum))
}

/// Records one synthetic acked write through `tel`, the record-path chain
/// of one burst about the records `seq` (`(0, 0)`: no range), and returns
/// its trace id.
fn synthetic_write(tel: &Telemetry, seq: (u64, u64)) -> u64 {
    synthetic_write_to(tel, "self/wal", seq)
}

/// [`synthetic_write`] to the file `scope`, covered by two peers.
fn synthetic_write_to(tel: &Telemetry, scope: &'static str, seq: (u64, u64)) -> u64 {
    let t0 = std::time::Instant::now();
    let trace = tel.next_trace_id();
    let mut chain: Vec<_> = [
        (spans::NCL_STAGE, scope),
        (spans::NCL_DOORBELL, scope),
        (spans::NCL_WIRE_PEER, "peer-0"),
        (spans::NCL_WIRE_PEER, "peer-1"),
        (spans::NCL_ACK, scope),
    ]
    .into_iter()
    .map(|(name, scope)| {
        let id = tel.next_trace_id();
        tel.closed_span(trace, id, trace, name, scope, 1, seq, t0, t0)
    })
    .collect();
    chain.push(tel.closed_span(trace, trace, 0, spans::NCL_WRITE, scope, 1, seq, t0, t0));
    tel.record_spans(&mut chain);
    trace
}

/// Records one synthetic repair of `self/wal` through `tel` whose ap-map
/// phase runs before its catch-up, and returns its trace id.
fn misordered_repair(tel: &Telemetry) -> u64 {
    let t0 = std::time::Instant::now();
    let at = |us| t0 + std::time::Duration::from_micros(us);
    let trace = tel.next_trace_id();
    tel.span_auto(
        trace,
        trace,
        spans::NCL_REPAIR_AP_MAP,
        "self/wal",
        2,
        t0,
        at(1),
    );
    tel.span_auto(
        trace,
        trace,
        spans::NCL_REPAIR_CATCH_UP,
        "self/wal",
        2,
        at(1),
        at(2),
    );
    tel.span(trace, trace, 0, spans::NCL_REPAIR, "self/wal", 2, t0, at(2));
    trace
}

/// Builds tiny synthetic span trees through a real `Telemetry` handle — a
/// single record without a range, a 3-record burst, a repair whose ap-map
/// precedes its catch-up and a write to an `ec k=3 n=4` file covered by 2
/// peers — and round-trips them through both exporters: the Chrome trace
/// must validate, and the analyzer must see each write clean and count its
/// records, and flag the repair and the under-covered write. Guards the
/// export schema and the checker's reading of a file without needing a
/// workload.
fn selfcheck() -> Result<(), String> {
    let tel = Telemetry::new();
    let writes = [((0, 0), 1), ((1, 3), 3)].map(|(seq, records)| {
        let trace = synthetic_write(&tel, seq);
        (trace, records)
    });
    let repair = misordered_repair(&tel);
    tel.fact(spans::DURABILITY_MODE, "self/ec", 1, "ec k=3 n=4");
    let ec_write = synthetic_write_to(&tel, "self/ec", (4, 4));

    let all = tel.spans();
    let doc = chrome::render(&all);
    let n = chrome::validate(&doc).map_err(|e| format!("chrome trace invalid: {e}"))?;
    if n < all.len() {
        return Err(format!("chrome trace dropped spans: {n} < {}", all.len()));
    }
    let text: String = all.iter().map(|s| s.to_json() + "\n").collect();
    let read = parse_jsonl(&text).map_err(|e| format!("jsonl export unreadable: {e}"))?;
    if read != all {
        return Err("jsonl export does not read back as written".into());
    }
    let facts: Vec<_> = all.iter().filter(|s| s.is_fact()).cloned().collect();
    let of = |trace: u64| -> Vec<_> {
        let spans = all.iter().filter(|s| s.trace == trace).cloned();
        facts.iter().cloned().chain(spans).collect()
    };
    for (trace, records) in writes {
        let report = analyze(&of(trace), 2);
        if !report.ok() || report.acked_writes != records || report.orphan_spans != 0 {
            return Err(format!(
                "analyzer selfcheck failed on a {records}-record write:\n{}",
                report.render()
            ));
        }
    }
    for (trace, code, what) in [
        (
            repair,
            "ap-map-order",
            "a repair whose ap-map precedes its catch-up",
        ),
        (
            ec_write,
            "ack-coverage",
            "an ec k=3 write covered by 2 peers",
        ),
    ] {
        let report = analyze(&of(trace), 2);
        let flagged = report.violations.iter().map(|v| (v.invariant, v.trace));
        if !flagged.eq([(code, trace)]) {
            return Err(format!(
                "analyzer selfcheck did not flag {what} as {code} alone:\n{}",
                report.render()
            ));
        }
    }
    println!("selfcheck ok: {} spans exported and verified", all.len());
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if opts.selfcheck {
        return match selfcheck() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut files = opts.files.clone();
    if let Some(dir) = &opts.check_dir {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{}: {e}", dir.display());
                return ExitCode::from(2);
            }
        };
        let mut found: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("trace-") && n.ends_with(".jsonl"))
            })
            .collect();
        found.sort();
        if found.is_empty() {
            // An empty artifact directory means the run never wrote traces —
            // failing loudly here is the point of the CI check.
            eprintln!("{}: no trace-*.jsonl files found", dir.display());
            return ExitCode::FAILURE;
        }
        files.extend(found);
    }
    if files.is_empty() {
        eprintln!("no input; pass trace files, --check DIR, or --selfcheck");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in &files {
        match analyze_file(path, opts.quorum) {
            Ok(report) => {
                let clean = report.ok() && report.orphan_spans == 0;
                println!(
                    "{}: {}",
                    path.display(),
                    if clean { "clean" } else { "FAILED" }
                );
                print!("{}", report.render());
                if !clean {
                    failed = true;
                }
                if let Some(out) = &opts.chrome_out {
                    let text = std::fs::read_to_string(path).expect("already read once");
                    let spans = parse_jsonl(&text).expect("already parsed once");
                    let doc = chrome::render(&spans);
                    if let Err(e) = chrome::validate(&doc) {
                        eprintln!("{}: chrome export invalid: {e}", out.display());
                        failed = true;
                    } else if let Err(e) = std::fs::write(out, doc) {
                        eprintln!("{}: {e}", out.display());
                        failed = true;
                    } else {
                        println!("chrome trace written to {}", out.display());
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
