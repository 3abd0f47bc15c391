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
//! ```
//!
//! Exit status: 0 when every file is clean, 1 on any violation, orphan span
//! or malformed line, 2 on usage or I/O errors. CI runs `--check` over the
//! chaos matrix's trace artifacts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use telemetry::analyze::{analyze, parse_jsonl, TraceReport};
use telemetry::export::chrome;

struct Options {
    quorum: usize,
    check_dir: Option<PathBuf>,
    chrome_out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quorum: 2,
        check_dir: None,
        chrome_out: None,
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
            "--help" | "-h" => {
                return Err(
                    "usage: trace_analyzer [--quorum N] [--check DIR | FILE...] \
                     [--chrome OUT.json]"
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

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

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
        eprintln!("no input; pass trace files or --check DIR");
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
