//! CI gate for the `BENCH_*.json` trend files.
//!
//! Validates each file against the schema the `bench` crate itself defines
//! ([`bench::validate_bench_json`]): current `schema_version`, a non-empty
//! `results` array, a `stage_breakdown` carrying every NCL stage histogram
//! with samples, and the sections each figure bin is expected to emit. No
//! rule reads a timing. Keeping the check next to the emitter means a
//! schema bump updates the writer, the validator and CI in one place.
//!
//! Usage: `cargo run -p bench --bin validate_bench_json [paths…]`
//! (defaults to the checked-in trend files at the repo root).

use bench::validate_bench_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths = if args.is_empty() {
        ["fig10_ycsb", "fig11b_recovery_time", "table3_peer_recovery"]
            .iter()
            .map(|b| {
                format!(
                    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
                    b
                )
            })
            .collect()
    } else {
        args
    };

    let mut failed = false;
    for path in &paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|body| validate_bench_json(&body).map(|()| body));
        match outcome {
            Ok(body) => {
                let results = body.matches("\"id\":").count();
                println!("{path}: ok ({results} results)");
            }
            Err(e) => {
                eprintln!("{path}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
