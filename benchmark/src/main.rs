//! splitbench — the repository's end-to-end + per-layer benchmark.
//!
//! One process drives one workload against the shipping
//! `TestbedConfig::calibrated(5)` and prints, as the last line of its
//! standard output, one JSON object with the run's metrics. Without
//! `--workload` it runs every workload in a child process each and prints a
//! table; `--aa` does that twice and compares the two sets against the
//! benchmark's own bounds. See `README.md`.

mod env;
mod failover;
mod kv;
mod ladder;
mod metrics;
mod stats;
mod tel;
mod trace;
mod wal;

use std::process::{Command, ExitCode};
use std::time::Duration;

pub use metrics::Values;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `words`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// What one run was asked to do.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

impl RunCfg {
    /// The timed window of an untraced run.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// A share of the run's seconds, for the phases of a traced run.
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }
}

/// What one run found.
pub struct RunResult {
    pub attempted: u64,
    /// Operations that returned an error plus outputs that failed a check.
    pub failed: u64,
    pub values: Values,
    pub stream_hash: u64,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    aa: bool,
    emit_manifest: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--aa] [--list] [--emit-manifest]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        aa: false,
        emit_manifest: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => args.traced = true,
            "--aa" => args.aa = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--list" => args.list = true,
            _ => usage(),
        }
    }
    if !(MIN_SECONDS..=60).contains(&args.seconds) {
        eprintln!("--seconds must be {MIN_SECONDS}..=60");
        usage();
    }
    args
}

/// Shortest run accepted: below it `failover` cannot fit the 20 cycles a
/// median needs.
const MIN_SECONDS: u64 = 5;

/// Load-generator threads of the KV workloads. minirocks runs a commit and a
/// flush thread of its own; leaving them a core keeps the clients from
/// competing with the system they measure, so the count can never exceed
/// `available_parallelism()` (1 under `run.sh`, which pins to one CPU).
pub fn clients() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).clamp(1, 2)
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_manifest {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// Every workload and metric by name, with its unit and what it is for.
fn list() {
    println!("workloads (closed loop: every client waits for each reply)");
    for w in WORKLOADS {
        println!("  {:<12}{}", w.name, w.why);
    }
    println!(
        "\nend-to-end metrics (untraced run; bound = allowed worsening vs the parent's median)"
    );
    for m in END_TO_END {
        println!(
            "  {:<20}{:<6}{:<8}bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (traced run) -> the end-to-end metric each should move");
    for m in PER_LAYER {
        println!("  {:<34}{:<7}{:<8}{}", m.name, m.unit, m.better, m.moves);
    }
}

/// One workload in this process; the result is the last line of stdout.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let result = match name {
        "wal_sync" => wal::run(wal::Kind::Sync, &cfg),
        "wal_group" => wal::run(wal::Kind::Group, &cfg),
        "ycsb_a" => kv::run(kv::Mix::A, &cfg),
        "ycsb_b" => kv::run(kv::Mix::B, &cfg),
        "failover" => failover::run(&cfg),
        _ => usage(),
    };
    let mut correct = result.failed == 0;
    eprintln!(
        "{name} seed {} {}: stream_hash {:016x}, attempted {}, failed {} (failed_ops_share {:.6})",
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        result.stream_hash,
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    for note in &result.notes {
        eprintln!("  {note}");
    }
    let mut fields = Vec::new();
    if args.traced {
        for m in PER_LAYER {
            let v = result.values.get(m.name).copied().unwrap_or(0.0);
            fields.push(json_metric(m.name, v, m.unit));
        }
    } else {
        for m in END_TO_END {
            match result.values.get(m.name) {
                Some(&v) if v.is_finite() && v > 0.0 => {
                    fields.push(json_metric(m.name, v, m.unit));
                }
                other => {
                    eprintln!("  {} was not measured ({other:?})", m.name);
                    correct = false;
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The value of `name` in a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs one workload in a child process and returns its result line.
fn child(workload: &str, args: &Args, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if out.status.success() && line.contains("\"correct\": true") {
        Ok(line)
    } else {
        Err(format!("{workload} failed ({}): {line}", out.status))
    }
}

fn print_table(title: &str, names: &[(&str, &str)], lines: &[(&str, String)]) {
    println!("\n{title}");
    print!("{:<34}{:>8}", "metric", "unit");
    for (w, _) in lines {
        print!("{w:>14}");
    }
    println!();
    for (name, unit) in names {
        print!("{name:<34}{unit:>8}");
        for (_, line) in lines {
            match metric_in(line, name) {
                Some(v) => print!("{:>14}", format_value(v)),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// One full set of runs: every workload in `order`, each in its own process.
fn run_set(
    order: &[&'static str],
    args: &Args,
    traced: bool,
) -> Result<Vec<(&'static str, String)>, String> {
    order
        .iter()
        .map(|w| child(w, args, traced).map(|line| (*w, line)))
        .collect()
}

/// Every workload (and, with `--aa`, every workload twice).
fn run_all(args: &Args) -> ExitCode {
    match all_sets(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

/// The sets `run_all` prints; `Ok(false)` when the A/A comparison fails,
/// `Err` when a run does.
fn all_sets(args: &Args) -> Result<bool, String> {
    let order: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let first = run_set(&order, args, false)?;
    print_table("end-to-end (untraced)", &e2e, &first);

    if args.traced {
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let set = run_set(&order, args, true)?;
        print_table("per-layer (traced)", &layers, &set);
        for (w, line) in &set {
            let overshoot = metric_in(line, "sim.delay_overshoot_ns").unwrap_or(0.0);
            if overshoot > 1_000.0 {
                eprintln!(
                    "warning: {w}: sim::delay(1.5 us) overshoots by {overshoot:.0} ns; this host run is noisy"
                );
            }
        }
    }

    if !args.aa {
        return Ok(true);
    }
    // A/A: the same commit again, in the opposite workload order; every
    // end-to-end metric must agree with the first set within its own bound.
    let reversed: Vec<&'static str> = order.iter().rev().copied().collect();
    let mut second = run_set(&reversed, args, false)?;
    second.reverse();
    print_table("end-to-end (untraced, second set)", &e2e, &second);
    println!("\nA/A: second set against the first, worse-direction change as a share of the first");
    let mut broken = 0;
    for m in END_TO_END {
        for ((w, a), (_, b)) in first.iter().zip(&second) {
            let (Some(a), Some(b)) = (metric_in(a, m.name), metric_in(b, m.name)) else {
                continue;
            };
            let worse = if m.better == "lower" { b - a } else { a - b } / a;
            let inside = worse.abs() <= m.bound;
            broken += u32::from(!inside);
            println!(
                "{:<20}{:<12}{:>14}{:>14}{:>+9.1}%  bound {:>4.0}%  {}",
                m.name,
                w,
                format_value(a),
                format_value(b),
                worse * 100.0,
                m.bound * 100.0,
                if inside { "ok" } else { "OUTSIDE" }
            );
        }
    }
    if broken > 0 {
        println!("A/A failed: {broken} metric x workload pairs differ by more than their bound");
    } else {
        println!("A/A passed: every metric x workload pair repeats inside its bound");
    }
    Ok(broken == 0)
}
