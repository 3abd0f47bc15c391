//! Shared harness support for the benchmark binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md's experiment index). This library provides
//! the common plumbing: the calibrated testbed, application factories with
//! evaluation-scale options, table formatting, and the scale knob.
//!
//! ## Scale
//!
//! The paper's runs use 100 M records and 120 s per data point on a real
//! cluster. The simulation reproduces *shapes*, not absolute durations, so
//! the defaults here are scaled down (documented per binary). Set
//! `SPLITFT_QUICK=1` to shrink runs further for smoke-testing, or
//! `SPLITFT_SECS=<n>` to lengthen the measured window.

use std::sync::Arc;
use std::time::Duration;

use apps::{KvApp, MiniRedis, MiniRocks, MiniSql, RedisOptions, RocksOptions, SqlOptions};
use splitfs::{Mode, SplitFs, Testbed, TestbedConfig};

/// Which application to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// MiniRocks (RocksDB stand-in).
    Rocks,
    /// MiniRedis (Redis stand-in).
    Redis,
    /// MiniSql (SQLite stand-in).
    Sql,
}

impl AppKind {
    /// All three, in the paper's figure order.
    pub fn all() -> [AppKind; 3] {
        [AppKind::Rocks, AppKind::Redis, AppKind::Sql]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Rocks => "rocksdb",
            AppKind::Redis => "redis",
            AppKind::Sql => "sqlite",
        }
    }

    /// Client thread count the paper uses per app (20 for RocksDB/Redis,
    /// 1 for SQLite, §5).
    pub fn paper_threads(self) -> usize {
        match self {
            AppKind::Rocks | AppKind::Redis => 20,
            AppKind::Sql => 1,
        }
    }
}

/// The three paper configurations in figure order.
pub fn paper_modes() -> [(&'static str, Mode); 3] {
    [
        ("strong-app DFT", Mode::StrongDft),
        ("weak-app DFT", Mode::WeakDft),
        ("SplitFT", Mode::SplitFt),
    ]
}

/// True when `SPLITFT_QUICK=1` (smoke-test scale).
pub fn quick() -> bool {
    std::env::var("SPLITFT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Measured window per data point (default 2 s; 0.5 s in quick mode;
/// `SPLITFT_SECS` overrides).
pub fn run_secs() -> Duration {
    if let Ok(v) = std::env::var("SPLITFT_SECS") {
        if let Ok(s) = v.parse::<f64>() {
            return Duration::from_secs_f64(s);
        }
    }
    if quick() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(2)
    }
}

/// Records loaded before YCSB runs (paper: 100 M / 10 M; scaled).
pub fn record_count(kind: AppKind) -> u64 {
    let base = match kind {
        AppKind::Rocks | AppKind::Redis => 20_000,
        AppKind::Sql => 4_000,
    };
    if quick() {
        base / 10
    } else {
        base
    }
}

/// Starts the calibrated testbed used by all application benchmarks.
pub fn calibrated_testbed() -> Testbed {
    Testbed::start(TestbedConfig::calibrated(5))
}

/// Evaluation-scale options per app: sized so that flushes/compactions/
/// checkpoints occur during a run without dominating it.
pub fn open_app(fs: SplitFs, kind: AppKind, id: &str) -> Arc<dyn KvApp> {
    match kind {
        AppKind::Rocks => {
            let opts = RocksOptions {
                memtable_bytes: 8 << 20,
                wal_capacity: 24 << 20,
                ..RocksOptions::default()
            };
            Arc::new(MiniRocks::open(fs, &format!("{id}/"), opts).expect("open minirocks"))
        }
        AppKind::Redis => {
            let opts = RedisOptions {
                aof_capacity: 24 << 20,
                rewrite_threshold: 12 << 20,
                ..RedisOptions::default()
            };
            Arc::new(MiniRedis::open(fs, &format!("{id}/"), opts).expect("open miniredis"))
        }
        AppKind::Sql => {
            let opts = SqlOptions {
                npages: 2048,
                wal_capacity: 8 << 20,
                checkpoint_threshold: 4 << 20,
                ..SqlOptions::default()
            };
            Arc::new(MiniSql::open(fs, &format!("{id}/"), opts).expect("open minisql"))
        }
    }
}

/// Mounts `mode` for `(kind, tag)` and opens the app on it.
pub fn mount_app(tb: &Testbed, mode: Mode, kind: AppKind, tag: &str) -> Arc<dyn KvApp> {
    let app_id = format!("{}-{tag}", kind.name());
    let (fs, _) = tb.mount(mode, &app_id);
    open_app(fs, kind, &app_id)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints an aligned row of columns.
pub fn row(cols: &[String]) {
    let line = cols
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join("  ");
    println!("{line}");
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats bytes in a human unit.
pub fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.1}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

/// Schema version stamped into every `BENCH_*.json`. Bump when the file
/// layout changes so trend-tracking tooling can dispatch on it. Version 2
/// added `schema_version` itself and the `stage_breakdown` section.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Builder for the `BENCH_<name>.json` files the figure bins emit for CI
/// trend tracking. Produces one schema-versioned JSON object and writes
/// it atomically (temp file + rename), so a bench killed mid-emit can never
/// leave a truncated file for CI to choke on.
pub struct BenchJson {
    bench: String,
    results: Vec<String>,
    sections: Vec<(String, String)>,
}

impl BenchJson {
    /// Starts a report for the bench called `bench`.
    pub fn new(bench: &str) -> Self {
        BenchJson {
            bench: bench.to_string(),
            results: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Appends one measurement row.
    pub fn result(&mut self, id: &str, mean_ns: f64, per_second: f64) {
        let id = telemetry::json_escape(id);
        self.results.push(format!(
            "    {{\"id\": \"{id}\", \"mean_ns\": {mean_ns:.1}, \"per_second\": {per_second:.1}}}"
        ));
    }

    /// Appends one measurement row that also carries latency percentiles —
    /// for harnesses whose headline result is a distribution, not a mean.
    pub fn result_with_percentiles(
        &mut self,
        id: &str,
        mean_ns: f64,
        per_second: f64,
        p50_ns: u64,
        p99_ns: u64,
    ) {
        let id = telemetry::json_escape(id);
        self.results.push(format!(
            "    {{\"id\": \"{id}\", \"mean_ns\": {mean_ns:.1}, \"per_second\": {per_second:.1}, \
             \"p50_ns\": {p50_ns}, \"p99_ns\": {p99_ns}}}"
        ));
    }

    /// Adds an extra top-level section. `value` must be rendered JSON.
    pub fn section(&mut self, key: &str, value: String) {
        self.sections.push((key.to_string(), value));
    }

    /// Adds a `stage_breakdown` section: per-stage latency summaries pulled
    /// from a telemetry snapshot, keyed by histogram name.
    pub fn stage_breakdown(&mut self, snap: &telemetry::TelemetrySnapshot, names: &[&str]) {
        let entries: Vec<String> = names
            .iter()
            .filter_map(|name| {
                snap.summary(name)
                    .map(|s| format!("    \"{}\": {}", telemetry::json_escape(name), s.to_json()))
            })
            .collect();
        self.section(
            "stage_breakdown",
            format!("{{\n{}\n  }}", entries.join(",\n")),
        );
    }

    /// Renders the complete JSON document.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"bench\": \"{}\",\n  \"results\": [\n{}\n  ]",
            self.bench,
            self.results.join(",\n")
        );
        for (key, value) in &self.sections {
            out.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the report to `path` atomically: the document lands in a
    /// sibling temp file first and is renamed into place, so readers only
    /// ever observe a complete file.
    pub fn write_to(&self, path: &str) {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.render()).expect("write bench json temp");
        std::fs::rename(&tmp, path).expect("rename bench json into place");
        println!("{}: wrote {path}", self.bench);
    }

    /// Writes to `BENCH_JSON_PATH` if set, else `BENCH_<bench>.json` at the
    /// repo root (deterministic regardless of the harness's working
    /// directory).
    pub fn write(&self) {
        let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
            format!(
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
                self.bench
            )
        });
        self.write_to(&path);
    }
}

/// The five-phase recovery breakdown the recovery bins stamp into their
/// `recovery_phases` section, all in nanoseconds: `detect` (failure or
/// crash noticed → recovery begins), `acquire` (new peer from the
/// controller + connect/MR setup), `catch_up` (replaying the image onto
/// the replacement / RDMA-reading it back), `ap_map` (publishing the new
/// placement), `first_ack` (recovery done → the application's next write
/// acks, or the replayed app is serving again).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPhases {
    pub detect_ns: u64,
    pub acquire_ns: u64,
    pub catch_up_ns: u64,
    pub ap_map_ns: u64,
    pub first_ack_ns: u64,
}

impl RecoveryPhases {
    /// Sum of the five phases.
    pub fn total_ns(&self) -> u64 {
        self.detect_ns + self.acquire_ns + self.catch_up_ns + self.ap_map_ns + self.first_ack_ns
    }

    /// Renders the breakdown as one JSON object (one line, phase order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"detect_ns\": {}, \"acquire_ns\": {}, \"catch_up_ns\": {}, \
             \"ap_map_ns\": {}, \"first_ack_ns\": {}, \"total_ns\": {}}}",
            self.detect_ns,
            self.acquire_ns,
            self.catch_up_ns,
            self.ap_map_ns,
            self.first_ack_ns,
            self.total_ns()
        )
    }
}

/// The per-record NCL span histograms, in lifecycle order. `e2e` is the
/// whole submit-to-majority-durable interval; the first four partition it.
pub const NCL_STAGES: [&str; 5] = [
    "ncl.record.stage",
    "ncl.record.doorbell",
    "ncl.record.wire",
    "ncl.record.ack",
    "ncl.record.e2e",
];

/// Validates one `BENCH_*.json` trend file: current schema version, a
/// non-empty `results` array, a `stage_breakdown` section carrying every
/// [`NCL_STAGES`] histogram with a non-zero sample count, the sections its
/// bench is expected to carry, and an untruncated document.
/// Nothing here looks at a timing: splitbench (`benchmark/`, bounds in
/// `BENCHMARK.json`) is the judge of time. This is the single source of
/// truth for what CI accepts (`cargo run -p bench --bin
/// validate_bench_json`); the format is the line-oriented JSON
/// [`BenchJson`] emits, so the checks are line-structural and
/// dependency-free.
pub fn validate_bench_json(body: &str) -> Result<(), String> {
    if !body.trim_end().ends_with('}') {
        return Err("document truncated (no closing brace)".to_string());
    }
    if !body.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")) {
        return Err(format!(
            "wrong or missing schema_version (want {BENCH_SCHEMA_VERSION})"
        ));
    }
    if !body.contains("\"results\"") {
        return Err("no results section".to_string());
    }
    if !body.contains("\"mean_ns\"") {
        return Err("results array is empty".to_string());
    }
    if !body.contains("\"stage_breakdown\"") {
        return Err("no stage_breakdown section".to_string());
    }
    for stage in NCL_STAGES {
        let line = body
            .lines()
            .find(|l| l.contains(&format!("\"{stage}\"")))
            .ok_or_else(|| format!("missing {stage} in stage_breakdown"))?;
        if line.contains("\"count\": 0,") {
            return Err(format!("{stage} summary is empty: {}", line.trim()));
        }
    }
    // The peer-memory smoke bench must carry its three trend dimensions —
    // fleet population, allocator throughput and GC reclamation — with
    // sane floors, so a run that silently stopped hosting multi-tenant
    // regions (or whose GC reclaimed nothing) fails instead of shipping a
    // hollow trend point.
    if body.contains("\"bench\": \"peer_mem\"") {
        let line = body
            .lines()
            .find(|l| l.trim_start().starts_with("\"peer_mem\":"))
            .ok_or_else(|| "peer_mem is missing the peer_mem section".to_string())?;
        for field in ["region_count", "alloc_per_sec", "bytes_reclaimed_by_gc"] {
            if !line.contains(&format!("\"{field}\":")) {
                return Err(format!("peer_mem section is missing {field}"));
            }
        }
        let field_u64 = |field: &str| -> Result<u64, String> {
            line.split(&format!("\"{field}\": "))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| format!("unparseable {field}: {}", line.trim()))
        };
        let regions = field_u64("region_count")?;
        if regions < 64 {
            return Err(format!(
                "peer_mem hosted only {regions} regions, need >= 64 (multi-tenant floor)"
            ));
        }
        if field_u64("bytes_reclaimed_by_gc")? == 0 {
            return Err("peer_mem GC reclaimed zero bytes".to_string());
        }
    }
    // The recovery bins must carry the five-phase breakdown (detect →
    // acquire → catch-up → ap-map → first-ack) for every expected row, so
    // a port that dropped a variant (or renamed a phase out from under the
    // trend tooling) fails instead of shipping a hollow trend point.
    let recovery_rows: &[(&str, &[&str])] = &[
        ("table3_peer_recovery", &["fresh", "pooled"]),
        (
            "fig11b_recovery_time",
            &[
                "rocksdb/SplitFT",
                "rocksdb/DFT",
                "rocksdb/local-ext4",
                "redis/SplitFT",
                "sqlite/SplitFT",
            ],
        ),
    ];
    for (bench, rows) in recovery_rows {
        if !body.contains(&format!("\"bench\": \"{bench}\"")) {
            continue;
        }
        if !body.contains("\"recovery_phases\"") {
            return Err(format!("{bench} is missing the recovery_phases section"));
        }
        for key in *rows {
            let line = body
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("\"{key}\":")))
                .ok_or_else(|| format!("recovery_phases is missing the {key} row"))?;
            for phase in [
                "detect_ns",
                "acquire_ns",
                "catch_up_ns",
                "ap_map_ns",
                "first_ack_ns",
            ] {
                if !line.contains(&format!("\"{phase}\":")) {
                    return Err(format!("recovery_phases row {key} is missing {phase}"));
                }
            }
        }
    }
    // An append-only log's recovery catches every responder up in place
    // (span detail "tail in place"). A rocksdb or redis row that took a
    // staged full copy, or recorded no catch-up at all, lost that path,
    // whatever its timing says.
    if body.contains("\"bench\": \"fig11b_recovery_time\"") {
        for key in ["rocksdb/SplitFT", "redis/SplitFT"] {
            let line = body
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("\"{key}\": [")))
                .ok_or_else(|| format!("catch_up_kinds is missing the {key} row"))?;
            let kinds = line.split_once('[').map_or("", |(_, rest)| rest);
            let mut kinds = kinds.trim_end_matches([']', ',']).split(", ");
            if kinds.any(|k| k != "\"tail in place\"") {
                return Err(format!(
                    "{key} did not catch every peer up in place: {}",
                    line.trim()
                ));
            }
        }
    }
    Ok(())
}

/// Percentile of a sorted `u64` slice, or `None` when it is empty — the
/// same contract as [`telemetry::Histogram::percentile`], so a harness that
/// measured nothing reports "no data" instead of a fake zero-latency tail.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    Some(sorted[rank.min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_positive() {
        for kind in AppKind::all() {
            assert!(record_count(kind) > 0);
            assert!(!kind.name().is_empty());
            assert!(kind.paper_threads() >= 1);
        }
    }

    #[test]
    fn percentile_of_sorted_slice() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 1.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512.0), "512B");
        assert_eq!(human_bytes(2048.0), "2.0KB");
        assert_eq!(human_bytes(3.5e6), "3.5MB");
        assert_eq!(human_bytes(2e9), "2.0GB");
    }

    #[test]
    fn bench_json_renders_schema_results_and_sections() {
        let mut json = BenchJson::new("demo");
        json.result("demo/1", 1234.5, 1_000_000.0);
        json.result("demo/2", 2469.0, 500_000.0);
        json.section("extra", "{\"k\": 1}".to_string());
        let body = json.render();
        assert!(body.starts_with(&format!(
            "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},"
        )));
        assert!(body.contains("\"bench\": \"demo\""));
        assert!(body.contains("\"id\": \"demo/1\", \"mean_ns\": 1234.5"));
        assert!(body.contains("\"extra\": {\"k\": 1}"));
        assert!(body.ends_with("}\n"));
    }

    /// A result id (often built from free-form bench labels) with quotes,
    /// backslashes or control characters must not corrupt the document.
    #[test]
    fn bench_json_escapes_result_ids() {
        let mut json = BenchJson::new("demo");
        json.result("io/4KB \"quoted\" \\ tab\there", 1.0, 2.0);
        let body = json.render();
        assert!(body.contains(r#""id": "io/4KB \"quoted\" \\ tab\there""#));
        // Line-level sanity: the rendered row has balanced quotes.
        let row = body.lines().find(|l| l.contains("io/4KB")).unwrap();
        assert_eq!(row.matches('"').count() - row.matches("\\\"").count(), 8);
    }

    #[test]
    fn bench_json_write_is_atomic() {
        let dir = std::env::temp_dir().join("splitft-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path_str = path.to_str().unwrap();
        let mut json = BenchJson::new("demo");
        json.result("demo/1", 1.0, 2.0);
        json.write_to(path_str);
        // The temp file must be renamed away, and the target complete.
        assert!(!path.with_extension("json.tmp").exists());
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, json.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checked-in trend files must carry the current schema and a
    /// populated per-stage breakdown — CI's guard against a bench run that
    /// silently stopped exporting telemetry.
    #[test]
    fn checked_in_bench_jsons_carry_stage_breakdown() {
        for bench in ["fig10_ycsb", "fig11b_recovery_time", "table3_peer_recovery"] {
            let path = format!(
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
                bench
            );
            let body =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {path}: {e}"));
            validate_bench_json(&body).unwrap_or_else(|e| panic!("{bench}: {e}"));
        }
    }

    fn valid_bench_doc() -> String {
        let mut json = BenchJson::new("demo");
        json.result("demo/1", 1234.5, 1_000_000.0);
        let stages: Vec<String> = NCL_STAGES
            .iter()
            .map(|s| format!("    \"{s}\": {{\"count\": 10, \"mean_ns\": 5.0}}"))
            .collect();
        json.section(
            "stage_breakdown",
            format!("{{\n{}\n  }}", stages.join(",\n")),
        );
        json.render()
    }

    #[test]
    fn validator_accepts_a_complete_document() {
        validate_bench_json(&valid_bench_doc()).expect("complete doc must validate");
    }

    #[test]
    fn validator_rejects_structural_defects() {
        let good = valid_bench_doc();
        // Truncated document (cut mid-line: a crash during emit).
        assert!(validate_bench_json(&good[..good.len() / 2]).is_err());
        // Stale schema version.
        let stale = good.replace(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 1",
        );
        assert!(validate_bench_json(&stale).is_err());
        // A stage with zero samples.
        let empty_stage = good.replace("\"count\": 10,", "\"count\": 0,");
        assert!(validate_bench_json(&empty_stage)
            .unwrap_err()
            .contains("empty"));
        // A missing stage.
        let missing = good.replace("ncl.record.wire", "ncl.record.gone");
        assert!(validate_bench_json(&missing)
            .unwrap_err()
            .contains("ncl.record.wire"));
        // No results rows.
        let mut no_results = BenchJson::new("demo");
        no_results.section("stage_breakdown", "{}".to_string());
        assert!(validate_bench_json(&no_results.render()).is_err());
    }

    /// The recovery bins must carry a complete five-phase breakdown for
    /// every expected variant row; other benches are exempt.
    #[test]
    fn validator_requires_recovery_phase_breakdown() {
        let flat = valid_bench_doc();
        assert!(validate_bench_json(&flat).is_ok());
        let t3 = flat.replace("\"bench\": \"demo\"", "\"bench\": \"table3_peer_recovery\"");
        assert!(validate_bench_json(&t3)
            .unwrap_err()
            .contains("recovery_phases"));

        let phases = RecoveryPhases {
            detect_ns: 10,
            acquire_ns: 20,
            catch_up_ns: 30,
            ap_map_ns: 40,
            first_ack_ns: 50,
        };
        assert_eq!(phases.total_ns(), 150);
        let section = format!(
            "\"recovery_phases\": {{\n    \"fresh\": {},\n    \"pooled\": {}\n  }},",
            phases.to_json(),
            phases.to_json()
        );
        let with_phases = t3.replace(
            "\"stage_breakdown\": {",
            &format!("{section}\n  \"stage_breakdown\": {{"),
        );
        validate_bench_json(&with_phases).expect("complete breakdown must validate");

        // Losing a variant row fails by name.
        let no_pooled = with_phases.replace("\"pooled\":", "\"other\":");
        assert!(validate_bench_json(&no_pooled)
            .unwrap_err()
            .contains("pooled"));
        // A row missing a phase fails by phase name.
        let no_ap_map = with_phases.replace("\"ap_map_ns\":", "\"ap_nap_ns\":");
        assert!(validate_bench_json(&no_ap_map)
            .unwrap_err()
            .contains("ap_map_ns"));

        // The fig11b variant checks its own (app, config) rows.
        let f11 = flat.replace("\"bench\": \"demo\"", "\"bench\": \"fig11b_recovery_time\"");
        assert!(validate_bench_json(&f11)
            .unwrap_err()
            .contains("recovery_phases"));
        let rows: Vec<String> = [
            "rocksdb/SplitFT",
            "rocksdb/DFT",
            "rocksdb/local-ext4",
            "redis/SplitFT",
            "sqlite/SplitFT",
        ]
        .iter()
        .map(|k| format!("    \"{k}\": {}", phases.to_json()))
        .collect();
        let section = format!("\"recovery_phases\": {{\n{}\n  }},", rows.join(",\n"));
        let with_rows = f11.replace(
            "\"stage_breakdown\": {",
            &format!("{section}\n  \"stage_breakdown\": {{"),
        );
        assert!(validate_bench_json(&with_rows)
            .unwrap_err()
            .contains("catch_up_kinds is missing the rocksdb/SplitFT row"));
        let kinds = |rocks: &str| {
            let section = format!(
                "\"catch_up_kinds\": {{\n    \"rocksdb/SplitFT\": [{rocks}],\n    \
                 \"redis/SplitFT\": [\"tail in place\", \"tail in place\"],\n    \
                 \"sqlite/SplitFT\": [\"full copy\"]\n  }},"
            );
            with_rows.replace(
                "\"stage_breakdown\": {",
                &format!("{section}\n  \"stage_breakdown\": {{"),
            )
        };
        let in_place = kinds("\"tail in place\", \"tail in place\", \"tail in place\"");
        validate_bench_json(&in_place).expect("complete fig11b breakdown must validate");
        let lost_app = in_place.replace("\"sqlite/SplitFT\": {", "\"sqlite/Splat\": {");
        assert!(validate_bench_json(&lost_app)
            .unwrap_err()
            .contains("sqlite/SplitFT"));
        // A staged copy, or no catch-up at all, on rocksdb fails by row.
        for rocks in ["\"tail in place\", \"full copy\"", ""] {
            let err = validate_bench_json(&kinds(rocks)).unwrap_err();
            assert!(err.contains("rocksdb/SplitFT did not catch"), "{err}");
        }
    }
}
