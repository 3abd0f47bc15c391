//! End-to-end health test: closed-loop load on a server with a known per-op
//! service time must flip the testbed's `/health` endpoint to 503, trip the
//! flight recorder, and leave an analyzer-clean black-box dump — while the
//! same load on the plain app stays 200.
//!
//! The pipeline under test spans every layer this repo's observability
//! stack has: a client-side wrapper times every op of the closed-loop ycsb
//! runner into a telemetry histogram, the testbed's health judge holds that
//! histogram's growth since the previous read to a latency objective, the
//! scrape server serves the verdict over plain HTTP, and the transition
//! into 503 preserves the last N spans as a `trace_analyzer
//! --check`-compatible JSONL dump in `FLIGHT_DUMP_DIR`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use splitft::apps::minirocks::{MiniRocks, RocksOptions};
use splitft::apps::{AppError, KvApp};
use splitft::splitfs::{Mode, Testbed, TestbedConfig};
use telemetry::analyze::{analyze, parse_jsonl};
use telemetry::HistHandle;
use ycsb::{LoadSpec, RunSpec, Runner, Workload};

/// Both tests start a testbed, and the overload test sets `FLIGHT_DUMP_DIR`
/// around its `Testbed::start`: they run one at a time, so the low-load
/// test never reads the variable.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Adds the client-facing objective both tests watch: at most 10% of ops
/// may take longer than 2 ms, judged over the window since the last
/// `/health` read. A zero-latency testbed serves an op in microseconds; a
/// 5 ms/op server misses it on every op.
fn add_client_objective(tb: &Testbed) {
    tb.health().add("client.op", 2_000_000, 0.1);
}

/// The start of a `/health` body whose verdict is `status`.
fn verdict(status: &str) -> String {
    format!("{{\"status\": \"{status}\"")
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("scrape endpoint reachable");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("http response head");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// Wraps an app with a fixed per-op service time and times every op, that
/// wait included, into the client's histogram: a server with known
/// capacity, so "overload" is a property of the test, not of the machine
/// running it.
struct SlowApp<'a> {
    inner: &'a dyn KvApp,
    per_op: Duration,
    ops: HistHandle,
}

impl SlowApp<'_> {
    fn timed<R>(&self, op: impl FnOnce(&dyn KvApp) -> R) -> R {
        let t0 = Instant::now();
        if !self.per_op.is_zero() {
            std::thread::sleep(self.per_op);
        }
        let out = op(self.inner);
        self.ops.record_since(t0);
        out
    }
}

impl KvApp for SlowApp<'_> {
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.timed(|app| app.insert(key, value))
    }
    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.timed(|app| app.update(key, value))
    }
    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
        self.timed(|app| app.read(key))
    }
}

#[test]
fn health_flips_to_breached_under_seeded_overload() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = TestbedConfig::zero(3);
    cfg.scrape_addr = Some("127.0.0.1:0".into());
    let tel = cfg.ncl.telemetry.clone();
    let quorum = cfg.ncl.quorum();
    // Arm the black box as an operator would: with `FLIGHT_DUMP_DIR` set,
    // the testbed's `/health` dumps the flight recorder there on each
    // transition into 503. Only `Testbed::start` reads the variable.
    let dump_dir = std::env::temp_dir().join(format!("flight-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::env::set_var("FLIGHT_DUMP_DIR", &dump_dir);
    let tb = Testbed::start(cfg);
    std::env::remove_var("FLIGHT_DUMP_DIR");
    let addr = tb.scrape_addr().expect("scrape endpoint requested");
    add_client_objective(&tb);

    let (fs, _node) = tb.mount(Mode::SplitFt, "health");
    let app = MiniRocks::open(fs, "db/", RocksOptions::tiny()).expect("minirocks open");
    Runner::load(
        &app,
        &LoadSpec {
            record_count: 200,
            value_size: 64,
            threads: 2,
        },
    )
    .expect("load");

    // Phase 1 — closed-loop load on the plain app: /health answers 200.
    let workload = Workload::a(200);
    let spec = |seed| RunSpec {
        threads: 2,
        duration: Duration::from_millis(250),
        value_size: 64,
        sample_window: None,
        seed,
    };
    let ops = tel.histogram("client.op");
    let plain = SlowApp {
        inner: &app,
        per_op: Duration::ZERO,
        ops: ops.clone(),
    };
    let report = Runner::run(&plain, &workload, 200, &spec(0x5105_0001));
    assert_eq!(report.errors, 0);
    let (status, body) = get(addr, "/health");
    assert!(status.contains("200"), "healthy phase: {status}\n{body}");
    assert!(body.starts_with(&verdict("ok")), "{body}");
    assert!(body.contains("\"histogram\": \"client.op\""), "{body}");
    assert!(!dump_dir.exists(), "no flight dump may fire while healthy");

    // Phase 2 — the same load on a 5 ms/op server: every op misses the
    // 2 ms objective, ten times the 10% budget, and /health flips.
    let slow = SlowApp {
        inner: &app,
        per_op: Duration::from_millis(5),
        ops,
    };
    let report = Runner::run(&slow, &workload, 200, &spec(0x5105_0002));
    assert_eq!(report.errors, 0);
    assert!(
        report.latency.p50_ns > 2_000_000,
        "a 5 ms/op server must miss the objective on the median op"
    );
    let (status, body) = get(addr, "/health");
    assert!(status.contains("503"), "overload phase: {status}\n{body}");
    assert!(body.starts_with(&verdict("failing")), "{body}");

    // The transition into 503 preserved an analyzer-clean black box
    // carrying the NCL span chains from before the incident.
    let dump = dump_dir.join("trace-flight-health.jsonl");
    let text = std::fs::read_to_string(&dump).expect("flight dump file written on 503");
    assert!(text.contains("health-503"), "dump records its reason");
    let spans = parse_jsonl(&text).expect("flight dump parses as a trace");
    let trace_report = analyze(&spans, quorum);
    assert!(
        trace_report.ok() && trace_report.orphan_spans == 0,
        "flight dump must pass the analyzer\n{}",
        trace_report.render()
    );
    assert!(
        trace_report.acked_writes > 0,
        "dump carries complete acked-write chains"
    );
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// Rounds of closed-loop load on the plain app against the same objective
/// stay 200 end to end — the 503 above is the slow server's fault, not the
/// judge's default verdict.
#[test]
fn health_stays_200_at_low_offered_load() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = TestbedConfig::zero(3);
    cfg.scrape_addr = Some("127.0.0.1:0".into());
    let tel = cfg.ncl.telemetry.clone();
    let tb = Testbed::start(cfg);
    let addr = tb.scrape_addr().unwrap();
    add_client_objective(&tb);

    let (fs, _node) = tb.mount(Mode::SplitFt, "health-low");
    let app = MiniRocks::open(fs, "db/", RocksOptions::tiny()).expect("minirocks open");
    Runner::load(
        &app,
        &LoadSpec {
            record_count: 100,
            value_size: 64,
            threads: 2,
        },
    )
    .expect("load");
    let plain = SlowApp {
        inner: &app,
        per_op: Duration::ZERO,
        ops: tel.histogram("client.op"),
    };
    for round in 0..3 {
        let report = Runner::run(
            &plain,
            &Workload::b(100),
            100,
            &RunSpec {
                threads: 2,
                duration: Duration::from_millis(150),
                value_size: 64,
                sample_window: None,
                seed: 0xB00 + round,
            },
        );
        assert_eq!(report.errors, 0);
        let (status, body) = get(addr, "/health");
        assert!(status.contains("200"), "round {round}: {status}\n{body}");
        assert!(body.starts_with(&verdict("ok")), "{body}");
    }
}
