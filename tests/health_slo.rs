//! End-to-end SLO/health plane test: closed-loop load on a server with a
//! known per-op service time must flip the testbed's `/health` endpoint to
//! 503/breached, trip the flight recorder, and leave an analyzer-clean
//! black-box dump — while the same load on the plain app stays 200/healthy.
//!
//! The pipeline under test spans every layer this repo's observability
//! stack has: a client-side wrapper times every op of the closed-loop ycsb
//! runner into a telemetry histogram, the SLO plane windows that histogram
//! into multi-window burn rates, the scrape server serves the verdict over
//! plain HTTP, and the breach hook preserves the last N spans as a
//! `trace_analyzer --check`-compatible JSONL dump.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use splitft::apps::minirocks::{MiniRocks, RocksOptions};
use splitft::apps::{AppError, KvApp};
use splitft::splitfs::{Mode, Testbed, TestbedConfig};
use telemetry::analyze::{analyze, parse_jsonl};
use telemetry::{HistHandle, SloSpec};
use ycsb::{LoadSpec, RunSpec, Runner, Workload};

/// The client-facing objective both tests watch: at most 10% of ops may
/// take longer than 2 ms, judged over the single window since the last
/// `/health` read. A zero-latency testbed serves an op in microseconds; a
/// 5 ms/op server misses it on every op.
fn client_objective() -> SloSpec {
    SloSpec::new("client-op", "client.op", 2_000_000, 0.1).windows(1, 1)
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
    let mut cfg = TestbedConfig::zero(3);
    cfg.scrape_addr = Some("127.0.0.1:0".into());
    let tel = cfg.ncl.telemetry.clone();
    let quorum = cfg.ncl.quorum();
    let tb = Testbed::start(cfg);
    let addr = tb.scrape_addr().expect("scrape endpoint requested");

    let plane = tb.slo_plane();
    plane.set_min_tick_gap(Duration::ZERO);
    plane.add(client_objective());

    // Arm the black box: on the first transition into Breached, dump the
    // flight recorder where the chaos artifacts would go.
    let dump_dir = std::env::temp_dir().join(format!("flight-breach-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    let recorder = tb.flight_recorder().clone();
    let hook_dir = dump_dir.clone();
    plane.on_breach(move |report| {
        recorder
            .dump_into(
                &hook_dir,
                "slo-breach",
                &format!("slo-breach status={}", report.status.as_str()),
            )
            .expect("flight dump written");
    });

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

    // Phase 1 — closed-loop load on the plain app: /health answers
    // 200/healthy.
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
    assert!(body.contains("\"status\": \"healthy\""), "{body}");
    assert!(body.contains("\"client-op\""), "{body}");
    assert!(!dump_dir.exists(), "no flight dump may fire while healthy");

    // Phase 2 — the same load on a 5 ms/op server: every op misses the
    // 2 ms objective, the error budget burns 10× on both windows, and
    // /health flips.
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
    assert!(body.contains("\"status\": \"breached\""), "{body}");

    // The breach exported gauges on /metrics too.
    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("splitft_slo_status 2"), "{metrics}");

    // The breach hook preserved an analyzer-clean black box carrying the
    // NCL span chains from before the incident.
    let dump = std::fs::read_dir(&dump_dir)
        .expect("flight dump dir exists")
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("trace-flight-"))
        })
        .expect("flight dump file written on breach");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.contains("slo-breach"), "dump records its reason");
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
/// stay healthy end to end — the breach path above is the slow server's
/// fault, not the plane's default verdict.
#[test]
fn health_stays_200_at_low_offered_load() {
    let mut cfg = TestbedConfig::zero(3);
    cfg.scrape_addr = Some("127.0.0.1:0".into());
    let tel = cfg.ncl.telemetry.clone();
    let tb = Testbed::start(cfg);
    let addr = tb.scrape_addr().unwrap();
    tb.slo_plane().set_min_tick_gap(Duration::ZERO);
    tb.slo_plane().add(client_objective());

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
        assert!(!body.contains("\"status\": \"breached\""), "{body}");
    }
}
