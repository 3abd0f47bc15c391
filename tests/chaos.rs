//! Deterministic chaos harness: seeded fault schedules against the full
//! stack (application → facade → NCL → simulated RDMA).
//!
//! Every schedule is derived from a single `u64` seed
//! ([`FaultPlan::random`]): peer crashes and restarts, controller
//! partitions, delayed/dropped/duplicated completions, stalled doorbells
//! and gray (slow) peers, at seeded step counts. A workload runs through
//! minirocks or miniredis while the schedule fires; after the cluster
//! settles, the application is crashed and recovered, and the harness
//! asserts the safety properties:
//!
//! * every acknowledged write is recovered (prefix durability, §4.4–4.5);
//! * the causal trace passes `telemetry::analyze` — every acked write has a
//!   complete span chain (stage → doorbell → quorum peer coverage, zero
//!   orphan spans), no write starts inside a degraded window unless it is
//!   reattach-replay traffic, per-file ap-map epochs move monotonically, and
//!   no ap-map update of a replacement epoch precedes its catch-up finish
//!   (the §4.5 ordering the model checker proves in the small).
//!
//! The firing *schedule* is deterministic per seed; thread interleaving is
//! not, so assertions are safety properties, never exact timings.
//!
//! Environment knobs (all optional):
//!
//! * `FAULT_SEED=<u64>` — run exactly one seed (printed by any failure).
//! * `CHAOS_SEEDS=<n>` — how many seeds to run (default 32).
//! * `CHAOS_SHARD=<i>/<n>` — run the i-th of n shards of the seed list.
//! * `CHAOS_TRACE_DIR=<dir>` — keep the per-seed JSONL traces here (plus a
//!   `FAILED_SEED` marker when a schedule fails) instead of a temp dir;
//!   `trace_analyzer --check` consumes the same files in CI.

use std::env;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use splitft::apps::miniredis::{Command, MiniRedis, Query, RedisOptions, Reply};
use splitft::apps::minirocks::{MiniRocks, RocksOptions};
use splitft::sim::{Binding, FaultAction, FaultPlan, FaultScheduler, PlanParams, Trigger};
use splitft::splitfs::{Mode, OpenOptions, SplitFs, Testbed, TestbedConfig};
use telemetry::analyze::{analyze, parse_jsonl, TraceReport};
use telemetry::{spans, FlightRecorder, Span, Telemetry};

const VALUE: &[u8] = b"chaos-value";
const PUTS: usize = 100;

fn seed_list() -> Vec<u64> {
    if let Ok(s) = env::var("FAULT_SEED") {
        return vec![s.parse().expect("FAULT_SEED must be a u64")];
    }
    let n: u64 = env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let (shard, shards) = env::var("CHAOS_SHARD")
        .ok()
        .and_then(|s| {
            let (i, n) = s.split_once('/')?;
            Some((i.parse::<u64>().ok()?, n.parse::<u64>().ok()?.max(1)))
        })
        .unwrap_or((0, 1));
    (1..=n)
        .filter(|seed| seed % shards == shard % shards)
        .collect()
}

fn trace_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(env::var("CHAOS_TRACE_DIR").ok()?);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// Where this run's JSONL traces go: `CHAOS_TRACE_DIR` when set (CI keeps
/// them as artifacts), a per-process temp dir otherwise. The trace is always
/// written — the analyzer verifies the causal chain from the file, exactly
/// like `trace_analyzer --check` does offline.
fn sink_dir() -> PathBuf {
    trace_dir().unwrap_or_else(|| {
        let dir = env::temp_dir().join(format!("chaos-traces-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("trace temp dir");
        dir
    })
}

/// The telemetry handle (and quorum) of the schedule currently running, so
/// the failure path outside `run_schedule` can reach the in-memory rings
/// for a flight-recorder dump after a panic unwound through the harness.
static LIVE_TELEMETRY: Mutex<Option<(Telemetry, usize)>> = Mutex::new(None);

/// Black-box preservation on a failed schedule: captures the last spans
/// (facts included) and counter deltas into `sink_dir()/flight/` — a subdirectory so
/// `trace_analyzer --check` on the main trace dir is not double-reading
/// them — as the same analyzer-readable JSONL a breach dump uses.
fn dump_flight(tel: Telemetry, quorum: usize, seed: u64) -> Option<PathBuf> {
    let recorder = FlightRecorder::with_limits(tel, 32, quorum);
    let dir = sink_dir().join("flight");
    match recorder.dump_into(&dir, &format!("chaos-{seed}"), "chaos-assert") {
        Ok(path) => {
            eprintln!("flight recorder dump: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder dump failed: {e}");
            None
        }
    }
}

fn dump_flight_on_failure(seed: u64) {
    let Some((tel, quorum)) = LIVE_TELEMETRY.lock().expect("telemetry slot").take() else {
        return;
    };
    dump_flight(tel, quorum, seed);
}

/// The application under test; alternates by seed so both ports face every
/// second schedule.
enum Db {
    Rocks(MiniRocks),
    Redis(MiniRedis),
}

impl Db {
    fn open(fs: SplitFs, seed: u64) -> Db {
        if seed.is_multiple_of(2) {
            Db::Rocks(MiniRocks::open(fs, "db/", RocksOptions::tiny()).expect("minirocks open"))
        } else {
            Db::Redis(MiniRedis::open(fs, "db/", RedisOptions::tiny()).expect("miniredis open"))
        }
    }

    /// One put; `true` means the write was acknowledged to the application.
    fn put(&self, key: &str) -> bool {
        match self {
            Db::Rocks(db) => db.put(key.as_bytes(), VALUE).is_ok(),
            Db::Redis(db) => db
                .execute(Command::Set(key.to_string(), VALUE.to_vec()))
                .is_ok(),
        }
    }

    fn assert_has(&self, key: &str, seed: u64) {
        match self {
            Db::Rocks(db) => assert_eq!(
                db.get(key.as_bytes()).expect("post-recovery get"),
                Some(VALUE.to_vec()),
                "seed {seed}: acknowledged key {key} lost"
            ),
            Db::Redis(db) => assert_eq!(
                db.query(Query::Get(key.to_string()))
                    .expect("post-recovery get"),
                Reply::Bulk(Some(VALUE.to_vec())),
                "seed {seed}: acknowledged key {key} lost"
            ),
        }
    }
}

/// Runs one seeded schedule end to end. Panics on any violated invariant.
fn run_schedule(seed: u64, plan: &FaultPlan) {
    let mut cfg = TestbedConfig::zero(6);
    // Chaos runs should degrade (and re-attach) quickly, not after 5 s.
    cfg.ncl.write_timeout = Duration::from_secs(2);
    let trace_path = sink_dir().join(format!("trace-{seed}.jsonl"));
    cfg.ncl
        .telemetry
        .set_jsonl_sink(&trace_path)
        .expect("trace sink");
    let quorum = cfg.ncl.quorum();
    *LIVE_TELEMETRY.lock().expect("telemetry slot") = Some((cfg.ncl.telemetry.clone(), quorum));
    let tb = Testbed::start(cfg);
    let (fs, app_node) = tb.mount(Mode::SplitFt, "chaos");
    let db = Db::open(fs, seed);

    // Arm the schedule only once the application is up: the property under
    // test is write durability, not bootstrap availability.
    let binding = Binding {
        peers: tb.peers.iter().map(|p| p.node()).collect(),
        controller: tb.controller.node(),
        app: app_node,
    };
    tb.cluster
        .install_faults(FaultScheduler::new(plan, binding));

    let mut acked: Vec<String> = Vec::new();
    for i in 0..PUTS {
        let key = format!("k{i:05}");
        if db.put(&key) {
            acked.push(key);
        }
    }

    // Settle: disarm the schedule, bring every peer back, heal partitions,
    // then a few stabilisation puts so any deferred repair completes.
    tb.cluster.clear_faults();
    for peer in &tb.peers {
        if !tb.cluster.is_alive(peer.node()) {
            tb.cluster.restart(peer.node());
        }
    }
    tb.cluster.heal(app_node, tb.controller.node());
    for i in 0..5 {
        let key = format!("settle{i:02}");
        if db.put(&key) {
            acked.push(key);
        }
    }
    assert!(
        !acked.is_empty(),
        "seed {seed}: no write was acknowledged during the schedule"
    );

    // Crash the application and recover on a fresh node: every acked key
    // must come back.
    tb.cluster.crash(app_node);
    drop(db);
    let (fs2, _) = tb.mount(Mode::SplitFt, "chaos");
    let db = Db::open(fs2, seed);
    for key in &acked {
        db.assert_has(key, seed);
    }

    // Replay the JSONL trace through the analyzer, exactly like
    // `trace_analyzer --check` does offline: full causal chains for every
    // acked write, no writes inside a degraded window (unless replay), the
    // catch-up-before-ap-map ordering, monotone epochs.
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let spans = parse_jsonl(&text).unwrap_or_else(|e| panic!("seed {seed}: malformed trace: {e}"));
    let report = analyze(&spans, quorum);
    assert_report_clean(&report, seed);
    assert!(
        report.acked_writes > 0,
        "seed {seed}: no acked write produced a complete span chain"
    );

    // When the testbed attached a streaming monitor (SPLITFT_ONLINE_MONITOR
    // or TestbedConfig::online_monitor), the same engine has been judging
    // the live stream under its real lags, suspects and tombstones: it must
    // have seen the writes and found nothing either.
    if let Some(monitor) = tb.online_monitor() {
        let online = monitor.finalize();
        assert!(
            online.ok(),
            "seed {seed}: online monitor flagged the schedule: {}",
            online.to_json()
        );
        assert!(
            online.acked_writes > 0,
            "seed {seed}: online monitor saw no acked write"
        );
    }
}

/// Panics with the analyzer's full report on any violated trace invariant.
fn assert_report_clean(report: &TraceReport, seed: u64) {
    assert!(
        report.ok() && report.orphan_spans == 0,
        "seed {seed}: trace invariants violated\n{}",
        report.render()
    );
}

/// A seeded schedule that deliberately exceeds the `f` budget: 2 of the 3
/// assigned peers crash back-to-back, so the durable quorum is gone and the
/// facade must degrade to the DFS shadow journal, then re-attach once fresh
/// peers are published — with the span trace proving the ordering.
#[test]
fn seeded_quorum_loss_schedule_degrades_and_reattaches() {
    let seed: u64 = 0xFA11_BACC;
    let plan = FaultPlan::new(seed)
        .push(Trigger::Step(8), FaultAction::CrashPeer(1))
        .push(Trigger::Step(9), FaultAction::CrashPeer(2));

    let mut cfg = TestbedConfig::zero(3);
    // Quorum loss should trip the fallback quickly, not after 5 s.
    cfg.ncl.write_timeout = Duration::from_millis(300);
    let mut tb = Testbed::start(cfg);
    let (fs, app_node) = tb.mount(Mode::SplitFt, "chaos-degrade");
    let file = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();

    let binding = Binding {
        peers: tb.peers.iter().map(|p| p.node()).collect(),
        controller: tb.controller.node(),
        app: app_node,
    };
    tb.cluster
        .install_faults(FaultScheduler::new(&plan, binding));

    // Every write keeps being acknowledged across the quorum loss: the
    // route degrades instead of failing the application.
    let mut expected: Vec<u8> = Vec::new();
    for i in 0..50 {
        let chunk = format!("record-{i:02}|");
        file.write_at(expected.len() as u64, chunk.as_bytes())
            .unwrap_or_else(|e| panic!("FAULT_SEED={seed}\nwrite {i} failed: {e}"));
        expected.extend_from_slice(chunk.as_bytes());
        if file.is_degraded() {
            break;
        }
    }
    assert!(
        file.is_degraded(),
        "FAULT_SEED={seed}: crashing 2/3 assigned peers must engage the fallback"
    );
    tb.cluster.clear_faults();

    // Publish fresh capacity; the throttled probe must re-attach.
    tb.add_peer("spare-a");
    tb.add_peer("spare-b");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while file.is_degraded() {
        assert!(
            std::time::Instant::now() < deadline,
            "FAULT_SEED={seed}: fallback never re-attached after fresh peers"
        );
        std::thread::sleep(tb.config().ncl.reattach_probe);
        file.write_at(expected.len() as u64, b".").unwrap();
        expected.push(b'.');
    }

    // Trace ordering: engage strictly precedes re-attach, and the re-attach
    // runs at a bumped epoch (the replacement's fence).
    let all = fs.telemetry().spans();
    let engage = all
        .iter()
        .position(|s| s.name == spans::DFS_FALLBACK_ENGAGE)
        .expect("engage fact");
    let reattach = all
        .iter()
        .position(|s| s.name == spans::NCL_REATTACH)
        .expect("re-attach fact");
    assert!(
        engage < reattach,
        "FAULT_SEED={seed}: engage after re-attach"
    );
    assert!(
        all[reattach].epoch > all[engage].epoch,
        "FAULT_SEED={seed}: re-attach must carry a bumped epoch"
    );
    // The in-memory rings hold this run's full causal story; the analyzer
    // must find complete chains, replay-covered degraded-window writes, and
    // the catch-up/ap-map ordering.
    let report = analyze(&all, tb.config().ncl.quorum());
    assert_report_clean(&report, seed);
    assert!(
        report.acked_writes > 0,
        "FAULT_SEED={seed}: no acked write produced a complete span chain"
    );

    // Every acknowledged byte — through NCL or the fallback — survives an
    // application crash and recovery on a fresh node.
    tb.cluster.crash(app_node);
    drop(file);
    drop(fs);
    let (fs2, _) = tb.mount(Mode::SplitFt, "chaos-degrade");
    let f2 = fs2.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    let size = f2.size().unwrap();
    assert_eq!(
        f2.read(0, size as usize).unwrap(),
        expected,
        "FAULT_SEED={seed}: recovered image diverges from acknowledged bytes"
    );
}

/// Erasure-coded chaos: an ec-2of3 file under a tiny spill watermark (so
/// generation flips and DFS demotions fire constantly) loses `n - k` peers
/// mid-burst — forcing an EC replacement with a synchronous snapshot
/// demotion — and then one more fragment holder right before recovery, so
/// the crashed application replays a spill snapshot plus fragments from
/// exactly `k` survivors. Every acknowledged byte must come back and the
/// JSONL trace must stay `trace_analyzer --check` green: the analyzer reads
/// `k` from the durability-mode fact, so the acked⇒quorum-coverage
/// invariant generalizes to acked⇒reconstructible-fragment-coverage.
#[test]
fn seeded_ec_spill_schedule_survives_parity_loss_and_spill_replay() {
    let seed: u64 = 0xEC25_0F03;
    // ec-2of3: the parity budget is n - k = 1 peer, killed mid-burst.
    let plan = FaultPlan::new(seed).push(Trigger::Step(10), FaultAction::CrashPeer(1));

    let mut cfg = TestbedConfig::zero(6);
    cfg.ncl.durability = splitft::ncl::Durability::Ec { k: 2, n: 3 };
    // Tiny watermark: every few bursts demote to the DFS spill tier.
    cfg.ncl.spill_watermark = 512;
    cfg.ncl.write_timeout = Duration::from_secs(2);
    let trace_path = sink_dir().join(format!("trace-ec-{seed:x}.jsonl"));
    cfg.ncl
        .telemetry
        .set_jsonl_sink(&trace_path)
        .expect("trace sink");
    let quorum = cfg.ncl.quorum();
    let tel = cfg.ncl.telemetry.clone();
    let tb = Testbed::start(cfg);
    let (fs, app_node) = tb.mount(Mode::SplitFt, "chaos-ec");
    let file = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();

    let binding = Binding {
        peers: tb.peers.iter().map(|p| p.node()).collect(),
        controller: tb.controller.node(),
        app: app_node,
    };
    tb.cluster
        .install_faults(FaultScheduler::new(&plan, binding));

    // A demotion finishes in a burst *after* the one that posted its store:
    // the first whose instant has passed the store's durable instant, or the
    // one that finds its half full and waits for it. Sixty records, then as
    // many more as it takes to see one (the file's capacity bounds them).
    let spilled = || tel.spans().iter().any(|s| s.name == spans::SPILL_FINISH);
    let mut expected: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < 60 || !spilled() {
        let chunk = format!("ec-record-{i:03}|");
        assert!(
            expected.len() + chunk.len() <= 1 << 16,
            "FAULT_SEED={seed:#x}: file full after {i} records and no spill demotion finished"
        );
        file.write_at(expected.len() as u64, chunk.as_bytes())
            .unwrap_or_else(|e| panic!("FAULT_SEED={seed:#x}\nwrite {i} failed: {e}"));
        expected.extend_from_slice(chunk.as_bytes());
        i += 1;
    }
    tb.cluster.clear_faults();
    for peer in &tb.peers {
        if !tb.cluster.is_alive(peer.node()) {
            tb.cluster.restart(peer.node());
        }
    }

    // Crash the application, then one fragment holder: recovery must
    // reconstruct from the k = 2 survivors while replaying the spill
    // snapshot for the max responder generation.
    tb.cluster.crash(app_node);
    drop(file);
    let entry = tb
        .controller
        .client(splitft::sim::LatencyModel::ZERO)
        .get_ap_entry(tb.controller.node(), "chaos-ec", "wal")
        .expect("controller reachable")
        .expect("ap entry exists");
    let victim = tb.peer_named(&entry.peers[0]).expect("ap peer in pool");
    tb.cluster.crash(victim.node());
    drop(fs);

    let (fs2, _) = tb.mount(Mode::SplitFt, "chaos-ec");
    let f2 = fs2.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    let size = f2.size().unwrap();
    assert_eq!(
        f2.read(0, size as usize).unwrap(),
        expected,
        "FAULT_SEED={seed:#x}: recovered image diverges from acknowledged bytes"
    );
    drop(f2);
    drop(fs2);

    // Offline replay, exactly like `trace_analyzer --check`: complete span
    // chains for every acked write with the EC coverage requirement, the
    // catch-up/ap-map ordering, monotone epochs, spill bookkeeping intact.
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let all =
        parse_jsonl(&text).unwrap_or_else(|e| panic!("FAULT_SEED={seed:#x}: malformed trace: {e}"));
    let report = analyze(&all, quorum);
    assert_report_clean(&report, seed);
    assert!(
        report.acked_writes > 0,
        "FAULT_SEED={seed:#x}: no acked write produced a complete span chain"
    );
    // The schedule must actually have exercised the spill tier.
    assert!(
        all.iter().any(|s| s.name == spans::SPILL_FINISH),
        "FAULT_SEED={seed:#x}: no spill demotion fired — watermark too high?"
    );
}

/// A flight-recorder dump produced exactly like the failure path's must be
/// `trace_analyzer --check`-clean: parseable JSONL, complete span chains
/// for every retained acked write, zero orphans. The recorder's whole value
/// is that the black box from a *failed* run is still analyzable, so this
/// pins the dump format against the analyzer's invariants.
#[test]
fn chaos_style_flight_dump_passes_the_analyzer() {
    let cfg = TestbedConfig::zero(3);
    let quorum = cfg.ncl.quorum();
    let tel = cfg.ncl.telemetry.clone();
    let tb = Testbed::start(cfg);
    let (fs, _app_node) = tb.mount(Mode::SplitFt, "chaos-flight");
    let db = Db::open(fs, 2);
    for i in 0..40 {
        assert!(db.put(&format!("k{i:03}")), "healthy put {i} acked");
    }

    let path = dump_flight(tel, quorum, 0xF11).expect("flight dump written");
    let text = std::fs::read_to_string(&path).expect("flight dump readable");
    assert!(text.contains("chaos-assert"), "dump records its reason");
    let all = parse_jsonl(&text).expect("flight dump parses as a trace");
    let report = analyze(&all, quorum);
    assert_report_clean(&report, 0xF11);
    assert!(
        report.acked_writes > 0,
        "flight dump carries complete acked-write chains"
    );
    let _ = std::fs::remove_file(&path);
}

/// One blocking scrape against the testbed's operator endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("scrape endpoint reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Acceptance: the streaming monitor catches a seeded §4.5 ordering
/// violation — an ap-map update published for a replacement epoch before
/// that epoch's catch-up finished — *live*, not in offline replay. The
/// operator surface must agree end to end: `/health` flips to 503 even
/// though every latency objective is met, its body names the violated
/// ordering, and the violation hook dumps a flight-recorder black box that
/// parses as a trace and whose only analyzer findings are the seeded ones
/// (zero orphan spans, no collateral false positives from healthy traffic).
#[test]
fn online_monitor_catches_seeded_apmap_violation_live() {
    let mut cfg = TestbedConfig::zero(3);
    cfg.online_monitor = true;
    cfg.scrape_addr = Some("127.0.0.1:0".into());
    let tel = cfg.ncl.telemetry.clone();
    let quorum = cfg.ncl.quorum();
    let tb = Testbed::start(cfg);
    let (fs, _app_node) = tb.mount(Mode::SplitFt, "chaos-monitor");
    let db = Db::open(fs, 4);
    for i in 0..24 {
        assert!(db.put(&format!("k{i:03}")), "healthy put {i} acked");
    }

    let monitor = tb.online_monitor().expect("monitor attached");
    assert!(
        !monitor.violating(),
        "healthy workload must not trip the monitor"
    );

    // Arm the black box with the dump the testbed wires when
    // `FLIGHT_DUMP_DIR` is set, but through the hook directly so the test
    // does not mutate process env.
    let dump_dir = sink_dir().join("invariant-flight");
    let dumped: Arc<Mutex<Option<PathBuf>>> = Arc::new(Mutex::new(None));
    {
        let recorder = tb.flight_recorder().clone();
        let dir = dump_dir.clone();
        let slot = Arc::clone(&dumped);
        monitor.on_violation(move |v| {
            if let Ok(path) = recorder.dump_into(
                &dir,
                "invariant",
                &format!("invariant-violation [{}] {}", v.invariant, v.message),
            ) {
                *slot.lock().expect("dump slot") = Some(path);
            }
        });
    }

    // Seed the ordering violation: a repair that moves the ap-map to its
    // epoch before its catch-up has finished — the exact bug class §4.5's
    // ordering forbids.
    let scope = telemetry::intern_scope("chaos-monitor/seeded");
    let (t0, trace) = (Instant::now(), tel.next_trace_id());
    let (t1, t2) = (
        t0 + Duration::from_micros(10),
        t0 + Duration::from_micros(20),
    );
    let phase = |id, parent, name, (start, end): (Instant, Instant)| Span {
        trace,
        id,
        parent,
        name,
        scope,
        epoch: 7,
        start_ns: tel.instant_ns(start),
        end_ns: tel.instant_ns(end),
        ..Span::default()
    };
    let children = [
        (spans::NCL_REPAIR_AP_MAP, (t0, t1)),
        (spans::NCL_REPAIR_CATCH_UP, (t1, t2)),
    ];
    for (name, at) in children {
        tel.record_spans([phase(tel.next_trace_id(), trace, name, at)]);
    }
    tel.record_spans([phase(trace, 0, spans::NCL_REPAIR, (t0, t2))]);

    assert!(
        monitor.violating(),
        "seeded ap-map-before-catch-up must be caught live"
    );
    assert!(monitor.violation_count() >= 1);

    let addr = tb.scrape_addr().expect("scrape server up");
    let (status, body) = http_get(addr, "/health");
    assert!(
        status.contains("503"),
        "invariant violation must flip /health: {status}"
    );
    assert!(
        body.contains("ap-map-order") && body.contains("catch-up"),
        "/health must name the violated ordering: {body}"
    );

    // The hook's black box is a valid trace: parseable, completeness-clean,
    // and the offline analyzer reproduces exactly the seeded finding.
    let path = dumped
        .lock()
        .expect("dump slot")
        .clone()
        .expect("violation hook dumped the flight recorder");
    let text = std::fs::read_to_string(&path).expect("flight dump readable");
    assert!(
        text.contains("invariant-violation"),
        "dump records its reason"
    );
    let all = parse_jsonl(&text).expect("flight dump parses as a trace");
    let report = analyze(&all, quorum);
    assert_eq!(
        report.orphan_spans,
        0,
        "dump must stay completeness-clean\n{}",
        report.render()
    );
    assert!(
        !report.ok(),
        "the seeded violation must be visible offline too"
    );
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.message.contains("chaos-monitor/seeded")),
        "only the seeded finding may appear:\n{}",
        report.render()
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dump_dir);
}

#[test]
fn seeded_chaos_schedules_preserve_acked_data() {
    let params = PlanParams::light(6, 1);
    for seed in seed_list() {
        let plan = FaultPlan::random(seed, &params);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_schedule(seed, &plan))) {
            // The one line that reproduces the exact schedule:
            eprintln!("FAULT_SEED={seed}");
            eprintln!("reproduce: FAULT_SEED={seed} cargo test --test chaos");
            eprintln!("schedule:\n{}", plan.describe());
            dump_flight_on_failure(seed);
            if let Some(dir) = trace_dir() {
                let _ = std::fs::write(dir.join("FAILED_SEED"), seed.to_string());
            }
            resume_unwind(payload);
        }
    }
}
