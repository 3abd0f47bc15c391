//! `failover`: cycles of open → puts → peer crash mid-stream → application
//! crash → remount → recover → verify, each on a fresh application id.

use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::RocksOptions;
use dfs::IoTrace;
use sim::Xoshiro256StarStar;
use splitfs::{File, Mode, Testbed};
use ycsb::workload::key_of;

use crate::env::{self, ms};
use crate::kv::{self, Op, Store, Tally, POOL, VALUE_LEN};
use crate::stats::{self, median, percentile_resolved, Prober, Quiet, Slice};
use crate::tel::Probe;
use crate::trace::SpanLog;
use crate::{RunCfg, RunResult, Values};

/// Set-ups of an untraced run.
const SETUPS: usize = 5;
/// Puts per cycle, and the put that spans the peer crash.
const CYCLE_PUTS: usize = 2_000;
const CYCLE_CRASH_AT: usize = CYCLE_PUTS / 2;

/// A memtable large enough that nothing is flushed: the WAL holds every
/// put of a cycle and recovery must replay all of it.
fn options() -> RocksOptions {
    RocksOptions {
        memtable_bytes: 1 << 30,
        ..RocksOptions::default()
    }
}

/// One peer-crash drill: crashes the first peer hosting `handle`'s log, runs
/// `op` (a write that must span the replacement), restarts the victim as a
/// spare, and returns how long `op` took plus the repair phases NCL reports.
fn peer_crash_drill<E: std::fmt::Debug>(
    tb: &Testbed,
    handle: &File,
    op: impl FnOnce() -> Result<(), E>,
) -> (Duration, ncl::file::RepairStats) {
    let ncl_file = handle.ncl_handle().expect("drill runs on an O_NCL handle");
    let victim_name = ncl_file.peer_names().swap_remove(0);
    let victim = tb
        .peer_named(&victim_name)
        .expect("assigned peer is in the testbed")
        .node();
    tb.cluster.crash(victim);
    let t = Instant::now();
    op().expect("a write spanning one peer crash succeeds");
    let stall = t.elapsed();
    let stats = ncl_file.repair_stats();
    tb.cluster.restart(victim);
    (stall, stats)
}

/// Median duration of a set of drills, in milliseconds.
fn drill_ms<S>(drills: &[(Duration, S)]) -> f64 {
    phase_ms(drills, |d| d.0)
}

/// Median over `drills` of one of their phases, in milliseconds.
fn phase_ms<S>(drills: &[(Duration, S)], phase: impl Fn(&(Duration, S)) -> Duration) -> f64 {
    median(&drills.iter().map(|d| ms(phase(d))).collect::<Vec<_>>())
}

/// Medians of a set of repair breakdowns, as `ncl.repair.*` values; detect
/// is what the stall spent outside NCL's own four phases.
fn repair_medians(drills: &[(Duration, ncl::file::RepairStats)], out: &mut Values) {
    out.insert("ncl.repair.get_peer_ms", phase_ms(drills, |d| d.1.get_peer));
    out.insert(
        "ncl.repair.connect_mr_ms",
        phase_ms(drills, |d| d.1.connect_mr),
    );
    out.insert("ncl.repair.catch_up_ms", phase_ms(drills, |d| d.1.catch_up));
    out.insert(
        "ncl.repair.ap_map_ms",
        phase_ms(drills, |d| d.1.update_ap_map),
    );
    out.insert(
        "ncl.repair.detect_ms",
        phase_ms(drills, |d| {
            d.0.saturating_sub(d.1.get_peer + d.1.connect_mr + d.1.catch_up + d.1.update_ap_map)
        }),
    );
}

/// Medians of a set of recovery breakdowns, as `ncl.recover.*` values, plus
/// `apps.replay_ms`: what the recovery spent outside NCL's four phases.
fn recovery_medians(recoveries: &[(Duration, ncl::file::RecoveryStats)], out: &mut Values) {
    out.insert(
        "ncl.recover.get_peer_ms",
        phase_ms(recoveries, |r| r.1.get_peer),
    );
    out.insert(
        "ncl.recover.connect_ms",
        phase_ms(recoveries, |r| r.1.connect),
    );
    out.insert(
        "ncl.recover.rdma_read_ms",
        phase_ms(recoveries, |r| r.1.rdma_read),
    );
    out.insert(
        "ncl.recover.sync_peer_ms",
        phase_ms(recoveries, |r| r.1.sync_peer),
    );
    out.insert(
        "apps.replay_ms",
        phase_ms(recoveries, |r| {
            r.0.saturating_sub(r.1.get_peer + r.1.connect + r.1.rdma_read + r.1.sync_peer)
        }),
    );
}

/// The failover workload's put stream: fresh sequential keys per cycle.
struct PutStream {
    rng: Xoshiro256StarStar,
    pool: Arc<Vec<Vec<u8>>>,
    hash: u64,
}

impl PutStream {
    fn new(seed: u64) -> Self {
        PutStream {
            rng: Xoshiro256StarStar::new(seed ^ 0xFA11_0E40),
            pool: kv::payload_pool(seed),
            hash: crate::FNV_OFFSET,
        }
    }

    /// The keys and values of one cycle.
    fn cycle(&mut self, cycle: u64) -> Vec<(String, Vec<u8>)> {
        let base = self.rng.next_below(1 << 40);
        (0..CYCLE_PUTS as u64)
            .map(|j| {
                let block = self.rng.next_below(POOL as u64);
                self.hash = crate::fnv1a(self.hash, &[base + j, block]);
                (
                    key_of(base + j),
                    kv::stamped(&self.pool, block, base + j, cycle, j),
                )
            })
            .collect()
    }

    fn fingerprint(seed: u64) -> u64 {
        let mut s = PutStream::new(seed);
        s.cycle(0);
        s.cycle(1);
        s.hash
    }
}

/// What a batch of failover cycles measured.
struct Cycles {
    start: Instant,
    /// One slice per second of the batch: the put phases (the stall left
    /// out) of the cycles that began in it, with the latency of every put
    /// that did not span the peer crash.
    put_phases: Vec<Slice>,
    /// Verification reads after the recoveries.
    gets: u64,
    repairs: Vec<(Duration, ncl::file::RepairStats)>,
    recoveries: Vec<(Duration, ncl::file::RecoveryStats)>,
    opens_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    count: u64,
}

/// One failover cycle on `store` (already open on a fresh application id).
fn cycle(
    tb: &Testbed,
    mut store: Store,
    puts: &[(String, Vec<u8>)],
    out: &mut Cycles,
    mut spans: Option<&mut SpanLog>,
) {
    let op = out.count;
    let mut span = |name: &'static str, t0: Instant, t1: Instant| {
        if let Some(log) = spans.as_deref_mut() {
            log.record(name, t0, t1, 0, op);
        }
    };
    let phase = Instant::now();
    let mut stalled = Duration::ZERO;
    let second = stats::slice_at(out.start, phase);
    if out.put_phases.len() <= second {
        out.put_phases.resize_with(second + 1, Slice::default);
    }
    let slice = &mut out.put_phases[second];
    let mut prober = Prober::start();
    for (j, (key, value)) in puts.iter().enumerate() {
        out.attempted += 1;
        if j == CYCLE_CRASH_AT {
            let wal = store.wal();
            let db = &store.db;
            let t0 = Instant::now();
            let drill = peer_crash_drill(tb, &wal, || db.put(key.as_bytes(), value));
            span("apps.put.peer_crash", t0, t0 + drill.0);
            stalled = drill.0;
            out.repairs.push(drill);
            continue;
        }
        let t0 = Instant::now();
        let r = store.db.put(key.as_bytes(), value);
        let t1 = Instant::now();
        slice.record(1, t1 - t0);
        prober.tick(t1, slice);
        span("apps.put", t0, t1);
        out.failed += u64::from(r.is_err());
    }
    slice.lasted += phase.elapsed().saturating_sub(stalled);

    let (last_key, last_value) = puts.last().expect("a cycle has puts");
    let t0 = Instant::now();
    let (took, stats, probe_ok) = store.crash_and_recover(tb, (last_key, last_value));
    span("apps.recover", t0, t0 + took);
    out.recoveries.push((took, stats));
    out.attempted += 1;
    out.failed += u64::from(!probe_ok);

    // Acked-prefix check: a 1-in-64 sample plus the last 100 acknowledged
    // keys must read back what was acknowledged.
    let tail = puts.len().saturating_sub(100);
    for (j, (key, value)) in puts.iter().enumerate() {
        if j % 64 != 0 && j < tail {
            continue;
        }
        let t0 = Instant::now();
        let got = store.db.get(key.as_bytes());
        let t1 = Instant::now();
        out.gets += 1;
        span("apps.get", t0, t1);
        out.attempted += 1;
        out.failed += u64::from(!matches!(got, Ok(Some(v)) if v == *value));
    }
    out.count += 1;
    store.destroy();
}

/// Runs failover cycles on fresh application ids until `window` has passed.
fn cycles(
    tb: &Testbed,
    first: Option<Store>,
    stream: &mut PutStream,
    window: Duration,
    tag: &str,
    mut spans: Option<&mut SpanLog>,
) -> Cycles {
    let mut out = Cycles {
        start: Instant::now(),
        put_phases: Vec::new(),
        gets: 0,
        repairs: Vec::new(),
        recoveries: Vec::new(),
        opens_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        count: 0,
    };
    let mut first = first;
    let start = Instant::now();
    while start.elapsed() < window {
        let store = first.take().unwrap_or_else(|| {
            let t = Instant::now();
            let s = Store::open(
                tb,
                Mode::SplitFt,
                &format!("failover-{tag}-{}", out.count),
                options(),
            );
            out.opens_ms.push(ms(t.elapsed()));
            s
        });
        let puts = stream.cycle(out.count);
        cycle(tb, store, &puts, &mut out, spans.as_deref_mut());
    }
    out
}

pub fn run(cfg: &RunCfg) -> RunResult {
    if cfg.traced {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunCfg) -> RunResult {
    let (bed, setups) = env::set_up(SETUPS, |tb| {
        Store::open(tb, Mode::SplitFt, "failover-first", options())
    });
    let env::Bed { subject: store, tb } = bed;
    let mut stream = PutStream::new(cfg.seed);
    let c = cycles(&tb, Some(store), &mut stream, cfg.window(), "u", None);

    let quiet = Quiet::among(&c.put_phases);
    let puts = quiet.lat();
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("ops_per_s", quiet.rate());
    values.insert("write_p50_us", puts.percentile(50.0) / 1e3);
    values.insert("peak_rss_mb", env::peak_rss_mb());
    let mut failed = c.failed;
    let mut notes = vec![
        format!(
            "{} failover cycles; {} of {} one-second slices quiet; put samples {} (p99 {:.1} us, p99.9 {:.1} us); recovery p50 {:.1} ms, peer stall p50 {:.1} ms (per-layer metrics of the traced run)",
            c.count,
            quiet.kept.len(),
            quiet.of,
            puts.count(),
            puts.percentile(99.0) / 1e3,
            puts.percentile(99.9) / 1e3,
            drill_ms(&c.recoveries),
            drill_ms(&c.repairs),
        ),
        format!(
            "puts per slice {:?}; host index per slice {:.0?}",
            c.put_phases.iter().map(|s| s.ops).collect::<Vec<_>>(),
            c.put_phases.iter().map(Slice::host_index).collect::<Vec<_>>()
        ),
        format!("set-ups (s): {setups:.3?}"),
    ];
    if !percentile_resolved(c.count, 50.0) {
        failed += 1;
        notes.push(format!(
            "only {} cycles fit in {} s: too few for a median",
            c.count, cfg.seconds
        ));
    }
    RunResult {
        attempted: c.attempted,
        failed,
        values,
        stream_hash: PutStream::fingerprint(cfg.seed),
        notes,
    }
}

fn run_traced(cfg: &RunCfg) -> RunResult {
    let wall = Instant::now();
    let tb = env::testbed();
    let tel = tb.config().ncl.telemetry.clone();
    let mut stream = PutStream::new(cfg.seed);
    let reference = cycles(&tb, None, &mut stream, cfg.share(0.2), "r", None);

    // Trace the IO of every traced cycle: each mounts its own facade, so
    // the trace is attached through a probe mount sharing the recorder.
    let mut spans = SpanLog::new(Instant::now());
    let before = Probe::take(&tel);
    let cpu_before = env::cpu_seconds();
    let traced = cycles(
        &tb,
        None,
        &mut stream,
        cfg.share(0.35),
        "t",
        Some(&mut spans),
    );
    let cpu_traced = env::cpu_seconds() - cpu_before;
    let counts = before.until(&Probe::take(&tel));

    // One more cycle's put phase under an IO trace gives the stream the
    // layers below saw (the facade of a cycle is private to it).
    let io = IoTrace::new();
    let probe = Store::open(&tb, Mode::SplitFt, "failover-io", options());
    probe.fs.set_trace(Arc::clone(&io));
    io.enable();
    let puts = stream.cycle(u64::MAX);
    let mut tally = Tally::new(Instant::now(), Duration::ZERO);
    for (key, value) in &puts {
        let op = Op::Update(key.clone(), value.clone());
        kv::issue(&probe.db, op, &mut tally, None);
    }
    io.disable();
    let seen = kv::io_counts(&io.events());

    let mut values = Values::new();
    let mut notes = Vec::new();
    let (reference_puts, traced_puts) = (
        Quiet::among(&reference.put_phases),
        Quiet::among(&traced.put_phases),
    );
    let puts_done = traced.put_phases.iter().map(|s| s.ops).sum::<u64>();
    let user_bytes = puts_done * (24 + VALUE_LEN) as u64;
    counts.layer_counts(user_bytes, &mut values);
    kv::app_ratios(&tally, &seen, &mut values);
    values.insert("apps.calls", (puts_done + traced.gets) as f64);
    values.insert("apps.errors", traced.failed as f64);
    let put_mean = traced_puts.lat().mean();
    values.insert("apps.busy_ns_per_op", put_mean);
    values.insert(
        "bench.trace_overhead",
        reference_puts.rate() / traced_puts.rate().max(1e-9),
    );
    values.insert(
        "bench.cpu_us_per_op",
        cpu_traced * 1e6 / traced.attempted.max(1) as f64,
    );
    kv::below_the_app(
        &tb,
        &probe,
        cfg,
        &seen,
        traced_puts.lat().percentile(50.0),
        reference_puts.lat().percentile(50.0),
        &mut spans,
        &mut values,
        &mut notes,
    );
    let below = values
        .get("splitfs.busy_ns_per_call")
        .copied()
        .unwrap_or(0.0)
        * 3.0;
    values.insert("apps.self_ns_per_op", (put_mean - below).max(0.0));
    probe.destroy();
    // Opening a cycle's store is dominated by creating its WAL on the peers.
    values.insert("ncl.create_ms", median(&traced.opens_ms));
    // The demoted end-to-end metrics: recovery and the peer-crash stall live
    // on this workload only (taken over the untraced and the traced cycles),
    // the put p99 repeats inside no bound.
    values.insert("write_p99_us", reference_puts.lat().percentile(99.0) / 1e3);
    let repairs = [reference.repairs, traced.repairs].concat();
    let recoveries = [reference.recoveries, traced.recoveries].concat();
    values.insert("recovery_p50_ms", drill_ms(&recoveries));
    values.insert("peer_stall_p50_ms", drill_ms(&repairs));
    repair_medians(&repairs, &mut values);
    recovery_medians(&recoveries, &mut values);

    let mut gen = PutStream::new(cfg.seed);
    let t = Instant::now();
    let generated = (0..10).map(|c| gen.cycle(c).len()).sum::<usize>();
    values.insert(
        "ycsb.gen_ns_per_op",
        t.elapsed().as_nanos() as f64 / generated as f64,
    );
    values.insert("bench.client_threads", 1.0);
    values.insert("bench.wall_s", wall.elapsed().as_secs_f64());
    notes.push(format!(
        "{} reference + {} traced failover cycles",
        reference.count, traced.count
    ));
    notes.push(spans.save("trace-failover.jsonl"));
    RunResult {
        attempted: reference.attempted + traced.attempted + tally.ops,
        failed: reference.failed + traced.failed + tally.errors,
        values,
        stream_hash: PutStream::fingerprint(cfg.seed),
        notes,
    }
}
