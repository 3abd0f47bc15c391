//! `wal_sync` and `wal_group`: one client appending to an `O_NCL` log
//! through `splitfs::File`, circular over a 16 MiB region.
//!
//! `wal_sync` is the paper's Fig. 8 case — one synchronous 128-byte write
//! per record, one burst per record. `wal_group` drives the same layer the
//! other way: a pipelined handle, 16 × 1 KiB staged per commit, then
//! `submit` + `fsync`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dfs::IoTrace;
use sim::Xoshiro256StarStar;
use splitfs::{File, Mode, OpenOptions, SplitFs, Testbed};

use crate::env;
use crate::ladder::{self, Shape, REGION};
use crate::stats::{self, median, Ladder, Prober, Quiet, Slice};
use crate::tel::Probe;
use crate::trace::SpanLog;
use crate::{RunCfg, RunResult, Values};

const APP: &str = "wal";
const LOG: &str = "log";
/// Distinct payload blocks a stream draws from.
const POOL: usize = 64;
/// Unit of the replay reads that verify the log.
const READ_CHUNK: usize = 4096;
/// Set-ups of an untraced run.
const SETUPS: usize = 5;
/// Records in each determinism repetition.
const DETERMINISM_RECORDS: u64 = 16_384;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sync,
    Group,
}

impl Kind {
    fn record_len(self) -> usize {
        match self {
            Kind::Sync => 128,
            Kind::Group => 1024,
        }
    }

    /// Records made durable by one operation (a write / a commit).
    fn records_per_op(self) -> usize {
        match self {
            Kind::Sync => 1,
            Kind::Group => 16,
        }
    }

    fn op_bytes(self) -> usize {
        self.record_len() * self.records_per_op()
    }

    /// `splitfs::File` calls one operation makes: a `write_at` per record,
    /// plus `submit` and `fsync` on the pipelined handle.
    fn calls_per_op(self) -> f64 {
        match self {
            Kind::Sync => 1.0,
            Kind::Group => self.records_per_op() as f64 + 2.0,
        }
    }

    fn warmup_ops(self) -> u64 {
        20_000 / self.records_per_op() as u64
    }

    fn open_options(self) -> OpenOptions {
        match self {
            Kind::Sync => OpenOptions::create_ncl(REGION),
            Kind::Group => OpenOptions::create_ncl_pipelined(REGION),
        }
    }

    /// One operation on `file`: its records from `buf` at `at`, durable on
    /// return. False when any call failed.
    fn write(self, file: &File, at: u64, buf: &[u8]) -> bool {
        match self {
            Kind::Sync => file.write_at(at, buf).is_ok(),
            Kind::Group => {
                let len = self.record_len();
                let mut ok = true;
                for (i, record) in buf.chunks_exact(len).enumerate() {
                    ok &= file.write_at(at + (i * len) as u64, record).is_ok();
                }
                file.submit();
                ok & file.fsync().is_ok()
            }
        }
    }

    fn shape(self) -> Shape {
        Shape::uniform(self.record_len(), self.records_per_op(), self == Kind::Sync)
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Sync => "wal_sync",
            Kind::Group => "wal_group",
        }
    }
}

/// The seeded record stream. The system only ever sees what this
/// generates: a payload block drawn from a seeded pool, stamped with the
/// record's sequence number, at the next circular offset.
struct Stream {
    rng: Xoshiro256StarStar,
    pool: Vec<Vec<u8>>,
    kind: Kind,
    seq: u64,
    offset: u64,
    hash: u64,
}

impl Stream {
    fn new(seed: u64, kind: Kind) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed);
        let pool = (0..POOL)
            .map(|_| {
                let mut block = vec![0u8; kind.record_len()];
                rng.fill_bytes(&mut block);
                block
            })
            .collect();
        Stream {
            rng,
            pool,
            kind,
            seq: 0,
            offset: 0,
            hash: crate::FNV_OFFSET,
        }
    }

    /// Generates the next operation's records into `buf` (`op_bytes` long)
    /// and returns the log offset they go to.
    fn next_op(&mut self, buf: &mut [u8]) -> u64 {
        let len = self.kind.record_len();
        if self.offset as usize + buf.len() > REGION {
            self.offset = 0;
        }
        let at = self.offset;
        for record in buf.chunks_exact_mut(len) {
            let block = self.rng.next_below(POOL as u64);
            record.copy_from_slice(&self.pool[block as usize]);
            record[..8].copy_from_slice(&self.seq.to_le_bytes());
            self.hash = crate::fnv1a(self.hash, &[block, self.seq, self.offset]);
            self.seq += 1;
            self.offset += len as u64;
        }
        at
    }

    /// Fingerprint of the first 4096 operations of the stream for `seed`.
    fn fingerprint(seed: u64, kind: Kind) -> u64 {
        let mut s = Stream::new(seed, kind);
        let mut buf = vec![0u8; kind.op_bytes()];
        for _ in 0..4096 {
            s.next_op(&mut buf);
        }
        let pool_crc = s.pool.iter().fold(0, |c, b| sim::crc32c_extend(c, b));
        crate::fnv1a(s.hash, &[pool_crc as u64])
    }
}

/// One mounted log with the image the benchmark expects it to hold.
struct Log {
    fs: SplitFs,
    file: File,
    kind: Kind,
    stream: Stream,
    expected: Vec<u8>,
    buf: Vec<u8>,
    ops: u64,
    errors: u64,
}

impl Log {
    /// Mount, create the log and write it once end to end in 1 MiB records,
    /// so every page of the local buffer and of the peers' regions is
    /// touched before anything is timed.
    fn create(tb: &Testbed, seed: u64, kind: Kind) -> Self {
        let (fs, _) = tb.mount(Mode::SplitFt, APP);
        let file = fs.open(LOG, kind.open_options()).expect("log creates");
        let mut expected = vec![0u8; REGION];
        Xoshiro256StarStar::new(seed ^ 0x9E37_79B9).fill_bytes(&mut expected);
        for (i, chunk) in expected.chunks(1 << 20).enumerate() {
            file.write_at((i as u64) << 20, chunk)
                .expect("log prefills");
        }
        file.submit();
        file.fsync().expect("prefill is durable");
        Log {
            fs,
            file,
            kind,
            stream: Stream::new(seed, kind),
            expected,
            buf: vec![0u8; kind.op_bytes()],
            ops: 0,
            errors: 0,
        }
    }

    /// Generates one operation (untimed) and issues it (timed). With `spans`
    /// every call into `splitfs` gets a span under the operation's root.
    fn op(&mut self, spans: Option<&mut SpanLog>) -> (Instant, Instant) {
        let at = self.stream.next_op(&mut self.buf);
        self.expected[at as usize..at as usize + self.buf.len()].copy_from_slice(&self.buf);
        let (t0, t1, ok) = match spans {
            None => self.issue(at),
            Some(log) => self.issue_traced(at, log),
        };
        self.ops += 1;
        if !ok {
            self.errors += 1;
        }
        (t0, t1)
    }

    fn issue(&self, at: u64) -> (Instant, Instant, bool) {
        let t0 = Instant::now();
        let ok = self.kind.write(&self.file, at, &self.buf);
        (t0, Instant::now(), ok)
    }

    fn issue_traced(&self, at: u64, log: &mut SpanLog) -> (Instant, Instant, bool) {
        let op = self.ops;
        let t0 = Instant::now();
        match self.kind {
            Kind::Sync => {
                let ok = self.file.write_at(at, &self.buf).is_ok();
                let t1 = Instant::now();
                log.record("splitfs.write_at", t0, t1, 0, op);
                (t0, t1, ok)
            }
            Kind::Group => {
                let len = self.kind.record_len();
                let mut ok = true;
                let mut calls = [t0; 19];
                for (i, record) in self.buf.chunks_exact(len).enumerate() {
                    ok &= self.file.write_at(at + (i * len) as u64, record).is_ok();
                    calls[i + 1] = Instant::now();
                }
                self.file.submit();
                calls[17] = Instant::now();
                ok &= self.file.fsync().is_ok();
                calls[18] = Instant::now();
                let root = log.record("bench.commit", t0, calls[18], 0, op);
                for i in 0..16 {
                    log.record("splitfs.write_at", calls[i], calls[i + 1], root, op);
                }
                log.record("splitfs.submit", calls[16], calls[17], root, op);
                log.record("splitfs.fsync", calls[17], calls[18], root, op);
                (t0, calls[18], ok)
            }
        }
    }

    /// Runs `n` untimed operations.
    fn warm_up(&mut self, n: u64) {
        for _ in 0..n {
            self.op(None);
        }
    }

    /// Runs operations for `window`, returning what each whole second of it
    /// did.
    fn timed(&mut self, window: Duration, mut spans: Option<&mut SpanLog>) -> Window {
        let per_op = self.kind.records_per_op() as u64;
        let (ops0, start) = (self.ops, Instant::now());
        let mut slices = stats::window_slices(window);
        let mut prober = Prober::start();
        loop {
            let (t0, t1) = self.op(spans.as_deref_mut());
            if let Some(slice) = slices.get_mut(stats::slice_at(start, t1)) {
                slice.record(per_op, t1 - t0);
                prober.tick(t1, slice);
            }
            if t1 - start >= window {
                return Window {
                    slices,
                    records: (self.ops - ops0) * per_op,
                    elapsed: t1 - start,
                };
            }
        }
    }

    /// Re-reads the whole log through `File::read` and compares a rolling
    /// CRC with the image the stream should have left. Returns whether they
    /// agree and the mean time of one read call in nanoseconds.
    fn verify(&self) -> (bool, f64) {
        let mut crc = 0u32;
        let mut reading = Duration::ZERO;
        for at in (0..REGION).step_by(READ_CHUNK) {
            let t = Instant::now();
            let chunk = self.file.read(at as u64, READ_CHUNK);
            reading += t.elapsed();
            match chunk {
                Ok(c) if c.len() == READ_CHUNK => crc = sim::crc32c_extend(crc, &c),
                _ => return (false, 0.0),
            }
        }
        (
            crc == sim::crc32c(&self.expected),
            reading.as_nanos() as f64 / (REGION / READ_CHUNK) as f64,
        )
    }
}

struct Window {
    /// The records and write latencies of each whole second.
    slices: Vec<Slice>,
    records: u64,
    elapsed: Duration,
}

pub fn run(kind: Kind, cfg: &RunCfg) -> RunResult {
    if cfg.traced {
        run_traced(kind, cfg)
    } else {
        run_untraced(kind, cfg)
    }
}

fn run_untraced(kind: Kind, cfg: &RunCfg) -> RunResult {
    let mut phases = env::Phases::start();
    let (mut bed, setups) = env::set_up(SETUPS, |tb| Log::create(tb, cfg.seed, kind));
    let log = &mut bed.subject;
    phases.mark("set-ups");
    log.warm_up(kind.warmup_ops());
    phases.mark("warm-up");
    let window = log.timed(cfg.window(), None);
    phases.mark("window");
    let (intact, _) = log.verify();
    phases.mark("read-back");

    let quiet = Quiet::among(&window.slices);
    let lat = quiet.lat();
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("ops_per_s", quiet.rate());
    values.insert("write_p50_us", lat.percentile(50.0) / 1e3);
    values.insert("peak_rss_mb", env::peak_rss_mb());

    let mut notes = vec![
        format!(
            "{} of {} one-second slices quiet; write samples {} (p99 {:.1} us, p99.9 {:.1} us, highest resolved percentile p{})",
            quiet.kept.len(),
            quiet.of,
            lat.count(),
            lat.percentile(99.0) / 1e3,
            lat.percentile(99.9) / 1e3,
            stats::highest_percentile(lat.count()).unwrap_or(0.0)
        ),
        format!(
            "ops/wall {:.0} records/s; records per slice {:?}; host index per slice {:.0?}",
            window.records as f64 / window.elapsed.as_secs_f64(),
            window.slices.iter().map(|s| s.ops).collect::<Vec<_>>(),
            window.slices.iter().map(Slice::host_index).collect::<Vec<_>>()
        ),
        format!("set-ups (s): {setups:.3?}"),
        phases.note(),
    ];
    if log.errors > 0 {
        notes.push(format!("{} operations returned an error", log.errors));
    }
    if !intact {
        notes.push("the log read back differs from the generated stream".into());
    }
    RunResult {
        attempted: log.ops + 1,
        failed: log.errors + u64::from(!intact),
        values,
        stream_hash: Stream::fingerprint(cfg.seed, kind),
        notes,
    }
}

/// Two fixed-length repetitions of the stream on fresh logs must leave
/// bit-identical counts in the system's own telemetry.
fn determinism(tb: &Testbed, fs: &SplitFs, seed: u64, kind: Kind) -> Result<(), String> {
    let tel = tb.config().ncl.telemetry.clone();
    let ops = DETERMINISM_RECORDS / kind.records_per_op() as u64;
    let mut seen: Option<[u64; 4]> = None;
    for rep in 0..2 {
        let path = format!("determinism-{rep}");
        let file = fs
            .open(&path, kind.open_options())
            .expect("probe log creates");
        let mut stream = Stream::new(seed, kind);
        let mut buf = vec![0u8; kind.op_bytes()];
        let before = Probe::take(&tel);
        for _ in 0..ops {
            let at = stream.next_op(&mut buf);
            assert!(kind.write(&file, at, &buf), "probe write");
        }
        let w = before.until(&Probe::take(&tel));
        let counts = [
            w.hist_count("ncl.record.e2e"),
            w.hist_count("rdma.wr.wire"),
            w.ncl_bursts(),
            w.counter("ncl.wire.bytes"),
        ];
        drop(file);
        fs.unlink(&path).expect("probe log releases");
        match seen {
            None => seen = Some(counts),
            Some(first) if first != counts => {
                return Err(format!(
                    "equal seeds gave different counts [records, wrs, bursts, wire bytes]: {first:?} vs {counts:?}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn run_traced(kind: Kind, cfg: &RunCfg) -> RunResult {
    let wall = Instant::now();
    let tb = env::testbed();
    let tel = tb.config().ncl.telemetry.clone();
    let mut log = Log::create(&tb, cfg.seed, kind);
    let io = IoTrace::new();
    log.fs.set_trace(Arc::clone(&io));
    log.warm_up(kind.warmup_ops());

    // The same stream untraced, then traced: the reference the ladder must
    // add up to, and the cost of this benchmark's own spans.
    let reference = log.timed(cfg.share(0.2), None);
    let mut spans = SpanLog::new(Instant::now());
    io.enable();
    let before = Probe::take(&tel);
    let (cpu_before, ops_before) = (env::cpu_seconds(), log.ops);
    let traced = log.timed(cfg.share(0.25), Some(&mut spans));
    let cpu_traced = env::cpu_seconds() - cpu_before;
    let traced_ops = log.ops - ops_before;
    let counts = before.until(&Probe::take(&tel));
    io.disable();
    let events = io.events();

    let (reference, traced_records) = (Quiet::among(&reference.slices), traced.records);
    let traced = Quiet::among(&traced.slices);
    let (reference_lat, traced_lat) = (reference.lat(), traced.lat());
    let mut values = Values::new();
    let user_bytes = traced_records * kind.record_len() as u64;
    counts.layer_counts(user_bytes, &mut values);
    let calls = kind.calls_per_op();
    // Inside a commit span the benchmark itself only reads the clock
    // between calls; what is left belongs to the `splitfs` calls.
    let own_ns = spans.mean_root_self_ns().unwrap_or(0.0);
    values.insert("splitfs.calls_per_op", calls);
    values.insert(
        "splitfs.busy_ns_per_call",
        (traced_lat.mean() - own_ns) / calls,
    );
    values.insert(
        "splitfs.ncl_writes",
        events.iter().filter(|e| e.path == LOG).count() as f64,
    );
    values.insert(
        "splitfs.dfs_writes",
        events.iter().filter(|e| e.path != LOG).count() as f64,
    );
    values.insert("bench.trace_overhead", reference.rate() / traced.rate());
    values.insert(
        "bench.cpu_us_per_op",
        cpu_traced * 1e6 / traced_ops.max(1) as f64,
    );

    let mut failed = log.errors;
    let mut attempted = 0u64;
    let mut notes = Vec::new();
    if let Err(why) = determinism(&tb, &log.fs, cfg.seed, kind) {
        failed += 1;
        notes.push(format!("determinism check failed: {why}"));
    }
    attempted += 1;

    // The ladder, one layer lower each rung, on fresh 16 MiB regions. The
    // workload's own traced stream is the `splitfs` rung.
    let shape = kind.shape();
    let climb = ladder::climb(&tb, &log.fs, &shape, cfg.share(0.4), &mut spans);
    let ncl_cfg = &tb.config().ncl;
    let rungs = Ladder {
        apps: 0.0,
        splitfs: traced_lat.percentile(50.0),
        ncl: climb.ncl.p50_ns(),
        rdma: climb.rdma.p50_ns(),
        sim: ladder::modelled_ns(ncl_cfg, &shape),
    };
    let own = rungs.self_costs();
    let records = kind.records_per_op() as f64;
    let reference_p50 = reference_lat.percentile(50.0);
    values.insert("write_p99_us", reference_lat.percentile(99.0) / 1e3);
    let gap = stats::ladder_gap_share(&own, reference_p50);
    values.insert("splitfs.self_ns_per_call", own.splitfs / calls);
    values.insert("ncl.busy_ns_per_record", rungs.ncl / records);
    values.insert("ncl.self_ns_per_record", own.ncl / records);
    values.insert("rdma.busy_ns_per_wr", rungs.rdma / climb.wrs_per_burst);
    values.insert(
        "rdma.self_ns_per_wr",
        rungs.rdma / climb.wrs_per_burst - ladder::modelled_ns_per_wr(ncl_cfg, &shape),
    );
    values.insert("rdma.errored_wrs", climb.errored_wrs as f64);
    values.insert("sim.modelled_ns_per_op", rungs.sim);
    values.insert("sim.modelled_share", rungs.sim / reference_p50);
    values.insert("bench.ladder_gap_share", gap);
    values.insert(
        "telemetry.on_over_off",
        climb.splitfs.records_per_s() / climb.splitfs_quiet.records_per_s(),
    );
    notes.push(format!(
        "ladder per {} (ns): splitfs {:.0} | ncl {:.0} | rdma {:.0} | sim {:.0}; self: splitfs {:.0} + ncl {:.0} + rdma {:.0} + sim {:.0} = {:.0} vs untraced p50 {:.0} -> {}",
        if kind == Kind::Sync { "write" } else { "commit" },
        rungs.splitfs, rungs.ncl, rungs.rdma, rungs.sim,
        own.splitfs, own.ncl, own.rdma, own.sim, own.sum(), reference_p50,
        if gap <= stats::LADDER_TOLERANCE { "resolved" } else { "unresolved" },
    ));

    // Reads, creation cost and the peers' memory.
    let (intact, read_ns) = log.verify();
    attempted += 1;
    failed += u64::from(!intact);
    values.insert("splitfs.read_ns_per_call", read_ns);
    env::deployment_state(&tb, &log.fs, kind.open_options(), &mut values);

    let mut gen = Stream::new(cfg.seed, kind);
    let mut buf = vec![0u8; kind.op_bytes()];
    let t = Instant::now();
    for _ in 0..20_000 {
        std::hint::black_box(gen.next_op(&mut buf));
    }
    values.insert(
        "ycsb.gen_ns_per_op",
        t.elapsed().as_nanos() as f64 / 20_000.0,
    );
    values.insert("bench.client_threads", 1.0);
    values.insert("bench.wall_s", wall.elapsed().as_secs_f64());

    notes.push(spans.save(&format!("trace-{}.jsonl", kind.name())));
    RunResult {
        attempted: attempted + log.ops,
        failed,
        values,
        stream_hash: Stream::fingerprint(cfg.seed, kind),
        notes,
    }
}
