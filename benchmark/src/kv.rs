//! `ycsb_a` and `ycsb_b`: closed-loop client threads against one loaded
//! minirocks on `Mode::SplitFt`; and what `failover` shares with them (the
//! mounted store, the timed call, the view below the app).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::{KvApp, MiniRocks, RocksOptions};
use dfs::{IoEvent, IoTrace};
use sim::{NodeId, Xoshiro256StarStar};
use splitfs::{File, Mode, OpenOptions, SplitFs, Testbed};
use telemetry::Histogram;
use ycsb::workload::key_of;
use ycsb::{OpKind, Workload};

use crate::env;
use crate::ladder::{self, Shape, REGION};
use crate::stats::{self, median, Ladder, Prober, Quiet, Slice};
use crate::tel::Probe;
use crate::trace::SpanLog;
use crate::{RunCfg, RunResult, Values};

/// Records loaded before a YCSB window: about 2.5 memtables, so SSTables
/// exist and reads reach `splitfs`/`dfs`.
const RECORDS: u64 = 50_000;
pub const VALUE_LEN: usize = 100;
pub const POOL: usize = 64;
/// One key in this many is tracked for the read-your-writes check.
const SAMPLE: u64 = 256;
/// Operations each client runs before anything is timed.
const WARMUP_OPS: u64 = 20_000;
/// Set-ups of an untraced run (each loads the store).
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    A,
    B,
}

impl Mix {
    fn workload(self) -> Workload {
        match self {
            Mix::A => Workload::a(RECORDS),
            Mix::B => Workload::b(RECORDS),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::A => "ycsb_a",
            Mix::B => "ycsb_b",
        }
    }
}

fn ycsb_options() -> RocksOptions {
    RocksOptions {
        memtable_bytes: 4 << 20,
        wal_capacity: 12 << 20,
        ..RocksOptions::default()
    }
}

pub fn payload_pool(seed: u64) -> Arc<Vec<Vec<u8>>> {
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x7A11_0C8D);
    Arc::new(
        (0..POOL)
            .map(|_| {
                let mut block = vec![0u8; VALUE_LEN];
                rng.fill_bytes(&mut block);
                block
            })
            .collect(),
    )
}

/// A value: a pool block stamped with who wrote which version of which key.
pub fn stamped(pool: &[Vec<u8>], block: u64, key: u64, writer: u64, version: u64) -> Vec<u8> {
    let mut v = pool[block as usize].clone();
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&writer.to_le_bytes());
    v[16..24].copy_from_slice(&version.to_le_bytes());
    v
}

const LOADER: u64 = u64::MAX;

fn loaded_value(pool: &[Vec<u8>], key: u64) -> Vec<u8> {
    stamped(pool, key % POOL as u64, key, LOADER, 0)
}

pub enum Op {
    Read(String),
    Update(String, Vec<u8>),
}

/// One closed-loop client's seeded operation stream.
struct Client {
    id: u64,
    rng: Xoshiro256StarStar,
    workload: Workload,
    pool: Arc<Vec<Vec<u8>>>,
    version: u64,
    /// Last value this client wrote to each sampled key.
    written: HashMap<u64, Vec<u8>>,
    hash: u64,
}

impl Client {
    fn new(seed: u64, id: u64, mix: Mix, pool: Arc<Vec<Vec<u8>>>) -> Self {
        Client {
            id,
            rng: Xoshiro256StarStar::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id),
            workload: mix.workload(),
            pool,
            version: 0,
            written: HashMap::new(),
            hash: crate::FNV_OFFSET,
        }
    }

    fn next_op(&mut self) -> Op {
        let kind = self.workload.next_op(&mut self.rng);
        let key = self.workload.chooser.next(&mut self.rng, RECORDS);
        match kind {
            OpKind::Read => {
                self.hash = crate::fnv1a(self.hash, &[0, key]);
                Op::Read(key_of(key))
            }
            _ => self.update_of(key),
        }
    }

    fn update_of(&mut self, key: u64) -> Op {
        let block = self.rng.next_below(POOL as u64);
        let value = stamped(&self.pool, block, key, self.id, self.version);
        self.version += 1;
        self.hash = crate::fnv1a(self.hash, &[1, key, block]);
        if key.is_multiple_of(SAMPLE) {
            self.written.insert(key, value.clone());
        }
        Op::Update(key_of(key), value)
    }
}

fn stream_fingerprint(seed: u64, mix: Mix, clients: usize) -> u64 {
    let pool = payload_pool(seed);
    let pool_crc = pool.iter().fold(0, |c, b| sim::crc32c_extend(c, b));
    (0..clients as u64).fold(
        crate::fnv1a(crate::FNV_OFFSET, &[pool_crc as u64]),
        |h, id| {
            let mut c = Client::new(seed, id, mix, Arc::clone(&pool));
            for _ in 0..4096 {
                c.next_op();
            }
            crate::fnv1a(h, &[c.hash])
        },
    )
}

/// One mounted minirocks instance.
pub struct Store {
    app: String,
    /// `<app>/`: every mount shares one DFS namespace, so each store keeps
    /// its files under its own application id.
    prefix: String,
    opts: RocksOptions,
    pub fs: SplitFs,
    node: NodeId,
    pub db: MiniRocks,
}

impl Store {
    pub fn open(tb: &Testbed, mode: Mode, app: &str, opts: RocksOptions) -> Self {
        let (fs, node) = tb.mount(mode, app);
        let prefix = format!("{app}/");
        let db = MiniRocks::open(fs.clone(), &prefix, opts.clone()).expect("store opens");
        Store {
            app: app.to_string(),
            prefix,
            opts,
            fs,
            node,
            db,
        }
    }

    /// Loads the YCSB records, split across `clients` loader threads.
    fn load(&self, pool: &[Vec<u8>], clients: usize) {
        std::thread::scope(|s| {
            for c in 0..clients as u64 {
                let db = &self.db;
                s.spawn(move || {
                    for key in (c..RECORDS).step_by(clients) {
                        db.insert(&key_of(key), &loaded_value(pool, key))
                            .expect("load insert");
                    }
                });
            }
        });
        self.db.quiesce();
    }

    /// The handle of the active WAL (the newest `wal-` file), shared with
    /// the store's own commit thread.
    pub fn wal(&self) -> File {
        let path = self
            .fs
            .list(&format!("{}wal-", self.prefix))
            .expect("controller lists the app's files")
            .pop()
            .expect("an open store has an active WAL");
        let opts = OpenOptions {
            create: false,
            ncl: true,
            capacity: self.opts.wal_capacity,
            pipelined: self.opts.pipelined_wal,
        };
        self.fs.open(&path, opts).expect("active WAL reopens")
    }

    /// Crashes the application node, then times remount → `MiniRocks::open`
    /// (NCL recovery + WAL replay) → one `get` of `probe`, which must return
    /// the acknowledged value.
    pub fn crash_and_recover(
        &mut self,
        tb: &Testbed,
        probe: (&str, &[u8]),
    ) -> (Duration, ncl::file::RecoveryStats, bool) {
        tb.cluster.crash(self.node);
        let t = Instant::now();
        let (fs, node) = tb.mount(Mode::SplitFt, &self.app);
        let db =
            MiniRocks::open(fs.clone(), &self.prefix, self.opts.clone()).expect("store recovers");
        let got = db.get(probe.0.as_bytes());
        let took = t.elapsed();
        let ok = matches!(got, Ok(Some(v)) if v == probe.1);
        let stats = fs.last_ncl_recovery().unwrap_or_default();
        // Replacing the dead instance joins its threads: housekeeping of this
        // process, not part of the recovery a user waits for.
        self.db = db;
        self.fs = fs;
        self.node = node;
        (took, stats, ok)
    }

    /// Deletes everything the store wrote, returning peer memory and DFS
    /// space (used between failover cycles).
    pub fn destroy(self) {
        let Store { fs, db, prefix, .. } = self;
        drop(db);
        for path in fs.list(&prefix).unwrap_or_default() {
            let _ = fs.unlink(&path);
        }
    }
}

/// What one client's window did.
pub struct Tally {
    start: Instant,
    /// The operations, and the latencies of the updates among them, of each
    /// whole second of the window.
    slices: Vec<Slice>,
    prober: Prober,
    /// Read latencies of the whole window (not gated, twenty times as many
    /// as updates on `ycsb_b`: a fixed-size histogram does).
    reads: Histogram,
    updates: u64,
    /// Time spent inside the store's calls.
    busy: Duration,
    pub ops: u64,
    pub errors: u64,
    user_bytes: u64,
}

impl Tally {
    /// For a window of `window` starting at `start` (`Duration::ZERO`: a run
    /// by count, nothing is sliced).
    pub fn new(start: Instant, window: Duration) -> Self {
        Tally {
            start,
            slices: stats::window_slices(window),
            prober: Prober::start(),
            reads: Histogram::new(),
            updates: 0,
            busy: Duration::ZERO,
            ops: 0,
            errors: 0,
            user_bytes: 0,
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.merge(theirs);
        }
        self.reads.merge(&other.reads);
        self.updates += other.updates;
        self.busy += other.busy;
        self.ops += other.ops;
        self.errors += other.errors;
        self.user_bytes += other.user_bytes;
    }

    fn busy_ns_per_op(&self) -> f64 {
        self.busy.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

/// Issues one operation, timed; with `spans`, under an `apps.*` span.
pub fn issue(db: &MiniRocks, op: Op, tally: &mut Tally, spans: Option<&mut SpanLog>) -> Instant {
    let t0 = Instant::now();
    let (ok, name) = match &op {
        Op::Read(key) => (matches!(db.read(key), Ok(Some(_))), "apps.read"),
        Op::Update(key, value) => (db.update(key, value).is_ok(), "apps.update"),
    };
    let t1 = Instant::now();
    let slice = tally.slices.get_mut(stats::slice_at(tally.start, t1));
    match &op {
        Op::Read(_) => {
            tally.reads.record_duration(t1 - t0);
            if let Some(slice) = slice {
                slice.count(1);
                tally.prober.tick(t1, slice);
            }
        }
        Op::Update(key, value) => {
            tally.updates += 1;
            tally.user_bytes += (key.len() + value.len()) as u64;
            if let Some(slice) = slice {
                slice.record(1, t1 - t0);
                tally.prober.tick(t1, slice);
            }
        }
    }
    tally.busy += t1 - t0;
    if let Some(log) = spans {
        log.record(name, t0, t1, 0, tally.ops);
    }
    tally.ops += 1;
    if !ok {
        tally.errors += 1;
    }
    t1
}

/// Runs every client for `window` (or `ops_each` operations when set) and
/// returns the merged tally, with every client's spans when asked to trace.
fn drive(
    db: &MiniRocks,
    clients: &mut [Client],
    window: Duration,
    ops_each: Option<u64>,
    trace_epoch: Option<Instant>,
) -> (Tally, Option<SpanLog>, Duration) {
    let start = Instant::now();
    let results: Vec<(Tally, Option<SpanLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut tally = Tally::new(start, window);
                    let mut spans = trace_epoch.map(SpanLog::new);
                    loop {
                        let op = client.next_op();
                        let t1 = issue(db, op, &mut tally, spans.as_mut());
                        let done = match ops_each {
                            Some(n) => tally.ops >= n,
                            None => t1 - start >= window,
                        };
                        if done {
                            return (tally, spans);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut merged = Tally::new(start, window);
    let mut log: Option<SpanLog> = None;
    for (tally, spans) in results {
        merged.absorb(tally);
        match (&mut log, spans) {
            (Some(all), Some(more)) => all.absorb(more),
            (None, Some(first)) => log = Some(first),
            _ => {}
        }
    }
    (merged, log, elapsed)
}

/// Read-your-writes on the sampled keys: each must hold the last value some
/// client wrote to it, or the loaded value if nobody did.
fn verify_sample(db: &MiniRocks, pool: &[Vec<u8>], clients: &[Client]) -> (u64, u64) {
    let (mut checked, mut wrong) = (0, 0);
    for key in (0..RECORDS).step_by(SAMPLE as usize) {
        let got = db.get(key_of(key).as_bytes());
        let mut candidates = clients.iter().filter_map(|c| c.written.get(&key));
        let ok = match &got {
            Ok(Some(v)) => {
                let untouched = clients.iter().all(|c| !c.written.contains_key(&key));
                candidates.any(|w| w == v) || (untouched && *v == loaded_value(pool, key))
            }
            _ => false,
        };
        checked += 1;
        wrong += u64::from(!ok);
    }
    (checked, wrong)
}

pub fn run(mix: Mix, cfg: &RunCfg) -> RunResult {
    if cfg.traced {
        ycsb_traced(mix, cfg)
    } else {
        ycsb_untraced(mix, cfg)
    }
}

fn new_clients(cfg: &RunCfg, mix: Mix, pool: &Arc<Vec<Vec<u8>>>) -> Vec<Client> {
    (0..crate::clients() as u64)
        .map(|id| Client::new(cfg.seed, id, mix, Arc::clone(pool)))
        .collect()
}

/// Opens the SplitFT store of a YCSB run and loads it.
fn loaded_store(tb: &Testbed, mix: Mix, pool: &[Vec<u8>]) -> Store {
    let store = Store::open(tb, Mode::SplitFt, mix.name(), ycsb_options());
    store.load(pool, crate::clients());
    store
}

fn ycsb_untraced(mix: Mix, cfg: &RunCfg) -> RunResult {
    let mut phases = env::Phases::start();
    let pool = payload_pool(cfg.seed);
    let (bed, setups) = env::set_up(SETUPS, |tb| loaded_store(tb, mix, &pool));
    let db = &bed.subject.db;
    let mut clients = new_clients(cfg, mix, &pool);
    phases.mark("set-ups");

    let (warm, _, _) = drive(db, &mut clients, Duration::ZERO, Some(WARMUP_OPS), None);
    phases.mark("warm-up");
    let (run, _, elapsed) = drive(db, &mut clients, cfg.window(), None, None);
    phases.mark("window");
    let (checked, wrong) = verify_sample(db, &pool, &clients);
    phases.mark("check");

    let quiet = Quiet::among(&run.slices);
    let updates = quiet.lat();
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("ops_per_s", quiet.rate());
    values.insert("write_p50_us", updates.percentile(50.0) / 1e3);
    values.insert("peak_rss_mb", env::peak_rss_mb());

    let notes = vec![
        format!(
            "{} clients; {} of {} one-second slices quiet; update samples {} (p99 {:.1} us, p99.9 {:.1} us, highest resolved percentile p{}), read samples {}",
            clients.len(),
            quiet.kept.len(),
            quiet.of,
            updates.count(),
            updates.percentile(99.0) / 1e3,
            updates.percentile(99.9) / 1e3,
            stats::highest_percentile(updates.count()).unwrap_or(0.0),
            run.reads.count(),
        ),
        format!(
            "ops/wall {:.0}/s; ops per slice {:?}; host index per slice {:.0?}; since open: flushes {}, compactions {}, write stalls {}",
            run.ops as f64 / elapsed.as_secs_f64(),
            run.slices.iter().map(|s| s.ops).collect::<Vec<_>>(),
            run.slices.iter().map(Slice::host_index).collect::<Vec<_>>(),
            db.flush_count(),
            db.compaction_count(),
            db.stall_count()
        ),
        format!("set-ups (s): {setups:.3?}"),
        phases.note(),
    ];
    RunResult {
        attempted: warm.ops + run.ops + checked,
        failed: warm.errors + run.errors + wrong,
        values,
        stream_hash: stream_fingerprint(cfg.seed, mix, clients.len()),
        notes,
    }
}

fn is_wal(e: &IoEvent) -> bool {
    e.path.contains("wal-")
}

/// What the IO trace of a window says about the layers below the app.
pub struct IoCounts {
    ncl_events: u64,
    ncl_bytes: u64,
    dfs_flushes: u64,
    dfs_flush_bytes: u64,
    dfs_fetches: u64,
    dfs_fetch_bytes: u64,
    /// The NCL record sizes, in order, as the ladder's stream.
    shape: Shape,
    median_flush: usize,
}

pub fn io_counts(events: &[IoEvent]) -> IoCounts {
    let ncl: Vec<usize> = events
        .iter()
        .filter(|e| is_wal(e))
        .map(|e| e.bytes)
        .collect();
    let dfs = |kind| {
        events
            .iter()
            .filter(move |e| !is_wal(e) && e.kind == kind)
            .map(|e| e.bytes)
    };
    let mut flushes: Vec<usize> = dfs(dfs::IoKind::FlushWrite).collect();
    flushes.sort_unstable();
    IoCounts {
        ncl_events: ncl.len() as u64,
        ncl_bytes: ncl.iter().sum::<usize>() as u64,
        dfs_flushes: flushes.len() as u64,
        dfs_flush_bytes: flushes.iter().sum::<usize>() as u64,
        dfs_fetches: dfs(dfs::IoKind::FetchRead).count() as u64,
        dfs_fetch_bytes: dfs(dfs::IoKind::FetchRead).sum::<usize>() as u64,
        median_flush: flushes.get(flushes.len() / 2).copied().unwrap_or(0),
        shape: Shape {
            // One record per group commit, made durable on its own — what
            // the commit thread does (`write_at` + `submit` + `fsync`).
            bursts: ncl
                .iter()
                .take(4096)
                .map(|&b| vec![b.min(REGION)])
                .collect(),
            sync: false,
        },
    }
}

/// Everything below the app, shared by the traced YCSB and failover runs:
/// the ladder for the captured NCL stream, the DFS rung, read timing, the
/// creation probe and the host checks.
#[allow(clippy::too_many_arguments)]
pub fn below_the_app(
    tb: &Testbed,
    store: &Store,
    cfg: &RunCfg,
    io: &IoCounts,
    write_p50_traced: f64,
    write_p50_reference: f64,
    spans: &mut SpanLog,
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    let fs = &store.fs;
    let ncl_cfg = &tb.config().ncl;
    let mut rungs = Ladder {
        apps: write_p50_traced,
        ..Ladder::default()
    };
    if !io.shape.bursts.is_empty() {
        let climb = ladder::climb(tb, fs, &io.shape, cfg.share(0.32), spans);
        rungs.splitfs = climb.splitfs.p50_ns();
        rungs.ncl = climb.ncl.p50_ns();
        rungs.rdma = climb.rdma.p50_ns();
        rungs.sim = ladder::modelled_ns(ncl_cfg, &io.shape);
        // Three File calls per group commit: write_at, submit, fsync.
        values.insert("splitfs.busy_ns_per_call", climb.splitfs.mean_ns() / 3.0);
        values.insert("ncl.busy_ns_per_record", rungs.ncl);
        values.insert("rdma.busy_ns_per_wr", rungs.rdma / climb.wrs_per_burst);
        values.insert(
            "rdma.self_ns_per_wr",
            rungs.rdma / climb.wrs_per_burst - ladder::modelled_ns_per_wr(ncl_cfg, &io.shape),
        );
        values.insert("rdma.errored_wrs", climb.errored_wrs as f64);
        values.insert(
            "telemetry.on_over_off",
            climb.splitfs.records_per_s() / climb.splitfs_quiet.records_per_s(),
        );
    }
    let own = rungs.self_costs();
    let gap = stats::ladder_gap_share(&own, write_p50_reference);
    values.insert("splitfs.self_ns_per_call", own.splitfs / 3.0);
    values.insert("ncl.self_ns_per_record", own.ncl);
    values.insert("sim.modelled_ns_per_op", rungs.sim);
    values.insert(
        "sim.modelled_share",
        rungs.sim / write_p50_reference.max(1.0),
    );
    values.insert("bench.ladder_gap_share", gap);
    notes.push(format!(
        "ladder per durable write (ns): apps {:.0} | splitfs {:.0} | ncl {:.0} | rdma {:.0} | sim {:.0}; self: apps {:.0} + splitfs {:.0} + ncl {:.0} + rdma {:.0} + sim {:.0} = {:.0} vs untraced p50 {:.0} -> {}",
        rungs.apps, rungs.splitfs, rungs.ncl, rungs.rdma, rungs.sim,
        own.apps, own.splitfs, own.ncl, own.rdma, own.sim, own.sum(), write_p50_reference,
        if gap <= stats::LADDER_TOLERANCE { "resolved" } else { "unresolved" },
    ));

    // DFS rung: a bulk write + fsync at the flush size the app produced.
    if io.median_flush > 0 {
        let dfs = fs.dfs().expect("SplitFT mount has a DFS client");
        let data = vec![0x3Cu8; io.median_flush];
        dfs.create("dfs-rung").expect("rung file creates");
        let rounds = 5;
        let t = Instant::now();
        for i in 0..rounds {
            dfs.write("dfs-rung", (i * data.len()) as u64, &data)
                .expect("rung bulk write");
            dfs.fsync("dfs-rung").expect("rung fsync");
        }
        values.insert(
            "dfs.fsync_ns_per_call",
            t.elapsed().as_nanos() as f64 / rounds as f64,
        );
        dfs.delete("dfs-rung").expect("rung file deletes");
    }

    // Timed block reads of the newest SSTable through `File::read`.
    if let Some(sst) = fs
        .list(&format!("{}sst-", store.prefix))
        .unwrap_or_default()
        .pop()
    {
        if let Ok(f) = fs.open(&sst, OpenOptions::plain()) {
            let size = f.size().unwrap_or(0);
            let mut reads = Histogram::new();
            let mut at = 0;
            while at + 4096 <= size && reads.count() < 4096 {
                let t = Instant::now();
                let _ = std::hint::black_box(f.read(at, 4096));
                reads.record_duration(t.elapsed());
                at += 4096;
            }
            values.insert("splitfs.read_ns_per_call", reads.mean());
        }
    }

    env::deployment_state(tb, fs, OpenOptions::create_ncl_pipelined(REGION), values);
}

/// The app-level ratios a window's tally and IO trace give.
pub fn app_ratios(tally: &Tally, io: &IoCounts, values: &mut Values) {
    let per_user_byte = |b: u64| {
        if tally.user_bytes == 0 {
            0.0
        } else {
            b as f64 / tally.user_bytes as f64
        }
    };
    let updates = tally.updates;
    values.insert("apps.calls", tally.ops as f64);
    values.insert("apps.errors", tally.errors as f64);
    values.insert(
        "apps.records_per_commit",
        if io.ncl_events == 0 {
            0.0
        } else {
            updates as f64 / io.ncl_events as f64
        },
    );
    values.insert("apps.ncl_bytes_per_user_byte", per_user_byte(io.ncl_bytes));
    values.insert(
        "apps.dfs_bytes_per_user_byte",
        per_user_byte(io.dfs_flush_bytes),
    );
    // File calls the app makes per user operation: three per group commit
    // (write_at, submit, fsync) and one bulk write + fsync per flush.
    values.insert(
        "splitfs.calls_per_op",
        (3 * io.ncl_events + 2 * io.dfs_flushes) as f64 / tally.ops.max(1) as f64,
    );
    values.insert("splitfs.ncl_writes", io.ncl_events as f64);
    values.insert("splitfs.dfs_writes", io.dfs_flushes as f64);
    values.insert("dfs.flush_writes", io.dfs_flushes as f64);
    values.insert("dfs.flush_bytes", io.dfs_flush_bytes as f64);
    values.insert("dfs.fetch_reads", io.dfs_fetches as f64);
    values.insert("dfs.fetch_bytes", io.dfs_fetch_bytes as f64);
}

fn generator_cost(mut next: impl FnMut()) -> f64 {
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        next();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn ycsb_traced(mix: Mix, cfg: &RunCfg) -> RunResult {
    let wall = Instant::now();
    let pool = payload_pool(cfg.seed);
    let tb = env::testbed();
    let tel = tb.config().ncl.telemetry.clone();
    let store = loaded_store(&tb, mix, &pool);
    let io = IoTrace::new();
    store.fs.set_trace(Arc::clone(&io));
    let mut clients = new_clients(cfg, mix, &pool);
    let (warm, _, _) = drive(
        &store.db,
        &mut clients,
        Duration::ZERO,
        Some(WARMUP_OPS),
        None,
    );

    let (reference, _, ref_elapsed) = drive(&store.db, &mut clients, cfg.share(0.2), None, None);
    io.enable();
    let before = Probe::take(&tel);
    let cpu_before = env::cpu_seconds();
    let (traced, spans, traced_elapsed) = drive(
        &store.db,
        &mut clients,
        cfg.share(0.25),
        None,
        Some(Instant::now()),
    );
    let cpu_traced = env::cpu_seconds() - cpu_before;
    let counts = before.until(&Probe::take(&tel));
    io.disable();
    let mut spans = spans.expect("traced window returns spans");
    let seen = io_counts(&io.events());

    let mut values = Values::new();
    let mut notes = Vec::new();
    counts.layer_counts(traced.user_bytes, &mut values);
    app_ratios(&traced, &seen, &mut values);
    let busy_ns_per_op = traced.busy_ns_per_op();
    values.insert("apps.busy_ns_per_op", busy_ns_per_op);
    // The demoted end-to-end metrics, from the untraced window: read latency
    // lives on this workload only, the write p99 repeats inside no bound.
    let read_us = |p| reference.reads.percentile(p).unwrap_or(0) as f64 / 1e3;
    values.insert("read_p50_us", read_us(50.0));
    values.insert("read_p99_us", read_us(99.0));
    let reference_updates = Quiet::among(&reference.slices).lat();
    values.insert("write_p99_us", reference_updates.percentile(99.0) / 1e3);
    values.insert("apps.flushes", store.db.flush_count() as f64);
    values.insert("apps.compactions", store.db.compaction_count() as f64);
    values.insert("apps.write_stalls", store.db.stall_count() as f64);
    let ref_rate = reference.ops as f64 / ref_elapsed.as_secs_f64();
    let traced_rate = traced.ops as f64 / traced_elapsed.as_secs_f64();
    values.insert("bench.trace_overhead", ref_rate / traced_rate);
    values.insert(
        "bench.cpu_us_per_op",
        cpu_traced * 1e6 / traced.ops.max(1) as f64,
    );

    // The same streams against the weak (buffered DFS) mode.
    {
        let weak = Store::open(&tb, Mode::WeakDft, "ycsb-weak", ycsb_options());
        weak.load(&pool, crate::clients());
        let mut weak_clients = new_clients(cfg, mix, &pool);
        drive(
            &weak.db,
            &mut weak_clients,
            Duration::ZERO,
            Some(WARMUP_OPS),
            None,
        );
        let (run, _, elapsed) = drive(&weak.db, &mut weak_clients, cfg.share(0.1), None, None);
        let weak_rate = run.ops as f64 / elapsed.as_secs_f64();
        values.insert("apps.splitft_over_weak", ref_rate / weak_rate);
    }

    below_the_app(
        &tb,
        &store,
        cfg,
        &seen,
        Quiet::among(&traced.slices).lat().percentile(50.0),
        reference_updates.percentile(50.0),
        &mut spans,
        &mut values,
        &mut notes,
    );
    // What the app adds per operation: its busy time minus what the layers
    // below cost on the share of operations that write.
    let update_share = traced.updates as f64 / traced.ops.max(1) as f64;
    let below = values
        .get("splitfs.busy_ns_per_call")
        .copied()
        .unwrap_or(0.0)
        * 3.0;
    values.insert(
        "apps.self_ns_per_op",
        (busy_ns_per_op - update_share * below).max(0.0),
    );

    let (checked, wrong) = verify_sample(&store.db, &pool, &clients);

    let mut gen = Client::new(cfg.seed, 0, mix, Arc::clone(&pool));
    values.insert(
        "ycsb.gen_ns_per_op",
        generator_cost(|| {
            std::hint::black_box(gen.next_op());
        }),
    );
    values.insert("bench.client_threads", clients.len() as f64);
    values.insert("bench.wall_s", wall.elapsed().as_secs_f64());

    notes.push(spans.save(&format!("trace-{}.jsonl", mix.name())));
    RunResult {
        attempted: warm.ops + reference.ops + traced.ops + checked,
        failed: warm.errors + reference.errors + traced.errors + wrong,
        values,
        stream_hash: stream_fingerprint(cfg.seed, mix, clients.len()),
        notes,
    }
}
