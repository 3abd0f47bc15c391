//! The layer ladder: the same byte stream re-issued one layer lower each
//! rung — `splitfs::File` → bare `NclFile` → bare `rdma::QueuePair`s →
//! the analytic sum of the latency models. A rung's cost per unit minus the
//! rung below is what that layer itself adds.

use std::time::{Duration, Instant};

use bytes::Bytes;
use ncl::{NclConfig, NclFile, NclLib};
use rdma::{CompletionQueue, QueuePair, RdmaDevice, RemoteMr, WrId};
use splitfs::{File, OpenOptions, SplitFs, Testbed};
use telemetry::Telemetry;

use crate::stats::{Prober, Quiet, Slice};
use crate::trace::SpanLog;

/// Region every rung writes into, circularly (no page-fault growth).
pub const REGION: usize = 16 << 20;
/// Region header the minimal protocol overwrites once per burst.
const HEADER: usize = 64;
/// Size of the writes that touch every page of a rung's fresh region before
/// the rung is timed (the workloads' own logs are prefilled the same way).
const PREFILL: usize = 1 << 20;
/// The rungs take turns, this many each, so that every rung sees the host at
/// several moments and finds it quiet in some of them.
const ROUNDS: usize = 5;

/// The stream a rung replays: a cycle of bursts, each a list of record
/// sizes made durable together.
pub struct Shape {
    pub bursts: Vec<Vec<usize>>,
    /// Synchronous handle (`record` per record) instead of a pipelined one
    /// (`record_nowait` per record, then `submit` + barrier per burst).
    pub sync: bool,
}

impl Shape {
    pub fn uniform(record: usize, per_burst: usize, sync: bool) -> Self {
        Shape {
            bursts: vec![vec![record; per_burst]],
            sync,
        }
    }

    fn max_record(&self) -> usize {
        self.bursts.iter().flatten().copied().max().unwrap_or(0)
    }

    fn open_options(&self) -> OpenOptions {
        if self.sync {
            OpenOptions::create_ncl(REGION)
        } else {
            OpenOptions::create_ncl_pipelined(REGION)
        }
    }
}

/// One rung's replay of a [`Shape`]: where it is in the stream and what it
/// has measured.
pub struct Rung<'a> {
    shape: &'a Shape,
    span: &'static str,
    payload: Vec<u8>,
    offset: u64,
    next_burst: usize,
    /// One slice per round.
    rounds: Vec<Slice>,
}

impl<'a> Rung<'a> {
    fn new(shape: &'a Shape, span: &'static str) -> Self {
        Rung {
            shape,
            span,
            payload: vec![0xA5u8; shape.max_record().max(PREFILL)],
            offset: 0,
            next_burst: 0,
            rounds: Vec::new(),
        }
    }

    /// Touches every page of the rung's region through `unit`, untimed.
    fn prefill(&self, unit: &mut impl FnMut(u64, &[usize], &[u8])) {
        for at in (0..REGION).step_by(PREFILL) {
            unit(at as u64, &[PREFILL], &self.payload);
        }
    }

    /// Continues the stream through `unit` for `window`, timing every burst.
    fn round(
        &mut self,
        window: Duration,
        spans: &mut SpanLog,
        unit: &mut impl FnMut(u64, &[usize], &[u8]),
    ) {
        let shape = self.shape;
        let round = self.rounds.len() as u64;
        let mut slice = Slice::default();
        let mut prober = Prober::start();
        let start = Instant::now();
        loop {
            let sizes = &shape.bursts[self.next_burst];
            self.next_burst = (self.next_burst + 1) % shape.bursts.len();
            let bytes: usize = sizes.iter().sum();
            if self.offset as usize + bytes > REGION {
                self.offset = 0;
            }
            let t0 = Instant::now();
            unit(self.offset, sizes, &self.payload);
            let t1 = Instant::now();
            slice.record(sizes.len() as u64, t1 - t0);
            prober.tick(t1, &mut slice);
            spans.record(self.span, t0, t1, 0, round);
            self.offset += bytes as u64;
            if t1 - start >= window {
                slice.lasted = t1 - start;
                self.rounds.push(slice);
                return;
            }
        }
    }

    /// Median per-burst latency over the quiet rounds.
    pub fn p50_ns(&self) -> f64 {
        Quiet::among(&self.rounds).lat().percentile(50.0)
    }

    pub fn mean_ns(&self) -> f64 {
        Quiet::among(&self.rounds).lat().mean()
    }

    /// Records per second: the median quiet round.
    pub fn records_per_s(&self) -> f64 {
        Quiet::among(&self.rounds).rate()
    }
}

fn splitfs_unit(file: &File, sync: bool) -> impl FnMut(u64, &[usize], &[u8]) + '_ {
    move |mut off, sizes, payload| {
        for &len in sizes {
            file.write_at(off, &payload[..len])
                .expect("splitfs rung write");
            off += len as u64;
        }
        if !sync {
            file.submit();
            file.fsync().expect("splitfs rung fsync");
        }
    }
}

fn ncl_unit(file: &NclFile, sync: bool) -> impl FnMut(u64, &[usize], &[u8]) + '_ {
    move |mut off, sizes, payload| {
        if sync {
            for &len in sizes {
                file.record(off, &payload[..len]).expect("ncl rung record");
                off += len as u64;
            }
        } else {
            let mut last = 0;
            for &len in sizes {
                last = file
                    .record_nowait(off, &payload[..len])
                    .expect("ncl rung record_nowait");
                off += len as u64;
            }
            file.submit();
            file.wait_durable(last).expect("ncl rung wait_durable");
        }
    }
}

/// Bare verbs to three fresh memory regions: the paper's minimal protocol.
struct Verbs {
    qps: Vec<(QueuePair, RemoteMr)>,
    cq: CompletionQueue,
    header: Bytes,
    burst: u64,
    errored: u64,
}

impl Verbs {
    fn connect(tb: &Testbed) -> Self {
        let cfg: &NclConfig = &tb.config().ncl;
        let local = tb.add_app_node("ladder-rdma-app");
        let cq = CompletionQueue::new();
        let qps = (0..cfg.replicas())
            .map(|i| {
                let node = tb.cluster.add_node(format!("ladder-rdma-peer-{i}"));
                let dev = RdmaDevice::new(tb.cluster.clone(), node, cfg.mr_register);
                let (_local_mr, remote_mr) =
                    dev.register_mr(HEADER + REGION).expect("rung MR registers");
                let qp = QueuePair::connect_with_mode(
                    tb.cluster.clone(),
                    local,
                    &dev,
                    cq.clone(),
                    cfg.rdma,
                    cfg.inline_nic,
                );
                (qp, remote_mr)
            })
            .collect();
        Verbs {
            qps,
            cq,
            header: Bytes::copy_from_slice(&[0x5Au8; HEADER]),
            burst: 0,
            errored: 0,
        }
    }

    /// Work requests one burst posts: a data and a header write per peer.
    fn wrs_per_burst(&self) -> f64 {
        2.0 * self.qps.len() as f64
    }

    /// Per burst and peer: one data WRITE (scatter-gather when the burst has
    /// several records) plus one 64-byte header WRITE; done when a majority
    /// of peers completed both.
    fn unit(&mut self) -> impl FnMut(u64, &[usize], &[u8]) + '_ {
        let quorum = self.qps.len() / 2 + 1;
        move |off, sizes, payload| {
            let at = HEADER + off as usize;
            // Odd ids mark this burst's header writes, so a straggler of an
            // earlier burst is never counted towards this one's quorum.
            self.burst += 1;
            let (data_id, header_id) = (WrId(2 * self.burst), WrId(2 * self.burst + 1));
            for (qp, mr) in &self.qps {
                if let [len] = sizes {
                    qp.post_write(data_id, mr, at, Bytes::copy_from_slice(&payload[..*len]))
                        .expect("rung data write posts");
                } else {
                    let slices = sizes
                        .iter()
                        .map(|&len| Bytes::copy_from_slice(&payload[..len]))
                        .collect();
                    qp.post_write_sg(data_id, mr, at, slices)
                        .expect("rung sg write posts");
                }
                qp.post_write(header_id, mr, 0, self.header.clone())
                    .expect("rung header write posts");
            }
            // A peer is done once its header write (posted second, completed
            // in order) completes.
            let mut done = 0;
            while done < quorum {
                for (_, wc) in self.cq.wait(Duration::from_secs(5)) {
                    if !wc.is_success() {
                        self.errored += 1;
                    }
                    if wc.wr_id == header_id {
                        done += 1;
                    }
                }
            }
        }
    }
}

/// A second mount of the same testbed whose NCL library reports into a
/// disabled telemetry handle — the baseline of `telemetry.on_over_off`.
fn mount_without_telemetry(tb: &Testbed, app: &str) -> SplitFs {
    let node = tb.add_app_node(&format!("app-{app}"));
    let mut config = tb.config().ncl.clone();
    config.telemetry = Telemetry::disabled();
    let lib = NclLib::new(&tb.cluster, node, app, config, &tb.controller, &tb.registry)
        .expect("fresh app id takes its instance lock");
    SplitFs::splitft(tb.dfs.client(node), lib)
}

/// What climbing down the ladder with one stream measured.
pub struct Climb<'a> {
    /// `splitfs::File` with the default telemetry handle.
    pub splitfs: Rung<'a>,
    /// The same with `Telemetry::disabled()`.
    pub splitfs_quiet: Rung<'a>,
    pub ncl: Rung<'a>,
    pub rdma: Rung<'a>,
    pub wrs_per_burst: f64,
    pub errored_wrs: u64,
}

/// Replays `shape` on every rung below the application, on fresh prefilled
/// 16 MiB regions of `fs`'s deployment, for `window` in total. The rungs
/// take turns in [`ROUNDS`] rounds.
pub fn climb<'a>(
    tb: &Testbed,
    fs: &SplitFs,
    shape: &'a Shape,
    window: Duration,
    spans: &mut SpanLog,
) -> Climb<'a> {
    let loud_file = fs
        .open("rung-on", shape.open_options())
        .expect("rung log creates");
    let quiet_fs = mount_without_telemetry(tb, "ladder-telemetry-off");
    let quiet_file = quiet_fs
        .open("rung-off", shape.open_options())
        .expect("rung log creates");
    let lib = fs.ncl().expect("SplitFT mount has an NCL library");
    let ncl_file = lib.create("rung-ncl", REGION).expect("bare NCL file");
    let mut verbs = Verbs::connect(tb);
    let wrs_per_burst = verbs.wrs_per_burst();

    let mut loud = Rung::new(shape, "ladder.splitfs");
    let mut quiet = Rung::new(shape, "ladder.splitfs.telemetry_off");
    let mut ncl = Rung::new(shape, "ladder.ncl");
    let mut rdma = Rung::new(shape, "ladder.rdma");
    {
        let mut loud_unit = splitfs_unit(&loud_file, shape.sync);
        let mut quiet_unit = splitfs_unit(&quiet_file, shape.sync);
        let mut ncl_unit = ncl_unit(&ncl_file, shape.sync);
        let mut rdma_unit = verbs.unit();
        loud.prefill(&mut loud_unit);
        quiet.prefill(&mut quiet_unit);
        ncl.prefill(&mut ncl_unit);
        rdma.prefill(&mut rdma_unit);
        let turn = window / (4 * ROUNDS) as u32;
        for _ in 0..ROUNDS {
            loud.round(turn, spans, &mut loud_unit);
            quiet.round(turn, spans, &mut quiet_unit);
            ncl.round(turn, spans, &mut ncl_unit);
            rdma.round(turn, spans, &mut rdma_unit);
        }
    }
    // Release every rung's regions: what a run reads off the peers afterwards
    // must not include the benchmark's own files.
    drop((loud_file, quiet_file));
    fs.unlink("rung-on").expect("rung log releases");
    quiet_fs.unlink("rung-off").expect("rung log releases");
    ncl_file.release().expect("bare NCL file releases");
    Climb {
        splitfs: loud,
        splitfs_quiet: quiet,
        ncl,
        rdma,
        wrs_per_burst,
        errored_wrs: verbs.errored,
    }
}

/// `sim` rung: the modelled delay on the blocking path of one burst — per
/// record the local staging copy, per peer the data and header writes the
/// inline NIC charges one after the other.
pub fn modelled_burst_ns(cfg: &NclConfig, sizes: &[usize]) -> f64 {
    let bytes: usize = sizes.iter().sum();
    let staging: Duration = sizes.iter().map(|&len| cfg.local_copy.cost(len)).sum();
    let per_peer = cfg.rdma.cost(bytes) + cfg.rdma.cost(HEADER);
    (staging + per_peer * cfg.replicas() as u32).as_nanos() as f64
}

/// Mean [`modelled_burst_ns`] over one cycle of `shape`.
pub fn modelled_ns(cfg: &NclConfig, shape: &Shape) -> f64 {
    let total: f64 = shape
        .bursts
        .iter()
        .map(|sizes| modelled_burst_ns(cfg, sizes))
        .sum();
    total / shape.bursts.len().max(1) as f64
}

/// Modelled cost of one work request of the rdma rung, averaged over the
/// data and header writes of one cycle.
pub fn modelled_ns_per_wr(cfg: &NclConfig, shape: &Shape) -> f64 {
    let total: f64 = shape
        .bursts
        .iter()
        .map(|sizes| {
            let bytes: usize = sizes.iter().sum();
            (cfg.rdma.cost(bytes) + cfg.rdma.cost(HEADER)).as_nanos() as f64
        })
        .sum();
    total / (2 * shape.bursts.len().max(1)) as f64
}
