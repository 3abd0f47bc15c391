//! Benchmark runners: load phase, closed-loop run phase, and an open-loop
//! run phase with coordinated-omission-corrected latencies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::KvApp;
use sim::{ThroughputSampler, Xoshiro256StarStar};
use telemetry::{HistHandle, Histogram, Summary};

use crate::generator::ArrivalSchedule;
use crate::workload::{key_of, value_of, OpKind, Workload};

/// Parameters of the load phase.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Number of records to insert.
    pub record_count: u64,
    /// Value size in bytes (the paper uses 100 B with 24 B keys).
    pub value_size: usize,
    /// Loader threads.
    pub threads: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            record_count: 10_000,
            value_size: 100,
            threads: 4,
        }
    }
}

/// Parameters of the run phase.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Client threads (the paper uses 20 for RocksDB/Redis, 1 for SQLite).
    pub threads: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Value size for updates/inserts.
    pub value_size: usize,
    /// Optional real-time throughput sampling window (Figure 12).
    pub sample_window: Option<Duration>,
    /// RNG seed (distributions are deterministic given the seed).
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            threads: 4,
            duration: Duration::from_secs(1),
            value_size: 100,
            sample_window: None,
            seed: 0xC0FFEE,
        }
    }
}

/// Results of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations completed.
    pub ops: u64,
    /// Failed operations (should be 0).
    pub errors: u64,
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
    /// Latency summary across all operations (nanoseconds).
    pub latency: Summary,
    /// Read-only latency summary.
    pub read_latency: Summary,
    /// Write (update/insert/RMW) latency summary.
    pub write_latency: Summary,
    /// Real-time throughput series, when sampling was enabled.
    pub series: Vec<(f64, f64)>,
}

impl Report {
    /// Throughput in thousands of operations per second (the paper's unit).
    pub fn kops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e3
    }

    /// One-line summary for harness output.
    pub fn line(&self) -> String {
        format!(
            "{:<12} {:>9.1} KOps/s  avg {:>8.1} µs  p99 {:>9.1} µs  ops {:>9}  errs {}",
            self.workload,
            self.kops(),
            self.latency.mean_us(),
            self.latency.p99_ns as f64 / 1e3,
            self.ops,
            self.errors
        )
    }
}

/// Parameters of an open-loop run.
///
/// Unlike [`RunSpec`], the offered load is an input: `schedule` carries the
/// aggregate arrival rate, split evenly across `clients` threads. Each
/// client draws its own inter-arrival gaps from the deterministic sim RNG
/// and issues every scheduled request even when it is already late — a
/// request that had to wait behind a slow predecessor is charged that wait
/// in its *corrected* latency, which is what closed-loop measurement omits.
#[derive(Clone)]
pub struct OpenLoopSpec {
    /// Concurrent client threads sharing the offered load.
    pub clients: usize,
    /// Scheduling horizon: arrivals are generated for this long.
    pub duration: Duration,
    /// Value size for updates/inserts.
    pub value_size: usize,
    /// Aggregate arrival schedule (must be open-loop).
    pub schedule: ArrivalSchedule,
    /// RNG seed (arrival gaps and key choices are deterministic given it).
    pub seed: u64,
    /// Extra wall-clock grace past `duration` to drain the backlog before
    /// the remaining scheduled requests are counted as abandoned. Keeps a
    /// hopelessly overloaded run from running forever while still reporting
    /// honestly that it could not serve the offered load.
    pub max_overrun: Duration,
    /// Optional telemetry histogram that also receives every corrected
    /// latency (so an SLO can watch the client-observed distribution live).
    pub sink: Option<HistHandle>,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec {
            clients: 4,
            duration: Duration::from_secs(1),
            value_size: 100,
            schedule: ArrivalSchedule::Poisson {
                rate_per_sec: 10_000.0,
            },
            seed: 0xC0FFEE,
            max_overrun: Duration::from_secs(2),
            sink: None,
        }
    }
}

/// Results of an open-loop run.
///
/// Latencies are kept as full [`Histogram`]s (not [`Summary`]s) so callers
/// can extract arbitrary quantiles — p999 tails are the entire point of
/// latency-under-load measurement.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Workload name.
    pub workload: String,
    /// Operations issued and completed.
    pub ops: u64,
    /// Failed operations (should be 0).
    pub errors: u64,
    /// Requests scheduled before the horizon but never issued because the
    /// run overran `duration + max_overrun`. Non-zero means the offered
    /// load exceeded capacity by more than the grace period could drain.
    pub abandoned: u64,
    /// Wall-clock time from start to last completion.
    pub elapsed: Duration,
    /// Offered load actually scheduled, in ops/sec.
    pub offered_rate: f64,
    /// Coordinated-omission-corrected latency: completion minus *intended*
    /// arrival, including any wait behind earlier requests.
    pub corrected: Histogram,
    /// Service latency: completion minus actual issue time.
    pub service: Histogram,
    /// Corrected latency of reads only.
    pub corrected_reads: Histogram,
    /// Corrected latency of writes (update/insert/RMW) only.
    pub corrected_writes: Histogram,
}

impl OpenLoopReport {
    /// Completions per second over the run.
    pub fn achieved_rate(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One-line summary for harness output.
    pub fn line(&self) -> String {
        format!(
            "{:<12} offered {:>9.0}/s achieved {:>9.0}/s  corrected p50 {:>8.1} µs p99 {:>9.1} µs  service p99 {:>9.1} µs  abandoned {}",
            self.workload,
            self.offered_rate,
            self.achieved_rate(),
            self.corrected.percentile(50.0).unwrap_or(0) as f64 / 1e3,
            self.corrected.percentile(99.0).unwrap_or(0) as f64 / 1e3,
            self.service.percentile(99.0).unwrap_or(0) as f64 / 1e3,
            self.abandoned,
        )
    }
}

/// Drives a [`KvApp`] with YCSB workloads.
pub struct Runner;

/// One client thread's seeded generator state and tallies. `run` and
/// `run_open_loop` differ only in when they call [`Client::issue`] and
/// which latency they tally.
struct Client {
    rng: Xoshiro256StarStar,
    /// Updates must write *fresh* values (YCSB generates a new random field
    /// per update); a counter salt keeps the generation deterministic
    /// without repeating bytes.
    update_salt: u64,
    tally: Tally,
}

impl Client {
    fn new(seed: u64, t: usize) -> Self {
        Client {
            rng: Xoshiro256StarStar::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9)),
            update_salt: (t as u64) << 48,
            tally: Tally::default(),
        }
    }

    /// Draws the next operation of `workload` and issues it against `app`:
    /// returns its kind, whether it failed, and its service time in ns.
    /// Inserts extend `key_count` atomically across threads.
    fn issue(
        &mut self,
        app: &dyn KvApp,
        workload: &Workload,
        key_count: &AtomicU64,
        value_size: usize,
    ) -> (OpKind, bool, u64) {
        let rng = &mut self.rng;
        let op = workload.next_op(rng);
        let current = key_count.load(Ordering::Relaxed);
        let sw = Instant::now();
        let result = match op {
            OpKind::Read => {
                let k = workload.chooser.next(rng, current);
                app.read(&key_of(k)).map(|_| ())
            }
            OpKind::Update => {
                let k = workload.chooser.next(rng, current);
                self.update_salt += 1;
                app.update(&key_of(k), &value_of(k ^ self.update_salt, value_size))
            }
            OpKind::Insert => {
                let k = key_count.fetch_add(1, Ordering::Relaxed);
                app.insert(&key_of(k), &value_of(k, value_size))
            }
            OpKind::ReadModifyWrite => {
                let k = workload.chooser.next(rng, current);
                self.update_salt += 1;
                app.read_modify_write(&key_of(k), &value_of(k ^ self.update_salt, value_size))
            }
        };
        (op, result.is_err(), sw.elapsed().as_nanos() as u64)
    }
}

/// Per-thread tallies, merged once the threads join.
#[derive(Default)]
struct Tally {
    /// Every op's latency: service time closed-loop, corrected open-loop.
    all: Histogram,
    /// Service time, kept apart open-loop only.
    service: Histogram,
    reads: Histogram,
    writes: Histogram,
    ops: u64,
    errors: u64,
    abandoned: u64,
}

impl Tally {
    fn record(&mut self, op: OpKind, failed: bool, ns: u64) {
        self.all.record(ns);
        match op {
            OpKind::Read => self.reads.record(ns),
            _ => self.writes.record(ns),
        }
        self.ops += 1;
        self.errors += u64::from(failed);
    }

    fn merge(tallies: Vec<Tally>) -> Tally {
        let mut sum = Tally::default();
        for t in tallies {
            sum.all.merge(&t.all);
            sum.service.merge(&t.service);
            sum.reads.merge(&t.reads);
            sum.writes.merge(&t.writes);
            sum.ops += t.ops;
            sum.errors += t.errors;
            sum.abandoned += t.abandoned;
        }
        sum
    }
}

impl Runner {
    /// Loads `spec.record_count` records (`user…` keys, fixed-size values).
    pub fn load(app: &dyn KvApp, spec: &LoadSpec) -> Result<(), apps::AppError> {
        let next = AtomicU64::new(0);
        let error: parking_lot::Mutex<Option<apps::AppError>> = parking_lot::Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..spec.threads.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= spec.record_count || error.lock().is_some() {
                        return;
                    }
                    if let Err(e) = app.insert(&key_of(i), &value_of(i, spec.value_size)) {
                        *error.lock() = Some(e);
                        return;
                    }
                });
            }
        });
        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `workload` for `spec.duration`, returning the merged report.
    ///
    /// `loaded` is the number of records present from the load phase;
    /// inserts (workload D) extend the key space atomically across threads.
    pub fn run(app: &dyn KvApp, workload: &Workload, loaded: u64, spec: &RunSpec) -> Report {
        let stop = AtomicBool::new(false);
        let key_count = AtomicU64::new(loaded);
        let sampler = spec.sample_window.map(|w| {
            Arc::new(ThroughputSampler::new(
                w,
                spec.duration + Duration::from_secs(1),
            ))
        });
        let start = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..spec.threads.max(1) {
                let stop = &stop;
                let key_count = &key_count;
                let sampler = sampler.clone();
                handles.push(scope.spawn(move || {
                    let mut client = Client::new(spec.seed, t);
                    while !stop.load(Ordering::Relaxed) {
                        let (op, failed, ns) =
                            client.issue(app, workload, key_count, spec.value_size);
                        client.tally.record(op, failed, ns);
                        if let Some(s) = &sampler {
                            s.record();
                        }
                    }
                    client.tally
                }));
            }
            // Timekeeper.
            std::thread::sleep(spec.duration);
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        let elapsed = start.elapsed();
        let sum = Tally::merge(tallies);
        Report {
            workload: workload.name.to_string(),
            ops: sum.ops,
            errors: sum.errors,
            elapsed,
            latency: sum.all.summary(),
            read_latency: sum.reads.summary(),
            write_latency: sum.writes.summary(),
            series: sampler.map(|s| s.series()).unwrap_or_default(),
        }
    }

    /// Runs `workload` open-loop at the offered rate in `spec.schedule`.
    ///
    /// Each client thread walks its own intended-arrival clock: gaps come
    /// from the schedule, late requests are issued immediately (never
    /// skipped), and every corrected latency is measured from the intended
    /// arrival — the coordinated-omission correction. The per-thread
    /// backlog models a FIFO queue in front of the server.
    ///
    /// # Panics
    ///
    /// Panics if `spec.schedule` is [`ArrivalSchedule::ClosedLoop`]; use
    /// [`Runner::run`] for closed-loop measurement.
    pub fn run_open_loop(
        app: &dyn KvApp,
        workload: &Workload,
        loaded: u64,
        spec: &OpenLoopSpec,
    ) -> OpenLoopReport {
        assert!(
            spec.schedule.is_open_loop(),
            "run_open_loop needs a FixedRate or Poisson schedule"
        );
        let clients = spec.clients.max(1);
        let per_client = spec.schedule.per_client(clients);
        let key_count = AtomicU64::new(loaded);
        let horizon_ns = spec.duration.as_nanos() as u64;
        let overrun_deadline = spec.duration + spec.max_overrun;

        let start = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..clients {
                let key_count = &key_count;
                let sink = spec.sink.clone();
                handles.push(scope.spawn(move || {
                    let mut client = Client::new(spec.seed, t);
                    let gap = |rng: &mut Xoshiro256StarStar| {
                        per_client.next_gap_ns(rng).expect("open-loop schedule")
                    };
                    let mut intended_ns = gap(&mut client.rng);
                    while intended_ns < horizon_ns {
                        if start.elapsed() > overrun_deadline {
                            // Hopelessly behind the schedule: stop issuing
                            // and count the rest of the horizon honestly.
                            client.tally.abandoned += 1;
                            while {
                                intended_ns = intended_ns.saturating_add(gap(&mut client.rng));
                                intended_ns < horizon_ns
                            } {
                                client.tally.abandoned += 1;
                            }
                            break;
                        }
                        wait_until(start, Duration::from_nanos(intended_ns));
                        let (op, failed, service_ns) =
                            client.issue(app, workload, key_count, spec.value_size);
                        let done_ns = start.elapsed().as_nanos() as u64;
                        let corrected_ns = done_ns.saturating_sub(intended_ns);
                        client.tally.record(op, failed, corrected_ns);
                        client.tally.service.record(service_ns);
                        if let Some(sink) = &sink {
                            sink.record(corrected_ns);
                        }
                        intended_ns = intended_ns.saturating_add(gap(&mut client.rng));
                    }
                    client.tally
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop client"))
                .collect()
        });
        let elapsed = start.elapsed();
        let sum = Tally::merge(tallies);
        OpenLoopReport {
            workload: workload.name.to_string(),
            ops: sum.ops,
            errors: sum.errors,
            abandoned: sum.abandoned,
            elapsed,
            offered_rate: (sum.ops + sum.abandoned) as f64 / spec.duration.as_secs_f64().max(1e-9),
            corrected: sum.all,
            service: sum.service,
            corrected_reads: sum.reads,
            corrected_writes: sum.writes,
        }
    }
}

/// Sleeps (coarsely) then spins (precisely) until `start + intended`.
///
/// OS sleep overshoots by tens of microseconds; raw spinning burns a core
/// per client. Sleeping short of the target and spinning the rest keeps
/// intended arrival times accurate without pegging the CPU between them.
fn wait_until(start: Instant, intended: Duration) {
    loop {
        let now = start.elapsed();
        if now >= intended {
            return;
        }
        let remaining = intended - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use apps::AppError;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    /// A trivial in-memory KvApp for runner tests.
    struct MemApp {
        map: Mutex<HashMap<String, Vec<u8>>>,
    }

    impl MemApp {
        fn new() -> Self {
            MemApp {
                map: Mutex::new(HashMap::new()),
            }
        }
    }

    impl KvApp for MemApp {
        fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
            self.map.lock().insert(key.to_string(), value.to_vec());
            Ok(())
        }
        fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
            self.insert(key, value)
        }
        fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
            Ok(self.map.lock().get(key).cloned())
        }
    }

    #[test]
    fn load_inserts_exactly_record_count() {
        let app = MemApp::new();
        let spec = LoadSpec {
            record_count: 500,
            value_size: 16,
            threads: 4,
        };
        Runner::load(&app, &spec).unwrap();
        assert_eq!(app.map.lock().len(), 500);
        assert!(app.map.lock().contains_key(&key_of(499)));
    }

    #[test]
    fn run_produces_consistent_report() {
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 100,
                value_size: 16,
                threads: 2,
            },
        )
        .unwrap();
        let w = Workload::a(100);
        let spec = RunSpec {
            threads: 2,
            duration: Duration::from_millis(150),
            value_size: 16,
            sample_window: None,
            seed: 7,
        };
        let report = Runner::run(&app, &w, 100, &spec);
        assert!(report.ops > 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.count, report.ops);
        assert!(report.kops() > 0.0);
        assert!(!report.line().is_empty());
    }

    #[test]
    fn workload_d_grows_keyspace() {
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 50,
                value_size: 8,
                threads: 1,
            },
        )
        .unwrap();
        let w = Workload::d(50);
        let spec = RunSpec {
            threads: 2,
            duration: Duration::from_millis(150),
            value_size: 8,
            sample_window: None,
            seed: 11,
        };
        let _ = Runner::run(&app, &w, 50, &spec);
        assert!(
            app.map.lock().len() > 50,
            "inserts should extend the keyspace"
        );
    }

    #[test]
    fn sampler_series_populated_when_enabled() {
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 10,
                value_size: 8,
                threads: 1,
            },
        )
        .unwrap();
        let w = Workload::c(10);
        let spec = RunSpec {
            threads: 1,
            duration: Duration::from_millis(120),
            value_size: 8,
            sample_window: Some(Duration::from_millis(10)),
            seed: 3,
        };
        let report = Runner::run(&app, &w, 10, &spec);
        assert!(!report.series.is_empty());
        let total: f64 = report.series.iter().map(|(_, ops)| ops * 0.01).sum();
        assert!((total - report.ops as f64).abs() < report.ops as f64 * 0.1 + 10.0);
    }

    /// A KvApp that takes a fixed amount of wall-clock time per operation —
    /// a server with a known capacity, for overload tests.
    struct SlowApp {
        inner: MemApp,
        per_op: Duration,
    }

    impl KvApp for SlowApp {
        fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
            std::thread::sleep(self.per_op);
            self.inner.insert(key, value)
        }
        fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
            std::thread::sleep(self.per_op);
            self.inner.update(key, value)
        }
        fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
            std::thread::sleep(self.per_op);
            self.inner.read(key)
        }
    }

    #[test]
    fn open_loop_tracks_the_offered_rate() {
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 100,
                value_size: 16,
                threads: 2,
            },
        )
        .unwrap();
        let w = Workload::a(100);
        let spec = OpenLoopSpec {
            clients: 2,
            duration: Duration::from_millis(250),
            value_size: 16,
            schedule: ArrivalSchedule::FixedRate {
                rate_per_sec: 2_000.0,
            },
            seed: 5,
            ..OpenLoopSpec::default()
        };
        let report = Runner::run_open_loop(&app, &w, 100, &spec);
        // 2000/s for 250ms ≈ 500 ops; the app is near-instant, so nothing
        // is abandoned and the achieved rate tracks the offered rate.
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.errors, 0);
        assert!(
            (400..=520).contains(&report.ops),
            "ops={} not near 500",
            report.ops
        );
        assert_eq!(report.corrected.count(), report.ops);
        assert_eq!(report.service.count(), report.ops);
        assert_eq!(
            report.corrected_reads.count() + report.corrected_writes.count(),
            report.ops
        );
        assert!(report.offered_rate > 1_500.0, "{}", report.offered_rate);
        assert!(!report.line().is_empty());
    }

    #[test]
    fn open_loop_schedule_is_deterministic_per_seed() {
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 50,
                value_size: 8,
                threads: 1,
            },
        )
        .unwrap();
        let w = Workload::c(50);
        let spec = OpenLoopSpec {
            clients: 3,
            duration: Duration::from_millis(120),
            value_size: 8,
            schedule: ArrivalSchedule::Poisson {
                rate_per_sec: 5_000.0,
            },
            seed: 77,
            ..OpenLoopSpec::default()
        };
        let a = Runner::run_open_loop(&app, &w, 50, &spec);
        let b = Runner::run_open_loop(&app, &w, 50, &spec);
        // Arrival gaps come only from the seeded RNG, so the number of
        // *scheduled* requests (issued + abandoned) is timing-independent.
        assert_eq!(a.ops + a.abandoned, b.ops + b.abandoned);
    }

    #[test]
    fn overload_shows_up_in_corrected_latency_not_service_latency() {
        let app = SlowApp {
            inner: MemApp::new(),
            per_op: Duration::from_millis(2),
        };
        Runner::load(
            &app.inner,
            &LoadSpec {
                record_count: 50,
                value_size: 8,
                threads: 1,
            },
        )
        .unwrap();
        let w = Workload::c(50);
        // One client at 2ms/op serves ≤500/s; offer 4× that.
        let spec = OpenLoopSpec {
            clients: 1,
            duration: Duration::from_millis(300),
            value_size: 8,
            schedule: ArrivalSchedule::FixedRate {
                rate_per_sec: 2_000.0,
            },
            seed: 13,
            max_overrun: Duration::from_secs(5),
            sink: None,
        };
        let report = Runner::run_open_loop(&app, &w, 50, &spec);
        assert!(report.ops > 50);
        let service_p99 = report.service.percentile(99.0).unwrap();
        let corrected_p99 = report.corrected.percentile(99.0).unwrap();
        // Service time stays ~2ms; the corrected tail carries the queueing
        // delay of a 4×-overloaded server and must be far larger.
        assert!(service_p99 < 20_000_000, "service p99 {service_p99}");
        assert!(
            corrected_p99 > 4 * service_p99,
            "corrected p99 {corrected_p99} vs service {service_p99}"
        );
        assert!(report.achieved_rate() < report.offered_rate * 0.75);
    }

    #[test]
    fn open_loop_sink_receives_every_corrected_latency() {
        let tel = telemetry::Telemetry::new();
        let app = MemApp::new();
        Runner::load(
            &app,
            &LoadSpec {
                record_count: 20,
                value_size: 8,
                threads: 1,
            },
        )
        .unwrap();
        let w = Workload::c(20);
        let spec = OpenLoopSpec {
            clients: 2,
            duration: Duration::from_millis(100),
            value_size: 8,
            schedule: ArrivalSchedule::Poisson {
                rate_per_sec: 3_000.0,
            },
            seed: 3,
            sink: Some(tel.histogram("client.corrected")),
            ..OpenLoopSpec::default()
        };
        let report = Runner::run_open_loop(&app, &w, 20, &spec);
        let (_, h) = tel
            .histograms_full()
            .into_iter()
            .find(|(n, _)| n == "client.corrected")
            .unwrap();
        assert_eq!(h.count(), report.ops);
    }
}
