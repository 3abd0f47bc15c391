//! Benchmark runners: load phase and closed-loop run phase.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::KvApp;
use sim::{ThroughputSampler, Xoshiro256StarStar};
use telemetry::{Histogram, Summary};

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

/// Drives a [`KvApp`] with YCSB workloads.
pub struct Runner;

/// One client thread's seeded generator state and tallies.
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
    /// Every op's service time.
    all: Histogram,
    reads: Histogram,
    writes: Histogram,
    ops: u64,
    errors: u64,
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
            sum.reads.merge(&t.reads);
            sum.writes.merge(&t.writes);
            sum.ops += t.ops;
            sum.errors += t.errors;
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
}
