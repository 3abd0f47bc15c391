//! Thread-per-core sharded NCL runtime.
//!
//! The write path of a single [`NclFile`](crate::NclFile) is already
//! pipelined and batched, but completions used to be reaped by whichever
//! application thread happened to be blocked in `wait_durable`, under the
//! file's `rep` mutex. This module moves completion reaping onto N *shard
//! reactors* — one OS thread per shard, each owning the files hashed to it —
//! so that:
//!
//! * completions are drained and the acked-sequence watermark published in
//!   the background, making the common `wait_durable` call a pure atomic
//!   load (see `lockaudit`);
//! * the reactor sleeps on a [`CqWaker`] registered with every hosted
//!   file's completion queue, until the next doorbell or the next landing
//!   ([`rdma::CompletionQueue::next_due`]) — completion-driven polling, no
//!   blocking per-file `cq.wait` threads.
//!
//! Control operations (epoch bumps, peer replacement, catch-up, ap-map
//! updates) do not pass through the runtime: each file's `rep` state is the
//! authority for its own peers, and the controller orders what crosses files.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rdma::CqWaker;
use telemetry::{ReactorProfiler, ShardProfile, Telemetry};

use crate::file::NclFile;

/// How long a reactor sleeps when no waker signal arrives and nothing is in
/// flight. Bounds the lag between a completion landing and the watermark
/// publishing even if a waker registration is missed.
const REACTOR_IDLE: Duration = Duration::from_millis(1);

/// Per-shard reactor state: the reactor thread polls `files`; `host_on`
/// appends to it under the mutex.
struct Shard {
    index: usize,
    waker: CqWaker,
    files: Mutex<Vec<Weak<NclFile>>>,
}

impl Shard {
    fn new(index: usize) -> Self {
        Shard {
            index,
            waker: CqWaker::new(),
            files: Mutex::new(Vec::new()),
        }
    }

    /// Drains and publishes every hosted file, pruning dropped ones.
    fn poll_files(&self) -> Round {
        let mut files = self.files.lock();
        let mut round = Round::default();
        files.retain(|weak| match weak.upgrade() {
            Some(file) => {
                let (advanced, due) = file.reactor_poll();
                round.progressed |= advanced;
                round.next_due = round.next_due.into_iter().chain(due).min();
                true
            }
            None => false,
        });
        round.hosted = files.len();
        round
    }

    /// Sleeps until a doorbell moves the waker past `seen`, a completion in
    /// flight to a hosted file is due, or `REACTOR_IDLE` has passed.
    fn park(&self, seen: u64, next_due: Option<Instant>) {
        let idle = next_due.map_or(REACTOR_IDLE, |due| {
            REACTOR_IDLE.min(due.saturating_duration_since(sim::time::now()))
        });
        if idle.is_zero() {
            // Due already, on a file whose lock a poster or a repair holds:
            // let the holder run.
            std::thread::yield_now();
        } else {
            self.waker.wait(seen, idle);
        }
    }

    /// One instrumented reactor loop iteration: the profiler attributes
    /// publish-vs-poll and park time at the loop's natural boundaries (no
    /// sampling inside the hot drain itself).
    fn timed_round(&self, tel: &Telemetry, prof: &ShardProfile, stop: &AtomicBool) {
        let seen = self.waker.epoch();
        let t0 = Instant::now();
        let round = self.poll_files();
        prof.on_poll(t0.elapsed(), round.progressed);
        prof.set_queue_depth(round.hosted);
        prof.beat(tel.now_ns());
        if !stop.load(Ordering::Acquire) {
            let t1 = Instant::now();
            self.park(seen, round.next_due);
            prof.on_park(t1.elapsed());
        }
    }
}

/// What one pass over a shard's files found: whether any file's durable
/// watermark advanced, how many files are still hosted (the profiler's
/// publish/poll split and queue-depth gauge), and when the earliest
/// completion in flight to any of them lands.
#[derive(Default)]
struct Round {
    progressed: bool,
    hosted: usize,
    next_due: Option<Instant>,
}

/// The sharded runtime: N reactor threads, each servicing the files hashed
/// to its shard.
///
/// Plumbed into [`NclConfig::runtime`](crate::NclConfig); when present,
/// `NclLib::create`/`recover` host new files automatically. Dropping the
/// last `Arc` stops and joins the reactors.
pub struct NclRuntime {
    shards: Vec<Arc<Shard>>,
    profiler: ReactorProfiler,
    stop: Arc<AtomicBool>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for NclRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NclRuntime")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl NclRuntime {
    /// Starts `shards` reactor threads with telemetry disabled.
    pub fn start(shards: usize) -> Arc<Self> {
        NclRuntime::start_with_telemetry(shards, Telemetry::disabled())
    }

    /// Starts `shards` reactor threads; each reactor reports time-in-state
    /// into a [`ReactorProfiler`] registered with `tel` (inert — no sampling,
    /// no watchdog thread — when `tel` is disabled).
    pub fn start_with_telemetry(shards: usize, tel: Telemetry) -> Arc<Self> {
        let shards: Vec<Arc<Shard>> = (0..shards.max(1))
            .map(|i| Arc::new(Shard::new(i)))
            .collect();
        let profiler = ReactorProfiler::new(&tel, shards.len());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(shards.len());
        for shard in &shards {
            let shard = Arc::clone(shard);
            let tel = tel.clone();
            let stop = Arc::clone(&stop);
            let prof = profiler.shard(shard.index);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ncl-shard-{}", shard.index))
                    .spawn(move || {
                        if prof.enabled() {
                            while !stop.load(Ordering::Acquire) {
                                shard.timed_round(&tel, &prof, &stop);
                            }
                        } else {
                            while !stop.load(Ordering::Acquire) {
                                let seen = shard.waker.epoch();
                                let round = shard.poll_files();
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                                shard.park(seen, round.next_due);
                            }
                        }
                        // Final round so nothing that completed before the
                        // stop flag is left unpublished.
                        shard.poll_files();
                    })
                    .expect("spawn shard reactor"),
            );
        }
        Arc::new(NclRuntime {
            shards,
            profiler,
            stop,
            handles: Mutex::new(handles),
        })
    }

    /// The reactor profiler: per-shard time-in-state, queue depth and
    /// the stall watchdog. Serve it on `/profile` via
    /// `ScrapeServer::start_with_observability`.
    pub fn profiler(&self) -> &ReactorProfiler {
        &self.profiler
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a file scope hashes to (FNV-1a; stable across runs so a
    /// recovered file lands on the same shard as its first life).
    pub fn shard_of(&self, scope: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in scope.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Hosts `file` on the shard its scope hashes to.
    pub fn host(&self, file: &Arc<NclFile>) {
        self.host_on(file, self.shard_of(file.scope()));
    }

    /// Hosts `file` on a specific shard (benchmarks pin one file per shard;
    /// everything else should use [`NclRuntime::host`]).
    pub fn host_on(&self, file: &Arc<NclFile>, shard: usize) {
        let shard = &self.shards[shard % self.shards.len()];
        file.attach_reactor(&shard.waker, shard.index);
        shard.files.lock().push(Arc::downgrade(file));
        shard.waker.signal();
    }
}

impl Drop for NclRuntime {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for s in &self.shards {
            s.waker.signal();
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_profiler_observes_loop_activity() {
        let tel = Telemetry::new();
        let rt = NclRuntime::start_with_telemetry(2, tel.clone());
        // An idle reactor parks for `REACTOR_IDLE` per round; wait until
        // every shard has been through a few.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.profiler().report().shards.iter().any(|r| r.loops < 3) {
            assert!(Instant::now() < deadline, "reactors never looped");
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = rt.profiler().report();
        assert_eq!(report.shards.len(), 2);
        for row in &report.shards {
            assert!(row.park_ns > 0, "shard {} never parked", row.shard);
            assert!(row.beat_age_ns < 1_000_000_000, "heartbeat stale");
            assert!(!row.stalled);
        }
        // The per-shard counters land in the shared registry for /metrics.
        assert!(tel.counter_value("ncl.reactor.shard-0.loops") > 0);
        assert_eq!(rt.profiler().check_stalls(), 0);
    }

    #[test]
    fn disabled_telemetry_runtime_has_inert_profiler() {
        let rt = NclRuntime::start(2);
        std::thread::sleep(Duration::from_millis(5));
        let report = rt.profiler().report();
        assert!(report.shards.iter().all(|r| r.loops == 0));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let rt = NclRuntime::start(4);
        let s1 = rt.shard_of("app/f1");
        assert_eq!(s1, rt.shard_of("app/f1"));
        assert!(s1 < 4);
    }
}
