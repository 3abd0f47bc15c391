//! The clock door and calibrated delay primitives.
//!
//! [`now`] is the clock door: the record path's instants and the control
//! path's phase boundaries are read through it, so an audit can count
//! them. Benches and tests that time an interval of their own read
//! `Instant::now()` directly.
//!
//! The simulation charges latencies by actually waiting, so that throughput
//! and latency measured by the benchmark harnesses reflect the configured
//! models. Sub-millisecond delays are realised by busy-waiting (OS sleep has
//! far coarser granularity than the ~1.5 µs RDMA latencies we model); longer
//! delays fall back to `thread::sleep`.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Delays at or below this poll the clock in a tight loop — short enough
/// that the burned CPU is negligible, and exact even on a loaded host.
/// Longer delays use `thread::sleep`, whose wake-ups are scheduled fairly
/// even when other simulation threads are CPU-bound (a yield-based wait can
/// balloon by whole timeslices per yield under such co-runners).
const SPIN_THRESHOLD: Duration = Duration::from_micros(20);

thread_local! {
    /// Reads counted so far by the audit armed on this thread, if one is.
    static AUDIT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// `Instant::now()`, counted while the calling thread runs under
/// [`audited`]: the one door the record path's clock reads go through, so a
/// test can pin how many a record costs. One TLS read when no audit is
/// armed. The polls *inside* a wait loop are the wait itself and are not
/// counted; a wait's entry read is.
#[inline]
pub fn now() -> Instant {
    AUDIT.with(|a| {
        if let Some(reads) = a.get() {
            a.set(Some(reads + 1));
        }
    });
    Instant::now()
}

/// Runs `f` with the clock audit armed on the calling thread and returns
/// `(f(), reads)`: how many times `f` went through [`now`] on this thread.
/// Not reentrant.
pub fn audited<R>(f: impl FnOnce() -> R) -> (R, u64) {
    AUDIT.with(|a| a.set(Some(0)));
    let out = f();
    let reads = AUDIT.with(|a| a.take()).unwrap_or_default();
    (out, reads)
}

/// Waits for `d`: a tight clock poll for RDMA-scale micro-delays (20 µs
/// and under), `sleep` otherwise.
///
/// A zero duration returns immediately without touching the clock, so tests
/// configured with [`crate::LatencyModel::ZERO`] run at full speed.
pub fn delay(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = now();
    delay_until_from(start, start + d);
}

/// Waits until `deadline` (a no-op if it has already passed), with the same
/// spin-vs-sleep policy as [`delay`]. Used by components that model a
/// pipelined resource — e.g. a queue pair completing work requests at
/// absolute target instants so that the propagation delays of back-to-back
/// requests overlap instead of accumulating serially.
///
/// Returns the clock reading the wait ended on, at or after `deadline`: what
/// the caller does next happens at that instant and need not ask again.
pub fn delay_until(deadline: Instant) -> Instant {
    delay_until_from(now(), deadline)
}

/// [`delay_until`] for a caller that holds a reading of the clock: the
/// wait starts from that reading, `now`, instead of an entry read of its
/// own. Returns the reading it exits on (`now` itself when `deadline` is
/// not after it). The one wait loop. A stale `now` (the priced work ran
/// since) only picks spin or sleep: a sleep is sized from a fresh reading.
pub fn delay_until_from(mut now: Instant, deadline: Instant) -> Instant {
    if deadline.saturating_duration_since(now) > SPIN_THRESHOLD {
        now = Instant::now();
        while now < deadline {
            std::thread::sleep(deadline - now);
            now = Instant::now();
        }
    } else {
        // Micro-delays (RDMA-scale): a tight clock poll. Sleeping or
        // yielding here would cost (far) more than the modelled latency.
        while now < deadline {
            std::hint::spin_loop();
            now = Instant::now();
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_returns_immediately() {
        let sw = Instant::now();
        delay(Duration::ZERO);
        assert!(sw.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn short_delay_is_at_least_requested() {
        let want = Duration::from_micros(50);
        let sw = Instant::now();
        delay(want);
        assert!(sw.elapsed() >= want);
    }

    #[test]
    fn long_delay_is_at_least_requested() {
        let want = Duration::from_millis(2);
        let sw = Instant::now();
        delay(want);
        assert!(sw.elapsed() >= want);
        // Not absurdly longer either (sleep + spin tail should be tight).
        assert!(sw.elapsed() < want + Duration::from_millis(20));
    }

    #[test]
    fn delay_until_never_returns_early_over_rising_and_falling_deadlines() {
        let base = Instant::now();
        // Rising, falling back below what has been waited out, rising again.
        for us in [30u64, 5, 60, 60, 10, 90, 0, 120] {
            let deadline = base + Duration::from_micros(us);
            delay_until(deadline);
            assert!(Instant::now() >= deadline, "returned before +{us} us");
        }
    }

    #[test]
    fn a_stale_reading_never_sizes_a_sleep() {
        // The caller worked 100 ms since its reading: the wait that follows
        // sleeps what is left of the 120, not 120 more.
        let held = now();
        std::thread::sleep(Duration::from_millis(100));
        let ended = delay_until_from(held, held + Duration::from_millis(120));
        assert!(ended >= held + Duration::from_millis(120));
        assert!(
            ended - held < Duration::from_millis(200),
            "{:?}",
            ended - held
        );
    }

    #[test]
    fn a_wait_counts_its_entry_read_only_and_returns_the_reading_it_ended_on() {
        let far = Instant::now() + Duration::from_micros(50);
        let (ended, reads) = audited(|| delay_until(far));
        assert_eq!(reads, 1, "the entry read; the polls are the wait");
        assert!(far <= ended && ended <= Instant::now());
        // A deadline long past still asks once: nothing is remembered.
        let (ended, reads) = audited(|| delay_until(far));
        assert_eq!(reads, 1);
        assert!(ended >= far);
        let ((), reads) = audited(|| delay(Duration::from_micros(50)));
        assert_eq!(reads, 1);
        let ((), reads) = audited(|| delay(Duration::ZERO));
        assert_eq!(reads, 0);
        // A wait from a reading the caller holds reads nothing itself.
        let held = now();
        let deadline = held + Duration::from_micros(5);
        let (ended, reads) = audited(|| delay_until_from(held, deadline));
        assert_eq!(reads, 0);
        assert!(ended >= deadline);
        assert_eq!(delay_until_from(ended, held), ended, "nothing to wait");
    }

    #[test]
    fn audit_counts_only_while_armed() {
        let _ = now(); // Unarmed: must not leak into the next audit.
        let (_, reads) = audited(|| (now(), now()));
        assert_eq!(reads, 2);
        let ((), reads) = audited(|| {});
        assert_eq!(reads, 0);
    }
}
