//! Adaptive failure detection and retry backoff.
//!
//! Two small, self-contained pieces of the failure plane:
//!
//! * [`PhiDetector`] — a phi-accrual-style detector (Hayashibara et al.) per
//!   peer slot. Instead of a fixed timeout it tracks the peer's own
//!   inter-completion interval history and scores the *current* silence in
//!   orders of magnitude beyond what that history predicts, using the
//!   standard exponential approximation `phi = silence / (mean · ln 10)`.
//!   A gray peer that normally completes in microseconds is suspected after
//!   a far shorter silence than one that was always slow — while a
//!   configured floor ([`NclConfig::detect_timeout`](crate::NclConfig))
//!   keeps scheduling hiccups from triggering spurious replacements.
//! * [`Backoff`] — bounded exponential backoff with full jitter
//!   (`delay = uniform(cap/2^…, …)`-style), seeded deterministically so a
//!   chaos schedule replays the same retry cadence.

use std::time::{Duration, Instant};

use sim::SplitMix64;

/// Samples of inter-completion intervals kept per peer.
const WINDOW: usize = 32;

/// Phi threshold of the detector: a peer is suspect once its current silence
/// is this many orders of magnitude (base 10, scaled by its mean
/// inter-completion interval) beyond what its history predicts. Higher
/// values would tolerate grayer peers.
pub const SUSPICION_THRESHOLD: f64 = 8.0;

/// Floor on the mean interval so an extremely fast peer (zero-latency
/// simulation: sub-microsecond completions) does not make phi explode on
/// the first scheduling hiccup.
const MIN_MEAN: Duration = Duration::from_micros(100);

/// Phi-accrual failure detector for one peer, exponential approximation.
///
/// Feed it a heartbeat on every successful completion; query
/// [`PhiDetector::is_suspect`] while the peer has outstanding work.
#[derive(Debug, Clone)]
pub struct PhiDetector {
    /// Ring of recent inter-completion intervals.
    intervals: [Duration; WINDOW],
    len: usize,
    next: usize,
    last: Instant,
}

impl PhiDetector {
    /// A fresh detector; `now` is the connection instant (counts as the
    /// first heartbeat, so suspicion needs real silence, not just youth).
    pub fn new(now: Instant) -> Self {
        PhiDetector {
            intervals: [Duration::ZERO; WINDOW],
            len: 0,
            next: 0,
            last: now,
        }
    }

    /// Records a completion observed at `now`.
    pub fn heartbeat(&mut self, now: Instant) {
        let interval = now.saturating_duration_since(self.last);
        self.intervals[self.next] = interval;
        self.next = (self.next + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
        self.last = now;
    }

    /// Restarts the silence clock without recording an interval. Call when
    /// new work is posted to a previously *idle* peer: the time it spent
    /// with nothing outstanding must not count as suspicious silence. `at`
    /// may lie ahead, when the new work's answer is due.
    pub fn touch(&mut self, at: Instant) {
        if at > self.last {
            self.last = at;
        }
    }

    /// Silence since the last heartbeat.
    pub fn silence(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last)
    }

    /// Mean observed inter-completion interval, floored at [`MIN_MEAN`].
    fn mean(&self) -> Duration {
        if self.len == 0 {
            return MIN_MEAN;
        }
        let total: Duration = self.intervals[..self.len].iter().sum();
        (total / self.len as u32).max(MIN_MEAN)
    }

    /// Suspicion level of the current silence: orders of magnitude beyond
    /// the history's prediction (`silence / (mean · ln 10)`).
    pub fn phi(&self, now: Instant) -> f64 {
        let silence = self.silence(now).as_secs_f64();
        let mean = self.mean().as_secs_f64();
        silence / (mean * std::f64::consts::LN_10)
    }

    /// Whether the peer should be declared suspect: silent for at least
    /// `detect_timeout` (the floor) *and* phi beyond
    /// [`SUSPICION_THRESHOLD`]. Callers must additionally check the peer
    /// actually has outstanding work — an idle peer is silent because
    /// nothing was asked of it.
    pub fn is_suspect(&self, now: Instant, detect_timeout: Duration) -> bool {
        self.silence(now) >= detect_timeout && self.phi(now) > SUSPICION_THRESHOLD
    }
}

/// Bounded exponential backoff with full jitter.
///
/// The nth delay is drawn uniformly from `(base·2ⁿ/2, base·2ⁿ]`, capped at
/// `cap` — the "full jitter" scheme that decorrelates retry storms across
/// concurrent waiters. Deterministic for a given seed.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A backoff starting at `base`, never exceeding `cap`, jittered from
    /// `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            attempt: 0,
            rng: SplitMix64::new(seed ^ 0xbac0_ff01),
        }
    }

    /// The next delay to sleep; grows exponentially until the cap.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.base.saturating_mul(1u32 << self.attempt.min(20));
        let ceiling = exp.min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // Uniform in (ceiling/2, ceiling]: jittered but never degenerate.
        let half = ceiling.as_nanos() as u64 / 2;
        let jitter = self.rng.next_u64() % (half + 1);
        Duration::from_nanos(half + 1 + jitter).min(ceiling.max(Duration::from_nanos(1)))
    }

    /// Restarts the exponential ramp (call after a successful attempt).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Number of delays handed out since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_detector_needs_real_silence() {
        let t0 = Instant::now();
        let d = PhiDetector::new(t0);
        assert!(!d.is_suspect(t0, Duration::from_millis(100)));
        // Young but not silent long enough: the floor protects it.
        assert!(!d.is_suspect(t0 + Duration::from_millis(50), Duration::from_millis(100)));
    }

    #[test]
    fn fast_peer_is_suspected_after_the_floor() {
        let t0 = Instant::now();
        let mut d = PhiDetector::new(t0);
        // 10 completions 10 µs apart: mean clamps to the 100 µs floor.
        for i in 1..=10u64 {
            d.heartbeat(t0 + Duration::from_micros(10 * i));
        }
        let now = t0 + Duration::from_millis(200);
        assert!(d.silence(now) > Duration::from_millis(199));
        // 200 ms of silence vs a ≤100 µs mean: phi is enormous.
        assert!(d.phi(now) > 100.0);
        assert!(d.is_suspect(now, Duration::from_millis(100)));
    }

    #[test]
    fn slow_peer_needs_proportionally_longer_silence() {
        let t0 = Instant::now();
        let mut d = PhiDetector::new(t0);
        // History: completions every 20 ms.
        for i in 1..=10u64 {
            d.heartbeat(t0 + Duration::from_millis(20 * i));
        }
        let after = |ms: u64| t0 + Duration::from_millis(200 + ms);
        // 120 ms of silence ≈ phi 2.6 — not suspect at threshold 8.
        assert!(!d.is_suspect(after(120), Duration::from_millis(100)));
        // ~4 s of silence is phi ≈ 87 — far over the threshold.
        assert!(d.is_suspect(after(4_000), Duration::from_millis(100)));
    }

    #[test]
    fn a_touch_ahead_of_now_starts_the_silence_there() {
        // Work posted to an idle peer at t0 whose answer is due 360 ms on:
        // a 200 ms floor counts from the due, not from the post.
        let t0 = Instant::now();
        let floor = Duration::from_millis(200);
        let mut d = PhiDetector::new(t0);
        d.touch(t0 + Duration::from_millis(360));
        assert!(!d.is_suspect(t0 + Duration::from_millis(500), floor));
        assert!(d.is_suspect(t0 + Duration::from_millis(561), floor));
        // The answer lands on time: no silence, a zero interval.
        d.heartbeat(t0 + Duration::from_millis(360));
        assert_eq!(d.silence(t0 + Duration::from_millis(360)), Duration::ZERO);
    }

    #[test]
    fn backoff_grows_to_the_cap_and_stays_jittered() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        let mut b = Backoff::new(base, cap, 7);
        let mut prev_ceiling = Duration::ZERO;
        for i in 0..12 {
            let d = b.next_delay();
            assert!(d <= cap, "attempt {i}: {d:?} exceeds cap");
            assert!(d >= base / 2, "attempt {i}: {d:?} degenerate");
            prev_ceiling = prev_ceiling.max(d);
        }
        assert!(
            prev_ceiling > Duration::from_millis(20),
            "ramp must approach the cap, peaked at {prev_ceiling:?}"
        );
        b.reset();
        assert!(b.next_delay() <= base, "post-reset delay restarts at base");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(50), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(42), mk(43));
    }
}
