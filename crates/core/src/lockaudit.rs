//! Lock audit for the acked-record fast path.
//!
//! `wait_durable` (and `fsync` behind it) on an already-acked record holds
//! **zero** mutexes: it observes the acked-sequence watermark (an
//! `AtomicU64`) and the attention bits (an `AtomicU32`) that the last
//! barrier published, and returns. That property is easy to regress
//! silently — one innocent-looking `self.rep.lock()` added to the entry
//! path and every fsync of durable data pays a lock handoff again.
//!
//! This module pins the property in tier-1 tests. Every `Stage`/`Rep` lock
//! acquisition inside `ncl` goes through a helper that calls [`note_lock`];
//! a test arms the audit with [`audited`], runs the fast path, and asserts
//! the counter stayed at zero. The bookkeeping is two thread-local `Cell`
//! reads per lock, negligible next to the lock itself, so it stays compiled
//! in all profiles (release tier-1 runs check it too).

use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Notes one mutex acquisition on the calling thread. Free (two TLS reads)
/// when no audit is armed.
#[inline]
pub fn note_lock() {
    ARMED.with(|a| {
        if a.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

/// Runs `f` with the lock audit armed on the calling thread and returns
/// `(f(), locks_taken)`. Not reentrant; audits only locks taken by the
/// calling thread.
pub fn audited<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ARMED.with(|a| a.set(true));
    COUNT.with(|c| c.set(0));
    let out = f();
    let locks = COUNT.with(|c| c.get());
    ARMED.with(|a| a.set(false));
    (out, locks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_counts_only_while_armed() {
        note_lock(); // Unarmed: must not leak into the next audit.
        let ((), n) = audited(|| {
            note_lock();
            note_lock();
        });
        assert_eq!(n, 2);
        let ((), n) = audited(|| {});
        assert_eq!(n, 0);
    }
}
