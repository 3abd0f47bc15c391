//! Offline shim for the `parking_lot` API subset used in this workspace.
//!
//! Backed by `std::sync` primitives; poisoning is swallowed (parking_lot has
//! no poisoning, so a panicking holder must not wedge every later locker).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // Option so Condvar::wait_for can temporarily move the std guard out
    // through a `&mut MutexGuard` (parking_lot waits by reference, std by
    // value).
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &*g).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable that makes no system call unless a thread sleeps on
/// it: `std`'s futex condvar issues `futex(WAKE)` on every notify, upstream
/// parking_lot returns from `notify_*` after one load when its queue is
/// empty. The shim gets the same property by counting its waiters.
///
/// The count is exact for every caller that follows the one rule any
/// condition variable needs: the state a waiter checks is changed with the
/// waiter's mutex held (or the notifier takes and releases that mutex between
/// changing the state and notifying). A waiter increments the count while it
/// still holds the mutex, before `std` releases it to sleep. A notifier that
/// took the mutex after the waiter's check therefore finds the count raised
/// (the mutex hand-over orders the increment before the load); a notifier
/// that took it before the check changed the state first, so the waiter sees
/// the change and never sleeps. Skipping the wake-up on a zero count loses
/// nothing either way. A stale *high* count (a woken waiter that has not yet
/// decremented) only costs the system call this type otherwise saves.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads between the increment in `wait`/`wait_for` and their return.
    waiters: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                let r = cv.wait_for(&mut g, Duration::from_secs(5));
                assert!(!r.timed_out(), "should be woken, not time out");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    /// Lost-wakeup stress for the waiter-counted notify. `THREADS` threads
    /// pass a turn counter round a ring: each sleeps until the turn is its
    /// own, advances it under the mutex, and notifies *after* unlocking —
    /// the order in which a skipped wake-up would strand the next thread.
    /// Every sleep has a timeout far beyond the test's run time and must end
    /// by notification, so one lost wake-up fails the test instead of
    /// hanging it. Even threads sleep in `wait_for`, odd ones in `wait`
    /// (guarded by a watchdog on the turn counter).
    #[test]
    fn condvar_never_loses_a_wakeup_under_contention() {
        const THREADS: u64 = 8;
        const TURNS: u64 = 40_000;
        let ring = Arc::new((Mutex::new(0u64), Condvar::new()));
        let workers: Vec<_> = (0..THREADS)
            .map(|me| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let (turn, cv) = &*ring;
                    loop {
                        let mut t = turn.lock();
                        while *t < TURNS && *t % THREADS != me {
                            if me % 2 == 0 {
                                let r = cv.wait_for(&mut t, Duration::from_secs(120));
                                assert!(!r.timed_out(), "thread {me} lost a wake-up at {}", *t);
                            } else {
                                cv.wait(&mut t);
                            }
                        }
                        if *t >= TURNS {
                            return;
                        }
                        *t += 1;
                        drop(t);
                        cv.notify_all();
                    }
                })
            })
            .collect();
        // Watchdog for the untimed `wait` sleepers: the turn must keep
        // advancing. It polls with the mutex, never the condvar, so it cannot
        // mask a lost wake-up by notifying.
        let (turn, _) = &*ring;
        let mut last = 0;
        let mut stalled = 0;
        while last < TURNS {
            std::thread::sleep(Duration::from_millis(50));
            let now = *turn.lock();
            stalled = if now == last { stalled + 1 } else { 0 };
            assert!(
                stalled < 600,
                "ring stalled at turn {now}: a wake-up was lost"
            );
            last = now;
        }
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn notify_without_waiters_leaves_no_stale_wakeup() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out(), "a notify before the wait must not wake it");
    }
}
