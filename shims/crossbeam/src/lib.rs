//! Offline shim for the `crossbeam::channel` API subset used in this
//! workspace: MPMC channels (bounded/unbounded) with blocking, timed, and
//! non-blocking receive, and disconnect detection on both ends.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers asleep on `not_empty` / senders asleep on `not_full`.
        /// Every wait and every notify happens with `inner` locked, so the
        /// counts are exact, and a notify with nobody asleep — `futex(WAKE)`
        /// in `std` — is skipped. `send_waiting` is never raised on an
        /// unbounded channel, whose senders cannot wait.
        recv_waiting: usize,
        send_waiting: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    type Guard<'a, T> = std::sync::MutexGuard<'a, Inner<T>>;

    impl<T> Shared<T> {
        fn lock(&self) -> Guard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Sleeps a receiver until notified or, with a `timeout`, until it
        /// passes.
        fn wait_not_empty<'a>(
            &self,
            mut inner: Guard<'a, T>,
            timeout: Option<Duration>,
        ) -> Guard<'a, T> {
            inner.recv_waiting += 1;
            let mut inner = match timeout {
                None => self
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    self.not_empty
                        .wait_timeout(inner, t)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            inner.recv_waiting -= 1;
            inner
        }

        /// Pops the head, handing the freed slot to a sender blocked on a
        /// full bounded channel, if there is one.
        fn pop(&self, inner: &mut Inner<T>) -> Option<T> {
            let v = inner.queue.pop_front()?;
            if inner.send_waiting > 0 {
                self.not_full.notify_one();
            }
            Some(v)
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        // Zero-capacity rendezvous channels are not used in this workspace;
        // treat cap 0 as cap 1 rather than implement rendezvous hand-off.
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
                if !full {
                    inner.queue.push_back(value);
                    if inner.recv_waiting > 0 {
                        self.shared.not_empty.notify_one();
                    }
                    return Ok(());
                }
                inner.send_waiting += 1;
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                inner.send_waiting -= 1;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 && inner.recv_waiting > 0 {
                // Wake blocked receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = self.shared.pop(&mut inner) {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.wait_not_empty(inner, None);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = self.shared.pop(&mut inner) {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner = self.shared.wait_not_empty(inner, Some(deadline - now));
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(v) = self.shared.pop(&mut inner) {
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            if inner.receivers > 0 {
                return;
            }
            if inner.send_waiting > 0 {
                // Wake blocked senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
            // Nobody can receive what is queued, and `send` refuses from
            // here on: discard it now, as upstream does, rather than when
            // the last `Sender` goes. A queued message may own the only
            // route to its sender's wake-up (a reply channel, say), so the
            // messages are dropped after the lock is released — their own
            // `Drop`s may take other locks, or this one.
            let stranded = std::mem::take(&mut inner.queue);
            drop(inner);
            drop(stranded);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(1u8).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
        }

        #[test]
        fn disconnect_is_observed_after_drain() {
            let (tx, rx) = unbounded();
            tx.send(1u8).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_to_dropped_receiver_fails() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1u8).is_err());
        }

        /// A message owns a reply sender; its author waits on the reply
        /// while still holding a sender of the request channel (a request/reply
        /// client's shape). When the last receiver goes, the queued message
        /// must go with it, or the author never sees a disconnect.
        #[test]
        fn last_receiver_drop_discards_queued_messages() {
            let (req_tx, req_rx) = unbounded::<Sender<u8>>();
            let (reply_tx, reply_rx) = unbounded::<u8>();
            req_tx.send(reply_tx).unwrap();
            let other_rx = req_rx.clone();
            drop(req_rx);
            assert_eq!(other_rx.len(), 1, "a receiver is left: nothing discarded");
            drop(other_rx);
            assert_eq!(
                reply_rx.recv_timeout(Duration::from_secs(10)),
                Err(RecvTimeoutError::Disconnected),
                "the queued request kept its reply sender alive"
            );
            assert!(req_tx.send(unbounded().0).is_err());
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(1);
            tx.send(1u8).unwrap();
            let t = std::thread::spawn(move || {
                tx.send(2u8).unwrap();
            });
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn bounded_senders_and_receivers_never_strand_each_other() {
            // Capacity 1 with two producers and two consumers: every send
            // after the first and most receives sleep, so each hand-off
            // depends on a counted notify reaching a real sleeper.
            const PER_PRODUCER: u32 = 5_000;
            let (tx, rx) = bounded(1);
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            tx.send(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match rx.recv_timeout(Duration::from_secs(120)) {
                                Ok(v) => got.push(v),
                                Err(RecvTimeoutError::Disconnected) => return got,
                                Err(RecvTimeoutError::Timeout) => panic!("a wake-up was lost"),
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let mut all: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..2 * PER_PRODUCER).collect::<Vec<_>>());
        }

        #[test]
        fn multi_consumer_drains_everything() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            let mut all = h.join().unwrap();
            all.extend(got);
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }
}
