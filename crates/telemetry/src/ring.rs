//! The crate's one bounded buffer: the two span rings, the flight
//! recorder's counter ticks and the SLO windows all keep "the last N" of
//! something and let the oldest fall off the front.

use std::collections::{vec_deque, VecDeque};

/// A FIFO that evicts its oldest entry to admit a new one, and counts the
/// evictions.
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` entries (at least one).
    /// Storage grows with use, not up front.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends `item`; returns whether the oldest entry was evicted for it.
    pub(crate) fn push(&mut self, item: T) -> bool {
        let full = self.buf.len() >= self.capacity;
        if full {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        full
    }

    /// Changes the bound, evicting oldest entries down to it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.buf.len() > self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    /// Entries evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries, oldest first.
    pub(crate) fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_the_oldest_and_counts_it() {
        let mut ring = Ring::new(2);
        assert!(!ring.push(1));
        assert!(!ring.push(2));
        assert!(ring.push(3));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn shrinking_evicts_down_to_the_new_bound_of_at_least_one() {
        let mut ring = Ring::new(4);
        for i in 0..4 {
            ring.push(i);
        }
        ring.set_capacity(0);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [3]);
        assert_eq!(ring.dropped(), 3);
        assert!(ring.push(4), "a ring of one evicts on every push");
    }
}
