//! The crate's one bounded buffer: the two span rings keep "the last N"
//! spans and let the oldest fall off the front.

use std::collections::{vec_deque, VecDeque};

/// A FIFO that evicts its oldest entries to admit a new one, and counts
/// the evictions. An entry may weigh more than one unit
/// ([`Ring::weighted`]); the bound and the eviction count are in units, and
/// a ring always keeps its newest entry, whatever it weighs.
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Units held: the weights of `buf`'s entries, summed.
    used: usize,
    dropped: u64,
    weigh: fn(&T) -> usize,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` entries (at least one).
    /// Storage grows with use, not up front.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring::weighted(capacity, |_| 1)
    }

    /// An empty ring retaining at most `capacity` units, an entry weighing
    /// `weigh(entry)` of them.
    pub(crate) fn weighted(capacity: usize, weigh: fn(&T) -> usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            used: 0,
            dropped: 0,
            weigh,
        }
    }

    /// Appends `item`; returns whether older entries were evicted for it.
    pub(crate) fn push(&mut self, item: T) -> bool {
        let weight = (self.weigh)(&item);
        let evicted = self.evict_to(self.capacity.saturating_sub(weight), 0);
        if self.buf.len() == self.buf.capacity() {
            // Grow in small steps, not by doubling: a full ring cycles
            // through all of its storage, so every byte of it stays resident.
            self.buf.reserve_exact(self.buf.len() / 8 + 16);
        }
        self.buf.push_back(item);
        self.used += weight;
        evicted
    }

    /// Changes the bound, evicting oldest entries down to it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.evict_to(self.capacity, 1);
    }

    /// Evicts oldest entries, dropping them where they lie, until at most
    /// `units` are held or `keep` entries are left; returns whether any
    /// went.
    fn evict_to(&mut self, units: usize, keep: usize) -> bool {
        let mut gone = 0;
        while self.used > units && self.buf.len() - gone > keep {
            let weight = (self.weigh)(&self.buf[gone]);
            self.used -= weight;
            self.dropped += weight as u64;
            gone += 1;
        }
        if gone > 0 {
            self.buf.drain(..gone);
        }
        gone > 0
    }

    /// Units evicted so far.
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

    #[test]
    fn a_weighted_ring_evicts_whole_entries_and_counts_their_units() {
        let mut ring = Ring::weighted(10, |w: &usize| *w);
        assert!(!ring.push(4));
        assert!(!ring.push(6));
        assert!(ring.push(3), "4 goes, and with it 4 units");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [6, 3]);
        assert_eq!(ring.dropped(), 4);
        assert!(ring.push(12), "an entry past the bound is kept alone");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [12]);
        assert_eq!(ring.dropped(), 13);
        ring.set_capacity(1);
        assert_eq!(ring.dropped(), 13, "the newest entry stays");
    }
}
