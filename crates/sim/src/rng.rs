//! Deterministic pseudo-random number generators.
//!
//! Workload generation, jitter, and failure schedules must be reproducible
//! from a seed so that tests and benchmark runs are comparable. We implement
//! two tiny, well-known generators rather than depending on `rand`'s evolving
//! API: SplitMix64 (used for seeding and cheap one-off streams) and
//! xoshiro256** (the main workhorse).

/// SplitMix64: a fast 64-bit generator with excellent seeding behaviour.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA '14). Primarily used here to expand a single `u64`
/// seed into the state of larger generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose generator used throughout the simulator.
///
/// Reference: Blackman & Vigna — "Scrambled linear pseudorandom number
/// generators" (TOMS 2021).
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64 (the construction recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is a fixed point; nudge it if the seed expansion
        // somehow produced one.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Uses Lemire's multiply-shift rejection
    /// method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: retry only for the tiny biased band.
            let t = bound.wrapping_neg() % bound;
            if lo >= t {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive-exclusive range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(1);
        let mut c = Xoshiro256StarStar::new(2);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xoshiro256StarStar::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut r = Xoshiro256StarStar::new(9);
        for _ in 0..1000 {
            let v = r.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::new(3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Xoshiro256StarStar::new(5);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            // Non-trivially sized buffers should not remain all-zero (with
            // overwhelming probability for a correct implementation).
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256StarStar::new(11);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn uniformity_rough_check() {
        // Chi-squared-ish sanity: 10 buckets, 100k draws, each bucket within
        // 10% of the expectation.
        let mut r = Xoshiro256StarStar::new(13);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((9_000..11_000).contains(&b), "bucket count {b}");
        }
    }
}
