//! Request-distribution generators (uniform, zipfian, scrambled, latest).

use sim::Xoshiro256StarStar;

/// The standard YCSB zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Zipfian generator over `[0, n)` (Gray et al., "Quickly generating
/// billion-record synthetic databases" — the algorithm YCSB uses).
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator over `items` elements with the standard constant.
    pub fn new(items: u64) -> Self {
        Self::with_constant(items, ZIPFIAN_CONSTANT)
    }

    /// Builds a generator with an explicit skew constant.
    pub fn with_constant(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        let zetan = Self::zeta(items, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; sampled approximation for large n (the sum
        // converges and YCSB itself memoises known values).
        if n <= 1_000_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=1_000_000u64)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // Integral approximation of the tail.
            let a = 1_000_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Draws the next rank (0 = most popular).
    pub fn next(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// Zipfian ranks scattered uniformly over the key space, so popularity is
/// not correlated with insertion order (YCSB's `ScrambledZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Builds a scrambled generator over `items` keys.
    pub fn new(items: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(items),
        }
    }

    /// Draws the next key index in `[0, items)`.
    pub fn next(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        let rank = self.inner.next(rng);
        fnv64(rank) % self.inner.items()
    }
}

/// FNV-1a over the rank's bytes (YCSB's scramble hash).
pub fn fnv64(v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// How request keys are chosen.
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Uniform over the current key count.
    Uniform,
    /// Scrambled zipfian over the loaded key count.
    Zipfian(ScrambledZipfian),
    /// Skewed towards the most recently inserted keys (workload D).
    Latest(Zipfian),
}

impl KeyChooser {
    /// Picks a key index given the current number of keys.
    pub fn next(&self, rng: &mut Xoshiro256StarStar, current_keys: u64) -> u64 {
        match self {
            KeyChooser::Uniform => rng.next_below(current_keys.max(1)),
            KeyChooser::Zipfian(z) => z.next(rng),
            KeyChooser::Latest(z) => {
                let back = z.next(rng).min(current_keys.saturating_sub(1));
                current_keys - 1 - back
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(42)
    }

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::new(1000);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.next(&mut r) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(10_000);
        let mut r = rng();
        let mut top10 = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if z.next(&mut r) < 10 {
                top10 += 1;
            }
        }
        // With θ=0.99 over 10k items, the top-10 ranks get roughly a third
        // of the traffic; uniform would give 0.1%.
        let frac = top10 as f64 / n as f64;
        assert!(frac > 0.15, "zipfian not skewed enough: {frac}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let z = ScrambledZipfian::new(1000);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(z.next(&mut r));
        }
        // The hottest scrambled keys should not all be clustered at index 0.
        assert!(seen.iter().any(|&k| k > 500));
        assert!(seen.len() > 50);
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let chooser = KeyChooser::Latest(Zipfian::new(1000));
        let mut r = rng();
        let mut recent = 0;
        let n = 10_000;
        for _ in 0..n {
            let k = chooser.next(&mut r, 1000);
            assert!(k < 1000);
            if k >= 990 {
                recent += 1;
            }
        }
        assert!(recent as f64 / n as f64 > 0.2, "latest not recency-skewed");
    }

    #[test]
    fn uniform_covers_space() {
        let chooser = KeyChooser::Uniform;
        let mut r = rng();
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[(chooser.next(&mut r, 1000) / 100) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 700, "uniform bucket too small: {b}");
        }
    }

    #[test]
    fn single_item_zipfian_works() {
        let z = Zipfian::new(1);
        let mut r = rng();
        assert_eq!(z.next(&mut r), 0);
    }
}
