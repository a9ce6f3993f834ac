//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (arrival processes, popularity
//! samplers, placement shuffles, fault injectors) draws from its own
//! [`DetRng`] stream derived from a single experiment seed plus a component
//! label. Splitting by label means adding a new random consumer does not
//! perturb the draws seen by existing ones — a property that keeps A/B
//! experiment comparisons honest.
//!
//! The generator is a self-contained **xoshiro256++** (public-domain
//! algorithm by Blackman & Vigna), seeded via SplitMix64 mixing of
//! `(seed, label-hash)`. Implementing it inline keeps the workspace free of
//! external dependencies and guarantees the stream is bit-stable forever —
//! no upstream crate version can ever shift our experiment results.

/// SplitMix64 step: a small, well-tested mixer used for seed derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used so RNG streams are named rather than numbered.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A deterministic, labelled random stream.
///
/// Cloning snapshots the stream state: the clone and the original then
/// produce the *same* draws. That is deliberate — streaming generators use
/// a clone to replay a draw sequence they have already accounted for (see
/// `workload`'s two-pass trick) — but it means two clones must never both
/// feed "independent" consumers; derive a labelled child with
/// [`DetRng::split`] for that.
///
/// # Examples
/// ```
/// use simkit::DetRng;
///
/// let mut a = DetRng::new(42, "arrivals");
/// let mut b = DetRng::new(42, "arrivals");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed+label => same stream
///
/// let mut c = DetRng::new(42, "popularity");
/// assert_ne!(DetRng::new(42, "arrivals").next_u64(), c.next_u64());
/// ```
#[derive(Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates the stream for `(seed, label)`.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut state = seed ^ fnv1a(label);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut state);
        }
        // All-zero state is the one degenerate case; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// The next 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Derives a child stream; children with distinct labels are independent.
    pub fn split(&mut self, label: &str) -> DetRng {
        let seed = self.next_u64();
        DetRng::new(seed, label)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        // 53 random mantissa bits — the standard (u >> 11) * 2^-53 recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: n must be positive");
        // Lemire-style rejection sampling: unbiased for every n.
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// An exponentially distributed sample with the given `rate` (events/sec).
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential: bad rate {rate}"
        );
        // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
        -(1.0 - self.uniform01()).ln() / rate
    }

    /// Bernoulli trial with probability `p` of `true`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance: bad probability {p}");
        self.uniform01() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_label_reproduces() {
        let mut a = DetRng::new(7, "x");
        let mut b = DetRng::new(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = DetRng::new(7, "x");
        let mut b = DetRng::new(7, "y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(7, "x");
        let mut b = DetRng::new(8, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_deterministic() {
        let mut p1 = DetRng::new(1, "parent");
        let mut p2 = DetRng::new(1, "parent");
        let mut c1 = p1.split("child");
        let mut c2 = p2.split("child");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = DetRng::new(3, "exp");
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = DetRng::new(5, "u");
        for _ in 0..10_000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let k = rng.below(10);
            assert!(k < 10);
        }
    }

    #[test]
    fn uniform01_in_unit_interval_and_well_spread() {
        let mut rng = DetRng::new(11, "u01");
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.uniform01();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = DetRng::new(13, "below");
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8500..11500).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut a = DetRng::new(21, "fb");
        let mut b = DetRng::new(21, "fb");
        let mut x = [0u8; 13];
        let mut y = [0u8; 13];
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
        assert!(x.iter().any(|&v| v != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5, "c");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(9, "s");
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should move items");
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn exponential_rejects_zero_rate() {
        DetRng::new(1, "e").exponential(0.0);
    }

    #[test]
    fn clone_snapshots_the_stream() {
        let mut a = DetRng::new(17, "snap");
        let _ = a.next_u64(); // advance off the seed state
        let mut b = a.clone();
        let ahead: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let replay: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(ahead, replay, "a clone must replay the same draws");
    }
}
