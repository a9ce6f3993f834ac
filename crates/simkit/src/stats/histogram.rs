//! Log-scaled latency histogram with percentile queries.
//!
//! Response times in a disk simulation span five orders of magnitude
//! (sub-millisecond cache-adjacent transfers up to multi-second spin-up
//! stalls), so [`LatencyHistogram`] buckets samples geometrically: each
//! bucket's upper bound is `growth` times the previous one. This gives a
//! constant *relative* error bound on percentile queries (≤ `growth − 1`)
//! with a few hundred buckets.

/// A geometric-bucket histogram over positive values.
///
/// Bucket storage is allocated on the first sample (or the first merge of
/// a non-empty histogram), so a histogram that never sees a sample costs
/// only the struct itself.
///
/// # Examples
/// ```
/// use simkit::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new_latency();
/// for i in 1..=1000 {
///     h.record(i as f64 / 1000.0); // 1ms .. 1s
/// }
/// let p50 = h.quantile(0.50).unwrap();
/// assert!((p50 - 0.5).abs() / 0.5 < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Lower bound of bucket 0; samples below it land in bucket 0.
    floor: f64,
    /// Geometric growth factor between bucket bounds (> 1).
    growth: f64,
    /// `ln(growth)` cached for bucket-index computation.
    ln_growth: f64,
    /// Number of buckets in the layout, whether or not `counts` is
    /// allocated yet.
    buckets: usize,
    /// Per-bucket counts: empty until the first sample lands, then
    /// exactly `buckets` long.
    counts: Vec<u64>,
    total: u64,
    /// Count of samples at or below `floor` (kept inside bucket 0).
    underflow: u64,
    /// Exact running extremes, so `quantile(0.0)`/`quantile(1.0)` are tight.
    min: f64,
    max: f64,
}

impl LatencyHistogram {
    /// A histogram tuned for latencies: 10 µs floor, 2 % buckets, covering
    /// up to ~30 minutes.
    pub fn new_latency() -> Self {
        Self::new(1e-5, 1.02, 900)
    }

    /// Creates a histogram with `buckets` geometric buckets starting at
    /// `floor` and growing by `growth` per bucket.
    ///
    /// # Panics
    /// Panics if `floor <= 0`, `growth <= 1`, or `buckets == 0`.
    pub fn new(floor: f64, growth: f64, buckets: usize) -> Self {
        assert!(floor > 0.0, "floor must be positive");
        assert!(growth > 1.0, "growth must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        LatencyHistogram {
            floor,
            growth,
            ln_growth: growth.ln(),
            buckets,
            counts: Vec::new(),
            total: 0,
            underflow: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket of `x`. The cast truncates, which equals `floor` on the
    /// non-negative quotient (`x > floor`, so its log is not negative) and
    /// skips the libm call.
    fn bucket_index(&self, x: f64) -> usize {
        if x <= self.floor {
            return 0;
        }
        let idx = ((x / self.floor).ln() / self.ln_growth) as usize;
        idx.min(self.buckets - 1)
    }

    /// The bucket counts, allocated on first use.
    fn counts_mut(&mut self) -> &mut [u64] {
        if self.counts.is_empty() {
            self.counts = vec![0; self.buckets];
        }
        &mut self.counts
    }

    /// Upper bound of bucket `i`.
    fn bucket_upper(&self, i: usize) -> f64 {
        self.floor * self.growth.powi(i as i32 + 1)
    }

    /// Adds one sample.
    ///
    /// # Panics
    /// Panics if `x` is negative or non-finite.
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "LatencyHistogram::record: bad sample {x}"
        );
        if x <= self.floor {
            self.underflow += 1;
        }
        let i = self.bucket_index(x);
        self.counts_mut()[i] += 1;
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), or `None` if empty.
    ///
    /// The answer is the upper bound of the bucket containing the q-th
    /// sample, clamped to the exact observed `[min, max]`; relative error is
    /// bounded by `growth − 1`.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile: bad q {q}");
        if self.total == 0 {
            return None;
        }
        if q == 0.0 {
            return Some(self.min);
        }
        // Rank of the target sample (1-based), at least 1.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exact observed maximum, or `None` if empty.
    pub fn observed_max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact observed minimum, or `None` if empty.
    pub fn observed_min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Fraction of samples that were at or below the bucket floor.
    pub fn underflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.underflow as f64 / self.total as f64
        }
    }

    /// Merges another histogram with identical bucket layout.
    ///
    /// # Panics
    /// Panics if the layouts differ.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.floor, other.floor, "merge: floor mismatch");
        assert_eq!(self.growth, other.growth, "merge: growth mismatch");
        assert_eq!(self.buckets, other.buckets, "merge: bucket-count mismatch");
        if other.total > 0 {
            for (a, b) in self.counts_mut().iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.underflow += other.underflow;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates `(bucket_upper_bound, count)` for non-empty buckets —
    /// the raw series behind a CDF plot.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_upper(i), c))
    }

    /// Emits the empirical CDF as `(value, cumulative_fraction)` points.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (ub, c) in self.nonempty_buckets() {
            cum += c;
            out.push((ub.min(self.max), cum as f64 / self.total as f64));
        }
        out
    }

    /// Resets all counts.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.underflow = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The truncating bucket index equals the `floor` form it replaced on
    /// seeded samples, on every bucket edge `floor·growthᵏ` and its `next_up`
    /// and `next_down` neighbours, on 0 and on values below the floor.
    #[test]
    fn truncating_bucket_index_equals_floor_form() {
        for h in [
            LatencyHistogram::new_latency(),
            LatencyHistogram::new(1e-3, 1.5, 40),
            LatencyHistogram::new(0.25, 1.001, 5_000),
        ] {
            let floor_form = |x: f64| {
                if x <= h.floor {
                    return 0;
                }
                let idx = ((x / h.floor).ln() / h.ln_growth).floor() as usize;
                idx.min(h.buckets - 1)
            };
            let mut xs = vec![0.0, h.floor / 3.0, h.floor.next_down(), h.floor];
            for k in 0..=h.buckets as i32 + 2 {
                let edge = h.floor * h.growth.powi(k);
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            let mut rng = crate::DetRng::new(0xB0C, "latency-index");
            xs.extend((0..100_000).map(|_| h.floor * (rng.uniform01() * 40.0).exp()));
            for x in xs {
                assert_eq!(h.bucket_index(x), floor_form(x), "x = {x:e}");
            }
        }
    }

    #[test]
    fn empty_histogram() {
        let mut h = LatencyHistogram::new_latency();
        assert_eq!(h.counts.capacity(), 0, "buckets allocated before a sample");
        h.merge(&LatencyHistogram::new_latency());
        assert_eq!(h.counts.capacity(), 0, "empty merge allocated buckets");
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.observed_max(), None);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    fn merge_with_an_empty_side_matches_eager_fill() {
        let mut filled = LatencyHistogram::new_latency();
        for i in 1..=300 {
            filled.record(i as f64 * 3e-4);
        }
        let mut into_empty = LatencyHistogram::new_latency();
        into_empty.merge(&filled);
        let mut empty_into = filled.clone();
        empty_into.merge(&LatencyHistogram::new_latency());
        for h in [&into_empty, &empty_into] {
            assert_eq!(h.count(), filled.count());
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), filled.quantile(q), "q={q}");
            }
            assert_eq!(h.cdf_points(), filled.cdf_points());
            assert_eq!(h.observed_min(), filled.observed_min());
            assert_eq!(h.observed_max(), filled.observed_max());
            assert_eq!(h.underflow_fraction(), filled.underflow_fraction());
        }
    }

    #[test]
    fn single_value_quantiles() {
        let mut h = LatencyHistogram::new_latency();
        h.record(0.010);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 0.010).abs() <= 0.010 * 0.03, "q={q} v={v}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new_latency();
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-4).collect(); // 0.1ms..1s
        for &x in &xs {
            h.record(x);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let exact = xs[((q * xs.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                (est - exact).abs() / exact < 0.05,
                "q={q} exact={exact} est={est}"
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = LatencyHistogram::new_latency();
        h.record(0.0003);
        h.record(2.5);
        h.record(0.04);
        assert_eq!(h.quantile(0.0), Some(0.0003));
        assert_eq!(h.observed_min(), Some(0.0003));
        assert_eq!(h.observed_max(), Some(2.5));
        assert_eq!(h.quantile(1.0), Some(2.5));
    }

    #[test]
    fn underflow_counted() {
        let mut h = LatencyHistogram::new(1e-3, 1.1, 50);
        h.record(0.0);
        h.record(1e-4);
        h.record(0.5);
        assert!((h.underflow_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_clamps_to_last_bucket() {
        let mut h = LatencyHistogram::new(1e-3, 1.1, 10);
        h.record(1e9);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(1e9)); // clamped to observed max
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = LatencyHistogram::new_latency();
        let mut b = LatencyHistogram::new_latency();
        let mut whole = LatencyHistogram::new_latency();
        for i in 1..=1000 {
            let x = i as f64 * 1e-3;
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::new_latency();
        for i in 1..=500 {
            h.record(i as f64 * 2e-3);
        }
        let cdf = h.cdf_points();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let mut h = LatencyHistogram::new_latency();
        h.record(0.1);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.observed_min(), None);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket-count mismatch")]
    fn merge_rejects_mismatched_layout_even_when_empty() {
        LatencyHistogram::new(1e-3, 1.1, 10).merge(&LatencyHistogram::new(1e-3, 1.1, 20));
    }

    #[test]
    #[should_panic(expected = "bad sample")]
    fn rejects_negative() {
        LatencyHistogram::new_latency().record(-1.0);
    }
}
