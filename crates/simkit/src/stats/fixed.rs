//! Linear fixed-bucket histogram.
//!
//! [`LatencyHistogram`](super::LatencyHistogram) trades resolution for
//! range with geometric buckets; telemetry wants the opposite trade:
//! buckets whose boundaries are trivially reproducible from two numbers
//! (`width`, `buckets`) so a serialized count vector can be re-derived and
//! compared byte-for-byte by an external auditor. [`FixedHistogram`]
//! buckets `[0, width)`, `[width, 2·width)`, … plus a single overflow
//! bucket for everything at or above `width · buckets`.

/// A histogram over equal-width buckets starting at zero.
///
/// # Examples
/// ```
/// use simkit::FixedHistogram;
///
/// let mut h = FixedHistogram::new(10.0, 4);
/// h.record(0.0);
/// h.record(9.9);
/// h.record(35.0);
/// h.record(1e9); // lands in the overflow bucket
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.counts(), &[2, 0, 0, 1]);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FixedHistogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
}

impl FixedHistogram {
    /// Creates a histogram with `buckets` buckets of `width` each.
    ///
    /// # Panics
    /// Panics if `width` is not positive and finite or `buckets` is zero.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "FixedHistogram: bad width {width}"
        );
        assert!(buckets > 0, "FixedHistogram: zero buckets");
        FixedHistogram {
            width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// The configured bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The bucket of `v` (`counts().len()` or more for the overflow
    /// bucket). The cast truncates, which equals `floor` on the
    /// non-negative quotient and skips the libm call.
    fn index(&self, v: f64) -> usize {
        (v / self.width) as usize
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if `v` is negative or non-finite.
    pub fn record(&mut self, v: f64) {
        assert!(v >= 0.0 && v.is_finite(), "FixedHistogram: bad sample {v}");
        let idx = self.index(v);
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += v;
    }

    /// Total samples recorded (including overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Per-bucket counts; the overflow bucket is *not* included.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples at or above `width · buckets`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Half-open value range `[lo, hi)` of bucket `i`.
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        (i as f64 * self.width, (i + 1) as f64 * self.width)
    }

    /// Merges another histogram with the identical layout.
    ///
    /// # Panics
    /// Panics if widths or bucket counts differ.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.width == other.width && self.counts.len() == other.counts.len(),
            "FixedHistogram: merge layout mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Clears all counts, keeping the layout.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.overflow = 0;
        self.total = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The truncating bucket index equals the `floor` form it replaced on
    /// seeded samples, on every edge `k·width` and its `next_up` and
    /// `next_down` neighbours, on 0 and far into the overflow bucket.
    #[test]
    fn truncating_index_equals_floor_form() {
        let mut rng = crate::DetRng::new(0xB0C, "fixed-index");
        for (width, buckets) in [(0.001, 64), (0.5, 200), (10.0, 4), (3.7, 1_000)] {
            let h = FixedHistogram::new(width, buckets);
            let floor_form = |v: f64| (v / width).floor() as usize;
            let mut xs = vec![0.0, 1e300, f64::MAX];
            for k in 1..=buckets as u32 + 2 {
                let edge = f64::from(k) * width;
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            let top = width * buckets as f64 * 1.5;
            xs.extend((0..50_000).map(|_| rng.uniform(0.0, top)));
            for v in xs {
                assert_eq!(h.index(v), floor_form(v), "v = {v}");
            }
        }
    }

    #[test]
    fn buckets_are_half_open_and_overflow_catches_the_rest() {
        let mut h = FixedHistogram::new(2.0, 3);
        for v in [0.0, 1.999, 2.0, 5.999, 6.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_range(1), (2.0, 4.0));
    }

    #[test]
    fn mean_and_reset() {
        let mut h = FixedHistogram::new(1.0, 2);
        assert!(h.mean().is_none());
        h.record(1.0);
        h.record(3.0);
        assert_eq!(h.mean(), Some(2.0));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.counts(), &[0, 0]);
    }

    #[test]
    fn merge_accumulates_identical_layouts() {
        let mut a = FixedHistogram::new(1.0, 2);
        let mut b = FixedHistogram::new(1.0, 2);
        a.record(0.5);
        b.record(0.5);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0]);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic]
    fn negative_sample_panics() {
        FixedHistogram::new(1.0, 1).record(-0.1);
    }

    #[test]
    #[should_panic]
    fn merge_layout_mismatch_panics() {
        let mut a = FixedHistogram::new(1.0, 2);
        a.merge(&FixedHistogram::new(2.0, 2));
    }
}
