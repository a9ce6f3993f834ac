//! Fixed-bucket time series for "X over time" figures.
//!
//! Several experiments plot a quantity against simulated time (per-epoch
//! energy, windowed response time, disks per tier). [`TimeSeries`] buckets
//! samples into fixed-width intervals and records, per bucket, the sample
//! mean and sum — enough for every figure in the suite without retaining
//! raw samples.

use crate::time::{SimDuration, SimTime};

/// One aggregated bucket of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesBucket {
    /// Number of samples in the bucket.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Smallest sample, meaningless if `count == 0`.
    pub min: f64,
    /// Largest sample, meaningless if `count == 0`.
    pub max: f64,
}

impl SeriesBucket {
    /// Mean of the bucket's samples, or `None` if the bucket is empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// A time series aggregated into fixed-width buckets.
///
/// # Examples
/// ```
/// use simkit::{SimDuration, SimTime, TimeSeries};
///
/// let mut s = TimeSeries::new(SimDuration::from_secs(60.0));
/// s.record(SimTime::from_secs(10.0), 1.0);
/// s.record(SimTime::from_secs(20.0), 3.0);
/// s.record(SimTime::from_secs(70.0), 8.0);
/// let pts = s.mean_points();
/// assert_eq!(pts.len(), 2);
/// assert_eq!(pts[0], (30.0, 2.0)); // bucket midpoint, mean
/// assert_eq!(pts[1], (90.0, 8.0));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_width: SimDuration,
    buckets: Vec<SeriesBucket>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(!bucket_width.is_zero(), "TimeSeries: zero bucket width");
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// The configured bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// The bucket index of time `t`. The cast truncates, which equals
    /// `floor` on a non-negative quotient and skips the libm call.
    fn bucket_index(&self, t: SimTime) -> usize {
        (t.as_secs() / self.bucket_width.as_secs()) as usize
    }

    fn bucket_for(&mut self, t: SimTime) -> &mut SeriesBucket {
        let idx = self.bucket_index(t);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, SeriesBucket::default());
        }
        &mut self.buckets[idx]
    }

    /// Records a sample at time `t`.
    ///
    /// # Panics
    /// Panics if `v` is non-finite.
    pub fn record(&mut self, t: SimTime, v: f64) {
        assert!(v.is_finite(), "TimeSeries: non-finite sample");
        let b = self.bucket_for(t);
        if b.count == 0 {
            b.min = v;
            b.max = v;
        } else {
            b.min = b.min.min(v);
            b.max = b.max.max(v);
        }
        b.count += 1;
        b.sum += v;
    }

    /// Number of buckets spanned so far (including empty interior buckets).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Bucket at index `i`, if it exists.
    pub fn bucket(&self, i: usize) -> Option<&SeriesBucket> {
        self.buckets.get(i)
    }

    /// `(bucket_midpoint_secs, mean)` for every non-empty bucket.
    pub fn mean_points(&self) -> Vec<(f64, f64)> {
        self.points_by(|b| b.mean())
    }

    /// `(bucket_midpoint_secs, sum)` for every non-empty bucket — e.g. the
    /// joules spent in each interval.
    pub fn sum_points(&self) -> Vec<(f64, f64)> {
        self.points_by(|b| (b.count > 0).then_some(b.sum))
    }

    fn points_by(&self, f: impl Fn(&SeriesBucket) -> Option<f64>) -> Vec<(f64, f64)> {
        let w = self.bucket_width.as_secs();
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| f(b).map(|v| ((i as f64 + 0.5) * w, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The truncating bucket index equals the `floor` form it replaced on
    /// seeded times, on every edge `k·width` and its `next_up` and
    /// `next_down` neighbours, and on 0.
    #[test]
    fn truncating_bucket_index_equals_floor_form() {
        let mut rng = crate::DetRng::new(0xB0C, "series-index");
        for width in [0.1, 1.0, 7.3, 60.0, 300.0] {
            let s = TimeSeries::new(SimDuration::from_secs(width));
            let floor_form = |t: SimTime| (t.as_secs() / width).floor() as usize;
            let mut xs = vec![0.0];
            for k in 1..5_000 {
                let edge = f64::from(k) * width;
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            xs.extend((0..50_000).map(|_| rng.uniform(0.0, 86_400.0)));
            for x in xs {
                assert_eq!(s.bucket_index(t(x)), floor_form(t(x)), "t = {x}");
            }
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(SimDuration::from_secs(1.0));
        assert!(s.is_empty());
        assert!(s.mean_points().is_empty());
        assert!(s.bucket(0).is_none());
    }

    #[test]
    fn bucketing_boundaries() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10.0));
        s.record(t(0.0), 1.0);
        s.record(t(9.999), 2.0);
        s.record(t(10.0), 3.0); // exactly on the boundary: next bucket
        assert_eq!(s.len(), 2);
        assert_eq!(s.bucket(0).unwrap().count, 2);
        assert_eq!(s.bucket(1).unwrap().count, 1);
    }

    #[test]
    fn interior_gaps_are_skipped_in_points() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1.0));
        s.record(t(0.5), 1.0);
        s.record(t(5.5), 2.0);
        let pts = s.mean_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (0.5, 1.0));
        assert_eq!(pts[1], (5.5, 2.0));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn bucket_stats() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10.0));
        for v in [4.0, 6.0, 2.0] {
            s.record(t(3.0), v);
        }
        let b = s.bucket(0).unwrap();
        assert_eq!(b.count, 3);
        assert_eq!(b.sum, 12.0);
        assert_eq!(b.min, 2.0);
        assert_eq!(b.max, 6.0);
        assert_eq!(b.mean(), Some(4.0));
    }

    #[test]
    fn sum_points_report_totals() {
        let mut s = TimeSeries::new(SimDuration::from_secs(60.0));
        s.record(t(1.0), 100.0);
        s.record(t(2.0), 50.0);
        let pts = s.sum_points();
        assert_eq!(pts, vec![(30.0, 150.0)]);
    }

    #[test]
    #[should_panic(expected = "zero bucket width")]
    fn rejects_zero_width() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }
}
