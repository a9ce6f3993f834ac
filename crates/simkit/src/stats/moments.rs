//! Streaming first/second/third-moment accumulators.
//!
//! [`Moments`] implements Welford's numerically stable online algorithm,
//! extended to track the raw second moment `E[X²]` as well — the quantity
//! the M/G/1 response-time predictor in the `hibernator` crate needs
//! (`R = E[S] + λ·E[S²] / (2(1 − ρ))`).

/// Online mean / variance / min / max / raw second moment.
///
/// # Examples
/// ```
/// use simkit::Moments;
///
/// let mut m = Moments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.record(x);
/// }
/// assert_eq!(m.count(), 4);
/// assert_eq!(m.mean(), 2.5);
/// assert!((m.variance() - 1.25).abs() < 1e-12);
/// assert_eq!(m.raw_second_moment(), (1.0 + 4.0 + 9.0 + 16.0) / 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    sum_sq: f64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            sum_sq: 0.0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    /// Panics if `x` is not finite: a NaN sample would silently poison every
    /// later statistic.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "Moments::record: non-finite sample {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean, or 0 if empty (a neutral value convenient for reports).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (dividing by n), or 0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// The raw second moment `E[X²]`, or 0 if empty.
    pub fn raw_second_moment(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_sq / self.n as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Squared coefficient of variation `Var/Mean²`, or 0 for an empty or
    /// zero-mean accumulator. Values near 1 indicate exponential-like spread.
    pub fn cv2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// Merges another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.mean = (n1 * self.mean + n2 * other.mean) / n;
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Moments::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_neutral() {
        let m = Moments::new();
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.raw_second_moment(), 0.0);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut m = Moments::new();
        m.record(5.0);
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), Some(5.0));
        assert_eq!(m.max(), Some(5.0));
        assert_eq!(m.sum(), 5.0);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [3.1, 0.4, 2.2, 9.8, 5.5, 1.0, 7.7];
        let mut m = Moments::new();
        for &x in &xs {
            m.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let e2 = xs.iter().map(|x| x * x).sum::<f64>() / n;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert!((m.raw_second_moment() - e2).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let mut whole = Moments::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::new();
        a.record(1.0);
        a.record(2.0);
        let before = a.clone();
        a.merge(&Moments::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = Moments::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), before.mean());
    }

    #[test]
    fn cv2_of_constant_is_zero() {
        let mut m = Moments::new();
        for _ in 0..10 {
            m.record(4.2);
        }
        assert!(m.cv2().abs() < 1e-24);
    }

    #[test]
    fn reset_clears() {
        let mut m = Moments::new();
        m.record(1.0);
        m.reset();
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Moments::new().record(f64::NAN);
    }
}
