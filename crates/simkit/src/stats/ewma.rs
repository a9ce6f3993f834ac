//! Exponentially weighted moving averages over irregular samples.
//!
//! Temperature tracking in Hibernator needs "recent access frequency with
//! old history forgotten". [`Ewma`] implements a continuous-time EWMA: the
//! weight of past information decays as `exp(-Δt / τ)` where `τ` is the
//! half-life-like time constant, so sampling intervals need not be uniform.

use crate::time::{SimDuration, SimTime};

/// Continuous-time exponentially weighted moving average.
///
/// # Examples
/// ```
/// use simkit::{Ewma, SimDuration, SimTime};
///
/// let mut e = Ewma::new(SimDuration::from_secs(10.0));
/// e.observe(SimTime::from_secs(0.0), 100.0);
/// // After several time constants the value converges to new observations:
/// for i in 1..=20 {
///     e.observe(SimTime::from_secs(i as f64 * 10.0), 0.0);
/// }
/// assert!(e.value().unwrap() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    tau: SimDuration,
    value: Option<f64>,
    last: SimTime,
}

impl Ewma {
    /// Creates an EWMA with time constant `tau` (larger = slower to forget).
    ///
    /// # Panics
    /// Panics if `tau` is zero.
    pub fn new(tau: SimDuration) -> Self {
        assert!(!tau.is_zero(), "Ewma: tau must be positive");
        Ewma {
            tau,
            value: None,
            last: SimTime::ZERO,
        }
    }

    /// Blends in a new observation at time `now`.
    ///
    /// # Panics
    /// Panics if `x` is non-finite.
    pub fn observe(&mut self, now: SimTime, x: f64) {
        assert!(x.is_finite(), "Ewma: non-finite observation");
        match self.value {
            None => self.value = Some(x),
            Some(v) => {
                let dt = now.saturating_since(self.last);
                let alpha = 1.0 - (-(dt / self.tau)).exp();
                self.value = Some(v + alpha * (x - v));
            }
        }
        self.last = now;
    }

    /// The current smoothed value, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The configured time constant.
    pub fn tau(&self) -> SimDuration {
        self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn ewma_first_observation_taken_verbatim() {
        let mut e = Ewma::new(SimDuration::from_secs(5.0));
        assert_eq!(e.value(), None);
        e.observe(t(0.0), 42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(SimDuration::from_secs(1.0));
        e.observe(t(0.0), 0.0);
        for i in 1..=50 {
            e.observe(t(i as f64), 10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_long_gap_forgets_history() {
        let mut e = Ewma::new(SimDuration::from_secs(1.0));
        e.observe(t(0.0), 100.0);
        e.observe(t(1000.0), 0.0); // gap of 1000 time constants
        assert!(e.value().unwrap().abs() < 1e-9);
    }

    #[test]
    fn ewma_zero_gap_keeps_old_value() {
        let mut e = Ewma::new(SimDuration::from_secs(1.0));
        e.observe(t(5.0), 10.0);
        e.observe(t(5.0), 0.0); // alpha = 0 at dt = 0
        assert_eq!(e.value(), Some(10.0));
    }
}
