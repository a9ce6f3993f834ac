//! Response-time prediction.
//!
//! Hibernator's speed allocator needs to answer, *before* committing an
//! epoch's layout: "if `n` disks spin at level `k` and absorb arrival rate
//! `λ`, what will the mean response time be?". Each disk is modelled as an
//! M/G/1 queue — Poisson arrivals (a good fit for OLTP front-ends), general
//! service times — whose mean response is the Pollaczek–Khinchine formula:
//!
//! ```text
//! R = E[S] + λ·E[S²] / (2·(1 − ρ)),   ρ = λ·E[S]
//! ```
//!
//! The two service moments per speed level come from the
//! [`ServiceEstimator`]: seeded analytically from the disk's service model
//! and replaced by live measurements once enough completions accumulate —
//! so the predictor tracks the *actual* workload (request sizes, locality)
//! rather than datasheet assumptions.

use diskmodel::{ServiceModel, SpeedLevel};
use simkit::Moments;

/// Offered load (`ρ = λ·E[S]`) at or above which a server is treated as
/// saturated. The closed form diverges as ρ → 1, and loads this close to
/// 1 predict response times far beyond any goal, so the allocator treats
/// them as infeasible outright rather than comparing astronomical finite
/// values.
pub const RHO_SATURATION: f64 = 0.999;

/// Mean M/G/1 response time (seconds) for one server.
///
/// Returns `f64::INFINITY` when the server is effectively saturated
/// (ρ ≥ [`RHO_SATURATION`]): callers treat that as "assignment
/// infeasible".
///
/// # Panics
/// Panics if any argument is negative or non-finite.
pub fn mg1_response(lambda: f64, es: f64, es2: f64) -> f64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "bad arrival rate {lambda}"
    );
    assert!(es > 0.0 && es.is_finite(), "bad E[S] {es}");
    assert!(es2 > 0.0 && es2.is_finite(), "bad E[S²] {es2}");
    let rho = lambda * es;
    if rho >= RHO_SATURATION {
        return f64::INFINITY;
    }
    es + lambda * es2 / (2.0 * (1.0 - rho))
}

/// Per-level service-time moment estimates.
#[derive(Debug, Clone)]
pub struct ServiceEstimator {
    measured: Vec<Moments>,
    analytic: Vec<(f64, f64)>,
    /// Switch from analytic to measured after this many samples.
    min_samples: u64,
}

impl ServiceEstimator {
    /// Builds the estimator for `levels` speed levels, seeding each level's
    /// moments from `model` assuming random requests of `seed_sectors`.
    ///
    /// The analytic seed for `E[S²]` uses `1.5·E[S]²` — i.e. a squared
    /// coefficient of variation of 0.5, typical for random disk service
    /// (deterministic-ish transfer plus variable seek+rotation).
    pub fn new(model: &ServiceModel, levels: usize, seed_sectors: u32) -> ServiceEstimator {
        let analytic = (0..levels)
            .map(|l| {
                let es = model.expected_random_service_s(SpeedLevel(l), seed_sectors);
                (es, 1.5 * es * es)
            })
            .collect();
        ServiceEstimator {
            measured: vec![Moments::new(); levels],
            analytic,
            min_samples: 50,
        }
    }

    /// Number of levels covered.
    pub fn levels(&self) -> usize {
        self.measured.len()
    }

    /// Records a measured service time at `level`.
    ///
    /// # Panics
    /// Panics if the level is out of range or the sample non-positive.
    pub fn record(&mut self, level: SpeedLevel, service_s: f64) {
        assert!(service_s > 0.0, "service time must be positive");
        self.measured[level.index()].record(service_s);
    }

    /// `(E[S], E[S²])` for `level`: measured when enough samples exist,
    /// analytic otherwise.
    pub fn moments(&self, level: SpeedLevel) -> (f64, f64) {
        let m = &self.measured[level.index()];
        if m.count() >= self.min_samples {
            (m.mean(), m.raw_second_moment())
        } else {
            self.analytic[level.index()]
        }
    }

    /// Predicted mean response time of one disk at `level` absorbing
    /// `lambda` requests/second.
    pub fn response(&self, level: SpeedLevel, lambda: f64) -> f64 {
        let (es, es2) = self.moments(level);
        mg1_response(lambda, es, es2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::DiskSpec;

    fn estimator() -> ServiceEstimator {
        let spec = DiskSpec::ultrastar_multispeed(6);
        ServiceEstimator::new(&ServiceModel::new(&spec), 6, 16)
    }

    #[test]
    fn zero_load_response_is_service_time() {
        let r = mg1_response(0.0, 0.005, 5e-5);
        assert_eq!(r, 0.005);
    }

    #[test]
    fn response_grows_with_load() {
        let es = 0.005;
        let es2 = 1.5 * es * es;
        let mut prev = 0.0;
        for i in 1..19 {
            let lambda = i as f64 * 10.0; // up to 180/s, ρ = 0.9
            let r = mg1_response(lambda, es, es2);
            assert!(r > prev, "not monotone at λ={lambda}");
            prev = r;
        }
    }

    #[test]
    fn saturation_threshold_matches_doc() {
        // ρ exactly at the named constant saturates; just below does not.
        let (es, es2) = (1.0, 1.5);
        assert!(mg1_response(RHO_SATURATION, es, es2).is_infinite());
        assert!(mg1_response(RHO_SATURATION - 1e-6, es, es2).is_finite());
    }

    #[test]
    fn saturation_is_infinite() {
        assert!(mg1_response(200.0, 0.005, 5e-5).is_infinite());
        assert!(mg1_response(1000.0, 0.005, 5e-5).is_infinite());
    }

    #[test]
    fn near_saturation_blows_up() {
        let es = 0.005;
        let es2 = 1.5 * es * es;
        let r90 = mg1_response(180.0, es, es2);
        let r50 = mg1_response(100.0, es, es2);
        assert!(r90 > 4.0 * r50, "queueing blow-up missing: {r50} vs {r90}");
    }

    #[test]
    fn analytic_seeds_ordered_by_speed() {
        let e = estimator();
        let mut prev = f64::INFINITY;
        for l in 0..6 {
            let (es, es2) = e.moments(SpeedLevel(l));
            assert!(es < prev, "faster level must serve faster");
            assert!(es2 > es * es, "E[S²] ≥ E[S]²");
            prev = es;
        }
    }

    #[test]
    fn measurements_override_analytic() {
        let mut e = estimator();
        let l = SpeedLevel(3);
        let (seed_es, _) = e.moments(l);
        for _ in 0..60 {
            e.record(l, 0.042);
        }
        let (es, es2) = e.moments(l);
        assert!((es - 0.042).abs() < 1e-12);
        assert!((es2 - 0.042 * 0.042).abs() < 1e-9);
        assert_ne!(es, seed_es);
    }

    #[test]
    fn few_samples_keep_analytic() {
        let mut e = estimator();
        let l = SpeedLevel(0);
        let before = e.moments(l);
        for _ in 0..10 {
            e.record(l, 123.0); // absurd outliers must not leak through yet
        }
        assert_eq!(e.moments(l), before);
    }

    #[test]
    fn response_at_least_service() {
        let mut rng = simkit::DetRng::new(0xA71, "mg1-lambda");
        for _ in 0..1_000 {
            let lambda = rng.uniform(0.0, 150.0);
            let es = 0.005;
            let r = mg1_response(lambda, es, 1.5 * es * es);
            assert!(r >= es, "lambda {lambda}");
        }
    }
}
