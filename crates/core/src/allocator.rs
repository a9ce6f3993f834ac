//! The coarse-grained speed allocator.
//!
//! Once per epoch Hibernator chooses *how many disks spin at each speed*.
//! The inputs are the temperature-sorted per-chunk arrival rates, the
//! per-level service moments, and the response-time goal; the output is a
//! disk count per level minimizing predicted power subject to the goal.
//!
//! # Model
//!
//! Capacity stays balanced: every disk holds `⌈C/N⌉` chunks. Tiers are
//! filled hottest-first — the fastest tier's disks take the hottest chunk
//! prefix, and so on down. For an assignment `(n_{K-1}, …, n_0)`:
//!
//! * tier load `λ_k` = summed rates of its chunk range, split evenly over
//!   its `n_k` disks (the ranking's cold tail adds nothing, so only the
//!   warm prefix's rates are summed);
//! * per-disk response `R_k` from the M/G/1 predictor;
//! * array response `R̄ = Σ λ_k·R_k / λ` (request-weighted);
//! * power `P = Σ n_k·(P_idle(k) + ρ_k·P_active_extra)`.
//!
//! # Search
//!
//! Exact dynamic programming over (level, disks assigned), with the
//! accumulated weighted-response budget discretised into buckets. The
//! discretisation is conservative (budgets round *up*), so a returned
//! assignment always satisfies the goal under the model. For small arrays
//! the exhaustive enumeration in the tests cross-checks optimality.

use crate::predictor::ServiceEstimator;
use diskmodel::{PowerModel, SpeedLevel};

/// Inputs that change every epoch.
#[derive(Debug, Clone)]
pub struct AllocationInput<'a> {
    /// Per-chunk arrival rates (req/s), sorted descending (hottest first):
    /// a prefix of the full ranking, whose other chunks have rate 0.
    pub chunk_rates: &'a [f64],
    /// The full ranking's length, the chunks the disks share (at least
    /// `chunk_rates.len()`).
    pub chunks: usize,
    /// Number of disks to distribute.
    pub disks: usize,
    /// Mean response-time goal, seconds.
    pub goal_s: f64,
}

/// The allocator's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Disks per level (index = level, 0 = slowest).
    pub per_level: Vec<usize>,
    /// Predicted request-weighted mean response time (s); 0 when idle.
    pub predicted_response_s: f64,
    /// Predicted array power (W).
    pub predicted_power_w: f64,
    /// False when no assignment met the goal and the all-fast fallback was
    /// returned, and for a bare [`Allocation::all_fast`] plan.
    pub feasible: bool,
}

impl Allocation {
    /// All `disks` disks at the fastest level (the Base layout), predicting
    /// 0 s and 0 W and marked infeasible. The allocator returns it, with
    /// real predictions filled in, when no assignment meets the goal; a
    /// Hibernator applies it bare before its first epoch and for every
    /// boost. With nothing predicted it feeds no calibration, and the
    /// coarse-grain test never keeps an infeasible plan, so the next
    /// epoch's plan always replaces it.
    pub fn all_fast(disks: usize, levels: usize) -> Allocation {
        let mut per_level = vec![0; levels];
        per_level[levels - 1] = disks;
        Allocation {
            per_level,
            predicted_response_s: 0.0,
            predicted_power_w: 0.0,
            feasible: false,
        }
    }
}

/// The allocator: owns the per-level power figures, borrows fresh service
/// moments per call.
pub struct SpeedAllocator {
    idle_w: Vec<f64>,
    active_extra_w: f64,
    /// Response-budget discretisation buckets.
    buckets: usize,
}

impl SpeedAllocator {
    /// Builds the allocator from the disk power model.
    pub fn new(power: &PowerModel, levels: usize) -> SpeedAllocator {
        SpeedAllocator {
            idle_w: (0..levels).map(|l| power.idle_w(SpeedLevel(l))).collect(),
            // Seek and transfer extras are close; use their midpoint for the
            // load-dependent term.
            active_extra_w: 3.15,
            buckets: 160,
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.idle_w.len()
    }

    /// Evaluates one concrete assignment. Returns `None` if infeasible
    /// (some tier saturated or goal exceeded).
    pub fn evaluate(
        &self,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
        per_level: &[usize],
    ) -> Option<(f64, f64)> {
        self.evaluate_inner(input, est, per_level, true)
    }

    /// Evaluates ignoring the goal (used for the all-fast fallback, whose
    /// predictions still feed the model-calibration loop). Returns `None`
    /// only on saturation.
    pub fn evaluate_unconstrained(
        &self,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
        per_level: &[usize],
    ) -> Option<(f64, f64)> {
        self.evaluate_inner(input, est, per_level, false)
    }

    fn evaluate_inner(
        &self,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
        per_level: &[usize],
        enforce_goal: bool,
    ) -> Option<(f64, f64)> {
        assert_eq!(per_level.len(), self.levels(), "arity mismatch");
        assert_eq!(
            per_level.iter().sum::<usize>(),
            input.disks,
            "must assign every disk"
        );
        let cum = cumulative_rates(input, input.disks);
        let total_rate: f64 = *cum.last().expect("cum non-empty");

        let mut used = 0usize;
        let mut weighted = 0.0;
        let mut power = 0.0;
        // Fastest level first consumes the hottest prefix.
        for level in (0..self.levels()).rev() {
            let n = per_level[level];
            if n == 0 {
                continue;
            }
            let lam_tier = cum[used + n] - cum[used];
            let lam_disk = lam_tier / n as f64;
            let r = est.response(SpeedLevel(level), lam_disk);
            if !r.is_finite() {
                return None;
            }
            weighted += lam_tier * r;
            let (es, _) = est.moments(SpeedLevel(level));
            let rho = (lam_disk * es).min(1.0);
            power += n as f64 * (self.idle_w[level] + rho * self.active_extra_w);
            used += n;
        }
        let mean_resp = if total_rate > 0.0 {
            weighted / total_rate
        } else {
            0.0
        };
        if enforce_goal && mean_resp > input.goal_s {
            return None;
        }
        Some((mean_resp, power))
    }

    /// Finds the minimum-power assignment meeting the goal. Falls back to
    /// all-fast (flagged `feasible: false`) if nothing meets it.
    pub fn allocate(&self, input: &AllocationInput<'_>, est: &ServiceEstimator) -> Allocation {
        assert!(input.disks > 0, "no disks");
        assert!(input.goal_s > 0.0, "goal must be positive");
        let levels = self.levels();
        let n = input.disks;
        let cum = cumulative_rates(input, n);
        let total_rate = *cum.last().expect("non-empty");
        let budget = input.goal_s * total_rate.max(1e-12);
        let b = self.buckets;
        let cols = b + 1;

        // dp[used * cols + bucket] = min power, processed fastest level
        // first; `ndp` is the next level's table, swapped in after it.
        let mut dp = vec![INF; (n + 1) * cols];
        let mut ndp = dp.clone();
        let mut choice = ChoiceTable::new(levels, n, cols);
        let mut costs = Vec::new();
        dp[0] = 0.0;

        for (step, level) in (0..levels).rev().enumerate() {
            self.tier_costs(level, &cum, est, &mut costs);
            ndp.fill(INF);
            for used in 0..=n {
                for bk in 0..=b {
                    let cur = dp[used * cols + bk];
                    if !cur.is_finite() {
                        continue;
                    }
                    for take in takes(level, n - used) {
                        let Some((add_w, add_p)) = costs[used * (n + 1) + take] else {
                            continue;
                        };
                        // Conservative: round the consumed budget up.
                        let spent = bk as f64 / b as f64 * budget + add_w;
                        if spent > budget * (1.0 + 1e-9) {
                            continue;
                        }
                        let nbk = ((spent / budget * b as f64).ceil() as usize).min(b);
                        let np = cur + add_p;
                        let slot = (used + take) * cols + nbk;
                        if np < ndp[slot] {
                            ndp[slot] = np;
                            choice.set(step, slot, bk, take);
                        }
                    }
                }
            }
            std::mem::swap(&mut dp, &mut ndp);
        }

        // Best terminal state.
        let mut best: Option<(usize, f64)> = None; // (bucket, power)
        for bk in 0..=b {
            let p = dp[n * cols + bk];
            if p.is_finite() && best.is_none_or(|(_, bp)| p < bp) {
                best = Some((bk, p));
            }
        }
        let Some((bk, power)) = best else {
            // No feasible assignment: fall back to all-fast, but carry its
            // *real* predicted response/power so the calibration loop keeps
            // comparing model to measurement.
            let mut fallback = Allocation::all_fast(n, levels);
            if let Some((resp, pw)) = self.evaluate_unconstrained(input, est, &fallback.per_level) {
                fallback.predicted_response_s = resp;
                fallback.predicted_power_w = pw;
            }
            return fallback;
        };

        let per_level = choice.reconstruct(bk);
        let (resp, pw) = self
            .evaluate(input, est, &per_level)
            .expect("DP result must evaluate feasible");
        debug_assert!((pw - power).abs() < 1e-6);
        Allocation {
            per_level,
            predicted_response_s: resp,
            predicted_power_w: pw,
            feasible: true,
        }
    }

    /// Finds the minimum-response assignment whose predicted power fits
    /// under `cap_w` — the planning mode a fleet power grant imposes. The
    /// usual objective is inverted: power becomes the constraint and
    /// response the objective, so a capped array degrades latency no more
    /// than the budget forces. `feasible` reports whether the chosen plan
    /// also meets the response goal. When even the all-slowest layout
    /// exceeds the cap, that layout is returned flagged infeasible — the
    /// cap is soft, and the overdraw is the fleet accounting's problem.
    pub fn allocate_capped(
        &self,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
        cap_w: f64,
    ) -> Allocation {
        assert!(input.disks > 0, "no disks");
        let levels = self.levels();
        let n = input.disks;
        let cum = cumulative_rates(input, n);
        let b = self.buckets;
        let cols = b + 1;
        let cap = cap_w.max(0.0);
        if cap <= 0.0 {
            return self.min_power_layout(input, est);
        }

        // dp over (disks used, power bucket): minimise the weighted
        // response sum, tie-broken toward lower exact power. Same
        // fastest-level-first tier filling as `allocate`.
        let mut dpw = vec![INF; (n + 1) * cols];
        let mut dpp = dpw.clone();
        let mut nw = dpw.clone();
        let mut np = dpw.clone();
        let mut choice = ChoiceTable::new(levels, n, cols);
        let mut costs = Vec::new();
        dpw[0] = 0.0;
        dpp[0] = 0.0;

        for (step, level) in (0..levels).rev().enumerate() {
            self.tier_costs(level, &cum, est, &mut costs);
            nw.fill(INF);
            np.fill(INF);
            for used in 0..=n {
                for bk in 0..=b {
                    let cur_w = dpw[used * cols + bk];
                    if !cur_w.is_finite() {
                        continue;
                    }
                    let cur_p = dpp[used * cols + bk];
                    for take in takes(level, n - used) {
                        let Some((add_w, add_p)) = costs[used * (n + 1) + take] else {
                            continue;
                        };
                        // Conservative: round the consumed power budget up,
                        // so a reconstructed plan always fits the cap.
                        let spent = bk as f64 / b as f64 * cap + add_p;
                        if spent > cap * (1.0 + 1e-9) {
                            continue;
                        }
                        let nbk = ((spent / cap * b as f64).ceil() as usize).min(b);
                        let w = cur_w + add_w;
                        let p = cur_p + add_p;
                        let slot = (used + take) * cols + nbk;
                        if w < nw[slot] || (w == nw[slot] && p < np[slot]) {
                            nw[slot] = w;
                            np[slot] = p;
                            choice.set(step, slot, bk, take);
                        }
                    }
                }
            }
            std::mem::swap(&mut dpw, &mut nw);
            std::mem::swap(&mut dpp, &mut np);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (bucket, weighted, power)
        for bk in 0..=b {
            let w = dpw[n * cols + bk];
            if !w.is_finite() {
                continue;
            }
            let p = dpp[n * cols + bk];
            if best.is_none_or(|(_, bw, bp)| w < bw || (w == bw && p < bp)) {
                best = Some((bk, w, p));
            }
        }
        let Some((bk, _, _)) = best else {
            return self.min_power_layout(input, est);
        };

        let mut out = Allocation {
            per_level: choice.reconstruct(bk),
            predicted_response_s: 0.0,
            predicted_power_w: 0.0,
            feasible: false,
        };
        if let Some((resp, pw)) = self.evaluate_unconstrained(input, est, &out.per_level) {
            out.predicted_response_s = resp;
            out.predicted_power_w = pw;
            out.feasible = resp <= input.goal_s;
        }
        out
    }

    /// The `(weighted response, power)` that a tier of `take` disks at
    /// `level` adds when it takes the chunk range after the hottest `used`
    /// disks' worth, into `out[used * (disks + 1) + take]`; `None` where
    /// that tier saturates. Both DPs read it for every budget bucket, so
    /// it is computed once per level. At level 0 only `take = disks - used`
    /// is filled (see [`takes`]).
    fn tier_costs(
        &self,
        level: usize,
        cum: &[f64],
        est: &ServiceEstimator,
        out: &mut Vec<Option<(f64, f64)>>,
    ) {
        let n = cum.len() - 1;
        out.clear();
        out.resize((n + 1) * (n + 1), None);
        let (es, _es2) = est.moments(SpeedLevel(level));
        for used in 0..=n {
            for take in takes(level, n - used) {
                out[used * (n + 1) + take] = if take == 0 {
                    Some((0.0, 0.0))
                } else {
                    let lam_tier = cum[used + take] - cum[used];
                    let lam_disk = lam_tier / take as f64;
                    let r = est.response(SpeedLevel(level), lam_disk);
                    let rho = (lam_disk * es).min(1.0);
                    r.is_finite().then(|| {
                        (
                            lam_tier * r,
                            take as f64 * (self.idle_w[level] + rho * self.active_extra_w),
                        )
                    })
                };
            }
        }
    }

    /// The all-slowest layout with its real (unconstrained) predictions —
    /// the floor a power cap can push an array to. Always flagged
    /// infeasible: callers reach here only when the cap is unmeetable.
    fn min_power_layout(&self, input: &AllocationInput<'_>, est: &ServiceEstimator) -> Allocation {
        let mut per_level = vec![0usize; self.levels()];
        per_level[0] = input.disks;
        let mut out = Allocation {
            per_level,
            predicted_response_s: 0.0,
            predicted_power_w: 0.0,
            feasible: false,
        };
        if let Some((resp, pw)) = self.evaluate_unconstrained(input, est, &out.per_level) {
            out.predicted_response_s = resp;
            out.predicted_power_w = pw;
        }
        out
    }
}

const INF: f64 = f64::INFINITY;

/// The tier sizes a DP step may give `level` when `left` disks remain:
/// any count above level 0, and every remaining disk at level 0, so each
/// plan assigns all disks.
fn takes(level: usize, left: usize) -> std::ops::RangeInclusive<usize> {
    if level == 0 {
        left..=left
    } else {
        0..=left
    }
}

/// Back-pointers of a DP over (level, disks used, bucket), one flat table
/// for all levels: each reached state records the bucket it came from and
/// the disks its level took (the disks used before are `used - take`).
struct ChoiceTable {
    levels: usize,
    disks: usize,
    cols: usize,
    from: Vec<(u32, u32)>,
}

impl ChoiceTable {
    fn new(levels: usize, disks: usize, cols: usize) -> ChoiceTable {
        ChoiceTable {
            levels,
            disks,
            cols,
            from: vec![(u32::MAX, 0); levels * (disks + 1) * cols],
        }
    }

    /// Records that the state at `slot` (`used * cols + bucket`) of DP
    /// step `step` came from bucket `bk` with `take` disks at this level.
    fn set(&mut self, step: usize, slot: usize, bk: usize, take: usize) {
        self.from[step * (self.disks + 1) * self.cols + slot] = (bk as u32, take as u32);
    }

    /// Walks the back-pointers from the all-disks state in bucket `bk` of
    /// the last step to the disks per level (index = level). Steps run
    /// fastest level first.
    fn reconstruct(&self, mut bk: usize) -> Vec<usize> {
        let mut per_level = vec![0usize; self.levels];
        let mut used = self.disks;
        for (step, level) in (0..self.levels).rev().enumerate().rev() {
            let (pb, take) = self.from[step * (self.disks + 1) * self.cols + used * self.cols + bk];
            debug_assert_ne!(pb, u32::MAX, "broken DP chain");
            per_level[level] = take as usize;
            used -= take as usize;
            bk = pb as usize;
        }
        debug_assert_eq!(used, 0);
        per_level
    }
}

/// Prefix sums of tier loads: `cum[i]` = total rate of the hottest
/// `i × chunks_per_disk` chunks, for i = 0..=disks.
fn cumulative_rates(input: &AllocationInput<'_>, disks: usize) -> Vec<f64> {
    debug_assert!(input.chunk_rates.len() <= input.chunks);
    let chunk_rates = input.chunk_rates;
    let cpd = input.chunks.div_ceil(disks.max(1)).max(1);
    let mut cum = Vec::with_capacity(disks + 1);
    cum.push(0.0);
    let mut acc = 0.0;
    for d in 0..disks {
        let lo = (d * cpd).min(chunk_rates.len());
        let hi = ((d + 1) * cpd).min(chunk_rates.len());
        acc += chunk_rates[lo..hi].iter().sum::<f64>();
        cum.push(acc);
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::{DiskSpec, ServiceModel};

    fn setup() -> (SpeedAllocator, ServiceEstimator) {
        let spec = DiskSpec::ultrastar_multispeed(6);
        let alloc = SpeedAllocator::new(&PowerModel::new(&spec), 6);
        let est = ServiceEstimator::new(&ServiceModel::new(&spec), 6, 16);
        (alloc, est)
    }

    /// Zipf-ish synthetic chunk rates summing to `total`, sorted descending.
    fn rates(chunks: usize, total: f64) -> Vec<f64> {
        let raw: Vec<f64> = (0..chunks).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|r| r / sum * total).collect()
    }

    /// Exhaustive reference: enumerate all compositions.
    fn exhaustive(
        alloc: &SpeedAllocator,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
    ) -> Option<(Vec<usize>, f64)> {
        fn rec(
            alloc: &SpeedAllocator,
            input: &AllocationInput<'_>,
            est: &ServiceEstimator,
            level: usize,
            left: usize,
            cur: &mut Vec<usize>,
            best: &mut Option<(Vec<usize>, f64)>,
        ) {
            if level == alloc.levels() {
                if left == 0 {
                    if let Some((_, p)) = alloc.evaluate(input, est, cur) {
                        if best.as_ref().is_none_or(|(_, bp)| p < *bp) {
                            *best = Some((cur.clone(), p));
                        }
                    }
                }
                return;
            }
            for take in 0..=left {
                cur.push(take);
                rec(alloc, input, est, level + 1, left - take, cur, best);
                cur.pop();
            }
        }
        let mut best = None;
        rec(
            alloc,
            input,
            est,
            0,
            input.disks,
            &mut Vec::new(),
            &mut best,
        );
        best
    }

    #[test]
    fn idle_array_goes_all_slow() {
        let (alloc, est) = setup();
        let r = rates(64, 0.001); // essentially no load
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.050,
        };
        let a = alloc.allocate(&input, &est);
        assert!(a.feasible);
        assert_eq!(
            a.per_level[0], 8,
            "all disks should crawl: {:?}",
            a.per_level
        );
    }

    #[test]
    fn heavy_load_goes_all_fast() {
        let (alloc, est) = setup();
        // ~150 req/s per disk at 8 disks ≈ ρ≈0.9 even at full speed.
        let r = rates(64, 1100.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.040,
        };
        let a = alloc.allocate(&input, &est);
        let fast: usize = a.per_level[4..].iter().sum();
        assert!(
            fast >= 7,
            "heavy load must keep disks fast: {:?}",
            a.per_level
        );
    }

    #[test]
    fn moderate_skewed_load_mixes_tiers() {
        let (alloc, est) = setup();
        // Very steep skew (∝ 1/i²): the hot head needs fast disks, the cold
        // tail does not, and the goal is loose enough that slow disks are
        // admissible for the tail but too slow for the head.
        let raw: Vec<f64> = (0..64).map(|i| 1.0 / ((i + 1) as f64).powi(2)).collect();
        let sum: f64 = raw.iter().sum();
        let r: Vec<f64> = raw.into_iter().map(|x| x / sum * 250.0).collect();
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.008,
        };
        let a = alloc.allocate(&input, &est);
        assert!(a.feasible, "{:?}", a.per_level);
        let slow_side: usize = a.per_level[..2].iter().sum();
        let fast_side: usize = a.per_level[3..].iter().sum();
        assert!(slow_side > 0, "cold tail should crawl: {:?}", a.per_level);
        assert!(
            fast_side > 0,
            "hot head needs fast disks: {:?}",
            a.per_level
        );
        assert!(a.predicted_response_s <= 0.008);
    }

    #[test]
    fn dp_matches_exhaustive_power() {
        let (alloc, est) = setup();
        for (total, goal) in [(30.0, 0.030), (120.0, 0.025), (400.0, 0.020), (5.0, 0.1)] {
            let r = rates(40, total);
            let input = AllocationInput {
                chunk_rates: &r,
                chunks: r.len(),
                disks: 5,
                goal_s: goal,
            };
            let dp = alloc.allocate(&input, &est);
            let ex = exhaustive(&alloc, &input, &est);
            match ex {
                Some((_, best_p)) => {
                    assert!(dp.feasible, "DP missed feasible at total={total}");
                    // Discretisation may cost a little; never more than 10%.
                    assert!(
                        dp.predicted_power_w <= best_p * 1.10 + 1e-9,
                        "total={total}: dp {} vs exhaustive {best_p}",
                        dp.predicted_power_w
                    );
                }
                None => assert!(!dp.feasible, "DP found infeasible-only case feasible"),
            }
        }
    }

    #[test]
    fn returned_assignment_meets_goal_under_model() {
        let (alloc, est) = setup();
        let r = rates(64, 200.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.022,
        };
        let a = alloc.allocate(&input, &est);
        if a.feasible {
            let (resp, _) = alloc.evaluate(&input, &est, &a.per_level).unwrap();
            assert!(resp <= input.goal_s + 1e-12);
        }
    }

    #[test]
    fn tighter_goal_means_more_power() {
        let (alloc, est) = setup();
        let r = rates(64, 150.0);
        let mut prev_power = 0.0;
        for goal in [0.100, 0.040, 0.020, 0.012] {
            let input = AllocationInput {
                chunk_rates: &r,
                chunks: r.len(),
                disks: 8,
                goal_s: goal,
            };
            let a = alloc.allocate(&input, &est);
            assert!(a.feasible, "goal {goal} should be feasible");
            assert!(
                a.predicted_power_w >= prev_power - 1e-9,
                "power must not drop as the goal tightens: {} then {}",
                prev_power,
                a.predicted_power_w
            );
            prev_power = a.predicted_power_w;
        }
    }

    #[test]
    fn impossible_goal_falls_back_to_all_fast() {
        let (alloc, est) = setup();
        let r = rates(64, 2500.0); // saturates even all-fast
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 4,
            goal_s: 0.001,
        };
        let a = alloc.allocate(&input, &est);
        assert!(!a.feasible);
        assert_eq!(*a.per_level.last().unwrap(), 4);
    }

    #[test]
    fn capped_allocation_respects_the_cap() {
        let (alloc, est) = setup();
        let r = rates(64, 150.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.020,
        };
        let free = alloc.allocate_capped(&input, &est, 1e9);
        for cap in [free.predicted_power_w, 70.0, 55.0, 45.0] {
            let a = alloc.allocate_capped(&input, &est, cap);
            assert!(
                a.predicted_power_w <= cap + 1e-9,
                "cap {cap}: plan draws {} W ({:?})",
                a.predicted_power_w,
                a.per_level
            );
            assert_eq!(a.per_level.iter().sum::<usize>(), 8);
        }
    }

    #[test]
    fn tighter_cap_degrades_response_monotonically() {
        let (alloc, est) = setup();
        let r = rates(64, 150.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.020,
        };
        let mut prev = 0.0;
        for cap in [120.0, 70.0, 55.0, 45.0] {
            let a = alloc.allocate_capped(&input, &est, cap);
            assert!(
                a.predicted_response_s >= prev - 1e-12,
                "cap {cap}: response improved from {prev} to {}",
                a.predicted_response_s
            );
            prev = a.predicted_response_s;
        }
    }

    #[test]
    fn unmeetable_cap_returns_the_crawl_layout() {
        let (alloc, est) = setup();
        let r = rates(64, 10.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.050,
        };
        let a = alloc.allocate_capped(&input, &est, 0.5);
        assert!(!a.feasible, "an unmeetable cap is never feasible");
        assert_eq!(a.per_level[0], 8, "floor is all-slowest: {:?}", a.per_level);
    }

    #[test]
    fn generous_cap_matches_the_unconstrained_best_response() {
        let (alloc, est) = setup();
        let r = rates(64, 150.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 8,
            goal_s: 0.020,
        };
        // With an effectively infinite cap the minimum-response plan is
        // whatever the exhaustive search finds as best response.
        let a = alloc.allocate_capped(&input, &est, 1e9);
        let mut best = f64::INFINITY;
        fn rec(
            alloc: &SpeedAllocator,
            input: &AllocationInput<'_>,
            est: &ServiceEstimator,
            level: usize,
            left: usize,
            cur: &mut Vec<usize>,
            best: &mut f64,
        ) {
            if level == alloc.levels() {
                if left == 0 {
                    if let Some((r, _)) = alloc.evaluate_unconstrained(input, est, cur) {
                        *best = best.min(r);
                    }
                }
                return;
            }
            for take in 0..=left {
                cur.push(take);
                rec(alloc, input, est, level + 1, left - take, cur, best);
                cur.pop();
            }
        }
        rec(&alloc, &input, &est, 0, 8, &mut Vec::new(), &mut best);
        assert!(
            a.predicted_response_s <= best * 1.10 + 1e-9,
            "capped {} vs exhaustive best {best}",
            a.predicted_response_s
        );
    }

    #[test]
    fn cumulative_rates_cover_everything() {
        let r = vec![4.0, 3.0, 2.0, 1.0];
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 2,
            goal_s: 0.01,
        };
        let cum = cumulative_rates(&input, 2);
        assert_eq!(cum, vec![0.0, 7.0, 10.0]);
        // More disks than chunks: later disks take empty ranges.
        let cum = cumulative_rates(&input, 8);
        assert_eq!(cum.len(), 9);
        assert_eq!(*cum.last().unwrap(), 10.0);
        // A warm prefix of a longer ranking: the tier ranges follow the
        // full length, and the implicit tail adds nothing.
        let prefix = AllocationInput {
            chunk_rates: &r[..3],
            chunks: 8,
            ..input
        };
        assert_eq!(cumulative_rates(&prefix, 2), vec![0.0, 9.0, 9.0]);
        assert_eq!(cumulative_rates(&prefix, 4), vec![0.0, 7.0, 9.0, 9.0, 9.0]);
    }
}
