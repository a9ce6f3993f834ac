//! Property tests on the speed allocator: for arbitrary skews, loads, and
//! goals, the DP must be feasible-correct (never returns a goal-violating
//! assignment while claiming feasibility), near-optimal vs exhaustive
//! search, and monotone in the goal.

use diskmodel::{DiskSpec, PowerModel, ServiceModel};
use hibernator::{AllocationInput, ServiceEstimator, SpeedAllocator};
use simkit::DetRng;

fn setup() -> (SpeedAllocator, ServiceEstimator) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    (
        SpeedAllocator::new(&PowerModel::new(&spec), 6),
        ServiceEstimator::new(&ServiceModel::new(&spec), 6, 16),
    )
}

/// Synthetic sorted chunk rates with a controllable skew exponent.
fn rates(chunks: usize, total: f64, skew: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..chunks)
        .map(|i| 1.0 / (i as f64 + 1.0).powf(skew))
        .collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|r| r / sum * total).collect()
}

/// Exhaustive minimum-power search (small instances only).
fn exhaustive_best(
    alloc: &SpeedAllocator,
    input: &AllocationInput<'_>,
    est: &ServiceEstimator,
) -> Option<f64> {
    fn rec(
        alloc: &SpeedAllocator,
        input: &AllocationInput<'_>,
        est: &ServiceEstimator,
        level: usize,
        left: usize,
        cur: &mut Vec<usize>,
        best: &mut Option<f64>,
    ) {
        if level == alloc.levels() {
            if left == 0 {
                if let Some((_, p)) = alloc.evaluate(input, est, cur) {
                    if best.is_none_or(|b| p < b) {
                        *best = Some(p);
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

/// The DP never claims feasibility for an assignment that evaluates
/// above the goal, and every disk is assigned exactly once.
#[test]
fn feasible_claims_are_honest() {
    let (alloc, est) = setup();
    let mut rng = DetRng::new(0xA110C, "alloc-honest");
    for case in 0..48 {
        let total = rng.uniform(1.0, 800.0);
        let skew = rng.uniform(0.0, 2.0);
        let goal_ms = rng.uniform(4.0, 80.0);
        let disks = 2 + rng.below(8) as usize;
        let r = rates(64, total, skew);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks,
            goal_s: goal_ms / 1e3,
        };
        let a = alloc.allocate(&input, &est);
        assert_eq!(a.per_level.iter().sum::<usize>(), disks, "case {case}");
        if a.feasible {
            let eval = alloc.evaluate(&input, &est, &a.per_level);
            assert!(
                eval.is_some(),
                "case {case}: claimed-feasible assignment fails evaluation"
            );
            let (resp, power) = eval.unwrap();
            assert!(resp <= input.goal_s + 1e-12, "case {case}");
            assert!((power - a.predicted_power_w).abs() < 1e-6, "case {case}");
        }
    }
}

/// The DP is within 10% of the exhaustive optimum (discretisation
/// bound) and never reports feasible when exhaustive finds nothing.
#[test]
fn near_optimal_vs_exhaustive() {
    let (alloc, est) = setup();
    let mut rng = DetRng::new(0xA110C, "alloc-optimal");
    for case in 0..48 {
        let total = rng.uniform(1.0, 500.0);
        let skew = rng.uniform(0.0, 1.8);
        let goal_ms = rng.uniform(5.0, 60.0);
        let r = rates(40, total, skew);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks: 4,
            goal_s: goal_ms / 1e3,
        };
        let dp = alloc.allocate(&input, &est);
        match exhaustive_best(&alloc, &input, &est) {
            Some(best) => {
                assert!(dp.feasible, "case {case}: DP missed a feasible case");
                assert!(
                    dp.predicted_power_w <= best * 1.10 + 1e-9,
                    "case {case}: DP {} vs best {}",
                    dp.predicted_power_w,
                    best
                );
            }
            None => assert!(!dp.feasible, "case {case}"),
        }
    }
}

/// Loosening the goal never increases the optimal power.
#[test]
fn power_monotone_in_goal() {
    let (alloc, est) = setup();
    let mut rng = DetRng::new(0xA110C, "alloc-monotone");
    for case in 0..48 {
        let total = rng.uniform(5.0, 400.0);
        let skew = rng.uniform(0.0, 1.5);
        let r = rates(48, total, skew);
        let mut prev = f64::INFINITY;
        for goal_ms in [6.0, 10.0, 20.0, 50.0, 200.0] {
            let input = AllocationInput {
                chunk_rates: &r,
                chunks: r.len(),
                disks: 6,
                goal_s: goal_ms / 1e3,
            };
            let a = alloc.allocate(&input, &est);
            if a.feasible {
                assert!(
                    a.predicted_power_w <= prev + 1e-6,
                    "case {case}: power rose as goal loosened: {} after {}",
                    a.predicted_power_w,
                    prev
                );
                prev = a.predicted_power_w;
            }
        }
    }
}

/// With effectively no load, the optimum is everything at the bottom.
#[test]
fn idle_always_goes_all_slow() {
    let (alloc, est) = setup();
    for disks in 1usize..12 {
        let r = rates(32, 1e-6, 1.0);
        let input = AllocationInput {
            chunk_rates: &r,
            chunks: r.len(),
            disks,
            goal_s: 0.050,
        };
        let a = alloc.allocate(&input, &est);
        assert!(a.feasible, "disks {disks}");
        assert_eq!(a.per_level[0], disks, "disks {disks}");
    }
}

/// 64-bit FNV-1a, folded over the outputs of one allocator call.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_allocation(h: u64, a: &hibernator::Allocation) -> u64 {
    let mut h = h;
    for &n in &a.per_level {
        h = fnv1a(h, &(n as u64).to_le_bytes());
    }
    h = fnv1a(h, &a.predicted_response_s.to_bits().to_le_bytes());
    h = fnv1a(h, &a.predicted_power_w.to_bits().to_le_bytes());
    fnv1a(h, &[a.feasible as u8])
}

/// Hottest-first rates in the fleet's shape: a short nonzero head with
/// runs of tied values, then a long tail of exact zeros.
fn fleet_shaped_rates(rng: &mut DetRng, disks: usize) -> Vec<f64> {
    let chunks = 16 + rng.below(497) as usize;
    let head = match rng.below(4) {
        0 => 0,
        1 => chunks,
        _ => rng.below(chunks.min(64) as u64 + 1) as usize,
    };
    let total = disks as f64 * rng.uniform(0.01, 120.0);
    let skew = rng.uniform(0.0, 2.0);
    let mut r = rates(head.max(1), total, skew);
    r.truncate(head);
    // Ties: copy a value over the next few ranks (order stays descending).
    let mut i = 0;
    while i < r.len() {
        if rng.chance(0.3) {
            let run = 1 + rng.below(4) as usize;
            for j in i + 1..(i + 1 + run).min(r.len()) {
                r[j] = r[i];
            }
            i += run;
        }
        i += 1;
    }
    r.resize(chunks, 0.0);
    r
}

/// Pins `allocate` and `allocate_capped` bit for bit: every field of every
/// returned allocation over a seeded sweep of 1–16 disks, fleet-shaped
/// rate vectors, several goals, and generous, tight, unmeetable and zero
/// power caps. A rewrite of the DP that changes any predicted bit, any
/// per-level count or any feasibility flag changes the hash. Each call is
/// repeated on the rates' warm prefix (the zero tail left implicit, as the
/// host's ranking passes it), which must return the same allocation.
#[test]
fn allocator_outputs_are_pinned() {
    let (alloc, mut measured) = setup();
    // A second estimator whose moments come from samples, not the seed.
    let mut rng = DetRng::new(0xA110C, "alloc-pin");
    for level in 0..6 {
        for _ in 0..64 {
            let s = rng.uniform(0.004, 0.012) * (1.0 + (5 - level) as f64 * 0.15);
            measured.record(diskmodel::SpeedLevel(level), s);
        }
    }
    let (_, analytic) = setup();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut calls = 0u32;
    for disks in 1usize..=16 {
        for shape in 0..3 {
            let r = fleet_shaped_rates(&mut rng, disks);
            let est = if shape == 2 { &measured } else { &analytic };
            for goal_ms in [3.0, 9.0, 25.0, rng.uniform(4.0, 80.0)] {
                let input = AllocationInput {
                    chunk_rates: &r,
                    chunks: r.len(),
                    disks,
                    goal_s: goal_ms / 1e3,
                };
                let warm = r.iter().rposition(|&x| x > 0.0).map_or(0, |i| i + 1);
                let short = AllocationInput {
                    chunk_rates: &r[..warm],
                    ..input.clone()
                };
                let free = alloc.allocate(&input, est);
                assert_eq!(alloc.allocate(&short, est), free);
                h = hash_allocation(h, &free);
                let mut slow = vec![0; 6];
                slow[0] = disks;
                let floor = alloc
                    .evaluate_unconstrained(&input, est, &slow)
                    .map_or(disks as f64, |(_, p)| p);
                for cap in [
                    1e6,
                    floor + rng.uniform(0.0, 1.0) * (free.predicted_power_w - floor).abs(),
                    floor * 0.5,
                    0.0,
                ] {
                    let capped = alloc.allocate_capped(&input, est, cap);
                    assert_eq!(alloc.allocate_capped(&short, est, cap), capped);
                    h = hash_allocation(h, &capped);
                }
                calls += 5;
            }
        }
    }
    assert_eq!(calls, 16 * 3 * 4 * 5);
    assert_eq!(h, 0x0dc69cd1f96ebe1c, "allocator outputs moved: {h:#018x}");
}
