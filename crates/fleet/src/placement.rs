//! The tenant placement map: which array serves which tenant, per epoch.
//!
//! Placement is planned *ahead* of simulation from the trace's per-epoch
//! tenant heat (requests issued), so routing is a pure function of the
//! input — deterministic, jobs-invariant, and auditable. Epoch 0 stripes
//! tenants round-robin; each later epoch starts from the previous
//! placement and, when rebalancing is on, greedily moves the hottest
//! tenant off the hottest array onto the coldest one until the hottest
//! array is within 25 % of the mean load (or the per-epoch move budget
//! runs out). All ties break toward the lowest index, and a move is only
//! taken when it strictly reduces the maximum load, so the plan is stable
//! and never ping-pongs within an epoch.

/// One planned tenant relocation, effective for epoch `epoch`'s requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantMove {
    /// The fleet epoch the move takes effect in.
    pub epoch: usize,
    /// The tenant moved.
    pub tenant: u32,
    /// Array the tenant leaves.
    pub from: u32,
    /// Array the tenant joins.
    pub to: u32,
}

/// A fully planned placement: one `tenant → array` row per fleet epoch,
/// plus the move list that produced it.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// `rows[epoch][tenant]` is the serving array.
    pub rows: Vec<Vec<u32>>,
    /// Every rebalancing move, ascending by epoch.
    pub moves: Vec<TenantMove>,
}

/// The load imbalance threshold: rebalance while the hottest array holds
/// more than this multiple of the mean per-array load.
const IMBALANCE: f64 = 1.25;

/// Plans tenant placement from the per-epoch heat matrix
/// (`heat[epoch][tenant]` = request count, see
/// `workload::tenants::tenant_heat`). Epoch `k`'s row is derived from
/// epoch `k-1`'s observed heat — the planner never peeks at the epoch it
/// is placing, mirroring what an online rebalancer could know.
///
/// # Panics
/// Panics if `heat` is empty, ragged, or `arrays` is zero.
pub fn plan_placement(
    heat: &[Vec<u64>],
    arrays: usize,
    rebalance: bool,
    max_moves_per_epoch: usize,
) -> PlacementPlan {
    assert!(!heat.is_empty(), "need at least one epoch of heat");
    assert!(arrays > 0, "need at least one array");
    let tenants = heat[0].len();
    assert!(tenants > 0, "need at least one tenant");
    for row in heat {
        assert_eq!(row.len(), tenants, "ragged heat matrix");
    }

    let mut rows = Vec::with_capacity(heat.len());
    rows.push(
        (0..tenants)
            .map(|t| (t % arrays) as u32)
            .collect::<Vec<u32>>(),
    );
    let mut moves = Vec::new();

    for k in 1..heat.len() {
        let mut row = rows[k - 1].clone();
        if rebalance && arrays > 1 {
            let h = &heat[k - 1];
            let mut load = vec![0u64; arrays];
            for (t, &a) in row.iter().enumerate() {
                load[a as usize] += h[t];
            }
            let total: u64 = load.iter().sum();
            let mean = total as f64 / arrays as f64;
            let mut budget = max_moves_per_epoch;
            while budget > 0 && total > 0 {
                let hot = arg_extreme(&load, |a, b| a > b);
                let cold = arg_extreme(&load, |a, b| a < b);
                if hot == cold || (load[hot] as f64) <= IMBALANCE * mean {
                    break;
                }
                // Heaviest tenant on the hot array whose move strictly
                // shrinks the hot side (otherwise the same tenant would
                // slosh back and forth). Considering only tenants that fit
                // matters: the hottest tenant alone may be too heavy to
                // move — a "whale" — while a lighter one still shrinks
                // the max, so the whale must not stall the whole epoch.
                let mut best: Option<(u64, usize)> = None;
                for (t, &a) in row.iter().enumerate() {
                    if a as usize == hot
                        && h[t] > 0
                        && load[cold] + h[t] < load[hot]
                        && best.is_none_or(|(bh, _)| h[t] > bh)
                    {
                        best = Some((h[t], t));
                    }
                }
                // No movable tenant can improve the max: settle the epoch.
                let Some((th, t)) = best else { break };
                row[t] = cold as u32;
                load[hot] -= th;
                load[cold] += th;
                moves.push(TenantMove {
                    epoch: k,
                    tenant: t as u32,
                    from: hot as u32,
                    to: cold as u32,
                });
                budget -= 1;
            }
        }
        rows.push(row);
    }
    PlacementPlan { rows, moves }
}

/// Index of the extreme element under `better` (strict), lowest index on
/// ties.
fn arg_extreme(xs: &[u64], better: impl Fn(u64, u64) -> bool) -> usize {
    let mut ix = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if better(x, xs[ix]) {
            ix = i;
        }
    }
    ix
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `plan.moves` over `rows[0]`, one epoch at a time: every
    /// move must depart from the tenant's owner just before it, and the
    /// owners after epoch `k`'s moves must equal `rows[k]`.
    fn assert_moves_replay_rows(plan: &PlacementPlan) {
        let mut owners = plan.rows[0].clone();
        let mut moves = plan.moves.iter().peekable();
        for (k, row) in plan.rows.iter().enumerate().skip(1) {
            while let Some(m) = moves.next_if(|m| m.epoch == k) {
                assert_eq!(
                    owners[m.tenant as usize], m.from,
                    "move {m:?} departs from the wrong array"
                );
                assert_ne!(m.from, m.to, "move {m:?} goes nowhere");
                owners[m.tenant as usize] = m.to;
            }
            assert_eq!(&owners, row, "replayed owners diverge at epoch {k}");
        }
        assert_eq!(moves.next(), None, "moves out of epoch order or range");
    }

    #[test]
    fn moves_replay_to_every_row() {
        // The heat fixtures of the tests below, at the array counts they
        // use and one more.
        let fixtures: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![5, 5, 5, 5, 5, 5]],
            vec![vec![100, 0, 0], vec![0, 100, 0], vec![0, 0, 100]],
            vec![vec![90, 1, 40], vec![90, 1, 40], vec![90, 1, 40]],
            vec![vec![50, 50, 50, 50], vec![50, 50, 50, 50]],
            vec![vec![100, 1, 100, 1], vec![100, 1, 100, 1]],
            vec![
                vec![1000, 100, 60, 100, 60, 100, 60, 100],
                vec![1000, 100, 60, 100, 60, 100, 60, 100],
            ],
            vec![vec![1000, 1, 1], vec![1000, 1, 1]],
        ];
        for heat in &fixtures {
            for arrays in 1..=4 {
                for budget in [1, 8, 100] {
                    assert_moves_replay_rows(&plan_placement(heat, arrays, true, budget));
                }
            }
        }

        // Seeded random sweep: skewed heat (idle tenants, whales) over
        // varied fleet shapes, so many epochs move several tenants.
        let mut rng = simkit::DetRng::new(15, "placement-replay");
        let mut total_moves = 0;
        for _ in 0..300 {
            let arrays = 1 + rng.below(6) as usize;
            let tenants = 1 + rng.below(40) as usize;
            let epochs = 1 + rng.below(8) as usize;
            let heat: Vec<Vec<u64>> = (0..epochs)
                .map(|_| {
                    (0..tenants)
                        .map(|_| match rng.below(10) {
                            0..=2 => 0,
                            3 => 500 + rng.below(5000),
                            _ => rng.below(100),
                        })
                        .collect()
                })
                .collect();
            let budget = 1 + rng.below(8) as usize;
            let plan = plan_placement(&heat, arrays, true, budget);
            total_moves += plan.moves.len();
            assert_moves_replay_rows(&plan);
        }
        assert!(total_moves > 100, "sweep moved only {total_moves} tenants");
    }

    #[test]
    fn first_epoch_is_round_robin() {
        let heat = vec![vec![5, 5, 5, 5, 5, 5]];
        let plan = plan_placement(&heat, 3, true, 8);
        assert_eq!(plan.rows, vec![vec![0, 1, 2, 0, 1, 2]]);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn single_array_never_moves() {
        let heat = vec![vec![100, 0, 0], vec![0, 100, 0], vec![0, 0, 100]];
        let plan = plan_placement(&heat, 1, true, 8);
        assert!(plan.moves.is_empty());
        assert!(plan.rows.iter().all(|r| r.iter().all(|&a| a == 0)));
    }

    #[test]
    fn hot_tenant_is_shed_to_the_coldest_array() {
        // Tenants 0 and 2 land on array 0 and run hot; array 1 is idle.
        let heat = vec![vec![90, 1, 40], vec![90, 1, 40]];
        let plan = plan_placement(&heat, 2, true, 8);
        assert_eq!(plan.rows[0], vec![0, 1, 0]);
        // Epoch 1 moves tenant 0 (the hottest) off array 0 (130 vs 1),
        // then tenant 1 back the other way: 40/91 → 41/90 still strictly
        // shrinks the max, and only then does the greedy settle.
        assert_eq!(
            plan.moves,
            vec![
                TenantMove {
                    epoch: 1,
                    tenant: 0,
                    from: 0,
                    to: 1,
                },
                TenantMove {
                    epoch: 1,
                    tenant: 1,
                    from: 1,
                    to: 0,
                },
            ]
        );
        assert_eq!(plan.rows[1], vec![1, 0, 0]);
    }

    #[test]
    fn rebalance_off_keeps_the_initial_stripe() {
        let heat = vec![vec![90, 1, 40], vec![90, 1, 40], vec![90, 1, 40]];
        let plan = plan_placement(&heat, 2, false, 8);
        assert!(plan.moves.is_empty());
        assert!(plan.rows.iter().all(|r| r == &plan.rows[0]));
    }

    #[test]
    fn move_budget_is_respected() {
        // Every tenant on array 0 is hot; only one move allowed per epoch.
        let heat = vec![vec![50, 50, 50, 50], vec![50, 50, 50, 50]];
        let mut skew = plan_placement(&heat, 4, true, 1);
        // Round-robin spreads 4 tenants over 4 arrays evenly: no moves.
        assert!(skew.moves.is_empty());
        // Force imbalance: 2 arrays, tenants 0 and 2 (then 1 and 3) pair up;
        // make one pair much hotter.
        let heat = vec![vec![100, 1, 100, 1], vec![100, 1, 100, 1]];
        skew = plan_placement(&heat, 2, true, 1);
        assert!(skew.moves.len() <= 1, "one move per epoch at budget 1");
    }

    #[test]
    fn whale_does_not_stall_movable_minnows() {
        // Regression: round-robin over 2 arrays puts the evens (whale +
        // minnows, load 1180) on array 0 and the odds (load 400) on
        // array 1. The hottest tenant — the 1000-heat whale — cannot
        // move: 400 + 1000 ≥ 1180 would just swap the imbalance. But
        // each 60-heat minnow strictly shrinks the max. The old planner
        // broke out as soon as the whale failed the fit check and moved
        // nothing; the fix sheds the minnows instead.
        let heat = vec![
            vec![1000, 100, 60, 100, 60, 100, 60, 100],
            vec![1000, 100, 60, 100, 60, 100, 60, 100],
        ];
        let plan = plan_placement(&heat, 2, true, 8);
        assert_eq!(plan.rows[0], vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(
            !plan.moves.is_empty(),
            "minnows must move even though the whale cannot"
        );
        assert!(
            plan.moves.iter().all(|m| m.tenant != 0),
            "the whale itself must stay put: {:?}",
            plan.moves
        );
        // The minnows all leave the whale's array and the epoch-1 max
        // load drops strictly below the starting 1180.
        let h = &heat[0];
        let mut load = [0u64; 2];
        for (t, &a) in plan.rows[1].iter().enumerate() {
            load[a as usize] += h[t];
        }
        assert!(
            load[0].max(load[1]) < 1180,
            "rebalance must shrink the max: {load:?}"
        );
    }

    #[test]
    fn moves_never_ping_pong_within_an_epoch() {
        // One dominant tenant: after it moves once, moving it back can
        // never shrink the max, so the epoch must settle.
        let heat = vec![vec![1000, 1, 1], vec![1000, 1, 1]];
        let plan = plan_placement(&heat, 2, true, 100);
        assert!(plan.moves.len() <= 1, "got {:?}", plan.moves);
    }
}
