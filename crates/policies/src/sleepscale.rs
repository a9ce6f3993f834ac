//! SleepScale-style joint optimizer: co-selects disk *speed* and *sleep
//! state* per epoch from the observed arrival process (after Liu et al.,
//! "SleepScale: runtime joint speed scaling and sleep states management",
//! ISCA 2014 — applied here to multi-speed disk arrays).
//!
//! The analytic Hibernator treats sleep as a bolted-on extension: it first
//! picks per-level spin counts, then maybe parks the bottom tier. This
//! policy searches the joint space instead: for every candidate sleeper
//! count `k` it re-runs the speed allocator over the remaining
//! `alive − k` spinning disks, prices the cold tail's wake-up stalls and
//! wake energy into the predicted response and power, and adopts the
//! feasible combination with the lowest total power. `k = 0` always
//! remains a candidate, so the policy never does worse than pure speed
//! scaling by its own model.
//!
//! Data movement needs nothing of its own: the policy keeps the default
//! ranking (the host's heat order), which the host's round plans onto the
//! adopted tiers.

use diskmodel::SpeedLevel;
use hibernator::{AllocationInput, MigrationConfig, MigrationPolicy, SpeedObservation, SpeedPlan};

/// The SleepScale-style joint speed + sleep optimizer (see module docs).
pub struct SleepScalePolicy {
    cfg: MigrationConfig,
}

impl SleepScalePolicy {
    /// Joint optimizer with the shared adaptive migration defaults.
    pub fn new() -> SleepScalePolicy {
        SleepScalePolicy::with_config(MigrationConfig::adaptive())
    }

    /// Joint optimizer with explicit shared config.
    pub fn with_config(cfg: MigrationConfig) -> SleepScalePolicy {
        SleepScalePolicy { cfg }
    }
}

impl Default for SleepScalePolicy {
    fn default() -> Self {
        SleepScalePolicy::new()
    }
}

impl MigrationPolicy for SleepScalePolicy {
    fn name(&self) -> &'static str {
        "sleepscale"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn plan_speeds(&mut self, obs: &SpeedObservation<'_>) -> Option<SpeedPlan> {
        let alive = obs.input.disks;
        let rates = obs.input.chunk_rates; // sorted descending by the host
        let cpd = rates.len().div_ceil(alive).max(1);
        let pm = obs.state.disks[0].power_model();
        let standby_w = pm.standby_w();
        let wake = pm.spinup_from_standby(SpeedLevel(0));
        let total_rate: f64 = rates.iter().sum();

        // k = 0 baseline: exactly the analytic path (allocate, re-plan
        // under the cap only if busted), so the joint search can only
        // improve on pure speed scaling by its own model.
        let mut base = obs.allocator.allocate(obs.input, obs.estimator);
        if let Some(cap) = obs.power_cap {
            if base.predicted_power_w > cap {
                base = obs.allocator.allocate_capped(obs.input, obs.estimator, cap);
            }
        }
        let mut best_k = 0usize;
        let mut best_power = base.predicted_power_w;
        let mut best = base;

        for k in 1..alive {
            let spinning = alive - k;
            // The coldest k disk-shares go dark; their accesses pay a
            // wake-up stall and are then served by the spinning set.
            let hot_end = (spinning * cpd).min(rates.len());
            let hot = &rates[..hot_end];
            let cold_rate: f64 = rates[hot_end..].iter().sum();
            let hot_rate: f64 = hot.iter().sum();
            let input = AllocationInput {
                chunk_rates: hot,
                disks: spinning,
                goal_s: obs.input.goal_s,
            };
            let a = obs.allocator.allocate(&input, obs.estimator);
            if !a.feasible {
                continue;
            }
            let resp = if total_rate > 1e-12 {
                (hot_rate * a.predicted_response_s
                    + cold_rate * (wake.duration_s + a.predicted_response_s))
                    / total_rate
            } else {
                a.predicted_response_s
            };
            if resp > obs.input.goal_s {
                continue;
            }
            // Every cold access is priced at a full wake — pessimistic, so
            // sleepers are only chosen for genuinely cold tails.
            let power = a.predicted_power_w + k as f64 * standby_w + cold_rate * wake.energy_j;
            if obs.power_cap.is_some_and(|cap| power > cap) {
                continue;
            }
            if power < best_power {
                let mut joint = a;
                joint.per_level[0] += k; // sleepers park at the bottom slot
                joint.predicted_response_s = resp;
                joint.predicted_power_w = power;
                best_power = power;
                best_k = k;
                best = joint;
            }
        }
        Some(SpeedPlan {
            alloc: best,
            sleepers: best_k as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayState, ArrayStats, MigrationEngine, RemapTable};
    use diskmodel::Disk;
    use hibernator::ServiceEstimator;
    use simkit::SimDuration;

    fn mk_state(disks: usize, chunks: u32) -> ArrayState {
        let mut config = ArrayConfig::default_for_volume(1 << 30);
        config.disks = disks;
        config.volume_chunks = chunks;
        let remap = RemapTable::striped(&config);
        let ds = (0..disks)
            .map(|i| Disk::new(i, &config.spec, 1, config.spec.top_level()))
            .collect();
        let stats = ArrayStats::new(config.spec.num_levels(), SimDuration::from_secs(60.0));
        ArrayState {
            config,
            disks: ds,
            remap,
            migrator: MigrationEngine::new(2),
            stats,
            telemetry: telemetry::Recorder::disabled(),
            wake_marks: array::WakeMarks::new(disks),
        }
    }

    fn harness(state: &ArrayState) -> (hibernator::SpeedAllocator, ServiceEstimator) {
        let levels = state.config.spec.num_levels();
        (
            hibernator::SpeedAllocator::new(state.disks[0].power_model(), levels),
            ServiceEstimator::new(state.disks[0].service_model(), levels, 16),
        )
    }

    /// A dead-cold tail puts disks to sleep; sum of per-level counts still
    /// covers every alive disk (the host's matching requires it).
    #[test]
    fn cold_tail_sleeps_and_counts_stay_covering() {
        let state = mk_state(4, 16);
        let (alloc, est) = harness(&state);
        // One lukewarm chunk, fifteen stone-cold ones, generous goal.
        let mut rates = vec![0.0; 16];
        rates[0] = 0.5;
        let input = AllocationInput {
            chunk_rates: &rates,
            disks: 4,
            goal_s: 1.0,
        };
        let mut p = SleepScalePolicy::new();
        let plan = p
            .plan_speeds(&SpeedObservation {
                input: &input,
                allocator: &alloc,
                estimator: &est,
                power_cap: None,
                state: &state,
            })
            .expect("sleepscale always plans");
        assert_eq!(plan.alloc.per_level.iter().sum::<usize>(), 4);
        assert!(plan.sleepers > 0, "a dead-cold tail should sleep");
        // Sleeping must beat the pure speed-scaling baseline on power.
        let base = alloc.allocate(&input, &est);
        assert!(
            plan.alloc.predicted_power_w < base.predicted_power_w,
            "joint {} W vs speed-only {} W",
            plan.alloc.predicted_power_w,
            base.predicted_power_w
        );
    }

    /// A hot uniform load keeps everything spinning: the joint plan
    /// degrades to exactly the analytic baseline.
    #[test]
    fn hot_load_falls_back_to_speed_scaling() {
        let state = mk_state(4, 16);
        let (alloc, est) = harness(&state);
        let rates = vec![20.0; 16];
        let input = AllocationInput {
            chunk_rates: &rates,
            disks: 4,
            goal_s: 0.02,
        };
        let mut p = SleepScalePolicy::new();
        let plan = p
            .plan_speeds(&SpeedObservation {
                input: &input,
                allocator: &alloc,
                estimator: &est,
                power_cap: None,
                state: &state,
            })
            .expect("plans");
        let base = alloc.allocate(&input, &est);
        assert_eq!(plan.sleepers, 0);
        assert_eq!(plan.alloc.per_level, base.per_level);
    }

    /// The power cap filters sleeping candidates too: a cap between the
    /// baseline and a cheaper sleeping plan still admits the sleeper, and
    /// a cap below everything falls back to the capped analytic plan.
    #[test]
    fn power_cap_is_respected() {
        let state = mk_state(4, 16);
        let (alloc, est) = harness(&state);
        let mut rates = vec![0.0; 16];
        rates[0] = 0.5;
        let input = AllocationInput {
            chunk_rates: &rates,
            disks: 4,
            goal_s: 1.0,
        };
        let mut p = SleepScalePolicy::new();
        let free = p
            .plan_speeds(&SpeedObservation {
                input: &input,
                allocator: &alloc,
                estimator: &est,
                power_cap: None,
                state: &state,
            })
            .expect("plans");
        let capped = p
            .plan_speeds(&SpeedObservation {
                input: &input,
                allocator: &alloc,
                estimator: &est,
                power_cap: Some(free.alloc.predicted_power_w * 1.01),
                state: &state,
            })
            .expect("plans");
        assert!(capped.alloc.predicted_power_w <= free.alloc.predicted_power_w * 1.01 + 1e-9);
    }
}
