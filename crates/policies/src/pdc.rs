//! PDC — Popular Data Concentration (after Pinheiro & Bianchini, ICS 2004).
//!
//! Periodically rank all data by recent popularity and pack the hottest
//! data onto the first disks, the coldest onto the last — then let a TPM
//! layer spin down whichever disks end up receiving no traffic. On skewed
//! workloads the cold tail concentrates real idleness onto the last disks,
//! which TPM alone could never find under striping.
//!
//! The known weakness (and the reason Hibernator exists): the *hot* disks
//! absorb nearly all the load at full speed, becoming a bottleneck, and
//! cold disks still stall 10.9 s whenever a cold read arrives.

use array::{ArrayState, ChunkId, DiskId, HeatMap, MigrationJob, PowerPolicy, RankScratch};
use diskmodel::SpinTarget;
use simkit::{SimDuration, SimTime};
use workload::VolumeRequest;

/// Tunables for [`PdcPolicy`].
#[derive(Debug, Clone)]
pub struct PdcConfig {
    /// How often the layout is re-ranked and reshaped.
    pub epoch: SimDuration,
    /// Idle threshold for the TPM layer, seconds; `None` = break-even.
    pub tpm_threshold_s: Option<f64>,
    /// Maximum chunks migrated per epoch (migration-bandwidth cap).
    pub migration_budget: usize,
    /// Popularity decay time constant.
    pub heat_tau: SimDuration,
}

impl Default for PdcConfig {
    fn default() -> Self {
        PdcConfig {
            epoch: SimDuration::from_hours(1.0),
            tpm_threshold_s: None,
            migration_budget: 512,
            heat_tau: SimDuration::from_hours(1.0),
        }
    }
}

/// The PDC baseline policy.
pub struct PdcPolicy {
    cfg: PdcConfig,
    heat: Option<HeatMap>,
    rank_scratch: RankScratch,
    tpm_threshold_s: f64,
    next_epoch: SimTime,
    tick: SimDuration,
}

impl PdcPolicy {
    /// Creates the policy with `cfg`.
    pub fn new(cfg: PdcConfig) -> Self {
        PdcPolicy {
            tick: SimDuration::from_secs(5.0),
            heat: None,
            rank_scratch: RankScratch::new(),
            tpm_threshold_s: 0.0,
            next_epoch: SimTime::ZERO,
            cfg,
        }
    }

    /// Plans the concentration moves for the current ranking: the hottest
    /// `per_disk` chunks target disk 0, the next disk 1, and so on.
    fn plan_epoch(&mut self, now: SimTime, state: &mut ArrayState) {
        let Some(heat) = &self.heat else { return };
        // PDC lays out every chunk, so it ranks the cold tail too.
        heat.ranking_into(now, &mut self.rank_scratch);
        self.rank_scratch.extend_cold_tail(heat.chunks());
        let ranking = self.rank_scratch.ranked();
        let n = state.config.disks;
        let per_disk = ranking.len().div_ceil(n);
        let mut jobs: Vec<MigrationJob> = Vec::new();
        'outer: for (rank, &chunk) in ranking.iter().enumerate() {
            let target = DiskId((rank / per_disk).min(n - 1));
            if state.remap.disk_of(chunk) != target {
                jobs.push(MigrationJob::Relocate { chunk, dst: target });
                if jobs.len() >= self.cfg.migration_budget {
                    break 'outer;
                }
            }
        }
        state.migrator.clear_pending();
        state.migrator.enqueue(jobs);
    }
}

impl Default for PdcPolicy {
    fn default() -> Self {
        Self::new(PdcConfig::default())
    }
}

impl PowerPolicy for PdcPolicy {
    fn name(&self) -> &str {
        "PDC"
    }

    fn init(&mut self, now: SimTime, state: &mut ArrayState) {
        self.heat = Some(HeatMap::new(state.remap.chunks(), self.cfg.heat_tau));
        self.tpm_threshold_s = match self.cfg.tpm_threshold_s {
            Some(t) => t,
            None => state.disks[0]
                .power_model()
                .breakeven_standby_s(state.config.spec.top_level()),
        };
        self.next_epoch = now + self.cfg.epoch;
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.tick)
    }

    fn on_volume_arrival(
        &mut self,
        now: SimTime,
        _req: &VolumeRequest,
        chunks: &[ChunkId],
        _state: &mut ArrayState,
    ) {
        if let Some(heat) = &mut self.heat {
            for &c in chunks {
                heat.touch(now, c);
            }
        }
    }

    fn on_tick(&mut self, now: SimTime, state: &mut ArrayState) {
        if now >= self.next_epoch {
            self.next_epoch = now + self.cfg.epoch;
            self.plan_epoch(now, state);
        }
        // TPM layer underneath.
        for i in 0..state.disks.len() {
            let d = &state.disks[i];
            if let Some(idle) = d.idle_duration(now) {
                if idle >= self.tpm_threshold_s && !d.is_standby() {
                    state.request_speed(now, i, SpinTarget::Standby);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{run_policy, ArrayConfig, BasePolicy, RunOptions};
    use workload::WorkloadSpec;

    fn config() -> ArrayConfig {
        let mut c = ArrayConfig::default_for_volume(1 << 30);
        c.disks = 4;
        c
    }

    /// Strongly skewed, light workload over a 1 GiB footprint.
    fn skewed_trace(rate: f64, duration: f64) -> workload::Trace {
        let mut spec = WorkloadSpec::oltp(duration, rate);
        spec.extents = 512;
        spec.zipf_theta = 1.1;
        spec.generate(21)
    }

    fn fast_cfg() -> PdcConfig {
        PdcConfig {
            epoch: SimDuration::from_secs(120.0),
            tpm_threshold_s: Some(60.0),
            migration_budget: 512,
            heat_tau: SimDuration::from_secs(300.0),
        }
    }

    #[test]
    fn concentrates_hot_data_on_first_disks() {
        let trace = skewed_trace(20.0, 1200.0);
        let report = run_policy(
            config(),
            PdcPolicy::new(fast_cfg()),
            &trace,
            RunOptions::for_horizon(1800.0),
        );
        assert!(
            report.migration.committed > 50,
            "PDC must migrate, committed {}",
            report.migration.committed
        );
        // With the cold tail isolated, at least one disk slept.
        assert!(
            report.energy.joules(simkit::EnergyComponent::Standby) > 0.0,
            "cold disks should reach standby"
        );
    }

    #[test]
    fn saves_energy_on_skewed_light_load() {
        let trace = skewed_trace(10.0, 2400.0);
        let opts = RunOptions::for_horizon(3600.0);
        let pdc = run_policy(config(), PdcPolicy::new(fast_cfg()), &trace, opts.clone());
        let base = run_policy(config(), BasePolicy, &trace, opts);
        let savings = pdc.savings_vs(&base);
        assert!(savings > 0.1, "PDC savings {savings}");
        assert_eq!(pdc.completed, base.completed);
    }

    #[test]
    fn respects_migration_budget() {
        let trace = skewed_trace(20.0, 600.0);
        let mut cfg = fast_cfg();
        cfg.migration_budget = 10;
        let report = run_policy(
            config(),
            PdcPolicy::new(cfg),
            &trace,
            RunOptions::for_horizon(700.0),
        );
        // ≤ budget per epoch × (700/120 ≈ 5 epochs) + aborted few.
        assert!(
            report.migration.committed + report.migration.aborted <= 60,
            "budget exceeded: {:?}",
            report.migration
        );
    }
}
