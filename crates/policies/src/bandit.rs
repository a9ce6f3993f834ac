//! Epsilon-greedy / UCB bandit tier classifier: learns per-chunk tier
//! placement online instead of deriving it from a queueing model.
//!
//! Each chunk keeps a per-tier action value `q[chunk][tier]`, updated at
//! every planning round from the reward observed at the tier the chunk
//! actually sat on:
//!
//! ```text
//! reward = −(latency_weight · accesses · service_s(tier)
//!            + power_weight · idle_w(tier) / chunks_per_disk)
//! q += learning_rate · (reward − q)
//! ```
//!
//! so a hot chunk on a slow tier earns a large latency penalty (learn:
//! promote) while a cold chunk on a fast tier pays the tier's idle power
//! for nothing (learn: demote). Tier preference is the argmax over
//! *visited* tiers — optionally with a UCB exploration bonus — except
//! with probability ε (decaying per round) a uniformly random tier is
//! preferred instead. The preference only orders the chunk ranking; the
//! host's planning round maps rank positions onto the epoch's actual
//! tiers, enforcing grace, dedupe, and budget as for every other policy.

use array::ChunkId;
use hibernator::{MigrationConfig, MigrationPolicy, PolicyObservation};
use simkit::DetRng;
use std::collections::BTreeMap;

/// Sectors per probe I/O used to price a tier's service time.
const PROBE_SECTORS: u32 = 16;

/// Bandit learner tunables.
#[derive(Debug, Clone)]
pub struct BanditConfig {
    /// Initial exploration probability.
    pub epsilon0: f64,
    /// Rounds over which ε decays: `ε = ε₀ / (1 + rounds / decay)`.
    pub epsilon_decay: f64,
    /// Q-value step size α in `q += α (reward − q)`.
    pub learning_rate: f64,
    /// Weight of the latency term (per access-second of service time).
    pub latency_weight: f64,
    /// Weight of the idle-power term (per watt amortized over a disk's
    /// chunk share).
    pub power_weight: f64,
    /// UCB exploration bonus weight (0 = pure ε-greedy).
    pub ucb_weight: f64,
    /// Seed for the exploration RNG.
    pub seed: u64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            epsilon0: 0.2,
            epsilon_decay: 10.0,
            learning_rate: 0.3,
            latency_weight: 100.0,
            power_weight: 1.0,
            ucb_weight: 0.0,
            seed: 0xBA4D17,
        }
    }
}

/// The bandit tier classifier (see module docs).
pub struct BanditPolicy {
    cfg: MigrationConfig,
    bcfg: BanditConfig,
    /// chunk -> per-tier action value; NaN marks a never-visited tier.
    q: BTreeMap<u32, Vec<f64>>,
    /// chunk -> per-tier visit count (feeds the UCB bonus).
    visits: BTreeMap<u32, Vec<u64>>,
    /// chunk -> accesses since the last planning round.
    counts: BTreeMap<u32, f64>,
    /// chunk -> tier preferred at the last round.
    preferred: BTreeMap<u32, usize>,
    /// The last round's ranking: preferred tier, fastest first.
    ranking: Vec<ChunkId>,
    rounds: u64,
    rng: DetRng,
}

impl BanditPolicy {
    /// Bandit with default learner tunables and the shared adaptive
    /// migration config.
    pub fn new() -> BanditPolicy {
        BanditPolicy::with_configs(MigrationConfig::adaptive(), BanditConfig::default())
    }

    /// Bandit with explicit configs.
    pub fn with_configs(cfg: MigrationConfig, bcfg: BanditConfig) -> BanditPolicy {
        let rng = DetRng::new(bcfg.seed, "bandit-explore");
        BanditPolicy {
            cfg,
            bcfg,
            q: BTreeMap::new(),
            visits: BTreeMap::new(),
            counts: BTreeMap::new(),
            preferred: BTreeMap::new(),
            ranking: Vec::new(),
            rounds: 0,
            rng,
        }
    }

    /// Current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.bcfg.epsilon0 / (1.0 + self.rounds as f64 / self.bcfg.epsilon_decay)
    }

    /// The tier preferred for `chunk` at the last planning round.
    pub fn preferred_tier(&self, chunk: ChunkId) -> Option<usize> {
        self.preferred.get(&chunk.0).copied()
    }

    /// The learned action value for (`chunk`, `tier`), if ever visited.
    pub fn q_value(&self, chunk: ChunkId, tier: usize) -> Option<f64> {
        self.q
            .get(&chunk.0)
            .and_then(|v| v.get(tier))
            .copied()
            .filter(|q| !q.is_nan())
    }

    /// Argmax over visited tiers plus optional UCB bonus; ties break to
    /// the highest tier (deterministic). `None` when nothing was visited.
    fn exploit(&self, chunk: u32) -> Option<usize> {
        let q = self.q.get(&chunk)?;
        let visits = self.visits.get(&chunk)?;
        let mut best: Option<(usize, f64)> = None;
        for (tier, &val) in q.iter().enumerate() {
            if val.is_nan() {
                continue;
            }
            let bonus = if self.bcfg.ucb_weight > 0.0 && visits[tier] > 0 {
                self.bcfg.ucb_weight
                    * ((1.0 + self.rounds as f64).ln() / visits[tier] as f64).sqrt()
            } else {
                0.0
            };
            let score = val + bonus;
            match best {
                Some((_, b)) if score < b => {}
                _ => best = Some((tier, score)),
            }
        }
        best.map(|(t, _)| t)
    }
}

impl Default for BanditPolicy {
    fn default() -> Self {
        BanditPolicy::new()
    }
}

impl MigrationPolicy for BanditPolicy {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn observe_access(&mut self, chunk: ChunkId) {
        *self.counts.entry(chunk.0).or_insert(0.0) += 1.0;
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.rounds += 1;
        let levels = obs.state.config.spec.num_levels();
        let chunks = obs.state.remap.chunks();
        let alive = obs.state.alive_disks().max(1);
        let cpd = (chunks as usize).div_ceil(alive) as f64;
        let svc_model = obs.state.disks[0].service_model();
        let power_model = obs.state.disks[0].power_model();
        let eps = self.epsilon();

        // 1. Reward the tier each chunk actually sat on this round.
        let mut ranked: Vec<(usize, f64, u32)> = Vec::with_capacity(chunks as usize);
        for c in 0..chunks {
            let rate = self.counts.get(&c).copied().unwrap_or(0.0);
            let cur_disk = obs.state.remap.disk_of(ChunkId(c));
            let tier = obs.disk_levels[cur_disk.index()].index();
            let svc =
                svc_model.expected_random_service_s(diskmodel::SpeedLevel(tier), PROBE_SECTORS);
            let idle = power_model.idle_w(diskmodel::SpeedLevel(tier));
            let reward =
                -(self.bcfg.latency_weight * rate * svc + self.bcfg.power_weight * idle / cpd);
            let q = self.q.entry(c).or_insert_with(|| vec![f64::NAN; levels]);
            if q[tier].is_nan() {
                q[tier] = reward;
            } else {
                q[tier] += self.bcfg.learning_rate * (reward - q[tier]);
            }
            self.visits.entry(c).or_insert_with(|| vec![0; levels])[tier] += 1;

            // 2. Prefer a tier: explore with probability ε, else exploit.
            let preferred = if eps > 0.0 && self.rng.chance(eps) {
                self.rng.below(levels as u64) as usize
            } else {
                self.exploit(c).unwrap_or(tier)
            };
            self.preferred.insert(c, preferred);
            ranked.push((preferred, rate, c));
        }
        self.counts.clear();

        // 3. Desired ranking: preferred tier (fastest first), then this
        // round's access rate, then chunk id — all deterministic. No
        // scores: the bandit's moves are never threshold-gated.
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
        self.ranking.clear();
        self.ranking
            .extend(ranked.iter().map(|&(_, _, c)| ChunkId(c)));
        (&self.ranking, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayState, ArrayStats, MigrationEngine, RemapTable};
    use diskmodel::{Disk, SpeedLevel};
    use hibernator::GraceTracker;
    use simkit::{SimDuration, SimTime};

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

    fn obs<'a>(
        state: &'a ArrayState,
        targets: &'a [SpeedLevel],
        ranking: &'a [ChunkId],
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            now: SimTime::ZERO,
            state,
            ranking,
            rates: &[],
            disk_levels: targets,
            budget: 100,
        }
    }

    fn greedy() -> BanditPolicy {
        // Exploitation only: deterministic learning path.
        let b = BanditConfig {
            epsilon0: 0.0,
            ..BanditConfig::default()
        };
        BanditPolicy::with_configs(MigrationConfig::adaptive(), b)
    }

    /// First visit seeds q with the raw reward; later visits blend with
    /// the learning rate — checked against the formula by hand.
    #[test]
    fn reward_accounting_follows_the_update_rule() {
        let state = mk_state(4, 16);
        let targets = vec![SpeedLevel(5); 4];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = greedy();
        for _ in 0..3 {
            p.observe_access(ChunkId(0));
        }
        let _ = p.rank(&obs(&state, &targets, &ranking));

        let svc = state.disks[0]
            .service_model()
            .expected_random_service_s(SpeedLevel(5), PROBE_SECTORS);
        let idle = state.disks[0].power_model().idle_w(SpeedLevel(5));
        let cpd = 16.0 / 4.0;
        let b = BanditConfig::default();
        let expect = -(b.latency_weight * 3.0 * svc + b.power_weight * idle / cpd);
        let q1 = p.q_value(ChunkId(0), 5).expect("tier visited");
        assert!(
            (q1 - expect).abs() < 1e-12,
            "first visit seeds q: {q1} vs {expect}"
        );

        // Second round with no accesses: reward is the pure idle penalty.
        let _ = p.rank(&obs(&state, &targets, &ranking));
        let r2 = -(b.power_weight * idle / cpd);
        let expect2 = q1 + b.learning_rate * (r2 - q1);
        let q2 = p.q_value(ChunkId(0), 5).expect("tier visited");
        assert!((q2 - expect2).abs() < 1e-12, "blend: {q2} vs {expect2}");
    }

    #[test]
    fn epsilon_decays_with_rounds() {
        let state = mk_state(4, 16);
        let targets = vec![SpeedLevel(5); 4];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = BanditPolicy::new();
        let e0 = p.epsilon();
        for _ in 0..20 {
            let _ = p.rank(&obs(&state, &targets, &ranking));
        }
        assert!(p.epsilon() < e0 / 2.0, "{} vs {}", p.epsilon(), e0);
        assert!(p.epsilon() > 0.0);
    }

    /// Two identically-seeded bandits fed the same observations make the
    /// same proposals round after round, including explore rounds (each
    /// planned by its own host tracker).
    #[test]
    fn fixed_seed_tie_breaking_is_deterministic() {
        let state = mk_state(4, 32);
        let targets = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..32).map(ChunkId).collect();
        let mut a = BanditPolicy::new();
        let mut b = BanditPolicy::new();
        let (mut ga, mut gb) = (GraceTracker::new(), GraceTracker::new());
        for round in 0..10 {
            for c in 0..(round % 5) {
                a.observe_access(ChunkId(c));
                b.observe_access(ChunkId(c));
            }
            let ja = ga.plan_round(&mut a, &obs(&state, &targets, &ranking)).jobs;
            let jb = gb.plan_round(&mut b, &obs(&state, &targets, &ranking)).jobs;
            assert_eq!(ja, jb, "round {round} diverged");
            assert_eq!(a.preferred, b.preferred);
        }
    }

    /// On a stationary workload the greedy bandit converges: the hot chunk
    /// ends up preferring a tier at least as fast as the cold chunk's, and
    /// its learned fast-tier value beats its slow-tier value.
    #[test]
    fn converges_on_stationary_workload() {
        let state = mk_state(4, 16);
        // Alternate the plan so every chunk experiences both tiers.
        let split_a = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let split_b = vec![SpeedLevel(0), SpeedLevel(0), SpeedLevel(5), SpeedLevel(5)];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = greedy();
        for round in 0..60 {
            for _ in 0..40 {
                p.observe_access(ChunkId(0)); // hot: on disk 0
            }
            let t = if round % 2 == 0 { &split_a } else { &split_b };
            let _ = p.rank(&obs(&state, t, &ranking));
        }
        let hot = p.preferred_tier(ChunkId(0)).expect("preferred");
        let cold = p.preferred_tier(ChunkId(15)).expect("preferred");
        assert!(hot >= cold, "hot tier {hot} vs cold tier {cold}");
        let q_fast = p.q_value(ChunkId(0), 5).expect("visited fast");
        let q_slow = p.q_value(ChunkId(0), 0).expect("visited slow");
        assert!(
            q_fast > q_slow,
            "hot chunk must value the fast tier: {q_fast} vs {q_slow}"
        );
    }
}
