//! The Hibernator policy: coarse-grained speed setting + temperature-driven
//! migration + performance guard, composed behind [`array::PowerPolicy`].
//!
//! Per epoch (default 2 h):
//! 1. read the chunk temperatures accumulated since the last epoch;
//! 2. run the [`SpeedAllocator`](crate::SpeedAllocator) for the
//!    minimum-power disk-per-level counts that meet the response goal;
//! 3. apply the **coarse-grain test**: the projected energy saving over the
//!    epoch must exceed the spindle-transition cost of getting there,
//!    otherwise keep the current configuration (this is what makes the
//!    approach *coarse-grained* — cheap oscillations are filtered out);
//! 4. match disks to levels with minimal movement and ramp them;
//! 5. plan and enqueue the chunk migrations (bounded per-epoch budget).
//!
//! Continuously (every tick, default 10 s) the
//! [`PerfGuard`](crate::PerfGuard) watches measured response times; a goal
//! violation boosts every disk to full speed at once and pauses migration
//! until the array has stayed healthy for the hysteresis period. A disk
//! failure forces the same boost over the surviving disks.
//!
//! Every speed change — an epoch plan, a latency boost, a failure boost —
//! takes one path, the private `Hibernator::apply`: it matches disks to a
//! per-level plan, requests each alive disk's level (or standby), and
//! adopts the plan as the current one. A boost applies
//! [`Allocation::all_fast`](crate::Allocation::all_fast) over the alive
//! disks.

use crate::allocator::{Allocation, AllocationInput, SpeedAllocator};
use crate::guard::{GuardAction, GuardConfig, PerfGuard};
use crate::migpolicy::{
    AnalyticPolicy, GraceTracker, MigrationConfig, MigrationPolicy, PlanOutcome, PolicyObservation,
    SpeedObservation,
};
use crate::planner::match_disks;
use crate::predictor::ServiceEstimator;
use array::{ArrayState, ChunkId, HeatMap, PowerPolicy};
use diskmodel::{Completion, PowerModel, SpeedLevel, SpinTarget};
use simkit::{Ewma, SimDuration, SimTime};
use workload::VolumeRequest;

/// The allocator plans to `PLAN_MARGIN × goal`, leaving headroom below the
/// guard's trip line so marginal configs don't oscillate through
/// boost/relax cycles.
const PLAN_MARGIN: f64 = 0.85;

/// Per-disk request rate (req/s) below which the standby extension may
/// send a bottom-tier disk to standby. The effective threshold is the
/// minimum of this and the physical bound `1 / (4 × standby break-even
/// time)`: below the physical bound, sleep/wake round trips cost more than
/// they save.
const STANDBY_MAX_RATE: f64 = 0.001;

/// Tunables for [`Hibernator`].
#[derive(Debug, Clone)]
pub struct HibernatorConfig {
    /// Mean response-time goal in seconds (the SLA).
    pub goal_s: f64,
    /// Epoch length — how often speeds/layout are re-decided.
    pub epoch: SimDuration,
    /// Guard/tick cadence.
    pub tick: SimDuration,
    /// Guard observation window.
    pub guard_window: SimDuration,
    /// Guard exit hysteresis.
    pub guard_hysteresis: SimDuration,
    /// Chunk-temperature decay constant.
    pub heat_tau: SimDuration,
    /// Maximum chunks migrated per epoch.
    pub migration_budget: usize,
}

impl HibernatorConfig {
    /// Defaults from the design: 2 h epochs, 10 s ticks, 5 min guard
    /// window, 10 min hysteresis, heat τ = epoch, 2048-chunk budget.
    pub fn for_goal(goal_s: f64) -> HibernatorConfig {
        assert!(goal_s > 0.0, "goal must be positive");
        HibernatorConfig {
            goal_s,
            epoch: SimDuration::from_hours(2.0),
            tick: SimDuration::from_secs(10.0),
            guard_window: SimDuration::from_mins(5.0),
            guard_hysteresis: SimDuration::from_mins(10.0),
            heat_tau: SimDuration::from_hours(2.0),
            migration_budget: 2048,
        }
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default)]
pub struct HibernatorStats {
    /// Epochs in which a new configuration was adopted.
    pub reconfigurations: u64,
    /// Epochs skipped by the coarse-grain test.
    pub skipped_by_coarse_grain: u64,
    /// Performance boosts triggered.
    pub boosts: u64,
    /// Epochs where the allocator found no feasible assignment.
    pub infeasible_epochs: u64,
}

/// The Hibernator energy-management policy.
///
/// # Examples
/// ```
/// use array::{run_policy, ArrayConfig, BasePolicy, RunOptions};
/// use hibernator::{Hibernator, HibernatorConfig};
/// use simkit::SimDuration;
/// use workload::WorkloadSpec;
///
/// let mut spec = WorkloadSpec::oltp(120.0, 20.0);
/// spec.extents = 512; // small footprint keeps the doctest fast
/// let trace = spec.generate(1);
/// let mut config = ArrayConfig::default_for_volume(1 << 30);
/// config.disks = 4;
///
/// // Calibrate the goal from the unmanaged baseline…
/// let opts = RunOptions::for_horizon(120.0);
/// let base = run_policy(config.clone(), BasePolicy, &trace, opts.clone());
/// let mut cfg = HibernatorConfig::for_goal(base.response.mean() * 1.5);
/// cfg.epoch = SimDuration::from_secs(30.0); // short run, short epochs
///
/// // …and let Hibernator manage the same workload.
/// let report = run_policy(config, Hibernator::new(cfg), &trace, opts);
/// assert_eq!(report.completed, base.completed);
/// assert!(report.energy.total_joules() <= base.energy.total_joules());
/// ```
pub struct Hibernator {
    cfg: HibernatorConfig,
    heat: Option<HeatMap>,
    /// Reused ranking buffers — one chunk ranking per epoch, no fresh
    /// allocation per planning round.
    rank_scratch: array::RankScratch,
    estimator: Option<ServiceEstimator>,
    allocator: Option<SpeedAllocator>,
    guard: PerfGuard,
    next_epoch: SimTime,
    current: Option<Allocation>,
    stats: HibernatorStats,
    /// Disables the guard entirely (ablation F8).
    guard_enabled: bool,
    /// Disables data migration (ablation F7).
    migration_enabled: bool,
    /// The standby extension (ablation F11): a cold bottom tier stops
    /// spinning instead of crawling at the lowest level.
    standby_extension: bool,
    /// Response samples before this instant are excluded from the guard's
    /// window: ramping spindles and the post-reconfiguration migration wave
    /// inevitably queue requests for seconds, and counting that
    /// self-inflicted transient against the goal would make every
    /// reconfiguration trigger a boost. Excluding *samples* (rather than
    /// muting the guard) keeps the guard armed with clean data at all
    /// times — an empty window simply reads as "no violation".
    sample_exclude_until: SimTime,
    /// Disks the current epoch parks in standby, in disk order; re-slept
    /// from `on_tick` when a stray request woke them and they have idled
    /// past break-even.
    standby_disks: Vec<usize>,
    /// Model-calibration feedback: EWMA of observed/predicted response
    /// ratios for the adopted configuration. The M/G/1 model ignores
    /// migration interference and within-tier load clumping, so it runs
    /// optimistic; the allocator divides its goal by this correction,
    /// which converges the closed loop onto real goal compliance instead
    /// of oscillating through the guard.
    model_error: Ewma,
    /// Correction floor/ceiling.
    correction: f64,
    /// Externally granted power cap (fleet arbiter); `None` means
    /// unconstrained and leaves planning bit-identical to a solo array.
    power_cap: Option<f64>,
    /// The pluggable data-movement brain (see [`crate::migpolicy`]).
    /// Always `Some` between calls; taken out during `run_epoch` so the
    /// policy can borrow the host's read-only state. The default is
    /// [`AnalyticPolicy`] with [`MigrationConfig::default`] filters.
    mig_policy: Option<Box<dyn MigrationPolicy>>,
    /// The one planning round every policy's ranking goes through: grace,
    /// in-flight dedupe, thresholds and budget (see [`GraceTracker`]).
    grace: GraceTracker,
    /// True while the adopted plan parks the bottom tier in standby at the
    /// migration policy's request (as opposed to the standby extension,
    /// which re-tests its eligibility every epoch).
    current_sleep: bool,
}

impl Hibernator {
    /// Creates the policy.
    pub fn new(cfg: HibernatorConfig) -> Hibernator {
        let guard = PerfGuard::new(GuardConfig {
            goal_s: cfg.goal_s,
            window: cfg.guard_window,
            hysteresis: cfg.guard_hysteresis,
            exit_margin: 0.9,
            min_samples: 20,
            entry_checks: 2,
        });
        Hibernator {
            guard,
            heat: None,
            rank_scratch: array::RankScratch::new(),
            estimator: None,
            allocator: None,
            next_epoch: SimTime::ZERO,
            current: None,
            stats: HibernatorStats::default(),
            guard_enabled: true,
            migration_enabled: true,
            standby_extension: false,
            sample_exclude_until: SimTime::ZERO,
            standby_disks: Vec::new(),
            model_error: Ewma::new((cfg.epoch / 4.0).max(SimDuration::from_mins(10.0))),
            correction: 1.0,
            power_cap: None,
            mig_policy: Some(Box::new(AnalyticPolicy::with_config(
                MigrationConfig::default(),
            ))),
            grace: GraceTracker::new(),
            current_sleep: false,
            cfg,
        }
    }

    /// Creates the policy with a custom migration policy (LFU, bandit,
    /// SleepScale, random placement, or a filtered analytic planner).
    pub fn with_policy(cfg: HibernatorConfig, policy: Box<dyn MigrationPolicy>) -> Hibernator {
        let mut h = Hibernator::new(cfg);
        h.mig_policy = Some(policy);
        h
    }

    /// Disables the performance guard (for the F8 ablation).
    pub fn without_guard(mut self) -> Self {
        self.guard_enabled = false;
        self
    }

    /// Disables data migration (for the F7 ablation): speeds still adapt,
    /// but data stays where striping put it.
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    /// Enables the standby extension, an addition to the paper's design:
    /// when the *bottom* tier's per-disk demand falls below a small rate,
    /// its disks stop spinning entirely instead of crawling at the lowest
    /// level. The disks wake on demand (paying the spin-up stall), so this
    /// only pays off in genuinely dead valleys — exactly the diurnal
    /// file-server case.
    pub fn with_standby(mut self) -> Self {
        self.standby_extension = true;
        self
    }

    /// Counters for reporting.
    pub fn stats(&self) -> HibernatorStats {
        self.stats
    }

    /// True while the guard holds the array boosted.
    pub fn is_boosted(&self) -> bool {
        self.guard.is_boosted()
    }

    fn run_epoch(&mut self, now: SimTime, state: &mut ArrayState) {
        // Detach the scratch (and the migration policy) so their borrows
        // do not pin `self` across the `&mut self` calls below; restored
        // on every exit path.
        let mut rank_scratch = std::mem::take(&mut self.rank_scratch);
        let mut policy = self.mig_policy.take().expect("policy present");
        let heat = self.heat.as_ref().expect("init ran");
        let est = self.estimator.as_ref().expect("init ran");
        let alloc = self.allocator.as_ref().expect("init ran");

        // 1. Temperature-sorted chunk rates, into the reused buffers: the
        // warm chunks only, the cold tail implicit.
        heat.ranking_into(now, &mut rank_scratch);
        let ranking = rank_scratch.ranked();
        let rates = rank_scratch.rates();

        // 2. Optimise, with the calibrated (tightened) goal and planning
        // headroom below the guard's trip line. Only alive disks are
        // allocatable: after a failure the plan covers the survivors.
        let alive = state.alive_disks();
        if alive == 0 {
            self.rank_scratch = rank_scratch;
            self.mig_policy = Some(policy);
            return;
        }
        let input = AllocationInput {
            chunk_rates: rates,
            chunks: heat.chunks() as usize,
            disks: alive,
            goal_s: self.cfg.goal_s * PLAN_MARGIN / self.correction,
        };
        // The migration policy gets first refusal on the speed decision
        // (the SleepScale joint optimizer takes it); `None` defers to the
        // analytic allocator.
        let speed_plan = policy.plan_speeds(&SpeedObservation {
            input: &input,
            allocator: alloc,
            estimator: est,
            power_cap: self.power_cap,
            state,
        });
        let plan_sleepers = speed_plan.as_ref().map_or(0, |p| p.sleepers);
        let new = match speed_plan {
            Some(p) => p.alloc,
            None => {
                let mut new = alloc.allocate(&input, est);
                // Fleet power cap: only re-plan when the unconstrained
                // optimum busts the cap, so a generous (or absent) cap
                // changes nothing.
                if let Some(cap) = self.power_cap {
                    if new.predicted_power_w > cap {
                        new = alloc.allocate_capped(&input, est, cap);
                    }
                }
                new
            }
        };
        if !new.feasible {
            self.stats.infeasible_epochs += 1;
        }
        // 3. Coarse-grain test: is the change worth its transition cost?
        let skipped_before = self.stats.skipped_by_coarse_grain;
        let adopted: Allocation = match &self.current {
            // A stale plan sized for a different (pre-failure) disk count
            // can't be compared or kept — adopt the fresh one outright.
            Some(cur) if cur.per_level.iter().sum::<usize>() != alive => new,
            // A kept plan that busts an active power cap must go: the
            // coarse-grain test never overrides the fleet grant.
            Some(cur)
                if self
                    .power_cap
                    .is_some_and(|cap| cur.predicted_power_w > cap) =>
            {
                new
            }
            Some(cur) if cur.per_level == new.per_level => {
                // Same speeds; refresh the stored predictions (they feed the
                // calibration loop) and fall through to re-apply idempotently.
                new
            }
            Some(cur) if cur.feasible && new.feasible => {
                let saving_w = cur.predicted_power_w - new.predicted_power_w;
                let saving_j = saving_w * self.cfg.epoch.as_secs();
                let cost_j = transition_cost_j(state, &new.per_level);
                if saving_j < cost_j {
                    self.stats.skipped_by_coarse_grain += 1;
                    // Keep the current layout, with predictions refreshed
                    // under this epoch's measured rates.
                    let mut kept = cur.clone();
                    if let Some((resp, pw)) =
                        alloc.evaluate_unconstrained(&input, est, &kept.per_level)
                    {
                        kept.predicted_response_s = resp;
                        kept.predicted_power_w = pw;
                    }
                    kept
                } else {
                    new
                }
            }
            _ => new,
        };

        // A kept plan keeps its sleep decision too; a fresh plan adopts
        // the policy's.
        let kept = self.stats.skipped_by_coarse_grain > skipped_before;
        let policy_sleep = if kept {
            self.current_sleep
        } else {
            plan_sleepers > 0
        };
        self.current_sleep = policy_sleep;

        // 4. Apply speeds. Every bottom-tier disk parks in standby instead
        // of crawling at level 0 when the policy's plan says so, or when
        // the standby extension finds the tier cold.
        let sleep = policy_sleep
            || (self.standby_extension && bottom_tier_is_cold(state, adopted.per_level[0], &input));
        let (targets, changed) = self.apply(now, adopted, sleep, state);
        if changed {
            self.stats.reconfigurations += 1;
            let pm = state.disks[0].power_model();
            let levels = state.config.spec.num_levels();
            let worst_ramp = pm
                .level_transition(SpeedLevel(0), SpeedLevel(levels - 1))
                .duration_s
                .max(
                    pm.level_transition(SpeedLevel(levels - 1), SpeedLevel(0))
                        .duration_s,
                );
            self.sample_exclude_until = now + SimDuration::from_secs(worst_ramp);
        }

        // 5. Migrations — and extend the sample exclusion over the settling
        // transient: ramp backlog drain plus the migration wave (×1.5
        // because foreground interleaving stretches it), capped so the
        // guard always gets the tail of each epoch.
        let round = self.apply_migrations(now, state, ranking, rates, &targets, policy.as_mut());
        let adopted = self.current.as_ref().expect("apply sets the plan");
        if changed || !state.migrator.is_quiescent() {
            let drain = 1.5 * self.migration_drain_estimate_s(state, &adopted.per_level);
            if drain > 0.0 {
                let capped = (self.sample_exclude_until + SimDuration::from_secs(drain))
                    .min(now + self.cfg.epoch * 0.8);
                self.sample_exclude_until = self.sample_exclude_until.max(capped);
            }
        }
        state
            .telemetry
            .emit_with(|| telemetry::Event::EpochPlanned {
                time_s: now.as_secs(),
                per_level: adopted.per_level.iter().map(|&n| n as u32).collect(),
                feasible: adopted.feasible,
                predicted_response_s: adopted.predicted_response_s,
                predicted_power_w: adopted.predicted_power_w,
                migration_jobs: state.migrator.pending_len() as u32,
                skipped: kept,
                changed,
            });
        // The round's accounting (moves, deferrals, grace in force) goes
        // into the stream, where the `migration-grace` audit replays it.
        if let Some(out) = round {
            state
                .telemetry
                .emit_with(|| telemetry::Event::PolicyDecision {
                    time_s: now.as_secs(),
                    policy: policy.name().into(),
                    moves: out.jobs.len() as u32,
                    deferred_grace: out.deferred_grace,
                    deferred_inflight: out.deferred_inflight,
                    skipped_threshold: out.skipped_threshold,
                    grace_s: policy.config().grace.as_secs(),
                    sleepers: plan_sleepers.max(self.standby_disks.len() as u32),
                });
        }
        self.rank_scratch = rank_scratch;
        self.mig_policy = Some(policy);
    }

    /// The one path that sets the array's speeds, for an epoch plan and
    /// for both boosts: matches disks to `plan` with minimal movement,
    /// requests each alive disk's level (standby instead for the bottom
    /// tier when `sleep`), records the parked disks and adopts `plan` as
    /// the current one. Requests for disks already in the desired state
    /// are no-ops, so re-applying an unchanged plan costs nothing.
    ///
    /// Returns the per-disk targets and whether any disk's speed changed.
    fn apply(
        &mut self,
        now: SimTime,
        plan: Allocation,
        sleep: bool,
        state: &mut ArrayState,
    ) -> (Vec<SpeedLevel>, bool) {
        let targets = match_disks(state, &plan.per_level);
        self.standby_disks.clear();
        let mut changed = false;
        for (i, &l) in targets.iter().enumerate() {
            let d = &state.disks[i];
            if d.has_failed() {
                continue;
            }
            let target = if sleep && l == SpeedLevel(0) {
                self.standby_disks.push(i);
                changed |= !d.is_standby();
                SpinTarget::Standby
            } else {
                changed |= d.is_standby() || d.effective_level() != l;
                SpinTarget::Level(l)
            };
            state.request_speed(now, i, target);
        }
        self.current = Some(plan);
        (targets, changed)
    }

    /// Spins every alive disk to full speed: the guard's answer to a blown
    /// goal, and the policy's to a disk failure. Drops the pending
    /// migration jobs, and pauses relocation while the guard holds the
    /// boost. Only a boost the array `entered` (it was not boosted
    /// already) counts and is announced in the stream.
    fn boost(
        &mut self,
        now: SimTime,
        reason: telemetry::BoostReason,
        entered: bool,
        state: &mut ArrayState,
    ) {
        if entered {
            self.stats.boosts += 1;
            state.telemetry.emit_with(|| telemetry::Event::GuardBoost {
                time_s: now.as_secs(),
                entered: true,
                reason,
            });
        }
        if self.guard_enabled {
            state.migrator.set_paused(true);
        }
        state.migrator.clear_pending();
        self.current_sleep = false;
        let plan = Allocation::all_fast(state.alive_disks(), state.config.spec.num_levels());
        self.apply(now, plan, false, state);
    }

    /// Rough upper bound on how long the queued migration jobs will take.
    /// Copies run as 128 KiB pieces, each paying its own positioning
    /// overhead, so the estimate is per-piece: read + write pieces per job
    /// at the slowest adopted level, divided by the engine's concurrency.
    fn migration_drain_estimate_s(&self, state: &ArrayState, per_level: &[usize]) -> f64 {
        let jobs = state.migrator.pending_len() + state.migrator.active_len();
        if jobs == 0 {
            return 0.0;
        }
        let slowest = per_level
            .iter()
            .position(|&n| n > 0)
            .unwrap_or(per_level.len() - 1);
        let piece_sectors = array::PIECE_SECTORS.min(state.config.chunk_sectors as u32);
        let pieces_per_chunk =
            (state.config.chunk_sectors as f64 / f64::from(piece_sectors)).ceil();
        let piece_io = state.disks[0]
            .service_model()
            .expected_random_service_s(SpeedLevel(slowest), piece_sectors);
        jobs as f64 * 2.0 * pieces_per_chunk * piece_io / state.migrator.max_inflight() as f64
    }

    /// Plans the epoch's round through the host's tracker and replaces the
    /// pending jobs with its output; `None` when migration is off.
    fn apply_migrations(
        &mut self,
        now: SimTime,
        state: &mut ArrayState,
        ranking: &[ChunkId],
        rates: &[f64],
        targets: &[SpeedLevel],
        policy: &mut dyn MigrationPolicy,
    ) -> Option<PlanOutcome> {
        if !self.migration_enabled {
            return None;
        }
        let out = self.grace.plan_round(
            policy,
            &PolicyObservation {
                now,
                state,
                heat: self.heat.as_ref().expect("init ran"),
                ranking,
                rates,
                disk_levels: targets,
                budget: self.cfg.migration_budget,
            },
        );
        state.migrator.clear_pending();
        state.migrator.enqueue(out.jobs.iter().copied());
        Some(out)
    }
}

/// Sum of ramp energies to move the array from its current levels to a new
/// per-level composition (pessimistic: assumes the worst-case matching is
/// avoided by the planner, so cost is computed from the minimal-movement
/// matching).
fn transition_cost_j(state: &ArrayState, per_level: &[usize]) -> f64 {
    let targets = match_disks(state, per_level);
    let pm: &PowerModel = state.disks[0].power_model();
    let mut cost = 0.0;
    for (i, d) in state.disks.iter().enumerate() {
        if d.has_failed() {
            continue;
        }
        let from = d.effective_level();
        let to = targets[i];
        if from != to {
            cost += pm.level_transition(from, to).energy_j;
        }
    }
    cost
}

/// The standby extension's test: true when the bottom tier's `n_bottom`
/// disks share so little of the coldest chunk range's demand (`input`'s
/// rates are hottest first, over its `disks` alive disks) that they may
/// stop spinning this epoch.
fn bottom_tier_is_cold(state: &ArrayState, n_bottom: usize, input: &AllocationInput<'_>) -> bool {
    if n_bottom == 0 {
        return false;
    }
    let n = input.disks;
    let cpd = input.chunks.div_ceil(n).max(1);
    // The bottom tier holds the coldest `n_bottom` disk-ranges; the
    // ranking's implicit cold tail adds nothing to their demand.
    let rates = input.chunk_rates;
    let cold_start = (n - n_bottom) * cpd;
    let cold_rate: f64 = rates[cold_start.min(rates.len())..].iter().sum();
    // The sleep/wake round trip from the bottom level must pay for itself
    // between requests; below 1/(4×break-even) it reliably does.
    let breakeven = state.disks[0]
        .power_model()
        .breakeven_standby_s(SpeedLevel(0));
    cold_rate / (n_bottom as f64) < STANDBY_MAX_RATE.min(1.0 / (4.0 * breakeven))
}

impl PowerPolicy for Hibernator {
    fn name(&self) -> &str {
        "Hibernator"
    }

    fn init(&mut self, now: SimTime, state: &mut ArrayState) {
        self.heat = Some(HeatMap::new(state.remap.chunks(), self.cfg.heat_tau));
        let spec = &state.config.spec;
        self.estimator = Some(ServiceEstimator::new(
            state.disks[0].service_model(),
            spec.num_levels(),
            16,
        ));
        self.allocator = Some(SpeedAllocator::new(
            state.disks[0].power_model(),
            spec.num_levels(),
        ));
        // First epoch decision happens after one epoch of observation; until
        // then the array stays at full speed (the safe default).
        self.next_epoch = now + self.cfg.epoch;
        self.current = Some(Allocation::all_fast(state.disks.len(), spec.num_levels()));
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.cfg.tick)
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) {
        self.power_cap = cap_w;
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
        if let Some(p) = self.mig_policy.as_mut() {
            for &c in chunks {
                p.observe_access(c);
            }
        }
    }

    fn on_completion(
        &mut self,
        now: SimTime,
        comp: &Completion,
        volume_response_s: Option<f64>,
        state: &mut ArrayState,
    ) {
        // Service moments, keyed by the serving disk's level.
        if let (Some(est), Some(level)) = (
            self.estimator.as_mut(),
            state.disks[comp.disk].current_level(),
        ) {
            if comp.service_s > 0.0 {
                est.record(level, comp.service_s);
            }
        }
        if let Some(r) = volume_response_s {
            // Transition/migration transients are excluded from goal
            // accounting; see `sample_exclude_until`.
            if now >= self.sample_exclude_until {
                self.guard.record(now, r);
            }
        }
    }

    fn on_disk_failure(&mut self, now: SimTime, _disk: usize, state: &mut ArrayState) {
        // A failure is the hardest possible performance event: redirected
        // reads double up on the partner and rebuild traffic floods the
        // survivors. Boost the survivors immediately — don't wait for the
        // guard's window to fill with blown response times — and schedule
        // a fresh epoch decision once things settle. The guard's
        // ExitBoost unpauses relocation once the array is calm again.
        let entered = !self.guard_enabled || self.guard.force_boost();
        self.boost(now, telemetry::BoostReason::DiskFailure, entered, state);
        self.next_epoch = self.next_epoch.max(now + self.cfg.epoch);
    }

    fn on_tick(&mut self, now: SimTime, state: &mut ArrayState) {
        if self.guard_enabled {
            match self.guard.check(now) {
                GuardAction::EnterBoost => {
                    // A boost is hard evidence the model under-predicted.
                    self.correction = (self.correction * 1.25).min(4.0);
                    self.model_error.observe(now, self.correction);
                    self.boost(now, telemetry::BoostReason::Latency, true, state);
                    return;
                }
                GuardAction::HoldBoost => return,
                GuardAction::ExitBoost => {
                    state.telemetry.emit_with(|| telemetry::Event::GuardBoost {
                        time_s: now.as_secs(),
                        entered: false,
                        reason: telemetry::BoostReason::Latency,
                    });
                    state.migrator.set_paused(false);
                    // Re-optimise at the next tick.
                    self.next_epoch = now;
                }
                GuardAction::Normal => {
                    // Calibrate the model against reality while the adopted
                    // configuration is live and unmuted.
                    if let (Some(obs), Some(cur)) =
                        (self.guard.windowed_mean(now), self.current.as_ref())
                    {
                        // Calibrate against any adopted config with a real
                        // prediction — including the allocator's all-fast
                        // fallback, or the correction could never relax
                        // after a boost. The plan a boost applies predicts
                        // 0 s, so calibration resumes with the next epoch.
                        if cur.predicted_response_s > 1e-6 {
                            let ratio = (obs / cur.predicted_response_s).clamp(0.25, 4.0);
                            self.model_error.observe(now, ratio);
                            self.correction =
                                self.model_error.value().unwrap_or(1.0).clamp(1.0, 4.0);
                        }
                    }
                }
            }
        }
        if now >= self.next_epoch {
            self.next_epoch = now + self.cfg.epoch;
            self.run_epoch(now, state);
        }
        // A parked disk woken by a stray request goes back to sleep once it
        // has idled past break-even (a per-disk TPM layer restricted to the
        // epoch's parked set).
        if !self.standby_disks.is_empty() {
            let breakeven = state.disks[0]
                .power_model()
                .breakeven_standby_s(SpeedLevel(0));
            for &i in &self.standby_disks {
                let d = &state.disks[i];
                if let Some(idle) = d.idle_duration(now) {
                    if idle >= breakeven && !d.is_standby() {
                        state.request_speed(now, i, SpinTarget::Standby);
                    }
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

    /// Fast-epoch config for short tests.
    fn hib_cfg(goal_s: f64) -> HibernatorConfig {
        HibernatorConfig {
            goal_s,
            epoch: SimDuration::from_secs(200.0),
            tick: SimDuration::from_secs(5.0),
            guard_window: SimDuration::from_secs(60.0),
            guard_hysteresis: SimDuration::from_secs(120.0),
            heat_tau: SimDuration::from_secs(300.0),
            migration_budget: 256,
        }
    }

    fn skewed_trace(rate: f64, duration: f64, seed: u64) -> workload::Trace {
        let mut spec = WorkloadSpec::oltp(duration, rate);
        spec.extents = 512;
        spec.zipf_theta = 1.05;
        spec.generate(seed)
    }

    #[test]
    fn saves_energy_while_meeting_goal() {
        let trace = skewed_trace(15.0, 2400.0, 51);
        let opts = RunOptions::for_horizon(2400.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        let goal = base.response.mean() * 2.0;
        let hib = run_policy(config(), Hibernator::new(hib_cfg(goal)), &trace, opts);
        let savings = hib.savings_vs(&base);
        assert!(savings > 0.15, "Hibernator savings {savings}");
        // Goal compliance is a steady-state property: the first epoch's
        // ramp/migration transient is excluded (its samples are excluded
        // from goal accounting by design; see `sample_exclude_until`).
        let steady: Vec<f64> = hib
            .response_series
            .mean_points()
            .into_iter()
            .filter(|(t, _)| *t > 400.0)
            .map(|(_, v)| v)
            .collect();
        let steady_mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!(
            steady_mean <= goal * 1.15,
            "steady-state goal {goal} blown: {steady_mean}"
        );
        assert_eq!(hib.completed, base.completed);
    }

    #[test]
    fn tight_goal_keeps_disks_fast() {
        let trace = skewed_trace(40.0, 1200.0, 52);
        let opts = RunOptions::for_horizon(1200.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        // A goal at 1.02× base mean is nearly impossible to beat with any
        // slow disk; Hibernator should mostly stay fast and save little.
        // (Savings bound is loose because the model may admit brief dips.)
        let goal = base.response.mean() * 1.02;
        let hib = run_policy(config(), Hibernator::new(hib_cfg(goal)), &trace, opts);
        let savings = hib.savings_vs(&base);
        assert!(
            savings < 0.25,
            "tight goal should limit savings, got {savings}"
        );
    }

    #[test]
    fn migrates_hot_data() {
        let trace = skewed_trace(20.0, 1800.0, 53);
        let opts = RunOptions::for_horizon(1800.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        let goal = base.response.mean() * 2.0;
        let hib = run_policy(config(), Hibernator::new(hib_cfg(goal)), &trace, opts);
        assert!(
            hib.migration.committed > 10,
            "expected migrations, got {:?}",
            hib.migration
        );
    }

    #[test]
    fn guard_boosts_on_load_surge() {
        // Quiet first half (array slows down), violent second half.
        let mut quiet = WorkloadSpec::oltp(900.0, 4.0);
        quiet.extents = 512;
        let mut storm = WorkloadSpec::oltp(900.0, 250.0);
        storm.extents = 512;
        let mut reqs = quiet.generate(54).requests;
        for mut r in storm.generate(55).requests {
            r.time = SimTime::from_secs(r.time.as_secs() + 900.0);
            reqs.push(r);
        }
        let trace = workload::Trace::from_requests(reqs);
        let opts = RunOptions::for_horizon(1800.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        let goal = (base.response.mean() * 1.5).max(0.015);
        let mut cfg = hib_cfg(goal);
        cfg.epoch = SimDuration::from_secs(300.0);

        let sim = array::Simulation::new(config(), Hibernator::new(cfg), &trace, opts);
        let report = sim.run();
        // Adaptation: the storm must raise the average spindle level (via
        // re-optimisation and/or boost).
        let mean_level_in = |lo: f64, hi: f64| {
            let mut weighted = 0.0;
            let mut count = 0.0;
            for (level, series) in report.level_series.iter().take(6).enumerate() {
                for (t, v) in series.mean_points() {
                    if t > lo && t <= hi {
                        weighted += level as f64 * v;
                        count += v;
                    }
                }
            }
            weighted / count.max(1e-9)
        };
        let quiet_level = mean_level_in(500.0, 900.0);
        let storm_level = mean_level_in(1300.0, 1800.0);
        assert!(
            storm_level > quiet_level + 0.2,
            "storm should raise the mean spindle level: quiet {quiet_level:.2} storm {storm_level:.2}"
        );
        // And the storm must not melt down: responses stay bounded.
        let late_resp = report
            .response_series
            .mean_points()
            .into_iter()
            .filter(|(t, _)| *t > 1500.0)
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(late_resp < 1.0, "storm response collapsed: {late_resp} s");
    }

    #[test]
    fn ablations_construct() {
        let p = Hibernator::new(hib_cfg(0.02))
            .without_guard()
            .without_migration();
        assert_eq!(p.name(), "Hibernator");
        assert!(!p.is_boosted());
    }

    #[test]
    fn no_migration_ablation_saves_less() {
        let trace = skewed_trace(18.0, 2400.0, 56);
        let opts = RunOptions::for_horizon(2400.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        let goal = base.response.mean() * 2.0;
        let full = run_policy(
            config(),
            Hibernator::new(hib_cfg(goal)),
            &trace,
            opts.clone(),
        );
        let no_mig = run_policy(
            config(),
            Hibernator::new(hib_cfg(goal)).without_migration(),
            &trace,
            opts,
        );
        assert_eq!(no_mig.migration.committed, 0);
        // Migration concentrates load, letting more disks run slow; without
        // it savings should not exceed the full policy's (allow noise).
        assert!(
            no_mig.savings_vs(&base) <= full.savings_vs(&base) + 0.05,
            "no-mig {} vs full {}",
            no_mig.savings_vs(&base),
            full.savings_vs(&base)
        );
    }

    #[test]
    fn standby_extension_sleeps_dead_valleys() {
        // A brief warm-up burst, then near-silence: with the extension the
        // bottom tier must reach standby, saving energy vs plain Hibernator.
        let mut head = WorkloadSpec::oltp(300.0, 20.0);
        head.extents = 512;
        let mut tail = WorkloadSpec::oltp(3300.0, 0.002);
        tail.extents = 512;
        let mut reqs = head.generate(71).requests;
        for mut r in tail.generate(72).requests {
            r.time = SimTime::from_secs(r.time.as_secs() + 300.0);
            reqs.push(r);
        }
        let trace = workload::Trace::from_requests(reqs);
        let opts = RunOptions::for_horizon(3600.0);
        let plain = run_policy(
            config(),
            Hibernator::new(hib_cfg(0.050)),
            &trace,
            opts.clone(),
        );
        let with_standby = run_policy(
            config(),
            Hibernator::new(hib_cfg(0.050)).with_standby(),
            &trace,
            opts,
        );
        assert!(
            with_standby.energy.joules(simkit::EnergyComponent::Standby) > 0.0,
            "extension must actually stop spindles"
        );
        assert!(
            with_standby.energy.total_joules() < plain.energy.total_joules(),
            "standby {} vs plain {}",
            with_standby.energy.total_joules(),
            plain.energy.total_joules()
        );
        assert_eq!(with_standby.completed, plain.completed);
    }

    #[test]
    fn coarse_grain_test_skips_marginal_changes() {
        // Load alternates between quiet and busy every five minutes, and
        // 30 s epochs are too short for most re-plans' projected saving to
        // repay their ramp energy, so the coarse-grain test keeps the
        // current speeds instead of chasing every swing.
        let mut reqs = Vec::new();
        for k in 0..12u64 {
            let mut spec = WorkloadSpec::oltp(300.0, if k % 2 == 0 { 4.0 } else { 40.0 });
            spec.extents = 512;
            spec.zipf_theta = 1.05;
            for mut r in spec.generate(57 + k).requests {
                r.time = SimTime::from_secs(r.time.as_secs() + 300.0 * k as f64);
                reqs.push(r);
            }
        }
        let trace = workload::Trace::from_requests(reqs);
        let opts = RunOptions::for_horizon(3600.0);
        let base = run_policy(config(), BasePolicy, &trace, opts.clone());
        let mut cfg = hib_cfg(base.response.mean() * 2.0);
        cfg.epoch = SimDuration::from_secs(30.0);
        cfg.heat_tau = SimDuration::from_secs(60.0);
        let (report, hib) = array::Simulation::new(config(), Hibernator::new(cfg), &trace, opts)
            .run_returning_policy();
        assert!(
            hib.stats().skipped_by_coarse_grain > 0,
            "no marginal re-plan skipped: {:?}",
            hib.stats()
        );
        assert!(
            report.transitions <= 30,
            "coarse-grain test failed to suppress churn: {} transitions",
            report.transitions
        );
    }
}
