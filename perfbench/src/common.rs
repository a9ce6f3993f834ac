//! Shared scenario settings, policy dispatch and per-run checks.
//!
//! The settings are the simulator's quick scale (a 2 h horizon, a
//! 16-disk array with 6 speed levels, 20-minute Hibernator epochs, goal =
//! 1.3 × the unmanaged mean response), spelled out here from the crates'
//! public API so the benchmark depends on nothing but the library crates.

use crate::probe::{FeedProbe, Planner, PolicySink, Probe};
use array::{run_policy, run_policy_streamed, ArrayConfig, PowerPolicy, Redundancy, RunOptions};
use array::{BasePolicy, RunReport};
use diskmodel::{DiskSpec, SpeedLevel};
use hibernator::{Hibernator, HibernatorConfig};
use policies::{
    maid_array_config, DrpmPolicy, FixedSpeed, MaidConfig, MaidPolicy, PdcPolicy, SleepScalePolicy,
    TpmPolicy,
};
use simkit::{LatencyHistogram, SimDuration, TimeSeries};
use workload::{Trace, TraceCursor, WorkloadSpec};

/// Simulated horizon of every run, seconds.
pub const HORIZON_S: f64 = 2.0 * 3600.0;
/// Goal = this factor × the unmanaged (Base) mean response.
pub const GOAL_FACTOR: f64 = 1.3;
/// Buckets before this instant are excluded from goal-violation counts.
pub const WARMUP_S: f64 = HORIZON_S * 0.1;

/// MAID's cache size, chunks per cache disk. The headline experiments use
/// 2048, where MAID's linear-scan LRU directory takes over half of a grid
/// pass and its host time swings up to 2× with the state of a shared host;
/// at 128 (as in the workspace's criterion bench) MAID still runs every
/// code path, but the driver again does most of the work.
pub const MAID_CACHE_CHUNKS_PER_DISK: u32 = 128;

/// The OLTP workload: steady 150 req/s, Zipf-skewed, read-mostly.
pub fn oltp() -> WorkloadSpec {
    WorkloadSpec::oltp(HORIZON_S, 150.0)
}

/// The Cello-like workload: diurnal, bursty file-server traffic.
pub fn cello() -> WorkloadSpec {
    WorkloadSpec::cello_like(HORIZON_S, 80.0)
}

/// The standard 16-disk, 6-level array sized to `spec`'s footprint.
pub fn array_config(spec: &WorkloadSpec, seed: u64) -> ArrayConfig {
    ArrayConfig {
        disks: 16,
        spec: DiskSpec::ultrastar_multispeed(6),
        chunk_sectors: 2048,
        volume_chunks: (spec.footprint_sectors() / 2048) as u32,
        redundancy: Redundancy::None,
        seed,
        stripe_width: None,
    }
}

/// Run options at the benchmark's horizon: 120 s series buckets and power
/// sampling, everything optional off.
pub fn run_options() -> RunOptions {
    let mut o = RunOptions::for_horizon(HORIZON_S);
    o.series_bucket = SimDuration::from_secs(120.0);
    o.sample_interval = o.series_bucket;
    o
}

/// Hibernator at quick scale: 20-minute epochs and heat half-life.
pub fn hibernator_config(goal_s: f64) -> HibernatorConfig {
    let mut cfg = HibernatorConfig::for_goal(goal_s);
    cfg.epoch = SimDuration::from_mins(20.0);
    cfg.heat_tau = SimDuration::from_mins(20.0);
    cfg
}

/// How a probe follows a Hibernator host configured with `cfg`.
pub fn hibernator_planner(cfg: &HibernatorConfig) -> Planner<Hibernator> {
    Planner {
        epoch: cfg.epoch,
        boosted: Hibernator::is_boosted,
        stats: |h| {
            let s = h.stats();
            (s.reconfigurations, s.boosts)
        },
    }
}

/// The layer a policy's code belongs to, by crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `array::BasePolicy`: no hooks worth tracing; left unwrapped.
    Array,
    /// The `hibernator` crate's planner, guard and migration host.
    Core,
    /// The `policies` crate's baselines.
    Policies,
}

/// The policies the headline grid runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Base,
    Tpm,
    Drpm,
    Pdc,
    Maid,
    Hibernator,
    SleepScale,
    FixedSlow,
}

impl Kind {
    /// The seven headline policies plus Fixed(slow), Base first (the
    /// other runs' goal is calibrated from it).
    pub const GRID: [Kind; 8] = [
        Kind::Base,
        Kind::Tpm,
        Kind::Drpm,
        Kind::Pdc,
        Kind::Maid,
        Kind::Hibernator,
        Kind::SleepScale,
        Kind::FixedSlow,
    ];

    /// Short label for logs.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Base => "Base",
            Kind::Tpm => "TPM",
            Kind::Drpm => "DRPM",
            Kind::Pdc => "PDC",
            Kind::Maid => "MAID",
            Kind::Hibernator => "Hibernator",
            Kind::SleepScale => "SleepScale",
            Kind::FixedSlow => "Fixed(slow)",
        }
    }

    /// Which layer's sink this policy's hooks are charged to.
    pub fn layer(self) -> Layer {
        match self {
            Kind::Base => Layer::Array,
            Kind::Hibernator | Kind::SleepScale => Layer::Core,
            _ => Layer::Policies,
        }
    }

    /// Runs this policy over `feed`. With `sinks`, the policy runs inside a
    /// [`Probe`] charged to its layer's sink (Base always runs bare).
    pub fn run(
        self,
        config: ArrayConfig,
        feed: Feed<'_>,
        opts: RunOptions,
        goal_s: f64,
        sinks: Option<&Sinks>,
    ) -> RunReport {
        let core = |cfg: &HibernatorConfig| {
            sinks.map(|s| Hooks {
                sink: &s.core,
                planner: Some(hibernator_planner(cfg)),
            })
        };
        let baseline = sinks.map(|s| &s.policies);
        match self {
            Kind::Base => simulate(config, BasePolicy, feed, opts, None),
            Kind::Tpm => simulate(
                config,
                TpmPolicy::competitive(),
                feed,
                opts,
                plain(baseline),
            ),
            Kind::Drpm => simulate(config, DrpmPolicy::default(), feed, opts, plain(baseline)),
            Kind::Pdc => simulate(config, PdcPolicy::default(), feed, opts, plain(baseline)),
            Kind::Maid => {
                let cache_disks = (config.disks / 8).max(1) + 1; // 16 disks -> 3
                let policy = MaidPolicy::new(MaidConfig {
                    cache_disks,
                    cache_chunks_per_disk: MAID_CACHE_CHUNKS_PER_DISK,
                    tpm_threshold_s: None,
                });
                let config = maid_array_config(config, cache_disks);
                simulate(config, policy, feed, opts, plain(baseline))
            }
            Kind::Hibernator => {
                let cfg = hibernator_config(goal_s);
                let hooks = core(&cfg);
                simulate(config, Hibernator::new(cfg), feed, opts, hooks)
            }
            Kind::SleepScale => {
                let cfg = hibernator_config(goal_s);
                let hooks = core(&cfg);
                let policy = Hibernator::with_policy(cfg, Box::new(SleepScalePolicy::new()));
                simulate(config, policy, feed, opts, hooks)
            }
            Kind::FixedSlow => {
                let policy = FixedSpeed::new(SpeedLevel(0));
                simulate(config, policy, feed, opts, plain(baseline))
            }
        }
    }
}

/// The per-layer sinks of one traced pass.
#[derive(Default)]
pub struct Sinks {
    /// Hibernator-hosted policies.
    pub core: PolicySink,
    /// The `policies` crate's baselines.
    pub policies: PolicySink,
    /// Streamed feeds.
    pub feed: crate::probe::FeedSink,
}

/// How a traced run wraps its policy.
pub struct Hooks<'a, P> {
    sink: &'a PolicySink,
    planner: Option<Planner<P>>,
}

fn plain<P>(sink: Option<&PolicySink>) -> Option<Hooks<'_, P>> {
    sink.map(|sink| Hooks {
        sink,
        planner: None,
    })
}

/// Where a run's requests come from.
#[derive(Clone, Copy)]
pub enum Feed<'a> {
    /// A borrowed materialised trace (the simulator's slice path).
    Slice(&'a Trace),
    /// The same trace pulled through a [`TraceCursor`] (the streaming
    /// path), optionally inside a [`FeedProbe`].
    Cursor(&'a Trace, Option<&'a crate::probe::FeedSink>),
}

/// Runs `policy` over `feed`, inside a [`Probe`] when `hooks` is given.
pub fn simulate<P: PowerPolicy + Send>(
    config: ArrayConfig,
    policy: P,
    feed: Feed<'_>,
    opts: RunOptions,
    hooks: Option<Hooks<'_, P>>,
) -> RunReport {
    match hooks {
        None => drive(config, policy, feed, opts),
        Some(h) => {
            let mut probe = Probe::new(policy, h.sink);
            if let Some(planner) = h.planner {
                probe = probe.planner(planner);
            }
            drive(config, probe, feed, opts)
        }
    }
}

fn drive<P: PowerPolicy + Send>(
    config: ArrayConfig,
    policy: P,
    feed: Feed<'_>,
    opts: RunOptions,
) -> RunReport {
    match feed {
        Feed::Slice(t) => run_policy(config, policy, t, opts),
        Feed::Cursor(t, None) => run_policy_streamed(config, policy, TraceCursor::new(t), opts),
        Feed::Cursor(t, Some(sink)) => run_policy_streamed(
            config,
            policy,
            FeedProbe::new(TraceCursor::new(t), sink),
            opts,
        ),
    }
}

/// Share of post-warm-up series buckets whose mean response exceeded the
/// goal, as `(over, kept)` bucket counts. A bucket counts only if it
/// starts at or after the warm-up.
pub fn violation_counts(series: &TimeSeries, goal_s: f64) -> (u64, u64) {
    let half_width = series.bucket_width().as_secs() / 2.0;
    let (mut kept, mut over) = (0u64, 0u64);
    for (mid, mean) in series.mean_points() {
        if mid - half_width < WARMUP_S {
            continue;
        }
        kept += 1;
        if mean > goal_s {
            over += 1;
        }
    }
    (over, kept)
}

/// Percentage, 0 when the denominator is 0.
pub fn pct(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

/// p99 of a histogram in milliseconds (0 when empty).
pub fn p99_ms(h: &LatencyHistogram) -> f64 {
    h.quantile(0.99).map_or(0.0, |s| s * 1e3)
}

/// One simulation run's outcome as the output checks see it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheck {
    /// Which run.
    pub label: String,
    /// Requests fed in.
    pub input: u64,
    /// Volume requests completed.
    pub completed: u64,
    /// Still in flight at the horizon.
    pub incomplete: u64,
    /// Lost to faults.
    pub lost: u64,
    /// Events the driver processed.
    pub events: u64,
    /// Total energy, as raw bits (repetitions must match exactly).
    pub energy_bits: u64,
    /// Extra invariants of this run (audits, routing), all must hold.
    pub extra_ok: bool,
}

impl RunCheck {
    /// A run's check record from its report.
    pub fn of(label: String, input: u64, r: &RunReport) -> RunCheck {
        RunCheck {
            label,
            input,
            completed: r.completed,
            incomplete: r.incomplete,
            lost: r.faults.lost_requests,
            events: r.events_processed,
            energy_bits: r.energy.total_joules().to_bits(),
            extra_ok: true,
        }
    }

    /// Request conservation and every extra invariant.
    pub fn ok(&self) -> bool {
        self.extra_ok && self.completed + self.incomplete + self.lost == self.input
    }

    /// The part of the record repetitions of the same input must repeat.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.completed,
            self.incomplete,
            self.events,
            self.energy_bits,
        )
    }
}
