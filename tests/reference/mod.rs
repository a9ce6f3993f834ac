//! Frozen equivalence evidence for the simulator's hot paths, shared by
//! the tests that check it.
//!
//! Every hot-path rewrite of the driver — the incremental wake resync,
//! the ladder event queue with batched arrival admission, the streamed
//! trace feed, and the trait-hosted migration planner — was proved
//! bit-identical to the code it replaced by running both side by side.
//! The evidence is frozen: for each scenario below one [`Row`] hashes
//! (64-bit FNV-1a) three things, and the committed rows live in
//! `tests/golden/reference_fingerprints.txt`:
//!
//! * `report` — the [`fingerprint`] vector of every run report (for a
//!   fleet, each array's in order, then the fleet totals);
//! * `telemetry` — the captured telemetry stream bytes (for a fleet, each
//!   array's stream in order);
//! * `fleet` — the fleet stream bytes (`-` for a solo run).
//!
//! The scenarios stress every piece of the equivalence arguments: all
//! seven headline policies plus the LFU and bandit migration policies,
//! a policy that churns spindle speeds from the per-event hooks, RAID-5
//! fault storms with retries and a whole-disk failure, the DRAM cache
//! with per-tenant accounting, a budget-capped fleet stepped in arbiter
//! segments, the five Hibernator variants of the headline grid, two
//! Hibernators that migrate for real — one commits and aborts jobs, the
//! other loses a disk while a job is copying — and the random-placement
//! and standby ablations on scenarios where they act.
//!
//! The rows were recorded from the reference paths — full-scan resync,
//! `BinaryHeap` queue with per-event admission, materialised-trace feed,
//! and the pre-trait planner — which the production paths then matched
//! row for row before the reference paths were deleted. The `migration/*`
//! rows were recorded before the migration engine's job and request
//! tables moved from hashed id maps to slab slots.
//! `tests/resync_equivalence.rs`, `tests/queue_equivalence.rs` and
//! `tests/planner_equivalence.rs` check their groups of rows;
//! `tests/reference_goldens.rs` checks the whole file and, for an
//! intentional behaviour change, regenerates it with
//! `REGEN_GOLDEN=1 cargo test --test reference_goldens`.
//!
//! Each including test binary uses only part of this module, hence the
//! `dead_code` allowance.
#![allow(dead_code)]

use crate::common::{fingerprint, fnv1a, fnv1a_words};
use array::{run_policy, ArrayConfig, ArrayState, PowerPolicy, Redundancy, RunOptions, RunReport};
use diskmodel::{Completion, SpeedLevel, SpinTarget};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig, RandomPolicy};
use parallel::Pool;
use policies::{
    maid_array_config, BanditPolicy, DrpmPolicy, LfuPolicy, MaidConfig, MaidPolicy, PdcPolicy,
    SleepScalePolicy, TpmPolicy,
};
use simkit::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::PathBuf;
use telemetry::TelemetryConfig;
use workload::{Trace, VolumeRequest, WorkloadSpec};

/// One scenario's hashed outcome.
pub struct Row {
    label: String,
    report: u64,
    telemetry: u64,
    fleet: Option<u64>,
}

impl Row {
    /// The scenario label.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn render(&self) -> String {
        let fleet = self
            .fleet
            .map_or_else(|| "-".to_string(), |h| format!("{h:016x}"));
        format!(
            "{} report={:016x} telemetry={:016x} fleet={fleet}",
            self.label, self.report, self.telemetry
        )
    }
}

/// Runs one solo scenario (telemetry capture on) and hashes it.
fn solo<P: PowerPolicy + Send>(
    label: &str,
    config: ArrayConfig,
    trace: &Trace,
    opts: RunOptions,
    policy: P,
) -> Row {
    solo_run(label, config, trace, opts, policy).row
}

/// One solo scenario's golden row, with the report (its telemetry taken)
/// and the stream bytes, for checks on what the run exercised.
pub struct SoloRun {
    pub row: Row,
    pub report: RunReport,
    pub stream: Vec<u8>,
}

/// Runs one solo scenario (telemetry capture on), keeping what it hashed.
fn solo_run<P: PowerPolicy + Send>(
    label: &str,
    config: ArrayConfig,
    trace: &Trace,
    opts: RunOptions,
    policy: P,
) -> SoloRun {
    let mut r = run_policy(config, policy, trace, opts);
    let stream = r.telemetry.take().expect("telemetry captured").bytes;
    SoloRun {
        row: Row {
            label: label.to_string(),
            report: fnv1a_words(&fingerprint(&r)),
            telemetry: fnv1a(&stream),
            fleet: None,
        },
        report: r,
        stream,
    }
}

/// A policy that changes spindle speeds from the *per-event* hooks (the
/// paths the conservative `mark_all` after tick/init does not cover), via
/// the mandatory [`ArrayState::request_speed`] wrapper. Deterministic:
/// driven by event counters, not time or randomness.
#[derive(Default)]
struct ChurnSpeed {
    arrivals: u64,
    completions: u64,
}

impl PowerPolicy for ChurnSpeed {
    fn name(&self) -> &str {
        "ChurnSpeed"
    }

    fn on_volume_arrival(
        &mut self,
        now: SimTime,
        _req: &VolumeRequest,
        _chunks: &[array::ChunkId],
        state: &mut ArrayState,
    ) {
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(13) {
            let d = (self.arrivals / 13) as usize % state.disks.len();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Level(SpeedLevel(0)));
            }
        }
    }

    fn on_completion(
        &mut self,
        now: SimTime,
        _comp: &Completion,
        _volume_response_s: Option<f64>,
        state: &mut ArrayState,
    ) {
        self.completions += 1;
        if self.completions.is_multiple_of(17) {
            let d = (self.completions / 17) as usize % state.disks.len();
            let top = state.config.spec.top_level();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Level(top));
            }
        } else if self.completions.is_multiple_of(29) {
            let d = (self.completions / 29) as usize % state.disks.len();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Standby);
            }
        }
    }
}

/// A fault storm at fractions of `horizon_s`: `(fraction, disk, kind)`.
fn storm(horizon_s: f64, events: Vec<(f64, usize, FaultKind)>) -> FaultPlan {
    FaultPlan {
        schedule: FaultSchedule::new(
            events
                .into_iter()
                .map(|(f, disk, kind)| FaultEvent {
                    time: SimTime::from_secs(horizon_s * f),
                    disk,
                    kind,
                })
                .collect(),
        ),
        config: FaultConfig::default(),
    }
}

fn resync_opts(horizon_s: f64, label: &str) -> RunOptions {
    let mut o = RunOptions::for_horizon(horizon_s);
    o.telemetry = Some(TelemetryConfig::new(label).with_goal(0.05, 60.0));
    o
}

fn resync_config(seed: u64, disks: usize) -> ArrayConfig {
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = disks;
    config.seed = seed;
    config
}

/// The incremental-resync proof (dirty-disk vs full-scan wake resync),
/// part one: the base policy and a policy that churns spindle speeds from
/// the per-event hooks, over three seeds.
pub fn resync_base_churn_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for seed in [11u64, 12, 13] {
        let mut spec = WorkloadSpec::oltp(600.0, 30.0);
        spec.extents = 1024;
        let trace = spec.generate(seed);
        let config = resync_config(seed, 4);
        let label = format!("resync/base-{seed}");
        rows.push(solo(
            &label,
            config.clone(),
            &trace,
            resync_opts(600.0, &label),
            array::BasePolicy,
        ));
        let label = format!("resync/churn-{seed}");
        rows.push(solo(
            &label,
            config,
            &trace,
            resync_opts(600.0, &label),
            ChurnSpeed::default(),
        ));
    }
    rows
}

/// The incremental-resync proof, part two: the managed policies (TPM and
/// Hibernator) on a Cello-like load.
pub fn resync_managed_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (seed, disks) in [(21u64, 4), (22, 6)] {
        let spec = WorkloadSpec::cello_like(900.0, 25.0);
        let trace = spec.generate(seed);
        let mut config = ArrayConfig::default_for_volume(spec.footprint_sectors() * 512);
        config.disks = disks;
        config.seed = seed;
        let label = format!("resync/tpm-{seed}");
        rows.push(solo(
            &label,
            config.clone(),
            &trace,
            resync_opts(900.0, &label),
            TpmPolicy::competitive(),
        ));
        let mut cfg = HibernatorConfig::for_goal(0.015);
        cfg.epoch = SimDuration::from_secs(180.0);
        cfg.heat_tau = SimDuration::from_secs(180.0);
        let label = format!("resync/hib-{seed}");
        rows.push(solo(
            &label,
            config,
            &trace,
            resync_opts(900.0, &label),
            Hibernator::new(cfg),
        ));
    }
    rows
}

/// The incremental-resync proof, part three: RAID-5 fault storms
/// exercising every fault-handler marking path.
pub fn resync_fault_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for seed in [31u64, 32] {
        let mut spec = WorkloadSpec::oltp(900.0, 40.0);
        spec.extents = 1024;
        let trace = spec.generate(seed);
        let mut config = resync_config(seed, 6);
        config.redundancy = Redundancy::Raid5Like;
        let with_storm = |label: &str| {
            let mut o = resync_opts(900.0, label);
            o.faults = Some(storm(
                900.0,
                vec![
                    (
                        0.2,
                        1,
                        FaultKind::SlowTransition {
                            factor: 3.0,
                            duration_s: 90.0,
                        },
                    ),
                    (
                        0.3,
                        2,
                        FaultKind::TransientBurst {
                            error_prob: 0.2,
                            duration_s: 45.0,
                        },
                    ),
                    (0.45, 2, FaultKind::DiskFailure),
                ],
            ));
            o
        };
        let label = format!("resync/fault-churn-{seed}");
        rows.push(solo(
            &label,
            config.clone(),
            &trace,
            with_storm(&label),
            ChurnSpeed::default(),
        ));
        let label = format!("resync/fault-tpm-{seed}");
        rows.push(solo(
            &label,
            config,
            &trace,
            with_storm(&label),
            TpmPolicy::with_threshold(120.0),
        ));
    }
    rows
}

const QUEUE_S: f64 = 900.0;

fn queue_trace(seed: u64) -> Trace {
    let mut spec = WorkloadSpec::oltp(QUEUE_S, 25.0);
    spec.extents = 1024;
    spec.zipf_theta = 1.0;
    spec.generate(seed)
}

fn queue_config() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    c
}

fn queue_opts(label: &str) -> RunOptions {
    let mut o = RunOptions::for_horizon(QUEUE_S);
    o.telemetry = Some(TelemetryConfig::new(label).with_goal(0.02, 90.0));
    o
}

fn queue_hib_config() -> HibernatorConfig {
    let mut cfg = HibernatorConfig::for_goal(0.02);
    cfg.epoch = SimDuration::from_secs(180.0);
    cfg.heat_tau = SimDuration::from_secs(180.0);
    cfg
}

/// The event-queue proof (ladder with batched admission vs a heap with
/// per-event admission), part one: every headline policy (plus LFU and
/// bandit) on one trace.
pub fn queue_headline_rows() -> Vec<Row> {
    fn run<P: PowerPolicy + Send>(
        trace: &Trace,
        label: &str,
        config: ArrayConfig,
        policy: P,
    ) -> Row {
        let label = format!("queue/{label}");
        solo(&label, config, trace, queue_opts(&label), policy)
    }
    let hosted =
        |p: Box<dyn hibernator::MigrationPolicy>| Hibernator::with_policy(queue_hib_config(), p);
    let trace = queue_trace(7);
    let cfg = queue_config();
    let maid = MaidPolicy::new(MaidConfig {
        cache_disks: 2,
        cache_chunks_per_disk: 256,
        tpm_threshold_s: Some(120.0),
    });
    vec![
        run(&trace, "Base", cfg.clone(), array::BasePolicy),
        run(&trace, "TPM", cfg.clone(), TpmPolicy::competitive()),
        run(&trace, "DRPM", cfg.clone(), DrpmPolicy::default()),
        run(&trace, "PDC", cfg.clone(), PdcPolicy::default()),
        run(&trace, "MAID", maid_array_config(cfg.clone(), 2), maid),
        run(
            &trace,
            "Hibernator",
            cfg.clone(),
            Hibernator::new(queue_hib_config()),
        ),
        run(
            &trace,
            "SleepScale",
            cfg.clone(),
            hosted(Box::new(SleepScalePolicy::new())),
        ),
        run(
            &trace,
            "Hib-LFU",
            cfg.clone(),
            hosted(Box::new(LfuPolicy::new())),
        ),
        run(
            &trace,
            "Hib-Bandit",
            cfg,
            hosted(Box::new(BanditPolicy::new())),
        ),
    ]
}

/// The event-queue proof, part two — the hard scenario for slab slot
/// reuse: RAID-5 parity ids, a fault storm with transient retries and a
/// whole-disk failure (stranded pieces, lost volumes, rebuild traffic), a
/// DRAM cache absorbing and destaging writes, and per-tenant accounting,
/// on a managed and an unmanaged policy.
pub fn queue_fault_cache_rows() -> Vec<Row> {
    let trace = queue_trace(19);
    let mut cfg = queue_config();
    cfg.redundancy = Redundancy::Raid5Like;
    let tenants = array::TenantShards {
        sectors: cfg.volume_sectors() / 8,
        count: 8,
    };
    let faulted = |label: &str| {
        let mut o = queue_opts(label);
        o.faults = Some(storm(
            QUEUE_S,
            vec![
                (
                    0.2,
                    1,
                    FaultKind::TransientBurst {
                        error_prob: 0.25,
                        duration_s: QUEUE_S * 0.1,
                    },
                ),
                (0.4, 2, FaultKind::DiskFailure),
                (
                    0.6,
                    4,
                    FaultKind::TransientBurst {
                        error_prob: 0.15,
                        duration_s: QUEUE_S * 0.05,
                    },
                ),
            ],
        ));
        o.cache = Some(cache::CacheConfig::with_capacity(256));
        o.tenants = Some(tenants);
        o
    };
    vec![
        solo(
            "queue/fault-cache-tpm",
            cfg.clone(),
            &trace,
            faulted("queue/fault-cache-tpm"),
            TpmPolicy::with_threshold(120.0),
        ),
        solo(
            "queue/fault-cache-hib",
            cfg,
            &trace,
            faulted("queue/fault-cache-hib"),
            Hibernator::new(queue_hib_config()),
        ),
    ]
}

/// A budget-capped fleet stepped in arbiter segments: arrays pause at
/// every epoch, so batched admission must respect the segment limit
/// exactly, while the arbiter and placement layers stay active.
pub fn fleet_row() -> Row {
    let trace = queue_trace(23);
    let mut o = RunOptions::for_horizon(QUEUE_S);
    o.telemetry = Some(TelemetryConfig::new("fleet").with_goal(0.02, 90.0));
    let mut spec = FleetSpec::new(3, 8, queue_config(), o, BudgetSchedule::constant(160.0));
    spec.fleet_epoch = SimDuration::from_secs(150.0);
    let mut report = run_fleet(&spec, &trace, &Pool::new(2), |_| {
        Hibernator::new(queue_hib_config())
    });
    let mut words = Vec::new();
    let mut streams = Vec::new();
    for r in &mut report.arrays {
        streams.extend(r.telemetry.take().expect("telemetry captured").bytes);
        words.extend(fingerprint(r));
    }
    words.extend([
        report.fleet_energy_j.to_bits(),
        report.cap_violation_s.to_bits(),
        report.completed,
        report.incomplete,
        report.routed_requests,
        report.tenant_moves,
    ]);
    Row {
        label: "fleet/budget-capped".to_string(),
        report: fnv1a_words(&words),
        telemetry: fnv1a(&streams),
        fleet: Some(fnv1a(&report.fleet_stream.bytes)),
    }
}

/// The planner proof (trait-hosted vs pre-trait planner): the Hibernator
/// variants of the headline comparison on one trace — default, no-guard,
/// no-migration, random-migration, standby.
pub fn planner_rows() -> Vec<Row> {
    const DURATION_S: f64 = 1800.0;
    let mut spec = WorkloadSpec::oltp(DURATION_S, 30.0);
    spec.extents = 2048;
    spec.zipf_theta = 1.0;
    let trace = spec.generate(23);
    let mut config = ArrayConfig::default_for_volume(2 << 30);
    config.disks = 8;
    config.seed = 23;
    let mut cfg = HibernatorConfig::for_goal(0.05);
    cfg.epoch = SimDuration::from_secs(300.0);
    cfg.heat_tau = SimDuration::from_secs(300.0);
    cfg.guard_window = SimDuration::from_secs(60.0);
    cfg.guard_hysteresis = SimDuration::from_secs(120.0);
    let variants = [
        ("default", Hibernator::new(cfg.clone())),
        ("no-guard", Hibernator::new(cfg.clone()).without_guard()),
        (
            "no-migration",
            Hibernator::new(cfg.clone()).without_migration(),
        ),
        (
            "random-migration",
            Hibernator::with_policy(cfg.clone(), Box::new(RandomPolicy::new())),
        ),
        ("standby", Hibernator::new(cfg).with_standby()),
    ];
    variants
        .into_iter()
        .map(|(name, h)| {
            let label = format!("planner/{name}");
            let mut opts = RunOptions::for_horizon(DURATION_S);
            opts.telemetry = Some(TelemetryConfig::new(label.clone()));
            solo(&label, config.clone(), &trace, opts, h)
        })
        .collect()
}

/// The migration-engine scenarios: a Hibernator that splits the array
/// into speed tiers, so it commits migration jobs, and the same
/// Hibernator on RAID-5 whose fault storm — transient errors, then a
/// whole-disk failure while a job is copying — tears down an in-flight
/// job. Short epochs with one copy at a time leave chunks mid-copy at
/// planning rounds, as in `tests/policy_conformance.rs`.
pub fn migration_runs() -> Vec<SoloRun> {
    let (trace, mut config) = tiering_scenario();
    let hibernator = |config: &ArrayConfig| Hibernator::new(tiering_config(config, &trace));
    let opts = |label: &str| {
        let mut o = RunOptions::for_horizon(TIERING_S);
        o.migration_inflight = 1;
        o.telemetry = Some(TelemetryConfig::new(label));
        o
    };
    let relocate = solo_run(
        "migration/hib-relocate",
        config.clone(),
        &trace,
        opts("migration/hib-relocate"),
        hibernator(&config),
    );
    config.redundancy = Redundancy::Raid5Like;
    let mut faulted = opts("migration/hib-disk-failure");
    faulted.faults = Some(storm(
        TIERING_S,
        vec![
            (
                0.3,
                FAILED_DISK,
                FaultKind::TransientBurst {
                    error_prob: 0.2,
                    duration_s: 120.0,
                },
            ),
            (FAILURE_AT, FAILED_DISK, FaultKind::DiskFailure),
        ],
    ));
    let failure = solo_run(
        "migration/hib-disk-failure",
        config.clone(),
        &trace,
        faulted,
        hibernator(&config),
    );
    vec![relocate, failure]
}

/// The horizon of the tiering scenario.
const TIERING_S: f64 = 1800.0;

/// The trace and array of the `migration/*` rows: skewed OLTP over 2,048
/// extents on eight disks.
fn tiering_scenario() -> (Trace, ArrayConfig) {
    let mut spec = WorkloadSpec::oltp(TIERING_S, 30.0);
    spec.extents = 2048;
    spec.zipf_theta = 1.0;
    let mut config = ArrayConfig::default_for_volume(2 << 30);
    config.disks = 8;
    config.seed = 17;
    (spec.generate(17), config)
}

/// One-minute epochs and a goal 1.6x Base's mean response on `config`,
/// which splits the array into tiers.
fn tiering_config(config: &ArrayConfig, trace: &Trace) -> HibernatorConfig {
    let base = run_policy(
        config.clone(),
        array::BasePolicy,
        trace,
        RunOptions::for_horizon(TIERING_S),
    );
    let mut cfg = HibernatorConfig::for_goal(base.response.mean() * 1.6);
    cfg.epoch = SimDuration::from_secs(60.0);
    cfg.heat_tau = SimDuration::from_secs(60.0);
    cfg
}

/// The disk the storm of `migration/hib-disk-failure` hits, and when it
/// dies (fraction of the horizon): a moment a job touching it is copying.
const FAILED_DISK: usize = 3;
const FAILURE_AT: f64 = 0.6;

/// The golden rows of [`migration_runs`].
pub fn migration_rows() -> Vec<Row> {
    migration_runs().into_iter().map(|r| r.row).collect()
}

/// The two Hibernator ablations on scenarios where they act (the
/// `planner/*` variants never split the array into tiers, so neither does
/// anything there): random placement on the `migration/hib-relocate`
/// trace, where it commits moves, and the standby extension on a burst
/// followed by a dead valley, where it stops the bottom tier's spindles.
pub fn ablation_runs() -> Vec<SoloRun> {
    let (trace, config) = tiering_scenario();
    let cfg = tiering_config(&config, &trace);
    let opts = |label: &str, horizon_s: f64| {
        let mut o = RunOptions::for_horizon(horizon_s);
        o.telemetry = Some(TelemetryConfig::new(label));
        o
    };
    let random = solo_run(
        "ablation/random-migration",
        config,
        &trace,
        opts("ablation/random-migration", TIERING_S),
        Hibernator::with_policy(cfg, Box::new(RandomPolicy::new())),
    );

    // A five-minute burst, then one request every ~8 minutes.
    const VALLEY_S: f64 = 3600.0;
    let mut head = WorkloadSpec::oltp(300.0, 20.0);
    head.extents = 512;
    let mut tail = WorkloadSpec::oltp(VALLEY_S - 300.0, 0.002);
    tail.extents = 512;
    let mut reqs = head.generate(71).requests;
    for mut r in tail.generate(72).requests {
        r.time = SimTime::from_secs(r.time.as_secs() + 300.0);
        reqs.push(r);
    }
    let trace = Trace::from_requests(reqs);
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = 4;
    let mut cfg = HibernatorConfig::for_goal(0.05);
    cfg.epoch = SimDuration::from_secs(200.0);
    cfg.tick = SimDuration::from_secs(5.0);
    cfg.guard_window = SimDuration::from_secs(60.0);
    cfg.guard_hysteresis = SimDuration::from_secs(120.0);
    cfg.heat_tau = SimDuration::from_secs(300.0);
    let standby = solo_run(
        "ablation/standby-valley",
        config,
        &trace,
        opts("ablation/standby-valley", VALLEY_S),
        Hibernator::new(cfg).with_standby(),
    );
    vec![random, standby]
}

/// Every scenario, in golden-file order.
pub fn all_rows() -> Vec<Row> {
    let mut rows = resync_base_churn_rows();
    rows.extend(resync_managed_rows());
    rows.extend(resync_fault_rows());
    rows.extend(queue_headline_rows());
    rows.extend(queue_fault_cache_rows());
    rows.push(fleet_row());
    rows.extend(planner_rows());
    rows.extend(migration_rows());
    rows.extend(ablation_runs().into_iter().map(|r| r.row));
    rows
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reference_fingerprints.txt")
}

const HEADER: &str = "\
# Reference fingerprints: per scenario, 64-bit FNV-1a (hex) of the run
# report fingerprint vector, the telemetry stream bytes, and the fleet
# stream bytes (`-` for solo runs). Written by tests/reference_goldens.rs;
# regenerate with REGEN_GOLDEN=1 cargo test --test reference_goldens.
";

/// The committed golden rows, comment lines dropped.
fn golden_lines() -> Vec<String> {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with REGEN_GOLDEN=1",
            path.display()
        )
    });
    golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Asserts that every row equals the golden row with the same label,
/// listing every differing or missing row on failure.
pub fn assert_rows_match_golden(rows: &[Row]) {
    let golden = golden_lines();
    let diffs: Vec<String> = rows
        .iter()
        .filter_map(|row| {
            let got = row.render();
            let prefix = format!("{} ", row.label);
            match golden.iter().find(|l| l.starts_with(&prefix)) {
                Some(want) if *want == got => None,
                Some(want) => Some(format!("  got  {got}\n  want {want}")),
                None => Some(format!("  got  {got}\n  want (no golden row)")),
            }
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} rows differ from the golden:\n{}",
        diffs.len(),
        rows.len(),
        diffs.join("\n")
    );
}

/// Compares `rows` with the whole golden file — every row, in order, and
/// no golden row left over — or rewrites the file under `REGEN_GOLDEN`.
pub fn check_whole_golden(rows: &[Row]) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let mut out = HEADER.to_string();
        for row in rows {
            let _ = writeln!(out, "{}", row.render());
        }
        let path = golden_path();
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, out).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_rows_match_golden(rows);
    let rendered: Vec<String> = rows.iter().map(Row::render).collect();
    assert_eq!(
        rendered,
        golden_lines(),
        "the golden file holds rows in another order, or rows with no scenario"
    );
}
