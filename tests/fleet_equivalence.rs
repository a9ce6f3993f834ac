//! Differential lockdown: a fleet of ONE array with an unlimited budget
//! is not merely "similar to" the plain single-array simulator — it IS
//! the plain single-array simulator.
//!
//! The fleet driver shards the trace by tenant placement, steps the array
//! in fleet-epoch segments via `step_until`, and lets the arbiter observe
//! power between segments. None of that may perturb the run: with one
//! array the shard is the identity, with an unlimited budget the arbiter
//! never grants a cap, and segmented stepping replays the exact event
//! sequence. Every headline policy must produce bit-identical report
//! numerics AND telemetry stream bytes. This is what lets the fleet layer
//! ride on the simulator without invalidating a single golden result.
//!
//! A 20-seed property sweep then locks the fleet-level invariants (grant
//! conservation, honest budget accounting, request conservation, move
//! accounting) over varied fleet shapes and finite budgets.

use array::{run_policy, ArrayConfig, BasePolicy, RunOptions, RunReport};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig};
use parallel::Pool;
use policies::{maid_array_config, DrpmPolicy, MaidConfig, MaidPolicy, PdcPolicy, TpmPolicy};
use simkit::{SimDuration, SimTime};
use telemetry::TelemetryConfig;
use workload::{Trace, VolumeIoKind, VolumeRequest, WorkloadSpec};

const DURATION_S: f64 = 900.0;
const TENANTS: u32 = 8;

fn trace(seed: u64) -> Trace {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 25.0);
    spec.extents = 1024;
    spec.zipf_theta = 1.0;
    spec.generate(seed)
}

fn config() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    c
}

fn opts(label: &str) -> RunOptions {
    let mut o = RunOptions::for_horizon(DURATION_S);
    o.series_bucket = SimDuration::from_secs(60.0);
    o.sample_interval = SimDuration::from_secs(60.0);
    o.telemetry = Some(TelemetryConfig::new(label).with_goal(0.02, 90.0));
    o
}

fn hibernator() -> Hibernator {
    let mut cfg = HibernatorConfig::for_goal(0.02);
    cfg.epoch = SimDuration::from_secs(180.0);
    cfg.heat_tau = SimDuration::from_secs(180.0);
    Hibernator::new(cfg)
}

/// A one-array unlimited-budget fleet spec over `config` — the degenerate
/// fleet that must reduce to the plain run. The 150 s fleet epoch is
/// deliberately co-prime-ish with the policies' own cadences so segmented
/// stepping gets no accidental alignment help.
fn spec_one(config: ArrayConfig, o: RunOptions) -> FleetSpec {
    let mut s = FleetSpec::new(1, TENANTS, config, o, BudgetSchedule::unlimited());
    s.fleet_epoch = SimDuration::from_secs(150.0);
    s
}

/// Runs headline policy `ix` both ways: solo via `run_policy` and as a
/// fleet of one via `run_fleet`, returning (solo, fleet-member) reports.
fn both(ix: usize, label: &str, trace: &Trace) -> (RunReport, RunReport) {
    let pool = Pool::new(2);
    let (cfg, o) = (config(), opts(label));
    // The solo run must see the same tenant sharding the fleet driver
    // installs, so even the per-tenant histograms are comparable.
    let spec = spec_one(
        if ix == 4 {
            maid_array_config(cfg.clone(), 2)
        } else {
            cfg.clone()
        },
        o.clone(),
    );
    let mut solo_opts = o;
    solo_opts.tenants = Some(spec.tenant_shards());

    let fleet_report = match ix {
        0 => run_fleet(&spec, trace, &pool, |_| BasePolicy).arrays,
        1 => run_fleet(&spec, trace, &pool, |_| TpmPolicy::competitive()).arrays,
        2 => run_fleet(&spec, trace, &pool, |_| DrpmPolicy::default()).arrays,
        3 => run_fleet(&spec, trace, &pool, |_| PdcPolicy::default()).arrays,
        4 => {
            run_fleet(&spec, trace, &pool, |_| {
                MaidPolicy::new(MaidConfig {
                    cache_disks: 2,
                    cache_chunks_per_disk: 256,
                    tpm_threshold_s: Some(120.0),
                })
            })
            .arrays
        }
        5 => run_fleet(&spec, trace, &pool, |_| hibernator()).arrays,
        _ => unreachable!(),
    }
    .pop()
    .expect("fleet of one has one report");

    let solo = match ix {
        0 => run_policy(cfg, BasePolicy, trace, solo_opts),
        1 => run_policy(cfg, TpmPolicy::competitive(), trace, solo_opts),
        2 => run_policy(cfg, DrpmPolicy::default(), trace, solo_opts),
        3 => run_policy(cfg, PdcPolicy::default(), trace, solo_opts),
        4 => run_policy(
            maid_array_config(cfg, 2),
            MaidPolicy::new(MaidConfig {
                cache_disks: 2,
                cache_chunks_per_disk: 256,
                tpm_threshold_s: Some(120.0),
            }),
            trace,
            solo_opts,
        ),
        5 => run_policy(cfg, hibernator(), trace, solo_opts),
        _ => unreachable!(),
    };
    (solo, fleet_report)
}

/// Each served tenant's id, count, median, p99 and observed extremes.
type TenantRow = (u32, u64, Option<f64>, Option<f64>, Option<f64>, Option<f64>);

fn tenant_rows(r: &RunReport) -> Vec<TenantRow> {
    r.tenant_latency
        .iter()
        .map(|(t, h)| {
            (
                *t,
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.observed_min(),
                h.observed_max(),
            )
        })
        .collect()
}

const POLICY_NAMES: [&str; 6] = ["Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator"];

#[test]
fn fleet_of_one_is_bit_identical_to_the_solo_run() {
    let trace = trace(7);
    for (ix, name) in POLICY_NAMES.iter().enumerate() {
        let (mut solo, mut one) = both(ix, name, &trace);

        // Report numerics, exact — these are f64s from the identical
        // event sequence, so equality is the correct comparison.
        assert_eq!(solo.completed, one.completed, "{name}: completed");
        assert_eq!(solo.incomplete, one.incomplete, "{name}: incomplete");
        assert_eq!(solo.fg_sectors, one.fg_sectors, "{name}: fg_sectors");
        assert_eq!(solo.transitions, one.transitions, "{name}: transitions");
        assert_eq!(
            solo.events_processed, one.events_processed,
            "{name}: events_processed"
        );
        assert_eq!(
            solo.energy.total_joules(),
            one.energy.total_joules(),
            "{name}: energy"
        );
        assert_eq!(
            solo.response.mean(),
            one.response.mean(),
            "{name}: mean response"
        );
        assert_eq!(
            solo.response.count(),
            one.response.count(),
            "{name}: response count"
        );
        assert_eq!(
            solo.migration.raw_writes, one.migration.raw_writes,
            "{name}: raw writes"
        );

        // Per-tenant latency: same tenants, same counts, same medians,
        // tails and extremes.
        assert!(!solo.tenant_latency.is_empty(), "{name}: no tenant served");
        assert_eq!(
            tenant_rows(&solo),
            tenant_rows(&one),
            "{name}: per-tenant latency"
        );

        // The telemetry streams must match byte for byte: same events, in
        // the same order, with the same formatted floats.
        let a = solo.telemetry.take().expect("stream captured").bytes;
        let b = one.telemetry.take().expect("stream captured").bytes;
        assert!(
            a == b,
            "{name}: telemetry streams diverge ({} vs {} bytes)",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn unlimited_fleet_of_one_reports_no_fleet_activity() {
    let trace = trace(7);
    let report = run_fleet(
        &spec_one(config(), opts("Base")),
        &trace,
        &Pool::new(1),
        |_| BasePolicy,
    );
    assert!(
        report.budget_j.is_none(),
        "unlimited budget never integrates"
    );
    assert_eq!(report.cap_violation_s, 0.0);
    assert_eq!(report.tenant_moves, 0, "one array: nowhere to move");
    assert!((0..report.epochs.len()).all(|k| report.epoch_caps(k).is_empty()));
    let audit = report.audit().expect("fleet stream parses");
    assert!(audit.passed(), "degenerate fleet passes the fleet audit");
}

#[test]
fn worker_partition_does_not_change_results() {
    // The persistent-worker driver partitions arrays into contiguous
    // per-worker blocks; 5 arrays across 1, 3, and 8 workers exercises
    // the serial case, an uneven split (2+2+1), and more workers than
    // arrays. Every observable — stream bytes, rollup numerics, and the
    // full arbiter decision log including per-epoch caps and completion
    // counts — must be bit-identical across all three.
    let tr = trace(11);
    let mut spec = FleetSpec::new(
        5,
        TENANTS,
        config(),
        RunOptions::for_horizon(DURATION_S),
        BudgetSchedule::constant(300.0),
    );
    spec.fleet_epoch = SimDuration::from_secs(150.0);

    let reports: Vec<_> = [1usize, 3, 8]
        .iter()
        .map(|&jobs| run_fleet(&spec, &tr, &Pool::new(jobs), |_| hibernator()))
        .collect();
    let a = &reports[0];
    for (r, jobs) in reports.iter().zip([1, 3, 8]) {
        // Epoch completion counts ride the workers' segment replies and
        // must tile the fleet total exactly — no segment double-counted
        // or dropped.
        let per_epoch: u64 = r.epochs.iter().map(|e| e.completed).sum();
        assert_eq!(
            per_epoch, r.completed,
            "jobs {jobs}: epoch completions don't tile the total"
        );

        assert_eq!(a.completed, r.completed, "jobs {jobs}: completed");
        assert_eq!(a.fleet_energy_j, r.fleet_energy_j, "jobs {jobs}: energy");
        assert_eq!(
            a.cap_violation_s, r.cap_violation_s,
            "jobs {jobs}: violation time"
        );
        assert_eq!(a.epochs.len(), r.epochs.len(), "jobs {jobs}: epoch count");
        for (k, (ea, er)) in a.epochs.iter().zip(&r.epochs).enumerate() {
            assert_eq!(ea.demand_w, er.demand_w, "jobs {jobs}: epoch {k} demand");
            assert_eq!(
                ea.completed, er.completed,
                "jobs {jobs}: epoch {k} completed"
            );
            assert_eq!(ea.moves, er.moves, "jobs {jobs}: epoch {k} moves");
            assert_eq!(ea.violated, er.violated, "jobs {jobs}: epoch {k} violated");
            assert_eq!(
                a.epoch_caps(k),
                r.epoch_caps(k),
                "jobs {jobs}: epoch {k} caps"
            );
        }
        assert!(
            a.fleet_stream.bytes == r.fleet_stream.bytes,
            "jobs {jobs}: fleet stream bytes diverge"
        );
    }
}

#[test]
fn tail_request_is_booked_under_the_last_tenant() {
    // Three tenants do not split the volume evenly, so its last sector
    // lies past `tenants × tenant_sectors`, in the tail that routing folds
    // into the last tenant. The array serving it must book it the same way
    // rather than grow a fourth, phantom tenant slot, and so must the
    // fleet's per-tenant rollup.
    let cfg = config();
    let read = |t: f64, sector: u64| VolumeRequest {
        time: SimTime::from_secs(t),
        sector,
        sectors: 1,
        kind: VolumeIoKind::Read,
    };
    let spec = FleetSpec::new(
        2,
        3,
        cfg.clone(),
        RunOptions::for_horizon(60.0),
        BudgetSchedule::unlimited(),
    );
    assert!(
        spec.tenant_sectors * 3 < cfg.volume_sectors(),
        "the volume must have a tail"
    );
    let tr = Trace::from_requests(vec![read(1.0, 0), read(2.0, cfg.volume_sectors() - 1)]);
    let report = run_fleet(&spec, &tr, &Pool::new(1), |_| BasePolicy);
    assert_eq!(report.completed, 2);
    let counts: Vec<u64> = report.tenant_latency.iter().map(|h| h.count()).collect();
    assert_eq!(counts, vec![1, 0, 1], "tail read lands on tenant 2");
    for (i, r) in report.arrays.iter().enumerate() {
        let served: Vec<u32> = r.tenant_latency.iter().map(|&(t, _)| t).collect();
        assert!(
            served.iter().all(|&t| t < 3),
            "array {i} books tenants {served:?} of 3"
        );
    }
    let served: usize = report.arrays.iter().map(|r| r.tenant_latency.len()).sum();
    assert_eq!(served, 2, "only the two tenants read are booked");
}

#[test]
fn fleet_audit_holds_across_twenty_seeds() {
    // Property sweep: varied fleet shapes, finite budgets from starving
    // to generous, rebalancing on, several fleet epochs per run. Every
    // fleet stream must pass every fleet invariant — including the runs
    // that overspend (honesty via cap_violation_s, not magic).
    for seed in 0..20u64 {
        let mut wspec = WorkloadSpec::oltp(600.0, 20.0);
        wspec.extents = 1024;
        let tr = wspec.generate(seed);
        let arrays = 2 + (seed % 3) as usize;
        let budget_w = 40.0 + 60.0 * (seed % 5) as f64;

        let mut spec = FleetSpec::new(
            arrays,
            TENANTS,
            config(),
            RunOptions::for_horizon(600.0),
            BudgetSchedule::constant(budget_w),
        );
        spec.fleet_epoch = SimDuration::from_secs(120.0);

        let report = if seed % 2 == 0 {
            run_fleet(&spec, &tr, &Pool::new(2), |_| BasePolicy)
        } else {
            run_fleet(&spec, &tr, &Pool::new(2), |_| hibernator())
        };
        let audit = report
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: fleet stream malformed: {e}"));
        for c in &audit.checks {
            assert!(
                c.passed,
                "seed {seed} ({arrays} arrays, {budget_w} W): {} failed: {}",
                c.name, c.detail
            );
        }
        assert_eq!(
            report.routed_requests, report.total_requests,
            "seed {seed}: placement lost requests"
        );
        let per_epoch: u64 = report.epochs.iter().map(|e| e.completed).sum();
        assert_eq!(
            per_epoch, report.completed,
            "seed {seed}: epoch completions don't tile the fleet total"
        );
    }
}
