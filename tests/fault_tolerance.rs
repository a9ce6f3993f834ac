//! End-to-end fault-injection properties: deterministic faulted runs,
//! conservation of the logical address space through failure + rebuild,
//! and the Hibernator guard's forced boost on disk failure.

mod common;

use array::{
    run_policy, ArrayConfig, ArrayState, BasePolicy, PowerPolicy, Redundancy, RunOptions,
    RunReport, Simulation,
};
use common::fingerprint;
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use hibernator::{Hibernator, HibernatorConfig};
use simkit::{SimDuration, SimTime};
use workload::WorkloadSpec;

const DURATION_S: f64 = 1200.0;

fn scenario() -> (ArrayConfig, workload::Trace) {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 40.0);
    spec.extents = 2048;
    let trace = spec.generate(91);
    let mut config = ArrayConfig::default_for_volume(2 << 30);
    config.disks = 8;
    config.redundancy = Redundancy::Raid5Like;
    (config, trace)
}

fn storm() -> FaultPlan {
    FaultPlan {
        schedule: FaultSchedule::new(vec![
            FaultEvent {
                time: SimTime::from_secs(300.0),
                disk: 2,
                kind: FaultKind::TransientBurst {
                    error_prob: 0.15,
                    duration_s: 100.0,
                },
            },
            FaultEvent {
                time: SimTime::from_secs(350.0),
                disk: 2,
                kind: FaultKind::SlowTransition {
                    factor: 2.5,
                    duration_s: 200.0,
                },
            },
            FaultEvent {
                time: SimTime::from_secs(400.0),
                disk: 2,
                kind: FaultKind::DiskFailure,
            },
        ]),
        config: FaultConfig {
            transient_error_prob: 0.002,
            base_failure_rate_per_hour: 0.01,
            ..FaultConfig::default()
        },
    }
}

fn run_once() -> RunReport {
    let (config, trace) = scenario();
    run_policy(
        config,
        BasePolicy,
        &trace,
        RunOptions::with_faults(DURATION_S, storm()),
    )
}

/// Fixed seed + fixed fault plan ⇒ bit-identical run report.
#[test]
fn faulted_run_is_bit_identical() {
    let a = run_once();
    let b = run_once();
    // Counts, energy, response moments, fault outcomes and per-disk
    // ledgers, all bit for bit.
    assert_eq!(fingerprint(&a), fingerprint(&b), "faulted run must replay");
    // And the storm actually happened.
    assert!(a.faults.disk_failures >= 1);
    assert!(a.faults.transient_errors > 0);
}

/// A probing policy: checks the remap bijection on every tick and records
/// how many chunks remain mapped to failed disks.
#[derive(Default)]
struct RemapProbe {
    failed: std::collections::HashSet<usize>,
    /// Chunks still on failed disks at the most recent tick.
    stranded_at_last_tick: u32,
    ticks: u64,
}

impl PowerPolicy for RemapProbe {
    fn name(&self) -> &str {
        "RemapProbe"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(10.0))
    }

    fn on_tick(&mut self, _now: SimTime, state: &mut ArrayState) {
        state
            .remap
            .check_invariants()
            .expect("remap bijection violated mid-run");
        self.stranded_at_last_tick = self
            .failed
            .iter()
            .map(|&d| state.remap.occupancy(array::DiskId(d)))
            .sum();
        self.ticks += 1;
    }

    fn on_disk_failure(&mut self, _now: SimTime, disk: usize, _state: &mut ArrayState) {
        self.failed.insert(disk);
    }
}

/// After a failure, rebuild moves every chunk off the dead disk and the
/// remap stays a bijection throughout — no logical block is lost or mapped
/// twice. Request conservation holds with the lost counter included.
#[test]
fn rebuild_conserves_address_space_and_requests() {
    let (config, trace) = scenario();
    let total = trace.len() as u64;
    let sim = Simulation::new(
        config,
        RemapProbe::default(),
        &trace,
        RunOptions::with_faults(DURATION_S, storm()),
    );
    let (report, probe) = sim.run_returning_policy();
    assert!(probe.ticks > 0, "probe never ticked");
    assert!(report.faults.disk_failures >= 1);
    assert!(report.faults.rebuild_chunks > 0, "rebuild must be queued");
    assert!(
        report.faults.rebuild_completed_s.is_some(),
        "rebuild must finish within the horizon: {:?}",
        report.faults
    );
    assert_eq!(
        probe.stranded_at_last_tick, 0,
        "chunks left mapped to a dead disk"
    );
    assert_eq!(
        report.completed + report.incomplete + report.faults.lost_requests,
        total,
        "requests must be conserved: {:?}",
        report.faults
    );
}

/// A disk failure forces the Hibernator guard to boost immediately.
#[test]
fn hibernator_boosts_on_disk_failure() {
    let (config, trace) = scenario();
    let total = trace.len() as u64;
    let mut cfg = HibernatorConfig::for_goal(0.060);
    cfg.epoch = SimDuration::from_secs(200.0);
    cfg.heat_tau = SimDuration::from_secs(200.0);
    let sim = Simulation::new(
        config,
        Hibernator::new(cfg),
        &trace,
        RunOptions::with_faults(DURATION_S, storm()),
    );
    let (report, policy) = sim.run_returning_policy();
    assert!(report.faults.disk_failures >= 1);
    assert!(
        policy.stats().boosts >= 1,
        "failure must force a boost: {:?}",
        policy.stats()
    );
    assert_eq!(
        report.completed + report.incomplete + report.faults.lost_requests,
        total
    );
    // The ledger marks exactly the failed disks.
    let failed = report.reliability.iter().filter(|l| l.failed).count() as u64;
    assert_eq!(failed, report.faults.disk_failures);
}
