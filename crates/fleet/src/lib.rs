//! # fleet — N arrays under one datacenter power cap
//!
//! The Hibernator policy manages one array; this crate manages a *fleet*
//! of them serving a shared multi-tenant workload under a global power
//! budget — the datacenter-scale setting where per-array greedy energy
//! decisions stop being enough (ROADMAP item 1; cf. SleepScale's
//! joint power-state management argument).
//!
//! Three pieces compose the subsystem:
//!
//! * [`BudgetSchedule`] — the datacenter budget as a step function of
//!   time; `None` spans mean unlimited.
//! * The **placement map** ([`plan_placement`]) — routes each tenant's
//!   slice of the shared trace to an array, with deterministic hot-tenant
//!   rebalancing at fleet-epoch boundaries. Placement is planned ahead of
//!   simulation from trace heat alone, so routing never depends on
//!   execution order.
//! * The **arbiter** inside [`run_fleet`] — between stepping segments it
//!   reads each array's trailing power observation, grants proportional
//!   per-array caps never exceeding the budget ([`proportional_caps`]),
//!   and feeds them to each policy's planner via
//!   `PowerPolicy::set_power_cap`.
//!
//! Arrays advance in lockstep fleet epochs via `Simulation::step_until`
//! on a **persistent worker team** ([`parallel::lockstep`]): each worker
//! owns its block of arrays for the whole run, commands and responses
//! ride depth-1 mailboxes, and the steady path of an epoch allocates
//! nothing. Each reply carries its block's per-array draws and completion
//! total; the arbiter reads them back in array order and sums completions
//! as integers, so results are bit-identical at any worker count. A fleet
//! of one array with an unlimited budget is bit-identical to the plain
//! single-array run — telemetry bytes included — locked by
//! `tests/fleet_equivalence.rs`.
//!
//! The rollup is a [`FleetReport`]: fleet energy vs integrated budget,
//! cap-violation time, per-tenant latency percentiles, request
//! conservation across placement, and a dedicated fleet event stream
//! (`fleet_epoch` / `cap_grant` / `tenant_move` / `fleet_end`) replayable
//! through [`telemetry::audit::audit_fleet_bytes`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod driver;
mod placement;

pub use budget::{proportional_caps, BudgetSchedule};
pub use driver::{run_fleet, EpochRecord, FleetReport, FleetSpec};
pub use placement::{plan_placement, PlacementPlan, TenantMove};

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, BasePolicy, RunOptions};
    use parallel::Pool;
    use workload::WorkloadSpec;

    fn trace(seed: u64) -> workload::Trace {
        let mut spec = WorkloadSpec::oltp(600.0, 20.0);
        spec.extents = 1024;
        spec.generate(seed)
    }

    fn config() -> ArrayConfig {
        let mut c = ArrayConfig::default_for_volume(2 << 30);
        c.disks = 6;
        c
    }

    fn spec(arrays: usize, budget: BudgetSchedule) -> FleetSpec {
        let mut s = FleetSpec::new(arrays, 8, config(), RunOptions::for_horizon(600.0), budget);
        s.fleet_epoch = simkit::SimDuration::from_secs(120.0);
        s
    }

    #[test]
    fn requests_are_conserved_across_placement() {
        let tr = trace(3);
        let report = run_fleet(
            &spec(3, BudgetSchedule::unlimited()),
            &tr,
            &Pool::new(2),
            |_| BasePolicy,
        );
        assert_eq!(report.total_requests, tr.len() as u64);
        assert_eq!(report.routed_requests, report.total_requests);
        assert!(report.completed + report.incomplete <= report.routed_requests);
        assert!(report.completed > 0);
    }

    #[test]
    fn fleet_report_passes_its_own_audit() {
        let tr = trace(4);
        let report = run_fleet(
            &spec(4, BudgetSchedule::constant(400.0)),
            &tr,
            &Pool::new(2),
            |_| BasePolicy,
        );
        let audit = report.audit().expect("fleet stream parses");
        for c in &audit.checks {
            assert!(c.passed, "{} failed: {}", c.name, c.detail);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let tr = trace(5);
        let s = spec(4, BudgetSchedule::constant(500.0));
        let a = run_fleet(&s, &tr, &Pool::new(1), |_| BasePolicy);
        let b = run_fleet(&s, &tr, &Pool::new(4), |_| BasePolicy);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.fleet_energy_j, b.fleet_energy_j);
        assert_eq!(a.cap_violation_s, b.cap_violation_s);
        assert_eq!(a.fleet_stream.bytes, b.fleet_stream.bytes);
    }

    #[test]
    fn unlimited_budget_grants_nothing() {
        let tr = trace(6);
        let report = run_fleet(
            &spec(2, BudgetSchedule::unlimited()),
            &tr,
            &Pool::new(2),
            |_| BasePolicy,
        );
        assert!(report.budget_j.is_none());
        assert_eq!(report.cap_violation_s, 0.0);
        assert!((0..report.epochs.len()).all(|k| report.epoch_caps(k).is_empty()));
    }

    #[test]
    fn tight_budget_is_detected_not_silent() {
        // Base policy ignores caps entirely: with an absurdly tight
        // budget the fleet must overspend AND report violation time.
        let tr = trace(7);
        let report = run_fleet(
            &spec(3, BudgetSchedule::constant(20.0)),
            &tr,
            &Pool::new(2),
            |_| BasePolicy,
        );
        let bj = report.budget_j.expect("finite budget integrates");
        assert!(report.fleet_energy_j > bj, "Base cannot fit 20 W");
        assert!(report.cap_violation_s > 0.0, "overspend must be reported");
        let audit = report.audit().expect("parses");
        assert!(audit.passed(), "honest overspend passes the audit");
    }

    #[test]
    fn tenant_latency_covers_active_tenants() {
        let tr = trace(8);
        let report = run_fleet(
            &spec(2, BudgetSchedule::unlimited()),
            &tr,
            &Pool::new(2),
            |_| BasePolicy,
        );
        let served: u64 = report.tenant_latency.iter().map(|h| h.count()).sum();
        assert_eq!(served, report.completed, "every completion has a tenant");
        assert!(report.tenant_quantile(0, 0.5).is_some());
    }
}
