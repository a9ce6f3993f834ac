//! # hibernator — disk-array energy management with performance goals
//!
//! A from-scratch reimplementation of the system described in *Hibernator:
//! Helping Disk Arrays Sleep Through the Winter* (SOSP 2005): an energy
//! manager for arrays of multi-speed disks that saves power **without**
//! giving up a response-time goal. Four cooperating mechanisms:
//!
//! * [`mg1_response`] / [`ServiceEstimator`] — an M/G/1 queueing predictor
//!   per speed level, fed by live service-time measurements;
//! * [`SpeedAllocator`] — the once-per-epoch optimisation choosing how many
//!   disks spin at each speed: minimum predicted power subject to the goal
//!   (exact DP, cross-checked against exhaustive search in tests);
//! * [`match_disks`] / [`GraceTracker::plan_round`] — minimal-disruption
//!   mapping of the allocation onto concrete disks, plus hottest-first
//!   chunk moves so fast disks hold hot data (bounded migration budget per
//!   epoch). A pluggable [`MigrationPolicy`] only ranks the chunks; the
//!   host plans every round once, under one grace period, in-flight
//!   dedupe and budget;
//! * [`PerfGuard`] — the measured-response watchdog that boosts everything
//!   to full speed when the goal is endangered and winds back down only
//!   after a hysteresis period.
//!
//! [`Hibernator`] composes them behind [`array::PowerPolicy`]; the
//! [`HibernatorConfig`] defaults follow the design in `DESIGN.md`
//! (2 h epochs, 5 min guard window). The `without_guard` / `without_migration`
//! constructors exist for the ablation experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod allocator;
mod guard;
pub mod migpolicy;
mod planner;
mod policy;
mod predictor;

pub use allocator::{Allocation, AllocationInput, SpeedAllocator};
pub use guard::{GuardAction, GuardConfig, PerfGuard};
pub use migpolicy::{
    AnalyticPolicy, GraceTracker, MigrationConfig, MigrationPolicy, PlanOutcome, PolicyObservation,
    SpeedObservation, SpeedPlan,
};
pub use planner::match_disks;
pub use policy::{Hibernator, HibernatorConfig, HibernatorStats, MigrationMode};
pub use predictor::{mg1_response, ServiceEstimator, RHO_SATURATION};
