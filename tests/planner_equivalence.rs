//! Equivalence lockdown for the migration-policy trait extraction.
//!
//! The pre-trait planner called `plan_migrations` and the allocator
//! directly; its runs of every Hibernator variant of the headline
//! comparison — default, no-guard, no-migration, random-migration,
//! standby-enabled — are frozen as the `planner/*` rows of
//! `tests/golden/reference_fingerprints.txt`. The trait-hosted planner
//! must reproduce each row: same energy, response distribution,
//! completion counts and every other fingerprinted figure, and
//! byte-for-byte the telemetry stream the golden holds. (The telemetry
//! hashes were regenerated once when the planner began skipping in-flight
//! chunks and emitting `PolicyDecision` events; the report fingerprints
//! are still the pre-trait planner's.)

mod common;
mod reference;

#[test]
fn trait_hosted_planner_is_bit_identical_to_the_reference() {
    reference::assert_rows_match_golden(&reference::planner_rows());
}
