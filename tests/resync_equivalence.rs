//! Property: the incremental (dirty-disk) wake resync is observationally
//! identical to the full-scan resync it replaced. The full-scan runs are
//! frozen as the `resync/*` rows of
//! `tests/golden/reference_fingerprints.txt`; the production resync must
//! reproduce each row: bit-identical [`array::RunReport`] numerics AND
//! byte-identical telemetry streams.
//!
//! The full scan pushed a wake event only for disks whose next event time
//! moved; the incremental path visits exactly the disks handlers marked
//! (a superset of the changed ones) in the same ascending order — so the
//! push sequences, sequence numbers, and everything downstream agree.
//! Debug builds also cross-check every resync against a full scan.

mod common;
mod reference;

#[test]
fn base_and_churn_policies_match_reference() {
    reference::assert_rows_match_golden(&reference::resync_base_churn_rows());
}

#[test]
fn managed_policies_match_reference() {
    reference::assert_rows_match_golden(&reference::resync_managed_rows());
}

#[test]
fn faulted_raid5_runs_match_reference() {
    reference::assert_rows_match_golden(&reference::resync_fault_rows());
}
