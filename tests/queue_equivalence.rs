//! Property: the ladder event queue with batched arrival admission and
//! slab-backed in-flight state is observationally identical to the
//! `BinaryHeap` queue with per-event admission it replaced. The heap-queue
//! runs are frozen as the `queue/*` and `fleet/budget-capped` rows of
//! `tests/golden/reference_fingerprints.txt`; the production queue must
//! reproduce each row: bit-identical [`array::RunReport`] numerics,
//! byte-identical telemetry streams, and byte-identical fleet streams.
//!
//! Why this holds: the packed `(time, seq)` keys are unique, so both
//! queues pop identical streams for identical push sequences; batched
//! admission reserves the next arrival's key at the exact code point the
//! unbatched path pushed it and only handles the arrival inline when that
//! key would be the very next pop anyway; and slab slot indices never
//! influence ordering (disk queues are FIFO and telemetry carries no
//! request ids).

mod common;
mod reference;

#[test]
fn headline_policies_match_reference_queue() {
    reference::assert_rows_match_golden(&reference::queue_headline_rows());
}

#[test]
fn faulted_cached_tenant_run_matches_reference_queue() {
    reference::assert_rows_match_golden(&reference::queue_fault_cache_rows());
}

#[test]
fn fleet_run_matches_reference_queue() {
    // Fleet-segmented stepping: arrays pause at every arbiter epoch, so
    // batched admission must respect the segment limit exactly.
    reference::assert_rows_match_golden(&[reference::fleet_row()]);
}
