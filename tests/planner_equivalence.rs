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
//!
//! Those variants never split the array into tiers, so they never move a
//! chunk. The `migration/*` rows do: a Hibernator with one copy in flight
//! and short epochs commits and dirty-aborts jobs, and on RAID-5 loses a
//! disk while a job is copying. The `ablation/*` rows make the other two
//! variants act: random placement commits moves, and the standby extension
//! sleeps through a dead valley. Both `migration/*` rows also enter and
//! leave a latency boost, and the failure forces a boost of its own.

mod common;
mod reference;

#[test]
fn trait_hosted_planner_is_bit_identical_to_the_reference() {
    reference::assert_rows_match_golden(&reference::planner_rows());
}

/// The `migration/*` rows drive the migration engine for real: the
/// Hibernator commits jobs, a foreground write dirty-aborts one, and the
/// disk failure tears down a job mid-copy.
#[test]
fn migration_rows_commit_abort_and_drop_jobs() {
    let runs = reference::migration_runs();
    for run in &runs {
        let label = run.row.label();
        let m = run.report.migration;
        assert!(m.committed > 0, "{label}: no job committed");
        assert!(m.aborted > 0, "{label}: no job aborted");
    }
    let failure = &runs[1];
    assert!(failure.report.faults.retries > 0, "no transient retry");
    assert!(failure.report.faults.disk_failures > 0, "no disk failure");
    assert!(
        String::from_utf8_lossy(&failure.stream).contains("\"ev\":\"mig_drop\""),
        "the disk failure tore down no in-flight job"
    );
    reference::assert_rows_match_golden(&runs.into_iter().map(|r| r.row).collect::<Vec<_>>());
}

/// The `boost` events of `stream` with this `entered` flag and reason.
fn boosts(stream: &[u8], entered: bool, reason: &str) -> usize {
    let needle = format!("\"entered\":{entered},\"reason\":\"{reason}\"}}");
    String::from_utf8_lossy(stream)
        .lines()
        .filter(|l| l.starts_with("{\"ev\":\"boost\"") && l.ends_with(&needle))
        .count()
}

/// The `migration/*` rows pin every arm that sets the array's speeds
/// besides an epoch plan: both enter and leave a latency boost, and the
/// disk failure forces a boost of its own.
#[test]
fn migration_rows_enter_and_leave_both_kinds_of_boost() {
    let runs = reference::migration_runs();
    for run in &runs {
        let label = run.row.label();
        assert!(
            boosts(&run.stream, true, "latency") > 0,
            "{label}: no latency boost entered"
        );
        assert!(
            boosts(&run.stream, false, "latency") > 0,
            "{label}: no latency boost left"
        );
    }
    assert!(
        boosts(&runs[1].stream, true, "disk_failure") > 0,
        "the disk failure forced no boost"
    );
    reference::assert_rows_match_golden(&runs.into_iter().map(|r| r.row).collect::<Vec<_>>());
}

/// The `ablation/*` rows pin the two Hibernator ablations where they act:
/// random placement commits moves, and the standby extension stops
/// spindles and says so in its `policy` events' `sleepers`.
#[test]
fn ablation_rows_move_data_and_stop_spindles() {
    let runs = reference::ablation_runs();
    let random = &runs[0].report;
    assert!(
        random.migration.committed > 0,
        "random placement moved nothing"
    );
    let standby = &runs[1].report;
    assert!(
        standby.energy.joules(simkit::EnergyComponent::Standby) > 0.0,
        "the standby extension stopped no spindle"
    );
    let most_parked = String::from_utf8_lossy(&runs[1].stream)
        .lines()
        .filter(|l| l.starts_with("{\"ev\":\"policy\""))
        .filter_map(|l| {
            l.split("\"sleepers\":")
                .nth(1)?
                .trim_end_matches('}')
                .parse::<u32>()
                .ok()
        })
        .max();
    assert!(
        most_parked > Some(0),
        "no policy event counts the disks the standby extension parked"
    );
    reference::assert_rows_match_golden(&runs.into_iter().map(|r| r.row).collect::<Vec<_>>());
}
