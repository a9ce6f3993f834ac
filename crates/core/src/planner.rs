//! Turning an allocation into concrete disk targets.
//!
//! The allocator decides *how many* disks spin at each level; the planner
//! decides *which* disks, minimising disruption: disks already at (or
//! heading to) a level are kept there when the new allocation still wants
//! disks at that level, so an unchanged allocation causes zero spindle
//! transitions. Which chunks then move where — the chunk delta — is
//! [`plan_migrations_filtered`](crate::plan_migrations_filtered).

use array::ArrayState;
use diskmodel::SpeedLevel;

/// Assigns concrete disks to the allocation's per-level counts, preferring
/// to keep each disk at its current effective level. Failed disks are
/// excluded from the matching: the counts must cover exactly the *alive*
/// disks, and a dead disk's output slot carries its (inert) effective
/// level — ramping it is a no-op and the migration planner skips it.
///
/// Returns the per-disk target level, indexed by disk id.
///
/// # Panics
/// Panics if the counts do not sum to the number of alive disks.
pub fn match_disks(state: &ArrayState, per_level: &[usize]) -> Vec<SpeedLevel> {
    let n = state.disks.len();
    assert_eq!(
        per_level.iter().sum::<usize>(),
        state.alive_disks(),
        "counts must cover disks"
    );
    let mut remaining: Vec<usize> = per_level.to_vec();
    let mut out: Vec<Option<SpeedLevel>> = vec![None; n];

    // Pass 0: dead disks keep their inert level and consume no count.
    for (i, d) in state.disks.iter().enumerate() {
        if d.has_failed() {
            out[i] = Some(d.effective_level());
        }
    }
    // Pass 1: keep alive disks already at a level that still wants disks.
    for (i, d) in state.disks.iter().enumerate() {
        if out[i].is_some() {
            continue;
        }
        let l = d.effective_level();
        if remaining[l.index()] > 0 {
            remaining[l.index()] -= 1;
            out[i] = Some(l);
        }
    }
    // Pass 2: hand out the rest, fastest levels to lowest-id free disks
    // (deterministic).
    let mut free: Vec<usize> = (0..n).filter(|&i| out[i].is_none()).collect();
    for level in (0..per_level.len()).rev() {
        for _ in 0..remaining[level] {
            let disk = free.remove(0);
            out[disk] = Some(SpeedLevel(level));
        }
        remaining[level] = 0;
    }
    out.into_iter()
        .map(|o| o.expect("every disk assigned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayStats, MigrationEngine, RemapTable};
    use diskmodel::{Disk, SpinTarget};
    use simkit::{SimDuration, SimTime};

    fn mk_state(disks: usize, chunks: u32) -> ArrayState {
        let mut config = ArrayConfig::default_for_volume(1 << 30);
        config.disks = disks;
        config.volume_chunks = chunks;
        let remap = RemapTable::striped(&config);
        let ds = (0..disks)
            .map(|i| Disk::new(i, &config.spec, 1, config.spec.top_level()))
            .collect();
        let stats = ArrayStats::new(config.spec.num_levels(), SimDuration::from_secs(60.0));
        ArrayState {
            config,
            disks: ds,
            remap,
            migrator: MigrationEngine::new(2),
            stats,
            telemetry: telemetry::Recorder::disabled(),
            wake_marks: array::WakeMarks::new(disks),
        }
    }

    #[test]
    fn unchanged_allocation_keeps_everyone_in_place() {
        let state = mk_state(4, 16);
        // All disks are at level 5; allocation wants 4 at level 5.
        let mut counts = vec![0; 6];
        counts[5] = 4;
        let targets = match_disks(&state, &counts);
        assert!(targets.iter().all(|&l| l == SpeedLevel(5)));
    }

    #[test]
    fn matching_minimises_changes() {
        let mut state = mk_state(4, 16);
        // Move disk 0 and 1 to level 0 first.
        state.disks[0].request_speed(SimTime::ZERO, SpinTarget::Level(SpeedLevel(0)));
        state.disks[1].request_speed(SimTime::ZERO, SpinTarget::Level(SpeedLevel(0)));
        // New allocation wants 1 slow + 3 fast: one of {0,1} stays slow.
        let mut counts = vec![0; 6];
        counts[0] = 1;
        counts[5] = 3;
        let targets = match_disks(&state, &counts);
        let slow: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == SpeedLevel(0))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(slow.len(), 1);
        assert!(slow[0] == 0 || slow[0] == 1, "a slow disk should stay slow");
    }

    #[test]
    #[should_panic(expected = "counts must cover")]
    fn match_rejects_bad_counts() {
        let state = mk_state(4, 16);
        let counts = vec![0, 0, 0, 0, 0, 3];
        let _ = match_disks(&state, &counts);
    }
}
