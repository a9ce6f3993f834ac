//! Property tests on the disk state machine: arbitrary interleavings of
//! submits, speed requests, and event processing must never wedge the disk,
//! lose a request, or violate energy monotonicity.

use diskmodel::{Disk, DiskRequest, DiskSpec, IoKind, RequestClass, SpeedLevel, SpinTarget};
use simkit::{DetRng, SimTime};

#[derive(Debug, Clone)]
enum Op {
    /// Submit a request at a sector fraction, with given size.
    Submit {
        frac: f64,
        sectors: u32,
        write: bool,
    },
    /// Request a speed level.
    Speed(usize),
    /// Request standby.
    Standby,
    /// Let simulated time pass (process due events).
    Advance { secs: f64 },
}

/// One deterministic pseudo-random op (equal-weight choice of the four).
fn random_op(rng: &mut DetRng) -> Op {
    match rng.below(4) {
        0 => Op::Submit {
            frac: rng.uniform(0.0, 0.99),
            sectors: 1 + rng.below(255) as u32,
            write: rng.chance(0.5),
        },
        1 => Op::Speed(rng.below(6) as usize),
        2 => Op::Standby,
        _ => Op::Advance {
            secs: rng.uniform(0.01, 30.0),
        },
    }
}

/// A deterministic op sequence of length in `[1, max_len]` for `case`.
fn random_ops(case: u64, max_len: u64) -> Vec<Op> {
    let mut rng = DetRng::new(0xD15C ^ case, "disk-ops");
    let n = 1 + rng.below(max_len) as usize;
    (0..n).map(|_| random_op(&mut rng)).collect()
}

/// Runs a scripted scenario; returns (submitted, completed, final_energy).
fn run_ops(ops: &[Op]) -> (u64, u64, f64) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    let mut disk = Disk::new(0, &spec, 99, spec.top_level());
    let cap = disk.service_model().geometry().total_sectors();
    let mut now = SimTime::ZERO;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut next_id = 0u64;
    let mut last_energy = 0.0f64;

    let drain_due = |disk: &mut Disk, upto: SimTime| {
        let mut done = 0u64;
        while let Some(t) = disk.next_event_time() {
            if t > upto {
                break;
            }
            done += u64::from(disk.poll_event(t).is_some());
        }
        done
    };

    for op in ops {
        match *op {
            Op::Submit {
                frac,
                sectors,
                write,
            } => {
                let sector = ((frac * cap as f64) as u64).min(cap - u64::from(sectors) - 1);
                disk.submit(
                    now,
                    DiskRequest {
                        id: next_id,
                        sector,
                        sectors,
                        kind: if write { IoKind::Write } else { IoKind::Read },
                        class: RequestClass::Foreground,
                        issue_time: now,
                    },
                );
                next_id += 1;
                submitted += 1;
            }
            Op::Speed(l) => disk.request_speed(now, SpinTarget::Level(SpeedLevel(l))),
            Op::Standby => disk.request_speed(now, SpinTarget::Standby),
            Op::Advance { secs } => {
                let target = now + simkit::SimDuration::from_secs(secs);
                completed += drain_due(&mut disk, target);
                now = target;
            }
        }
        // Energy must be monotone non-decreasing at every step.
        let e = disk.energy(now).total_joules();
        assert!(e >= last_energy - 1e-9, "energy went backwards");
        last_energy = e;
    }
    // Final drain: everything outstanding must complete in bounded time.
    let deadline = now + simkit::SimDuration::from_hours(2.0);
    while let Some(t) = disk.next_event_time() {
        assert!(t <= deadline, "disk wedged: event at {t} beyond deadline");
        completed += u64::from(disk.poll_event(t).is_some());
    }
    (submitted, completed, disk.energy(deadline).total_joules())
}

#[test]
fn no_request_is_ever_lost() {
    for case in 0..64 {
        let ops = random_ops(case, 59);
        let (submitted, completed, _) = run_ops(&ops);
        assert_eq!(
            submitted, completed,
            "case {case}: requests lost or duplicated"
        );
    }
}

#[test]
fn deterministic_under_replay() {
    for case in 0..64 {
        let ops = random_ops(1000 + case, 39);
        let a = run_ops(&ops);
        let b = run_ops(&ops);
        assert_eq!(a.0, b.0, "case {case}");
        assert_eq!(a.1, b.1, "case {case}");
        assert!(
            (a.2 - b.2).abs() < 1e-9,
            "case {case}: energy not reproducible"
        );
    }
}

#[test]
fn energy_scales_with_elapsed_time() {
    // A disk left alone consumes idle power exactly proportionally.
    let mut rng = DetRng::new(0xE4E, "energy-gap");
    for case in 0..32 {
        let gap = rng.uniform(1.0, 5000.0);
        let spec = DiskSpec::ultrastar_multispeed(6);
        let mut d1 = Disk::new(0, &spec, 1, spec.top_level());
        let mut d2 = Disk::new(0, &spec, 1, spec.top_level());
        let e1 = d1.energy(SimTime::from_secs(gap)).total_joules();
        let e2 = d2.energy(SimTime::from_secs(2.0 * gap)).total_joules();
        assert!(
            (e2 - 2.0 * e1).abs() < 1e-6 * e2.max(1.0),
            "case {case} gap {gap}"
        );
    }
}

#[test]
fn pathological_thrash_sequence_terminates() {
    // Alternate speed requests and submits with zero advance: everything
    // latches and must still drain afterwards.
    let mut ops = Vec::new();
    for i in 0..30 {
        ops.push(Op::Speed(i % 6));
        ops.push(Op::Submit {
            frac: (i as f64) / 31.0,
            sectors: 8,
            write: i % 2 == 0,
        });
        ops.push(Op::Standby);
    }
    let (submitted, completed, _) = run_ops(&ops);
    assert_eq!(submitted, completed);
}
