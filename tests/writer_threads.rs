//! Thread bound of telemetry capture: a whole solo run serializes its
//! stream on one writer thread, and a fleet, which steps its arrays,
//! starts none, however many arrays capture.
//!
//! The probe counts the process's threads (`Threads:` in
//! `/proc/self/status`) from a sampling thread while a run is in flight
//! and compares each captured run with the same run uncaptured. This
//! binary holds this one test, so no other test's threads are counted.
//! Where `/proc` is missing the test checks nothing.

use array::{run_policy, ArrayConfig, BasePolicy, RunOptions};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use parallel::Pool;
use simkit::SimDuration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

const DURATION_S: f64 = 1_800.0;

fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// The most threads seen while `f` ran.
fn peak_threads(f: impl FnOnce()) -> usize {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(threads().unwrap_or(0));
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        f();
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("the sampler does not panic")
    })
}

fn opts(capture: bool) -> RunOptions {
    let mut o = RunOptions::for_horizon(DURATION_S);
    if capture {
        o.telemetry = Some(TelemetryConfig::new("threads"));
    }
    o
}

fn config() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    c
}

#[test]
fn a_solo_run_starts_one_writer_thread_and_a_fleet_none() {
    if threads().is_none() {
        return;
    }
    let mut spec = WorkloadSpec::oltp(DURATION_S, 40.0);
    spec.extents = 1024;
    let trace = spec.generate(3);

    let solo = |capture| {
        peak_threads(|| {
            run_policy(config(), BasePolicy, &trace, opts(capture));
        })
    };
    assert_eq!(solo(true), solo(false) + 1, "one writer per solo run");

    let fleet = |capture| {
        peak_threads(|| {
            let mut spec = FleetSpec::new(
                16,
                32,
                config(),
                opts(capture),
                BudgetSchedule::constant(1e9),
            );
            spec.fleet_epoch = SimDuration::from_secs(300.0);
            let report = run_fleet(&spec, &trace, &Pool::new(2), |_| BasePolicy);
            assert_eq!(report.arrays.iter().all(|r| r.telemetry.is_some()), capture);
        })
    };
    assert_eq!(fleet(true), fleet(false), "a fleet starts no writer");
}
