//! Property: the streaming workload engine is observationally identical
//! to the materialised one. Feeding a simulation from
//! [`WorkloadSpec::stream`] (a lazy [`workload::TraceSource`]) must
//! produce bit-identical [`RunReport`] numerics and byte-identical
//! telemetry streams to feeding it the materialised
//! [`WorkloadSpec::generate`] trace — across all six headline policies,
//! both arrival models, and a whole fleet run — while buffering at most
//! one request, so week-long horizons run in O(1) trace memory.
//!
//! Why this must hold: `SpecStream` replays the batch generator's RNG
//! draw order exactly (including the two-pass arrivals-clone trick for
//! diurnal thinning), so the request sequences are equal; and both
//! simulation constructors feed arrivals through the same one-ahead
//! streaming path (a materialised trace is walked by a cursor), so
//! event-queue keys — and therefore FIFO tie-breaking — are unchanged.
//!
//! The same holds for where telemetry is serialized: a whole run writes
//! its stream on a writer thread and a stepped run writes it inline, and
//! the bytes must agree even when the ring overflows. A policy panic in a
//! captured whole run must reach the caller without hanging on the
//! writer thread.

mod common;

use array::{run_policy, run_policy_streamed, ArrayConfig, RunOptions, Simulation};
use common::fingerprint;
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig};
use parallel::Pool;
use policies::{maid_array_config, DrpmPolicy, MaidConfig, MaidPolicy, PdcPolicy, TpmPolicy};
use simkit::{DetRng, SimDuration, SimTime};
use std::sync::atomic::Ordering;
use telemetry::TelemetryConfig;
use workload::{collect_trace, Counted, WorkloadSpec};

const DURATION_S: f64 = 900.0;

fn spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 25.0);
    spec.extents = 1024;
    spec.zipf_theta = 1.0;
    spec
}

fn config() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    c
}

/// A 6-disk config sized to a spec's footprint (for specs whose default
/// extents exceed the 2 GiB test volume).
fn config_for(spec: &WorkloadSpec) -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(spec.footprint_sectors() * 512);
    c.disks = 6;
    c
}

fn opts(label: &str) -> RunOptions {
    let mut o = RunOptions::for_horizon(DURATION_S);
    o.telemetry = Some(TelemetryConfig::new(label).with_goal(0.02, 90.0));
    o
}

fn hibernator() -> Hibernator {
    let mut cfg = HibernatorConfig::for_goal(0.02);
    cfg.epoch = SimDuration::from_secs(180.0);
    cfg.heat_tau = SimDuration::from_secs(180.0);
    Hibernator::new(cfg)
}

/// Runs the same (spec, seed, policy) both ways — materialised trace vs
/// streaming source — and asserts reports and telemetry agree exactly.
fn assert_stream_equivalent<P: array::PowerPolicy + Send>(
    label: &str,
    spec: &WorkloadSpec,
    seed: u64,
    config: ArrayConfig,
    opts: RunOptions,
    mk_policy: impl Fn() -> P,
) {
    let trace = spec.generate(seed);
    let mut materialised = run_policy(config.clone(), mk_policy(), &trace, opts.clone());
    let mut streamed = run_policy_streamed(config, mk_policy(), spec.stream(seed), opts);

    assert_eq!(
        fingerprint(&streamed),
        fingerprint(&materialised),
        "{label}: streamed run diverged from materialised run"
    );
    let ss = streamed.telemetry.take().expect("streamed stream");
    let ms = materialised.telemetry.take().expect("materialised stream");
    assert_eq!(
        ss.bytes, ms.bytes,
        "{label}: telemetry differs between streamed and materialised feeds"
    );
}

#[test]
fn headline_policies_match_materialised_runs() {
    let spec = spec();
    let cfg = config();
    assert_stream_equivalent("Base", &spec, 7, cfg.clone(), opts("Base"), || {
        array::BasePolicy
    });
    assert_stream_equivalent(
        "TPM",
        &spec,
        7,
        cfg.clone(),
        opts("TPM"),
        TpmPolicy::competitive,
    );
    assert_stream_equivalent(
        "DRPM",
        &spec,
        7,
        cfg.clone(),
        opts("DRPM"),
        DrpmPolicy::default,
    );
    assert_stream_equivalent(
        "PDC",
        &spec,
        7,
        cfg.clone(),
        opts("PDC"),
        PdcPolicy::default,
    );
    assert_stream_equivalent(
        "MAID",
        &spec,
        7,
        maid_array_config(cfg.clone(), 2),
        opts("MAID"),
        || {
            MaidPolicy::new(MaidConfig {
                cache_disks: 2,
                cache_chunks_per_disk: 256,
                tpm_threshold_s: Some(120.0),
            })
        },
    );
    assert_stream_equivalent("Hibernator", &spec, 7, cfg, opts("Hibernator"), hibernator);
}

#[test]
fn diurnal_mmpp_workload_matches_materialised_run() {
    // The hard generator path for the streaming engine: MMPP arrivals
    // plus diurnal thinning, whose batch draw order forces the two-pass
    // arrivals-RNG clone trick.
    let spec = WorkloadSpec::cello_like(3600.0, 20.0);
    let cfg = config_for(&spec);
    let mut o = RunOptions::for_horizon(3600.0);
    o.telemetry = Some(TelemetryConfig::new("cello-stream").with_goal(0.02, 360.0));
    assert_stream_equivalent("Cello/Hibernator", &spec, 13, cfg, o, hibernator);
}

#[test]
fn fleet_run_matches_materialised_trace() {
    // The fleet driver routes one shared trace once into a `ShardIndex`
    // and feeds each array only its own requests. A shared trace collected from the streaming
    // engine must reproduce the materialised-trace fleet run exactly:
    // fleet stream bytes, per-array reports, per-array telemetry.
    let spec = spec();
    let from_generate = spec.generate(23);
    let from_stream = collect_trace(spec.stream(23));
    assert_eq!(
        from_generate.requests, from_stream.requests,
        "stream-collected trace differs from generate()"
    );

    let run = |trace: &workload::Trace| {
        let mut o = RunOptions::for_horizon(DURATION_S);
        o.telemetry = Some(TelemetryConfig::new("fleet").with_goal(0.02, 90.0));
        let mut spec = FleetSpec::new(3, 8, config(), o, BudgetSchedule::constant(160.0));
        spec.fleet_epoch = SimDuration::from_secs(150.0);
        run_fleet(&spec, trace, &Pool::new(2), |_| hibernator())
    };
    let mut a = run(&from_generate);
    let mut b = run(&from_stream);

    assert_eq!(
        a.fleet_stream.bytes, b.fleet_stream.bytes,
        "fleet streams differ between trace sources"
    );
    assert_eq!(a.arrays.len(), b.arrays.len());
    for (i, (ra, rb)) in a.arrays.iter_mut().zip(&mut b.arrays).enumerate() {
        assert_eq!(
            fingerprint(ra),
            fingerprint(rb),
            "fleet array {i} diverged between trace sources"
        );
        let sa = ra.telemetry.take().expect("stream a");
        let sb = rb.telemetry.take().expect("stream b");
        assert_eq!(sa.bytes, sb.bytes, "fleet array {i} telemetry differs");
    }
}

#[test]
fn migrating_run_stepped_through_copy_bursts_matches_unsegmented_run() {
    // A Hibernator whose goal (1.6x Base's mean response) splits the
    // array into tiers, with a 180 s epoch, plans early and copies each
    // chunk in 128 KiB pieces. Pausing at random instants 1 ms to 5 s
    // apart (log-uniform, so ~1,500 pauses of mostly well under a second)
    // lands many pauses between two pieces of one copy, where the
    // driver may serve a disk's next wake inline only within the stepping
    // limit. The segmented run must equal the unsegmented one, and at
    // every pause it must have completed exactly the requests the
    // unsegmented run served by then — nothing past the limit.
    let spec = spec();
    let trace = spec.generate(7);
    let base = run_policy(
        config(),
        array::BasePolicy,
        &trace,
        RunOptions::for_horizon(DURATION_S),
    );
    let migrating = || {
        let mut cfg = HibernatorConfig::for_goal(base.response.mean() * 1.6);
        cfg.epoch = SimDuration::from_secs(180.0);
        cfg.heat_tau = SimDuration::from_secs(180.0);
        Hibernator::new(cfg)
    };
    let mut whole = run_policy(config(), migrating(), &trace, opts("Hibernator"));
    assert!(whole.migration.committed > 0, "the run must migrate");

    let mut sim = Simulation::new(config(), migrating(), &trace, opts("Hibernator"));
    let mut rng = DetRng::new(7, "segments");
    let mut pauses = Vec::new();
    let mut t = 0.0;
    while t < DURATION_S {
        t += 0.001 * 5000f64.powf(rng.uniform01());
        sim.step_until(SimTime::from_secs(t));
        pauses.push((t, sim.completed()));
    }
    let (mut stepped, _) = sim.finish();
    assert_eq!(
        fingerprint(&stepped),
        fingerprint(&whole),
        "segmented stepping changed the run"
    );
    let ss = stepped.telemetry.take().expect("stepped stream");
    let ws = whole.telemetry.take().expect("whole stream");
    assert_eq!(ss.bytes, ws.bytes, "segmented stepping changed telemetry");

    let served: Vec<f64> = String::from_utf8(ws.bytes)
        .expect("utf-8 stream")
        .lines()
        .filter_map(|l| l.strip_prefix("{\"ev\":\"served\",\"t\":"))
        .map(|rest| rest.split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(served.len() as u64, whole.completed);
    for (t, completed) in pauses {
        let due = served.iter().filter(|&&s| s <= t).count() as u64;
        assert_eq!(completed, due, "pause at {t} s ran past its limit");
    }
}

#[test]
fn week_long_horizon_runs_in_bounded_trace_memory() {
    // A week of requests streams through while the simulation holds at
    // most one request of trace state — the whole point of the
    // streaming engine. The counter proves the volume actually flowed;
    // `feed_resident` (checked at every stepping pause) proves it was
    // never buffered.
    let horizon_s = 7.0 * 24.0 * 3600.0;
    let spec = WorkloadSpec::oltp(horizon_s, 1.0);
    let cfg = config_for(&spec);
    let (source, pulled) = Counted::new(spec.stream(42));
    let mut sim = Simulation::from_source(
        cfg,
        array::BasePolicy,
        source,
        RunOptions::for_horizon(horizon_s),
    );
    sim.start();
    let mut t = 0.0;
    while t < horizon_s {
        t += 6.0 * 3600.0;
        sim.step_until(SimTime::from_secs(t));
        assert!(
            sim.feed_resident() <= 1,
            "streamed feed buffered {} requests",
            sim.feed_resident()
        );
    }
    let (report, _) = sim.finish();
    let pulled = pulled.load(Ordering::Relaxed);
    assert!(
        pulled > 500_000,
        "week at 1 req/s should stream ~600k requests, saw {pulled}"
    );
    assert_eq!(
        report.completed + report.incomplete,
        pulled,
        "every pulled request must be admitted exactly once"
    );
}

#[test]
fn borrowed_trace_feed_buffers_at_most_one_request() {
    // A materialised trace stays with its owner: the simulation walks it
    // with a cursor through the same one-ahead feed as a streaming
    // source, so it too holds at most one request — and stepping it in
    // segments changes nothing.
    let spec = spec();
    let trace = spec.generate(7);
    let mut sim = Simulation::new(
        config(),
        array::BasePolicy,
        &trace,
        RunOptions::for_horizon(DURATION_S),
    );
    sim.start();
    let mut t = 0.0;
    while t < DURATION_S {
        t += 60.0;
        sim.step_until(SimTime::from_secs(t));
        assert!(
            sim.feed_resident() <= 1,
            "borrowed-trace feed buffered {} requests",
            sim.feed_resident()
        );
    }
    let (stepped, _) = sim.finish();
    let whole = run_policy(
        config(),
        array::BasePolicy,
        &trace,
        RunOptions::for_horizon(DURATION_S),
    );
    assert_eq!(fingerprint(&stepped), fingerprint(&whole));
    assert_eq!(stepped.completed + stepped.incomplete, trace.len() as u64);
}

/// The `dropped` count a stream's `run_end` trailer reports.
fn trailer_dropped(stream: &str) -> u64 {
    let last = stream.lines().last().expect("a non-empty stream");
    assert!(last.starts_with("{\"ev\":\"run_end\""), "{last}");
    let rest = &last[last.find("\"dropped\":").expect("a dropped field") + 10..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("an integer count")
}

#[test]
fn overflowing_ring_is_identical_on_the_writer_thread_and_inline() {
    // A whole run serializes on its writer thread; a stepped run (the
    // fleet's way) serializes inline. With a ring far smaller than the
    // run, most lines are evicted either way: the survivors, the held
    // `run_start` header and the trailer's drop count must agree byte for
    // byte, and the count must be what the ring really dropped.
    const CAPACITY: usize = 3_000;
    let trace = spec().generate(7);
    let capped = || {
        let mut o = opts("overflow");
        o.telemetry.as_mut().expect("telemetry on").capacity = CAPACITY;
        o
    };
    let mut whole = run_policy(config(), hibernator(), &trace, capped());
    let mut sim = Simulation::new(config(), hibernator(), &trace, capped());
    let mut t = 0.0;
    while t < DURATION_S {
        t += 37.0;
        sim.step_until(SimTime::from_secs(t));
    }
    let (mut stepped, _) = sim.finish();
    let mut uncapped = run_policy(config(), hibernator(), &trace, opts("overflow"));

    let ws = whole.telemetry.take().expect("whole stream").bytes;
    let ss = stepped.telemetry.take().expect("stepped stream").bytes;
    assert_eq!(ws, ss, "writer thread and inline streams differ");
    let ws = String::from_utf8(ws).expect("utf-8 stream");
    let full = uncapped.telemetry.take().expect("uncapped stream").bytes;
    let full = String::from_utf8(full).expect("utf-8 stream");
    let total = full.lines().count();
    assert!(total > 4 * CAPACITY, "the run must overflow the ring");

    let lines: Vec<&str> = ws.lines().collect();
    assert_eq!(lines.len(), CAPACITY + 1, "a full ring behind the header");
    assert_eq!(lines[0], full.lines().next().unwrap(), "header not held");
    // The trailer is written after the count it reports: every line
    // before it but the held header and the ring's other lines.
    assert_eq!(trailer_dropped(&ws), (total - 2 - CAPACITY) as u64);
    assert_eq!(trailer_dropped(&full), 0);
}

/// A policy that panics part-way through a run.
struct PanicsMidRun {
    ticks: u32,
}

impl array::PowerPolicy for PanicsMidRun {
    fn name(&self) -> &str {
        "PanicsMidRun"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(60.0))
    }

    fn on_tick(&mut self, _now: SimTime, _state: &mut array::ArrayState) {
        self.ticks += 1;
        if self.ticks == 5 {
            panic!("policy panicked mid-run");
        }
    }
}

#[test]
fn a_policy_panic_in_a_captured_run_propagates_without_hanging() {
    // By the panic at 300 s the run has handed its writer thread several
    // batches. Unwinding drops the recorder, which ends the writer, so the
    // run's scope joins it and re-raises the panic. A hang is the failure
    // mode; the watchdog turns it into a failed test.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let trace = spec().generate(7);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_policy(config(), PanicsMidRun { ticks: 0 }, &trace, opts("panics"))
        }));
        let message = run.err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    let message = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a captured run whose policy panicked hung");
    assert_eq!(
        message.as_deref(),
        Some("policy panicked mid-run"),
        "the policy's panic must reach the caller"
    );
}
