//! Reproducibility: a simulation is a pure function of (config, trace,
//! policy parameters). Same inputs → bit-identical reports; different seeds
//! → different microscopic outcomes.

mod common;

use array::{run_policy, ArrayConfig, BasePolicy, RunOptions, RunReport};
use common::fingerprint;
use hibernator::{Hibernator, HibernatorConfig};
use policies::{DrpmPolicy, PdcPolicy, TpmPolicy};
use simkit::SimDuration;
use workload::WorkloadSpec;

fn scenario(seed: u64) -> (ArrayConfig, workload::Trace, RunOptions) {
    let mut spec = WorkloadSpec::oltp(900.0, 25.0);
    spec.extents = 1024;
    let trace = spec.generate(seed);
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = 4;
    config.seed = seed;
    (config, trace, RunOptions::for_horizon(900.0))
}

#[test]
fn base_run_is_bit_identical() {
    let (c1, t1, o1) = scenario(5);
    let (c2, t2, o2) = scenario(5);
    let a = run_policy(c1, BasePolicy, &t1, o1);
    let b = run_policy(c2, BasePolicy, &t2, o2);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn every_policy_is_deterministic() {
    let run_pair = |mk: &dyn Fn() -> RunReport| {
        let a = mk();
        let b = mk();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    };
    run_pair(&|| {
        let (c, t, o) = scenario(6);
        run_policy(c, TpmPolicy::competitive(), &t, o)
    });
    run_pair(&|| {
        let (c, t, o) = scenario(6);
        run_policy(c, DrpmPolicy::default(), &t, o)
    });
    run_pair(&|| {
        let (c, t, o) = scenario(6);
        run_policy(c, PdcPolicy::default(), &t, o)
    });
    run_pair(&|| {
        let (c, t, o) = scenario(6);
        let mut cfg = HibernatorConfig::for_goal(0.010);
        cfg.epoch = SimDuration::from_secs(200.0);
        run_policy(c, Hibernator::new(cfg), &t, o)
    });
}

#[test]
fn different_seeds_differ() {
    let (c1, t1, o1) = scenario(7);
    let (c2, t2, o2) = scenario(8);
    let a = run_policy(c1, BasePolicy, &t1, o1);
    let b = run_policy(c2, BasePolicy, &t2, o2);
    assert_ne!(
        a.energy.total_joules().to_bits(),
        b.energy.total_joules().to_bits()
    );
}

#[test]
fn trace_generation_independent_of_consumer() {
    // Generating the same workload twice, interleaved with other RNG use,
    // must give the same trace (labelled streams don't interfere).
    let spec = WorkloadSpec::cello_like(600.0, 20.0);
    let a = spec.generate(9);
    let _noise = WorkloadSpec::oltp(600.0, 99.0).generate(9);
    let b = spec.generate(9);
    assert_eq!(a.requests, b.requests);
}
