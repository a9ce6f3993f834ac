//! Memory lockdown for per-tenant accounting in a fleet.
//!
//! Every array keeps one latency histogram slot per tenant id up to the
//! highest id it has served, and round-robin placement hands array `i`
//! tenants `i`, `i + arrays`, …, so most slots belong to tenants the array
//! never serves. Those slots must cost only their struct, not their
//! buckets: a histogram allocates bucket storage on its first sample.
//!
//! The probe runs the same trace through the same 32-array fleet twice,
//! sharded into 32 and then 512 tenants, and compares the peak live heap
//! of the two runs. Everything else is held fixed: Base policy (no
//! planner state), rebalancing off (constant placement rows), one power
//! budget. This test binary has its own global allocator, so it cannot
//! disturb the allocation count of `fleet_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use array::{ArrayConfig, BasePolicy, RunOptions};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use parallel::Pool;
use simkit::LatencyHistogram;
use workload::{Trace, WorkloadSpec};

/// [`System`] with a live-bytes gauge and its high-water mark.
struct Metered;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static METER: Metered = Metered;

const HORIZON_S: f64 = 600.0;
const ARRAYS: usize = 32;
const FEW_TENANTS: u32 = 32;
const MANY_TENANTS: u32 = 512;
/// One latency histogram's bucket storage: the 900 `u64` counters of
/// `LatencyHistogram::new_latency`.
const BUCKET_BYTES: usize = 900 * 8;

fn trace() -> Trace {
    let mut spec = WorkloadSpec::oltp(HORIZON_S, 40.0);
    spec.extents = 2048;
    spec.generate(42)
}

fn spec(tenants: u32) -> FleetSpec {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    let mut s = FleetSpec::new(
        ARRAYS,
        tenants,
        c,
        RunOptions::for_horizon(HORIZON_S),
        BudgetSchedule::constant(3000.0),
    );
    s.rebalance = false;
    s
}

/// Peak live heap above the starting level during one fleet run, bytes,
/// and the number of tenants that completed at least one request.
fn peak_growth(tenants: u32, tr: &Trace, pool: &Pool) -> (usize, usize) {
    let s = spec(tenants);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let report = run_fleet(&s, tr, pool, |_| BasePolicy);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(report.completed > 0, "probe run did no work");
    let served = report
        .tenant_latency
        .iter()
        .filter(|h| !h.is_empty())
        .count();
    (peak, served)
}

#[test]
fn unserved_tenant_slots_cost_no_buckets() {
    let pool = Pool::new(2);
    let tr = trace();
    // Warm-up: lazy one-time initialization (worker threads, thread-local
    // buffers) must not be billed to either measured run.
    let _ = peak_growth(FEW_TENANTS, &tr, &pool);

    let (few, few_served) = peak_growth(FEW_TENANTS, &tr, &pool);
    let (many, many_served) = peak_growth(MANY_TENANTS, &tr, &pool);
    let growth = many.saturating_sub(few);
    assert_eq!(
        many_served, MANY_TENANTS as usize,
        "the bound below assumes the trace reaches every tenant"
    );

    // Bound, for `extra = MANY_TENANTS - FEW_TENANTS` more tenants, every
    // one of them served (the trace spans the whole volume):
    // - buckets: a served tenant owns at most two bucket arrays at once,
    //   one in the array that served it and one in the fleet's merged
    //   per-tenant accumulator: `2 * extra * BUCKET_BYTES` (~6.9 MB);
    // - slots: each array may hold `extra` more histogram structs, and
    //   amortized `Vec` growth may leave up to twice that capacity:
    //   `2 * ARRAYS * extra * size_of::<LatencyHistogram>()` (~2.7 MB).
    // Placement rows and heat counters add a few bytes per tenant. Giving
    // every slot up to an array's highest tenant id its buckets instead
    // costs about `ARRAYS * extra / 2` bucket arrays (~55 MB) on top.
    let extra = (MANY_TENANTS - FEW_TENANTS) as usize;
    let bound = 2 * extra * BUCKET_BYTES + 2 * ARRAYS * extra * size_of::<LatencyHistogram>();
    println!(
        "peak growth: {few} B @ {FEW_TENANTS} tenants ({few_served} served), \
         {many} B @ {MANY_TENANTS} tenants ({many_served} served); \
         growth {growth} B, bound {bound} B"
    );
    assert!(
        growth < bound,
        "peak heap grew by {growth} B from {FEW_TENANTS} to {MANY_TENANTS} tenants \
         (bound {bound} B): unserved tenant slots are allocating buckets"
    );
}
