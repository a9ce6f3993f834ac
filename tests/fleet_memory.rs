//! Memory lockdown for a fleet: per-tenant accounting and per-chunk state.
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
//! budget.
//!
//! A second probe runs one Hibernator fleet twice over the same trace, on
//! a volume and on one four times larger, and bounds the per-array growth
//! of the peak heap: an array's planner state (remap table, heat map,
//! ranking) must scale with the chunks it touches, not with the volume.
//!
//! This test binary has its own global allocator, so it cannot disturb
//! the allocation count of `fleet_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use array::{ArrayConfig, BasePolicy, RunOptions};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig};
use parallel::Pool;
use simkit::{LatencyHistogram, SimDuration};
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

/// Serialises the probes: the gauge is process-wide, so two tests
/// measuring at once would bill each other's allocations.
static PROBE: Mutex<()> = Mutex::new(());

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
    let _probe = PROBE.lock().unwrap_or_else(|e| e.into_inner());
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

const SCALE_HORIZON_S: f64 = 3600.0;
const SCALE_ARRAYS: usize = 8;
/// Tenants on the smaller volume; the larger one keeps the shard size by
/// scaling the tenant count with it, so tenant `t` covers the same chunks
/// and (round-robin placement, rebalancing off) lands on the same array in
/// both runs, and the extra tenants see no traffic.
const SCALE_TENANTS: u32 = 64;
const SMALL_CHUNKS: u32 = 16_384;
const VOLUME_FACTOR: u32 = 4;
/// Per-array peak-heap growth allowed when the volume grows fourfold
/// under the same trace. Paged per-chunk tables keep one 4-byte directory
/// entry per 128 chunks, so the remap table and the heat map each add
/// 1.5 KiB; the fleet's tenant-indexed rows grow with the tenant count,
/// ~2 KiB per array here. Dense per-chunk state adds ~2 MiB.
const PER_ARRAY_GROWTH_BOUND: usize = 8 * 1024;

/// An OLTP trace over the first [`SMALL_CHUNKS`] 1 MiB chunks.
fn scale_trace() -> Trace {
    let mut spec = WorkloadSpec::oltp(SCALE_HORIZON_S, 40.0);
    spec.extents = SMALL_CHUNKS;
    spec.generate(7)
}

/// Peak live heap above the starting level of a Hibernator fleet over a
/// volume of `chunks` chunks, and the chunk moves it committed.
fn hibernator_peak(chunks: u32, tr: &Trace, pool: &Pool) -> (usize, u64) {
    let mut c = ArrayConfig::default_for_volume(u64::from(chunks) << 20);
    c.disks = 8;
    assert_eq!(c.volume_chunks, chunks);
    let tenants = SCALE_TENANTS * chunks / SMALL_CHUNKS;
    let mut s = FleetSpec::new(
        SCALE_ARRAYS,
        tenants,
        c,
        RunOptions::for_horizon(SCALE_HORIZON_S),
        BudgetSchedule::unlimited(),
    );
    s.rebalance = false;
    let mut cfg = HibernatorConfig::for_goal(0.010);
    cfg.epoch = SimDuration::from_secs(600.0);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let report = run_fleet(&s, tr, pool, |_| Hibernator::new(cfg.clone()));
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(report.completed > 0, "probe run did no work");
    let committed = report.arrays.iter().map(|r| r.migration.committed).sum();
    (peak, committed)
}

#[test]
fn planner_state_scales_with_touched_chunks_not_volume() {
    let _probe = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let pool = Pool::new(1);
    let tr = scale_trace();
    let _ = hibernator_peak(SMALL_CHUNKS, &tr, &pool);

    let (small, small_moves) = hibernator_peak(SMALL_CHUNKS, &tr, &pool);
    let (large, large_moves) = hibernator_peak(VOLUME_FACTOR * SMALL_CHUNKS, &tr, &pool);
    assert!(small_moves > 0, "the probe must exercise migration");
    assert_eq!(
        small_moves, large_moves,
        "both volumes must plan the same moves"
    );
    let per_array = large.saturating_sub(small) / SCALE_ARRAYS;
    println!(
        "peak heap: {small} B @ {SMALL_CHUNKS} chunks, {large} B @ {} chunks \
         ({small_moves} moves); per-array growth {per_array} B, bound \
         {PER_ARRAY_GROWTH_BOUND} B",
        VOLUME_FACTOR * SMALL_CHUNKS
    );
    assert!(
        per_array <= PER_ARRAY_GROWTH_BOUND,
        "per-array peak heap grew by {per_array} B on a {VOLUME_FACTOR}x volume under \
         the same trace (bound {PER_ARRAY_GROWTH_BOUND} B): planner state is sized to the \
         volume, not to the chunks it touches"
    );
}
