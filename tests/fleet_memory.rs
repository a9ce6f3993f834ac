//! Memory lockdown for a fleet: per-tenant accounting and per-chunk state.
//!
//! Round-robin placement hands array `i` tenants `i`, `i + arrays`, …, so
//! an array serves a few of the fleet's tenants, with ids up to the
//! fleet's highest. An array keeps a latency histogram only for the
//! tenants it served, so its memory must not grow with the fleet's tenant
//! count beyond those tenants' buckets.
//!
//! The first probe runs one array twice over a trace that reads a fixed
//! handful of spots, under the tenant sharding of a small and of a
//! 1,024-times larger fleet: the same number of tenants is served, with
//! ids spread across the larger fleet's range, and the peak heap must not
//! move.
//!
//! The second runs the same trace through the same 32-array fleet twice,
//! sharded into 32 and then 512 tenants, every one of them served, and
//! bounds the growth of the peak live heap by the served tenants' buckets
//! and rows. Everything else is held fixed: Base policy (no planner
//! state), rebalancing off (constant placement rows), one power budget.
//!
//! A third probe runs one Hibernator fleet twice over the same trace, on
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

use array::{run_policy, ArrayConfig, BasePolicy, RunOptions};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig};
use parallel::Pool;
use simkit::{LatencyHistogram, SimDuration, SimTime};
use workload::{Trace, VolumeIoKind, VolumeRequest, WorkloadSpec};

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
/// A served tenant's rows besides its buckets: its `(tenant, histogram)`
/// entry and `(tenant, slot)` index entry in the array that served it,
/// each up to twice over for amortized `Vec` growth, and its histogram in
/// the fleet's dense merged row.
const TENANT_ROW_BYTES: usize = 2
    * (size_of::<(u32, LatencyHistogram)>() + size_of::<(u32, u32)>())
    + size_of::<LatencyHistogram>();

/// Spots the single-array probe reads, one per tenant of the small fleet.
const SPOTS: u32 = 16;
/// How many times more tenants the large fleet has.
const FLEET_SCALE: u32 = 1024;
/// Peak-heap growth the single-array probe allows besides the buckets of
/// extra served tenants (there are none). A histogram slot for every
/// tenant id up to the highest served costs ~1.3 MiB here.
const ARRAY_GROWTH_SLACK: usize = 1024;

/// The single-array probe's geometry: [`SPOTS`] tenant shards' worth of
/// volume.
fn probe_array() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(1 << 30);
    c.disks = 4;
    c
}

/// One read every 2 s, cycling over [`SPOTS`] evenly spaced spots.
fn spot_trace(cfg: &ArrayConfig) -> Trace {
    let stride = cfg.volume_sectors() / u64::from(SPOTS);
    let requests = (0..300u32)
        .map(|i| VolumeRequest {
            time: SimTime::from_secs(f64::from(2 * i)),
            sector: u64::from(i % SPOTS) * stride,
            sectors: 8,
            kind: VolumeIoKind::Read,
        })
        .collect();
    Trace::from_requests(requests)
}

/// Peak live heap above the starting level of one array run under the
/// tenant sharding a `tenants`-tenant fleet gives it, and the number of
/// tenants it served and the highest of their ids.
fn array_peak(tenants: u32, cfg: &ArrayConfig, tr: &Trace) -> (usize, usize, u32) {
    let shards = FleetSpec::new(
        1,
        tenants,
        cfg.clone(),
        RunOptions::for_horizon(HORIZON_S),
        BudgetSchedule::unlimited(),
    )
    .tenant_shards();
    let mut opts = RunOptions::for_horizon(HORIZON_S);
    opts.tenants = Some(shards);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let report = run_policy(cfg.clone(), BasePolicy, tr, opts);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(report.completed > 0, "probe run did no work");
    let top = report.tenant_latency.last().map_or(0, |&(t, _)| t);
    (peak, report.tenant_latency.len(), top)
}

#[test]
fn an_array_holds_only_the_tenants_it_served() {
    let _probe = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = probe_array();
    let tr = spot_trace(&cfg);
    let _ = array_peak(SPOTS, &cfg, &tr);

    let (few, few_served, few_top) = array_peak(SPOTS, &cfg, &tr);
    let (many, many_served, many_top) = array_peak(SPOTS * FLEET_SCALE, &cfg, &tr);
    assert_eq!(few_served, SPOTS as usize, "each spot is its own tenant");
    assert_eq!(few_top, SPOTS - 1);
    assert_eq!(
        many_served, SPOTS as usize,
        "the same spots are as many tenants"
    );
    assert_eq!(
        many_top,
        (SPOTS - 1) * FLEET_SCALE,
        "ids spread across the larger fleet"
    );
    let growth = many.saturating_sub(few);
    let bound = many_served.saturating_sub(few_served) * (BUCKET_BYTES + TENANT_ROW_BYTES)
        + ARRAY_GROWTH_SLACK;
    println!(
        "array peak: {few} B @ {SPOTS} tenants, {many} B @ {} tenants \
         ({many_served} served, top id {many_top}); growth {growth} B, bound {bound} B",
        SPOTS * FLEET_SCALE
    );
    assert!(
        growth <= bound,
        "an array's peak heap grew by {growth} B when the fleet's tenant count grew \
         {FLEET_SCALE}x with the same {many_served} tenants served (bound {bound} B): the \
         array keeps rows for tenants it never served"
    );
}

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
    // - rows: `extra * TENANT_ROW_BYTES` (~0.14 MB).
    // Placement rows and heat counters add a few bytes per tenant. A
    // histogram slot in every array for each tenant id up to the highest
    // it served costs about `ARRAYS * extra` structs (~1.4 MB) on top, and
    // giving those slots their buckets about `ARRAYS * extra / 2` bucket
    // arrays (~55 MB).
    let extra = (MANY_TENANTS - FEW_TENANTS) as usize;
    let bound = extra * (2 * BUCKET_BYTES + TENANT_ROW_BYTES);
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
/// 1.5 KiB; the fleet's own tenant-indexed rows (placement and heat per
/// epoch) grow with the tenant count, ~2 KiB per array here. Dense
/// per-chunk state adds ~2 MiB.
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
