//! Micro-benchmarks of the simulator's hot data structures and algorithms.
//!
//! These pin down where the ~2 M events/second of the end-to-end simulator
//! goes: the event queue, per-request service computation, statistics
//! recording, popularity sampling, and the once-per-epoch allocator DP.

use array::{ChunkId, HeatMap};
use bench::{criterion_group, criterion_main, Criterion};
use diskmodel::{Disk, DiskRequest, DiskSpec, IoKind, RequestClass, ServiceModel, SpeedLevel};
use hibernator::{AllocationInput, ServiceEstimator, SpeedAllocator};
use simkit::{
    DetRng, EventQueue, IdMap, LatencyHistogram, Moments, SimDuration, SimTime, SlidingWindow,
};
use std::hint::black_box;
use workload::ZipfExtents;

fn event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = DetRng::new(1, "bench-eq");
        let times: Vec<f64> = (0..1000).map(|_| rng.uniform(0.0, 1e6)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(t), i);
            }
            let mut acc = 0usize;
            while let Some((_, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
}

fn event_queue_ties(c: &mut Criterion) {
    // All-same-time bursts stress the packed (time, seq) key's FIFO
    // tie-breaking — the common case after a tick wakes many disks at once.
    c.bench_function("event_queue_same_time_fifo_1k", |b| {
        let t = SimTime::from_secs(123.456);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000usize {
                q.push(t, i);
            }
            let mut acc = 0usize;
            while let Some((_, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
}

fn idmap_churn(c: &mut Criterion) {
    // The driver's pending/gather maps: sequential ids inserted and
    // removed in a sliding window, the in-flight-request lifecycle.
    let mut rng = DetRng::new(6, "bench-idmap");
    let values: Vec<u64> = (0..1024).map(|_| rng.below(1 << 20)).collect();
    c.bench_function("idmap_sliding_churn_1k", |b| {
        b.iter(|| {
            let mut m: IdMap<u64> = IdMap::with_capacity(256);
            for (i, &v) in values.iter().enumerate() {
                m.insert(i as u64, v);
                if i >= 64 {
                    black_box(m.remove(i as u64 - 64));
                }
            }
            black_box(m.len())
        })
    });
    c.bench_function("idmap_lookup_hit_1k", |b| {
        let mut m: IdMap<u64> = IdMap::with_capacity(1024);
        for (i, &v) in values.iter().enumerate() {
            m.insert(i as u64, v);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc = acc.wrapping_add(*m.get(i).unwrap());
            }
            black_box(acc)
        })
    });
}

fn service_model(c: &mut Criterion) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    let model = ServiceModel::new(&spec);
    let mut rng = DetRng::new(2, "bench-svc");
    let cap = model.geometry().total_sectors();
    let reqs: Vec<DiskRequest> = (0..256)
        .map(|i| DiskRequest {
            id: i,
            sector: rng.below(cap - 64),
            sectors: 16,
            kind: IoKind::Read,
            class: RequestClass::Foreground,
            issue_time: SimTime::ZERO,
        })
        .collect();
    c.bench_function("service_time_256_random_reqs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (i, r) in reqs.iter().enumerate() {
                let phases = model.service(r, (i * 37 % 18000) as u32, SpeedLevel(5), 0.5);
                acc += phases.total_s();
            }
            black_box(acc)
        })
    });
}

fn disk_service_loop(c: &mut Criterion) {
    c.bench_function("disk_1k_requests_end_to_end", |b| {
        let spec = DiskSpec::ultrastar_multispeed(6);
        b.iter(|| {
            let mut disk = Disk::new(0, &spec, 9, SpeedLevel(5));
            let t0 = SimTime::ZERO;
            for i in 0..1000u64 {
                disk.submit(
                    t0,
                    DiskRequest {
                        id: i,
                        sector: (i * 104_729) % 40_000_000,
                        sectors: 16,
                        kind: IoKind::Read,
                        class: RequestClass::Foreground,
                        issue_time: t0,
                    },
                );
            }
            let mut done = 0;
            while let Some(t) = disk.next_event_time() {
                done += disk.on_event(t).len();
            }
            black_box(done)
        })
    });
}

fn statistics(c: &mut Criterion) {
    let mut rng = DetRng::new(3, "bench-stats");
    let samples: Vec<f64> = (0..10_000).map(|_| rng.uniform(1e-4, 0.5)).collect();
    c.bench_function("moments_record_10k", |b| {
        b.iter(|| {
            let mut m = Moments::new();
            for &s in &samples {
                m.record(s);
            }
            black_box(m.variance())
        })
    });
    c.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            let mut h = LatencyHistogram::new_latency();
            for &s in &samples {
                h.record(s);
            }
            black_box(h.quantile(0.99))
        })
    });
    c.bench_function("sliding_window_record_10k", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(SimDuration::from_secs(10.0));
            for (i, &s) in samples.iter().enumerate() {
                w.record(SimTime::from_secs(i as f64 * 0.01), s);
            }
            black_box(w.mean(SimTime::from_secs(100.0)))
        })
    });
}

fn popularity(c: &mut Criterion) {
    let mut rng = DetRng::new(4, "bench-zipf");
    let zipf = ZipfExtents::new(&mut rng, 16_384, 2048, 0.95);
    c.bench_function("zipf_sample_10k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(zipf.sample_sector(&mut rng, 16));
            }
            black_box(acc)
        })
    });
}

fn heat_ranking(c: &mut Criterion) {
    let mut heat = HeatMap::new(16_384, SimDuration::from_hours(2.0));
    let mut rng = DetRng::new(5, "bench-heat");
    for i in 0..200_000 {
        let chunk = ChunkId((rng.below(16_384)) as u32);
        heat.touch(SimTime::from_secs(i as f64 * 0.01), chunk, 1.0);
    }
    let now = SimTime::from_secs(2000.0);
    c.bench_function("heat_ranking_16k_chunks", |b| {
        b.iter(|| black_box(heat.ranking(now)))
    });
}

fn allocator_dp(c: &mut Criterion) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    let alloc = SpeedAllocator::new(&diskmodel::PowerModel::new(&spec), 6);
    let est = ServiceEstimator::new(&ServiceModel::new(&spec), 6, 16);
    let rates: Vec<f64> = (0..16_384)
        .map(|i| 150.0 / (i as f64 + 1.0) / 10.0)
        .collect();
    c.bench_function("allocator_dp_16_disks", |b| {
        b.iter(|| {
            let input = AllocationInput {
                chunk_rates: &rates,
                disks: 16,
                goal_s: 0.004,
            };
            black_box(alloc.allocate(&input, &est))
        })
    });
    c.bench_function("allocator_dp_64_disks", |b| {
        b.iter(|| {
            let input = AllocationInput {
                chunk_rates: &rates,
                disks: 64,
                goal_s: 0.004,
            };
            black_box(alloc.allocate(&input, &est))
        })
    });
}

fn worker_pool(c: &mut Criterion) {
    // Dispatch overhead of the experiment harness's executor: many tiny
    // jobs (worst case for queue contention) and a batch of short
    // simulation-shaped jobs, at 1 worker (inline path) vs 4.
    let pool1 = parallel::Pool::new(1);
    let pool4 = parallel::Pool::new(4);
    c.bench_function("pool_1k_tiny_jobs_1_worker", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..1000u64).map(|i| move || i.wrapping_mul(i)).collect();
            black_box(pool1.map(jobs))
        })
    });
    c.bench_function("pool_1k_tiny_jobs_4_workers", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..1000u64).map(|i| move || i.wrapping_mul(i)).collect();
            black_box(pool4.map(jobs))
        })
    });
    c.bench_function("pool_16_cpu_jobs_4_workers", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    move || {
                        let mut acc = i;
                        for k in 0..200_000u64 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        acc
                    }
                })
                .collect();
            black_box(pool4.map(jobs))
        })
    });
}

criterion_group!(
    micro,
    event_queue,
    event_queue_ties,
    idmap_churn,
    service_model,
    disk_service_loop,
    statistics,
    popularity,
    heat_ranking,
    allocator_dp,
    worker_pool,
);
criterion_main!(micro);
