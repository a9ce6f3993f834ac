//! Tenant sharding for fleet-level simulation.
//!
//! The fleet layer views the shared logical volume as consecutive
//! fixed-size *tenant shards*: sector `s` belongs to tenant
//! `s / tenant_sectors`. A placement map (one `tenant → array` row per
//! fleet epoch) then routes a shared multi-tenant [`Trace`] to per-array
//! streams through one [`ShardIndex`], and a per-epoch heat matrix gives
//! the placement planner its demand signal. Both are pure functions of the trace, so
//! placement can be planned *ahead* of simulation — the fleet driver
//! needs no feedback channel from the arrays to route requests, which
//! keeps routing deterministic and jobs-invariant.

use crate::stream::TraceSource;
use crate::{Trace, VolumeRequest};

/// The tenant owning `sector` under `tenant_sectors`-sector shards,
/// clamped to the `tenants` universe (the tail of an oversized volume
/// folds into the last tenant).
#[inline]
pub fn tenant_of(sector: u64, tenant_sectors: u64, tenants: u32) -> u32 {
    debug_assert!(tenant_sectors > 0 && tenants > 0);
    ((sector / tenant_sectors) as u32).min(tenants - 1)
}

/// The fleet epoch containing time `t` (epoch `k` spans
/// `[k·epoch_s, (k+1)·epoch_s)`).
#[inline]
pub fn epoch_of(t_s: f64, epoch_s: f64) -> usize {
    debug_assert!(epoch_s > 0.0);
    (t_s / epoch_s) as usize
}

/// Requests per tenant per fleet epoch: `heat[epoch][tenant]` counts the
/// requests tenant `tenant` issues during fleet epoch `epoch`. The matrix
/// spans `epochs` rows even where the trace is silent, so the placement
/// planner always has a row per decision point.
pub fn tenant_heat(
    trace: &Trace,
    tenants: u32,
    tenant_sectors: u64,
    epoch_s: f64,
    epochs: usize,
) -> Vec<Vec<u64>> {
    assert!(tenants > 0, "at least one tenant");
    assert!(tenant_sectors > 0, "tenant shards must be non-empty");
    assert!(epoch_s > 0.0, "fleet epoch must be positive");
    let mut heat = vec![vec![0u64; tenants as usize]; epochs.max(1)];
    let last = heat.len() - 1;
    for r in &trace.requests {
        let e = epoch_of(r.time.as_secs(), epoch_s).min(last);
        let t = tenant_of(r.sector, tenant_sectors, tenants);
        heat[e][t as usize] += 1;
    }
    heat
}

/// The shared trace routed once: every trace index, grouped by the array
/// the placement map sends it to (request at time `t` with tenant `u`
/// goes to array `placement[epoch_of(t)][u]`, late requests taking the
/// last row). A counting sort — a count pass, a prefix sum into
/// `arrays + 1` offsets, then a fill pass — so each array's indices stay
/// in trace order, and a single-array fleet receives exactly the
/// original trace. It costs 4 B per request on top of the shared trace;
/// each array then streams its own requests in O(1) per request through
/// [`ShardIndex::stream`], without scanning anyone else's.
#[derive(Debug)]
pub struct ShardIndex {
    /// Array `a`'s indices are `order[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    order: Vec<u32>,
}

impl ShardIndex {
    /// Routes every request of `trace` to one of `arrays` arrays under
    /// `placement`.
    ///
    /// # Panics
    /// Panics if `placement` is empty, a row's length is not the tenant
    /// universe implied by its sibling rows, a routed array index is out
    /// of range, `tenant_sectors`/`epoch_s` is degenerate, or the trace
    /// has more than `u32::MAX` requests.
    pub fn build(
        trace: &Trace,
        placement: &[Vec<u32>],
        tenant_sectors: u64,
        epoch_s: f64,
        arrays: usize,
    ) -> ShardIndex {
        assert!(!placement.is_empty(), "placement needs at least one epoch");
        assert!(arrays > 0, "at least one array");
        let tenants = placement[0].len() as u32;
        assert!(tenants > 0, "placement rows must cover at least one tenant");
        for row in placement {
            assert_eq!(row.len(), tenants as usize, "ragged placement map");
        }
        assert!(tenant_sectors > 0, "tenant shards must be non-empty");
        assert!(epoch_s > 0.0, "fleet epoch must be positive");
        assert!(
            u32::try_from(trace.len()).is_ok(),
            "a trace of {} requests overflows the u32 shard index",
            trace.len()
        );
        let last = placement.len() - 1;
        let route = |r: &VolumeRequest| {
            let e = epoch_of(r.time.as_secs(), epoch_s).min(last);
            let t = tenant_of(r.sector, tenant_sectors, tenants);
            (t, placement[e][t as usize] as usize)
        };
        let mut offsets = vec![0usize; arrays + 1];
        for r in &trace.requests {
            let (t, a) = route(r);
            assert!(
                a < arrays,
                "placement routes tenant {t} to missing array {a}"
            );
            offsets[a + 1] += 1;
        }
        for a in 0..arrays {
            offsets[a + 1] += offsets[a];
        }
        let mut next = offsets[..arrays].to_vec();
        let mut order = vec![0u32; trace.len()];
        for (i, r) in trace.requests.iter().enumerate() {
            let a = route(r).1;
            order[next[a]] = i as u32;
            next[a] += 1;
        }
        ShardIndex { offsets, order }
    }

    /// Requests routed, summed over every array.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no request was routed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// A stream of the requests routed to `array`, read from the `trace`
    /// this index was built over.
    ///
    /// # Panics
    /// Panics if `array` is out of range or `trace` is not the length of
    /// the trace this index was built over.
    pub fn stream<'a>(&'a self, trace: &'a Trace, array: usize) -> ShardStream<'a> {
        assert_eq!(
            trace.len(),
            self.order.len(),
            "shard index was built over a different trace"
        );
        ShardStream {
            requests: &trace.requests,
            indices: self.order[self.offsets[array]..self.offsets[array + 1]].iter(),
        }
    }
}

/// A [`TraceSource`] yielding the requests a [`ShardIndex`] routed to one
/// array, in trace order, straight from the shared trace: N arrays each
/// hold one of these over one shared trace, and nothing is cloned per
/// array.
#[derive(Debug, Clone)]
pub struct ShardStream<'a> {
    requests: &'a [VolumeRequest],
    indices: std::slice::Iter<'a, u32>,
}

impl TraceSource for ShardStream<'_> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        self.indices.next().map(|&i| self.requests[i as usize])
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.indices.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VolumeIoKind;
    use simkit::{DetRng, SimTime};

    fn req(t: f64, sector: u64) -> VolumeRequest {
        VolumeRequest {
            time: SimTime::from_secs(t),
            sector,
            sectors: 8,
            kind: VolumeIoKind::Read,
        }
    }

    fn mixed_trace() -> Trace {
        // Tenants of 100 sectors each; three tenants interleaved in time.
        Trace::from_requests(vec![
            req(0.0, 10),   // tenant 0, epoch 0
            req(1.0, 110),  // tenant 1, epoch 0
            req(2.0, 210),  // tenant 2, epoch 0
            req(10.0, 15),  // tenant 0, epoch 1
            req(11.0, 115), // tenant 1, epoch 1
            req(19.0, 215), // tenant 2, epoch 1
        ])
    }

    #[test]
    fn tenant_of_clamps_to_universe() {
        assert_eq!(tenant_of(0, 100, 3), 0);
        assert_eq!(tenant_of(250, 100, 3), 2);
        assert_eq!(tenant_of(9_999, 100, 3), 2, "overflow folds into last");
    }

    #[test]
    fn heat_counts_per_epoch_per_tenant() {
        let heat = tenant_heat(&mixed_trace(), 3, 100, 10.0, 2);
        assert_eq!(heat, vec![vec![1, 1, 1], vec![1, 1, 1]]);
    }

    #[test]
    fn heat_clamps_late_requests_into_last_row() {
        let heat = tenant_heat(&mixed_trace(), 3, 100, 10.0, 1);
        assert_eq!(heat, vec![vec![2, 2, 2]]);
    }

    /// The per-array filter scan the index replaced: walk the whole trace
    /// and keep the requests routed to `array`.
    fn scan(
        trace: &Trace,
        placement: &[Vec<u32>],
        tenant_sectors: u64,
        epoch_s: f64,
        array: u32,
    ) -> Vec<VolumeRequest> {
        let last = placement.len() - 1;
        let tenants = placement[0].len() as u32;
        trace
            .requests
            .iter()
            .filter(|r| {
                let e = epoch_of(r.time.as_secs(), epoch_s).min(last);
                let t = tenant_of(r.sector, tenant_sectors, tenants);
                placement[e][t as usize] == array
            })
            .copied()
            .collect()
    }

    fn drain(mut stream: ShardStream<'_>) -> Vec<VolumeRequest> {
        let mut out = Vec::new();
        while let Some(r) = stream.next_request() {
            out.push(r);
        }
        out
    }

    #[test]
    fn single_array_shard_is_the_identity() {
        let tr = mixed_trace();
        let index = ShardIndex::build(&tr, &[vec![0, 0, 0]], 100, 10.0, 1);
        assert_eq!(index.len(), tr.len());
        assert_eq!(drain(index.stream(&tr, 0)), tr.requests);
    }

    #[test]
    fn placement_routes_and_conserves_requests() {
        let tr = mixed_trace();
        // Epoch 0: t0→a0, t1→a1, t2→a0. Epoch 1: tenant 2 moves to a1.
        let placement = vec![vec![0, 1, 0], vec![0, 1, 1]];
        let index = ShardIndex::build(&tr, &placement, 100, 10.0, 2);
        let shards: Vec<Vec<VolumeRequest>> = (0..2).map(|a| drain(index.stream(&tr, a))).collect();
        assert_eq!(index.len(), tr.len(), "no request lost or duplicated");
        assert_eq!(shards[0].len(), 3); // t0 both epochs + t2 epoch 0
        assert_eq!(shards[1].len(), 3);
        // The move lands: tenant 2's epoch-1 request is on array 1.
        assert!(shards[1].iter().any(|r| r.sector == 215));
        assert!(shards[0].iter().any(|r| r.sector == 210));
    }

    #[test]
    #[should_panic(expected = "missing array")]
    fn shard_index_rejects_out_of_range_routing() {
        let tr = mixed_trace();
        let _ = ShardIndex::build(&tr, &[vec![0, 5, 0]], 100, 10.0, 2);
    }

    #[test]
    #[should_panic(expected = "ragged placement map")]
    fn shard_index_rejects_ragged_placement() {
        let tr = mixed_trace();
        let _ = ShardIndex::build(&tr, &[vec![0, 1, 0], vec![0, 1]], 100, 10.0, 2);
    }

    #[test]
    fn shard_preserves_relative_order_within_an_array() {
        let tr = Trace::from_requests(vec![req(0.0, 10), req(0.0, 20), req(0.0, 30)]);
        let index = ShardIndex::build(&tr, &[vec![0]], 1_000, 10.0, 1);
        let sectors: Vec<u64> = drain(index.stream(&tr, 0))
            .iter()
            .map(|r| r.sector)
            .collect();
        assert_eq!(sectors, vec![10, 20, 30], "equal-time order is stable");
    }

    #[test]
    fn shard_index_matches_the_per_array_scan() {
        // Seeded sweep: equal timestamps, times past the last placement
        // row, sectors in the folded tail, tenants moving between epochs,
        // and arrays that receive nothing.
        let (mut ties, mut late, mut tail, mut moved, mut idle) = (0, 0, 0, 0, 0);
        for case in 0..200u64 {
            let mut rng = DetRng::new(case, "shard-index");
            let tenants = 1 + rng.below(9) as u32;
            let tenant_sectors = 1 + rng.below(200);
            let epoch_s = rng.uniform(1.0, 20.0);
            let epochs = 1 + rng.below(5) as usize;
            let routed = 1 + rng.below(4) as u32;
            let arrays = routed as usize + rng.below(3) as usize;
            let placement: Vec<Vec<u32>> = (0..epochs)
                .map(|_| {
                    (0..tenants)
                        .map(|_| rng.below(u64::from(routed)) as u32)
                        .collect()
                })
                .collect();
            let n = rng.below(400) as usize;
            let span = (epochs + 2) as f64 * epoch_s;
            let mut t = 0.0;
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                if !rng.chance(0.3) {
                    t += rng.exponential(n as f64 / span);
                }
                let sector = rng.below((u64::from(tenants) + 2) * tenant_sectors);
                requests.push(req(t, sector));
            }
            let tr = Trace { requests };
            ties += tr
                .requests
                .windows(2)
                .filter(|w| w[0].time == w[1].time)
                .count();
            late += tr
                .requests
                .iter()
                .filter(|r| epoch_of(r.time.as_secs(), epoch_s) >= epochs)
                .count();
            tail += tr
                .requests
                .iter()
                .filter(|r| r.sector >= u64::from(tenants) * tenant_sectors)
                .count();
            moved += placement.windows(2).filter(|w| w[0] != w[1]).count();

            let index = ShardIndex::build(&tr, &placement, tenant_sectors, epoch_s, arrays);
            assert_eq!(index.len(), tr.len(), "case {case}: routed count");
            for a in 0..arrays {
                let stream = index.stream(&tr, a);
                let hint = stream.len_hint();
                let got = drain(stream);
                assert_eq!(
                    got,
                    scan(&tr, &placement, tenant_sectors, epoch_s, a as u32),
                    "case {case}: array {a} diverges from the scan"
                );
                assert_eq!(hint, Some(got.len()), "case {case}: array {a} len_hint");
                idle += usize::from(got.is_empty());
            }
            let mut seen = vec![false; tr.len()];
            for &i in &index.order {
                assert!(!seen[i as usize], "case {case}: index {i} routed twice");
                seen[i as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "case {case}: an index was dropped");
        }
        for (what, hits) in [
            ("equal timestamps", ties),
            ("late requests", late),
            ("tail sectors", tail),
            ("tenant moves", moved),
            ("idle arrays", idle),
        ] {
            assert!(hits > 0, "the sweep never exercised {what}");
        }
    }
}
