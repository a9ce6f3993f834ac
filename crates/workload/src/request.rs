//! Volume-level request and trace types.
//!
//! A [`VolumeRequest`] addresses the *logical volume* the array exports —
//! a flat space of 512-byte sectors. The array layer translates volume
//! sectors through its striping + remap tables into per-disk requests.

use simkit::SimTime;

/// Read or write, at the volume level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VolumeIoKind {
    /// Volume read.
    Read,
    /// Volume write.
    Write,
}

/// One request against the logical volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeRequest {
    /// Arrival time.
    pub time: SimTime,
    /// First volume sector.
    pub sector: u64,
    /// Number of sectors (≥ 1).
    pub sectors: u32,
    /// Read or write.
    pub kind: VolumeIoKind,
}

impl VolumeRequest {
    /// The request's size in bytes (512-byte sectors).
    pub fn bytes(&self) -> u64 {
        u64::from(self.sectors) * 512
    }

    /// One past the last sector touched.
    pub fn end_sector(&self) -> u64 {
        self.sector + u64::from(self.sectors)
    }
}

/// An in-memory trace: requests sorted by arrival time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The requests, ascending by `time`.
    pub requests: Vec<VolumeRequest>,
}

// Traces are shared read-only across the parallel harness's worker
// threads (behind `Arc`); this fails to compile if a field ever breaks
// that.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
};

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            requests: Vec::new(),
        }
    }

    /// Builds a trace from requests, ordering them by time exactly as a
    /// stable sort would (equal-time requests keep their input order).
    ///
    /// Inputs are sorted or nearly so (generated traces, native files,
    /// MSR captures with a few late records), so only the late records
    /// are sorted: the cost is O(n + L log L) for L records stamped
    /// earlier than one before them, and one comparison pass when L is 0.
    pub fn from_requests(mut requests: Vec<VolumeRequest>) -> Self {
        order_by_time(&mut requests);
        Trace { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The arrival time of the last request, or zero for an empty trace.
    pub fn end_time(&self) -> SimTime {
        self.requests
            .last()
            .map(|r| r.time)
            .unwrap_or(SimTime::ZERO)
    }

    /// The highest sector touched plus one (the minimum volume size that
    /// can host this trace), or 0 for an empty trace.
    pub fn max_sector(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.end_sector())
            .max()
            .unwrap_or(0)
    }

    /// Verifies the time-ordering invariant.
    pub fn is_sorted(&self) -> bool {
        self.requests.windows(2).all(|w| w[0].time <= w[1].time)
    }

    /// Restricts the trace to requests arriving strictly before `cutoff`,
    /// in place.
    pub fn truncate_at(&mut self, cutoff: SimTime) {
        self.requests.retain(|r| r.time < cutoff);
    }

    /// Scales every arrival rate by `factor` by dividing inter-arrival
    /// times — `factor` 2.0 doubles the load while keeping the access
    /// pattern identical. Request addresses and sizes are untouched.
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive.
    pub fn scale_rate(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite(), "bad rate factor");
        for r in &mut self.requests {
            r.time = SimTime::from_secs(r.time.as_secs() / factor);
        }
    }
}

/// Stable-sorts `requests` by time without sorting them all.
///
/// A sorted input costs one comparison pass. Otherwise one pass splits the
/// input, from its first late record on, into a non-decreasing spine and
/// the late records (each earlier than the spine's last record when it is
/// read), both in input order; the spine compacts to the front. The late
/// records are stable-sorted, then merged with the spine from the back,
/// in place. On equal times the spine record goes first, which is the
/// stable sort's order: a spine record that ties a late record always
/// precedes it in the input, because every spine record after a late one
/// is at least the running maximum that made it late, which exceeds its
/// time.
fn order_by_time(requests: &mut [VolumeRequest]) {
    if requests.is_sorted_by(|a, b| a.time <= b.time) {
        return;
    }
    let first_late = requests
        .iter()
        .zip(&requests[1..])
        .position(|(a, b)| b.time < a.time)
        .expect("an unsorted slice has a record earlier than its predecessor");
    let mut late = Vec::new();
    let mut spine = first_late + 1;
    for i in first_late + 1..requests.len() {
        let r = requests[i];
        if r.time < requests[spine - 1].time {
            late.push(r);
        } else {
            requests[spine] = r;
            spine += 1;
        }
    }
    late.sort_by_key(|r| r.time);
    let mut back = requests.len();
    while let Some(&r) = late.last() {
        back -= 1;
        if spine > 0 && requests[spine - 1].time > r.time {
            spine -= 1;
            requests[back] = requests[spine];
        } else {
            requests[back] = r;
            late.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, sector: u64) -> VolumeRequest {
        VolumeRequest {
            time: SimTime::from_secs(t),
            sector,
            sectors: 16,
            kind: VolumeIoKind::Read,
        }
    }

    #[test]
    fn from_requests_sorts() {
        let tr = Trace::from_requests(vec![req(3.0, 0), req(1.0, 8), req(2.0, 4)]);
        assert!(tr.is_sorted());
        assert_eq!(tr.requests[0].sector, 8);
        assert_eq!(tr.end_time(), SimTime::from_secs(3.0));
    }

    /// The stable full sort `from_requests` used to run, kept only as the
    /// oracle for its ordering.
    fn oracle(mut requests: Vec<VolumeRequest>) -> Vec<VolumeRequest> {
        requests.sort_by_key(|r| r.time);
        requests
    }

    /// Requests at `times`, tagged with their input position in `sector`
    /// so that any departure from the stable order shows.
    fn at(times: &[f64]) -> Vec<VolumeRequest> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| req(t, i as u64))
            .collect()
    }

    fn assert_orders_like_oracle(times: &[f64], what: &str) {
        let input = at(times);
        let got = Trace::from_requests(input.clone()).requests;
        let want = oracle(input);
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{what} ({} records): position {i} holds {:?}, want {:?}",
                want.len(),
                got[i],
                want[i]
            );
        }
    }

    /// A seeded shape of `n` times: a rising spine with a share of records
    /// pulled back by up to `lag`, on a grid of `step` seconds so that
    /// ties are common.
    fn jittered(rng: &mut simkit::DetRng, n: usize, late: f64, lag: u64, step: f64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| {
                let back = if rng.chance(late) {
                    rng.below(lag + 1)
                } else {
                    0
                };
                i.saturating_sub(back) as f64 * step
            })
            .collect()
    }

    #[test]
    fn from_requests_orders_like_a_stable_sort() {
        let mut rng = simkit::DetRng::new(30, "trace-order");
        assert_orders_like_oracle(&[], "empty");
        assert_orders_like_oracle(&[1.0], "single");
        for n in [2usize, 3, 7, 64, 1_000] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            assert_orders_like_oracle(&sorted, "sorted");
            let reversed: Vec<f64> = sorted.iter().rev().copied().collect();
            assert_orders_like_oracle(&reversed, "reversed");
            assert_orders_like_oracle(&vec![3.0; n], "every time equal");
            for _ in 0..20 {
                let dup: Vec<f64> = (0..n).map(|_| rng.below(4) as f64).collect();
                assert_orders_like_oracle(&dup, "many duplicate times");
                // Runs of three equal times; now and then a burst of up to
                // eight records stamped one or two runs back, tying them.
                let mut burst = (0, 0.0);
                let bursts: Vec<f64> = (0..n)
                    .map(|i| {
                        if burst.0 == 0 && rng.chance(0.05) {
                            burst = (rng.below(8) + 1, (rng.below(2) + 1) as f64);
                        }
                        let t = (i / 3) as f64;
                        if burst.0 > 0 {
                            burst.0 -= 1;
                            (t - burst.1).max(0.0)
                        } else {
                            t
                        }
                    })
                    .collect();
                assert_orders_like_oracle(&bursts, "late bursts with ties");
                let mut clamped = jittered(&mut rng, n, 0.05, 10, 0.25);
                for t in clamped.iter_mut().skip(1) {
                    if rng.chance(0.1) {
                        *t = 0.0; // stamped before the first record
                    }
                }
                assert_orders_like_oracle(&clamped, "records clamped to 0");
                let shuffled: Vec<f64> = (0..n).map(|_| rng.below(n as u64) as f64).collect();
                assert_orders_like_oracle(&shuffled, "random");
            }
        }
    }

    /// 2 M records per shape against the oracle (release: `cargo test
    /// --release -p workload --lib -- --ignored`).
    #[test]
    #[ignore = "2 M-record sweep; run in release"]
    fn from_requests_matches_oracle_on_large_inputs() {
        let mut rng = simkit::DetRng::new(31, "trace-order-sweep");
        let n = 2_000_000;
        for (late, lag, step) in [
            (0.0, 0, 1e-3),
            (0.05, 100, 1e-3),
            (0.5, 5, 1.0),
            (1.0, 2_000_000, 1e-6),
        ] {
            assert_orders_like_oracle(&jittered(&mut rng, n, late, lag, step), "sweep");
        }
    }

    #[test]
    fn byte_and_end_accessors() {
        let r = req(0.0, 100);
        assert_eq!(r.bytes(), 16 * 512);
        assert_eq!(r.end_sector(), 116);
    }

    #[test]
    fn max_sector_covers_extents() {
        let tr = Trace::from_requests(vec![req(0.0, 100), req(1.0, 50)]);
        assert_eq!(tr.max_sector(), 116);
        assert_eq!(Trace::new().max_sector(), 0);
    }

    #[test]
    fn truncate_drops_tail() {
        let mut tr = Trace::from_requests(vec![req(0.5, 0), req(1.5, 0), req(2.5, 0)]);
        tr.truncate_at(SimTime::from_secs(2.0));
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn scale_rate_compresses_time() {
        let mut tr = Trace::from_requests(vec![req(2.0, 0), req(4.0, 0)]);
        tr.scale_rate(2.0);
        assert_eq!(tr.requests[0].time, SimTime::from_secs(1.0));
        assert_eq!(tr.requests[1].time, SimTime::from_secs(2.0));
        assert!(tr.is_sorted());
    }

    #[test]
    fn empty_trace_is_benign() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.end_time(), SimTime::ZERO);
        assert!(tr.is_sorted());
    }
}
