//! Streaming trace sources.
//!
//! A [`TraceSource`] is a pull-based, deterministic request iterator: the
//! simulation asks for one request at a time and never sees (or pays for)
//! a materialised [`Trace`] vector. Week-long horizons then run in O(1)
//! trace memory, and the fleet driver can feed N arrays from one shared
//! trace without cloning it per array.
//!
//! The sources:
//!
//! * [`TraceCursor`] — walks a borrowed materialised [`Trace`] (the
//!   adapter that makes every existing trace streamable);
//! * [`SpecStream`] — regenerates a [`WorkloadSpec`]'s synthetic trace
//!   lazily, bit-identical to [`WorkloadSpec::generate`] (locked down by
//!   `tests/stream_equivalence.rs`);
//! * [`Counted`] — a transparent wrapper exposing how many requests
//!   flowed through, for bounded-memory assertions;
//! * the scenario combinators in [`crate::scenario`] and the per-array
//!   [`crate::tenants::ShardStream`], which reads only its own array's
//!   requests from a shared trace routed once by a
//!   [`crate::tenants::ShardIndex`].
//!
//! # The two-pass RNG trick
//!
//! [`WorkloadSpec::generate`] draws *every* raw arrival from the
//! `arrivals` RNG stream before drawing the first diurnal thinning
//! chance from that same stream. A lazy generator cannot reorder those
//! draws without changing every bit downstream, so [`SpecStream`] clones
//! the arrivals RNG at construction and runs the raw-arrival recurrence
//! on the clone once, discarding the times — an O(duration × rate) *time*
//! pass with O(1) memory — leaving the clone exactly where the batch
//! path's thinning draws begin. Streaming then re-derives each raw
//! arrival from the original RNG and each thinning chance from the
//! advanced clone, reproducing the batch draw order exactly.

use crate::arrivals::{DiurnalProfile, Mmpp2, Poisson};
use crate::generator::{ArrivalModel, SizeMix, WorkloadSpec};
use crate::popularity::{SequentialRuns, ZipfExtents};
use crate::request::{Trace, VolumeIoKind, VolumeRequest};
use simkit::{DetRng, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pull-based, deterministic, bounded-memory request source.
///
/// Contract: successive [`TraceSource::next_request`] calls yield
/// requests with nondecreasing `time` until the source is exhausted
/// (`None` thereafter). Sources are `Send` so simulations holding them
/// can cross worker threads.
pub trait TraceSource: Send {
    /// Pulls the next request, or `None` when the source is exhausted.
    fn next_request(&mut self) -> Option<VolumeRequest>;

    /// Total number of requests this source will yield, when cheaply
    /// known up front. Consumers may use it only for allocation sizing —
    /// never for behavior — so `None` is always a correct answer.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        (**self).next_request()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

/// Drains a source into a materialised [`Trace`] (sorted defensively,
/// though a law-abiding source is already in time order).
pub fn collect_trace(mut source: impl TraceSource) -> Trace {
    let mut requests = Vec::with_capacity(source.len_hint().unwrap_or(0));
    while let Some(r) = source.next_request() {
        requests.push(r);
    }
    Trace::from_requests(requests)
}

/// A [`TraceSource`] over a borrowed materialised [`Trace`].
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    /// A cursor at the start of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        TraceCursor { trace, pos: 0 }
    }
}

impl TraceSource for TraceCursor<'_> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        let r = self.trace.requests.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        r
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.len())
    }
}

/// A transparent wrapper counting the requests that flow through a
/// source, observable from outside the simulation that consumed it.
/// The bounded-memory acceptance test wraps a week-long [`SpecStream`]
/// in one to prove millions of requests streamed through while the
/// simulation buffered at most one.
pub struct Counted<S> {
    inner: S,
    count: Arc<AtomicU64>,
}

impl<S: TraceSource> Counted<S> {
    /// Wraps `inner`; the returned counter tracks pulled requests.
    pub fn new(inner: S) -> (Self, Arc<AtomicU64>) {
        let count = Arc::new(AtomicU64::new(0));
        (
            Counted {
                inner,
                count: Arc::clone(&count),
            },
            count,
        )
    }
}

impl<S: TraceSource> TraceSource for Counted<S> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        let r = self.inner.next_request();
        if r.is_some() {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// Lazy raw-arrival recurrence: the exact draw sequences of
/// [`Poisson::arrivals`] and [`Mmpp2::arrivals`], one step per call.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalStream {
    horizon_s: f64,
    t: f64,
    done: bool,
    kind: ArrivalKind,
}

#[derive(Debug, Clone)]
enum ArrivalKind {
    Poisson {
        rate: f64,
    },
    Mmpp {
        process: Mmpp2,
        in_burst: bool,
        state_end: f64,
    },
}

impl ArrivalStream {
    /// Builds the stream, consuming from `rng` exactly the draws the
    /// batch generators consume before their arrival loop (the MMPP
    /// initial-state chance and first dwell).
    pub(crate) fn new(
        model: ArrivalModel,
        peak_mult: f64,
        rng: &mut DetRng,
        horizon_s: f64,
    ) -> Self {
        let kind = match model {
            ArrivalModel::Poisson { rate } => ArrivalKind::Poisson {
                rate: Poisson::new(rate * peak_mult).rate,
            },
            ArrivalModel::Mmpp {
                rate_quiet,
                rate_burst,
                mean_quiet_s,
                mean_burst_s,
            } => {
                let process = Mmpp2::new(
                    rate_quiet * peak_mult,
                    rate_burst * peak_mult,
                    mean_quiet_s,
                    mean_burst_s,
                );
                // Mirrors the preamble of `Mmpp2::arrivals` draw for draw.
                let in_burst = rng
                    .chance(process.mean_burst_s / (process.mean_quiet_s + process.mean_burst_s));
                let state_end = rng.exponential(if in_burst {
                    1.0 / process.mean_burst_s
                } else {
                    1.0 / process.mean_quiet_s
                });
                ArrivalKind::Mmpp {
                    process,
                    in_burst,
                    state_end,
                }
            }
        };
        ArrivalStream {
            horizon_s,
            t: 0.0,
            done: false,
            kind,
        }
    }

    /// The next raw arrival time, or `None` once the horizon is crossed.
    /// Draw-for-draw identical to the batch generators' loop bodies.
    pub(crate) fn next(&mut self, rng: &mut DetRng) -> Option<f64> {
        if self.done {
            return None;
        }
        match &mut self.kind {
            ArrivalKind::Poisson { rate } => {
                self.t += rng.exponential(*rate);
                if self.t >= self.horizon_s {
                    self.done = true;
                    return None;
                }
                Some(self.t)
            }
            ArrivalKind::Mmpp {
                process,
                in_burst,
                state_end,
            } => loop {
                self.t += rng.exponential(process.rate_burst);
                if self.t >= self.horizon_s {
                    self.done = true;
                    return None;
                }
                while self.t >= *state_end {
                    *in_burst = !*in_burst;
                    *state_end += rng.exponential(if *in_burst {
                        1.0 / process.mean_burst_s
                    } else {
                        1.0 / process.mean_quiet_s
                    });
                }
                let rate_now = if *in_burst {
                    process.rate_burst
                } else {
                    process.rate_quiet
                };
                if rng.chance(rate_now / process.rate_burst) {
                    return Some(self.t);
                }
            },
        }
    }
}

/// A [`TraceSource`] regenerating a [`WorkloadSpec`]'s synthetic trace
/// lazily — the same requests, in the same order, with the same bits, as
/// [`WorkloadSpec::generate`], without ever materialising them. Resident
/// state is the O(extents) popularity table plus a handful of RNGs.
///
/// # Examples
/// ```
/// use workload::{collect_trace, WorkloadSpec};
///
/// let spec = WorkloadSpec::oltp(30.0, 20.0);
/// assert_eq!(
///     collect_trace(spec.stream(7)).requests,
///     spec.generate(7).requests,
/// );
/// ```
pub struct SpecStream {
    arrivals: ArrivalStream,
    arr_rng: DetRng,
    /// Diurnal thinning: the profile plus the arrivals RNG advanced past
    /// every raw draw (the two-pass trick in the module docs).
    thin: Option<(DiurnalProfile, DetRng)>,
    pop_rng: DetRng,
    mix_rng: DetRng,
    zipf: ZipfExtents,
    seq: SequentialRuns,
    sizes: SizeMix,
    read_fraction: f64,
}

impl SpecStream {
    /// Builds the stream for `(spec, seed)`; equivalent to (and
    /// usually reached via) [`WorkloadSpec::stream`].
    ///
    /// # Panics
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: &WorkloadSpec, seed: u64) -> SpecStream {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec {:?}: {e}", spec.name);
        }
        let mut root = DetRng::new(seed, &format!("workload-{}", spec.name));
        let mut arr_rng = root.split("arrivals");
        let mut pop_rng = root.split("popularity");
        let mix_rng = root.split("mix");

        let profile = spec.diurnal.map(DiurnalProfile::new);
        let peak_mult = profile.as_ref().map_or(1.0, DiurnalProfile::peak);

        let (arrivals, thin) = match profile {
            None => (
                ArrivalStream::new(spec.arrivals, peak_mult, &mut arr_rng, spec.duration_s),
                None,
            ),
            Some(p) => {
                // Advance a clone past every raw-arrival draw: afterwards
                // it sits exactly where the batch path starts thinning.
                let mut thin_rng = arr_rng.clone();
                let mut advance =
                    ArrivalStream::new(spec.arrivals, peak_mult, &mut thin_rng, spec.duration_s);
                while advance.next(&mut thin_rng).is_some() {}
                let arrivals =
                    ArrivalStream::new(spec.arrivals, peak_mult, &mut arr_rng, spec.duration_s);
                (arrivals, Some((p, thin_rng)))
            }
        };

        let zipf = ZipfExtents::new(
            &mut pop_rng,
            spec.extents,
            spec.extent_sectors,
            spec.zipf_theta,
        );
        let seq = SequentialRuns::new(spec.sequential_fraction, zipf.footprint_sectors());
        SpecStream {
            arrivals,
            arr_rng,
            thin,
            pop_rng,
            mix_rng,
            zipf,
            seq,
            sizes: spec.sizes.clone(),
            read_fraction: spec.read_fraction,
        }
    }
}

impl TraceSource for SpecStream {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        loop {
            let t = self.arrivals.next(&mut self.arr_rng)?;
            if let Some((profile, thin_rng)) = &mut self.thin {
                if !thin_rng.chance(profile.multiplier(t) / profile.peak()) {
                    continue;
                }
            }
            let sectors = self.sizes.sample(&mut self.mix_rng);
            let random = self.zipf.sample_sector(&mut self.pop_rng, sectors);
            let sector = self.seq.choose(&mut self.mix_rng, random, sectors);
            let kind = if self.mix_rng.chance(self.read_fraction) {
                VolumeIoKind::Read
            } else {
                VolumeIoKind::Write
            };
            return Some(VolumeRequest {
                time: SimTime::from_secs(t),
                sector,
                sectors,
                kind,
            });
        }
    }
}

// Streaming sources cross worker threads inside simulations.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SpecStream>();
    assert_send::<TraceCursor<'static>>();
    assert_send::<Counted<SpecStream>>();
    assert_send::<Box<dyn TraceSource>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The one property everything else leans on: stream == generate,
    /// bit for bit, across both presets (Poisson/flat and MMPP/diurnal).
    #[test]
    fn stream_matches_generate_bit_for_bit() {
        for seed in [1u64, 7, 42] {
            let oltp = WorkloadSpec::oltp(600.0, 40.0);
            assert_eq!(
                collect_trace(oltp.stream(seed)).requests,
                oltp.generate(seed).requests,
                "oltp seed {seed}"
            );
            let cello = WorkloadSpec::cello_like(3600.0, 30.0);
            assert_eq!(
                collect_trace(cello.stream(seed)).requests,
                cello.generate(seed).requests,
                "cello seed {seed}"
            );
        }
    }

    #[test]
    fn stream_matches_generate_with_diurnal_poisson() {
        // Diurnal shaping over Poisson arrivals exercises the two-pass
        // trick on the simpler recurrence.
        let mut spec = WorkloadSpec::oltp(7200.0, 20.0);
        spec.diurnal = Some(crate::generator::to_hourly(
            DiurnalProfile::office_with_backup(),
        ));
        assert_eq!(
            collect_trace(spec.stream(11)).requests,
            spec.generate(11).requests
        );
    }

    #[test]
    fn cursor_replays_a_trace_exactly() {
        let trace = WorkloadSpec::oltp(30.0, 20.0).generate(3);
        let cursor = TraceCursor::new(&trace);
        assert_eq!(cursor.len_hint(), Some(trace.len()));
        assert_eq!(collect_trace(cursor).requests, trace.requests);
    }

    #[test]
    fn counted_counts_every_pull() {
        let spec = WorkloadSpec::oltp(30.0, 20.0);
        let n = spec.generate(5).len() as u64;
        let (counted, counter) = Counted::new(spec.stream(5));
        let collected = collect_trace(counted);
        assert_eq!(collected.len() as u64, n);
        assert_eq!(counter.load(Ordering::Relaxed), n);
    }

    #[test]
    fn exhausted_stream_stays_exhausted() {
        let mut s = WorkloadSpec::oltp(5.0, 2.0).stream(9);
        while s.next_request().is_some() {}
        for _ in 0..4 {
            assert!(s.next_request().is_none());
        }
    }

    #[test]
    fn stream_times_are_nondecreasing() {
        let mut s = WorkloadSpec::cello_like(7200.0, 25.0).stream(13);
        let mut last = SimTime::ZERO;
        while let Some(r) = s.next_request() {
            assert!(r.time >= last, "{:?} < {last:?}", r.time);
            last = r.time;
        }
    }

    #[test]
    fn zero_rate_hours_neither_hang_nor_disorder() {
        // A profile that is zero for most of the day: the generator must
        // skip the dead hours without stalling and stay monotone.
        let mut h = [0.0; 24];
        h[12] = 1.0; // a single live hour
        let mut spec = WorkloadSpec::oltp(86_400.0, 5.0);
        spec.diurnal = Some(h);
        let streamed = collect_trace(spec.stream(21));
        assert_eq!(streamed.requests, spec.generate(21).requests);
        assert!(streamed.is_sorted());
        assert!(!streamed.is_empty(), "the live hour must produce requests");
        // Linear interpolation keeps rate nonzero only around hour 12.
        assert!(streamed
            .requests
            .iter()
            .all(|r| (11.0 * 3600.0..14.0 * 3600.0).contains(&r.time.as_secs())));
    }

    #[test]
    fn single_request_stream_is_well_behaved() {
        // A horizon short enough that roughly one request fits: pulls
        // must terminate and match the batch path whatever the count.
        let spec = WorkloadSpec::oltp(0.2, 5.0);
        for seed in 0..20 {
            let streamed = collect_trace(spec.stream(seed));
            assert_eq!(streamed.requests, spec.generate(seed).requests);
        }
    }

    #[test]
    fn empty_horizon_stream_is_empty() {
        let spec = WorkloadSpec::oltp(0.0, 5.0);
        assert!(collect_trace(spec.stream(3)).is_empty());
        assert!(spec.generate(3).is_empty());
    }
}
