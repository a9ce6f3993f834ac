//! The per-run recording handle.

use crate::{Event, EventSink};
use simkit::FixedHistogram;

/// Latency histogram layout: 2 ms buckets spanning 0–200 ms.
const LATENCY_BUCKET_US: f64 = 2_000.0;
const LATENCY_BUCKETS: usize = 100;
/// Queue-depth histogram layout: unit buckets spanning 0–63.
const QUEUE_BUCKET: f64 = 1.0;
const QUEUE_BUCKETS: usize = 64;

/// How a run's telemetry is captured.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Deterministic run label embedded in the stream header; streams are
    /// later flushed sorted, so the label must uniquely identify the run.
    pub label: String,
    /// Response-time goal used for goal-violation accounting
    /// (`f64::MAX` for unmanaged runs — nothing ever violates).
    pub goal_s: f64,
    /// Warm-up cutoff: series buckets starting before this are excluded
    /// from the violation fraction, mirroring the T4 convention.
    pub warmup_s: f64,
    /// Ring-buffer capacity in events. A run's `run_start` header is held
    /// outside the ring once the ring is full, so it is never evicted.
    pub capacity: usize,
}

impl TelemetryConfig {
    /// A config with the default capacity, no goal, and no warm-up.
    pub fn new(label: impl Into<String>) -> Self {
        TelemetryConfig {
            label: label.into(),
            goal_s: f64::MAX,
            warmup_s: 0.0,
            capacity: 4_000_000,
        }
    }

    /// Sets the goal and warm-up used for violation accounting.
    pub fn with_goal(mut self, goal_s: f64, warmup_s: f64) -> Self {
        self.goal_s = goal_s;
        self.warmup_s = warmup_s;
        self
    }
}

/// A serialized per-run stream plus the label it sorts under.
#[derive(Debug, Clone)]
pub struct RunStream {
    /// The run's deterministic label (also in the stream's header line).
    pub label: String,
    /// The JSON-lines bytes of the full stream.
    pub bytes: Vec<u8>,
}

struct Inner {
    cfg: TelemetryConfig,
    sink: EventSink,
    /// True while the ring's oldest line is the header of the run being
    /// recorded: the first event, a `run_start`, with no later one.
    header_in_ring: bool,
    /// That header, once a full ring would have evicted it; it goes back
    /// in front of the stream in [`Recorder::into_stream`].
    header: Vec<u8>,
    latency_us: FixedHistogram,
    queue_depth: FixedHistogram,
}

/// The recording handle threaded through the simulation.
///
/// A disabled recorder is a single `None` — every emit path is one branch
/// and never constructs an event (use [`Recorder::emit_with`] on paths
/// where building the event itself would allocate), so the hot path is
/// allocation-free when telemetry is off.
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(i) => write!(
                f,
                "Recorder({:?}, {} events, {} dropped)",
                i.cfg.label,
                i.sink.len() + usize::from(!i.header.is_empty()),
                i.sink.dropped()
            ),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder capturing into a fresh ring buffer.
    pub fn new(cfg: TelemetryConfig) -> Recorder {
        let capacity = cfg.capacity;
        Recorder {
            inner: Some(Box::new(Inner {
                cfg,
                sink: EventSink::new(capacity),
                header_in_ring: false,
                header: Vec::new(),
                latency_us: FixedHistogram::new(LATENCY_BUCKET_US, LATENCY_BUCKETS),
                queue_depth: FixedHistogram::new(QUEUE_BUCKET, QUEUE_BUCKETS),
            })),
        }
    }

    /// True when events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The capture config, when enabled.
    pub fn config(&self) -> Option<&TelemetryConfig> {
        self.inner.as_deref().map(|i| &i.cfg)
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, ev: Event) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record(ev);
        }
    }

    /// Records the event built by `f`, constructing it only when enabled.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> Event) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record(f());
        }
    }

    /// Samples a queue depth into the fixed histogram (no-op when
    /// disabled).
    #[inline]
    pub fn record_queue_depth(&mut self, depth: f64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.queue_depth.record(depth);
        }
    }

    /// The latency histogram, when enabled.
    pub fn latency_hist(&self) -> Option<&FixedHistogram> {
        self.inner.as_deref().map(|i| &i.latency_us)
    }

    /// The queue-depth histogram, when enabled.
    pub fn queue_hist(&self) -> Option<&FixedHistogram> {
        self.inner.as_deref().map(|i| &i.queue_depth)
    }

    /// Events evicted from the ring so far (0 when disabled). A held
    /// header is not counted: it was never lost.
    pub fn dropped(&self) -> u64 {
        self.inner.as_deref().map(|i| i.sink.dropped()).unwrap_or(0)
    }

    /// Hands over the captured stream, consuming the recorder. Returns
    /// `None` when disabled.
    pub fn into_stream(self) -> Option<RunStream> {
        let inner = self.inner?;
        let mut bytes = inner.sink.into_bytes();
        // Only an overflowed ring held its header out; the common path
        // hands the buffer over without copying it.
        if !inner.header.is_empty() {
            bytes.splice(0..0, inner.header);
        }
        Some(RunStream {
            label: inner.cfg.label,
            bytes,
        })
    }
}

impl Inner {
    fn record(&mut self, ev: Event) {
        // Every completion — disk-served or a DRAM cache hit — counts in
        // the latency histogram the run_end trailer reports.
        if let Event::RequestServed { latency_us, .. } | Event::CacheHit { latency_us, .. } = &ev {
            self.latency_us.record(*latency_us);
        }
        if let Event::RunStart { .. } = ev {
            self.header_in_ring = self.sink.is_empty() && self.sink.dropped() == 0;
        }
        if self.header_in_ring && self.sink.is_full() {
            self.header = self.sink.take_oldest();
            self.header_in_ring = false;
        }
        self.sink.push(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_bytes;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        r.emit(Event::PowerSample {
            time_s: 1.0,
            watts: 10.0,
        });
        r.record_queue_depth(3.0);
        assert!(!r.is_enabled());
        assert_eq!(r.dropped(), 0);
        assert!(r.latency_hist().is_none());
        assert!(r.into_stream().is_none());
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let mut r = Recorder::disabled();
        let mut built = false;
        r.emit_with(|| {
            built = true;
            Event::PowerSample {
                time_s: 0.0,
                watts: 0.0,
            }
        });
        assert!(!built);
    }

    #[test]
    fn histograms_track_completions() {
        let mut r = Recorder::new(TelemetryConfig::new("test"));
        r.emit(Event::RequestServed {
            time_s: 1.0,
            latency_us: 4500.0,
            disk: 0,
            tier: 5,
        });
        r.emit(Event::CacheHit {
            time_s: 1.5,
            latency_us: 100.0,
            op: crate::CacheOp::Read,
        });
        r.emit(Event::GuardBoost {
            time_s: 2.0,
            entered: true,
            reason: crate::BoostReason::Latency,
        });
        r.record_queue_depth(2.0);
        let lat = r.latency_hist().unwrap();
        assert_eq!(lat.count(), 2, "disk serves and DRAM hits, not boosts");
        assert_eq!(lat.counts()[0], 1); // 100 us -> bucket 0
        assert_eq!(lat.counts()[2], 1); // 4500 us -> bucket 2
        assert_eq!(r.queue_hist().unwrap().counts()[2], 1);
        let stream = r.into_stream().unwrap();
        assert_eq!(stream.label, "test");
        assert_eq!(
            std::str::from_utf8(&stream.bytes).unwrap().lines().count(),
            3
        );
    }

    /// A header, `served` completions and a trailer claiming `dropped`.
    fn run(label: &str, served: u32, dropped: u64) -> Vec<Event> {
        let mut evs = vec![Event::RunStart {
            time_s: 0.0,
            label: label.into(),
            disks: 1,
            levels: 2,
            horizon_s: 10.0,
            migration_inflight: 1,
            sample_interval_s: 10.0,
            series_bucket_s: 10.0,
            goal_s: f64::MAX,
            warmup_s: 0.0,
            seed: 1,
        }];
        for i in 0..served {
            evs.push(Event::RequestServed {
                time_s: f64::from(i) * 0.01,
                latency_us: 1000.0 + f64::from(i) / 3.0,
                disk: 0,
                tier: 1,
            });
        }
        evs.push(Event::RunSummary {
            time_s: 10.0,
            total_j: 0.0,
            energy_j: [0.0; 6],
            completed: u64::from(served),
            incomplete: 0,
            transitions: 0,
            mean_response_s: 0.001,
            violation: 0.0,
            latency_hist: vec![],
            latency_overflow: u64::from(served),
            queue_hist: vec![],
            queue_overflow: 0,
            moved: 0,
            remap_version: 0,
            dropped,
        });
        evs
    }

    fn capped(capacity: usize) -> Recorder {
        Recorder::new(TelemetryConfig {
            capacity,
            ..TelemetryConfig::new("b")
        })
    }

    // Two runs through one ring sized for the second: the first run is
    // evicted line by line, the survivors are byte-identical to the tail
    // of an uncapped capture, and the auditor flags the trailer's drop.
    #[test]
    fn overflowing_ring_keeps_the_newest_lines_and_reports_the_drop() {
        let evicted = run("a", 5, 0);
        let kept = run("b", 40, evicted.len() as u64);
        let mut small = capped(kept.len());
        let mut full = Recorder::new(TelemetryConfig::new("b"));
        for ev in evicted.iter().chain(&kept) {
            small.emit(ev.clone());
            full.emit(ev.clone());
        }
        assert_eq!(small.dropped(), evicted.len() as u64);
        assert_eq!(full.dropped(), 0);

        let full = full.into_stream().unwrap().bytes;
        let tail: String = std::str::from_utf8(&full)
            .unwrap()
            .lines()
            .skip(evicted.len())
            .map(|l| format!("{l}\n"))
            .collect();
        let got = small.into_stream().unwrap().bytes;
        assert_eq!(std::str::from_utf8(&got).unwrap(), tail);

        let out = audit_bytes(&got).expect("the surviving run parses");
        assert_eq!(out.runs.len(), 1);
        let shape = &out.runs[0].checks[0];
        assert_eq!(shape.name, "stream-shape");
        assert!(!shape.passed);
        assert!(shape.detail.contains("events dropped"), "{}", shape.detail);
    }

    // A single run that overflows keeps its header: the ring evicts the
    // oldest lines after it, `dropped` counts only those, and the auditor
    // reads the run and fails it for the drop the trailer reports.
    #[test]
    fn a_run_that_overflows_keeps_its_header_and_reports_the_drop() {
        let evs = run("b", 20, 3);
        let mut r = capped(evs.len() - 4);
        let mut full = Recorder::new(TelemetryConfig::new("b"));
        for ev in evs {
            r.emit(ev.clone());
            full.emit(ev);
        }
        assert_eq!(r.dropped(), 3, "the header is held, not dropped");

        let full = full.into_stream().unwrap().bytes;
        let lines: Vec<&str> = std::str::from_utf8(&full).unwrap().lines().collect();
        let want: String = lines[..1]
            .iter()
            .chain(&lines[4..])
            .map(|l| format!("{l}\n"))
            .collect();
        let bytes = r.into_stream().unwrap().bytes;
        assert_eq!(std::str::from_utf8(&bytes).unwrap(), want);

        let out = audit_bytes(&bytes).expect("the headed run parses");
        assert_eq!(out.runs.len(), 1);
        let shape = &out.runs[0].checks[0];
        assert_eq!(shape.name, "stream-shape");
        assert!(!shape.passed);
        assert!(shape.detail.contains("events dropped"), "{}", shape.detail);
    }
}
