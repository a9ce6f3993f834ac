//! The per-run recording handle.

use crate::sink::EventSink;
use crate::Event;
use simkit::FixedHistogram;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::Scope;

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

/// The simulation side of an enabled recorder.
struct Inner {
    cfg: TelemetryConfig,
    latency_us: FixedHistogram,
    queue_depth: FixedHistogram,
    out: Output,
}

/// Where a recorder's events are serialized.
enum Output {
    /// On the recording thread, as each event is recorded.
    Inline(Writer),
    /// On a writer thread, a batch at a time.
    Thread(Handoff),
}

/// The one serializer: the byte ring plus the logic that keeps a run's
/// header when the ring overflows.
struct Writer {
    sink: EventSink,
    /// True while the ring's oldest line is the header of the run being
    /// recorded: the first event, a `run_start`, with no later one.
    header_in_ring: bool,
    /// That header, once a full ring would have evicted it; it goes back
    /// in front of the stream in [`Writer::into_bytes`].
    header: Vec<u8>,
}

impl Writer {
    fn new(capacity: usize) -> Writer {
        Writer {
            sink: EventSink::new(capacity),
            header_in_ring: false,
            header: Vec::new(),
        }
    }

    fn write(&mut self, ev: &Event) {
        if let Event::RunStart { .. } = ev {
            self.header_in_ring = self.sink.is_empty() && self.sink.dropped() == 0;
        }
        if self.header_in_ring && self.sink.is_full() {
            self.header = self.sink.take_oldest();
            self.header_in_ring = false;
        }
        self.sink.push(ev);
    }

    fn into_bytes(self) -> Vec<u8> {
        let mut bytes = self.sink.into_bytes();
        // Only an overflowed ring held its header out; the common path
        // hands the buffer over without copying it.
        if !self.header.is_empty() {
            bytes.splice(0..0, self.header);
        }
        bytes
    }
}

/// Events the simulation hands a writer thread at a time.
const BATCH: usize = 1024;
/// Full batches that may wait for the writer thread before the
/// simulation blocks on it. With the batch being filled and the one being
/// written, this bounds the events a run holds unwritten.
const QUEUED_BATCHES: usize = 4;
/// Room in the channel that returns emptied batches for every batch but
/// the one being filled. A run allocates a batch only when none has come
/// back, so it holds at most `QUEUED_BATCHES + 3`, and returning one
/// never blocks.
const BATCHES: usize = QUEUED_BATCHES + 2;

/// The recording thread's end of a writer thread.
struct Handoff {
    /// Events recorded since the last full batch went out.
    batch: Vec<Event>,
    /// Full batches to the writer. An empty batch asks for the writer back.
    full: SyncSender<Vec<Event>>,
    /// Written batches coming back empty, for reuse.
    empty: Receiver<Vec<Event>>,
    /// The writer, once every batch before the empty one is written.
    done: Receiver<Writer>,
}

impl Handoff {
    fn push(&mut self, ev: Event) {
        self.batch.push(ev);
        if self.batch.len() == BATCH {
            let spare = self
                .empty
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(BATCH));
            let batch = std::mem::replace(&mut self.batch, spare);
            self.send(batch);
        }
    }

    fn send(&self, batch: Vec<Event>) {
        self.full
            .send(batch)
            .expect("the telemetry writer thread stopped");
    }

    /// Hands over the partial batch, then waits until the writer thread
    /// has written it and returns the writer.
    fn rejoin(&mut self) -> Writer {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.send(batch);
        }
        self.send(Vec::new());
        self.done
            .recv()
            .expect("the telemetry writer thread stopped")
    }
}

/// A writer thread's loop. An empty batch asks for the writer back; a
/// closed channel means the recorder was dropped without handing its
/// stream over (it unwound), and the thread ends, so a scope joining it
/// cannot hang.
fn serve(
    mut writer: Writer,
    full: Receiver<Vec<Event>>,
    empty: SyncSender<Vec<Event>>,
    done: SyncSender<Writer>,
) {
    while let Ok(mut batch) = full.recv() {
        if batch.is_empty() {
            break;
        }
        for ev in batch.drain(..) {
            writer.write(&ev);
        }
        let _ = empty.try_send(batch);
    }
    let _ = done.send(writer);
    // Outlive the recording thread's ends of the channels, so that this
    // thread frees what it allocated for them (see `spawn_writer`).
    while full.recv().is_ok() {}
}

/// The recording handle threaded through the simulation.
///
/// A disabled recorder is a single `None` — every emit path is one branch
/// and never constructs an event (use [`Recorder::emit_with`] on paths
/// where building the event itself would allocate), so the hot path is
/// allocation-free when telemetry is off.
///
/// An enabled recorder keeps the latency and queue-depth histograms on
/// the recording thread and serializes through one writer: inline, or,
/// after [`Recorder::spawn_writer`], on a writer thread fed a batch of
/// events at a time. Either way the writer sees the same events in the
/// same order, so the bytes do not depend on where they were written.
/// Only [`Recorder::spawn_writer`] starts a thread, one per recorder at
/// most, and only a whole solo run (`Simulation::run_returning_policy`)
/// calls it: at most one writer thread per solo simulation in flight.
/// Stepped drivers, the fleet among them, serialize inline and start
/// none.
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.as_deref() {
            None => write!(f, "Recorder(disabled)"),
            Some(Inner {
                cfg,
                out: Output::Inline(w),
                ..
            }) => write!(
                f,
                "Recorder({:?}, {} events, {} dropped)",
                cfg.label,
                w.sink.len() + usize::from(!w.header.is_empty()),
                w.sink.dropped()
            ),
            Some(Inner {
                cfg,
                out: Output::Thread(_),
                ..
            }) => write!(f, "Recorder({:?}, on a writer thread)", cfg.label),
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
                latency_us: FixedHistogram::new(LATENCY_BUCKET_US, LATENCY_BUCKETS),
                queue_depth: FixedHistogram::new(QUEUE_BUCKET, QUEUE_BUCKETS),
                out: Output::Inline(Writer::new(capacity)),
            })),
        }
    }

    /// Moves serialization to a writer thread spawned on `scope`. Later
    /// events go to it in batches; [`Recorder::dropped`] and
    /// [`Recorder::into_stream`] wait for it to write them and take the
    /// writer back. A no-op when disabled or when a writer thread already
    /// runs.
    ///
    /// Memory stays where it was allocated. Call this after the first
    /// event, so that the recording thread allocates the ring's buffer and
    /// glibc's `realloc` grows it in that thread's arena. The channels'
    /// slots are allocated here too, and the writer thread drops its ends
    /// last. A chunk that the writer thread allocated and the recording
    /// thread freed was reused from the recording thread's cache, and
    /// whatever then grew from it by `realloc` stayed in the writer's
    /// arena: +13 MiB of `storm_msr` peak RSS, in memory that no later
    /// allocation on the recording thread reused.
    ///
    /// Dropping the recorder ends the thread, so a scope that owns the
    /// recorder's simulation can unwind through a panic without hanging
    /// on the join.
    ///
    /// # Panics
    /// Panics if the thread cannot be spawned.
    pub fn spawn_writer<'scope>(&mut self, scope: &'scope Scope<'scope, '_>) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if let Output::Thread(_) = inner.out {
            return;
        }
        let (full, full_rx) = sync_channel(QUEUED_BATCHES);
        let (empty_tx, empty) = sync_channel(BATCHES);
        let (done_tx, done) = sync_channel(1);
        let handoff = Output::Thread(Handoff {
            batch: Vec::with_capacity(BATCH),
            full,
            empty,
            done,
        });
        let Output::Inline(writer) = std::mem::replace(&mut inner.out, handoff) else {
            unreachable!("checked above");
        };
        std::thread::Builder::new()
            .name("telemetry-writer".into())
            .spawn_scoped(scope, move || serve(writer, full_rx, empty_tx, done_tx))
            .expect("spawn the telemetry writer thread");
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
    /// header is not counted: it was never lost. A writer thread first
    /// writes every event recorded so far and hands the writer back, so
    /// later events are serialized inline.
    pub fn dropped(&mut self) -> u64 {
        self.inner
            .as_deref_mut()
            .map_or(0, |i| i.writer().sink.dropped())
    }

    /// Hands over the captured stream, consuming the recorder. Returns
    /// `None` when disabled. A writer thread first writes every event.
    pub fn into_stream(self) -> Option<RunStream> {
        let Inner { cfg, out, .. } = *self.inner?;
        let writer = match out {
            Output::Inline(w) => w,
            Output::Thread(mut h) => h.rejoin(),
        };
        Some(RunStream {
            label: cfg.label,
            bytes: writer.into_bytes(),
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
        match &mut self.out {
            Output::Inline(w) => w.write(&ev),
            Output::Thread(h) => h.push(ev),
        }
    }

    /// The writer, back on this thread if a writer thread had it.
    fn writer(&mut self) -> &mut Writer {
        if let Output::Thread(h) = &mut self.out {
            self.out = Output::Inline(h.rejoin());
        }
        match &mut self.out {
            Output::Inline(w) => w,
            Output::Thread(_) => unreachable!("rejoined above"),
        }
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

    // The same events through a writer thread, across batch boundaries,
    // with and without an overflowing ring: the same bytes and the same
    // drop count as inline, and the thread hands the writer back.
    #[test]
    fn a_writer_thread_writes_the_inline_bytes() {
        let evs = run("b", 3 * BATCH as u32 + 5, 0);
        for capacity in [evs.len(), 700] {
            let mut inline = capped(capacity);
            let mut threaded = capped(capacity);
            std::thread::scope(|s| {
                inline.emit(evs[0].clone());
                threaded.emit(evs[0].clone());
                threaded.spawn_writer(s);
                assert!(format!("{threaded:?}").contains("on a writer thread"));
                for ev in &evs[1..] {
                    inline.emit(ev.clone());
                    threaded.emit(ev.clone());
                }
                assert_eq!(threaded.dropped(), inline.dropped());
                assert!(format!("{threaded:?}").contains("dropped"));
            });
            let inline = inline.into_stream().unwrap().bytes;
            assert_eq!(threaded.into_stream().unwrap().bytes, inline);
        }
    }
}
