//! # telemetry — deterministic structured observability
//!
//! The abstract's core claim — energy savings *while meeting a
//! response-time goal* — is only checkable if a run can explain why the
//! planner chose its tiers, when the guard boosted, and what each
//! migration cost. This crate provides the machinery:
//!
//! * [`Event`] — the typed vocabulary of decision points: epoch plans,
//!   speed transitions, migration starts/commits/aborts, guard boosts,
//!   fault injections, served requests, power samples, and end-of-run
//!   summaries.
//! * [`Recorder`] — the handle the simulator threads through its state. A
//!   disabled recorder is a single `None`: every emit is one branch and no
//!   event is ever constructed, so the hot path stays allocation-free when
//!   telemetry is off. Enabled, it serializes each event into a bounded
//!   ring of JSON lines with a dropped-line counter, with the same
//!   hand-rolled shortest round-trip float formatting the workload trace
//!   persistence uses, so a run holds its stream as bytes and hands it
//!   over without a second pass. A whole solo run does that serialization
//!   on one writer thread, fed batches of events; a stepped run does it
//!   inline. The bytes are the same.
//! * Fixed-bucket latency and queue-depth histograms
//!   (`simkit::FixedHistogram`), updated inline as events are recorded and
//!   reported in the run's trailer.
//! * [`audit`] — a replay auditor that types each line with
//!   [`Event::parse_jsonl`] (the exact inverse of `write_jsonl`), feeds it
//!   to an incremental [`audit::Auditor`], re-derives energy totals, power
//!   integrals, migration concurrency, dead-disk service, and the
//!   goal-violation fraction from the replayed events, and reconciles them
//!   against the stream's own trailer. It reads a stream one line at a
//!   time, so its memory does not grow with the stream.
//!
//! Determinism: events are recorded by a single simulation thread in
//! simulation-time order, and the harness flushes per-run streams sorted
//! by label, so a stream file is byte-identical for any `--jobs` value —
//! the same discipline `crates/parallel` enforces for CSV output.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
mod event;
mod recorder;
mod sink;

pub use event::{BoostReason, CacheOp, Event, MoveKind, Tier, TransitionReason, STANDBY};
pub use recorder::{Recorder, RunStream, TelemetryConfig};
