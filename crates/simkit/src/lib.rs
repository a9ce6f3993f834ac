//! # simkit — discrete-event simulation substrate
//!
//! The foundation layer of the Hibernator reproduction. Every other crate in
//! the workspace builds on these primitives:
//!
//! * **Time** — [`SimTime`] / [`SimDuration`], a NaN-free, totally ordered
//!   simulated timeline in seconds.
//! * **Events** — [`EventQueue`], a deterministic priority queue with FIFO
//!   tie-breaking so simulations replay bit-identically.
//! * **Slabs** — [`Slab`], a free-list arena whose slot indices double as
//!   the ids of in-flight records (request pieces with their retry counts,
//!   pending volumes, migration jobs and their copy pieces), so no
//!   per-request map hashes or grows past peak concurrency.
//! * **Randomness** — [`DetRng`], labelled deterministic random streams
//!   derived from one experiment seed.
//! * **Statistics** — [`Moments`], [`LatencyHistogram`], [`FixedHistogram`],
//!   [`SlidingWindow`], [`TimeWeighted`], [`Ewma`], [`TimeSeries`].
//! * **Energy** — [`EnergyLedger`] with per-[`EnergyComponent`] attribution.
//! * **Text** — [`text::push_f64`], the byte-level shortest round-trip
//!   float writer (identical to `{:?}`) behind every stream and trace
//!   writer, with its integer companions.
//!
//! Nothing in this crate knows about disks or power policies; it is a
//! general-purpose toolkit kept small enough to verify exhaustively.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod energy;
mod events;
mod ladder;
mod rng;
mod series;
mod slab;
mod stats;
pub mod text;
mod time;

pub use energy::{EnergyComponent, EnergyLedger};
pub use events::EventQueue;
pub use rng::DetRng;
pub use series::{SeriesBucket, TimeSeries};
pub use slab::Slab;
pub use stats::{Ewma, FixedHistogram, LatencyHistogram, Moments, SlidingWindow, TimeWeighted};
pub use time::{SimDuration, SimTime};
