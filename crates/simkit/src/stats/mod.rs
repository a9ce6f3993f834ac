//! Online statistics used throughout the simulator.
//!
//! * [`Moments`] — streaming mean/variance/`E[X²]` (feeds the M/G/1 model).
//! * [`LatencyHistogram`] — geometric-bucket percentiles for latency CDFs.
//! * [`FixedHistogram`] — linear-bucket counts with reproducible layout
//!   (telemetry latency/queue-depth histograms).
//! * [`SlidingWindow`] — trailing-time-window mean (the performance guard).
//! * [`TimeWeighted`] — integrals of piecewise-constant signals (energy,
//!   queue depth).
//! * [`Ewma`] — exponential forgetting (temperatures).

mod ewma;
mod fixed;
mod histogram;
mod moments;
mod timeweighted;
mod window;

pub use ewma::Ewma;
pub use fixed::FixedHistogram;
pub use histogram::LatencyHistogram;
pub use moments::Moments;
pub use timeweighted::TimeWeighted;
pub use window::SlidingWindow;
