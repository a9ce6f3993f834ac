//! # array — the disk-array substrate
//!
//! Glues [`diskmodel`] spindles into a logical volume and drives the whole
//! thing through a deterministic discrete-event simulation:
//!
//! * [`ArrayConfig`] / [`DiskId`] / [`ChunkId`] — configuration and ids;
//! * [`RemapTable`] — the chunk → (disk, slot) placement bijection,
//!   initially striped, reshaped by migration;
//! * [`HeatMap`] — per-chunk decaying access temperatures (shared by every
//!   placement-aware policy);
//! * [`MigrationEngine`] / [`MigrationJob`] — background copies that yield
//!   to foreground I/O and commit (or abort, on concurrent writes) the
//!   remap update atomically;
//! * [`PowerPolicy`] / [`ArrayState`] — the interface every
//!   energy-management scheme implements, with [`BasePolicy`] as the
//!   no-management reference;
//! * [`Simulation`] / [`run_policy`] — the event-driven driver producing a
//!   [`RunReport`] (energy ledger, response-time statistics, time series).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod heat;
mod migration;
mod policy;
mod remap;
mod sim;
mod stats;
mod types;

pub use heat::{HeatMap, RankScratch};
pub use migration::{
    MigrationEngine, MigrationJob, MigrationRecord, MigrationRecordKind, MigrationStats,
    PIECE_SECTORS,
};
pub use policy::{ArrayState, BasePolicy, PowerPolicy, WakeMarks};
pub use remap::{Placement, RemapTable};
pub use sim::{run_policy, run_policy_streamed, RunOptions, RunReport, Simulation, TenantShards};
pub use stats::ArrayStats;
pub use types::{ArrayConfig, ChunkId, DiskId, Redundancy};
