//! # policies — the baseline energy-management schemes
//!
//! Faithful reimplementations (from their own papers' descriptions) of the
//! comparison points the Hibernator evaluation runs against:
//!
//! * [`FixedSpeed`] — every disk pinned at one level (sanity brackets);
//! * [`TpmPolicy`] — per-disk threshold spin-down to standby, with the
//!   competitive (break-even) threshold by default;
//! * [`DrpmPolicy`] — per-disk fine-grained RPM modulation with a global
//!   response-degradation valve (Gurumurthi et al., ISCA 2003);
//! * [`PdcPolicy`] — Popular Data Concentration: periodic popularity
//!   ranking packs hot data onto the first disks so TPM can sleep the rest
//!   (Pinheiro & Bianchini, ICS 2004);
//! * [`MaidPolicy`] — cache disks shield data disks, which run TPM
//!   (Colarelli & Grunwald, SC 2002).
//!
//! Alongside the baselines live the pluggable **migration policies** for
//! the Hibernator host (implementations of
//! [`hibernator::MigrationPolicy`], see `DESIGN.md` §17). Each one only
//! ranks chunks; the host plans every round itself through
//! [`hibernator::GraceTracker::plan_round`], so grace, in-flight dedupe,
//! thresholds and budget hold for all of them alike:
//!
//! * [`LfuPolicy`] — LFU promote/demote on decayed access counters;
//! * [`BanditPolicy`] — an ε-greedy learner that classifies each
//!   chunk's tier online from observed rewards;
//! * [`SleepScalePolicy`] — a SleepScale-style joint optimizer co-selecting
//!   disk speed *and* sleep state per epoch (Liu et al., ISCA 2014).
//!
//! The `Base` reference (all disks full speed) lives in
//! [`array::BasePolicy`]; the paper's own policy lives in the `hibernator`
//! crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bandit;
mod drpm;
mod fixed;
mod lfu;
mod maid;
mod pdc;
mod sleepscale;
mod tpm;

pub use bandit::BanditPolicy;
pub use drpm::{DrpmConfig, DrpmPolicy};
pub use fixed::FixedSpeed;
pub use lfu::LfuPolicy;
pub use maid::{maid_array_config, MaidConfig, MaidPolicy};
pub use pdc::{PdcConfig, PdcPolicy};
pub use sleepscale::SleepScalePolicy;
pub use tpm::TpmPolicy;
