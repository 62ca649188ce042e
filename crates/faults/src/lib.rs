//! # acdc-faults — deterministic fault injection for `acdc-netsim`
//!
//! AC/DC's central claim (paper §3.1) is that the vSwitch reconstructs
//! per-flow congestion state purely from observed packets. That claim is
//! only meaningful if reconstruction survives the things real networks do
//! to packets: drop them (independently or in bursts), reorder them,
//! duplicate them, corrupt them, and take whole links down. This crate
//! injects exactly those faults into a simulated link without modifying
//! any node logic:
//!
//! * [`FaultPlan`] — a declarative, seed-carrying description of the fault
//!   processes on one link (loss model, reorder, duplication, corruption,
//!   jitter, flap schedule, plus scripted per-packet drops/marks for
//!   property tests);
//! * [`FaultProcess`] — the pure decision engine compiled from a plan:
//!   feed it packets, get back [`Fate`]s. Deterministic: it draws from a
//!   `StdRng::seed_from_u64` stream in a fixed order, so the same seed and
//!   plan produce the identical fate sequence;
//! * [`FaultyLink`] — a [`Node`](acdc_netsim::Node) interposed on a link
//!   via [`Network::connect_interposed`](acdc_netsim::Network::connect_interposed),
//!   applying one independent `FaultProcess` per direction;
//! * [`FaultStats`] — per-direction counters (drops by cause, dups,
//!   reorders, corruptions), queryable after a run like
//!   [`PortCounters`](acdc_netsim::PortCounters).
//!
//! ## Determinism contract
//!
//! Same seed + same plan + same offered packet sequence ⇒ identical fate
//! sequence, identical `FaultStats`, identical simulation trace. All
//! randomness comes from seeded RNG streams; there is no wall clock and no
//! entropy source (`clippy.toml` and lint rule D003 enforce this
//! statically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod plan;
pub mod process;

pub use link::{FaultyLink, LinkFaultStats};
pub use plan::{FaultPlan, JitterSpec, LossModel, ReorderSpec};
pub use process::{Delivery, DropCause, Fate, FaultProcess, FaultStats};
