//! # acdc-soak — long-haul soak harness (DESIGN.md §14)
//!
//! Robustness is a property of hours, not milliseconds: flow-table
//! leaks, wedged health ladders, counter drift and checkpoint rot only
//! show up when the datapath runs long enough to cycle through churn,
//! storms and restarts many times. This crate drives a [`acdc_core`]
//! testbed through hours of *virtual* time and watches it the whole way:
//!
//! * **churn** ([`ChurnConfig`]): a seedless, fully deterministic
//!   stream of short-lived synthetic flows injected straight into one
//!   host's vSwitch — handshake, a few data/ACK rounds, FIN — with a
//!   periodic mid-stream variant that skips its handshake to keep the
//!   §3.1 no-guess adoption path hot;
//! * **storms** ([`StormSchedule`]): scheduled trunk outages
//!   ([`acdc_faults::FaultPlan::with_flap`]) over a background of random
//!   loss, corruption and jitter;
//! * **restarts**: scheduled [`acdc_vswitch::AcdcDatapath::reset`]
//!   calls that wipe per-flow state mid-traffic, plus an optional mid-run
//!   **checkpoint/restore** cycle — serialize the datapath
//!   ([`acdc_vswitch::DatapathCheckpoint`]), swap in a fresh one
//!   ([`acdc_core::HostNode::replace_datapath`]), restore, and require
//!   the continuation to be byte-identical to the uninterrupted run;
//! * **watchdog**: every few ticks the driver samples occupancy, health,
//!   the watched host's counters and the vSwitch-vs-endpoint sequence
//!   views, and enforces the invariant catalog (occupancy under the cap,
//!   counters monotone, a bounded flight-recorder overwrite rate, a
//!   health ladder that never wedges, sequence reconstruction inside the
//!   endpoint's ground-truth window). A violation dumps the watched
//!   host's flight recorder under `target/acdc-traces/` and fails the run.
//!
//! Everything is virtual-time deterministic: the same [`SoakConfig`]
//! produces byte-identical [`SoakReport`]s, which is what makes the
//! checkpoint/restore equivalence check meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod driver;
mod storm;
mod watchdog;

pub use churn::ChurnConfig;
pub use driver::{run_soak, SoakConfig, SoakReport};
pub use storm::StormSchedule;
pub use watchdog::Violation;
