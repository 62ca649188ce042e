//! # acdc-core — the experiment harness
//!
//! Glues the pieces into the paper's testbed (Figure 3):
//!
//! * [`host::HostNode`] — a server: guest TCP endpoints (`acdc-tcp`), the
//!   vSwitch datapath (`acdc-vswitch`), an optional egress rate limiter,
//!   and the NIC port into the simulated network (`acdc-netsim`);
//! * [`scheme::Scheme`] — the three configurations every figure compares:
//!   **CUBIC** (host CUBIC, plain OVS, no WRED/ECN), **DCTCP** (host
//!   DCTCP, plain OVS, WRED/ECN on) and **AC/DC** (any host stack, AC/DC
//!   DCTCP in the vSwitch, WRED/ECN on);
//! * [`testbed::Testbed`] — topology builders (dumbbell, parking lot,
//!   single-switch star) and flow plumbing with measurement taps.
//!
//! Experiment binaries in `acdc-bench` and the examples compose these
//! into each table and figure of §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod host;
pub mod scheme;
pub mod testbed;
pub mod trace;

pub use fanout::FanoutSender;
pub use host::{ConnTaps, FlowHandle, HostNode, MultiApp, MultiConnAccess};
pub use scheme::Scheme;
pub use testbed::{Testbed, WindowSample};
pub use trace::TraceSender;
