//! # acdc — AC/DC TCP, virtual congestion control enforcement
//!
//! Umbrella crate re-exporting the whole workspace (see the README for the
//! layered architecture). The fastest way in is the experiment harness:
//!
//! ```
//! use acdc::core::{Scheme, Testbed};
//! use acdc::stats::time::MILLISECOND;
//!
//! // Two-pair dumbbell; guests run CUBIC but AC/DC enforces DCTCP.
//! let mut tb = Testbed::dumbbell(2, Scheme::acdc(), 9000);
//! let flow = tb.add_bulk(0, 2, Some(1 << 20), 0); // 1 MB transfer
//! tb.run_until(50 * MILLISECOND);
//!
//! assert_eq!(tb.acked_bytes(flow), 1 << 20, "transfer completed");
//! let rewrites = tb.host_mut(0).datapath().counters().rwnd_rewrites.get();
//! assert!(rewrites > 0, "the vSwitch enforced its window");
//! ```
//!
//! Individual layers are available under their own names:
//! [`packet`] (wire formats), [`netsim`] (the simulator), [`cc`]
//! (congestion-control algorithms), [`tcp`] (guest endpoints),
//! [`vswitch`] (the AC/DC datapath), [`workloads`], [`stats`], and
//! [`core`] (hosts, schemes, topologies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use acdc_cc as cc;
pub use acdc_core as core;
pub use acdc_faults as faults;
pub use acdc_netsim as netsim;
pub use acdc_packet as packet;
pub use acdc_stats as stats;
pub use acdc_tcp as tcp;
pub use acdc_vswitch as vswitch;
pub use acdc_workloads as workloads;
