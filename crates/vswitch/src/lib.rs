//! # acdc-vswitch — AC/DC: congestion control enforced in the vSwitch
//!
//! The paper's contribution, implemented as an Open-vSwitch-style datapath
//! module. Packets between a guest ("VM") TCP stack and the NIC pass
//! through [`AcdcDatapath::egress`] / [`AcdcDatapath::ingress`], which:
//!
//! * reconstruct per-flow congestion-control state by watching sequence
//!   numbers, ACKs and handshakes (§3.1) — one [`FlowEntry`] per
//!   direction, advanced only by its own transition methods, two to a
//!   record in a [`table::FlowTable`] (one index behind one lock),
//!   standing in for the paper's RCU hash table of two entries per
//!   connection with per-entry spinlocks;
//! * implement DCTCP (or any [`acdc_cc`] algorithm, selected per flow by a
//!   [`CcPolicy`]) inside the vSwitch: forcing ECT on egress data, counting
//!   CE-marked bytes at the receiver, and shipping the counts back in
//!   **PACK** TCP options or dedicated **FACK** packets (§3.2);
//! * enforce the computed window by rewriting the TCP receive window on
//!   ACKs headed to the guest — a 2-byte write plus incremental checksum
//!   patch — honouring window scaling, and **police** flows that ignore it
//!   by dropping excess packets (§3.3);
//! * support per-flow differentiation, including the priority-weighted
//!   DCTCP of Equation 1 (§3.4).
//!
//! The datapath is simulator-agnostic and thread-safe: the benchmark
//! harness's vSwitch-only workloads drive the very same code the
//! simulation uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod datapath;
pub mod entry;
pub mod health;
pub mod policy;
pub mod rwnd;
pub mod table;

pub use checkpoint::{DatapathCheckpoint, FlowCheckpoint, HubCheckpoint, RecorderCheckpoint};
pub use datapath::{AcdcConfig, AcdcCounters, AcdcDatapath, DropReason, FlowStat, Verdict};
pub use entry::{FlowEntry, FlowEntryState, INACTIVITY_FLOOR};
pub use health::HealthState;
pub use policy::CcPolicy;
pub use rwnd::{RwndAction, RwndRewriter};
pub use table::{Admission, AdmissionPolicy, FlowTable};

// `acdc-workers`' `process_batch_parallel` shares one `&AcdcDatapath`
// between scoped threads, which count into its one telemetry hub. A
// `Cell`, `Rc` or `RefCell` anywhere inside these types fails to compile
// here, at the definition, not in the dependent crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AcdcDatapath>();
    assert_send_sync::<FlowTable>();
};
