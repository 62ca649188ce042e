//! # acdc-workloads — datacenter traffic workloads
//!
//! The applications and traffic patterns of the paper's evaluation (§5):
//!
//! * [`apps`] — per-connection applications: bulk senders (iperf),
//!   fixed-size message generators, and a sockperf-style ping-pong RTT
//!   probe with its echo server;
//! * [`dist`] — empirical flow-size distributions for the trace-driven
//!   workloads: the web-search CDF (DCTCP \[3\]) and the heavier-tailed
//!   data-mining CDF (VL2 \[25\]);
//! * [`fct`] — flow-completion-time bookkeeping;
//! * [`patterns`] — schedule builders for concurrent stride, shuffle,
//!   the all-ports-congested workload and the convergence test.
//!
//! Apps drive an [`acdc_tcp::Endpoint`] through the narrow [`apps::AppConn`]
//! interface, so they stay independent of the simulator that hosts them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod dist;
pub mod fct;
pub mod patterns;

pub use apps::{App, AppConn, BulkSender, EchoServer, MessageSender, PingPong};
pub use dist::FlowSizeDist;
pub use fct::{FctKind, FctRecorder};
