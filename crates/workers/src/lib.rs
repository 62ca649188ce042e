//! # acdc-workers — RSS steering and a threaded batch over one datapath
//!
//! The paper's deployability argument (§3, §5.2) needs the enforcement
//! path to stay cheap at line rate; a single thread caps that. This
//! crate runs the [`acdc_vswitch::AcdcDatapath`] the way a production
//! vSwitch datapath does — *run-to-completion workers fed by RSS
//! steering* — over the datapath's one flow table and one telemetry hub
//! (DESIGN.md §12).
//!
//! ## The model
//!
//! * **Steering** ([`worker_of`]): a packet goes to worker
//!   `mix(hash64(canonical flow key)) mod N` — symmetric RSS. The key is
//!   direction-normalized first, so data packets and the ACKs flowing
//!   back steer to the same worker; since the ACK path writes the data
//!   direction's flow entry, every entry of a flow has exactly one
//!   writing worker and a worker's entries are disjoint from its
//!   peers'. Their table is not: the flow table's one lock serialises
//!   every worker's entry accesses. (The finalizing mix
//!   matters: raw FNV-1a's low bit
//!   is a XOR of input low bits and collapses on mirrored key
//!   populations — see [`steer`]'s module docs.)
//! * **Run to completion** ([`WorkerEngine::process_batch_parallel`]):
//!   packets are steered into one group per worker and each worker runs
//!   its group through the datapath (parse → table → CC → rewrite) in
//!   submission order — inline for N = 1, on its own scoped thread
//!   otherwise. There is no inter-stage queueing to reorder packets of
//!   one flow. Verdicts are returned in submission order regardless of
//!   which worker produced them.
//!
//! ## What the threads share
//!
//! Every worker counts and records into the datapath's one telemetry
//! hub. Counters are relaxed atomics, so totals are exact; each bump is
//! a read-modify-write on a cache line the other threads also write.
//! Events take the flight recorder's mutex, and events from different
//! threads reach the ring in whatever order the threads get there. So a
//! batch where distinct workers' flows are independent (the RSS
//! assumption — true for the bench workloads and the determinism suite)
//! ends in the per-flow state and counter totals of the same packets
//! run in order on one thread, and records the same multiset of events;
//! at N = 1 it records the same sequence.
//!
//! [`WorkerEngine::dispatch`] runs one packet on the calling thread; it
//! is what the benchmark harness times against direct calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod steer;

pub use engine::{Direction, WorkerEngine};
pub use steer::worker_of;
