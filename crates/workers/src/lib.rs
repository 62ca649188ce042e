//! # acdc-workers — a harness-only shim
//!
//! The datapath has one owner and one thread (DESIGN.md §12). What is
//! left here are the names the frozen benchmark harness builds against,
//! each a plain [`AcdcDatapath::egress`] / [`AcdcDatapath::ingress`] call
//! in submission order; ROADMAP item 1 deletes the crate, as it does
//! `acdc_packet::pool`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use acdc_packet::Segment;
use acdc_stats::time::Nanos;
use acdc_vswitch::{AcdcDatapath, Verdict};

/// Which datapath direction a packet takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// VM → network ([`AcdcDatapath::egress`]).
    Egress,
    /// Network → VM ([`AcdcDatapath::ingress`]).
    Ingress,
}

/// Holds nothing: the harness's handle for [`WorkerEngine::dispatch`]
/// and [`WorkerEngine::process_batch_parallel`].
pub struct WorkerEngine;

impl WorkerEngine {
    /// The engine; both arguments are unused.
    pub fn new(_dp: &AcdcDatapath, _workers: usize) -> WorkerEngine {
        WorkerEngine
    }

    /// One packet through the datapath.
    pub fn dispatch(&self, dp: &AcdcDatapath, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
        match dir {
            Direction::Egress => dp.egress(now, seg),
            Direction::Ingress => dp.ingress(now, seg),
        }
    }

    /// A batch through the datapath, one packet after another.
    pub fn process_batch_parallel(
        &self,
        dp: &AcdcDatapath,
        now: Nanos,
        dir: Direction,
        batch: Vec<Segment>,
    ) -> Vec<Verdict> {
        batch
            .into_iter()
            .map(|seg| self.dispatch(dp, now, dir, seg))
            .collect()
    }
}
