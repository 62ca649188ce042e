//! The worker engine: steering a batch onto scoped threads.

use acdc_packet::Segment;
use acdc_stats::time::Nanos;
use acdc_vswitch::{AcdcDatapath, Verdict};

use crate::steer::worker_of;

/// Which datapath direction a packet takes through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// VM → network ([`AcdcDatapath::egress`]).
    Egress,
    /// Network → VM ([`AcdcDatapath::ingress`]).
    Ingress,
}

/// N run-to-completion workers over one shared [`AcdcDatapath`].
///
/// The engine holds only its worker count; the datapath — table, health
/// ladder, config, telemetry hub — is passed to each call. See the crate
/// docs for what the threads share and what that costs.
pub struct WorkerEngine {
    workers: usize,
}

impl WorkerEngine {
    /// An engine with `workers` workers (clamped to ≥ 1). `_dp` is
    /// unused; it is there only for the benchmark harness, which calls
    /// `new(&dp, n)`.
    pub fn new(_dp: &AcdcDatapath, workers: usize) -> WorkerEngine {
        WorkerEngine {
            workers: workers.max(1),
        }
    }

    /// One packet through the datapath on the calling thread: plain
    /// [`AcdcDatapath::egress`] / [`AcdcDatapath::ingress`]. The
    /// benchmark harness times it against direct calls.
    pub fn dispatch(&self, dp: &AcdcDatapath, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
        run_one(dp, now, dir, seg)
    }

    /// A whole batch at once: steer every packet, then let each worker
    /// run its group to completion in submission order — inline for one
    /// worker, one OS thread per worker (`std::thread::scope`) otherwise.
    /// Verdicts come back in submission order. Per-flow state and counter
    /// totals match calling [`AcdcDatapath::egress`] / `ingress` on the
    /// same packets in order when distinct workers' flows are independent
    /// (the RSS assumption; see crate docs).
    pub fn process_batch_parallel(
        &self,
        dp: &AcdcDatapath,
        now: Nanos,
        dir: Direction,
        batch: Vec<Segment>,
    ) -> Vec<Verdict> {
        if self.workers == 1 {
            return batch
                .into_iter()
                .map(|seg| run_one(dp, now, dir, seg))
                .collect();
        }
        let total = batch.len();
        let mut groups: Vec<Vec<(usize, Segment)>> =
            (0..self.workers).map(|_| Vec::new()).collect();
        for (i, seg) in batch.into_iter().enumerate() {
            let w = seg
                .try_meta()
                .map_or(0, |m| worker_of(&m.flow, self.workers));
            groups[w].push((i, seg));
        }
        let per_worker: Vec<Vec<(usize, Verdict)>> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    s.spawn(move || {
                        group
                            .into_iter()
                            .map(|(i, seg)| (i, run_one(dp, now, dir, seg)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let mut out: Vec<Option<Verdict>> = (0..total).map(|_| None).collect();
        for (i, v) in per_worker.into_iter().flatten() {
            out[i] = Some(v);
        }
        out.into_iter()
            .map(|v| v.expect("every position produced a verdict"))
            .collect()
    }
}

/// One packet through the datapath, to completion.
fn run_one(dp: &AcdcDatapath, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
    match dir {
        Direction::Egress => dp.egress(now, seg),
        Direction::Ingress => dp.ingress(now, seg),
    }
}
