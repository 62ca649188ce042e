//! The worker engine: steering + per-worker sinks.

use std::sync::Arc;

use acdc_packet::{FlowKey, Segment};
use acdc_stats::time::Nanos;
use acdc_telemetry::{MetricValue, Telemetry};
use acdc_vswitch::{AcdcDatapath, Verdict, WorkerSink};

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
/// The engine owns only the per-worker [`WorkerSink`]s; the datapath —
/// table, health ladder, config — is passed to each call, so the same
/// engine works for a borrowed bench datapath or one owned by a host.
/// See the crate docs for the two processing modes and the determinism
/// contract each upholds.
pub struct WorkerEngine {
    sinks: Vec<WorkerSink>,
}

impl WorkerEngine {
    /// An engine with `workers` workers (clamped to ≥ 1), each with its
    /// own observability sink created from `dp`.
    pub fn new(dp: &AcdcDatapath, workers: usize) -> WorkerEngine {
        let n = workers.max(1);
        WorkerEngine {
            sinks: (0..n).map(|_| dp.worker_sink()).collect(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.sinks.len()
    }

    /// The worker `key`'s packets steer to.
    pub fn worker_of(&self, key: &FlowKey) -> usize {
        worker_of(key, self.sinks.len())
    }

    /// The worker `seg` steers to. Malformed segments (no parsable flow
    /// key) steer to worker 0, which drops and counts them.
    pub fn steer(&self, seg: &Segment) -> usize {
        seg.try_meta().map(|m| self.worker_of(&m.flow)).unwrap_or(0)
    }

    /// Every worker's sink, in worker order.
    pub fn sinks(&self) -> &[WorkerSink] {
        &self.sinks
    }

    /// Worker `i`'s sink.
    pub fn sink(&self, i: usize) -> &WorkerSink {
        &self.sinks[i]
    }

    /// Run-to-completion dispatch of one packet: steer, then process it
    /// immediately on the steered worker's sink. Because nothing is
    /// deferred or reordered, a stream dispatched in delivery order goes
    /// through the exact table-operation sequence of the single-threaded
    /// path for any worker count — this is the mode the simulated NIC
    /// uses, and the one the chaos equivalence suite pins down.
    pub fn dispatch(&self, dp: &AcdcDatapath, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
        run_one(dp, &self.sinks[self.steer(&seg)], now, dir, seg)
    }

    /// A whole batch at once: steer every packet, then let each worker
    /// run its group to completion in submission order — inline for one
    /// worker, one OS thread per worker (`std::thread::scope`) otherwise.
    /// Verdicts come back in submission order. Per-flow state and merged
    /// counter totals match [`WorkerEngine::dispatch`] of the same
    /// packets when distinct workers' flows are independent (the RSS
    /// assumption; see crate docs).
    pub fn process_batch_parallel(
        &self,
        dp: &AcdcDatapath,
        now: Nanos,
        dir: Direction,
        batch: Vec<Segment>,
    ) -> Vec<Verdict> {
        if let [sink] = &self.sinks[..] {
            return batch
                .into_iter()
                .map(|seg| run_one(dp, sink, now, dir, seg))
                .collect();
        }
        let total = batch.len();
        let mut groups: Vec<Vec<(usize, Segment)>> =
            self.sinks.iter().map(|_| Vec::new()).collect();
        for (i, seg) in batch.into_iter().enumerate() {
            groups[self.steer(&seg)].push((i, seg));
        }
        let per_worker: Vec<Vec<(usize, Verdict)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .sinks
                .iter()
                .zip(groups)
                .map(|(sink, group)| {
                    s.spawn(move || {
                        group
                            .into_iter()
                            .map(|(i, seg)| (i, run_one(dp, sink, now, dir, seg)))
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

    /// The datapath's main hub followed by every worker hub, in worker
    /// order — the hub list every merged view is built over.
    pub fn all_hubs<'a>(&'a self, dp: &'a AcdcDatapath) -> Vec<&'a Telemetry> {
        std::iter::once(dp.telemetry().as_ref())
            .chain(self.sinks.iter().map(|s| s.telemetry().as_ref()))
            .collect()
    }

    /// Deterministically merged metrics across the main hub and every
    /// worker hub: counters sum, gauges max, sorted by name.
    pub fn merged_snapshot(&self, dp: &AcdcDatapath) -> Vec<MetricValue> {
        acdc_telemetry::merge_snapshots(&self.all_hubs(dp))
    }

    /// [`WorkerEngine::merged_snapshot`] in the `acdc-telemetry/v2` JSON
    /// schema (metrics plus the summed per-hub `dropped_events` tally) —
    /// byte-identical for same seed + same worker count.
    pub fn merged_snapshot_json(&self, dp: &AcdcDatapath, at: Nanos) -> String {
        acdc_telemetry::merged_snapshot_json(&self.all_hubs(dp), at)
    }

    /// Every worker hub as owned `Arc`s (for `TraceGuard::watch` and
    /// other consumers that outlive the engine borrow).
    pub fn hub_arcs(&self) -> Vec<Arc<Telemetry>> {
        self.sinks
            .iter()
            .map(|s| Arc::clone(s.telemetry()))
            .collect()
    }
}

/// One packet through the datapath on `sink`, to completion.
fn run_one(
    dp: &AcdcDatapath,
    sink: &WorkerSink,
    now: Nanos,
    dir: Direction,
    seg: Segment,
) -> Verdict {
    match dir {
        Direction::Egress => dp.egress_via(sink, now, seg),
        Direction::Ingress => dp.ingress_via(sink, now, seg),
    }
}
