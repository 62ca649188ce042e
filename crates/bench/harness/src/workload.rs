//! What every workload returns from one repetition, and the table of
//! workloads.

use std::collections::BTreeMap;

use acdc_telemetry::{MetricKind, Telemetry};

use crate::tracer::Tracer;
use crate::{dp, testbed};

/// Workload names, in the order they run and print.
pub const WORKLOADS: [&str; 6] = [
    "bulk_dumbbell",
    "incast_star",
    "trace_star",
    "dp_steady_1k",
    "dp_steady_100k",
    "dp_churn",
];

/// `Full` is the measured size; `Check` is a few milliseconds of the same
/// shape, for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

/// One repetition of one workload: fixed work, so everything but the two
/// clock fields is identical on every machine.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall ns from nothing to ready: inputs generated from the seed,
    /// topology and flows (or datapath and flow table) built.
    pub setup_ns: u64,
    /// Wall ns inside the measured calls (`Testbed::run_until`, or
    /// `AcdcDatapath::{egress, ingress, tick, gc}`), piece by piece in
    /// order: one entry per fixed piece of work (a simulated millisecond, a
    /// batch of packets), so the entries of two reps compare one to one.
    pub slices: Vec<u64>,
    /// Packets the wall time is divided by.
    pub pkts: u64,
    /// Operations attempted and failed (the op is per workload).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the rep's observable outputs; equal on every rep.
    pub fingerprint: u64,
    /// Sanity or validation checks that did not hold.
    pub errors: Vec<String>,
    /// Per-layer counts and simulated outcomes, by metric name. Exact:
    /// these come from public counters, not from the clock.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Rep {
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// The `acdc.*` counters of one datapath's hub, by name, in name order.
pub fn acdc_counters(hub: &Telemetry) -> impl Iterator<Item = (String, u64)> {
    hub.registry()
        .snapshot_all()
        .into_iter()
        .filter(|m| m.name.starts_with("acdc.") && m.kind == MetricKind::Counter)
        .map(|m| (m.name, m.value))
}

/// Is this one of the three full-pipeline workloads?
pub fn is_testbed(workload: &str) -> bool {
    matches!(workload, "bulk_dumbbell" | "incast_star" | "trace_star")
}

/// Run one repetition. `count_allocs` turns the counting allocator on
/// around the measured calls only.
pub fn run_rep(
    workload: &str,
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Rep {
    match workload {
        "bulk_dumbbell" => testbed::run(
            testbed::Kind::BulkDumbbell,
            seed,
            size,
            tracer,
            count_allocs,
        ),
        "incast_star" => testbed::run(testbed::Kind::IncastStar, seed, size, tracer, count_allocs),
        "trace_star" => testbed::run(testbed::Kind::TraceStar, seed, size, tracer, count_allocs),
        "dp_steady_1k" => dp::run_steady(1_000, seed, size, tracer, count_allocs),
        "dp_steady_100k" => dp::run_steady(100_000, seed, size, tracer, count_allocs),
        "dp_churn" => dp::run_churn(seed, size, tracer, count_allocs),
        other => panic!("unknown workload {other}"),
    }
}
