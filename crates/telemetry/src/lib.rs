//! # acdc-telemetry — the observability spine of the reproduction
//!
//! The paper's evaluation (§4) is an exercise in per-flow visibility:
//! congestion-window convergence (Fig. 4/16), ECN feedback, RTO
//! behaviour, per-port drop accounting. This crate is the one interface
//! all of that flows through, replacing the ad-hoc counter structs that
//! grew per-crate (`AcdcCounters`, `PortCounters`, `FaultStats`,
//! `health_trace`):
//!
//! * [`Event`] / [`EventKind`] — the structured **event bus** taxonomy:
//!   flow lifecycle, CC state changes (alpha updates, cwnd cuts, RTO
//!   fires), health-ladder transitions, admission/eviction, fault
//!   injections and drops, each stamped with virtual-time [`Nanos`] and
//!   a [`FlowKey`].
//! * [`FlightRecorder`] — a **bounded ring** of the most recent events
//!   per datapath/host/link; seed-replayable and dumpable as JSON Lines
//!   (on test failure via [`TraceGuard`], offline via
//!   `cargo run -p acdc-xtask -- dump-trace`).
//! * [`MetricsRegistry`] — named monotonic [`Counter`]s and [`Gauge`]s
//!   registered once, sampled onto [`acdc_stats::TimeSeries`] from the
//!   existing 10 ms maintenance tick, and exported through one
//!   `snapshot_all()` JSON schema shared by tests, the soak driver and
//!   the benchmark harness.
//!
//! ## Determinism contract
//!
//! Everything observable here derives from the deterministic simulator:
//! virtual timestamps, seeded fault draws, ordered event dispatch. A
//! recorder therefore replays byte-identically for the same seed, which
//! is what lets chaos tests assert "this injected fault produced exactly
//! that drop" instead of comparing aggregate counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod merge;
pub mod metrics;
pub mod recorder;

pub use event::{flow_label, Event, EventKind, NO_FLOW};
pub use merge::{merge_snapshots, merged_dropped_events, merged_snapshot_json};
pub use metrics::{Counter, Gauge, MetricKind, MetricValue, MetricsRegistry};
pub use recorder::{trace_dir, FlightRecorder, TraceGuard, DEFAULT_CAPACITY};

use std::sync::Arc;

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

/// One observability domain: a flight recorder plus a metrics registry,
/// shared by every component that reports into it (an `AcdcDatapath` and
/// its `HostNode`; a `Network`; a `FaultyLink`).
pub struct Telemetry {
    recorder: FlightRecorder,
    registry: MetricsRegistry,
}

impl Telemetry {
    /// A hub whose recorder holds `capacity` events.
    pub fn new(capacity: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            recorder: FlightRecorder::new(capacity),
            registry: MetricsRegistry::new(),
        })
    }

    /// A hub with the default recorder capacity.
    pub fn with_default_capacity() -> Arc<Telemetry> {
        Telemetry::new(DEFAULT_CAPACITY)
    }

    /// The event ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record one event (convenience for `recorder().record(..)`).
    #[inline]
    pub fn record(&self, at: Nanos, flow: FlowKey, kind: EventKind) {
        self.recorder.record(at, flow, kind);
    }
}
