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
//! * [`MetricsRegistry`] — named monotonic [`Counter`]s registered once
//!   and read through one `snapshot_all()`; [`Telemetry::snapshot_json`]
//!   writes it as the `acdc-telemetry/v2` document the tests and the
//!   soak driver compare. Nothing copies live state into it on a tick:
//!   occupancy and health are asked of the datapath that holds them.
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
pub mod metrics;
pub mod recorder;

pub use event::{flow_label, key_label, Event, EventKind, NO_FLOW};
pub use metrics::{Counter, MetricKind, MetricValue, MetricsRegistry};
pub use recorder::{trace_dir, FlightRecorder, TraceGuard, DEFAULT_CAPACITY};

use std::fmt::Write as _;
use std::sync::Arc;

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

/// One observability domain: a flight recorder plus a metrics registry,
/// shared by every component that reports into it (an `AcdcDatapath`,
/// every thread that drives it, and its `HostNode`; a `Network`; a
/// `FaultyLink`).
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

    /// The registry's metrics in the `acdc-telemetry/v2` snapshot schema,
    /// sorted by name like [`MetricsRegistry::snapshot_all`]:
    ///
    /// ```json
    /// {"schema":"acdc-telemetry/v2","at":12345,"dropped_events":0,
    ///  "metrics":[{"name":"acdc.packs_sent","kind":"counter","value":9}]}
    /// ```
    ///
    /// `dropped_events` is the recorder's overwrite tally, so a consumer
    /// can tell a complete event stream from one with wraparound holes.
    pub fn snapshot_json(&self, at: Nanos) -> String {
        let metrics = self.registry.snapshot_all();
        let dropped = self.recorder.overwritten();
        let mut out = String::with_capacity(64 + metrics.len() * 56);
        let _ = write!(
            out,
            "{{\"schema\":\"acdc-telemetry/v2\",\"at\":{at},\"dropped_events\":{dropped},\"metrics\":["
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"value\":{}}}",
                m.name,
                m.kind.name(),
                m.value
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_v2_sorted_by_name() {
        let hub = Telemetry::new(8);
        hub.registry().counter("acdc.x").add(5);
        hub.registry().counter("acdc.g").add(2);
        assert_eq!(
            hub.snapshot_json(99),
            "{\"schema\":\"acdc-telemetry/v2\",\"at\":99,\"dropped_events\":0,\"metrics\":[\
             {\"name\":\"acdc.g\",\"kind\":\"counter\",\"value\":2},\
             {\"name\":\"acdc.x\",\"kind\":\"counter\",\"value\":5}]}"
        );
    }

    #[test]
    fn snapshot_json_carries_recorder_overwrites() {
        let hub = Telemetry::new(2);
        for at in 0..5 {
            hub.record(at, NO_FLOW, EventKind::FlowCreated);
        }
        assert!(hub.snapshot_json(7).contains("\"dropped_events\":3"));
    }
}
