//! # acdc-telemetry — the observability spine of the reproduction
//!
//! The paper's evaluation (§4) is an exercise in per-flow visibility:
//! congestion-window convergence (Fig. 4/16), ECN feedback, RTO
//! behaviour, per-port drop accounting. Every event flows through this
//! crate, and so does every counter a hub snapshots or checkpoints (the
//! simulator's ports, switches and fault taps count in the `Copy` views
//! their owners return, `PortCounters`, `SwitchCounters`, `FaultStats`):
//!
//! * [`Event`] / [`EventKind`] — the structured **event bus** taxonomy:
//!   flow lifecycle, CC state changes (alpha updates, cwnd cuts, RTO
//!   fires), health-ladder transitions, admission/eviction, fault
//!   injections and drops, each stamped with virtual-time [`Nanos`] and
//!   a [`FlowKey`].
//! * [`FlightRecorder`] — a **bounded ring** of the most recent events
//!   per datapath/host/link; seed-replayable and dumpable as JSON Lines.
//!   On test failure [`TraceGuard`] writes one plain JSONL file per
//!   watched hub under [`trace_dir`] (`target/acdc-traces/`), one event
//!   object per line.
//! * [`MetricsRegistry`] — named monotonic [`Counter`]s, each minted by
//!   the registry once and read through one `snapshot_all()`;
//!   [`Telemetry::snapshot_json`] writes it as the `acdc-telemetry/v2`
//!   document the tests and the soak driver compare. Nothing copies live state into it on a tick:
//!   occupancy and health are asked of the datapath that holds them.
//! * [`Writer`] / [`Json`] — the workspace's one JSON codec: one
//!   writer, one string escaper and one reader, `u64`-only numbers. The
//!   snapshot, every event's JSON line and the vSwitch's
//!   `acdc-checkpoint/v2` document are written and read through it, and
//!   flow keys travel as [`key_label`] strings that [`parse_key_label`]
//!   reads back.
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
mod json;
pub mod metrics;
pub mod recorder;

pub use event::{Event, EventKind, NO_FLOW};
pub use json::{key_label, parse_key_label, Json, Writer};
pub use metrics::{Counter, MetricKind, MetricValue, MetricsRegistry};
pub use recorder::{trace_dir, FlightRecorder, TraceGuard, DEFAULT_CAPACITY};

use std::sync::Arc;

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

/// One observability domain: a flight recorder plus a metrics registry,
/// shared by every component that reports into it (an `AcdcDatapath`,
/// every thread that drives it, and its `HostNode`; or a `Network` and
/// the nodes that record through its `Ctx`).
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
        Writer::object(64 + metrics.len() * 56, |w| {
            w.key("schema").str("acdc-telemetry/v2").key("at").num(at);
            w.key("dropped_events").num(self.recorder.overwritten());
            w.key("metrics").arr(|w| {
                for m in &metrics {
                    w.obj(|w| {
                        w.key("name").str(&m.name);
                        w.key("kind").str(m.kind.name()).key("value").num(m.value);
                    });
                }
            });
        })
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

    #[test]
    fn snapshot_json_escapes_metric_names() {
        let name = "tëst.\"quoted\"\\slash\nline\ttab→";
        let hub = Telemetry::new(8);
        hub.registry().counter(name).add(3);
        let doc = Json::parse(&hub.snapshot_json(4)).expect("the snapshot is JSON");
        let metric = &doc.field("metrics").unwrap().arr().unwrap()[0];
        assert_eq!(metric.field("name").unwrap().str_().unwrap(), name);
        assert_eq!(metric.field("value").unwrap().num::<u64>().unwrap(), 3);
    }
}
