//! Deterministic merging of per-worker telemetry hubs (DESIGN.md §12).
//!
//! The run-to-completion worker engine gives every worker a private hub
//! so recording never contends — or interleaves nondeterministically —
//! across workers. The price is paid here, once, at snapshot time:
//! metrics merge by name — counters *sum* (each worker counted a disjoint
//! share of the packets), gauges take the *max* (they sample
//! instantaneous state; the merged view reports the high-water rung).
//! The result is sorted by name, like `snapshot_all`, so the merged JSON
//! is byte-identical run-to-run for deterministic inputs. Events stay in
//! their own hub's ring; each ring dumps on its own.

use std::fmt::Write as _;

use acdc_stats::time::Nanos;

use crate::metrics::{MetricKind, MetricValue};
use crate::Telemetry;

/// Merge point-in-time metric values from several hubs: counters sum,
/// gauges max, result sorted by name. Panics if two hubs register the
/// same name with different kinds — the worker sinks all share one
/// registration schema, so that is a construction bug, not input noise.
pub fn merge_snapshots(hubs: &[&Telemetry]) -> Vec<MetricValue> {
    let mut merged: Vec<MetricValue> = Vec::new();
    for hub in hubs {
        for m in hub.registry().snapshot_all() {
            match merged.iter_mut().find(|x| x.name == m.name) {
                Some(x) => {
                    assert!(
                        x.kind == m.kind,
                        "metric `{}` registered as {} in one hub and {} in another",
                        m.name,
                        x.kind.name(),
                        m.kind.name()
                    );
                    x.value = match m.kind {
                        MetricKind::Counter => x.value + m.value,
                        MetricKind::Gauge => x.value.max(m.value),
                    };
                }
                None => merged.push(m),
            }
        }
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    merged
}

/// Total flight-recorder events lost to ring wraparound across `hubs` —
/// the merged analogue of one recorder's `overwritten()`. A merged event
/// stream silently missing this many events is not the same thing as a
/// quiet run, so the soak watchdog gates on the sum.
pub fn merged_dropped_events(hubs: &[&Telemetry]) -> u64 {
    hubs.iter().map(|h| h.recorder().overwritten()).sum()
}

/// [`merge_snapshots`] serialized in the `acdc-telemetry/v2` snapshot
/// schema, the workspace's one metrics snapshot document (a single hub
/// is the one-element case):
///
/// ```json
/// {"schema":"acdc-telemetry/v2","at":12345,"dropped_events":0,
///  "metrics":[{"name":"acdc.packs_sent","kind":"counter","value":9}]}
/// ```
///
/// `dropped_events` is the summed per-hub flight-recorder overwrite
/// tally ([`merged_dropped_events`]), so a consumer can tell a complete
/// merged event stream from one with wraparound holes.
pub fn merged_snapshot_json(hubs: &[&Telemetry], at: Nanos) -> String {
    let merged = merge_snapshots(hubs);
    let dropped = merged_dropped_events(hubs);
    let mut out = String::with_capacity(64 + merged.len() * 56);
    let _ = write!(
        out,
        "{{\"schema\":\"acdc-telemetry/v2\",\"at\":{at},\"dropped_events\":{dropped},\"metrics\":["
    );
    for (i, m) in merged.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_FLOW};

    #[test]
    fn counters_sum_and_gauges_max() {
        let a = Telemetry::new(8);
        let b = Telemetry::new(8);
        a.registry().counter("acdc.x").add(3);
        b.registry().counter("acdc.x").add(4);
        a.registry().gauge("acdc.depth").set(2);
        b.registry().gauge("acdc.depth").set(7);
        a.registry().counter("acdc.only_a").add(1);
        let merged = merge_snapshots(&[&a, &b]);
        let get = |n: &str| merged.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("acdc.x"), 7);
        assert_eq!(get("acdc.depth"), 7);
        assert_eq!(get("acdc.only_a"), 1);
        assert!(merged.windows(2).all(|w| w[0].name < w[1].name), "sorted");
    }

    #[test]
    fn merged_json_is_v2_with_dropped_events() {
        let a = Telemetry::new(8);
        a.registry().counter("acdc.x").add(5);
        a.registry().gauge("acdc.g").set(2);
        assert_eq!(
            merged_snapshot_json(&[&a], 99),
            "{\"schema\":\"acdc-telemetry/v2\",\"at\":99,\"dropped_events\":0,\"metrics\":[\
             {\"name\":\"acdc.g\",\"kind\":\"gauge\",\"value\":2},\
             {\"name\":\"acdc.x\",\"kind\":\"counter\",\"value\":5}]}"
        );
    }

    #[test]
    fn merged_dropped_events_sums_recorder_overwrites() {
        let a = Telemetry::new(2);
        let b = Telemetry::new(2);
        for at in 0..5 {
            a.record(at, NO_FLOW, EventKind::FlowCreated); // 3 overwritten
            if at < 3 {
                b.record(at, NO_FLOW, EventKind::FlowCreated); // 1 overwritten
            }
        }
        assert_eq!(merged_dropped_events(&[&a, &b]), 4);
        let json = merged_snapshot_json(&[&a, &b], 7);
        assert!(json.contains("\"dropped_events\":4"), "got: {json}");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_panic() {
        let a = Telemetry::new(8);
        let b = Telemetry::new(8);
        a.registry().counter("dup").inc();
        b.registry().gauge("dup").set(1);
        merge_snapshots(&[&a, &b]);
    }
}
