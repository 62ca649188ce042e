//! The structured event taxonomy (DESIGN.md §11).
//!
//! One [`Event`] is one observable state change somewhere in the stack:
//! a flow was admitted, a window was cut, the health ladder moved, a
//! fault fired on a link, a packet was dropped. Every event carries the
//! virtual time at which it happened and the [`FlowKey`] it concerns
//! ([`NO_FLOW`] for datapath- or link-scoped events that have no single
//! flow). Events are plain `Copy` data — recording one never allocates —
//! and serialize to one JSON Lines object via [`Event::to_jsonl`].

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

/// The all-zero key used to stamp events that are not attributable to a
/// single flow (health transitions, datapath resets, drops of frames too
/// mangled to parse a key out of).
pub const NO_FLOW: FlowKey = FlowKey {
    src_ip: [0; 4],
    dst_ip: [0; 4],
    src_port: 0,
    dst_port: 0,
};

/// What happened. Field payloads use stable `&'static str` labels so the
/// enum stays `Copy` and the JSONL encoding never allocates per-variant
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow entry was created in the connection-tracking table.
    FlowCreated,
    /// A flow entry left the table. `reason` is `"capacity"` (evicted to
    /// admit the flow this event is stamped with), `"gc"` (idle
    /// collection; stamped with the evicted flow's own key) or
    /// `"reset"`.
    FlowEvicted {
        /// Why the entry was removed.
        reason: &'static str,
    },
    /// The admission policy refused to create a flow entry.
    AdmissionRejected,
    /// The per-flow DCTCP `alpha` estimate moved (quantized to integer
    /// micro-units so the event stays `Eq` and replay-comparable).
    AlphaUpdate {
        /// New `alpha` in units of 1e-6.
        alpha_micros: u64,
    },
    /// The enforced congestion window was cut. `cause` is
    /// `"fast-retransmit"` or `"ecn"`.
    CwndCut {
        /// What triggered the cut.
        cause: &'static str,
        /// Window in bytes after the cut.
        cwnd: u64,
    },
    /// A (real or vSwitch-inferred) retransmission timeout fired.
    RtoFired {
        /// Window in bytes after the RTO reaction.
        cwnd: u64,
    },
    /// The datapath health ladder moved one way or the other.
    HealthTransition {
        /// Rung before the move (`HealthState::name()` label).
        from: &'static str,
        /// Rung after the move.
        to: &'static str,
    },
    /// A fault process acted on a traversing packet. `effect` is one of
    /// `"drop-random"`, `"drop-scripted"`, `"drop-link-down"`,
    /// `"corrupt"`, `"duplicate"`, `"reorder"`, `"jitter"`, `"ce-mark"`.
    FaultInjected {
        /// Which fault fired.
        effect: &'static str,
    },
    /// A packet was dropped. `cause` is one of `"policed"`,
    /// `"malformed"`, `"corrupt-fcs"`, `"queue-full"`,
    /// `"fault-injected"`.
    PacketDropped {
        /// Why the packet was dropped.
        cause: &'static str,
    },
    /// The datapath was restarted (`AcdcDatapath::reset`).
    DatapathReset {
        /// Flow entries discarded by the restart.
        flows_cleared: u64,
    },
}

impl EventKind {
    /// Stable kind label used as the `"kind"` field of the JSONL form.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FlowCreated => "flow-created",
            EventKind::FlowEvicted { .. } => "flow-evicted",
            EventKind::AdmissionRejected => "admission-rejected",
            EventKind::AlphaUpdate { .. } => "alpha-update",
            EventKind::CwndCut { .. } => "cwnd-cut",
            EventKind::RtoFired { .. } => "rto-fired",
            EventKind::HealthTransition { .. } => "health-transition",
            EventKind::FaultInjected { .. } => "fault-injected",
            EventKind::PacketDropped { .. } => "drop",
            EventKind::DatapathReset { .. } => "datapath-reset",
        }
    }

    /// Append this kind's variant-specific JSON fields (each preceded by
    /// a comma) to `out`.
    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            EventKind::FlowCreated | EventKind::AdmissionRejected => {}
            EventKind::FlowEvicted { reason } => {
                let _ = write!(out, ",\"reason\":\"{reason}\"");
            }
            EventKind::AlphaUpdate { alpha_micros } => {
                let _ = write!(out, ",\"alpha_micros\":{alpha_micros}");
            }
            EventKind::CwndCut { cause, cwnd } => {
                let _ = write!(out, ",\"cause\":\"{cause}\",\"cwnd\":{cwnd}");
            }
            EventKind::RtoFired { cwnd } => {
                let _ = write!(out, ",\"cwnd\":{cwnd}");
            }
            EventKind::HealthTransition { from, to } => {
                let _ = write!(out, ",\"from\":\"{from}\",\"to\":\"{to}\"");
            }
            EventKind::FaultInjected { effect } => {
                let _ = write!(out, ",\"effect\":\"{effect}\"");
            }
            EventKind::PacketDropped { cause } => {
                let _ = write!(out, ",\"cause\":\"{cause}\"");
            }
            EventKind::DatapathReset { flows_cleared } => {
                let _ = write!(out, ",\"flows_cleared\":{flows_cleared}");
            }
        }
    }
}

/// One recorded observation: when, which flow, what happened, plus the
/// recorder-assigned sequence number that makes wraparound auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic per-recorder sequence number (assigned at record time).
    pub seq: u64,
    /// Virtual time of the observation.
    pub at: Nanos,
    /// The flow concerned, or [`NO_FLOW`].
    pub flow: FlowKey,
    /// What happened.
    pub kind: EventKind,
}

/// [`key_label`], or `-` for [`NO_FLOW`]: the event log's form.
pub fn flow_label(key: &FlowKey) -> String {
    if *key == NO_FLOW {
        return "-".to_string();
    }
    key_label(key)
}

/// Render a flow key as `a.b.c.d:p>e.f.g.h:q`, every key in full (the
/// all-zero one too): the checkpoint's form, which its reader parses back.
pub fn key_label(key: &FlowKey) -> String {
    let [a, b, c, d] = key.src_ip;
    let [e, f, g, h] = key.dst_ip;
    format!(
        "{a}.{b}.{c}.{d}:{sp}>{e}.{f}.{g}.{h}:{dp}",
        sp = key.src_port,
        dp = key.dst_port
    )
}

impl Event {
    /// One JSON object, no trailing newline. All labels are static and
    /// contain no characters needing JSON escaping, so the encoding is a
    /// straight format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"seq\":{},\"at\":{},\"flow\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.at,
            flow_label(&self.flow),
            self.kind.name()
        );
        self.kind.write_fields(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_shape() {
        let e = Event {
            seq: 7,
            at: 1_000,
            flow: FlowKey {
                src_ip: [10, 0, 0, 1],
                dst_ip: [10, 0, 0, 2],
                src_port: 40000,
                dst_port: 5001,
            },
            kind: EventKind::PacketDropped {
                cause: "corrupt-fcs",
            },
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"seq\":7,\"at\":1000,\"flow\":\"10.0.0.1:40000>10.0.0.2:5001\",\
             \"kind\":\"drop\",\"cause\":\"corrupt-fcs\"}"
        );
    }

    #[test]
    fn no_flow_renders_as_dash() {
        let e = Event {
            seq: 0,
            at: 5,
            flow: NO_FLOW,
            kind: EventKind::HealthTransition {
                from: "enforcing",
                to: "log-only",
            },
        };
        let line = e.to_jsonl();
        assert!(line.contains("\"flow\":\"-\""), "{line}");
        assert!(line.contains("\"from\":\"enforcing\""), "{line}");
    }
}
