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

use crate::digest::Digest;
use crate::json::{key_label, Writer};

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
    /// Fold this kind into `d`: its variant's index, then its payload.
    fn fold(&self, d: Digest) -> Digest {
        match *self {
            EventKind::FlowCreated => d.word(0),
            EventKind::FlowEvicted { reason } => d.word(1).bytes(reason.as_bytes()),
            EventKind::AdmissionRejected => d.word(2),
            EventKind::AlphaUpdate { alpha_micros } => d.word(3).word(alpha_micros),
            EventKind::CwndCut { cause, cwnd } => d.word(4).bytes(cause.as_bytes()).word(cwnd),
            EventKind::RtoFired { cwnd } => d.word(5).word(cwnd),
            EventKind::HealthTransition { from, to } => {
                d.word(6).bytes(from.as_bytes()).bytes(to.as_bytes())
            }
            EventKind::FaultInjected { effect } => d.word(7).bytes(effect.as_bytes()),
            EventKind::PacketDropped { cause } => d.word(8).bytes(cause.as_bytes()),
            EventKind::DatapathReset { flows_cleared } => d.word(9).word(flows_cleared),
        }
    }

    /// Write `"kind"`, this kind's stable label, then the variant's
    /// payload fields into the event's object.
    fn write(&self, w: &mut Writer) {
        let w = w.key("kind");
        match *self {
            EventKind::FlowCreated => w.str("flow-created"),
            EventKind::FlowEvicted { reason } => w.str("flow-evicted").key("reason").str(reason),
            EventKind::AdmissionRejected => w.str("admission-rejected"),
            EventKind::AlphaUpdate { alpha_micros } => {
                w.str("alpha-update").key("alpha_micros").num(alpha_micros)
            }
            EventKind::CwndCut { cause, cwnd } => {
                w.str("cwnd-cut").key("cause").str(cause);
                w.key("cwnd").num(cwnd)
            }
            EventKind::RtoFired { cwnd } => w.str("rto-fired").key("cwnd").num(cwnd),
            EventKind::HealthTransition { from, to } => {
                w.str("health-transition").key("from").str(from);
                w.key("to").str(to)
            }
            EventKind::FaultInjected { effect } => {
                w.str("fault-injected").key("effect").str(effect)
            }
            EventKind::PacketDropped { cause } => w.str("drop").key("cause").str(cause),
            EventKind::DatapathReset { flows_cleared } => {
                w.str("datapath-reset");
                w.key("flows_cleared").num(flows_cleared)
            }
        };
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

impl Event {
    /// Fold `(seq, at, flow, kind)` into `d`: what a recorder's digest
    /// is made of.
    pub(crate) fn fold(&self, d: Digest) -> Digest {
        let f = &self.flow;
        let ips =
            u64::from(u32::from_be_bytes(f.src_ip)) << 32 | u64::from(u32::from_be_bytes(f.dst_ip));
        let ports = u64::from(f.src_port) << 16 | u64::from(f.dst_port);
        self.kind
            .fold(d.word(self.seq).word(self.at).word(ips).word(ports))
    }

    /// One JSON object, no trailing newline. The flow is its
    /// [`key_label`], or `-` for [`NO_FLOW`].
    pub fn to_jsonl(&self) -> String {
        let flow = match self.flow {
            NO_FLOW => "-".to_string(),
            key => key_label(&key),
        };
        Writer::object(96, |w| {
            w.key("seq").num(self.seq).key("at").num(self.at);
            self.kind.write(w.key("flow").str(&flow));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

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

    #[test]
    fn every_kind_writes_a_json_line() {
        let flow = FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: 40000,
            dst_port: 5001,
        };
        let s = |v: &str| Json::Str(v.to_string());
        let n = Json::Num;
        let cases = [
            (EventKind::FlowCreated, "flow-created", vec![]),
            (
                EventKind::FlowEvicted { reason: "gc" },
                "flow-evicted",
                vec![("reason", s("gc"))],
            ),
            (EventKind::AdmissionRejected, "admission-rejected", vec![]),
            (
                EventKind::AlphaUpdate {
                    alpha_micros: 62_500,
                },
                "alpha-update",
                vec![("alpha_micros", n(62_500))],
            ),
            (
                EventKind::CwndCut {
                    cause: "ecn",
                    cwnd: 14_480,
                },
                "cwnd-cut",
                vec![("cause", s("ecn")), ("cwnd", n(14_480))],
            ),
            (
                EventKind::RtoFired { cwnd: 1_448 },
                "rto-fired",
                vec![("cwnd", n(1_448))],
            ),
            (
                EventKind::HealthTransition {
                    from: "enforcing",
                    to: "log-only",
                },
                "health-transition",
                vec![("from", s("enforcing")), ("to", s("log-only"))],
            ),
            (
                EventKind::FaultInjected { effect: "corrupt" },
                "fault-injected",
                vec![("effect", s("corrupt"))],
            ),
            (
                EventKind::PacketDropped { cause: "policed" },
                "drop",
                vec![("cause", s("policed"))],
            ),
            (
                EventKind::DatapathReset { flows_cleared: 9 },
                "datapath-reset",
                vec![("flows_cleared", n(9))],
            ),
        ];
        for (i, (kind, label, payload)) in cases.into_iter().enumerate() {
            let e = Event {
                seq: i as u64,
                at: 1_000 + i as u64,
                flow,
                kind,
            };
            let line = e.to_jsonl();
            let mut want = vec![
                ("seq", n(e.seq)),
                ("at", n(e.at)),
                ("flow", s("10.0.0.1:40000>10.0.0.2:5001")),
                ("kind", s(label)),
            ];
            want.extend(payload);
            let want = want.into_iter().map(|(k, v)| (k.to_string(), v));
            assert_eq!(Json::parse(&line), Ok(Json::Obj(want.collect())), "{line}");
        }
    }
}
