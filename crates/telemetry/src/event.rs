//! The structured event taxonomy (DESIGN.md §11).
//!
//! One [`Event`] is one observable state change somewhere in the stack:
//! a flow was admitted, a window was cut, the health ladder moved, a
//! fault fired on a link, a packet was dropped. Every event carries the
//! virtual time at which it happened and the [`FlowKey`] it concerns
//! ([`NO_FLOW`] for datapath- or link-scoped events that have no single
//! flow). Events are plain `Copy` data — recording one never allocates —
//! and serialize to one JSON Lines object via [`Event::to_jsonl`].
//!
//! A kind's labels are one-byte enums ([`EvictReason`], [`CutCause`],
//! [`Rung`], [`FaultEffect`], [`DropCause`]), each with a `name()`
//! that is the text its JSON line and digest carry, so a recorder stores
//! an event in one 32-byte ring slot.

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

use crate::digest::Digest;
use crate::json::{key_label, Writer};

/// The all-zero key used to stamp events that are not attributable to a
/// single flow (health transitions, datapath resets, anonymous port
/// drops).
pub const NO_FLOW: FlowKey = FlowKey {
    src_ip: [0; 4],
    dst_ip: [0; 4],
    src_port: 0,
    dst_port: 0,
};

/// A one-byte label enum: `ALL` lists the values in byte order, `name()`
/// is the stable text, and `from_byte` reads back `value as u8`. `Debug`
/// writes the text quoted, as for a string: `tests/golden.txt` digests
/// reports' `Debug` text, events included.
macro_rules! labels {
    (
        $(#[$attr:meta])*
        $name:ident { $($(#[$vattr:meta])* $variant:ident = $label:literal,)+ }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vattr])* $variant,)+
        }

        impl $name {
            /// Every value, in declaration order: `ALL[v as usize] == v`.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable label: what an event's JSON line writes and its
            /// digest folds.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            fn from_byte(b: u8) -> $name {
                $name::ALL[usize::from(b)]
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(self.name(), f)
            }
        }
    };
}

labels! {
    /// Why a flow entry left the table ([`EventKind::FlowEvicted`]).
    EvictReason {
        /// Evicted to admit the flow the event is stamped with.
        Capacity = "capacity",
        /// Idle collection; stamped with the evicted flow's own key.
        Gc = "gc",
    }
}

labels! {
    /// What cut the enforced window ([`EventKind::CwndCut`]).
    CutCause {
        /// The third duplicate ACK.
        FastRetransmit = "fast-retransmit",
    }
}

labels! {
    /// A rung of a datapath's health ladder (DESIGN.md §10), as
    /// [`EventKind::HealthTransition`] names it.
    Rung {
        /// Full enforcement: RWND rewriting, ECN ownership, policing.
        Enforcing = "enforcing",
        /// Track state and compute windows, but rewrite nothing.
        LogOnly = "log-only",
        /// Forward untouched (metadata hygiene only).
        PassThrough = "pass-through",
    }
}

labels! {
    /// Which fault process acted on a packet ([`EventKind::FaultInjected`]).
    FaultEffect {
        /// An i.i.d. or bursty random loss.
        DropRandom = "drop-random",
        /// A loss the plan scripted for that packet.
        DropScripted = "drop-scripted",
        /// A loss while the link was down.
        DropLinkDown = "drop-link-down",
        /// Header damage the receiver's checksum check catches.
        Corrupt = "corrupt",
        /// A second copy sent ahead of the original.
        Duplicate = "duplicate",
        /// Held back behind later packets.
        Reorder = "reorder",
        /// Delayed without reordering.
        Jitter = "jitter",
        /// Marked CE.
        CeMark = "ce-mark",
    }
}

labels! {
    /// Why a packet was dropped ([`EventKind::PacketDropped`]).
    DropCause {
        /// The vSwitch policed a sender that ignored the enforced window.
        Policed = "policed",
        /// The NIC's checksum check failed.
        CorruptFcs = "corrupt-fcs",
        /// The egress queue had no room.
        QueueFull = "queue-full",
        /// A fault process discarded it.
        FaultInjected = "fault-injected",
    }
}

/// What happened. Labels are one-byte enums and payloads `u64`s, so the
/// enum is `Copy`, 16 bytes, and the JSONL encoding never allocates
/// per-variant state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow entry was created in the connection-tracking table.
    FlowCreated,
    /// A flow entry left the table.
    FlowEvicted {
        /// Why the entry was removed.
        reason: EvictReason,
    },
    /// The admission policy refused to create a flow entry.
    AdmissionRejected,
    /// The per-flow DCTCP `alpha` estimate moved (quantized to integer
    /// micro-units so the event stays `Eq` and replay-comparable).
    AlphaUpdate {
        /// New `alpha` in units of 1e-6.
        alpha_micros: u64,
    },
    /// The enforced congestion window was cut.
    CwndCut {
        /// What triggered the cut.
        cause: CutCause,
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
        /// Rung before the move.
        from: Rung,
        /// Rung after the move.
        to: Rung,
    },
    /// A fault process acted on a traversing packet.
    FaultInjected {
        /// Which fault fired.
        effect: FaultEffect,
    },
    /// A packet was dropped.
    PacketDropped {
        /// Why the packet was dropped.
        cause: DropCause,
    },
    /// The datapath was restarted (`AcdcDatapath::reset`).
    DatapathReset {
        /// Flow entries discarded by the restart.
        flows_cleared: u64,
    },
}

// A tag byte, two label bytes and one `u64` payload: what `Slot` packs.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);

impl EventKind {
    /// Fold this kind into `d`: its variant's index, then its payload.
    fn fold(&self, d: Digest) -> Digest {
        match *self {
            EventKind::FlowCreated => d.word(0),
            EventKind::FlowEvicted { reason } => d.word(1).bytes(reason.name().as_bytes()),
            EventKind::AdmissionRejected => d.word(2),
            EventKind::AlphaUpdate { alpha_micros } => d.word(3).word(alpha_micros),
            EventKind::CwndCut { cause, cwnd } => {
                d.word(4).bytes(cause.name().as_bytes()).word(cwnd)
            }
            EventKind::RtoFired { cwnd } => d.word(5).word(cwnd),
            EventKind::HealthTransition { from, to } => d
                .word(6)
                .bytes(from.name().as_bytes())
                .bytes(to.name().as_bytes()),
            EventKind::FaultInjected { effect } => d.word(7).bytes(effect.name().as_bytes()),
            EventKind::PacketDropped { cause } => d.word(8).bytes(cause.name().as_bytes()),
            EventKind::DatapathReset { flows_cleared } => d.word(9).word(flows_cleared),
        }
    }

    /// Write `"kind"`, this kind's stable label, then the variant's
    /// payload fields into the event's object.
    fn write(&self, w: &mut Writer) {
        let w = w.key("kind");
        match *self {
            EventKind::FlowCreated => w.str("flow-created"),
            EventKind::FlowEvicted { reason } => {
                w.str("flow-evicted").key("reason").str(reason.name())
            }
            EventKind::AdmissionRejected => w.str("admission-rejected"),
            EventKind::AlphaUpdate { alpha_micros } => {
                w.str("alpha-update").key("alpha_micros").num(alpha_micros)
            }
            EventKind::CwndCut { cause, cwnd } => {
                w.str("cwnd-cut").key("cause").str(cause.name());
                w.key("cwnd").num(cwnd)
            }
            EventKind::RtoFired { cwnd } => w.str("rto-fired").key("cwnd").num(cwnd),
            EventKind::HealthTransition { from, to } => {
                w.str("health-transition").key("from").str(from.name());
                w.key("to").str(to.name())
            }
            EventKind::FaultInjected { effect } => {
                w.str("fault-injected").key("effect").str(effect.name())
            }
            EventKind::PacketDropped { cause } => w.str("drop").key("cause").str(cause.name()),
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

/// An [`Event`] as a recorder's ring holds it: no `seq` (the slot's
/// position implies it), and the kind packed into its variant index, its
/// one `u64` payload (0 when it has none) and up to two label bytes.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    at: Nanos,
    payload: u64,
    flow: FlowKey,
    tag: u8,
    labels: [u8; 2],
}

// 4 096 of these are a recorder's worst case: 128 KiB, where as many
// 48-byte `Event`s would take 192 KiB.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

impl Slot {
    /// Pack `kind` observed at `at` on `flow`.
    pub(crate) fn new(at: Nanos, flow: FlowKey, kind: EventKind) -> Slot {
        let (tag, payload, labels) = match kind {
            EventKind::FlowCreated => (0, 0, [0, 0]),
            EventKind::FlowEvicted { reason } => (1, 0, [reason as u8, 0]),
            EventKind::AdmissionRejected => (2, 0, [0, 0]),
            EventKind::AlphaUpdate { alpha_micros } => (3, alpha_micros, [0, 0]),
            EventKind::CwndCut { cause, cwnd } => (4, cwnd, [cause as u8, 0]),
            EventKind::RtoFired { cwnd } => (5, cwnd, [0, 0]),
            EventKind::HealthTransition { from, to } => (6, 0, [from as u8, to as u8]),
            EventKind::FaultInjected { effect } => (7, 0, [effect as u8, 0]),
            EventKind::PacketDropped { cause } => (8, 0, [cause as u8, 0]),
            EventKind::DatapathReset { flows_cleared } => (9, flows_cleared, [0, 0]),
        };
        Slot {
            at,
            payload,
            flow,
            tag,
            labels,
        }
    }

    /// The event this slot holds, as the `seq`-th recorded.
    pub(crate) fn event(&self, seq: u64) -> Event {
        let (payload, [a, b]) = (self.payload, self.labels);
        let kind = match self.tag {
            0 => EventKind::FlowCreated,
            1 => EventKind::FlowEvicted {
                reason: EvictReason::from_byte(a),
            },
            2 => EventKind::AdmissionRejected,
            3 => EventKind::AlphaUpdate {
                alpha_micros: payload,
            },
            4 => EventKind::CwndCut {
                cause: CutCause::from_byte(a),
                cwnd: payload,
            },
            5 => EventKind::RtoFired { cwnd: payload },
            6 => EventKind::HealthTransition {
                from: Rung::from_byte(a),
                to: Rung::from_byte(b),
            },
            7 => EventKind::FaultInjected {
                effect: FaultEffect::from_byte(a),
            },
            8 => EventKind::PacketDropped {
                cause: DropCause::from_byte(a),
            },
            _ => EventKind::DatapathReset {
                flows_cleared: payload,
            },
        };
        Event {
            seq,
            at: self.at,
            flow: self.flow,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    const FLOW: FlowKey = FlowKey {
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        src_port: 40000,
        dst_port: 5001,
    };

    #[test]
    fn jsonl_round_shape() {
        let e = Event {
            seq: 7,
            at: 1_000,
            flow: FLOW,
            kind: EventKind::PacketDropped {
                cause: DropCause::CorruptFcs,
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
                from: Rung::Enforcing,
                to: Rung::LogOnly,
            },
        };
        let line = e.to_jsonl();
        assert!(line.contains("\"flow\":\"-\""), "{line}");
        assert!(line.contains("\"from\":\"enforcing\""), "{line}");
    }

    #[test]
    fn every_kind_writes_a_json_line() {
        let s = |v: &str| Json::Str(v.to_string());
        let n = Json::Num;
        let cases = [
            (EventKind::FlowCreated, "flow-created", vec![]),
            (
                EventKind::FlowEvicted {
                    reason: EvictReason::Gc,
                },
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
                    cause: CutCause::FastRetransmit,
                    cwnd: 14_480,
                },
                "cwnd-cut",
                vec![("cause", s("fast-retransmit")), ("cwnd", n(14_480))],
            ),
            (
                EventKind::RtoFired { cwnd: 1_448 },
                "rto-fired",
                vec![("cwnd", n(1_448))],
            ),
            (
                EventKind::HealthTransition {
                    from: Rung::Enforcing,
                    to: Rung::LogOnly,
                },
                "health-transition",
                vec![("from", s("enforcing")), ("to", s("log-only"))],
            ),
            (
                EventKind::FaultInjected {
                    effect: FaultEffect::Corrupt,
                },
                "fault-injected",
                vec![("effect", s("corrupt"))],
            ),
            (
                EventKind::PacketDropped {
                    cause: DropCause::Policed,
                },
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
                flow: FLOW,
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

    #[test]
    fn every_label_byte_reads_back() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(all: &[T], byte: fn(T) -> u8) {
            for (i, &v) in all.iter().enumerate() {
                assert_eq!(usize::from(byte(v)), i, "{v:?}");
            }
        }
        check(EvictReason::ALL, |v| v as u8);
        check(CutCause::ALL, |v| v as u8);
        check(Rung::ALL, |v| v as u8);
        check(FaultEffect::ALL, |v| v as u8);
        check(DropCause::ALL, |v| v as u8);
    }

    #[test]
    fn labels_debug_as_the_strings_they_replaced() {
        let kind = EventKind::HealthTransition {
            from: Rung::LogOnly,
            to: Rung::PassThrough,
        };
        assert_eq!(
            format!("{kind:?}"),
            r#"HealthTransition { from: "log-only", to: "pass-through" }"#
        );
    }

    #[test]
    fn a_slot_gives_back_its_event() {
        let big = u64::MAX - 1;
        let mut kinds = vec![
            EventKind::FlowCreated,
            EventKind::AdmissionRejected,
            EventKind::AlphaUpdate { alpha_micros: big },
            EventKind::RtoFired { cwnd: big },
            EventKind::DatapathReset { flows_cleared: big },
        ];
        kinds.extend(
            EvictReason::ALL
                .iter()
                .map(|&reason| EventKind::FlowEvicted { reason }),
        );
        kinds.extend(
            CutCause::ALL
                .iter()
                .map(|&cause| EventKind::CwndCut { cause, cwnd: big }),
        );
        for &from in Rung::ALL {
            kinds.extend(
                Rung::ALL
                    .iter()
                    .map(|&to| EventKind::HealthTransition { from, to }),
            );
        }
        kinds.extend(
            FaultEffect::ALL
                .iter()
                .map(|&effect| EventKind::FaultInjected { effect }),
        );
        kinds.extend(
            DropCause::ALL
                .iter()
                .map(|&cause| EventKind::PacketDropped { cause }),
        );
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = Event {
                seq: 1 << 40 | i as u64,
                at: u64::MAX - i as u64,
                flow: FLOW,
                kind,
            };
            assert_eq!(Slot::new(e.at, e.flow, e.kind).event(e.seq), e);
        }
    }
}
