//! Property-based tests for the discrete-event engine and switch model.

use std::any::Any;

use acdc_netsim::{Ctx, LinkSpec, Network, Node, PortId, SwitchConfig, SwitchNode};
use acdc_packet::{Ecn, Ipv4Repr, Segment, TcpFlags, TcpRepr, PROTO_TCP};
use proptest::prelude::*;

fn seg(dst: [u8; 4], ecn: Ecn, payload: usize) -> Segment {
    let ip = Ipv4Repr {
        src_addr: [10, 0, 0, 1],
        dst_addr: dst,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    };
    let mut t = TcpRepr::new(1, 2);
    t.flags = TcpFlags::ACK;
    Segment::new_tcp(ip, t, payload)
}

/// Sink that records arrival order and bytes.
struct Sink {
    got: Vec<(u64, usize)>,
}
impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, s: Segment) {
        self.got.push((ctx.now(), s.wire_len()));
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Blasts a scripted schedule of packets.
struct Blaster {
    port: PortId,
    schedule: Vec<(u64, usize, bool)>, // (time, payload, ect)
    sent: usize,
}
impl Node for Blaster {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, _s: Segment) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        let now = ctx.now();
        while self.sent < self.schedule.len() && self.schedule[self.sent].0 <= now {
            let (_, payload, ect) = self.schedule[self.sent];
            let e = if ect { Ecn::Ect0 } else { Ecn::NotEct };
            ctx.enqueue(self.port, seg([10, 0, 0, 9], e, payload));
            self.sent += 1;
        }
        if self.sent < self.schedule.len() {
            let at = self.schedule[self.sent].0;
            ctx.set_timer(at - now, 0);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Jumbo frames at t = 0 that overflow one queue's share of the switch's
/// 9 MiB pool (8/9 of it, about 932 frames) behind a 1 G egress.
const OVERFLOW_BURST: usize = 1_100;

fn arb_schedule() -> impl Strategy<Value = Vec<(u64, usize, bool)>> {
    prop::collection::vec((0u64..2_000_000, 1usize..9000, any::<bool>()), 1..80).prop_map(
        |mut v| {
            v.sort_by_key(|x| x.0);
            v
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every packet offered to a switch is either forwarded
    /// (and eventually delivered) or counted as dropped; arrivals at the
    /// sink are in nondecreasing time order and spaced at least a
    /// serialization time apart on the bottleneck. After every event time
    /// each switch port's occupancy equals the bytes in its FIFO.
    ///
    /// Without WRED the schedule runs behind a burst of jumbo frames that
    /// overflows one queue's share of the 9 MiB pool, so buffer drops are
    /// part of what is conserved.
    #[test]
    fn switch_conserves_packets(schedule in arb_schedule(), wred in any::<bool>()) {
        let mut schedule = schedule;
        if !wred {
            schedule.splice(0..0, std::iter::repeat_n((0, 8960, true), OVERFLOW_BURST));
        }
        let n_offered = schedule.len() as u64;
        let mut net = Network::new();
        let h = net.reserve_node();
        let sw = net.reserve_node();
        let dst = net.add_node(Box::new(Sink { got: Vec::new() }));
        let (hp, ip) = net.connect(h, sw, LinkSpec::ten_gbe(1_000));
        let bottleneck = LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: 1_000,
        };
        let (op, _) = net.connect(sw, dst, bottleneck);
        let cfg = SwitchConfig {
            mark_threshold: wred.then_some(10_000),
        };
        let mut s = SwitchNode::new(cfg);
        s.add_route([10, 0, 0, 9], op);
        // A second slot, made after the route and ordered before it, so
        // the egress port's slot is not the only one.
        s.set_default_route(ip);
        net.install(sw, Box::new(s));
        net.install(h, Box::new(Blaster { port: hp, schedule, sent: 0 }));
        net.schedule_timer_at(h, 0, 0);
        // Step through every event time: each of the switch's ports holds
        // in its slot exactly the bytes waiting in the engine's FIFO.
        const END: u64 = 10_000_000_000;
        while let Some(t) = net.peek_time().filter(|&t| t <= END) {
            net.run_until(t);
            for p in [ip, op] {
                let held = net.node_mut::<SwitchNode>(sw).unwrap().port_occupancy(p);
                prop_assert_eq!(held, net.port_queue_bytes(p), "port {:?} at {} ns", p, t);
            }
        }
        net.run_until(END);

        let delivered = net.node_mut::<Sink>(dst).unwrap().got.clone();
        // Arrival order is time-sorted.
        for w in delivered.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
        }
        let sw = net.node_mut::<SwitchNode>(sw).unwrap();
        let c = sw.counters();
        prop_assert_eq!(c.forwarded, delivered.len() as u64, "forwarded = delivered");
        prop_assert_eq!(c.forwarded + c.total_drops(), n_offered, "conservation");
        prop_assert!(wred || c.buffer_drops > 0, "the burst overflows the queue's share");
        // Occupancy fully drains.
        prop_assert_eq!(sw.port_occupancy(op), 0);
        // Every buffer drop is charged to the egress port.
        prop_assert_eq!(net.port_counters(op).queue_full_drops, c.buffer_drops);
    }

    /// Determinism: two identical runs produce identical arrival traces.
    #[test]
    fn engine_is_deterministic(schedule in arb_schedule()) {
        let run = |schedule: Vec<(u64, usize, bool)>| {
            let mut net = Network::new();
            let h = net.reserve_node();
            let sw = net.reserve_node();
            let dst = net.add_node(Box::new(Sink { got: Vec::new() }));
            let (hp, _) = net.connect(h, sw, LinkSpec::ten_gbe(500));
            let (op, _) = net.connect(sw, dst, LinkSpec {
                rate_bps: 2_000_000_000,
                propagation: 700,
            });
            let mut s = SwitchNode::new(SwitchConfig {
                mark_threshold: Some(20_000),
            });
            s.add_route([10, 0, 0, 9], op);
            net.install(sw, Box::new(s));
            net.install(h, Box::new(Blaster { port: hp, schedule, sent: 0 }));
            net.schedule_timer_at(h, 0, 0);
            net.run_until(10_000_000_000);
            net.node_mut::<Sink>(dst).unwrap().got.clone()
        };
        prop_assert_eq!(run(schedule.clone()), run(schedule));
    }

    /// ECT traffic is never WRED-dropped; it is only ever marked.
    #[test]
    fn ect_never_wred_dropped(schedule in arb_schedule()) {
        let schedule: Vec<_> = schedule.into_iter().map(|(t, p, _)| (t, p, true)).collect();
        let mut net = Network::new();
        let h = net.reserve_node();
        let sw = net.reserve_node();
        let dst = net.add_node(Box::new(Sink { got: Vec::new() }));
        let (hp, _) = net.connect(h, sw, LinkSpec::ten_gbe(1_000));
        let (op, _) = net.connect(sw, dst, LinkSpec {
            rate_bps: 500_000_000,
            propagation: 1_000,
        });
        let mut s = SwitchNode::new(SwitchConfig {
            mark_threshold: Some(5_000),
        });
        s.add_route([10, 0, 0, 9], op);
        net.install(sw, Box::new(s));
        net.install(h, Box::new(Blaster { port: hp, schedule, sent: 0 }));
        net.schedule_timer_at(h, 0, 0);
        net.run_until(10_000_000_000);
        let c = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        prop_assert_eq!(c.wred_drops, 0, "ECT must be marked, not dropped");
    }

    /// The serialization model: back-to-back deliveries on one link are
    /// separated by at least the serialization time of the later packet.
    #[test]
    fn serialization_spacing(payloads in prop::collection::vec(1usize..9000, 2..40)) {
        let link = LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: 5_000,
        };
        let schedule: Vec<(u64, usize, bool)> =
            payloads.iter().map(|&p| (0u64, p, true)).collect();
        let mut net = Network::new();
        let h = net.reserve_node();
        let dst = net.add_node(Box::new(Sink { got: Vec::new() }));
        let (hp, _) = net.connect(h, dst, link);
        net.install(h, Box::new(Blaster { port: hp, schedule, sent: 0 }));
        net.schedule_timer_at(h, 0, 0);
        net.run_until(10_000_000_000);
        let got = net.node_mut::<Sink>(dst).unwrap().got.clone();
        prop_assert_eq!(got.len(), payloads.len());
        for w in got.windows(2) {
            let gap = w[1].0 - w[0].0;
            let ser = link.serialization_delay(w[1].1);
            prop_assert!(gap >= ser, "gap {gap} < serialization {ser}");
        }
    }
}
