//! An output-queued datacenter switch with a shared buffer pool and
//! WRED/ECN marking — the model of the paper's IBM G8264 (9 MB of buffer
//! shared by forty-eight 10 G ports).
//!
//! ## Buffer management
//!
//! Ports draw from one shared pool. Admission uses the classic dynamic
//! threshold (Choudhury–Hahne, as in Broadcom silicon): a packet is
//! admitted to port `p` only if
//!
//! ```text
//! q_p + len ≤ alpha · (B − Σ q)      and      Σ q + len ≤ B
//! ```
//!
//! where `B` is the pool size and `alpha` the burst-absorption factor.
//! This reproduces the paper's Figure 20 experiment, which deliberately
//! pressures dynamic buffer allocation by congesting 47 of 48 ports.
//!
//! ## WRED/ECN
//!
//! When enabled (the DCTCP and AC/DC configurations), ECT packets are
//! **CE-marked** when the *instantaneous* queue is at or above the
//! threshold `K` (DCTCP-style step marking), while non-ECT packets are
//! **dropped** when the *WRED-averaged* queue is at or above `K` — real
//! WRED profiles run on an EWMA of the queue depth, which is precisely
//! why ECN-incapable flows fare so badly on a fabric that DCTCP keeps
//! hovering at the threshold (the Judd \[36\] / Wu \[72\] coexistence hazard
//! of Figures 15/16). When disabled (the CUBIC baseline), only the
//! buffer limits drop packets.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use acdc_packet::Segment;

use crate::engine::{Ctx, Node, PortId};

/// Shared buffer pool in bytes (9 MB on the G8264).
const SHARED_BUFFER_BYTES: u64 = 9 * 1024 * 1024;

/// Dynamic-threshold alpha: a queue may hold up to alpha × the free pool,
/// so one queue alone tops out at alpha / (1 + alpha) of it.
const DYNAMIC_ALPHA: u64 = 8;

/// WRED ramp for non-ECT packets, in percent of `K`: the drop probability
/// rises linearly from 0 at the lower end to [`DROP_P_MAX`] at the upper
/// end of the averaged queue, and is 1 beyond it.
const DROP_RAMP_PCT: (u64, u64) = (85, 115);

/// Drop probability at the top of the WRED ramp.
const DROP_P_MAX: f64 = 0.15;

/// Drop probability for a non-ECT packet at averaged depth `avg` under
/// marking threshold `k`.
fn drop_probability(k: u64, avg: f64) -> f64 {
    let (lo, hi) = (k * DROP_RAMP_PCT.0 / 100, k * DROP_RAMP_PCT.1 / 100);
    if avg < lo as f64 {
        0.0
    } else if avg >= hi as f64 {
        1.0
    } else {
        DROP_P_MAX * (avg - lo as f64) / (hi - lo).max(1) as f64
    }
}

/// Switch configuration: the G8264's buffer, with WRED/ECN marking on or
/// off. `Default` is unmarked (the CUBIC baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchConfig {
    /// Marking threshold `K` in bytes of *instantaneous* queue occupancy:
    /// ECT packets are CE-marked at or above this depth (DCTCP-style step
    /// marking), and non-ECT packets meet a WRED drop ramp around it.
    /// `None` disables WRED/ECN.
    pub mark_threshold: Option<u64>,
}

/// Drop/marking counters (the paper reads drop rates off switch counters).
/// The switch counts in these fields, and [`SwitchNode::counters`]
/// returns a copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchCounters {
    /// Packets forwarded (admitted to an output queue or transmitter).
    pub forwarded: u64,
    /// Packets CE-marked by WRED/ECN.
    pub ce_marked: u64,
    /// Non-ECT packets dropped by WRED above the threshold.
    pub wred_drops: u64,
    /// Packets dropped by buffer admission (shared pool or dynamic limit).
    pub buffer_drops: u64,
    /// Packets dropped because no route matched.
    pub no_route_drops: u64,
}

impl SwitchCounters {
    /// Total packets dropped for any reason.
    pub fn total_drops(&self) -> u64 {
        self.wred_drops + self.buffer_drops + self.no_route_drops
    }

    /// Drop rate over everything offered to the switch.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.forwarded + self.total_drops();
        if offered == 0 {
            0.0
        } else {
            self.total_drops() as f64 / offered as f64
        }
    }
}

/// One output port's queue state.
struct PortSlot {
    port: PortId,
    /// Bytes waiting in the port's FIFO (see `on_packet`).
    occupancy: u64,
    /// WRED-averaged occupancy (EWMA, weight 1/16).
    avg_occupancy: f64,
}

/// The switch node.
pub struct SwitchNode {
    cfg: SwitchConfig,
    /// One slot per output port, sorted by port.
    slots: Vec<PortSlot>,
    /// Destination IPv4 → index into `slots`, sorted by destination.
    routes: Vec<([u8; 4], usize)>,
    /// Slot of the fallback port for unmatched destinations (inter-switch
    /// trunk).
    default_slot: Option<usize>,
    /// Total occupancy, bytes.
    total_occupancy: u64,
    counters: SwitchCounters,
    /// Deterministic RNG for the WRED drop ramp.
    rng: SmallRng,
}

impl SwitchNode {
    /// A switch with the given config. Routes are added afterwards.
    pub fn new(cfg: SwitchConfig) -> SwitchNode {
        SwitchNode {
            cfg,
            slots: Vec::new(),
            routes: Vec::new(),
            default_slot: None,
            total_occupancy: 0,
            counters: SwitchCounters::default(),
            rng: SmallRng::seed_from_u64(0x5EED_AC0C),
        }
    }

    /// `port`'s slot, made when the port is first routed to. A slot made
    /// in the middle moves the later ones up one.
    fn slot_for(&mut self, port: PortId) -> usize {
        let at = match self.slots.binary_search_by_key(&port, |s| s.port) {
            Ok(at) => return at,
            Err(at) => at,
        };
        self.slots.insert(
            at,
            PortSlot {
                port,
                occupancy: 0,
                avg_occupancy: 0.0,
            },
        );
        let later = self.routes.iter_mut().map(|(_, s)| s);
        for s in later.chain(self.default_slot.as_mut()) {
            if *s >= at {
                *s += 1;
            }
        }
        at
    }

    /// Route `dst` out of `port`.
    pub fn add_route(&mut self, dst: [u8; 4], port: PortId) {
        let slot = self.slot_for(port);
        match self.routes.binary_search_by_key(&dst, |r| r.0) {
            Ok(at) => self.routes[at].1 = slot,
            Err(at) => self.routes.insert(at, (dst, slot)),
        }
    }

    /// Set the default route (used by multi-switch topologies).
    pub fn set_default_route(&mut self, port: PortId) {
        self.default_slot = Some(self.slot_for(port));
    }

    /// Counters, as of now.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Current occupancy of one output queue, in bytes.
    pub fn port_occupancy(&self, port: PortId) -> u64 {
        self.slots
            .binary_search_by_key(&port, |s| s.port)
            .map_or(0, |at| self.slots[at].occupancy)
    }

    /// The slot `dst` leaves by.
    fn lookup(&self, dst: [u8; 4]) -> Option<usize> {
        self.routes
            .binary_search_by_key(&dst, |r| r.0)
            .map(|at| self.routes[at].1)
            .ok()
            .or(self.default_slot)
    }

    /// Release `len` bytes that left `slot`'s FIFO.
    fn release(&mut self, slot: usize, len: u64) {
        let q = &mut self.slots[slot].occupancy;
        *q = q.saturating_sub(len);
        self.total_occupancy = self.total_occupancy.saturating_sub(len);
    }
}

impl Node for SwitchNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, mut seg: Segment) {
        let dst = seg.ip().dst_addr();
        let Some(slot) = self.lookup(dst) else {
            self.counters.no_route_drops += 1;
            return;
        };
        let out = self.slots[slot].port;
        // Never hairpin back out the ingress port (would loop).
        if out == in_port {
            self.counters.no_route_drops += 1;
            return;
        }
        let len = seg.wire_len() as u64;
        let q = self.slots[slot].occupancy;

        // Shared-buffer admission (dynamic threshold).
        let free = SHARED_BUFFER_BYTES.saturating_sub(self.total_occupancy);
        if q + len > DYNAMIC_ALPHA * free || len > free {
            self.counters.buffer_drops += 1;
            let class = crate::engine::PortDropClass::QueueFull;
            ctx.count_drop_for(out, class, seg.flow_key());
            return;
        }

        // WRED/ECN: instantaneous queue for ECN marking (DCTCP-style),
        // averaged queue + probability ramp for non-ECT drops (WRED).
        if let Some(k) = self.cfg.mark_threshold {
            let avg = {
                let a = &mut self.slots[slot].avg_occupancy;
                *a = *a * (15.0 / 16.0) + q as f64 / 16.0;
                *a
            };
            if seg.ecn().is_ect() {
                if q >= k {
                    seg.mark_ce();
                    self.counters.ce_marked += 1;
                }
            } else {
                let p = drop_probability(k, avg);
                if p > 0.0 && self.rng.random::<f64>() < p {
                    self.counters.wred_drops += 1;
                    return;
                }
            }
        }

        self.counters.forwarded += 1;
        self.slots[slot].occupancy += len;
        self.total_occupancy += len;
        ctx.enqueue(out, seg);

        // Occupancy counts bytes waiting in the FIFO, and each packet's are
        // released exactly once. The engine keeps this invariant: straight
        // after `enqueue`, an empty FIFO means the packet went to the wire,
        // and its bytes are released here; otherwise `on_tx_start` releases
        // them when it leaves the queue.
        if ctx.queued_pkts(out) == 0 {
            self.release(slot, len);
        }
    }

    fn on_tx_start(&mut self, _ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        // Only a routed port transmits the switch's packets.
        if let Ok(slot) = self.slots.binary_search_by_key(&port, |s| s.port) {
            self.release(slot, seg.wire_len() as u64);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use crate::link::LinkSpec;
    use acdc_packet::{Ecn, Ipv4Repr, TcpFlags, TcpRepr, PROTO_TCP};

    fn seg(dst: [u8; 4], ecn: Ecn, payload: usize) -> Segment {
        let ip = Ipv4Repr {
            src_addr: [10, 0, 0, 1],
            dst_addr: dst,
            protocol: PROTO_TCP,
            ecn,
            payload_len: 0,
            ttl: 64,
        };
        let mut t = TcpRepr::new(1000, 2000);
        t.flags = TcpFlags::ACK;
        Segment::new_tcp(ip, t, payload)
    }

    /// Collects deliveries.
    struct Sink {
        got: Vec<Segment>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
            self.got.push(seg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Blasts `n` packets with a chosen ECN codepoint at t=0.
    struct Blaster {
        port: PortId,
        n: usize,
        ecn: Ecn,
        dst: [u8; 4],
        payload: usize,
    }
    impl Node for Blaster {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, _s: Segment) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            for _ in 0..self.n {
                ctx.enqueue(self.port, seg(self.dst, self.ecn, self.payload));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// host --10G--> switch --1G--> sink  (bottleneck at the switch egress)
    fn rig(
        cfg: SwitchConfig,
        n: usize,
        ecn: Ecn,
        payload: usize,
    ) -> (Network, crate::engine::NodeId, crate::engine::NodeId) {
        let mut net = Network::new();
        let h = net.reserve_node();
        let sw = net.reserve_node();
        let dst_node = net.add_node(Box::new(Sink { got: Vec::new() }));
        let (hp, _swp_in) = net.connect(h, sw, LinkSpec::ten_gbe(1_000));
        let (swp_out, _dp) = net.connect(
            sw,
            dst_node,
            LinkSpec {
                rate_bps: 1_000_000_000,
                propagation: 1_000,
            },
        );
        let mut switch = SwitchNode::new(cfg);
        switch.add_route([10, 0, 0, 9], swp_out);
        net.install(sw, Box::new(switch));
        net.install(
            h,
            Box::new(Blaster {
                port: hp,
                n,
                ecn,
                dst: [10, 0, 0, 9],
                payload,
            }),
        );
        net.schedule_timer_at(h, 0, 0);
        (net, sw, dst_node)
    }

    #[test]
    fn forwards_by_route() {
        let (mut net, sw, dst) = rig(SwitchConfig::default(), 3, Ecn::NotEct, 1460);
        net.run_until(crate::SECOND);
        assert_eq!(net.node_mut::<Sink>(dst).unwrap().got.len(), 3);
        let sw = net.node_mut::<SwitchNode>(sw).unwrap();
        assert_eq!(sw.counters().forwarded, 3);
        assert_eq!(sw.counters().total_drops(), 0);
        assert_eq!(sw.port_occupancy(PortId(2)), 0, "occupancy drained");
    }

    #[test]
    fn drops_without_route() {
        let mut net = Network::new();
        let h = net.reserve_node();
        let sw = net.add_node(Box::new(SwitchNode::new(SwitchConfig::default())));
        let (hp, _) = net.connect(h, sw, LinkSpec::ten_gbe(1_000));
        net.install(
            h,
            Box::new(Blaster {
                port: hp,
                n: 2,
                ecn: Ecn::NotEct,
                dst: [9, 9, 9, 9],
                payload: 100,
            }),
        );
        net.schedule_timer_at(h, 0, 0);
        net.run_until(crate::SECOND);
        let sw = net.node_mut::<SwitchNode>(sw).unwrap();
        assert_eq!(sw.counters().no_route_drops, 2);
    }

    #[test]
    fn wred_marks_ect_above_threshold() {
        // Threshold of ~3 packets: the 10G→1G mismatch queues a burst.
        let cfg = SwitchConfig {
            mark_threshold: Some(3 * 1500),
        };
        let (mut net, sw, dst) = rig(cfg, 20, Ecn::Ect0, 1460);
        net.run_until(crate::SECOND);
        let marked_at_dst = net
            .node_mut::<Sink>(dst)
            .unwrap()
            .got
            .iter()
            .filter(|s| s.ecn().is_ce())
            .count();
        let sw = net.node_mut::<SwitchNode>(sw).unwrap();
        assert!(sw.counters().ce_marked > 0);
        assert_eq!(
            sw.counters().wred_drops,
            0,
            "ECT traffic is never dropped by WRED"
        );
        assert_eq!(marked_at_dst as u64, sw.counters().ce_marked);
        // All packets still delivered.
        assert_eq!(sw.counters().forwarded, 20);
    }

    #[test]
    fn wred_drops_non_ect_above_threshold() {
        let cfg = SwitchConfig {
            mark_threshold: Some(3 * 1500),
        };
        let (mut net, sw, dst) = rig(cfg, 20, Ecn::NotEct, 1460);
        net.run_until(crate::SECOND);
        let sw_counters = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        assert!(sw_counters.wred_drops > 0, "non-ECT must be dropped over K");
        assert_eq!(sw_counters.ce_marked, 0);
        let delivered = net.node_mut::<Sink>(dst).unwrap().got.len() as u64;
        assert_eq!(delivered, sw_counters.forwarded);
        assert_eq!(delivered + sw_counters.wred_drops, 20);
    }

    /// Payload of a 9000-byte jumbo frame.
    const JUMBO: usize = 8960;

    /// Jumbo frames blasted at the 1 G egress: 10.8 MB against one
    /// queue's 8/9 share of the 9 MiB pool, so the burst overflows it
    /// while the drain (one frame per 72 µs) keeps up with a tenth.
    const OVERFLOW_BURST: usize = 1_200;

    #[test]
    fn shared_buffer_limit_drops() {
        let (mut net, sw, dst) = rig(SwitchConfig::default(), OVERFLOW_BURST, Ecn::Ect0, JUMBO);
        net.run_until(crate::SECOND);
        let delivered = net.node_mut::<Sink>(dst).unwrap().got.len() as u64;
        let c = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        let offered = OVERFLOW_BURST as u64;
        assert!(c.buffer_drops > 0);
        assert_eq!(c.forwarded, delivered);
        assert_eq!(
            c.forwarded + c.total_drops(),
            offered,
            "forwarded + drops = offered"
        );
        assert!((c.drop_rate() - c.buffer_drops as f64 / offered as f64).abs() < 1e-9);
        // The per-port breakdown attributes every buffer drop to the
        // egress port the packet would have taken (PortId(2) in the rig).
        let pc = net.port_counters(PortId(2));
        assert_eq!(pc.queue_full_drops, c.buffer_drops);
        assert_eq!(pc.fault_drops, 0);
        // And the recorder names the flow that lost each packet.
        let flow = seg([10, 0, 0, 9], Ecn::Ect0, JUMBO).flow_key();
        let drops: Vec<_> = (net.telemetry().recorder().events().into_iter())
            .filter(|e| matches!(e.kind, acdc_telemetry::EventKind::PacketDropped { .. }))
            .map(|e| e.flow)
            .collect();
        assert_eq!(drops.len() as u64, c.buffer_drops);
        assert!(drops.iter().all(|&f| f == flow), "{drops:?}");
    }

    #[test]
    fn dynamic_threshold_tightens_as_pool_fills() {
        // A queue may hold alpha × the free pool, and its own bytes are
        // not free: alone, it tops out at alpha / (1 + alpha) = 8/9 of
        // the pool, within one frame, and never reaches the pool itself.
        let (mut net, sw, _) = rig(SwitchConfig::default(), OVERFLOW_BURST, Ecn::Ect0, JUMBO);
        let frame = seg([10, 0, 0, 9], Ecn::Ect0, JUMBO).wire_len() as u64;
        // 8/9 of the G8264's 9 MiB.
        let share: u64 = 8 * 1024 * 1024;
        // The burst arrives one frame per 7.2 µs; sample every 1 µs.
        let mut peak = 0;
        for t in (0..=10 * crate::MILLISECOND).step_by(crate::MICROSECOND as usize) {
            net.run_until(t);
            let sw = net.node_mut::<SwitchNode>(sw).unwrap();
            peak = peak.max(sw.port_occupancy(PortId(2)));
        }
        assert!(
            share - frame < peak && peak <= share + frame,
            "peak {peak} B against 8/9 of the pool, {share} B"
        );
        let c = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        assert!(c.buffer_drops > 0, "the queue refused frames at its share");
    }
}
