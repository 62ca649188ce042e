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
use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use acdc_packet::Segment;

use crate::engine::{Ctx, Node, PortId};

/// WRED/ECN marking parameters.
#[derive(Debug, Clone, Copy)]
pub struct WredEcnConfig {
    /// Marking threshold `K` in bytes of *instantaneous* queue occupancy:
    /// ECT packets are CE-marked at or above this depth (DCTCP-style step
    /// marking).
    pub threshold_bytes: u64,
    /// WRED ramp for **non-ECT** packets, evaluated on the *averaged*
    /// queue: drop probability rises linearly from 0 at `drop_min_bytes`
    /// to `drop_p_max` at `drop_max_bytes`, and is 1 beyond it.
    pub drop_min_bytes: u64,
    /// Upper end of the WRED ramp.
    pub drop_max_bytes: u64,
    /// Drop probability at the top of the ramp.
    pub drop_p_max: f64,
}

impl WredEcnConfig {
    /// A WRED/ECN profile centred on marking threshold `k` with the
    /// classic ramp (85%–115% of `k`, max probability 15%).
    pub fn centered_on(k: u64) -> WredEcnConfig {
        WredEcnConfig {
            threshold_bytes: k,
            drop_min_bytes: k * 85 / 100,
            drop_max_bytes: k * 115 / 100,
            drop_p_max: 0.15,
        }
    }

    /// Drop probability for a non-ECT packet at averaged depth `avg`.
    pub fn drop_probability(&self, avg: f64) -> f64 {
        if avg < self.drop_min_bytes as f64 {
            0.0
        } else if avg >= self.drop_max_bytes as f64 {
            1.0
        } else {
            self.drop_p_max * (avg - self.drop_min_bytes as f64)
                / (self.drop_max_bytes - self.drop_min_bytes).max(1) as f64
        }
    }
}

/// Switch configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Shared buffer pool size in bytes (9 MB on the G8264).
    pub shared_buffer_bytes: u64,
    /// Dynamic-threshold alpha: per-port limit = alpha × free buffer.
    pub dynamic_alpha: f64,
    /// WRED/ECN marking; `None` disables it (baseline CUBIC config).
    pub wred_ecn: Option<WredEcnConfig>,
}

impl Default for SwitchConfig {
    fn default() -> SwitchConfig {
        SwitchConfig {
            shared_buffer_bytes: 9 * 1024 * 1024,
            dynamic_alpha: 8.0,
            wred_ecn: None,
        }
    }
}

impl SwitchConfig {
    /// The G8264 with WRED/ECN configured (DCTCP / AC/DC experiments).
    pub fn with_wred_ecn(threshold_bytes: u64) -> SwitchConfig {
        SwitchConfig {
            wred_ecn: Some(WredEcnConfig::centered_on(threshold_bytes)),
            ..SwitchConfig::default()
        }
    }
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

/// The switch node.
pub struct SwitchNode {
    cfg: SwitchConfig,
    /// Destination IPv4 → output port. Ordered so that any future
    /// iteration over routes is deterministic.
    routes: BTreeMap<[u8; 4], PortId>,
    /// Fallback port for unmatched destinations (inter-switch trunk).
    default_route: Option<PortId>,
    /// Occupancy per output port: bytes waiting in its FIFO (see `on_packet`).
    occupancy: BTreeMap<PortId, u64>,
    /// WRED-averaged occupancy per output port (EWMA, weight 1/16).
    avg_occupancy: BTreeMap<PortId, f64>,
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
            routes: BTreeMap::new(),
            default_route: None,
            occupancy: BTreeMap::new(),
            avg_occupancy: BTreeMap::new(),
            total_occupancy: 0,
            counters: SwitchCounters::default(),
            rng: SmallRng::seed_from_u64(0x5EED_AC0C),
        }
    }

    /// Route `dst` out of `port`.
    pub fn add_route(&mut self, dst: [u8; 4], port: PortId) {
        self.routes.insert(dst, port);
    }

    /// Set the default route (used by multi-switch topologies).
    pub fn set_default_route(&mut self, port: PortId) {
        self.default_route = Some(port);
    }

    /// Counters, as of now.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Current occupancy of one output queue, in bytes.
    pub fn port_occupancy(&self, port: PortId) -> u64 {
        self.occupancy.get(&port).copied().unwrap_or(0)
    }

    fn lookup(&self, dst: [u8; 4]) -> Option<PortId> {
        self.routes.get(&dst).copied().or(self.default_route)
    }
}

impl Node for SwitchNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, mut seg: Segment) {
        let dst = seg.ip().dst_addr();
        let Some(out) = self.lookup(dst) else {
            self.counters.no_route_drops += 1;
            return;
        };
        // Never hairpin back out the ingress port (would loop).
        if out == in_port {
            self.counters.no_route_drops += 1;
            return;
        }
        let len = seg.wire_len() as u64;
        let q = self.occupancy.get(&out).copied().unwrap_or(0);

        // Shared-buffer admission (dynamic threshold).
        let free = self
            .cfg
            .shared_buffer_bytes
            .saturating_sub(self.total_occupancy);
        let dyn_limit = (self.cfg.dynamic_alpha * free as f64) as u64;
        if q + len > dyn_limit || len > free {
            self.counters.buffer_drops += 1;
            ctx.count_drop(out, crate::engine::PortDropClass::QueueFull);
            return;
        }

        // WRED/ECN: instantaneous queue for ECN marking (DCTCP-style),
        // averaged queue + probability ramp for non-ECT drops (WRED).
        if let Some(wred) = self.cfg.wred_ecn {
            let avg = {
                let a = self.avg_occupancy.entry(out).or_insert(0.0);
                *a = *a * (15.0 / 16.0) + q as f64 / 16.0;
                *a
            };
            if seg.ecn().is_ect() {
                if q >= wred.threshold_bytes {
                    seg.mark_ce();
                    self.counters.ce_marked += 1;
                }
            } else {
                let p = wred.drop_probability(avg);
                if p > 0.0 && self.rng.random::<f64>() < p {
                    self.counters.wred_drops += 1;
                    return;
                }
            }
        }

        self.counters.forwarded += 1;
        *self.occupancy.entry(out).or_insert(0) += len;
        self.total_occupancy += len;
        ctx.enqueue(out, seg);

        // Occupancy counts bytes waiting in the FIFO, and each packet's are
        // released exactly once. The engine keeps this invariant: straight
        // after `enqueue`, an empty FIFO means the packet went to the wire,
        // and its bytes are released here; otherwise `on_tx_start` releases
        // them when it leaves the queue.
        if ctx.queued_pkts(out) == 0 {
            let e = self.occupancy.entry(out).or_insert(0);
            *e = e.saturating_sub(len);
            self.total_occupancy = self.total_occupancy.saturating_sub(len);
        }
    }

    fn on_tx_start(&mut self, _ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        let len = seg.wire_len() as u64;
        let e = self.occupancy.entry(port).or_insert(0);
        *e = e.saturating_sub(len);
        self.total_occupancy = self.total_occupancy.saturating_sub(len);
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
                payload: 1460,
            }),
        );
        net.schedule_timer_at(h, 0, 0);
        (net, sw, dst_node)
    }

    #[test]
    fn forwards_by_route() {
        let (mut net, sw, dst) = rig(SwitchConfig::default(), 3, Ecn::NotEct);
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
        let cfg = SwitchConfig::with_wred_ecn(3 * 1500);
        let (mut net, sw, dst) = rig(cfg, 20, Ecn::Ect0);
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
        let cfg = SwitchConfig::with_wred_ecn(3 * 1500);
        let (mut net, sw, dst) = rig(cfg, 20, Ecn::NotEct);
        net.run_until(crate::SECOND);
        let sw_counters = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        assert!(sw_counters.wred_drops > 0, "non-ECT must be dropped over K");
        assert_eq!(sw_counters.ce_marked, 0);
        let delivered = net.node_mut::<Sink>(dst).unwrap().got.len() as u64;
        assert_eq!(delivered, sw_counters.forwarded);
        assert_eq!(delivered + sw_counters.wred_drops, 20);
    }

    #[test]
    fn shared_buffer_limit_drops() {
        // Tiny shared buffer: a burst overflows it even without WRED.
        let cfg = SwitchConfig {
            shared_buffer_bytes: 8 * 1500,
            dynamic_alpha: 8.0,
            wred_ecn: None,
        };
        let (mut net, sw, _) = rig(cfg, 50, Ecn::Ect0);
        net.run_until(crate::SECOND);
        let c = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        assert!(c.buffer_drops > 0);
        assert!(c.forwarded < 50);
        assert!((c.drop_rate() - c.buffer_drops as f64 / 50.0).abs() < 1e-9);
        // The per-port breakdown attributes every buffer drop to the
        // egress port the packet would have taken (PortId(2) in the rig).
        let pc = net.port_counters(PortId(2));
        assert_eq!(pc.queue_full_drops, c.buffer_drops);
        assert_eq!(pc.fault_drops, 0);
    }

    #[test]
    fn dynamic_threshold_tightens_as_pool_fills() {
        // alpha = 1 with a pool of 10 packets: a single queue can use at
        // most half the pool in steady state (q ≤ free ⇒ q ≤ B/2).
        let cfg = SwitchConfig {
            shared_buffer_bytes: 10 * 1500,
            dynamic_alpha: 1.0,
            wred_ecn: None,
        };
        let (mut net, sw, _) = rig(cfg, 50, Ecn::Ect0);
        net.run_until(crate::SECOND);
        let c = net.node_mut::<SwitchNode>(sw).unwrap().counters();
        // With alpha=1 about half the tiny pool is usable → most of the
        // burst drops.
        assert!(c.buffer_drops >= 40, "drops={}", c.buffer_drops);
    }
}
