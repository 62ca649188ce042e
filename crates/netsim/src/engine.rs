//! The discrete-event engine: nodes, ports, links, timers, and the
//! deterministic event loop.
//!
//! ## Model
//!
//! * A [`Network`] owns *nodes* (anything implementing [`Node`]: switches,
//!   hosts) and *ports*. A port belongs to one node and is wired to a peer
//!   port by a link ([`LinkSpec`]).
//! * A node transmits by calling [`Ctx::enqueue`] on one of its ports. The
//!   engine models the transmitter: packets serialize one at a time at the
//!   link rate, then propagate, then are delivered to the peer port's owner
//!   via [`Node::on_packet`].
//! * Every transmission reserves two sequence numbers, for the end of its
//!   serialization (`TxDone`) and for its `Deliver`, but a `TxDone` is an
//!   event only when a packet is queued behind the one on the wire: a port
//!   remembers *until when* it is busy rather than being told when it stops
//!   (see `Port::idle_at`). The events that do fire keep the `(timestamp,
//!   sequence)` an engine that scheduled every `TxDone` would give them.
//! * Per-port FIFO queues live in the engine; *admission* (buffer limits,
//!   ECN marking, drops) is the owning node's job before it enqueues —
//!   that is where [`SwitchNode`](crate::switch::SwitchNode) implements the
//!   shared-buffer and WRED/ECN logic. The engine tells the owner when a
//!   packet leaves its queue via [`Node::on_tx_start`] so occupancy
//!   accounting stays exact.
//! * Timers: nodes schedule `(delay, token)` pairs and receive
//!   [`Node::on_timer`] callbacks. Cancellation is by generation counting
//!   on the node side (re-arming invalidates older tokens).
//!
//! ## Determinism
//!
//! Events are ordered by `(timestamp, insertion sequence)`; ties resolve in
//! insertion order. All randomness comes from a seeded RNG owned by the
//! caller. Running the same setup twice produces identical traces.

use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;

use acdc_packet::{FlowKey, Segment};
use acdc_stats::time::Nanos;
use acdc_telemetry::{DropCause, EventKind as TraceEvent, Telemetry};

use crate::link::LinkSpec;
use crate::wheel::TimerWheel;

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a port (globally, across all nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Behaviour of a network element. Implemented by switches here and by
/// hosts in `acdc-core`.
pub trait Node: Any {
    /// A packet arrived on `port` (a port owned by this node).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: Segment);

    /// A timer scheduled with this token fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// A packet previously enqueued on `port` just began transmission
    /// (it left the queue). Used for buffer-occupancy accounting.
    fn on_tx_start(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: &Segment) {}

    /// Downcast support so experiment code can inspect node state after a
    /// run.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Byte/packet counters kept per port by the engine: the port counts in
/// these fields, and [`Network::port_counters`] returns a copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortCounters {
    /// Packets transmitted (fully serialized).
    pub tx_pkts: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets delivered to this port.
    pub rx_pkts: u64,
    /// Bytes delivered to this port.
    pub rx_bytes: u64,
    /// Packets the owning node dropped instead of enqueueing because the
    /// (shared) buffer backing this port was full. Attributed to the port
    /// the packet *would have* left on.
    pub queue_full_drops: u64,
    /// Packets discarded by an injected fault process (see `acdc-faults`)
    /// instead of being forwarded out this port.
    pub fault_drops: u64,
}

/// Why a node dropped a packet it was about to forward out of a port.
/// Reported via [`Ctx::count_drop_for`] so runs can attribute loss per port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDropClass {
    /// Buffer admission failed: the egress queue (or shared buffer pool)
    /// had no room.
    QueueFull,
    /// A fault-injection process (e.g. a `FaultyLink` wrapper) discarded
    /// the packet deliberately.
    FaultInjected,
}

struct Port {
    owner: NodeId,
    peer: Option<PortId>,
    link: LinkSpec,
    queue: VecDeque<Segment>,
    /// When the transmitter falls idle: the end of the serialization in
    /// progress and the sequence number reserved for its `TxDone`. The
    /// port is busy to every event ordered before this pair, which is what
    /// a flag cleared by that `TxDone` would read — same-nanosecond ties
    /// included. The `TxDone` itself is scheduled only while `queue` is
    /// non-empty (a drain is *armed*), by whoever makes it so.
    idle_at: (Nanos, u64),
    counters: PortCounters,
}

/// What the wheel stores: 24 bytes, so a wheel entry is 40. A segment in
/// flight waits in [`InFlight`] and its `Deliver` carries the cell index.
enum EventKind {
    Deliver { port: PortId, cell: u32 },
    TxDone { port: PortId },
    Timer { node: NodeId, token: u64 },
}

/// The segments between a transmitter and the peer port: a slab whose
/// cells are reused, so its size is the high-water mark of packets on
/// the wire at once.
#[derive(Default)]
struct InFlight {
    cells: Vec<Option<Segment>>,
    vacant: Vec<u32>,
}

impl InFlight {
    fn insert(&mut self, seg: Segment) -> u32 {
        match self.vacant.pop() {
            Some(cell) => {
                self.cells[cell as usize] = Some(seg);
                cell
            }
            None => {
                let cell = u32::try_from(self.cells.len()).expect("under 2^32 packets in flight");
                self.cells.push(Some(seg));
                cell
            }
        }
    }

    fn take(&mut self, cell: u32) -> Segment {
        self.vacant.push(cell);
        self.cells[cell as usize]
            .take()
            .expect("a Deliver's cell is filled when it is scheduled")
    }
}

/// Where and when a transmission's `Deliver` goes.
struct Delivery {
    at: Nanos,
    seq: u64,
    port: PortId,
}

/// The simulated network: nodes, ports, events, virtual clock. Events
/// live in the hierarchical [`TimerWheel`], ordered by `(timestamp,
/// insertion sequence)` with ties firing in insertion order.
pub struct Network {
    nodes: Vec<Option<Box<dyn Node>>>,
    ports: Vec<Port>,
    events: TimerWheel<EventKind>,
    in_flight: InFlight,
    now: Nanos,
    /// Sequence number of the event being dispatched: with `now`, the
    /// position in the total order that [`Port::idle_at`] is compared to.
    dispatching_seq: u64,
    seq: u64,
    events_processed: u64,
    /// The network's hub: drops and fault injections reported through
    /// [`Ctx`] land in its recorder.
    telemetry: Rc<Telemetry>,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// An empty network at time zero.
    pub fn new() -> Network {
        Network {
            nodes: Vec::new(),
            ports: Vec::new(),
            events: TimerWheel::new(),
            in_flight: InFlight::default(),
            now: 0,
            dispatching_seq: 0,
            seq: 0,
            events_processed: 0,
            telemetry: Telemetry::with_default_capacity(),
        }
    }

    /// The network's telemetry hub, whose recorder holds the events nodes
    /// report through [`Ctx::record`] and [`Ctx::count_drop_for`].
    pub fn telemetry(&self) -> &Rc<Telemetry> {
        &self.telemetry
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total events processed so far (a cheap progress/perf metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Reserve a node slot; install the implementation later with
    /// [`Network::install`] (two-phase so hosts can learn their port ids
    /// before construction).
    pub fn reserve_node(&mut self) -> NodeId {
        self.nodes.push(None);
        NodeId(self.nodes.len() - 1)
    }

    /// Add a node directly.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        id
    }

    /// Install the implementation for a reserved slot.
    pub fn install(&mut self, id: NodeId, node: Box<dyn Node>) {
        assert!(self.nodes[id.0].is_none(), "node {id:?} already installed");
        self.nodes[id.0] = Some(node);
    }

    /// Connect two nodes with a symmetric link, creating one port on each.
    /// Returns `(port_on_a, port_on_b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: LinkSpec) -> (PortId, PortId) {
        let pa = PortId(self.ports.len());
        self.ports.push(Port {
            owner: a,
            peer: None,
            link,
            queue: VecDeque::new(),
            idle_at: (0, 0),
            counters: PortCounters::default(),
        });
        let pb = PortId(self.ports.len());
        self.ports.push(Port {
            owner: b,
            peer: Some(pa),
            link,
            queue: VecDeque::new(),
            idle_at: (0, 0),
            counters: PortCounters::default(),
        });
        self.ports[pa.0].peer = Some(pb);
        (pa, pb)
    }

    /// Connect `a` and `b` with `link`, but splice an interposer node (a
    /// tap, e.g. a fault injector) into the middle. The physical link
    /// (serialization + propagation) sits between `a` and the tap; the tap
    /// reaches `b` over an effectively-zero-delay patch link, so end-to-end
    /// timing stays that of a single `link` in both directions.
    ///
    /// `make` receives the tap's two ports — `(facing_a, facing_b)` — and
    /// builds the interposer node. Returns `(port_on_a, port_on_b, tap_id)`
    /// so callers can treat the outer ports exactly like a plain
    /// [`Network::connect`] result and inspect the tap later via
    /// [`Network::node_mut`].
    pub fn connect_interposed(
        &mut self,
        a: NodeId,
        b: NodeId,
        link: LinkSpec,
        make: impl FnOnce(PortId, PortId) -> Box<dyn Node>,
    ) -> (PortId, PortId, NodeId) {
        let tap = self.reserve_node();
        let (pa, tap_a) = self.connect(a, tap, link);
        // Near-infinite rate + zero propagation: `serialization_delay` uses
        // div_ceil so each packet still costs 1 ns, preserving event
        // ordering without perturbing link timing measurably.
        let patch = LinkSpec {
            rate_bps: u64::MAX,
            propagation: 0,
        };
        let (tap_b, pb) = self.connect(tap, b, patch);
        self.install(tap, make(tap_a, tap_b));
        (pa, pb, tap)
    }

    /// The owner of a port.
    pub fn port_owner(&self, port: PortId) -> NodeId {
        self.ports[port.0].owner
    }

    /// Counters for a port, as of now.
    pub fn port_counters(&self, port: PortId) -> PortCounters {
        self.ports[port.0].counters
    }

    /// Current queue depth of a port, in bytes (excluding the packet being
    /// serialized).
    pub fn port_queue_bytes(&self, port: PortId) -> u64 {
        self.ports[port.0]
            .queue
            .iter()
            .map(|s| s.wire_len() as u64)
            .sum()
    }

    /// Schedule a timer for `node` at absolute time `at` (setup-time API;
    /// nodes use [`Ctx::set_timer`] at runtime).
    pub fn schedule_timer_at(&mut self, node: NodeId, at: Nanos, token: u64) {
        let seq = self.next_seq();
        self.events
            .schedule(at, seq, EventKind::Timer { node, token });
    }

    /// Mutable, downcast access to a node (for post-run inspection).
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0]
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Run until the event queue empties or `deadline` passes. Returns the
    /// virtual time reached.
    pub fn run_until(&mut self, deadline: Nanos) -> Nanos {
        // The wheel serves whole same-timestamp (same-slot) runs from one
        // drained batch, so there is no per-event re-peek here the way
        // the BinaryHeap loop re-peeked after every pop.
        while let Some((at, seq, kind)) = self.events.pop_before(deadline) {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.dispatching_seq = seq;
            self.events_processed += 1;
            self.dispatch(kind);
        }
        // The clock always reaches the deadline, so relative timers
        // scheduled after this call behave as expected.
        self.now = self.now.max(deadline);
        self.now
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.events.peek_at()
    }

    /// Are there pending events?
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { port, cell } => {
                let seg = self.in_flight.take(cell);
                let p = &mut self.ports[port.0];
                p.counters.rx_pkts += 1;
                p.counters.rx_bytes += seg.wire_len() as u64;
                let owner = p.owner;
                self.with_node(owner, |node, ctx| node.on_packet(ctx, port, seg));
            }
            EventKind::TxDone { port } => {
                self.finish_tx(port);
            }
            EventKind::Timer { node, token } => {
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
        }
    }

    /// Temporarily remove the node, hand it a `Ctx` over the rest of the
    /// network, then put it back. Nodes never alias each other.
    fn with_node<F: FnOnce(&mut dyn Node, &mut Ctx<'_>)>(&mut self, id: NodeId, f: F) {
        let mut node = self.nodes[id.0]
            .take()
            .unwrap_or_else(|| panic!("node {id:?} not installed or reentered"));
        let mut ctx = Ctx {
            net: self,
            node: id,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.0] = Some(node);
    }

    /// Is `port` serializing a packet, as seen by the event in hand?
    fn busy(&self, port: PortId) -> bool {
        (self.now, self.dispatching_seq) < self.ports[port.0].idle_at
    }

    /// Put `wire_len` bytes on `port`'s wire (the port must be idle):
    /// count them, reserve the sequence numbers of this transmission's
    /// `TxDone` and `Deliver`, in that order, and keep the port busy until
    /// the former. Returns the latter, for [`Network::schedule_deliver`].
    fn begin_tx(&mut self, port: PortId, wire_len: usize) -> Delivery {
        debug_assert!(!self.busy(port));
        let at_done = self.now + self.ports[port.0].link.serialization_delay(wire_len);
        let done_seq = self.next_seq();
        let seq = self.next_seq();
        let p = &mut self.ports[port.0];
        p.idle_at = (at_done, done_seq);
        p.counters.tx_pkts += 1;
        p.counters.tx_bytes += wire_len as u64;
        Delivery {
            at: at_done + p.link.propagation,
            seq,
            port: p.peer.expect("transmit on unconnected port"),
        }
    }

    fn schedule_deliver(&mut self, to: Delivery, seg: Segment) {
        let cell = self.in_flight.insert(seg);
        let port = to.port;
        self.events
            .schedule(to.at, to.seq, EventKind::Deliver { port, cell });
    }

    /// Schedule `port`'s `TxDone` at the place reserved for it. Called
    /// when a packet comes to wait behind the one on the wire; the event
    /// in hand is ordered before `idle_at` (the port is busy), so the wheel
    /// has not popped past it.
    fn arm_drain(&mut self, port: PortId) {
        let (at, seq) = self.ports[port.0].idle_at;
        self.events.schedule(at, seq, EventKind::TxDone { port });
    }

    /// Begin serialization of `seg` on `port` (the port must be idle).
    fn start_tx(&mut self, port: PortId, seg: Segment) {
        let to = self.begin_tx(port, seg.wire_len());
        self.schedule_deliver(to, seg);
    }

    /// An armed drain fired: the wire is free and a packet is waiting.
    fn finish_tx(&mut self, port: PortId) {
        debug_assert_eq!((self.now, self.dispatching_seq), self.ports[port.0].idle_at);
        let head = self.ports[port.0].queue.pop_front();
        let seg = head.expect("a drain is armed only behind a queued packet");
        let to = self.begin_tx(port, seg.wire_len());
        if !self.ports[port.0].queue.is_empty() {
            self.arm_drain(port);
        }
        // The hook borrows the segment on its way to the slab; whatever it
        // schedules draws later sequence numbers than the two reserved.
        let owner = self.ports[port.0].owner;
        self.with_node(owner, |n, ctx| n.on_tx_start(ctx, port, &seg));
        self.schedule_deliver(to, seg);
    }
}

/// The interface a node uses to act on the network from inside a callback.
pub struct Ctx<'a> {
    net: &'a mut Network,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.net.now
    }

    /// Enqueue `seg` for transmission on `port` (must be owned by this
    /// node). If the transmitter is idle the packet starts serializing
    /// immediately (and `on_tx_start` is *not* called — the packet never
    /// sat in the queue); otherwise it joins the FIFO.
    pub fn enqueue(&mut self, port: PortId, seg: Segment) {
        assert_eq!(
            self.net.ports[port.0].owner, self.node,
            "node {:?} enqueueing on foreign port {port:?}",
            self.node
        );
        if self.net.busy(port) {
            let queue = &mut self.net.ports[port.0].queue;
            let armed = !queue.is_empty();
            queue.push_back(seg);
            if !armed {
                self.net.arm_drain(port);
            }
        } else {
            self.net.start_tx(port, seg);
        }
    }

    /// Is `port`'s transmitter currently serializing a packet?
    pub fn port_busy(&self, port: PortId) -> bool {
        self.net.busy(port)
    }

    /// Packets sitting in `port`'s FIFO.
    pub fn queued_pkts(&self, port: PortId) -> usize {
        self.net.ports[port.0].queue.len()
    }

    /// Record `kind` about `flow` at the current time in the network's
    /// hub ([`Network::telemetry`]).
    pub fn record(&self, flow: FlowKey, kind: TraceEvent) {
        self.net.telemetry.record(self.net.now, flow, kind);
    }

    /// Record that this node dropped a packet of `flow` it would otherwise
    /// have forwarded out `port` (must be owned by this node). The drop
    /// shows up in the port's [`PortCounters`] under the matching reason
    /// field, and as a `drop` event about `flow` in the network hub's
    /// recorder.
    pub fn count_drop_for(&mut self, port: PortId, class: PortDropClass, flow: FlowKey) {
        assert_eq!(
            self.net.ports[port.0].owner, self.node,
            "node {:?} counting drop on foreign port {port:?}",
            self.node
        );
        let c = &mut self.net.ports[port.0].counters;
        let cause = match class {
            PortDropClass::QueueFull => {
                c.queue_full_drops += 1;
                DropCause::QueueFull
            }
            PortDropClass::FaultInjected => {
                c.fault_drops += 1;
                DropCause::FaultInjected
            }
        };
        self.record(flow, TraceEvent::PacketDropped { cause });
    }

    /// Schedule a timer for this node `delay` from now.
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        let at = self.net.now + delay;
        let node = self.node;
        self.net.schedule_timer_at(node, at, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_packet::{Ecn, Ipv4Repr, TcpFlags, TcpRepr, PROTO_TCP};

    fn seg(src: [u8; 4], dst: [u8; 4], payload: usize) -> Segment {
        let ip = Ipv4Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: PROTO_TCP,
            ecn: Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        };
        let mut t = TcpRepr::new(1, 2);
        t.flags = TcpFlags::ACK;
        Segment::new_tcp(ip, t, payload)
    }

    /// Records everything it receives; echoes when `echo` is set.
    struct Sink {
        received: Vec<(Nanos, usize)>,
        timers: Vec<(Nanos, u64)>,
        echo_port: Option<PortId>,
    }

    impl Sink {
        fn new() -> Sink {
            Sink {
                received: Vec::new(),
                timers: Vec::new(),
                echo_port: None,
            }
        }
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
            self.received.push((ctx.now(), seg.wire_len()));
            if let Some(p) = self.echo_port {
                ctx.enqueue(p, seg);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push((ctx.now(), token));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `n` packets back to back at t=0 (token 0 timer).
    struct Blaster {
        port: PortId,
        n: usize,
        payload: usize,
    }

    impl Node for Blaster {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for _ in 0..self.n {
                ctx.enqueue(self.port, seg([1, 1, 1, 1], [2, 2, 2, 2], self.payload));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn single_packet_timing() {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let link = LinkSpec {
            rate_bps: 1_000_000_000, // 1 Gbps
            propagation: 10_000,     // 10 µs
        };
        let (pa, _pb) = net.connect(a, b, link);
        net.install(
            a,
            Box::new(Blaster {
                port: pa,
                n: 1,
                payload: 1210, // total wire 1250 B → 10 µs serialization
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        net.run_until(SECOND_T);
        let sink = net.node_mut::<Sink>(b).unwrap();
        assert_eq!(sink.received.len(), 1);
        // serialization 10µs + propagation 10µs = 20µs.
        assert_eq!(sink.received[0].0, 20_000);
    }

    const SECOND_T: Nanos = 1_000_000_000;

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let link = LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: 5_000,
        };
        let (pa, _) = net.connect(a, b, link);
        net.install(
            a,
            Box::new(Blaster {
                port: pa,
                n: 3,
                payload: 1210,
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        net.run_until(SECOND_T);
        let sink = net.node_mut::<Sink>(b).unwrap();
        let times: Vec<Nanos> = sink.received.iter().map(|r| r.0).collect();
        // Arrivals spaced by exactly one serialization time (10 µs).
        assert_eq!(times, vec![15_000, 25_000, 35_000]);
    }

    #[test]
    fn echo_between_two_sinks_bounces_forever_until_deadline() {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.reserve_node();
        let link = LinkSpec {
            rate_bps: 10_000_000_000,
            propagation: 100_000, // 100 µs each way
        };
        let (pa, pb) = net.connect(a, b, link);
        let mut ea = Sink::new();
        ea.echo_port = Some(pa);
        net.install(a, Box::new(ea));
        let mut eb = Sink::new();
        eb.echo_port = Some(pb);
        net.install(b, Box::new(eb));
        // Kick off one packet from a by delivering it a timer that does
        // nothing, then injecting via a third blaster node... simpler: use
        // the Deliver path directly by enqueueing from a's on_timer. Sink
        // has no such hook, so wrap: schedule a timer on a and have the
        // test assert only on b's arrivals via a one-shot Blaster.
        let c = net.reserve_node();
        let (pc, _pa2) = net.connect(c, a, link);
        net.install(
            c,
            Box::new(Blaster {
                port: pc,
                n: 1,
                payload: 0,
            }),
        );
        net.schedule_timer_at(c, 0, 0);
        net.run_until(1_000_000); // 1 ms → ~5 bounces
        let b_node = net.node_mut::<Sink>(b).unwrap();
        let bounces = b_node.received.len();
        assert!(bounces >= 4, "expected several bounces, got {bounces}");
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut net = Network::new();
        let s = net.add_node(Box::new(Sink::new()));
        net.schedule_timer_at(s, 100, 1);
        net.schedule_timer_at(s, 50, 2);
        net.schedule_timer_at(s, 100, 3);
        net.run_until(SECOND_T);
        let sink = net.node_mut::<Sink>(s).unwrap();
        let tokens: Vec<u64> = sink.timers.iter().map(|t| t.1).collect();
        assert_eq!(tokens, vec![2, 1, 3]);
        assert_eq!(sink.timers[0].0, 50);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = Network::new();
        let s = net.add_node(Box::new(Sink::new()));
        net.schedule_timer_at(s, 100, 1);
        net.schedule_timer_at(s, 200, 2);
        net.run_until(150);
        {
            let sink = net.node_mut::<Sink>(s).unwrap();
            assert_eq!(sink.timers.len(), 1);
        }
        assert!(net.has_events());
        net.run_until(SECOND_T);
        let sink = net.node_mut::<Sink>(s).unwrap();
        assert_eq!(sink.timers.len(), 2);
    }

    #[test]
    fn counters_track_traffic() {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let (pa, pb) = net.connect(a, b, LinkSpec::ten_gbe(1_000));
        net.install(
            a,
            Box::new(Blaster {
                port: pa,
                n: 5,
                payload: 960,
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        net.run_until(SECOND_T);
        let tx = net.port_counters(pa);
        let rx = net.port_counters(pb);
        assert_eq!(tx.tx_pkts, 5);
        assert_eq!(rx.rx_pkts, 5);
        assert_eq!(tx.tx_bytes, 5 * 1000);
        assert_eq!(rx.rx_bytes, 5 * 1000);
    }

    /// What [`tie`] observed.
    #[derive(Default)]
    struct TieLog {
        /// `(now, busy before, queued after)` at timer 1's enqueue.
        saw: Vec<(Nanos, bool, usize)>,
        /// Time of every `on_tx_start`.
        hooks: Vec<Nanos>,
    }

    /// Sends one packet on timer 0 and one on timer 1, which `rearm` has
    /// it set from timer 0 for the nanosecond the first serialization ends.
    struct TieProbe {
        port: PortId,
        rearm: bool,
        log: TieLog,
    }

    impl Node for TieProbe {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let busy = ctx.port_busy(self.port);
            // 1250 B on the wire: 10 µs at 1 Gbit/s.
            ctx.enqueue(self.port, seg([1, 1, 1, 1], [2, 2, 2, 2], 1210));
            if token == 1 {
                let seen = (ctx.now(), busy, ctx.queued_pkts(self.port));
                self.log.saw.push(seen);
            } else if self.rearm {
                ctx.set_timer(10_000, 1);
            }
        }
        fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _seg: &Segment) {
            self.log.hooks.push(ctx.now());
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two packets, the second enqueued on the nanosecond the first one's
    /// serialization ends; `rearm` decides which side of the reserved
    /// `TxDone` sequence number that enqueue falls on. Returns the probe's
    /// log, the arrival times and the events processed.
    fn tie(rearm: bool) -> (TieLog, Vec<Nanos>, u64) {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let link = LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: 5_000,
        };
        let (pa, _) = net.connect(a, b, link);
        net.install(
            a,
            Box::new(TieProbe {
                port: pa,
                rearm,
                log: TieLog::default(),
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        if !rearm {
            // Scheduled before the run: a sequence number below any the
            // first transmission reserves.
            net.schedule_timer_at(a, 10_000, 1);
        }
        net.run_until(SECOND_T);
        let sink = net.node_mut::<Sink>(b).unwrap();
        let arrivals = sink.received.iter().map(|r| r.0).collect();
        let log = std::mem::take(&mut net.node_mut::<TieProbe>(a).unwrap().log);
        (log, arrivals, net.events_processed())
    }

    #[test]
    fn tie_ordered_before_the_reserved_tx_done_finds_the_port_busy() {
        let (log, arrivals, events) = tie(false);
        // Busy, so the packet queues; the drain armed by that enqueue
        // fires in the same nanosecond and the hook reports it leaving.
        assert_eq!(log.saw, vec![(10_000, true, 1)]);
        assert_eq!(log.hooks, vec![10_000]);
        assert_eq!(arrivals, vec![15_000, 25_000]);
        // Two timers, the one `TxDone` with work to do, two deliveries.
        assert_eq!(events, 5);
    }

    #[test]
    fn tie_ordered_after_the_reserved_tx_done_finds_the_port_idle() {
        let (log, arrivals, events) = tie(true);
        // Idle: straight to the wire, never queued, so no hook and no
        // `TxDone` at all. Same arrivals as the other order.
        assert_eq!(log.saw, vec![(10_000, false, 0)]);
        assert_eq!(log.hooks, Vec::<Nanos>::new());
        assert_eq!(arrivals, vec![15_000, 25_000]);
        assert_eq!(events, 4);
    }

    /// Forwards everything from one port to the other, counting packets.
    struct Tap {
        pa: PortId,
        pb: PortId,
        seen: u64,
    }

    impl Node for Tap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: Segment) {
            self.seen += 1;
            let out = if port == self.pa { self.pb } else { self.pa };
            ctx.enqueue(out, seg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn interposed_link_preserves_timing_within_patch_slop() {
        // Same topology as single_packet_timing, but with a transparent tap
        // spliced in: arrival time may shift only by the ~1 ns patch hop.
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let link = LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: 10_000,
        };
        let (pa, _pb, tap) = net.connect_interposed(a, b, link, |ta, tb| {
            Box::new(Tap {
                pa: ta,
                pb: tb,
                seen: 0,
            })
        });
        net.install(
            a,
            Box::new(Blaster {
                port: pa,
                n: 1,
                payload: 1210,
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        net.run_until(SECOND_T);
        assert_eq!(net.node_mut::<Tap>(tap).unwrap().seen, 1);
        let sink = net.node_mut::<Sink>(b).unwrap();
        assert_eq!(sink.received.len(), 1);
        let t = sink.received[0].0;
        assert!((20_000..=20_005).contains(&t), "arrival at {t}");
    }

    /// Drops every packet, attributing the drop to the egress port.
    struct DropTap {
        pa: PortId,
        pb: PortId,
    }

    impl Node for DropTap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: Segment) {
            let out = if port == self.pa { self.pb } else { self.pa };
            ctx.count_drop_for(out, PortDropClass::FaultInjected, seg.flow_key());
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn count_drop_attributes_fault_drops_to_egress_port() {
        let mut net = Network::new();
        let a = net.reserve_node();
        let b = net.add_node(Box::new(Sink::new()));
        let (pa, pb, tap) = net.connect_interposed(a, b, LinkSpec::ten_gbe(1_000), |ta, tb| {
            Box::new(DropTap { pa: ta, pb: tb })
        });
        net.install(
            a,
            Box::new(Blaster {
                port: pa,
                n: 4,
                payload: 960,
            }),
        );
        net.schedule_timer_at(a, 0, 0);
        net.run_until(SECOND_T);
        let _ = tap;
        assert_eq!(net.node_mut::<Sink>(b).unwrap().received.len(), 0);
        assert_eq!(net.port_counters(pb).rx_pkts, 0);
        // The tap's b-facing port carries the attribution.
        let tap_b = PortId(pb.0 - 1);
        assert_eq!(net.port_counters(tap_b).fault_drops, 4);
        assert_eq!(net.port_counters(tap_b).queue_full_drops, 0);
    }

    #[test]
    fn determinism_identical_runs() {
        fn run() -> Vec<(Nanos, usize)> {
            let mut net = Network::new();
            let a = net.reserve_node();
            let b = net.add_node(Box::new(Sink::new()));
            let (pa, _) = net.connect(a, b, LinkSpec::ten_gbe(2_000));
            net.install(
                a,
                Box::new(Blaster {
                    port: pa,
                    n: 50,
                    payload: 1408,
                }),
            );
            net.schedule_timer_at(a, 0, 0);
            net.run_until(SECOND_T);
            let sink = net.node_mut::<Sink>(b).unwrap();
            sink.received.clone()
        }
        assert_eq!(run(), run());
    }
}
