//! The engine against an eager reference model.
//!
//! `Network` schedules a transmitter's `TxDone` only when a packet waits
//! behind the one on the wire, at a sequence number it reserved when the
//! transmission began, and answers "is this port busy?" from that
//! reservation. The model below does the obvious thing instead: one
//! `BinaryHeap` over `(at, seq)`, a `TxDone` scheduled for every
//! transmission, a `busy: bool` that event clears. Both run the same
//! scripted nodes over generated star topologies whose links share one
//! rate, so that arrivals land exactly on serialization ends, and every
//! callback must happen at the same time, in the same order, and see the
//! same `port_busy` / `queued_pkts` on every port of its node. The only
//! difference allowed is the one the engine exists for: the model's
//! `TxDone`s that found nothing queued are not events in `Network`.

#![allow(
    clippy::disallowed_types,
    reason = "the timing wheel is the scheduler; the BinaryHeap here is the reference model it is checked against"
)]

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use acdc_netsim::{Ctx, LinkSpec, Network, Node, NodeId, PortId};
use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpRepr, PROTO_TCP};
use proptest::prelude::*;

/// Every link runs at 1 Gbit/s: a byte serializes in exactly 8 ns.
const RATE_BPS: u64 = 1_000_000_000;

fn serialization(len: usize) -> u64 {
    len as u64 * 8
}

/// Wire lengths in use: bare headers, and three times that, so that
/// serialization ends of one size keep meeting those of the other.
const SMALL: usize = 40;
const LARGE: usize = 120;

/// Packet-id bits saying where a packet came from.
const ECHO: u32 = 1 << 31; // the receiving leaf answers it
const REPLY: u32 = 1 << 30; // such an answer
const REFILL: u32 = 1 << 29; // enqueued from `on_tx_start`
const AGAIN: u32 = 1 << 28; // sent from a timer set at run time

/// Timer-token bits; the rest of a token is an index into the sends.
const SECOND_SEND: u64 = 1 << 32;
const PROBE: u64 = 1 << 33;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pkt {
    id: u32,
    src: u8,
    dst: u8,
    len: usize,
}

impl Pkt {
    fn to_segment(self) -> Segment {
        let ip = Ipv4Repr {
            src_addr: [10, 0, 0, self.src],
            dst_addr: [10, 0, 0, self.dst],
            protocol: PROTO_TCP,
            ecn: Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        };
        let mut tcp = TcpRepr::new(1, 2);
        tcp.seq = SeqNumber(self.id);
        Segment::new_tcp(ip, tcp, self.len - SMALL)
    }

    fn of_segment(seg: &Segment) -> Pkt {
        Pkt {
            id: seg.tcp().seq_number().raw(),
            src: seg.ip().src_addr()[3],
            dst: seg.ip().dst_addr()[3],
            len: seg.wire_len(),
        }
    }
}

/// The part of `Ctx` under test, so one script drives both simulators.
trait Wire {
    fn now(&self) -> u64;
    fn enqueue(&mut self, port: usize, pkt: Pkt);
    fn port_busy(&self, port: usize) -> bool;
    fn queued_pkts(&self, port: usize) -> usize;
    fn set_timer(&mut self, delay: u64, token: u64);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum What {
    Timer,
    Deliver,
    TxStart,
    Enqueued,
}

/// One thing a node saw: the callback (or its own enqueue just
/// returning), and `(port_busy, queued_pkts)` of each of its ports then.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Obs {
    what: What,
    at: u64,
    port: usize,
    id: u32,
    seen: Vec<(bool, usize)>,
}

type Log = Rc<RefCell<Vec<Obs>>>;

/// One packet a leaf sends from a timer scheduled before the run.
#[derive(Debug, Clone, Copy)]
struct Send {
    at: u64,
    pkt: Pkt,
    /// Set a timer for when this packet's serialization would end if it
    /// started at once, and send a copy then: a run-time timer draws its
    /// sequence number *after* the transmission reserved its own.
    again: bool,
}

enum Kind {
    /// Store and forward: out of the port facing the destination leaf.
    Hub,
    /// Sends its script, answers `ECHO` packets, and — like `HostNode`'s
    /// TSQ refill — enqueues again from `on_tx_start` while `refill` lasts,
    /// each time also setting a timer for the instant the packet that just
    /// started reaches the hub: drawn inside the hook, its sequence number
    /// is above that packet's `Deliver`, so it must fire after it.
    Leaf {
        me: u8,
        sends: Vec<Send>,
        refill: u32,
        propagation: u64,
    },
}

struct Script {
    /// The hub's port facing each leaf, or a leaf's one port.
    ports: Vec<usize>,
    kind: Kind,
    log: Log,
}

impl Script {
    fn note(&self, w: &impl Wire, what: What, port: usize, id: u32) {
        let seen = (self.ports.iter())
            .map(|&p| (w.port_busy(p), w.queued_pkts(p)))
            .collect();
        let at = w.now();
        self.log.borrow_mut().push(Obs {
            what,
            at,
            port,
            id,
            seen,
        });
    }

    fn send(&self, w: &mut impl Wire, port: usize, pkt: Pkt) {
        w.enqueue(port, pkt);
        self.note(w, What::Enqueued, port, pkt.id);
    }

    fn on_timer(&mut self, w: &mut impl Wire, token: u64) {
        let Kind::Leaf { sends, .. } = &self.kind else {
            unreachable!("only leaves set timers");
        };
        if token == PROBE {
            return self.note(w, What::Timer, self.ports[0], 0);
        }
        let (first, send) = (token & SECOND_SEND == 0, sends[token as u32 as usize]);
        let mut pkt = send.pkt;
        if !first {
            pkt.id |= AGAIN;
        }
        self.note(w, What::Timer, self.ports[0], pkt.id);
        self.send(w, self.ports[0], pkt);
        if first && send.again {
            w.set_timer(serialization(pkt.len), token | SECOND_SEND);
        }
    }

    fn on_packet(&mut self, w: &mut impl Wire, port: usize, pkt: Pkt) {
        self.note(w, What::Deliver, port, pkt.id);
        match self.kind {
            Kind::Hub => self.send(w, self.ports[pkt.dst as usize], pkt),
            Kind::Leaf { me, .. } if pkt.id & ECHO != 0 => {
                let reply = Pkt {
                    id: pkt.id & !ECHO | REPLY,
                    src: me,
                    dst: pkt.src,
                    len: SMALL,
                };
                self.send(w, port, reply);
            }
            Kind::Leaf { .. } => {}
        }
    }

    fn on_tx_start(&mut self, w: &mut impl Wire, port: usize, pkt: Pkt) {
        self.note(w, What::TxStart, port, pkt.id);
        let Kind::Leaf {
            me,
            ref mut refill,
            propagation,
            ..
        } = self.kind
        else {
            return;
        };
        if *refill > 0 {
            *refill -= 1;
            let more = Pkt {
                id: REFILL | u32::from(me) << 8 | *refill,
                src: me,
                dst: pkt.dst,
                len: LARGE,
            };
            self.send(w, port, more);
            w.set_timer(serialization(pkt.len) + propagation, PROBE);
        }
    }
}

/// A generated case: a hub with one port per leaf, and the leaves' scripts.
#[derive(Debug, Clone)]
struct Plan {
    /// Propagation delay of each hub–leaf link; its length is the number
    /// of leaves (2–4).
    propagation: Vec<u64>,
    sends: Vec<Send>,
    refill: Vec<u32>,
}

impl Plan {
    fn leaves(&self) -> usize {
        self.propagation.len()
    }

    /// Link `i` joins hub port `2i` to leaf `i`'s port `2i + 1`: the
    /// numbering `Network::connect` gives when called in leaf order.
    fn ports(i: usize) -> (usize, usize) {
        (2 * i, 2 * i + 1)
    }

    /// Node 0 is the hub, node `i + 1` leaf `i`.
    fn scripts(&self, log: &Log) -> Vec<Script> {
        let hub = Script {
            ports: (0..self.leaves()).map(|i| Plan::ports(i).0).collect(),
            kind: Kind::Hub,
            log: log.clone(),
        };
        let leaves = (0..self.leaves()).map(|i| Script {
            ports: vec![Plan::ports(i).1],
            kind: Kind::Leaf {
                me: i as u8,
                sends: self.sends.clone(),
                refill: self.refill[i],
                propagation: self.propagation[i],
            },
            log: log.clone(),
        });
        std::iter::once(hub).chain(leaves).collect()
    }

    /// The timers that start everything, in the order both simulators
    /// schedule them: `(node, at, token)`, token = index into `sends`.
    fn timers(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        (self.sends.iter().enumerate()).map(|(i, s)| (1 + s.pkt.src as usize, s.at, i as u64))
    }
}

// ---------------------------------------------------------------------
// The real engine
// ---------------------------------------------------------------------

struct Real<'a, 'b>(&'a mut Ctx<'b>);

impl Wire for Real<'_, '_> {
    fn now(&self) -> u64 {
        self.0.now()
    }
    fn enqueue(&mut self, port: usize, pkt: Pkt) {
        self.0.enqueue(PortId(port), pkt.to_segment());
    }
    fn port_busy(&self, port: usize) -> bool {
        self.0.port_busy(PortId(port))
    }
    fn queued_pkts(&self, port: usize) -> usize {
        self.0.queued_pkts(PortId(port))
    }
    fn set_timer(&mut self, delay: u64, token: u64) {
        self.0.set_timer(delay, token);
    }
}

struct OnNetwork(Script);

impl Node for OnNetwork {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: Segment) {
        self.0
            .on_packet(&mut Real(ctx), port.0, Pkt::of_segment(&seg));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.0.on_timer(&mut Real(ctx), token);
    }
    fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        self.0
            .on_tx_start(&mut Real(ctx), port.0, Pkt::of_segment(seg));
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The log of a run on `Network`, and how many events it processed.
fn run_real(plan: &Plan) -> (Vec<Obs>, u64) {
    let log = Log::default();
    let mut net = Network::new();
    let nodes: Vec<NodeId> = (0..=plan.leaves()).map(|_| net.reserve_node()).collect();
    for (i, &propagation) in plan.propagation.iter().enumerate() {
        let link = LinkSpec {
            rate_bps: RATE_BPS,
            propagation,
        };
        let (hub_port, leaf_port) = net.connect(nodes[0], nodes[i + 1], link);
        assert_eq!((hub_port.0, leaf_port.0), Plan::ports(i));
    }
    for (id, script) in nodes.iter().zip(plan.scripts(&log)) {
        net.install(*id, Box::new(OnNetwork(script)));
    }
    for (node, at, token) in plan.timers() {
        net.schedule_timer_at(nodes[node], at, token);
    }
    net.run_until(u64::MAX / 2);
    assert!(!net.has_events());
    (log.take(), net.events_processed())
}

// ---------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Deliver { port: usize, pkt: Pkt },
    TxDone { port: usize },
    Timer { node: usize, token: u64 },
}

struct ModelPort {
    owner: usize,
    peer: usize,
    propagation: u64,
    queue: VecDeque<Pkt>,
    busy: bool,
    /// When the latest serialization ends or ended (for [`Tally`] only).
    done_at: u64,
}

/// What a run of the model came across.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    events: u64,
    /// `TxDone`s that found nothing queued: the events `Network` skips.
    idle_tx_dones: u64,
    /// Enqueues on the nanosecond the port's serialization ended, ordered
    /// before its `TxDone` (port still busy) and after it (idle again).
    tie_found_busy: u64,
    tie_found_idle: u64,
}

#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    now: u64,
    seq: u64,
    ports: Vec<ModelPort>,
    nodes: Vec<Option<Script>>,
    tally: Tally,
}

impl Model {
    fn schedule(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, event)));
    }

    fn start_tx(&mut self, port: usize, pkt: Pkt) {
        let p = &mut self.ports[port];
        assert!(!p.busy);
        p.busy = true;
        let (peer, propagation) = (p.peer, p.propagation);
        let done = self.now + serialization(pkt.len);
        p.done_at = done;
        self.schedule(done, Event::TxDone { port });
        self.schedule(done + propagation, Event::Deliver { port: peer, pkt });
    }

    fn with_node(&mut self, node: usize, f: impl FnOnce(&mut Script, &mut Eager<'_>)) {
        let mut script = self.nodes[node].take().expect("no reentry");
        f(&mut script, &mut Eager { model: self, node });
        self.nodes[node] = Some(script);
    }

    fn run(&mut self) {
        while let Some(Reverse((at, _, event))) = self.heap.pop() {
            self.now = at;
            self.tally.events += 1;
            match event {
                Event::Timer { node, token } => self.with_node(node, |n, w| n.on_timer(w, token)),
                Event::Deliver { port, pkt } => {
                    let owner = self.ports[port].owner;
                    self.with_node(owner, |n, w| n.on_packet(w, port, pkt));
                }
                Event::TxDone { port } => {
                    self.ports[port].busy = false;
                    match self.ports[port].queue.pop_front() {
                        Some(pkt) => {
                            self.start_tx(port, pkt);
                            let owner = self.ports[port].owner;
                            self.with_node(owner, |n, w| n.on_tx_start(w, port, pkt));
                        }
                        None => self.tally.idle_tx_dones += 1,
                    }
                }
            }
        }
    }
}

struct Eager<'a> {
    model: &'a mut Model,
    node: usize,
}

impl Wire for Eager<'_> {
    fn now(&self) -> u64 {
        self.model.now
    }
    fn enqueue(&mut self, port: usize, pkt: Pkt) {
        assert_eq!(self.model.ports[port].owner, self.node);
        if self.model.ports[port].done_at == self.model.now {
            if self.model.ports[port].busy {
                self.model.tally.tie_found_busy += 1;
            } else {
                self.model.tally.tie_found_idle += 1;
            }
        }
        if self.model.ports[port].busy {
            self.model.ports[port].queue.push_back(pkt);
        } else {
            self.model.start_tx(port, pkt);
        }
    }
    fn port_busy(&self, port: usize) -> bool {
        self.model.ports[port].busy
    }
    fn queued_pkts(&self, port: usize) -> usize {
        self.model.ports[port].queue.len()
    }
    fn set_timer(&mut self, delay: u64, token: u64) {
        let (at, node) = (self.model.now + delay, self.node);
        self.model.schedule(at, Event::Timer { node, token });
    }
}

/// The log of a run on the model, and what it came across.
fn run_model(plan: &Plan) -> (Vec<Obs>, Tally) {
    let log = Log::default();
    let mut model = Model::default();
    for (i, &propagation) in plan.propagation.iter().enumerate() {
        let (hub_port, leaf_port) = Plan::ports(i);
        for (owner, peer) in [(0, leaf_port), (i + 1, hub_port)] {
            model.ports.push(ModelPort {
                owner,
                peer,
                propagation,
                queue: VecDeque::new(),
                busy: false,
                done_at: u64::MAX,
            });
        }
    }
    model.nodes = plan.scripts(&log).into_iter().map(Some).collect();
    for (node, at, token) in plan.timers() {
        model.schedule(at, Event::Timer { node, token });
    }
    model.run();
    (log.take(), model.tally)
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

fn check(plan: &Plan) {
    let (real, real_events) = run_real(plan);
    let (model, tally) = run_model(plan);
    for (i, (r, m)) in real.iter().zip(&model).enumerate() {
        assert_eq!(r, m, "observation {i} differs (engine left, model right)");
    }
    assert_eq!(real.len(), model.len(), "one log is a prefix of the other");
    assert_eq!(
        real_events,
        tally.events - tally.idle_tx_dones,
        "the engine's events are the model's minus its idle TxDones"
    );
}

/// Send times on the grid of the small packet's serialization time (so
/// that arrivals, timers and serialization ends coincide), now and then
/// a few nanoseconds off it.
fn arb_at() -> impl Strategy<Value = u64> {
    let grid = serialization(SMALL);
    prop_oneof![
        3 => (0u64..48).prop_map(move |slot| slot * grid),
        1 => 0u64..48 * grid,
    ]
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let propagation = prop_oneof![Just(0u64), Just(serialization(SMALL)), Just(500u64)];
    let send = (
        arb_at(),
        (0usize..4, 1usize..4),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    (
        prop::collection::vec(propagation, 2..5),
        prop::collection::vec(send, 1..40),
        prop::collection::vec(0u32..4, 4..5),
    )
        .prop_map(|(propagation, sends, refill)| {
            let leaves = propagation.len();
            let sends = (sends.into_iter().enumerate())
                .map(|(i, (at, (src, hop), large, echo, again))| {
                    let src = src % leaves;
                    // `hop` in 1..leaves, so never back to the sender.
                    let dst = (src + 1 + hop % (leaves - 1)) % leaves;
                    let pkt = Pkt {
                        id: i as u32 | if echo { ECHO } else { 0 },
                        src: src as u8,
                        dst: dst as u8,
                        len: if large { LARGE } else { SMALL },
                    };
                    Send { at, pkt, again }
                })
                .collect();
            Plan {
                propagation,
                sends,
                refill,
            }
        })
}

proptest! {
    #[test]
    fn engine_matches_the_eager_model(plan in arb_plan()) {
        check(&plan);
    }
}

proptest! {
    // The vendored proptest runs 64 cases by default; nightly.yml runs
    // this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn engine_matches_the_eager_model_4096(plan in arb_plan()) {
        check(&plan);
    }
}

proptest! {
    // A generator that never queued a packet, or never put an enqueue on
    // the nanosecond a serialization ends, would prove nothing.
    #![proptest_config(ProptestConfig::with_cases(1))]
    #[test]
    fn generated_plans_reach_both_orders_of_the_tie(
        plans in prop::collection::vec(arb_plan(), 64..65),
    ) {
        let (mut sum, mut hooks) = (Tally::default(), 0);
        for plan in &plans {
            let (log, tally) = run_model(plan);
            sum.tie_found_busy += tally.tie_found_busy;
            sum.tie_found_idle += tally.tie_found_idle;
            sum.idle_tx_dones += tally.idle_tx_dones;
            hooks += log.iter().filter(|o| o.what == What::TxStart).count();
        }
        prop_assert!(sum.tie_found_busy > 50, "{sum:?}");
        prop_assert!(sum.tie_found_idle > 50, "{sum:?}");
        prop_assert!(sum.idle_tx_dones > 50, "{sum:?}");
        prop_assert!(hooks > 50, "{hooks} on_tx_start hooks");
    }
}
