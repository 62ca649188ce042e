//! Netsim-level behaviour of `FaultyLink`: each fault class observable at
//! a sink, stats consistent with deliveries, and byte-identical stats
//! across same-seed runs.

use std::any::Any;

use acdc_faults::{FaultPlan, FaultyLink, LinkFaultStats};
use acdc_netsim::{Ctx, LinkSpec, Network, Node, NodeId, PortId};
use acdc_packet::{Ecn, Ipv4Repr, Segment, TcpFlags, TcpRepr, PROTO_TCP};
use acdc_stats::time::Nanos;
use acdc_telemetry::{DropCause, EventKind, FaultEffect};

const SECOND: Nanos = 1_000_000_000;

fn seg(seq: u32, payload: usize) -> Segment {
    let ip = Ipv4Repr {
        src_addr: [10, 0, 0, 1],
        dst_addr: [10, 0, 0, 2],
        protocol: PROTO_TCP,
        ecn: Ecn::Ect0,
        payload_len: 0,
        ttl: 64,
    };
    let mut t = TcpRepr::new(1000, 2000);
    t.seq = seq.into();
    t.flags = TcpFlags::ACK;
    Segment::new_tcp(ip, t, payload)
}

/// Sends `n` data packets back to back at t=0, with increasing seq.
struct Blaster {
    port: PortId,
    n: u32,
}

impl Node for Blaster {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for i in 0..self.n {
            ctx.enqueue(self.port, seg(i, 1000));
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records arrival time, seq, and checksum validity of everything.
#[derive(Default)]
struct Sink {
    got: Vec<(Nanos, u32, bool, bool)>, // (time, seq, checksums_ok, ce)
}

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
        self.got.push((
            ctx.now(),
            seg.tcp().seq_number().raw(),
            seg.verify_checksums(),
            seg.ecn().is_ce(),
        ));
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One arrival at the sink: (time, seq, checksums ok, CE marked).
type Arrival = (Nanos, u32, bool, bool);

/// Blaster --(faulty 10GbE)--> Sink; returns arrivals + link stats.
fn run(plan: &FaultPlan, n: u32) -> (Vec<Arrival>, LinkFaultStats, Network, NodeId) {
    let mut net = Network::new();
    let a = net.reserve_node();
    let b = net.add_node(Box::new(Sink::default()));
    let (pa, _pb, tap) = net.connect_interposed(a, b, LinkSpec::ten_gbe(1_500), |ta, tb| {
        Box::new(FaultyLink::new(plan, ta, tb))
    });
    net.install(a, Box::new(Blaster { port: pa, n }));
    net.schedule_timer_at(a, 0, 0);
    net.run_until(SECOND);
    let stats = net.node_mut::<FaultyLink>(tap).unwrap().stats();
    let got = std::mem::take(&mut net.node_mut::<Sink>(b).unwrap().got);
    (got, stats, net, tap)
}

#[test]
fn healthy_link_is_transparent() {
    let plan = FaultPlan::new(1);
    let (got, stats, _, _) = run(&plan, 50);
    assert_eq!(got.len(), 50);
    let seqs: Vec<u32> = got.iter().map(|g| g.1).collect();
    assert_eq!(seqs, (0..50).collect::<Vec<u32>>(), "in order");
    assert!(got.iter().all(|g| g.2), "all checksums valid");
    assert_eq!(stats.a_to_b.delivered, 50);
    assert_eq!(stats.total().total_drops(), 0);
}

#[test]
fn iid_loss_drops_and_attributes_to_port_counters() {
    let plan = FaultPlan::new(7).with_iid_loss(0.2);
    let (got, stats, mut net, tap) = run(&plan, 200);
    assert!(stats.a_to_b.random_drops > 10, "{stats:?}");
    assert_eq!(got.len() as u64, stats.a_to_b.delivered);
    assert_eq!(
        stats.a_to_b.delivered + stats.a_to_b.random_drops,
        200,
        "every packet accounted for"
    );
    let pb_facing = net.node_mut::<FaultyLink>(tap).unwrap().port_facing_b();
    let pc = net.port_counters(pb_facing);
    assert_eq!(pc.fault_drops, stats.a_to_b.total_drops());
    assert_eq!(pc.queue_full_drops, 0);
}

#[test]
fn a_bare_network_hub_records_every_fault_with_its_flow() {
    let plan = FaultPlan::new(17).with_iid_loss(0.1).with_corruption(0.1);
    let (_, stats, net, _) = run(&plan, 300);
    let s = stats.total();
    assert!(s.random_drops > 0 && s.corrupted > 0, "{s:?}");
    let hub = net.telemetry();
    assert_eq!(hub.recorder().overwritten(), 0);
    let events = hub.recorder().events();
    let flow = seg(0, 1000).flow_key();
    assert!(events.iter().all(|e| e.flow == flow), "{events:?}");
    let count = |want: EventKind| events.iter().filter(|e| e.kind == want).count() as u64;
    let injected = |effect| count(EventKind::FaultInjected { effect });
    assert_eq!(injected(FaultEffect::DropRandom), s.random_drops);
    assert_eq!(injected(FaultEffect::Corrupt), s.corrupted);
    let faults = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count() as u64;
    assert_eq!(faults, s.total_drops() + s.corrupted);
    let dropped = count(EventKind::PacketDropped {
        cause: DropCause::FaultInjected,
    });
    assert_eq!(dropped, s.total_drops());
    assert_eq!(events.len() as u64, faults + dropped);
}

#[test]
fn duplication_emits_extra_copies() {
    let plan = FaultPlan::new(11).with_duplication(0.25);
    let (got, stats, _, _) = run(&plan, 100);
    assert!(stats.a_to_b.duplicated > 5, "{stats:?}");
    assert_eq!(
        got.len() as u64,
        stats.a_to_b.delivered + stats.a_to_b.duplicated
    );
}

#[test]
fn reorder_holds_packets_past_their_successors() {
    let plan = FaultPlan::new(13).with_reorder(0.2, 50_000);
    let (got, stats, _, _) = run(&plan, 100);
    assert_eq!(got.len(), 100, "reorder never loses packets");
    assert!(stats.a_to_b.reordered > 5, "{stats:?}");
    let seqs: Vec<u32> = got.iter().map(|g| g.1).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_ne!(seqs, sorted, "arrival order must differ from send order");
    assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
}

#[test]
fn corruption_breaks_checksums_but_not_parsing() {
    let plan = FaultPlan::new(17).with_corruption(0.3);
    let (got, stats, _, _) = run(&plan, 100);
    assert_eq!(got.len(), 100, "corruption does not drop at the link");
    let bad = got.iter().filter(|g| !g.2).count() as u64;
    assert!(bad > 10);
    assert_eq!(bad, stats.a_to_b.corrupted);
}

#[test]
fn jitter_delays_but_delivers_everything() {
    let base = FaultPlan::new(19);
    let (clean, _, _, _) = run(&base, 50);
    let plan = FaultPlan::new(19).with_jitter(100_000);
    let (got, stats, _, _) = run(&plan, 50);
    assert_eq!(got.len(), 50);
    assert!(stats.a_to_b.jittered > 10, "{stats:?}");
    let last_clean = clean.iter().map(|g| g.0).max().unwrap();
    let last_jittered = got.iter().map(|g| g.0).max().unwrap();
    assert!(last_jittered > last_clean, "jitter must stretch the tail");
}

#[test]
fn scripted_marks_set_ce_on_exact_data_packets() {
    let plan = FaultPlan::new(23).mark_data([1, 3]);
    let (got, stats, _, _) = run(&plan, 5);
    let ce: Vec<u32> = got.iter().filter(|g| g.3).map(|g| g.1).collect();
    assert_eq!(ce, vec![0, 2], "1st and 3rd data packets (seq 0 and 2)");
    assert_eq!(stats.a_to_b.ce_marked, 2);
}

/// A blaster that sends one packet every 100 µs (so a flap window cleanly
/// covers a contiguous run of them).
struct Pacer {
    port: PortId,
    sent: u32,
    n: u32,
}

impl Node for Pacer {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.enqueue(self.port, seg(self.sent, 1000));
        self.sent += 1;
        if self.sent < self.n {
            ctx.set_timer(100_000, 0);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn flap_drops_exactly_the_down_window() {
    // 20 packets at 0, 100µs, ..., 1.9ms; link down [500µs, 1.1ms).
    let plan = FaultPlan::new(29).with_flap(500_000, 1_100_000);
    let mut net = Network::new();
    let a = net.reserve_node();
    let b = net.add_node(Box::new(Sink::default()));
    let (pa, _pb, tap) = net.connect_interposed(a, b, LinkSpec::ten_gbe(1_500), |ta, tb| {
        Box::new(FaultyLink::new(&plan, ta, tb))
    });
    net.install(
        a,
        Box::new(Pacer {
            port: pa,
            sent: 0,
            n: 20,
        }),
    );
    net.schedule_timer_at(a, 0, 0);
    net.run_until(SECOND);
    let stats = net.node_mut::<FaultyLink>(tap).unwrap().stats();
    let got = std::mem::take(&mut net.node_mut::<Sink>(b).unwrap().got);
    // Packets sent at 500µs..1.1ms arrive at the tap ~1.2µs later; the
    // ones leaving at 500–1000µs (6 packets: seq 5..=10) die.
    assert_eq!(stats.a_to_b.flap_drops, 6, "{stats:?}");
    let seqs: Vec<u32> = got.iter().map(|g| g.1).collect();
    assert!(!seqs.contains(&5) && !seqs.contains(&10));
    assert!(seqs.contains(&4) && seqs.contains(&11));
    assert_eq!(got.len(), 14);
}

#[test]
fn same_seed_runs_have_byte_identical_stats_and_trace() {
    let plan = FaultPlan::new(0xDEAD_BEEF)
        .with_iid_loss(0.05)
        .with_reorder(0.1, 30_000)
        .with_duplication(0.05)
        .with_corruption(0.05)
        .with_jitter(10_000);
    let (got1, stats1, _, _) = run(&plan, 300);
    let (got2, stats2, _, _) = run(&plan, 300);
    assert_eq!(stats1, stats2, "FaultStats must be byte-identical");
    assert_eq!(got1, got2, "full arrival trace must be identical");
    assert_ne!(stats1, LinkFaultStats::default());
}

#[test]
fn both_directions_have_independent_streams() {
    // Echoing sink: bounce every delivered packet back so the B→A process
    // sees traffic too.
    struct Echo {
        port: PortId,
        got: u32,
    }
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
            self.got += 1;
            ctx.enqueue(self.port, seg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let plan = FaultPlan::new(31).with_iid_loss(0.3);
    let mut net = Network::new();
    let a = net.add_node(Box::new(Sink::default()));
    let b = net.reserve_node();
    let c = net.reserve_node();
    // c blasts into a's sink through the faulty a<->b link? Simpler: blaster
    // on its own node feeding b through a plain link, b echoes into the
    // faulty link... Keep it direct: a <-> b faulty, b echoes; kick off by
    // blasting from a side via an extra port on a is not possible for Sink.
    // So: c --plain--> b (echo into faulty link), faulty link b <-> a.
    let (_pa, pb, tap) = net.connect_interposed(a, b, LinkSpec::ten_gbe(1_500), |ta, tb| {
        Box::new(FaultyLink::new(&plan, ta, tb))
    });
    net.install(b, Box::new(Echo { port: pb, got: 0 }));
    let (pc, _pb2) = net.connect(c, b, LinkSpec::ten_gbe(1_500));
    net.install(c, Box::new(Blaster { port: pc, n: 200 }));
    net.schedule_timer_at(c, 0, 0);
    net.run_until(SECOND);
    let stats = net.node_mut::<FaultyLink>(tap).unwrap().stats();
    // Echo pushes 200 packets B→A through the loss process.
    assert_eq!(stats.b_to_a.offered, 200);
    assert!(stats.b_to_a.random_drops > 10);
    assert_eq!(stats.a_to_b.offered, 0);
}
