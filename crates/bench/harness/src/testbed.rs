//! The three full-pipeline workloads: guest endpoints → vSwitch egress →
//! link → switch → link → NIC verify → vSwitch ingress → endpoint, all
//! under `Scheme::acdc()` (CUBIC guests, DCTCP in the vSwitch, workers
//! n = 0). The measured call is `Testbed::run_until`.

use std::collections::BTreeMap;
use std::time::Instant;

use acdc_core::{FlowHandle, HostNode, Scheme, Testbed, TraceSender};
use acdc_netsim::{Nanos, PortId, MICROSECOND, MILLISECOND};
use acdc_workloads::FlowSizeDist;

use crate::tracer::Tracer;
use crate::util::{draw, Fnv};
use crate::workload::{acdc_counters, Rep, Size};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 7a: 5 long-lived bulk pairs and a probe pair across a trunk,
    /// MTU 1500 — steady state at the smallest data packet.
    BulkDumbbell,
    /// Fig 18/19: 47 senders into one receiver, MTU 9000 — one hot port,
    /// constant CE marking, sub-2-segment windows and RTOs.
    IncastStar,
    /// Fig 23: 17 hosts, 5 trace apps each over all-pairs connections,
    /// web-search sizes — 160 connections per host, dense timers, mice.
    TraceStar,
}

/// Trace apps per host and hosts of `TraceStar`.
const TRACE_APPS: usize = 5;
const TRACE_HOSTS: usize = 17;
/// Senders of `IncastStar` (the 48-port switch also holds the receiver).
const INCAST_SENDERS: usize = 47;
/// Messages below this are mice (the paper's Fig 23 cut).
const MICE_BYTES: u64 = 10_000;
/// Guest servers listen here (`Testbed::add_flow`); every other local
/// port is a client's.
const SERVER_PORT: u16 = 5_001;

impl Kind {
    /// Simulated span of one rep. Fixed virtual time, never a wall-time
    /// target, so packet and event counts are identical on every machine.
    fn span(self, size: Size) -> Nanos {
        match (self, size) {
            (Kind::BulkDumbbell, Size::Full) => 300 * MILLISECOND,
            (Kind::IncastStar, Size::Full) => 1_200 * MILLISECOND,
            (Kind::TraceStar, Size::Full) => 120 * MILLISECOND,
            (Kind::BulkDumbbell, Size::Check) => 8 * MILLISECOND,
            (Kind::IncastStar, Size::Check) => 10 * MILLISECOND,
            (Kind::TraceStar, Size::Check) => 3 * MILLISECOND,
        }
    }

    fn mtu(self) -> usize {
        match self {
            Kind::BulkDumbbell => 1500,
            Kind::IncastStar | Kind::TraceStar => 9000,
        }
    }

    /// Interval of the 64-byte ping-pong probe, sized so a full rep
    /// collects over a thousand round trips.
    fn probe_interval(self) -> Nanos {
        match self {
            Kind::BulkDumbbell => 250 * MICROSECOND,
            Kind::IncastStar => 500 * MICROSECOND,
            Kind::TraceStar => 0,
        }
    }
}

struct Built {
    tb: Testbed,
    /// The long-lived bulk flows (empty for `TraceStar`).
    bulk: Vec<FlowHandle>,
    probe: Option<FlowHandle>,
    host_ports: Vec<PortId>,
    switch_ports: Vec<PortId>,
    switches: usize,
}

/// Split the engine's ports into host NICs and switch ports by asking who
/// owns each (ports are numbered in `connect` order, two per link).
fn classify_ports(tb: &mut Testbed, links: usize) -> (Vec<PortId>, Vec<PortId>) {
    let (mut hosts, mut switches) = (Vec::new(), Vec::new());
    for p in (0..2 * links).map(PortId) {
        let owner = tb.net.port_owner(p);
        if tb.net.node_mut::<HostNode>(owner).is_some() {
            hosts.push(p);
        } else {
            switches.push(p);
        }
    }
    (hosts, switches)
}

fn build(kind: Kind, seed: u64, span: Nanos) -> Built {
    let scheme = Scheme::acdc();
    match kind {
        Kind::BulkDumbbell => {
            // Hosts 0..6 send, 6..12 receive; pair 5 → 11 is the probe.
            let mut tb = Testbed::dumbbell(6, scheme, kind.mtu());
            let bulk = (0..5)
                .map(|i| {
                    let start =
                        i as u64 * 200 * MICROSECOND + draw(seed, i as u64) % (900 * MICROSECOND);
                    tb.add_bulk(i, 6 + i, None, start)
                })
                .collect();
            let probe = tb.add_pingpong(5, 11, 64, kind.probe_interval(), 0);
            let (host_ports, switch_ports) = classify_ports(&mut tb, 1 + 12);
            Built {
                tb,
                bulk,
                probe: Some(probe),
                host_ports,
                switch_ports,
                switches: 2,
            }
        }
        Kind::IncastStar => {
            // Hosts 0..47 send to host 47; host 48 probes the receiver.
            let n = INCAST_SENDERS;
            let mut tb = Testbed::star(n + 2, scheme, kind.mtu());
            let bulk = (0..n)
                .map(|s| {
                    let start = draw(seed, s as u64) % (2 * MICROSECOND);
                    tb.add_bulk(s, n, None, start)
                })
                .collect();
            let probe = tb.add_pingpong(n + 1, n, 64, kind.probe_interval(), 0);
            let (host_ports, switch_ports) = classify_ports(&mut tb, n + 2);
            Built {
                tb,
                bulk,
                probe: Some(probe),
                host_ports,
                switch_ports,
                switches: 1,
            }
        }
        Kind::TraceStar => {
            let n = TRACE_HOSTS;
            let mut tb = Testbed::star(n, scheme, kind.mtu());
            for i in 0..n {
                for a in 0..TRACE_APPS {
                    let conns = (0..n)
                        .filter(|&d| d != i)
                        .map(|d| {
                            let h = tb.add_flow(i, d, None, None, 0, Default::default());
                            tb.client_conn_index(h)
                        })
                        .collect();
                    let app_seed = draw(seed, ((i as u64) << 16) ^ a as u64);
                    // Issuing stops at 90 % of the span so the tail drains.
                    tb.host_mut(i).add_multi_app(Box::new(TraceSender::new(
                        conns,
                        FlowSizeDist::web_search(),
                        app_seed,
                        span - span / 10,
                    )));
                }
            }
            let (host_ports, switch_ports) = classify_ports(&mut tb, n);
            Built {
                tb,
                bulk: Vec::new(),
                probe: None,
                host_ports,
                switch_ports,
                switches: 1,
            }
        }
    }
}

/// Acked stream bytes of every connection on every host, in host then
/// connection order.
fn acked_all(tb: &mut Testbed) -> Vec<u64> {
    let mut out = Vec::new();
    for h in 0..tb.host_count() {
        let host = tb.host_mut(h);
        for c in 0..host.conn_count() {
            out.push(host.endpoint(c).acked_bytes());
        }
    }
    out
}

/// Position of a flow's client connection in [`acked_all`]'s order.
fn flat_index(tb: &mut Testbed, h: FlowHandle) -> usize {
    let before: usize = (0..h.client_host)
        .map(|i| tb.host_mut(i).conn_count())
        .sum();
    before + tb.client_conn_index(h)
}

/// Packets and bytes delivered to host NICs so far.
fn host_rx(tb: &Testbed, ports: &[PortId]) -> (u64, u64) {
    ports.iter().fold((0, 0), |(p, b), &port| {
        let c = tb.net.port_counters(port);
        (p + c.rx_pkts, b + c.rx_bytes)
    })
}

/// What the measured part of a rep leaves behind.
#[derive(Default)]
struct Measured {
    /// Wall ns of each `run_until` call, in order.
    slices: Vec<u64>,
    allocs: u64,
    alloc_bytes: u64,
    /// Deepest switch queue seen at a slice boundary (traced reps only).
    queue_peak: u64,
    /// [`acked_all`] at the end of the simulated warm-up.
    base: Vec<u64>,
}

/// Run `b` to the end of `span` in 1-virtual-ms slices, each timed on its
/// own: the work of a slice is the same on every rep, so a run can take
/// each at its fastest across its reps and a burst of interference moves
/// nothing. When traced, 10-ms spans carry event/packet/pool deltas (warm-up
/// and steady state can be told apart) and the switch queues are sampled
/// at every slice boundary.
fn simulate(
    b: &mut Built,
    span: Nanos,
    warm: Nanos,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Measured {
    let pool = acdc_packet::pool::global();
    let mut m = Measured::default();
    let mut now = 0;
    while now < span {
        let group_end = (now + 10 * MILLISECOND).min(span);
        let ev0 = b.tb.net.events_processed();
        let (p0, _) = host_rx(&b.tb, &b.host_ports);
        let pool0 = pool.stats();
        tracer.open("sim.slice");
        while now < group_end {
            // The warm-up boundary is a slice boundary too.
            let boundary = if now < warm { warm } else { group_end };
            let step = (now + MILLISECOND).min(group_end).min(boundary);
            let window = count_alloc::window(count_allocs);
            let t = Instant::now();
            b.tb.run_until(step);
            m.slices.push(t.elapsed().as_nanos() as u64);
            let counted = window.close();
            m.allocs += counted.allocs;
            m.alloc_bytes += counted.alloc_bytes;
            now = step;
            if now == warm {
                m.base = acked_all(&mut b.tb);
            }
            if tracer.on() {
                for &p in &b.switch_ports {
                    m.queue_peak = m.queue_peak.max(b.tb.net.port_queue_bytes(p));
                }
            }
        }
        let pool1 = pool.stats();
        let (p1, _) = host_rx(&b.tb, &b.host_ports);
        tracer.close(
            p1 - p0,
            vec![
                ("events", b.tb.net.events_processed() - ev0),
                ("pkts", p1 - p0),
                ("pool_hits", pool1.hits - pool0.hits),
                ("pool_misses", pool1.misses - pool0.misses),
            ],
        );
    }
    m
}

/// Latency samples in ms: probe round trips (handshake-era first five
/// dropped), or completion times of mice messages. Also the number of
/// messages of any size that completed.
fn latencies_ms(b: &mut Built) -> (Vec<f64>, u64) {
    if let Some(p) = b.probe {
        return (b.tb.rtt_samples_ms(p).into_iter().skip(5).collect(), 0);
    }
    let (mut mice, mut messages) = (Vec::new(), 0);
    for h in 0..b.tb.host_count() {
        let host = b.tb.host_mut(h);
        for a in 0..host.multi_app_count() {
            let Some(fct) = host.multi_app(a).and_then(|x| x.fct()) else {
                continue;
            };
            messages += fct.len() as u64;
            mice.extend(
                fct.samples()
                    .iter()
                    .filter(|s| s.bytes < MICE_BYTES)
                    .map(|s| s.fct() as f64 / MILLISECOND as f64),
            );
        }
    }
    (mice, messages)
}

/// Operations `(attempted, failed)`. With a probe, op = ping or bulk
/// flow; failed = ping unanswered at the end (one may be in flight) or
/// flow with nothing acked after the warm-up. Without, op = client
/// connection; failed = not established, or holding queued data with
/// nothing acked. Message completions are not ops: a 30 MB web-search
/// message issued late legitimately outlives the span.
fn operations(b: &mut Built, per_flow_gbps: &[f64]) -> (u64, u64) {
    if let Some(p) = b.probe {
        let sent = b.tb.client_endpoint(p).queued_bytes() / 64;
        let answered = b.tb.rtt_samples_ms(p).len() as u64;
        let stalled = per_flow_gbps.iter().filter(|&&g| g <= 0.0).count() as u64;
        return (
            sent + b.bulk.len() as u64,
            sent.saturating_sub(answered + 1) + stalled,
        );
    }
    let (mut attempted, mut failed) = (0, 0);
    for h in 0..b.tb.host_count() {
        let host = b.tb.host_mut(h);
        for c in 0..host.conn_count() {
            let ep = host.endpoint(c);
            if ep.config().local_port == SERVER_PORT {
                continue;
            }
            attempted += 1;
            let stuck = ep.queued_bytes() > 0 && ep.acked_bytes() == 0;
            failed += u64::from(!ep.is_established() || stuck);
        }
    }
    (attempted, failed)
}

/// One repetition: build, run, read the public counters.
pub fn run(kind: Kind, seed: u64, size: Size, tracer: &mut Tracer, count_allocs: bool) -> Rep {
    let span = kind.span(size);
    let warm = span / 5;
    let pool_before = acdc_packet::pool::global().stats();

    tracer.open("setup");
    let t = Instant::now();
    let mut b = build(kind, seed, span);
    let setup_ns = t.elapsed().as_nanos() as u64;
    tracer.close(1, Vec::new());

    let m = simulate(&mut b, span, warm, tracer, count_allocs);
    let mut rep = Rep {
        setup_ns,
        slices: m.slices,
        ..Rep::default()
    };
    let end = acked_all(&mut b.tb);
    let (pkts, bytes) = host_rx(&b.tb, &b.host_ports);
    rep.pkts = pkts;
    let events = b.tb.net.events_processed();

    // --- simulated outcomes -------------------------------------------
    // Goodput per flow after the warm-up: every connection, or, where
    // there are bulk flows, those only (the probe's pings are not goodput).
    let gbps = |i: usize| (end[i] - m.base[i]) as f64 * 8.0 / (span - warm) as f64;
    let per_flow_gbps: Vec<f64> = if b.bulk.is_empty() {
        (0..end.len()).map(gbps).collect()
    } else {
        b.bulk
            .clone()
            .into_iter()
            .map(|h| gbps(flat_index(&mut b.tb, h)))
            .collect()
    };
    let goodput: f64 = per_flow_gbps.iter().sum();
    let jain = if b.bulk.is_empty() {
        0.0
    } else {
        acdc_stats::jain_index(&per_flow_gbps).unwrap_or(0.0)
    };
    let (latencies, messages) = latencies_ms(&mut b);
    let mut distribution = acdc_stats::Distribution::new();
    distribution.extend(latencies.iter().copied());
    let p99 = distribution.percentile(99.0).unwrap_or(0.0);
    (rep.attempted, rep.failed) = operations(&mut b, &per_flow_gbps);

    // --- public counters, fingerprint ------------------------------------
    let mut sw = acdc_netsim::SwitchCounters::default();
    let mut fp = Fnv::default();
    fp.word(pkts);
    fp.word(events);
    for &a in &end {
        fp.word(a);
    }
    for i in 0..b.switches {
        let c = b.tb.switch_counters(i);
        for w in [
            c.forwarded,
            c.ce_marked,
            c.wred_drops,
            c.buffer_drops,
            c.no_route_drops,
        ] {
            fp.word(w);
        }
        sw.forwarded += c.forwarded;
        sw.ce_marked += c.ce_marked;
        sw.wred_drops += c.wred_drops;
        sw.buffer_drops += c.buffer_drops;
        sw.no_route_drops += c.no_route_drops;
    }
    let mut acdc: BTreeMap<String, u64> = BTreeMap::new();
    let (mut rtx, mut timeouts, mut conns, mut seq_mismatch) = (0u64, 0u64, 0u64, 0u64);
    let mut overwritten = b.tb.telemetry().recorder().overwritten();
    let hosts = b.tb.host_count();
    for h in 0..hosts {
        let host = b.tb.host_mut(h);
        for (name, value) in acdc_counters(host.telemetry()) {
            *acdc.entry(name).or_default() += value;
        }
        overwritten += host.telemetry().recorder().overwritten();
        conns += host.conn_count() as u64;
        for c in 0..host.conn_count() {
            let ep = host.endpoint(c);
            rtx += ep.retransmitted_segments();
            timeouts += ep.timeouts();
            // The vSwitch's passive reconstruction against ground truth.
            let view = host.datapath().seq_view(&ep.flow_key());
            if ep.is_established() && view.is_some_and(|v| v != ep.seq_view()) {
                seq_mismatch += 1;
            }
        }
    }
    for v in acdc.values() {
        fp.word(*v);
    }
    rep.fingerprint = fp.finish();
    let counter = |name: &str| acdc.get(name).copied().unwrap_or(0) as f64;

    // --- sanity ----------------------------------------------------------
    if size == Size::Full {
        if b.probe.is_some() {
            if !(goodput > 8.0 && goodput <= 10.0) {
                rep.errors.push(format!(
                    "aggregate goodput {goodput:.3} Gbit/s outside (8, 10]"
                ));
            }
            let (answered, slots) = (latencies.len() as u64 + 5, span / kind.probe_interval());
            if answered < slots / 2 {
                rep.errors.push(format!(
                    "probe answered {answered} pings in {slots} intervals"
                ));
            }
        } else if latencies.is_empty() {
            rep.errors.push("no mice message completed".to_string());
        }
    }
    if seq_mismatch > 0 {
        rep.errors.push(format!(
            "{seq_mismatch} live flows where the vSwitch seq_view differs from the endpoint's"
        ));
    }
    if counter("acdc.rwnd_rewrites") == 0.0 {
        rep.errors
            .push("no RWND rewrite: enforcement never engaged".to_string());
    }

    // Data packets carry an MSS of payload, ACKs almost none: the byte
    // count splits the delivered packets into the two kinds.
    let mss = (kind.mtu() - 40) as f64;
    let data_share = ((bytes as f64 - 40.0 * pkts as f64) / (mss * pkts as f64)).clamp(0.0, 1.0);
    let pool = acdc_packet::pool::global().stats();
    let (hits, misses) = (
        pool.hits - pool_before.hits,
        pool.misses - pool_before.misses,
    );
    let per_pkt = |x: f64| x / pkts.max(1) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    rep.counts = BTreeMap::from([
        ("sim.pkts", pkts as f64),
        ("sim.goodput_gbps", goodput),
        ("sim.latency_p99_ms", p99),
        ("sim.latency_samples", latencies.len() as f64),
        ("sim.jain", jain),
        ("sim.messages_done", messages as f64),
        (
            "packet.pool_hit_share",
            share(hits as f64, (hits + misses) as f64),
        ),
        ("netsim.events_per_pkt", per_pkt(events as f64)),
        (
            "netsim.ce_mark_share",
            share(sw.ce_marked as f64, sw.forwarded as f64),
        ),
        (
            "netsim.drop_share",
            share(
                sw.total_drops() as f64,
                (sw.forwarded + sw.total_drops()) as f64,
            ),
        ),
        ("netsim.queue_peak_kb", m.queue_peak as f64 / 1000.0),
        ("tcp.rtx_share", per_pkt(rtx as f64)),
        ("tcp.timeouts", timeouts as f64),
        (
            "vswitch.rwnd_rewrite_share",
            per_pkt(counter("acdc.rwnd_rewrites")),
        ),
        (
            "vswitch.fack_share",
            share(
                counter("acdc.facks_sent"),
                counter("acdc.packs_sent") + counter("acdc.facks_sent"),
            ),
        ),
        (
            "vswitch.inferred_timeouts",
            counter("acdc.inferred_timeouts"),
        ),
        ("core.conns_per_host", conns as f64 / hosts as f64),
        ("telemetry.events_overwritten", overwritten as f64),
        ("proc.allocs_per_pkt", per_pkt(m.allocs as f64)),
        ("proc.alloc_bytes_per_pkt", per_pkt(m.alloc_bytes as f64)),
        ("ledger.data_share", data_share),
    ]);
    rep
}
