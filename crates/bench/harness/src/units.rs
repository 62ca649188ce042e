//! Unit costs: timed loops over each layer's `pub` API, from outside.
//! Inputs and outputs go through `black_box`, every clock read covers at
//! least 64 calls, and every number is the median of several samples.
//! These are what the ledger multiplies by a workload's exact counts.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use acdc_cc::{AckEvent, CcConfig, CcKind};
use acdc_netsim::{
    Ctx, LinkSpec, Network, Node, PortId, SwitchConfig, SwitchNode, TimerWheel, MICROSECOND,
    MILLISECOND,
};
use acdc_packet::{Ecn, FlowKey, PackOption, Segment};
use acdc_tcp::{Endpoint, TcpConfig};
use acdc_telemetry::{EventKind, Telemetry};
use acdc_vswitch::{
    AcdcConfig, AcdcDatapath, AdmissionPolicy, DatapathCheckpoint, FlowEntry, FlowTable,
};
use acdc_workers::WorkerEngine;

use crate::dp::{Steady, Via};
use crate::pkt::{self, From};
use crate::tracer::Tracer;
use crate::util::{quartiles, Quartiles, SplitMix64};

/// Samples per unit cost (the median is reported).
const SAMPLES: usize = 5;
/// Table entries of the restore loop (see `vswitch_maintenance`).
const RESTORE_ENTRIES: usize = 128;

/// Every unit cost, by metric name.
pub struct UnitCosts(pub BTreeMap<&'static str, Quartiles>);

impl UnitCosts {
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |q| q.value)
    }
}

/// Run every loop. `quick` shrinks them for the self-tests.
pub fn measure(tracer: &mut Tracer, seed: u64, quick: bool) -> UnitCosts {
    let mut u = Units {
        tracer,
        seed,
        quick,
        out: BTreeMap::new(),
    };
    // A fresh process has an empty segment pool, and a take from an empty
    // pool scans every shard before it allocates: twice the cost of a take
    // anywhere a workload runs. Park a few hundred buffers on every shard
    // first, as any rep does within its first milliseconds.
    drop(
        (0..4_096)
            .map(|i| pkt::data(i, From::Local, 0, false))
            .collect::<Vec<_>>(),
    );
    u.packet();
    u.netsim();
    u.cc();
    u.tcp();
    u.vswitch_1k();
    u.vswitch_100k();
    u.vswitch_table();
    u.vswitch_maintenance();
    u.telemetry();
    UnitCosts(u.out)
}

/// Collects the samples of every unit cost while the loops run.
struct Units<'a> {
    tracer: &'a mut Tracer,
    seed: u64,
    quick: bool,
    out: BTreeMap<&'static str, Quartiles>,
}

/// Bytes `f` allocates and leaves live, and what it built.
fn live_bytes<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let window = count_alloc::window(true);
    let built = f();
    (window.close().live_bytes(), built)
}

/// Wall ns of `f`.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_nanos() as f64, r)
}

impl Units<'_> {
    /// `n`, or a sliver of it when quick.
    fn n(&self, n: usize) -> usize {
        if self.quick {
            (n / 50).max(64)
        } else {
            n
        }
    }

    fn put(&mut self, name: &'static str, samples: &[f64]) {
        self.out.insert(name, quartiles(samples));
    }

    fn exact(&mut self, name: &'static str, value: f64) {
        self.put(name, &[value]);
    }

    /// `SAMPLES` timings of `f`, each divided by `calls`.
    fn per_call(&mut self, name: &'static str, calls: usize, mut f: impl FnMut()) {
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                self.tracer.open(name);
                let (ns, ()) = time(&mut f);
                self.tracer.close(calls as u64, Vec::new());
                ns / calls as f64
            })
            .collect();
        self.put(name, &samples);
    }

    // -----------------------------------------------------------------
    // packet
    // -----------------------------------------------------------------

    fn packet(&mut self) {
        let n = self.n(100_000);
        // Build: one `Segment::new_tcp` and its release, 1448-byte data.
        self.per_call("packet.build_ns", n, || {
            for i in 0..n {
                black_box(pkt::data(
                    black_box(i & 0xff),
                    From::Local,
                    (i >> 8) as u32,
                    false,
                ));
            }
        });

        // Verify: the NIC's checksum check on a received data segment.
        let segs: Vec<Segment> = (0..256)
            .map(|i| pkt::data(i, From::Local, 0, false))
            .collect();
        self.per_call("packet.verify_ns", n, || {
            for _ in 0..n / 256 {
                for s in &segs {
                    black_box(black_box(s).verify_checksums());
                }
            }
        });

        // Mutate: what the vSwitch and a marking switch do to an ACK in
        // place — window rewrite, ECT then CE, PACK append and strip.
        let mut acks: Vec<Segment> = (0..256)
            .map(|i| pkt::ack(i, From::Remote, 0, None))
            .collect();
        let pack = PackOption {
            total_bytes: 11_584,
            marked_bytes: 1_448,
        };
        self.per_call("packet.mutate_ns", n, || {
            for round in 0..n / 256 {
                for s in &mut acks {
                    s.rewrite_window(black_box(round as u16));
                    s.set_ecn(Ecn::Ect0);
                    s.mark_ce();
                    black_box(s.append_pack_in_place(black_box(pack)));
                    black_box(s.strip_pack_in_place());
                }
            }
        });

        // Parse: header bytes off the wire into a segment with its meta.
        // Nothing does this today — constructors pre-fill the meta — so
        // this is the baseline for wire input.
        let wire = {
            let mut s = pkt::syn(7, From::Remote);
            assert!(s.append_pack_in_place(pack), "PACK fits a SYN's options");
            s.header_bytes().to_vec()
        };
        let pool = acdc_packet::pool::global();
        self.per_call("packet.parse_ns", n, || {
            for _ in 0..n {
                let buf = pool.take_copy(black_box(&wire));
                let s = Segment::from_header_bytes(buf, 0).expect("emitted headers parse");
                black_box(s.try_meta().expect("parsed above").mss);
            }
        });
    }

    // -----------------------------------------------------------------
    // netsim
    // -----------------------------------------------------------------

    fn netsim(&mut self) {
        // Bare forwarding: sources → switch → sinks, 40-byte segments, no
        // hosts, no TCP. One sample is one fresh network.
        let virtual_ns = if self.quick {
            20 * MICROSECOND
        } else {
            750 * MICROSECOND
        };
        let mut events_per_pkt = 0.0;
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let (mut net, sinks) = bare_network();
                self.tracer.open("netsim.bare_fwd_ns");
                let (ns, ()) = time(|| {
                    net.run_until(virtual_ns);
                });
                let pkts: u64 = sinks.iter().map(|&p| net.port_counters(p).rx_pkts).sum();
                self.tracer.close(pkts, Vec::new());
                events_per_pkt = net.events_processed() as f64 / pkts as f64;
                ns / pkts as f64
            })
            .collect();
        self.put("netsim.bare_fwd_ns", &samples);
        self.exact("netsim.bare_events_per_pkt", events_per_pkt);

        // Timing wheel: one schedule + one pop with a steady population.
        let ops = self.n(200_000);
        for (name, pending) in [
            ("netsim.wheel_op_ns_64", 64u64),
            ("netsim.wheel_op_ns_64k", 65_536u64),
        ] {
            let gap = 1_000;
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut seq = 0u64;
            for i in 0..pending {
                seq += 1;
                wheel.schedule(i * gap, seq, i);
            }
            self.per_call(name, ops, || {
                for _ in 0..ops {
                    let (at, _, v) = wheel.pop_before(u64::MAX).expect("population is steady");
                    seq += 1;
                    wheel.schedule(at + pending * gap, seq, black_box(v));
                }
            });
        }
    }

    // -----------------------------------------------------------------
    // cc
    // -----------------------------------------------------------------

    fn cc(&mut self) {
        let n = self.n(200_000);
        for (name, kind, cfg) in [
            ("cc.dctcp_on_ack_ns", CcKind::Dctcp, CcConfig::vswitch(1448)),
            ("cc.cubic_on_ack_ns", CcKind::Cubic, CcConfig::host(1448)),
        ] {
            let mut cc = kind.build(cfg);
            let mut now = 0;
            self.per_call(name, n, || {
                for i in 0..n as u64 {
                    now += 10 * MICROSECOND;
                    cc.on_ack(black_box(&AckEvent {
                        now,
                        newly_acked: 1448,
                        marked: if i % 8 == 0 { 1448 } else { 0 },
                        rtt: Some(100 * MICROSECOND),
                        in_flight: 14_480,
                        ece: false,
                    }));
                    black_box(cc.cwnd());
                }
            });
        }
    }

    // -----------------------------------------------------------------
    // tcp
    // -----------------------------------------------------------------

    fn tcp(&mut self) {
        // Transfer: an active and a passive endpoint wired back to back,
        // every segment one produces handed straight to the other.
        let bytes = if self.quick { 200_000 } else { 40_000_000 };
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let (mut a, mut b) = endpoint_pair(1);
                establish(&mut a, &mut b);
                a.send(bytes);
                self.tracer.open("tcp.xfer_ns_per_seg");
                let (ns, segs) = time(|| {
                    let mut now = MILLISECOND;
                    let mut segs = 0u64;
                    while a.acked_bytes() < bytes {
                        segs += exchange(&mut a, &mut b, now);
                        now += 10 * MICROSECOND;
                    }
                    segs
                });
                self.tracer.close(segs, Vec::new());
                ns / segs as f64
            })
            .collect();
        self.put("tcp.xfer_ns_per_seg", &samples);

        // Connection set-up: two endpoints built and taken through the
        // three-way handshake.
        let conns = self.n(4_000);
        self.per_call("tcp.conn_setup_ns", conns, || {
            for i in 0..conns {
                let (mut a, mut b) = endpoint_pair(i);
                establish(&mut a, &mut b);
                black_box((&a, &b));
            }
        });

        // Live bytes of one established connection pair. Exact, so taking
        // it twice must give the same number.
        let pairs = || -> Vec<Box<(Endpoint, Endpoint)>> {
            (0..64)
                .map(|i| {
                    let (mut a, mut b) = endpoint_pair(i);
                    establish(&mut a, &mut b);
                    Box::new((a, b))
                })
                .collect()
        };
        let ((live, first), (again, _second)) = (live_bytes(pairs), live_bytes(pairs));
        assert_eq!(live, again, "tcp.endpoint_bytes did not repeat");
        // The Vec of 64 boxes is the harness's, not a connection's.
        let own = (first.capacity() * std::mem::size_of::<Box<(Endpoint, Endpoint)>>()) as i64;
        self.exact(
            "tcp.endpoint_bytes",
            (live - own) as f64 / first.len() as f64,
        );
    }

    // -----------------------------------------------------------------
    // vswitch: the four packet kinds at both table sizes, Fig 11/12
    // -----------------------------------------------------------------

    /// 1 000 flows: the four kinds, AC/DC on against off (Fig 11/12) and
    /// direct calls against `WorkerEngine::dispatch`, in interleaved rounds
    /// so drift hits every side alike.
    fn vswitch_1k(&mut self) {
        let (flows, rounds) = (1_000, if self.quick { 3 } else { 40 });
        self.tracer.open("unit.vswitch_1k");
        let mut on = Steady::new(flows, self.seed, AcdcConfig::dctcp(1500));
        let mut off = Steady::new(flows, self.seed, AcdcConfig::disabled(1500));
        let engine = WorkerEngine::new(&on.dp, 2);
        let mut kinds: [Vec<f64>; 4] = Default::default();
        let (mut direct, mut pass, mut dispatched) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rounds {
            let cost = on.sample(flows, Via::Direct, true);
            for (samples, ns) in kinds.iter_mut().zip(cost.per_kind) {
                samples.push(ns);
            }
            direct.push(cost.per_pkt);
            pass.push(off.sample(flows, Via::Direct, false).per_pkt);
            dispatched.push(on.sample(flows, Via::Dispatch(&engine), true).per_pkt);
        }
        assert_eq!(on.bad_outputs, 0, "unit loops produced invalid outputs");
        for (name, samples) in KIND_METRICS[0].iter().zip(&kinds) {
            self.put(name, samples);
        }
        self.put("vswitch.passthrough_ns", &pass);
        let median = |v: &[f64]| quartiles(v).value;
        // Fig 11 (sender host: data out, ACKs in) and Fig 12 (receiver
        // host: data in, ACKs out): AC/DC on minus off.
        let added =
            |a: usize, b: usize| (median(&kinds[a]) + median(&kinds[b])) / 2.0 - median(&pass);
        self.exact("vswitch.added_snd_ns", added(0, 1));
        self.exact("vswitch.added_rcv_ns", added(2, 3));
        self.exact(
            "workers.dispatch_overhead_ns",
            median(&dispatched) - median(&direct),
        );
        self.lookup("vswitch.lookup_ns_1k", &on, flows);
        self.tracer.close(flows as u64, Vec::new());
    }

    /// 100 000 flows: the four kinds, and the batch pipeline at one and two
    /// workers. A sample visits a quarter of the flows, none of them
    /// touched since the last pass, so it meets cold entries as traffic
    /// over a table this size does.
    fn vswitch_100k(&mut self) {
        let flows = if self.quick { 2_000 } else { 100_000 };
        let (slice, rounds) = (flows / 4, if self.quick { 3 } else { 4 });
        self.tracer.open("unit.vswitch_100k");
        let mut on = Steady::new(flows, self.seed, AcdcConfig::dctcp(1500));
        let mut kinds: [Vec<f64>; 4] = Default::default();
        for _ in 0..rounds {
            let cost = on.sample(slice, Via::Direct, true);
            for (samples, ns) in kinds.iter_mut().zip(cost.per_kind) {
                samples.push(ns);
            }
        }
        let engines = [WorkerEngine::new(&on.dp, 1), WorkerEngine::new(&on.dp, 2)];
        let mut batch: [Vec<f64>; 2] = Default::default();
        for _ in 0..rounds {
            for (engine, samples) in engines.iter().zip(&mut batch) {
                samples.push(on.sample(slice, Via::Batch(engine), true).per_pkt);
            }
        }
        assert_eq!(on.bad_outputs, 0, "unit loops produced invalid outputs");
        for (name, samples) in KIND_METRICS[1].iter().zip(&kinds) {
            self.put(name, samples);
        }
        self.put("workers.batch_ns_n1", &batch[0]);
        self.put("workers.batch_ns_n2", &batch[1]);
        self.lookup("vswitch.lookup_ns_100k", &on, flows);
        self.tracer.close(flows as u64, Vec::new());
    }

    /// `FlowTable::with_entry` on tracked keys, in a shuffled order so the
    /// 100k tier misses cache as traffic does.
    fn lookup(&mut self, name: &'static str, steady: &Steady, flows: usize) {
        let mut keys: Vec<FlowKey> = (0..flows).map(pkt::key_out).collect();
        SplitMix64::new(self.seed).shuffle(&mut keys);
        let lookups = keys.len().max(self.n(100_000));
        let table = steady.dp.table();
        let mut found = 0usize;
        self.per_call(name, lookups, || {
            for i in 0..lookups {
                let key = black_box(&keys[i % keys.len()]);
                found += usize::from(table.with_entry(key, |slot| slot.rx_pending()).is_some());
            }
        });
        assert_eq!(found, SAMPLES * lookups, "every looked-up key is tracked");
    }

    // -----------------------------------------------------------------
    // vswitch: table writes
    // -----------------------------------------------------------------

    fn vswitch_table(&mut self) {
        let cc = CcConfig::vswitch(1448);
        let entry = |now| FlowEntry::new(CcKind::Dctcp, cc, now);
        let n = self.n(20_000);
        let keys: Vec<FlowKey> = (0..n).map(pkt::key_out).collect();
        let (mut ins, mut rem) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            let table = FlowTable::new();
            self.tracer.open("vswitch.insert_ns");
            let (ns, ()) = time(|| {
                for k in &keys {
                    black_box(table.get_or_create(*k, || entry(0)));
                }
            });
            self.tracer.close(n as u64, Vec::new());
            ins.push(ns / n as f64);
            self.tracer.open("vswitch.remove_ns");
            let (ns, ()) = time(|| {
                for k in &keys {
                    black_box(table.remove(k));
                }
            });
            self.tracer.close(n as u64, Vec::new());
            rem.push(ns / n as f64);
            assert!(table.is_empty());
        }
        self.put("vswitch.insert_ns", &ins);
        self.put("vswitch.remove_ns", &rem);

        // Create at the cap: every insert first evicts the oldest idle
        // entry (the overload path; no workload goes there).
        let cap = if self.quick { 256 } else { 4_096 };
        let extra = 64;
        let table = FlowTable::bounded(cap, AdmissionPolicy::EvictOldestIdle);
        for i in 0..cap {
            let _ = table.get_or_create(pkt::key_out(i), || entry(i as u64));
        }
        let mut next = cap;
        self.per_call("vswitch.evict_ns_4k", extra, || {
            for _ in 0..extra {
                black_box(table.get_or_create(pkt::key_out(next), || entry(next as u64)));
                next += 1;
            }
        });
        assert_eq!(table.len(), cap);
    }

    // -----------------------------------------------------------------
    // vswitch: tick, gc, checkpoint, restore, bytes per flow entry
    // -----------------------------------------------------------------

    fn vswitch_maintenance(&mut self) {
        let conns = if self.quick { 200 } else { 5_000 };
        let cfg = AcdcConfig::dctcp(1500);
        let idle_timeout = cfg.gc_idle_timeout;
        // Live bytes per table entry. Exact, so two tables must agree.
        let populated = || {
            let dp = AcdcDatapath::new(cfg.clone());
            let (live, ()) = live_bytes(|| {
                for i in 0..conns {
                    let _ = dp.egress(0, pkt::syn(i, From::Local));
                    let _ = dp.ingress(1, pkt::syn_ack(i, From::Remote));
                }
            });
            (live, dp)
        };
        let ((live, dp), (again, _second)) = (populated(), populated());
        assert_eq!(live, again, "vswitch.bytes_per_flow did not repeat");
        let entries = dp.flows();
        assert_eq!(entries, 2 * conns);
        self.exact("vswitch.bytes_per_flow", live as f64 / entries as f64);

        let mut now = MILLISECOND;
        self.per_call("vswitch.tick_ns_per_flow", entries * 8, || {
            for _ in 0..8 {
                now += 10 * MILLISECOND;
                dp.tick(black_box(now));
            }
        });
        self.per_call("vswitch.gc_ns_per_flow", entries * 8, || {
            for _ in 0..8 {
                now += 10 * MILLISECOND;
                black_box(dp.gc(black_box(now), idle_timeout));
            }
        });
        assert_eq!(
            dp.flows(),
            entries,
            "nothing was idle long enough to collect"
        );

        // Through the wire format, as a restart would.
        let mut text = String::new();
        self.per_call("vswitch.checkpoint_ns_per_flow", entries, || {
            text = black_box(dp.checkpoint(black_box(now), &[]).to_json());
        });

        // And back. `DatapathCheckpoint::from_json` re-validates the rest of
        // its input at every string character, so its cost is quadratic in
        // the table size (1.6 s at 1 000 entries, 27 s at 4 000 when this
        // was written): the guard rail is taken at RESTORE_ENTRIES, where it
        // fits the time cap, and grows with the table from there.
        let small = AcdcDatapath::new(cfg.clone());
        for i in 0..RESTORE_ENTRIES / 2 {
            let _ = small.egress(0, pkt::syn(i, From::Local));
            let _ = small.ingress(1, pkt::syn_ack(i, From::Remote));
        }
        let text = small.checkpoint(now, &[]).to_json();
        self.per_call("vswitch.restore_ns_per_flow", RESTORE_ENTRIES, || {
            let ckpt =
                DatapathCheckpoint::from_json(black_box(&text)).expect("own checkpoint parses");
            let fresh = AcdcDatapath::new(cfg.clone());
            assert_eq!(
                fresh.restore(&ckpt).expect("same configuration"),
                RESTORE_ENTRIES
            );
            black_box(fresh);
        });
    }

    // -----------------------------------------------------------------
    // telemetry
    // -----------------------------------------------------------------

    fn telemetry(&mut self) {
        let hub = Telemetry::with_default_capacity();
        let key = pkt::key_out(1);
        let n = self.n(200_000);
        let mut at = 0;
        self.per_call("telemetry.record_ns", n, || {
            for _ in 0..n {
                at += 1;
                hub.record(black_box(at), key, EventKind::FlowCreated);
            }
        });

        // A datapath's registry is the one the 10 ms tick samples.
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        let reg = dp.telemetry().registry();
        reg.set_series_cap(1_024);
        let metrics = reg.len();
        let rounds = self.n(20_000);
        self.per_call("telemetry.sample_ns_per_metric", rounds * metrics, || {
            for _ in 0..rounds {
                at += 1;
                reg.sample(black_box(at));
            }
        });
        self.per_call("telemetry.snapshot_ns_per_metric", rounds * metrics, || {
            for _ in 0..rounds {
                black_box(reg.snapshot_all());
            }
        });
    }
}

/// Metric names of the four packet kinds (in `RoundCost::per_kind` order)
/// at the 1k and the 100k tier.
const KIND_METRICS: [[&str; 4]; 2] = [
    [
        "vswitch.snd_data_ns_1k",
        "vswitch.snd_ack_ns_1k",
        "vswitch.rcv_data_ns_1k",
        "vswitch.rcv_ack_ns_1k",
    ],
    [
        "vswitch.snd_data_ns_100k",
        "vswitch.snd_ack_ns_100k",
        "vswitch.rcv_data_ns_100k",
        "vswitch.rcv_ack_ns_100k",
    ],
];

// ---------------------------------------------------------------------
// netsim fixtures
// ---------------------------------------------------------------------

/// Keeps its transmitter saturated with copies of one 40-byte segment.
struct Blast {
    port: PortId,
    template: Segment,
}

impl Node for Blast {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        // One serializing, one queued; `on_tx_start` keeps it that way.
        ctx.enqueue(self.port, self.template.clone());
        ctx.enqueue(self.port, self.template.clone());
    }

    fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, port: PortId, _seg: &Segment) {
        ctx.enqueue(port, self.template.clone());
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _seg: Segment) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Four sources, one switch, four sinks over 10 GbE; returns the network
/// and the sink ports whose `rx_pkts` count the deliveries.
fn bare_network() -> (Network, Vec<PortId>) {
    let mut net = Network::new();
    let switch = net.reserve_node();
    let mut sw = SwitchNode::new(SwitchConfig::default());
    let link = LinkSpec::ten_gbe(1_500);
    let mut sinks = Vec::new();
    for s in 0..4usize {
        let src = net.reserve_node();
        let (sp, _) = net.connect(src, switch, link);
        // A bare ACK from the remote side of flow `s`: addressed to 10.0.0.s.
        let template = pkt::ack(s, From::Remote, 0, None);
        net.install(src, Box::new(Blast { port: sp, template }));
        let sink = net.add_node(Box::new(Sink));
        let (sw_out, sink_port) = net.connect(switch, sink, link);
        sw.add_route(pkt::addrs(s).0, sw_out);
        sinks.push(sink_port);
        net.schedule_timer_at(src, s as u64 * 211, 0);
    }
    net.install(switch, Box::new(sw));
    (net, sinks)
}

// ---------------------------------------------------------------------
// tcp fixtures
// ---------------------------------------------------------------------

/// An active and a passive endpoint of one connection, CUBIC, MSS 1448.
fn endpoint_pair(i: usize) -> (Endpoint, Endpoint) {
    let (l, r) = pkt::addrs(i);
    let a = TcpConfig::new(l, 40_000, r, 5_001, 1448, CcKind::Cubic);
    let b = TcpConfig::new(r, 5_001, l, 40_000, 1448, CcKind::Cubic);
    (Endpoint::new_active(a), Endpoint::new_passive(b))
}

/// Hand every segment each side has ready straight to the other, then
/// fire whatever timers are due. Returns the segments exchanged.
fn exchange(a: &mut Endpoint, b: &mut Endpoint, now: u64) -> u64 {
    let mut segs = 0;
    loop {
        let mut moved = false;
        while let Some(s) = a.poll_transmit(now) {
            b.on_segment(now, &s);
            segs += 1;
            moved = true;
        }
        while let Some(s) = b.poll_transmit(now) {
            a.on_segment(now, &s);
            segs += 1;
            moved = true;
        }
        if !moved {
            break;
        }
    }
    for ep in [a, b] {
        if ep.next_timer().is_some_and(|t| t <= now) {
            ep.on_timer(now);
        }
    }
    segs
}

fn establish(a: &mut Endpoint, b: &mut Endpoint) {
    a.open(0);
    exchange(a, b, 0);
    assert!(
        a.is_established() && b.is_established(),
        "handshake completes back to back"
    );
}
