//! Steering and merge determinism (DESIGN.md §12).
//!
//! Property tests pin the two contracts the worker engine ships with:
//!
//! * **Steering**: `hash64`-based steering is a pure function of the
//!   flow key — same flow ⇒ same worker, every worker reachable across
//!   a flow population, index always in range.
//! * **Merge determinism**: running the same workload twice at the same
//!   worker count produces byte-identical merged snapshot JSON, and the
//!   merged `acdc.*` counter totals equal the N=1 totals (worker count
//!   routes observability, it does not change what is observed).
//! * **One shard, many workers**: workers racing over connections that
//!   share one flow-table shard end in the per-flow state one worker
//!   computes, because the shard lock serialises every entry access.

use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, FlowTable};
use acdc_workers::{worker_of, Direction, WorkerEngine};
use proptest::prelude::*;

/// Flow `i`'s guest → peer key.
fn conn(i: usize) -> FlowKey {
    FlowKey {
        src_ip: [10, 1, (i >> 8) as u8, i as u8],
        dst_ip: [10, 2, (i >> 8) as u8, i as u8],
        src_port: 40_000,
        dst_port: 5_001,
    }
}

/// A segment from `k`'s source to its destination.
fn segment(k: &FlowKey, t: TcpRepr, len: usize, ecn: Ecn) -> Segment {
    let ip = Ipv4Repr {
        src_addr: k.src_ip,
        dst_addr: k.dst_ip,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    };
    Segment::new_tcp(ip, t, len)
}

/// An ACK-flagged segment on `k` carrying `len` payload bytes.
fn ack_flagged(k: &FlowKey, seq: u32, ack: u32, window: u16, len: usize, ecn: Ecn) -> Segment {
    let mut t = TcpRepr::new(k.src_port, k.dst_port);
    t.seq = SeqNumber(seq);
    t.ack = SeqNumber(ack);
    t.flags = TcpFlags::ACK;
    t.window = window;
    segment(k, t, len, ecn)
}

/// The guest's SYN for connection `k` (guest ISS 1 000).
fn syn(k: &FlowKey) -> Segment {
    let mut syn = TcpRepr::new(k.src_port, k.dst_port);
    syn.seq = SeqNumber(1_000);
    syn.flags = TcpFlags::SYN;
    syn.options = vec![TcpOption::MaxSegmentSize(1448), TcpOption::WindowScale(9)];
    segment(k, syn, 0, Ecn::NotEct)
}

/// The peer's SYN-ACK for connection `k` (peer ISS 9 000).
fn synack(k: &FlowKey) -> Segment {
    let r = k.reverse();
    let mut synack = TcpRepr::new(r.src_port, r.dst_port);
    synack.seq = SeqNumber(9_000);
    synack.ack = SeqNumber(1_001);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.options = vec![TcpOption::MaxSegmentSize(1448), TcpOption::WindowScale(9)];
    segment(&r, synack, 0, Ecn::NotEct)
}

/// Establish connection `k` (SYN on egress, SYN-ACK on ingress) through
/// `run`.
fn handshake(run: &mut dyn FnMut(Direction, Segment), k: &FlowKey) {
    run(Direction::Egress, syn(k));
    run(Direction::Ingress, synack(k));
}

/// Guest data at stream offset `off`.
fn data_packet(k: &FlowKey, off: u32) -> Segment {
    ack_flagged(k, 1_001 + off, 9_001, 1_000, 1_448, Ecn::NotEct)
}

/// The peer's ACK of `off` guest bytes.
fn ack_packet(k: &FlowKey, off: u32) -> Segment {
    ack_flagged(&k.reverse(), 9_001, 1_001 + off, 60_000, 0, Ecn::NotEct)
}

/// A deterministic mixed workload over `flows` flows and `rounds`
/// rounds, fed packet-by-packet to `run` in delivery order.
fn drive(run: &mut dyn FnMut(Direction, Segment), flows: usize, rounds: usize) {
    for i in 0..flows {
        handshake(run, &conn(i));
    }
    let mut off = 0u32;
    for _ in 0..rounds {
        for i in 0..flows {
            run(Direction::Egress, data_packet(&conn(i), off));
            run(Direction::Ingress, ack_packet(&conn(i), off + 1_448));
        }
        off += 1_448;
    }
}

/// Run the workload through an engine at `n` workers (dispatch mode) and
/// return (merged snapshot JSON, sum of all acdc.* counters).
fn engine_run(n: usize, flows: usize, rounds: usize) -> (String, u64) {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
    let engine = WorkerEngine::new(&dp, n);
    let mut now = 0u64;
    drive(
        &mut |dir, seg| {
            now += 1;
            let _ = engine.dispatch(&dp, now, dir, seg);
        },
        flows,
        rounds,
    );
    let snapshot = engine.merged_snapshot_json(&dp, 0);
    let total: u64 = engine
        .merged_snapshot(&dp)
        .iter()
        .filter(|m| m.name.starts_with("acdc.") && m.kind == acdc_telemetry::MetricKind::Counter)
        .map(|m| m.value)
        .sum();
    (snapshot, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steering_is_stable_and_in_range(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        n in 1usize..=16,
    ) {
        let key = FlowKey { src_ip: src, dst_ip: dst, src_port: sp, dst_port: dp };
        let w = worker_of(&key, n);
        prop_assert!(w < n);
        prop_assert_eq!(w, worker_of(&key, n));
    }

    #[test]
    fn all_workers_reachable_across_population(
        n in 2usize..=8,
        base in 0u16..1000,
    ) {
        let mut hit = vec![false; n];
        for p in 0..4000u16 {
            let key = FlowKey {
                src_ip: [10, 0, 0, 1],
                dst_ip: [10, 0, 0, 2],
                src_port: base.wrapping_add(p),
                dst_port: 80,
            };
            hit[worker_of(&key, n)] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "unreachable worker at n={}", n);
    }

    #[test]
    fn merged_snapshots_deterministic_and_equal_to_n1(
        n in 1usize..=4,
        flows in 1usize..=12,
        rounds in 1usize..=4,
    ) {
        let (snap_a, total_a) = engine_run(n, flows, rounds);
        let (snap_b, total_b) = engine_run(n, flows, rounds);
        prop_assert_eq!(&snap_a, &snap_b, "same workload + N ⇒ byte-identical merged snapshot");
        prop_assert_eq!(total_a, total_b);
        let (_, total_1) = engine_run(1, flows, rounds);
        prop_assert_eq!(total_a, total_1, "counter totals must not depend on worker count");
    }
}

/// Dispatch-mode packet transformations are byte-identical to the legacy
/// single-threaded entry points, for every worker count.
#[test]
fn dispatch_output_matches_legacy_bytes() {
    let digest = |run: &mut dyn FnMut(Direction, Segment) -> Option<Segment>| {
        let mut out: Vec<(Vec<u8>, usize)> = Vec::new();
        drive(
            &mut |dir, seg| {
                if let Some(fwd) = run(dir, seg) {
                    out.push((fwd.header_bytes_cloned().to_vec(), fwd.payload_len()));
                }
            },
            8,
            3,
        );
        out
    };

    let legacy = {
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        let mut now = 0u64;
        digest(&mut |dir, seg| {
            now += 1;
            let v = match dir {
                Direction::Egress => dp.egress(now, seg),
                Direction::Ingress => dp.ingress(now, seg),
            };
            v.forwarded()
        })
    };
    for n in [1usize, 2, 4] {
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        let engine = WorkerEngine::new(&dp, n);
        let mut now = 0u64;
        let got = digest(&mut |dir, seg| {
            now += 1;
            engine.dispatch(&dp, now, dir, seg).forwarded()
        });
        assert_eq!(got, legacy, "dispatch at N={n} diverged from legacy bytes");
    }
}

/// The batch path returns verdicts in submission order and produces the
/// same per-flow state and counter totals as dispatching the same
/// packets one by one, inline (n = 1) and on scoped threads (n > 1).
#[test]
fn batch_modes_agree_with_sequential() {
    const FLOWS: usize = 64;
    let run = |batched: bool, n: usize| -> (Vec<(Vec<u8>, usize)>, String) {
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        let engine = WorkerEngine::new(&dp, n);
        let mut now = 0u64;
        for i in 0..FLOWS {
            handshake(
                &mut |dir, seg| {
                    now += 1;
                    let _ = engine.dispatch(&dp, now, dir, seg);
                },
                &conn(i),
            );
        }
        // Unidirectional data batches: each worker's flows independent.
        let mut digest = Vec::new();
        for round in 0..3u32 {
            let batch: Vec<Segment> = (0..FLOWS)
                .map(|i| data_packet(&conn(i), round * 1_448))
                .collect();
            now += 1;
            let verdicts = if batched {
                engine.process_batch_parallel(&dp, now, Direction::Egress, batch)
            } else {
                batch
                    .into_iter()
                    .map(|seg| engine.dispatch(&dp, now, Direction::Egress, seg))
                    .collect::<Vec<_>>()
            };
            for v in verdicts {
                let fwd = v.forwarded().expect("data packets forward");
                digest.push((fwd.header_bytes_cloned().to_vec(), fwd.payload_len()));
            }
        }
        let totals = engine.merged_snapshot_json(&dp, 0);
        (digest, totals)
    };

    let (one_worker_digest, _) = run(false, 1);
    for n in [1usize, 2, 4] {
        let (seq_digest, seq_totals) = run(false, n);
        let (digest, totals) = run(true, n);
        assert_eq!(
            digest, seq_digest,
            "n={n}: batched verdicts must match sequential, in submission order"
        );
        assert_eq!(
            totals, seq_totals,
            "n={n}: the batch merges to the snapshot dispatch gives"
        );
        // Worker count routes observability only: the bytes do not move.
        assert_eq!(digest, one_worker_digest);
    }
}

/// `n` connections that all land in one flow-table shard:
/// `table_props.rs`'s search over `FlowTable::shard_of`. Both directions
/// of a connection share its record, so both share the shard.
fn one_shard_connections(n: usize) -> Vec<FlowKey> {
    let key = |port: u16| FlowKey {
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 1, 0, 0],
        src_port: port,
        dst_port: port,
    };
    let home = FlowTable::shard_of(&key(0));
    let keys: Vec<FlowKey> = (0..=u16::MAX)
        .map(key)
        .filter(|k| FlowTable::shard_of(k) == home)
        .take(n)
        .collect();
    assert_eq!(keys.len(), n);
    keys
}

/// Workers racing over one shard: `process_batch_parallel` at n = 2 and
/// 4 over 24 connections whose records (four dozen entries) share one
/// shard lock and one bucket array, grown by one worker's inserts while
/// the others probe it. Data both ways, CE marks, PACK feedback and FINs
/// ride along. A hundred repetitions at each n must all end in the
/// per-flow state one worker computes.
#[test]
fn racing_workers_over_one_shard_match_one_worker() {
    const CONNS: usize = 24;
    let keys = one_shard_connections(CONNS);
    let run = |n: usize| -> (String, String) {
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        let engine = WorkerEngine::new(&dp, n);
        let mut now = 0u64;
        let mut batch = |dir: Direction, make: &dyn Fn(usize, &FlowKey) -> Segment| {
            now += 1_000;
            let segs = keys.iter().enumerate().map(|(i, k)| make(i, k)).collect();
            engine.process_batch_parallel(&dp, now, dir, segs);
        };
        batch(Direction::Egress, &|_, k| syn(k));
        batch(Direction::Ingress, &|_, k| synack(k));
        for round in 0..4u32 {
            let off = round * 1_448;
            batch(Direction::Egress, &|_, k| data_packet(k, off));
            batch(Direction::Ingress, &|i, k| {
                let ce = (i + round as usize).is_multiple_of(3);
                let ecn = if ce { Ecn::Ce } else { Ecn::Ect0 };
                ack_flagged(&k.reverse(), 9_001 + off, 1_001 + off, 60_000, 1_448, ecn)
            });
            batch(Direction::Egress, &|_, k| {
                ack_flagged(
                    k,
                    1_001 + off + 1_448,
                    9_001 + off + 1_448,
                    1_000,
                    0,
                    Ecn::NotEct,
                )
            });
            batch(Direction::Ingress, &|_, k| ack_packet(k, off + 1_448));
        }
        batch(Direction::Egress, &|i, k| {
            let mut fin = TcpRepr::new(k.src_port, k.dst_port);
            fin.seq = SeqNumber(1_001 + 4 * 1_448);
            fin.ack = SeqNumber(9_001 + 4 * 1_448);
            fin.flags = TcpFlags::FIN | TcpFlags::ACK;
            segment(k, fin, if i % 2 == 0 { 0 } else { 100 }, Ecn::NotEct)
        });
        let stats = format!("{:?}", dp.flow_stats());
        let json = dp.checkpoint(now, &[]).to_json();
        let flows = json
            .split_once("\"flows\":[")
            .and_then(|(_, rest)| rest.split_once("],\"main_hub\""))
            .expect("a flows array")
            .0
            .to_string();
        (stats, flows)
    };
    let one = run(1);
    assert!(one.0.matches("FlowStat").count() == 2 * CONNS, "{}", one.0);
    for n in [2, 4] {
        for rep in 0..100 {
            assert!(
                run(n) == one,
                "n = {n}, repetition {rep}: state differs from n = 1"
            );
        }
    }
}
