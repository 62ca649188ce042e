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

use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};
use acdc_vswitch::{AcdcConfig, AcdcDatapath};
use acdc_workers::{worker_of, Direction, WorkerEngine};
use proptest::prelude::*;

fn ip(src: [u8; 4], dst: [u8; 4]) -> Ipv4Repr {
    Ipv4Repr {
        src_addr: src,
        dst_addr: dst,
        protocol: PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: 64,
    }
}

fn flow_ips(i: usize) -> ([u8; 4], [u8; 4]) {
    (
        [10, 1, (i >> 8) as u8, i as u8],
        [10, 2, (i >> 8) as u8, i as u8],
    )
}

/// Establish flow `i` (SYN on egress, SYN-ACK on ingress) through `run`.
fn handshake(run: &mut dyn FnMut(Direction, Segment), i: usize) {
    let (a, b) = flow_ips(i);
    let mut syn = TcpRepr::new(40_000, 5_001);
    syn.seq = SeqNumber(1_000);
    syn.flags = TcpFlags::SYN;
    syn.options = vec![TcpOption::MaxSegmentSize(1448), TcpOption::WindowScale(9)];
    run(Direction::Egress, Segment::new_tcp(ip(a, b), syn, 0));

    let mut synack = TcpRepr::new(5_001, 40_000);
    synack.seq = SeqNumber(9_000);
    synack.ack = SeqNumber(1_001);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.options = vec![TcpOption::MaxSegmentSize(1448), TcpOption::WindowScale(9)];
    run(Direction::Ingress, Segment::new_tcp(ip(b, a), synack, 0));
}

fn data_packet(i: usize, off: u32) -> Segment {
    let (a, b) = flow_ips(i);
    let mut t = TcpRepr::new(40_000, 5_001);
    t.seq = SeqNumber(1_001 + off);
    t.ack = SeqNumber(9_001);
    t.flags = TcpFlags::ACK;
    t.window = 1_000;
    Segment::new_tcp(ip(a, b), t, 1_448)
}

fn ack_packet(i: usize, off: u32) -> Segment {
    let (a, b) = flow_ips(i);
    let mut t = TcpRepr::new(5_001, 40_000);
    t.seq = SeqNumber(9_001);
    t.ack = SeqNumber(1_001 + off);
    t.flags = TcpFlags::ACK;
    t.window = 60_000;
    Segment::new_tcp(ip(b, a), t, 0)
}

/// A deterministic mixed workload over `flows` flows and `rounds`
/// rounds, fed packet-by-packet to `run` in delivery order.
fn drive(run: &mut dyn FnMut(Direction, Segment), flows: usize, rounds: usize) {
    for i in 0..flows {
        handshake(run, i);
    }
    let mut off = 0u32;
    for _ in 0..rounds {
        for i in 0..flows {
            run(Direction::Egress, data_packet(i, off));
            run(Direction::Ingress, ack_packet(i, off + 1_448));
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
                i,
            );
        }
        // Unidirectional data batches: each worker's flows independent.
        let mut digest = Vec::new();
        for round in 0..3u32 {
            let batch: Vec<Segment> = (0..FLOWS).map(|i| data_packet(i, round * 1_448)).collect();
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
