//! Steering and batch determinism (DESIGN.md §12).
//!
//! * **Steering**: `hash64`-based steering is a pure function of the
//!   flow key — same flow ⇒ same worker, every worker reachable across
//!   a flow population, index always in range.
//! * **One hub, many threads**: a batch run on N workers over the
//!   datapath's one telemetry hub ends in the verdicts, snapshot and
//!   events of the same packets run in order on one thread: the same
//!   event sequence at N = 1, the same multiset at N > 1 (threads reach
//!   the ring in any order, but lose and duplicate nothing).
//! * **One table, many workers**: workers racing over connections in
//!   the one flow table end in the per-flow state one worker computes,
//!   because the table lock serialises every entry access.

use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, DropReason, Verdict};
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

/// Guest data at stream offset `off`.
fn data_packet(k: &FlowKey, off: u32) -> Segment {
    ack_flagged(k, 1_001 + off, 9_001, 1_000, 1_448, Ecn::NotEct)
}

/// The peer's ACK of `off` guest bytes.
fn ack_packet(k: &FlowKey, off: u32) -> Segment {
    ack_flagged(&k.reverse(), 9_001, 1_001 + off, 60_000, 0, Ecn::NotEct)
}

/// A conversation over `keys`, one batch per phase: the handshake, four
/// rounds of data both ways (CE on every third peer segment) with the
/// guest ACKs that carry PACK feedback, then FINs, with data on the odd
/// keys.
fn conversation(keys: &[FlowKey]) -> Vec<(Direction, Vec<Segment>)> {
    let phase = |dir, make: &dyn Fn(usize, &FlowKey) -> Segment| {
        (
            dir,
            keys.iter().enumerate().map(|(i, k)| make(i, k)).collect(),
        )
    };
    let mut phases = vec![
        phase(Direction::Egress, &|_, k| syn(k)),
        phase(Direction::Ingress, &|_, k| synack(k)),
    ];
    for round in 0..4u32 {
        let off = round * 1_448;
        phases.push(phase(Direction::Egress, &|_, k| data_packet(k, off)));
        phases.push(phase(Direction::Ingress, &|i, k| {
            let ce = (i + round as usize).is_multiple_of(3);
            let ecn = if ce { Ecn::Ce } else { Ecn::Ect0 };
            ack_flagged(&k.reverse(), 9_001 + off, 1_001 + off, 60_000, 1_448, ecn)
        }));
        phases.push(phase(Direction::Egress, &|_, k| {
            ack_flagged(
                k,
                1_001 + off + 1_448,
                9_001 + off + 1_448,
                1_000,
                0,
                Ecn::NotEct,
            )
        }));
        phases.push(phase(Direction::Ingress, &|_, k| {
            ack_packet(k, off + 1_448)
        }));
    }
    phases.push(phase(Direction::Egress, &|i, k| {
        let mut fin = TcpRepr::new(k.src_port, k.dst_port);
        fin.seq = SeqNumber(1_001 + 4 * 1_448);
        fin.ack = SeqNumber(9_001 + 4 * 1_448);
        fin.flags = TcpFlags::FIN | TcpFlags::ACK;
        segment(k, fin, if i % 2 == 0 { 0 } else { 100 }, Ecn::NotEct)
    }));
    phases
}

/// A verdict as bytes: each forwarded segment's header and payload
/// length, or the drop reason.
type VerdictBytes = Result<Vec<(Vec<u8>, usize)>, DropReason>;

fn verdict_bytes(v: Verdict) -> VerdictBytes {
    let wire = |s: &Segment| (s.header_bytes().to_vec(), s.payload_len());
    match v {
        Verdict::Forward(s) => Ok(vec![wire(&s)]),
        Verdict::ForwardWithExtra(s, extra) => Ok(vec![wire(&s), wire(&extra)]),
        Verdict::Drop(reason) => Err(reason),
    }
}

/// What one run of [`conversation`] leaves behind.
struct Run {
    dp: AcdcDatapath,
    /// Every verdict, in submission order.
    verdicts: Vec<VerdictBytes>,
    /// The hub's recorded events as `(at, flow, kind)`, in ring order.
    events: Vec<(u64, FlowKey, String)>,
}

/// [`conversation`] over `keys` through a fresh datapath, one batch per
/// phase at one virtual instant each: through `process_batch_parallel`
/// at `workers`, or by direct `egress` / `ingress` calls at `None`.
fn run(keys: &[FlowKey], workers: Option<usize>) -> Run {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
    let engine = workers.map(|n| WorkerEngine::new(&dp, n));
    let mut verdicts = Vec::new();
    let mut now = 0u64;
    for (dir, batch) in conversation(keys) {
        now += 1_000;
        let out = match &engine {
            Some(engine) => engine.process_batch_parallel(&dp, now, dir, batch),
            None => batch
                .into_iter()
                .map(|seg| match dir {
                    Direction::Egress => dp.egress(now, seg),
                    Direction::Ingress => dp.ingress(now, seg),
                })
                .collect(),
        };
        verdicts.extend(out.into_iter().map(verdict_bytes));
    }
    let events = dp
        .telemetry()
        .recorder()
        .events()
        .into_iter()
        .map(|e| (e.at, e.flow, format!("{:?}", e.kind)))
        .collect();
    Run {
        dp,
        verdicts,
        events,
    }
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
}

/// `process_batch_parallel` at n ∈ {1, 2, 4} against direct `egress` /
/// `ingress` calls on a fresh datapath: verdict bytes in submission
/// order, the hub's snapshot, and its events — the same sequence inline
/// (n = 1), the same multiset on scoped threads (n > 1).
#[test]
fn batch_modes_agree_with_sequential() {
    let keys: Vec<FlowKey> = (0..64).map(conn).collect();
    let direct = run(&keys, None);
    let snapshot = direct.dp.telemetry().snapshot_json(0);
    assert!(
        snapshot.contains("\"dropped_events\":0"),
        "the ring must hold every event: {snapshot}"
    );
    assert!(
        direct.events.iter().any(|e| e.2.starts_with("AlphaUpdate")),
        "the conversation must exercise the CC event path"
    );
    let mut sorted_events = direct.events.clone();
    sorted_events.sort();
    for n in [1usize, 2, 4] {
        let got = run(&keys, Some(n));
        assert!(
            got.verdicts == direct.verdicts,
            "n={n}: verdicts must match sequential, in submission order"
        );
        assert_eq!(
            got.dp.telemetry().snapshot_json(0),
            snapshot,
            "n={n}: the hub's snapshot"
        );
        let mut events = got.events;
        if n > 1 {
            events.sort();
            assert_eq!(events, sorted_events, "n={n}: the hub's event multiset");
        } else {
            assert_eq!(events, direct.events, "n=1: the hub's event sequence");
        }
    }
}

/// Workers racing over the table: `process_batch_parallel` at n = 2 and
/// 4 over 24 connections whose records (four dozen entries) share the
/// table lock and its bucket array, grown by one worker's inserts while
/// the others probe it. Data both ways, CE marks, PACK feedback and FINs
/// ride along. A hundred repetitions at each n must all end in the
/// per-flow state one worker computes.
#[test]
fn racing_workers_over_one_table_match_one_worker() {
    const CONNS: u16 = 24;
    let keys: Vec<FlowKey> = (0..CONNS)
        .map(|port| FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 1, 0, 0],
            src_port: port,
            dst_port: port,
        })
        .collect();
    let state = |n: usize| -> (String, String) {
        let dp = run(&keys, Some(n)).dp;
        let stats = format!("{:?}", dp.flow_stats());
        let json = dp.checkpoint(0, &[]).to_json();
        let flows = json
            .split_once("\"flows\":[")
            .and_then(|(_, rest)| rest.split_once("],\"hub\""))
            .expect("a flows array")
            .0
            .to_string();
        (stats, flows)
    };
    let one = state(1);
    assert!(
        one.0.matches("FlowStat").count() == 2 * usize::from(CONNS),
        "{}",
        one.0
    );
    for n in [2, 4] {
        for rep in 0..100 {
            assert!(
                state(n) == one,
                "n = {n}, repetition {rep}: state differs from n = 1"
            );
        }
    }
}
