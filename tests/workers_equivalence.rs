//! Worker-engine equivalence under chaos (DESIGN.md §12).
//!
//! The worker engine's contract is that the worker count changes which
//! thread runs a packet, never what the datapath decides or records.
//! This suite pins that down on chaotic traffic: a bulk transfer over
//! several flows whose returning ACKs (carrying PACK feedback, some of
//! it CE-marked) cross the mixed-fault plan of `tests/chaos.rs` — loss,
//! reordering, duplication, corruption and jitter. One client-host
//! vSwitch sees the guests' data leave and the surviving ACKs arrive, in
//! arrival order, with the host's maintenance tick and gc between
//! batches. The same trace runs
//!
//! * by direct `egress` / `ingress` calls on one thread — the ground
//!   truth, whose reconstructed `(snd_una, snd_nxt)` must equal each
//!   guest's sequence state,
//! * through [`WorkerEngine::dispatch`], and
//! * through [`WorkerEngine::process_batch_parallel`] at N ∈ {1, 2, 4},
//!
//! and every run must end with the same verdict bytes, per-flow sequence
//! state and `acdc-telemetry/v2` snapshot, and record the same events:
//! in the same order on one thread, as the same multiset across threads.

use acdc_faults::{Fate, FaultPlan, FaultProcess, FaultStats};
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PackOption, Segment, SeqNumber, SeqView, TcpFlags, TcpOption, TcpRepr,
    PROTO_TCP,
};
use acdc_stats::time::Nanos;
use acdc_vswitch::{AcdcConfig, AcdcDatapath, DropReason, Verdict, INACTIVITY_FLOOR};
use acdc_workers::{Direction, WorkerEngine};

const FLOWS: usize = 8;
const ROUNDS: u32 = 100;
const MSS: u32 = 1_448;
/// Guest initial sequence number + 1: the first data byte's sequence.
const GUEST_DATA: u32 = 1_001;
/// Peer initial sequence number + 1.
const PEER_DATA: u32 = 9_001;
/// One guest segment per flow per round.
const ROUND: Nanos = 50_000;
/// Stagger between flows inside a round.
const STAGGER: Nanos = 1_000;
/// vSwitch → peer and back, each way, before faults add delay.
const ONE_WAY: Nanos = 20_000;
/// Data rounds start after the handshakes.
const DATA_START: Nanos = 100_000;
/// Arrivals of one direction inside one window form one batch.
const BATCH_WINDOW: Nanos = 10_000;
/// The host's gc period.
const GC_PERIOD: Nanos = 10_000_000;
/// Ticks keep running this long after the last arrival, so a flow whose
/// last ACK was lost reaches the inferred-timeout path.
const DRAIN: Nanos = 50_000_000;

/// Flow `i`'s guest → peer key.
fn conn(i: usize) -> FlowKey {
    FlowKey {
        src_ip: [10, 1, 0, i as u8],
        dst_ip: [10, 2, 0, i as u8],
        src_port: 40_000 + i as u16,
        dst_port: 5_001,
    }
}

/// A segment from `k`'s source to its destination.
fn segment(k: &FlowKey, t: TcpRepr, len: usize) -> Segment {
    let ip = Ipv4Repr {
        src_addr: k.src_ip,
        dst_addr: k.dst_ip,
        protocol: PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: 64,
    };
    Segment::new_tcp(ip, t, len)
}

/// A handshake segment on `k`: SYN (`ack` = `None`) or SYN-ACK.
fn handshake(k: &FlowKey, seq: u32, ack: Option<u32>) -> Segment {
    let mut t = TcpRepr::new(k.src_port, k.dst_port);
    t.seq = SeqNumber(seq);
    t.flags = TcpFlags::SYN;
    if let Some(ack) = ack {
        t.ack = SeqNumber(ack);
        t.flags |= TcpFlags::ACK;
    }
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(9),
    ];
    segment(k, t, 0)
}

/// An ACK-flagged segment on `k` carrying `len` payload bytes.
fn ack_flagged(k: &FlowKey, seq: u32, ack: u32, window: u16, len: usize) -> Segment {
    let mut t = TcpRepr::new(k.src_port, k.dst_port);
    t.seq = SeqNumber(seq);
    t.ack = SeqNumber(ack);
    t.flags = TcpFlags::ACK;
    t.window = window;
    segment(k, t, len)
}

/// The peer's cumulative ACK of `acked` guest bytes on flow `k`, with the
/// PACK feedback its vSwitch attached for the segment it acknowledges.
fn peer_ack(k: &FlowKey, acked: u32, marked: bool) -> Segment {
    let mut seg = ack_flagged(&k.reverse(), PEER_DATA, GUEST_DATA + acked, 60_000, 0);
    let pack = PackOption {
        total_bytes: MSS,
        marked_bytes: if marked { MSS } else { 0 },
    };
    assert!(
        seg.append_pack_in_place(pack),
        "a pure ACK has room for a PACK"
    );
    seg
}

/// One packet reaching the client-host vSwitch.
struct Arrival {
    at: Nanos,
    dir: Direction,
    seg: Segment,
}

/// The chaos trace, the fault tallies it drew, and each guest's sequence
/// state at the end (what the vSwitch must reconstruct).
struct Scenario {
    arrivals: Vec<Arrival>,
    faults: FaultStats,
    expected: Vec<SeqView>,
}

/// Builds the trace afresh on every call; the fault process is seeded,
/// so every call yields the same packets at the same instants.
fn scenario() -> Scenario {
    let plan = FaultPlan::new(0xACDC_0008)
        .with_iid_loss(0.01)
        .with_reorder(0.02, 100_000)
        .with_duplication(0.01)
        .with_corruption(0.01)
        .with_jitter(20_000);
    let mut faults = FaultProcess::new(&plan, plan.seed, false);
    // (at, offer order, direction, segment); the offer order breaks ties.
    let mut timeline: Vec<(Nanos, usize, Direction, Segment)> = Vec::new();
    let mut push = |at, dir, seg| {
        let order = timeline.len();
        timeline.push((at, order, dir, seg));
    };
    let mut acked = [0u32; FLOWS];

    // Handshakes cross before the fault plan has anything to do.
    for i in 0..FLOWS {
        let k = conn(i);
        let t = i as Nanos * STAGGER;
        push(t, Direction::Egress, handshake(&k, GUEST_DATA - 1, None));
        push(
            t + 2 * ONE_WAY,
            Direction::Ingress,
            handshake(&k.reverse(), PEER_DATA - 1, Some(GUEST_DATA)),
        );
    }
    // Guest data leaves unharmed (the trunk is past the vSwitch); the
    // peer's ACK of it crosses the faulty trunk on the way back.
    for round in 0..ROUNDS {
        for (i, acked) in acked.iter_mut().enumerate() {
            let k = conn(i);
            let t = DATA_START + round as Nanos * ROUND + i as Nanos * STAGGER;
            let data = ack_flagged(&k, GUEST_DATA + round * MSS, PEER_DATA, 1_000, MSS as usize);
            push(t, Direction::Egress, data);
            if i == 0 && round == ROUNDS - 1 {
                // Flow 0's last segment is never acknowledged (a tail
                // loss), so the drain's ticks infer a timeout for it.
                continue;
            }
            let sent = (round + 1) * MSS;
            let marked = (i + round as usize).is_multiple_of(3);
            let back = t + 2 * ONE_WAY;
            match faults.decide(t + ONE_WAY, false) {
                Fate::Drop(_) => {}
                // The NIC's FCS check drops a damaged frame before the
                // vSwitch, as the host does.
                Fate::Deliver(d) if d.corrupt => {}
                Fate::Deliver(d) => {
                    if d.duplicate {
                        push(back, Direction::Ingress, peer_ack(&k, sent, marked));
                    }
                    push(
                        back + d.delay,
                        Direction::Ingress,
                        peer_ack(&k, sent, marked),
                    );
                    *acked = (*acked).max(sent);
                }
            }
        }
    }
    timeline.sort_by_key(|&(at, order, ..)| (at, order));
    let arrivals = timeline
        .into_iter()
        .map(|(at, _, dir, seg)| Arrival { at, dir, seg })
        .collect();
    let expected = acked
        .iter()
        .map(|&a| SeqView {
            snd_una: SeqNumber(GUEST_DATA + a),
            snd_nxt: SeqNumber(GUEST_DATA + ROUNDS * MSS),
        })
        .collect();
    Scenario {
        arrivals,
        faults: faults.stats(),
        expected,
    }
}

/// How a run feeds the datapath.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// `egress` / `ingress` called directly, one packet at a time.
    Direct,
    /// [`WorkerEngine::dispatch`], one packet at a time.
    Dispatch,
    /// [`WorkerEngine::process_batch_parallel`] with this many workers.
    Batch(usize),
}

/// A verdict as bytes: each forwarded segment's header and payload
/// length, or the drop reason.
type VerdictBytes = Result<Vec<(Vec<u8>, usize)>, DropReason>;

fn verdict_bytes(v: Verdict) -> VerdictBytes {
    let wire = |s: &Segment| (s.header_bytes_cloned().to_vec(), s.payload_len());
    match v {
        Verdict::Forward(s) => Ok(vec![wire(&s)]),
        Verdict::ForwardWithExtra(s, extra) => Ok(vec![wire(&s), wire(&extra)]),
        Verdict::Drop(reason) => Err(reason),
    }
}

/// Everything a run leaves behind, in one comparable bundle.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every verdict, in arrival order.
    verdicts: Vec<VerdictBytes>,
    /// The vSwitch's reconstructed sequence state, per flow.
    seq: Vec<Option<SeqView>>,
    /// The hub's `acdc-telemetry/v2` snapshot: every counter, including
    /// the recorder's overwritten-event tally.
    snapshot: String,
    /// The hub's flight-recorder dump, in ring order.
    dump: String,
    /// The recorded events as `(at, flow, kind)`, in ring order.
    events: Vec<(Nanos, FlowKey, String)>,
}

impl Observed {
    /// `self` with its events sorted and its dump dropped: what threads
    /// racing for the recorder must agree on. The dump carries each
    /// event's ring sequence number, so it is compared only within one
    /// thread.
    fn into_multiset(mut self) -> Observed {
        self.events.sort();
        self.dump.clear();
        self
    }
}

/// The chaos trace through a fresh datapath in `mode`: arrivals batched
/// per direction and [`BATCH_WINDOW`], each batch at its first arrival's
/// instant, with the host's tick and gc run at their periods between
/// batches and through [`DRAIN`] after the last.
fn run(mode: Mode) -> Observed {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
    let engine = WorkerEngine::new(
        &dp,
        match mode {
            Mode::Batch(n) => n,
            Mode::Direct | Mode::Dispatch => 1,
        },
    );
    let (mut next_tick, mut next_gc) = (INACTIVITY_FLOOR, GC_PERIOD);
    let maintain = |until: Nanos, next_tick: &mut Nanos, next_gc: &mut Nanos| {
        while (*next_tick).min(*next_gc) <= until {
            if *next_tick <= *next_gc {
                dp.tick(*next_tick);
                *next_tick += INACTIVITY_FLOOR;
            } else {
                dp.gc(*next_gc, dp.config().gc_idle_timeout);
                *next_gc += GC_PERIOD;
            }
        }
    };

    let mut arrivals = scenario().arrivals.into_iter().peekable();
    let mut verdicts = Vec::new();
    let mut last = 0;
    while let Some(first) = arrivals.next() {
        let (now, dir) = (first.at, first.dir);
        let mut batch = vec![first.seg];
        while let Some(a) =
            arrivals.next_if(|a| a.dir == dir && a.at / BATCH_WINDOW == now / BATCH_WINDOW)
        {
            batch.push(a.seg);
        }
        maintain(now, &mut next_tick, &mut next_gc);
        last = now;
        let out: Vec<Verdict> = match mode {
            Mode::Direct => batch
                .into_iter()
                .map(|seg| match dir {
                    Direction::Egress => dp.egress(now, seg),
                    Direction::Ingress => dp.ingress(now, seg),
                })
                .collect(),
            Mode::Dispatch => batch
                .into_iter()
                .map(|seg| engine.dispatch(&dp, now, dir, seg))
                .collect(),
            Mode::Batch(_) => engine.process_batch_parallel(&dp, now, dir, batch),
        };
        verdicts.extend(out.into_iter().map(verdict_bytes));
    }
    maintain(last + DRAIN, &mut next_tick, &mut next_gc);

    let hub = dp.telemetry();
    Observed {
        verdicts,
        seq: (0..FLOWS).map(|i| dp.seq_view(&conn(i))).collect(),
        snapshot: hub.snapshot_json(0),
        dump: hub.recorder().dump_jsonl(),
        events: hub
            .recorder()
            .events()
            .into_iter()
            .map(|e| (e.at, e.flow, format!("{:?}", e.kind)))
            .collect(),
    }
}

#[test]
fn worker_dispatch_matches_single_threaded_ground_truth() {
    let s = scenario();
    assert!(
        s.faults.random_drops > 0,
        "the plan must lose ACKs: {:?}",
        s.faults
    );
    assert!(
        s.faults.duplicated > 0,
        "and duplicate them: {:?}",
        s.faults
    );
    assert!(s.faults.corrupted > 0, "and corrupt them: {:?}", s.faults);
    assert!(s.faults.reordered > 0, "and reorder them: {:?}", s.faults);

    let truth = run(Mode::Direct);
    let expected: Vec<_> = s.expected.into_iter().map(Some).collect();
    assert_eq!(
        truth.seq, expected,
        "the vSwitch's sequence state must match every guest's"
    );
    assert!(
        truth.snapshot.contains("\"dropped_events\":0,"),
        "the ring must hold every event, or the multisets below compare survivors"
    );
    assert!(
        truth
            .events
            .iter()
            .any(|(_, _, kind)| kind.starts_with("AlphaUpdate")),
        "the PACK feedback must drive the vSwitch's congestion control"
    );
    assert!(
        truth
            .events
            .iter()
            .any(|(_, flow, kind)| *flow == conn(0) && kind.starts_with("RtoFired")),
        "the tail loss must reach the inferred-timeout path"
    );

    assert_eq!(
        run(Mode::Dispatch),
        truth,
        "dispatch diverged from direct calls"
    );
    assert_eq!(
        run(Mode::Batch(1)),
        truth,
        "a one-worker batch diverged from direct calls"
    );
    let truth = truth.into_multiset();
    for n in [2usize, 4] {
        assert_eq!(
            run(Mode::Batch(n)).into_multiset(),
            truth,
            "the N={n} batch diverged from direct calls"
        );
    }
}

#[test]
fn worker_runs_replay_byte_identically() {
    let (a, b) = (run(Mode::Dispatch), run(Mode::Dispatch));
    assert_eq!(a, b, "dispatch must replay identically, events in order");
    let (a, b) = (run(Mode::Batch(2)), run(Mode::Batch(2)));
    assert!(a.verdicts.iter().all(Result::is_ok), "nothing is policed");
    assert_eq!(
        a.into_multiset(),
        b.into_multiset(),
        "same trace + same N must replay identically"
    );
}
