//! **Figures 11/12** — CPU overhead of AC/DC at the sender and receiver.
//!
//! The paper measures whole-system CPU with `sar` on its testbed and
//! finds the AC/DC–vs–baseline difference under one percentage point at
//! up to 10 K concurrent connections. CPU% is machine-specific, so the
//! transferable quantity we measure is **per-packet datapath cost** at
//! matched flow-table scale: the same OVS-lookalike code path with AC/DC
//! off (baseline) and on, over the same packets. At 10 Gbps and 1.5 KB
//! packets the budget is ~1.2 µs/packet/core; AC/DC's added cost per
//! packet should be a small fraction of that.
//!
//! Each side is a conversation, shaped like the `dp_steady_*` workloads
//! of `acdc-harness` (whose `vswitch.added_snd_ns` / `added_rcv_ns` rows
//! are the same quantity at 1 000 flows, with proper statistics):
//!
//! * **Figure 11, sender host** — every flow's guest sends a data segment
//!   out, then the ACK for exactly that segment comes in. The ACK
//!   advances `snd_una` to `snd_nxt`, so the algorithm update and the
//!   RWND rewrite (`FlowEntry::on_ack`) both run on every one.
//! * **Figure 12, receiver host** — every flow's data segment comes in
//!   (one in eight CE-marked), then the guest's ACK goes out with the
//!   pending feedback attached as a PACK.
//!
//! Segments are built in batches off the clock; only the datapath calls
//! are timed. After each sweep point the datapath's own registry must
//! show that the path the figure is about really ran.

use std::time::Instant;

use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP};
use acdc_stats::time::Nanos;
use acdc_vswitch::{AcdcConfig, AcdcDatapath, Verdict};

use super::common::{Opts, Report};

const PAYLOAD: usize = 1_448;
/// Flows per batch: data for all of them, then the ACKs for all of them.
const BATCH: usize = 2_048;
/// Virtual time between consecutive packets.
const PKT_GAP: Nanos = 1_000;
/// One data segment in this many reaches the receiver host CE-marked.
const MARK_EVERY: usize = 8;

/// One segment of flow `i`, from the guest behind the measured vSwitch
/// (`from_local`) or from its remote peer; offsets are from each end's
/// initial sequence number.
fn segment(
    i: usize,
    from_local: bool,
    (seq_off, ack_off): (u32, u32),
    flags: TcpFlags,
    ecn: Ecn,
    payload: usize,
) -> Segment {
    // (address, port, initial sequence number) of the two ends.
    let local = ([10, 1, (i >> 8) as u8, i as u8], 40_000, 1_000);
    let remote = ([10, 2, (i >> 8) as u8, i as u8], 5_001, 9_000);
    let (src, dst) = if from_local {
        (local, remote)
    } else {
        (remote, local)
    };
    let mut t = TcpRepr::new(src.1, dst.1);
    t.seq = SeqNumber(src.2 + seq_off);
    t.ack = SeqNumber(dst.2 + ack_off);
    t.flags = flags;
    t.window = 60_000;
    if flags.contains(TcpFlags::SYN) {
        t.options = vec![
            TcpOption::MaxSegmentSize(PAYLOAD as u16),
            TcpOption::WindowScale(9),
        ];
    }
    let ip = Ipv4Repr {
        src_addr: src.0,
        dst_addr: dst.0,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    };
    Segment::new_tcp(ip, t, payload)
}

/// Data segment number `round` of flow `i`.
fn data_packet(i: usize, from_local: bool, round: u32, ce: bool) -> Segment {
    let ecn = if ce { Ecn::Ce } else { Ecn::Ect0 };
    let seq_off = 1 + round * PAYLOAD as u32;
    segment(i, from_local, (seq_off, 1), TcpFlags::ACK, ecn, PAYLOAD)
}

/// The ACK for exactly that segment, from the other end.
fn ack_packet(i: usize, from_local: bool, round: u32) -> Segment {
    let ack_off = 1 + (round + 1) * PAYLOAD as u32;
    segment(i, from_local, (1, ack_off), TcpFlags::ACK, Ecn::NotEct, 0)
}

/// Local segments leave through `egress`, remote ones arrive at `ingress`.
fn offer(dp: &AcdcDatapath, now: Nanos, from_local: bool, seg: Segment) -> Verdict {
    if from_local {
        dp.egress(now, seg)
    } else {
        dp.ingress(now, seg)
    }
}

/// The registry counter that shows a side's path ran.
fn evidence_counter(sender: bool) -> &'static str {
    if sender {
        "acdc.rwnd_rewrites"
    } else {
        "acdc.packs_sent"
    }
}

/// One host's vSwitch with `flows` established connections, and the
/// running totals of its measurement.
struct Host {
    dp: AcdcDatapath,
    /// The local guests send the data (Figure 11); otherwise they receive
    /// it (Figure 12).
    sender: bool,
    flows: usize,
    now: Nanos,
    wall_ns: u128,
    pkts: u64,
}

impl Host {
    /// Build the datapath and take every flow through its handshake, the
    /// data sender opening.
    fn populate(cfg: AcdcConfig, sender: bool, flows: usize) -> Host {
        let dp = AcdcDatapath::new(cfg);
        for i in 0..flows {
            let syn = segment(i, sender, (0, 0), TcpFlags::SYN, Ecn::NotEct, 0);
            let _ = offer(&dp, 0, sender, syn);
            let syn_ack = TcpFlags::SYN | TcpFlags::ACK;
            let syn_ack = segment(i, !sender, (0, 1), syn_ack, Ecn::NotEct, 0);
            let _ = offer(&dp, 1, !sender, syn_ack);
        }
        Host {
            dp,
            sender,
            flows,
            now: PKT_GAP,
            wall_ns: 0,
            pkts: 0,
        }
    }

    /// Visit every flow once: its data segment number `round`, then the
    /// ACK for it.
    #[allow(clippy::disallowed_methods)] // wall-clock is the measurement here
    fn run_round(&mut self, round: u32) {
        let sender = self.sender;
        for start in (0..self.flows).step_by(BATCH) {
            let batch = start..self.flows.min(start + BATCH);
            let marked = |i: usize| !sender && (i + round as usize).is_multiple_of(MARK_EVERY);
            let data: Vec<Segment> = batch
                .clone()
                .map(|i| data_packet(i, sender, round, marked(i)))
                .collect();
            let acks: Vec<Segment> = batch.map(|i| ack_packet(i, !sender, round)).collect();
            self.pkts += (data.len() + acks.len()) as u64;

            let start = Instant::now();
            for (from_local, segs) in [(sender, data), (!sender, acks)] {
                for seg in segs {
                    let _ = std::hint::black_box(offer(&self.dp, self.now, from_local, seg));
                    self.now += PKT_GAP;
                }
            }
            self.wall_ns += start.elapsed().as_nanos();
        }
    }

    fn ns_per_pkt(&self) -> f64 {
        self.wall_ns as f64 / self.pkts.max(1) as f64
    }

    /// What the registry says about this side's path; panics when the
    /// input did not exercise it.
    fn evidence(&self) -> u64 {
        let name = evidence_counter(self.sender);
        let count = self.dp.telemetry().registry().value(name).unwrap_or(0);
        assert!(count > 0, "{name} = 0 at {} flows", self.flows);
        if self.sender {
            // Every ACK was for data this vSwitch saw leave: each flow got
            // its RTT sample and has nothing left in flight.
            let stats = self.dp.flow_stats();
            let sampled = stats.iter().filter(|s| s.srtt.is_some()).count();
            assert!(
                sampled == self.flows && stats.iter().all(|s| s.in_flight == 0),
                "ACKs were not admissible: {sampled} of {} flows sampled an RTT",
                self.flows
            );
        }
        count
    }
}

fn run_side(opts: &Opts, sender: bool) -> Report {
    let (id, title) = if sender {
        (
            "fig11",
            "per-packet datapath cost, sender host (CPU-overhead proxy)",
        )
    } else {
        (
            "fig12",
            "per-packet datapath cost, receiver host (CPU-overhead proxy)",
        )
    };
    let mut rep = Report::new(id, title);
    let pkts = if opts.full { 1_600_000 } else { 400_000 };
    rep.line(format!(
        "flows   baseline(ns/pkt)   AC/DC(ns/pkt)   added(ns/pkt)   {}",
        evidence_counter(sender)
    ));
    // The paper sweeps 100 … 10 000 flows.
    for n in [100, 500, 1_000, 5_000, 10_000] {
        let mut base = Host::populate(AcdcConfig::disabled(1500), sender, n);
        let mut acdc = Host::populate(AcdcConfig::dctcp(1500), sender, n);
        // Rounds alternate between the two so drift hits both alike.
        for round in 0..(pkts / (2 * n)) as u32 {
            base.run_round(round);
            acdc.run_round(round);
        }
        let (b, a) = (base.ns_per_pkt(), acdc.ns_per_pkt());
        rep.line(format!(
            "{n:>6}   {b:>14.0}   {a:>13.0}   {:>+12.0}   {:>18}",
            a - b,
            acdc.evidence()
        ));
    }
    rep.line("context: at 10 Gbps / 1.5 KB the per-packet budget is ~1200 ns;");
    rep.line("paper claim: AC/DC adds <1 percentage point of system CPU — i.e. the added");
    rep.line("cost must stay a small fraction of the budget. `acdc-harness` measures the same");
    rep.line("at 1 000 flows as vswitch.added_snd_ns / added_rcv_ns over vswitch.passthrough_ns.");
    rep
}

/// Figure 11 (sender host: data out, the ACKs for it in).
pub fn run_sender(opts: &Opts) -> Report {
    run_side(opts, true)
}

/// Figure 12 (receiver host: data in, ACKs out with PACK feedback).
pub fn run_receiver(opts: &Opts) -> Report {
    run_side(opts, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both conversations stay admissible across a batch boundary: the
    /// sender host's ACKs all advance `snd_una`, the receiver host's ACKs
    /// all leave with a PACK.
    #[test]
    fn both_sides_exercise_the_path_they_measure() {
        let (flows, rounds) = (BATCH + 5, 3);
        for sender in [true, false] {
            let mut host = Host::populate(AcdcConfig::dctcp(1500), sender, flows);
            (0..rounds).for_each(|r| host.run_round(r));
            assert_eq!(host.evidence(), (flows * rounds as usize) as u64);
        }
    }
}
