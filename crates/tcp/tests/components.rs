//! Per-component property tests for the decomposed endpoint: the
//! [`ReliableDelivery`] send-pointer invariants and the [`Receive`]
//! out-of-order range invariants, mirroring the components' own
//! `debug_assert!`s but driven by arbitrary operation sequences instead
//! of full transfers (those live in `props.rs`).
//!
//! The components are exercised directly — no pipe, no packets — so a
//! violated invariant pins the owning module, not the orchestration.

use acdc_stats::time::Nanos;
use acdc_tcp::receive::Receive;
use acdc_tcp::reliable::ReliableDelivery;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// ReliableDelivery: snd_una ≤ snd_nxt ≤ snd_max, always
// ---------------------------------------------------------------------

/// One abstract send-side event. ACK offsets and send lengths are drawn
/// relative to the current pointer positions inside `apply`, so every
/// generated sequence is a plausible connection history.
#[derive(Debug, Clone)]
enum SendOp {
    /// Enqueue application bytes.
    Enqueue(u64),
    /// Transmit up to `len` new bytes (clamped to the stream).
    Send(u64),
    /// A cumulative ACK covering `frac`/255 of the outstanding span.
    Ack(u8),
    /// Three duplicate ACKs → enter fast recovery.
    FastRecovery,
    /// Retransmission timeout: go-back-N rewind.
    Timeout,
    /// A zero-window probe extends the sent span by one byte.
    Probe,
    /// The head retransmission is consumed by the poll loop.
    TakeRtx,
}

fn send_op() -> impl Strategy<Value = SendOp> {
    prop_oneof![
        (1u64..100_000).prop_map(SendOp::Enqueue),
        (1u64..20_000).prop_map(SendOp::Send),
        any::<u8>().prop_map(SendOp::Ack),
        Just(SendOp::FastRecovery),
        Just(SendOp::Timeout),
        Just(SendOp::Probe),
        Just(SendOp::TakeRtx),
    ]
}

fn apply(rel: &mut ReliableDelivery, op: &SendOp, now: Nanos) {
    match *op {
        SendOp::Enqueue(n) => rel.enqueue(n),
        SendOp::Send(len) => {
            let sendable = rel.stream_len().saturating_sub(rel.snd_nxt());
            let len = len.min(sendable);
            if len > 0 {
                let off = rel.advance_nxt(len);
                rel.maybe_arm_rtt_probe(now, off + len);
            }
        }
        SendOp::Ack(frac) => {
            let span = rel.snd_max() - rel.snd_una();
            let ack_off = rel.snd_una() + span * u64::from(frac) / 255;
            if ack_off > rel.snd_una() {
                rel.advance_una(ack_off);
                rel.sample_rtt_from_probe(now);
                rel.newreno_post_ack();
            } else if rel.snd_nxt() > rel.snd_una() {
                rel.register_dupack();
            }
        }
        SendOp::FastRecovery => {
            if rel.snd_nxt() > rel.snd_una() && rel.recover().is_none() {
                rel.enter_fast_recovery();
            }
        }
        SendOp::Timeout => {
            if rel.snd_nxt() > rel.snd_una() {
                rel.on_timeout_rewind();
            }
        }
        SendOp::Probe => rel.extend_for_probe(),
        SendOp::TakeRtx => {
            let _ = rel.take_rtx_head(1448);
        }
    }
}

proptest! {
    /// The send pointers stay ordered (`snd_una ≤ snd_nxt ≤ snd_max`)
    /// and within the probe-extended stream across any interleaving of
    /// sends, cumulative ACKs, fast-recovery entries, timeout rewinds
    /// and window probes.
    #[test]
    fn reliable_pointers_stay_ordered(ops in prop::collection::vec(send_op(), 1..80)) {
        let mut rel = ReliableDelivery::new();
        let mut now: Nanos = 0;
        for op in &ops {
            now += 100; // strictly increasing clock
            apply(&mut rel, op, now);
            prop_assert!(
                rel.snd_una() <= rel.snd_nxt(),
                "snd_una {} > snd_nxt {} after {:?}",
                rel.snd_una(), rel.snd_nxt(), op
            );
            prop_assert!(
                rel.snd_nxt() <= rel.snd_max(),
                "snd_nxt {} > snd_max {} after {:?}",
                rel.snd_nxt(), rel.snd_max(), op
            );
            // The sent span never outruns the stream by more than the
            // single zero-window probe byte.
            prop_assert!(
                rel.snd_max() <= rel.stream_len() + 1,
                "snd_max {} beyond stream {} + probe after {:?}",
                rel.snd_max(), rel.stream_len(), op
            );
            prop_assert_eq!(rel.in_flight(), rel.snd_nxt() - rel.snd_una());
        }
    }

    /// A timeout rewind parks `snd_nxt` exactly at `snd_una` and clears
    /// the recovery state; subsequent full ACK of `snd_max` restores a
    /// quiescent sender.
    #[test]
    fn timeout_rewind_then_full_ack_quiesces(
        ops in prop::collection::vec(send_op(), 1..40),
    ) {
        let mut rel = ReliableDelivery::new();
        let mut now: Nanos = 0;
        for op in &ops {
            now += 100;
            apply(&mut rel, op, now);
        }
        if rel.snd_nxt() > rel.snd_una() {
            rel.on_timeout_rewind();
            prop_assert_eq!(rel.snd_nxt(), rel.snd_una());
            prop_assert!(rel.recover().is_none());
        }
        if rel.snd_max() > rel.snd_una() {
            rel.advance_una(rel.snd_max());
        }
        prop_assert_eq!(rel.in_flight(), 0);
        prop_assert_eq!(rel.dupacks(), 0);
        prop_assert_eq!(rel.backoff(), 0);
    }
}

// ---------------------------------------------------------------------
// Receive: OOO ranges sorted, disjoint, merge-correct
// ---------------------------------------------------------------------

/// Check the out-of-order set is sorted, non-empty-per-range, disjoint
/// and non-adjacent-to-rcv_nxt (anything touching `rcv_nxt` must have
/// been drained).
fn assert_ooo_invariants(rcv: &Receive) {
    let ranges = rcv.ooo_ranges();
    let mut prev_end: Option<u64> = None;
    for &(s, e) in ranges {
        prop_assert!(s < e, "empty/inverted range ({s}, {e})");
        prop_assert!(
            s > rcv.rcv_nxt(),
            "range ({s}, {e}) at/below rcv_nxt {} must have drained",
            rcv.rcv_nxt()
        );
        if let Some(p) = prev_end {
            prop_assert!(s > p, "ranges unsorted or overlapping: {s} after end {p}");
        }
        prev_end = Some(e);
    }
}

proptest! {
    /// Feeding arbitrary (possibly overlapping, duplicate, out-of-order)
    /// spans keeps the OOO set sorted and disjoint, never moves
    /// `rcv_nxt` backwards, and — once every byte of a contiguous prefix
    /// has been offered — delivers exactly that prefix.
    #[test]
    fn ooo_ranges_stay_sorted_disjoint(
        spans in prop::collection::vec((0u64..2_000, 1u64..600), 1..60),
    ) {
        let mut rcv = Receive::new();
        let mut offered_end: u64 = 0;
        let mut prev_rcv_nxt: u64 = 0;
        let mut now: Nanos = 0;
        for &(start, len) in &spans {
            now += 1_000;
            rcv.accept(start as i64, len, now);
            offered_end = offered_end.max(start + len);
            prop_assert!(rcv.rcv_nxt() >= prev_rcv_nxt, "rcv_nxt moved backwards");
            prev_rcv_nxt = rcv.rcv_nxt();
            assert_ooo_invariants(&rcv);
            prop_assert!(rcv.rcv_nxt() <= offered_end);
        }
        // Offer the full prefix in order: everything must drain.
        let mut off = 0;
        while off < offered_end {
            let len = 500u64.min(offered_end - off);
            now += 1_000;
            rcv.accept(off as i64, len, now);
            off += len;
        }
        prop_assert_eq!(rcv.rcv_nxt(), offered_end, "prefix not fully delivered");
        prop_assert!(rcv.ooo_ranges().is_empty(), "OOO residue after full delivery");
    }

    /// Delivered bytes equal the union of offered spans clipped at the
    /// first hole: the component neither invents nor loses data.
    #[test]
    fn rcv_nxt_matches_contiguous_union(
        spans in prop::collection::vec((0u64..1_000, 1u64..300), 1..40),
    ) {
        let mut rcv = Receive::new();
        let mut now: Nanos = 0;
        for &(start, len) in &spans {
            now += 1_000;
            rcv.accept(start as i64, len, now);
        }
        // Reference model: byte-set union, then longest contiguous prefix.
        let max_end = spans.iter().map(|&(s, l)| s + l).max().unwrap() as usize;
        let mut covered = vec![false; max_end];
        for &(s, l) in &spans {
            for b in s..s + l {
                covered[b as usize] = true;
            }
        }
        let expect = covered.iter().take_while(|&&c| c).count() as u64;
        prop_assert_eq!(rcv.rcv_nxt(), expect);
        assert_ooo_invariants(&rcv);
    }
}
