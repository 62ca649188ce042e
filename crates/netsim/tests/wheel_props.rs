//! Scheduler equivalence: the hierarchical timing wheel must be
//! observationally identical to the sorted `(timestamp, insertion
//! sequence)` heap it replaced. For arbitrary interleavings of
//! `schedule` / `cancel` / `advance-and-drain` — deadline mixes spanning
//! every wheel level, the far-future overflow heap, and same-timestamp
//! ties — both schedulers must emit the exact same pop sequence. This is
//! the property that pins the engine's documented total order (equal
//! deadlines fire in insertion order) across the heap → wheel port.
//!
//! Sequence numbers need not be scheduled in increasing order: the engine
//! reserves one when a transmission starts and schedules it later, if at
//! all, after larger ones. `Reserve` / `Redeem` do the same here, and
//! `Step` pops a single entry so that schedules land in the middle of a
//! drained batch, as they do when the engine dispatches an event.

#![allow(
    clippy::disallowed_types,
    reason = "the timing wheel is the scheduler; the BinaryHeap here is the reference model it is checked against"
)]

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use acdc_netsim::TimerWheel;
use proptest::prelude::*;

/// One scheduler operation. Deltas are relative to the current virtual
/// time, mirroring how the engine always schedules at `now + delay`.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a timer `dt` past the current floor.
    Schedule { dt: u64 },
    /// Draw a sequence number for a deadline `dt` past the current floor
    /// without scheduling it.
    Reserve { dt: u64 },
    /// Schedule the `pick`-th reservation, by now with a smaller sequence
    /// number than later schedules — if its deadline has not passed and
    /// its `(at, seq)` is still ahead of the last pop, which is all
    /// `TimerWheel::schedule` asks; else drop it.
    Redeem { pick: usize },
    /// Cancel the `pick`-th live timer (modulo how many are live).
    Cancel { pick: usize },
    /// Advance the clock by `dt` and drain everything due.
    Advance { dt: u64 },
    /// Move the clock to the earliest pending deadline and pop one entry:
    /// what follows is scheduled with the rest of its batch pending.
    Step,
}

/// Deadline deltas weighted to stress every storage tier: same-slot
/// ties, the three wheel levels (slot sizes 2^10 / 2^18 / 2^26 ns), and
/// the overflow heap past the 2^34 ns horizon.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4,                          // same-slot ties
        4 => 0u64..(1 << 12),                  // level 0
        3 => (1u64 << 12)..(1 << 20),          // level 1
        3 => (1u64 << 20)..(1 << 28),          // level 2
        2 => (1u64 << 28)..(1 << 36),          // level 2 far + overflow
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => arb_dt().prop_map(|dt| Op::Schedule { dt }),
        4 => arb_dt().prop_map(|dt| Op::Reserve { dt }),
        4 => any::<usize>().prop_map(|pick| Op::Redeem { pick }),
        1 => any::<usize>().prop_map(|pick| Op::Cancel { pick }),
        3 => arb_dt().prop_map(|dt| Op::Advance { dt }),
        2 => Just(Op::Step),
    ]
}

/// The reference scheduler: exactly the engine's old implementation — a
/// min-heap on `(timestamp, sequence)` with lazy cancellation.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cancelled: BTreeSet<u64>,
}

impl HeapModel {
    fn schedule(&mut self, at: u64, seq: u64, val: u32) {
        self.heap.push(Reverse((at, seq, val)));
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// The earliest live entry, cancelled ones ahead of it reaped.
    fn peek(&mut self) -> Option<(u64, u64, u32)> {
        while let Some(&Reverse((at, seq, val))) = self.heap.peek() {
            if !self.cancelled.remove(&seq) {
                return Some((at, seq, val));
            }
            self.heap.pop();
        }
        None
    }

    fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
        let head = self.peek().filter(|&(at, ..)| at <= limit)?;
        self.heap.pop();
        Some(head)
    }
}

/// The wheel and the model side by side, and what the test must
/// remember to keep its own calls legal.
#[derive(Default)]
struct Both {
    wheel: TimerWheel<u32>,
    model: HeapModel,
    /// Seqs scheduled, not yet popped or cancelled.
    live: Vec<u64>,
    last_pop: Option<(u64, u64)>,
}

impl Both {
    /// The payload encodes the seq so value mismatches are caught
    /// independently of ordering mismatches.
    fn schedule(&mut self, at: u64, seq: u64) {
        self.wheel.schedule(at, seq, seq as u32);
        self.model.schedule(at, seq, seq as u32);
        self.live.push(seq);
    }

    /// Pop once from each; they must agree.
    fn pop_before(&mut self, limit: u64) -> Option<(u64, u64)> {
        let got = self.wheel.pop_before(limit);
        let want = self.model.pop_before(limit);
        assert_eq!(got, want, "pop divergence at limit {limit}");
        let (at, seq, _) = got?;
        assert!(at <= limit);
        self.live.retain(|&s| s != seq);
        self.last_pop = Some((at, seq));
        self.last_pop
    }
}

fn check_against_heap(ops: &[Op]) {
    let mut both = Both::default();
    let mut now = 0u64;
    let mut next_seq = 0u64;
    let mut reserved: Vec<(u64, u64)> = Vec::new(); // (at, seq) drawn, not scheduled

    for op in ops {
        match *op {
            Op::Schedule { dt } => {
                both.schedule(now + dt, next_seq);
                next_seq += 1;
            }
            Op::Reserve { dt } => {
                reserved.push((now + dt, next_seq));
                next_seq += 1;
            }
            Op::Redeem { pick } => {
                if reserved.is_empty() {
                    continue;
                }
                let (at, seq) = reserved.remove(pick % reserved.len());
                if at >= now && Some((at, seq)) > both.last_pop {
                    both.schedule(at, seq);
                }
            }
            Op::Cancel { pick } => {
                if both.live.is_empty() {
                    continue;
                }
                let seq = both.live.remove(pick % both.live.len());
                both.wheel.cancel(seq);
                both.model.cancel(seq);
            }
            Op::Advance { dt } => {
                now += dt;
                while both.pop_before(now).is_some() {}
            }
            Op::Step => {
                if let Some((at, ..)) = both.model.peek() {
                    now = at;
                    assert!(both.pop_before(now).is_some());
                }
            }
        }
        assert_eq!(both.wheel.len(), both.live.len(), "live-count divergence");
    }

    // Final total drain: everything still pending must come out of
    // both schedulers in the same order.
    while both.pop_before(u64::MAX).is_some() {}
    assert!(both.wheel.is_empty());
}

proptest! {
    #[test]
    fn wheel_matches_heap_on_arbitrary_op_sequences(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        check_against_heap(&ops);
    }

    /// Equal-deadline bursts specifically: N timers on one timestamp,
    /// scheduled in interleaved batches, must fire strictly in insertion
    /// order (the FIFO-tie contract `Network::schedule_timer_at`
    /// documents).
    #[test]
    fn equal_deadline_ties_fire_in_insertion_order(
        base in 0u64..(1 << 30),
        burst in 2usize..24,
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        for seq in 0..burst as u64 {
            wheel.schedule(base, seq, seq as u32);
        }
        let mut fired = Vec::new();
        while let Some((at, seq, val)) = wheel.pop_before(u64::MAX) {
            prop_assert_eq!(at, base);
            prop_assert_eq!(seq as u32, val);
            fired.push(seq);
        }
        let expect: Vec<u64> = (0..burst as u64).collect();
        prop_assert_eq!(fired, expect);
    }
}

proptest! {
    // The vendored proptest runs 64 cases by default; nightly.yml runs
    // this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn wheel_matches_heap_on_arbitrary_op_sequences_4096(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        check_against_heap(&ops);
    }
}

/// The two places a reserved sequence number can land when it is
/// scheduled after larger ones: merged into the batch being served, and
/// pushed into a slot not yet drained. Either way it pops where an entry
/// scheduled at reservation time would have.
#[test]
fn a_sequence_scheduled_late_pops_in_its_reserved_place() {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    wheel.schedule(100, 1, 1);
    wheel.schedule(100, 3, 3);
    wheel.schedule(5_000, 5, 5);
    assert_eq!(wheel.pop_before(100), Some((100, 1, 1)));
    wheel.schedule(100, 2, 2); // the slot of 100 is the ready batch
    wheel.schedule(5_000, 4, 4); // the slot of 5 000 is still a slot
    let rest: Vec<u64> = std::iter::from_fn(|| wheel.pop_before(u64::MAX))
        .map(|(_, seq, _)| seq)
        .collect();
    assert_eq!(rest, vec![2, 3, 4, 5]);
}

/// A far-future entry whose deadline falls inside an L0 slot that already
/// holds something earlier: taking it out of the overflow heap must not
/// move the wheel's time floor past the earlier entry, or whatever the
/// caller schedules while handling that one is clamped late.
#[test]
fn overflow_head_joining_an_occupied_slot_does_not_outrun_the_clock() {
    let far = 20_000_000u64 << 10; // slot-aligned, beyond the 2^34 ns horizon
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    wheel.schedule(far + 500, 0, 0); // overflow heap
    wheel.schedule(far / 2, 1, 1);
    assert_eq!(wheel.pop_before(far / 2), Some((far / 2, 1, 1)));
    wheel.schedule(far, 2, 2); // in reach now: the wheel proper, same slot
    assert_eq!(wheel.pop_before(far), Some((far, 2, 2)));
    wheel.schedule(far + 400, 3, 3);
    assert_eq!(wheel.pop_before(far + 400), Some((far + 400, 3, 3)));
    assert_eq!(wheel.pop_before(u64::MAX), Some((far + 500, 0, 0)));
}
