//! Hierarchical timing wheel: the engine's event scheduler.
//!
//! Three levels of 256 slots replace the old global `BinaryHeap`:
//!
//! | level | slot width | horizon from the cursor |
//! |-------|-----------:|------------------------:|
//! | L0    | 2¹⁰ ns ≈ 1 µs   | 2¹⁸ ns ≈ 262 µs  |
//! | L1    | 2¹⁸ ns ≈ 262 µs | 2²⁶ ns ≈ 67 ms   |
//! | L2    | 2²⁶ ns ≈ 67 ms  | 2³⁴ ns ≈ 17.2 s  |
//!
//! Scheduling drops an entry into the innermost level whose horizon
//! covers its deadline — O(1), no comparisons — and anything beyond L2's
//! horizon goes to the sorted far-future heap in `overflow` (the only
//! module in the workspace's sources allowed to name `BinaryHeap`, which
//! `clippy.toml` bans everywhere else).
//! As the cursor advances, higher-level slots *cascade*: their entries
//! redistribute into the levels below, which the slot-width alignment
//! (each level's granularity divides the next) makes exact — a higher
//! level slot boundary can never bisect a lower-level slot.
//!
//! ## Ordering contract
//!
//! Pops come out in `(deadline, insertion sequence)` order — the
//! engine's documented total order, with equal-deadline ties firing in
//! insertion order. Slot residents are unsorted until their slot is
//! drained; the drain sorts the slot's buffer once by `(at, seq)` and
//! that buffer *is* the `ready` batch, and because `seq` is unique the
//! sort is a total order. Sequences need not arrive in increasing order
//! — the engine reserves one when a transmission starts and may schedule
//! it later, after larger ones — only `(at, seq)` must be later than the
//! last pop. The equivalence proptest in `tests/wheel_props.rs` drives
//! this scheduler and a `BinaryHeap` reference model with arbitrary
//! interleaved schedule/cancel/advance sequences, late-scheduled small
//! sequences included, and asserts identical pop streams.
//!
//! ## Batches and buffers
//!
//! Draining a slot serves every event in it — in particular whole
//! same-timestamp runs — from one scan and one sort;
//! [`TimerWheel::slot_drains`] counts the drains, so pops per drain is
//! the mean batch size. A drained slot is left with no capacity (256
//! slots per level each holding their high-water mark is megabytes of
//! resident set), and the buffer it gave up, once emptied, waits on a
//! stack of at most `SPARES` (8) for the next slot that starts filling —
//! at a steady population the wheel does not touch the allocator.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::mem;

use acdc_stats::time::Nanos;

pub(crate) mod overflow;

const SLOTS: usize = 256;
const WORDS: usize = SLOTS / 64;
const LEVELS: usize = 3;
/// Bit position of each level's slot width (1 µs, 262 µs, 67 ms).
const SHIFTS: [u32; LEVELS] = [10, 18, 26];
/// Emptied slot buffers kept for reuse; any beyond this are freed.
const SPARES: usize = 8;

/// One scheduled event: deadline, insertion sequence, payload.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    val: T,
}

/// One wheel level: 256 slots plus an occupancy bitmap so the cursor
/// skips empty stretches in O(1) words instead of slot-by-slot.
struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    occupied: [u64; WORDS],
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
        }
    }

    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn unmark(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Distance (0..SLOTS, wrapping) from slot index `from` to the first
    /// occupied slot, or `None` if the level is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (fw, fb) = (from / 64, from % 64);
        let head = self.occupied[fw] >> fb;
        if head != 0 {
            return Some(head.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let wi = (fw + k) % WORDS;
            let base = k * 64 - fb;
            if wi == fw {
                // Wrapped all the way around: only the bits below `from`
                // in the starting word remain.
                let tail = self.occupied[fw] & ((1u64 << fb) - 1);
                return if tail != 0 {
                    Some(base + tail.trailing_zeros() as usize)
                } else {
                    None
                };
            }
            let w = self.occupied[wi];
            if w != 0 {
                return Some(base + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The hierarchical timing wheel (see module docs). Generic over the
/// payload so the equivalence proptest can drive it with plain tokens
/// while the engine stores event kinds.
pub struct TimerWheel<T> {
    levels: [Level<T>; LEVELS],
    overflow: overflow::FarFuture<T>,
    /// The batch pops are served from: the last drained slot's own
    /// buffer, sorted by `(at, seq)` descending so the earliest entry is
    /// at the back. Always the globally earliest live entries.
    ready: Vec<Entry<T>>,
    /// Absolute L0 slot number `ready` was drained from; it means
    /// something only while `ready` is non-empty, when same-slot
    /// schedules merge straight into the batch.
    drained_slot: u64,
    /// Emptied buffers (capacity, no entries) for [`TimerWheel::place`]
    /// to hand to a slot that has none; never more than [`SPARES`].
    spares: Vec<Vec<Entry<T>>>,
    /// Time floor: no live entry is earlier than this, and schedules
    /// below it clamp up to it (fire as soon as possible).
    cur: Nanos,
    /// Live (scheduled − popped − cancelled) entries.
    len: usize,
    /// Lazily-reaped cancelled sequences (see [`TimerWheel::cancel`]).
    cancelled: BTreeSet<u64>,
    /// L0 slots drained into `ready`.
    slot_drains: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: overflow::FarFuture::new(),
            ready: Vec::new(),
            drained_slot: 0,
            spares: Vec::new(),
            cur: 0,
            len: 0,
            cancelled: BTreeSet::new(),
            slot_drains: 0,
        }
    }

    /// Live entries (scheduled, not yet popped or cancelled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// No live entries?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// L0 slots drained so far, one per sorted batch. Pops divided by
    /// drains is the mean batch size.
    pub fn slot_drains(&self) -> u64 {
        self.slot_drains
    }

    /// Schedule `val` at absolute time `at` with insertion sequence
    /// `seq`. Sequences must be unique, and `(at, seq)` later than the
    /// last pop; they need not increase from call to call. A deadline
    /// earlier than the cursor clamps up to it, i.e. fires as soon as
    /// possible.
    pub fn schedule(&mut self, at: Nanos, seq: u64, val: T) {
        let at = at.max(self.cur);
        self.len += 1;
        let e = Entry { at, seq, val };
        if !self.ready.is_empty() && self.drained_slot == at >> SHIFTS[0] {
            // The batch covering this deadline is already drained:
            // merge in sequence position instead of re-touching slots.
            let pos = self
                .ready
                .partition_point(|x| (x.at, x.seq) > (e.at, e.seq));
            self.ready.insert(pos, e);
            return;
        }
        self.place(e);
    }

    /// Lazily cancel the pending entry with sequence `seq`. The caller
    /// must know `seq` is live (scheduled, not yet popped or cancelled);
    /// the entry's storage is reaped when its deadline comes around.
    pub fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
        self.len -= 1;
    }

    /// Pop the earliest live entry with deadline ≤ `limit`, as
    /// `(at, seq, payload)`, or `None` if every live entry is later.
    pub fn pop_before(&mut self, limit: Nanos) -> Option<(Nanos, u64, T)> {
        loop {
            while let Some(head) = self.ready.last() {
                if head.at > limit {
                    return None;
                }
                let e = self.ready.pop().expect("last() was Some");
                if self.cancelled.remove(&e.seq) {
                    continue; // len already decremented by cancel()
                }
                self.len -= 1;
                return Some((e.at, e.seq, e.val));
            }
            if !self.refill(limit) {
                return None;
            }
        }
    }

    /// Deadline of the earliest pending entry. Exact for everything in
    /// the wheel proper; a cancelled-but-unreaped entry at the very head
    /// of the far-future overflow may be reported until reaped (the
    /// engine never cancels, so its peeks are always exact).
    pub fn peek_at(&self) -> Option<Nanos> {
        let mut best: Option<Nanos> = None;
        let mut fold = |t: Option<Nanos>| {
            best = match (best, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        fold(
            self.ready
                .iter()
                .rev()
                .find(|e| !self.cancelled.contains(&e.seq))
                .map(|e| e.at),
        );
        for (i, level) in self.levels.iter().enumerate() {
            fold(self.level_min(level, i));
        }
        fold(match self.overflow.peek_seq() {
            Some(seq) if self.cancelled.contains(&seq) => None,
            _ => self.overflow.peek_at(),
        });
        best
    }

    /// Earliest live deadline stored in `level` (index `i`): walk
    /// occupied slots cursor-outward; the first slot with a live entry
    /// holds the level minimum (later slots only hold later deadlines).
    fn level_min(&self, level: &Level<T>, i: usize) -> Option<Nanos> {
        let cs = self.cur >> SHIFTS[i];
        let mut from = (cs as usize) % SLOTS;
        let mut walked = 0usize;
        while walked < SLOTS {
            let d = level.next_occupied(from)?;
            if walked + d >= SLOTS {
                return None;
            }
            let idx = (from + d) % SLOTS;
            let min = level.slots[idx]
                .iter()
                .filter(|e| !self.cancelled.contains(&e.seq))
                .map(|e| e.at)
                .min();
            if min.is_some() {
                return min;
            }
            walked += d + 1;
            from = (idx + 1) % SLOTS;
        }
        None
    }

    /// Drop `e` into the innermost level whose window (256 slots from
    /// the cursor's slot) covers its deadline, else the overflow heap.
    /// A slot with no buffer takes a spare one before it allocates.
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.cur);
        for (i, &sh) in SHIFTS.iter().enumerate() {
            if (e.at >> sh) - (self.cur >> sh) < SLOTS as u64 {
                let idx = ((e.at >> sh) as usize) % SLOTS;
                let slot = &mut self.levels[i].slots[idx];
                if slot.capacity() == 0 {
                    if let Some(spare) = self.spares.pop() {
                        *slot = spare;
                    }
                }
                slot.push(e);
                self.levels[i].mark(idx);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Keep an emptied slot buffer for [`TimerWheel::place`] to reuse,
    /// or free it if the stack is full.
    fn recycle(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 && self.spares.len() < SPARES {
            self.spares.push(buf);
        }
    }

    /// Advance the cursor toward the earliest pending work and make one
    /// L0 slot's buffer the `ready` batch (which must be empty: its old
    /// buffer is recycled), cascading higher levels and pulling from
    /// the overflow heap as their boundaries are crossed. Returns false
    /// — touching nothing — when the earliest pending deadline (or its
    /// conservatively-early slot start) exceeds `limit`, so the cursor
    /// never outruns the caller's clock.
    fn refill(&mut self, limit: Nanos) -> bool {
        if self.len == 0 && self.cancelled.is_empty() {
            return false;
        }
        loop {
            // Per-level candidate: start time of the first occupied slot.
            let mut cand: [Option<u64>; LEVELS] = [None; LEVELS];
            for (i, level) in self.levels.iter().enumerate() {
                let cs = self.cur >> SHIFTS[i];
                cand[i] = level
                    .next_occupied((cs as usize) % SLOTS)
                    .map(|d| cs + d as u64);
            }
            let t = |i: usize| cand[i].map(|sn| sn << SHIFTS[i]);
            let (c0, c1, c2) = (t(0), t(1), t(2));
            let cof = self.overflow.peek_at();

            let min_aligned = [c0, c1, c2].into_iter().flatten().min();
            let Some(min_t) = [min_aligned, cof].into_iter().flatten().min() else {
                return false;
            };
            if min_t > limit {
                return false;
            }

            // The L0 candidate's slot covers [start, end): an overflow
            // head inside that window must migrate in before the slot
            // may drain (exact times versus aligned slot starts).
            let l0_end = cand[0].map(|sn| (sn << SHIFTS[0]).saturating_add(1 << SHIFTS[0]));
            let overflow_first = match (cof, min_aligned) {
                (Some(of), None) => Some(of),
                (Some(of), Some(ma)) if of <= ma => Some(of),
                (Some(of), _) if c0 == min_aligned && Some(of) < l0_end => Some(of),
                _ => None,
            };

            if let Some(of) = overflow_first {
                // The floor stops at the candidate slot's start when the
                // head lands inside it: the slot may hold earlier entries.
                self.cur = self.cur.max(min_aligned.map_or(of, |ma| ma.min(of)));
                while let Some(at) = self.overflow.peek_at() {
                    if (at >> SHIFTS[LEVELS - 1]) - (self.cur >> SHIFTS[LEVELS - 1]) >= SLOTS as u64
                    {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked entry exists");
                    self.place(e);
                }
                continue;
            }
            // Cascade outer levels first on ties so their residents land
            // in the inner levels before an inner slot drains.
            if c2.is_some() && (c1.is_none() || c2 <= c1) && (c0.is_none() || c2 <= c0) {
                self.cascade(2, cand[2].expect("c2 is Some"));
                continue;
            }
            if c1.is_some() && (c0.is_none() || c1 <= c0) {
                self.cascade(1, cand[1].expect("c1 is Some"));
                continue;
            }
            let sn = cand[0].expect("some level had the minimum");
            self.cur = self.cur.max(sn << SHIFTS[0]);
            let idx = (sn as usize) % SLOTS;
            // `take`, not `drain(..)`: the slot keeps no capacity.
            let mut batch = mem::take(&mut self.levels[0].slots[idx]);
            self.levels[0].unmark(idx);
            debug_assert!(!batch.is_empty(), "a marked slot holds an entry");
            batch.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
            let emptied = mem::replace(&mut self.ready, batch);
            self.recycle(emptied);
            self.drained_slot = sn;
            self.slot_drains += 1;
            return true;
        }
    }

    /// Move every resident of `level` slot `sn` down into the levels
    /// below (guaranteed to fit once the cursor reaches the slot start).
    fn cascade(&mut self, level: usize, sn: u64) {
        self.cur = self.cur.max(sn << SHIFTS[level]);
        let idx = (sn as usize) % SLOTS;
        let mut entries = mem::take(&mut self.levels[level].slots[idx]);
        self.levels[level].unmark(idx);
        for e in entries.drain(..) {
            self.place(e);
        }
        self.recycle(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steady population cycling through L0 and L1: whatever a drain
    /// or a cascade empties is left without capacity, so only occupied
    /// slots, `ready` and at most `SPARES` spares hold buffers.
    #[test]
    fn drained_slots_keep_no_capacity_and_spares_stay_bounded() {
        // Deadlines 777 ns apart: about three L0 slots in four occupied,
        // and a horizon (466 µs) that reaches into L1.
        const POPULATION: u64 = 600;
        const GAP: u64 = 777;
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut seq = 0;
        for i in 0..POPULATION {
            seq += 1;
            wheel.schedule(i * GAP, seq, i);
        }
        let mut most_spares = 0;
        while wheel.slot_drains < 4_000 {
            let (at, _, i) = wheel.pop_before(u64::MAX).expect("steady population");
            seq += 1;
            wheel.schedule(at + POPULATION * GAP, seq, i);

            assert!(wheel.spares.len() <= SPARES);
            most_spares = most_spares.max(wheel.spares.len());
            for level in &wheel.levels {
                for (idx, slot) in level.slots.iter().enumerate() {
                    let occupied = level.occupied[idx / 64] >> (idx % 64) & 1 == 1;
                    assert_eq!(occupied, !slot.is_empty());
                    assert!(occupied || slot.capacity() == 0, "slot {idx} kept a buffer");
                }
            }
        }
        assert!(most_spares > 0, "no buffer was ever recycled");
    }
}
