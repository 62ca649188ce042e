//! The wheel's far-future overflow level: a plain min-heap ordered by
//! `(deadline, insertion sequence)`.
//!
//! Events beyond the top wheel level's horizon (~17 virtual seconds
//! from the wheel's cursor) are rare — long RTO backoffs, soak-scale
//! schedules — so they pay the classic O(log n) heap here and migrate
//! into the wheel proper when the cursor catches up. This module is the
//! **only** source file allowed to name `BinaryHeap` (`clippy.toml`
//! bans it elsewhere); everything near-horizon must go through the O(1)
//! wheel slots instead.

#![allow(
    clippy::disallowed_types,
    reason = "the timing wheel is the scheduler, and this module is its one far-future heap"
)]

use std::collections::BinaryHeap;

use acdc_stats::time::Nanos;

use super::Entry;

/// Heap wrapper giving [`Entry`] the earliest-first order the scheduler
/// needs, independent of the payload type.
struct FarEntry<T>(Entry<T>);

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// Sorted far-future storage: push anything, pop in `(at, seq)` order.
pub(super) struct FarFuture<T> {
    heap: BinaryHeap<FarEntry<T>>,
}

impl<T> FarFuture<T> {
    pub(super) fn new() -> FarFuture<T> {
        FarFuture {
            heap: BinaryHeap::new(),
        }
    }

    pub(super) fn push(&mut self, e: Entry<T>) {
        self.heap.push(FarEntry(e));
    }

    /// Deadline of the earliest stored entry.
    pub(super) fn peek_at(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.0.at)
    }

    /// Sequence of the earliest stored entry (for exact peeks).
    pub(super) fn peek_seq(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0.seq)
    }

    pub(super) fn pop(&mut self) -> Option<Entry<T>> {
        self.heap.pop().map(|e| e.0)
    }
}
