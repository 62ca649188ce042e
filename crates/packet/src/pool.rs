//! The segment buffer pool: one free list recycling header backing
//! storage across the NIC → vSwitch → endpoint pipeline.
//!
//! Every [`Segment`](crate::Segment) owns a small `BytesMut` of serialized
//! header bytes (20–120 bytes; PACK insertion can grow it slightly). At
//! simulator packet rates a malloc/free round-trip per packet *and per
//! clone* is pure allocator churn, since the buffers are uniform and
//! short-lived. This module keeps retired buffers on a free list instead:
//! constructors take a recycled buffer (clear + zero-fill to the
//! requested length), and `Segment`'s `Drop` returns the backing storage
//! here.
//!
//! # One list, never waited on
//!
//! The pool is a process-wide `static`, shared by every thread that
//! builds or drops a segment, so it is one `Mutex<Vec<BytesMut>>` plus
//! four relaxed counters. Both operations `try_lock`: a take that meets a
//! held lock allocates, a put that meets one frees. The pool can decline,
//! it can never stall a caller. The list is a private field: only this
//! file may touch it.
//!
//! # Determinism
//!
//! Recycling is invisible to simulation results by construction: a taken
//! buffer is fully overwritten (cleared, then zero-filled or copied into)
//! before anything reads it, and the parse cache on `Segment` is rebuilt
//! by the constructor, never inherited from the buffer's previous life
//! (pinned by the pool-coherence proptest in this crate's tests). Under
//! parallel dispatch a lost `try_lock` race can vary run to run, but it
//! only decides *which allocation* backs a segment, never its contents.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use bytes::BytesMut;

/// Retention bound: buffers returned to a full list are dropped to the
/// allocator instead. Bounds worst-case pool footprint at
/// `POOL_CAP * MAX_RECYCLED_CAPACITY` (16 MiB).
const POOL_CAP: usize = 8 * 4096;

/// Buffers whose capacity grew beyond this are not retained. Header
/// buffers are 20–120 bytes (IPv4 + TCP, both option-padded, plus PACK
/// growth); anything larger came from an exotic caller and would bloat
/// the free list for no hit-rate gain.
const MAX_RECYCLED_CAPACITY: usize = 512;

/// A point-in-time copy of the pool's traffic statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Takes served from the free list.
    pub hits: u64,
    /// Takes that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back onto the free list.
    pub recycled: u64,
    /// Buffers refused (zero/oversized capacity, full or contended list)
    /// and released to the allocator.
    pub discarded: u64,
}

/// A free list of retired segment buffers. One global instance (see
/// [`global`]) serves the whole process; tests may build private pools to
/// observe traffic in isolation.
#[derive(Default)]
pub struct SegmentPool {
    free: Mutex<Vec<BytesMut>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

impl SegmentPool {
    /// An empty pool.
    pub fn new() -> SegmentPool {
        SegmentPool::default()
    }

    /// Traffic statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently parked (test helper; racy under concurrent
    /// traffic, exact when quiescent).
    pub fn parked(&self) -> usize {
        self.free.lock().map(|g| g.len()).unwrap_or(0)
    }

    /// A zero-filled buffer of length `len`, recycled when possible.
    pub fn take(&self, len: usize) -> BytesMut {
        let mut buf = self.take_raw();
        buf.resize(len, 0);
        buf
    }

    /// A buffer holding a copy of `src`, recycled when possible.
    pub fn take_copy(&self, src: &[u8]) -> BytesMut {
        let mut buf = self.take_raw();
        buf.extend_from_slice(src);
        buf
    }

    /// Pop a cleared buffer; falls back to a fresh empty one when the
    /// list is empty or held (the caller sizes it either way).
    fn take_raw(&self) -> BytesMut {
        let popped = self.free.try_lock().ok().and_then(|mut free| free.pop());
        match popped {
            Some(mut buf) => {
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::new()
            }
        }
    }

    /// Return `buf`'s backing storage to the free list, or to the
    /// allocator when it is not worth keeping (no capacity, or more than
    /// the hit path ever needs) or the list is full or held.
    pub fn put(&self, buf: BytesMut) {
        if buf.capacity() > 0 && buf.capacity() <= MAX_RECYCLED_CAPACITY {
            if let Ok(mut free) = self.free.try_lock() {
                if free.len() < POOL_CAP {
                    free.push(buf);
                    self.recycled.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

static GLOBAL: OnceLock<SegmentPool> = OnceLock::new();

/// The process-wide pool every `Segment` constructor and `Drop` goes
/// through.
pub fn global() -> &'static SegmentPool {
    GLOBAL.get_or_init(SegmentPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_after_reuse() {
        let pool = SegmentPool::new();
        let mut buf = pool.take(32);
        buf[..4].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        pool.put(buf);
        let again = pool.take(32);
        assert_eq!(again.len(), 32);
        assert!(again.iter().all(|&b| b == 0), "stale bytes leaked");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn take_copy_reproduces_source_exactly() {
        let pool = SegmentPool::new();
        let mut buf = pool.take(64);
        buf.iter_mut().for_each(|b| *b = 0xff);
        pool.put(buf);
        let src = [1u8, 2, 3, 4, 5];
        let copy = pool.take_copy(&src);
        assert_eq!(&copy[..], &src);
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_retained() {
        let pool = SegmentPool::new();
        pool.put(BytesMut::new());
        pool.put(BytesMut::zeroed(MAX_RECYCLED_CAPACITY + 1));
        assert_eq!(pool.parked(), 0);
        assert_eq!(pool.stats().discarded, 2);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn list_accepts_up_to_its_cap_and_discards_only_beyond() {
        let pool = SegmentPool::new();
        for _ in 0..(POOL_CAP + 10) {
            pool.put(BytesMut::zeroed(8));
        }
        assert_eq!(pool.parked(), POOL_CAP);
        assert_eq!(pool.stats().recycled, POOL_CAP as u64);
        assert_eq!(pool.stats().discarded, 10);
        // A take makes room for exactly one more.
        drop(pool.take(8));
        pool.put(BytesMut::zeroed(8));
        pool.put(BytesMut::zeroed(8));
        assert_eq!(pool.parked(), POOL_CAP);
        assert_eq!(pool.stats().discarded, 11);
    }

    #[test]
    fn concurrent_take_and_put_lose_nothing_and_never_block() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 2_000;
        let pool = SegmentPool::new();
        let churn = |pool: &SegmentPool| {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    s.spawn(move || {
                        for i in 0..ROUNDS {
                            let mut buf = pool.take(40);
                            assert!(buf.iter().all(|&b| b == 0), "stale bytes leaked");
                            buf.iter_mut().for_each(|b| *b = 0xa0 | t as u8);
                            if i % 2 == 0 {
                                // Half the buffers sit out a round, so the
                                // list is not always one deep.
                                let second = pool.take(40);
                                assert!(second.iter().all(|&b| b == 0));
                                pool.put(second);
                            }
                            pool.put(buf);
                        }
                    });
                }
            });
        };

        // With the list's lock held elsewhere every operation declines
        // instead of waiting: the threads finish while the guard lives.
        let held = pool.free.lock().unwrap();
        churn(&pool);
        drop(held);
        let ops = THREADS * (ROUNDS + ROUNDS / 2);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, ops));
        assert_eq!((s.recycled, s.discarded), (0, ops));

        // Unheld: every take is a hit or a miss, every put recycled or
        // discarded, and what the list holds is the difference.
        churn(&pool);
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 2 * ops);
        assert_eq!(s.recycled + s.discarded, 2 * ops);
        assert_eq!(pool.parked() as u64, s.recycled - s.hits);
    }
}
