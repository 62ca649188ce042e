//! The segment buffer pool: sharded free lists recycling header backing
//! storage across the NIC → vSwitch → endpoint pipeline.
//!
//! Every [`Segment`](crate::Segment) owns a small `BytesMut` of serialized
//! header bytes (20–120 bytes; PACK insertion can grow it slightly). At
//! simulator packet rates that used to mean a malloc/free round-trip per
//! packet *and per clone* — pure allocator churn, since the buffers are
//! uniform and short-lived. This module keeps retired buffers on free
//! lists instead: constructors take a recycled buffer (clear + zero-fill
//! to the requested length), and `Segment`'s `Drop` returns the backing
//! storage here.
//!
//! # Sharding and the per-worker story
//!
//! The pool is split into [`POOL_SHARDS`] independent `Mutex<Vec<_>>`
//! free lists. Callers go through a [`PoolHandle`]:
//!
//! * a **rotating** handle (the default; what the global constructors
//!   use) spreads takes and puts across shards with a relaxed atomic
//!   cursor — correct from any thread, no coordination;
//! * a **pinned** handle fixes the shard, so when the `acdc-workers`
//!   run-to-completion engine is dispatching, each worker's sink can
//!   recycle through its own shard and the common case never contends.
//!
//! All shard state is `Mutex`/atomic only — the pool is a process-wide
//! `static` shared by every worker thread, so it has to be `Sync`. Locks
//! are `try_lock` with neighbor-shard fallback: a contended shard is
//! skipped, never waited on, so the pool can stall nothing. The free
//! lists are private fields: only this file may touch them.
//!
//! # Determinism
//!
//! Recycling is invisible to simulation results by construction: a taken
//! buffer is fully overwritten (cleared, then zero-filled or copied into)
//! before anything reads it, and the parse cache on `Segment` is rebuilt
//! by the constructor, never inherited from the buffer's previous life
//! (pinned by the pool-coherence proptest in this crate's tests). Shard
//! choice can vary run to run under parallel dispatch, but it only
//! decides *which allocation* backs a segment, never its contents.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use bytes::BytesMut;

/// Number of independent free-list shards. At least as many as the
/// worker counts the equivalence suites exercise, so pinned handles can
/// map worker → shard injectively in every supported configuration.
pub const POOL_SHARDS: usize = 8;

/// Per-shard retention bound: buffers returned to a full shard are
/// dropped to the allocator instead. Bounds worst-case pool footprint at
/// `POOL_SHARDS * SHARD_CAP * MAX_RECYCLED_CAPACITY` (~16 MiB).
const SHARD_CAP: usize = 4096;

/// Buffers whose capacity grew beyond this are not retained. Header
/// buffers are 20–120 bytes (IPv4 + TCP, both option-padded, plus PACK
/// growth); anything larger came from an exotic caller and would bloat
/// the free lists for no hit-rate gain.
const MAX_RECYCLED_CAPACITY: usize = 512;

/// A point-in-time copy of the pool's traffic statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Takes served from a free list.
    pub hits: u64,
    /// Takes that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back onto a free list.
    pub recycled: u64,
    /// Buffers refused (zero/oversized capacity, full or contended
    /// shard) and released to the allocator.
    pub discarded: u64,
}

/// Sharded free lists of retired segment buffers. One global instance
/// (see [`global`]) serves the whole process; tests may build private
/// pools to observe traffic in isolation.
pub struct SegmentPool {
    shards: Vec<Mutex<Vec<BytesMut>>>,
    take_cursor: AtomicUsize,
    put_cursor: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

impl SegmentPool {
    /// An empty pool with [`POOL_SHARDS`] shards.
    pub fn new() -> SegmentPool {
        SegmentPool {
            shards: (0..POOL_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            take_cursor: AtomicUsize::new(0),
            put_cursor: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// A handle that spreads takes/puts across all shards.
    pub fn rotating(&self) -> PoolHandle<'_> {
        PoolHandle {
            pool: self,
            shard: None,
        }
    }

    /// A handle pinned to shard `index % POOL_SHARDS` — the per-worker
    /// mode: give worker *i* handle *i* and its recycling stays on its
    /// own free list.
    pub fn pinned(&self, index: usize) -> PoolHandle<'_> {
        PoolHandle {
            pool: self,
            shard: Some(index % POOL_SHARDS),
        }
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

    /// Total buffers currently parked across all shards (test helper;
    /// racy under concurrent traffic, exact when quiescent).
    pub fn parked(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.len()).unwrap_or(0))
            .sum()
    }

    /// A zero-filled buffer of length `len`, recycled when possible.
    pub fn take(&self, len: usize) -> BytesMut {
        let mut buf = self.take_raw(self.take_cursor.fetch_add(1, Ordering::Relaxed));
        buf.resize(len, 0);
        buf
    }

    /// A buffer holding a copy of `src`, recycled when possible.
    pub fn take_copy(&self, src: &[u8]) -> BytesMut {
        let mut buf = self.take_raw(self.take_cursor.fetch_add(1, Ordering::Relaxed));
        buf.extend_from_slice(src);
        buf
    }

    /// Return `buf`'s backing storage to a free list (or the allocator).
    pub fn put(&self, buf: BytesMut) {
        self.put_from(self.put_cursor.fetch_add(1, Ordering::Relaxed), buf);
    }

    /// Pop a cleared buffer starting the shard scan at `start`; falls
    /// back to a fresh empty buffer (the caller sizes it either way).
    fn take_raw(&self, start: usize) -> BytesMut {
        for i in 0..POOL_SHARDS {
            let shard = &self.shards[(start + i) % POOL_SHARDS];
            let Ok(mut guard) = shard.try_lock() else {
                continue;
            };
            if let Some(mut buf) = guard.pop() {
                drop(guard);
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        BytesMut::new()
    }

    /// Park `buf` on the first uncontended, non-full shard at or after
    /// `start`; drop it to the allocator otherwise.
    fn put_from(&self, start: usize, buf: BytesMut) {
        if buf.capacity() == 0 || buf.capacity() > MAX_RECYCLED_CAPACITY {
            // Zero capacity means a moved-out husk (nothing to keep);
            // oversized buffers would pin memory the hit path never needs.
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for i in 0..POOL_SHARDS {
            let shard = &self.shards[(start + i) % POOL_SHARDS];
            let Ok(mut guard) = shard.try_lock() else {
                continue;
            };
            if guard.len() < SHARD_CAP {
                guard.push(buf);
                self.recycled.fetch_add(1, Ordering::Relaxed);
            } else {
                self.discarded.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for SegmentPool {
    fn default() -> SegmentPool {
        SegmentPool::new()
    }
}

/// A take/put view of the global pool with a shard policy: rotating
/// (default) or pinned to one shard for per-worker recycling. Cheap,
/// copyable, `Send + Sync`.
#[derive(Clone, Copy)]
pub struct PoolHandle<'a> {
    pool: &'a SegmentPool,
    shard: Option<usize>,
}

impl<'a> PoolHandle<'a> {
    /// The shard this handle is pinned to, if any.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    fn start(&self, cursor: &AtomicUsize) -> usize {
        match self.shard {
            Some(s) => s,
            None => cursor.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A zero-filled buffer of length `len` from this handle's shard(s).
    pub fn take(&self, len: usize) -> BytesMut {
        let mut buf = self.pool.take_raw(self.start(&self.pool.take_cursor));
        buf.resize(len, 0);
        buf
    }

    /// A buffer holding a copy of `src` from this handle's shard(s).
    pub fn take_copy(&self, src: &[u8]) -> BytesMut {
        let mut buf = self.pool.take_raw(self.start(&self.pool.take_cursor));
        buf.extend_from_slice(src);
        buf
    }

    /// Return `buf` through this handle's shard policy.
    pub fn put(&self, buf: BytesMut) {
        self.pool.put_from(self.start(&self.pool.put_cursor), buf);
    }
}

impl core::fmt::Debug for PoolHandle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.shard {
            Some(s) => write!(f, "PoolHandle(shard {s})"),
            None => write!(f, "PoolHandle(rotating)"),
        }
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
    fn pinned_handle_stays_on_its_shard() {
        let pool = SegmentPool::new();
        let h3 = pool.pinned(3);
        let h11 = pool.pinned(3 + POOL_SHARDS);
        assert_eq!(h3.shard(), Some(3));
        assert_eq!(h11.shard(), Some(3), "pinning wraps modulo POOL_SHARDS");
        h3.put(BytesMut::zeroed(16));
        assert_eq!(pool.shards[3].lock().unwrap().len(), 1);
        let buf = h11.take(16);
        assert_eq!(buf.len(), 16);
        assert_eq!(pool.stats().hits, 1, "pinned take hits its own shard");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn rotation_spreads_puts_across_shards() {
        let pool = SegmentPool::new();
        for _ in 0..POOL_SHARDS {
            pool.put(BytesMut::zeroed(8));
        }
        let occupied = pool
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert_eq!(
            occupied, POOL_SHARDS,
            "each rotation put lands on a new shard"
        );
    }

    #[test]
    fn shard_cap_bounds_retention() {
        let pool = SegmentPool::new();
        let h = pool.pinned(0);
        for _ in 0..(SHARD_CAP + 10) {
            h.put(BytesMut::zeroed(8));
        }
        assert_eq!(pool.shards[0].lock().unwrap().len(), SHARD_CAP);
        assert_eq!(pool.stats().discarded, 10);
    }
}
