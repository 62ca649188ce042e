//! The names the benchmark harness builds against from when every segment
//! rented its header buffer from a process-wide pool; a segment now holds
//! its header inline, and ROADMAP item 1 deletes these.

/// Pool traffic: always zero, since no segment rents a buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Takes served from a free list.
    pub hits: u64,
    /// Takes that fell through to a fresh allocation.
    pub misses: u64,
}

/// What [`global`] returns: a pool with nothing in it.
pub struct Pool;

impl Pool {
    /// Zero traffic.
    pub fn stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// A copy of `src`.
    pub fn take_copy(&self, src: &[u8]) -> Vec<u8> {
        src.to_vec()
    }
}

/// The empty pool.
pub fn global() -> Pool {
    Pool
}
