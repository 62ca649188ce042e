// A raw counter field outside a `Copy` view: O001. The `Copy` view
// above it shows the structural exemption working in the same file — no
// allow directive needed.

/// The view its owner counts in and returns whole.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStats {
    pub random_drops: u64,
    pub scripted_drops: u64,
}

pub struct FreshCounters {
    pub rto_count: u64,
}
