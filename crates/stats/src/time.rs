//! Virtual time units shared by the whole workspace.
//!
//! The simulator runs on a `u64` nanosecond clock. We use a plain alias
//! rather than a newtype: timestamps flow through hot per-packet paths and
//! arithmetic on them is pervasive; the alias keeps call sites readable
//! (`now + rto`) while the named constants keep magnitudes honest.

/// A point in (or duration of) virtual time, in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(MILLISECOND, 1000 * MICROSECOND);
        assert_eq!(SECOND, 1000 * MILLISECOND);
    }
}
