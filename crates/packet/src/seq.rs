//! TCP sequence numbers with RFC 793 modular comparison semantics.
//!
//! Both the TCP endpoints and the AC/DC connection-tracking code compare
//! 32-bit sequence numbers that wrap. `SeqNumber` encapsulates the wrapping
//! arithmetic so callers never write a raw `<` on sequence space.

// The one home of wrapping u32 sequence arithmetic: `clippy.toml` bans
// `u32::wrapping_add`/`wrapping_sub` everywhere else.
#![allow(clippy::disallowed_methods)]

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A TCP sequence number: a point on the 2^32 circle.
///
/// Ordering is defined by the *signed distance* between points, which is the
/// standard serial-number arithmetic: `a < b` iff `(b - a) mod 2^32` is in
/// `(0, 2^31)`. Two numbers exactly half the circle apart are unordered; we
/// arbitrarily resolve that case as `Less` (it cannot occur with windows
/// bounded far below 2^31 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNumber(pub u32);

impl SeqNumber {
    /// Zero sequence number.
    pub const ZERO: SeqNumber = SeqNumber(0);

    /// The raw 32-bit value as carried on the wire.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Signed distance `self - other` on the sequence circle.
    pub fn distance(self, other: SeqNumber) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// The larger of two sequence numbers under modular ordering.
    pub fn max(self, other: SeqNumber) -> SeqNumber {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two sequence numbers under modular ordering.
    pub fn min(self, other: SeqNumber) -> SeqNumber {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Is `self` within the half-open interval `[lo, hi)` on the circle?
    pub fn in_range(self, lo: SeqNumber, hi: SeqNumber) -> bool {
        self >= lo && self < hi
    }
}

/// A point-in-time view of a sender's wire-sequence state: the oldest
/// unacknowledged byte and the next byte to send.
///
/// Both the guest TCP endpoint's sender and the vSwitch's passive
/// connection tracking reconstruct this same pair, and the
/// equivalence suites assert they agree. `SeqView` is the shared currency
/// for that comparison — it lives here (next to [`SeqNumber`]) so the
/// vSwitch can produce one without depending on the TCP crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SeqView {
    /// Oldest unacknowledged sequence number (`SND.UNA`).
    pub snd_una: SeqNumber,
    /// Next sequence number to be sent (`SND.NXT`).
    pub snd_nxt: SeqNumber,
}

impl SeqView {
    /// Bytes in flight according to this view: `snd_nxt - snd_una`,
    /// clamped at zero if the view is momentarily inconsistent.
    pub fn outstanding(self) -> u32 {
        let d = self.snd_nxt - self.snd_una;
        if d > 0 {
            d as u32
        } else {
            0
        }
    }
}

impl From<u32> for SeqNumber {
    fn from(v: u32) -> Self {
        SeqNumber(v)
    }
}

impl Add<u32> for SeqNumber {
    type Output = SeqNumber;
    fn add(self, rhs: u32) -> SeqNumber {
        SeqNumber(self.0.wrapping_add(rhs))
    }
}

impl Add<usize> for SeqNumber {
    type Output = SeqNumber;
    fn add(self, rhs: usize) -> SeqNumber {
        SeqNumber(self.0.wrapping_add(rhs as u32))
    }
}

impl AddAssign<u32> for SeqNumber {
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<SeqNumber> for SeqNumber {
    type Output = i32;
    fn sub(self, rhs: SeqNumber) -> i32 {
        self.distance(rhs)
    }
}

impl Sub<u32> for SeqNumber {
    type Output = SeqNumber;
    fn sub(self, rhs: u32) -> SeqNumber {
        SeqNumber(self.0.wrapping_sub(rhs))
    }
}

impl PartialOrd for SeqNumber {
    fn partial_cmp(&self, other: &SeqNumber) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SeqNumber {
    fn cmp(&self, other: &SeqNumber) -> Ordering {
        let d = self.distance(*other);
        match d {
            0 => Ordering::Equal,
            d if d > 0 => Ordering::Greater,
            _ => Ordering::Less,
        }
    }
}

impl fmt::Debug for SeqNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Seq({})", self.0)
    }
}

impl fmt::Display for SeqNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        assert!(SeqNumber(1) < SeqNumber(2));
        assert!(SeqNumber(2) > SeqNumber(1));
        assert_eq!(SeqNumber(7), SeqNumber(7));
    }

    #[test]
    fn ordering_across_wraparound() {
        let near_top = SeqNumber(u32::MAX - 10);
        let wrapped = near_top + 20u32;
        assert!(wrapped > near_top);
        assert_eq!(wrapped.raw(), 9);
        assert_eq!(wrapped - near_top, 20);
        assert_eq!(near_top - wrapped, -20);
    }

    #[test]
    fn in_range_spanning_wrap() {
        let lo = SeqNumber(u32::MAX - 5);
        let hi = SeqNumber(10);
        assert!(SeqNumber(u32::MAX).in_range(lo, hi));
        assert!(SeqNumber(0).in_range(lo, hi));
        assert!(SeqNumber(9).in_range(lo, hi));
        assert!(!SeqNumber(10).in_range(lo, hi));
        assert!(!SeqNumber(100).in_range(lo, hi));
    }

    #[test]
    fn max_min() {
        let a = SeqNumber(u32::MAX);
        let b = a + 5u32;
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn add_sub_round_trip() {
        let s = SeqNumber(123);
        assert_eq!((s + 77u32) - 77u32, s);
    }
}
