//! Stable 64-bit digests, and the committed file of them (DESIGN.md §11).
//!
//! A [`FlightRecorder`](crate::FlightRecorder) folds every event it
//! records into a [`Digest`], so an event the ring has since overwritten
//! still counts. [`golden`] compares a scenario's digest with its line in
//! `tests/golden.txt` at the workspace root: the file a change that is
//! not meant to move behaviour leaves untouched.
//!
//! The fold is FxHash's step over 64-bit words: fixed, so a digest is the
//! same in every process and build, and one multiply a word, so folding
//! at record time costs a few nanoseconds and allocates nothing. Each
//! step is a bijection of the running value, so two streams of equal
//! length that differ in one word never fold to the same digest.

/// A running 64-bit fold over words and byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// The empty fold. Not zero, so that folding zero words moves it.
    pub const fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Continue the fold from a value [`Digest::value`] returned.
    pub const fn resume(value: u64) -> Digest {
        Digest(value)
    }

    /// The fold so far.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Fold one word.
    #[inline]
    pub const fn word(self, w: u64) -> Digest {
        Digest((self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95))
    }

    /// Fold a byte string: its length, then its bytes eight at a time.
    pub fn bytes(self, b: &[u8]) -> Digest {
        b.chunks(8).fold(self.word(b.len() as u64), |d, c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            d.word(u64::from_le_bytes(w))
        })
    }
}

/// Check scenario `name` against its line in the workspace's
/// `tests/golden.txt`: `name digest`, where the digest (16 hex digits)
/// folds the event digests of the scenario's `hubs` with the `Debug`
/// text of the `report` it returns. Panics with the line as it now reads
/// when it differs or is missing, so a meant move is one pasted line.
pub fn golden(name: &str, hubs: &[u64], report: &impl std::fmt::Debug) {
    const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden.txt");
    let digest = hubs
        .iter()
        .fold(Digest::new(), |d, &h| d.word(h))
        .bytes(format!("{report:?}").as_bytes())
        .value();
    let want = format!("{name} {digest:016x}");
    let text = std::fs::read_to_string(FILE).unwrap_or_else(|e| panic!("{FILE}: {e}"));
    let have = text
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or("(no line)");
    assert_eq!(
        have, want,
        "tests/golden.txt: `{name}` moved; if the move is meant, the line now reads\n{want}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_changed_word_always_moves_the_fold() {
        let base = [1u64, 2, 3, 4];
        let d = |ws: &[u64]| ws.iter().fold(Digest::new(), |d, &w| d.word(w)).value();
        for i in 0..base.len() {
            let mut ws = base;
            ws[i] ^= 1 << (i * 7);
            assert_ne!(d(&ws), d(&base), "word {i}");
        }
    }

    #[test]
    fn bytes_fold_their_length() {
        let d = Digest::new();
        assert_ne!(d.bytes(b"ab"), d.bytes(b"ab\0"));
        assert_eq!(d.bytes(b"gc"), d.bytes(b"gc"));
        assert_eq!(Digest::resume(d.word(9).value()), d.word(9));
    }
}
