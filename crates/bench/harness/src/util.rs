//! Small shared pieces: the seeded generator every workload derives its
//! inputs from, order statistics, and the FNV-1a fold behind fingerprints.

/// SplitMix64: the harness's only source of randomness. Workloads never
/// hand it to the library — they generate inputs (start times, visit
/// orders, which packets carry marks) and pass those in.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A stateless draw for item `x` under `seed`: which packets carry marks,
/// when a flow starts, which flows skip their handshake. The seed is
/// hashed first, so that neighbouring seeds do not merely permute the
/// draws of neighbouring items.
pub fn draw(seed: u64, x: u64) -> u64 {
    mix64(mix64(seed) ^ x)
}

/// The SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A reported figure with its quartiles. `value` is the sample's median
/// unless the producer says otherwise; quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the spreads
/// printed here are the ones the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub value: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    let at = |i: i64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // CPython's exclusive method, integer positions and all.
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    Quartiles {
        q1: at(1),
        value: at(2),
        q3: at(3),
        n,
    }
}
