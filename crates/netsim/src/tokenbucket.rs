//! A token-bucket rate limiter.
//!
//! Used for the motivation experiment of Figure 2: even with every flow
//! rate-limited to a "perfect" 2 Gbps share, CUBIC still fills the switch
//! buffer — bandwidth allocation alone cannot bound latency. Hosts insert
//! this limiter on their egress path; it answers either "send now" or "not
//! before T", which the host turns into a timer.

use acdc_stats::time::{Nanos, SECOND};

/// A classic token bucket: `rate_bps` sustained, `burst_bytes` depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: u64,
    /// Token level in *bits*, to avoid rounding loss at high rates.
    tokens_bits: u64,
    /// Sub-bit refill credit, in units of `dt × rate_bps` (so one whole
    /// bit equals `SECOND`). Refills observed at sub-bit-period spacing
    /// would otherwise round to zero while still advancing
    /// `last_refill`, silently discarding the elapsed time; a caller
    /// polling faster than the bit period could then starve the bucket
    /// forever.
    frac: u64,
    last_refill: Nanos,
}

impl TokenBucket {
    /// Create a bucket, full, observed first at time `now`.
    pub fn new(rate_bps: u64, burst_bytes: u64, now: Nanos) -> TokenBucket {
        assert!(rate_bps > 0, "rate must be positive");
        assert!(burst_bytes > 0, "burst must be positive");
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens_bits: burst_bytes * 8,
            frac: 0,
            last_refill: now,
        }
    }

    /// The configured rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Token level `(tokens_bits, frac)` the bucket would hold if refilled
    /// at `now`.
    fn level_at(&self, now: Nanos) -> (u64, u64) {
        if now <= self.last_refill {
            return (self.tokens_bits, self.frac);
        }
        let dt = now - self.last_refill;
        let credit = u128::from(dt) * u128::from(self.rate_bps) + u128::from(self.frac);
        let add = (credit / u128::from(SECOND)) as u64;
        let cap = self.burst_bytes * 8;
        if self.tokens_bits + add >= cap {
            // Full bucket: surplus credit does not carry over (that
            // would grow the effective burst).
            (cap, 0)
        } else {
            (self.tokens_bits + add, (credit % u128::from(SECOND)) as u64)
        }
    }

    fn refill(&mut self, now: Nanos) {
        if now > self.last_refill {
            (self.tokens_bits, self.frac) = self.level_at(now);
            self.last_refill = now;
        }
    }

    /// What [`TokenBucket::try_consume`] would answer for `bytes` at
    /// `now`, without refilling or consuming: `Ok` if the tokens are
    /// there, else the earliest time at which they will be.
    pub fn peek(&self, bytes: usize, now: Nanos) -> Result<(), Nanos> {
        let (tokens_bits, frac) = self.level_at(now);
        let need = bytes as u64 * 8;
        if tokens_bits >= need {
            Ok(())
        } else {
            let deficit = need - tokens_bits;
            // Time to accrue `deficit` whole bits, net of banked credit.
            let short = u128::from(deficit) * u128::from(SECOND) - u128::from(frac);
            let wait = short.div_ceil(u128::from(self.rate_bps)) as Nanos;
            Err(now + wait)
        }
    }

    /// Try to send `bytes` at `now`. On success the tokens are consumed;
    /// on failure, returns the earliest time at which the bucket will hold
    /// enough tokens.
    pub fn try_consume(&mut self, bytes: usize, now: Nanos) -> Result<(), Nanos> {
        self.refill(now);
        let verdict = self.peek(bytes, now);
        if verdict.is_ok() {
            self.tokens_bits -= bytes as u64 * 8;
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::MILLISECOND;

    #[test]
    fn full_bucket_allows_burst() {
        let mut tb = TokenBucket::new(1_000_000_000, 10_000, 0);
        for _ in 0..10 {
            assert!(tb.try_consume(1_000, 0).is_ok());
        }
        assert!(tb.try_consume(1, 0).is_err());
    }

    #[test]
    fn refills_at_rate() {
        // 8 Mbps = 1 byte/µs.
        let mut tb = TokenBucket::new(8_000_000, 1_000, 0);
        assert!(tb.try_consume(1_000, 0).is_ok());
        // After 500 µs, 500 bytes available.
        assert!(tb.try_consume(500, 500_000).is_ok());
        assert!(tb.try_consume(1, 500_000).is_err());
    }

    #[test]
    fn wait_hint_is_exact() {
        let mut tb = TokenBucket::new(8_000_000, 1_000, 0);
        tb.try_consume(1_000, 0).unwrap();
        let at = tb.try_consume(100, 0).unwrap_err();
        // 100 bytes at 1 byte/µs → 100 µs.
        assert_eq!(at, 100_000);
        assert!(tb.try_consume(100, at).is_ok());
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut tb = TokenBucket::new(10_000_000_000, 5_000, 0);
        assert!(tb.try_consume(5_000, 10 * MILLISECOND).is_ok());
        assert!(tb.try_consume(1, 10 * MILLISECOND).is_err());
    }

    #[test]
    fn sub_bit_period_polls_do_not_starve_refill() {
        // 50 Mbps accrues 1 bit per 20 ns. A caller polling every 3 ns
        // used to truncate each refill to zero bits while advancing the
        // refill clock — discarding all elapsed time and starving the
        // bucket into a timer livelock. Banked fractional credit must
        // keep the original release-time hint exact regardless of how
        // often the bucket is observed in between.
        let mut tb = TokenBucket::new(50_000_000, 30_000, 0);
        while tb.try_consume(1_500, 0).is_ok() {}
        let at = tb.try_consume(1_500, 0).unwrap_err();
        let mut now = 0;
        while now + 3 < at {
            now += 3;
            assert!(tb.try_consume(1_500, now).is_err(), "released early");
        }
        assert!(
            tb.try_consume(1_500, at).is_ok(),
            "bucket starved by sub-bit-period polling"
        );
    }

    #[test]
    fn peek_answers_like_try_consume_and_writes_nothing() {
        // Steps of 1, 3 and 7 ns are below the bit period of every rate
        // but the last, so the sub-bit `frac` credit is in play.
        for rate in [50_000_000u64, 999_999_937, 2_000_000_000, 10_000_000_000] {
            for burst in [1_500u64, 9_000, 32_000] {
                let mut tb = TokenBucket::new(rate, burst, 0);
                let mut now = 0;
                for (i, step) in [1u64, 3, 7, 20, 1_000, 250_000].iter().cycle().enumerate() {
                    if i == 600 {
                        break;
                    }
                    now += step;
                    for bytes in [1usize, 64, 1_500, 9_000, 40_000] {
                        let before = tb.clone();
                        let peeked = tb.peek(bytes, now);
                        assert_eq!(tb, before, "peek wrote to the bucket");
                        assert_eq!(
                            peeked,
                            tb.clone().try_consume(bytes, now),
                            "rate {rate} burst {burst} bytes {bytes} now {now}"
                        );
                    }
                    // Drain so that both verdicts keep occurring.
                    let _ = tb.try_consume(1_500, now);
                }
            }
        }
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // Send as fast as allowed for 10 ms at 2 Gbps; total should be
        // ~2.5 MB + burst.
        let rate = 2_000_000_000u64;
        let mut tb = TokenBucket::new(rate, 9_000, 0);
        let mut now = 0;
        let mut sent = 0u64;
        while now < 10 * MILLISECOND {
            match tb.try_consume(1_500, now) {
                Ok(()) => sent += 1_500,
                Err(at) => now = at,
            }
        }
        let expected = rate / 8 / 100; // bytes in 10 ms
        assert!(
            sent >= expected && sent <= expected + 20_000,
            "sent={sent} expected≈{expected}"
        );
    }
}
