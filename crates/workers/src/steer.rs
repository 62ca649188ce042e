//! RSS-style steering: flow key → worker index.
//!
//! Hardware RSS hashes the 5-tuple and masks the result into a queue
//! index; every packet of a flow lands on the same queue/core. The
//! software equivalent here is *symmetric* RSS: the key is reduced to
//! its connection ([`FlowKey::canonical`]) before hashing, so data
//! packets and the ACKs flowing back both steer to the same worker. That
//! matters because the flow table keeps both directions of a connection
//! in one record under that same key, and a packet of either direction
//! writes both (an ACK updates the data direction's congestion state):
//! symmetric steering gives every record exactly one writing worker.
//!
//! The hash is [`FlowKey::hash64`] of the connection key (FNV-1a, the
//! same in every process, as steering must be to replay) run through a
//! finalizer before the modulo. FNV-1a needs that here:
//! its low output bit is exactly the XOR of the input bytes' low bits
//! (the final multiply is by an odd constant), so key populations with
//! mirrored byte patterns — e.g. benchmark flows numbered into both the
//! src and dst address — collapse `hash64 % 2` to a constant.

use acdc_packet::{mix64, FlowKey};

/// The worker (0-based, `< workers`) that `key`'s packets steer to.
/// Direction-independent (`worker_of(k) == worker_of(k.reverse())`) and
/// stable for the lifetime of the process and across runs: the hash is
/// seedless FNV-1a over the connection's key bytes
/// ([`FlowKey::canonical`]), finalized.
///
/// `workers` must be non-zero.
#[inline]
pub fn worker_of(key: &FlowKey, workers: usize) -> usize {
    debug_assert!(workers > 0, "worker_of with zero workers");
    (mix64(key.canonical().hash64()) % workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u8, p: u16) -> FlowKey {
        FlowKey {
            src_ip: [10, 0, 0, a],
            dst_ip: [10, 0, 1, a],
            src_port: p,
            dst_port: 80,
        }
    }

    #[test]
    fn steering_is_stable_and_in_range() {
        for n in 1..=8usize {
            for p in 0..500u16 {
                let k = key(1, p);
                let w = worker_of(&k, n);
                assert!(w < n);
                assert_eq!(w, worker_of(&k, n), "same flow ⇒ same worker");
            }
        }
    }

    #[test]
    fn both_directions_steer_to_the_same_worker() {
        for n in 1..=8usize {
            for p in 0..500u16 {
                let k = key(2, p);
                assert_eq!(
                    worker_of(&k, n),
                    worker_of(&k.reverse(), n),
                    "data and ACK directions must share a worker"
                );
            }
        }
    }

    #[test]
    fn steering_is_pinned() {
        // Which worker a connection steers to decides which thread runs
        // its packets in a batch, so these values hold every recorded
        // placement in place: a change to the connection key or the hash
        // must fail here first.
        let own = FlowKey {
            src_ip: [10, 0, 0, 9],
            dst_ip: [10, 0, 0, 9],
            src_port: 5_001,
            dst_port: 5_001,
        };
        let keys = [
            key(1, 0),
            key(1, 80),
            key(7, 40_000),
            key(7, 40_000).reverse(),
            own,
            key(200, 65_535),
            key(200, 65_535).reverse(),
            key(3, 1),
        ];
        let workers: Vec<[usize; 3]> = keys
            .iter()
            .map(|k| [2, 3, 8].map(|n| worker_of(k, n)))
            .collect();
        assert_eq!(
            workers,
            [
                [1, 2, 7],
                [0, 0, 0],
                [1, 1, 7],
                [1, 1, 7],
                [1, 0, 7],
                [1, 2, 3],
                [1, 2, 3],
                [0, 2, 0]
            ]
        );
    }

    #[test]
    fn all_workers_reachable_over_a_flow_population() {
        for n in 2..=6usize {
            let mut hit = vec![false; n];
            for p in 0..2000u16 {
                hit[worker_of(&key(3, p), n)] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "n={n}: some worker never steered to"
            );
        }
    }

    #[test]
    fn mirrored_key_population_spreads() {
        // The `repro fig11` / `fig12` flow shape: flow i numbered into
        // *both* addresses, fixed ports. Raw FNV-1a has a constant low bit
        // over this population (mirrored bytes cancel in the XOR), which
        // starved every even worker count before the finalizer.
        let keys: Vec<FlowKey> = (0..4096usize)
            .map(|i| FlowKey {
                src_ip: [10, 1, (i >> 8) as u8, i as u8],
                dst_ip: [10, 2, (i >> 8) as u8, i as u8],
                src_port: 40_000,
                dst_port: 5_001,
            })
            .collect();
        for n in [2usize, 4, 8] {
            let mut counts = vec![0usize; n];
            for k in &keys {
                counts[worker_of(k, n)] += 1;
            }
            let fair = keys.len() / n;
            for (w, &c) in counts.iter().enumerate() {
                assert!(
                    c > fair / 2 && c < fair * 2,
                    "n={n}: worker {w} got {c} of {} flows (fair share {fair})",
                    keys.len()
                );
            }
        }
    }
}
