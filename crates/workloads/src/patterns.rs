//! Traffic-pattern schedules for the macrobenchmarks (§5.2): who sends
//! to whom, and when. Pure data — the `repro` experiments in
//! `acdc-bench` turn these into connections and apps on an
//! `acdc_core::Testbed`.

use rand::seq::SliceRandom;
use rand::Rng;

use acdc_stats::time::Nanos;

/// One planned long-lived transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sender host index.
    pub src: usize,
    /// Receiver host index.
    pub dst: usize,
    /// Start time.
    pub start: Nanos,
}

/// Concurrent stride (Figure 21): each of `n` servers sends `bytes` to
/// servers `i+1..=i+width (mod n)` sequentially. Returns per-source
/// ordered destination lists.
pub fn stride_background(n: usize, width: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| (1..=width).map(|k| (i + k) % n).collect())
        .collect()
}

/// The stride/shuffle mice overlay: server `i` messages server
/// `(i + n/2) mod n` (the paper uses `(i+8) mod 17`).
pub fn mice_peer(i: usize, n: usize) -> usize {
    (i + n / 2) % n
}

/// Shuffle (Figure 22): every server sends `bytes` to every other server
/// in random order. Returns per-source randomized destination orders;
/// the harness runs at most `concurrency` (2 in the paper) at a time.
pub fn shuffle_orders<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            let mut dsts: Vec<usize> = (0..n).filter(|&d| d != i).collect();
            dsts.shuffle(rng);
            dsts
        })
        .collect()
}

/// The all-ports-congested workload of Figure 20: 46 NICs in group A each
/// send 4 intra-group flows (`NIC i → [i+1, i+4] mod 46`) plus one flow
/// to B1, congesting 47 of 48 ports; B2→B1 carries the RTT probe.
pub fn all_ports(group_a: usize) -> Vec<Transfer> {
    let mut out = Vec::new();
    for i in 0..group_a {
        for k in 1..=4 {
            out.push(Transfer {
                src: i,
                dst: (i + k) % group_a,
                start: 0,
            });
        }
        // Everyone also blasts B1 (index group_a).
        out.push(Transfer {
            src: i,
            dst: group_a,
            start: 0,
        });
    }
    out
}

/// Convergence test (Figure 14): `n` flows on one bottleneck; flow `i`
/// starts at `i · step` and stops at `(2n − 1 − i) · step` (flows are
/// added one by one, then removed in reverse order).
pub fn convergence_schedule(n: usize, step: Nanos) -> Vec<(Nanos, Nanos)> {
    (0..n)
        .map(|i| {
            let start = i as u64 * step;
            let stop = (2 * n - 1 - i) as u64 * step;
            (start, stop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stride_wraps_mod_n() {
        let s = stride_background(17, 4);
        assert_eq!(s.len(), 17);
        assert_eq!(s[16], vec![0, 1, 2, 3]);
        assert_eq!(s[0], vec![1, 2, 3, 4]);
    }

    #[test]
    fn mice_peer_matches_paper() {
        // 17 servers: i → (i+8) mod 17.
        assert_eq!(mice_peer(0, 17), 8);
        assert_eq!(mice_peer(16, 17), 7);
    }

    #[test]
    fn shuffle_orders_cover_everyone_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let orders = shuffle_orders(17, &mut rng);
        for (i, order) in orders.iter().enumerate() {
            assert_eq!(order.len(), 16);
            assert!(!order.contains(&i));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..17).filter(|&d| d != i).collect();
            assert_eq!(sorted, expect);
        }
    }

    #[test]
    fn all_ports_congests_47_of_48() {
        let t = all_ports(46);
        assert_eq!(t.len(), 46 * 5);
        // Every group-A NIC receives 4 flows; B1 receives 46.
        let mut rx = vec![0usize; 48];
        for x in &t {
            rx[x.dst] += 1;
        }
        assert_eq!(rx[46], 46, "B1 incast");
        assert_eq!(rx[47], 0, "B2 idle (probe only)");
        assert!(rx[..46].iter().all(|&c| c == 4));
    }

    #[test]
    fn convergence_is_nested() {
        let sched = convergence_schedule(5, 30);
        assert_eq!(sched[0], (0, 270));
        assert_eq!(sched[4], (120, 150));
        // Flow i's lifetime strictly contains flow i+1's.
        for w in sched.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 > w[1].1);
        }
    }
}
