//! The trace-driven message generator of Figure 23.
//!
//! "An application on each server builds a long-lived TCP connection with
//! every other server. Message sizes are sampled from a trace and sent to
//! a random destination in sequential fashion. Five concurrent
//! applications on each server are run to increase network load."
//!
//! One [`TraceSender`] is one such application: it owns a set of the
//! host's connections (one per peer), repeatedly samples a size, picks a
//! random peer, sends, and waits for the message to be acknowledged
//! before sending the next.

use acdc_stats::time::Nanos;
use acdc_workloads::{FctKind, FctRecorder, FlowSizeDist};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::host::{MultiApp, MultiConnAccess};

/// Sequential random-destination message generator over a connection set.
pub struct TraceSender {
    /// Indices (into the host's connection list) this app may use.
    conns: Vec<usize>,
    dist: FlowSizeDist,
    rng: StdRng,
    /// Outstanding message: (conn index, target acked offset, size, start).
    outstanding: Option<(usize, u64, u64, Nanos)>,
    fct: FctRecorder,
    /// Stop issuing new messages after this time (drain from then on).
    stop_at: Nanos,
}

impl TraceSender {
    /// A generator over `conns`, sampling `dist`, seeded deterministically.
    pub fn new(conns: Vec<usize>, dist: FlowSizeDist, seed: u64, stop_at: Nanos) -> TraceSender {
        assert!(!conns.is_empty());
        TraceSender {
            conns,
            dist,
            rng: StdRng::seed_from_u64(seed),
            outstanding: None,
            fct: FctRecorder::new(),
            stop_at,
        }
    }

    /// Completed messages.
    pub fn recorder(&self) -> &FctRecorder {
        &self.fct
    }
}

impl MultiApp for TraceSender {
    fn poll(&mut self, now: Nanos, conns: &mut dyn MultiConnAccess) -> Option<Nanos> {
        // Completion check.
        if let Some((idx, target, size, start)) = self.outstanding {
            if conns.acked(idx) >= target {
                let kind = if size < 10_000 {
                    FctKind::Mice
                } else {
                    FctKind::Background
                };
                self.fct
                    .record_flow(kind, start, now, size, conns.flow(idx));
                self.outstanding = None;
            }
        }
        // Issue the next message.
        if self.outstanding.is_none() && now < self.stop_at {
            // Pick a random established connection: count them, draw k,
            // take the k-th (no per-issue list).
            let established = |&&c: &&usize| conns.established(c);
            let n = self.conns.iter().filter(established).count();
            if n == 0 {
                return None; // re-polled when connections come up
            }
            let k = self.rng.random_range(0..n);
            let pick = *self
                .conns
                .iter()
                .filter(established)
                .nth(k)
                .expect("k < established count");
            let size = self.dist.sample(&mut self.rng);
            conns.send(pick, size);
            self.outstanding = Some((pick, conns.queued(pick), size, now));
        }
        None // fully event-driven: progress on any conn re-polls us
    }

    fn fct(&self) -> Option<&FctRecorder> {
        Some(&self.fct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal fake host connection set.
    struct Fake {
        established: Vec<bool>,
        queued: Vec<u64>,
        acked: Vec<u64>,
    }

    impl MultiConnAccess for Fake {
        fn count(&self) -> usize {
            self.established.len()
        }
        fn send(&mut self, idx: usize, bytes: u64) {
            self.queued[idx] += bytes;
        }
        fn acked(&self, idx: usize) -> u64 {
            self.acked[idx]
        }
        fn queued(&self, idx: usize) -> u64 {
            self.queued[idx]
        }
        fn established(&self, idx: usize) -> bool {
            self.established[idx]
        }
    }

    #[test]
    fn waits_for_establishment() {
        let mut app = TraceSender::new(vec![0, 1], FlowSizeDist::web_search(), 1, u64::MAX);
        let mut fake = Fake {
            established: vec![false, false],
            queued: vec![0, 0],
            acked: vec![0, 0],
        };
        app.poll(0, &mut fake);
        assert_eq!(fake.queued, vec![0, 0]);
        fake.established = vec![true, true];
        app.poll(1, &mut fake);
        assert_eq!(fake.queued.iter().filter(|&&q| q > 0).count(), 1);
    }

    /// Count-then-select must pick what collecting the established
    /// connections into a list and indexing it picked, from the same two
    /// RNG draws in the same order (simulation outputs hang on both).
    #[test]
    fn selection_replays_the_collecting_version() {
        const N: usize = 16;
        // Not the identity, so position in `conns` ≠ connection index.
        let conns: Vec<usize> = (0..N).map(|i| (i * 5) % N).collect();
        let dist = FlowSizeDist::web_search();
        let mut app = TraceSender::new(conns.clone(), dist.clone(), 9, u64::MAX);
        let mut rng = StdRng::seed_from_u64(9);
        let mut fake = Fake {
            established: vec![false; N],
            queued: vec![0; N],
            acked: vec![0; N],
        };
        let mut issued = 0;
        for t in 0..1_000u64 {
            for (i, e) in fake.established.iter_mut().enumerate() {
                *e = t % 50 != 49 && !(t + i as u64).is_multiple_of(3);
            }
            app.poll(t, &mut fake);
            let established: Vec<usize> = conns
                .iter()
                .copied()
                .filter(|&c| fake.established[c])
                .collect();
            if established.is_empty() {
                assert!(app.outstanding.is_none(), "nothing to issue on at t={t}");
                continue;
            }
            let pick = established[rng.random_range(0..established.len())];
            let size = dist.sample(&mut rng);
            let (idx, _, got, _) = app.outstanding.expect("a message is issued");
            assert_eq!((idx, got), (pick, size), "t={t}");
            // Acknowledge it so that the next poll issues again.
            fake.acked[pick] = fake.queued[pick];
            issued += 1;
        }
        assert_eq!(issued, 980);
    }

    #[test]
    fn sequential_messages_and_fct() {
        let mut app = TraceSender::new(vec![0], FlowSizeDist::data_mining(), 2, u64::MAX);
        let mut fake = Fake {
            established: vec![true],
            queued: vec![0],
            acked: vec![0],
        };
        app.poll(0, &mut fake);
        let q1 = fake.queued[0];
        assert!(q1 > 0);
        // No new message until the first is acked.
        app.poll(10, &mut fake);
        assert_eq!(fake.queued[0], q1);
        fake.acked[0] = q1;
        app.poll(20, &mut fake);
        assert_eq!(app.recorder().len(), 1);
        assert!(fake.queued[0] > q1, "next message issued");
    }

    #[test]
    fn stops_issuing_after_deadline() {
        let mut app = TraceSender::new(vec![0], FlowSizeDist::web_search(), 3, 100);
        let mut fake = Fake {
            established: vec![true],
            queued: vec![0],
            acked: vec![0],
        };
        app.poll(0, &mut fake);
        let q = fake.queued[0];
        fake.acked[0] = q;
        app.poll(200, &mut fake);
        assert_eq!(fake.queued[0], q, "no new messages after stop_at");
        assert_eq!(app.recorder().len(), 1);
    }

    #[test]
    fn mice_classified_by_size() {
        let mut app = TraceSender::new(vec![0], FlowSizeDist::data_mining(), 4, u64::MAX);
        let mut fake = Fake {
            established: vec![true],
            queued: vec![0],
            acked: vec![0],
        };
        for t in 0..200u64 {
            app.poll(t * 2, &mut fake);
            fake.acked[0] = fake.queued[0];
            app.poll(t * 2 + 1, &mut fake);
        }
        let mice = app
            .recorder()
            .samples()
            .iter()
            .filter(|s| s.kind == FctKind::Mice)
            .count();
        // Data-mining: ~80% of flows are < 10 KB.
        assert!(mice > 100, "mice={mice}");
    }
}
