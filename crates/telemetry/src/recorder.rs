//! The bounded flight recorder (DESIGN.md §11).
//!
//! A fixed-capacity ring of the most recent [`Event`]s per datapath /
//! host / link. Recording is cheap (one `RefCell` borrow, no allocation beyond
//! the pre-sized ring) and the ring never grows: under event pressure the
//! *oldest* events are overwritten, never the newest, and sequence
//! numbers keep the overwrite auditable. The ring holds each event in a
//! 32-byte slot without its sequence number, which the slot's position
//! implies; [`FlightRecorder::events`] rebuilds it. Because every producer in the
//! workspace is driven by the deterministic simulator, the ring's
//! contents — and therefore [`FlightRecorder::dump_jsonl`] — are
//! byte-identical across same-seed runs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;

use crate::digest::Digest;
use crate::event::{Event, EventKind, Slot};

/// Default ring capacity used by datapaths and fault taps. Big enough to
/// hold every event a typical chaos scenario produces; small enough that
/// a recorder is a fixed 128 KiB worst case (4 096 slots of 32 bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

struct Ring {
    /// The newest events, oldest first: `buf[i]` is event
    /// `next_seq - buf.len() + i`.
    buf: VecDeque<Slot>,
    next_seq: u64,
    overwritten: u64,
    /// Every event ever recorded, folded in order.
    digest: Digest,
}

/// A bounded, seed-replayable ring of recent events.
pub struct FlightRecorder {
    capacity: usize,
    inner: RefCell<Ring>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            inner: RefCell::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                overwritten: 0,
                digest: Digest::new(),
            }),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event, assigning it the next sequence number and
    /// folding it into the digest. If the ring is full the oldest event
    /// is overwritten.
    pub fn record(&self, at: Nanos, flow: FlowKey, kind: EventKind) {
        let mut r = self.inner.borrow_mut();
        let event = Event {
            seq: r.next_seq,
            at,
            flow,
            kind,
        };
        r.next_seq += 1;
        r.digest = event.fold(r.digest);
        if r.buf.len() == self.capacity {
            r.buf.pop_front();
            r.overwritten += 1;
        }
        r.buf.push_back(Slot::new(at, flow, kind));
    }

    /// The digest of every event recorded so far, overwritten ones
    /// included: `(seq, at, flow, kind)` folded in order. Not part of
    /// any snapshot or checkpoint document.
    pub fn digest(&self) -> u64 {
        self.inner.borrow().digest.value()
    }

    /// Continue the digest from `digest`, another recorder's: what a
    /// fresh recorder that takes over from a replaced one carries over.
    pub fn resume_digest(&self, digest: u64) {
        self.inner.borrow_mut().digest = Digest::resume(digest);
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// True when nothing has been recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.inner.borrow().next_seq
    }

    /// Events lost to ring wraparound so far.
    pub fn overwritten(&self) -> u64 {
        self.inner.borrow().overwritten
    }

    /// Restore checkpointed ring bookkeeping (DESIGN.md §14): the next
    /// event recorded carries sequence number `next_seq`, and the
    /// overwrite tally resumes from `overwritten` — so a restored
    /// recorder's subsequent event stream is sequence-identical to the
    /// uninterrupted run's. The buffered events themselves are *not*
    /// restored (the ring is cleared): ring content is a diagnostic
    /// window, and checkpointed events would carry dangling payloads.
    pub fn restore_counters(&self, next_seq: u64, overwritten: u64) {
        let mut r = self.inner.borrow_mut();
        r.buf.clear();
        r.next_seq = next_seq;
        r.overwritten = overwritten;
    }

    /// Snapshot of the ring, oldest event first.
    pub fn events(&self) -> Vec<Event> {
        let r = self.inner.borrow();
        let first = r.next_seq - r.buf.len() as u64;
        (first..).zip(&r.buf).map(|(seq, s)| s.event(seq)).collect()
    }

    /// The whole ring as JSON Lines (one event object per line, oldest
    /// first, trailing newline after every line).
    pub fn dump_jsonl(&self) -> String {
        self.events().iter().map(|e| e.to_jsonl() + "\n").collect()
    }

    /// Write [`FlightRecorder::dump_jsonl`] to `path`, creating parent
    /// directories as needed.
    pub fn dump_to_file(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.dump_jsonl().as_bytes())
    }
}

/// Directory failing tests dump flight-recorder traces into, relative to
/// the working directory of the test process: `target/acdc-traces/`
/// (under `$CARGO_TARGET_DIR` when set). The dumps are plain JSONL, one
/// event object per line.
pub fn trace_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Path::new(&target).join("acdc-traces")
}

/// Dump-on-failure guard: holds named telemetry hubs for the duration of
/// a test and, if the thread unwinds (assertion failure), writes each
/// hub's recorder to `target/acdc-traces/<test>.<label>.jsonl` so the
/// failing run's event history survives the test.
pub struct TraceGuard {
    test: &'static str,
    hubs: Vec<(&'static str, Rc<crate::Telemetry>)>,
}

impl TraceGuard {
    /// A guard for the named test with no recorders attached yet.
    pub fn new(test: &'static str) -> TraceGuard {
        TraceGuard {
            test,
            hubs: Vec::new(),
        }
    }

    /// Attach a telemetry hub under `label`; returns `self` for chaining.
    pub fn watch(mut self, label: &'static str, hub: Rc<crate::Telemetry>) -> TraceGuard {
        self.hubs.push((label, hub));
        self
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let dir = trace_dir();
        for (label, hub) in &self.hubs {
            let path = dir.join(format!("{}.{}.jsonl", self.test, label));
            if hub.recorder().dump_to_file(&path).is_ok() {
                eprintln!("flight recorder dumped to {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_FLOW;

    fn ev(rec: &FlightRecorder, at: Nanos) {
        rec.record(at, NO_FLOW, EventKind::FlowCreated);
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let rec = FlightRecorder::new(3);
        for at in 0..5 {
            ev(&rec, at);
        }
        let got = rec.events();
        assert_eq!(got.len(), 3);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "wraparound must drop the oldest, keep the newest"
        );
        assert_eq!(rec.total_recorded(), 5);
        assert_eq!(rec.overwritten(), 2);
    }

    #[test]
    fn dump_is_one_line_per_event() {
        let rec = FlightRecorder::new(8);
        ev(&rec, 1);
        ev(&rec, 2);
        let dump = rec.dump_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn the_digest_sees_what_the_ring_overwrote() {
        let (a, b) = (FlightRecorder::new(2), FlightRecorder::new(2));
        a.record(1, NO_FLOW, EventKind::FlowCreated);
        b.record(1, NO_FLOW, EventKind::AdmissionRejected);
        for rec in [&a, &b] {
            ev(rec, 2);
            ev(rec, 3);
        }
        assert_eq!(
            a.dump_jsonl(),
            b.dump_jsonl(),
            "the ring forgot the difference"
        );
        assert_ne!(a.digest(), b.digest(), "the digest did not");
        b.resume_digest(a.digest());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let rec = FlightRecorder::new(0);
        ev(&rec, 1);
        assert_eq!(rec.len(), 1);
    }
}
