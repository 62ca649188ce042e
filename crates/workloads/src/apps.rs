//! Per-connection applications.
//!
//! An [`App`] owns one side of one connection and is polled by its host:
//! once when the connection establishes, after every transport progress
//! event (ACKs arriving, data delivered), and at the wake-up times it
//! requests. Apps talk to the endpoint through [`AppConn`], a narrow
//! interface implemented by [`acdc_tcp::Endpoint`].

use std::collections::VecDeque;

use acdc_packet::FlowKey;
use acdc_stats::time::{Nanos, MILLISECOND};

use crate::fct::{FctKind, FctRecorder};

/// The slice of a transport endpoint an application may touch.
pub trait AppConn {
    /// Enqueue bytes for transmission.
    fn send(&mut self, bytes: u64);
    /// Close the sending direction.
    fn close(&mut self);
    /// Stream bytes acknowledged by the peer so far.
    fn acked_bytes(&self) -> u64;
    /// Stream bytes handed to the transport so far.
    fn queued_bytes(&self) -> u64;
    /// In-order stream bytes received so far.
    fn delivered_bytes(&self) -> u64;
    /// Can data flow yet?
    fn is_established(&self) -> bool;
    /// The wire 5-tuple of the egress direction, if the transport has one
    /// (FCT samples are attributed to it).
    fn flow_key(&self) -> Option<FlowKey> {
        None
    }
}

impl AppConn for acdc_tcp::Endpoint {
    fn send(&mut self, bytes: u64) {
        acdc_tcp::Endpoint::send(self, bytes);
    }
    fn close(&mut self) {
        acdc_tcp::Endpoint::close(self);
    }
    fn acked_bytes(&self) -> u64 {
        acdc_tcp::Endpoint::acked_bytes(self)
    }
    fn queued_bytes(&self) -> u64 {
        acdc_tcp::Endpoint::queued_bytes(self)
    }
    fn delivered_bytes(&self) -> u64 {
        acdc_tcp::Endpoint::delivered_bytes(self)
    }
    fn is_established(&self) -> bool {
        acdc_tcp::Endpoint::is_established(self)
    }
    fn flow_key(&self) -> Option<FlowKey> {
        Some(acdc_tcp::Endpoint::flow_key(self))
    }
}

/// A traffic application bound to one connection.
pub trait App: Send {
    /// React to transport progress and the clock; return the next absolute
    /// time this app wants to be polled (None = event-driven only).
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos>;

    /// Has the app finished its work?
    fn is_done(&self) -> bool {
        false
    }

    /// Completed-flow records, if this app measures FCTs.
    fn fct(&self) -> Option<&FctRecorder> {
        None
    }

    /// RTT samples in milliseconds, if this app measures RTTs.
    fn rtt_samples_ms(&self) -> Option<&[f64]> {
        None
    }
}

// ----------------------------------------------------------------------
// Bulk sender (iperf)
// ----------------------------------------------------------------------

/// Sends a fixed number of bytes (or runs forever) as fast as the
/// transport allows; records the FCT of bounded transfers.
#[derive(Debug)]
pub struct BulkSender {
    total: Option<u64>,
    kind: FctKind,
    started: Option<Nanos>,
    done: bool,
    fct: FctRecorder,
}

impl BulkSender {
    /// A bounded transfer of `bytes`.
    pub fn new(bytes: u64, kind: FctKind) -> BulkSender {
        BulkSender {
            total: Some(bytes),
            kind,
            started: None,
            done: false,
            fct: FctRecorder::new(),
        }
    }

    /// An unbounded (long-lived) flow.
    pub fn unlimited() -> BulkSender {
        BulkSender {
            total: None,
            kind: FctKind::Background,
            started: None,
            done: false,
            fct: FctRecorder::new(),
        }
    }
}

/// Bytes enqueued for "unlimited" flows (never drains in any experiment).
const FOREVER_BYTES: u64 = 1 << 44;

impl App for BulkSender {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if self.done || !conn.is_established() {
            return None;
        }
        if self.started.is_none() {
            self.started = Some(now);
            conn.send(self.total.unwrap_or(FOREVER_BYTES));
        }
        if let Some(total) = self.total {
            if conn.acked_bytes() >= total {
                self.fct.record_flow(
                    self.kind,
                    self.started.unwrap(),
                    now,
                    total,
                    conn.flow_key(),
                );
                self.done = true;
            }
        }
        None
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn fct(&self) -> Option<&FctRecorder> {
        Some(&self.fct)
    }
}

// ----------------------------------------------------------------------
// Periodic message sender (the 16 KB / 100 ms mice generator)
// ----------------------------------------------------------------------

/// Sends a `msg_bytes` message every `period`, measuring each message's
/// FCT from its scheduled send time to the ACK of its last byte.
#[derive(Debug)]
pub struct MessageSender {
    msg_bytes: u64,
    period: Nanos,
    limit: Option<u64>,
    sent: u64,
    next_send: Option<Nanos>,
    /// Outstanding messages: (stream offset of last byte, start time).
    pending: VecDeque<(u64, Nanos)>,
    kind: FctKind,
    fct: FctRecorder,
}

impl MessageSender {
    /// `msg_bytes` every `period`, forever (or up to `limit` messages).
    pub fn new(msg_bytes: u64, period: Nanos, limit: Option<u64>, kind: FctKind) -> MessageSender {
        assert!(msg_bytes > 0 && period > 0);
        MessageSender {
            msg_bytes,
            period,
            limit,
            sent: 0,
            next_send: None,
            pending: VecDeque::new(),
            kind,
            fct: FctRecorder::new(),
        }
    }
}

impl App for MessageSender {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if !conn.is_established() {
            return None;
        }
        let next = *self.next_send.get_or_insert(now);
        let mut next = next;
        while now >= next && self.limit.is_none_or(|l| self.sent < l) {
            conn.send(self.msg_bytes);
            self.pending.push_back((conn.queued_bytes(), next));
            self.sent += 1;
            next += self.period;
        }
        self.next_send = Some(next);

        // Completions.
        let acked = conn.acked_bytes();
        while let Some(&(end, start)) = self.pending.front() {
            if acked >= end {
                self.fct
                    .record_flow(self.kind, start, now, self.msg_bytes, conn.flow_key());
                self.pending.pop_front();
            } else {
                break;
            }
        }

        if self.limit.is_none_or(|l| self.sent < l) {
            Some(next)
        } else {
            None
        }
    }

    fn is_done(&self) -> bool {
        self.limit.is_some_and(|l| self.sent >= l) && self.pending.is_empty()
    }

    fn fct(&self) -> Option<&FctRecorder> {
        Some(&self.fct)
    }
}

// ----------------------------------------------------------------------
// Ping-pong RTT probe (sockperf) + echo server
// ----------------------------------------------------------------------

/// Client half of a sockperf-style ping-pong: sends a small message, waits
/// for the echo, records the application-level round-trip time.
#[derive(Debug)]
pub struct PingPong {
    msg_bytes: u64,
    interval: Nanos,
    outstanding: Option<(Nanos, u64)>,
    next_ping: Option<Nanos>,
    rtts_ms: Vec<f64>,
}

impl PingPong {
    /// Probe with `msg_bytes` pings every `interval`.
    pub fn new(msg_bytes: u64, interval: Nanos) -> PingPong {
        assert!(msg_bytes > 0);
        PingPong {
            msg_bytes,
            interval,
            outstanding: None,
            next_ping: None,
            rtts_ms: Vec::new(),
        }
    }

    /// Collected RTTs in milliseconds.
    pub fn rtts_ms(&self) -> &[f64] {
        &self.rtts_ms
    }
}

impl App for PingPong {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if !conn.is_established() {
            return None;
        }
        // Completion of the outstanding ping?
        if let Some((sent_at, expect)) = self.outstanding {
            if conn.delivered_bytes() >= expect {
                self.rtts_ms
                    .push((now - sent_at) as f64 / MILLISECOND as f64);
                self.outstanding = None;
                self.next_ping = Some(sent_at + self.interval);
            }
        }
        // Time for the next ping?
        let next = *self.next_ping.get_or_insert(now);
        if self.outstanding.is_none() && now >= next {
            conn.send(self.msg_bytes);
            self.outstanding = Some((now, conn.delivered_bytes() + self.msg_bytes));
            self.next_ping = Some(now + self.interval);
        }
        // While a ping is in flight we are purely event-driven (the echo
        // arrival re-polls us); asking for a wake-up would spin the host.
        if self.outstanding.is_some() {
            None
        } else {
            self.next_ping
        }
    }

    fn rtt_samples_ms(&self) -> Option<&[f64]> {
        Some(&self.rtts_ms)
    }
}

/// Server half: echoes every delivered byte back.
#[derive(Debug, Default)]
pub struct EchoServer {
    echoed: u64,
}

impl EchoServer {
    /// New echo server.
    pub fn new() -> EchoServer {
        EchoServer::default()
    }
}

impl App for EchoServer {
    fn poll(&mut self, _now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if !conn.is_established() {
            return None;
        }
        let delivered = conn.delivered_bytes();
        if delivered > self.echoed {
            conn.send(delivered - self.echoed);
            self.echoed = delivered;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory fake transport: what is sent is instantly "acked"
    /// after `advance()`, and deliveries are injected by the test.
    #[derive(Default)]
    struct FakeConn {
        established: bool,
        queued: u64,
        acked: u64,
        delivered: u64,
    }

    impl AppConn for FakeConn {
        fn send(&mut self, bytes: u64) {
            self.queued += bytes;
        }
        fn close(&mut self) {}
        fn acked_bytes(&self) -> u64 {
            self.acked
        }
        fn queued_bytes(&self) -> u64 {
            self.queued
        }
        fn delivered_bytes(&self) -> u64 {
            self.delivered
        }
        fn is_established(&self) -> bool {
            self.established
        }
    }

    #[test]
    fn bulk_sender_records_fct_on_completion() {
        let mut app = BulkSender::new(1_000_000, FctKind::Background);
        let mut conn = FakeConn::default();
        assert!(app.poll(0, &mut conn).is_none());
        assert_eq!(conn.queued, 0, "nothing before establishment");
        conn.established = true;
        app.poll(5, &mut conn);
        assert_eq!(conn.queued, 1_000_000);
        conn.acked = 400_000;
        app.poll(10, &mut conn);
        assert!(!app.is_done());
        conn.acked = 1_000_000;
        app.poll(42, &mut conn);
        assert!(app.is_done());
        let s = app.fct().unwrap().samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].start, 5);
        assert_eq!(s[0].end, 42);
    }

    #[test]
    fn unlimited_bulk_never_completes() {
        let mut app = BulkSender::unlimited();
        let mut conn = FakeConn {
            established: true,
            ..FakeConn::default()
        };
        app.poll(0, &mut conn);
        conn.acked = conn.queued / 2;
        app.poll(100, &mut conn);
        assert!(!app.is_done());
        assert!(conn.queued >= 1 << 40);
    }

    #[test]
    fn message_sender_schedules_periodically() {
        let mut app = MessageSender::new(16_384, 100 * MILLISECOND, Some(3), FctKind::Mice);
        let mut conn = FakeConn {
            established: true,
            ..FakeConn::default()
        };
        let wake = app.poll(0, &mut conn).unwrap();
        assert_eq!(conn.queued, 16_384);
        assert_eq!(wake, 100 * MILLISECOND);
        // First completes quickly.
        conn.acked = 16_384;
        app.poll(2 * MILLISECOND, &mut conn);
        assert_eq!(app.fct().unwrap().len(), 1);
        // Second and third fire at their periods.
        app.poll(100 * MILLISECOND, &mut conn);
        assert_eq!(conn.queued, 2 * 16_384);
        app.poll(200 * MILLISECOND, &mut conn);
        assert_eq!(conn.queued, 3 * 16_384);
        conn.acked = conn.queued;
        app.poll(205 * MILLISECOND, &mut conn);
        assert!(app.is_done());
        assert_eq!(app.fct().unwrap().len(), 3);
        // FCT of msg 2 measured from its scheduled time (100 ms).
        let s = app.fct().unwrap().samples()[1];
        assert_eq!(s.start, 100 * MILLISECOND);
    }

    #[test]
    fn message_sender_catches_up_after_stall() {
        // If polls are late, missed periods are sent immediately.
        let mut app = MessageSender::new(1_000, 10 * MILLISECOND, None, FctKind::Mice);
        let mut conn = FakeConn {
            established: true,
            ..FakeConn::default()
        };
        app.poll(0, &mut conn);
        app.poll(35 * MILLISECOND, &mut conn);
        // t=0, 10, 20, 30 all due by 35 ms.
        assert_eq!(conn.queued, 4_000);
    }

    #[test]
    fn ping_pong_measures_rtt() {
        let mut app = PingPong::new(64, 10 * MILLISECOND);
        let mut conn = FakeConn {
            established: true,
            ..FakeConn::default()
        };
        app.poll(0, &mut conn);
        assert_eq!(conn.queued, 64);
        // Echo arrives 300 µs later.
        conn.delivered = 64;
        app.poll(300_000, &mut conn);
        assert_eq!(app.rtts_ms().len(), 1);
        assert!((app.rtts_ms()[0] - 0.3).abs() < 1e-9);
        // Next ping not before the interval.
        app.poll(5 * MILLISECOND, &mut conn);
        assert_eq!(conn.queued, 64);
        app.poll(10 * MILLISECOND, &mut conn);
        assert_eq!(conn.queued, 128);
    }

    #[test]
    fn echo_server_echoes_exactly_once() {
        let mut app = EchoServer::new();
        let mut conn = FakeConn {
            established: true,
            ..FakeConn::default()
        };
        conn.delivered = 500;
        app.poll(0, &mut conn);
        assert_eq!(conn.queued, 500);
        app.poll(1, &mut conn);
        assert_eq!(conn.queued, 500, "no double echo");
        conn.delivered = 700;
        app.poll(2, &mut conn);
        assert_eq!(conn.queued, 700);
    }
}
