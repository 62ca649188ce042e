//! A server node: guest TCP endpoints + AC/DC vSwitch + NIC.
//!
//! The packet path matches Figure 3 of the paper:
//!
//! ```text
//!   app ── Endpoint ── AcdcDatapath::egress ── [rate limiter] ── NIC ─▶ net
//!   app ◀─ Endpoint ◀─ AcdcDatapath::ingress ◀──────────────── NIC ◀─ net
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;

use acdc_netsim::{Ctx, Node, PortId, TokenBucket};

/// TCP-Small-Queues-style cap on bytes each *connection* may park in the
/// NIC queue. As in Linux, a socket is not polled for more data while its
/// share of the queue is above this — bounding sender-side bufferbloat
/// without letting bulk flows starve small ones.
const TSQ_PER_CONN_CAP: u64 = 64 * 1024;

/// Period of the vSwitch maintenance tick. The datapath infers RTOs for
/// flows whose ACK clock stopped *entirely* (outage, burst loss) only
/// from [`AcdcDatapath::tick`] — no ingress packet will ever trigger the
/// inactivity check for them — so the tick runs at the threshold's floor.
const DP_TICK_PERIOD: Nanos = acdc_vswitch::INACTIVITY_FLOOR;
use acdc_packet::{FlowIndex, FlowKey, Segment};
use acdc_stats::time::Nanos;
use acdc_stats::TimeSeries;
use acdc_tcp::{Endpoint, TcpConfig};
use acdc_telemetry::{Counter, DropCause, EventKind, Telemetry};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, Verdict};
use acdc_workloads::apps::App;

/// Identifies one flow end-to-end in a [`crate::Testbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHandle {
    /// Index of the client (active-opening) host.
    pub client_host: usize,
    /// Index of the server (passive) host.
    pub server_host: usize,
    /// The client-side flow key (client → server direction).
    pub key: FlowKey,
}

/// Measurement taps attachable to a connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnTaps {
    /// Sample the guest congestion window over time (Figures 9/10).
    pub trace_cwnd: bool,
}

struct Conn {
    ep: Endpoint,
    app: Option<Box<dyn App>>,
    start_at: Option<Nanos>,
    stop_at: Option<Nanos>,
    started: bool,
    stopped: bool,
    app_wake: Option<Nanos>,
    /// Bytes of this connection currently in the NIC (or rate-limiter)
    /// queue; the TSQ gate.
    nic_queued: u64,
    tsq_blocked: bool,
    cwnd_trace: Option<TimeSeries>,
    /// `ep.in_flight() > 0` as of the last [`HostNode::refresh`] (counted
    /// in the host's `in_flight_conns`).
    in_flight: bool,
}

/// The earlier of two optional deadlines (`None` = never).
fn earlier(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl Conn {
    /// When this connection next needs servicing on its own account:
    /// endpoint timer, app wake-up, pending scheduled start / stop.
    fn earliest_deadline(&self) -> Option<Nanos> {
        let mut t = earlier(self.ep.next_timer(), self.app_wake);
        if !self.started {
            t = earlier(t, self.start_at);
        }
        if !self.stopped {
            t = earlier(t, self.stop_at);
        }
        t
    }

    fn sample_taps(&mut self, now: Nanos) {
        if let Some(ts) = &mut self.cwnd_trace {
            let v = self.ep.cwnd() as f64;
            if ts.samples().last().is_none_or(|s| s.value != v) {
                ts.push(now, v);
            }
        }
    }
}

/// Access to a host's connections for host-level ("multi-connection")
/// applications such as the trace-driven generator.
pub trait MultiConnAccess {
    /// Number of connections on the host.
    fn count(&self) -> usize;
    /// Enqueue bytes on connection `idx`.
    fn send(&mut self, idx: usize, bytes: u64);
    /// Acknowledged stream bytes of connection `idx`.
    fn acked(&self, idx: usize) -> u64;
    /// Queued stream bytes of connection `idx`.
    fn queued(&self, idx: usize) -> u64;
    /// Is connection `idx` established?
    fn established(&self, idx: usize) -> bool;
    /// Wire 5-tuple (egress direction) of connection `idx`, for FCT
    /// attribution.
    fn flow(&self, idx: usize) -> Option<FlowKey> {
        let _ = idx;
        None
    }
}

/// A host-level application spanning all of the host's connections.
pub trait MultiApp {
    /// Poll; return the next absolute wake-up time wanted.
    fn poll(&mut self, now: Nanos, conns: &mut dyn MultiConnAccess) -> Option<Nanos>;
    /// Completed-flow records, if measured.
    fn fct(&self) -> Option<&acdc_workloads::FctRecorder> {
        None
    }
}

struct ConnsAccess<'a> {
    conns: &'a mut [Conn],
    /// Connections written to during this poll (only these need pumping).
    touched: &'a mut Vec<usize>,
}

impl MultiConnAccess for ConnsAccess<'_> {
    fn count(&self) -> usize {
        self.conns.len()
    }
    fn send(&mut self, idx: usize, bytes: u64) {
        self.conns[idx].ep.send(bytes);
        self.touched.push(idx);
    }
    fn acked(&self, idx: usize) -> u64 {
        self.conns[idx].ep.acked_bytes()
    }
    fn queued(&self, idx: usize) -> u64 {
        self.conns[idx].ep.queued_bytes()
    }
    fn established(&self, idx: usize) -> bool {
        self.conns[idx].ep.is_established()
    }
    fn flow(&self, idx: usize) -> Option<FlowKey> {
        Some(self.conns[idx].ep.flow_key())
    }
}

/// "No deadline" in a [`DeadlineTree`] node.
const NEVER: Nanos = Nanos::MAX;

/// The host's deadline index: a tournament tree over connection indices.
/// Leaf `i` holds connection `i`'s earliest deadline, every inner node
/// the minimum of its two children. Setting a leaf is O(log n) and never
/// allocates, the host's earliest deadline is the root, and the due
/// leaves come out in ascending connection index (DESIGN.md "Host
/// scheduling").
struct DeadlineTree {
    /// Node `k` has children `2k` and `2k + 1`; node 1 is the root, node
    /// `leaves + i` is leaf `i`, node 0 is unused.
    nodes: Vec<Nanos>,
    /// Leaf capacity, a power of two.
    leaves: usize,
}

impl DeadlineTree {
    fn new() -> DeadlineTree {
        DeadlineTree {
            nodes: vec![NEVER; 2],
            leaves: 1,
        }
    }

    /// Make room for `n` leaves (amortised doubling).
    fn grow_to(&mut self, n: usize) {
        if n <= self.leaves {
            return;
        }
        let leaves = n.next_power_of_two();
        let mut nodes = vec![NEVER; 2 * leaves];
        nodes[leaves..leaves + self.leaves].copy_from_slice(&self.nodes[self.leaves..]);
        for k in (1..leaves).rev() {
            nodes[k] = nodes[2 * k].min(nodes[2 * k + 1]);
        }
        *self = DeadlineTree { nodes, leaves };
    }

    fn set(&mut self, idx: usize, deadline: Option<Nanos>) {
        let mut k = self.leaves + idx;
        self.nodes[k] = deadline.unwrap_or(NEVER);
        while k > 1 {
            k /= 2;
            let min = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
            if self.nodes[k] == min {
                break;
            }
            self.nodes[k] = min;
        }
    }

    fn earliest(&self) -> Option<Nanos> {
        Some(self.nodes[1]).filter(|&t| t != NEVER)
    }

    /// Append to `out` the leaves whose deadline is at or before `now`,
    /// in ascending index, visiting only subtrees that hold one.
    fn due(&self, now: Nanos, out: &mut Vec<usize>) {
        self.due_under(1, now, out);
    }

    fn due_under(&self, k: usize, now: Nanos, out: &mut Vec<usize>) {
        if self.nodes[k] > now {
            return;
        }
        if k >= self.leaves {
            out.push(k - self.leaves);
        } else {
            self.due_under(2 * k, now, out);
            self.due_under(2 * k + 1, now, out);
        }
    }
}

/// Egress rate limiter state (Figure 2's 2 Gbps token bucket).
struct RateLimiter {
    tb: TokenBucket,
    queue: VecDeque<Segment>,
}

/// One simulated server.
pub struct HostNode {
    ip: [u8; 4],
    nic: PortId,
    datapath: AcdcDatapath,
    conns: Vec<Conn>,
    /// Each connection's index in `conns`, by its egress 5-tuple: one
    /// probe per packet demuxes an arrival (by the reverse of its key)
    /// and finds the owner of a packet starting on the wire. Nothing
    /// walks it, so its bucket order, which follows a per-process secret,
    /// reaches no output.
    by_key: FlowIndex<u32>,
    /// [`Conn::earliest_deadline`] of every connection, kept exact by
    /// [`HostNode::refresh`]: the host's next wake-up is its minimum, and
    /// a timer services only the connections that are due.
    deadlines: DeadlineTree,
    /// Connections with unacknowledged data — what keeps the vSwitch
    /// maintenance tick armed.
    in_flight_conns: usize,
    /// Reusable list of connection indices (empty between uses): the due
    /// connections of a timer, then those the host-level apps queued
    /// data on.
    scratch: Vec<usize>,
    multi_apps: Vec<(Box<dyn MultiApp>, Option<Nanos>)>,
    rl: Option<RateLimiter>,
    /// Earliest wake-up currently scheduled with the engine.
    armed: Option<Nanos>,
    /// Packets discarded at the NIC because checksum verification failed
    /// (the FCS model for injected corruption; see `acdc-faults`).
    /// Registered as `"host.corrupt_drops"` in the datapath's telemetry
    /// registry.
    corrupt_drops: Counter,
    /// Next scheduled vSwitch maintenance tick.
    next_dp_tick: Nanos,
}

impl HostNode {
    /// Create a host with address `ip`, NIC port `nic`, and a fresh
    /// datapath configured by `acdc`.
    pub fn new(ip: [u8; 4], nic: PortId, acdc: AcdcConfig) -> HostNode {
        let datapath = AcdcDatapath::new(acdc);
        let corrupt_drops = datapath
            .telemetry()
            .registry()
            .counter("host.corrupt_drops");
        HostNode {
            ip,
            nic,
            datapath,
            conns: Vec::new(),
            by_key: FlowIndex::new(),
            deadlines: DeadlineTree::new(),
            in_flight_conns: 0,
            scratch: Vec::new(),
            multi_apps: Vec::new(),
            rl: None,
            armed: None,
            corrupt_drops,
            next_dp_tick: DP_TICK_PERIOD,
        }
    }

    /// Swap in a freshly constructed datapath of the same configuration —
    /// the restore half of a checkpoint/restore cycle (DESIGN.md §14).
    /// The host's own NIC counter (`host.corrupt_drops`) is re-registered
    /// in the new hub with its current value carried over, the new
    /// recorder's event digest continues from the old one's (a restore
    /// does not touch it), and the maintenance-tick schedule is untouched.
    /// Returns the replaced datapath (e.g. to compare against the
    /// restored one). A subsequent
    /// `AcdcDatapath::restore` on the new datapath overwrites the carried
    /// counter value with the checkpointed one, by name, like every other
    /// metric.
    pub fn replace_datapath(&mut self) -> AcdcDatapath {
        let fresh = AcdcDatapath::new(self.datapath.config().clone());
        let corrupt_drops = fresh.telemetry().registry().counter("host.corrupt_drops");
        corrupt_drops.add(self.corrupt_drops.get());
        let digest = self.telemetry().recorder().digest();
        fresh.telemetry().recorder().resume_digest(digest);
        self.corrupt_drops = corrupt_drops;
        std::mem::replace(&mut self.datapath, fresh)
    }

    /// Packets dropped at the NIC for failing checksum verification
    /// (corrupted in flight by a fault injector).
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.get()
    }

    /// The host's telemetry hub (shared with its datapath): NIC-level
    /// drops and all vSwitch events land here.
    pub fn telemetry(&self) -> &Rc<Telemetry> {
        self.datapath.telemetry()
    }

    /// The host's IP.
    pub fn ip(&self) -> [u8; 4] {
        self.ip
    }

    /// The host's vSwitch datapath (counters, flow table).
    pub fn datapath(&self) -> &AcdcDatapath {
        &self.datapath
    }

    /// Install an egress token-bucket rate limiter.
    pub fn set_rate_limit(&mut self, rate_bps: u64, burst_bytes: u64) {
        self.rl = Some(RateLimiter {
            tb: TokenBucket::new(rate_bps, burst_bytes, 0),
            queue: VecDeque::new(),
        });
    }

    /// Install a host-level application (e.g. one of the five concurrent
    /// trace generators of Figure 23). Returns its index.
    pub fn add_multi_app(&mut self, app: Box<dyn MultiApp>) -> usize {
        self.multi_apps.push((app, None));
        self.multi_apps.len() - 1
    }

    /// Host-level application by index.
    pub fn multi_app(&self, idx: usize) -> Option<&dyn MultiApp> {
        self.multi_apps.get(idx).map(|(a, _)| a.as_ref())
    }

    /// Number of host-level applications.
    pub fn multi_app_count(&self) -> usize {
        self.multi_apps.len()
    }

    /// Add a connection. Active ones open at `start_at`; passive ones
    /// wait for a SYN. Returns the connection index.
    pub fn add_connection(
        &mut self,
        cfg: TcpConfig,
        active: bool,
        start_at: Option<Nanos>,
        app: Option<Box<dyn App>>,
        taps: ConnTaps,
    ) -> usize {
        let key = FlowKey {
            src_ip: cfg.local_ip,
            dst_ip: cfg.remote_ip,
            src_port: cfg.local_port,
            dst_port: cfg.remote_port,
        };
        let ep = if active {
            Endpoint::new_active(cfg)
        } else {
            Endpoint::new_passive(cfg)
        };
        let idx = self.conns.len();
        self.conns.push(Conn {
            ep,
            app,
            start_at: if active {
                Some(start_at.unwrap_or(0))
            } else {
                None
            },
            stop_at: None,
            started: !active,
            stopped: false,
            app_wake: None,
            nic_queued: 0,
            tsq_blocked: false,
            cwnd_trace: taps.trace_cwnd.then(TimeSeries::new),
            in_flight: false,
        });
        let idx32 = u32::try_from(idx).expect("fewer than 2^32 connections per host");
        self.by_key.insert(key, idx32);
        self.deadlines.grow_to(self.conns.len());
        // Room for every connection to be due at once, so that timers
        // never allocate.
        self.scratch.reserve(self.conns.len());
        self.refresh(idx);
        idx
    }

    /// Schedule the end of a long-lived flow (Figure 14).
    pub fn set_stop_at(&mut self, conn: usize, at: Nanos) {
        self.conns[conn].stop_at = Some(at);
        self.refresh(conn);
    }

    /// Index of the connection whose egress 5-tuple is `key`.
    pub fn conn_index_of(&self, key: &FlowKey) -> Option<usize> {
        self.by_key.get(key).map(|&i| i as usize)
    }

    /// Immutable access to a connection's endpoint.
    pub fn endpoint(&self, conn: usize) -> &Endpoint {
        &self.conns[conn].ep
    }

    /// The per-connection application, if any.
    pub fn app(&self, conn: usize) -> Option<&dyn App> {
        self.conns[conn].app.as_deref()
    }

    /// Recorded congestion-window trace.
    pub fn cwnd_trace(&self, conn: usize) -> Option<&TimeSeries> {
        self.conns[conn].cwnd_trace.as_ref()
    }

    /// Number of connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Push one endpoint-produced segment through the datapath toward the
    /// NIC; returns the wire bytes that ended up *waiting* in the NIC
    /// queue (TSQ accounting: packets that start serializing immediately
    /// never wait, and the engine only reports queue departures).
    fn send_out(&mut self, ctx: &mut Ctx<'_>, seg: Segment) -> u64 {
        let now = ctx.now();
        match self.datapath.egress(now, seg) {
            Verdict::Forward(s) => self.rl_transmit(ctx, s),
            Verdict::ForwardWithExtra(s, extra) => {
                self.rl_transmit(ctx, s) + self.rl_transmit(ctx, *extra)
            }
            Verdict::Drop(_) => 0,
        }
    }

    /// Returns the TSQ-counted bytes (0 for packets that began
    /// transmission immediately or took the rate-limited path, which is
    /// exempt from TSQ accounting).
    fn rl_transmit(&mut self, ctx: &mut Ctx<'_>, seg: Segment) -> u64 {
        let now = ctx.now();
        let nic = self.nic;
        match &mut self.rl {
            None => {
                let queued = if ctx.port_busy(nic) {
                    seg.wire_len() as u64
                } else {
                    0
                };
                ctx.enqueue(nic, seg);
                queued
            }
            Some(rl) => {
                if rl.queue.is_empty() {
                    match rl.tb.try_consume(seg.wire_len(), now) {
                        Ok(()) => ctx.enqueue(nic, seg),
                        Err(_) => rl.queue.push_back(seg),
                    }
                } else {
                    rl.queue.push_back(seg);
                }
                0
            }
        }
    }

    fn rl_drain(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let nic = self.nic;
        if let Some(rl) = &mut self.rl {
            while let Some(front) = rl.queue.front() {
                match rl.tb.try_consume(front.wire_len(), now) {
                    Ok(()) => {
                        let seg = rl.queue.pop_front().unwrap();
                        ctx.enqueue(nic, seg);
                    }
                    Err(_) => break,
                }
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        loop {
            if self.conns[idx].nic_queued >= TSQ_PER_CONN_CAP {
                self.conns[idx].tsq_blocked = true;
                break;
            }
            let out = self.conns[idx].ep.poll_transmit(now);
            match out {
                Some(seg) => {
                    let n = self.send_out(ctx, seg);
                    self.conns[idx].nic_queued += n;
                }
                None => break,
            }
        }
        self.conns[idx].sample_taps(now);
        self.refresh(idx);
    }

    /// Bring connection `idx`'s leaf in the deadline index and its share
    /// of the in-flight count up to date. Everything that changes either
    /// ends in [`HostNode::pump`], so that is where this runs (plus the
    /// two setters that work without a `Ctx`).
    fn refresh(&mut self, idx: usize) {
        let c = &mut self.conns[idx];
        self.deadlines.set(idx, c.earliest_deadline());
        let in_flight = c.ep.in_flight() > 0;
        if in_flight != c.in_flight {
            if in_flight {
                self.in_flight_conns += 1;
            } else {
                self.in_flight_conns -= 1;
            }
            c.in_flight = in_flight;
        }
    }

    /// The O(connections) fold the index replaces, kept as the oracle
    /// `reschedule` checks the index against in debug builds.
    fn index_matches_full_fold(&self) -> bool {
        let mut earliest = None;
        let mut in_flight = 0;
        for c in &self.conns {
            earliest = earlier(earliest, c.earliest_deadline());
            in_flight += usize::from(c.ep.in_flight() > 0);
        }
        earliest == self.deadlines.earliest() && in_flight == self.in_flight_conns
    }

    fn poll_app(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let conn = &mut self.conns[idx];
        if let Some(app) = &mut conn.app {
            conn.app_wake = app.poll(now, &mut conn.ep);
        }
    }

    /// Poll the host-level apps, then pump the connections they queued
    /// data on (the only ones that need it), in ascending index.
    fn poll_multi(&mut self, ctx: &mut Ctx<'_>) {
        if self.multi_apps.is_empty() {
            return;
        }
        let now = ctx.now();
        let mut touched = std::mem::take(&mut self.scratch);
        for (app, wake) in &mut self.multi_apps {
            let mut access = ConnsAccess {
                conns: &mut self.conns,
                touched: &mut touched,
            };
            *wake = app.poll(now, &mut access);
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched.drain(..) {
            self.pump(ctx, idx);
        }
        self.scratch = touched;
    }

    fn service_conn(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        // Scheduled start / stop.
        let conn = &mut self.conns[idx];
        if !conn.started {
            if let Some(at) = conn.start_at {
                if now >= at {
                    conn.ep.open(now);
                    conn.started = true;
                }
            }
        }
        if !conn.stopped {
            if let Some(at) = conn.stop_at {
                if now >= at {
                    conn.ep.stop_sending();
                    conn.stopped = true;
                }
            }
        }
        // Endpoint timer.
        if self.conns[idx].ep.next_timer().is_some_and(|t| t <= now) {
            self.conns[idx].ep.on_timer(now);
        }
        self.poll_app(ctx, idx);
        self.pump(ctx, idx);
    }

    fn reschedule(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        debug_assert!(
            self.index_matches_full_fold(),
            "deadline index / in-flight count out of date"
        );
        let mut earliest = self.deadlines.earliest();
        for (_, wake) in &self.multi_apps {
            earliest = earlier(earliest, *wake);
        }
        // Keep the vSwitch maintenance tick alive only while some flow
        // actually has unacknowledged data to watch.
        if self.in_flight_conns > 0 {
            earliest = earlier(earliest, Some(self.next_dp_tick.max(now)));
        }
        if let Some(rl) = &self.rl {
            if let Some(front) = rl.queue.front() {
                let release = match rl.tb.peek(front.wire_len(), now) {
                    Ok(()) => now + 1,
                    Err(at) => at,
                };
                earliest = earlier(earliest, Some(release));
            }
        }
        if let Some(t) = earliest {
            let t = t.max(now);
            // Avoid re-arming for a deadline we already have armed.
            if self.armed.is_none_or(|a| t < a || a <= now) {
                self.armed = Some(t);
                ctx.set_timer(t - now, 0);
            }
        }
    }
}

impl Node for HostNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
        let now = ctx.now();
        // The header metadata every later stage (checksum verify, vSwitch
        // ingress, endpoint demux + processing) reads rides in the
        // segment.
        let meta = seg.meta();
        // NIC FCS check: damaged frames never reach the vSwitch (loss, as
        // on real hardware). Only injected corruption produces these — the
        // datapath's own rewrites all maintain checksums.
        if !seg.verify_checksums() {
            self.corrupt_drops.inc();
            self.datapath.telemetry().record(
                now,
                meta.flow,
                EventKind::PacketDropped {
                    cause: DropCause::CorruptFcs,
                },
            );
            return;
        }
        let key = meta.flow.reverse();
        match self.datapath.ingress(now, seg) {
            Verdict::Forward(s) => {
                if let Some(idx) = self.conn_index_of(&key) {
                    self.conns[idx].ep.on_segment(now, &s);
                    self.service_conn(ctx, idx);
                    self.poll_multi(ctx);
                }
            }
            Verdict::ForwardWithExtra(..) => unreachable!("ingress never generates packets"),
            Verdict::Drop(_) => {}
        }
        self.rl_drain(ctx);
        self.reschedule(ctx);
    }

    fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        // A packet of ours began serialization: release its TSQ budget and
        // refill the owning connection if the gate had closed on it.
        if port != self.nic {
            return;
        }
        // The meta built at egress rides along with the clone the engine
        // hands back.
        if let Some(idx) = self.conn_index_of(&seg.meta().flow) {
            let c = &mut self.conns[idx];
            c.nic_queued = c.nic_queued.saturating_sub(seg.wire_len() as u64);
            if c.tsq_blocked && c.nic_queued < TSQ_PER_CONN_CAP {
                c.tsq_blocked = false;
                self.pump(ctx, idx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.armed = None;
        self.rl_drain(ctx);
        let now = ctx.now();
        if now >= self.next_dp_tick {
            self.datapath.tick(now);
            // Flow-table garbage collection rides the same maintenance
            // tick: closed/idle entries are collected and the datapath
            // re-evaluates its health ladder against the new occupancy.
            self.datapath
                .gc(now, self.datapath.config().gc_idle_timeout);
            self.next_dp_tick = now + DP_TICK_PERIOD;
        }
        // Only the connections whose own deadline is due have anything to
        // do; ascending index keeps the order their packets leave in.
        let mut due = std::mem::take(&mut self.scratch);
        self.deadlines.due(now, &mut due);
        for idx in due.drain(..) {
            self.service_conn(ctx, idx);
        }
        self.scratch = due;
        self.poll_multi(ctx);
        self.rl_drain(ctx);
        self.reschedule(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree against a plain list of optional deadlines, through
    /// growth, overwrites, clears and equal deadlines.
    #[test]
    fn deadline_tree_matches_a_linear_scan() {
        let mut tree = DeadlineTree::new();
        let mut model: Vec<Option<Nanos>> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut due = Vec::new();
        for step in 0..4_000 {
            if model.len() < 200 && step % 7 == 0 {
                model.push(None);
                tree.grow_to(model.len());
            }
            let idx = next(model.len() as u64) as usize;
            // A small range of times, so that ties are common.
            let deadline = (next(4) != 0).then(|| next(50));
            model[idx] = deadline;
            tree.set(idx, deadline);

            assert_eq!(tree.earliest(), model.iter().flatten().min().copied());
            let now = next(60);
            due.clear();
            tree.due(now, &mut due);
            let expect: Vec<usize> = (0..model.len())
                .filter(|&i| model[i].is_some_and(|t| t <= now))
                .collect();
            assert_eq!(due, expect, "step {step} now {now}");
        }
    }
}
