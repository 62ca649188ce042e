//! Topology + flow plumbing: the simulated counterpart of the paper's
//! 17-server, 10 GbE testbed.

use std::collections::BTreeMap;
use std::rc::Rc;

use acdc_cc::CcKind;
use acdc_faults::{FaultPlan, FaultyLink, LinkFaultStats};
use acdc_netsim::{LinkSpec, Network, NodeId, PortId, SwitchCounters, SwitchNode};
use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_stats::Distribution;
use acdc_tcp::Endpoint;
use acdc_telemetry::{Digest, Telemetry};
use acdc_vswitch::AcdcConfig;
use acdc_workloads::apps::{App, BulkSender, EchoServer, MessageSender, PingPong};
use acdc_workloads::{FctKind, FctRecorder};

use crate::host::{ConnTaps, FlowHandle, HostNode};
use crate::scheme::{Scheme, DEFAULT_MARK_THRESHOLD};

/// Default host/switch link: 10 GbE, 1.5 µs propagation per hop.
fn default_link() -> LinkSpec {
    LinkSpec::ten_gbe(1_500)
}

/// RTT samples a probe takes while its connection is still opening.
const PROBE_HANDSHAKE_SAMPLES: usize = 5;

/// One window AC/DC computed for a flow, beside the guest's CWND then.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// When the vSwitch computed the window.
    pub at: Nanos,
    /// The guest's CWND in bytes: its latest sample at or before `at`
    /// (its first sample, before it has one).
    pub guest_cwnd: f64,
    /// The window the vSwitch computed, in bytes.
    pub enforced_rwnd: u64,
}

impl WindowSample {
    /// `|enforced − guest| / guest`, while the guest has a window.
    pub fn relative_error(&self) -> Option<f64> {
        (self.guest_cwnd > 0.0)
            .then(|| ((self.enforced_rwnd as f64) - self.guest_cwnd).abs() / self.guest_cwnd)
    }
}

/// A built topology with hosts, switches and flow bookkeeping.
pub struct Testbed {
    /// The underlying simulator.
    pub net: Network,
    /// Experiment scheme.
    pub scheme: Scheme,
    /// MTU used by all links/stacks.
    pub mtu: usize,
    /// The vSwitch configuration every host gets: the scheme's, edited
    /// between [`Testbed::custom`] and a `build_*` call (log-only mode,
    /// window traces, per-flow policies, policing, RWND caps, …).
    pub acdc: AcdcConfig,
    hosts: Vec<NodeId>,
    host_ips: Vec<[u8; 4]>,
    switches: Vec<NodeId>,
    next_port: Vec<u16>,
    iss: u32,
    mark_bytes: u64,
    /// Fault plans for host access links, by future host index (set
    /// before `build_*`; taken by [`Testbed::add_host`]).
    host_fault_plans: BTreeMap<usize, FaultPlan>,
    /// Fault plan for the dumbbell trunk (set before `build_dumbbell`).
    trunk_fault_plan: Option<FaultPlan>,
    /// Installed fault-injector taps, by name (`fault.trunk`,
    /// `fault.host{i}`).
    fault_taps: BTreeMap<String, NodeId>,
}

impl Testbed {
    /// The three schemes every comparative figure sets side by side.
    pub fn compared_schemes() -> [Scheme; 3] {
        [Scheme::Cubic, Scheme::Dctcp, Scheme::acdc()]
    }

    fn host_ip(i: usize) -> [u8; 4] {
        [10, 0, (i / 250) as u8, (i % 250 + 1) as u8]
    }

    /// An empty testbed for custom construction: set options (marking
    /// threshold, [`Testbed::acdc`]) and then call a `build_*` method.
    pub fn custom(scheme: Scheme, mtu: usize) -> Testbed {
        Testbed {
            net: Network::new(),
            acdc: scheme.acdc_config(mtu),
            scheme,
            mtu,
            hosts: Vec::new(),
            host_ips: Vec::new(),
            switches: Vec::new(),
            next_port: Vec::new(),
            iss: 7,
            mark_bytes: DEFAULT_MARK_THRESHOLD,
            host_fault_plans: BTreeMap::new(),
            trunk_fault_plan: None,
            fault_taps: BTreeMap::new(),
        }
    }

    /// The network's telemetry hub: port drops and every fault tap's
    /// events. Per-host vSwitch events live on each host's own hub:
    /// `testbed.host_mut(i).telemetry()`.
    pub fn telemetry(&self) -> &Rc<Telemetry> {
        self.net.telemetry()
    }

    /// The event digest of the network's hub and of each host's hub, in
    /// host order, folded into one: a run's whole event history, ring
    /// overwrites included, as one number.
    pub fn digest(&mut self) -> u64 {
        let net = Digest::new().word(self.telemetry().recorder().digest());
        (0..self.hosts.len())
            .fold(net, |d, i| {
                d.word(self.host_mut(i).telemetry().recorder().digest())
            })
            .value()
    }

    /// Check this run against `name`'s line in `tests/golden.txt` (see
    /// [`acdc_telemetry::golden`]): [`Testbed::digest`], and `report`
    /// beside the engine's event count and each host's metric snapshot
    /// and flow statistics.
    pub fn golden(&mut self, name: &str, report: &impl std::fmt::Debug) {
        let hosts: Vec<_> = (0..self.hosts.len())
            .map(|i| {
                let dp = self.host_mut(i).datapath();
                (
                    dp.telemetry().snapshot_json(0),
                    dp.flow_stats().collect::<Vec<_>>(),
                )
            })
            .collect();
        let events = self.net.events_processed();
        acdc_telemetry::golden(name, &[self.digest()], &(report, events, hosts));
    }

    /// Override the switch WRED/ECN marking threshold `K` (takes effect
    /// for switches created by a subsequent `build_*` call).
    pub fn set_mark_threshold(&mut self, bytes: u64) {
        self.mark_bytes = bytes;
    }

    /// Inject faults on the access link of the host that will get index
    /// `host` when a `build_*` method runs (hosts are numbered in creation
    /// order). The plan's scripted/A→B direction is host→switch (the
    /// host's egress). Call before `build_*`; read results afterwards with
    /// [`Testbed::host_fault_stats`].
    pub fn set_host_fault(&mut self, host: usize, plan: FaultPlan) {
        self.host_fault_plans.insert(host, plan);
    }

    /// Inject faults on the dumbbell trunk (A→B is the sw1→sw2 direction,
    /// i.e. senders→receivers). Call before `build_dumbbell`; read results
    /// with [`Testbed::trunk_fault_stats`].
    pub fn set_trunk_fault(&mut self, plan: FaultPlan) {
        self.trunk_fault_plan = Some(plan);
    }

    /// Fault counters of host `idx`'s access link, if one was faulted.
    pub fn host_fault_stats(&mut self, host: usize) -> Option<LinkFaultStats> {
        self.fault_stats(&format!("fault.host{host}"))
    }

    /// Fault counters of the trunk, if it was faulted.
    pub fn trunk_fault_stats(&mut self) -> Option<LinkFaultStats> {
        self.fault_stats("fault.trunk")
    }

    fn fault_stats(&mut self, name: &str) -> Option<LinkFaultStats> {
        let id = *self.fault_taps.get(name)?;
        self.net.node_mut::<FaultyLink>(id).map(|f| f.stats())
    }

    /// Connect `a` to `b` over `link`, through a fault tap named `name`
    /// when `plan` is set. The tap counts in its own `FaultStats` and
    /// records its events on the network hub.
    fn connect_faulted(
        &mut self,
        a: NodeId,
        b: NodeId,
        link: LinkSpec,
        plan: Option<FaultPlan>,
        name: String,
    ) -> (PortId, PortId) {
        let Some(plan) = plan else {
            return self.net.connect(a, b, link);
        };
        let (pa, pb, tap) = self.net.connect_interposed(a, b, link, |ta, tb| {
            Box::new(FaultyLink::new(&plan, ta, tb))
        });
        self.fault_taps.insert(name, tap);
        (pa, pb)
    }

    /// Add a host attached to `switch` via `link`; returns its index.
    fn add_host(&mut self, switch: NodeId, link: LinkSpec) -> usize {
        let idx = self.hosts.len();
        let ip = Self::host_ip(idx);
        let node = self.net.reserve_node();
        let plan = self.host_fault_plans.remove(&idx);
        let (host_port, switch_port) =
            self.connect_faulted(node, switch, link, plan, format!("fault.host{idx}"));
        let host = HostNode::new(ip, host_port, self.acdc.clone());
        self.net.install(node, Box::new(host));
        // Route the host's address at its switch.
        if let Some(sw) = self.net.node_mut::<SwitchNode>(switch) {
            sw.add_route(ip, switch_port);
        }
        self.hosts.push(node);
        self.host_ips.push(ip);
        self.next_port.push(40_000);
        idx
    }

    /// The single-switch star of the macrobenchmarks (§5.2): `n` hosts on
    /// one 48-port switch.
    pub fn star(n: usize, scheme: Scheme, mtu: usize) -> Testbed {
        let mut tb = Testbed::custom(scheme, mtu);
        tb.build_star(n);
        tb
    }

    /// Build the single-switch star topology (see [`Testbed::star`]).
    pub fn build_star(&mut self, n: usize) {
        let tb = self;
        let cfg = tb.scheme.switch_config(tb.mark_bytes);
        let sw = tb.net.add_node(Box::new(SwitchNode::new(cfg)));
        tb.switches.push(sw);
        for _ in 0..n {
            tb.add_host(sw, default_link());
        }
    }

    /// The dumbbell of Figure 7a: `n` sender/receiver pairs across a
    /// 10 G trunk. Hosts `0..n` are senders, `n..2n` receivers.
    pub fn dumbbell(n: usize, scheme: Scheme, mtu: usize) -> Testbed {
        let mut tb = Testbed::custom(scheme, mtu);
        tb.build_dumbbell(n);
        tb
    }

    /// Build the dumbbell topology (see [`Testbed::dumbbell`]).
    pub fn build_dumbbell(&mut self, n: usize) {
        let tb = self;
        let cfg = tb.scheme.switch_config(tb.mark_bytes);
        let sw1 = tb.net.add_node(Box::new(SwitchNode::new(cfg)));
        let sw2 = tb.net.add_node(Box::new(SwitchNode::new(cfg)));
        tb.switches.push(sw1);
        tb.switches.push(sw2);
        let plan = tb.trunk_fault_plan.take();
        let (p1, p2) = tb.connect_faulted(sw1, sw2, default_link(), plan, "fault.trunk".into());
        // Default routes point across the trunk.
        tb.net
            .node_mut::<SwitchNode>(sw1)
            .unwrap()
            .set_default_route(p1);
        tb.net
            .node_mut::<SwitchNode>(sw2)
            .unwrap()
            .set_default_route(p2);
        for _ in 0..n {
            tb.add_host(sw1, default_link());
        }
        for _ in 0..n {
            tb.add_host(sw2, default_link());
        }
    }

    /// The multi-hop, multi-bottleneck "parking lot" of Figure 7b:
    /// `n` senders, one per switch along a chain, all reaching the single
    /// receiver attached to the last switch. Host `n` is the receiver.
    pub fn parking_lot(n: usize, scheme: Scheme, mtu: usize) -> Testbed {
        assert!(n >= 2);
        let mut tb = Testbed::custom(scheme, mtu);
        let cfg = tb.scheme.switch_config(tb.mark_bytes);
        for _ in 0..n {
            let sw = tb.net.add_node(Box::new(SwitchNode::new(cfg)));
            tb.switches.push(sw);
        }
        // Chain the switches; default routes point "rightward".
        for i in 0..n - 1 {
            let (pa, _pb) = tb
                .net
                .connect(tb.switches[i], tb.switches[i + 1], default_link());
            tb.net
                .node_mut::<SwitchNode>(tb.switches[i])
                .unwrap()
                .set_default_route(pa);
        }
        for i in 0..n {
            tb.add_host(tb.switches[i], default_link());
        }
        // The receiver hangs off the last switch.
        tb.add_host(tb.switches[n - 1], default_link());
        // Receiver→sender routes walk leftward: give every non-first
        // switch a back-route per sender.
        for i in (1..n).rev() {
            let (pa, _pb) = tb
                .net
                .connect(tb.switches[i], tb.switches[i - 1], default_link());
            for s in 0..i {
                let ip = tb.host_ips[s];
                tb.net
                    .node_mut::<SwitchNode>(tb.switches[i])
                    .unwrap()
                    .add_route(ip, pa);
            }
        }
        tb
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Host index → IP.
    pub fn ip_of(&self, host: usize) -> [u8; 4] {
        self.host_ips[host]
    }

    /// Schedule a wake-up for a host (needed after adding connections via
    /// the low-level [`HostNode::add_connection`] API so active opens at
    /// `at` actually fire).
    pub fn kick_host(&mut self, host: usize, at: Nanos) {
        let id = self.hosts[host];
        self.net.schedule_timer_at(id, at, 0);
    }

    /// Mutable access to a host.
    pub fn host_mut(&mut self, idx: usize) -> &mut HostNode {
        let id = self.hosts[idx];
        self.net.node_mut::<HostNode>(id).expect("host node")
    }

    /// Switch counters of switch `i`.
    pub fn switch_counters(&mut self, i: usize) -> SwitchCounters {
        let id = self.switches[i];
        self.net
            .node_mut::<SwitchNode>(id)
            .expect("switch node")
            .counters()
    }

    /// Aggregate drop rate across all switches.
    pub fn drop_rate(&mut self) -> f64 {
        let mut fwd = 0u64;
        let mut drop = 0u64;
        for i in 0..self.switches.len() {
            let c = self.switch_counters(i);
            fwd += c.forwarded;
            drop += c.total_drops();
        }
        if fwd + drop == 0 {
            0.0
        } else {
            drop as f64 / (fwd + drop) as f64
        }
    }

    // ------------------------------------------------------------------
    // Flow plumbing
    // ------------------------------------------------------------------

    // The u32 LCG generates ISSs; it does no sequence arithmetic.
    #[allow(clippy::disallowed_methods)]
    fn next_flow_params(&mut self, client: usize) -> (u16, u32, u32) {
        let port = self.next_port[client];
        self.next_port[client] += 1;
        self.iss = self.iss.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let iss_c = self.iss;
        self.iss = self.iss.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let iss_s = self.iss;
        (port, iss_c, iss_s)
    }

    /// Build one connection: the client/server `TcpConfig` pair (with the
    /// guest `stack` — `(cc, ecn, client cwnd clamp)` — overriding the
    /// scheme's when given), both endpoints on their hosts, and the kick
    /// that makes the client open at `start`.
    #[allow(clippy::too_many_arguments)]
    fn connect_pair(
        &mut self,
        client: usize,
        server: usize,
        stack: Option<(CcKind, bool, Option<u64>)>,
        client_app: Option<Box<dyn App>>,
        server_app: Option<Box<dyn App>>,
        start: Nanos,
        taps: ConnTaps,
    ) -> FlowHandle {
        assert_ne!(client, server, "flow endpoints must differ");
        let (cport, iss_c, iss_s) = self.next_flow_params(client);
        let sport = 5_001;
        let cip = self.host_ips[client];
        let sip = self.host_ips[server];
        let mut ccfg = self
            .scheme
            .tcp_config(cip, cport, sip, sport, self.mtu, iss_c);
        let mut scfg = self
            .scheme
            .tcp_config(sip, sport, cip, cport, self.mtu, iss_s);
        if let Some((cc, ecn, cwnd_clamp)) = stack {
            (ccfg.cc, ccfg.ecn, ccfg.cwnd_clamp) = (cc, ecn, cwnd_clamp);
            (scfg.cc, scfg.ecn) = (cc, ecn);
        }
        let key = FlowKey {
            src_ip: cip,
            dst_ip: sip,
            src_port: cport,
            dst_port: sport,
        };
        self.host_mut(client)
            .add_connection(ccfg, true, Some(start), client_app, taps);
        self.host_mut(server)
            .add_connection(scfg, false, None, server_app, ConnTaps::default());
        // Kick the client host at the start time so it opens the flow.
        let client_id = self.hosts[client];
        self.net.schedule_timer_at(client_id, start, 0);
        FlowHandle {
            client_host: client,
            server_host: server,
            key,
        }
    }

    /// An iperf-style sender of `bytes` (`None` = long-lived/unbounded).
    fn bulk_app(bytes: Option<u64>) -> Box<dyn App> {
        match bytes {
            Some(b) => Box::new(BulkSender::new(b, FctKind::Background)),
            None => Box::new(BulkSender::unlimited()),
        }
    }

    /// Create a connection between two hosts with the given apps. The
    /// client opens at `start`.
    pub fn add_flow(
        &mut self,
        client: usize,
        server: usize,
        client_app: Option<Box<dyn App>>,
        server_app: Option<Box<dyn App>>,
        start: Nanos,
        taps: ConnTaps,
    ) -> FlowHandle {
        self.connect_pair(client, server, None, client_app, server_app, start, taps)
    }

    /// A bulk transfer (`None` = long-lived/unbounded), iperf-style.
    pub fn add_bulk(
        &mut self,
        client: usize,
        server: usize,
        bytes: Option<u64>,
        start: Nanos,
    ) -> FlowHandle {
        let app = Self::bulk_app(bytes);
        self.add_flow(client, server, Some(app), None, start, ConnTaps::default())
    }

    /// A bulk transfer whose *guest stack* overrides the scheme default —
    /// the mixed-stack experiments (Figures 1, 15, 17; Table 1 runs each
    /// host stack under AC/DC). `ecn` selects end-to-end ECN negotiation
    /// for this connection; `cwnd_clamp` is a guest `snd_cwnd_clamp`
    /// (Figure 6a's window cap).
    #[allow(clippy::too_many_arguments)]
    pub fn add_bulk_with_cc(
        &mut self,
        client: usize,
        server: usize,
        cc: CcKind,
        ecn: bool,
        bytes: Option<u64>,
        start: Nanos,
        taps: ConnTaps,
        cwnd_clamp: Option<u64>,
    ) -> FlowHandle {
        let app = Self::bulk_app(bytes);
        let stack = Some((cc, ecn, cwnd_clamp));
        self.connect_pair(client, server, stack, Some(app), None, start, taps)
    }

    /// A ping-pong RTT probe whose guest stack overrides the scheme
    /// default (Figure 16 probes with a non-ECN CUBIC connection).
    #[allow(clippy::too_many_arguments)]
    pub fn add_pingpong_with_cc(
        &mut self,
        client: usize,
        server: usize,
        cc: CcKind,
        ecn: bool,
        msg: u64,
        interval: Nanos,
        start: Nanos,
    ) -> FlowHandle {
        self.connect_pair(
            client,
            server,
            Some((cc, ecn, None)),
            Some(Box::new(PingPong::new(msg, interval))),
            Some(Box::new(EchoServer::new())),
            start,
            ConnTaps::default(),
        )
    }

    /// A sockperf-style RTT probe (ping-pong of `msg` bytes every
    /// `interval`), with an echo server on the far side.
    pub fn add_pingpong(
        &mut self,
        client: usize,
        server: usize,
        msg: u64,
        interval: Nanos,
        start: Nanos,
    ) -> FlowHandle {
        self.add_flow(
            client,
            server,
            Some(Box::new(PingPong::new(msg, interval))),
            Some(Box::new(EchoServer::new())),
            start,
            ConnTaps::default(),
        )
    }

    /// A periodic fixed-size message flow (the 16 KB mice generator).
    pub fn add_messages(
        &mut self,
        client: usize,
        server: usize,
        msg: u64,
        period: Nanos,
        limit: Option<u64>,
        start: Nanos,
    ) -> FlowHandle {
        self.add_flow(
            client,
            server,
            Some(Box::new(MessageSender::new(
                msg,
                period,
                limit,
                FctKind::Mice,
            ))),
            None,
            start,
            ConnTaps::default(),
        )
    }

    // ------------------------------------------------------------------
    // Running & measuring
    // ------------------------------------------------------------------

    /// Run the simulation until virtual time `t`.
    pub fn run_until(&mut self, t: Nanos) {
        self.net.run_until(t);
    }

    fn conn_index(&mut self, h: FlowHandle) -> usize {
        self.host_mut(h.client_host)
            .conn_index_of(&h.key)
            .unwrap_or_else(|| panic!("flow not found on host {}", h.client_host))
    }

    /// Schedule the end of a long-lived flow (Figure 14's convergence
    /// test removes flows on a timetable).
    pub fn set_flow_stop(&mut self, h: FlowHandle, at: Nanos) {
        let idx = self.conn_index(h);
        self.host_mut(h.client_host).set_stop_at(idx, at);
        // Make sure the host wakes up to apply it.
        let id = self.hosts[h.client_host];
        self.net.schedule_timer_at(id, at, 0);
    }

    /// Index of the client-side connection on its host.
    pub fn client_conn_index(&mut self, h: FlowHandle) -> usize {
        self.conn_index(h)
    }

    /// The client endpoint of a flow.
    pub fn client_endpoint(&mut self, h: FlowHandle) -> &Endpoint {
        let idx = self.conn_index(h);
        self.host_mut(h.client_host).endpoint(idx)
    }

    /// Bytes acknowledged end-to-end on a flow.
    pub fn acked_bytes(&mut self, h: FlowHandle) -> u64 {
        self.client_endpoint(h).acked_bytes()
    }

    /// Per-flow goodput in Gbps over the window `[warmup, end]`: runs to
    /// `warmup`, snapshots what each flow has acknowledged, runs to `end`
    /// and divides the bytes acknowledged in between by the window. A
    /// testbed already standing at `warmup` only takes the snapshot.
    pub fn goodput_gbps(&mut self, flows: &[FlowHandle], warmup: Nanos, end: Nanos) -> Vec<f64> {
        assert!(end > warmup, "empty goodput window [{warmup}, {end}]");
        self.run_until(warmup);
        let base: Vec<u64> = flows.iter().map(|&h| self.acked_bytes(h)).collect();
        self.run_until(end);
        let window = (end - warmup) as f64;
        flows
            .iter()
            .zip(base)
            .map(|(&h, b)| (self.acked_bytes(h) - b) as f64 * 8.0 / window)
            .collect()
    }

    /// RTT samples (ms) recorded by a ping-pong client app.
    pub fn rtt_samples_ms(&mut self, h: FlowHandle) -> Vec<f64> {
        let idx = self.conn_index(h);
        self.host_mut(h.client_host)
            .app(idx)
            .and_then(|a| a.rtt_samples_ms())
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// A probe's RTT distribution (ms) without the samples taken while
    /// its connection was still opening.
    pub fn probe_rtt_ms(&mut self, probe: FlowHandle) -> Distribution {
        let mut d = Distribution::new();
        d.extend(
            self.rtt_samples_ms(probe)
                .into_iter()
                .skip(PROBE_HANDSHAKE_SAMPLES),
        );
        d
    }

    /// Flow `h`'s enforced-window trace beside its guest's CWND, and the
    /// number of CWND samples the guest recorded. The flow needs
    /// [`ConnTaps::trace_cwnd`] and its host's vSwitch `trace_windows`.
    pub fn window_trace(&mut self, h: FlowHandle) -> (usize, Vec<WindowSample>) {
        let conn = self.conn_index(h);
        let host = self.host_mut(h.client_host);
        let enforced = host
            .datapath()
            .table()
            .with_entry(&h.key, |e| {
                e.rwnd().trace().expect("vSwitch traces windows").to_vec()
            })
            .expect("the vSwitch tracks the flow");
        let guest = host
            .cwnd_trace(conn)
            .expect("flow traces its CWND")
            .samples();
        let mut gi = 0;
        let trace = enforced
            .into_iter()
            .map(|(at, enforced_rwnd)| {
                while gi + 1 < guest.len() && guest[gi + 1].at <= at {
                    gi += 1;
                }
                WindowSample {
                    at,
                    guest_cwnd: guest[gi].value,
                    enforced_rwnd,
                }
            })
            .collect();
        (guest.len(), trace)
    }

    /// FCT records from the client app of a flow.
    pub fn fct_of(&mut self, h: FlowHandle) -> FctRecorder {
        let idx = self.conn_index(h);
        self.host_mut(h.client_host)
            .app(idx)
            .and_then(|a| a.fct())
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::{MILLISECOND, SECOND};

    #[test]
    fn dumbbell_bulk_flow_saturates_the_trunk() {
        let mut tb = Testbed::dumbbell(1, Scheme::Cubic, 9000);
        let h = tb.add_bulk(0, 1, None, 0);
        let gbps = tb.goodput_gbps(&[h], 0, 100 * MILLISECOND)[0];
        assert!(gbps > 8.0, "one flow should near line rate, got {gbps:.2}");
        assert!(gbps <= 10.0);
    }

    #[test]
    fn sub_window_goodput_never_exceeds_line_rate() {
        let mut tb = Testbed::dumbbell(1, Scheme::Cubic, 9000);
        let h = tb.add_bulk(0, 1, None, 0);
        let mut start = 0;
        for end in [100, 200, 300, 400].map(|ms| ms * MILLISECOND) {
            let gbps = tb.goodput_gbps(&[h], start, end)[0];
            assert!(gbps > 8.0, "[{start}, {end}]: {gbps:.2}");
            assert!(
                gbps <= 10.0,
                "[{start}, {end}]: {gbps:.2} on a 10 GbE trunk"
            );
            start = end;
        }
    }

    #[test]
    fn goodput_is_the_bytes_acked_inside_the_window() {
        let (warmup, end) = (30 * MILLISECOND, 80 * MILLISECOND);
        let build = || {
            let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 9000);
            let flows: Vec<_> = (0..2)
                .map(|i| tb.add_bulk(i, 2 + i, None, i as u64 * 100_000))
                .collect();
            (tb, flows)
        };
        let (mut tb, flows) = build();
        let gbps = tb.goodput_gbps(&flows, warmup, end);

        let (mut twin, flows) = build();
        twin.run_until(warmup);
        let at_warmup: Vec<u64> = flows.iter().map(|&h| twin.acked_bytes(h)).collect();
        twin.run_until(end);
        for (i, (&h, before)) in flows.iter().zip(at_warmup).enumerate() {
            let after = twin.acked_bytes(h);
            assert!(after > before, "flow {i} moved data in the window");
            let bytes = after - before;
            let want = bytes as f64 * 8.0 / (end - warmup) as f64;
            assert_eq!(gbps[i], want, "flow {i}");
        }
    }

    #[test]
    fn probe_distribution_leaves_out_exactly_the_handshake_samples() {
        let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 1500);
        let _bulk = tb.add_bulk(0, 2, None, 0);
        let p = tb.add_pingpong(1, 3, 64, MILLISECOND, 0);
        tb.run_until(30 * MILLISECOND);
        let all = tb.rtt_samples_ms(p);
        let kept = &all[PROBE_HANDSHAKE_SAMPLES..];
        let mut d = tb.probe_rtt_ms(p);
        assert_eq!(d.len(), kept.len());
        // The mean first: it sums in insertion order, as `kept` does.
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        assert_eq!(d.mean(), Some(mean));
        let (lo, hi) = kept
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert_eq!((d.min(), d.max()), (Some(lo), Some(hi)));
    }

    #[test]
    fn aligned_trace_pairs_each_enforced_sample_with_the_latest_guest_sample() {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        tb.acdc.trace_windows = true;
        tb.build_dumbbell(2);
        let taps = ConnTaps { trace_cwnd: true };
        let app = Box::new(BulkSender::unlimited());
        let h = tb.add_flow(0, 2, Some(app), None, 0, taps);
        let _other = tb.add_bulk(1, 3, None, 0);
        tb.run_until(50 * MILLISECOND);
        let (guest_samples, trace) = tb.window_trace(h);

        let conn = tb.client_conn_index(h);
        let guest = tb.host_mut(0).cwnd_trace(conn).unwrap().clone();
        let enforced = tb
            .host_mut(0)
            .datapath()
            .table()
            .with_entry(&h.key, |e| e.rwnd().trace().unwrap().to_vec())
            .unwrap();
        assert_eq!(guest_samples, guest.len());
        assert_eq!(trace.len(), enforced.len());
        assert!(trace.len() > 100, "{} enforced samples", trace.len());
        let gs = guest.samples();
        for (s, &(at, rwnd)) in trace.iter().zip(&enforced) {
            let latest = gs.iter().rev().find(|g| g.at <= at).unwrap_or(&gs[0]);
            assert_eq!((s.at, s.enforced_rwnd), (at, rwnd));
            assert_eq!(s.guest_cwnd, latest.value, "at {at}");
        }
    }

    #[test]
    fn five_flows_share_the_bottleneck() {
        let mut tb = Testbed::dumbbell(5, Scheme::Dctcp, 9000);
        let flows: Vec<_> = (0..5).map(|i| tb.add_bulk(i, 5 + i, None, 0)).collect();
        let tputs = tb.goodput_gbps(&flows, 0, 200 * MILLISECOND);
        let total: f64 = tputs.iter().sum();
        assert!(total > 8.0 && total <= 10.0, "total {total:.2}");
        let jain = acdc_stats::jain_index(&tputs).unwrap();
        assert!(jain > 0.9, "DCTCP flows should share fairly: {jain:.3}");
    }

    #[test]
    fn acdc_scheme_creates_datapath_flows() {
        let mut tb = Testbed::dumbbell(1, Scheme::acdc(), 1500);
        let _h = tb.add_bulk(0, 1, Some(1_000_000), 0);
        tb.run_until(50 * MILLISECOND);
        let flows = tb.host_mut(0).datapath().flows();
        assert!(flows >= 2, "AC/DC tracks both directions, got {flows}");
        let rewrites = tb.host_mut(0).datapath().counters().rwnd_rewrites.get();
        assert!(rewrites > 0, "enforcement must have engaged");
    }

    #[test]
    fn bounded_transfer_completes_and_records_fct() {
        let mut tb = Testbed::dumbbell(1, Scheme::Dctcp, 1500);
        let h = tb.add_bulk(0, 1, Some(5_000_000), 0);
        tb.run_until(SECOND);
        assert_eq!(tb.acked_bytes(h), 5_000_000);
        let fct = tb.fct_of(h);
        assert_eq!(fct.len(), 1);
        assert!(fct.samples()[0].fct() > 0);
    }

    #[test]
    fn pingpong_measures_rtts() {
        let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 1500);
        let p = tb.add_pingpong(0, 2, 64, MILLISECOND, 0);
        tb.run_until(100 * MILLISECOND);
        let rtts = tb.rtt_samples_ms(p);
        assert!(rtts.len() > 50, "expected ~100 pings, got {}", rtts.len());
        // Idle network: RTT ≈ a couple of hops, well under a millisecond.
        let median = {
            let mut d = acdc_stats::Distribution::new();
            d.extend(rtts.iter().copied());
            d.median().unwrap()
        };
        assert!(median < 0.5, "idle RTT should be tiny, got {median}ms");
    }

    #[test]
    fn parking_lot_routes_all_senders_to_receiver() {
        let mut tb = Testbed::parking_lot(3, Scheme::Dctcp, 9000);
        let rx = 3; // receiver index
        let flows: Vec<_> = (0..3)
            .map(|s| tb.add_bulk(s, rx, Some(2_000_000), 0))
            .collect();
        tb.run_until(SECOND);
        for f in flows {
            assert_eq!(tb.acked_bytes(f), 2_000_000, "sender {f:?}");
        }
    }

    #[test]
    fn rate_limiter_caps_throughput() {
        let mut tb = Testbed::dumbbell(1, Scheme::Cubic, 9000);
        tb.host_mut(0).set_rate_limit(2_000_000_000, 2 * 9000);
        let h = tb.add_bulk(0, 1, None, 0);
        let gbps = tb.goodput_gbps(&[h], 0, 100 * MILLISECOND)[0];
        assert!(gbps < 2.2, "rate limit must bind: {gbps:.2}");
        assert!(gbps > 1.5, "but throughput should approach it: {gbps:.2}");
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> (u64, u64) {
            let mut tb = Testbed::dumbbell(2, Scheme::acdc(), 1500);
            let a = tb.add_bulk(0, 2, None, 0);
            let b = tb.add_bulk(1, 3, None, 0);
            tb.run_until(50 * MILLISECOND);
            (tb.acked_bytes(a), tb.acked_bytes(b))
        }
        assert_eq!(run(), run());
    }
}
