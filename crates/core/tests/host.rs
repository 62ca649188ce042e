//! Direct tests of the host node: TSQ gating, rate limiting, timer
//! plumbing — via a minimal two-host network.

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, FlowHandle, Scheme, Testbed, TraceSender};
use acdc_faults::FaultPlan;
use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use acdc_tcp::TcpState;
use acdc_vswitch::DatapathCheckpoint;
use acdc_workloads::apps::{BulkSender, MessageSender};
use acdc_workloads::{FctKind, FlowSizeDist};

/// A bulk flow and a mice flow sharing one host NIC: per-connection TSQ
/// must keep the mice from queueing behind the bulk flow's window.
#[test]
fn tsq_isolates_mice_from_bulk_on_the_same_nic() {
    let mut tb = Testbed::star(3, Scheme::Cubic, 9000);
    // Bulk host 0 → host 1; mice host 0 → host 2 (different receiver, so
    // only the *sender-side* NIC is shared).
    let _bulk = tb.add_flow(
        0,
        1,
        Some(Box::new(BulkSender::unlimited())),
        None,
        0,
        ConnTaps::default(),
    );
    let mice = tb.add_flow(
        0,
        2,
        Some(Box::new(MessageSender::new(
            16_384,
            5 * MILLISECOND,
            None,
            FctKind::Mice,
        ))),
        None,
        0,
        ConnTaps::default(),
    );
    tb.run_until(SECOND);
    let fct = tb.fct_of(mice);
    let mut d = fct.distribution_ms(FctKind::Mice);
    assert!(d.len() > 150, "mice kept flowing: {}", d.len());
    let p99 = d.percentile(99.0).unwrap();
    // Without TSQ the bulk flow would park its whole window (up to the
    // 4 MB receive buffer ≈ 3.3 ms of NIC time) ahead of every mouse.
    assert!(
        p99 < 1.0,
        "mice p99 {p99:.3} ms must stay well under bulk-window bufferbloat"
    );
}

/// The host egress token bucket caps the sum of all its flows.
#[test]
fn rate_limit_applies_to_the_whole_host() {
    let mut tb = Testbed::dumbbell(2, Scheme::Cubic, 9000);
    tb.host_mut(0).set_rate_limit(1_000_000_000, 32_000); // 1 Gbps
    let f1 = tb.add_bulk(0, 2, None, 0);
    let f2 = tb.add_bulk(0, 3, None, 0); // second flow, same host
    let unlimited = tb.add_bulk(1, 3, None, 0); // different host, no limit
    let g = tb.goodput_gbps(&[f1, f2, unlimited], 0, 200 * MILLISECOND);
    let (g1, g2, gu) = (g[0], g[1], g[2]);
    assert!(
        g1 + g2 < 1.1,
        "host limit must bound the sum: {g1:.2} + {g2:.2}"
    );
    assert!(gu > 5.0, "other hosts unaffected: {gu:.2}");
}

/// Flows scheduled to start later actually wait, and `set_flow_stop`
/// freezes a flow's progress at the requested time.
#[test]
fn start_and_stop_schedules_are_honoured() {
    let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 9000);
    let early = tb.add_bulk(0, 2, None, 0);
    let late = tb.add_bulk(1, 3, None, 100 * MILLISECOND);
    tb.set_flow_stop(early, 50 * MILLISECOND);
    tb.run_until(60 * MILLISECOND);
    let early_at_60 = tb.acked_bytes(early);
    assert!(early_at_60 > 0);
    assert_eq!(tb.acked_bytes(late), 0, "late flow not started yet");
    tb.run_until(200 * MILLISECOND);
    let early_final = tb.acked_bytes(early);
    assert!(
        early_final - early_at_60 < 2_000_000,
        "stopped flow only drained in-flight data ({} more bytes)",
        early_final - early_at_60
    );
    assert!(tb.acked_bytes(late) > 10_000_000, "late flow ran");
}

/// Datapath counters accumulate across all of a host's flows.
#[test]
fn per_host_datapath_counters_aggregate_flows() {
    let mut tb = Testbed::star(3, Scheme::acdc(), 1500);
    let _a = tb.add_bulk(0, 2, Some(2_000_000), 0);
    let _b = tb.add_bulk(0, 2, Some(2_000_000), 0);
    let _c = tb.add_bulk(1, 2, Some(2_000_000), 0);
    tb.run_until(SECOND);
    // Host 0 tracked 2 connections (4 directions), host 1 one (2).
    assert_eq!(tb.host_mut(0).datapath().flows(), 4);
    assert_eq!(tb.host_mut(1).datapath().flows(), 2);
    // The receiver host saw PACK-worthy traffic from both senders.
    let packs = tb.host_mut(2).datapath().counters().packs_sent.get();
    assert!(packs > 0, "receiver-side module attached feedback");
}

/// Hosts keep distinct per-connection ephemeral ports.
#[test]
fn flow_keys_are_unique_per_host() {
    let mut tb = Testbed::star(3, Scheme::Dctcp, 1500);
    let h1 = tb.add_bulk(0, 2, Some(1_000), 0);
    let h2 = tb.add_bulk(0, 2, Some(1_000), 0);
    let h3 = tb.add_bulk(1, 2, Some(1_000), 0);
    assert_ne!(h1.key, h2.key);
    assert_ne!(h1.key.src_port, h2.key.src_port);
    assert_ne!(h1.key, h3.key);
    tb.run_until(100 * MILLISECOND);
    assert_eq!(tb.acked_bytes(h1), 1_000);
    assert_eq!(tb.acked_bytes(h2), 1_000);
    assert_eq!(tb.acked_bytes(h3), 1_000);
}

/// One host, 64 connections, each with deadlines of its own: 32 periodic
/// message senders (staggered starts, distinct periods) and 32 trickling
/// bulk flows (staggered starts and stops). A host timer services only
/// the connections that are due, so each of these must happen at its own
/// time although the host keeps waking for the other 63.
#[test]
fn every_connection_keeps_its_own_schedule_on_a_64_connection_host() {
    const MSG: u64 = 2_000; // two segments, so the ACK is not delayed
    const END: Nanos = 12 * MILLISECOND;
    let mut tb = Testbed::star(5, Scheme::acdc(), 1500);
    let period = |i: u64| 700 * MICROSECOND + i * 31 * MICROSECOND;
    let mut senders: Vec<(FlowHandle, Nanos)> = Vec::new();
    let mut bulks: Vec<(FlowHandle, Nanos)> = Vec::new();
    // (time, what is due then, flow)
    let mut schedule: Vec<(Nanos, bool, FlowHandle)> = Vec::new();
    for i in 0..32u64 {
        let server = 1 + (i as usize) % 4;
        let start = 100 * MICROSECOND + i * 37 * MICROSECOND + 500;
        let app = MessageSender::new(MSG, period(i), None, FctKind::Mice);
        let h = tb.add_flow(
            0,
            server,
            Some(Box::new(app)),
            None,
            start,
            ConnTaps::default(),
        );
        senders.push((h, period(i)));
        schedule.push((start, true, h));
        // A window of one segment: a packet per delayed-ACK timeout, so
        // the NIC stays idle enough for message FCTs to show lateness.
        let start = 150 * MICROSECOND + i * 53 * MICROSECOND;
        let stop = 6 * MILLISECOND + i * 41 * MICROSECOND;
        let h = tb.add_bulk_with_cc(
            0,
            server,
            CcKind::Cubic,
            false,
            None,
            start,
            ConnTaps::default(),
            Some(1_448),
        );
        tb.set_flow_stop(h, stop);
        bulks.push((h, stop));
        schedule.push((start, true, h));
        schedule.push((stop, false, h));
    }
    assert_eq!(tb.host_mut(0).conn_count(), 64);
    schedule.sort_by_key(|&(t, ..)| t);
    assert!(
        schedule.windows(2).all(|w| w[0].0 + 2 <= w[1].0),
        "checkpoints must be steppable one by one"
    );

    // A stopped bulk flow's stream is cut at what was already sent.
    let unlimited = 1u64 << 44;
    for (at, is_start, h) in schedule {
        tb.run_until(at - 1);
        if is_start {
            assert_eq!(tb.client_endpoint(h).state(), TcpState::Closed, "t={at}");
        } else {
            assert_eq!(tb.client_endpoint(h).queued_bytes(), unlimited, "t={at}");
        }
        tb.run_until(at);
        if is_start {
            assert_eq!(tb.client_endpoint(h).state(), TcpState::SynSent, "t={at}");
        } else {
            assert!(tb.client_endpoint(h).queued_bytes() < unlimited, "t={at}");
        }
    }
    tb.run_until(END);

    for (h, stop) in bulks {
        let ep = tb.client_endpoint(h);
        assert!(ep.acked_bytes() > 0, "bulk flow ran until {stop}");
        assert_eq!(ep.acked_bytes(), ep.queued_bytes(), "and drained after");
    }
    // A message is timed from when it was due, so one sent late (or only
    // when some other event happened to poll its connection) shows as a
    // long FCT, and one never sent as a missing sample.
    let on_time = 50 * MICROSECOND;
    for (h, period) in senders {
        let fct = tb.fct_of(h);
        let first = fct.samples()[0].start;
        let due = (END - on_time - first) / period + 1;
        assert!(
            fct.len() as u64 >= due,
            "{} of {due} messages, period {period}",
            fct.len()
        );
        for (k, s) in fct.samples().iter().enumerate() {
            assert_eq!(s.start, first + k as u64 * period);
            assert!(s.fct() < on_time, "message {k} took {} ns", s.fct());
        }
    }
}

/// The vSwitch maintenance tick is armed only while some connection has
/// unacknowledged data: an idle host lets the engine run dry, and the
/// tick comes back with the next message.
#[test]
fn maintenance_tick_follows_in_flight_data() {
    const DP_TICK: Nanos = 10 * MILLISECOND;
    let period = 100 * MILLISECOND;
    let mut tb = Testbed::star(2, Scheme::acdc(), 1500);
    let h = tb.add_messages(0, 1, 20_000, period, Some(2), 0);

    // First message acknowledged, every armed timer has fired: all that
    // is left in the whole network is the app's wake-up for the second.
    tb.run_until(50 * MILLISECOND);
    let fct = tb.fct_of(h);
    assert_eq!(fct.len(), 1);
    let second = fct.samples()[0].start + period;
    assert_eq!(tb.net.peek_time(), Some(second));

    // Second message acknowledged (and the receiver's superseded
    // delayed-ACK timers fired); the tick armed while it was in flight
    // is pending, one period after the wake-up that ran the overdue one.
    tb.run_until(second + 2 * MILLISECOND);
    assert_eq!(tb.fct_of(h).len(), 2);
    assert_eq!(tb.net.peek_time(), Some(second + DP_TICK));

    // It fires, finds nothing in flight, and is not armed again.
    tb.run_until(second + DP_TICK);
    assert!(!tb.net.has_events(), "idle host must not keep ticking");
    let events = tb.net.events_processed();
    tb.run_until(SECOND);
    assert_eq!(tb.net.events_processed(), events);
}

/// All-pairs trace generators on three hosts, every connection opening at
/// t = 0 (so equal deadlines abound): two runs are the same run.
#[test]
fn all_pairs_trace_scenario_is_deterministic() {
    fn run() -> (u64, Vec<u64>) {
        let n = 3;
        let mut tb = Testbed::star(n, Scheme::acdc(), 9000);
        let mut flows = Vec::new();
        for i in 0..n {
            for a in 0..2u64 {
                let mut conns = Vec::new();
                for d in (0..n).filter(|&d| d != i) {
                    let h = tb.add_flow(i, d, None, None, 0, ConnTaps::default());
                    conns.push(tb.client_conn_index(h));
                    flows.push(h);
                }
                let app = TraceSender::new(
                    conns,
                    FlowSizeDist::web_search(),
                    7 ^ ((i as u64) << 16) ^ a,
                    18 * MILLISECOND,
                );
                tb.host_mut(i).add_multi_app(Box::new(app));
            }
        }
        tb.run_until(20 * MILLISECOND);
        let acked = flows.iter().map(|&h| tb.acked_bytes(h)).collect();
        (tb.net.events_processed(), acked)
    }
    let (events, acked) = run();
    assert!(acked.iter().filter(|&&b| b > 0).count() > acked.len() / 2);
    assert_eq!(run(), (events, acked));
}

/// A host whose access link carries a fault plan restores from its own
/// checkpoint: the tap's counters live on the network hub, not in the
/// datapath hub the checkpoint carries, and after the restore the host
/// hub reports exactly what an uninterrupted twin's does.
#[test]
fn faulted_host_restores_like_an_uninterrupted_twin() {
    const CUT: Nanos = 50 * MILLISECOND;
    fn run(restore: bool) -> (String, String) {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        let plan = FaultPlan::new(0xACDC_0010)
            .with_iid_loss(0.01)
            .with_corruption(0.01);
        tb.set_host_fault(0, plan);
        tb.build_dumbbell(1);
        tb.add_bulk(0, 1, None, 0);
        tb.run_until(CUT);
        let host = tb.host_mut(0);
        let json = host.datapath().checkpoint(CUT, &[]).to_json();
        let next_seq = host.telemetry().recorder().total_recorded();
        if restore {
            let ckpt = DatapathCheckpoint::from_json(&json).expect("parses");
            let _old = host.replace_datapath();
            host.datapath().restore(&ckpt).expect("restores");
        }
        tb.run_until(2 * CUT);
        let link = tb.host_fault_stats(0).expect("host 0 is faulted");
        let stats = link.total();
        assert!(stats.random_drops > 0 && stats.corrupted > 0, "{stats:?}");
        let on_network_hub = tb.telemetry().registry().value("fault.host0.ab.corrupted");
        assert_eq!(on_network_hub, Some(link.a_to_b.corrupted));
        let hub = tb.host_mut(0).telemetry();
        // The restored ring starts empty at the checkpoint: compare the
        // events recorded since then.
        let dump: String = hub
            .recorder()
            .events()
            .iter()
            .filter(|e| e.seq >= next_seq)
            .map(|e| e.to_jsonl() + "\n")
            .collect();
        (hub.snapshot_json(2 * CUT), dump)
    }
    let restored = run(true);
    let twin = run(false);
    assert!(!restored.1.is_empty(), "no events after the cut");
    assert_eq!(restored, twin);
}
