//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` at the repo root lists the same names (a self-test
//! holds the two together); bounds live only there.

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// From counters, not from the clock: the same code on the same seed
    /// prints the same value on every machine, so `compare` holds the
    /// metric to exact equality.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        exact: true,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s", "lower"),
    timed("wall_ns_per_pkt", "ns", "lower"),
    timed("peak_rss_mb", "MB", "lower"),
];

/// One row per layer metric, from the traced run: unit costs from timed
/// loops, counts from public counters, and the simulated outcomes.
pub const PER_LAYER: &[Def] = &[
    timed("packet.build_ns", "ns", "lower"),
    timed("packet.verify_ns", "ns", "lower"),
    timed("packet.mutate_ns", "ns", "lower"),
    timed("packet.parse_ns", "ns", "lower"),
    timed("packet.pool_hit_share", "ratio", "higher"),
    exact("netsim.events_per_pkt", "count", "lower"),
    timed("netsim.bare_fwd_ns", "ns", "lower"),
    timed("netsim.wheel_op_ns_64", "ns", "lower"),
    timed("netsim.wheel_op_ns_64k", "ns", "lower"),
    exact("netsim.ce_mark_share", "ratio", "lower"),
    exact("netsim.drop_share", "ratio", "lower"),
    exact("netsim.queue_peak_kb", "kB", "lower"),
    timed("cc.dctcp_on_ack_ns", "ns", "lower"),
    timed("cc.cubic_on_ack_ns", "ns", "lower"),
    timed("tcp.xfer_ns_per_seg", "ns", "lower"),
    timed("tcp.conn_setup_ns", "ns", "lower"),
    exact("tcp.rtx_share", "ratio", "lower"),
    exact("tcp.timeouts", "count", "lower"),
    exact("tcp.endpoint_bytes", "B", "lower"),
    timed("vswitch.snd_data_ns_1k", "ns", "lower"),
    timed("vswitch.snd_data_ns_100k", "ns", "lower"),
    timed("vswitch.snd_ack_ns_1k", "ns", "lower"),
    timed("vswitch.snd_ack_ns_100k", "ns", "lower"),
    timed("vswitch.rcv_data_ns_1k", "ns", "lower"),
    timed("vswitch.rcv_data_ns_100k", "ns", "lower"),
    timed("vswitch.rcv_ack_ns_1k", "ns", "lower"),
    timed("vswitch.rcv_ack_ns_100k", "ns", "lower"),
    timed("vswitch.passthrough_ns", "ns", "lower"),
    timed("vswitch.added_snd_ns", "ns", "lower"),
    timed("vswitch.added_rcv_ns", "ns", "lower"),
    timed("vswitch.lookup_ns_1k", "ns", "lower"),
    timed("vswitch.lookup_ns_100k", "ns", "lower"),
    timed("vswitch.insert_ns", "ns", "lower"),
    timed("vswitch.remove_ns", "ns", "lower"),
    timed("vswitch.evict_ns_4k", "ns", "lower"),
    timed("vswitch.tick_ns_per_flow", "ns", "lower"),
    timed("vswitch.gc_ns_per_flow", "ns", "lower"),
    timed("vswitch.checkpoint_ns_per_flow", "ns", "lower"),
    timed("vswitch.restore_ns_per_flow", "ns", "lower"),
    exact("vswitch.bytes_per_flow", "B", "lower"),
    exact("vswitch.rwnd_rewrite_share", "ratio", "higher"),
    exact("vswitch.fack_share", "ratio", "lower"),
    exact("vswitch.inferred_timeouts", "count", "lower"),
    timed("workers.dispatch_overhead_ns", "ns", "lower"),
    timed("workers.batch_ns_n1", "ns", "lower"),
    timed("workers.batch_ns_n2", "ns", "lower"),
    timed("core.residual_ns_per_pkt", "ns", "lower"),
    exact("core.conns_per_host", "count", "lower"),
    timed("core.build_ms", "ms", "lower"),
    timed("telemetry.record_ns", "ns", "lower"),
    timed("telemetry.sample_ns_per_metric", "ns", "lower"),
    timed("telemetry.snapshot_ns_per_metric", "ns", "lower"),
    exact("telemetry.events_overwritten", "count", "lower"),
    timed("proc.cpu_share", "ratio", "higher"),
    exact("proc.allocs_per_pkt", "count", "lower"),
    exact("proc.alloc_bytes_per_pkt", "B", "lower"),
    timed("ledger.attributed_share", "ratio", "higher"),
    timed("trace.overhead_share", "ratio", "lower"),
    exact("sim.pkts", "count", "higher"),
    exact("sim.goodput_gbps", "Gbit/s", "higher"),
    exact("sim.latency_p99_ms", "ms", "lower"),
    exact("sim.latency_samples", "count", "higher"),
    exact("sim.jain", "index", "higher"),
    exact("sim.messages_done", "count", "higher"),
];
