//! The ledger: where a workload's wall time per packet goes, layer by
//! layer, with what is left over stated rather than hidden.

use crate::tracer::Tracer;
use crate::units::UnitCosts;
use crate::workload::Rep;

/// One workload's ledger. Rows are ns per packet.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub rows: Vec<(&'static str, f64, String)>,
    /// Untraced wall ns per packet the rows are held against.
    pub w: f64,
}

impl Ledger {
    pub fn attributed(&self) -> f64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// `W` minus everything attributed: the host glue on the Testbed
    /// workloads, loop and tracing overhead on the datapath ones.
    pub fn residual(&self) -> f64 {
        self.w - self.attributed()
    }

    pub fn attributed_share(&self) -> f64 {
        self.attributed() / self.w
    }

    pub fn print(&self, workload: &str) {
        eprintln!("ledger {workload}: ns per packet against W = {:.1}", self.w);
        for (layer, ns, how) in &self.rows {
            eprintln!(
                "  {layer:<16} {ns:>9.1}  {:>5.1} %  {how}",
                100.0 * ns / self.w
            );
        }
        eprintln!(
            "  {:<16} {:>9.1}  {:>5.1} %",
            "attributed",
            self.attributed(),
            100.0 * self.attributed_share()
        );
        eprintln!(
            "  {:<16} {:>9.1}  {:>5.1} %  W - attributed (core.residual_ns_per_pkt)",
            "residual",
            self.residual(),
            100.0 * self.residual() / self.w
        );
    }
}

/// Full-pipeline workloads: unit costs times the traced rep's exact
/// counts, per packet delivered to a host NIC. Each such packet was built
/// once, crossed a vSwitch twice (egress at its sender, ingress at its
/// receiver), the network once, was verified once and met two endpoints.
pub fn testbed(units: &UnitCosts, traced: &Rep, w: f64) -> Ledger {
    let u = |name: &str| units.value(name);
    let data = traced.count("ledger.data_share");
    let ack = 1.0 - data;
    let vswitch = data * (u("vswitch.snd_data_ns_1k") + u("vswitch.rcv_data_ns_1k"))
        + ack * (u("vswitch.rcv_ack_ns_1k") + u("vswitch.snd_ack_ns_1k"));
    let per_event = u("netsim.bare_fwd_ns") / u("netsim.bare_events_per_pkt").max(1.0);
    let events = traced.count("netsim.events_per_pkt");
    Ledger {
        rows: vec![
            (
                "packet",
                u("packet.build_ns") + u("packet.verify_ns"),
                "build_ns + verify_ns".to_string(),
            ),
            (
                "vswitch",
                vswitch,
                format!(
                    "kind costs at 1k flows, {:.0} % data / {:.0} % ACKs",
                    100.0 * data,
                    100.0 * ack
                ),
            ),
            (
                "tcp",
                // The back-to-back transfer builds its segments too; that
                // part is already on the packet row.
                (u("tcp.xfer_ns_per_seg") - u("packet.build_ns")).max(0.0),
                "xfer_ns_per_seg - build_ns".to_string(),
            ),
            (
                "netsim",
                events * per_event,
                format!("{events:.2} events x {per_event:.1} ns (bare_fwd_ns per event)"),
            ),
        ],
        w,
    }
}

/// Datapath workloads: the traced reps' wall ns per packet, split over the
/// vSwitch spans recorded around them in proportion to their self times.
/// Held against the untraced `w`, the rows differ from it by the tracing
/// overhead and nothing else.
pub fn datapath(tracer: &Tracer, w_traced: f64, w: f64) -> Ledger {
    let spans: Vec<_> = tracer
        .self_times_under("rep")
        .into_iter()
        .filter(|(name, _, _)| name.starts_with("vswitch."))
        .collect();
    let total: u64 = spans.iter().map(|s| s.1).sum();
    let rows = spans
        .into_iter()
        .map(|(name, ns, calls)| {
            (
                name,
                w_traced * ns as f64 / total.max(1) as f64,
                format!("share of span self time, {calls} calls"),
            )
        })
        .collect();
    Ledger { rows, w }
}
