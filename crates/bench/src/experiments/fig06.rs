//! **Figure 6** — bounding the congestion window in the guest
//! (`snd_cwnd_clamp`) and bounding the enforced RWND in AC/DC yield
//! equivalent throughput control, for both MTUs. This is the calibration
//! curve administrators use to map a bandwidth cap to a window cap.

use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_stats::time::MILLISECOND;

use super::common::{Opts, Report};

/// Window caps swept, in packets/MSS units (the paper sweeps to 250 for
/// 1.5 KB and to 16 for 9 KB).
fn sweep(mtu: usize) -> Vec<u64> {
    if mtu == 1500 {
        vec![1, 2, 4, 8, 16, 32, 64, 125, 250]
    } else {
        vec![1, 2, 3, 4, 6, 8, 12, 16]
    }
}

/// Throughput with the *guest* window clamped.
fn tput_cwnd_clamp(mtu: usize, clamp_pkts: u64, dur: u64) -> f64 {
    let mut tb = Testbed::dumbbell(1, Scheme::Cubic, mtu);
    let mss = u64::from(acdc_tcp::TcpConfig::mss_for_mtu(mtu));
    let h = tb.add_bulk_with_cc(
        0,
        1,
        acdc_cc::CcKind::Cubic,
        false,
        None,
        0,
        ConnTaps::default(),
        Some(clamp_pkts * mss),
    );
    tb.goodput_gbps(&[h], 0, dur)[0]
}

/// Throughput with AC/DC's *enforced RWND* bounded.
fn tput_rwnd_bound(mtu: usize, clamp_pkts: u64, dur: u64) -> f64 {
    let mss = u64::from(acdc_tcp::TcpConfig::mss_for_mtu(mtu));
    let bound = clamp_pkts * mss;
    let mut tb = Testbed::custom(Scheme::acdc(), mtu);
    tb.acdc.max_rwnd_bytes = Some(bound);
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, None, 0);
    tb.goodput_gbps(&[h], 0, dur)[0]
}

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig6",
        "throughput vs max CWND (guest clamp) and max RWND (AC/DC bound)",
    );
    let dur = opts.dur(500 * MILLISECOND, 100 * MILLISECOND);
    for mtu in [1500usize, 9000] {
        rep.line(format!(
            "MTU {mtu}: window(pkts)  tput_cwnd(Gbps)  tput_rwnd(Gbps)"
        ));
        for w in sweep(mtu) {
            let c = tput_cwnd_clamp(mtu, w, dur);
            let r = tput_rwnd_bound(mtu, w, dur);
            rep.line(format!("    {w:>4}          {c:>7.2}          {r:>7.2}"));
        }
    }
    rep.line("paper shape: the two curves coincide and saturate at line rate once W ≥ BDP");
    rep
}
