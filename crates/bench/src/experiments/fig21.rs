//! **Figure 21** — concurrent stride: 17 servers each send 512 MB to
//! servers `i+1..=i+4` sequentially (background) while sending 16 KB
//! messages every 100 ms to server `(i+8) mod 17` (mice). CDFs of mice
//! and background FCTs, per scheme.
//!
//! Scaled default: 64 MB background transfers and 16 KB/10 ms mice —
//! same contention structure, shorter wall-clock.

use acdc_stats::time::MILLISECOND;
use acdc_workloads::patterns::stride_background;

use super::common::{mice_and_background, Background, Opts, Report, SEC, SERVERS};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig21", "concurrent stride: mice & background FCTs");
    let (bytes, period, deadline) = if opts.full {
        (512u64 << 20, 100 * MILLISECOND, 60 * SEC)
    } else {
        (64u64 << 20, 10 * MILLISECOND, 4 * SEC)
    };
    rep.line(format!(
        "background {} MB ×4 per host, mice 16 KB every {} ms",
        bytes >> 20,
        period / MILLISECOND
    ));
    let bg = Background {
        orders: stride_background(SERVERS, 4),
        bytes,
        concurrency: 1,
        stagger: deadline / 40,
    };
    mice_and_background(&mut rep, &bg, period, deadline);
    rep.line("paper shape: DCTCP/AC/DC cut mice p50 by ~77% and p99.9 by ~91–93% vs CUBIC;");
    rep.line("background FCTs similar for DCTCP/AC/DC, longer for CUBIC (worse fairness)");
    rep
}
