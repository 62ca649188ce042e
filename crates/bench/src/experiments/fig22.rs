//! **Figure 22** — shuffle: every server sends 512 MB to every other
//! server in random order, at most two transfers at a time, plus the
//! 16 KB mice overlay. CDFs of mice and background FCTs.
//!
//! Scaled default: 24 MB transfers — the all-to-all contention pattern is
//! preserved while the run stays minutes-not-hours.

use acdc_stats::time::MILLISECOND;
use acdc_workloads::patterns::shuffle_orders;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::common::{mice_and_background, Background, Opts, Report, SEC, SERVERS};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig22", "shuffle: mice & background FCTs");
    let (bytes, period, deadline) = if opts.full {
        (512u64 << 20, 100 * MILLISECOND, 120 * SEC)
    } else {
        (24u64 << 20, 10 * MILLISECOND, 5 * SEC)
    };
    rep.line(format!(
        "shuffle {} MB × 16 peers per host (concurrency 2), mice 16 KB every {} ms",
        bytes >> 20,
        period / MILLISECOND
    ));
    // "A sender sends at most 2 flows simultaneously"; the shuffle is
    // repeated (the paper runs it 30 times) until near the deadline.
    let bg = Background {
        orders: shuffle_orders(SERVERS, &mut StdRng::seed_from_u64(opts.seed)),
        bytes,
        concurrency: 2,
        stagger: deadline / 60,
    };
    mice_and_background(&mut rep, &bg, period, deadline);
    rep.line("paper shape: DCTCP/AC/DC cut mice p50 by ~72% (p99.9 by 55%/73%) vs CUBIC;");
    rep.line("large-flow FCTs nearly identical across schemes");
    rep
}
