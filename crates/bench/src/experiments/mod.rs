//! Experiment registry and shared helpers.

pub mod ablations;
pub mod common;
pub mod fig01;
pub mod fig02;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig1112;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig1819;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod parkinglot;
pub mod table1;
pub mod udpmix;

pub use common::{Opts, Report};

/// All experiment ids, in figure order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "parkinglot",
    "table1",
    "ablations",
    "udpmix",
];

/// Run one experiment by id.
pub fn run(id: &str, opts: &Opts) -> Option<Report> {
    Some(match id {
        "fig1" => fig01::run(opts),
        "fig2" => fig02::run(opts),
        "fig6" => fig06::run(opts),
        "fig8" => fig08::run(opts),
        "fig9" => fig09::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig1112::run_sender(opts),
        "fig12" => fig1112::run_receiver(opts),
        "fig13" => fig13::run(opts),
        "fig14" => fig14::run(opts),
        "fig15" => fig15::run(opts),
        "fig16" => fig16::run(opts),
        "fig17" => fig17::run(opts),
        "fig18" => fig1819::run_fig18(opts),
        "fig19" => fig1819::run_fig19(opts),
        "fig20" => fig20::run(opts),
        "fig21" => fig21::run(opts),
        "fig22" => fig22::run(opts),
        "fig23" => fig23::run(opts),
        "parkinglot" => parkinglot::run(opts),
        "table1" => table1::run(opts),
        "ablations" => ablations::run(opts),
        "udpmix" => udpmix::run(opts),
        _ => return None,
    })
}
