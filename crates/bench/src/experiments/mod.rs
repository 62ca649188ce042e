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

/// What runs one experiment.
pub type Run = fn(&Opts) -> Report;

/// Every experiment, in figure order: its id and what runs it.
pub const ALL: &[(&str, Run)] = &[
    ("fig1", fig01::run),
    ("fig2", fig02::run),
    ("fig6", fig06::run),
    ("fig8", fig08::run),
    ("fig9", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig1112::run_sender),
    ("fig12", fig1112::run_receiver),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig1819::run_fig18),
    ("fig19", fig1819::run_fig19),
    ("fig20", fig20::run),
    ("fig21", fig21::run),
    ("fig22", fig22::run),
    ("fig23", fig23::run),
    ("parkinglot", parkinglot::run),
    ("table1", table1::run),
    ("ablations", ablations::run),
    ("udpmix", udpmix::run),
];

/// All experiment ids, in figure order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    ALL.iter().map(|&(id, _)| id)
}

/// Run one experiment by id.
pub fn run(id: &str, opts: &Opts) -> Option<Report> {
    ALL.iter()
        .find(|&&(i, _)| i == id)
        .map(|(_, run)| run(opts))
}
