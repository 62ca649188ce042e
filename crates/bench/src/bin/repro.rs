//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <id>... [--full] [--seed N] [--out DIR]   run specific experiments
//! repro all [--full]                              run everything, in order
//! repro list                                      list experiment ids
//! ```
//!
//! With `--out DIR`, each report is additionally written to
//! `DIR/<id>.txt` (the raw material for EXPERIMENTS.md).

#![forbid(unsafe_code)]

use acdc_bench::experiments::{self, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--out" => {
                out_dir = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory")),
                );
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "list" => {
                for id in experiments::ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(experiments::ids().map(String::from)),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage("no experiment given");
    }
    for id in &ids {
        #[allow(clippy::disallowed_methods)] // wall-clock progress reporting
        let start = std::time::Instant::now();
        match experiments::run(id, &opts) {
            Some(report) => {
                print!("{report}");
                println!("[{} finished in {:.1?}]\n", id, start.elapsed());
                if let Some(dir) = &out_dir {
                    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                        std::fs::write(dir.join(format!("{id}.txt")), format!("{report}"))
                    }) {
                        eprintln!("warning: could not write report for {id}: {e}");
                    }
                }
            }
            None => usage(&format!("unknown experiment {id}")),
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: repro <id>... [--full] [--seed N] | repro all | repro list");
    eprintln!("ids: {}", experiments::ids().collect::<Vec<_>>().join(" "));
    std::process::exit(2);
}
