//! One workload in one process: the timed run (`--trace 0`, end-to-end
//! metrics) or the traced run (`--trace 1`, per-layer metrics, spans and
//! the ledger).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{num, quote};
use crate::ledger;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::proc;
use crate::tracer::Tracer;
use crate::units;
use crate::util::{quartiles, Quartiles};
use crate::workload::{is_testbed, run_rep, Rep, Size};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the process may measure for, warm-up included. Reps are
    /// fixed work; this only decides how many of them feed each figure.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans.
    pub spans_out: Option<String>,
}

/// One workload's results, ready to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub args: Args,
    /// Metric name → value with its spread.
    pub metrics: BTreeMap<&'static str, Quartiles>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub errors: Vec<String>,
    /// Timed reps (timed run) or traced reps (traced run).
    pub reps: usize,
    /// CPU time over wall time while reps ran; well below 1 means
    /// something else had the core.
    pub cpu_share: f64,
}

/// Timed reps are taken until this many exist, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Pairs of untraced and traced reps a traced run takes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// Wall ns per packet of a set of reps. Every slice is the same work on
/// every rep and interference only ever adds time, so each slice is taken
/// at its fastest across the reps and the slices are summed: the cost of
/// the work with the machine at its least disturbed. On this sandbox that
/// is two to three times steadier from run to run than a median of reps,
/// whose totals any burst of interference moves.
fn fastest_slices(reps: &[&Rep]) -> f64 {
    let first = reps[0];
    assert!(
        reps.iter()
            .all(|r| r.slices.len() == first.slices.len() && r.pkts == first.pkts),
        "reps are fixed work: same slices, same packets"
    );
    let total: u64 = (0..first.slices.len())
        .map(|i| reps.iter().map(|r| r.slices[i]).min().unwrap_or(0))
        .sum();
    total as f64 / first.pkts.max(1) as f64
}

/// [`fastest_slices`] over all reps, with the same figure from the
/// even-numbered and from the odd-numbered reps alone as the quartiles:
/// two halves of a quiet run agree, and how far they disagree says how far
/// the figure can be trusted.
fn wall_ns_per_pkt(reps: &[Rep]) -> Quartiles {
    let all: Vec<&Rep> = reps.iter().collect();
    let half = |odd: usize| {
        let picked: Vec<&Rep> = all.iter().copied().skip(odd).step_by(2).collect();
        if picked.is_empty() {
            fastest_slices(&all)
        } else {
            fastest_slices(&picked)
        }
    };
    let (even, odd) = (half(0), half(1));
    Quartiles {
        q1: even.min(odd),
        value: fastest_slices(&all),
        q3: even.max(odd),
        n: reps.len(),
    }
}

/// The reps of one process, the checks they must all pass, and the time
/// they may take.
struct Session<'a> {
    args: &'a Args,
    tracer: Tracer,
    started: Instant,
    /// Wall seconds of the longest rep so far, to stop before `seconds`
    /// rather than a rep past it.
    longest_rep: f64,
    reference: Option<u64>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Session<'_> {
    /// One more rep, checked: no failed check of its own, and the same
    /// fingerprint as the first rep of the process.
    fn rep(&mut self, traced: bool) -> Rep {
        let t = Instant::now();
        self.tracer.set_on(traced);
        if traced {
            self.tracer.open("rep");
        }
        let a = self.args;
        let rep = run_rep(&a.workload, a.seed, a.size, &mut self.tracer, traced);
        if traced {
            self.tracer.close(rep.pkts, Vec::new());
        }
        self.longest_rep = self.longest_rep.max(t.elapsed().as_secs_f64());

        let reference = *self.reference.get_or_insert(rep.fingerprint);
        if rep.fingerprint != reference {
            self.errors.push(format!(
                "fingerprint {:016x} differs from the first rep's {reference:016x}",
                rep.fingerprint
            ));
        }
        for e in &rep.errors {
            if !self.errors.contains(e) {
                self.errors.push(e.clone());
            }
        }
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        rep
    }

    /// Is there time for `reps` more reps?
    fn time_for(&self, reps: usize) -> bool {
        self.started.elapsed().as_secs_f64() + reps as f64 * self.longest_rep < self.args.seconds
    }

    fn outcome(
        self,
        metrics: BTreeMap<&'static str, Quartiles>,
        reps: usize,
        cpu_share: f64,
    ) -> Outcome {
        Outcome {
            args: self.args.clone(),
            metrics,
            correct: self.errors.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            fingerprint: self.reference.unwrap_or(0),
            errors: self.errors,
            reps,
            cpu_share,
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let s = Session {
        args,
        tracer: Tracer::new(false),
        started: Instant::now(),
        longest_rep: 0.0,
        reference: None,
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    if args.trace {
        traced_run(s)
    } else {
        timed_run(s)
    }
}

fn timed_run(mut s: Session<'_>) -> Outcome {
    // Warm-up: pool, allocator and caches fill; its timings are dropped,
    // its set-up sample and its ops are not.
    let warm = s.rep(false);
    let mut metrics = BTreeMap::new();
    let (clock, cpu0) = (Instant::now(), proc::cpu_seconds());
    let mut setups = vec![warm.setup_ns as f64 / 1e9];
    let mut timed: Vec<Rep> = Vec::new();
    while timed.len() < MIN_REPS || s.time_for(1) {
        let rep = s.rep(false);
        setups.push(rep.setup_ns as f64 / 1e9);
        timed.push(rep);
        if timed.len() == MIN_REPS {
            // Peak memory after a fixed amount of work, so that it does
            // not depend on how many reps the machine fits in the time.
            metrics.insert("peak_rss_mb", quartiles(&[proc::peak_rss_mb()]));
        }
    }
    let cpu_share = (proc::cpu_seconds() - cpu0) / clock.elapsed().as_secs_f64();
    metrics.insert("setup_s", quartiles(&setups));
    metrics.insert("wall_ns_per_pkt", wall_ns_per_pkt(&timed));
    s.outcome(metrics, timed.len(), cpu_share)
}

fn traced_run(mut s: Session<'_>) -> Outcome {
    let args = s.args;
    // Unit costs first, in a process that has done nothing else: the pool
    // and the heap are in the same state whatever the workload, so the
    // same loop prints the same cost in all six traced runs.
    s.tracer.set_on(true);
    let costs = units::measure(&mut s.tracer, args.seed, args.size == Size::Check);
    // Then a warm-up rep, then untraced and traced reps in alternation so
    // drift hits both alike. One unit loop ran a second thread; CPU share
    // is about the reps.
    s.rep(false);
    let (clock, cpu0) = (Instant::now(), proc::cpu_seconds());
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    while traced.len() < MIN_TRACED_PAIRS || s.time_for(2) {
        plain.push(s.rep(false));
        traced.push(s.rep(true));
    }
    let cpu_share = (proc::cpu_seconds() - cpu0) / clock.elapsed().as_secs_f64();

    // Allocation counts are exact: they must repeat on every traced rep.
    for name in ["proc.allocs_per_pkt", "proc.alloc_bytes_per_pkt"] {
        if traced
            .iter()
            .any(|r| r.count(name) != traced[0].count(name))
        {
            let seen: Vec<f64> = traced.iter().map(|r| r.count(name)).collect();
            s.errors.push(format!(
                "{name} did not repeat across traced reps: {seen:?}"
            ));
        }
    }

    let w = &args.workload;
    let (w_plain, w_traced) = (wall_ns_per_pkt(&plain), wall_ns_per_pkt(&traced));
    let last = traced.last().expect("at least two traced reps");
    let book = if is_testbed(w) {
        ledger::testbed(&costs, last, w_plain.value)
    } else {
        ledger::datapath(&s.tracer, w_traced.value, w_plain.value)
    };
    book.print(w);
    eprintln!(
        "  traced W = {:.1} ns/pkt, untraced W = {:.1} ns/pkt",
        w_traced.value, w_plain.value
    );

    let exact = |v: f64| quartiles(&[v]);
    let mut metrics = costs.0;
    for (name, v) in &last.counts {
        metrics.insert(name, exact(*v));
    }
    metrics.insert("core.build_ms", exact(last.setup_ns as f64 / 1e6));
    metrics.insert("core.residual_ns_per_pkt", exact(book.residual()));
    metrics.insert("ledger.attributed_share", exact(book.attributed_share()));
    metrics.insert(
        "trace.overhead_share",
        exact((w_traced.value - w_plain.value) / w_plain.value),
    );
    metrics.insert("proc.cpu_share", exact(cpu_share));
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, s.tracer.to_json(w)) {
            s.errors.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    let reps = traced.len();
    s.outcome(metrics, reps, cpu_share)
}

/// The contract's last line of standard output.
pub fn contract_line(o: &Outcome) -> String {
    let defs: &[Def] = if o.args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = o.metrics.get(d.name).map_or(0.0, |q| q.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                num(v),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}
