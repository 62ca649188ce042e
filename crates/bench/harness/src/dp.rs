//! The three vSwitch-only workloads: one `AcdcDatapath`, hand-built
//! segments, no network and no guest TCP. The measured calls are
//! `AcdcDatapath::{egress, ingress, tick, gc}`; segments are built in
//! batches off the clock and outputs are checked off the clock.

use std::time::Instant;

use acdc_netsim::{Nanos, MILLISECOND};
use acdc_packet::{PackOption, Segment};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, Verdict};
use acdc_workers::{Direction, WorkerEngine};

use crate::pkt::{self, From};
use crate::tracer::Tracer;
use crate::util::{draw, Fnv, SplitMix64};
use crate::workload::{acdc_counters, Rep, Size};

/// Flows per batch of the steady workloads: two packets each, so a batch
/// is 4096 packets and every phase of it is over 64 calls per clock read.
const BATCH_FLOWS: usize = 2048;
/// Virtual time between consecutive packets.
const PKT_GAP: Nanos = 1_000;
/// One packet in this many carries a CE mark (ingress data) or a PACK
/// with marked bytes (ingress ACKs).
const MARK_EVERY: u64 = 8;

/// The four packet kinds a vSwitch sees, in the order a steady batch
/// offers them: data out of (`snd_data`) and ACKs back to (`snd_ack`) a
/// local sender, data in to (`rcv_data`) and ACKs out of (`rcv_ack`) a
/// local receiver. These are the directions they travel in.
const KIND_DIRS: [Direction; 4] = [
    Direction::Egress,
    Direction::Ingress,
    Direction::Ingress,
    Direction::Egress,
];

/// How a phase's segments reach the datapath.
#[derive(Clone, Copy)]
pub enum Via<'e> {
    /// `AcdcDatapath::{egress, ingress}`, one call per segment: what the
    /// workloads measure (workers n = 0).
    Direct,
    /// `WorkerEngine::dispatch`, one call per segment.
    Dispatch(&'e WorkerEngine),
    /// `WorkerEngine::process_batch_parallel`, one call per phase.
    Batch(&'e WorkerEngine),
}

/// The on-clock side of a workload: pushes pre-built segments through a
/// datapath, keeps the verdicts for the off-clock checks, and owns the
/// virtual clock and every running total.
pub struct Clock<'a> {
    tracer: &'a mut Tracer,
    count_allocs: bool,
    pub now: Nanos,
    pub wall_ns: u64,
    /// Wall ns of each batch (steady) or wave (churn), in order.
    slices: Vec<u64>,
    slice_ns: u64,
    pub pkts: u64,
    allocs: u64,
    alloc_bytes: u64,
    verdicts: Vec<Verdict>,
    forwarded: u64,
    extra: u64,
    pub drops: u64,
    /// Wall ns and calls per packet kind (steady workloads only).
    pub kind_ns: [u64; 4],
    pub kind_calls: [u64; 4],
}

impl<'a> Clock<'a> {
    pub fn new(tracer: &'a mut Tracer, count_allocs: bool) -> Clock<'a> {
        Clock {
            tracer,
            count_allocs,
            now: MILLISECOND,
            wall_ns: 0,
            slices: Vec::new(),
            slice_ns: 0,
            pkts: 0,
            allocs: 0,
            alloc_bytes: 0,
            verdicts: Vec::with_capacity(2 * BATCH_FLOWS),
            forwarded: 0,
            extra: 0,
            drops: 0,
            kind_ns: [0; 4],
            kind_calls: [0; 4],
        }
    }

    /// Time `f` as one measured layer call batch of `calls` calls.
    fn clocked(&mut self, name: &'static str, calls: u64, f: impl FnOnce(&mut Clock<'a>)) -> u64 {
        let window = count_alloc::window(self.count_allocs);
        let start = Instant::now();
        f(self);
        let end = Instant::now();
        let counted = window.close();
        self.allocs += counted.allocs;
        self.alloc_bytes += counted.alloc_bytes;
        let ns = (end - start).as_nanos() as u64;
        self.wall_ns += ns;
        self.slice_ns += ns;
        self.tracer.leaf(name, start, end, calls);
        ns
    }

    /// End the current batch or wave: what was clocked since the last cut
    /// becomes one slice.
    fn cut(&mut self) {
        self.slices.push(std::mem::take(&mut self.slice_ns));
    }

    /// One phase: every segment of `segs` through one entry point.
    fn push(
        &mut self,
        dp: &AcdcDatapath,
        via: Via<'_>,
        dir: Direction,
        kind: Option<usize>,
        segs: &mut Vec<Segment>,
    ) {
        let n = segs.len() as u64;
        if n == 0 {
            return;
        }
        let name = match dir {
            Direction::Egress => "vswitch.egress",
            Direction::Ingress => "vswitch.ingress",
        };
        let ns = self.clocked(name, n, |c| match via {
            Via::Direct => {
                for seg in segs.drain(..) {
                    let v = match dir {
                        Direction::Egress => dp.egress(c.now, seg),
                        Direction::Ingress => dp.ingress(c.now, seg),
                    };
                    c.verdicts.push(v);
                    c.now += PKT_GAP;
                }
            }
            Via::Dispatch(engine) => {
                for seg in segs.drain(..) {
                    c.verdicts.push(engine.dispatch(dp, c.now, dir, seg));
                    c.now += PKT_GAP;
                }
            }
            Via::Batch(engine) => {
                let batch = std::mem::take(segs);
                c.now += PKT_GAP * n;
                c.verdicts
                    .extend(engine.process_batch_parallel(dp, c.now, dir, batch));
            }
        });
        self.pkts += n;
        if let Some(k) = kind {
            self.kind_ns[k] += ns;
            self.kind_calls[k] += n;
        }
    }

    /// Tally the verdicts kept since the last call and release them.
    /// `check` sees each forwarded segment with its position.
    fn settle(&mut self, mut check: impl FnMut(usize, &Segment)) {
        for (i, v) in self.verdicts.iter().enumerate() {
            match v {
                Verdict::Forward(s) => {
                    self.forwarded += 1;
                    check(i, s);
                }
                Verdict::ForwardWithExtra(s, _) => {
                    self.forwarded += 1;
                    self.extra += 1;
                    check(i, s);
                }
                Verdict::Drop(_) => self.drops += 1,
            }
        }
        self.verdicts.clear();
    }
}

/// Everything a rep reports that both workload shapes share.
fn finish(rep: &mut Rep, dp: &AcdcDatapath, c: &Clock<'_>, pool_before: acdc_packet::PoolStats) {
    let counters: Vec<(String, u64)> = acdc_counters(dp.telemetry()).collect();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let mut fp = Fnv::default();
    for w in [c.pkts, c.forwarded, c.extra, c.drops] {
        fp.word(w);
    }
    for s in dp.flow_stats() {
        fp.word(s.key.hash64());
        for w in [
            s.cwnd,
            s.in_flight,
            s.srtt.unwrap_or(0),
            s.rx_total,
            s.rx_marked,
            s.policed,
        ] {
            fp.word(w);
        }
        fp.word(u64::from(s.closing));
    }
    for (_, v) in &counters {
        fp.word(*v);
    }
    rep.fingerprint = fp.finish();
    rep.slices = c.slices.clone();
    rep.pkts = c.pkts;

    let pool = acdc_packet::pool::global().stats();
    let (hits, misses) = (
        pool.hits - pool_before.hits,
        pool.misses - pool_before.misses,
    );
    let per_pkt = |x: f64| x / c.pkts.max(1) as f64;
    let feedback = counter("acdc.packs_sent") + counter("acdc.facks_sent");
    let m = &mut rep.counts;
    m.insert(
        "packet.pool_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert(
        "vswitch.rwnd_rewrite_share",
        per_pkt(counter("acdc.rwnd_rewrites")),
    );
    m.insert(
        "vswitch.fack_share",
        if feedback > 0.0 {
            counter("acdc.facks_sent") / feedback
        } else {
            0.0
        },
    );
    m.insert(
        "vswitch.inferred_timeouts",
        counter("acdc.inferred_timeouts"),
    );
    m.insert(
        "telemetry.events_overwritten",
        dp.telemetry().recorder().overwritten() as f64,
    );
    m.insert("proc.allocs_per_pkt", per_pkt(c.allocs as f64));
    m.insert("proc.alloc_bytes_per_pkt", per_pkt(c.alloc_bytes as f64));
    if counter("acdc.admission_rejects") > 0.0 {
        rep.errors.push(format!(
            "{} flows refused at the admission gate",
            counter("acdc.admission_rejects")
        ));
    }
}

// ---------------------------------------------------------------------
// dp_steady_*
// ---------------------------------------------------------------------

/// Sender-role flows (even ids) have the data sender behind this vSwitch;
/// receiver-role flows (odd ids) have the data receiver behind it.
fn sender_role(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Does packet `round` of flow `i` carry a mark under `seed`? Returns the
/// number of marked segments (0–2 of the last eight) when it does.
fn mark(seed: u64, i: usize, round: u32) -> Option<u32> {
    let h = draw(seed, ((i as u64) << 24) ^ u64::from(round));
    h.is_multiple_of(MARK_EVERY)
        .then_some(((h >> 8) % 3) as u32)
}

/// What [`Steady::sample`] measured, in wall ns per call.
pub struct RoundCost {
    /// By packet kind: `snd_data`, `snd_ack`, `rcv_data`, `rcv_ack`.
    pub per_kind: [f64; 4],
    pub per_pkt: f64,
}

/// A datapath holding `flows` established flows, half of each role,
/// visited round after round in a seeded permutation. Each visit is one
/// conversation step: a sender-role flow sends a data segment out and gets
/// the ACK for exactly that segment back in; a receiver-role flow gets a
/// data segment in and its guest's ACK goes out. So the CC/RWND path only
/// ever sees ACKs for data the egress side really sent.
pub struct Steady {
    pub dp: AcdcDatapath,
    order: Vec<usize>,
    seed: u64,
    /// Next position of `order` to visit, and complete passes so far: a
    /// flow before the cursor has exchanged `pass + 1` segments, the
    /// others `pass`.
    cursor: usize,
    pass: u32,
    /// Outputs that failed validation so far.
    pub bad_outputs: u64,
}

impl Steady {
    /// Build the datapath and take every flow through its handshake.
    pub fn new(flows: usize, seed: u64, cfg: AcdcConfig) -> Steady {
        let dp = AcdcDatapath::new(cfg);
        for i in 0..flows {
            if sender_role(i) {
                let _ = dp.egress(0, pkt::syn(i, From::Local));
                let _ = dp.ingress(1, pkt::syn_ack(i, From::Remote));
            } else {
                let _ = dp.ingress(0, pkt::syn(i, From::Remote));
                let _ = dp.egress(1, pkt::syn_ack(i, From::Local));
            }
        }
        let mut order: Vec<usize> = (0..flows).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        Steady {
            dp,
            order,
            seed,
            cursor: 0,
            pass: 0,
            bad_outputs: 0,
        }
    }

    /// Visit the next `flows` flows on a clock of their own, for the unit
    /// loops: ns per call of each packet kind, and over all of them.
    pub fn sample(&mut self, flows: usize, via: Via<'_>, validate: bool) -> RoundCost {
        let mut idle = Tracer::new(false);
        let mut c = Clock::new(&mut idle, false);
        self.run_slice(flows, &mut c, via, validate);
        RoundCost {
            per_kind: std::array::from_fn(|k| c.kind_ns[k] as f64 / c.kind_calls[k].max(1) as f64),
            per_pkt: c.wall_ns as f64 / c.pkts.max(1) as f64,
        }
    }

    /// Visit every flow once.
    pub fn run_round(&mut self, c: &mut Clock<'_>, via: Via<'_>, validate: bool) {
        self.run_slice(self.order.len(), c, via, validate);
    }

    /// Visit the next `flows` flows of the order (wrapping into the next
    /// pass), one conversation step each. `validate` checks each output
    /// off the clock (meaningless on a disabled datapath, which changes
    /// nothing).
    pub fn run_slice(&mut self, flows: usize, c: &mut Clock<'_>, via: Via<'_>, validate: bool) {
        let mut left = flows;
        let mut phases: [Vec<Segment>; 4] = Default::default();
        while left > 0 {
            let n = left.min(BATCH_FLOWS).min(self.order.len() - self.cursor);
            let chunk = &self.order[self.cursor..self.cursor + n];
            let round = self.pass;
            c.tracer.open("packet.build");
            for &i in chunk {
                let marked = mark(self.seed, i, round);
                if sender_role(i) {
                    phases[0].push(pkt::data(i, From::Local, round, false));
                    let pack = marked.map(|m| PackOption {
                        total_bytes: MARK_EVERY as u32 * pkt::PAYLOAD as u32,
                        marked_bytes: m * pkt::PAYLOAD as u32,
                    });
                    phases[1].push(pkt::ack(i, From::Remote, round, pack));
                } else {
                    phases[2].push(pkt::data(i, From::Remote, round, marked.is_some()));
                    phases[3].push(pkt::ack(i, From::Local, round, None));
                }
            }
            c.tracer.close(2 * n as u64, Vec::new());
            let (n_snd, n_rcv) = (phases[0].len(), phases[2].len());
            for (k, segs) in phases.iter_mut().enumerate() {
                c.push(&self.dp, via, KIND_DIRS[k], Some(k), segs);
            }
            // Off the clock: every output must still checksum, and each
            // phase must have left its mark on the packet.
            let mut bad = 0u64;
            c.settle(|pos, s| {
                if !validate {
                    return;
                }
                let ok = s.verify_checksums()
                    && s.try_meta().is_ok_and(|m| {
                        if pos < n_snd {
                            s.ecn().is_ect() // data out: ECT forced
                        } else if pos < 2 * n_snd {
                            m.pack.is_none() // ACK in: PACK stripped
                        } else if pos < 2 * n_snd + n_rcv {
                            !s.ecn().is_ce() // data in: CE laundered
                        } else {
                            m.pack.is_some() // ACK out: PACK attached
                        }
                    });
                if !ok {
                    bad += 1;
                }
            });
            self.bad_outputs += bad;
            c.cut();
            left -= n;
            self.cursor += n;
            if self.cursor == self.order.len() {
                self.cursor = 0;
                self.pass += 1;
            }
        }
    }

    /// Flows whose sender state, as the vSwitch reconstructed it, is not
    /// exactly what was sent and acknowledged.
    fn seq_mismatches(&self) -> u64 {
        self.order
            .iter()
            .enumerate()
            .filter(|&(pos, &i)| {
                let rounds = self.pass + u32::from(pos < self.cursor);
                let expect = pkt::local_seq_after(if sender_role(i) { rounds } else { 0 });
                !self
                    .dp
                    .seq_view(&pkt::key_out(i))
                    .is_some_and(|v| v.snd_una == expect && v.snd_nxt == expect)
            })
            .count() as u64
    }
}

pub fn run_steady(
    flows: usize,
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
    count_allocs: bool,
) -> Rep {
    let (flows, rounds) = match (size, flows) {
        (Size::Check, n) => (n.min(3_000), 2),
        (Size::Full, 1_000) => (1_000, 1_200),
        (Size::Full, n) => (n, 5),
    };
    let pool_before = acdc_packet::pool::global().stats();

    tracer.open("setup");
    let t = Instant::now();
    let mut s = Steady::new(flows, seed, AcdcConfig::dctcp(1500));
    let setup_ns = t.elapsed().as_nanos() as u64;
    tracer.close(flows as u64, Vec::new());

    let mut rep = Rep {
        setup_ns,
        ..Rep::default()
    };
    let mut c = Clock::new(tracer, count_allocs);
    for _ in 0..rounds {
        s.run_round(&mut c, Via::Direct, true);
    }

    rep.attempted = c.pkts;
    rep.failed = c.drops + s.bad_outputs;
    if s.bad_outputs > 0 {
        rep.errors
            .push(format!("{} outputs failed validation", s.bad_outputs));
    }
    let seq_mismatch = s.seq_mismatches();
    if seq_mismatch > 0 {
        rep.errors
            .push(format!("{seq_mismatch} flows with an unexpected seq_view"));
    }
    if s.dp.flows() != 2 * flows {
        rep.errors.push(format!(
            "table holds {} entries, expected {}",
            s.dp.flows(),
            2 * flows
        ));
    }
    // Enforcement and both feedback directions must have run.
    for name in [
        "acdc.rwnd_rewrites",
        "acdc.packs_received",
        "acdc.packs_sent",
    ] {
        if s.dp.telemetry().registry().value(name).unwrap_or(0) == 0 {
            rep.errors.push(format!("{name} = 0: that path never ran"));
        }
    }
    finish(&mut rep, &s.dp, &c, pool_before);
    rep
}

// ---------------------------------------------------------------------
// dp_churn
// ---------------------------------------------------------------------

/// Resident connections: handshaken once, then idle. Two entries each.
const RESIDENT_CONNS: usize = 5_000;
/// Short flows in progress at once (one wave, in lockstep).
const WAVE: usize = 64;
/// Data/ACK rounds of a short flow.
const SHORT_ROUNDS: u32 = 4;
/// One short flow in this many (which ones, the seed decides) skips its
/// handshake, as in `acdc-soak`: the vSwitch adopts it mid-stream with an
/// unlearned window scale.
const ADOPT_EVERY: u64 = 7;
const TABLE_CAP: usize = 16_384;
const MAINTENANCE: Nanos = 10 * MILLISECOND;

/// `tick` then `gc`, as the host's maintenance timer runs them.
fn maintain(c: &mut Clock<'_>, dp: &AcdcDatapath, idle_timeout: Nanos) {
    let entries = dp.flows() as u64;
    c.clocked("vswitch.tick", entries, |c| dp.tick(c.now));
    c.clocked("vswitch.gc", entries, |c| {
        dp.gc(c.now, idle_timeout);
    });
}

/// Writes beside reads: a table of idle residents, and a stream of short
/// flows that are created, enforced, closed and collected. `tick` and `gc`
/// run every 10 virtual ms.
pub fn run_churn(seed: u64, size: Size, tracer: &mut Tracer, count_allocs: bool) -> Rep {
    let (residents, waves) = match size {
        Size::Full => (RESIDENT_CONNS, 2_200),
        Size::Check => (500, 8),
    };
    let pool_before = acdc_packet::pool::global().stats();

    tracer.open("setup");
    let t = Instant::now();
    let cfg = AcdcConfig {
        max_flows: Some(TABLE_CAP),
        ..AcdcConfig::dctcp(1500)
    };
    let idle_timeout = cfg.gc_idle_timeout;
    let dp = AcdcDatapath::new(cfg);
    for i in 0..residents {
        let _ = dp.egress(0, pkt::syn(i, From::Local));
        let _ = dp.ingress(1, pkt::syn_ack(i, From::Remote));
    }
    // The seed decides which short-flow ids each wave draws.
    let mut ids: Vec<usize> = (residents..residents + waves * WAVE).collect();
    SplitMix64::new(seed).shuffle(&mut ids);
    let setup_ns = t.elapsed().as_nanos() as u64;
    tracer.close(residents as u64, Vec::new());

    let mut rep = Rep {
        setup_ns,
        ..Rep::default()
    };
    let mut c = Clock::new(tracer, count_allocs);
    let mut next_maintenance = c.now + MAINTENANCE;
    let mut bad_outputs = 0u64;
    // One wave = WAVE flows walking the same script in lockstep, so every
    // step is a run of same-direction calls.
    let steps = 2 + 2 * SHORT_ROUNDS as usize + 3;
    let mut script: Vec<(Direction, Vec<Segment>)> = Vec::new();
    for wave in ids.chunks(WAVE) {
        c.tracer.open("packet.build");
        script.clear();
        let mut built = 0u64;
        for step in 0..steps {
            let mut segs = Vec::with_capacity(WAVE);
            let mut dir = Direction::Egress;
            for &i in wave {
                let adopted = draw(seed, i as u64).is_multiple_of(ADOPT_EVERY);
                let (sd, seg) = match step {
                    0 | 1 if adopted => continue,
                    0 => (Direction::Egress, pkt::syn(i, From::Local)),
                    1 => (Direction::Ingress, pkt::syn_ack(i, From::Remote)),
                    s if s < steps - 3 => {
                        let round = ((s - 2) / 2) as u32;
                        if s % 2 == 0 {
                            (Direction::Egress, pkt::data(i, From::Local, round, false))
                        } else {
                            (Direction::Ingress, pkt::ack(i, From::Remote, round, None))
                        }
                    }
                    s if s == steps - 3 => (Direction::Egress, pkt::fin_local(i, SHORT_ROUNDS)),
                    s if s == steps - 2 => (Direction::Ingress, pkt::fin_remote(i, SHORT_ROUNDS)),
                    _ => (Direction::Egress, pkt::last_ack(i, SHORT_ROUNDS)),
                };
                dir = sd;
                segs.push(seg);
            }
            built += segs.len() as u64;
            script.push((dir, segs));
        }
        c.tracer.close(built, Vec::new());

        for (dir, segs) in &mut script {
            c.push(&dp, Via::Direct, *dir, None, segs);
            if c.now >= next_maintenance {
                maintain(&mut c, &dp, idle_timeout);
                next_maintenance = c.now + MAINTENANCE;
            }
        }
        c.settle(|_, s| {
            if !s.verify_checksums() {
                bad_outputs += 1;
            }
        });
        c.cut();
    }
    // A last sweep collects the flows that closed since the previous one.
    c.now += MAINTENANCE;
    maintain(&mut c, &dp, idle_timeout);
    c.cut();

    // Op = short flow.
    rep.attempted = ids.len() as u64;
    let rejects = dp
        .telemetry()
        .registry()
        .value("acdc.admission_rejects")
        .unwrap_or(0);
    rep.failed = rejects + c.drops + bad_outputs;
    if c.drops + bad_outputs > 0 {
        rep.errors.push(format!(
            "{} drops, {bad_outputs} outputs failed validation",
            c.drops
        ));
    }
    if dp.flows() != 2 * residents {
        rep.errors.push(format!(
            "table holds {} entries after the final gc, expected {}",
            dp.flows(),
            2 * residents
        ));
    }
    if dp.health() != acdc_vswitch::HealthState::Enforcing {
        rep.errors
            .push(format!("datapath ended in {:?}", dp.health()));
    }
    finish(&mut rep, &dp, &c, pool_before);
    rep
}
