//! Deterministic synthetic flow churn.
//!
//! The soak needs *distinct flows* in the hundreds of thousands without
//! paying for hundreds of thousands of simulated TCP endpoints. Churn
//! flows are therefore synthetic: hand-crafted segments injected
//! straight into one host's vSwitch (egress for the local guest's
//! packets, ingress for the remote side's), exactly like the datapath
//! integration tests do. Each flow runs a fixed script — SYN/SYN-ACK,
//! a few data/ACK rounds, FIN/FIN-ACK — so the table entry is created,
//! enforced against, closed and eventually garbage-collected.
//!
//! Every `ADOPT_EVERY`-th flow skips its handshake and leads with data:
//! the mid-stream adoption path (§3.1) then tracks it with an unlearned
//! window scale, which must stay log-only (never guess) for the whole
//! soak — including across checkpoint/restore.
//!
//! The generator is a pure function of its config and the virtual
//! clock: no RNG, no host state. That keeps the uninterrupted and the
//! restored soak runs byte-identical by construction.

use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP};
use acdc_stats::time::Nanos;
use acdc_vswitch::AcdcDatapath;

/// Client ports cycle through this many values before reusing one with
/// a different source address, keeping every flow key distinct.
const PORT_SPAN: u64 = 59_000;

/// Payload bytes per data segment.
const PAYLOAD: u32 = 1_000;

/// Data/ACK rounds per flow.
const DATA_SEGMENTS: u32 = 2;

/// Every `ADOPT_EVERY`-th flow skips its handshake (mid-stream adoption
/// with unlearned scale).
const ADOPT_EVERY: u64 = 7;

/// Shape of the churn stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Flows launched per wave.
    pub flows_per_wave: usize,
    /// Virtual time between waves.
    pub wave_period: Nanos,
}

/// Injects churn-flow packet scripts wave by wave (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct ChurnGenerator {
    cfg: ChurnConfig,
    next_wave: Nanos,
    launched: u64,
}

impl ChurnGenerator {
    /// A generator whose first wave fires at the first poll at or after
    /// time zero.
    pub(crate) fn new(cfg: ChurnConfig) -> ChurnGenerator {
        ChurnGenerator {
            cfg,
            next_wave: 0,
            launched: 0,
        }
    }

    /// Flows launched so far.
    pub(crate) fn launched(&self) -> u64 {
        self.launched
    }

    /// Inject every packet due at or before `now` into `dp`, stamped
    /// `now`, wave by wave and flow by flow. Advances the wave clock.
    pub(crate) fn poll(&mut self, now: Nanos, dp: &AcdcDatapath) {
        while self.next_wave <= now {
            for _ in 0..self.cfg.flows_per_wave {
                let id = self.launched;
                self.launched += 1;
                flow_script(id, now, dp);
            }
            self.next_wave += self.cfg.wave_period.max(1);
        }
    }
}

/// Inject flow `id`'s fixed packet script into `dp` at `now`.
fn flow_script(id: u64, now: Nanos, dp: &AcdcDatapath) {
    let egress = |seg| {
        let _ = dp.egress(now, seg);
    };
    let ingress = |seg| {
        let _ = dp.ingress(now, seg);
    };
    let src_ip = [
        172,
        16,
        (id / (250 * PORT_SPAN)) as u8,
        (id / PORT_SPAN % 250) as u8,
    ];
    let dst_ip = [172, 31, 0, 1];
    let sport = 1_024 + (id % PORT_SPAN) as u16;
    let dport = 5_001;
    let iss_c = 10_000 + id as u32;
    let iss_s = 900_000 + id as u32;
    let adopted = id.is_multiple_of(ADOPT_EVERY);

    let ip = |src: [u8; 4], dst: [u8; 4], ecn: Ecn| Ipv4Repr {
        src_addr: src,
        dst_addr: dst,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    };

    if !adopted {
        // Handshake: local guest SYN out, remote SYN-ACK in.
        let mut syn = TcpRepr::new(sport, dport);
        syn.seq = SeqNumber(iss_c);
        syn.flags = TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR;
        syn.window = 65_000;
        syn.options = vec![TcpOption::MaxSegmentSize(1_448), TcpOption::WindowScale(7)];
        egress(Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), syn, 0));

        let mut synack = TcpRepr::new(dport, sport);
        synack.seq = SeqNumber(iss_s);
        synack.ack = SeqNumber(iss_c + 1);
        synack.flags = TcpFlags::SYN | TcpFlags::ACK | TcpFlags::ECE;
        synack.window = 65_000;
        synack.options = vec![TcpOption::MaxSegmentSize(1_448), TcpOption::WindowScale(7)];
        ingress(Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), synack, 0));
    }

    // Data/ACK rounds. Adopted flows lead with data, exercising
    // mid-stream adoption at an arbitrary offset.
    for s in 0..DATA_SEGMENTS {
        let off = s * PAYLOAD;
        let mut data = TcpRepr::new(sport, dport);
        data.seq = SeqNumber(iss_c + 1 + off);
        data.ack = SeqNumber(iss_s + 1);
        data.flags = TcpFlags::ACK;
        data.window = 512;
        egress(Segment::new_tcp(
            ip(src_ip, dst_ip, Ecn::Ect0),
            data,
            PAYLOAD as usize,
        ));

        let mut ack = TcpRepr::new(dport, sport);
        ack.seq = SeqNumber(iss_s + 1);
        ack.ack = SeqNumber(iss_c + 1 + off + PAYLOAD);
        ack.flags = TcpFlags::ACK;
        ack.window = 500;
        ingress(Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), ack, 0));
    }

    // Close both directions so garbage collection reaps the entry.
    let fin_seq = iss_c + 1 + DATA_SEGMENTS * PAYLOAD;
    let mut fin = TcpRepr::new(sport, dport);
    fin.seq = SeqNumber(fin_seq);
    fin.ack = SeqNumber(iss_s + 1);
    fin.flags = TcpFlags::FIN | TcpFlags::ACK;
    fin.window = 512;
    egress(Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), fin, 0));

    let mut finack = TcpRepr::new(dport, sport);
    finack.seq = SeqNumber(iss_s + 1);
    finack.ack = SeqNumber(fin_seq + 1);
    finack.flags = TcpFlags::FIN | TcpFlags::ACK;
    finack.window = 500;
    ingress(Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), finack, 0));

    let mut last = TcpRepr::new(sport, dport);
    last.seq = SeqNumber(fin_seq + 1);
    last.ack = SeqNumber(iss_s + 2);
    last.flags = TcpFlags::ACK;
    last.window = 512;
    egress(Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), last, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::{MILLISECOND, SECOND};
    use acdc_vswitch::AcdcConfig;

    fn datapath() -> AcdcDatapath {
        AcdcDatapath::new(AcdcConfig::dctcp(1_500))
    }

    #[test]
    fn waves_fire_on_schedule_and_flows_are_distinct() {
        let dp = datapath();
        let mut gen = ChurnGenerator::new(ChurnConfig {
            flows_per_wave: 2,
            wave_period: 10,
        });
        gen.poll(0, &dp);
        assert_eq!(gen.launched(), 2, "first wave fires at time zero");
        gen.poll(5, &dp);
        assert_eq!(gen.launched(), 2, "no wave due before the period");
        // Waves due at 10, 20 and 30 are all injected by one poll.
        gen.poll(30, &dp);
        assert_eq!(gen.launched(), 8);

        // Every launched flow has a distinct key: 5000 flows are 5000
        // connections.
        let dp = datapath();
        let mut again = ChurnGenerator::new(ChurnConfig {
            flows_per_wave: 100,
            wave_period: 1,
        });
        for t in 0..50 {
            again.poll(t, &dp);
        }
        assert_eq!(dp.connections(), 5_000);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = ChurnConfig {
            flows_per_wave: 3,
            wave_period: 100 * MILLISECOND,
        };
        let (a, b) = (datapath(), datapath());
        let mut gen_a = ChurnGenerator::new(cfg.clone());
        let mut gen_b = ChurnGenerator::new(cfg);
        for t in [0, 100 * MILLISECOND, SECOND] {
            gen_a.poll(t, &a);
            gen_b.poll(t, &b);
            assert_eq!(
                a.checkpoint(t, &[]).to_json(),
                b.checkpoint(t, &[]).to_json()
            );
        }
        assert_eq!(a.connections(), 33);
    }
}
