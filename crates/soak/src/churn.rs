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
//! Every `adopt_every`-th flow skips its handshake and leads with data:
//! the mid-stream adoption path (§3.1) then tracks it with an unlearned
//! window scale, which must stay log-only (never guess) for the whole
//! soak — including across checkpoint/restore.
//!
//! The generator is a pure function of its config and the virtual
//! clock: no RNG, no host state. That keeps the uninterrupted and the
//! restored soak runs byte-identical by construction.

use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP};
use acdc_stats::time::{Nanos, MILLISECOND};
use acdc_workers::Direction;

/// Client ports cycle through this many values before reusing one with
/// a different source address, keeping every flow key distinct.
const PORT_SPAN: u64 = 59_000;

/// Shape of the churn stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Flows launched per wave.
    pub flows_per_wave: usize,
    /// Virtual time between waves.
    pub wave_period: Nanos,
    /// Payload bytes per data segment.
    pub payload: usize,
    /// Data/ACK rounds per flow.
    pub data_segments: u32,
    /// Every `adopt_every`-th flow skips its handshake (mid-stream
    /// adoption with unlearned scale); `0` disables the variant.
    pub adopt_every: u64,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            flows_per_wave: 3,
            wave_period: 100 * MILLISECOND,
            payload: 1_000,
            data_segments: 2,
            adopt_every: 7,
        }
    }
}

/// Emits churn-flow packet scripts wave by wave (see module docs).
#[derive(Debug, Clone)]
pub struct ChurnGenerator {
    cfg: ChurnConfig,
    next_wave: Nanos,
    launched: u64,
}

impl ChurnGenerator {
    /// A generator whose first wave fires at the first poll at or after
    /// time zero.
    pub fn new(cfg: ChurnConfig) -> ChurnGenerator {
        ChurnGenerator {
            cfg,
            next_wave: 0,
            launched: 0,
        }
    }

    /// Flows launched so far.
    pub fn launched(&self) -> u64 {
        self.launched
    }

    /// All packets due at or before `now`, in injection order. Advances
    /// the wave clock; an empty vector means no wave was due.
    pub fn poll(&mut self, now: Nanos) -> Vec<(Direction, Segment)> {
        let mut out = Vec::new();
        while self.next_wave <= now {
            for _ in 0..self.cfg.flows_per_wave {
                let id = self.launched;
                self.launched += 1;
                self.flow_script(id, &mut out);
            }
            self.next_wave += self.cfg.wave_period.max(1);
        }
        out
    }

    /// The fixed per-flow packet script for flow `id`.
    fn flow_script(&self, id: u64, out: &mut Vec<(Direction, Segment)>) {
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
        let adopted = self.cfg.adopt_every != 0 && id.is_multiple_of(self.cfg.adopt_every);

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
            out.push((
                Direction::Egress,
                Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), syn, 0),
            ));

            let mut synack = TcpRepr::new(dport, sport);
            synack.seq = SeqNumber(iss_s);
            synack.ack = SeqNumber(iss_c + 1);
            synack.flags = TcpFlags::SYN | TcpFlags::ACK | TcpFlags::ECE;
            synack.window = 65_000;
            synack.options = vec![TcpOption::MaxSegmentSize(1_448), TcpOption::WindowScale(7)];
            out.push((
                Direction::Ingress,
                Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), synack, 0),
            ));
        }

        // Data/ACK rounds. Adopted flows lead with data, exercising
        // mid-stream adoption at an arbitrary offset.
        let payload = self.cfg.payload;
        for s in 0..self.cfg.data_segments {
            let off = s * payload as u32;
            let mut data = TcpRepr::new(sport, dport);
            data.seq = SeqNumber(iss_c + 1 + off);
            data.ack = SeqNumber(iss_s + 1);
            data.flags = TcpFlags::ACK;
            data.window = 512;
            out.push((
                Direction::Egress,
                Segment::new_tcp(ip(src_ip, dst_ip, Ecn::Ect0), data, payload),
            ));

            let mut ack = TcpRepr::new(dport, sport);
            ack.seq = SeqNumber(iss_s + 1);
            ack.ack = SeqNumber(iss_c + 1 + off + payload as u32);
            ack.flags = TcpFlags::ACK;
            ack.window = 500;
            out.push((
                Direction::Ingress,
                Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), ack, 0),
            ));
        }

        // Close both directions so garbage collection reaps the entry.
        let fin_seq = iss_c + 1 + self.cfg.data_segments * payload as u32;
        let mut fin = TcpRepr::new(sport, dport);
        fin.seq = SeqNumber(fin_seq);
        fin.ack = SeqNumber(iss_s + 1);
        fin.flags = TcpFlags::FIN | TcpFlags::ACK;
        fin.window = 512;
        out.push((
            Direction::Egress,
            Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), fin, 0),
        ));

        let mut finack = TcpRepr::new(dport, sport);
        finack.seq = SeqNumber(iss_s + 1);
        finack.ack = SeqNumber(fin_seq + 1);
        finack.flags = TcpFlags::FIN | TcpFlags::ACK;
        finack.window = 500;
        out.push((
            Direction::Ingress,
            Segment::new_tcp(ip(dst_ip, src_ip, Ecn::NotEct), finack, 0),
        ));

        let mut last = TcpRepr::new(sport, dport);
        last.seq = SeqNumber(fin_seq + 1);
        last.ack = SeqNumber(iss_s + 2);
        last.flags = TcpFlags::ACK;
        last.window = 512;
        out.push((
            Direction::Egress,
            Segment::new_tcp(ip(src_ip, dst_ip, Ecn::NotEct), last, 0),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::SECOND;

    #[test]
    fn waves_fire_on_schedule_and_flows_are_distinct() {
        let mut gen = ChurnGenerator::new(ChurnConfig {
            flows_per_wave: 2,
            wave_period: 10,
            ..ChurnConfig::default()
        });
        assert!(!gen.poll(0).is_empty(), "first wave fires at time zero");
        assert_eq!(gen.launched(), 2);
        assert!(gen.poll(5).is_empty(), "no wave due before the period");
        // Waves due at 10, 20 and 30 are all emitted by one poll.
        gen.poll(30);
        assert_eq!(gen.launched(), 8);

        // Every launched flow has a distinct key.
        let mut keys = std::collections::BTreeSet::new();
        let mut again = ChurnGenerator::new(ChurnConfig {
            flows_per_wave: 100,
            wave_period: 1,
            ..ChurnConfig::default()
        });
        for t in 0..50 {
            for (_, seg) in again.poll(t) {
                keys.insert(seg.flow_key());
            }
        }
        // 5000 flows × 2 directions = 10_000 distinct keys.
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = ChurnConfig::default();
        let mut a = ChurnGenerator::new(cfg.clone());
        let mut b = ChurnGenerator::new(cfg);
        for t in [0, 100 * MILLISECOND, SECOND] {
            let pa: Vec<Vec<u8>> = a
                .poll(t)
                .into_iter()
                .map(|(_, s)| s.header_bytes().to_vec())
                .collect();
            let pb: Vec<Vec<u8>> = b
                .poll(t)
                .into_iter()
                .map(|(_, s)| s.header_bytes().to_vec())
                .collect();
            assert_eq!(pa, pb);
        }
    }
}
