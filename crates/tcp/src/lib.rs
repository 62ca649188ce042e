//! # acdc-tcp — a full TCP endpoint over the simulated network
//!
//! This crate implements the *guest* ("VM") TCP stack: connection
//! establishment and teardown, sliding-window transfer with 32-bit
//! wraparound, RFC 6298 retransmission timers (with the paper's
//! `RTOmin = 10 ms`), NewReno fast retransmit/recovery, delayed ACKs,
//! window scaling (RFC 7323), classic ECN (RFC 3168) and DCTCP-style
//! accurate ECN echo — with the congestion-control algorithm supplied by
//! `acdc-cc`, exactly as Linux loads pluggable `tcp_congestion_ops`.
//!
//! The endpoint is **simulator-agnostic** and event-driven in the smoltcp
//! style: callers feed it segments ([`Endpoint::on_segment`]) and clock
//! ticks ([`Endpoint::on_timer`]), drain outgoing packets with
//! [`Endpoint::poll_transmit`], and re-arm a single timer from
//! [`Endpoint::next_timer`]. `acdc-core` hosts do exactly this, routing the
//! emitted segments through the vSwitch datapath and NIC.
//!
//! Payload bytes are *virtual* (see `acdc-packet`): applications enqueue
//! byte counts, and delivery/acknowledgement progress is observable through
//! stream-offset counters — all a workload needs to measure throughput and
//! flow completion times.
//!
//! The timers and the delayed-ACK policy are the paper's system settings
//! and are constants, not per-endpoint options: [`reliable::RTO_MIN`]
//! (10 ms) and [`reliable::RTO_MAX`], [`receive::DELACK_SEGS`] and
//! [`receive::DELACK_TIMEOUT`], and the advertised window scale
//! [`endpoint::WSCALE`]. [`TcpConfig`] carries what differs between two
//! endpoints of one run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod ecn;
pub mod endpoint;
pub mod flow;
pub mod receive;
pub mod reliable;

pub use endpoint::{Endpoint, TcpState};
pub use reliable::SeqView;

use acdc_cc::CcKind;

/// Static configuration for one endpoint (one side of one connection).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Local IPv4 address.
    pub local_ip: [u8; 4],
    /// Local TCP port.
    pub local_port: u16,
    /// Remote IPv4 address.
    pub remote_ip: [u8; 4],
    /// Remote TCP port.
    pub remote_port: u16,
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Congestion-control algorithm.
    pub cc: CcKind,
    /// Negotiate ECN on the handshake (RFC 3168 / DCTCP capability).
    pub ecn: bool,
    /// Advertised receive buffer in bytes (bounds the window we offer).
    pub rcv_buf: u64,
    /// A *non-conforming* stack: ignores the peer's advertised receive
    /// window. Used to exercise AC/DC's policing mechanism (§3.3).
    pub ignore_peer_rwnd: bool,
    /// Upper bound on the congestion window in bytes (Linux's
    /// `snd_cwnd_clamp`); `None` = unbounded. Used by Figure 6.
    pub cwnd_clamp: Option<u64>,
    /// Initial sequence number (deterministic; pick per-flow values).
    pub iss: u32,
}

impl TcpConfig {
    /// The datacenter default between `local` and `remote`: ECN iff the
    /// algorithm is DCTCP, a 4 MB receive buffer, a conforming stack.
    pub fn new(
        local_ip: [u8; 4],
        local_port: u16,
        remote_ip: [u8; 4],
        remote_port: u16,
        mss: u32,
        cc: CcKind,
    ) -> TcpConfig {
        TcpConfig {
            local_ip,
            local_port,
            remote_ip,
            remote_port,
            mss,
            cc,
            ecn: matches!(cc, CcKind::Dctcp | CcKind::DctcpPriority(_)),
            rcv_buf: 4 * 1024 * 1024,
            ignore_peer_rwnd: false,
            cwnd_clamp: None,
            iss: 1_000_000,
        }
    }

    /// The standard MSS for an Ethernet MTU: MTU − 20 (IP) − 20 (TCP).
    pub fn mss_for_mtu(mtu: usize) -> u32 {
        (mtu - 40) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_for_standard_mtus() {
        assert_eq!(TcpConfig::mss_for_mtu(1500), 1460);
        assert_eq!(TcpConfig::mss_for_mtu(9000), 8960);
    }

    #[test]
    fn dctcp_config_enables_ecn_by_default() {
        let c = TcpConfig::new([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, 1448, CcKind::Dctcp);
        assert!(c.ecn);
        let c = TcpConfig::new([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, 1448, CcKind::Cubic);
        assert!(!c.ecn);
    }
}
