//! The congestion-control configurations the paper evaluates (§5,
//! "Experiment details").

use acdc_cc::CcKind;
use acdc_netsim::SwitchConfig;
use acdc_tcp::TcpConfig;
use acdc_vswitch::AcdcConfig;

/// Default WRED/ECN marking threshold in bytes (≈ 65 × 1.5 KB packets,
/// the classic DCTCP configuration for 10 GbE).
pub const DEFAULT_MARK_THRESHOLD: u64 = 90_000;

/// One of the paper's end-to-end configurations.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Baseline: host stack CUBIC, unmodified OVS, switch WRED/ECN off.
    Cubic,
    /// Target: host stack DCTCP, unmodified OVS, switch WRED/ECN on.
    Dctcp,
    /// AC/DC: the given host stack, AC/DC enforcing DCTCP in OVS (as the
    /// paper always does; Figure 13's per-flow priorities are a
    /// [`acdc_vswitch::CcPolicy`] in the testbed's `acdc` config), switch
    /// WRED/ECN on.
    Acdc {
        /// The guest ("VM") stack.
        host_cc: CcKind,
    },
    /// An arbitrary host stack over plain OVS (Figure 1's mixed-stack
    /// motivation runs). `ecn` controls both the stack capability and
    /// whether the switch marks.
    Plain {
        /// The guest stack.
        host_cc: CcKind,
        /// Negotiate ECN and enable switch WRED/ECN.
        ecn: bool,
    },
}

impl Scheme {
    /// Standard AC/DC (host CUBIC, vSwitch DCTCP).
    pub fn acdc() -> Scheme {
        Scheme::acdc_with_host(CcKind::Cubic)
    }

    /// AC/DC with a specific guest stack (Table 1 rows).
    pub fn acdc_with_host(host_cc: CcKind) -> Scheme {
        Scheme::Acdc { host_cc }
    }

    /// Short name for report rows.
    pub fn name(&self) -> String {
        match self {
            Scheme::Cubic => "CUBIC".into(),
            Scheme::Dctcp => "DCTCP".into(),
            Scheme::Acdc { host_cc } => format!("AC/DC(host={host_cc})"),
            Scheme::Plain { host_cc, ecn } => {
                format!("{host_cc}{}", if *ecn { "+ecn" } else { "" })
            }
        }
    }

    /// The guest stack this scheme runs.
    pub fn host_cc(&self) -> CcKind {
        match self {
            Scheme::Cubic => CcKind::Cubic,
            Scheme::Dctcp => CcKind::Dctcp,
            Scheme::Acdc { host_cc } => *host_cc,
            Scheme::Plain { host_cc, .. } => *host_cc,
        }
    }

    /// Is switch WRED/ECN marking enabled?
    pub fn wred_ecn(&self) -> bool {
        match self {
            Scheme::Cubic => false,
            Scheme::Dctcp | Scheme::Acdc { .. } => true,
            Scheme::Plain { ecn, .. } => *ecn,
        }
    }

    /// Switch configuration for this scheme.
    pub fn switch_config(&self, mark_threshold: u64) -> SwitchConfig {
        SwitchConfig {
            mark_threshold: self.wred_ecn().then_some(mark_threshold),
        }
    }

    /// vSwitch datapath configuration for this scheme.
    pub fn acdc_config(&self, mtu: usize) -> AcdcConfig {
        match self {
            Scheme::Acdc { .. } => AcdcConfig::dctcp(mtu),
            _ => AcdcConfig::disabled(mtu),
        }
    }

    /// Guest TCP configuration between two addresses. `iss` seeds the
    /// deterministic initial sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_config(
        &self,
        local_ip: [u8; 4],
        local_port: u16,
        remote_ip: [u8; 4],
        remote_port: u16,
        mtu: usize,
        iss: u32,
    ) -> TcpConfig {
        let mss = TcpConfig::mss_for_mtu(mtu);
        let mut cfg = TcpConfig::new(
            local_ip,
            local_port,
            remote_ip,
            remote_port,
            mss,
            self.host_cc(),
        );
        cfg.iss = iss;
        // Only a native DCTCP stack negotiates ECN end-to-end; under
        // AC/DC the vSwitch handles ECN and guests stay as they are.
        cfg.ecn = matches!(self.host_cc(), CcKind::Dctcp | CcKind::DctcpPriority(_))
            || matches!(self, Scheme::Plain { ecn: true, .. });
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_baseline_has_no_marking_or_acdc() {
        let s = Scheme::Cubic;
        assert!(!s.wred_ecn());
        assert!(s.switch_config(90_000).mark_threshold.is_none());
        assert!(!s.acdc_config(1500).enabled);
        assert_eq!(s.host_cc(), CcKind::Cubic);
    }

    #[test]
    fn dctcp_native_marks_but_no_acdc() {
        let s = Scheme::Dctcp;
        assert_eq!(s.switch_config(90_000).mark_threshold, Some(90_000));
        assert!(!s.acdc_config(1500).enabled);
        let cfg = s.tcp_config([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, 1500, 0);
        assert!(cfg.ecn);
    }

    #[test]
    fn acdc_enables_datapath_and_marking() {
        let s = Scheme::acdc();
        assert_eq!(s.switch_config(90_000).mark_threshold, Some(90_000));
        assert!(s.acdc_config(9000).enabled);
        // The guest stack is CUBIC without ECN: AC/DC owns ECN.
        let cfg = s.tcp_config([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, 9000, 0);
        assert!(!cfg.ecn);
        assert_eq!(cfg.mss, 8960);
    }

    #[test]
    fn scheme_names_are_distinct() {
        let names: Vec<String> = [
            Scheme::Cubic,
            Scheme::Dctcp,
            Scheme::acdc(),
            Scheme::acdc_with_host(CcKind::Vegas),
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
