//! Per-flow congestion-control assignment (§3.4).
//!
//! "ACEDC can assign different congestion control algorithms on a per-flow
//! basis" — e.g. WAN-bound flows get CUBIC while intra-datacenter flows
//! get DCTCP, or flows get priority weights β for QoS (Figure 13).

use std::sync::Arc;

use acdc_cc::CcKind;
use acdc_packet::FlowKey;

/// How the vSwitch picks an algorithm for a new flow.
#[derive(Clone)]
pub enum CcPolicy {
    /// Every flow gets the same algorithm (the paper's default: DCTCP).
    Uniform(CcKind),
    /// Flows whose destination is outside `dc_prefix`/8 are treated as
    /// WAN-bound and get `wan`; everything else gets `datacenter`.
    WanSplit {
        /// First octet of the datacenter prefix (e.g. `10`).
        dc_prefix: u8,
        /// Algorithm for intra-datacenter flows.
        datacenter: CcKind,
        /// Algorithm for WAN flows.
        wan: CcKind,
    },
    /// Arbitrary administrator policy.
    Custom(Arc<dyn Fn(&FlowKey) -> CcKind + Send + Sync>),
}

impl CcPolicy {
    /// The algorithm for `key`.
    pub fn assign(&self, key: &FlowKey) -> CcKind {
        match self {
            CcPolicy::Uniform(kind) => *kind,
            CcPolicy::WanSplit {
                dc_prefix,
                datacenter,
                wan,
            } => {
                if key.dst_ip[0] == *dc_prefix {
                    *datacenter
                } else {
                    *wan
                }
            }
            CcPolicy::Custom(f) => f(key),
        }
    }

    /// The paper's default: uniform DCTCP.
    pub fn dctcp() -> CcPolicy {
        CcPolicy::Uniform(CcKind::Dctcp)
    }
}

impl core::fmt::Debug for CcPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CcPolicy::Uniform(k) => write!(f, "Uniform({k})"),
            CcPolicy::WanSplit {
                dc_prefix,
                datacenter,
                wan,
            } => write!(f, "WanSplit({dc_prefix}/8 → {datacenter}, wan → {wan})"),
            CcPolicy::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dst: [u8; 4], src_port: u16) -> FlowKey {
        FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: dst,
            src_port,
            dst_port: 80,
        }
    }

    #[test]
    fn uniform_assigns_everywhere() {
        let p = CcPolicy::dctcp();
        assert_eq!(p.assign(&key([10, 0, 0, 2], 1)), CcKind::Dctcp);
        assert_eq!(p.assign(&key([8, 8, 8, 8], 2)), CcKind::Dctcp);
    }

    #[test]
    fn wan_split_routes_by_prefix() {
        let p = CcPolicy::WanSplit {
            dc_prefix: 10,
            datacenter: CcKind::Dctcp,
            wan: CcKind::Cubic,
        };
        assert_eq!(p.assign(&key([10, 1, 2, 3], 1)), CcKind::Dctcp);
        assert_eq!(p.assign(&key([93, 184, 216, 34], 1)), CcKind::Cubic);
    }
}
