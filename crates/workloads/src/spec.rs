//! Workload specifications and the protocol under test.

use serde::{Deserialize, Serialize};

/// The client-side load offered to a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of client processes.
    pub clients: u64,
    /// Requests each client process keeps in flight (closed-loop window).
    pub concurrency: usize,
    /// Payload size `m` in bytes.
    pub payload_size: usize,
}

impl WorkloadSpec {
    /// A workload with the given shape.
    pub fn new(clients: u64, concurrency: usize, payload_size: usize) -> Self {
        WorkloadSpec {
            clients,
            concurrency,
            payload_size,
        }
    }

    /// Total requests outstanding across all clients — the closed-loop load.
    pub fn outstanding(&self) -> u64 {
        self.clients * self.concurrency as u64
    }

    /// The paper's m=32 byte workload at a load appropriate for batch size β:
    /// enough outstanding requests to fill several batches back to back.
    pub fn for_batch_size(beta: usize) -> Self {
        let outstanding = (beta * 4).clamp(200, 20_000);
        WorkloadSpec {
            clients: 4,
            concurrency: outstanding / 4,
            payload_size: 32,
        }
    }
}

/// Which protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolChoice {
    /// PrestigeBFT (`pb`).
    Prestige,
    /// HotStuff-style passive baseline (`hs`).
    HotStuff,
    /// SBFT-lite baseline (`sb`).
    SbftLite,
    /// Prosecutor-lite baseline (`pr`).
    ProsecutorLite,
}

impl ProtocolChoice {
    /// The short label used in the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolChoice::Prestige => "pb",
            ProtocolChoice::HotStuff => "hs",
            ProtocolChoice::SbftLite => "sb",
            ProtocolChoice::ProsecutorLite => "pr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_outstanding() {
        let w = WorkloadSpec::new(4, 250, 32);
        assert_eq!(w.outstanding(), 1000);
    }

    #[test]
    fn workload_scales_with_batch_size() {
        let small = WorkloadSpec::for_batch_size(100);
        let large = WorkloadSpec::for_batch_size(3000);
        assert!(large.outstanding() > small.outstanding());
        assert!(small.outstanding() >= 200);
        assert!(large.outstanding() <= 20_000);
    }

    #[test]
    fn protocol_labels_match_paper_legend() {
        assert_eq!(ProtocolChoice::Prestige.label(), "pb");
        assert_eq!(ProtocolChoice::HotStuff.label(), "hs");
        assert_eq!(ProtocolChoice::SbftLite.label(), "sb");
        assert_eq!(ProtocolChoice::ProsecutorLite.label(), "pr");
    }
}
