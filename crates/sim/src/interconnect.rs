//! Interconnect cost model for multi-instance (shared-nothing)
//! deployments — the level *above* the chips.
//!
//! A deployment runs N independent engine instances, each on its own
//! simulated chip; cross-instance transactions exchange messages that the
//! capture records as `RemoteSend`/`RemoteRecv` trace events. Replay
//! charges each message against this model: a send occupies the thread
//! for the link *injection* time (serialization at the link bandwidth),
//! and a recv — which the thread is by construction waiting on — costs
//! one-way link latency plus the same occupancy term.
//!
//! The presets are anchored to published numbers for real
//! interconnects, converted to core cycles at the workspace's nominal
//! 3 GHz clock (the clock of the CACTI-derived L2 latencies, see
//! `core::machines::L2Spec`).
//!
//! * [`Interconnect::numa_link`] — a coherent socket-to-socket link
//!   (QPI/HyperTransport class): ~150 ns one-way remote-socket latency
//!   ≈ 450 cycles, and ~12.8 GB/s per direction ≈ 4 B/cycle.
//! * [`Interconnect::network_10g`] — commodity 10 GbE through a kernel
//!   stack: ~10 µs one-way ≈ 30 000 cycles, and 1.25 GB/s ≈ 0.4 B/cycle.
//! * [`Interconnect::rdma`] — an RDMA-class fabric (InfiniBand
//!   one-sided verbs, kernel bypass, polled completions): ~0.33 µs
//!   one-way ≈ 1 000 cycles, and ~48 GB/s effective per direction
//!   ≈ 16 B/cycle — latency between the NUMA link and the kernel
//!   network, bandwidth above both (the regime Rödiger et al. study
//!   for distributed query processing).
//!
//! Honesty caveats (see DESIGN.md §6): the model is a fixed
//! latency + bandwidth pair per message — no topology, no congestion, no
//! contention between instances. Those effects matter at rack scale; at
//! the 2–16-instance deployments studied here the un-contended link is
//! the dominant term, which is the same modeling bargain the paper's
//! fixed off-chip `coherence_latency` makes for SMP snoops.

use serde::{Deserialize, Serialize};

/// Latency/bandwidth cost model for the inter-instance interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// One-way message latency in core cycles (charged to the receiver).
    pub latency_cycles: u64,
    /// Link bandwidth in bytes per core cycle (serialization cost).
    pub bytes_per_cycle: f64,
}

impl Interconnect {
    /// Coherent NUMA link preset (QPI/HyperTransport class; see module
    /// docs for the anchoring).
    pub fn numa_link() -> Self {
        Interconnect {
            latency_cycles: 450,
            bytes_per_cycle: 4.0,
        }
    }

    /// Commodity 10 GbE network preset, kernel stack included (see
    /// module docs for the anchoring).
    pub fn network_10g() -> Self {
        Interconnect {
            latency_cycles: 30_000,
            bytes_per_cycle: 0.4,
        }
    }

    /// RDMA-class fabric preset: kernel-bypass verbs latency with
    /// NDR-InfiniBand-class bandwidth (see module docs for the
    /// anchoring).
    pub fn rdma() -> Self {
        Interconnect {
            latency_cycles: 1_000,
            bytes_per_cycle: 16.0,
        }
    }

    /// Cycles a `bytes`-byte message occupies the link (serialization at
    /// the link bandwidth, rounded up; at least one cycle per message).
    pub(crate) fn occupancy_cycles(&self, bytes: u32) -> u64 {
        if self.bytes_per_cycle <= 0.0 {
            return u64::MAX;
        }
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1)
    }

    /// Cycles the *sender* stalls injecting a `bytes`-byte message: the
    /// occupancy term only — the flight time is overlapped with whatever
    /// the sender does next and is charged to the receiver instead.
    pub(crate) fn send_cycles(&self, bytes: u32) -> u64 {
        self.occupancy_cycles(bytes)
    }

    /// Cycles the *receiver* stalls waiting for a `bytes`-byte message
    /// it needs: one-way latency plus serialization.
    pub(crate) fn recv_cycles(&self, bytes: u32) -> u64 {
        self.latency_cycles + self.occupancy_cycles(bytes)
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Self::numa_link()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_cost() {
        let numa = Interconnect::numa_link();
        let net = Interconnect::network_10g();
        assert!(net.latency_cycles > 10 * numa.latency_cycles);
        assert!(net.bytes_per_cycle < numa.bytes_per_cycle);
        // RDMA sits between the links in latency and above both in
        // bandwidth: on-node coherence is still the fastest hop, the
        // kernel network the slowest, and the fabric wins on throughput.
        let rdma = Interconnect::rdma();
        assert!(numa.latency_cycles < rdma.latency_cycles);
        assert!(rdma.latency_cycles < net.latency_cycles);
        assert!(rdma.bytes_per_cycle > numa.bytes_per_cycle);
        assert!(numa.bytes_per_cycle > net.bytes_per_cycle);
    }

    #[test]
    fn costs_round_up_and_compose() {
        let link = Interconnect {
            latency_cycles: 100,
            bytes_per_cycle: 4.0,
        };
        assert_eq!(link.occupancy_cycles(0), 1, "every message costs a cycle");
        assert_eq!(link.occupancy_cycles(4), 1);
        assert_eq!(link.occupancy_cycles(5), 2, "partial cycles round up");
        assert_eq!(link.send_cycles(64), 16);
        assert_eq!(link.recv_cycles(64), 116);
    }

    #[test]
    fn zero_bandwidth_never_divides_by_zero() {
        let dead = Interconnect {
            latency_cycles: 1,
            bytes_per_cycle: 0.0,
        };
        assert_eq!(dead.occupancy_cycles(64), u64::MAX);
    }
}
