//! Distributed-join network sweep: the same join-heavy DSS stream run
//! on one engine or range-partitioned across 2/4 engine instances, with
//! every exchange message priced by an [`Interconnect`] preset — the
//! bandwidth-vs-compute tradeoff Rödiger et al. study, grafted onto the
//! paper's trace-driven CMP methodology.
//!
//! Where `fig_deploy` splits a fixed silicon budget (scale-**up**
//! repartitioned), `fig_network` scales **out**: every instance is a
//! full Fig. 7 CMP chip (`fc_cmp(4, 16 MB)`), so adding instances adds
//! compute and cache — and adds shuffle/broadcast traffic whose cost
//! depends entirely on the link. The captures are
//! interconnect-independent (the exchange emits `RemoteSend`/
//! `RemoteRecv` events; the link prices them at replay), so each
//! instance count is captured **once** and replayed under all three
//! presets — or under one, when the capture ships nothing for a link to
//! price (the 1-chip capture), and that replay stands for every link.
//!
//! The expected shape (recorded in EXPERIMENTS.md): over a kernel-stack
//! 10 GbE link the exchange stalls dominate and partitioning loses —
//! 1 instance beats 4. Over NUMA- or RDMA-class links the per-message
//! cost is small enough that the added compute wins and throughput
//! scales with instances. The crossover between those two regimes is
//! the figure's headline.

use dbcmp_sim::Interconnect;
use dbcmp_workloads::tpch::dist::DistCapture;
use dbcmp_workloads::tpch::QueryKind;
use dbcmp_workloads::{capture_dss_dist, CaptureOptions, DistOptions, DistStats};

use crate::experiment::{grid, InstanceReplay, RunSpec};
use crate::machines::{fc_cmp, L2Spec};
use crate::report::Claim;
use crate::workload::FigScale;

/// One point of the network sweep: `instances` full chips joined by
/// `preset`, running the distributed Q3/Q5 stream.
pub struct NetworkPoint {
    pub instances: usize,
    /// Interconnect preset tag: `"NUMA"`, `"RDMA"`, or `"10GbE"`.
    pub preset: &'static str,
    /// The instances' replays. Its `units` count completed query units
    /// across all instances' identical measure windows (as in
    /// `fig_deploy`); a unit is one instance finishing its *fragment*, so
    /// cross-`instances` comparisons need [`Self::queries`]. Its UIPC is
    /// diagnostic: exchange instructions inflate the distributed
    /// captures, so UIPC is not cross-point throughput.
    pub replay: InstanceReplay,
    /// Logical query completions per window: `units / instances`. Each
    /// instance's fragment covers 1/n of the data, so n fragment units
    /// ≈ one whole query — this is the cross-point throughput metric
    /// the crossover is read from.
    pub queries: f64,
    /// Share of aggregate core cycles spent stalled on the link
    /// (interconnect stalls land in `CycleClass::Other`, so this is a
    /// true fraction of the breakdown).
    pub link_stall_share: f64,
    /// Capture-side exchange statistics (shuffles vs broadcasts, bytes).
    pub stats: DistStats,
}

/// Interconnect presets swept, in presentation order (fastest-latency
/// link first).
pub fn network_presets() -> [(&'static str, Interconnect); 3] {
    [
        ("NUMA", Interconnect::numa_link()),
        ("RDMA", Interconnect::rdma()),
        ("10GbE", Interconnect::network_10g()),
    ]
}

/// Instance counts swept: one chip (no exchange), two, four.
pub const NETWORK_INSTANCES: [usize; 3] = [1, 2, 4];

/// Capture the distributed join mix at one instance count, at this
/// sweep's conventions (exposed so the smoke gate and the validation
/// anchors rebuild points deterministically).
pub fn network_capture(scale: &FigScale, instances: usize) -> DistCapture {
    capture_dss_dist(
        scale.tpch,
        &QueryKind::JOINS,
        DistOptions {
            capture: CaptureOptions::new(scale.dss_clients, scale.dss_units, scale.seed),
            instances,
        },
    )
}

/// The machine every instance replays on: the Fig. 7 CMP chip, so the
/// 1-instance point is number-identical to `fig_islands`' join DSS CMP
/// point (asserted by the smoke gate).
pub fn network_chip() -> dbcmp_sim::MachineConfig {
    fc_cmp(4, 16 << 20, L2Spec::Cacti)
}

/// Replay windows for this sweep. A DSS "unit" is a whole query
/// fragment — ~5 M instructions at paper scale — and the 16 clients
/// progress round-robin, so inside the `FigScale` windows (sized for
/// per-transaction OLTP units) the 1-chip row would commit **zero**
/// units. The measure window is widened 16×, identically at every
/// point, so cross-point unit counts stay comparable and the 1-chip
/// denominator of the scaling table is meaningful.
pub fn network_spec(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup,
        measure: scale.measure * 16,
        max_cycles: 2_000_000_000,
    }
}

/// The full network sweep: capture once per instance count, replay each
/// capture under every interconnect preset that has traffic to price —
/// all 19 instance replays as one sweep. Points are ordered preset-major
/// (`network_presets` order), instance-minor.
pub fn fig_network(scale: &FigScale) -> Vec<NetworkPoint> {
    let spec = network_spec(scale);
    let presets = network_presets();
    let captures: Vec<(usize, DistCapture)> = NETWORK_INSTANCES
        .into_iter()
        .map(|n| (n, network_capture(scale, n)))
        .collect();
    // The link a capture's row under `preset` is replayed on: a capture
    // that ships nothing leaves every link nothing to price, so its one
    // replay, under the first preset, stands for every link.
    let replayed_on = |ships: bool, preset| if ships { preset } else { presets[0].0 };
    // One row per engine instance, keyed by (instance count, index,
    // whether the capture ships anything).
    let rows = captures
        .iter()
        .flat_map(|(n, cap)| {
            let ships = cap.stats.traffic.sent_bytes > 0;
            cap.bundles
                .iter()
                .enumerate()
                .map(move |(i, b)| ((*n, i, ships), b))
        })
        .collect();
    let replays = grid(rows, |&(_, _, ships)| {
        presets
            .iter()
            .filter(|&&(preset, _)| replayed_on(ships, preset) == preset)
            .map(|&(preset, link)| {
                let mut cfg = network_chip();
                cfg.interconnect = link;
                (preset, cfg, spec.throughput())
            })
            .collect()
    });
    let mut out = Vec::new();
    for (preset, _) in presets {
        for (instances, cap) in &captures {
            let rows = replays.rows.iter().filter(|row| row.key.0 == *instances);
            let replay = InstanceReplay::new(
                rows.map(|row| row.get(&replayed_on(row.key.2, preset)).clone())
                    .collect(),
            );
            let core_cycles: u64 = replay
                .per_instance
                .iter()
                .map(|r| r.breakdown.total())
                .sum();
            out.push(NetworkPoint {
                instances: *instances,
                preset,
                queries: replay.units as f64 / *instances as f64,
                link_stall_share: replay.remote.stall_cycles as f64 / core_cycles.max(1) as f64,
                replay,
                stats: cap.stats,
            });
        }
    }
    out
}

/// The network shape: exchange traffic grows with instances, the link
/// classes stall in latency order (10 GbE > NUMA > RDMA), and the
/// bandwidth-vs-compute crossover: NUMA-linked chips keep adding query
/// throughput while over 10 GbE one chip beats every distributed plan.
pub fn fig_network_claims(points: &[NetworkPoint]) -> Vec<Claim> {
    let at = |preset: &str, n, f: fn(&NetworkPoint) -> f64| {
        let mut matching = points.iter().filter(|p| p.preset == preset);
        matching.find(|p| p.instances == n).map_or(f64::NAN, f)
    };
    let sweep = |preset, f| NETWORK_INSTANCES.map(|n| at(preset, n, f));
    let [_, sent2, sent4] = sweep("NUMA", |p| p.stats.traffic.sent_bytes as f64);
    let [numa, rdma, gbe] = ["NUMA", "RDMA", "10GbE"].map(|l| at(l, 2, |p| p.link_stall_share));
    let ([nu1, _, nu4], [_, gu2, gu4]) = (
        sweep("NUMA", |p| p.replay.units as f64),
        sweep("10GbE", |p| p.replay.units as f64),
    );
    let ([nq1, nq2, nq4], [gq1, gq2, gq4]) =
        (sweep("NUMA", |p| p.queries), sweep("10GbE", |p| p.queries));
    vec![
        Claim::above("bytes shipped at 2 instances", sent2, 0.0),
        Claim::above("bytes shipped, 4 over 2 instances", sent4, sent2),
        Claim::above("link stall at 2, 10GbE over NUMA", gbe, numa),
        Claim::above("link stall at 2, NUMA over RDMA", numa, rdma),
        Claim::above("NUMA units, 4 over 1 instance", nu4, nu1),
        Claim::below("10GbE units, 4 under 2 instances", gu4, gu2),
        Claim::above("NUMA queries, 2 over 1 chip", nq2, nq1),
        Claim::above("NUMA queries, 4 over 2 chips", nq4, nq2),
        Claim::below("10GbE queries, 2 under 1 chip", gq2, gq1),
        Claim::below("10GbE queries, 4 under 2 chips", gq4, gq2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_and_distinct() {
        let presets = network_presets();
        assert_eq!(presets.len(), 3);
        let numa = presets[0].1;
        let rdma = presets[1].1;
        let net = presets[2].1;
        assert!(numa.latency_cycles < rdma.latency_cycles);
        assert!(rdma.latency_cycles < net.latency_cycles);
        assert!(rdma.bytes_per_cycle > numa.bytes_per_cycle);
        assert!(numa.bytes_per_cycle > net.bytes_per_cycle);
    }

    #[test]
    fn chip_matches_the_topology_cmp_column() {
        // Same preset the topology sweep labels "CMP" — the 1-instance
        // network point must replay on identical silicon.
        let a = network_chip();
        let [(tag, b), ..] = crate::figures::topology_machines();
        assert_eq!(tag, "CMP");
        assert_eq!(a, b);
    }
}
