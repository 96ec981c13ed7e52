//! Shared-nothing deployment sweep: the same silicon budget spent as one
//! fat shared-everything engine, one engine per island, or one engine
//! per core — with a knob for how often transactions span partitions.
//!
//! Where `fig_islands` re-partitions the *cache* under one engine (all
//! cores still share one database), `fig_deploy` re-partitions the
//! *database*: `N` instances each own `W/N` warehouses, run on their own
//! `cores/N`-core chip with `L2/N` of cache, and exchange two-phase
//! messages over an [`Interconnect`](dbcmp_sim::Interconnect) when a
//! transaction spans instances. Each instance's engine charges lock-table
//! contention for the clients it serves (`Database::set_lock_sharers`),
//! so the shared-everything endpoint pays for all clients contending on
//! one lock manager while fine partitions run nearly contention-free. At
//! `multi_pct = 0` that is the whole story and finer partitioning wins;
//! as `multi_pct` grows, per-core shared-nothing pays two interconnect
//! round trips plus cold remote lines on every crossing while coarser
//! islands absorb the same transactions locally — the "OLTP on Hardware
//! Islands" tradeoff.
//!
//! The throughput metric is `units`: every instance replays the same
//! fixed cycle window, so committed units summed across instances are
//! directly comparable between deployments (UIPC is not — the captures
//! differ in per-transaction instruction counts by design, so
//! instructions per cycle no longer proxies work per cycle).

use dbcmp_workloads::{
    capture_oltp_deployment, CaptureOptions, DeployOptions, DeployStats, Deployment, TpccScale,
};

use crate::experiment::{grid, InstanceReplay};
use crate::figures::{spec_of, BASE_CORES, FIG7_L2};
use crate::machines::{fc_cmp, L2Spec};
use crate::report::Claim;
use crate::workload::FigScale;

/// One point of the deployment sweep: `instances` engines at a fixed
/// total core/L2 budget, captured with `multi_pct`% multi-warehouse
/// transactions and replayed one chip per instance.
pub struct DeployPoint {
    pub instances: usize,
    pub cores_per_instance: usize,
    pub l2_per_instance: u64,
    pub multi_pct: u8,
    /// The instances' replays. Its `units` — committed units across all
    /// instances' identical measure windows — is the deployment's
    /// throughput; its UIPC is diagnostic only (see the module docs).
    pub replay: InstanceReplay,
    /// Capture-side transaction classification.
    pub stats: DeployStats,
}

/// The island cluster sizes at a given core count: every divisor, from
/// one chip-spanning cluster down to one-core islands.
fn island_cluster_sizes(cores: usize) -> Vec<usize> {
    (1..=cores)
        .rev()
        .filter(|k| cores.is_multiple_of(*k))
        .collect()
}

/// Instance counts swept at a given core budget: the island divisor
/// chain read the other way — one fat instance, one per island size,
/// one per core.
pub(crate) fn deploy_instance_counts(cores: usize) -> Vec<usize> {
    island_cluster_sizes(cores)
        .into_iter()
        .map(|k| cores / k)
        .collect()
}

/// The TPC-C scale a deployment sweep captures at: at least one
/// warehouse per core, so every instance count in the divisor chain
/// partitions evenly (and the per-core endpoint owns ≥ 1 warehouse).
pub fn deploy_tpcc_scale(scale: &FigScale, total_cores: usize) -> TpccScale {
    let mut t = scale.tpcc;
    t.warehouses = t.warehouses.max(total_cores as u64);
    t
}

/// Capture one deployment at this sweep's conventions (exposed so the
/// smoke gate can rebuild a point's bundles deterministically).
pub fn deploy_capture(
    scale: &FigScale,
    total_cores: usize,
    instances: usize,
    multi_pct: u8,
) -> Deployment {
    let opt = DeployOptions {
        capture: CaptureOptions::new(scale.oltp_clients, scale.oltp_units, scale.seed),
        partitions: instances,
        multi_pct,
    };
    capture_oltp_deployment(deploy_tpcc_scale(scale, total_cores), opt, instances)
        .expect("deployment windows fit the address space")
}

/// The multi-partition transaction percentages `fig_deploy` sweeps.
const MULTI_PCTS: [u8; 3] = [0, 20, 60];

/// The deployment sweep: for 0/20/60% multi-partition transactions,
/// capture and replay every instance count in the divisor chain at Fig.
/// 7's total core/L2 budget (four cores, 16 MB).
/// Instances replay on their own fat-camp chip (`fc_cmp` of the
/// instance's share, CACTI latency) as one parallel sweep per point —
/// per point, not per figure, so only one deployment's captures are
/// alive at a time.
pub fn fig_deploy(scale: &FigScale) -> Vec<DeployPoint> {
    let spec = spec_of(scale);
    let mut out = Vec::new();
    for multi_pct in MULTI_PCTS {
        for instances in deploy_instance_counts(BASE_CORES) {
            let dep = deploy_capture(scale, BASE_CORES, instances, multi_pct);
            let cores = BASE_CORES / instances;
            let l2 = FIG7_L2 / instances as u64;
            // One row per instance, one chip: a single sweep per point.
            let results = grid(dep.bundles.iter().enumerate().collect(), |_| {
                vec![((), fc_cmp(cores, l2, L2Spec::Cacti), spec.throughput())]
            });
            let per_instance = results.rows.into_iter().flat_map(|row| row.cells);
            out.push(DeployPoint {
                instances,
                cores_per_instance: cores,
                l2_per_instance: l2,
                multi_pct,
                replay: InstanceReplay::new(per_instance.map(|(_, r)| r).collect()),
                stats: dep.stats,
            });
        }
    }
    out
}

/// The deployment shape: on purely local work partitioning only relieves
/// lock-table contention, so finer deployments never lose; with
/// multi-partition work every crossing pays two-phase messages, and the
/// per-core deployment falls below the island one. Read at the sweep's
/// lowest and highest multi-partition percentages; units compare across
/// them because every grid point captures the same transaction-kind
/// sequence (each transaction draws its parameters from its own stream).
pub fn fig_deploy_claims(points: &[DeployPoint]) -> Vec<Claim> {
    let multis = points.iter().map(|p| p.multi_pct);
    let (Some(lo), Some(hi)) = (multis.clone().min(), multis.max()) else {
        return Vec::new();
    };
    let of = |multi, n, f: fn(&DeployPoint) -> u64| {
        let mut matching = points.iter().filter(|p| p.multi_pct == multi);
        matching
            .find(|p| p.instances == n)
            .map_or(f64::NAN, |p| f(p) as f64)
    };
    let units = |multi, n| of(multi, n, |p| p.replay.units);
    let crossings = |n| of(hi, n, |p| p.stats.multi_remote_txns);
    // The least of every cost a crossing pays.
    let paid = |n| {
        of(hi, n, |p| {
            let r = &p.replay.remote;
            let costs = [r.sends, r.recvs, r.bytes, r.stall_cycles];
            costs.into_iter().fold(p.stats.multi_remote_txns, u64::min)
        })
    };
    let local = points.iter().filter(|p| p.multi_pct == lo);
    let traffic = local
        .clone()
        .map(|p| p.stats.multi_remote_txns + p.replay.remote.sends + p.replay.remote.recvs);
    let traffic = traffic.sum::<u64>() as f64;
    let split: Vec<usize> = local.map(|p| p.instances).filter(|&n| n > 1).collect();
    let mut claims = vec![Claim::below(
        format!("{lo}%: crossings + messages"),
        traffic,
        1.0,
    )];
    for &n in &split {
        let (one, finer, multi) = (units(lo, 1), units(lo, n), units(hi, n));
        claims.extend([
            Claim::above(format!("{lo}%: {n}-instance units > 1's"), finer, one),
            Claim::above(format!("{hi}%: {n}-instance least cost"), paid(n), 0.0),
            Claim::below(format!("{hi}%: {n}-instance units < {lo}%'s"), multi, finer),
        ]);
    }
    if let [.., island, core] = split[..] {
        let (more, fewer) = (crossings(core), crossings(island));
        let (less, most) = (units(hi, core), units(hi, island));
        claims.extend([
            Claim::above(format!("{hi}%: crossings, {core} > {island}"), more, fewer),
            Claim::below(format!("{hi}%: units, {core} < {island}"), less, most),
        ]);
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_cluster_sizes_cover_both_extremes() {
        assert_eq!(island_cluster_sizes(4), [4, 2, 1]);
        assert_eq!(island_cluster_sizes(8), [8, 4, 2, 1]);
        assert_eq!(island_cluster_sizes(6), [6, 3, 2, 1]);
        for cores in 1..=8 {
            let sizes = island_cluster_sizes(cores);
            assert_eq!(sizes.first(), Some(&cores), "chip-shared endpoint");
            assert_eq!(sizes.last(), Some(&1), "fully-private endpoint");
        }
    }

    #[test]
    fn instance_counts_mirror_island_divisors() {
        assert_eq!(deploy_instance_counts(4), [1, 2, 4]);
        assert_eq!(deploy_instance_counts(8), [1, 2, 4, 8]);
        for cores in 1..=8 {
            let counts = deploy_instance_counts(cores);
            assert_eq!(counts.first(), Some(&1), "shared-everything endpoint");
            assert_eq!(counts.last(), Some(&cores), "one-per-core endpoint");
            assert!(counts.iter().all(|n| cores % n == 0));
        }
    }

    #[test]
    fn deploy_scale_guarantees_divisibility() {
        let scale = FigScale::quick();
        let t = deploy_tpcc_scale(&scale, 4);
        assert!(t.warehouses >= 4);
        for n in deploy_instance_counts(4) {
            assert_eq!(t.warehouses % n as u64, 0);
        }
    }
}
