//! One generator per paper figure/table. Each is a [`grid`] of captured
//! workloads x machines (or derives its numbers from one); the `fig`
//! binary prints them and EXPERIMENTS.md records them; integration tests
//! assert the paper's qualitative shapes on `FigScale::quick()`.

use dbcmp_engine::exec::ExchangeStrategy;
use dbcmp_engine::{CcBackend, CcStats};
use dbcmp_sim::analytic::Validation;
use dbcmp_sim::{MachineConfig, SimResult};
use dbcmp_staged::{capture_staged_dss, ExecPolicy};
use dbcmp_trace::TraceBundle;
use dbcmp_workloads::tpch::QueryKind;
use dbcmp_workloads::ContentionStats;

use crate::experiment::{grid, run_throughput, Column, Grid, RunSpec};
use crate::machines::{asym_cmp, cmp_for, fc_cmp, island_cmp, smp_baseline, L2Spec};
use crate::taxonomy::{Camp, Saturation, WorkloadKind};
use crate::workload::{CapturedWorkload, FigScale};

/// The replay windows every `FigScale`-sized figure uses.
pub fn spec_of(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup,
        measure: scale.measure,
        max_cycles: 2_000_000_000,
    }
}

/// The baseline chip of §3-§4: four cores, 26 MB shared L2 (the paper's
/// "unrealistically fast and large" configuration for Figs. 4/5 uses this
/// size with CACTI latency).
pub const BASE_CORES: usize = 4;
pub const BASE_L2: u64 = 26 << 20;

/// One capture per workload kind — the rows of every OLTP-vs-DSS figure.
fn both_workloads(
    capture: impl Fn(WorkloadKind) -> CapturedWorkload,
) -> Vec<(WorkloadKind, CapturedWorkload)> {
    [WorkloadKind::Oltp, WorkloadKind::Dss]
        .into_iter()
        .map(|w| (w, capture(w)))
        .collect()
}

/// Grid rows over keyed captures.
fn rows_of<K: Clone>(captures: &[(K, CapturedWorkload)]) -> Vec<(K, &TraceBundle)> {
    captures
        .iter()
        .map(|(key, w)| (key.clone(), &w.bundle))
        .collect()
}

/// Grid columns running every `(key, machine)` in throughput mode.
fn throughput_columns<C>(
    machines: impl IntoIterator<Item = (C, MachineConfig)>,
    spec: RunSpec,
) -> Vec<Column<C>> {
    machines
        .into_iter()
        .map(|(key, cfg)| (key, cfg, spec.throughput()))
        .collect()
}

// ---------------------------------------------------------------- Fig. 2

/// Fig. 2: normalized throughput vs number of concurrent clients (DSS on
/// the FC CMP). Returns (clients, normalized throughput) pairs.
pub fn fig2_saturation(scale: &FigScale, clients: &[usize]) -> Vec<(usize, f64)> {
    let max = *clients.iter().max().unwrap_or(&1);
    let w = CapturedWorkload::dss(scale, max, scale.dss_units);
    let spec = spec_of(scale);
    // One row per client count, replaying a growing subset of the same
    // capture on the same machine.
    let subsets: Vec<_> = clients.iter().map(|&n| (n, w.subset(n))).collect();
    let results = grid(subsets.iter().map(|(n, b)| (*n, b)).collect(), |_| {
        throughput_columns([((), fc_cmp(BASE_CORES, 4 << 20, L2Spec::Cacti))], spec)
    });
    let uipc: Vec<(usize, f64)> = results
        .rows
        .iter()
        .map(|row| (row.key, row.get(&()).uipc()))
        .collect();
    let base = uipc
        .iter()
        .map(|&(_, u)| u)
        .find(|&u| u > 0.0)
        .unwrap_or(1.0);
    uipc.into_iter().map(|(n, u)| (n, u / base)).collect()
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3: validate the simulator's CPI breakdown against the independent
/// analytic model (saturated DSS on FC, as the paper validates against the
/// OpenPower 720).
pub fn fig3_validation(scale: &FigScale) -> (Validation, SimResult) {
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, scale);
    let cfg = fc_cmp(BASE_CORES, 4 << 20, L2Spec::Cacti);
    let res = run_throughput(cfg.clone(), &w.bundle, spec_of(scale));
    (Validation::new(&cfg, &res, w.analytic_stats()), res)
}

// ---------------------------------------------------------------- Fig. 4/5

/// Figs. 4/5: all eight camp x workload x saturation combinations on the
/// baseline chip. Rows are (workload, saturation) captures, columns the
/// two camps; unsaturated rows run in completion mode (response time),
/// saturated rows in throughput mode.
pub fn fig45_quadrants(scale: &FigScale) -> Grid<(WorkloadKind, Saturation), Camp> {
    let spec = spec_of(scale);
    let captures: Vec<_> = [WorkloadKind::Oltp, WorkloadKind::Dss]
        .into_iter()
        .flat_map(|w| {
            [
                (
                    (w, Saturation::Saturated),
                    CapturedWorkload::saturated(w, scale),
                ),
                (
                    (w, Saturation::Unsaturated),
                    CapturedWorkload::unsaturated(w, scale),
                ),
            ]
        })
        .collect();
    grid(rows_of(&captures), |&(_, saturation)| {
        let mode = match saturation {
            Saturation::Saturated => spec.throughput(),
            Saturation::Unsaturated => spec.completion(),
        };
        [Camp::Fat, Camp::Lean]
            .into_iter()
            .map(|camp| {
                let cfg = cmp_for(camp, BASE_CORES, BASE_L2, L2Spec::Cacti);
                (camp, cfg, mode)
            })
            .collect()
    })
}

/// Fig. 4 numbers from the quadrants: (workload, LC/FC response-time
/// ratio, LC/FC throughput ratio).
pub fn fig4_ratios(
    quadrants: &Grid<(WorkloadKind, Saturation), Camp>,
) -> Vec<(WorkloadKind, f64, f64)> {
    [WorkloadKind::Oltp, WorkloadKind::Dss]
        .into_iter()
        .map(|w| {
            let response = |camp| {
                quadrants
                    .get(&(w, Saturation::Unsaturated), &camp)
                    .avg_unit_cycles
                    .unwrap_or(f64::NAN)
            };
            let throughput = |camp| quadrants.get(&(w, Saturation::Saturated), &camp).uipc();
            (
                w,
                response(Camp::Lean) / response(Camp::Fat),
                throughput(Camp::Lean) / throughput(Camp::Fat),
            )
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6: throughput and CPI contributions vs L2 size, fixed 4-cycle vs
/// CACTI latencies, on the FC CMP. Columns are `(size, fixed_latency)`.
pub fn fig6_cache_sweep(scale: &FigScale, sizes: &[u64]) -> Grid<WorkloadKind, (u64, bool)> {
    let spec = spec_of(scale);
    let captures = both_workloads(|w| CapturedWorkload::saturated(w, scale));
    grid(rows_of(&captures), |_| {
        let machines = sizes.iter().flat_map(|&size| {
            [(true, L2Spec::Fixed(4)), (false, L2Spec::Cacti)]
                .map(|(fixed, l2)| ((size, fixed), fc_cmp(BASE_CORES, size, l2)))
        });
        throughput_columns(machines, spec)
    })
}

// ---------------------------------------------------------------- Fig. 7

/// Fig. 7's two machines: the SMP (private 4 MB L2 per node) and the CMP
/// (shared 16 MB L2), both on fat cores.
pub fn fig7_machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("SMP", smp_baseline(4, 4 << 20, Camp::Fat)),
        ("CMP", fc_cmp(4, 16 << 20, L2Spec::Cacti)),
    ]
}

/// Fig. 7: SMP vs CMP CPI breakdowns, saturated workloads on fat cores.
/// Columns are the [`fig7_machines`] tags.
pub fn fig7_smp_vs_cmp(scale: &FigScale) -> Grid<WorkloadKind, &'static str> {
    let spec = spec_of(scale);
    let captures = both_workloads(|w| CapturedWorkload::saturated(w, scale));
    grid(rows_of(&captures), |_| {
        throughput_columns(fig7_machines(), spec)
    })
}

// ------------------------------------------- Contention and CC sweeps

/// Row key of the contention sweeps: which backend captured at which
/// skew, and what the capture did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContendedCapture {
    pub backend: CcBackend,
    pub hot_pct: u8,
    /// Scheduler-level contention counters (waits, deadlock aborts, …).
    pub stats: ContentionStats,
    /// The backend's own counters (remote lock messages, ordering waits,
    /// fallback conflicts, …).
    pub cc: CcStats,
}

/// Capture every `(backend, skew)` with interleaved clients and replay
/// each capture on `machines`. Captures are inherently sequential (each
/// interleaves clients on one shared database); the replays fan out as
/// one sweep.
fn contended_grid(
    scale: &FigScale,
    points: impl Iterator<Item = (CcBackend, u8)>,
    machines: &[(&'static str, MachineConfig)],
) -> Grid<ContendedCapture, &'static str> {
    let spec = spec_of(scale);
    let captures: Vec<_> = points
        .map(|(backend, hot_pct)| {
            let (w, stats, cc) = CapturedWorkload::oltp_contended_cc(scale, hot_pct, backend);
            let key = ContendedCapture {
                backend,
                hot_pct,
                stats,
                cc,
            };
            (key, w)
        })
        .collect();
    grid(rows_of(&captures), |_| {
        throughput_columns(machines.iter().cloned(), spec)
    })
}

/// Contention sweep (ISSUE 2): interleaved multi-client OLTP capture at
/// increasing hot-row skew, replayed on [`fig7_machines`]. As skew grows,
/// more cycles land on shared lock-table buckets and hot rows — off-chip
/// coherence transfers on the SMP, on-chip shared-L2 hits on the CMP — so
/// the SMP's D-stall share climbs faster (the §5.2 contrast, now driven
/// by *real* lock conflict rather than address overlap alone).
pub fn fig_contention(scale: &FigScale, skews: &[u8]) -> Grid<ContendedCapture, &'static str> {
    let points = skews.iter().map(|&hot| (CcBackend::Centralized2PL, hot));
    contended_grid(scale, points, &fig7_machines())
}

/// Figure label for a concurrency-control backend.
///
/// Exhaustive over [`CcBackend`] by design: a missing variant fails the
/// build (E0004) and a `_ =>` arm fails clippy.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn cc_backend_label(backend: CcBackend) -> &'static str {
    match backend {
        CcBackend::Centralized2PL => "2PL",
        CcBackend::PartitionedPerCore => "PART",
        CcBackend::DeterministicOrdered => "ORDER",
    }
}

/// Figure label for an exchange strategy.
///
/// Exhaustive over [`ExchangeStrategy`] by design: a missing variant
/// fails the build (E0004) and a `_ =>` arm fails clippy.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn exchange_label(strategy: ExchangeStrategy) -> &'static str {
    match strategy {
        ExchangeStrategy::Local => "LOCAL",
        ExchangeStrategy::Broadcast => "BCAST",
        ExchangeStrategy::Shuffle => "SHUFFLE",
    }
}

/// The backends the `fig_cc` sweep compares, in presentation order.
pub fn cc_backends() -> [CcBackend; 3] {
    [
        CcBackend::Centralized2PL,
        CcBackend::PartitionedPerCore,
        CcBackend::DeterministicOrdered,
    ]
}

/// Concurrency-control sweep (ISSUE 9): the contention sweep's skew axis
/// crossed with the *software* axis — which concurrency-control backend
/// the engine runs — replayed on the [`joins_machines`] triple, so the
/// hardware axis is directly comparable across figures. Centralized 2PL
/// rows take exactly the `fig_contention` capture path (same draws, same
/// traces), so the two figures share an anchor; the partitioned backend
/// converts lock-table sharing into explicit cross-core messages the
/// interconnect prices; the deterministic-ordered backend trades deadlock
/// aborts (structurally zero) for ordering-queue waits. Comparability
/// caveat: 2PL and partitioned points run the legacy per-client draw
/// streams, the ordered backend runs per-transaction streams (its
/// read/write-set derivation replays them), so ordered-vs-2PL compares
/// *workload distributions*, not transaction-for-transaction identical
/// streams.
pub fn fig_cc(scale: &FigScale, skews: &[u8]) -> Grid<ContendedCapture, &'static str> {
    let points = cc_backends()
        .into_iter()
        .flat_map(|backend| skews.iter().map(move |&hot| (backend, hot)));
    contended_grid(scale, points, &joins_machines())
}

// ---------------------------------------------------------------- Fig. 8

/// One Fig. 8 point: (cores, normalized throughput, linear reference).
pub type ScalingPoint = (usize, f64, f64);

/// Fig. 8: throughput vs core count (FC CMP, 16 MB shared L2), one
/// scaling series per workload.
pub fn fig8_core_scaling(
    scale: &FigScale,
    core_counts: &[usize],
) -> Vec<(WorkloadKind, Vec<ScalingPoint>)> {
    let spec = spec_of(scale);
    let base_cores = core_counts[0];
    // Enough clients to keep the largest machine saturated.
    let max_ctx = core_counts.iter().max().unwrap() * 2;
    let captures = both_workloads(|w| CapturedWorkload::saturating(w, scale, max_ctx));
    let results = grid(rows_of(&captures), |_| {
        let machines = core_counts
            .iter()
            .map(|&n| (n, fc_cmp(n, 16 << 20, L2Spec::Cacti)));
        throughput_columns(machines, spec)
    });
    results
        .rows
        .iter()
        .map(|row| {
            let mut series = Vec::new();
            let mut base = 0.0;
            for (n, result) in &row.cells {
                let uipc = result.uipc();
                if base == 0.0 {
                    base = uipc;
                }
                series.push((*n, uipc / base, *n as f64 / base_cores as f64));
            }
            (row.key, series)
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 9 (ablation)

/// §6 ablation: staged vs conventional execution of scan pipelines.
pub struct Fig9Result {
    pub policy: &'static str,
    /// Unsaturated response time (cycles per query) on the LC CMP.
    pub response_lc: f64,
    /// Unsaturated response time on the FC CMP.
    pub response_fc: f64,
    /// Instructions per query (software efficiency).
    pub instrs_per_query: f64,
    /// L1D miss rate during the LC run.
    pub l1d_miss_rate: f64,
}

pub fn fig9_staged(scale: &FigScale) -> Vec<Fig9Result> {
    let spec = spec_of(scale);
    let policies: [(&'static str, ExecPolicy); 3] = [
        ("Volcano (conventional)", ExecPolicy::Volcano),
        ("Staged (cohort batches)", ExecPolicy::Staged { batch: 256 }),
        (
            "Staged parallel (3 producers)",
            ExecPolicy::StagedParallel {
                batch: 256,
                producers: 3,
            },
        ),
    ];
    let kinds = [QueryKind::Q1, QueryKind::Q6];
    let captures: Vec<(&'static str, TraceBundle)> = policies
        .into_iter()
        .map(|(name, policy)| {
            let (mut db, h) = dbcmp_workloads::build_tpch(scale.tpch, scale.seed);
            let bundle = capture_staged_dss(&mut db, &h, &kinds, policy, 2, scale.seed)
                .expect("Q1/Q6 are staged-pipelineable");
            (name, bundle)
        })
        .collect();
    let results = grid(
        captures.iter().map(|(name, b)| (*name, b)).collect(),
        |_| {
            [Camp::Lean, Camp::Fat]
                .into_iter()
                .map(|camp| {
                    let cfg = cmp_for(camp, BASE_CORES, BASE_L2, L2Spec::Cacti);
                    (camp, cfg, spec.completion())
                })
                .collect()
        },
    );
    captures
        .iter()
        .zip(&results.rows)
        .map(|((name, bundle), row)| {
            let response = |camp| {
                let r = row.get(&camp);
                r.cycles as f64 / r.units.max(1) as f64
            };
            Fig9Result {
                policy: name,
                response_lc: response(Camp::Lean),
                response_fc: response(Camp::Fat),
                instrs_per_query: bundle.total_instrs() as f64 / bundle.total_units().max(1) as f64,
                l1d_miss_rate: row.get(&Camp::Lean).mem.l1d_miss_rate(),
            }
        })
        .collect()
}

// ------------------------------------------------------------- fig_asym

/// The `(fat, lean)` slot ratios `fig_asym` sweeps: all-fat down to
/// all-lean in steps of two slots, with the pure-lean endpoint always
/// included even when `total_slots` is odd (the fig_smoke gate finds
/// both pure camps by searching for them).
pub fn asym_ratios(total_slots: usize) -> Vec<(usize, usize)> {
    let mut fats: Vec<usize> = (0..=total_slots).rev().step_by(2).collect();
    if fats.last() != Some(&0) {
        fats.push(0);
    }
    fats.into_iter()
        .map(|fat| (fat, total_slots - fat))
        .collect()
}

/// Asymmetric-CMP extension: sweep fat:lean slot ratios from all-fat to
/// all-lean at a fixed slot count and fixed shared L2, on saturated OLTP
/// and DSS; columns are the `(fat, lean)` [`asym_ratios`]. As fat slots
/// give way to lean ones the machine trades single-thread ILP for
/// thread-level latency hiding — the breakdown shifts from exposed data
/// stalls toward computation, and saturated throughput climbs (the
/// paper's §4 camp contrast, now visible *within* one chip, per the
/// hardware-islands line of work in PAPERS.md).
pub fn fig_asym(scale: &FigScale, total_slots: usize) -> Grid<WorkloadKind, (usize, usize)> {
    let spec = spec_of(scale);
    // Enough clients to saturate the leanest (most-context) machine.
    let max_ctx = asym_cmp(0, total_slots, BASE_L2, L2Spec::Cacti).total_contexts();
    let captures = both_workloads(|w| CapturedWorkload::saturating(w, scale, max_ctx));
    grid(rows_of(&captures), |_| {
        let machines = asym_ratios(total_slots)
            .into_iter()
            .map(|(fat, lean)| ((fat, lean), asym_cmp(fat, lean, BASE_L2, L2Spec::Cacti)));
        throughput_columns(machines, spec)
    })
}

// ----------------------------------------------------------- fig_islands

/// The island cluster sizes swept at a given core count: every divisor,
/// from one chip-spanning cluster down to one-core islands.
pub fn island_cluster_sizes(cores: usize) -> Vec<usize> {
    (1..=cores)
        .rev()
        .filter(|k| cores.is_multiple_of(*k))
        .collect()
}

/// Island sweep (tentpole of the topology redesign): a **fixed total L2
/// capacity** re-partitioned from one chip-shared L2, through islands of
/// shrinking size, to fully private per-core L2s — on saturated OLTP and
/// DSS; columns are `(clusters, cores_per_cluster)`. The two pure
/// endpoints are exactly Fig. 7's CMP and SMP presets
/// (`island_cmp(1, n)` ≡ `fc_cmp`, `island_cmp(n, 1)` ≡ `smp_baseline`),
/// so the paper's SMP-vs-CMP contrast becomes the two extremes of one
/// curve: moving right, per-island caches shrink but get faster (CACTI
/// latency for the island's share) and more sharing turns from on-chip
/// L2/L1-to-L1 hits into off-chip coherence transfers. OLTP, rich in
/// shared hot structures, pays for partitioning much sooner than scan-
/// dominated DSS — the crossover EXPERIMENTS.md records.
pub fn fig_islands(
    scale: &FigScale,
    cores: usize,
    total_l2: u64,
) -> Grid<WorkloadKind, (usize, usize)> {
    let spec = spec_of(scale);
    let captures = both_workloads(|w| CapturedWorkload::saturated(w, scale));
    grid(rows_of(&captures), |_| {
        let machines = island_cluster_sizes(cores).into_iter().map(|k| {
            let clusters = cores / k;
            (
                (clusters, k),
                island_cmp(clusters, k, total_l2, L2Spec::Cacti),
            )
        });
        throughput_columns(machines, spec)
    })
}

// ------------------------------------------------------------- fig_joins

/// Capture-side attribution for one DSS flavor: where the instructions
/// went and how big the data working set was.
pub struct JoinsCaptureStats {
    /// Instructions charged to the hash-join build/probe region.
    pub hashjoin_instrs: u64,
    /// Instructions charged to the (index-)nested-loop region.
    pub nlj_instrs: u64,
    /// Instructions charged to the B+Tree search region (Q5's
    /// index-nested-loop descents land here).
    pub btree_instrs: u64,
    /// Total instructions in the capture.
    pub total_instrs: u64,
    /// Distinct data bytes touched (cache-line granular).
    pub data_working_set: u64,
}

fn joins_capture_stats(w: &CapturedWorkload) -> JoinsCaptureStats {
    // One decode pass for all three region lookups (paper-scale bundles
    // run to millions of events).
    let totals = w.bundle.region_instr_totals();
    let by_name = |name: &str| {
        w.bundle
            .regions
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| totals[r.id as usize])
    };
    JoinsCaptureStats {
        hashjoin_instrs: by_name("exec-hashjoin"),
        nlj_instrs: by_name("exec-nlj"),
        btree_instrs: by_name("btree-search"),
        total_instrs: w.bundle.total_instrs(),
        data_working_set: w.summary.data_working_set(),
    }
}

/// The full `fig_joins` run: six simulation points plus per-capture
/// instruction attribution.
pub struct FigJoinsRun {
    /// Rows keyed by `join_heavy` (`false` = the paper's scan mix first,
    /// `true` = the join-heavy Q3/Q5 capture), columns the
    /// [`joins_machines`] tags.
    pub grid: Grid<bool, &'static str>,
    /// Attribution for the scan-mix capture.
    pub scan: JoinsCaptureStats,
    /// Attribution for the join-heavy capture.
    pub joins: JoinsCaptureStats,
}

/// The machine presets `fig_joins` sweeps: [`fig7_machines`] plus the
/// 2x2 hardware-island midpoint at the same 16 MB total — so the
/// scan-flavor endpoints reproduce Fig. 7's numbers on the same captures.
pub fn joins_machines() -> [(&'static str, MachineConfig); 3] {
    let [smp, cmp] = fig7_machines();
    [
        smp,
        cmp,
        ("ISLAND 2x2", island_cmp(2, 2, 16 << 20, L2Spec::Cacti)),
    ]
}

/// Join sweep (the join half of the DSS camp): the paper's scan-mix DSS
/// capture vs a join-heavy Q3/Q5 capture, replayed on Fig. 7's SMP/CMP
/// presets and the 2x2 island midpoint. Scans stream through any cache;
/// the joins' build-side hash tables and B+Tree descents form working
/// sets that fit a pooled 16 MB L2 but blow past a 4 MB private island —
/// so partitioning costs the join flavor capacity misses where the scan
/// flavor barely notices (the *OLTP on Hardware Islands* capacity axis,
/// driven here by join state instead of scan footprint).
pub fn fig_joins(scale: &FigScale) -> FigJoinsRun {
    let spec = spec_of(scale);
    let captures = [
        (false, CapturedWorkload::saturated(WorkloadKind::Dss, scale)),
        (
            true,
            CapturedWorkload::dss_joins(scale, scale.dss_clients, scale.dss_units),
        ),
    ];
    FigJoinsRun {
        grid: grid(rows_of(&captures), |_| {
            throughput_columns(joins_machines(), spec)
        }),
        scan: joins_capture_stats(&captures[0].1),
        joins: joins_capture_stats(&captures[1].1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure shapes are asserted in the workspace integration tests (they
    // need the full capture + simulate pipeline); here we only check the
    // plumbing on the quick scale.
    #[test]
    fn fig2_runs_and_normalizes() {
        let scale = FigScale::quick();
        let pts = fig2_saturation(&scale, &[1, 4]);
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 1.0).abs() < 1e-9, "first point is the baseline");
        assert!(pts[1].1 > 0.0);
    }

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
    fn asym_ratios_always_reach_both_pure_camps() {
        assert_eq!(asym_ratios(8), [(8, 0), (6, 2), (4, 4), (2, 6), (0, 8)]);
        assert_eq!(asym_ratios(4), [(4, 0), (2, 2), (0, 4)]);
        // Odd totals must still end on the pure-lean endpoint.
        assert_eq!(asym_ratios(5), [(5, 0), (3, 2), (1, 4), (0, 5)]);
        assert_eq!(asym_ratios(1), [(1, 0), (0, 1)]);
        for total in 1..=9 {
            let r = asym_ratios(total);
            assert_eq!(r.first(), Some(&(total, 0)), "all-fat endpoint");
            assert_eq!(r.last(), Some(&(0, total)), "all-lean endpoint");
            assert!(r.iter().all(|&(f, l)| f + l == total));
        }
    }
}
