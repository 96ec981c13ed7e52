//! Workload capture for the experiments: builds the databases, runs
//! client sessions, and caches the resulting trace bundles.

use dbcmp_engine::{CcBackend, CcStats};
use dbcmp_trace::{TraceBundle, TraceSummary};
use dbcmp_workloads::{
    build_tpcc, build_tpch, capture_dss, capture_oltp, capture_oltp_interleaved, CaptureOptions,
    ContentionStats, InterleaveOptions, QueryKind, TpccScale, TpchScale,
};

use crate::taxonomy::WorkloadKind;

/// Experiment sizing. `paper()` approximates the paper's setup scaled to
/// simulation-friendly trace lengths; `quick()` is for tests.
#[derive(Debug, Clone, Copy)]
pub struct FigScale {
    pub tpcc: TpccScale,
    pub tpch: TpchScale,
    /// Saturated client counts (paper: 64 OLTP / 16 DSS).
    pub oltp_clients: usize,
    pub dss_clients: usize,
    /// Work units per client in captures.
    pub oltp_units: usize,
    pub dss_units: usize,
    /// Simulation windows (cycles).
    pub warmup: u64,
    pub measure: u64,
    pub seed: u64,
    /// Interleaved-capture clients for the concurrency-control sweep
    /// (`fig_cc`).
    pub contention_clients: usize,
    /// Units per client in contended captures.
    pub contention_units: usize,
    /// Hot NewOrder item-pool size under skew.
    pub hot_items: u64,
    /// Engine ops per scheduler grant in interleaved captures.
    pub slice_ops: usize,
}

impl FigScale {
    /// The default experiment scale (used by the harness binaries).
    pub fn paper() -> Self {
        FigScale {
            tpcc: TpccScale::default(),
            tpch: TpchScale::default(),
            oltp_clients: 32,
            dss_clients: 16,
            oltp_units: 25,
            dss_units: 2,
            warmup: 1_200_000,
            measure: 2_400_000,
            seed: 0xC1D7,
            contention_clients: 16,
            contention_units: 12,
            hot_items: 8,
            slice_ops: 1,
        }
    }

    /// Small scale for integration tests.
    pub fn quick() -> Self {
        FigScale {
            tpcc: TpccScale::tiny(),
            tpch: TpchScale::tiny(),
            oltp_clients: 16,
            dss_clients: 16,
            oltp_units: 8,
            dss_units: 1,
            warmup: 200_000,
            measure: 400_000,
            seed: 0xC1D7,
            contention_clients: 8,
            contention_units: 10,
            hot_items: 8,
            slice_ops: 1,
        }
    }
}

/// A captured workload: the bundle plus its summary statistics.
pub struct CapturedWorkload {
    pub kind: WorkloadKind,
    pub bundle: TraceBundle,
    pub summary: TraceSummary,
}

impl CapturedWorkload {
    /// Capture a saturated OLTP mix (`clients` terminals).
    pub fn oltp(scale: &FigScale, clients: usize, units: usize) -> Self {
        let (mut db, h) = build_tpcc(scale.tpcc, scale.seed);
        let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(clients, units, scale.seed));
        let summary = TraceSummary::compute(&bundle.regions, &bundle.threads);
        CapturedWorkload {
            kind: WorkloadKind::Oltp,
            bundle,
            summary,
        }
    }

    /// Capture an OLTP mix with *interleaved* clients against one shared
    /// database under the concurrency-control `backend` (the `fig_cc`
    /// sweep's software axis): real lock waits, wakes, and deadlock aborts
    /// in the traces. `hot_pct` percent of transactions target the hot
    /// warehouse/items (the contention knob). Returns the capture plus
    /// what the clients and the backend actually did.
    pub(crate) fn oltp_contended(
        scale: &FigScale,
        hot_pct: u8,
        backend: CcBackend,
    ) -> (Self, ContentionStats, CcStats) {
        let (db, h) = build_tpcc(scale.tpcc, scale.seed);
        let opt = InterleaveOptions {
            clients: scale.contention_clients,
            units_per_client: scale.contention_units,
            seed: scale.seed,
            slice_ops: scale.slice_ops,
            hot_pct,
            hot_items: scale.hot_items,
            backend,
        };
        let cap = capture_oltp_interleaved(db, &h, opt);
        let summary = TraceSummary::compute(&cap.bundle.regions, &cap.bundle.threads);
        (
            CapturedWorkload {
                kind: WorkloadKind::Oltp,
                bundle: cap.bundle,
                summary,
            },
            cap.stats,
            cap.cc,
        )
    }

    /// One DSS capture path for every query mix — the public `dss*`
    /// constructors differ *only* in the mix they pass here, so their
    /// databases, seeds, and client structures stay identical by
    /// construction.
    fn dss_mix(mix: &[QueryKind], scale: &FigScale, clients: usize, units: usize) -> Self {
        let (mut db, h) = build_tpch(scale.tpch, scale.seed);
        let bundle = capture_dss(
            &mut db,
            &h,
            mix,
            CaptureOptions::new(clients, units, scale.seed),
        );
        let summary = TraceSummary::compute(&bundle.regions, &bundle.threads);
        CapturedWorkload {
            kind: WorkloadKind::Dss,
            bundle,
            summary,
        }
    }

    /// Capture a DSS query stream (`clients` sessions over the paper's
    /// four-query mix).
    pub fn dss(scale: &FigScale, clients: usize, units: usize) -> Self {
        Self::dss_mix(&QueryKind::ALL, scale, clients, units)
    }

    /// Capture a **join-heavy** DSS query stream: the Q3/Q5 mix
    /// ([`QueryKind::JOINS`]) whose hash builds and index-nested-loop
    /// descents — not scan bandwidth — set the cache behaviour. Same
    /// database, seed, and client structure as [`Self::dss`], so the two
    /// captures differ only in query shape (what `fig_islands`' scan and
    /// join DSS rows contrast).
    pub fn dss_joins(scale: &FigScale, clients: usize, units: usize) -> Self {
        Self::dss_mix(&QueryKind::JOINS, scale, clients, units)
    }

    /// Saturated capture at the scale's default client count.
    pub fn saturated(kind: WorkloadKind, scale: &FigScale) -> Self {
        Self::saturating(kind, scale, 0)
    }

    /// Saturated capture with at least `min_clients` clients — enough to
    /// keep a machine with that many hardware contexts busy.
    pub fn saturating(kind: WorkloadKind, scale: &FigScale, min_clients: usize) -> Self {
        match kind {
            WorkloadKind::Oltp => {
                Self::oltp(scale, min_clients.max(scale.oltp_clients), scale.oltp_units)
            }
            WorkloadKind::Dss => {
                Self::dss(scale, min_clients.max(scale.dss_clients), scale.dss_units)
            }
        }
    }

    /// Unsaturated capture: a single client (the paper's single-thread
    /// configuration, intra-query parallelism disabled).
    pub fn unsaturated(kind: WorkloadKind, scale: &FigScale) -> Self {
        match kind {
            WorkloadKind::Oltp => Self::oltp(scale, 1, scale.oltp_units),
            WorkloadKind::Dss => Self::dss(scale, 1, scale.dss_units),
        }
    }

    /// A bundle restricted to the first `n` client threads (client-count
    /// sweeps reuse one capture).
    pub(crate) fn subset(&self, n: usize) -> TraceBundle {
        TraceBundle::new(
            self.bundle.regions.clone(),
            self.bundle.threads[..n.min(self.bundle.threads.len())].to_vec(),
        )
    }

    /// Analytic workload statistics for the Fig. 3 reference model.
    pub fn analytic_stats(&self) -> dbcmp_sim::analytic::WorkloadStats {
        let c = &self.summary.counts;
        let accesses = (c.loads + c.stores).max(1);
        dbcmp_sim::analytic::WorkloadStats {
            dep_load_fraction: self.summary.dep_load_fraction(),
            store_fraction: c.stores as f64 / accesses as f64,
            // Weighted by the engine's region mix; a mid-range value.
            mispred_per_kinstr: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_captures_have_expected_thread_counts() {
        let scale = FigScale::quick();
        let oltp = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
        assert_eq!(oltp.bundle.threads.len(), scale.oltp_clients);
        let uns = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
        assert_eq!(uns.bundle.threads.len(), 1);
        let sub = oltp.subset(3);
        assert_eq!(sub.threads.len(), 3);
    }
}
