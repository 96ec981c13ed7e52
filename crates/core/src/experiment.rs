//! Experiment runner: single runs, parallel sweeps, and the grid every
//! figure is an instance of.
//!
//! A [`Sweep`] is a labeled list of `(MachineConfig, RunMode)` points
//! evaluated against shared trace bundles. [`Sweep::run`] fans the
//! points out over OS threads (`capture::par_map_ordered`), costliest
//! first; every point builds its own machine from scratch against the
//! shared `&TraceBundle`, so the results are *byte-identical* at every
//! worker count (`Sweep::run_each_with_workers` with one worker runs
//! them in turn on the calling thread) and are returned in input order —
//! parallelism changes wall-clock time only.
//!
//! The paper's evaluation is one shape repeated: captured workloads ×
//! machines → a table of results. [`grid`] is that shape: rows are
//! `(key, bundle)`, columns are `(key, machine, mode)`, the whole table
//! runs as **one** sweep, and the results come back grouped per row
//! with lookup by column key ([`GridRow::get`]). Multi-instance
//! deployments put one row per engine instance and fold each
//! deployment's results into an [`InstanceReplay`].

use std::fmt::Debug;

use dbcmp_sim::{MachineBuilder, MachineConfig, RemoteCounters, RunMode, SimResult};
use dbcmp_trace::TraceBundle;
use dbcmp_workloads::capture::{available_workers, par_map_ordered};

/// Simulation windows.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub warmup: u64,
    pub measure: u64,
    /// Bound for completion-mode runs.
    pub max_cycles: u64,
}

impl RunSpec {
    /// The throughput-mode [`RunMode`] for these windows.
    pub fn throughput(self) -> RunMode {
        RunMode::Throughput {
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// The completion-mode [`RunMode`] for these windows.
    pub(crate) fn completion(self) -> RunMode {
        RunMode::Completion {
            max_cycles: self.max_cycles,
        }
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            warmup: 400_000,
            measure: 1_600_000,
            max_cycles: 400_000_000,
        }
    }
}

/// Saturated-throughput run (the paper's UIPC metric).
pub fn run_throughput(cfg: MachineConfig, bundle: &TraceBundle, spec: RunSpec) -> SimResult {
    run_point(cfg, spec.throughput(), bundle)
}

/// Build one machine over `bundle` and run it — the single path every
/// simulation in this crate takes. Panics on a degenerate config; call
/// `MachineBuilder::build` to handle `ConfigError` yourself.
fn run_point(cfg: MachineConfig, mode: RunMode, bundle: &TraceBundle) -> SimResult {
    MachineBuilder::from_config(cfg, mode)
        .build(bundle)
        .unwrap_or_else(|e| panic!("invalid machine config: {e}"))
        .execute()
}

/// One labeled point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub(crate) label: String,
    pub(crate) cfg: MachineConfig,
    pub(crate) mode: RunMode,
}

/// A labeled list of machine-config points evaluated against shared
/// trace bundles, in parallel or sequentially, with results always in
/// input order.
///
/// ```
/// use dbcmp_core::experiment::{RunSpec, Sweep};
/// use dbcmp_core::machines::{fc_cmp, lc_cmp, L2Spec};
/// use dbcmp_workloads::{build_tpch, capture_dss, CaptureOptions, QueryKind, TpchScale};
///
/// // Capture a tiny two-client DSS workload...
/// let (mut db, h) = build_tpch(TpchScale::tiny(), 7);
/// let bundle = capture_dss(&mut db, &h, &[QueryKind::Q6], CaptureOptions::new(2, 1, 7));
///
/// // ...and race the two camps on it; the points fan out across OS
/// // threads, results come back in input order.
/// let spec = RunSpec { warmup: 10_000, measure: 50_000, max_cycles: u64::MAX };
/// let results = Sweep::new()
///     .point("fat", fc_cmp(2, 8 << 20, L2Spec::Cacti), spec.throughput())
///     .point("lean", lc_cmp(2, 8 << 20, L2Spec::Cacti), spec.throughput())
///     .run(&bundle);
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(|r| r.cycles > 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { points: Vec::new() }
    }

    /// Append one point (builder style).
    pub fn point(mut self, label: impl Into<String>, cfg: MachineConfig, mode: RunMode) -> Self {
        self.push(label, cfg, mode);
        self
    }

    /// Append one point in place.
    pub fn push(&mut self, label: impl Into<String>, cfg: MachineConfig, mode: RunMode) {
        self.points.push(SweepPoint {
            label: label.into(),
            cfg,
            mode,
        });
    }

    /// Run every point against one shared bundle, in parallel. Results
    /// come back in input order. Panics on an invalid config (configs
    /// are validated up front, before any thread spawns); call
    /// `MachineConfig::validate` on the points first to handle
    /// `ConfigError` yourself.
    pub fn run(&self, bundle: &TraceBundle) -> Vec<SimResult> {
        self.run_each(&vec![bundle; self.points.len()])
    }

    /// Run every point against its own bundle (`bundles[i]` pairs with
    /// point `i` — client-count sweeps replay growing subsets of one
    /// capture), in parallel, results in input order.
    pub fn run_each(&self, bundles: &[&TraceBundle]) -> Vec<SimResult> {
        self.run_each_with_workers(bundles, available_workers())
    }

    /// [`Sweep::run_each`] with an explicit worker count — the
    /// equivalence suite pins `workers > 1` so the cross-thread path is
    /// exercised even on single-CPU hosts, and `workers = 1` for the
    /// sequential reference.
    pub(crate) fn run_each_with_workers(
        &self,
        bundles: &[&TraceBundle],
        workers: usize,
    ) -> Vec<SimResult> {
        self.validate_all(bundles);
        let mut results = par_map_ordered(self.dispatch_order(), workers, |_, i| {
            let p = &self.points[i];
            (i, run_point(p.cfg.clone(), p.mode, bundles[i]))
        });
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// The order workers pull points in: longest first, by simulated
    /// cycles × hardware contexts (host cost follows simulated
    /// instructions, and a lean point retires several times a fat one's
    /// per core-cycle), ties by input index — so the costly points do not
    /// queue behind each other on one worker at the end of the sweep.
    fn dispatch_order(&self) -> Vec<usize> {
        let cost = |p: &SweepPoint| {
            let cycles = match p.mode {
                RunMode::Throughput { warmup, measure } => warmup.saturating_add(measure),
                RunMode::Completion { max_cycles } => max_cycles,
            };
            cycles.saturating_mul(p.cfg.total_contexts() as u64)
        };
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(cost(&self.points[i])), i));
        order
    }

    fn validate_all(&self, bundles: &[&TraceBundle]) {
        assert_eq!(
            bundles.len(),
            self.points.len(),
            "one bundle per sweep point"
        );
        for p in &self.points {
            if let Err(e) = p.cfg.validate() {
                panic!("sweep point '{}': invalid machine config: {e}", p.label);
            }
        }
    }
}

/// One column of a grid: the key its cells are looked up by, the
/// machine, and how to run it.
pub(crate) type Column<C> = (C, MachineConfig, RunMode);

/// One row of a finished grid: the row key and one result per column,
/// in column order.
#[derive(Debug, Clone)]
pub struct GridRow<R, C> {
    pub key: R,
    pub cells: Vec<(C, SimResult)>,
}

impl<R, C: PartialEq + Debug> GridRow<R, C> {
    /// The result under column `col`. Panics if the row has no such
    /// column — a figure asking for a machine it never ran is a bug.
    pub fn get(&self, col: &C) -> &SimResult {
        self.cells
            .iter()
            .find(|(c, _)| c == col)
            .map(|(_, result)| result)
            .unwrap_or_else(|| panic!("grid has no column {col:?}"))
    }
}

/// A finished grid: rows in input order.
#[derive(Debug, Clone)]
pub struct Grid<R, C> {
    pub rows: Vec<GridRow<R, C>>,
}

impl<R: PartialEq + Debug, C: PartialEq + Debug> Grid<R, C> {
    /// The row under `key`. Panics if there is none (see [`GridRow::get`]).
    pub fn row(&self, key: &R) -> &GridRow<R, C> {
        self.rows
            .iter()
            .find(|r| r.key == *key)
            .unwrap_or_else(|| panic!("grid has no row {key:?}"))
    }

    /// The result at (`row`, `col`).
    pub fn get(&self, row: &R, col: &C) -> &SimResult {
        self.row(row).get(col)
    }
}

/// Run `rows` x `columns(row)` as **one** parallel sweep and hand the
/// results back grouped per row. `columns` sees the row key, so a
/// column's machine or mode may depend on the row (Figs. 4/5 run
/// saturated rows in throughput mode and unsaturated rows to
/// completion). Point order cannot matter: every point builds its own
/// machine.
pub fn grid<R: Debug, C: Debug>(
    rows: Vec<(R, &TraceBundle)>,
    columns: impl Fn(&R) -> Vec<Column<C>>,
) -> Grid<R, C> {
    let mut sweep = Sweep::new();
    let mut bundles = Vec::new();
    let mut shape = Vec::new();
    for (key, bundle) in rows {
        let mut cols = Vec::new();
        for (col, cfg, mode) in columns(&key) {
            sweep.push(format!("{key:?} x {col:?}"), cfg, mode);
            bundles.push(bundle);
            cols.push(col);
        }
        shape.push((key, cols));
    }
    // `run_each` returns one result per point, in point order.
    let mut results = sweep.run_each(&bundles).into_iter();
    let rows = shape
        .into_iter()
        .map(|(key, cols)| GridRow {
            key,
            cells: cols.into_iter().zip(results.by_ref()).collect(),
        })
        .collect();
    Grid { rows }
}

/// What replaying one multi-instance capture — one bundle per engine
/// instance, each on its own chip — adds up to.
#[derive(Debug, Clone)]
pub struct InstanceReplay {
    /// Per-instance replay results, instance order.
    pub per_instance: Vec<SimResult>,
    /// Interconnect traffic summed over the instances.
    pub remote: RemoteCounters,
    /// Units completed across all instances' identical measure windows.
    pub units: u64,
    /// Aggregate UIPC.
    pub uipc: f64,
}

impl InstanceReplay {
    /// Aggregate the instances' results (taken in instance order).
    pub(crate) fn new(per_instance: Vec<SimResult>) -> Self {
        let mut remote = RemoteCounters::default();
        for r in &per_instance {
            remote.merge(&r.remote);
        }
        InstanceReplay {
            remote,
            units: per_instance.iter().map(|r| r.units).sum(),
            uipc: per_instance.iter().map(|r| r.uipc()).sum(),
            per_instance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{asym_cmp, fc_cmp, lc_cmp, smp_baseline, L2Spec};
    use crate::taxonomy::{Camp, WorkloadKind};
    use crate::workload::{CapturedWorkload, FigScale};

    #[test]
    fn throughput_and_completion_run() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
        let cfg = fc_cmp(1, 1 << 20, L2Spec::Cacti);
        let spec = RunSpec {
            warmup: 10_000,
            measure: 50_000,
            max_cycles: 100_000_000,
        };
        let t = run_throughput(cfg.clone(), &w.bundle, spec);
        assert!(t.instrs > 0);
        let c = run_point(cfg, spec.completion(), &w.bundle);
        assert!(c.units >= 1, "query must complete");
        assert!(c.avg_unit_cycles.unwrap() > 0.0);
    }

    /// Both run modes, heterogeneous and private-L2 machines included;
    /// the default-worker run and a forced four-worker run (threaded
    /// even on a one-CPU host) both equal the sequential one.
    #[test]
    fn parallel_sweep_matches_sequential_in_order() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
        let spec = RunSpec {
            warmup: 5_000,
            measure: 20_000,
            max_cycles: 50_000_000,
        };
        let sweep = Sweep::new()
            .point("fc1", fc_cmp(1, 1 << 20, L2Spec::Cacti), spec.throughput())
            .point("lc1", lc_cmp(1, 1 << 20, L2Spec::Cacti), spec.throughput())
            .point("fc2", fc_cmp(2, 2 << 20, L2Spec::Cacti), spec.completion())
            .point("lc2", lc_cmp(2, 2 << 20, L2Spec::Cacti), spec.completion())
            .point(
                "asym",
                asym_cmp(1, 1, 2 << 20, L2Spec::Cacti),
                spec.throughput(),
            )
            .point(
                "smp",
                smp_baseline(2, 1 << 20, Camp::Fat),
                spec.completion(),
            );
        let par = sweep.run(&w.bundle);
        let seq = sweep.run_each_with_workers(&vec![&w.bundle; sweep.points.len()], 1);
        assert_eq!(par.len(), 6);
        assert_eq!(par, seq, "parallel and sequential sweeps must be identical");
        let forced = sweep.run_each_with_workers(&vec![&w.bundle; sweep.points.len()], 4);
        assert_eq!(forced, seq, "four workers must agree too");
        // Order is input order: machine names line up with point labels.
        assert!(par[0].machine.starts_with("FC-CMP 1x"));
        assert!(par[1].machine.starts_with("LC-CMP 1x"));
    }

    /// Longest-first dispatch changes which worker runs what, never what
    /// comes back: a deliberately unbalanced sweep on two workers equals
    /// the sequential run, in input order.
    #[test]
    fn unbalanced_sweep_on_two_workers_matches_sequential() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
        let window = |measure| RunMode::Throughput {
            warmup: 2_000,
            measure,
        };
        let sweep = Sweep::new()
            .point(
                "short fat",
                fc_cmp(1, 1 << 20, L2Spec::Cacti),
                window(4_000),
            )
            .point(
                "long lean",
                lc_cmp(4, 4 << 20, L2Spec::Cacti),
                window(60_000),
            )
            .point(
                "short lean",
                lc_cmp(1, 1 << 20, L2Spec::Cacti),
                window(4_000),
            )
            .point(
                "long fat",
                fc_cmp(4, 4 << 20, L2Spec::Cacti),
                window(60_000),
            )
            .point(
                "short fat again",
                fc_cmp(1, 1 << 20, L2Spec::Cacti),
                window(4_000),
            );
        // 16 lean contexts × 62k, 4 fat × 62k, 4 lean × 6k, then the two
        // 1-context fat points in input order.
        assert_eq!(sweep.dispatch_order(), [1, 3, 2, 0, 4]);
        let bundles = vec![&w.bundle; sweep.points.len()];
        let par = sweep.run_each_with_workers(&bundles, 2);
        let seq = sweep.run_each_with_workers(&bundles, 1);
        assert_eq!(par, seq);
        assert!(par[1].machine.starts_with("LC-CMP 4x"));
        assert!(par[3].machine.starts_with("FC-CMP 4x"));
        assert_eq!(par[0], par[4], "identical points, identical results");
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn sweep_rejects_degenerate_point_before_running() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
        let mut cfg = fc_cmp(1, 1 << 20, L2Spec::Cacti);
        cfg.n_cores = 0;
        Sweep::new()
            .point("bad", cfg, RunSpec::default().throughput())
            .run(&w.bundle);
    }
}
