//! The four workloads. Each is the populate → capture → replay pipeline
//! a figure binary runs, driven only through the library's public,
//! stable entry points (`build_*`, `capture_*`, `network_*`, `Sweep`,
//! `MachineBuilder::from_config(..).build(..)?.execute()`), so the
//! compatibility shims ROADMAP item 3 wants to delete are never touched.
//!
//! Sizes are benchmark-owned [`FigScale`] literals, chosen on the
//! 2-CPU reference container so that one repetition takes about two
//! seconds and its dominant phase is the layer the workload exists to
//! expose (see README.md for the measured shares).

use dbcmp_core::machines::{fc_cmp, lc_cmp, smp_baseline, L2Spec};
use dbcmp_core::network::{network_capture, network_chip, network_spec};
use dbcmp_core::{taxonomy, CapturedWorkload, FigScale, RunSpec, Sweep, WorkloadKind};
use dbcmp_engine::{CcBackend, Database};
use dbcmp_sim::analytic::WorkloadStats;
use dbcmp_sim::{Interconnect, MachineConfig, RunMode, SimResult};
use dbcmp_staged::{capture_staged_dss, ExecPolicy};
use dbcmp_trace::{AddressSpace, TraceBundle, TraceSummary};
use dbcmp_workloads::{
    build_tpcc, build_tpch, build_tpch_range, capture_dss, capture_oltp, capture_oltp_interleaved,
    CaptureOptions, InterleaveOptions, QueryKind, TpccScale, TpchScale,
};
use std::sync::Arc;

use crate::spans::Recorder;

/// `FigScale.seed` when `--seed` is not given; the goldens belong to it.
pub const DEFAULT_SEED: u64 = 0xC1D7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpCamps,
    DssCapture,
    OltpContended,
    DistJoins,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OltpCamps,
        Workload::DssCapture,
        Workload::OltpContended,
        Workload::DistJoins,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpCamps => "oltp_camps",
            Workload::DssCapture => "dss_capture",
            Workload::OltpContended => "oltp_contended",
            Workload::DistJoins => "dist_joins",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark scale: `FigScale::paper()` with the fields below
    /// overridden per workload. Only the fields a workload reads are
    /// listed for it.
    pub fn scale(self, seed: u64) -> FigScale {
        let base = FigScale {
            seed,
            ..FigScale::paper()
        };
        match self {
            // The paper-scale fig7 capture (32 clients × 25 units) and
            // paper-scale windows, on a 12-warehouse database so that
            // populate is a visible 0.3 s.
            Workload::OltpCamps => FigScale {
                tpcc: TpccScale {
                    warehouses: 12,
                    ..TpccScale::default()
                },
                ..base
            },
            // Paper-scale TPC-H population, 16 clients × 1 query per
            // capture flavour, 16 staged queries per policy, and a replay
            // window short enough to stay under 15 % of the wall clock.
            Workload::DssCapture => FigScale {
                dss_units: 1,
                warmup: 200_000,
                measure: 800_000,
                ..base
            },
            // 16 interleaved clients × 80 units per capture, six captures.
            // `slice_ops` is raised from the figures' 1: at 1 the capture's
            // host time is OS-thread hand-offs, whose cost on this 2-vCPU
            // VM flips between two modes up to 4× apart for identical work
            // (measured 3.4 s ↔ 8.8 s), which no bound survives. At 256 a
            // client runs until it blocks or its transaction ends; waits,
            // wakes and deadlock aborts still happen by the thousand.
            Workload::OltpContended => FigScale {
                contention_clients: 16,
                contention_units: 80,
                slice_ops: 256,
                warmup: 200_000,
                measure: 400_000,
                ..base
            },
            // Paper-scale data; windows shortened (`network_spec` widens
            // `measure` 16×) so nine instance replays fit a repetition.
            Workload::DistJoins => FigScale {
                dss_units: 1,
                warmup: 200_000,
                measure: 250_000,
                ..base
            },
        }
    }

    /// Tiny scale for the tier-1 smoke test: same code paths, debug-build
    /// seconds.
    pub fn smoke_scale(self, seed: u64) -> FigScale {
        FigScale {
            seed,
            tpch: TpchScale {
                customers: 60,
                orders: 300,
                parts: 80,
                suppliers: 8,
            },
            oltp_clients: 8,
            oltp_units: 3,
            dss_clients: 4,
            contention_clients: 6,
            contention_units: 4,
            warmup: 4_000,
            // `network_spec` widens this 16×.
            measure: if self == Workload::DistJoins {
                40_000
            } else {
                30_000
            },
            slice_ops: 16,
            ..FigScale::quick()
        }
    }
}

/// Which host-cost bucket a replay point's `execute()` time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Camp {
    Fat,
    Lean,
    Smp,
}

/// Which capture entry point produced a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureLayer {
    /// `capture_oltp` / `capture_dss` / `network_capture`.
    Sequential,
    /// `capture_oltp_interleaved`.
    Interleaved,
    /// `capture_staged_dss`.
    Staged,
}

/// One capture operation and everything it produced.
pub struct Capture {
    pub label: String,
    pub layer: CaptureLayer,
    pub bundles: Vec<TraceBundle>,
    /// Host-side tallies the library handed back with the capture
    /// (`ContentionStats`, `CcStats`, `DistStats`), by name. All repeat
    /// bit-for-bit at a fixed seed.
    pub counters: Vec<(&'static str, u64)>,
    /// Why the capture is unusable (vacuous or truncated), if it is.
    pub defect: Option<String>,
}

impl Capture {
    pub fn events(&self) -> u64 {
        self.bundles.iter().map(|b| b.total_events() as u64).sum()
    }
}

/// One replay point: a machine, a window, and the bundle it replays.
pub struct Point {
    pub label: String,
    pub cfg: MachineConfig,
    pub mode: RunMode,
    /// `(capture, bundle)` indices into [`Rep::captures`].
    pub source: (usize, usize),
    pub camp: Camp,
    pub expect: Expect,
}

/// What a replay must show to count as having simulated something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// At least one work unit completed in the measure window.
    Units,
    /// Units, and cycles stalled on the interconnect: the point exists
    /// to park cores on `RemoteRecv`.
    LinkStall,
    /// Instructions retired. For the points whose window is shorter than
    /// one whole-database DSS query by design — they are there for their
    /// host cost, and a longer window would make replay their workload's
    /// dominant phase.
    Progress,
}

impl Expect {
    /// Why `r` is vacuous, if it is.
    pub fn defect(self, r: &SimResult) -> Option<&'static str> {
        match self {
            Expect::Progress if r.instrs == 0 => Some("vacuous: no instruction retired"),
            Expect::Progress => None,
            _ if r.units == 0 => Some("vacuous: no unit completed in the measure window"),
            Expect::LinkStall if r.remote.stall_cycles == 0 => {
                Some("vacuous: a link-bound point never stalled on the link")
            }
            _ => None,
        }
    }
}

/// Host seconds by call site, one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    pub wall_s: f64,
    pub setup_s: f64,
    pub capture_phase_s: f64,
    pub replay_phase_s: f64,
    pub populate_s: f64,
    pub preset_s: f64,
    /// Every `workloads::capture_*` / `network_capture` call.
    pub capture_s: f64,
    pub interleave_s: f64,
    pub staged_s: f64,
    pub summary_s: f64,
    pub sweep_s: f64,
}

/// Everything one repetition produced.
#[derive(Default)]
pub struct Rep {
    pub times: Times,
    pub rows_populated: u64,
    pub captures: Vec<Capture>,
    pub points: Vec<Point>,
    pub results: Vec<SimResult>,
    /// Workload statistics for the analytic reference model (the
    /// workload that has CMP points to check it on).
    pub analytic: Option<WorkloadStats>,
}

impl Rep {
    pub fn bundle(&self, p: &Point) -> &TraceBundle {
        &self.captures[p.source.0].bundles[p.source.1]
    }

    /// A capture-side tally summed over the repetition's captures.
    pub fn counter(&self, name: &str) -> u64 {
        self.captures
            .iter()
            .flat_map(|c| &c.counters)
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    fn populate<H>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        build: impl FnOnce() -> (Database, H),
    ) -> (Database, H) {
        let ((db, h), secs) = rec.scope(name, |_| build());
        self.times.populate_s += secs;
        self.rows_populated += (0..db.n_tables())
            .map(|t| db.table(t).n_rows() as u64)
            .sum::<u64>();
        (db, h)
    }

    fn presets<T>(&mut self, rec: &mut Recorder, build: impl FnOnce() -> T) -> T {
        let (cfgs, secs) = rec.scope("cacti.presets", |_| build());
        self.times.preset_s += secs;
        cfgs
    }

    fn capture(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        layer: CaptureLayer,
        label: String,
        run: impl FnOnce() -> (Vec<TraceBundle>, Vec<(&'static str, u64)>),
    ) -> usize {
        let ((bundles, counters), secs) = rec.scope(name, |_| run());
        match layer {
            CaptureLayer::Sequential => self.times.capture_s += secs,
            CaptureLayer::Interleaved => {
                self.times.capture_s += secs;
                self.times.interleave_s += secs;
            }
            CaptureLayer::Staged => self.times.staged_s += secs,
        }
        let mut cap = Capture {
            label,
            layer,
            bundles,
            counters,
            defect: None,
        };
        if cap.events() == 0 {
            cap.defect = Some("captured no events".into());
        }
        self.captures.push(cap);
        self.captures.len() - 1
    }

    fn summary(&mut self, rec: &mut Recorder, capture: usize) -> TraceSummary {
        let b = &self.captures[capture].bundles[0];
        let (s, secs) = rec.scope("trace.summary", |_| {
            TraceSummary::compute(&b.regions, &b.threads)
        });
        self.times.summary_s += secs;
        s
    }

    fn point(
        &mut self,
        label: impl Into<String>,
        cfg: MachineConfig,
        spec: RunSpec,
        source: (usize, usize),
        camp: Camp,
    ) -> &mut Point {
        self.points.push(Point {
            label: label.into(),
            cfg,
            mode: spec.throughput(),
            source,
            camp,
            expect: Expect::Units,
        });
        self.points.last_mut().expect("just pushed")
    }

    /// The parallel sweep over every point, exactly as the figure
    /// generators run it.
    fn replay(&mut self, rec: &mut Recorder) {
        let mut sweep = Sweep::new();
        for p in &self.points {
            sweep.push(p.label.clone(), p.cfg.clone(), p.mode);
        }
        let bundles: Vec<&TraceBundle> = self.points.iter().map(|p| self.bundle(p)).collect();
        let (results, secs) = rec.scope("core.sweep", |_| sweep.run_each(&bundles));
        self.results = results;
        self.times.sweep_s += secs;
    }
}

fn spec_of(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup,
        measure: scale.measure,
        max_cycles: 2_000_000_000,
    }
}

/// Run one full repetition of `w` at `scale`: fresh populate, capture,
/// replay. The `rep` root span is the `wall_s` a figure binary's user
/// pays; `setup` / `capture` / `replay` are its phases and the
/// crate-named spans under them are the layers.
pub fn run_rep(w: Workload, scale: &FigScale, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let ((), wall_s) = rec.scope("rep", |rec| match w {
        Workload::OltpCamps => oltp_camps(scale, rec, &mut rep),
        Workload::DssCapture => dss_capture(scale, rec, &mut rep),
        Workload::OltpContended => oltp_contended(scale, rec, &mut rep),
        Workload::DistJoins => dist_joins(scale, rec, &mut rep),
    });
    rep.times.wall_s = wall_s;
    rep
}

/// The golden-anchor Fig. 4/5/7 shape: one saturated OLTP capture, six
/// machines. 1 MB L2s overflow on the working set, 16 MB ones hold it.
fn oltp_camps(scale: &FigScale, rec: &mut Recorder, rep: &mut Rep) {
    let spec = spec_of(scale);
    let ((db, h, cfgs), secs) = rec.scope("setup", |rec| {
        let (db, h) = rep.populate(rec, "workloads.build_tpcc", || {
            build_tpcc(scale.tpcc, scale.seed)
        });
        let smp = |camp| smp_baseline(4, 4 << 20, camp);
        let cfgs = rep.presets(rec, || {
            [
                ("FC 1MB", fc_cmp(4, 1 << 20, L2Spec::Cacti), Camp::Fat),
                ("LC 1MB", lc_cmp(4, 1 << 20, L2Spec::Cacti), Camp::Lean),
                ("FC 16MB", fc_cmp(4, 16 << 20, L2Spec::Cacti), Camp::Fat),
                ("LC 16MB", lc_cmp(4, 16 << 20, L2Spec::Cacti), Camp::Lean),
                ("SMP fat", smp(taxonomy::Camp::Fat), Camp::Smp),
                ("SMP lean", smp(taxonomy::Camp::Lean), Camp::Smp),
            ]
        });
        (db, h, cfgs)
    });
    rep.times.setup_s = secs;

    // The database dies with the capture phase, as in
    // `CapturedWorkload::oltp`: replay never holds it.
    let ((), secs) = rec.scope("capture", |rec| {
        let mut db = db;
        let opt = CaptureOptions::new(scale.oltp_clients, scale.oltp_units, scale.seed);
        let c = rep.capture(
            rec,
            "workloads.capture_oltp",
            CaptureLayer::Sequential,
            "oltp saturated".into(),
            || (vec![capture_oltp(&mut db, &h, opt)], Vec::new()),
        );
        let summary = rep.summary(rec, c);
        // `analytic_stats` lives on `CapturedWorkload`; lend it the bundle.
        let cw = CapturedWorkload {
            kind: WorkloadKind::Oltp,
            bundle: rep.captures[c].bundles.remove(0),
            summary,
        };
        rep.analytic = Some(cw.analytic_stats());
        rep.captures[c].bundles.push(cw.bundle);
    });
    rep.times.capture_phase_s = secs;

    let ((), secs) = rec.scope("replay", |rec| {
        for (label, cfg, camp) in cfgs {
            rep.point(label, cfg, spec, (0, 0), camp);
        }
        rep.replay(rec);
    });
    rep.times.replay_phase_s = secs;
}

/// Capture-dominated and read-only: executor operators, `Tracer` encode
/// and the staged engine do the work; one short replay rides along.
fn dss_capture(scale: &FigScale, rec: &mut Recorder, rep: &mut Rep) {
    let spec = spec_of(scale);
    let mixes: [(&str, &[QueryKind]); 2] = [
        ("dss scan mix", &QueryKind::ALL),
        ("dss join mix", &QueryKind::JOINS),
    ];
    let policies = [
        ("staged volcano", ExecPolicy::Volcano),
        ("staged cohort", ExecPolicy::Staged { batch: 256 }),
        (
            "staged parallel",
            ExecPolicy::StagedParallel {
                batch: 256,
                producers: 3,
            },
        ),
    ];
    // One database per capture flavour, as `CapturedWorkload::dss*` and
    // `fig9_staged` build them.
    let ((mut dbs, cfg), secs) = rec.scope("setup", |rec| {
        let dbs: Vec<_> = (0..mixes.len() + policies.len())
            .map(|_| {
                rep.populate(rec, "workloads.build_tpch", || {
                    build_tpch(scale.tpch, scale.seed)
                })
            })
            .collect();
        let cfg = rep.presets(rec, || lc_cmp(4, 16 << 20, L2Spec::Cacti));
        (dbs, cfg)
    });
    rep.times.setup_s = secs;

    let ((), secs) = rec.scope("capture", |rec| {
        let opt = CaptureOptions::new(scale.dss_clients, scale.dss_units, scale.seed);
        for (label, mix) in mixes {
            let (mut db, h) = dbs.remove(0);
            let c = rep.capture(
                rec,
                "workloads.capture_dss",
                CaptureLayer::Sequential,
                label.into(),
                || (vec![capture_dss(&mut db, &h, mix, opt)], Vec::new()),
            );
            rep.summary(rec, c);
        }
        let kinds = [QueryKind::Q1, QueryKind::Q6];
        let queries = scale.dss_clients * scale.dss_units;
        for (label, policy) in policies {
            let (mut db, h) = dbs.remove(0);
            rep.capture(
                rec,
                "staged.capture_staged_dss",
                CaptureLayer::Staged,
                label.into(),
                || {
                    let b = capture_staged_dss(&mut db, &h, &kinds, policy, queries, scale.seed)
                        .expect("Q1/Q6 are staged-pipelineable");
                    (vec![b], Vec::new())
                },
            );
        }
    });
    rep.times.capture_phase_s = secs;

    let ((), secs) = rec.scope("replay", |rec| {
        rep.point("LC 16MB scan mix", cfg, spec, (0, 0), Camp::Lean)
            .expect = Expect::Progress;
        rep.replay(rec);
    });
    rep.times.replay_phase_s = secs;
}

const HOT_SKEWS: [u8; 2] = [0, 90];
const BACKENDS: [(&str, CcBackend); 3] = [
    ("2PL", CcBackend::Centralized2PL),
    ("PART", CcBackend::PartitionedPerCore),
    ("ORDER", CcBackend::DeterministicOrdered),
];

/// The same engine used differently: writes, lock waits, wakes,
/// deadlock aborts, rwset derivation and the round-robin scheduler.
fn oltp_contended(scale: &FigScale, rec: &mut Recorder, rep: &mut Rep) {
    let spec = spec_of(scale);
    // Interleaved capture consumes its database, so every capture needs
    // a fresh one (as `CapturedWorkload::oltp_contended_cc` builds it).
    let ((mut dbs, cfg), secs) = rec.scope("setup", |rec| {
        let dbs: Vec<_> = (0..HOT_SKEWS.len() * BACKENDS.len())
            .map(|_| {
                rep.populate(rec, "workloads.build_tpcc", || {
                    build_tpcc(scale.tpcc, scale.seed)
                })
            })
            .collect();
        let cfg = rep.presets(rec, || fc_cmp(4, 16 << 20, L2Spec::Cacti));
        (dbs, cfg)
    });
    rep.times.setup_s = secs;

    let ((), secs) = rec.scope("capture", |rec| {
        for hot_pct in HOT_SKEWS {
            for (tag, backend) in BACKENDS {
                let (db, h) = dbs.remove(0);
                let opt = InterleaveOptions {
                    slice_ops: scale.slice_ops,
                    hot_items: scale.hot_items,
                    ..InterleaveOptions::contended(
                        scale.contention_clients,
                        scale.contention_units,
                        scale.seed,
                        hot_pct,
                    )
                }
                .with_backend(backend);
                let c = rep.capture(
                    rec,
                    "workloads.capture_oltp_interleaved",
                    CaptureLayer::Interleaved,
                    format!("{tag} hot={hot_pct}%"),
                    || {
                        let cap = capture_oltp_interleaved(db, &h, opt);
                        let (s, cc) = (cap.stats, cap.cc);
                        let counters = vec![
                            ("commits", s.commits),
                            ("rollbacks", s.rollbacks),
                            ("lock_waits", s.lock_waits),
                            ("ordering_waits", s.ordering_waits),
                            ("deadlock_aborts", s.deadlock_aborts),
                            ("conflict_retries", s.conflict_retries),
                            ("starved_units", s.starved_units),
                            ("cc_acquires", cc.acquires),
                            ("cc_waits", cc.waits),
                            ("cc_ordering_waits", cc.ordering_waits),
                            ("cc_deadlocks", cc.deadlocks),
                            ("cc_remote_msgs", cc.remote_msgs),
                            ("cc_remote_bytes", cc.remote_bytes),
                            ("cc_fallback_conflicts", cc.fallback_conflicts),
                        ];
                        (vec![cap.bundle], counters)
                    },
                );
                let cap = &mut rep.captures[c];
                let tally = |name| cap.counters.iter().find(|t| t.0 == name).map_or(0, |t| t.1);
                if tally("starved_units") > 0 {
                    cap.defect = Some("capture truncated: starved units".into());
                } else if hot_pct >= 90 && tally("lock_waits") + tally("ordering_waits") == 0 {
                    cap.defect = Some("no client ever parked at 90% skew".into());
                }
            }
        }
    });
    rep.times.capture_phase_s = secs;

    let ((), secs) = rec.scope("replay", |rec| {
        for c in 0..rep.captures.len() {
            let label = format!("FC 16MB {}", rep.captures[c].label);
            rep.point(label, cfg.clone(), spec, (c, 0), Camp::Fat);
        }
        rep.replay(rec);
    });
    rep.times.replay_phase_s = secs;
}

const DIST_INSTANCES: [usize; 2] = [1, 4];

/// `fig_network`'s shape: distributed Q3/Q5 across 1 and 4 chips, every
/// instance bundle replayed with cores mostly parked on `RemoteRecv`.
fn dist_joins(scale: &FigScale, rec: &mut Recorder, rep: &mut Rep) {
    let spec = network_spec(scale);
    // Populate exactly what `network_capture` populates again internally
    // (the double-populate wart, see README.md): setup_s is the cost of
    // the databases, and this workload's wall_s pays it twice.
    let (cfgs, secs) = rec.scope("setup", |rec| {
        for n in DIST_INSTANCES {
            for p in 0..n {
                rep.populate(rec, "workloads.build_tpch_range", || {
                    let space = AddressSpace::partition(p).expect("partition window in range");
                    build_tpch_range(scale.tpch, scale.seed, p, n, Arc::new(space))
                });
            }
        }
        rep.presets(rec, || {
            [
                ("NUMA", Interconnect::numa_link()),
                ("10GbE", Interconnect::network_10g()),
            ]
            .map(|(tag, link)| {
                let mut cfg = network_chip();
                cfg.interconnect = link;
                (tag, cfg)
            })
        })
    });
    rep.times.setup_s = secs;

    let ((), secs) = rec.scope("capture", |rec| {
        for n in DIST_INSTANCES {
            let c = rep.capture(
                rec,
                "core.network_capture",
                CaptureLayer::Sequential,
                format!("dist joins {n}x"),
                || {
                    let cap = network_capture(scale, n);
                    let (s, t) = (cap.stats, cap.stats.traffic);
                    let counters = vec![
                        ("shuffles", s.shuffles),
                        ("broadcasts", s.broadcasts),
                        ("dist_units", s.units),
                        ("exchange_msgs", t.messages),
                        ("exchange_sent_bytes", t.sent_bytes),
                        ("exchange_recv_bytes", t.recv_bytes),
                        ("shipped_rows", t.shipped_rows),
                    ];
                    (cap.bundles, counters)
                },
            );
            if n > 1 && rep.counter("exchange_msgs") == 0 {
                rep.captures[c].defect = Some("partitioned capture exchanged nothing".into());
            }
        }
    });
    rep.times.capture_phase_s = secs;

    let ((), secs) = rec.scope("replay", |rec| {
        let [(numa, numa_cfg), (gbe, gbe_cfg)] = cfgs;
        // 1× on NUMA, 4× on NUMA, 4× on 10 GbE.
        for (c, tag, cfg) in [
            (0, numa, &numa_cfg),
            (1, numa, &numa_cfg),
            (1, gbe, &gbe_cfg),
        ] {
            let n = rep.captures[c].bundles.len();
            for i in 0..n {
                let label = format!("net={tag} {n}x #{i}");
                rep.point(label, cfg.clone(), spec, (c, i), Camp::Fat)
                    .expect = match (n, tag) {
                    (1, _) => Expect::Progress,
                    (_, t) if t == gbe => Expect::LinkStall,
                    _ => Expect::Units,
                };
            }
        }
        rep.replay(rec);
    });
    rep.times.replay_phase_s = secs;
}
