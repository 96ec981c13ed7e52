//! The simulated machine: cores + memory system + software threads.
//!
//! Threads from the trace bundle are bound round-robin to hardware
//! contexts; surplus threads queue on the contexts and are rotated by the
//! modeled OS quantum (that is how the client-count sweep of Fig. 2 pushes
//! past saturation). Two run modes mirror the paper's two metrics (§3, §4):
//!
//! * [`RunMode::Throughput`] — traces wrap around; after a warm-up window
//!   the measurement window counts committed user instructions per cycle
//!   (UIPC), the paper's throughput metric.
//! * [`RunMode::Completion`] — every trace runs once to completion;
//!   response time comes from per-unit latencies.

use dbcmp_trace::region::CodeRegions;
use dbcmp_trace::TraceBundle;

use crate::config::{CoreKind, MachineConfig};
use crate::core::{Core, Tick};
use crate::cursor::ThreadState;
use crate::fat::FatCore;
use crate::interconnect::Interconnect;
use crate::lean::LeanCore;
use crate::memsys::MemSys;
use crate::stats::{Breakdown, CycleClass, RemoteCounters, SimResult};

/// The machine's replay state, lent to one core at a time: everything a
/// core reads or changes outside its own contexts.
pub(crate) struct Shared<'a> {
    pub(crate) mem: MemSys,
    pub(crate) threads: Vec<ThreadState<'a>>,
    pub(crate) regions: &'a CodeRegions,
    pub(crate) ctl: MachineCtl,
}

impl<'a> Shared<'a> {
    /// The state of a machine about to replay `bundle`, one software
    /// thread per trace, none of them bound to a context yet.
    pub(crate) fn new(cfg: &MachineConfig, bundle: &'a TraceBundle, wraps: bool) -> Self {
        Shared {
            mem: MemSys::new(cfg),
            threads: bundle
                .threads
                .iter()
                .map(|t| ThreadState::new(t, &bundle.regions, wraps))
                .collect(),
            regions: &bundle.regions,
            ctl: MachineCtl {
                remaining: bundle.threads.len(),
                interconnect: cfg.interconnect,
                ..Default::default()
            },
        }
    }
}

/// Global run-state shared by the core models.
#[derive(Debug, Default)]
pub(crate) struct MachineCtl {
    /// Threads not yet finished (completion mode).
    pub(crate) remaining: usize,
    /// Work units (transactions/queries) completed in the current window.
    pub(crate) units: u64,
    /// Sum of unit latencies in cycles.
    pub(crate) unit_cycles: u64,
    /// Instructions retired in the current window.
    pub(crate) instrs: u64,
    /// Cost model for `RemoteSend`/`RemoteRecv` events (multi-instance
    /// deployments; copied from the machine config at assembly).
    pub(crate) interconnect: Interconnect,
    /// Interconnect traffic consumed in the current window.
    pub(crate) remote: RemoteCounters,
}

/// What to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Saturated-throughput measurement: wrap traces, warm up, then
    /// measure for a fixed window.
    Throughput { warmup: u64, measure: u64 },
    /// Run every trace once to completion (bounded by `max_cycles`).
    Completion { max_cycles: u64 },
}

impl RunMode {
    /// Whether traces wrap at their end (throughput sampling) or run
    /// once (completion / response time).
    pub(crate) fn wraps(self) -> bool {
        matches!(self, RunMode::Throughput { .. })
    }
}

/// Build the core model for one slot.
fn make_core(cfg: &MachineConfig, kind: CoreKind) -> Box<dyn Core> {
    match kind {
        CoreKind::Fat { width, rob, mshrs } => Box::new(FatCore::new(cfg, width, rob, mshrs)),
        CoreKind::Lean { width, contexts } => Box::new(LeanCore::new(cfg, contexts, width)),
    }
}

/// The machine's view of one core between calls: the span its last call
/// simulated, charged when the core is next called (or the run stops).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// The span's end: the next cycle at which the core is called.
    until: u64,
    /// First cycle of the span not yet charged to the core's breakdown.
    owed_from: u64,
    /// Class every cycle in `owed_from..until` is charged to.
    class: Option<CycleClass>,
}

/// A fully assembled machine, ready to run. Each call of a core returns
/// the span of cycles it simulated; the core is not called again before
/// the span ends, its cycles are charged in bulk, and when every core is
/// inside a span the clock jumps to the earliest end.
pub struct Machine<'a> {
    cfg: MachineConfig,
    shared: Shared<'a>,
    cores: Vec<Box<dyn Core>>,
    spans: Vec<Span>,
    per_core: Vec<Breakdown>,
    now: u64,
    mode: RunMode,
}

impl<'a> Machine<'a> {
    /// Assemble an already-validated machine and bind the bundle's
    /// threads to hardware contexts round-robin (thread i → context
    /// i mod total_contexts, contexts numbered core-major). Reached via
    /// [`MachineBuilder::build`], which performs the validation.
    pub(crate) fn assemble(cfg: MachineConfig, mode: RunMode, bundle: &'a TraceBundle) -> Self {
        let mut cores: Vec<Box<dyn Core>> = cfg.slots.iter().map(|&k| make_core(&cfg, k)).collect();

        // Bind threads to contexts. Slots may differ in context count
        // (heterogeneous machines), so walk the per-core context lists.
        let ctx_map: Vec<(usize, usize)> = cores
            .iter()
            .enumerate()
            .flat_map(|(c, core)| (0..core.contexts().len()).map(move |s| (c, s)))
            .collect();
        for i in 0..bundle.threads.len() {
            let (c, s) = ctx_map[i % ctx_map.len()];
            let base = &mut cores[c].contexts_mut()[s];
            if base.thread.is_none() {
                base.thread = Some(i);
            } else {
                base.run_q.push_back(i);
            }
        }

        let n_cores = cfg.n_cores;
        Machine {
            shared: Shared::new(&cfg, bundle, mode.wraps()),
            cfg,
            cores,
            spans: vec![Span::default(); n_cores],
            per_core: vec![Breakdown::default(); n_cores],
            now: 0,
            mode,
        }
    }

    /// Charge core `c` the cycles of its span up to (not including)
    /// `upto`.
    #[inline]
    fn settle(&mut self, c: usize, upto: u64) {
        let s = &mut self.spans[c];
        if let Some(class) = s.class {
            self.per_core[c].charge(class, upto - s.owed_from);
        }
        s.owed_from = upto;
    }

    /// Run cycles `now..end`, calling only cores whose span has ended; in
    /// completion mode stop after the cycle that finishes the last
    /// thread. No span crosses `end`: on return every core is charged up
    /// to `now` and due by then. Each call is shown to `seen` as (core,
    /// `now`, the span it returned).
    fn run_until(&mut self, end: u64, seen: &mut impl FnMut(usize, u64, Tick)) {
        let stop_when_done = !self.mode.wraps();
        while self.now < end && !(stop_when_done && self.shared.ctl.remaining == 0) {
            let now = self.now;
            let mut next = end;
            for c in 0..self.cores.len() {
                if self.spans[c].until > now {
                    next = next.min(self.spans[c].until);
                    continue;
                }
                self.settle(c, now);
                let tick = self.cores[c].cycle(c, now, end, &mut self.shared);
                debug_assert!(
                    now < tick.until && tick.until <= end,
                    "span {now}..{}",
                    tick.until
                );
                seen(c, now, tick);
                self.spans[c] = Span {
                    until: tick.until,
                    owed_from: now,
                    class: tick.class,
                };
                next = next.min(tick.until);
            }
            // The cycle that finishes the last thread ends its span, so a
            // completion run ends at `now + 1`: cycles past it are never
            // charged. A span that would outlive the run is only ever a
            // quiet one, which the final settle cuts at `now`.
            debug_assert!(next == now + 1 || self.shared.ctl.remaining > 0 || !stop_when_done);
            self.now = next;
        }
        for c in 0..self.cores.len() {
            self.settle(c, self.now);
        }
    }

    /// Zero all measurement state (end of warm-up); cache/thread state is
    /// preserved.
    fn reset_measurement(&mut self) {
        self.shared.mem.reset_counters();
        let ctl = &mut self.shared.ctl;
        ctl.units = 0;
        ctl.unit_cycles = 0;
        ctl.instrs = 0;
        ctl.remote = RemoteCounters::default();
        for b in &mut self.per_core {
            *b = Breakdown::default();
        }
    }

    fn result(&self, cycles: u64) -> SimResult {
        // Conservation: a wrapping thread never leaves its context, so a
        // core that holds one was charged every cycle of the window.
        debug_assert!(
            !self.mode.wraps()
                || self.cores.iter().zip(&self.per_core).all(|(core, b)| {
                    core.contexts().iter().all(|c| c.thread.is_none()) || b.total() == cycles
                }),
            "an active core's breakdown must sum to the measured window"
        );
        let mut agg = Breakdown::default();
        for b in &self.per_core {
            agg.merge(b);
        }
        let ctl = &self.shared.ctl;
        SimResult {
            machine: self.cfg.name.clone(),
            cycles: cycles.max(1),
            instrs: ctl.instrs,
            units: ctl.units,
            breakdown: agg,
            per_core: self.per_core.clone(),
            mem: self.shared.mem.counters.clone(),
            remote: ctl.remote,
            avg_unit_cycles: (ctl.units > 0).then(|| ctl.unit_cycles as f64 / ctl.units as f64),
        }
    }

    /// Run the machine's configured [`RunMode`] to the end and report.
    pub fn execute(self) -> SimResult {
        self.execute_seen(&mut |_, _, _| {})
    }

    /// [`execute`](Self::execute), showing every core call's span to
    /// `seen` as it is made.
    pub(crate) fn execute_seen(mut self, seen: &mut impl FnMut(usize, u64, Tick)) -> SimResult {
        self.run(|m, end| m.run_until(end, seen))
    }

    fn run(&mut self, mut run_until: impl FnMut(&mut Self, u64)) -> SimResult {
        match self.mode {
            RunMode::Throughput { warmup, measure } => {
                run_until(self, warmup);
                self.reset_measurement();
                run_until(self, warmup + measure);
                self.result(measure)
            }
            RunMode::Completion { max_cycles } => {
                run_until(self, max_cycles);
                self.result(self.now)
            }
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::config::MachineConfig;
    use crate::stats::CycleClass;
    use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};

    fn run(cfg: MachineConfig, bundle: &TraceBundle, mode: RunMode) -> SimResult {
        MachineBuilder::from_config(cfg, mode)
            .build(bundle)
            .expect("valid preset")
            .execute()
    }

    /// A small synthetic workload: `n` threads, each interleaving compute
    /// with loads over a private array plus a shared region.
    fn bundle(n_threads: usize, loads_per_thread: usize) -> TraceBundle {
        let mut regions = CodeRegions::new();
        let r = regions.add("work", 16 << 10, 1.0);
        let threads = (0..n_threads)
            .map(|t| {
                let mut tr = Tracer::recording();
                for k in 0..loads_per_thread {
                    tr.exec(r, 20);
                    // private line
                    tr.load((0x1_0000 + t * 0x10000 + k * 64) as u64, 8);
                    // shared line (read)
                    tr.load(0x8_0000 + (k % 64) as u64 * 64, 8);
                    if k % 10 == 9 {
                        tr.unit_end();
                    }
                }
                tr.unit_end();
                tr.finish()
            })
            .collect();
        TraceBundle::new(regions, threads)
    }

    #[test]
    fn completion_run_finishes_and_accounts_all_cycles() {
        let cfg = MachineConfig::fat_cmp(2, 1 << 20, 8);
        let b = bundle(2, 50);
        let res = run(
            cfg,
            &b,
            RunMode::Completion {
                max_cycles: 2_000_000,
            },
        );
        assert!(res.instrs > 0);
        assert_eq!(res.units, 2 * (5 + 1));
        // Breakdown cycles == sum over active cores of measured cycles: each
        // active core contributes ≤ cycles; with 2 threads on 2 cores both
        // active until done — totals must not exceed 2x cycles and must be
        // positive.
        assert!(res.breakdown.total() > 0);
        assert!(res.breakdown.total() <= 2 * res.cycles);
        assert!(res.avg_unit_cycles.unwrap() > 0.0);
    }

    #[test]
    fn throughput_run_measures_window() {
        let cfg = MachineConfig::lean_cmp(1, 1 << 20, 8);
        let b = bundle(4, 50);
        let res = run(
            cfg,
            &b,
            RunMode::Throughput {
                warmup: 10_000,
                measure: 20_000,
            },
        );
        assert_eq!(res.cycles, 20_000);
        assert!(res.instrs > 0);
        assert!(res.uipc() > 0.0);
        // One core active: breakdown total == measure window.
        assert_eq!(res.breakdown.total(), 20_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = MachineConfig::fat_cmp(2, 1 << 20, 8);
        let b = bundle(3, 40);
        let r1 = run(
            cfg.clone(),
            &b,
            RunMode::Throughput {
                warmup: 5000,
                measure: 10_000,
            },
        );
        let r2 = run(
            cfg,
            &b,
            RunMode::Throughput {
                warmup: 5000,
                measure: 10_000,
            },
        );
        assert_eq!(r1.instrs, r2.instrs);
        assert_eq!(r1.breakdown, r2.breakdown);
        assert_eq!(r1.mem, r2.mem);
    }

    #[test]
    fn more_threads_than_contexts_still_finishes() {
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 8); // 1 context total
        let b = bundle(3, 30);
        let res = run(
            cfg,
            &b,
            RunMode::Completion {
                max_cycles: 5_000_000,
            },
        );
        assert_eq!(res.units, 3 * (3 + 1));
        // Context switching must have been charged somewhere.
        assert!(res.breakdown.get(CycleClass::Other) > 0);
    }

    #[test]
    fn lean_saturated_hides_stalls_better_than_fat() {
        // The paper's core claim (§4): with enough threads, the lean chip
        // hides memory stalls that the fat chip exposes. The workload must
        // be genuinely memory-bound: strided loads over a footprint well
        // beyond the L2.
        let mut regions = CodeRegions::new();
        let r = regions.add("work", 16 << 10, 1.0);
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let mut tr = Tracer::recording();
                for k in 0..6000u64 {
                    tr.exec(r, 32);
                    // 32 KB per thread (128 KB per lean core, 4 threads):
                    // misses the 64 KB L1D steadily but hits the shared
                    // L2 once warm — the ~12-cycle stalls that four
                    // contexts can hide and one context cannot.
                    tr.load(0x10_0000 + (t as u64) * 0x4_0000 + (k % 512) * 64, 8);
                }
                tr.finish()
            })
            .collect();
        let b = TraceBundle::new(regions, threads);
        let fat = run(
            MachineConfig::fat_cmp(4, 4 << 20, 10),
            &b,
            RunMode::Throughput {
                warmup: 300_000,
                measure: 200_000,
            },
        );
        let lean = run(
            MachineConfig::lean_cmp(4, 4 << 20, 10),
            &b,
            RunMode::Throughput {
                warmup: 300_000,
                measure: 200_000,
            },
        );
        assert!(
            lean.breakdown.data_stall_fraction() < fat.breakdown.data_stall_fraction(),
            "lean D-stalls {:.2} must be below fat {:.2}",
            lean.breakdown.data_stall_fraction(),
            fat.breakdown.data_stall_fraction()
        );
        assert!(
            lean.uipc() > fat.uipc(),
            "lean UIPC {:.2} must beat fat {:.2} when saturated and memory-bound",
            lean.uipc(),
            fat.uipc()
        );
    }

    /// Remote markers must (a) show up in the remote counters, (b) cost
    /// cycles charged to `Other`, and (c) leave every other counter
    /// family alone — a remote-free trace reports all-zero counters.
    #[test]
    fn remote_markers_cost_interconnect_cycles_on_both_camps() {
        fn remote_bundle(with_remote: bool) -> TraceBundle {
            let mut regions = CodeRegions::new();
            let r = regions.add("work", 4 << 10, 0.0);
            let mut tr = Tracer::recording();
            for _ in 0..200 {
                tr.exec(r, 20);
                if with_remote {
                    tr.remote_send(64);
                    tr.remote_recv(256);
                }
                tr.unit_end();
            }
            TraceBundle::new(regions, vec![tr.finish()])
        }
        for cfg in [
            MachineConfig::fat_cmp(1, 1 << 20, 8),
            MachineConfig::lean_cmp(1, 1 << 20, 8),
        ] {
            let local = run(
                cfg.clone(),
                &remote_bundle(false),
                RunMode::Completion {
                    max_cycles: 10_000_000,
                },
            );
            assert_eq!(local.remote, crate::stats::RemoteCounters::default());
            let remote = run(
                cfg.clone(),
                &remote_bundle(true),
                RunMode::Completion {
                    max_cycles: 10_000_000,
                },
            );
            assert_eq!(remote.remote.sends, 200, "{}", cfg.name);
            assert_eq!(remote.remote.recvs, 200);
            assert_eq!(remote.remote.bytes, 200 * (64 + 256));
            let link = cfg.interconnect;
            let per_unit = link.send_cycles(64) + link.recv_cycles(256);
            assert_eq!(remote.remote.stall_cycles, 200 * per_unit);
            // The stall must actually lengthen the run, charged to Other.
            // (Not local + stalls exactly: the instruction-stream prefetcher
            // keeps running during a gate, so a gated run hides some fetch
            // latency the local run pays.)
            assert!(
                remote.cycles > remote.remote.stall_cycles && remote.cycles > local.cycles,
                "{}: remote run {} must exceed both stalls {} and local {}",
                cfg.name,
                remote.cycles,
                remote.remote.stall_cycles,
                local.cycles
            );
            assert!(remote.breakdown.get(CycleClass::Other) >= remote.remote.stall_cycles);
            // Remote traffic is not coherence traffic.
            assert_eq!(remote.mem.coherence_transfers, 0);
        }
    }

    #[test]
    fn empty_bundle_runs_zero_work() {
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 8);
        let b = TraceBundle::new(CodeRegions::new(), vec![]);
        let res = run(cfg, &b, RunMode::Completion { max_cycles: 1000 });
        assert_eq!(res.instrs, 0);
        assert_eq!(res.units, 0);
    }
}
