//! Fat-camp core: wide-issue out-of-order with a reorder-buffer window.
//!
//! The model is deliberately simple but captures the two properties the
//! paper's analysis rests on:
//!
//! * **Memory-level parallelism for independent loads.** Loads are issued
//!   to the memory system at decode; up to `mshrs` can be outstanding.
//!   Retirement is in order, so a long-latency load at the head of the
//!   window hides the latency of the younger loads behind it — the reason
//!   DSS scans run well on fat cores.
//! * **Dependence-limited overlap.** A load marked `dep` (pointer chase)
//!   gates *decode* until its data returns: nothing younger can even enter
//!   the window. B+Tree descents and hash-chain walks therefore serialize,
//!   which is the microarchitectural face of OLTP's "tight data
//!   dependencies" (paper §1, §4).
//!
//! Stall attribution is retirement-based: a cycle in which no instruction
//! retires is charged to whatever blocks the head of the window (or the
//! fetch/decode gate when the window is empty).

use std::collections::VecDeque;

use crate::config::{CoreKind, MachineConfig};
use crate::core::{Core, Tick};
use crate::ctx::{issue, run_fetched, CtxBase, Wait, Waits};
use crate::machine::Shared;
use crate::stats::CycleClass;

/// One window entry: either a run of already-complete ALU work or an
/// in-flight load.
#[derive(Debug)]
enum RobSlot {
    Run { left: u32 },
    Load { ready_at: u64, class: CycleClass },
}

#[derive(Debug)]
pub(crate) struct FatCore {
    base: CtxBase,
    rob: VecDeque<RobSlot>,
    /// Instructions currently in the window.
    rob_instrs: usize,
    rob_cap: usize,
    width: usize,
    /// Sustainable ALU retirement per cycle. Database code has tight
    /// dependency chains, so a 4-wide core sustains roughly half its peak
    /// on integer work (paper §1: "tight data dependencies that reduce
    /// instruction-level parallelism"). Loads still dispatch at full
    /// width (MLP is dependence-marked separately).
    alu_width: usize,
    mshrs: usize,
    outstanding: usize,
    pipeline_depth: u64,
    quantum: u64,
    switch_penalty: u64,
    /// Decode halted until (cycle, class): dependent load, misprediction
    /// redirect, or context-switch drain.
    gate_until: u64,
    gate_class: CycleClass,
    /// Instruction fetch blocked until (cycle, class).
    fetch_until: u64,
    fetch_class: CycleClass,
    /// A quantum expiry requested a thread switch; performed once the
    /// window drains.
    want_switch: bool,
}

impl FatCore {
    pub(crate) fn new(cfg: &MachineConfig, width: usize, rob: usize, mshrs: usize) -> Self {
        FatCore {
            base: CtxBase::new(cfg.store_buffer, cfg.quantum),
            rob: VecDeque::with_capacity(rob),
            rob_instrs: 0,
            rob_cap: rob.max(8),
            width: width.max(1),
            alu_width: width.div_ceil(2).max(1),
            mshrs: mshrs.max(1),
            outstanding: 0,
            pipeline_depth: CoreKind::Fat { width, rob, mshrs }.pipeline_depth(),
            quantum: cfg.quantum,
            switch_penalty: cfg.switch_penalty,
            gate_until: 0,
            gate_class: CycleClass::Other,
            fetch_until: 0,
            fetch_class: CycleClass::IStallL2,
            want_switch: false,
        }
    }
}

impl Core for FatCore {
    fn contexts(&self) -> &[CtxBase] {
        std::slice::from_ref(&self.base)
    }

    fn contexts_mut(&mut self) -> &mut [CtxBase] {
        std::slice::from_mut(&mut self.base)
    }

    /// Simulate one cycle, or the quiet span it starts; a `None` class
    /// means the core has no work at all. Quiet = nothing retired, no
    /// thread rotated, `want_switch` not newly set, and decode stuck.
    fn step(&mut self, core: usize, now: u64, horizon: u64, s: &mut Shared<'_>) -> Tick {
        let mut quiet = true;
        // Thread scheduling.
        if let Some(t) = self.base.thread {
            if s.threads[t].done && self.rob.is_empty() {
                self.base
                    .rotate_thread(false, self.quantum, self.switch_penalty, now);
                quiet = false;
            }
        } else if !self.base.run_q.is_empty() {
            self.base.rotate_thread(false, self.quantum, 0, now);
            quiet = false;
        }
        if self.base.thread.is_none() && self.rob.is_empty() {
            return Tick {
                class: None,
                until: horizon,
            };
        }

        self.base.drain_stores(now);
        let retired = self.retire(now);
        s.ctl.instrs += retired as u64;

        // ---- Decode/dispatch stage ----
        let mut mshrs_full = false;
        if let Some(t) = self.base.thread {
            if !s.threads[t].done && !self.gated(now) {
                let decoded = issue(self, core, t, now, self.width, s);
                mshrs_full = decoded.wait == Some(Wait::Mshrs);
                quiet &= decoded.stuck;
            }
        }

        if self.base.thread.is_some() {
            quiet &= !self.count_quantum();
        }
        if self.want_switch && self.rob.is_empty() && self.base.store_buf.is_empty() {
            self.want_switch = false;
            self.base
                .rotate_thread(true, self.quantum, self.switch_penalty, now);
            self.gate_until = self.gate_until.max(now + self.switch_penalty);
            self.gate_class = CycleClass::Other;
            quiet = false;
        }

        // ---- Attribution ----
        if retired > 0 {
            return Tick::once(CycleClass::Compute, now);
        }
        // Nothing retired: why?
        let class = if let Some(RobSlot::Load { class, .. }) = self.rob.front() {
            *class
        } else if self.fetch_until > now {
            // Window empty: fetch / decode-gate / store-drain / fence.
            self.fetch_class
        } else if self.gate_until > now {
            self.gate_class
        } else if mshrs_full {
            CycleClass::DStallMem
        } else if let Some((_, class)) = self.base.oldest_store() {
            class
        } else {
            CycleClass::Other
        };
        let until = if quiet {
            self.quiet_until(now).min(horizon)
        } else {
            now + 1
        };
        // The quiet cycles after this one only count the quantum down, and
        // end before it reaches zero with a run queue waiting.
        if self.base.thread.is_some() {
            self.base.quantum_left = self.base.quantum_left.saturating_sub(until - now - 1);
        }
        Tick {
            class: Some(class),
            until,
        }
    }

    /// Private when the thread is unfinished, the head run gives
    /// `alu_width` and keeps one, so the cycle retires exactly that, and
    /// decode is gated or takes all it has room for from the current
    /// `Exec` run, inside the fetched I-line. Then the cycle is
    /// [`step`](Core::step) without the stages that would do nothing: no
    /// thread rotates (the window stays occupied, so a spent quantum only
    /// requests the switch), and decode neither fetches nor reads an
    /// event. Stores that complete meanwhile wait for the next `step`'s
    /// `drain_stores`: nothing a private cycle does reads the buffer.
    #[inline]
    fn private_cycle(&mut self, t: u64, s: &mut Shared<'_>) -> bool {
        let Some(th) = self.base.thread.map(|i| &mut s.threads[i]) else {
            return false;
        };
        let Some(&RobSlot::Run { left: head }) = self.rob.front() else {
            return false;
        };
        if th.done || head as usize <= self.alu_width {
            return false;
        }
        // Decode first: it and retire work on opposite ends of the window,
        // and its room already counts the `alu_width` retire frees.
        if !self.gated(t) {
            let room = self
                .width
                .min(self.rob_cap + self.alu_width - self.rob_instrs);
            let Some((r, left)) = th.fetched_run(s.regions, room) else {
                return false;
            };
            run_fetched(self, th, r, left, room, t);
        }
        // `retire`, for a head run that gives `alu_width` and keeps one.
        if let Some(RobSlot::Run { left }) = self.rob.front_mut() {
            *left -= self.alu_width as u32;
        }
        self.rob_instrs -= self.alu_width;
        s.ctl.instrs += self.alu_width as u64;
        self.count_quantum();
        true
    }
}

impl FatCore {
    /// After a quiet cycle at `now`: the earliest cycle at which
    /// something the cycle depends on changes — the window head's load
    /// returns, a decode or fetch gate opens, the oldest store completes,
    /// or the quantum runs out with a run queue waiting (cycle `now + 1 +
    /// quantum_left` sees the countdown at zero and requests the switch).
    fn quiet_until(&self, now: u64) -> u64 {
        let head = match self.rob.front() {
            Some(RobSlot::Load { ready_at, .. }) => *ready_at,
            _ => u64::MAX,
        };
        let store = self
            .base
            .oldest_store()
            .map_or(u64::MAX, |(ready, _)| ready);
        let switch_due =
            self.base.thread.is_some() && !self.want_switch && !self.base.run_q.is_empty();
        let quantum = now + 1 + self.base.quantum_left;
        [head, self.gate_until, self.fetch_until, store]
            .into_iter()
            .chain(switch_due.then_some(quantum))
            .filter(|&t| t > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Retire stage (in order; ALU runs limited by dependency chains,
    /// loads by readiness). Returns how many instructions retired.
    fn retire(&mut self, now: u64) -> usize {
        let mut retired = 0usize;
        while retired < self.width {
            match self.rob.front_mut() {
                Some(RobSlot::Run { left }) => {
                    let take = (*left as usize).min(self.alu_width.saturating_sub(retired));
                    if take == 0 {
                        break;
                    }
                    *left -= take as u32;
                    retired += take;
                    self.rob_instrs -= take;
                    if *left == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(RobSlot::Load { ready_at, .. }) => {
                    if *ready_at <= now {
                        self.rob.pop_front();
                        retired += 1;
                        self.rob_instrs -= 1;
                        self.outstanding -= 1;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        retired
    }

    /// OS quantum bookkeeping for the running thread: count the quantum
    /// down or, once it is spent with a run queue waiting, request the
    /// switch. Returns whether the request is new.
    #[inline]
    fn count_quantum(&mut self) -> bool {
        !self.base.tick_quantum() && !std::mem::replace(&mut self.want_switch, true)
    }

    /// Whether decode is halted at `now`: a switch is draining the
    /// window, or a decode or fetch gate is closed.
    #[inline]
    fn gated(&self, now: u64) -> bool {
        self.want_switch || self.gate_until > now || self.fetch_until > now
    }
}

/// The fat core holds a window slot for each instruction it takes, keeps
/// a load that misses in flight on an MSHR, and halts decode behind a
/// dependent load, a misprediction redirect, an owed interconnect wait or
/// an I-fetch miss. A full window, MSHRs or store buffer and an
/// undrained fence arm nothing: the cycle is *stuck*, and quiet when
/// nothing retires (DESIGN.md §2). Only the MSHRs' blame is not the
/// attribution's fall-back (the oldest store, else `Other`).
impl Waits for FatCore {
    fn ctx(&mut self) -> &mut CtxBase {
        &mut self.base
    }

    fn room(&self) -> usize {
        self.rob_cap - self.rob_instrs
    }

    fn mshr_free(&self) -> bool {
        self.outstanding < self.mshrs
    }

    fn drained(&self) -> bool {
        self.rob.is_empty() && self.base.store_buf.is_empty()
    }

    /// Append ALU work to the window, merging with a trailing run.
    #[inline]
    fn take(&mut self, n: u32) {
        if let Some(RobSlot::Run { left }) = self.rob.back_mut() {
            *left += n;
        } else {
            self.rob.push_back(RobSlot::Run { left: n });
        }
        self.rob_instrs += n as usize;
    }

    fn take_miss(&mut self, until: u64, class: CycleClass, dep: bool) -> bool {
        self.rob.push_back(RobSlot::Load {
            ready_at: until,
            class,
        });
        self.rob_instrs += 1;
        self.outstanding += 1;
        dep
    }

    fn wait(&mut self, why: Wait, now: u64) {
        match why {
            Wait::Mshrs | Wait::Stores | Wait::Drain => {}
            Wait::Fetch { until, class } => {
                self.fetch_until = until;
                self.fetch_class = class;
            }
            Wait::Gate { until, class } => {
                self.gate_until = until;
                self.gate_class = class;
            }
            Wait::Mispredict => {
                self.gate_until = now + self.pipeline_depth;
                self.gate_class = CycleClass::Other;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use dbcmp_trace::{CodeRegions, ThreadTrace, TraceBundle, Tracer};

    fn bundle(traces: Vec<ThreadTrace>) -> TraceBundle {
        let mut regions = CodeRegions::new();
        regions.add("r0", 4096, 0.0);
        TraceBundle::new(regions, traces)
    }

    /// A core running thread 0 of `b`.
    fn setup<'a>(cfg: &MachineConfig, b: &'a TraceBundle, mshrs: usize) -> (FatCore, Shared<'a>) {
        let mut core = FatCore::new(cfg, 4, 128, mshrs);
        core.base.thread = (!b.threads.is_empty()).then_some(0);
        (core, Shared::new(cfg, b, false))
    }

    fn run_to_completion(core: &mut FatCore, s: &mut Shared<'_>, max: u64) -> (u64, u64) {
        // Returns (cycles, compute_cycles).
        let mut compute = 0;
        let mut now = 0;
        while now < max {
            match core.cycle(0, now, now + 1, s).class {
                Some(CycleClass::Compute) => compute += 1,
                Some(_) => {}
                None => break,
            }
            now += 1;
            if s.threads.iter().all(|t| t.done) && core.rob.is_empty() {
                break;
            }
        }
        (now, compute)
    }

    #[test]
    fn wide_issue_retires_width_per_cycle_when_warm() {
        // Stream buffers stay enabled: without them every cold I-line costs
        // a full memory round trip and fetch dominates.
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        // Two passes through the 4 KB region: the first streams cold code
        // from memory (~100 cycles/line with prefetch depth 4); the second
        // hits the L1I and runs essentially at full width.
        let mut t = Tracer::recording();
        t.exec(0, 2048);
        let b = bundle(vec![t.finish()]);
        let (mut core, mut s) = setup(&cfg, &b, 8);
        let (cycles, compute) = run_to_completion(&mut core, &mut s, 100_000);
        assert_eq!(s.ctl.instrs, 2048);
        // 2048 instrs at width 4 = 512 compute cycles minimum.
        assert!(compute >= 512, "compute={compute}");
        // Warm pass must not repeat the ~6.5k-cycle cold-fetch cost.
        assert!(cycles < 8000, "cycles={cycles}");
    }

    #[test]
    fn independent_loads_overlap_dependent_loads_serialize() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;

        // 8 independent loads to distinct cold lines.
        let mut ti = Tracer::recording();
        for k in 0..8u64 {
            ti.load((1 << 16) + k * 4096, 8);
        }
        let bi = bundle(vec![ti.finish()]);
        // 8 dependent loads to distinct cold lines.
        let mut td = Tracer::recording();
        for k in 0..8u64 {
            td.load_dep((1 << 20) + k * 4096, 8);
        }
        let bd = bundle(vec![td.finish()]);

        let (mut core, mut s) = setup(&cfg, &bi, 8);
        let (cyc_indep, _) = run_to_completion(&mut core, &mut s, 100_000);
        let (mut core2, mut s2) = setup(&cfg, &bd, 8);
        let (cyc_dep, _) = run_to_completion(&mut core2, &mut s2, 100_000);

        // Dependent chain ≈ 8 × mem_latency; independent ≈ 1 × mem_latency
        // (+ epsilon). Require at least 4x separation.
        assert!(
            cyc_dep > 4 * cyc_indep,
            "dep={cyc_dep} indep={cyc_indep}: OoO must overlap independent misses"
        );
    }

    #[test]
    fn stall_cycles_charged_to_head_class() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let mut t = Tracer::recording();
        t.load(1 << 16, 8); // cold -> memory
        let b = bundle(vec![t.finish()]);
        let (mut core, mut s) = setup(&cfg, &b, 8);
        // Cycle 0: decode issues the load; nothing retires -> DStallMem.
        let c0 = core.cycle(0, 0, 1, &mut s).class.unwrap();
        assert_eq!(c0, CycleClass::DStallMem);
        let c1 = core.cycle(0, 1, 2, &mut s).class.unwrap();
        assert_eq!(c1, CycleClass::DStallMem);
    }

    #[test]
    fn mshr_limit_caps_overlap() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        // 16 independent cold loads, but only 2 MSHRs.
        let mut t = Tracer::recording();
        for k in 0..16u64 {
            t.load((1 << 16) + k * 4096, 8);
        }
        let b = bundle(vec![t.finish()]);
        let (mut core, mut s) = setup(&cfg, &b, 2);
        let (cyc_2mshr, _) = run_to_completion(&mut core, &mut s, 100_000);
        // With 2 MSHRs, 16 misses need ≥ 8 serialized memory rounds.
        assert!(cyc_2mshr >= 8 * 400, "cyc={cyc_2mshr}");
    }

    #[test]
    fn fence_drains_window() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let mut t = Tracer::recording();
        t.load(1 << 16, 8);
        t.fence();
        t.exec(0, 4);
        let b = bundle(vec![t.finish()]);
        let (mut core, mut s) = setup(&cfg, &b, 8);
        let (cycles, _) = run_to_completion(&mut core, &mut s, 100_000);
        // The exec after the fence cannot overlap the miss: total ≥ mem
        // latency + some compute.
        assert!(cycles > 400, "cycles={cycles}");
        assert_eq!(s.ctl.instrs, 5);
        assert!(s.threads[0].done);
    }

    #[test]
    fn inactive_core_reports_none() {
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        let b = bundle(vec![]);
        let (mut core, mut s) = setup(&cfg, &b, 8);
        assert!(core.cycle(0, 0, 1, &mut s).class.is_none());
    }
}
