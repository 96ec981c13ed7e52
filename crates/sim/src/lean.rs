//! Lean-camp core: narrow, in-order, heavily multithreaded (Niagara-style).
//!
//! Each cycle the core picks the next runnable hardware context in
//! round-robin order and issues up to `width` instructions from it. Any L1
//! miss (data or instruction) blocks that context until the fill returns;
//! meanwhile the other contexts keep the pipeline busy. A cycle counts as
//! computation if *any* instruction issued; otherwise it is charged to the
//! stall class of the longest-blocked context — when every context is
//! waiting on memory, that is precisely the exposed data-stall time the
//! paper measures for lean cores under unsaturated load (§4).

use crate::config::{CoreKind, MachineConfig};
use crate::core::{Core, Tick};
use crate::ctx::{issue, run_fetched, CtxBase, Wait, Waits};
use crate::machine::Shared;
use crate::stats::CycleClass;

#[derive(Debug)]
pub(crate) struct LeanCore {
    ctxs: Vec<CtxBase>,
    rr: usize,
    width: usize,
    pipeline_depth: u64,
    quantum: u64,
    switch_penalty: u64,
    /// One of this core's threads finished (nobody else can finish one:
    /// threads never migrate) or nothing was scanned yet: re-scan the
    /// contexts for finished threads next cycle.
    rescan: bool,
    /// Some context holds a thread (as of the last scan).
    any_thread: bool,
}

impl LeanCore {
    pub(crate) fn new(cfg: &MachineConfig, contexts: usize, width: usize) -> Self {
        LeanCore {
            ctxs: (0..contexts)
                .map(|_| CtxBase::new(cfg.store_buffer, cfg.quantum))
                .collect(),
            rr: 0,
            width: width.max(1),
            pipeline_depth: CoreKind::Lean { width, contexts }.pipeline_depth(),
            quantum: cfg.quantum,
            switch_penalty: cfg.switch_penalty,
            rescan: true,
            any_thread: false,
        }
    }
}

impl Core for LeanCore {
    fn contexts(&self) -> &[CtxBase] {
        &self.ctxs
    }

    fn contexts_mut(&mut self) -> &mut [CtxBase] {
        &mut self.ctxs
    }

    /// Simulate one cycle, or the quiet span it starts; a `None` class
    /// means the core has no threads at all (inactive — not accounted).
    /// Only a cycle with every context blocked is quiet.
    fn step(&mut self, core: usize, now: u64, horizon: u64, s: &mut Shared<'_>) -> Tick {
        // Retire finished threads and schedule queued ones.
        if self.rescan {
            self.rescan = false;
            self.any_thread = false;
            for ctx in &mut self.ctxs {
                if let Some(t) = ctx.thread {
                    if s.threads[t].done {
                        ctx.rotate_thread(false, self.quantum, self.switch_penalty, now);
                    }
                } else if !ctx.run_q.is_empty() {
                    ctx.rotate_thread(false, self.quantum, 0, now);
                }
                self.any_thread |= ctx.thread.is_some();
            }
        }
        if !self.any_thread {
            return Tick {
                class: None,
                until: horizon,
            };
        }

        let chosen = self.pick(now);
        self.advance(1);
        let Some((i, t)) = chosen else {
            // All contexts blocked: charge the longest-waiting one, and
            // stay quiet until the first of them unblocks. The pointer
            // advances once per quiet cycle too.
            let blocked = || self.ctxs.iter().filter(|c| c.thread.is_some());
            let cls = blocked()
                .min_by_key(|c| c.blocked_since)
                .map(|c| c.blocked_class)
                .unwrap_or(CycleClass::Other);
            let until = blocked()
                .map(|c| c.blocked_until)
                .min()
                .unwrap_or(0)
                .clamp(now + 1, horizon);
            self.advance(until - now - 1);
            return Tick {
                class: Some(cls),
                until,
            };
        };

        // OS quantum.
        let ctx = &mut self.ctxs[i];
        if !ctx.tick_quantum() {
            ctx.rotate_thread(true, self.quantum, self.switch_penalty, now);
            return Tick::once(CycleClass::Other, now);
        }

        // Issue up to `width` instructions from this context.
        ctx.drain_stores(now);
        let mut picked = Picked {
            ctx,
            pipeline_depth: self.pipeline_depth,
        };
        let issued = issue(&mut picked, core, t, now, self.width, s);
        self.rescan = s.threads[t].done;
        s.ctl.instrs += issued.instrs as u64;
        if issued.progress > 0 {
            Tick::once(CycleClass::Compute, now)
        } else {
            // The context blocked on its very first slot this cycle.
            Tick::once(self.ctxs[i].blocked_class, now)
        }
    }

    /// Private when no thread of the core finished since the last scan
    /// and the context picked round-robin has quantum left and issues its
    /// full `width` from its current `Exec` run, inside the fetched
    /// I-line. Then the cycle is [`step`](Core::step) without the stages
    /// that would do nothing: no scan, no rotation, and issue neither
    /// fetches nor reads an event. Stores that complete meanwhile wait
    /// for the context's next `drain_stores`: nothing a private cycle
    /// does reads the buffer.
    #[inline]
    fn private_cycle(&mut self, t: u64, s: &mut Shared<'_>) -> bool {
        if self.rescan {
            return false;
        }
        let Some((i, thread)) = self.pick(t) else {
            return false;
        };
        let ctx = &mut self.ctxs[i];
        let th = &mut s.threads[thread];
        let Some((r, left)) = th.fetched_run(s.regions, self.width) else {
            return false;
        };
        if !ctx.tick_quantum() {
            return false;
        }
        let mut picked = Picked {
            ctx,
            pipeline_depth: self.pipeline_depth,
        };
        let n = run_fetched(&mut picked, th, r, left, self.width, t);
        self.advance(1);
        s.ctl.instrs += n as u64;
        true
    }
}

impl LeanCore {
    /// The next runnable context at `now`, round-robin from the pointer,
    /// and its thread. (`rr < n`, so the wraps are one compare, not a
    /// division.)
    #[inline]
    fn pick(&self, now: u64) -> Option<(usize, usize)> {
        let n = self.ctxs.len();
        (self.rr..self.rr + n)
            .map(|i| if i < n { i } else { i - n })
            .find(|&i| self.ctxs[i].runnable(now))
            .and_then(|i| Some((i, self.ctxs[i].thread?)))
    }

    /// Move the pointer on as `cycles` cycles do, one context each.
    #[inline]
    fn advance(&mut self, cycles: u64) {
        let n = self.ctxs.len();
        self.rr = if cycles == 1 && self.rr + 1 < n {
            self.rr + 1
        } else {
            ((self.rr as u64 + cycles) % n as u64) as usize
        };
    }
}

/// The context a lean core issues from this cycle. It waits by blocking
/// until its wait ends, while the core issues from its other contexts: a
/// load that misses, a full store buffer (until the oldest store
/// completes) and an undrained fence (until the newest one does) all
/// block it. It has no window and no MSHR limit.
struct Picked<'a> {
    ctx: &'a mut CtxBase,
    pipeline_depth: u64,
}

impl Waits for Picked<'_> {
    fn ctx(&mut self) -> &mut CtxBase {
        self.ctx
    }

    fn room(&self) -> usize {
        usize::MAX
    }

    fn mshr_free(&self) -> bool {
        true
    }

    fn drained(&self) -> bool {
        self.ctx.store_buf.is_empty()
    }

    fn take(&mut self, _: u32) {}

    fn take_miss(&mut self, _: u64, _: CycleClass, _: bool) -> bool {
        true
    }

    fn wait(&mut self, why: Wait, now: u64) {
        let until = match why {
            Wait::Stores => self.ctx.oldest_store(),
            Wait::Drain => self.ctx.newest_store(),
            Wait::Fetch { until, class } | Wait::Gate { until, class } => Some((until, class)),
            Wait::Mispredict => Some((now + self.pipeline_depth, CycleClass::Other)),
            Wait::Mshrs => None,
        };
        if let Some((until, class)) = until {
            self.ctx.block(until, class, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::machine::RunMode;
    use crate::stats::SimResult;
    use dbcmp_trace::{CodeRegions, ThreadTrace, TraceBundle, Tracer};

    /// Every trace once; a run that stops short of `MAX` finished them all.
    const MAX: u64 = 100_000;
    const DONE: RunMode = RunMode::Completion { max_cycles: MAX };

    /// `traces` on one 2-wide core with `contexts` contexts (thread i on
    /// context i mod `contexts`), and its spans in order: `spans[0]` is
    /// cycle 0's, and each starts where the one before it ended.
    fn run(
        cfg: MachineConfig,
        mode: RunMode,
        contexts: usize,
        traces: Vec<ThreadTrace>,
    ) -> (SimResult, Vec<Tick>) {
        let cfg = MachineConfig {
            slots: vec![CoreKind::Lean { width: 2, contexts }],
            ..cfg
        };
        let mut regions = CodeRegions::new();
        regions.add("r0", 4096, 0.0);
        let b = TraceBundle::new(regions, traces);
        let mut spans = Vec::new();
        let r = MachineBuilder::from_config(cfg, mode)
            .build(&b)
            .expect("valid config")
            .execute_seen(&mut |_, _, tick| spans.push(tick));
        (r, spans)
    }

    fn exec(instrs: u32) -> ThreadTrace {
        let mut t = Tracer::recording();
        t.exec(0, instrs);
        t.finish()
    }

    fn cold_load() -> ThreadTrace {
        let mut t = Tracer::recording();
        t.load(1 << 16, 8);
        t.finish()
    }

    fn no_stream_buf() -> MachineConfig {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        cfg
    }

    #[test]
    fn pure_compute_completes_and_counts() {
        let (r, spans) = run(no_stream_buf(), DONE, 4, vec![exec(100)]);
        // First cycle: cold I-miss blocks.
        let c0 = spans[0].class.unwrap();
        assert!(matches!(c0, CycleClass::IStallMem | CycleClass::IStallL2));
        assert!(r.cycles < MAX);
        assert_eq!(r.instrs, 100);
    }

    #[test]
    fn data_miss_overlapped_by_other_context() {
        // Thread 0: a single cold load (misses to memory). Thread 1: pure
        // compute.
        let (r, _) = run(no_stream_buf(), DONE, 4, vec![cold_load(), exec(50)]);
        assert!(r.cycles < MAX);
        // Thread 1's 50 instructions must have overlapped the miss.
        let compute = r.breakdown.get(CycleClass::Compute);
        assert!(compute >= 25, "compute={compute}");
    }

    #[test]
    fn all_blocked_charges_memory_stall() {
        let (_, spans) = run(no_stream_buf(), DONE, 4, vec![cold_load()]);
        // Cycle 0 initiates the miss (charged as the stall class directly).
        assert_eq!(spans[0], Tick::once(CycleClass::DStallMem, 0));
        // Subsequent cycle: the only context is blocked.
        assert_eq!(spans[1].class, Some(CycleClass::DStallMem));
    }

    #[test]
    fn inactive_core_reports_none() {
        // A completion run without threads ends before its first cycle.
        let mode = RunMode::Throughput {
            warmup: 10,
            measure: 10,
        };
        let (_, spans) = run(no_stream_buf(), mode, 4, vec![]);
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|t| t.class.is_none()));
    }

    #[test]
    fn unit_end_records_latency() {
        let mut t0 = Tracer::recording();
        t0.exec(0, 10);
        t0.unit_end();
        let (r, _) = run(no_stream_buf(), DONE, 4, vec![t0.finish()]);
        assert_eq!(r.units, 1);
        assert!(
            r.avg_unit_cycles.is_some_and(|c| c > 0.0),
            "unit must take time (cold miss at least)"
        );
    }

    #[test]
    fn quantum_rotates_threads() {
        let mut cfg = no_stream_buf();
        cfg.quantum = 20;
        cfg.switch_penalty = 5;
        // Both threads on ONE context: they must time-slice.
        let (r, _) = run(cfg, DONE, 1, vec![exec(1000), exec(1000)]);
        assert!(r.cycles < MAX, "both threads must finish via rotation");
        assert_eq!(r.instrs, 2000);
    }
}
