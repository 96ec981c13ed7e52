//! Hardware-context plumbing shared by the fat and lean core models:
//! thread binding, run queues and quantum rotation (the "OS scheduler"
//! when software threads exceed hardware contexts), store buffers, and
//! [`issue`], the one loop that consumes a thread's trace — fetch, the
//! memory accesses of loads and stores, fences and markers. Each core
//! model keeps only how a context waits ([`Waits`]).

use std::collections::VecDeque;

use dbcmp_trace::region::CodeRegion;
use dbcmp_trace::Event;

use crate::cursor::{PendingLoad, PendingStore, ThreadState};
use crate::machine::{MachineCtl, Shared};
use crate::memsys::{Access, MemClass, MemSys};
use crate::stats::CycleClass;

/// Cap on zero-width events (fences, unit markers) consumed per context
/// per cycle, bounding [`issue`]'s loop.
const MAX_META_EVENTS: usize = 64;

/// Map a *data* access outcome to the stall class it causes (L1 hits cause
/// none).
#[inline]
pub(crate) fn data_stall_class(c: MemClass) -> Option<CycleClass> {
    match c {
        MemClass::L1 => None,
        MemClass::L2Hit => Some(CycleClass::DStallL2Hit),
        MemClass::Mem => Some(CycleClass::DStallMem),
        MemClass::Coherence => Some(CycleClass::DStallCoherence),
    }
}

/// Map an *instruction* fetch outcome to its stall class.
#[inline]
pub(crate) fn instr_stall_class(c: MemClass) -> Option<CycleClass> {
    match c {
        MemClass::L1 => None,
        MemClass::L2Hit => Some(CycleClass::IStallL2),
        // Coherence on the I-side cannot happen (code is read-only), but
        // the arm keeps the match total.
        MemClass::Mem | MemClass::Coherence => Some(CycleClass::IStallMem),
    }
}

/// One hardware context: a thread slot plus its run queue and buffers.
#[derive(Debug)]
pub(crate) struct CtxBase {
    /// Thread currently scheduled here (index into the machine's threads).
    pub(crate) thread: Option<usize>,
    /// Threads waiting their turn on this context.
    pub(crate) run_q: VecDeque<usize>,
    pub(crate) quantum_left: u64,
    /// Context cannot issue until this cycle.
    pub(crate) blocked_until: u64,
    pub(crate) blocked_class: CycleClass,
    /// Cycle the current block began (for oldest-first stall attribution).
    pub(crate) blocked_since: u64,
    /// In-flight stores: (completion cycle, stall class if waited on).
    pub(crate) store_buf: VecDeque<(u64, CycleClass)>,
    pub(crate) store_cap: usize,
}

impl CtxBase {
    pub(crate) fn new(store_cap: usize, quantum: u64) -> Self {
        CtxBase {
            thread: None,
            run_q: VecDeque::new(),
            quantum_left: quantum,
            blocked_until: 0,
            blocked_class: CycleClass::Other,
            blocked_since: 0,
            store_buf: VecDeque::new(),
            store_cap: store_cap.max(1),
        }
    }

    #[inline]
    pub(crate) fn block(&mut self, until: u64, class: CycleClass, now: u64) {
        if until >= self.blocked_until {
            self.blocked_until = until;
            self.blocked_class = class;
        }
        self.blocked_since = now;
    }

    #[inline]
    pub(crate) fn runnable(&self, now: u64) -> bool {
        self.thread.is_some() && self.blocked_until <= now
    }

    /// Count one cycle of the running thread's quantum; `false`, counting
    /// nothing, when it is used up and another thread waits (the thread
    /// is due to rotate).
    #[inline]
    pub(crate) fn tick_quantum(&mut self) -> bool {
        if self.quantum_left == 0 && !self.run_q.is_empty() {
            return false;
        }
        self.quantum_left = self.quantum_left.saturating_sub(1);
        true
    }

    /// Drop completed stores from the buffer.
    #[inline]
    pub(crate) fn drain_stores(&mut self, now: u64) {
        while let Some(&(ready, _)) = self.store_buf.front() {
            if ready <= now {
                self.store_buf.pop_front();
            } else {
                break;
            }
        }
    }

    /// Whether a new store can enter the buffer.
    #[inline]
    pub(crate) fn store_space(&self) -> bool {
        self.store_buf.len() < self.store_cap
    }

    /// (ready cycle, class) of the oldest in-flight store, if any.
    pub(crate) fn oldest_store(&self) -> Option<(u64, CycleClass)> {
        self.store_buf.front().copied()
    }

    /// (ready cycle, class) of the newest in-flight store, if any.
    pub(crate) fn newest_store(&self) -> Option<(u64, CycleClass)> {
        self.store_buf.back().copied()
    }

    /// Rotate to the next thread in the run queue (OS quantum expiry or
    /// thread completion). Returns true if a switch occurred.
    pub(crate) fn rotate_thread(
        &mut self,
        requeue_current: bool,
        quantum: u64,
        switch_penalty: u64,
        now: u64,
    ) -> bool {
        if requeue_current && self.run_q.is_empty() {
            // Nobody to rotate to — keep running, refresh the quantum.
            self.quantum_left = quantum;
            return false;
        }
        let cur = self.thread.take();
        if requeue_current {
            if let Some(t) = cur {
                self.run_q.push_back(t);
            }
        }
        match self.run_q.pop_front() {
            Some(next) => {
                self.thread = Some(next);
                self.quantum_left = quantum;
                if switch_penalty > 0 {
                    self.block(now + switch_penalty, CycleClass::Other, now);
                }
                true
            }
            None => {
                self.quantum_left = quantum;
                false
            }
        }
    }
}

/// Consume one trace event for [`issue`]: `Exec` opens a run,
/// `Fence`/`Block` arm the pending fence (captured lock waits drain like
/// fences — the wait time belongs to the capture schedule, not the
/// replayed machine), `Wake` is a marker, and `UnitEnd` records a
/// completed transaction/query and its latency.
/// `RemoteSend`/`RemoteRecv` arm the fence too and additionally accrue
/// the interconnect cost into [`ThreadState::remote_wait`] — the core
/// charges it (to `CycleClass::Other`) once the pipeline has drained,
/// so a message is ordered after the work that produced it. A `Load` or
/// `Store` becomes the thread's pending load or store, which takes an
/// issue slot; returns `true` for the zero-width events.
#[inline]
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn consume_event(th: &mut ThreadState<'_>, ctl: &mut MachineCtl, now: u64, ev: Event) -> bool {
    match ev {
        Event::Exec { region, instrs } => {
            if instrs > 0 {
                th.cur_exec = Some((region, instrs));
            }
        }
        Event::Fence | Event::Block => th.pending_fence = true,
        Event::Wake => {}
        Event::UnitEnd => {
            ctl.units += 1;
            ctl.unit_cycles += now.saturating_sub(th.unit_started_at);
            th.unit_started_at = now;
        }
        Event::RemoteSend { bytes } => {
            th.pending_fence = true;
            th.remote_wait += ctl.interconnect.send_cycles(bytes);
            ctl.remote.sends += 1;
            ctl.remote.bytes += bytes as u64;
        }
        Event::RemoteRecv { bytes } => {
            th.pending_fence = true;
            th.remote_wait += ctl.interconnect.recv_cycles(bytes);
            ctl.remote.recvs += 1;
            ctl.remote.bytes += bytes as u64;
        }
        Event::Load { addr, size, dep } => {
            th.pending_load = Some(PendingLoad { addr, size, dep });
            return false;
        }
        Event::Store { addr, size } => {
            th.pending_store = Some(PendingStore { addr, size });
            return false;
        }
    }
    true
}

/// Why a context stops issuing for the rest of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Every MSHR is busy: the load waits in `pending_load`.
    Mshrs,
    /// The store buffer is full: the store waits in `pending_store`.
    Stores,
    /// A fence waits for everything before it to complete.
    Drain,
    /// The next instruction's I-line arrives at `until`.
    Fetch { until: u64, class: CycleClass },
    /// Issue resumes at `until`: a drained fence owes interconnect
    /// cycles, or the context waits for a load that missed.
    Gate { until: u64, class: CycleClass },
    /// A branch mispredicted: issue resumes once the pipeline refills.
    Mispredict,
}

/// How a hardware context waits: all that tells the two core camps'
/// trace issue apart (paper §2 — the fat camp overlaps a stall in its
/// window, the lean camp switches to another context). [`issue`] is the
/// one loop that consumes a thread's trace, and it replaced
/// `FatCore::decode` and `lean::issue_from`, which each restated it;
/// [`run_fetched`] replaced their `decode_run` and `issue_run`.
pub(crate) trait Waits {
    /// The context being issued from.
    fn ctx(&mut self) -> &mut CtxBase;
    /// Instructions the context can still take, width aside: the fat
    /// core's free window slots.
    fn room(&self) -> usize;
    /// Whether a load can issue: some MSHR is free.
    fn mshr_free(&self) -> bool;
    /// Whether everything a fence orders has completed.
    fn drained(&self) -> bool;
    /// Take `n` instructions that complete without a wait: ALU work, a
    /// store, a load that hits.
    fn take(&mut self, n: u32);
    /// Take a load that misses until `until`; returns whether issue waits
    /// for it (a [`Wait::Gate`] follows).
    fn take_miss(&mut self, until: u64, class: CycleClass, dep: bool) -> bool;
    /// Wait for `why` from cycle `now`.
    fn wait(&mut self, why: Wait, now: u64);
}

/// What one [`issue`] call did.
#[derive(Debug)]
pub(crate) struct Issued {
    /// Instructions issued.
    pub(crate) instrs: usize,
    /// `instrs` less a load that missed and stopped issue, so that a cycle
    /// spent only starting a miss is a stall, not computation.
    pub(crate) progress: usize,
    /// The wait issue stopped on, if any: it also stops, waiting on
    /// nothing, at the end of the trace and at the zero-width cap.
    pub(crate) wait: Option<Wait>,
    /// Nothing changed: no instruction issued, no event read and no new
    /// wait armed, as the context still waits on a full window, MSHRs or
    /// store buffer, or an undrained fence.
    pub(crate) stuck: bool,
}

/// Issue up to `width` instructions of thread `t` from the context behind
/// `w` at cycle `now`: a pending load, else a pending store, else a
/// pending fence's drain and the interconnect cycles it owes, then the
/// current `Exec` run after one fetch check, then the next trace event —
/// at most [`MAX_META_EVENTS`] zero-width ones — until the thread's trace
/// ends.
#[inline]
pub(crate) fn issue<W: Waits>(
    w: &mut W,
    core: usize,
    t: usize,
    now: u64,
    width: usize,
    s: &mut Shared<'_>,
) -> Issued {
    let th = &mut s.threads[t];
    // Only reading an event sets a pending state, and the loop reads one
    // only once none is set: at most one is, so their order below is free.
    debug_assert!(
        u8::from(th.pending_load.is_some())
            + u8::from(th.pending_store.is_some())
            + u8::from(th.pending_fence)
            <= 1
    );
    let (mut instrs, mut progress, mut events, mut meta) = (0, 0, 0, 0);
    let why = loop {
        let room = (width - instrs).min(w.room());
        if room == 0 {
            break None;
        }
        if let Some(pl) = th.pending_load {
            if !w.mshr_free() {
                break Some(Wait::Mshrs);
            }
            th.pending_load = None;
            instrs += 1;
            let acc = load_access(&mut s.mem, core, pl.addr, pl.size, now);
            match data_stall_class(acc.class) {
                Some(class) if acc.ready_at > now => {
                    if w.take_miss(acc.ready_at, class, pl.dep) {
                        break Some(Wait::Gate {
                            until: acc.ready_at,
                            class,
                        });
                    }
                }
                _ => w.take(1),
            }
            progress += 1;
            continue;
        }
        if let Some(ps) = th.pending_store {
            if !w.ctx().store_space() {
                break Some(Wait::Stores);
            }
            th.pending_store = None;
            issue_store(w.ctx(), &mut s.mem, core, ps.addr, ps.size, now);
            w.take(1);
            instrs += 1;
            progress += 1;
            continue;
        }
        if th.pending_fence {
            if !w.drained() {
                break Some(Wait::Drain);
            }
            th.pending_fence = false;
            // Interconnect wait accrued by remote markers: charged here,
            // after the drain, so the message is ordered behind the work
            // that produced it.
            let wait = std::mem::take(&mut th.remote_wait);
            s.ctl.remote.stall_cycles += wait;
            if wait > 0 {
                break Some(Wait::Gate {
                    until: now + wait,
                    class: CycleClass::Other,
                });
            }
        }
        // The current exec run: one fetch check, then as many of its
        // instructions as fit the room and the line.
        if let Some((region, left)) = th.cur_exec {
            let r = s.regions.get(region);
            let line = th.fetch_addr(r) >> 6;
            if line != th.last_iline {
                th.last_iline = line;
                let acc = s.mem.instr_access(core, line, now);
                if acc.ready_at > now {
                    let class = instr_stall_class(acc.class).unwrap_or(CycleClass::IStallL2);
                    break Some(Wait::Fetch {
                        until: acc.ready_at,
                        class,
                    });
                }
            }
            let (n, mispredicted) = th.run_exec(r, left, room);
            w.take(n as u32);
            instrs += n;
            progress += n;
            if mispredicted {
                break Some(Wait::Mispredict);
            }
            continue;
        }
        events += 1;
        let Some(ev) = th.cursor.next_event() else {
            th.done = true;
            s.ctl.remaining = s.ctl.remaining.saturating_sub(1);
            break None;
        };
        if consume_event(th, &mut s.ctl, now, ev) {
            meta += 1;
            if meta > MAX_META_EVENTS {
                break None;
            }
        }
    };
    if let Some(why) = why {
        w.wait(why, now);
    }
    let armed = matches!(
        why,
        Some(Wait::Fetch { .. } | Wait::Gate { .. } | Wait::Mispredict)
    );
    Issued {
        instrs,
        progress,
        wait: why,
        stuck: instrs == 0 && events == 0 && !armed,
    }
}

/// Issue `room` instructions of the current exec run, `left` of region
/// `r`, which [`ThreadState::fetched_run`] found inside the fetched
/// I-line; a misprediction waits for the pipeline to refill.
#[inline]
pub(crate) fn run_fetched<W: Waits>(
    w: &mut W,
    th: &mut ThreadState<'_>,
    r: &CodeRegion,
    left: u32,
    room: usize,
    now: u64,
) -> usize {
    let (n, mispredicted) = th.run_exec(r, left, room);
    w.take(n as u32);
    if mispredicted {
        w.wait(Wait::Mispredict, now);
    }
    n
}

/// The memory access of a load of `size` bytes at `addr`. Every line but
/// the last is a state-only touch: it updates cache and coherence state
/// and bank occupancy but adds nothing to the load's latency. The last
/// line carries the timing; for a sequential scan it is the cold one, as
/// there is no hardware data prefetcher (the paper's configuration).
#[inline]
fn load_access(mem: &mut MemSys, core: usize, addr: u64, size: u16, now: u64) -> Access {
    let last = (addr + size.max(1) as u64 - 1) >> 6;
    for line in addr >> 6..last {
        mem.data_access(core, line, false, now);
    }
    mem.data_access(core, last, false, now)
}

/// Issue a store of `size` bytes at `addr` into the context's store
/// buffer, which the caller has checked has room. The first line carries
/// the timing: a store still in flight is buffered with the stall class
/// a wait on it is charged to. The lines after it are state-only touches.
#[inline]
fn issue_store(ctx: &mut CtxBase, mem: &mut MemSys, core: usize, addr: u64, size: u16, now: u64) {
    let first = addr >> 6;
    let acc = mem.data_access(core, first, true, now);
    if acc.ready_at > now {
        let class = data_stall_class(acc.class).unwrap_or(CycleClass::DStallL2Hit);
        ctx.store_buf.push_back((acc.ready_at, class));
    }
    let last = (addr + size.max(1) as u64 - 1) >> 6;
    for line in first + 1..=last {
        mem.data_access(core, line, true, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(data_stall_class(MemClass::L1), None);
        assert_eq!(
            data_stall_class(MemClass::L2Hit),
            Some(CycleClass::DStallL2Hit)
        );
        assert_eq!(data_stall_class(MemClass::Mem), Some(CycleClass::DStallMem));
        assert_eq!(
            data_stall_class(MemClass::Coherence),
            Some(CycleClass::DStallCoherence)
        );
        assert_eq!(
            instr_stall_class(MemClass::L2Hit),
            Some(CycleClass::IStallL2)
        );
        assert_eq!(
            instr_stall_class(MemClass::Mem),
            Some(CycleClass::IStallMem)
        );
    }

    #[test]
    fn store_buffer_capacity_and_drain() {
        let mut c = CtxBase::new(2, 1000);
        assert!(c.store_space());
        c.store_buf.push_back((10, CycleClass::DStallMem));
        c.store_buf.push_back((20, CycleClass::DStallL2Hit));
        assert!(!c.store_space());
        c.drain_stores(15);
        assert!(c.store_space());
        assert_eq!(c.oldest_store(), Some((20, CycleClass::DStallL2Hit)));
    }

    #[test]
    fn rotation_cycles_through_queue() {
        let mut c = CtxBase::new(1, 100);
        c.thread = Some(0);
        c.run_q.push_back(1);
        c.run_q.push_back(2);
        assert!(c.rotate_thread(true, 100, 10, 50));
        assert_eq!(c.thread, Some(1));
        assert_eq!(c.run_q, [2, 0]);
        assert!(c.blocked_until > 50, "switch penalty must block");
    }

    #[test]
    fn rotation_without_queue_keeps_thread() {
        let mut c = CtxBase::new(1, 100);
        c.thread = Some(7);
        assert!(!c.rotate_thread(true, 100, 10, 0));
        assert_eq!(c.thread, Some(7));
    }

    #[test]
    fn completion_rotation_drops_thread() {
        let mut c = CtxBase::new(1, 100);
        c.thread = Some(7);
        assert!(!c.rotate_thread(false, 100, 10, 0));
        assert_eq!(c.thread, None);
    }

    #[test]
    fn blocking_tracks_latest_until() {
        let mut c = CtxBase::new(1, 100);
        c.block(50, CycleClass::DStallMem, 10);
        assert!(!c.runnable(20));
        c.thread = Some(0);
        assert!(!c.runnable(20));
        assert!(c.runnable(50));
    }
}
