//! Hardware-context plumbing shared by the fat and lean core models:
//! thread binding, run queues and quantum rotation (the "OS scheduler"
//! when software threads exceed hardware contexts), store buffers,
//! instruction-fetch progress, and the memory accesses of loads and
//! stores. Each core model keeps only how a context waits.

use std::collections::VecDeque;

use dbcmp_trace::region::CodeRegion;
use dbcmp_trace::Event;

use crate::cursor::ThreadState;
use crate::machine::MachineCtl;
use crate::memsys::{Access, MemClass, MemSys};
use crate::stats::CycleClass;

/// Cap on zero-width events (fences, unit markers) consumed per context
/// per cycle, bounding the decode loops of both core models.
pub(crate) const MAX_META_EVENTS: usize = 64;

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

/// Consume one *zero-issue-width* trace event, identically for both core
/// models: `Exec` opens a run, `Fence`/`Block` arm the pending fence
/// (captured lock waits drain like fences — the wait time belongs to the
/// capture schedule, not the replayed machine), `Wake` is a marker, and
/// `UnitEnd` records a completed transaction/query and its latency.
/// `RemoteSend`/`RemoteRecv` arm the fence too and additionally accrue
/// the interconnect cost into [`ThreadState::remote_wait`] — the core
/// charges it (to `CycleClass::Other`) once the pipeline has drained,
/// so a message is ordered after the work that produced it. Returns
/// `false` for `Load`/`Store`, which occupy an issue slot and stay
/// model-specific.
#[inline]
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn consume_meta_event(
    th: &mut ThreadState<'_>,
    ctl: &mut MachineCtl,
    now: u64,
    ev: Event,
) -> bool {
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
        Event::Load { .. } | Event::Store { .. } => return false,
    }
    true
}

/// Move the thread's accrued interconnect wait into the machine's remote
/// stall counter. Returns the wait, 0 when there is none, for the core
/// to stall on once its pipeline has drained.
#[inline]
pub(crate) fn take_remote_wait(th: &mut ThreadState<'_>, ctl: &mut MachineCtl) -> u64 {
    let wait = std::mem::take(&mut th.remote_wait);
    ctl.remote.stall_cycles += wait;
    wait
}

/// The memory access of a load of `size` bytes at `addr`. Every line but
/// the last is a state-only touch: it updates cache and coherence state
/// and bank occupancy but adds nothing to the load's latency. The last
/// line carries the timing; for a sequential scan it is the cold one, as
/// there is no hardware data prefetcher (the paper's configuration).
#[inline]
pub(crate) fn load_access(mem: &mut MemSys, core: usize, addr: u64, size: u16, now: u64) -> Access {
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
pub(crate) fn issue_store(
    ctx: &mut CtxBase,
    mem: &mut MemSys,
    core: usize,
    addr: u64,
    size: u16,
    now: u64,
) {
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

/// Mark a thread's trace as exhausted (completion-mode bookkeeping).
#[inline]
pub(crate) fn finish_thread(th: &mut ThreadState<'_>, ctl: &mut MachineCtl) {
    th.done = true;
    ctl.remaining = ctl.remaining.saturating_sub(1);
}

/// Perform the instruction-fetch check for the next instruction of the
/// thread's current exec run in `region`. Returns `None` if the line is
/// ready (fetch proceeds), or `Some((ready_at, class))` if the context
/// must wait.
#[inline]
pub(crate) fn fetch_check(
    th: &mut ThreadState<'_>,
    region: &CodeRegion,
    mem: &mut MemSys,
    core: usize,
    now: u64,
) -> Option<(u64, CycleClass)> {
    let line = th.fetch_addr(region) >> 6;
    if line == th.last_iline {
        return None;
    }
    let acc = mem.instr_access(core, line, now);
    th.last_iline = line;
    if acc.ready_at <= now {
        None
    } else {
        let class = instr_stall_class(acc.class).unwrap_or(CycleClass::IStallL2);
        Some((acc.ready_at, class))
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
