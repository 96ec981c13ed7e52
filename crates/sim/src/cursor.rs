//! Per-thread trace replay state.
//!
//! A [`TraceCursor`] walks a captured event stream, optionally wrapping at
//! the end (saturated-throughput runs sample a window of a repeating
//! workload, in the spirit of the paper's SimFlex checkpoint sampling).
//! It is the trace's own iterator, [`ThreadTrace::iter`], which reads
//! each segment an event at a time through one token buffer, restarted
//! at the end when it wraps.
//!
//! `ThreadState` carries everything that must survive a context switch:
//! the cursor, per-region instruction-fetch offsets (a thread resumes
//! walking a code region where it left off — this is what turns region
//! footprints into L1-I working sets), the partially-consumed `Exec` run,
//! and the branch-misprediction accumulator.

use dbcmp_trace::region::{CodeRegion, CodeRegions, INSTR_BYTES};
use dbcmp_trace::{Event, EventIter, ThreadTrace};

/// Cursor over one thread's event stream.
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a ThreadTrace,
    /// The rest of the current pass over the trace.
    events: EventIter<'a>,
    /// Wrap at end-of-trace (throughput mode) or finish (completion mode).
    wrap: bool,
    wraps: u64,
}

impl<'a> TraceCursor<'a> {
    pub fn new(trace: &'a ThreadTrace, wrap: bool) -> Self {
        TraceCursor {
            trace,
            events: trace.iter(),
            wrap,
            wraps: 0,
        }
    }

    /// Next event, or `None` when the (non-wrapping) trace is exhausted.
    #[inline]
    pub fn next_event(&mut self) -> Option<Event> {
        self.events.next().or_else(|| self.restart())
    }

    /// At the end of the trace: start it again if the cursor wraps. A
    /// trace whose sink retained no segment yields `None` in either mode.
    #[cold]
    fn restart(&mut self) -> Option<Event> {
        if !self.wrap {
            return None;
        }
        self.events = self.trace.iter();
        let e = self.events.next()?;
        self.wraps += 1;
        Some(e)
    }

    /// Times the cursor has restarted the trace.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

/// Instructions from byte offset `off` to the end of its 64-byte line.
#[inline]
fn line_room(off: u64) -> u64 {
    (64 - (off & 63)) / INSTR_BYTES
}

/// A store decoded but not yet performed (the store buffer was full).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingStore {
    pub(crate) addr: u64,
    pub(crate) size: u16,
}

/// A load decoded but not yet issued (MSHRs were exhausted).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingLoad {
    pub(crate) addr: u64,
    pub(crate) size: u16,
    pub(crate) dep: bool,
}

/// Everything a software thread carries across scheduling decisions.
#[derive(Debug)]
pub(crate) struct ThreadState<'a> {
    pub(crate) cursor: TraceCursor<'a>,
    /// Per-region fetch offset (bytes into the region's footprint).
    region_off: Vec<u64>,
    /// Partially executed `Exec` run: (region, instructions left).
    pub(crate) cur_exec: Option<(u16, u32)>,
    /// Instruction line currently resident in the fetch stage
    /// (`u64::MAX` = none — forces an I-access on the next instruction).
    pub(crate) last_iline: u64,
    /// Store decoded while the store buffer was full.
    pub(crate) pending_store: Option<PendingStore>,
    /// Load decoded while the MSHRs were full (fat core).
    pub(crate) pending_load: Option<PendingLoad>,
    /// A fence is waiting for the pipeline to drain.
    pub(crate) pending_fence: bool,
    /// Interconnect cycles owed at the next fence-drain point
    /// (accumulated from `RemoteSend`/`RemoteRecv` events).
    pub(crate) remote_wait: u64,
    /// Fractional branch mispredictions owed.
    pub(crate) mispred_acc: f64,
    pub(crate) unit_started_at: u64,
    pub(crate) done: bool,
}

impl<'a> ThreadState<'a> {
    pub(crate) fn new(trace: &'a ThreadTrace, regions: &CodeRegions, wrap: bool) -> Self {
        ThreadState {
            cursor: TraceCursor::new(trace, wrap),
            region_off: vec![0; regions.len().max(1)],
            cur_exec: None,
            last_iline: u64::MAX,
            pending_store: None,
            pending_load: None,
            pending_fence: false,
            remote_wait: 0,
            mispred_acc: 0.0,
            unit_started_at: 0,
            done: false,
        }
    }

    /// Current fetch byte address within region `r`.
    #[inline]
    pub(crate) fn fetch_addr(&self, r: &CodeRegion) -> u64 {
        r.base + self.region_off[r.id as usize]
    }

    /// The current `Exec` run, as (region, instructions left), if `room`
    /// of its instructions lie in the I-line already fetched, so running
    /// them needs no fetch check. Issue reads the next event only once the
    /// run is used up, so while there is one the thread has no pending
    /// load, store or fence and is unfinished.
    #[inline]
    pub(crate) fn fetched_run<'r>(
        &self,
        regions: &'r CodeRegions,
        room: usize,
    ) -> Option<(&'r CodeRegion, u32)> {
        debug_assert!(
            self.cur_exec.is_none()
                || !(self.done
                    || self.pending_fence
                    || self.pending_load.is_some()
                    || self.pending_store.is_some())
        );
        let (region, left) = self.cur_exec?;
        let r = regions.get(region);
        let off = self.region_off[r.id as usize];
        let fetched = (r.base + off) >> 6 == self.last_iline;
        (fetched && line_room(off).min(left as u64) >= room as u64).then_some((r, left))
    }

    /// Execute up to `room` instructions of the current exec run (`left`
    /// instructions of region `r` remain), stopping at the end of the
    /// instruction line the fetch cursor is in — so the caller's one
    /// fetch check covers them all — and after a branch misprediction.
    /// Advances the fetch cursor (wrapping at the region's footprint, a
    /// whole number of lines) and `cur_exec`; returns how many
    /// instructions ran (≥ 1 for `room`, `left` ≥ 1) and whether the last
    /// one mispredicted.
    #[inline]
    pub(crate) fn run_exec(&mut self, r: &CodeRegion, left: u32, room: usize) -> (usize, bool) {
        let off = &mut self.region_off[r.id as usize];
        let in_line = line_room(*off);
        let max = room.min(left as usize).min(in_line as usize);
        let mut n = 0;
        let mut mispredicted = false;
        while n < max && !mispredicted {
            n += 1;
            // One add per instruction, not one multiply per run: the
            // accumulator must round exactly as it always has.
            self.mispred_acc += r.mispred_per_instr;
            if self.mispred_acc >= 1.0 {
                self.mispred_acc -= 1.0;
                mispredicted = true;
            }
        }
        *off += n as u64 * INSTR_BYTES;
        if *off >= r.footprint {
            *off = 0;
        }
        self.cur_exec = (left as usize > n).then(|| (r.id, left - n as u32));
        (n, mispredicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_trace::{CountingSink, Tracer};

    fn trace3() -> ThreadTrace {
        let mut t = Tracer::recording();
        t.exec(0, 5);
        t.load(64, 8);
        t.unit_end();
        t.finish()
    }

    #[test]
    fn cursor_completion_mode_finishes() {
        let tr = trace3();
        let mut c = TraceCursor::new(&tr, false);
        assert!(c.next_event().is_some());
        assert!(c.next_event().is_some());
        assert!(c.next_event().is_some());
        assert!(c.next_event().is_none());
        assert!(c.next_event().is_none(), "a finished cursor stays finished");
        assert_eq!(c.wraps, 0);
    }

    #[test]
    fn cursor_wrap_mode_loops() {
        let tr = trace3();
        let mut c = TraceCursor::new(&tr, true);
        for _ in 0..7 {
            assert!(c.next_event().is_some());
        }
        assert_eq!(c.wraps, 2);
    }

    #[test]
    fn empty_trace_never_yields() {
        let tr = Tracer::recording().finish();
        let mut c = TraceCursor::new(&tr, true);
        assert!(c.next_event().is_none());
    }

    /// A trace whose sink kept no segment has events but nothing to
    /// replay: the cursor yields none in either mode and never wraps.
    #[test]
    fn a_trace_without_segments_never_wraps() {
        let mut t = Tracer::streaming(Box::<CountingSink>::default());
        t.exec(0, 5);
        t.load(64, 8);
        t.unit_end();
        let tr = t.finish();
        assert_eq!((tr.len(), tr.segments().len()), (3, 0));
        for wrap in [false, true] {
            let mut c = TraceCursor::new(&tr, wrap);
            assert_eq!(c.next_event(), None);
            assert_eq!(c.next_event(), None);
            assert_eq!(c.wraps, 0);
        }
    }

    /// Wrap mode across a block boundary, with a trace length that is *not*
    /// a multiple of the segment size — the partial final block must hand
    /// off to segment 0 seamlessly.
    #[test]
    fn wrap_crosses_block_boundary_on_partial_final_segment() {
        use dbcmp_trace::SEGMENT_EVENTS;
        let n = SEGMENT_EVENTS + 3;
        let mut t = Tracer::recording();
        for i in 0..n as u64 {
            t.load(0x1000 + i * 64, 8);
        }
        let tr = t.finish();
        assert_eq!(tr.segments().len(), 2, "partial final segment expected");
        let mut c = TraceCursor::new(&tr, true);
        let first_lap: Vec<Event> = (0..n).map(|_| c.next_event().unwrap()).collect();
        assert_eq!(c.wraps, 0);
        for (i, want) in first_lap.iter().enumerate() {
            assert_eq!(
                c.next_event().as_ref(),
                Some(want),
                "event {i} diverged on lap 2"
            );
        }
        assert_eq!(c.wraps, 1);
        assert_eq!(c.next_event(), Some(first_lap[0]));
        assert_eq!(c.wraps, 2);
    }

    #[test]
    fn fetch_cursor_wraps_at_footprint() {
        let mut regions = CodeRegions::new();
        let r = regions.add("loop", 128, 0.0); // 32 instructions
        let tr = trace3();
        let mut ts = ThreadState::new(&tr, &regions, false);
        let reg = regions.get(r);
        let base = reg.base;
        assert_eq!(ts.fetch_addr(reg), base);
        // A run never crosses an instruction line: 16 at a time.
        assert_eq!(ts.run_exec(reg, 100, 31), (16, false));
        assert_eq!(ts.cur_exec, Some((r, 84)));
        assert_eq!(ts.run_exec(reg, 84, 15), (15, false));
        assert_eq!(ts.fetch_addr(reg), base + 124);
        assert_eq!(ts.run_exec(reg, 1, 4), (1, false));
        assert_eq!(ts.cur_exec, None);
        assert_eq!(ts.fetch_addr(reg), base, "must wrap to region start");
        assert_eq!(ts.region_off[r as usize], 0);
    }

    #[test]
    fn exec_run_stops_on_the_mispredicting_instruction() {
        let mut regions = CodeRegions::new();
        let r = regions.add("branchy", 4096, 400.0); // 0.4 per instruction
        let tr = trace3();
        let mut ts = ThreadState::new(&tr, &regions, false);
        let reg = regions.get(r);
        // 0.4, 0.8, 1.2 → the third instruction redirects.
        assert_eq!(ts.run_exec(reg, 10, 8), (3, true));
        assert_eq!(ts.cur_exec, Some((r, 7)));
        assert_eq!(ts.region_off[r as usize], 12);
        assert!((ts.mispred_acc - 0.2).abs() < 1e-9);
    }
}
