//! Trace capture.
//!
//! The engine threads a [`Tracer`] through every operation. In recording
//! mode each logical action appends events; in null mode the calls
//! reduce to a branch and are cheap enough to leave in place for native
//! (non-simulated) benchmarking.
//!
//! Consecutive `exec` calls against the same region are coalesced into a
//! single event, which typically shrinks traces by 3-5x since engine code
//! charges instructions in small increments as it goes.
//!
//! Recording never holds a flat event list: each event is appended
//! straight into the columns of one open segment (the crate's single
//! encoder, see [`crate::segment`]), and every [`SEGMENT_EVENTS`] events
//! that segment is sealed and handed to a [`TraceSink`]. The default
//! sink ([`SegmentBuffer`]) retains segments so [`Tracer::finish`]
//! yields a replayable [`ThreadTrace`]; a streaming sink (see
//! [`Tracer::streaming`]) can instead spill or discard them, bounding
//! peak capture memory at one open segment per thread.
//!
//! Reading a trace back is [`ThreadTrace::iter`]: each retained segment's
//! [`Segment::events`] in turn, an event at a time, with one token
//! buffer for the whole trace.
//!
//! The entry points the engine inlines at every charge and access site
//! ([`Tracer::exec`], [`Tracer::load`], …) hold only the
//! [`EventCounts`] increments and the null-mode test; the recording
//! bodies sit behind one call each, so a null-mode run (every populate)
//! pays for no encoder code.

use std::ops::AddAssign;

use crate::event::{Event, PackedEvent, MAX_ACCESS};
use crate::region::{CodeRegions, RegionId};
use crate::segment::{
    AccessKind, Segment, SegmentBuffer, SegmentEncoder, SegmentEvents, TraceSink, SEGMENT_EVENTS,
};

/// Capture-mode switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Null,
    Record,
}

/// Per-thread trace recorder.
#[derive(Debug)]
pub struct Tracer {
    mode: Mode,
    /// The open segment; sealed into the sink at [`SEGMENT_EVENTS`].
    open: SegmentEncoder,
    sink: Box<dyn TraceSink>,
    /// Pending coalesced exec run: (region, instrs). `u16::MAX` = none.
    pending_region: RegionId,
    pending_instrs: u64,
    /// Per-region instruction totals, accumulated at exec-flush time so
    /// aggregate queries never re-decode the stream.
    region_instrs: Vec<u64>,
    /// Events in the segments already sealed into the sink.
    n_sealed: usize,
    counts: EventCounts,
}

const NO_REGION: RegionId = u16::MAX;

impl Tracer {
    /// A tracer that records events into an in-memory segment buffer
    /// (the retaining sink — [`Tracer::finish`] yields a replayable
    /// trace).
    pub fn recording() -> Self {
        Self::streaming(Box::<SegmentBuffer>::default())
    }

    /// A tracer that records events and streams each sealed segment
    /// into `sink`. Peak staging memory is the one open segment (at most
    /// [`SEGMENT_EVENTS`] encoded events) regardless of trace length;
    /// whether the trace is replayable afterwards is the sink's
    /// retention decision.
    pub fn streaming(sink: Box<dyn TraceSink>) -> Self {
        Self::new(Mode::Record, sink)
    }

    /// A tracer that drops events but still counts instructions — used for
    /// native runs where only aggregate counts are wanted.
    pub fn null() -> Self {
        Self::new(Mode::Null, Box::<SegmentBuffer>::default())
    }

    fn new(mode: Mode, sink: Box<dyn TraceSink>) -> Self {
        Tracer {
            mode,
            open: SegmentEncoder::default(),
            sink,
            pending_region: NO_REGION,
            pending_instrs: 0,
            region_instrs: Vec::new(),
            n_sealed: 0,
            counts: EventCounts::default(),
        }
    }

    /// Encoded bytes held in the open segment — all the trace memory a
    /// recording tracer keeps outside its sink. At most
    /// [`SEGMENT_EVENTS`]` × `[`MAX_EVENT_BYTES`](crate::segment::MAX_EVENT_BYTES)
    /// however long the trace runs; a few KB on engine traces.
    #[cfg(test)]
    fn staged_bytes(&self) -> usize {
        self.open.encoded_bytes()
    }

    /// Seal the open segment into the sink if it is full. Every append
    /// is followed by this.
    #[inline(always)]
    fn seal_if_full(&mut self) {
        if self.open.len() == SEGMENT_EVENTS {
            self.seal();
        }
    }

    /// Emit the open segment to the sink, if it holds anything.
    #[cold]
    fn seal(&mut self) {
        if self.open.len() > 0 {
            self.n_sealed += self.open.len();
            self.sink.emit(self.open.seal());
        }
    }

    /// Charge `instrs` instructions of execution in `region`.
    #[inline]
    pub fn exec(&mut self, region: RegionId, instrs: u32) {
        self.counts.instrs += instrs as u64;
        if self.mode == Mode::Null || instrs == 0 {
            return;
        }
        if self.pending_region == region {
            self.pending_instrs += instrs as u64;
        } else {
            self.start_exec(region, instrs);
        }
    }

    /// Record a load of `size` bytes at `addr`. Large transfers are split
    /// into `MAX_ACCESS`-byte events.
    #[inline]
    pub fn load(&mut self, addr: u64, size: u32) {
        self.counts.loads += self.count_access(size);
        if self.mode == Mode::Record {
            self.record_access(addr, size, AccessKind::Load);
        }
    }

    /// Record a *dependent* load — one whose result the following
    /// instructions need before they can issue (pointer chase).
    #[inline]
    pub fn load_dep(&mut self, addr: u64, size: u32) {
        let n = self.count_access(size);
        self.counts.loads += n;
        self.counts.dep_loads += n;
        if self.mode == Mode::Record {
            self.record_access(addr, size, AccessKind::LoadDep);
        }
    }

    /// Record a store of `size` bytes at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u32) {
        self.counts.stores += self.count_access(size);
        if self.mode == Mode::Record {
            self.record_access(addr, size, AccessKind::Store);
        }
    }

    /// Count the instructions of a `size`-byte access (one per
    /// `MAX_ACCESS`-byte event) and return how many events it makes.
    #[inline]
    fn count_access(&mut self, size: u32) -> u64 {
        let n_events = if size <= MAX_ACCESS {
            1
        } else {
            size.div_ceil(MAX_ACCESS) as u64
        };
        self.counts.instrs += n_events;
        n_events
    }

    /// Ordering fence: lock acquisition/release, commit point.
    #[inline]
    pub fn fence(&mut self) {
        self.counts.fences += 1;
        self.marker(Event::Fence);
    }

    /// Mark the completion of one unit of work (transaction or query).
    #[inline]
    pub fn unit_end(&mut self) {
        self.counts.units += 1;
        self.marker(Event::UnitEnd);
    }

    /// Mark the thread blocking on a lock wait (2PL queue).
    #[inline]
    pub fn block(&mut self) {
        self.counts.blocks += 1;
        self.marker(Event::Block);
    }

    /// Mark the thread resuming after a lock grant or victim notification.
    #[inline]
    pub fn wake(&mut self) {
        self.counts.wakes += 1;
        self.marker(Event::Wake);
    }

    /// Mark the injection of a `bytes`-byte message onto the deployment
    /// interconnect (cross-instance request, response, or commit vote).
    #[inline]
    pub fn remote_send(&mut self, bytes: u32) {
        self.counts.remote_sends += 1;
        self.counts.remote_bytes += bytes as u64;
        self.marker(Event::RemoteSend { bytes });
    }

    /// Mark the consumption of a `bytes`-byte message from the deployment
    /// interconnect — the thread waits for it at replay time.
    #[inline]
    pub fn remote_recv(&mut self, bytes: u32) {
        self.counts.remote_recvs += 1;
        self.counts.remote_bytes += bytes as u64;
        self.marker(Event::RemoteRecv { bytes });
    }

    #[inline]
    fn marker(&mut self, ev: Event) {
        if self.mode == Mode::Record {
            self.record_marker(ev);
        }
    }

    // The three recording bodies. Out of line on purpose: they are what
    // the inlined entry points above would otherwise copy into every
    // charge and access site of the engine.

    /// Flush the pending exec run and open one for `region`.
    #[inline(never)]
    fn start_exec(&mut self, region: RegionId, instrs: u32) {
        self.flush_exec();
        self.pending_region = region;
        self.pending_instrs = instrs as u64;
    }

    #[inline(never)]
    fn record_access(&mut self, mut addr: u64, mut size: u32, kind: AccessKind) {
        self.flush_exec();
        while size > MAX_ACCESS {
            self.open.access(kind, addr, MAX_ACCESS);
            self.seal_if_full();
            size -= MAX_ACCESS;
            addr += MAX_ACCESS as u64;
        }
        self.open.access(kind, addr, size.max(1));
        self.seal_if_full();
    }

    #[inline(never)]
    fn record_marker(&mut self, ev: Event) {
        self.flush_exec();
        self.open.push(ev);
        self.seal_if_full();
    }

    /// Turn the pending exec run, if any, into an event.
    #[inline(always)]
    fn flush_exec(&mut self) {
        let region = self.pending_region;
        if region == NO_REGION {
            return;
        }
        let instrs = std::mem::take(&mut self.pending_instrs);
        self.pending_region = NO_REGION;
        match self.region_instrs.get_mut(region as usize) {
            Some(total) => *total += instrs,
            None => self.first_exec_in(region, instrs),
        }
        if let Ok(instrs) = u32::try_from(instrs) {
            self.open.exec(region, instrs);
            self.seal_if_full();
        } else {
            self.exec_run_past_u32(region, instrs);
        }
    }

    #[cold]
    fn first_exec_in(&mut self, region: RegionId, instrs: u64) {
        self.region_instrs.resize(region as usize + 1, 0);
        self.region_instrs[region as usize] = instrs;
    }

    /// A coalesced run too long for one event: `u32::MAX`-instruction
    /// events, then the remainder.
    #[cold]
    fn exec_run_past_u32(&mut self, region: RegionId, mut instrs: u64) {
        while instrs > 0 {
            let chunk = instrs.min(u32::MAX as u64) as u32;
            self.open.exec(region, chunk);
            self.seal_if_full();
            instrs -= chunk as u64;
        }
    }

    /// Finish capture and produce the per-thread trace: the open
    /// segment is sealed and the sink hands back whatever it
    /// retained (a non-retaining sink yields a trace with correct
    /// [`EventCounts`] but no replayable segments).
    pub fn finish(mut self) -> ThreadTrace {
        self.flush_exec();
        self.seal();
        ThreadTrace {
            segments: self.sink.take_segments(),
            n_events: self.n_sealed,
            region_instrs: self.region_instrs,
            counts: self.counts,
        }
    }

    /// Instructions charged so far (available in both modes).
    pub fn instrs_so_far(&self) -> u64 {
        self.counts.instrs
    }
}

/// What a capture recorded, tallied as it recorded: the one record of
/// counters that a [`Tracer`] keeps, a [`ThreadTrace`] carries, and
/// [`TraceSummary`](crate::TraceSummary) and [`TraceBundle::counts`] sum.
/// A tally never reaches a trace's segments or digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Retired instructions (exec charges + one per load/store event).
    pub instrs: u64,
    /// Load events.
    pub loads: u64,
    /// Loads marked dependent (pointer chases) — a subset of `loads`.
    pub dep_loads: u64,
    /// Store events.
    pub stores: u64,
    /// Ordering fences.
    pub fences: u64,
    /// Completed work units (transactions/queries).
    pub units: u64,
    /// Lock-wait block markers (nonzero only in contended captures).
    pub blocks: u64,
    /// Wake markers (lock grants / victim notifications after a wait).
    pub wakes: u64,
    /// Remote-send markers (cross-instance messages injected; nonzero
    /// only in multi-instance captures).
    pub remote_sends: u64,
    /// Remote-recv markers (cross-instance messages awaited).
    pub remote_recvs: u64,
    /// Interconnect message bytes across sends and recvs.
    pub remote_bytes: u64,
}

impl EventCounts {
    /// The tally of one event: the reference that folds over a trace's
    /// events are checked against. A [`Tracer`] keeps its tally without
    /// it, so those checks stay independent of the increments they check.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn of(ev: &Event) -> EventCounts {
        let mut c = EventCounts {
            instrs: ev.instr_count(),
            ..EventCounts::default()
        };
        match *ev {
            Event::Exec { .. } => {}
            Event::Load { dep, .. } => {
                c.loads = 1;
                c.dep_loads = dep as u64;
            }
            Event::Store { .. } => c.stores = 1,
            Event::Fence => c.fences = 1,
            Event::UnitEnd => c.units = 1,
            Event::Block => c.blocks = 1,
            Event::Wake => c.wakes = 1,
            Event::RemoteSend { bytes } => {
                c.remote_sends = 1;
                c.remote_bytes = bytes as u64;
            }
            Event::RemoteRecv { bytes } => {
                c.remote_recvs = 1;
                c.remote_bytes = bytes as u64;
            }
        }
        c
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, other: Self) {
        self.instrs += other.instrs;
        self.loads += other.loads;
        self.dep_loads += other.dep_loads;
        self.stores += other.stores;
        self.fences += other.fences;
        self.units += other.units;
        self.blocks += other.blocks;
        self.wakes += other.wakes;
        self.remote_sends += other.remote_sends;
        self.remote_recvs += other.remote_recvs;
        self.remote_bytes += other.remote_bytes;
    }
}

/// A captured single-thread event stream — stored as encoded
/// [`Segment`]s — plus its [`EventCounts`].
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    segments: Vec<Segment>,
    n_events: usize,
    /// Per-region instruction totals cached at capture time (indexed by
    /// region id; may be shorter than the region table).
    region_instrs: Vec<u64>,
    counts: EventCounts,
}

impl ThreadTrace {
    /// The events in capture order: each retained segment's
    /// [`Segment::events`] in turn, every segment's token column
    /// decompressed into one buffer, allocated once. A trace whose sink
    /// retained no segment yields none.
    pub fn iter(&self) -> EventIter<'_> {
        EventIter {
            segments: self.segments.iter(),
            events: SegmentEvents::empty(),
        }
    }

    /// Materialize the trace as [`Event::pack`] words, the form every
    /// capture digest folds (byte-identity comparisons in tests; hot
    /// paths should iterate segments instead).
    pub fn packed_events(&self) -> Vec<PackedEvent> {
        self.iter().map(|e| e.pack()).collect()
    }

    /// The encoded segments in stream order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Encoded size of the whole stream in bytes (sum of segment wire
    /// sizes).
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.encoded_bytes()).sum()
    }

    /// Instructions charged to each region by this thread, cached at
    /// capture time (indexed by region id; may be shorter than the
    /// region table — missing tail entries are zero).
    pub(crate) fn region_instr_totals(&self) -> &[u64] {
        &self.region_instrs
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.n_events
    }

    /// Whether the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.n_events == 0
    }

    /// What the capture recorded, tallied as it recorded: exact even
    /// when the sink retained no segment.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Total instructions (exec + one per load/store event).
    pub fn instrs(&self) -> u64 {
        self.counts.instrs
    }
}

/// The events of a segmented trace (see [`ThreadTrace::iter`]).
#[derive(Debug)]
pub struct EventIter<'a> {
    /// The segments not yet read.
    segments: std::slice::Iter<'a, Segment>,
    /// The segment being read.
    events: SegmentEvents<'a>,
}

impl Iterator for EventIter<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        loop {
            if let Some(e) = self.events.next() {
                return Some(e);
            }
            self.events.open(self.segments.next()?);
        }
    }
}

/// A set of per-thread traces plus the code-region table they reference —
/// everything the simulator needs to replay a workload.
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    /// Code-region table shared by every thread's `Exec` events.
    pub regions: CodeRegions,
    /// One captured event stream per client thread.
    pub threads: Vec<ThreadTrace>,
}

impl TraceBundle {
    /// Bundle per-thread traces with the region table they reference.
    pub fn new(regions: CodeRegions, threads: Vec<ThreadTrace>) -> Self {
        TraceBundle { regions, threads }
    }

    /// Every thread's [`ThreadTrace::counts`], summed.
    pub fn counts(&self) -> EventCounts {
        let mut c = EventCounts::default();
        for t in &self.threads {
            c += t.counts;
        }
        c
    }

    /// Instructions summed across all threads.
    pub fn total_instrs(&self) -> u64 {
        self.counts().instrs
    }

    /// Events summed across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }

    /// Completed work units summed across all threads.
    pub fn total_units(&self) -> u64 {
        self.counts().units
    }

    /// Encoded size of every thread's segments, summed — the resident
    /// memory cost of carrying this bundle (modulo `Vec` headers).
    pub fn encoded_bytes(&self) -> usize {
        self.threads.iter().map(|t| t.encoded_bytes()).sum()
    }

    /// Instructions charged to the named code region across all threads
    /// (cached totals — O(threads), no decode). Returns 0 for a name no
    /// region carries. Per-operator attribution for reports (e.g. "how
    /// much of this capture is hash-join build/probe work?").
    pub fn region_instrs(&self, name: &str) -> u64 {
        let Some(id) = self.regions.iter().find(|r| r.name == name).map(|r| r.id) else {
            return 0;
        };
        self.threads
            .iter()
            .map(|t| {
                t.region_instr_totals()
                    .get(id as usize)
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{segments_read, CountingSink, MAX_EVENT_BYTES};

    #[test]
    fn exec_coalescing() {
        let mut t = Tracer::recording();
        t.exec(5, 10);
        t.exec(5, 20);
        t.exec(6, 1);
        t.exec(5, 2);
        let tr = t.finish();
        let evs: Vec<Event> = tr.iter().collect();
        assert_eq!(
            evs,
            vec![
                Event::Exec {
                    region: 5,
                    instrs: 30
                },
                Event::Exec {
                    region: 6,
                    instrs: 1
                },
                Event::Exec {
                    region: 5,
                    instrs: 2
                },
            ]
        );
        assert_eq!(tr.instrs(), 33);
        assert_eq!(tr.region_instr_totals()[5], 32);
        assert_eq!(tr.region_instr_totals()[6], 1);
    }

    #[test]
    fn coalescing_flushed_by_memory_ops() {
        let mut t = Tracer::recording();
        t.exec(1, 4);
        t.load(128, 8);
        t.exec(1, 4);
        let tr = t.finish();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.instrs(), 9);
    }

    #[test]
    fn large_access_split() {
        let mut t = Tracer::recording();
        t.store(0, 10_000);
        let tr = t.finish();
        assert_eq!(tr.len(), 3); // 4095 + 4095 + 1810
        let total: u64 = tr
            .iter()
            .map(|e| match e {
                Event::Store { size, .. } => size as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 10_000);
        assert_eq!(tr.counts().stores, 3);
    }

    /// Every `Event` variant, recorded the way captures record it — the
    /// tracer's typed appends into the live `SegmentEncoder`, not
    /// `Segment::encode` — decodes back equal.
    #[test]
    fn every_variant_roundtrips_through_the_tracer() {
        let top = (1 << 48) - 64;
        let mut t = Tracer::recording();
        t.exec(3, 7);
        t.load(top, 8);
        t.load_dep(64, 16);
        t.store(top - 4096, 4);
        t.fence();
        t.unit_end();
        t.block();
        t.wake();
        t.remote_send(100);
        t.remote_recv(200);
        let evs: Vec<Event> = t.finish().iter().collect();
        assert_eq!(
            evs,
            [
                Event::Exec {
                    region: 3,
                    instrs: 7
                },
                Event::Load {
                    addr: top,
                    size: 8,
                    dep: false
                },
                Event::Load {
                    addr: 64,
                    size: 16,
                    dep: true
                },
                Event::Store {
                    addr: top - 4096,
                    size: 4
                },
                Event::Fence,
                Event::UnitEnd,
                Event::Block,
                Event::Wake,
                Event::RemoteSend { bytes: 100 },
                Event::RemoteRecv { bytes: 200 },
            ]
        );
    }

    /// A capture never mints an address past the 48-bit format: debug
    /// builds refuse one where it enters the encoder (release masks).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the 48-bit trace address space")]
    fn over_48_bit_address_panics_in_debug_builds() {
        Tracer::recording().load(1 << 48, 8);
    }

    #[test]
    fn null_mode_counts_but_records_nothing() {
        let mut t = Tracer::null();
        t.exec(1, 100);
        t.load(64, 8);
        t.store(128, 8);
        t.unit_end();
        let tr = t.finish();
        assert!(tr.is_empty());
        assert_eq!(tr.instrs(), 102);
        assert_eq!(tr.counts().units, 1);
        assert!(tr.region_instr_totals().is_empty());
    }

    #[test]
    fn zero_instr_exec_is_dropped() {
        let mut t = Tracer::recording();
        t.exec(1, 0);
        let tr = t.finish();
        assert!(tr.is_empty());
    }

    #[test]
    fn traces_split_into_segments_at_block_size() {
        let mut t = Tracer::recording();
        for i in 0..(SEGMENT_EVENTS as u64 * 2 + 100) {
            t.load(i * 64, 8);
        }
        let tr = t.finish();
        assert_eq!(tr.len(), SEGMENT_EVENTS * 2 + 100);
        assert_eq!(tr.segments().len(), 3);
        assert_eq!(tr.segments()[0].len(), SEGMENT_EVENTS);
        assert_eq!(tr.segments()[2].len(), 100);
        assert_eq!(tr.packed_events().len(), tr.len());
    }

    #[test]
    fn cached_region_totals_match_decoded_stream() {
        let mut t = Tracer::recording();
        t.exec(2, 10);
        t.load(64, 8);
        t.exec(2, 5);
        t.exec(7, 1);
        t.unit_end();
        let tr = t.finish();
        let mut decoded = vec![0u64; 8];
        for e in tr.iter() {
            if let Event::Exec { region, instrs } = e {
                decoded[region as usize] += instrs as u64;
            }
        }
        let mut cached = tr.region_instr_totals().to_vec();
        cached.resize(8, 0);
        assert_eq!(cached, decoded);
    }

    /// Region aggregates are served from the capture-time cache — repeated
    /// `region_instrs` calls read no segment.
    #[test]
    fn region_queries_do_not_decode_segments() {
        let mut regions = CodeRegions::new();
        let a = regions.add("exec-a", 2000, 1.0);
        let b = regions.add("exec-b", 2000, 1.0);
        let mut t = Tracer::recording();
        t.exec(a, 100);
        t.load(64, 8);
        t.exec(b, 50);
        let bundle = TraceBundle::new(regions, vec![t.finish()]);
        let before = segments_read();
        for _ in 0..10 {
            assert_eq!(bundle.region_instrs("exec-a"), 100);
            assert_eq!(bundle.region_instrs("exec-b"), 50);
            assert_eq!(bundle.region_instrs("exec-missing"), 0);
        }
        assert_eq!(
            segments_read(),
            before,
            "aggregate region queries must not read any segment"
        );
    }

    /// Bounded-memory capture at 4× the paper's 64-client OLTP scale. 256
    /// live tracers stream multi-segment traces through non-retaining
    /// sinks; what each holds stays within one open segment
    /// (`SEGMENT_EVENTS × MAX_EVENT_BYTES`), independent of trace length —
    /// so total capture memory is that bound × clients.
    #[test]
    fn streaming_sink_bounds_retained_memory_at_4x_paper_clients() {
        let clients = 256; // 4 × the paper's 64 OLTP clients
        let n = SEGMENT_EVENTS as u64 * 4 + 7;
        let mut tracers: Vec<Tracer> = (0..clients)
            .map(|_| Tracer::streaming(Box::<CountingSink>::default()))
            .collect();
        for (c, t) in tracers.iter_mut().enumerate() {
            let mut peak = 0;
            for i in 0..n {
                t.exec(1, 3);
                t.load(0x8000 + (c as u64) * (1 << 20) + i * 64, 8);
                peak = peak.max(t.staged_bytes());
            }
            assert!(peak > 0, "the open segment holds the latest events");
            assert!(
                peak <= SEGMENT_EVENTS * MAX_EVENT_BYTES,
                "staged bytes must never outgrow one segment: {peak}"
            );
        }
        for t in tracers {
            let tr = t.finish();
            assert!(
                tr.segments().is_empty(),
                "counting sink must retain no segments"
            );
            assert_eq!(tr.counts().loads, n);
            assert!(tr.len() >= n as usize);
        }
    }
}
