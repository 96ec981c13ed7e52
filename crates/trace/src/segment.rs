//! Chunked columnar trace segments and the sink/source seams.
//!
//! A trace is stored as fixed-size blocks of [`SEGMENT_EVENTS`] events,
//! each encoded into a [`Segment`] with four byte columns:
//!
//! * **kinds** — a run-length column of op kinds (`Exec`, `Load`,
//!   dependent `Load`, `Store`, and the markers). A run is one byte, the
//!   kind in the high nibble and a length of 1–15 in the low nibble; a
//!   run of 16–255 is two bytes, low nibble 0 and then the length.
//!   Engine traces alternate exec runs and accesses, so most runs are
//!   1–3 events long and most events cost at most one kinds byte.
//! * **mem** — for each load/store, a zigzag-varint *delta* from the
//!   previous access address in the same segment, then a varint size.
//!   Accesses are overwhelmingly near-sequential or strided, so deltas
//!   are small. The delta base resets to 0 at each segment boundary so
//!   every segment decodes independently.
//! * **exec** — for each exec run, a varint region id and a varint
//!   instruction count.
//! * **remote** — for each `RemoteSend`/`RemoteRecv` marker, a varint
//!   message size. Empty (zero bytes) for single-instance traces.
//!
//! A sealed segment holds its four columns back to back in one
//! exact-size heap allocation, so the memory a retained trace takes is
//! its encoded bytes plus a fixed header per segment.
//!
//! The codec is **lossless**: decode returns exactly the
//! [`Event`] sequence that was encoded, so its [`Event::pack`] words —
//! what every capture digest folds — are those of the recorded events.
//! That guarantee is gated by proptest round-trips in
//! `tests/proptests.rs` and, end to end, by the golden anchor in
//! `tests/validation.rs`.
//!
//! One encoder writes those columns: `SegmentEncoder` appends an event
//! at a time to the columns of an open segment. The `Tracer` owns one
//! and feeds it directly as the engine records, so an event is encoded
//! exactly once and never staged in packed form; [`Segment::encode`] is
//! a loop over the same encoder.
//!
//! [`TraceSink`] is the capture seam: a `Tracer` seals its open segment
//! every [`SEGMENT_EVENTS`] events and emits it into a sink instead of
//! growing one buffer, so peak *staging* memory per thread is one open
//! segment (a few KB of columns) regardless of trace length.
//! [`SegmentBuffer`] retains segments for replay; [`CountingSink`]
//! retains nothing (bounded-memory capture for runs that only need
//! aggregate counts).

use std::cell::Cell;

use crate::event::{Event, PackedEvent, ADDR_MASK, REGION_MASK, SIZE_MASK};
use crate::region::RegionId;

/// Events per sealed segment (the block size of the columnar format).
///
/// 4096 events typically encode to a few KB; large enough to amortize
/// per-block decode overhead, small enough that the one open segment a
/// recording thread holds is negligible.
pub const SEGMENT_EVENTS: usize = 4096;

/// The most bytes one event can add to a segment: a load or store — a
/// one-byte kinds run, a 7-byte zig-zag delta (49 significant bits)
/// and a 2-byte size. (A run's escape byte comes with its 16th event,
/// which adds no run byte of its own.) [`SEGMENT_EVENTS`] times this
/// bounds what a recording [`Tracer`](crate::Tracer) holds outside its
/// sink.
#[cfg(test)]
pub(crate) const MAX_EVENT_BYTES: usize = 10;

thread_local! {
    /// [`Segment::decode_into`] calls made by this thread.
    static SEGMENTS_DECODED: Cell<u64> = const { Cell::new(0) };
}

/// The number of [`Segment::decode_into`] calls the *calling thread*
/// has made. Tests read it before and after a query to assert that
/// cached aggregates ([`crate::TraceBundle::region_instrs`],
/// [`crate::TraceSummary::compute`]) decode nothing; per-thread, so
/// decodes on sibling test threads or sweep workers never move it.
#[cfg(test)]
pub(crate) fn segments_decoded() -> u64 {
    SEGMENTS_DECODED.with(Cell::get)
}

// Kind codes for the run-length column, one nibble each. Load/LoadDep
// are distinct kinds so the dep flag rides the RLE column and memory
// entries stay uniform.
const K_EXEC: u8 = 0;
const K_LOAD: u8 = 1;
const K_LOAD_DEP: u8 = 2;
const K_STORE: u8 = 3;
const K_FENCE: u8 = 4;
const K_UNIT_END: u8 = 5;
const K_BLOCK: u8 = 6;
const K_WAKE: u8 = 7;
const K_REMOTE_SEND: u8 = 8;
const K_REMOTE_RECV: u8 = 9;

/// The longest run one kinds byte holds in its low nibble; longer runs
/// take the escape (nibble 0, then a length byte).
const NIBBLE_RUN: u32 = 15;
const MAX_RUN: u32 = 255;

/// LEB128. One- and two-byte values — nearly every region id,
/// instruction count, access size and address delta of an engine trace —
/// are written with a single capacity check.
#[inline(always)]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        buf.push(v as u8);
    } else if v < 0x4000 {
        buf.extend_from_slice(&[v as u8 | 0x80, (v >> 7) as u8]);
    } else {
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One encoded block of up to [`SEGMENT_EVENTS`] events (see module
/// docs for the column layout).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segment {
    /// Decoded event count.
    len: u32,
    /// Where the kinds, mem and exec columns end in `cols`; the remote
    /// column runs from the last to the end.
    ends: [usize; 3],
    /// The four columns back to back, in one exact-size allocation:
    /// run-length op kinds; zigzag-varint address delta + varint size
    /// per load/store; varint region id + varint instruction count per
    /// exec run; varint message size per remote send/recv marker (empty
    /// for traces with no cross-instance traffic). Each in stream order.
    cols: Box<[u8]>,
}

/// The one encoder of the columnar format: appends events to the four
/// columns of an open segment, one at a time, and seals them into a
/// [`Segment`] when asked. The columns are scratch that [`Self::seal`]
/// copies out and clears, so their capacity carries over to the next
/// segment. Fields are masked exactly as
/// [`PackedEvent::exec`]/[`load`](PackedEvent::load)/[`store`](PackedEvent::store)
/// mask them, so feeding an event directly and feeding it through its
/// packed word produce the same bytes.
#[derive(Debug, Default)]
pub(crate) struct SegmentEncoder {
    /// Events appended since the last [`Self::seal`].
    len: u32,
    kinds: Vec<u8>,
    mem: Vec<u8>,
    exec: Vec<u8>,
    remote: Vec<u8>,
    /// The open run of the kinds column, not yet written (`run == 0`:
    /// none, whatever `run_kind` holds).
    run_kind: u8,
    run: u32,
    prev_addr: i64,
}

impl SegmentEncoder {
    /// Events appended since the last [`Self::seal`].
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Encoded bytes of the events appended since the last
    /// [`Self::seal`] (the open kinds run counted as written).
    #[cfg(test)]
    pub(crate) fn encoded_bytes(&self) -> usize {
        let run_bytes = (self.run > 0) as usize + (self.run > NIBBLE_RUN) as usize;
        self.kinds.len() + run_bytes + self.mem.len() + self.exec.len() + self.remote.len()
    }

    // The typed appends are `inline(always)`: each is the whole encoding
    // of its event class, and the tracer's recording bodies are built
    // from them.

    /// Append an exec run.
    #[inline(always)]
    pub(crate) fn exec(&mut self, region: RegionId, instrs: u32) {
        debug_assert!(region as u64 <= REGION_MASK);
        put_varint(&mut self.exec, region as u64 & REGION_MASK);
        put_varint(&mut self.exec, instrs as u64);
        self.kind(K_EXEC);
    }

    /// Append a load, dependent load or store (`kind` is its
    /// [`AccessKind`] code).
    #[inline(always)]
    pub(crate) fn access(&mut self, kind: AccessKind, addr: u64, size: u32) {
        // Every captured address enters the format here: a wider one is a
        // caller bug (see `PackedEvent::load`); release builds mask it.
        debug_assert!(
            addr <= ADDR_MASK,
            "addr {addr:#x} exceeds the 48-bit trace address space \
             (release builds would silently mask it)"
        );
        let addr = (addr & ADDR_MASK) as i64;
        put_varint(&mut self.mem, zigzag(addr - self.prev_addr));
        put_varint(&mut self.mem, size as u64 & SIZE_MASK);
        self.prev_addr = addr;
        self.kind(kind as u8);
    }

    /// Append a remote send or recv marker with its message size.
    #[inline(always)]
    fn remote(&mut self, kind: u8, bytes: u32) {
        put_varint(&mut self.remote, bytes as u64);
        self.kind(kind);
    }

    /// Count one event of `kind` into the run-length column.
    #[inline(always)]
    fn kind(&mut self, kind: u8) {
        self.len += 1;
        if kind == self.run_kind && self.run < MAX_RUN {
            self.run += 1;
        } else {
            self.flush_run();
            self.run_kind = kind;
            self.run = 1;
        }
    }

    /// Append any event (markers, and [`Segment::encode`]'s loop).
    #[inline]
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub(crate) fn push(&mut self, ev: Event) {
        match ev {
            Event::Exec { region, instrs } => self.exec(region, instrs),
            Event::Load { addr, size, dep } => {
                let kind = if dep {
                    AccessKind::LoadDep
                } else {
                    AccessKind::Load
                };
                self.access(kind, addr, size as u32)
            }
            Event::Store { addr, size } => self.access(AccessKind::Store, addr, size as u32),
            Event::Fence => self.kind(K_FENCE),
            Event::UnitEnd => self.kind(K_UNIT_END),
            Event::Block => self.kind(K_BLOCK),
            Event::Wake => self.kind(K_WAKE),
            Event::RemoteSend { bytes } => self.remote(K_REMOTE_SEND, bytes),
            Event::RemoteRecv { bytes } => self.remote(K_REMOTE_RECV, bytes),
        }
    }

    /// Write the open run, if any: one byte up to [`NIBBLE_RUN`], else
    /// the two-byte escape.
    #[inline]
    fn flush_run(&mut self) {
        let head = self.run_kind << 4;
        match self.run {
            0 => {}
            1..=NIBBLE_RUN => self.kinds.push(head | self.run as u8),
            _ => self.kinds.extend_from_slice(&[head, self.run as u8]),
        }
    }

    /// Close the open segment, copying its columns into the sealed
    /// segment's one allocation, and start an empty one (the
    /// address-delta base resets, so every segment decodes
    /// independently).
    pub(crate) fn seal(&mut self) -> Segment {
        self.flush_run();
        let cols = [&self.kinds, &self.mem, &self.exec, &self.remote];
        let end = |n: usize| cols[..n].iter().map(|c| c.len()).sum();
        let seg = Segment {
            len: self.len,
            ends: [end(1), end(2), end(3)],
            cols: cols.map(Vec::as_slice).concat().into_boxed_slice(),
        };
        for col in [
            &mut self.kinds,
            &mut self.mem,
            &mut self.exec,
            &mut self.remote,
        ] {
            col.clear();
        }
        (self.len, self.run, self.prev_addr) = (0, 0, 0);
        seg
    }
}

/// The three memory-access kinds of the run-length column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum AccessKind {
    Load = K_LOAD,
    LoadDep = K_LOAD_DEP,
    Store = K_STORE,
}

impl Segment {
    /// Encode a block of packed events. The input may be any length
    /// (the tracer seals at [`SEGMENT_EVENTS`]; the final block of a
    /// trace is usually shorter).
    pub fn encode(events: &[PackedEvent]) -> Segment {
        let mut enc = SegmentEncoder::default();
        for ev in events {
            enc.push(ev.decode());
        }
        enc.seal()
    }

    /// Decode the whole block into `out` (cleared first), appending
    /// exactly [`Self::len`] events in stream order.
    pub fn decode_into(&self, out: &mut Vec<Event>) {
        SEGMENTS_DECODED.with(|n| n.set(n.get() + 1));
        out.clear();
        out.reserve(self.len as usize);
        let mut mem_pos = 0usize;
        let mut exec_pos = 0usize;
        let mut remote_pos = 0usize;
        let mut prev_addr = 0i64;
        let (kinds, mem) = (self.kinds(), self.mem());
        let (exec, remote) = (self.exec(), self.remote());
        let mut at = 0usize;
        while at < kinds.len() {
            let (kind, mut run) = (kinds[at] >> 4, (kinds[at] & 0xF) as usize);
            at += 1;
            if run == 0 {
                run = kinds[at] as usize;
                at += 1;
            }
            for _ in 0..run {
                out.push(match kind {
                    K_EXEC => {
                        let region = get_varint(exec, &mut exec_pos) as RegionId;
                        let instrs = get_varint(exec, &mut exec_pos) as u32;
                        Event::Exec { region, instrs }
                    }
                    K_LOAD | K_LOAD_DEP | K_STORE => {
                        let (addr, size) = Self::next_access(mem, &mut mem_pos, &mut prev_addr);
                        match kind {
                            K_STORE => Event::Store { addr, size },
                            k => Event::Load {
                                addr,
                                size,
                                dep: k == K_LOAD_DEP,
                            },
                        }
                    }
                    K_FENCE => Event::Fence,
                    K_UNIT_END => Event::UnitEnd,
                    K_BLOCK => Event::Block,
                    K_REMOTE_SEND => Event::RemoteSend {
                        bytes: get_varint(remote, &mut remote_pos) as u32,
                    },
                    K_REMOTE_RECV => Event::RemoteRecv {
                        bytes: get_varint(remote, &mut remote_pos) as u32,
                    },
                    _ => Event::Wake,
                });
            }
        }
        debug_assert_eq!(out.len(), self.len as usize, "segment length drift");
    }

    /// Read one `(addr, size)` entry of the `mem` column at `pos`,
    /// advancing `pos` and the running delta base.
    #[inline]
    fn next_access(mem: &[u8], pos: &mut usize, prev_addr: &mut i64) -> (u64, u16) {
        *prev_addr += unzigzag(get_varint(mem, pos));
        let size = get_varint(mem, pos) as u16;
        // Inverse of encode's zigzag delta: reconstructs the exact u64 the
        // encoder masked, so the cast cannot truncate further.
        (*prev_addr as u64, size)
    }

    /// `(addr, size)` of every load and store in stream order, read from
    /// the `mem` column alone: no [`Event`] is built and
    /// [`segments_decoded`] does not move.
    pub(crate) fn accesses(&self) -> impl Iterator<Item = (u64, u16)> + '_ {
        let (mem, mut pos, mut prev_addr) = (self.mem(), 0, 0);
        std::iter::from_fn(move || {
            (pos < mem.len()).then(|| Self::next_access(mem, &mut pos, &mut prev_addr))
        })
    }

    /// Decode into a fresh vector (tests and one-shot consumers; hot
    /// paths reuse a buffer via [`Self::decode_into`]).
    pub fn decode(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Decoded event count.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes: the four columns plus a 4-byte length
    /// header. The columns are also exactly the segment's heap
    /// allocation.
    pub fn encoded_bytes(&self) -> usize {
        4 + self.cols.len()
    }

    fn kinds(&self) -> &[u8] {
        &self.cols[..self.ends[0]]
    }

    fn mem(&self) -> &[u8] {
        &self.cols[self.ends[0]..self.ends[1]]
    }

    fn exec(&self) -> &[u8] {
        &self.cols[self.ends[1]..self.ends[2]]
    }

    fn remote(&self) -> &[u8] {
        &self.cols[self.ends[2]..]
    }
}

/// Capture-side seam: receives sealed segments from a
/// [`Tracer`](crate::Tracer) as capture proceeds, one block at a time.
///
/// Implementations decide retention: [`SegmentBuffer`] keeps every
/// segment (replayable trace); [`CountingSink`] keeps none (bounded
/// memory — aggregate counters only). A sink must be `Send` so capture
/// threads can carry their tracers across a `thread::scope`.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Receive one sealed block. Called in stream order.
    fn emit(&mut self, seg: Segment);

    /// Hand back every retained segment, in emission order. Called once
    /// by [`Tracer::finish`](crate::Tracer::finish); non-retaining
    /// sinks return an empty vector (the default).
    fn take_segments(&mut self) -> Vec<Segment> {
        Vec::new()
    }
}

/// The default retaining sink: keeps every sealed segment in memory so
/// [`Tracer::finish`](crate::Tracer::finish) can produce a replayable
/// [`ThreadTrace`](crate::ThreadTrace).
#[derive(Debug, Default)]
pub struct SegmentBuffer {
    segments: Vec<Segment>,
}

impl TraceSink for SegmentBuffer {
    fn emit(&mut self, seg: Segment) {
        self.segments.push(seg);
    }

    fn take_segments(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.segments)
    }
}

/// A non-retaining sink: counts segments, events, and encoded bytes,
/// then drops each block. With this sink a capture's peak trace memory
/// is one staging block per live tracer — independent of trace length —
/// at the cost of producing no replayable stream.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Sealed segments received.
    pub(crate) segments: u64,
    /// Events across all received segments.
    pub(crate) events: u64,
    /// Encoded bytes across all received segments.
    pub(crate) bytes: u64,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, seg: Segment) {
        self.segments += 1;
        self.events += seg.len() as u64;
        self.bytes += seg.encoded_bytes() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(events: &[Event]) {
        let packed: Vec<PackedEvent> = events.iter().map(|e| e.pack()).collect();
        let seg = Segment::encode(&packed);
        assert_eq!(seg.len(), events.len());
        assert_eq!(seg.decode(), events, "decode must be lossless");
    }

    #[test]
    fn empty_segment() {
        let seg = Segment::encode(&[]);
        assert!(seg.is_empty());
        assert!(seg.decode().is_empty());
        assert_eq!(seg.encoded_bytes(), 4);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&[
            Event::Exec {
                region: 1023,
                instrs: u32::MAX,
            },
            Event::Load {
                addr: (1 << 48) - 1,
                size: 4095,
                dep: true,
            },
            Event::Load {
                addr: 0,
                size: 1,
                dep: false,
            },
            Event::Store {
                addr: 0xDEAD_BEEF,
                size: 64,
            },
            Event::Fence,
            Event::UnitEnd,
            Event::Block,
            Event::Wake,
            Event::RemoteSend { bytes: 0 },
            Event::RemoteRecv { bytes: u32::MAX },
            Event::RemoteSend { bytes: 4096 },
            Event::Exec {
                region: 0,
                instrs: 0,
            },
        ]);
    }

    /// Interleaved remote markers and memory traffic: the remote column
    /// must track its own cursor without disturbing mem/exec decode.
    #[test]
    fn remote_markers_interleave_with_mem_traffic() {
        roundtrip(&[
            Event::Load {
                addr: 0x4000,
                size: 8,
                dep: false,
            },
            Event::RemoteSend { bytes: 96 },
            Event::Store {
                addr: 0x4040,
                size: 16,
            },
            Event::RemoteRecv { bytes: 64 },
            Event::RemoteRecv { bytes: 128 },
            Event::Exec {
                region: 7,
                instrs: 42,
            },
            Event::RemoteSend { bytes: 96 },
        ]);
        // Traces without remote traffic leave the column empty — the
        // encoded size is unchanged from the pre-deployment format.
        let seg = Segment::encode(&[PackedEvent::fence(), PackedEvent::load(64, 8, false)]);
        assert_eq!(seg.remote().len(), 0);
    }

    #[test]
    fn long_runs_cross_rle_limit() {
        // Runs of every kind on both sides of the one-byte limit (15),
        // the escape's limit (255) and past it, each closed by one event
        // of the next kind: the run must split at 255 and rejoin, and the
        // kinds column costs one byte per run of up to 15 events and two
        // above.
        let every_kind = [
            Event::Exec {
                region: 3,
                instrs: 40,
            },
            Event::Load {
                addr: 0x4000,
                size: 8,
                dep: false,
            },
            Event::Load {
                addr: 0x4000,
                size: 8,
                dep: true,
            },
            Event::Store {
                addr: 0x4000,
                size: 8,
            },
            Event::Fence,
            Event::UnitEnd,
            Event::Block,
            Event::Wake,
            Event::RemoteSend { bytes: 96 },
            Event::RemoteRecv { bytes: 64 },
        ];
        let nth = |ev: Event, i: u64| match ev {
            Event::Load { addr, size, dep } => Event::Load {
                addr: addr + i * 64,
                size,
                dep,
            },
            Event::Store { addr, size } => Event::Store {
                addr: addr + i * 64,
                size,
            },
            other => other,
        };
        let run_bytes = |r: usize| {
            let tail = match r % MAX_RUN as usize {
                0 => 0,
                1..=15 => 1,
                _ => 2,
            };
            2 * (r / MAX_RUN as usize) + tail
        };
        for (k, &ev) in every_kind.iter().enumerate() {
            for run in [1, 15, 16, 17, 255, 256, 4096] {
                let mut events: Vec<Event> = (0..run as u64).map(|i| nth(ev, i)).collect();
                events.push(every_kind[(k + 1) % every_kind.len()]);
                roundtrip(&events);
                let packed: Vec<PackedEvent> = events.iter().map(|e| e.pack()).collect();
                let seg = Segment::encode(&packed);
                assert_eq!(seg.kinds().len(), run_bytes(run) + 1, "{ev:?} x {run}");
            }
        }
    }

    #[test]
    fn sequential_addresses_encode_small() {
        // A strided scan: deltas are constant and tiny, so the encoded
        // size must be far below the flat 8 B/event.
        let packed: Vec<PackedEvent> = (0..4096u64)
            .map(|i| PackedEvent::load(0x10000 + i * 64, 8, false))
            .collect();
        let seg = Segment::encode(&packed);
        let bpe = seg.encoded_bytes() as f64 / seg.len() as f64;
        assert!(
            bpe < 4.0,
            "strided loads must encode well under 4 B/event, got {bpe:.2}"
        );
    }

    #[test]
    fn backward_deltas_roundtrip() {
        roundtrip(&[
            Event::Load {
                addr: 1 << 40,
                size: 8,
                dep: false,
            },
            Event::Store { addr: 64, size: 8 },
            Event::Load {
                addr: (1 << 48) - 64,
                size: 8,
                dep: true,
            },
        ]);
    }

    /// [`MAX_EVENT_BYTES`] is reached, and only just: full-size accesses
    /// swinging across the whole 48-bit space, kinds alternating so that
    /// every event opens a run.
    #[test]
    fn max_event_bytes_is_the_worst_case() {
        let mut enc = SegmentEncoder::default();
        for i in 0..100u64 {
            let addr = if i % 2 == 0 { (1 << 48) - 1 } else { 0 };
            let kind = [AccessKind::Load, AccessKind::Store][i as usize % 2];
            enc.access(kind, addr, 4095);
            assert_eq!(enc.encoded_bytes(), (i as usize + 1) * MAX_EVENT_BYTES);
        }
        enc.exec(1023, u32::MAX);
        enc.push(Event::RemoteSend { bytes: u32::MAX });
        assert!(enc.encoded_bytes() < 102 * MAX_EVENT_BYTES);
        assert_eq!(enc.seal().encoded_bytes(), 4 + 100 * 10 + 8 + 6);
    }

    #[test]
    fn decode_counter_advances() {
        let before = segments_decoded();
        Segment::encode(&[PackedEvent::fence()]).decode();
        assert!(segments_decoded() > before);
    }

    #[test]
    fn varint_zigzag_edge_cases() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 47, -(1 << 47)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }
}
