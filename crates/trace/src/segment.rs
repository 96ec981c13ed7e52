//! Chunked trace segments and the sink/source seams.
//!
//! A trace is stored as fixed-size blocks of [`SEGMENT_EVENTS`] events,
//! each encoded into a [`Segment`] with two byte columns:
//!
//! * **tokens** — one byte per event, stored compressed (below). The
//!   byte holds, in order: the six markers (`Fence`, `UnitEnd`, `Block`,
//!   `Wake`, `RemoteSend`, `RemoteRecv`); four *escapes*, an exec pair
//!   or an access of one of the three kinds that its table does not
//!   hold; [`EXEC_SLOTS`] *exec slots*, each naming a `(region, instrs)`
//!   pair of the segment's exec table; 96 *access tokens*, each naming
//!   a kind (load, dependent load, store) and a slot of the segment's
//!   size table; and the 96 access tokens' *stride twins*.
//! * **args** — varints in event order, read only by the tokens that
//!   carry any: a remote marker's message size; an exec escape's region
//!   and instruction count; an access escape's size, then its
//!   zigzag address delta; an access token's zigzag address delta,
//!   shifted left one bit for the flag that names its base. A stride
//!   twin carries none.
//!
//! An escape whose value is new appends it to its table (at most
//! [`EXEC_SLOTS`] pairs and [`SIZE_SLOTS`] sizes), so later uses of it
//! are bare tokens; once a table is full its escapes append nothing and
//! keep carrying the value. An access token's address delta is from the
//! previous address of the same token — its kind and size — or, when
//! that is nearer (flag set), from the segment's previous access, so
//! a read-then-write of one field costs a one-byte delta. A token's
//! first access reads the segment's previous access for both bases, and
//! every access escape's delta is from it, with no flag. Each token also
//! keeps its stride: its last access's address minus the token's base
//! then. An access that repeats it is the token's stride twin, with no
//! args, since its address is the token's base plus that stride; any
//! other access takes the flagged delta and sets the stride anew. So a
//! scan's strided reads cost a token each. Engine code charges a few
//! distinct instruction counts per region and reads a few field widths,
//! each on its own stride, so most exec events and strided accesses cost
//! one byte and other accesses two or three. Tables, bases and strides
//! start empty in every segment, so every segment decodes on its own.
//!
//! Sealing a segment compresses its token column with the LZ77 stage
//! of [`crate::lz`]: literal runs and back-references within the
//! segment, found by a greedy single-probe hash of 4-byte windows. The
//! token column is the engine's control flow, the same few operator
//! loops over and over, so it shrinks to 4–18 % of its length.
//! The args column, mostly address deltas that repeat little on OLTP,
//! is kept as it is: compressing it as well cost `oltp_contended` about
//! 18 % of its wall time. A sealed segment holds the compressed tokens
//! and then the args, back to back, in one exact-size heap allocation,
//! so the memory a retained trace takes is its encoded bytes plus a
//! fixed header per segment.
//! Measured with `bench_pipeline --trace 1`, `dss_capture`'s five
//! captures take 0.48 B/event in all: the staged ones 0.06–0.07, whose
//! accesses repeat their stride 98 % of the time, the executor's scan
//! mix 0.32 and its join mix 1.11. `dist_joins`' two take 1.11 and 0.32,
//! and the OLTP captures, whose accesses repeat a stride 12 % of the
//! time, 1.41–1.52.
//!
//! The codec is **lossless**: a segment reads back exactly the
//! [`Event`] sequence that was encoded, so its [`Event::pack`] words —
//! what every capture digest folds — are those of the recorded events.
//! That guarantee is gated by proptest round-trips in
//! `tests/proptests.rs` and, end to end, by the golden anchor in
//! `tests/validation.rs`.
//!
//! One encoder writes those columns: `SegmentEncoder` appends an event
//! at a time to the columns of an open segment. The `Tracer` owns one
//! and feeds it directly as the engine records, so an event is encoded
//! exactly once; [`Segment::encode`] is a loop over the same encoder.
//! One iterator reads them back, [`Segment::events`]: it decompresses
//! the segment's token column into a buffer of at most
//! [`SEGMENT_EVENTS`] bytes, then yields an event per token into no
//! event buffer. A thread's [`ThreadTrace::iter`](crate::ThreadTrace::iter)
//! reuses one token buffer across all of its segments, and the
//! simulator's replay cursor and [`TraceSummary`](crate::TraceSummary)
//! read through it.
//!
//! [`TraceSink`] is the capture seam: a `Tracer` seals its open segment
//! every [`SEGMENT_EVENTS`] events and emits it into a sink instead of
//! growing one buffer, so peak *staging* memory per thread is one open
//! segment (a few KB of columns, and the compressor's 8 KB hash table)
//! regardless of trace length.
//! [`SegmentBuffer`] retains segments for replay; [`CountingSink`]
//! retains nothing (bounded-memory capture for runs that only need
//! aggregate counts).

use std::cell::Cell;

use crate::event::{Event, ADDR_MASK, REGION_MASK, SIZE_MASK};
use crate::lz;
use crate::region::RegionId;

/// Events per sealed segment (the block size of the columnar format).
///
/// 4096 events typically encode to a few KB; large enough to amortize
/// a reader's table setup, small enough that the one open segment a
/// recording thread holds is negligible.
pub const SEGMENT_EVENTS: usize = 4096;

/// The most bytes one event can add to a segment: an access escape —
/// its token, a 2-byte size and a 7-byte zig-zag delta (49 significant
/// bits). An access token's flagged delta takes at most 8 bytes (50
/// bits). [`SEGMENT_EVENTS`] times this bounds what a recording
/// [`Tracer`](crate::Tracer) holds outside its sink.
#[cfg(test)]
pub(crate) const MAX_EVENT_BYTES: usize = 10;

thread_local! {
    /// [`Segment::events`] calls made by this thread.
    static SEGMENTS_READ: Cell<u64> = const { Cell::new(0) };
}

/// The number of [`Segment::events`] calls the *calling thread* has
/// made. Tests read it before and after a query to assert how often it
/// reads a segment: cached aggregates
/// ([`crate::TraceBundle::region_instrs`]) read none, and
/// [`crate::TraceSummary::compute`] reads each once. Per-thread, so
/// reads on sibling test threads or sweep workers never move it.
#[cfg(test)]
pub(crate) fn segments_read() -> u64 {
    SEGMENTS_READ.with(Cell::get)
}

// The token byte. Markers and escapes first, then the exec slots, then
// the access tokens, `T_ACCESS + kind * SIZE_SLOTS + size slot`, then
// their stride twins, `T_STRIDE` + the same.
const T_FENCE: u8 = 0;
const T_UNIT_END: u8 = 1;
const T_BLOCK: u8 = 2;
const T_WAKE: u8 = 3;
const T_REMOTE_SEND: u8 = 4;
const T_REMOTE_RECV: u8 = 5;
const T_EXEC_ESCAPE: u8 = 6;
/// The three access escapes, `T_ACCESS_ESCAPE + kind`.
const T_ACCESS_ESCAPE: u8 = 7;
const T_EXEC: u8 = 10;
const T_ACCESS: u8 = T_EXEC + EXEC_SLOTS as u8;
const T_STRIDE: u8 = T_ACCESS + ACCESS_TOKENS as u8;

/// Distinct `(region, instrs)` pairs one segment's exec table holds.
const EXEC_SLOTS: usize = 54;
/// Distinct access sizes one segment's size table holds.
const SIZE_SLOTS: usize = 32;
/// Access tokens: three kinds × [`SIZE_SLOTS`]. They and their stride
/// twins are the rest of the byte.
const ACCESS_TOKENS: usize = 3 * SIZE_SLOTS;
const _: () = assert!(T_STRIDE as usize + ACCESS_TOKENS == 256);

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

/// Read one LEB128 value at `pos`, advancing it. A value cut short by
/// the end of `buf` reads as its bytes so far: a segment's columns come
/// only from [`SegmentEncoder`], so that never happens, and reading
/// cannot panic.
#[inline(always)]
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    while let Some(&b) = buf.get(*pos) {
        *pos += 1;
        v |= ((b & 0x7F) as u64).wrapping_shl(shift);
        if b < 0x80 {
            break;
        }
        shift = shift.wrapping_add(7);
    }
    v
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The zigzag delta that takes `base` to `addr` (both 48-bit).
#[inline(always)]
fn delta(base: u64, addr: u64) -> u64 {
    zigzag(addr as i64 - base as i64)
}

/// The address a zigzag delta from `base` names.
#[inline(always)]
fn rebase(base: u64, delta: u64) -> u64 {
    base.wrapping_add(unzigzag(delta) as u64)
}

/// A base no 48-bit address equals: the token has had no access yet.
const NO_BASE: u64 = u64::MAX;

/// One segment's address-delta bases, the same on both sides of the
/// codec: the previous address of each access token, and of the
/// segment, and each token's last stride.
#[derive(Debug)]
struct Bases {
    token: [u64; ACCESS_TOKENS],
    /// What each token's previous access added to its base then
    /// (wrapping; 0 before its first).
    stride: [u64; ACCESS_TOKENS],
    prev: u64,
}

impl Bases {
    const EMPTY: Bases = Bases {
        token: [NO_BASE; ACCESS_TOKENS],
        stride: [0; ACCESS_TOKENS],
        prev: 0,
    };

    /// The base of an access through access token `a`: its previous
    /// address, or the segment's previous access on its first use.
    #[inline(always)]
    fn of(&self, a: usize) -> u64 {
        match self.token[a % ACCESS_TOKENS] {
            NO_BASE => self.prev,
            base => base,
        }
    }

    /// The address that repeats access token `a`'s stride: the one its
    /// stride twin names.
    #[inline(always)]
    fn strided(&self, a: usize) -> u64 {
        self.of(a).wrapping_add(self.stride[a % ACCESS_TOKENS])
    }

    /// Record an access at `addr`, through access token `a` if it has
    /// one, and the stride it took from that token's base.
    #[inline(always)]
    fn set(&mut self, a: Option<usize>, addr: u64) {
        if let Some(a) = a {
            self.stride[a % ACCESS_TOKENS] = addr.wrapping_sub(self.of(a));
            self.token[a % ACCESS_TOKENS] = addr;
        }
        self.prev = addr;
    }

    /// Record an access through `a` that repeated its stride, at `addr`.
    #[inline(always)]
    fn step(&mut self, a: usize, addr: u64) {
        self.token[a % ACCESS_TOKENS] = addr;
        self.prev = addr;
    }
}

/// Buckets of the encoder's exec-pair map: a power of two, and more
/// than [`EXEC_SLOTS`] so a probe always ends at an empty bucket.
const EXEC_MAP: usize = 128;
const _: () = assert!(EXEC_SLOTS < EXEC_MAP && EXEC_MAP == 1 << 7);

/// The encoder's side of one segment's tables: what each exec pair and
/// access size maps to, and the delta bases.
#[derive(Debug)]
struct EncoderTables {
    /// Open-addressed `exec_key` → exec token, probed linearly from the
    /// key's hash (key 0: an empty bucket).
    exec_keys: [u64; EXEC_MAP],
    exec_tokens: [u8; EXEC_MAP],
    /// Pairs in the exec table.
    execs: usize,
    /// Access size → its slot + 1 (0: not in the size table).
    size_slots: [u8; SIZE_MASK as usize + 1],
    /// Sizes in the size table.
    sizes: usize,
    bases: Bases,
}

impl EncoderTables {
    const EMPTY: EncoderTables = EncoderTables {
        exec_keys: [0; EXEC_MAP],
        exec_tokens: [0; EXEC_MAP],
        execs: 0,
        size_slots: [0; SIZE_MASK as usize + 1],
        sizes: 0,
        bases: Bases::EMPTY,
    };

    /// The bucket a probe for `key` starts at (Fibonacci hashing).
    #[inline(always)]
    fn bucket(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize
    }

    /// The exec token of `key`, if its pair is in the table.
    #[inline(always)]
    fn exec_token(&self, key: u64) -> Option<u8> {
        let mut b = Self::bucket(key);
        loop {
            match self.exec_keys[b] {
                k if k == key => return Some(self.exec_tokens[b]),
                0 => return None,
                _ => b = (b + 1) % EXEC_MAP,
            }
        }
    }

    /// Append `key`'s pair to the exec table, unless it is full.
    fn add_exec(&mut self, key: u64) {
        if self.execs == EXEC_SLOTS {
            return;
        }
        let mut b = Self::bucket(key);
        while self.exec_keys[b] != 0 {
            b = (b + 1) % EXEC_MAP;
        }
        self.exec_keys[b] = key;
        self.exec_tokens[b] = T_EXEC + self.execs as u8;
        self.execs += 1;
    }
}

/// The key of an exec pair in [`EncoderTables`]: never 0.
#[inline(always)]
fn exec_key(region: RegionId, instrs: u32) -> u64 {
    ((region as u64 & REGION_MASK) << 32 | instrs as u64) + 1
}

/// One encoded block of up to [`SEGMENT_EVENTS`] events (see module
/// docs for the column layout).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segment {
    /// Event count, which is also the token column's decoded length.
    len: u32,
    /// The compressed token column, then the args column, in one
    /// exact-size allocation.
    cols: Box<[u8]>,
}

/// The one encoder of the format: appends events to the two columns of
/// an open segment, one at a time, and seals them into a [`Segment`]
/// when asked. The columns, the compressed token column and the
/// compressor's hash table are scratch that [`Self::seal`] copies out of
/// and clears, so their capacity carries over to the next segment, and
/// so do the tables, which it empties. Fields are masked to the widths
/// of [`Event::pack`]'s word.
#[derive(Debug, Default)]
pub(crate) struct SegmentEncoder {
    tokens: Vec<u8>,
    args: Vec<u8>,
    /// The token column as [`Self::seal`] compressed it.
    packed: Vec<u8>,
    lz: lz::Compressor,
    /// Made by the first event a recording tracer appends (a null-mode
    /// tracer never makes one).
    tables: Option<Box<EncoderTables>>,
}

impl SegmentEncoder {
    /// Events appended since the last [`Self::seal`].
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Bytes of the events appended since the last [`Self::seal`], in
    /// the two columns as they stand before sealing compresses the
    /// tokens.
    #[cfg(test)]
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.tokens.len() + self.args.len()
    }

    /// The tables, made on first use.
    #[inline(always)]
    fn tables(&mut self) -> &mut EncoderTables {
        self.tables
            .get_or_insert_with(|| Box::new(EncoderTables::EMPTY))
    }

    // The typed appends are `inline(always)`: each is the whole encoding
    // of its event class, and the tracer's recording bodies are built
    // from them. Their escapes are out of line.

    /// Append an exec run.
    #[inline(always)]
    pub(crate) fn exec(&mut self, region: RegionId, instrs: u32) {
        debug_assert!(region as u64 <= REGION_MASK);
        let key = exec_key(region, instrs);
        match self.tables().exec_token(key) {
            Some(token) => self.tokens.push(token),
            None => self.exec_escape(region, instrs, key),
        }
    }

    #[inline(never)]
    fn exec_escape(&mut self, region: RegionId, instrs: u32, key: u64) {
        self.tables().add_exec(key);
        self.tokens.push(T_EXEC_ESCAPE);
        put_varint(&mut self.args, region as u64 & REGION_MASK);
        put_varint(&mut self.args, instrs as u64);
    }

    /// Append a load, dependent load or store.
    ///
    /// # Address masking policy
    ///
    /// The format carries 48 address bits, and every captured address
    /// (`Tracer::load`/`store`) enters it here. Every producer in this
    /// workspace allocates from [`AddressSpace`](crate::AddressSpace)
    /// (data, capped at 2^46) or [`CodeRegions`](crate::CodeRegions)
    /// (code, based at 2^47), both inside 48 bits, so a wider address
    /// is a caller bug: debug builds panic, and release builds keep the
    /// historical behavior of masking it to its low 48 bits, which
    /// aliases the access rather than corrupting other fields.
    #[inline(always)]
    pub(crate) fn access(&mut self, kind: AccessKind, addr: u64, size: u32) {
        debug_assert!(
            addr <= ADDR_MASK,
            "addr {addr:#x} exceeds the 48-bit trace address space \
             (release builds would silently mask it)"
        );
        let (addr, size) = (addr & ADDR_MASK, size as u64 & SIZE_MASK);
        let tab = self.tables();
        match tab.size_slots[size as usize] {
            0 => self.access_escape(kind, addr, size),
            slot => {
                let a = kind as usize * SIZE_SLOTS + slot as usize - 1;
                if addr == tab.bases.strided(a) {
                    tab.bases.step(a, addr);
                    self.tokens.push(T_STRIDE + a as u8);
                    return;
                }
                let (own, prev) = (tab.bases.of(a), tab.bases.prev);
                let near_prev = addr.abs_diff(prev) < addr.abs_diff(own);
                let base = if near_prev { prev } else { own };
                tab.bases.set(Some(a), addr);
                self.tokens.push(T_ACCESS + a as u8);
                put_varint(&mut self.args, delta(base, addr) << 1 | near_prev as u64);
            }
        }
    }

    #[inline(never)]
    fn access_escape(&mut self, kind: AccessKind, addr: u64, size: u64) {
        let tab = self.tables();
        let d = delta(tab.bases.prev, addr);
        let a = (tab.sizes < SIZE_SLOTS).then(|| {
            tab.sizes += 1;
            tab.size_slots[size as usize] = tab.sizes as u8;
            kind as usize * SIZE_SLOTS + tab.sizes - 1
        });
        tab.bases.set(a, addr);
        self.tokens.push(T_ACCESS_ESCAPE + kind as u8);
        put_varint(&mut self.args, size);
        put_varint(&mut self.args, d);
    }

    /// Append a remote send or recv marker with its message size.
    #[inline(always)]
    fn remote(&mut self, token: u8, bytes: u32) {
        self.tokens.push(token);
        put_varint(&mut self.args, bytes as u64);
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
            Event::Fence => self.tokens.push(T_FENCE),
            Event::UnitEnd => self.tokens.push(T_UNIT_END),
            Event::Block => self.tokens.push(T_BLOCK),
            Event::Wake => self.tokens.push(T_WAKE),
            Event::RemoteSend { bytes } => self.remote(T_REMOTE_SEND, bytes),
            Event::RemoteRecv { bytes } => self.remote(T_REMOTE_RECV, bytes),
        }
    }

    /// Close the open segment, compressing its token column and copying
    /// that and the args column into the sealed segment's one
    /// allocation, and start an empty one (the tables and bases empty
    /// too, so every segment decodes independently).
    pub(crate) fn seal(&mut self) -> Segment {
        self.lz.compress(&self.tokens, &mut self.packed);
        let seg = Segment {
            len: self.tokens.len() as u32,
            cols: [&self.packed[..], &self.args[..]]
                .concat()
                .into_boxed_slice(),
        };
        self.tokens.clear();
        self.args.clear();
        if let Some(tab) = &mut self.tables {
            **tab = EncoderTables::EMPTY;
        }
        seg
    }
}

/// The three memory-access kinds, in access-token order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum AccessKind {
    Load = 0,
    LoadDep = 1,
    Store = 2,
}

/// The access event of kind `kind` (an [`AccessKind`] code).
#[inline(always)]
fn access_event(kind: usize, addr: u64, size: u16) -> Event {
    match kind {
        0 => Event::Load {
            addr,
            size,
            dep: false,
        },
        1 => Event::Load {
            addr,
            size,
            dep: true,
        },
        _ => Event::Store { addr, size },
    }
}

impl Segment {
    /// Encode a block of events. The input may be any length (the tracer
    /// seals at [`SEGMENT_EVENTS`]; the final block of a trace is usually
    /// shorter).
    pub fn encode(events: &[Event]) -> Segment {
        let mut enc = SegmentEncoder::default();
        for &ev in events {
            enc.push(ev);
        }
        enc.seal()
    }

    /// The segment's events in stream order: the one reader of the
    /// format, which yields exactly [`Self::len`] events. It
    /// decompresses the token column into a buffer of its own;
    /// [`ThreadTrace::iter`](crate::ThreadTrace::iter) reuses one across
    /// a trace's segments.
    pub fn events(&self) -> SegmentEvents<'_> {
        let mut events = SegmentEvents::empty();
        events.open(self);
        events
    }

    /// Event count.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes: the compressed token column and the args
    /// column, plus a 4-byte length header. The columns are also exactly
    /// the segment's heap allocation.
    pub fn encoded_bytes(&self) -> usize {
        4 + self.cols.len()
    }

    /// The decoded token column, the compressed column's length, and the
    /// args column.
    #[cfg(test)]
    fn columns(&self) -> (Vec<u8>, usize, &[u8]) {
        let mut tokens = Vec::new();
        let packed = lz::decompress(&self.cols, self.len(), &mut tokens);
        (tokens, packed, &self.cols[packed..])
    }

    /// The args column.
    #[cfg(test)]
    fn args(&self) -> &[u8] {
        self.columns().2
    }
}

/// The events of one [`Segment`], read from its columns one token at a
/// time (see [`Segment::events`]). It holds the segment's decompressed
/// token column, at most [`SEGMENT_EVENTS`] bytes for a tracer's
/// segment, and rebuilds the tables and bases the encoder kept, about
/// 2 KB more; it fills no event buffer.
#[derive(Debug)]
pub struct SegmentEvents<'a> {
    /// The decompressed token column, and the next token's index in it.
    tokens: Vec<u8>,
    at: usize,
    args: &'a [u8],
    /// Read position in `args`.
    pos: usize,
    execs: [(RegionId, u32); EXEC_SLOTS],
    n_execs: usize,
    sizes: [u16; SIZE_SLOTS],
    n_sizes: usize,
    bases: Bases,
}

impl<'a> SegmentEvents<'a> {
    fn new(tokens: Vec<u8>, args: &'a [u8]) -> Self {
        SegmentEvents {
            tokens,
            at: 0,
            args,
            pos: 0,
            execs: [(0, 0); EXEC_SLOTS],
            n_execs: 0,
            sizes: [0; SIZE_SLOTS],
            n_sizes: 0,
            bases: Bases::EMPTY,
        }
    }

    /// A reader of no events, with no token buffer yet.
    pub(crate) fn empty() -> Self {
        Self::new(Vec::new(), &[])
    }

    /// Start reading `seg` from its first event, decompressing its token
    /// column into the buffer this reader already holds: a reader
    /// opened on segment after segment allocates its buffer once.
    pub(crate) fn open(&mut self, seg: &'a Segment) {
        SEGMENTS_READ.with(|n| n.set(n.get() + 1));
        let mut tokens = std::mem::take(&mut self.tokens);
        let packed = lz::decompress(&seg.cols, seg.len(), &mut tokens);
        *self = Self::new(tokens, seg.cols.get(packed..).unwrap_or_default());
    }

    #[inline(always)]
    fn arg(&mut self) -> u64 {
        get_varint(self.args, &mut self.pos)
    }
}

impl Iterator for SegmentEvents<'_> {
    type Item = Event;

    // Always inlined, so a loop over one segment's events keeps the
    // reader's position and bases in registers rather than behind a call.
    #[inline(always)]
    fn next(&mut self) -> Option<Event> {
        let t = *self.tokens.get(self.at)?;
        self.at += 1;
        Some(if t >= T_STRIDE {
            let a = (t - T_STRIDE) as usize;
            let addr = self.bases.strided(a);
            self.bases.step(a, addr);
            access_event(a / SIZE_SLOTS, addr, self.sizes[a % SIZE_SLOTS])
        } else if t >= T_ACCESS {
            let a = (t - T_ACCESS) as usize;
            let v = self.arg();
            let base = match v & 1 {
                0 => self.bases.of(a),
                _ => self.bases.prev,
            };
            let addr = rebase(base, v >> 1);
            self.bases.set(Some(a), addr);
            access_event(a / SIZE_SLOTS, addr, self.sizes[a % SIZE_SLOTS])
        } else if t >= T_EXEC {
            let (region, instrs) = self.execs[(t - T_EXEC) as usize % EXEC_SLOTS];
            Event::Exec { region, instrs }
        } else {
            match t {
                T_FENCE => Event::Fence,
                T_UNIT_END => Event::UnitEnd,
                T_BLOCK => Event::Block,
                T_WAKE => Event::Wake,
                T_REMOTE_SEND => Event::RemoteSend {
                    bytes: self.arg() as u32,
                },
                T_REMOTE_RECV => Event::RemoteRecv {
                    bytes: self.arg() as u32,
                },
                T_EXEC_ESCAPE => {
                    let region = self.arg() as RegionId;
                    let instrs = self.arg() as u32;
                    if self.n_execs < EXEC_SLOTS {
                        self.execs[self.n_execs] = (region, instrs);
                        self.n_execs += 1;
                    }
                    Event::Exec { region, instrs }
                }
                // The three access escapes (7, 8 and 9).
                _ => {
                    let kind = (t - T_ACCESS_ESCAPE) as usize % 3;
                    let size = self.arg() as u16;
                    let addr = rebase(self.bases.prev, self.arg());
                    let a = (self.n_sizes < SIZE_SLOTS).then(|| {
                        self.sizes[self.n_sizes] = size;
                        self.n_sizes += 1;
                        kind * SIZE_SLOTS + self.n_sizes - 1
                    });
                    self.bases.set(a, addr);
                    access_event(kind, addr, size)
                }
            }
        })
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

    fn roundtrip(events: &[Event]) -> Segment {
        let seg = Segment::encode(events);
        assert_eq!(seg.len(), events.len());
        assert_eq!(
            seg.events().collect::<Vec<_>>(),
            events,
            "the codec must be lossless"
        );
        seg
    }

    fn load(addr: u64, size: u16) -> Event {
        Event::Load {
            addr,
            size,
            dep: false,
        }
    }

    #[test]
    fn empty_segment() {
        let seg = Segment::encode(&[]);
        assert!(seg.is_empty());
        assert_eq!(seg.events().next(), None);
        let (tokens, packed, args) = seg.columns();
        assert!(tokens.is_empty() && args.is_empty());
        assert_eq!(packed, 0, "an empty token column compresses to nothing");
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
            load(0, 1),
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
            Event::Exec {
                region: 1023,
                instrs: u32::MAX,
            },
        ]);
    }

    /// Remote markers read their sizes from the args column between the
    /// accesses' deltas without disturbing them.
    #[test]
    fn remote_markers_interleave_with_mem_traffic() {
        roundtrip(&[
            load(0x4000, 8),
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
            load(0x4008, 8),
        ]);
        // A fence has no args; a first load carries its size and its
        // delta from 0 (zigzag 128, two bytes). Two tokens are too few
        // to match: they compress to one literal run, a tag and the two.
        let seg = Segment::encode(&[Event::Fence, load(64, 8)]);
        let (tokens, packed, args) = seg.columns();
        assert_eq!(tokens, [T_FENCE, T_ACCESS_ESCAPE]);
        assert_eq!(args, [8, 0x80, 0x01]);
        assert_eq!(packed, 1 + 2);
        assert_eq!(seg.encoded_bytes(), 4 + 3 + 3);
    }

    /// The token column decodes to one byte per event, whatever the
    /// event: a run of one repeated event costs its first event's args,
    /// then only what each later one carries — nothing for an exec pair
    /// or a marker; for an access a one-byte zero delta, which sets its
    /// token's stride to zero, and then nothing; a size for a remote
    /// marker. Its tokens, the first perhaps an escape, the second
    /// perhaps an access token and the rest one token, compress to one
    /// literal run and one match: a tag, at most three literals, a
    /// 2-byte offset and at most ⌈(4096 − 22) / 255⌉ = 16 length bytes.
    #[test]
    fn a_repeated_event_costs_its_token_and_only_the_args_it_must_carry() {
        // (event, args of the first, of the second, of each later one)
        let every_kind = [
            (
                Event::Exec {
                    region: 3,
                    instrs: 40,
                },
                2,
                0,
                0,
            ),
            (load(0x4000, 8), 4, 1, 0),
            (
                Event::Load {
                    addr: 0x4000,
                    size: 8,
                    dep: true,
                },
                4,
                1,
                0,
            ),
            (
                Event::Store {
                    addr: 0x4000,
                    size: 8,
                },
                4,
                1,
                0,
            ),
            (Event::Fence, 0, 0, 0),
            (Event::UnitEnd, 0, 0, 0),
            (Event::Block, 0, 0, 0),
            (Event::Wake, 0, 0, 0),
            (Event::RemoteSend { bytes: 96 }, 1, 1, 1),
            (Event::RemoteRecv { bytes: 300 }, 2, 2, 2),
        ];
        for (ev, first, second, later) in every_kind {
            for run in [1, 2, 3, 255, 4095, 4096] {
                let seg = roundtrip(&vec![ev; run]);
                let (tokens, packed, args) = seg.columns();
                assert_eq!(tokens.len(), run);
                assert!(tokens.iter().skip(2).all(|&t| t == tokens[run - 1]));
                let want =
                    first + run.min(2).saturating_sub(1) * second + run.saturating_sub(2) * later;
                assert_eq!(args.len(), want, "{ev:?} x {run}");
                assert!(packed <= 1 + 3 + 2 + 16, "{ev:?} x {run}: {packed}");
                assert_eq!(seg.encoded_bytes(), 4 + packed + args.len());
            }
        }
    }

    /// Past [`EXEC_SLOTS`] pairs and [`SIZE_SLOTS`] sizes the tables are
    /// full: a pair or size they hold is still a bare token, and every
    /// other one escapes again, each time, with its value.
    #[test]
    fn full_tables_keep_escaping() {
        let extra = 10;
        let pairs: Vec<Event> = (0..EXEC_SLOTS + extra)
            .map(|i| Event::Exec {
                region: 5,
                instrs: 1000 + i as u32,
            })
            .collect();
        let twice: Vec<Event> = pairs.iter().chain(&pairs).copied().collect();
        let seg = roundtrip(&twice);
        // An escape carries region 5 (one byte) and 1000 + i (two).
        let escapes = EXEC_SLOTS + 2 * extra;
        let (tokens, _, args) = seg.columns();
        assert_eq!(args.len(), escapes * 3);
        assert_eq!(
            tokens.iter().filter(|&&t| t == T_EXEC_ESCAPE).count(),
            escapes
        );

        // Sizes 1000 + i (two-byte varints), every access at one address:
        // an escape's delta is zero, one byte, but for the very first
        // access's two. That access left its token a stride of 0x40, so
        // that token's second access carries a one-byte zero delta; every
        // other token's second access repeats its zero stride and
        // carries nothing.
        let sizes: Vec<Event> = (0..SIZE_SLOTS + extra)
            .map(|i| load(0x40, 1000 + i as u16))
            .collect();
        let twice: Vec<Event> = sizes.iter().chain(&sizes).copied().collect();
        let seg = roundtrip(&twice);
        let escapes = SIZE_SLOTS + 2 * extra;
        assert_eq!(seg.args().len(), escapes * 3 + 1 + 1);
    }

    /// Each access token keeps its own base and stride: two strided
    /// streams, a load of 8 bytes and a store of 16 a terabyte apart,
    /// interleave at one byte an event once each has been seen, and at
    /// no args once each has taken its stride.
    #[test]
    fn each_access_token_deltas_from_its_own_previous_address() {
        let mut events = Vec::new();
        for i in 0..1000u64 {
            events.push(load(0x10_0000 + i * 16, 8));
            events.push(Event::Store {
                addr: (1 << 40) + i * 16,
                size: 16,
            });
        }
        let seg = roundtrip(&events);
        let (tokens, packed, args) = seg.columns();
        assert_eq!(tokens.len(), events.len());
        // The two first accesses: size + a 4-byte and a 6-byte delta.
        // The two second ones: a one-byte delta of 16 from their own
        // bases, which sets their strides.
        let firsts = (1 + 4) + (1 + 6);
        assert_eq!(args.len(), firsts + 2);
        assert!(tokens[4..].iter().all(|&t| t >= T_STRIDE));
        // Two escapes, two access tokens, then the two stride tokens
        // alternating: six literals and a match at offset 2 that runs to
        // the end, with 8 length bytes.
        assert_eq!(packed, 1 + 6 + 2 + 8);
        assert_eq!(seg.encoded_bytes(), 4 + packed + args.len());
    }

    /// After its first two accesses, a strided run adds tokens only: the
    /// first carries its size and delta, the second a delta that sets
    /// its token's stride, and every later one repeats that stride, up
    /// or down, with other events between.
    #[test]
    fn a_strided_run_costs_no_args() {
        let mut events = Vec::new();
        for i in 0..2000u64 {
            events.push(load(0x10_0000 + i * 24, 8));
            events.push(Event::Exec {
                region: 3,
                instrs: 12,
            });
            events.push(Event::Store {
                addr: (1 << 40) - i * 64,
                size: 16,
            });
        }
        let mut enc = SegmentEncoder::default();
        let mut args = Vec::new();
        for &ev in &events {
            enc.push(ev);
            args.push(enc.args.len());
        }
        // Two rounds of load, exec and store: after them, no args.
        assert!(args[6..].iter().all(|&n| n == args[5]), "{:?}", &args[..9]);
        assert!(enc.tokens[6..]
            .chunks(3)
            .all(|round| round[0] >= T_STRIDE && round[2] >= T_STRIDE));
        let seg = enc.seal();
        assert_eq!(seg.events().collect::<Vec<_>>(), events);
        assert_eq!(seg.args().len(), args[5]);
    }

    /// A store to the field a load just read is a flagged zero delta from
    /// the segment's previous access, one byte, though the store token's
    /// own previous address is far away.
    #[test]
    fn an_access_near_the_previous_one_deltas_from_it() {
        let mut events = vec![Event::Store { addr: 0, size: 8 }];
        for i in 1..=100u64 {
            // Strides of 3 · 2²⁹ and 2²⁹ in turn, so none repeats.
            let addr = i << 30 | u64::from(i % 2 == 0) << 29;
            events.push(load(addr, 8));
            events.push(Event::Store { addr, size: 8 });
        }
        let seg = roundtrip(&events);
        // The first store is an escape (size, delta 0); every load is a
        // token (its size is in the table) whose stride is new, five
        // bytes; every later store a one-byte flagged 0.
        let (first_store, first_load) = (1 + 1, 5);
        assert_eq!(seg.args().len(), first_store + first_load + 99 * 5 + 100);
        assert_eq!(seg.args()[first_store + first_load], 1, "flag, delta 0");
    }

    #[test]
    fn sequential_addresses_encode_small() {
        // A strided scan: deltas are constant and tiny, so the encoded
        // size must be far below the flat 8 B/event.
        let events: Vec<Event> = (0..4096u64).map(|i| load(0x10000 + i * 64, 8)).collect();
        let seg = Segment::encode(&events);
        let bpe = seg.encoded_bytes() as f64 / seg.len() as f64;
        assert!(
            bpe < 4.0,
            "strided loads must encode well under 4 B/event, got {bpe:.2}"
        );
    }

    #[test]
    fn backward_deltas_roundtrip() {
        roundtrip(&[
            load(1 << 40, 8),
            Event::Store { addr: 64, size: 8 },
            Event::Load {
                addr: (1 << 48) - 64,
                size: 8,
                dep: true,
            },
            load(0, 8),
            load((1 << 48) - 1, 8),
        ]);
    }

    /// [`MAX_EVENT_BYTES`] is reached in the open segment, and only
    /// just: access escapes, every size new to the segment (and the size
    /// table full after [`SIZE_SLOTS`] of them), each size a two-byte
    /// varint, and the address swinging across the whole 48-bit space.
    /// An access token with both bases a whole space away takes one byte
    /// less, and one that repeats its stride takes none, which a swing
    /// never does. Sealing keeps the args and compresses only the tokens.
    #[test]
    fn max_event_bytes_is_the_worst_case() {
        let mut enc = SegmentEncoder::default();
        let kinds = [AccessKind::Load, AccessKind::LoadDep, AccessKind::Store];
        for i in 0..100usize {
            let addr = if i % 2 == 0 { (1 << 48) - 1 } else { 0 };
            enc.access(kinds[i % 3], addr, 4095 - i as u32);
            assert_eq!(enc.encoded_bytes(), (i + 1) * MAX_EVENT_BYTES);
        }
        // Size 4093 came in at i = 2, a store at the top; the last
        // access, at i = 99, was at 0.
        enc.access(AccessKind::Store, (1 << 48) - 1, 4093);
        enc.access(AccessKind::Store, 0, 4093);
        assert_eq!(enc.encoded_bytes(), 100 * MAX_EVENT_BYTES + 2 + 9);
        enc.exec(1023, u32::MAX);
        enc.push(Event::RemoteSend { bytes: u32::MAX });
        let seg = enc.seal();
        let (tokens, packed, args) = seg.columns();
        assert_eq!(tokens.len() + args.len(), 100 * 10 + 2 + 9 + 8 + 6);
        // The escapes' kinds repeat every three tokens: three literals
        // and a 97-token match (one length byte), then the last four
        // tokens as literals.
        assert_eq!(packed, (1 + 3 + 2 + 1) + (1 + 4));
        assert_eq!(seg.encoded_bytes(), 4 + packed + args.len());
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
        // A value cut short reads as far as it goes.
        let mut pos = 0;
        assert_eq!(get_varint(&[0x81], &mut pos), 1);
        assert_eq!((pos, get_varint(&[0x81], &mut pos)), (1, 0));
        for (base, addr) in [(0, (1 << 48) - 1), ((1 << 48) - 1, 0), (5, 5)] {
            assert_eq!(rebase(base, delta(base, addr)), addr);
        }
    }
}
