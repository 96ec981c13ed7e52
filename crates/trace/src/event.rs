//! Packed trace events.
//!
//! One event per `u64`. Traces are stored as token-coded segments
//! (about 2 B/event, [`Segment`](crate::Segment)), not as these words;
//! a `PackedEvent` is the one canonical word per event that the segment
//! codec round-trips to and that every pinned capture digest folds.
//!
//! Layout (bit 63 is the MSB):
//!
//! ```text
//! op=00 Exec:   [63:62]=00 [61:52]=region(10) [31:0]=instrs
//! op=01 Load:   [63:62]=01 [61]=dep [60:49]=size(12) [47:0]=addr
//! op=10 Store:  [63:62]=10          [60:49]=size(12) [47:0]=addr
//! op=11 Marker: [63:62]=11 [2:0]=kind (0=Fence, 1=UnitEnd, 2=Block, 3=Wake,
//!               4=RemoteSend, 5=RemoteRecv); remote markers carry a
//!               [34:3]=bytes payload (message size for occupancy costing)
//! ```
//!
//! The marker kind field was widened from 2 to 3 bits when the remote
//! markers were added. The four original kinds keep bit 2 clear, so every
//! pre-existing packed word decodes to the same event it always did —
//! recorded golden streams are unaffected.
//!
//! Sizes are limited to [`MAX_ACCESS`] bytes; the [`Tracer`](crate::Tracer)
//! splits larger transfers into multiple events.

use crate::region::RegionId;

/// Cache-line size assumed throughout the system (bytes).
pub const CACHE_LINE: u64 = 64;

/// Largest single load/store event payload, in bytes.
pub(crate) const MAX_ACCESS: u32 = 4095;

const OP_SHIFT: u32 = 62;
const OP_EXEC: u64 = 0;
const OP_LOAD: u64 = 1;
const OP_STORE: u64 = 2;
const OP_MARKER: u64 = 3;

const DEP_BIT: u64 = 1 << 61;
const SIZE_SHIFT: u32 = 49;
pub(crate) const SIZE_MASK: u64 = 0xFFF;
pub(crate) const ADDR_MASK: u64 = (1 << 48) - 1;
const REGION_SHIFT: u32 = 52;
pub(crate) const REGION_MASK: u64 = 0x3FF;

const MARKER_FENCE: u64 = 0;
const MARKER_UNIT_END: u64 = 1;
const MARKER_BLOCK: u64 = 2;
const MARKER_WAKE: u64 = 3;
const MARKER_REMOTE_SEND: u64 = 4;
const MARKER_REMOTE_RECV: u64 = 5;
const MARKER_MASK: u64 = 0b111;
const REMOTE_BYTES_SHIFT: u32 = 3;

/// A single packed event. See module docs for the bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedEvent(pub u64);

/// Decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Execute `instrs` instructions fetched sequentially through `region`.
    Exec {
        /// Code region being executed.
        region: RegionId,
        /// Number of instructions retired.
        instrs: u32,
    },
    /// One load instruction touching `[addr, addr+size)`. `dep` marks a
    /// load whose result gates subsequent instructions (pointer chase).
    Load {
        /// First byte of the access.
        addr: u64,
        /// Access size in bytes (≤ `MAX_ACCESS`).
        size: u16,
        /// Whether following instructions depend on the loaded value.
        dep: bool,
    },
    /// One store instruction touching `[addr, addr+size)`.
    Store {
        /// First byte of the access.
        addr: u64,
        /// Access size in bytes (≤ `MAX_ACCESS`).
        size: u16,
    },
    /// Ordering fence (lock acquire/release, commit): the out-of-order core
    /// drains its window before proceeding.
    Fence,
    /// A unit of work (transaction or query) completed — used for response
    /// time and per-unit throughput accounting.
    UnitEnd,
    /// The thread blocked on a lock wait (2PL queue) — the context drains
    /// and stops issuing until the matching [`Event::Wake`].
    Block,
    /// The thread resumed after a lock grant (or deadlock-victim
    /// notification) — pairs with the preceding [`Event::Wake`]'s
    /// [`Event::Block`].
    Wake,
    /// The thread injected a `bytes`-byte message onto the deployment
    /// interconnect (cross-instance request or commit vote). Replay
    /// charges link occupancy (`bytes / bytes_per_cycle`).
    RemoteSend {
        /// Message size in bytes.
        bytes: u32,
    },
    /// The thread consumed a `bytes`-byte message from the deployment
    /// interconnect (response or ack) — the thread was waiting on it, so
    /// replay charges one-way link latency plus occupancy.
    RemoteRecv {
        /// Message size in bytes.
        bytes: u32,
    },
}

impl PackedEvent {
    /// Pack an [`Event::Exec`].
    #[inline]
    pub(crate) fn exec(region: RegionId, instrs: u32) -> Self {
        debug_assert!((region as u64) <= REGION_MASK);
        PackedEvent((OP_EXEC << OP_SHIFT) | ((region as u64) << REGION_SHIFT) | instrs as u64)
    }

    /// Pack an [`Event::Load`].
    ///
    /// # Address masking policy
    ///
    /// The wire format carries 48 address bits. Every producer in this
    /// workspace allocates from [`AddressSpace`](crate::AddressSpace)
    /// (data, capped at 2^46) or [`CodeRegions`](crate::CodeRegions)
    /// (code, based at 2^47), both comfortably inside 48 bits, so a
    /// wider address is a caller bug: debug builds panic here and in
    /// `SegmentEncoder::access`, the one place every captured address
    /// (`Tracer::load`/`store`) enters the segment format. Release
    /// builds keep the historical behavior — high bits are truncated by
    /// `ADDR_MASK` — which aliases the access into the low 48-bit
    /// window rather than corrupting the op/size fields.
    #[inline]
    pub(crate) fn load(addr: u64, size: u32, dep: bool) -> Self {
        debug_assert!((1..=MAX_ACCESS).contains(&size));
        debug_assert!(
            addr <= ADDR_MASK,
            "load addr {addr:#x} exceeds the 48-bit trace address space \
             (release builds would silently mask it)"
        );
        let mut w =
            (OP_LOAD << OP_SHIFT) | ((size as u64 & SIZE_MASK) << SIZE_SHIFT) | (addr & ADDR_MASK);
        if dep {
            w |= DEP_BIT;
        }
        PackedEvent(w)
    }

    /// Pack an [`Event::Store`]. Addresses above 48 bits follow the
    /// masking policy documented on [`PackedEvent::load`]: panic in
    /// debug builds, truncate via `ADDR_MASK` in release builds.
    #[inline]
    pub(crate) fn store(addr: u64, size: u32) -> Self {
        debug_assert!((1..=MAX_ACCESS).contains(&size));
        debug_assert!(
            addr <= ADDR_MASK,
            "store addr {addr:#x} exceeds the 48-bit trace address space \
             (release builds would silently mask it)"
        );
        PackedEvent(
            (OP_STORE << OP_SHIFT) | ((size as u64 & SIZE_MASK) << SIZE_SHIFT) | (addr & ADDR_MASK),
        )
    }

    /// Pack an [`Event::Fence`] marker.
    #[inline]
    pub(crate) fn fence() -> Self {
        PackedEvent((OP_MARKER << OP_SHIFT) | MARKER_FENCE)
    }

    /// Pack an [`Event::UnitEnd`] marker.
    #[inline]
    pub(crate) fn unit_end() -> Self {
        PackedEvent((OP_MARKER << OP_SHIFT) | MARKER_UNIT_END)
    }

    /// Pack an [`Event::Block`] marker.
    #[inline]
    pub(crate) fn block() -> Self {
        PackedEvent((OP_MARKER << OP_SHIFT) | MARKER_BLOCK)
    }

    /// Pack an [`Event::Wake`] marker.
    #[inline]
    pub(crate) fn wake() -> Self {
        PackedEvent((OP_MARKER << OP_SHIFT) | MARKER_WAKE)
    }

    /// Pack an [`Event::RemoteSend`] marker carrying the message size.
    #[inline]
    pub(crate) fn remote_send(bytes: u32) -> Self {
        PackedEvent(
            (OP_MARKER << OP_SHIFT) | ((bytes as u64) << REMOTE_BYTES_SHIFT) | MARKER_REMOTE_SEND,
        )
    }

    /// Pack an [`Event::RemoteRecv`] marker carrying the message size.
    #[inline]
    pub(crate) fn remote_recv(bytes: u32) -> Self {
        PackedEvent(
            (OP_MARKER << OP_SHIFT) | ((bytes as u64) << REMOTE_BYTES_SHIFT) | MARKER_REMOTE_RECV,
        )
    }

    /// Decode into the friendly representation.
    #[inline]
    pub fn decode(self) -> Event {
        let w = self.0;
        match w >> OP_SHIFT {
            OP_EXEC => Event::Exec {
                region: ((w >> REGION_SHIFT) & REGION_MASK) as RegionId,
                instrs: w as u32,
            },
            OP_LOAD => Event::Load {
                addr: w & ADDR_MASK,
                size: ((w >> SIZE_SHIFT) & SIZE_MASK) as u16,
                dep: w & DEP_BIT != 0,
            },
            OP_STORE => Event::Store {
                addr: w & ADDR_MASK,
                size: ((w >> SIZE_SHIFT) & SIZE_MASK) as u16,
            },
            _ => match w & MARKER_MASK {
                MARKER_UNIT_END => Event::UnitEnd,
                MARKER_BLOCK => Event::Block,
                MARKER_WAKE => Event::Wake,
                MARKER_REMOTE_SEND => Event::RemoteSend {
                    bytes: (w >> REMOTE_BYTES_SHIFT) as u32,
                },
                MARKER_REMOTE_RECV => Event::RemoteRecv {
                    bytes: (w >> REMOTE_BYTES_SHIFT) as u32,
                },
                _ => Event::Fence,
            },
        }
    }
}

impl Event {
    /// Pack into the wire representation.
    #[inline]
    pub fn pack(self) -> PackedEvent {
        match self {
            Event::Exec { region, instrs } => PackedEvent::exec(region, instrs),
            Event::Load { addr, size, dep } => PackedEvent::load(addr, size as u32, dep),
            Event::Store { addr, size } => PackedEvent::store(addr, size as u32),
            Event::Fence => PackedEvent::fence(),
            Event::UnitEnd => PackedEvent::unit_end(),
            Event::Block => PackedEvent::block(),
            Event::Wake => PackedEvent::wake(),
            Event::RemoteSend { bytes } => PackedEvent::remote_send(bytes),
            Event::RemoteRecv { bytes } => PackedEvent::remote_recv(bytes),
        }
    }

    /// Number of retired instructions this event represents.
    #[inline]
    pub fn instr_count(self) -> u64 {
        match self {
            Event::Exec { instrs, .. } => instrs as u64,
            Event::Load { .. } | Event::Store { .. } => 1,
            Event::Fence
            | Event::UnitEnd
            | Event::Block
            | Event::Wake
            | Event::RemoteSend { .. }
            | Event::RemoteRecv { .. } => 0,
        }
    }
}

/// Iterate over the cache lines touched by an access of `size` bytes at
/// `addr` (inclusive of partial first/last lines).
#[cfg(test)]
pub(crate) fn lines_touched(addr: u64, size: u16) -> impl Iterator<Item = u64> {
    let first = addr / CACHE_LINE;
    let last = (addr + size.max(1) as u64 - 1) / CACHE_LINE;
    (first..=last).map(|l| l * CACHE_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_all_variants() {
        let cases = [
            Event::Exec {
                region: 0,
                instrs: 0,
            },
            Event::Exec {
                region: 1023,
                instrs: u32::MAX,
            },
            Event::Load {
                addr: 0,
                size: 1,
                dep: false,
            },
            Event::Load {
                addr: (1 << 48) - 1,
                size: 4095,
                dep: true,
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
            Event::RemoteSend { bytes: u32::MAX },
            Event::RemoteRecv { bytes: 1 },
            Event::RemoteRecv { bytes: 4096 },
        ];
        for e in cases {
            assert_eq!(e.pack().decode(), e, "roundtrip failed for {e:?}");
        }
    }

    /// The marker-kind widening must keep the four original marker
    /// encodings byte-stable: recorded golden streams decode unchanged.
    #[test]
    fn legacy_marker_words_decode_unchanged() {
        for (word, want) in [
            (3u64 << 62, Event::Fence),
            ((3u64 << 62) | 1, Event::UnitEnd),
            ((3u64 << 62) | 2, Event::Block),
            ((3u64 << 62) | 3, Event::Wake),
        ] {
            assert_eq!(PackedEvent(word).decode(), want);
            assert_eq!(want.pack().0, word, "re-encoding must not move bits");
        }
        // Remote markers set bit 2, which no legacy marker ever did.
        assert_eq!(PackedEvent::remote_send(9).0 & 0b111, 0b100);
        assert_eq!(PackedEvent::remote_recv(9).0 & 0b111, 0b101);
    }

    #[test]
    fn instr_counts() {
        assert_eq!(
            Event::Exec {
                region: 3,
                instrs: 17
            }
            .instr_count(),
            17
        );
        assert_eq!(
            Event::Load {
                addr: 64,
                size: 8,
                dep: false
            }
            .instr_count(),
            1
        );
        assert_eq!(Event::Store { addr: 64, size: 8 }.instr_count(), 1);
        assert_eq!(Event::Fence.instr_count(), 0);
    }

    #[test]
    fn lines_touched_spans() {
        // 8 bytes fully inside one line
        assert_eq!(lines_touched(0, 8).collect::<Vec<_>>(), vec![0]);
        // straddles a boundary
        assert_eq!(lines_touched(60, 8).collect::<Vec<_>>(), vec![0, 64]);
        // exactly one full line, aligned
        assert_eq!(lines_touched(64, 64).collect::<Vec<_>>(), vec![64]);
        // three lines
        assert_eq!(lines_touched(32, 128).collect::<Vec<_>>(), vec![0, 64, 128]);
        // size-0 treated as a 1-byte touch
        assert_eq!(lines_touched(100, 0).collect::<Vec<_>>(), vec![64]);
    }
}
