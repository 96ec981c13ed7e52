//! Trace events and their digest word.
//!
//! Traces are stored as token-coded segments whose token column is
//! LZ-compressed (about 0.5 B/event on the DSS captures, 1.5 on OLTP;
//! [`Segment`](crate::Segment)) and read back as [`Event`]s.
//! [`Event::pack`] folds an event into one `u64`, a [`PackedEvent`]:
//! the word every pinned capture digest folds. No trace is stored as
//! these words, and nothing reads one back.
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
const REMOTE_BYTES_SHIFT: u32 = 3;

/// An event's digest word (see the module docs for the bit layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedEvent(pub u64);

/// One trace event.
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

impl Event {
    /// The event's one 64-bit word (layout in the module docs), the value
    /// every capture digest folds. Each field is masked to its width; the
    /// events a segment decodes to always fit, since the encoder masks
    /// them the same way (the policy is on `SegmentEncoder::access`).
    #[inline]
    pub fn pack(self) -> PackedEvent {
        let access = |op: u64, addr: u64, size: u16| {
            (op << OP_SHIFT) | ((size as u64 & SIZE_MASK) << SIZE_SHIFT) | (addr & ADDR_MASK)
        };
        let marker = |kind: u64, bytes: u32| {
            (OP_MARKER << OP_SHIFT) | ((bytes as u64) << REMOTE_BYTES_SHIFT) | kind
        };
        PackedEvent(match self {
            Event::Exec { region, instrs } => {
                (OP_EXEC << OP_SHIFT)
                    | ((region as u64 & REGION_MASK) << REGION_SHIFT)
                    | instrs as u64
            }
            Event::Load { addr, size, dep } => access(OP_LOAD, addr, size) | (dep as u64 * DEP_BIT),
            Event::Store { addr, size } => access(OP_STORE, addr, size),
            Event::Fence => marker(MARKER_FENCE, 0),
            Event::UnitEnd => marker(MARKER_UNIT_END, 0),
            Event::Block => marker(MARKER_BLOCK, 0),
            Event::Wake => marker(MARKER_WAKE, 0),
            Event::RemoteSend { bytes } => marker(MARKER_REMOTE_SEND, bytes),
            Event::RemoteRecv { bytes } => marker(MARKER_REMOTE_RECV, bytes),
        })
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

    /// The digest word of every variant, at the edges of each field:
    /// every pinned capture digest folds these words, so none may move.
    #[test]
    fn every_variant_packs_to_its_pinned_word() {
        let cases = [
            (
                Event::Exec {
                    region: 0,
                    instrs: 0,
                },
                0x0000_0000_0000_0000,
            ),
            (
                Event::Exec {
                    region: 1023,
                    instrs: u32::MAX,
                },
                0x3FF0_0000_FFFF_FFFF,
            ),
            (
                Event::Load {
                    addr: 0,
                    size: 1,
                    dep: false,
                },
                0x4002_0000_0000_0000,
            ),
            (
                Event::Load {
                    addr: (1 << 48) - 1,
                    size: 4095,
                    dep: true,
                },
                0x7FFE_FFFF_FFFF_FFFF,
            ),
            (
                Event::Store {
                    addr: 0xDEAD_BEEF,
                    size: 64,
                },
                0x8080_0000_DEAD_BEEF,
            ),
            (Event::Fence, 0xC000_0000_0000_0000),
            (Event::UnitEnd, 0xC000_0000_0000_0001),
            (Event::Block, 0xC000_0000_0000_0002),
            (Event::Wake, 0xC000_0000_0000_0003),
            (Event::RemoteSend { bytes: 0 }, 0xC000_0000_0000_0004),
            (Event::RemoteSend { bytes: u32::MAX }, 0xC000_0007_FFFF_FFFC),
            (Event::RemoteRecv { bytes: 1 }, 0xC000_0000_0000_000D),
            (Event::RemoteRecv { bytes: 4096 }, 0xC000_0000_0000_8005),
        ];
        for (e, word) in cases {
            assert_eq!(e.pack(), PackedEvent(word), "{e:?}");
        }
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
