//! WAL-lite: an in-memory write-ahead log buffer.
//!
//! Records are appended sequentially into a shared ring; commit writes a
//! commit record and fences. The log head is written by *every*
//! transaction of *every* client, making it the second great shared-write
//! hot spot after the lock table — the classic log-buffer contention point
//! of row-store engines.

use crate::costs::instr;
use crate::tctx::TraceCtx;
use dbcmp_trace::AddressSpace;

/// Ring capacity in simulated bytes.
const WAL_BYTES: u64 = 4 << 20;

/// Log record kinds (sizes approximate a real engine's record headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// Row insert carrying `bytes` of payload.
    Insert {
        /// Encoded row-image size.
        bytes: u32,
    },
    /// Row update carrying `bytes` of payload (before-image logging).
    Update {
        /// Encoded before-image size.
        bytes: u32,
    },
    /// Row delete carrying `bytes` of payload (before-image logging).
    Delete {
        /// Encoded before-image size.
        bytes: u32,
    },
    /// Transaction commit marker.
    Commit,
    /// Transaction abort marker.
    Abort,
}

impl WalRecord {
    fn len(self) -> u32 {
        let header = 24;
        match self {
            WalRecord::Insert { bytes }
            | WalRecord::Update { bytes }
            | WalRecord::Delete { bytes } => header + bytes,
            WalRecord::Commit | WalRecord::Abort => header,
        }
    }
}

/// The shared log buffer.
#[derive(Debug)]
pub(crate) struct Wal {
    addr: u64,
    head: u64,
    records: u64,
}

impl Wal {
    /// An empty log ring with a simulated buffer allocation.
    pub(crate) fn new(space: &AddressSpace) -> Self {
        Wal {
            addr: space.alloc(WAL_BYTES),
            head: 0,
            records: 0,
        }
    }

    /// Append a record (sequential traced store at the shared head).
    pub(crate) fn append(&mut self, rec: WalRecord, tc: &mut TraceCtx) {
        let len = rec.len();
        tc.charge(tc.r.wal, instr::WAL_APPEND + len / 8);
        tc.store(self.addr + self.head % WAL_BYTES, len);
        self.head += len as u64;
        self.records += 1;
    }

    /// Commit: append the commit record and fence (group-commit flush
    /// point).
    pub(crate) fn commit(&mut self, tc: &mut TraceCtx) {
        self.append(WalRecord::Commit, tc);
        tc.fence();
    }

    /// Total bytes appended (monotone; the ring index wraps, this does
    /// not).
    pub(crate) fn bytes_written(&self) -> u64 {
        self.head
    }

    /// Total records appended.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::CodeRegions;

    #[test]
    fn appends_advance_head() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let mut wal = Wal::new(&space);
        let mut tc = TraceCtx::null(er);
        wal.append(WalRecord::Insert { bytes: 100 }, &mut tc);
        wal.append(WalRecord::Update { bytes: 50 }, &mut tc);
        wal.commit(&mut tc);
        assert_eq!(wal.records(), 3);
        assert_eq!(wal.bytes_written(), (24 + 100) + (24 + 50) + 24);
    }

    #[test]
    fn head_wraps_ring() {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        let mut wal = Wal::new(&space);
        let mut tc = TraceCtx::null(er);
        for _ in 0..100_000 {
            wal.append(WalRecord::Update { bytes: 200 }, &mut tc);
        }
        // 100k x 224B = 22.4 MB > 4 MB ring — head keeps counting, the
        // ring index stays in range (no panic, monotone counters).
        assert!(wal.bytes_written() > WAL_BYTES);
    }
}
