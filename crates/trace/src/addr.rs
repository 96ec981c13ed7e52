//! Simulated data address space.
//!
//! Every engine-side data structure that the simulator should "see" (pages,
//! B+Tree nodes, lock-table buckets, hash tables, log buffers, per-thread
//! scratch) is assigned a stable 48-bit byte address from a process-wide
//! bump allocator. Addresses are never recycled, so a trace captured at any
//! point remains unambiguous.
//!
//! The allocator is lock-free (an atomic bump pointer) so the engine can
//! run multi-threaded natively.

use std::sync::atomic::{AtomicU64, Ordering};

/// A byte address in the simulated data address space (fits in 48 bits).
pub type SimAddr = u64;

/// Base of the data segment. Kept above the zero page so that address 0 can
/// be used as a sentinel, and below `2^46` so the instruction space (bit 47
/// set, see [`crate::region`]) never collides with data.
pub(crate) const DATA_BASE: SimAddr = 0x1000;

/// Highest valid data address (exclusive).
pub(crate) const DATA_LIMIT: SimAddr = 1 << 46;

/// Window stride for partitioned address spaces: each engine instance of
/// a shared-nothing deployment allocates inside its own `2^40`-byte
/// window, so instances can never mint overlapping (or >48-bit) trace
/// addresses. `DATA_LIMIT / PARTITION_STRIDE` bounds the instance count.
pub(crate) const PARTITION_STRIDE: SimAddr = 1 << 40;

/// Typed capacity errors from [`AddressSpace`] reservation — returned at
/// the capture boundary instead of minting an address the 48-bit trace
/// format would silently alias in release builds (the `debug_assert`-only
/// check in `SegmentEncoder::access`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressSpaceError {
    /// `AddressSpace::partition(index)` was asked for a window past
    /// `DATA_LIMIT`.
    PartitionOutOfRange {
        /// Requested partition index.
        index: usize,
        /// Largest valid index (`DATA_LIMIT / PARTITION_STRIDE - 1`).
        max: usize,
    },
    /// A reservation would overrun this space's window.
    Capacity {
        /// Bytes requested.
        requested: u64,
        /// Bytes left in the window before the request.
        remaining: u64,
    },
}

impl std::fmt::Display for AddressSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressSpaceError::PartitionOutOfRange { index, max } => write!(
                f,
                "partition index {index} out of range (max {max} windows of {} B below the \
                 46-bit data limit)",
                PARTITION_STRIDE
            ),
            AddressSpaceError::Capacity {
                requested,
                remaining,
            } => write!(
                f,
                "simulated address-space window exhausted: {requested} B requested, \
                 {remaining} B remaining"
            ),
        }
    }
}

impl std::error::Error for AddressSpaceError {}

/// Process-wide bump allocator for simulated data addresses.
///
/// Allocations are cache-line (64 B) aligned by default so that distinct
/// objects never false-share a simulated line unless the engine places them
/// in the same allocation deliberately.
#[derive(Debug)]
pub struct AddressSpace {
    next: AtomicU64,
    /// First address of this space's window (equals the initial `next`).
    base: SimAddr,
    /// End of this space's window (exclusive). [`DATA_LIMIT`] for the
    /// process-wide space; `base`-relative for partition windows.
    limit: SimAddr,
}

impl AddressSpace {
    /// An empty address space starting at `DATA_BASE`.
    pub fn new() -> Self {
        AddressSpace {
            next: AtomicU64::new(DATA_BASE),
            base: DATA_BASE,
            limit: DATA_LIMIT,
        }
    }

    /// The address space of engine instance `index` in a shared-nothing
    /// deployment: a private `PARTITION_STRIDE`-byte window. Window 0
    /// starts at `DATA_BASE`, so a 1-partition deployment allocates
    /// byte-identically to [`AddressSpace::new`]. Returns a typed error
    /// if the window would extend past `DATA_LIMIT` — the capture
    /// boundary's guard against addresses the 48-bit trace format would
    /// silently mask in release builds.
    pub fn partition(index: usize) -> Result<Self, AddressSpaceError> {
        let max = (DATA_LIMIT / PARTITION_STRIDE) as usize - 1;
        if index > max {
            return Err(AddressSpaceError::PartitionOutOfRange { index, max });
        }
        let base = DATA_BASE + index as u64 * PARTITION_STRIDE;
        Ok(AddressSpace {
            next: AtomicU64::new(base),
            base,
            // The last window is truncated by DATA_BASE bytes so no
            // window ever reaches past the 46-bit data limit.
            limit: (base + PARTITION_STRIDE).min(DATA_LIMIT),
        })
    }

    /// Allocate `bytes` of simulated memory, 64-byte aligned. Panics if
    /// this space's window is exhausted (which would indicate a
    /// mis-scaled workload, not a recoverable condition).
    #[expect(
        clippy::panic,
        reason = "documented panic shim over the typed try_ variant; exhaustion means a mis-scaled workload, not a recoverable state"
    )]
    pub fn alloc(&self, bytes: u64) -> SimAddr {
        self.try_alloc(bytes)
            .unwrap_or_else(|e| panic!("simulated data address space exhausted: {e}"))
    }

    /// [`Self::alloc`] returning a typed error instead of panicking — a
    /// real branch (not `debug_assert`), so release builds can never mint
    /// an address outside this space's window.
    fn try_alloc(&self, bytes: u64) -> Result<SimAddr, AddressSpaceError> {
        let bytes = bytes.max(1);
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            let base = (cur + 63) & !63;
            let end = base + bytes;
            if end >= self.limit {
                return Err(AddressSpaceError::Capacity {
                    requested: bytes,
                    remaining: self.limit.saturating_sub(cur),
                });
            }
            if self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(base);
            }
        }
    }

    /// Total simulated bytes allocated so far (window-relative).
    pub fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - self.base
    }

    /// Carve a private [`ScratchArena`] of `bytes` out of this space.
    ///
    /// The arena is one allocation against the shared bump pointer;
    /// afterwards the holder sub-allocates from it with no further
    /// shared-state traffic. This is what makes parallel capture
    /// deterministic: arenas are reserved in client order before any
    /// worker thread starts, so each client's scratch addresses depend
    /// only on its own arena — not on the cross-client interleaving of
    /// `alloc` calls. Simulated bytes are free (nothing is backed by real
    /// memory), so arenas can be generously oversized. Panics, as
    /// [`Self::alloc`] does, if the window cannot hold the arena.
    pub fn reserve_arena(&self, bytes: u64) -> ScratchArena {
        let base = self.alloc(bytes);
        ScratchArena {
            next: base,
            end: base + bytes,
        }
    }
}

/// A privately owned slice of the simulated address space, sub-allocated
/// by bump pointer (see [`AddressSpace::reserve_arena`]).
#[derive(Debug, Clone)]
pub struct ScratchArena {
    next: SimAddr,
    end: SimAddr,
}

impl ScratchArena {
    /// Allocate `bytes` of scratch, 64-byte aligned. Panics on
    /// exhaustion — falling back to the shared allocator would silently
    /// reintroduce the cross-client coupling the arena exists to remove.
    pub fn alloc(&mut self, bytes: u64) -> SimAddr {
        let bytes = bytes.max(1);
        let base = (self.next + 63) & !63;
        let end = base + bytes;
        assert!(
            end <= self.end,
            "scratch arena exhausted ({bytes} B requested, {} B left) — \
             widen the reservation in the capture driver",
            self.end.saturating_sub(base)
        );
        self.next = end;
        base
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let s = AddressSpace::new();
        let a = s.alloc(100);
        let b = s.alloc(1);
        let c = s.alloc(4096);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert_eq!(c % 64, 0);
        assert!(a + 100 <= b, "segments must not overlap");
        assert!(b < c);
    }

    #[test]
    fn allocated_tracks_total() {
        let s = AddressSpace::new();
        assert_eq!(s.allocated(), 0);
        s.alloc(64);
        assert_eq!(s.allocated(), 64);
    }

    #[test]
    fn arenas_are_disjoint_and_deterministic() {
        let mk = || {
            let s = AddressSpace::new();
            let mut a = s.reserve_arena(1 << 20);
            let mut b = s.reserve_arena(1 << 20);
            (a.alloc(100), a.alloc(1), b.alloc(4096))
        };
        let (a0, a1, b0) = mk();
        assert_eq!(a0 % 64, 0);
        assert!(a0 + 100 <= a1, "arena sub-allocations must not overlap");
        assert!(a1 < b0, "arenas must not overlap");
        assert_eq!((a0, a1, b0), mk(), "carving must be deterministic");
    }

    #[test]
    #[should_panic(expected = "scratch arena exhausted")]
    fn arena_exhaustion_panics() {
        let s = AddressSpace::new();
        let mut a = s.reserve_arena(128);
        a.alloc(64);
        a.alloc(65);
    }

    /// Capacity is enforced by real branches, not `debug_assert!`, so this
    /// test is meaningful in release builds too — no reservation can ever
    /// mint an address the 48-bit trace format would alias.
    #[test]
    fn capacity_errors_are_typed_and_release_safe() {
        // Out-of-range partition index: typed error, no panic.
        let max = (DATA_LIMIT / PARTITION_STRIDE) as usize - 1;
        assert!(AddressSpace::partition(max).is_ok());
        let err = AddressSpace::partition(max + 1)
            .map(|_| ())
            .expect_err("window past DATA_LIMIT must be refused");
        assert_eq!(
            err,
            AddressSpaceError::PartitionOutOfRange {
                index: max + 1,
                max
            }
        );

        // Window overrun: typed error carrying the shortfall.
        let p = AddressSpace::partition(1).expect("window 1 fits");
        let err = p
            .try_alloc(PARTITION_STRIDE)
            .expect_err("a full-stride allocation cannot fit after the window base");
        assert!(matches!(err, AddressSpaceError::Capacity { .. }));

        // Everything successfully reserved stays inside the window —
        // and therefore inside 48 bits.
        let mut arena = p.reserve_arena(1 << 20);
        let a = arena.alloc(4096);
        assert!(a >= DATA_BASE + PARTITION_STRIDE);
        assert!(a + 4096 < DATA_BASE + 2 * PARTITION_STRIDE);
        assert!(a < (1 << 48), "no partitioned address may exceed 48 bits");
    }

    /// Partition window 0 allocates byte-identically to the process-wide
    /// space — the anchor that keeps 1-instance deployments equal to the
    /// classic single-chip capture.
    #[test]
    fn partition_zero_matches_process_space() {
        let shared = AddressSpace::new();
        let p0 = AddressSpace::partition(0).expect("window 0 always fits");
        for bytes in [100u64, 1, 4096, 64] {
            assert_eq!(shared.alloc(bytes), p0.alloc(bytes));
        }
        assert_eq!(shared.allocated(), p0.allocated());
    }

    #[test]
    fn partition_windows_are_disjoint() {
        let a = AddressSpace::partition(2).unwrap();
        let b = AddressSpace::partition(3).unwrap();
        let last_a = (0..100).map(|_| a.alloc(1 << 20)).last().unwrap();
        let first_b = b.alloc(64);
        assert!(last_a + (1 << 20) <= first_b, "windows must never overlap");
    }

    #[test]
    fn concurrent_allocs_do_not_overlap() {
        use std::sync::Arc;
        let s = Arc::new(AddressSpace::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| s.alloc(96)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(
                w[0] + 96 <= w[1],
                "overlapping allocations {} {}",
                w[0],
                w[1]
            );
        }
    }
}
