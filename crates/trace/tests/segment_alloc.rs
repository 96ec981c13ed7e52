//! A sealed segment costs the heap exactly its encoded columns: sealing
//! makes one allocation of `encoded_bytes() - 4` bytes (the 4 being the
//! length header, which lives in the `Segment` itself), so a retained
//! trace's resident memory follows its encoded size, with no capacity
//! slack per column, and the compressor's scratch is reused. Reading a
//! trace back allocates one token buffer for all of its segments.
//!
//! This test binary counts the allocations of its own threads with a
//! wrapping global allocator, so it is a file of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbcmp_trace::{Segment, TraceSink, Tracer, SEGMENT_EVENTS};

thread_local! {
    /// Allocations and reallocations made by this thread, and the size
    /// of the latest one.
    static ALLOCS: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|a| a.set((a.get().0 + 1, size)));
}

/// [`System`], counting each allocation and reallocation in [`ALLOCS`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Checks, as each segment arrives, that the latest allocation was the
/// sealed segment's and that it was the only one since the previous
/// segment arrived (the first segment's encoder columns grow; after
/// that, byte-identical segments fit the capacity those columns keep).
#[derive(Debug)]
struct AllocProbe {
    kept: Vec<Segment>,
    allocs_at_last_emit: u64,
}

impl TraceSink for AllocProbe {
    fn emit(&mut self, seg: Segment) {
        let (allocs, latest) = ALLOCS.with(Cell::get);
        assert_eq!(
            latest,
            seg.encoded_bytes() - 4,
            "segment {}: the latest allocation must be its columns, exactly",
            self.kept.len()
        );
        if !self.kept.is_empty() {
            assert_eq!(
                allocs - self.allocs_at_last_emit,
                1,
                "segment {}: sealing must allocate once",
                self.kept.len()
            );
        }
        self.allocs_at_last_emit = allocs;
        self.kept.push(seg); // within the capacity reserved below
    }

    fn take_segments(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.kept)
    }
}

#[test]
fn each_sealed_segment_is_one_exact_allocation() {
    let probe = AllocProbe {
        kept: Vec::with_capacity(8),
        allocs_at_last_emit: 0,
    };
    let mut t = Tracer::streaming(Box::new(probe));
    // Exec and load alternate over 64 lines. A segment holds 2,048 of
    // each and 2,048 is a multiple of 64, so every full segment encodes
    // the same bytes; the final one is a shorter prefix of them.
    let n = SEGMENT_EVENTS as u64 * 2 + 100;
    for i in 0..n {
        t.exec(1, 3);
        t.load(0x8000 + (i % 64) * 64, 8);
    }
    let tr = t.finish();
    let segs = tr.segments();
    assert_eq!(segs.len(), 5);
    assert_eq!(segs[1], segs[2], "full segments encode alike");
    assert!(segs[4].len() < SEGMENT_EVENTS);
}

/// Reading a whole multi-segment trace through `ThreadTrace::iter`
/// allocates one token buffer, a full segment's column long, however
/// many segments it decompresses into it.
#[test]
fn iterating_a_trace_allocates_its_token_buffer_once() {
    let mut t = Tracer::recording();
    let n = SEGMENT_EVENTS as u64 * 4 + 100;
    for i in 0..n {
        t.exec(1, 3);
        t.load(0x8000 + (i % 64) * 64, 8);
    }
    let tr = t.finish();
    assert_eq!(tr.segments().len(), 9);
    let (before, _) = ALLOCS.with(Cell::get);
    let read = tr.iter().count();
    let (after, latest) = ALLOCS.with(Cell::get);
    assert_eq!(read, tr.len());
    assert_eq!(after - before, 1, "one token buffer for the whole trace");
    assert_eq!(latest, SEGMENT_EVENTS);
}
