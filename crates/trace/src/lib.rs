//! Memory-trace infrastructure shared by the database engine and the
//! CMP simulator.
//!
//! The reproduction methodology is *trace-driven*: the relational engine
//! executes workloads natively and
//! records, per client thread, a compact stream of [`Event`]s — instruction
//! execution runs through named [code regions](CodeRegions), data loads and
//! stores against a [simulated address space](AddressSpace), and ordering
//! markers. The simulator replays these streams on modeled cores.
//!
//! Three properties of this representation carry the paper's results:
//!
//! * **Real addresses.** Loads/stores carry addresses handed out by a
//!   [`AddressSpace`] bump allocator, so data structures that are shared in
//!   the engine (lock-table buckets, B+Tree roots, hot rows) are shared in
//!   the traces — which is what produces coherence traffic on SMPs and
//!   shared-L2 hits on CMPs (paper §5.2).
//! * **Dependence marking.** [`Event::Load`] carries a `dep` flag set by the
//!   engine on pointer-chasing loads (B+Tree descents, hash-chain walks).
//!   The out-of-order core model cannot overlap past a dependent load; this
//!   is what gives OLTP its low memory-level parallelism relative to DSS
//!   scans (paper §2.1, §4).
//! * **Instruction footprints.** [`Event::Exec`] names a [`CodeRegion`] with
//!   a byte footprint; the simulator walks a per-thread cursor through the
//!   region so that the L1-I working set of a workload equals the sum of its
//!   active regions (large for OLTP, small for DSS scan loops — paper §4).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
#![warn(missing_docs)]

mod addr;
mod event;
mod fnv;
pub mod lz;
pub mod region;
mod segment;
mod summary;
mod tracer;

pub use addr::{AddressSpace, AddressSpaceError, ScratchArena, SimAddr};
pub use event::{Event, PackedEvent, CACHE_LINE};
pub use fnv::Fnv;
pub use region::{CodeRegion, CodeRegions, RegionId};
pub use segment::{CountingSink, Segment, SegmentBuffer, SegmentEvents, TraceSink, SEGMENT_EVENTS};
pub use summary::TraceSummary;
pub use tracer::{EventCounts, EventIter, ThreadTrace, TraceBundle, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_capture_roundtrip() {
        let space = AddressSpace::new();
        let a = space.alloc(4096);
        let mut regions = CodeRegions::new();
        let scan = regions.add("scan", 8 * 1024, 1.0);

        let mut t = Tracer::recording();
        t.exec(scan, 100);
        t.load(a, 64);
        t.load_dep(a + 64, 8);
        t.store(a + 128, 16);
        t.fence();
        t.unit_end();
        let trace = t.finish();

        let evs: Vec<Event> = trace.iter().collect();
        assert_eq!(
            evs,
            vec![
                Event::Exec {
                    region: scan,
                    instrs: 100
                },
                Event::Load {
                    addr: a,
                    size: 64,
                    dep: false
                },
                Event::Load {
                    addr: a + 64,
                    size: 8,
                    dep: true
                },
                Event::Store {
                    addr: a + 128,
                    size: 16
                },
                Event::Fence,
                Event::UnitEnd,
            ]
        );
        assert_eq!(trace.instrs(), 103); // 100 exec + 2 loads + 1 store
        assert_eq!(trace.counts().units, 1);
    }
}
