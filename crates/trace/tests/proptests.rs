//! Property tests for the trace substrate: packing is lossless, the
//! tracer conserves instruction counts, and the address space never
//! produces overlapping allocations.

use dbcmp_trace::{AddressSpace, CodeRegions, Event, Segment, Tracer, SEGMENT_EVENTS};
use proptest::prelude::*;

/// Arbitrary decoded events within encodable ranges.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u16..1024, any::<u32>()).prop_map(|(region, instrs)| Event::Exec { region, instrs }),
        (0u64..(1 << 48), 1u16..4096, any::<bool>()).prop_map(|(addr, size, dep)| Event::Load {
            addr,
            size,
            dep
        }),
        (0u64..(1 << 48), 1u16..4096).prop_map(|(addr, size)| Event::Store { addr, size }),
        Just(Event::Fence),
        Just(Event::UnitEnd),
        Just(Event::Block),
        Just(Event::Wake),
    ]
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name; this bounds the case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack → decode is the identity for every representable event.
    #[test]
    fn event_roundtrip(e in arb_event()) {
        prop_assert_eq!(e.pack().decode(), e);
    }

    /// The tracer's aggregate instruction count equals the sum over its
    /// decoded events, regardless of coalescing and splitting.
    #[test]
    fn tracer_conserves_instructions(
        ops in prop::collection::vec((0u8..4, 0u16..8, 1u32..5000, 0u64..(1<<30)), 0..200)
    ) {
        let mut t = Tracer::recording();
        let mut expect_instrs: u64 = 0;
        let mut expect_units: u64 = 0;
        for (op, region, n, addr) in ops {
            match op {
                0 => {
                    t.exec(region, n);
                    expect_instrs += n as u64;
                }
                1 => {
                    t.load(addr, n);
                    expect_instrs += (n.max(1)).div_ceil(4095) as u64;
                }
                2 => {
                    t.store(addr, n);
                    expect_instrs += (n.max(1)).div_ceil(4095) as u64;
                }
                _ => {
                    t.unit_end();
                    expect_units += 1;
                }
            }
        }
        let tr = t.finish();
        prop_assert_eq!(tr.instrs(), expect_instrs);
        prop_assert_eq!(tr.units(), expect_units);
        let decoded: u64 = tr.iter().map(|e| e.instr_count()).sum();
        prop_assert_eq!(decoded, expect_instrs);
    }

    /// The columnar segment codec round-trips arbitrary event sequences
    /// losslessly — encode → decode is the identity on the decoded stream,
    /// and re-packing reproduces the flat wire words.
    #[test]
    fn segment_roundtrip(events in prop::collection::vec(arb_event(), 0..600)) {
        let packed: Vec<_> = events.iter().map(|e| e.pack()).collect();
        let seg = Segment::encode(&packed);
        prop_assert_eq!(seg.len(), events.len());
        let decoded = seg.decode();
        prop_assert_eq!(&decoded, &events);
        let repacked: Vec<_> = decoded.iter().map(|e| e.pack()).collect();
        prop_assert_eq!(repacked, packed, "re-packed words must be byte-identical");
    }

    /// A tracer-produced segmented stream decodes to the same event
    /// sequence as feeding the ops through the flat packing directly,
    /// for any op mix and any trace length relative to the block size —
    /// and the segments it emitted are, byte for byte, what
    /// `Segment::encode` makes of those packed words: the tracer's
    /// direct column writes and the packed-word path are one encoder.
    #[test]
    fn tracer_stream_matches_flat_packing(
        ops in prop::collection::vec((0u8..10, 0u16..8, 1u32..5000, 0u64..(1<<30)), 0..300),
        to_boundary in 0usize..3,
    ) {
        let mut t = Tracer::recording();
        for &(op, region, n, addr) in &ops {
            match op {
                0 => t.exec(region, n),
                1 => t.load(addr, n),
                2 => t.load_dep(addr, n),
                3 => t.store(addr, n),
                4 => t.fence(),
                5 => t.unit_end(),
                6 => t.block(),
                7 => t.wake(),
                8 => t.remote_send(n),
                _ => t.remote_recv(n),
            }
        }
        // Optionally pad across a segment boundary so some cases seal
        // multiple blocks.
        for i in 0..(to_boundary * SEGMENT_EVENTS) {
            t.load((i as u64) * 64, 8);
        }
        let tr = t.finish();
        let via_segments: Vec<Event> = tr.iter().collect();
        prop_assert_eq!(via_segments.len(), tr.len());
        let repacked: Vec<_> = via_segments.iter().map(|e| e.pack()).collect();
        prop_assert_eq!(&repacked, &tr.packed_events());
        let n_events: usize = tr.segments().iter().map(|s| s.len()).sum();
        prop_assert_eq!(n_events, tr.len());
        let reencoded: Vec<Segment> = repacked.chunks(SEGMENT_EVENTS).map(Segment::encode).collect();
        prop_assert_eq!(tr.segments(), &reencoded[..]);
    }

    /// Bump allocations never overlap and respect line alignment.
    #[test]
    fn address_space_disjoint(sizes in prop::collection::vec(1u64..10_000, 1..100)) {
        let space = AddressSpace::new();
        let mut ranges: Vec<(u64, u64)> = sizes
            .iter()
            .map(|&s| (space.alloc(s), s))
            .collect();
        ranges.sort_by_key(|&(base, _)| base);
        for w in ranges.windows(2) {
            let (a, alen) = w[0];
            let (b, _) = w[1];
            prop_assert!(a % 64 == 0);
            prop_assert!(a + alen <= b, "allocations must not overlap");
        }
    }

    /// Region registration keeps regions disjoint with guard gaps for any
    /// footprint mix.
    #[test]
    fn code_regions_disjoint(fps in prop::collection::vec(1u64..(1<<20), 1..50)) {
        let mut r = CodeRegions::new();
        for &fp in &fps {
            r.add("x", fp, 1.0);
        }
        let mut spans: Vec<(u64, u64)> = r.iter().map(|c| (c.base, c.footprint)).collect();
        spans.sort_by_key(|&(b, _)| b);
        for w in spans.windows(2) {
            prop_assert!(w[0].0 + w[0].1 < w[1].0, "regions must have guard gaps");
        }
    }
}
