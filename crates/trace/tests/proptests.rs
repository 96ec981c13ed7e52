//! Property tests for the trace substrate: distinct events pack to
//! distinct digest words, the segment codec is lossless, its token
//! decompressor is total on hostile input, the tracer's tally matches
//! its events, and the address space never produces overlapping
//! allocations.
//!
//! The suite runs the default 64 cases per property; CI reruns it with
//! `PROPTEST_CASES=1024`.

use dbcmp_trace::lz::{self, Compressor};
use dbcmp_trace::{AddressSpace, CodeRegions, Event, EventCounts, Segment, Tracer, SEGMENT_EVENTS};
use proptest::prelude::*;
use std::collections::BTreeMap;

const TOP: u64 = (1 << 48) - 1;

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
        any::<u32>().prop_map(|bytes| Event::RemoteSend { bytes }),
        any::<u32>().prop_map(|bytes| Event::RemoteRecv { bytes }),
    ]
}

/// Every event that differs from `e` in one field, by one bit of it or
/// by its kind: the events a digest word could most easily confuse.
fn neighbours(e: Event) -> Vec<Event> {
    let bits = |width: u32| (0..width).map(|k| 1u64 << k);
    let markers = [Event::Fence, Event::UnitEnd, Event::Block, Event::Wake];
    let mut out: Vec<Event> = markers.into_iter().filter(|&m| m != e).collect();
    match e {
        Event::Exec { region, instrs } => {
            out.extend(bits(10).map(|b| Event::Exec {
                region: region ^ b as u16,
                instrs,
            }));
            out.extend(bits(32).map(|b| Event::Exec {
                region,
                instrs: instrs ^ b as u32,
            }));
        }
        Event::Load { addr, size, .. } | Event::Store { addr, size } => {
            let dep = matches!(e, Event::Load { dep: true, .. });
            let access = |addr, size| match e {
                Event::Load { .. } => Event::Load { addr, size, dep },
                _ => Event::Store { addr, size },
            };
            out.extend(bits(48).map(|b| access(addr ^ b, size)));
            out.extend(bits(12).map(|b| access(addr, size ^ b as u16)));
            out.extend([
                Event::Load {
                    addr,
                    size,
                    dep: !dep,
                },
                Event::Load { addr, size, dep },
                Event::Store { addr, size },
            ]);
            out.retain(|&n| n != e);
        }
        Event::RemoteSend { bytes } | Event::RemoteRecv { bytes } => {
            let remote = |bytes| match e {
                Event::RemoteSend { .. } => Event::RemoteSend { bytes },
                _ => Event::RemoteRecv { bytes },
            };
            out.extend(bits(32).map(|b| remote(bytes ^ b as u32)));
            out.extend([Event::RemoteSend { bytes }, Event::RemoteRecv { bytes }]);
            out.retain(|&n| n != e);
        }
        Event::Fence | Event::UnitEnd | Event::Block | Event::Wake => {
            out.extend([
                Event::RemoteSend { bytes: 0 },
                Event::RemoteRecv { bytes: 0 },
            ]);
        }
    }
    out
}

/// One event of a block drawn to overflow a segment's token tables,
/// before its address is resolved against the previous access:
/// `(class, address mode, v, w)`.
type Draw = (u8, u8, u64, u32);

/// Resolve `draws` into events. Exec pairs come from a pool of 200 (more
/// than a segment's exec table holds) or are anything; sizes come from a
/// pool of 48 (more than its size table holds), are 4095, or are
/// anything; an address is 0, 2⁴⁸−1, near the previous access, the
/// previous address of its kind and size plus the stride it took then
/// (a stride token's address, while the size table holds that size),
/// or anywhere, so deltas reach both 48-bit extremes and stride tokens
/// mix with escapes, flagged deltas and full tables.
fn resolve(draws: &[Draw]) -> Vec<Event> {
    let mut prev = 0u64;
    // (kind, size) → (previous address, the stride it took).
    let mut own = BTreeMap::new();
    draws
        .iter()
        .map(|&(class, mode, v, w)| {
            let size = match w % 4 {
                0 => 4095,
                1 => 1 + (w / 4 % 4095) as u16,
                _ => 1 + (w / 4 % 48) as u16 * 85,
            };
            let token = (class, size);
            let (base, stride) = own.get(&token).copied().unwrap_or((prev, 0));
            let addr = match mode {
                0 => 0,
                1 => TOP,
                2 => (prev + v % 4096).min(TOP),
                3 => base.wrapping_add(stride) & TOP,
                _ => v & TOP,
            };
            let access = (2..=4).contains(&class);
            if access {
                own.insert(token, (addr, addr.wrapping_sub(base)));
                prev = addr;
            }
            let pool = (v % 200) as u32;
            match class {
                0 => Event::Exec {
                    region: (pool % 25) as u16 * 40,
                    instrs: pool * 1009,
                },
                1 => Event::Exec {
                    region: (v % 1024) as u16,
                    instrs: w,
                },
                2 | 3 => Event::Load {
                    addr,
                    size,
                    dep: class == 3,
                },
                4 => Event::Store { addr, size },
                5 => Event::RemoteSend { bytes: w },
                6 => Event::RemoteRecv { bytes: w },
                _ => [Event::Fence, Event::UnitEnd, Event::Block, Event::Wake][v as usize % 4],
            }
        })
        .collect()
}

/// One tracer call: `(op, region, n, addr)`.
type Op = (u8, u16, u32, u64);

/// Make `op` on `t`.
fn apply(t: &mut Tracer, (op, region, n, addr): Op) {
    match op {
        0 => t.exec(region, n),
        1 => t.exec(region, u32::MAX),
        2 => t.load(addr, n),
        3 => t.load_dep(addr, n),
        4 => t.store(addr, n),
        5 => t.fence(),
        6 => t.unit_end(),
        7 => t.block(),
        8 => t.wake(),
        9 => t.remote_send(n),
        _ => t.remote_recv(n),
    }
}

/// The events a recording tracer must make of `ops`: consecutive exec
/// calls on one region coalesce into one run (a zero-instruction call is
/// dropped and ends nothing), a run past `u32::MAX` instructions splits
/// into `u32::MAX`-instruction events, and an access of more than 4095
/// bytes splits into 4095-byte pieces.
fn model(ops: &[Op]) -> Vec<Event> {
    let mut out = Vec::new();
    let mut run: Option<(u16, u64)> = None;
    let flush = |out: &mut Vec<Event>, run: &mut Option<(u16, u64)>| {
        if let Some((region, mut instrs)) = run.take() {
            while instrs > 0 {
                let chunk = instrs.min(u32::MAX as u64);
                out.push(Event::Exec {
                    region,
                    instrs: chunk as u32,
                });
                instrs -= chunk;
            }
        }
    };
    for &(op, region, n, addr) in ops {
        let n = if op == 1 { u32::MAX } else { n };
        if op <= 1 {
            match &mut run {
                _ if n == 0 => {}
                Some((r, instrs)) if *r == region => *instrs += n as u64,
                _ => {
                    flush(&mut out, &mut run);
                    run = Some((region, n as u64));
                }
            }
            continue;
        }
        flush(&mut out, &mut run);
        let (mut addr, mut size) = (addr, n);
        while op <= 4 && size > 4095 {
            out.push(access_event(op, addr, 4095));
            size -= 4095;
            addr += 4095;
        }
        out.push(match op {
            2..=4 => access_event(op, addr, size.max(1) as u16),
            5 => Event::Fence,
            6 => Event::UnitEnd,
            7 => Event::Block,
            8 => Event::Wake,
            9 => Event::RemoteSend { bytes: n },
            _ => Event::RemoteRecv { bytes: n },
        });
    }
    flush(&mut out, &mut run);
    out
}

fn access_event(op: u8, addr: u64, size: u16) -> Event {
    match op {
        2 | 3 => Event::Load {
            addr,
            size,
            dep: op == 3,
        },
        _ => Event::Store { addr, size },
    }
}

/// The tally of `events`, one event at a time.
fn fold(events: impl Iterator<Item = Event>) -> EventCounts {
    let mut c = EventCounts::default();
    for e in events {
        c += EventCounts::of(&e);
    }
    c
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0u16..6, 0u32..9000, 0u64..(1 << 30))
}

/// A column shaped like a token column: short bodies of control flow,
/// each `(body, times)` of `order` repeating a body of `bodies`, cut at
/// a full segment's length.
fn column(bodies: &[Vec<u8>], order: &[(usize, usize)]) -> Vec<u8> {
    let mut col = Vec::new();
    for &(body, times) in order {
        for _ in 0..times {
            col.extend_from_slice(&bodies[body % bodies.len()]);
        }
    }
    col.truncate(SEGMENT_EVENTS);
    col
}

proptest! {
    // Deterministic: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name (or `PROPTEST_SEED`).

    /// Distinct events pack to distinct words: an event and each event
    /// one field away from it, and two arbitrary events.
    #[test]
    fn distinct_events_pack_to_distinct_words(e in arb_event(), other in arb_event()) {
        for n in neighbours(e) {
            prop_assert_ne!(n.pack(), e.pack(), "{:?} and {:?}", n, e);
        }
        prop_assert_eq!(other.pack() == e.pack(), other == e);
    }

    /// Every op mix leaves a tally that a fold over the recorded events
    /// reproduces field by field, instructions included whatever the
    /// coalescing and splitting, and a null tracer tallies the same ops
    /// the same without recording them.
    #[test]
    fn tracer_conserves_instructions(ops in prop::collection::vec(arb_op(), 0..200)) {
        let (mut rec, mut null) = (Tracer::recording(), Tracer::null());
        for &op in &ops {
            apply(&mut rec, op);
            apply(&mut null, op);
        }
        let (tr, nt) = (rec.finish(), null.finish());
        prop_assert_eq!(tr.counts(), fold(tr.iter()));
        prop_assert_eq!(nt.counts(), tr.counts());
        prop_assert!(nt.is_empty());
    }

    /// The columnar segment codec round-trips arbitrary event sequences
    /// losslessly, its token column compressed and decompressed: a
    /// segment reads back exactly the events it encoded.
    #[test]
    fn segment_roundtrip(events in prop::collection::vec(arb_event(), 0..600)) {
        let seg = Segment::encode(&events);
        prop_assert_eq!(seg.len(), events.len());
        prop_assert_eq!(seg.events().collect::<Vec<_>>(), events);
    }

    /// A tracer-produced segmented stream reads back as many events as
    /// it counted, for any op mix and any trace length relative to the
    /// block size, and the segments it emitted are, byte for byte, what
    /// `Segment::encode` makes of those events: the tracer's typed
    /// appends and the one-event path are one encoder.
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
        let n_events: usize = tr.segments().iter().map(|s| s.len()).sum();
        prop_assert_eq!(n_events, tr.len());
        let reencoded: Vec<Segment> = via_segments.chunks(SEGMENT_EVENTS).map(Segment::encode).collect();
        prop_assert_eq!(tr.segments(), &reencoded[..]);
    }

    /// The token column's decompressor is total. A compressed column
    /// decodes back to itself and reads exactly its bytes; cut short, it
    /// decodes to a prefix of itself; with one bit flipped, or replaced
    /// by random bytes, it decodes without a panic to at most the length
    /// asked for, reading nothing past its input. Real segments, whose
    /// token columns go through the same stage, round-trip in
    /// `segment_roundtrip` and `segment_roundtrip_past_full_tables`.
    #[test]
    fn token_decompressor_is_total(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 1..6),
        order in prop::collection::vec((0usize..6, 1usize..30), 0..60),
        cut in any::<usize>(),
        (flip_at, flip_bit) in (any::<usize>(), 0u32..8),
        noise in prop::collection::vec(any::<u8>(), 0..300),
        len in 0usize..512,
    ) {
        let col = column(&bodies, &order);
        let mut packed = Vec::new();
        Compressor::default().compress(&col, &mut packed);
        let mut out = Vec::new();
        prop_assert_eq!(lz::decompress(&packed, col.len(), &mut out), packed.len());
        prop_assert_eq!(&out, &col);

        let cut = cut % (packed.len() + 1);
        prop_assert!(lz::decompress(&packed[..cut], col.len(), &mut out) <= cut);
        prop_assert!(col.starts_with(&out), "a cut column decodes to a prefix");

        if !packed.is_empty() {
            let mut flipped = packed.clone();
            flipped[flip_at % packed.len()] ^= 1 << flip_bit;
            prop_assert!(lz::decompress(&flipped, col.len(), &mut out) <= flipped.len());
            prop_assert!(out.len() <= col.len());
            prop_assert!(lz::decompress(&flipped, len, &mut out) <= flipped.len());
            prop_assert!(out.len() <= len);
        }

        prop_assert!(lz::decompress(&noise, len, &mut out) <= noise.len());
        prop_assert!(out.len() <= len);
    }

    /// Blocks of 1, 4095 and 4096 events that overflow both token
    /// tables, so the escape path runs after a table fills, with
    /// 4095-byte accesses, deltas between 0 and 2⁴⁸−1 and accesses that
    /// repeat their token's stride among them, round-trip.
    #[test]
    fn segment_roundtrip_past_full_tables(
        len in prop_oneof![Just(1usize), Just(4095), Just(SEGMENT_EVENTS)],
        draws in prop::collection::vec((0u8..9, 0u8..5, any::<u64>(), any::<u32>()), SEGMENT_EVENTS),
    ) {
        let events = resolve(&draws[..len]);
        let seg = Segment::encode(&events);
        prop_assert_eq!(seg.len(), len);
        prop_assert_eq!(seg.events().collect::<Vec<_>>(), events);
    }

    /// A tracer streams a trace of more than three segments, and an exec
    /// run that coalesces past `u32::MAX` instructions splits across the
    /// third seal: the segments read back as the model's events, and each
    /// is what `Segment::encode` makes of its block of them.
    #[test]
    fn tracer_streams_across_seals_and_splits_a_run_across_one(
        prefix in prop::collection::vec(arb_op(), 0..400),
        suffix in prop::collection::vec(arb_op(), 0..400),
        before_seal in 1usize..4,
    ) {
        // The prefix, then loads up to `before_seal` events short of the
        // third seal, then a run of 3 × u32::MAX + 7 instructions.
        let mut ops = prefix;
        ops.push((5, 0, 0, 0));
        let pad = 3 * SEGMENT_EVENTS - before_seal - model(&ops).len();
        ops.extend((0..pad as u64).map(|i| (2, 0, 8, i * 64)));
        ops.extend([(1, 3, 0, 0), (1, 3, 0, 0), (1, 3, 0, 0), (0, 3, 7, 0)]);
        ops.extend(suffix);
        let want = model(&ops);
        let mut t = Tracer::recording();
        for &op in &ops {
            apply(&mut t, op);
        }
        let tr = t.finish();
        let seal = 3 * SEGMENT_EVENTS;
        prop_assert!(matches!(want[seal - 1], Event::Exec { region: 3, instrs: u32::MAX }));
        prop_assert!(matches!(want[seal], Event::Exec { region: 3, .. }));
        prop_assert!(tr.segments().len() > 3);
        prop_assert_eq!(tr.iter().collect::<Vec<_>>(), want.clone());
        let blocks: Vec<Segment> = want.chunks(SEGMENT_EVENTS).map(Segment::encode).collect();
        prop_assert_eq!(tr.segments(), &blocks[..]);
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
