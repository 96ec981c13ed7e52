//! What a capture records, pinned.
//!
//! One FNV-1a digest per capture over `packed_events()` of every thread
//! (with thread and bundle boundaries), at the quick scale
//! (`TpchScale::tiny()`, 16 clients × 1 query) and two seeds, for each
//! DSS entry point: the executor capture on both query mixes, the staged
//! capture under its three policies, and the distributed capture at one
//! and four instances. The constants were recorded at `a27293c` (PR 18),
//! the last commit whose scans materialised every tuple into a `Row` and
//! whose `Tracer` staged `PackedEvent`s: however little host work a
//! capture does, these are the event streams every golden and figure
//! was taken from.
//!
//! The OLTP capture (`TpccScale::tiny()`, 16 clients × 8 transactions) is
//! pinned the same way, recorded at `2703f58`, the last commit whose
//! `capture_oltp` ran its own client-after-client loop rather than the
//! interleaved scheduler with whole-session grants.

use dbcmp::staged::{capture_staged_dss, ExecPolicy};
use dbcmp::trace::TraceBundle;
use dbcmp::workloads::{
    build_tpcc, build_tpch, capture_dss, capture_dss_dist, capture_oltp, CaptureOptions,
    DistOptions, QueryKind, TpccScale, TpchScale,
};

const SEEDS: [u64; 2] = [1, 0xC1D7];
const CLIENTS: usize = 16;

fn digest(bundles: &[TraceBundle]) -> (usize, u64) {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| d = (d ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let mut events = 0;
    for b in bundles {
        word(b.threads.len() as u64);
        for t in &b.threads {
            word(t.len() as u64);
            events += t.len();
            t.packed_events().iter().for_each(|e| word(e.0));
        }
    }
    (events, d)
}

/// `capture(seed)` must record the pinned `(events, digest)` for each of
/// [`SEEDS`].
fn pinned(what: &str, want: [(usize, u64); 2], capture: impl Fn(u64) -> Vec<TraceBundle>) {
    let got = SEEDS.map(|seed| digest(&capture(seed)));
    assert_eq!(got, want, "{what}: got {got:#x?}");
}

#[test]
fn capture_oltp_records_the_pinned_mix() {
    let want = [
        (101909, 0x377a_2f6e_7bf8_6bb0),
        (110606, 0x0e03_7ade_f3bf_9346),
    ];
    pinned("capture_oltp", want, |seed| {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), seed);
        vec![capture_oltp(
            &mut db,
            &h,
            CaptureOptions::new(CLIENTS, 8, seed),
        )]
    });
}

fn executor(mix: &[QueryKind], seed: u64) -> Vec<TraceBundle> {
    let (mut db, h) = build_tpch(TpchScale::tiny(), seed);
    let opt = CaptureOptions::new(CLIENTS, 1, seed);
    vec![capture_dss(&mut db, &h, mix, opt)]
}

#[test]
fn capture_dss_records_the_pinned_scan_mix() {
    pinned(
        "capture_dss ALL",
        [
            (173459, 0x9dab_1075_c904_d3aa),
            (166285, 0xe036_e820_dfc1_f72c),
        ],
        |seed| executor(&QueryKind::ALL, seed),
    );
}

#[test]
fn capture_dss_records_the_pinned_join_mix() {
    pinned(
        "capture_dss JOINS",
        [
            (554062, 0x6122_b6f7_b993_1d73),
            (525643, 0x522a_6405_2603_0afa),
        ],
        |seed| executor(&QueryKind::JOINS, seed),
    );
}

/// Q1/Q6 as `bench_pipeline` and `fig9_staged` stage them, then Q3/Q5
/// (the join DSS mix) in the same capture so the join stages are pinned too.
fn staged(policy: ExecPolicy, seed: u64) -> Vec<TraceBundle> {
    [
        [QueryKind::Q1, QueryKind::Q6],
        [QueryKind::Q3, QueryKind::Q5],
    ]
    .into_iter()
    .map(|kinds| {
        let (mut db, h) = build_tpch(TpchScale::tiny(), seed);
        capture_staged_dss(&mut db, &h, &kinds, policy, CLIENTS, seed)
            .expect("Q1/Q6/Q3/Q5 are staged-pipelineable")
    })
    .collect()
}

#[test]
fn capture_staged_dss_records_the_pinned_volcano_stream() {
    pinned(
        "staged Volcano",
        [
            (606380, 0x301a_2797_c7b8_487d),
            (577868, 0x0421_879b_c367_fe47),
        ],
        |seed| staged(ExecPolicy::Volcano, seed),
    );
}

#[test]
fn capture_staged_dss_records_the_pinned_cohort_stream() {
    pinned(
        "staged Staged{256}",
        [
            (823320, 0x413c_bb61_5ac6_2da3),
            (783214, 0xa852_2adc_292d_3399),
        ],
        |seed| staged(ExecPolicy::Staged { batch: 256 }, seed),
    );
}

#[test]
fn capture_staged_dss_records_the_pinned_parallel_streams() {
    pinned(
        "staged StagedParallel{256,3}",
        [
            (654227, 0x779a_8e9f_abbe_7494),
            (623178, 0x12aa_b9d1_b42c_89c3),
        ],
        |seed| {
            let policy = ExecPolicy::StagedParallel {
                batch: 256,
                producers: 3,
            };
            staged(policy, seed)
        },
    );
}

fn dist(instances: usize, seed: u64) -> Vec<TraceBundle> {
    let opt = DistOptions {
        capture: CaptureOptions::new(CLIENTS, 1, seed),
        instances,
    };
    capture_dss_dist(TpchScale::tiny(), &QueryKind::JOINS, opt).bundles
}

#[test]
fn capture_dss_dist_records_the_pinned_single_instance() {
    pinned(
        "capture_dss_dist x1",
        [
            (554062, 0x6122_b6f7_b993_1d73),
            (525643, 0x522a_6405_2603_0afa),
        ],
        |seed| dist(1, seed),
    );
}

#[test]
fn capture_dss_dist_records_the_pinned_four_instances() {
    pinned(
        "capture_dss_dist x4",
        [
            (404153, 0x2139_58b8_3e67_5254),
            (392642, 0x2cce_7fae_f32b_595d),
        ],
        |seed| dist(4, seed),
    );
}
