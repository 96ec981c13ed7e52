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
//!
//! The shared-nothing OLTP deployment (`TpccScale::tiny()` at four
//! warehouses, 16 clients × 8 transactions, 1/2/4 instances × 0/60 %
//! multi-partition transactions) is pinned at `cc5ab4e`, the last commit
//! whose two-phase NewOrder and Payment re-typed the transactions'
//! statements instead of running them.

use dbcmp::staged::{capture_staged_dss, ExecPolicy};
use dbcmp::trace::{Fnv, TraceBundle};
use dbcmp::workloads::{
    build_tpcc, build_tpch, capture_dss, capture_dss_dist, capture_oltp, capture_oltp_deployment,
    CaptureOptions, DeployOptions, DistOptions, QueryKind, TpccScale, TpchScale,
};

const SEEDS: [u64; 2] = [1, 0xC1D7];
const CLIENTS: usize = 16;

fn digest(bundles: &[TraceBundle]) -> (usize, u64) {
    let mut d = Fnv::new();
    let mut word = |w: u64| d.word(w);
    let mut events = 0;
    for b in bundles {
        word(b.threads.len() as u64);
        for t in &b.threads {
            word(t.len() as u64);
            events += t.len();
            t.packed_events().iter().for_each(|e| word(e.0));
        }
    }
    (events, d.finish())
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

/// Every `(partitions, multi_pct)` point of the grid, each with its two
/// seeds' `(events, digest)`.
#[test]
fn capture_oltp_deployment_records_the_pinned_grid() {
    let grid = [
        (
            (1, 0),
            [
                (99559, 0x8eb8_e177_5aa8_4e99),
                (103627, 0xe366_0f32_2558_5253),
            ],
        ),
        (
            (1, 60),
            [
                (99559, 0x8eb8_e177_5aa8_4e99),
                (103627, 0xe366_0f32_2558_5253),
            ],
        ),
        (
            (2, 0),
            [
                (92097, 0x66cc_f66f_c03e_91be),
                (92112, 0x1e67_5043_a0b0_f998),
            ],
        ),
        (
            (2, 60),
            [
                (92949, 0xa60b_fa78_5e3c_1588),
                (92838, 0x4b86_1290_5815_b3e7),
            ],
        ),
        (
            (4, 0),
            [
                (89853, 0x7c4a_5c97_4311_3138),
                (93646, 0xfdfd_696d_9dfe_6e66),
            ],
        ),
        (
            (4, 60),
            [
                (91041, 0x3c1e_9a7b_7f52_2432),
                (94782, 0x4b48_46d3_7216_ccb2),
            ],
        ),
    ];
    let scale = TpccScale {
        warehouses: 4,
        ..TpccScale::tiny()
    };
    for ((partitions, multi_pct), want) in grid {
        let what = format!("capture_oltp_deployment x{partitions} at {multi_pct}%");
        pinned(&what, want, |seed| {
            let opt = DeployOptions {
                capture: CaptureOptions::new(CLIENTS, 8, seed),
                partitions,
                multi_pct,
            };
            capture_oltp_deployment(scale, opt, 1)
                .expect("four windows fit")
                .bundles
        });
    }
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
