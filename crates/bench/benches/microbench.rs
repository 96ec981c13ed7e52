//! Criterion microbenchmarks of the substrates: B+Tree, lock manager,
//! page operations, TPC-C transaction rate, query operators.
//!
//! These measure the *native* speed of the reproduction's own code (the
//! engine and simulator as Rust artifacts), complementing the fig*
//! binaries which regenerate the paper's simulated results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dbcmp_engine::btree::BTree;
use dbcmp_engine::exec::{run_to_vec, SeqScan};
use dbcmp_engine::lockmgr::{LockMgr, LockMode};
use dbcmp_engine::page::SlottedPage;
use dbcmp_trace::{AddressSpace, Tracer};
use dbcmp_workloads::tpcc::txns::{run_txn, TxnKind};
use dbcmp_workloads::tpcc::{build_tpcc, tpcc_rng, TpccScale};
use dbcmp_workloads::tpch::queries::q1;
use dbcmp_workloads::tpch::{build_tpch, tpch_rng, TpchScale};

fn bench_btree(c: &mut Criterion) {
    let space = AddressSpace::new();
    let mut regions = dbcmp_trace::CodeRegions::new();
    let er = dbcmp_engine::EngineRegions::register(&mut regions);
    let mut tree = BTree::new(&space);
    let mut tc = dbcmp_engine::TraceCtx::null(er);
    for k in 0..100_000u64 {
        tree.insert(k * 2, k, &space, &mut tc).unwrap();
    }
    c.bench_function("btree_get_100k", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(tree.get(k * 2, &mut tc))
        })
    });
    c.bench_function("btree_insert_grow", |b| {
        b.iter_batched(
            || BTree::new(&space),
            |mut t| {
                for k in 0..1000u64 {
                    t.insert(k, k, &space, &mut tc).unwrap();
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_lockmgr(c: &mut Criterion) {
    let space = AddressSpace::new();
    let mut regions = dbcmp_trace::CodeRegions::new();
    let er = dbcmp_engine::EngineRegions::register(&mut regions);
    let mut tc = dbcmp_engine::TraceCtx::null(er);
    c.bench_function("lock_acquire_release_1k", |b| {
        b.iter_batched(
            || LockMgr::new(&space, 4096),
            |mut lm| {
                for k in 0..1000u64 {
                    lm.acquire(1, k, LockMode::Exclusive, &mut tc).unwrap();
                }
                for k in 0..1000u64 {
                    lm.release(1, k, &mut tc);
                }
                lm
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_page(c: &mut Criterion) {
    let mut regions = dbcmp_trace::CodeRegions::new();
    let er = dbcmp_engine::EngineRegions::register(&mut regions);
    let mut tc = dbcmp_engine::TraceCtx::null(er);
    c.bench_function("page_fill_100B_tuples", |b| {
        b.iter_batched(
            || SlottedPage::new(0x10000),
            |mut p| {
                let tuple = [7u8; 100];
                while p.fits(100) {
                    p.insert(&tuple, &mut tc).unwrap();
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tpcc(c: &mut Criterion) {
    let (mut db, h) = build_tpcc(TpccScale::tiny(), 99);
    let mut rng = tpcc_rng(99, 0);
    let mut tc = db.null_ctx();
    c.bench_function("tpcc_new_order", |b| {
        b.iter(|| black_box(run_txn(&mut db, &h, TxnKind::NewOrder, 1, &mut rng, &mut tc).unwrap()))
    });
    c.bench_function("tpcc_payment", |b| {
        b.iter(|| black_box(run_txn(&mut db, &h, TxnKind::Payment, 1, &mut rng, &mut tc).unwrap()))
    });
}

fn bench_query(c: &mut Criterion) {
    let (db, h) = build_tpch(TpchScale::tiny(), 98);
    let mut rng = tpch_rng(98, 0);
    let mut tc = db.null_ctx();
    c.bench_function("tpch_q1_tiny", |b| {
        b.iter(|| {
            let mut plan = q1(&h, &mut rng);
            black_box(run_to_vec(plan.as_mut(), &db, &mut tc).unwrap())
        })
    });
    c.bench_function("seqscan_lineitem_tiny", |b| {
        b.iter(|| {
            let mut scan = SeqScan::new(h.lineitem);
            black_box(run_to_vec(&mut scan, &db, &mut tc).unwrap())
        })
    });
}

fn bench_event_tracer(c: &mut Criterion) {
    c.bench_function("tracer_record_1k_events", |b| {
        b.iter(|| {
            let mut t = Tracer::recording();
            for i in 0..1000u64 {
                t.exec(1, 20);
                t.load(i * 64, 8);
            }
            black_box(t.finish())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_btree, bench_lockmgr, bench_page, bench_tpcc, bench_query, bench_event_tracer
);
criterion_main!(benches);
