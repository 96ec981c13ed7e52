//! What a populate leaves behind, pinned.
//!
//! `Database::state_digest` covers every heap page image and slot
//! directory, every index node, the WAL and backend counters, the bytes
//! allocated, the live lock entries and the next transaction id. The
//! constants below were recorded at the last commit whose `build_*`
//! loaded the whole database as one ordinary transaction (PR 17,
//! `25c4d63`): however rows get into the engine, these are the databases
//! every capture, golden and figure was taken from.

use std::sync::Arc;

use dbcmp_engine::Database;
use dbcmp_trace::AddressSpace;
use dbcmp_workloads::tpcc::build_tpcc_range;
use dbcmp_workloads::{build_tpcc, build_tpch, build_tpch_range, TpccScale, TpchScale};

const SEEDS: [u64; 2] = [1, 0xC1D7];

fn window(index: usize) -> Arc<AddressSpace> {
    Arc::new(AddressSpace::partition(index).expect("partition window"))
}

/// `build(seed)` must leave the database pinned for each of [`SEEDS`].
fn pinned(want: [u64; 2], build: impl Fn(u64) -> Database) {
    for (seed, want) in SEEDS.into_iter().zip(want) {
        let got = build(seed).state_digest();
        assert_eq!(got, want, "seed {seed:#x}: got {got:#018x}");
    }
}

#[test]
fn build_tpcc_leaves_the_pinned_database() {
    pinned([0xd202_74ec_34cc_49e0, 0x332c_e70e_9eb1_fa65], |seed| {
        build_tpcc(TpccScale::tiny(), seed).0
    });
}

/// The second half of a four-warehouse database, in partition window 1.
#[test]
fn build_tpcc_range_leaves_the_pinned_partition() {
    let scale = TpccScale {
        warehouses: 4,
        ..TpccScale::tiny()
    };
    pinned([0x8a57_9941_1007_a2fc, 0x4b01_1a09_7cc8_c605], |seed| {
        let (db, h) = build_tpcc_range(scale, seed, 3, 4, window(1));
        assert_eq!(db.table(h.warehouse).n_rows(), 2);
        db
    });
}

#[test]
fn build_tpch_leaves_the_pinned_database() {
    pinned([0xb066_054a_b14c_97fe, 0x8d26_925b_d0ba_ebaf], |seed| {
        build_tpch(TpchScale::tiny(), seed).0
    });
}

/// Fragment 1 of 4, in partition window 1.
#[test]
fn build_tpch_range_leaves_the_pinned_fragment() {
    pinned([0xaf25_1f53_a233_41fc, 0x2aab_3d9b_5d38_8b8a], |seed| {
        let (db, h) = build_tpch_range(TpchScale::tiny(), seed, 1, 4, window(1));
        assert_eq!(db.table(h.customer).n_rows(), 25);
        db
    });
}
