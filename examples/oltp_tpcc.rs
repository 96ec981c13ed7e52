//! OLTP demo: run the TPC-C-like mix natively on the engine — the lock
//! manager, WAL, B+Trees and undo machinery in action — then show what
//! its memory traces look like.
//!
//! No other crate calls `Database::table_id`, `Database::wal_stats` or
//! `TraceSummary::code_working_set`.
//!
//! ```sh
//! cargo run --release --example oltp_tpcc
//! ```

use dbcmp::trace::TraceSummary;
use dbcmp::workloads::tpcc::{build_tpcc, TpccScale};
use dbcmp::workloads::{
    capture_oltp, capture_oltp_interleaved, CaptureOptions, InterleaveOptions, InterleavedCapture,
};

fn main() {
    let scale = TpccScale::default();
    println!(
        "Building TPC-C database: {} warehouses, {} items...",
        scale.warehouses, scale.items
    );
    let (db, h) = build_tpcc(scale, 42);
    for t in [
        "warehouse",
        "district",
        "customer",
        "stock",
        "orders",
        "order_line",
    ] {
        let mut tc = db.null_ctx();
        let id = db.table_id(t, &mut tc).unwrap();
        println!("  {:12} {:>8} rows", t, db.table(id).n_rows());
    }

    println!("\nRunning 4 interleaved clients x 125 transactions of the spec mix (45/43/4/4/4)...");
    let InterleavedCapture {
        bundle,
        stats,
        mut db,
        ..
    } = capture_oltp_interleaved(db, &h, InterleaveOptions::new(4, 125, 42));
    println!(
        "  {} committed, {} rolled back, {} lock waits, {} deadlock victims",
        stats.commits, stats.rollbacks, stats.lock_waits, stats.deadlock_aborts
    );
    let (wal_records, wal_bytes) = db.wal_stats();
    println!("  WAL: {wal_records} records, {wal_bytes} bytes");
    println!(
        "  instructions charged: {:.1}M",
        bundle.total_instrs() as f64 / 1e6
    );

    println!("\nCapturing traces for 4 client terminals (5 txns each)...");
    let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(4, 5, 42));
    let summary = TraceSummary::compute(&bundle.regions, &bundle.threads);
    println!("  events: {}", bundle.total_events());
    println!(
        "  dependent-load fraction: {:.1}% (pointer chases)",
        summary.dep_load_fraction() * 100.0
    );
    println!(
        "  data working set: {:.2} MB",
        summary.data_working_set() as f64 / (1 << 20) as f64
    );
    println!(
        "  code working set: {} KB (vs 64 KB L1-I)",
        summary.code_working_set() >> 10
    );
    println!("\nThe OLTP instruction path far exceeds the L1-I — the paper's §4");
    println!("instruction-footprint observation, reproduced from a real engine.");
}
