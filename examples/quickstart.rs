//! Quickstart: build a 4-core fat-camp CMP, capture a saturated DSS
//! workload, simulate it, and print the execution-time breakdown.
//!
//! No other crate calls `report::breakdown_row` or
//! `report::breakdown_headers`, the one-row form of a figure's breakdown.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dbcmp::core::experiment::{run_throughput, RunSpec};
use dbcmp::core::machines::{fc_cmp, L2Spec};
use dbcmp::core::report::{breakdown_headers, breakdown_row, table};
use dbcmp::core::taxonomy::WorkloadKind;
use dbcmp::core::workload::{CapturedWorkload, FigScale};

fn main() {
    // 1. Capture: run TPC-H-like queries on the engine, recording traces.
    let scale = FigScale::quick();
    println!(
        "Capturing a saturated DSS workload ({} clients)...",
        scale.dss_clients
    );
    let workload = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    println!(
        "  {} threads, {:.1}M instructions, data working set {:.1} MB",
        workload.bundle.threads.len(),
        workload.bundle.total_instrs() as f64 / 1e6,
        workload.summary.data_working_set() as f64 / (1 << 20) as f64,
    );

    // 2. Simulate: a 4-core fat-camp CMP with a 4 MB shared L2 at the
    //    CACTI-model latency.
    let cfg = fc_cmp(4, 4 << 20, L2Spec::Cacti);
    println!("\nSimulating on {} ...", cfg.name);
    let res = run_throughput(
        cfg,
        &workload.bundle,
        RunSpec {
            warmup: scale.warmup,
            measure: scale.measure,
            max_cycles: u64::MAX,
        },
    );

    // 3. Report.
    println!(
        "\nThroughput: {:.3} user instructions / cycle (UIPC)",
        res.uipc()
    );
    println!("CPI: {:.3}\n", res.cpi());
    let mut headers = vec!["Metric"];
    headers.extend(breakdown_headers());
    let mut row = vec!["Share of time".to_string()];
    row.extend(breakdown_row(&res.breakdown));
    print!("{}", table(&headers, &[row]));
    println!(
        "\nData stalls: {:.1}% of execution time (the paper's headline bottleneck)",
        res.breakdown.data_stall_fraction() * 100.0
    );
}
