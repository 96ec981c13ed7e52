//! Camp shootout: fat vs lean cores across the paper's four workload
//! quadrants (the Fig. 4/5 story in one binary).
//!
//! ```sh
//! cargo run --release --example camp_shootout
//! ```

use dbcmp::core::figures::{fig45_quadrants, fig4_claims};
use dbcmp::core::report::{claims_block, pct, table};
use dbcmp::core::taxonomy::{Camp, Saturation, WorkloadKind};
use dbcmp::core::workload::FigScale;

fn main() {
    let scale = FigScale::quick();
    println!("Running all eight camp x workload x saturation combinations...\n");
    let quadrants = fig45_quadrants(&scale);

    let mut rows = Vec::new();
    for workload in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        for camp in [Camp::Fat, Camp::Lean] {
            for saturation in [Saturation::Saturated, Saturation::Unsaturated] {
                let result = quadrants.get(&(workload, saturation), &camp);
                let metric = match saturation {
                    Saturation::Saturated => format!("{:.3} UIPC", result.uipc()),
                    Saturation::Unsaturated => {
                        format!("{:.0} cyc/unit", result.avg_unit_cycles.unwrap_or(f64::NAN))
                    }
                };
                rows.push(vec![
                    camp.label().to_string(),
                    workload.label().to_string(),
                    saturation.label().to_string(),
                    metric,
                    pct(result.breakdown.compute_fraction()),
                    pct(result.breakdown.data_stall_fraction()),
                ]);
            }
        }
    }
    print!(
        "{}",
        table(
            &[
                "Camp",
                "Workload",
                "Saturation",
                "Metric",
                "Compute",
                "D-stalls"
            ],
            &rows
        )
    );

    // Fig. 4 normalizes LC to FC; its claims print the ratios against the
    // paper's bounds.
    println!("\nLC normalized to FC (paper Fig. 4):");
    print!("{}", claims_block(&fig4_claims(&quadrants)));
}
