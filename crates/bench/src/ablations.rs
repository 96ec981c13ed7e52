//! Ablations of the reproduction's own design choices (DESIGN.md §2):
//! each mechanism the simulator models is switched off or swept to show
//! it carries the effect attributed to it.
//!
//! 1. **Instruction stream buffers** (paper §4 credits them with keeping
//!    I-stalls small) — on vs off, OLTP.
//! 2. **Dependence marking** (the mechanism behind OLTP's poor ILP) —
//!    as-captured vs all-loads-independent, fat core.
//! 3. **MSHR count** (memory-level parallelism cap) — 1..8, DSS on FC.
//! 4. **L2 banking** (the Fig. 8 queueing mechanism) — 1 vs 8 banks at 8
//!    cores, OLTP.

use dbcmp_core::experiment::run_throughput;
use dbcmp_core::figures::spec_of;
use dbcmp_core::machines::{fc_cmp, L2Spec};
use dbcmp_core::report::{f2, f3, pct, table};
use dbcmp_core::taxonomy::WorkloadKind;
use dbcmp_core::workload::{CapturedWorkload, FigScale};
use dbcmp_sim::CoreKind;
use dbcmp_trace::{Event, TraceBundle, Tracer};

use crate::Page;

/// Rewrite a bundle with every load marked independent.
fn strip_dependences(bundle: &TraceBundle) -> TraceBundle {
    let threads = bundle
        .threads
        .iter()
        .map(|t| {
            let mut out = Tracer::recording();
            for e in t.iter() {
                match e {
                    Event::Exec { region, instrs } => out.exec(region, instrs),
                    Event::Load { addr, size, .. } => out.load(addr, size as u32),
                    Event::Store { addr, size } => out.store(addr, size as u32),
                    Event::Fence => out.fence(),
                    Event::UnitEnd => out.unit_end(),
                    Event::Block => out.block(),
                    Event::Wake => out.wake(),
                    Event::RemoteSend { bytes } => out.remote_send(bytes),
                    Event::RemoteRecv { bytes } => out.remote_recv(bytes),
                }
            }
            out.finish()
        })
        .collect();
    TraceBundle::new(bundle.regions.clone(), threads)
}

/// The four ablations at `scale`; tables only, no claims.
pub(crate) fn ablations(mut out: Page, scale: &FigScale) -> Page {
    let spec = spec_of(scale);

    let oltp = CapturedWorkload::saturated(WorkloadKind::Oltp, scale);
    let dss = CapturedWorkload::saturated(WorkloadKind::Dss, scale);

    // 1. Stream buffers.
    out.line("1. Instruction stream buffers (OLTP, FC CMP):");
    let on = fc_cmp(4, 8 << 20, L2Spec::Cacti);
    let mut off = on.clone();
    off.stream_buf = 0;
    let r_on = run_throughput(on, &oltp.bundle, spec);
    let r_off = run_throughput(off, &oltp.bundle, spec);
    let rows = vec![
        vec![
            "on (8 entries)".into(),
            f3(r_on.uipc()),
            pct(r_on.breakdown.instr_stall_fraction()),
        ],
        vec![
            "off".into(),
            f3(r_off.uipc()),
            pct(r_off.breakdown.instr_stall_fraction()),
        ],
    ];
    out.push(&table(&["Stream buffers", "UIPC", "I-stall share"], &rows));
    out.line(&format!(
        "   -> buffers recover {:.0}% throughput\n",
        (r_on.uipc() / r_off.uipc() - 1.0) * 100.0
    ));

    // 2. Dependence marking.
    out.line("2. Dependence marking (OLTP, FC CMP) — the ILP limiter:");
    // "As captured" is section 1's buffers-on run: same chip, bundle and spec.
    let r_dep = &r_on;
    let stripped = strip_dependences(&oltp.bundle);
    let r_indep = run_throughput(fc_cmp(4, 8 << 20, L2Spec::Cacti), &stripped, spec);
    let rows = vec![
        vec![
            "as captured (B+Tree chases serialize)".into(),
            f3(r_dep.uipc()),
        ],
        vec![
            "all loads independent (fantasy MLP)".into(),
            f3(r_indep.uipc()),
        ],
    ];
    out.push(&table(&["Dependences", "UIPC"], &rows));
    out.line(&format!(
        "   -> pointer chases cost the fat core {:.0}% throughput\n",
        (r_indep.uipc() / r_dep.uipc() - 1.0) * 100.0
    ));

    // 3. MSHR sweep.
    out.line("3. MSHR count (DSS, FC CMP) — memory-level parallelism cap:");
    let mut rows = Vec::new();
    for mshrs in [1usize, 2, 4, 8] {
        let mut cfg = fc_cmp(4, 8 << 20, L2Spec::Cacti);
        cfg.slots.fill(CoreKind::Fat {
            width: 4,
            rob: 128,
            mshrs,
        });
        let r = run_throughput(cfg, &dss.bundle, spec);
        rows.push(vec![
            mshrs.to_string(),
            f3(r.uipc()),
            pct(r.breakdown.data_stall_fraction()),
        ]);
    }
    out.push(&table(&["MSHRs", "UIPC", "D-stall share"], &rows));
    out.line("   -> more outstanding misses, more scan overlap\n");

    // 4. L2 banking at 8 cores.
    out.line("4. L2 banking (OLTP, 8-core FC CMP) — the Fig. 8 pressure knob:");
    let oltp_wide = CapturedWorkload::oltp(scale, 16, scale.oltp_units);
    let mut rows = Vec::new();
    for banks in [1usize, 2, 4, 8] {
        let mut cfg = fc_cmp(8, 16 << 20, L2Spec::Cacti);
        cfg.l2.banks = banks;
        let r = run_throughput(cfg, &oltp_wide.bundle, spec);
        rows.push(vec![
            banks.to_string(),
            f3(r.uipc()),
            f2(r.mem.l2_queue_cycles as f64 / r.mem.l2_queued_accesses.max(1) as f64),
        ]);
    }
    out.push(&table(
        &["L2 banks", "UIPC", "Avg queue delay (cyc)"],
        &rows,
    ));
    out.line("   -> fewer banks, more correlated-miss queueing");
    out
}
