//! First-principles CPI reference model — the reproduction's analogue of
//! the paper's Fig. 3 validation.
//!
//! The paper validates FLEXUS against a real IBM OpenPower720 via hardware
//! counters, matching overall CPI within 5%. We have no 2006 hardware, so
//! the substitution (documented in DESIGN.md) is: validate the simulator's
//! *cycle accounting* against a closed-form CPI model computed from event
//! counts, trace statistics and machine parameters — with no reference to
//! the simulator's per-cycle attribution. Agreement shows the cycle loop
//! neither loses nor double-counts time; disagreement is bounded by the
//! effects the closed form ignores (bank queueing, burstiness, partial
//! overlap), which we surface in the report.
//!
//! Model (per instruction, for a fat core):
//!
//! ```text
//! CPI = 1/W                                    (issue-limited computation)
//!     + f_dep   · miss_cost                    (dependent misses: exposed)
//!     + f_indep · miss_cost / MLP              (independent: overlapped)
//!     + I-miss costs (stream-buffered)         (instruction stalls)
//!     + mispred/kinstr · depth / 1000          (other)
//! ```

use serde::{Deserialize, Serialize};

use crate::config::{CoreKind, MachineConfig};
use crate::stats::{MemCounters, SimResult};

/// Workload statistics the model needs (computed from the trace, not the
/// simulation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Fraction of loads that are dependent (pointer chases).
    pub dep_load_fraction: f64,
    /// Fraction of data accesses that are stores (buffered, mostly off the
    /// critical path).
    pub store_fraction: f64,
    /// Average branch mispredictions per 1000 instructions.
    pub mispred_per_kinstr: f64,
}

/// Closed-form CPI decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpiModel {
    pub computation: f64,
    pub i_stalls: f64,
    pub d_stalls: f64,
    pub other: f64,
}

impl CpiModel {
    pub fn total(&self) -> f64 {
        self.computation + self.i_stalls + self.d_stalls + self.other
    }
}

/// Compute the reference CPI from measured event counts + workload stats +
/// machine parameters. The model describes a homogeneous machine: the
/// core is read from the first slot.
///
/// # Panics
///
/// On a machine with no slots, which [`MachineConfig::validate`] rejects.
pub(crate) fn analytic_reference(
    cfg: &MachineConfig,
    mem: &MemCounters,
    instrs: u64,
    w: WorkloadStats,
) -> CpiModel {
    let instrs = instrs.max(1) as f64;
    let core = cfg.slots[0];
    let (width, mshrs) = match core {
        CoreKind::Fat { width, mshrs, .. } => (width as f64, mshrs as f64),
        CoreKind::Lean { width, .. } => (width as f64, 1.0),
    };
    let l2_lat = cfg.l2.geom.latency as f64;
    let mem_lat = (cfg.l2.geom.latency + cfg.mem_latency) as f64;
    let coh_lat = cfg.coherence_latency as f64;
    let l1l1_lat = cfg.l1_to_l1 as f64;

    // Data-side stall: each miss class costs its latency; dependent misses
    // are fully exposed, independent ones overlap up to the MSHR count.
    // Stores are buffered: only the non-store fraction contributes.
    let mlp = mshrs.max(1.0);
    let exposure = w.dep_load_fraction + (1.0 - w.dep_load_fraction) / mlp;
    let load_share = 1.0 - w.store_fraction;
    let d_cycles = (mem.l2_hits as f64 * l2_lat
        + mem.l1_to_l1 as f64 * l1l1_lat
        + mem.mem_accesses as f64 * mem_lat
        + mem.coherence_transfers as f64 * coh_lat)
        * exposure
        * load_share;

    // Instruction side: stream-buffer hits cost the promote penalty; demand
    // misses cost their level's latency. Sequential fetch means no overlap
    // credit.
    let i_cycles = mem.stream_hits as f64 * 4.0
        + mem.l2_hits_instr as f64 * l2_lat
        + mem.mem_accesses_instr as f64 * mem_lat;

    CpiModel {
        computation: 1.0 / width,
        i_stalls: i_cycles / instrs,
        d_stalls: d_cycles / instrs,
        other: w.mispred_per_kinstr * core.pipeline_depth() as f64 / 1000.0,
    }
}

/// Side-by-side comparison of simulated vs analytic CPI (the content of
/// Fig. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validation {
    pub simulated: CpiModel,
    pub reference: CpiModel,
}

impl Validation {
    pub fn new(cfg: &MachineConfig, res: &SimResult, w: WorkloadStats) -> Self {
        let instrs = res.instrs.max(1) as f64;
        let simulated = CpiModel {
            computation: res.breakdown.get(crate::stats::CycleClass::Compute) as f64 / instrs,
            i_stalls: (res.breakdown.get(crate::stats::CycleClass::IStallL2)
                + res.breakdown.get(crate::stats::CycleClass::IStallMem))
                as f64
                / instrs,
            d_stalls: (res.breakdown.get(crate::stats::CycleClass::DStallL2Hit)
                + res.breakdown.get(crate::stats::CycleClass::DStallMem)
                + res.breakdown.get(crate::stats::CycleClass::DStallCoherence))
                as f64
                / instrs,
            other: res.breakdown.get(crate::stats::CycleClass::Other) as f64 / instrs,
        };
        let reference = analytic_reference(cfg, &res.mem, res.instrs, w);
        Validation {
            simulated,
            reference,
        }
    }

    /// Relative error of total CPI, |sim - ref| / sim.
    pub fn total_error(&self) -> f64 {
        let s = self.simulated.total();
        let r = self.reference.total();
        if s == 0.0 {
            return 0.0;
        }
        (s - r).abs() / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::config::MachineConfig;
    use crate::machine::RunMode;
    use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};

    fn stats() -> WorkloadStats {
        WorkloadStats {
            dep_load_fraction: 0.0,
            store_fraction: 0.0,
            mispred_per_kinstr: 0.0,
        }
    }

    #[test]
    fn pure_compute_cpi_matches_width() {
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 8);
        let model = analytic_reference(&cfg, &MemCounters::default(), 1_000_000, stats());
        assert!((model.computation - 0.25).abs() < 1e-12);
        assert_eq!(model.d_stalls, 0.0);
        assert_eq!(model.total(), 0.25);
    }

    #[test]
    fn dependent_loads_cost_more_than_independent() {
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 8);
        let mem = MemCounters {
            mem_accesses: 1000,
            ..Default::default()
        };
        let dep = analytic_reference(
            &cfg,
            &mem,
            100_000,
            WorkloadStats {
                dep_load_fraction: 1.0,
                store_fraction: 0.0,
                mispred_per_kinstr: 0.0,
            },
        );
        let indep = analytic_reference(
            &cfg,
            &mem,
            100_000,
            WorkloadStats {
                dep_load_fraction: 0.0,
                store_fraction: 0.0,
                mispred_per_kinstr: 0.0,
            },
        );
        assert!(dep.d_stalls > 2.0 * indep.d_stalls);
    }

    #[test]
    fn validation_against_simulation_is_close_on_simple_workload() {
        // A deliberately simple workload (sequential scan-ish) where the
        // closed form should track the simulator well.
        let mut regions = CodeRegions::new();
        let r = regions.add("scan", 4 << 10, 0.5);
        let mut tr = Tracer::recording();
        for k in 0..20_000u64 {
            tr.exec(r, 12);
            tr.load(0x10_0000 + k * 64, 8); // streaming, independent
        }
        let bundle = TraceBundle::new(regions, vec![tr.finish()]);
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 8);
        let mode = RunMode::Completion {
            max_cycles: 50_000_000,
        };
        let res = MachineBuilder::from_config(cfg.clone(), mode)
            .build(&bundle)
            .expect("valid preset")
            .execute();
        let v = Validation::new(
            &cfg,
            &res,
            WorkloadStats {
                dep_load_fraction: 0.0,
                store_fraction: 0.0,
                mispred_per_kinstr: 0.5,
            },
        );
        // The paper matched 5% against real hardware; our closed form
        // ignores queueing and partial overlap, so allow a wider band.
        assert!(
            v.total_error() < 0.40,
            "analytic reference too far off: sim {:.3} vs ref {:.3}",
            v.simulated.total(),
            v.reference.total()
        );
    }
}
