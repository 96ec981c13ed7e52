//! Cycle accounting and simulation results.
//!
//! Every simulated cycle of every active core lands in exactly one
//! [`CycleClass`] bucket; the per-class totals form the execution-time
//! breakdowns of the paper's Figs. 3, 5, 6(b,c) and 7. Event counters
//! (L1 and L2 misses, coherence transfers, …) feed the analytic validation
//! model and the reports.

use serde::{Deserialize, Serialize};

/// Where a cycle went. Mirrors the paper's breakdown with its §5
/// refinement of data stalls into L2-hit / off-chip / coherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum CycleClass {
    /// At least one instruction retired this cycle.
    Compute = 0,
    /// Instruction fetch waiting on the L2 (including stream-buffer
    /// fills in flight).
    IStallL2 = 1,
    /// Instruction fetch waiting on off-chip memory.
    IStallMem = 2,
    /// Data access that missed L1D but hit on-chip (shared L2 or a peer
    /// L1) — the component the paper shows rising "from oblivion".
    DStallL2Hit = 3,
    /// Data access waiting on off-chip memory.
    DStallMem = 4,
    /// Data access served by a remote node's cache (SMP coherence miss).
    DStallCoherence = 5,
    /// Branch mispredictions, context-switch overhead, fences.
    Other = 6,
}

pub(crate) const N_CLASSES: usize = 7;

pub const ALL_CLASSES: [CycleClass; N_CLASSES] = [
    CycleClass::Compute,
    CycleClass::IStallL2,
    CycleClass::IStallMem,
    CycleClass::DStallL2Hit,
    CycleClass::DStallMem,
    CycleClass::DStallCoherence,
    CycleClass::Other,
];

impl CycleClass {
    pub fn label(self) -> &'static str {
        match self {
            CycleClass::Compute => "Computation",
            CycleClass::IStallL2 => "I-stall (L2)",
            CycleClass::IStallMem => "I-stall (Mem)",
            CycleClass::DStallL2Hit => "D-stall (L2 hit)",
            CycleClass::DStallMem => "D-stall (Mem)",
            CycleClass::DStallCoherence => "D-stall (Coherence)",
            CycleClass::Other => "Other stalls",
        }
    }

    pub(crate) fn is_data_stall(self) -> bool {
        matches!(
            self,
            CycleClass::DStallL2Hit | CycleClass::DStallMem | CycleClass::DStallCoherence
        )
    }

    pub(crate) fn is_instr_stall(self) -> bool {
        matches!(self, CycleClass::IStallL2 | CycleClass::IStallMem)
    }
}

/// Per-class cycle totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    pub cycles: [u64; N_CLASSES],
}

impl Breakdown {
    #[inline]
    pub fn charge(&mut self, class: CycleClass, n: u64) {
        self.cycles[class as usize] += n;
    }

    pub fn get(&self, class: CycleClass) -> u64 {
        self.cycles[class as usize]
    }

    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    pub(crate) fn merge(&mut self, other: &Breakdown) {
        for i in 0..N_CLASSES {
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Fraction of total time per class, in `ALL_CLASSES` order.
    pub fn fractions(&self) -> [f64; N_CLASSES] {
        let total = self.total().max(1) as f64;
        let mut out = [0.0; N_CLASSES];
        for (o, &c) in out.iter_mut().zip(self.cycles.iter()) {
            *o = c as f64 / total;
        }
        out
    }

    pub fn compute_fraction(&self) -> f64 {
        self.get(CycleClass::Compute) as f64 / self.total().max(1) as f64
    }

    pub fn data_stall_fraction(&self) -> f64 {
        let d: u64 = ALL_CLASSES
            .iter()
            .filter(|c| c.is_data_stall())
            .map(|&c| self.get(c))
            .sum();
        d as f64 / self.total().max(1) as f64
    }

    pub fn instr_stall_fraction(&self) -> f64 {
        let d: u64 = ALL_CLASSES
            .iter()
            .filter(|c| c.is_instr_stall())
            .map(|&c| self.get(c))
            .sum();
        d as f64 / self.total().max(1) as f64
    }

    pub fn l2_hit_stall_fraction(&self) -> f64 {
        self.get(CycleClass::DStallL2Hit) as f64 / self.total().max(1) as f64
    }
}

/// Event counters for one cache level beyond the L1s (the L2). Demand
/// traffic only; prefetches appear in the queueing
/// counters (they claim the same bank ports) but not in hits/misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelCounters {
    /// Data-side demand accesses served at this level (probe hits plus
    /// directory-charged upgrades).
    pub hits_data: u64,
    /// Instruction-side demand accesses served at this level.
    pub hits_instr: u64,
    /// Data-side demand accesses that missed and continued outward.
    pub misses_data: u64,
    /// Instruction-side demand accesses that missed and continued outward.
    pub misses_instr: u64,
    /// Lines evicted from this level (demand and prefetch fills).
    pub evictions: u64,
    /// Total service latency (cycles from request to data) of demand
    /// accesses this level served — attributes stall time to the level
    /// that supplied the data.
    pub service_cycles: u64,
    /// Cycles of bank queueing delay at this level.
    pub queue_cycles: u64,
    /// Accesses that found a bank of this level busy.
    pub queued_accesses: u64,
    /// Demand misses that waited for a free L2 MSHR slot, and the cycles
    /// lost waiting. The L2 has no MSHR cap, so both stay 0; they remain
    /// so that digests over every counter keep their values.
    pub mshr_waits: u64,
    pub mshr_wait_cycles: u64,
}

impl LevelCounters {
    pub(crate) fn merge(&mut self, o: &LevelCounters) {
        self.hits_data += o.hits_data;
        self.hits_instr += o.hits_instr;
        self.misses_data += o.misses_data;
        self.misses_instr += o.misses_instr;
        self.evictions += o.evictions;
        self.service_cycles += o.service_cycles;
        self.queue_cycles += o.queue_cycles;
        self.queued_accesses += o.queued_accesses;
        self.mshr_waits += o.mshr_waits;
        self.mshr_wait_cycles += o.mshr_wait_cycles;
    }

    /// Demand accesses that probed this level.
    pub fn accesses(&self) -> u64 {
        self.hits_data + self.hits_instr + self.misses_data + self.misses_instr
    }

    /// Demand miss rate at this level.
    pub fn miss_rate(&self) -> f64 {
        (self.misses_data + self.misses_instr) as f64 / self.accesses().max(1) as f64
    }
}

/// Memory-system event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemCounters {
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    /// Data-side L1 misses that hit in the (shared or private) L2.
    pub l2_hits: u64,
    /// Instruction-side L1 misses that hit in the L2.
    pub l2_hits_instr: u64,
    /// L1 misses served by a peer L1 on the same chip (CMP).
    pub l1_to_l1: u64,
    /// Data-side misses that went off-chip to memory.
    pub mem_accesses: u64,
    /// Instruction-side misses that went off-chip to memory.
    pub mem_accesses_instr: u64,
    /// Misses served dirty from a remote node (SMP coherence).
    pub coherence_transfers: u64,
    /// Stream-buffer hits (I-side prefetch successes).
    pub stream_hits: u64,
    /// Cumulative cycles of L2 bank queueing delay experienced.
    pub l2_queue_cycles: u64,
    /// Number of L2 bank accesses that found the bank busy.
    pub l2_queued_accesses: u64,
    /// The L2's counters, as the one entry of a list (index 0 = L2).
    pub per_level: Vec<LevelCounters>,
}

impl MemCounters {
    /// Zeroed counters sized for a hierarchy of `levels` levels.
    pub(crate) fn with_levels(levels: usize) -> Self {
        MemCounters {
            per_level: vec![LevelCounters::default(); levels],
            ..Default::default()
        }
    }

    pub fn merge(&mut self, o: &MemCounters) {
        self.l1d_accesses += o.l1d_accesses;
        self.l1d_misses += o.l1d_misses;
        self.l1i_accesses += o.l1i_accesses;
        self.l1i_misses += o.l1i_misses;
        self.l2_hits += o.l2_hits;
        self.l2_hits_instr += o.l2_hits_instr;
        self.l1_to_l1 += o.l1_to_l1;
        self.mem_accesses += o.mem_accesses;
        self.mem_accesses_instr += o.mem_accesses_instr;
        self.coherence_transfers += o.coherence_transfers;
        self.stream_hits += o.stream_hits;
        self.l2_queue_cycles += o.l2_queue_cycles;
        self.l2_queued_accesses += o.l2_queued_accesses;
        if self.per_level.len() < o.per_level.len() {
            self.per_level
                .resize(o.per_level.len(), LevelCounters::default());
        }
        for (mine, theirs) in self.per_level.iter_mut().zip(&o.per_level) {
            mine.merge(theirs);
        }
    }

    pub fn l1d_miss_rate(&self) -> f64 {
        self.l1d_misses as f64 / self.l1d_accesses.max(1) as f64
    }

    pub fn l2_miss_rate(&self) -> f64 {
        let l2_lookups =
            self.l2_hits + self.l1_to_l1 + self.mem_accesses + self.coherence_transfers;
        (self.mem_accesses + self.coherence_transfers) as f64 / l2_lookups.max(1) as f64
    }
}

/// Interconnect traffic counters for multi-instance deployments: the
/// `RemoteSend`/`RemoteRecv` events consumed during measurement and the
/// cycles threads stalled on them. All zero for single-instance traces.
/// Kept separate from [`MemCounters::coherence_transfers`]: coherence is
/// cache-line traffic *within* one machine; this is message traffic
/// *between* machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteCounters {
    /// RemoteSend events consumed.
    pub sends: u64,
    /// RemoteRecv events consumed.
    pub recvs: u64,
    /// Message bytes across sends and recvs.
    pub bytes: u64,
    /// Cycles threads spent gated on interconnect latency/occupancy
    /// (charged to [`CycleClass::Other`] in the breakdown).
    pub stall_cycles: u64,
}

impl RemoteCounters {
    pub fn merge(&mut self, o: &RemoteCounters) {
        self.sends += o.sends;
        self.recvs += o.recvs;
        self.bytes += o.bytes;
        self.stall_cycles += o.stall_cycles;
    }
}

/// Result of one simulation run. `PartialEq` compares every field —
/// the equivalence suites assert that the span loop equals its
/// per-cycle oracle (skip ≡ tick) and that parallel sweeps equal
/// sequential ones: *identical*, not close.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    pub machine: String,
    /// Measured cycles (after warm-up).
    pub cycles: u64,
    /// Committed instructions across all cores during measurement.
    pub instrs: u64,
    /// Completed work units (transactions / queries).
    pub units: u64,
    /// Aggregate breakdown over active cores.
    pub breakdown: Breakdown,
    /// Per-core breakdowns.
    pub per_core: Vec<Breakdown>,
    pub mem: MemCounters,
    /// Interconnect traffic (multi-instance deployments; all zero for
    /// single-instance traces).
    #[serde(default)]
    pub remote: RemoteCounters,
    /// Mean cycles per completed unit (response-time metric), if any
    /// units completed.
    pub avg_unit_cycles: Option<f64>,
}

impl SimResult {
    /// Aggregate user instructions per cycle — the paper's throughput
    /// metric (§3).
    pub fn uipc(&self) -> f64 {
        self.instrs as f64 / self.cycles.max(1) as f64
    }

    /// Cycles per instruction (per-core average).
    pub fn cpi(&self) -> f64 {
        self.breakdown.total() as f64 / self.instrs.max(1) as f64
    }

    /// CPI contribution of one class.
    pub fn cpi_component(&self, class: CycleClass) -> f64 {
        self.breakdown.get(class) as f64 / self.instrs.max(1) as f64
    }

    /// Units completed per million cycles.
    pub fn units_per_mcycle(&self) -> f64 {
        self.units as f64 * 1e6 / self.cycles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_charging_and_fractions() {
        let mut b = Breakdown::default();
        b.charge(CycleClass::Compute, 60);
        b.charge(CycleClass::DStallL2Hit, 25);
        b.charge(CycleClass::DStallMem, 10);
        b.charge(CycleClass::Other, 5);
        assert_eq!(b.total(), 100);
        assert!((b.compute_fraction() - 0.60).abs() < 1e-12);
        assert!((b.data_stall_fraction() - 0.35).abs() < 1e-12);
        assert!((b.l2_hit_stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(b.instr_stall_fraction(), 0.0);
    }

    #[test]
    fn breakdown_merge() {
        let mut a = Breakdown::default();
        a.charge(CycleClass::Compute, 10);
        let mut b = Breakdown::default();
        b.charge(CycleClass::Compute, 5);
        b.charge(CycleClass::IStallL2, 3);
        a.merge(&b);
        assert_eq!(a.get(CycleClass::Compute), 15);
        assert_eq!(a.get(CycleClass::IStallL2), 3);
    }

    #[test]
    fn sim_result_metrics() {
        let mut r = SimResult {
            cycles: 1000,
            instrs: 1500,
            ..Default::default()
        };
        r.breakdown.charge(CycleClass::Compute, 800);
        r.breakdown.charge(CycleClass::DStallMem, 200);
        assert!((r.uipc() - 1.5).abs() < 1e-12);
        assert!((r.cpi() - 1000.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn class_predicates() {
        assert!(CycleClass::DStallL2Hit.is_data_stall());
        assert!(CycleClass::DStallCoherence.is_data_stall());
        assert!(!CycleClass::IStallL2.is_data_stall());
        assert!(CycleClass::IStallMem.is_instr_stall());
        assert!(!CycleClass::Compute.is_instr_stall());
    }

    #[test]
    fn level_counters_merge_and_rates() {
        let mut a = MemCounters::with_levels(1);
        a.per_level[0].hits_data = 10;
        a.per_level[0].misses_data = 5;
        let mut b = MemCounters::with_levels(2);
        b.per_level[0].hits_instr = 3;
        b.per_level[1].misses_instr = 7;
        b.per_level[1].evictions = 2;
        a.merge(&b);
        assert_eq!(a.per_level.len(), 2, "merge widens to the deeper hierarchy");
        assert_eq!(a.per_level[0].hits_data, 10);
        assert_eq!(a.per_level[0].hits_instr, 3);
        assert_eq!(a.per_level[1].misses_instr, 7);
        assert_eq!(a.per_level[1].evictions, 2);
        assert_eq!(a.per_level[0].accesses(), 18);
        assert!((a.per_level[0].miss_rate() - 5.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn mem_counter_rates() {
        let m = MemCounters {
            l1d_accesses: 1000,
            l1d_misses: 50,
            l2_hits: 40,
            mem_accesses: 10,
            ..Default::default()
        };
        assert!((m.l1d_miss_rate() - 0.05).abs() < 1e-12);
        assert!((m.l2_miss_rate() - 0.2).abs() < 1e-12);
    }
}
