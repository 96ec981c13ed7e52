//! Composable machine assembly.
//!
//! [`MachineBuilder`] assembles a machine from per-slot [`CoreKind`]s
//! (heterogeneous fat/lean mixes allowed), a cache topology (any mix of
//! private, island, and chip-shared levels), and a [`RunMode`], and validates the
//! result into a [`Machine`] — degenerate configs (zero cores, zero
//! contexts, empty hierarchies, non-nesting islands, …) come back as a
//! [`ConfigError`] at build time instead of panicking or silently
//! misbehaving deep in the cycle loop.
//!
//! ```
//! use dbcmp_sim::{
//!     CacheGeom, CacheTopology, CoreKind, MachineBuilder, RunMode,
//! };
//! # let bundle = dbcmp_trace::TraceBundle::new(dbcmp_trace::CodeRegions::new(), vec![]);
//! // Four lean cores in two 2-core islands, each island with its own
//! // 4 MB L2, sharing a 16 MB L3.
//! let machine = MachineBuilder::new(RunMode::Throughput { warmup: 1000, measure: 4000 })
//!     .name("2x2 lean islands + L3")
//!     .slots(CoreKind::lean(), 4)
//!     .topology(
//!         CacheTopology::islands(2, CacheGeom::new(4 << 20, 16, 10))
//!             .with_l3(CacheGeom::new(16 << 20, 16, 20)),
//!     )
//!     .build(&bundle)
//!     .expect("valid config");
//! let result = machine.execute();
//! ```

use dbcmp_trace::TraceBundle;

use crate::config::{CacheGeom, CacheTopology, ConfigError, CoreKind, MachineConfig};
use crate::machine::{Machine, RunMode};

/// Builder for [`Machine`]s: per-slot cores, cache topology, run mode.
///
/// Starts from the paper's shared memory-system baseline (§3: identical
/// memory subsystems for both camps) with *no* core slots; add slots
/// with [`slot`](Self::slot)/[`slots`](Self::slots). Every parameter of
/// [`MachineConfig`] has a setter, so presets are reproducible through
/// the builder exactly.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: MachineConfig,
    mode: RunMode,
    /// The caller set `l1_to_l1` explicitly; `topology()` must not
    /// overwrite it with the derived default (order-independence).
    l1_to_l1_pinned: bool,
    /// Bank overrides pinned by `l2_banks`/`l2_bank_occupancy`, applied
    /// to the innermost level at build time so they survive a later
    /// `topology()` call in any order.
    banks_pinned: Option<usize>,
    occupancy_pinned: Option<u64>,
}

impl MachineBuilder {
    /// Baseline memory system, no core slots yet.
    pub fn new(mode: RunMode) -> Self {
        let mut cfg = MachineConfig::fat_cmp(0, 16 << 20, 14);
        cfg.name = "custom".to_string();
        cfg.slots = Vec::new();
        MachineBuilder {
            cfg,
            mode,
            l1_to_l1_pinned: false,
            banks_pinned: None,
            occupancy_pinned: None,
        }
    }

    /// Seed the builder from an existing config (how presets and the
    /// sweep runner build machines). The config's `l1_to_l1` is treated
    /// as deliberate: a later `topology()` keeps it.
    pub fn from_config(cfg: MachineConfig, mode: RunMode) -> Self {
        MachineBuilder {
            cfg,
            mode,
            l1_to_l1_pinned: true,
            banks_pinned: None,
            occupancy_pinned: None,
        }
    }

    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Append one core slot.
    pub fn slot(mut self, kind: CoreKind) -> Self {
        let mut slots = self.cfg.slot_kinds();
        slots.push(kind);
        self.cfg.slots = slots;
        self.cfg.n_cores = self.cfg.slots.len();
        self
    }

    /// Append `n` identical core slots.
    pub fn slots(mut self, kind: CoreKind, n: usize) -> Self {
        for _ in 0..n {
            self = self.slot(kind);
        }
        self
    }

    /// Set the whole on-chip hierarchy beyond the L1s: any number of
    /// levels, each private, island-shared, or chip-shared.
    pub fn topology(mut self, topology: CacheTopology) -> Self {
        // Keep the dependent on-chip transfer latency consistent with
        // the presets (L2 hit + directory indirection) — unless the
        // caller pinned it with `l1_to_l1()`, in any order.
        if !self.l1_to_l1_pinned {
            if let Some(l2) = topology.levels.first() {
                self.cfg.l1_to_l1 = l2.geom.latency + 6;
            }
        }
        self.cfg.topology = topology;
        self
    }

    pub fn l1i(mut self, g: CacheGeom) -> Self {
        self.cfg.l1i = g;
        self
    }

    pub fn l1d(mut self, g: CacheGeom) -> Self {
        self.cfg.l1d = g;
        self
    }

    /// Bank count of the innermost level (the L2). Pinned: survives a
    /// later `topology()` call.
    pub fn l2_banks(mut self, banks: usize) -> Self {
        self.banks_pinned = Some(banks);
        self
    }

    /// Bank occupancy of the innermost level. Pinned like
    /// [`l2_banks`](Self::l2_banks).
    pub fn l2_bank_occupancy(mut self, cycles: u64) -> Self {
        self.occupancy_pinned = Some(cycles);
        self
    }

    pub fn mem_latency(mut self, cycles: u64) -> Self {
        self.cfg.mem_latency = cycles;
        self
    }

    pub fn coherence_latency(mut self, cycles: u64) -> Self {
        self.cfg.coherence_latency = cycles;
        self
    }

    pub fn l1_to_l1(mut self, cycles: u64) -> Self {
        self.cfg.l1_to_l1 = cycles;
        self.l1_to_l1_pinned = true;
        self
    }

    pub fn stream_buf(mut self, entries: usize) -> Self {
        self.cfg.stream_buf = entries;
        self
    }

    pub fn store_buffer(mut self, entries: usize) -> Self {
        self.cfg.store_buffer = entries;
        self
    }

    pub fn quantum(mut self, cycles: u64) -> Self {
        self.cfg.quantum = cycles;
        self
    }

    pub fn switch_penalty(mut self, cycles: u64) -> Self {
        self.cfg.switch_penalty = cycles;
        self
    }

    pub fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Resolve the pinned per-level overrides into the config.
    fn resolve(mut self) -> MachineConfig {
        if let Some(l2) = self.cfg.topology.levels.first_mut() {
            if let Some(banks) = self.banks_pinned {
                l2.banks = banks;
            }
            if let Some(occ) = self.occupancy_pinned {
                l2.bank_occupancy = occ;
            }
        }
        self.cfg
    }

    /// Validate and return the assembled config without building a
    /// machine (sweeps store configs, not machines).
    pub fn into_config(self) -> Result<MachineConfig, ConfigError> {
        let cfg = self.resolve();
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validate the config and assemble a runnable [`Machine`] over
    /// `bundle`.
    pub fn build(self, bundle: &TraceBundle) -> Result<Machine<'_>, ConfigError> {
        let mode = self.mode;
        let cfg = self.resolve();
        cfg.validate()?;
        Ok(Machine::assemble(cfg, mode, bundle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimResult;
    use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};

    fn bundle(n_threads: usize) -> TraceBundle {
        let mut regions = CodeRegions::new();
        let r = regions.add("work", 8 << 10, 1.0);
        let threads = (0..n_threads)
            .map(|t| {
                let mut tr = Tracer::recording();
                for k in 0..200u64 {
                    tr.exec(r, 12);
                    tr.load(0x2_0000 + t as u64 * 0x1_0000 + (k % 128) * 64, 8);
                    if k % 20 == 19 {
                        tr.unit_end();
                    }
                }
                tr.finish()
            })
            .collect();
        TraceBundle::new(regions, threads)
    }

    const MODE: RunMode = RunMode::Throughput {
        warmup: 5_000,
        measure: 20_000,
    };

    #[test]
    fn zero_slots_is_rejected() {
        let b = bundle(1);
        let err = MachineBuilder::new(MODE)
            .build(&b)
            .map(|_m| ())
            .unwrap_err();
        assert_eq!(err, ConfigError::NoCores);
    }

    #[test]
    fn zero_contexts_is_rejected() {
        let b = bundle(1);
        let err = MachineBuilder::new(MODE)
            .slot(CoreKind::Lean {
                width: 2,
                contexts: 0,
            })
            .build(&b)
            .map(|_m| ())
            .unwrap_err();
        assert_eq!(err, ConfigError::NoContexts { slot: 0 });
    }

    #[test]
    fn degenerate_fat_slots_are_rejected() {
        let b = bundle(1);
        for (kind, want) in [
            (
                CoreKind::Fat {
                    width: 0,
                    rob: 128,
                    mshrs: 8,
                },
                ConfigError::ZeroWidth { slot: 1 },
            ),
            (
                CoreKind::Fat {
                    width: 4,
                    rob: 0,
                    mshrs: 8,
                },
                ConfigError::ZeroWindow { slot: 1 },
            ),
            (
                CoreKind::Fat {
                    width: 4,
                    rob: 128,
                    mshrs: 0,
                },
                ConfigError::ZeroMshrs { slot: 1 },
            ),
        ] {
            let err = MachineBuilder::new(MODE)
                .slot(CoreKind::fat())
                .slot(kind)
                .build(&b)
                .map(|_m| ())
                .unwrap_err();
            assert_eq!(err, want);
        }
    }

    #[test]
    fn non_power_of_two_banks_rejected() {
        let b = bundle(1);
        for banks in [0usize, 3, 6, 12] {
            let err = MachineBuilder::new(MODE)
                .slot(CoreKind::fat())
                .l2_banks(banks)
                .build(&b)
                .map(|_m| ())
                .unwrap_err();
            assert_eq!(err, ConfigError::L2BanksNotPowerOfTwo { banks });
        }
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let b = bundle(1);
        let err = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .l1d(CacheGeom::new(0, 2, 1))
            .build(&b)
            .map(|_m| ())
            .unwrap_err();
        assert_eq!(err, ConfigError::BadCacheGeom { which: "l1d" });
    }

    #[test]
    fn slot_count_mismatch_rejected() {
        let mut cfg = MachineConfig::fat_cmp(4, 1 << 20, 8);
        cfg.slots = vec![CoreKind::fat(); 2];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::SlotCountMismatch {
                slots: 2,
                n_cores: 4
            })
        );
    }

    #[test]
    fn config_error_displays() {
        let msg = format!("{}", ConfigError::L2BanksNotPowerOfTwo { banks: 3 });
        assert!(msg.contains("power of two"), "{msg}");
        let dyn_err: Box<dyn std::error::Error> = Box::new(ConfigError::NoCores);
        assert!(format!("{dyn_err}").contains("zero core slots"));
    }

    /// A heterogeneous machine whose slots all carry the same kind is
    /// event-for-event equal to the homogeneous machine.
    #[test]
    fn uniform_slots_equal_homogeneous() {
        let b = bundle(6);
        for kind in [CoreKind::fat(), CoreKind::lean()] {
            let mut homo = MachineConfig::fat_cmp(3, 1 << 20, 8);
            homo.core = kind;
            let mut hetero = homo.clone();
            hetero.slots = vec![kind; 3];
            let run = |cfg| -> SimResult {
                MachineBuilder::from_config(cfg, MODE)
                    .build(&b)
                    .expect("valid config")
                    .execute()
            };
            assert_eq!(run(homo), run(hetero));
        }
    }

    /// A genuinely mixed machine runs, binds threads across unequal
    /// context counts, and exercises both core models.
    #[test]
    fn mixed_machine_runs_both_camps() {
        let b = bundle(10);
        let m = MachineBuilder::new(MODE)
            .name("1F+1L")
            .slot(CoreKind::fat())
            .slot(CoreKind::lean())
            .topology(CacheTopology::shared_l2(CacheGeom::new(1 << 20, 16, 8)))
            .build(&b)
            .expect("valid mixed config");
        let res = m.execute();
        assert!(res.instrs > 0);
        assert_eq!(res.per_core.len(), 2);
        // 1 fat context + 4 lean contexts = 5; all 10 threads bound.
        assert!(res.per_core.iter().all(|bd| bd.total() > 0));
    }

    #[test]
    fn explicit_l1_to_l1_survives_l2_in_either_order() {
        let geom = CacheGeom::new(16 << 20, 16, 14);
        let before = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .l1_to_l1(30)
            .topology(CacheTopology::shared_l2(geom))
            .into_config()
            .expect("valid");
        let after = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .topology(CacheTopology::shared_l2(geom))
            .l1_to_l1(30)
            .into_config()
            .expect("valid");
        assert_eq!(
            before.l1_to_l1, 30,
            "topology() must not clobber a pinned value"
        );
        assert_eq!(after.l1_to_l1, 30);
        // Unpinned: topology() derives the preset-consistent default.
        let derived = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .topology(CacheTopology::shared_l2(geom))
            .into_config()
            .expect("valid");
        assert_eq!(derived.l1_to_l1, geom.latency + 6);
    }

    #[test]
    fn pinned_banks_survive_topology_in_either_order() {
        use crate::config::SharedBy;
        let geom = CacheGeom::new(8 << 20, 16, 12);
        let before = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .l2_banks(8)
            .l2_bank_occupancy(4)
            .topology(CacheTopology::shared_l2(geom))
            .into_config()
            .expect("valid");
        let after = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .topology(CacheTopology::shared_l2(geom))
            .l2_banks(8)
            .l2_bank_occupancy(4)
            .into_config()
            .expect("valid");
        for cfg in [&before, &after] {
            assert_eq!(cfg.topology.innermost().banks, 8);
            assert_eq!(cfg.topology.innermost().bank_occupancy, 4);
        }
        // Unpinned: the topology's own bank parameters stand.
        let plain = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .topology(CacheTopology::private_l2(geom))
            .into_config()
            .expect("valid");
        assert_eq!(plain.topology.innermost().banks, 1);
        assert_eq!(plain.topology.innermost().shared_by, SharedBy::Core);
    }

    #[test]
    fn multi_level_island_topology_builds_and_runs() {
        let b = bundle(8);
        let m =
            MachineBuilder::new(MODE)
                .name("2x2 islands + L3")
                .slots(CoreKind::fat(), 4)
                .topology(
                    CacheTopology::islands(2, CacheGeom::new(1 << 20, 16, 8))
                        .with_l3(CacheGeom::new(8 << 20, 16, 20)),
                )
                .build(&b)
                .expect("valid 2-level island config");
        let res = m.execute();
        assert!(res.instrs > 0);
        assert_eq!(res.mem.per_level.len(), 2, "both levels counted");
        assert!(res.mem.per_level[0].accesses() > 0);
    }

    #[test]
    fn degenerate_topologies_are_rejected() {
        let b = bundle(1);
        let err = MachineBuilder::new(MODE)
            .slot(CoreKind::fat())
            .topology(CacheTopology::new(vec![]))
            .build(&b)
            .map(|_m| ())
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyTopology);
        let err = MachineBuilder::new(MODE)
            .slots(CoreKind::fat(), 4)
            .topology(CacheTopology::islands(3, CacheGeom::new(1 << 20, 16, 8)))
            .build(&b)
            .map(|_m| ())
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ClusterNotDivisible {
                level: 0,
                cluster: 3,
                n_cores: 4
            }
        );
    }

    #[test]
    fn into_config_validates_and_preserves_slots() {
        let cfg = MachineBuilder::new(MODE)
            .slots(CoreKind::fat(), 2)
            .slots(CoreKind::lean(), 2)
            .into_config()
            .expect("valid");
        assert_eq!(cfg.n_cores, 4);
        assert_eq!(cfg.slots.len(), 4);
        assert_eq!(cfg.total_contexts(), 2 + 2 * 4);
        assert!(MachineBuilder::new(MODE).into_config().is_err());
    }
}
