//! Validated machine assembly.
//!
//! A machine is described by a [`MachineConfig`] value — one
//! [`CoreKind`](crate::config::CoreKind) per core slot (fat/lean mixes
//! allowed), one L2 that is private, island-shared or chip-shared — that
//! presets fill in and callers update field by field. [`MachineBuilder`]
//! is the one way from such a value and a [`RunMode`] to a runnable
//! [`Machine`]: it validates first, so degenerate configs (zero cores,
//! zero contexts, islands that do not divide the cores, more cores than
//! a directory tracks, …) come back as a [`ConfigError`] at build time
//! instead of panicking or silently misbehaving deep in the cycle loop.
//!
//! ```
//! use dbcmp_sim::{CacheGeom, LevelSpec, MachineBuilder, MachineConfig, RunMode, SharedBy};
//! # let bundle = dbcmp_trace::TraceBundle::new(dbcmp_trace::CodeRegions::new(), vec![]);
//! // Four lean cores in two 2-core islands, each island with its own
//! // 4 MB L2: a preset plus a field update.
//! let cfg = MachineConfig {
//!     name: "2x2 lean islands".to_string(),
//!     l2: LevelSpec::new(CacheGeom::new(4 << 20, 16, 10), SharedBy::Cluster(2)),
//!     ..MachineConfig::lean_cmp(4, 4 << 20, 10)
//! };
//! let mode = RunMode::Throughput { warmup: 1000, measure: 4000 };
//! let machine = MachineBuilder::from_config(cfg, mode)
//!     .build(&bundle)
//!     .expect("valid config");
//! let result = machine.execute();
//! ```

use dbcmp_trace::TraceBundle;

use crate::config::{ConfigError, MachineConfig};
use crate::machine::{Machine, RunMode};

/// A [`MachineConfig`] and the [`RunMode`] to run it in, not yet
/// validated.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: MachineConfig,
    mode: RunMode,
}

impl MachineBuilder {
    /// How presets, the sweep runner and every figure build machines.
    pub fn from_config(cfg: MachineConfig, mode: RunMode) -> Self {
        MachineBuilder { cfg, mode }
    }

    /// Validate the config and assemble a runnable [`Machine`] over
    /// `bundle`.
    pub fn build(self, bundle: &TraceBundle) -> Result<Machine<'_>, ConfigError> {
        self.cfg.validate()?;
        Ok(Machine::assemble(self.cfg, self.mode, bundle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheGeom, CoreKind, LevelSpec, SharedBy};
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

    /// The paper's baseline memory system under the given core slots.
    fn with_slots(slots: Vec<CoreKind>) -> MachineConfig {
        let n_cores = slots.len();
        MachineConfig {
            slots,
            ..MachineConfig::fat_cmp(n_cores, 16 << 20, 14)
        }
    }

    fn build_err(cfg: MachineConfig) -> ConfigError {
        MachineBuilder::from_config(cfg, MODE)
            .build(&bundle(1))
            .map(|_m| ())
            .unwrap_err()
    }

    #[test]
    fn zero_slots_is_rejected() {
        let err = build_err(with_slots(vec![]));
        assert_eq!(err, ConfigError::NoCores);
    }

    #[test]
    fn zero_contexts_is_rejected() {
        let err = build_err(with_slots(vec![CoreKind::Lean {
            width: 2,
            contexts: 0,
        }]));
        assert_eq!(err, ConfigError::NoContexts { slot: 0 });
    }

    #[test]
    fn degenerate_fat_slots_are_rejected() {
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
            let err = build_err(with_slots(vec![CoreKind::fat(), kind]));
            assert_eq!(err, want);
        }
    }

    #[test]
    fn non_power_of_two_banks_rejected() {
        for banks in [0usize, 3, 6, 12] {
            let mut cfg = with_slots(vec![CoreKind::fat()]);
            cfg.l2.banks = banks;
            let err = build_err(cfg);
            assert_eq!(err, ConfigError::L2BanksNotPowerOfTwo { banks });
        }
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let mut cfg = with_slots(vec![CoreKind::fat()]);
        cfg.l1d = CacheGeom::new(0, 2, 1);
        let err = build_err(cfg);
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

    /// A genuinely mixed machine runs, binds threads across unequal
    /// context counts, and exercises both core models.
    #[test]
    fn mixed_machine_runs_both_camps() {
        let b = bundle(10);
        let cfg = MachineConfig {
            name: "1F+1L".to_string(),
            slots: vec![CoreKind::fat(), CoreKind::lean()],
            ..MachineConfig::fat_cmp(2, 1 << 20, 8)
        };
        let m = MachineBuilder::from_config(cfg, MODE)
            .build(&b)
            .expect("valid mixed config");
        let res = m.execute();
        assert!(res.instrs > 0);
        assert_eq!(res.per_core.len(), 2);
        // 1 fat context + 4 lean contexts = 5; all 10 threads bound.
        assert!(res.per_core.iter().all(|bd| bd.total() > 0));
    }

    #[test]
    fn degenerate_topologies_are_rejected() {
        let mut cfg = with_slots(vec![CoreKind::fat(); 4]);
        cfg.l2.shared_by = SharedBy::Cluster(3);
        let err = build_err(cfg);
        assert_eq!(
            err,
            ConfigError::ClusterNotDivisible {
                cluster: 3,
                n_cores: 4
            }
        );
    }

    /// A shared or island L2 on more than 16 cores is rejected, so no
    /// instance outgrows its 16-bit sharer map. Every L2 instance is a
    /// directory whose sharer bit is the core's position in the
    /// instance, so a 32-core SMP of one-core instances builds and runs:
    /// a bit indexed by global core id would overflow the map on core 16
    /// and panic under the test profile's overflow checks.
    #[test]
    fn directory_core_limit_is_enforced() {
        let l2 = CacheGeom::new(16 << 20, 16, 14);
        let islands = MachineConfig {
            l2: LevelSpec::new(l2, SharedBy::Cluster(5)),
            ..MachineConfig::fat_cmp(20, 16 << 20, 14)
        };
        for cfg in [MachineConfig::fat_cmp(17, 16 << 20, 14), islands] {
            let n_cores = cfg.n_cores;
            assert_eq!(build_err(cfg), ConfigError::TooManyCores { n_cores });
        }
        let b = bundle(32);
        for cfg in [
            MachineConfig::fat_cmp(16, 16 << 20, 14),
            MachineConfig::smp(32, 4 << 20, 10, CoreKind::fat()),
        ] {
            let res = MachineBuilder::from_config(cfg, MODE)
                .build(&b)
                .expect("within the directory's reach")
                .execute();
            assert!(res.per_core.iter().all(|bd| bd.total() > 0));
        }
    }
}
