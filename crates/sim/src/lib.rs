//! Trace-driven cycle-level CMP/SMP simulator — the reproduction's stand-in
//! for the FLEXUS full-system simulator used by the paper.
//!
//! The simulator replays per-thread memory traces (see `dbcmp-trace`) on a
//! modeled machine and attributes every cycle to one of the paper's
//! execution-time components: computation, instruction stalls, data stalls
//! (split into L2-hit / off-chip / coherence — the decomposition at the
//! heart of the paper's §5), and other stalls (branch mispredictions,
//! context switches).
//!
//! A machine is a [`config::MachineConfig`] value (per-slot core kinds, so
//! heterogeneous fat/lean mixes are allowed) that
//! [`builder::MachineBuilder`] validates — degenerate configs come back as
//! [`config::ConfigError`] at build time — and assembles; every slot is
//! driven through one crate-private `Core` trait. Two core models
//! implement the paper's two "camps" (§2.1):
//!
//! * `fat` — a wide out-of-order core: a reorder-buffer window, multiple
//!   outstanding misses (MSHRs), store buffering, and *dependence-limited*
//!   overlap — dependent loads (pointer chases) gate decode, independent
//!   loads overlap. This is the mechanism by which OLTP's tight dependences
//!   defeat ILP while DSS scans benefit (paper §4).
//! * `lean` — a narrow in-order core with several hardware contexts,
//!   issuing round-robin from runnable contexts; a context blocks on any
//!   L1 miss and the core hides the latency with other contexts — exactly
//!   Niagara-style fine-grained multithreading.
//!
//! The memory system ([`memsys`]) models per-core L1I/L1D and one L2
//! beyond them ([`config::LevelSpec`]): private per core, shared by an
//! *island* of adjacent cores, or chip-shared — the paper's shared-L2 CMP
//! and private-L2 SMP arrangements are the two extremes. One walker and
//! one protocol serve every shape: each L2 instance is the directory of
//! its cores' L1Ds (inclusive back-invalidation, L1-to-L1 transfers
//! within an instance), MESI-style snooping between L2 instances when
//! there is more than one, bank occupancy/queueing (the contention
//! effect behind Fig. 8), and next-line instruction stream buffers (the reason both camps' I-stall components
//! stay modest, §4). L2 hit/miss/eviction counters
//! ([`stats::LevelCounters`]) attribute stalls to the L2.
//!
//! Everything is deterministic: same traces + same config ⇒ same cycle
//! counts.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
pub mod analytic;
mod builder;
pub mod cache;
mod config;
mod core;
mod ctx;
pub mod cursor;
mod fat;
mod interconnect;
mod lean;
mod machine;
pub mod memsys;
pub mod stats;
mod stream;

pub use builder::MachineBuilder;
pub use config::{CacheGeom, ConfigError, CoreKind, LevelSpec, MachineConfig, SharedBy};
pub use interconnect::Interconnect;
pub use machine::{Machine, RunMode};
pub use stats::{Breakdown, CycleClass, LevelCounters, RemoteCounters, SimResult};
