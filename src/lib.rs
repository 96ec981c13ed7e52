//! # dbcmp — Database Servers on Chip Multiprocessors
//!
//! A from-scratch Rust reproduction of *"Database Servers on Chip
//! Multiprocessors: Limitations and Opportunities"* (Hardavellas, Pandis,
//! Johnson, Mancheril, Ailamaki, Falsafi — CIDR 2007).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`cacti`] — CACTI-style cache latency/area model (paper Fig. 1, Fig. 6
//!   inputs).
//! * [`trace`] — packed memory traces, simulated address space, code
//!   regions.
//! * [`sim`] — the trace-driven cycle-level CMP/SMP simulator (the FLEXUS
//!   substitute): caches, MESI, banked shared L2, stream buffers, fat
//!   (out-of-order) and lean (in-order multithreaded) cores.
//! * [`engine`] — an in-memory row-store DBMS: slotted pages, B+Tree,
//!   2PL lock manager, WAL-lite, Volcano executor, transactions.
//! * [`workloads`] — TPC-C-like OLTP and TPC-H-like DSS generators and
//!   drivers.
//! * [`staged`] — a staged execution engine (StagedDB-style packets,
//!   cohort scheduling, producer/consumer affinity) — the paper's §6
//!   "opportunities".
//! * [`core`] — taxonomy, machine presets, experiment runner and the
//!   generators for every figure/table in the paper.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
pub use dbcmp_cacti as cacti;
pub use dbcmp_core as core;
pub use dbcmp_engine as engine;
pub use dbcmp_sim as sim;
pub use dbcmp_staged as staged;
pub use dbcmp_trace as trace;
pub use dbcmp_workloads as workloads;

/// Compiles the README's Rust block, so a renamed or deleted API fails
/// `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
