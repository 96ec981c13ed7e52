//! `dbcmp-staged` — staged database execution (paper §6.3).
//!
//! A staged server processes work in *stages* rather than as monolithic
//! requests: incoming queries decompose into packets routed through
//! per-operator stages with private queues. The paper argues this design
//! both (a) increases parallelism — every packet can be scheduled
//! independently, soaking up idle hardware contexts on unsaturated
//! workloads — and (b) improves L1 locality — batch (cohort) execution
//! keeps one stage's code hot, and producer/consumer scheduling keeps
//! intermediate data within L1-sized buffers (the STEPS idea applied to
//! data).
//!
//! This crate implements those mechanisms over the `dbcmp-engine`
//! substrate for the scan→filter→\[join…\]→aggregate pipelines of the
//! DSS queries (Q1/Q6 scans; Q3/Q5 with hash-join stages whose build
//! tables are loaded once and probed per batch — see DESIGN.md §4). A
//! pipeline runs a `PipelineSpec` statement; Q3/Q5's are the shared
//! `dbcmp_workloads::tpch::queries::join_query`:
//!
//! * [`ExecPolicy::Volcano`] — the conventional row-at-a-time baseline
//!   (exactly the engine's executor).
//! * [`ExecPolicy::Staged`] — cohort scheduling: each stage processes a
//!   whole batch before the next stage runs; per-call interpretation
//!   overhead amortizes over the batch and intermediate rows live in a
//!   small reused buffer that stays cache-resident.
//! * [`ExecPolicy::StagedParallel`] — additionally partitions the scan
//!   across producer packets bound to different hardware contexts, with a
//!   consumer stage aggregating — intra-query parallelism that cuts
//!   unsaturated response time (paper §6.1).
//!
//! **Modeling note** (documented in DESIGN.md): when producer and
//! consumer traces replay on different simulated contexts, the handoff
//! *synchronization* is not timed (the simulator has no cross-thread
//! ordering); the locality and parallelism effects — shared buffer lines,
//! partitioned work — are captured.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

mod capture;
mod pipeline;

pub use capture::{capture_staged_dss, UnsupportedQuery};
pub use pipeline::{BatchAgg, ExecPolicy, JoinTable, StagedPipeline};
