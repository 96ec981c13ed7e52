//! Workloads: TPC-C-like OLTP and TPC-H-like DSS, plus trace capture.
//!
//! Mirrors the paper's §3 setup:
//!
//! * **OLTP** — a TPC-C-style transaction mix (all five transaction types,
//!   NURand skew, 1% remote-warehouse payments, 1% NewOrder rollbacks) on
//!   a scaled-down warehouse count. The paper ran 100 warehouses with 64
//!   clients; scaling the data down does not change the microarchitectural
//!   behaviour (paper §3, citing DBmbench), and we keep the access-pattern
//!   shape: hot district counters, shared stock, insert-heavy order lines.
//! * **DSS** — TPC-H-style queries Q1 and Q6 (scan-dominated), Q16
//!   (join-dominated) and Q13 (mixed) with random predicates, on a
//!   dbgen-like population; plus the join-camp extension Q3 (orders ⋈
//!   lineitem join-aggregate) and Q5 (multi-way join through the orders
//!   B+Tree) that the `fig_islands` sweep captures via
//!   [`tpch::QueryKind::JOINS`].
//!
//! [`capture`] runs client sessions against the engine and produces
//! [`TraceBundle`](dbcmp_trace::TraceBundle)s for the simulator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
// An un-awaited engine call (`db.statement_overhead(tc);`) is a skipped
// operation and a silently different capture: a build error, not a warning.
#![deny(unused_must_use)]
#![allow(
    clippy::inconsistent_digit_grouping,
    reason = "money literals are written as dollars_cents (e.g. 5_000_00 = $5000.00)"
)]

pub mod capture;
mod deploy;
mod exchange;
mod instances;
mod interleave;
mod ops;
mod rng;
mod rwset;
pub mod tpcc;
pub mod tpch;

pub use capture::{capture_dss, capture_oltp, CaptureOptions};
pub use deploy::{capture_oltp_deployment, DeployOptions, DeployStats, Deployment};
pub use exchange::{exchange_rows, ExchangeBufs, ExchangeTraffic};
pub use interleave::{
    capture_oltp_interleaved, ContentionStats, InterleaveOptions, InterleavedCapture,
};
pub use tpcc::{build_tpcc, TpccDb, TpccScale};
pub use tpch::dist::{capture_dss_dist, capture_dss_dist_workers, DistOptions, DistStats};
pub use tpch::{build_tpch, build_tpch_range, QueryKind, TpchDb, TpchScale};
