//! `dbcmp-core` — the characterization framework.
//!
//! Ties the substrates together into the paper's experiments: the
//! CMP-camp/workload [taxonomy] (§2), [machine presets](machines)
//! built on CACTI latencies (§3), workload capture, the
//! [experiment runner](experiment), and one generator per paper
//! figure/table in [figures].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
pub mod deploy;
pub mod experiment;
pub mod figures;
pub mod machines;
pub mod network;
pub mod report;
pub mod taxonomy;
pub mod workload;

pub use deploy::{deploy_capture, fig_deploy, DeployPoint};
pub use experiment::{
    grid, run_throughput, Grid, GridRow, InstanceReplay, RunSpec, Sweep, SweepPoint,
};
pub use taxonomy::{Camp, Saturation, WorkloadKind};
pub use workload::{CapturedWorkload, FigScale};
