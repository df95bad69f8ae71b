//! Cluster assembly and measurement harness for bespoKV.
//!
//! Stands up whole deployments — controlets over datalets, coordinator,
//! DLM, shared log, standbys, closed-loop clients — on the deterministic
//! discrete-event simulator, and measures them: throughput, latency
//! distributions, and timelines through failovers and mode transitions.
//! Every figure of the paper's evaluation is driven through this crate
//! (see `bespokv-bench`).

mod assembly;
pub mod builder;
pub mod client_actor;
pub mod edge;
pub mod live_builder;
pub mod metrics;
pub mod script;

pub use builder::{cost_for, ClusterSpec, DurabilityConfig, SimCluster};
pub use edge::{FastPathHandle, FastPathTable, NodeEdge, SkewState, WriteSubmit};
pub use live_builder::LiveCluster;
pub use client_actor::{ClientStats, OpSource, WorkloadClient};
pub use metrics::{EdgeStats, LatencyHistogram, RunStats, Timeline};
pub use script::{ScriptClient, Step};
