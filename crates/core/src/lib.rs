//! # bespoKV — application-tailored scale-out key-value stores
//!
//! A Rust reproduction of *"BESPOKV: Application Tailored Scale-Out
//! Key-Value Stores"* (SC 2018). bespoKV takes a single-server KV store (a
//! *datalet*, crate `bespokv-datalet`) and transparently turns it into a
//! scalable, fault-tolerant distributed store by composing it with a
//! control plane:
//!
//! * [`controlet`] — the per-node control-plane proxy implementing the
//!   four pre-built (topology, consistency) modes: MS+SC via chain
//!   replication, MS+EC via asynchronous propagation, AA+SC via the DLM,
//!   and AA+EC via the shared log — plus failover recovery and on-the-fly
//!   mode transitions.
//! * [`client`] — the client library: map caching, role-aware routing,
//!   per-request consistency, scatter-gather range queries, transparent
//!   retries.
//! * [`config`] — the JSON control-plane configuration and the datalet
//!   host-file format from the paper's artifact appendix.
//!
//! Assembly of whole clusters (coordinator + controlets + services +
//! clients, on the simulator or live threads) lives in `bespokv-cluster`;
//! see the `examples/` directory for end-to-end usage.

pub mod client;
pub mod config;
pub mod controlet;
pub mod serving;

pub use client::{ClientCore, Completion};
pub use config::{parse_datalet_hosts, ControlPlaneConfig, DataletHost};
pub use controlet::{Controlet, ControletConfig, RecoveredLocal};
pub use serving::{DirtySet, ReadPermit, ServingState};
