//! Core vocabulary for the bespoKV workspace.
//!
//! This crate defines the types shared by every layer of the framework:
//! identifiers for nodes, shards and requests; key/value payloads; the
//! topology/consistency mode lattice from the paper (MS/AA x SC/EC); error
//! types; and the virtual/real time representation used by both the
//! discrete-event simulator and the live runtime.
//!
//! Keeping these in a leaf crate lets the data plane (datalets), the control
//! plane (controlets, coordinator) and the measurement harness agree on a
//! wire-level vocabulary without depending on each other.

pub mod error;
pub mod history;
pub mod ids;
pub mod kv;
pub mod mode;
pub mod overload;
pub mod shardmap;
pub mod skew;
pub mod time;

pub use error::{KvError, KvResult};
pub use history::{ApplyEvent, HistoryEvent, HistoryOp, HistoryOutcome, HistoryRecorder};
pub use ids::{ClientId, NodeId, RequestId, ShardId};
pub use kv::{Key, Value, Version, VersionedValue};
pub use mode::{Consistency, ConsistencyLevel, Mode, Topology};
pub use overload::{OverloadConfig, OverloadCounters, OverloadSnapshot, MAILBOX_CAP};
pub use shardmap::{Partitioning, ShardInfo, ShardMap};
pub use skew::{KeySketch, SkewConfig, SkewCounters, SkewSnapshot};
pub use time::{Duration, Instant};
