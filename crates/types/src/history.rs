//! Operation-history capture for the consistency oracle.
//!
//! Clients tag every point operation with their client id plus invocation
//! and response timestamps (virtual sim-clock [`Instant`]s), and controlets
//! tag every datalet apply. Both streams land in a shared
//! [`HistoryRecorder`]; after a run the checker crate replays them to decide
//! whether the cluster actually delivered its advertised guarantee
//! (linearizability under SC, convergence + session guarantees under EC).
//!
//! The recorder lives in the leaf types crate so that `core` (clients,
//! controlets) and `cluster` (the harness) can share it without a dependency
//! cycle. It uses a plain `std::sync::Mutex` — recording is test-only
//! plumbing, never on a measured hot path.

use crate::ids::{ClientId, NodeId, ShardId};
use crate::kv::{Key, Value, VersionedValue};
use crate::mode::ConsistencyLevel;
use crate::time::Instant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The operation a client invoked, as far as the checker cares.
///
/// Scans and table DDL are not recorded: the oracle models each key as an
/// independent register (Wing & Gill partitioning), which multi-key reads
/// would break.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryOp {
    /// Write `key := value`.
    Put {
        /// Target key.
        key: Key,
        /// Written payload.
        value: Value,
    },
    /// Read of `key`.
    Get {
        /// Target key.
        key: Key,
    },
    /// Delete of `key` (a write of "absent").
    Del {
        /// Target key.
        key: Key,
    },
}

impl HistoryOp {
    /// The key this operation touches.
    pub fn key(&self) -> &Key {
        match self {
            HistoryOp::Put { key, .. } | HistoryOp::Get { key } | HistoryOp::Del { key } => key,
        }
    }

    /// Whether the operation mutates state.
    pub fn is_write(&self) -> bool {
        !matches!(self, HistoryOp::Get { .. })
    }
}

/// How the invocation ended, from the client's point of view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryOutcome {
    /// The operation was acknowledged. For reads, carries the observed
    /// value (`None` = key absent); for writes, `value` is `None`.
    Ok {
        /// Observed value for reads (with the server-assigned version),
        /// `None` for writes and for reads of an absent key.
        value: Option<VersionedValue>,
    },
    /// The operation failed with an error that proves it was never applied
    /// anywhere. Failed reads carry no information; the checker drops them.
    Fail,
    /// The client gave up (timeout, node unreachable after retries) but an
    /// earlier attempt may still have been applied server-side. The checker
    /// must treat such writes as optional: free to linearize at any point
    /// after invocation, or never.
    Ambiguous,
}

/// One completed client operation: invocation/response interval + outcome.
///
/// Real-time precedence is expressed with *logical ticks* from the
/// recorder's global counter, not wall/virtual-clock timestamps: the sim
/// frequently completes one op and invokes the next inside the same event
/// (identical `Instant`), which would force the checker to treat
/// program-ordered ops as concurrent. Ticks are drawn at invocation
/// ([`HistoryRecorder::tick`]) and at completion ([`HistoryRecorder::record`]),
/// so `a.seq < b.inv_tick` holds exactly when `a` truly completed before
/// `b` was issued in the single-threaded simulation execution order.
#[derive(Clone, Debug)]
pub struct HistoryEvent {
    /// Issuing client.
    pub client: ClientId,
    /// Completion tick, assigned by the recorder at [`HistoryRecorder::record`]
    /// time. Doubles as the response point of the operation's interval.
    pub seq: u64,
    /// Invocation tick, drawn from [`HistoryRecorder::tick`] when the client
    /// issued the operation.
    pub inv_tick: u64,
    /// The operation.
    pub op: HistoryOp,
    /// Requested consistency level.
    pub level: ConsistencyLevel,
    /// When the client issued the operation (virtual clock; informational).
    pub invoked_at: Instant,
    /// When the client observed the response (virtual clock; informational).
    pub completed_at: Instant,
    /// Result as seen by the client.
    pub outcome: HistoryOutcome,
}

/// One write applied to a datalet, recorded at the controlet's single
/// apply chokepoint. `value: None` is a tombstone. The checker uses these
/// to anchor read-your-writes checks (mapping acked values to the version
/// the ordering authority assigned them).
#[derive(Clone, Debug)]
pub struct ApplyEvent {
    /// Node whose datalet applied the write.
    pub node: NodeId,
    /// Shard the write belongs to.
    pub shard: ShardId,
    /// Table name (empty = default table).
    pub table: String,
    /// Key written.
    pub key: Key,
    /// New value, or `None` for a delete.
    pub value: Option<Value>,
    /// Version assigned by the ordering authority.
    pub version: crate::kv::Version,
    /// Virtual time of the apply.
    pub at: Instant,
}

/// Shared, cloneable sink for history events. All clones append to the same
/// underlying log; [`HistoryRecorder::events`] and
/// [`HistoryRecorder::applies`] snapshot it for checking.
#[derive(Clone, Debug, Default)]
pub struct HistoryRecorder {
    inner: Arc<RecorderInner>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    clock: AtomicU64,
    events: Mutex<Vec<HistoryEvent>>,
    applies: Mutex<Vec<ApplyEvent>>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next logical tick. Clients call this at invocation time and
    /// store the result in [`HistoryEvent::inv_tick`].
    pub fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a completed client operation. The recorder assigns `seq`
    /// (the completion tick) from the same logical clock as [`Self::tick`].
    pub fn record(&self, mut ev: HistoryEvent) {
        ev.seq = self.tick();
        self.inner.events.lock().expect("history lock").push(ev);
    }

    /// Records a datalet apply.
    pub fn record_apply(&self, ev: ApplyEvent) {
        self.inner.applies.lock().expect("history lock").push(ev);
    }

    /// Snapshot of all client events so far, sorted by invocation tick.
    pub fn events(&self) -> Vec<HistoryEvent> {
        let mut evs = self.inner.events.lock().expect("history lock").clone();
        evs.sort_by_key(|e| e.inv_tick);
        evs
    }

    /// Snapshot of all apply events so far, in record order.
    pub fn applies(&self) -> Vec<ApplyEvent> {
        self.inner.applies.lock().expect("history lock").clone()
    }

    /// Number of client events recorded.
    pub fn len(&self) -> usize {
        self.inner.events.lock().expect("history lock").len()
    }

    /// Whether no client events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: u32, key: &str, inv_tick: u64) -> HistoryEvent {
        HistoryEvent {
            client: ClientId(client),
            seq: 0,
            inv_tick,
            op: HistoryOp::Get { key: Key::from(key) },
            level: ConsistencyLevel::Default,
            invoked_at: Instant(inv_tick),
            completed_at: Instant(inv_tick + 1),
            outcome: HistoryOutcome::Ok { value: None },
        }
    }

    #[test]
    fn recorder_assigns_monotonic_ticks_and_sorts_by_invocation() {
        let rec = HistoryRecorder::new();
        let t0 = rec.tick();
        let t1 = rec.tick();
        assert!(t1 > t0);
        rec.record(ev(1, "b", t1));
        rec.record(ev(2, "a", t0));
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].inv_tick, t0);
        assert_eq!(evs[1].inv_tick, t1);
        // Completion ticks come from the same clock, after both invocations.
        assert!(evs[0].seq > t1 && evs[1].seq > t1);
    }

    #[test]
    fn clones_share_the_same_log() {
        let rec = HistoryRecorder::new();
        let other = rec.clone();
        other.record(ev(1, "k", 5));
        assert_eq!(rec.len(), 1);
        rec.record_apply(ApplyEvent {
            node: NodeId(0),
            shard: ShardId(0),
            table: String::new(),
            key: Key::from("k"),
            value: Some(Value::from("v")),
            version: 1,
            at: Instant(5),
        });
        assert_eq!(other.applies().len(), 1);
    }

    #[test]
    fn op_key_and_write_classification() {
        let put = HistoryOp::Put {
            key: Key::from("k"),
            value: Value::from("v"),
        };
        let get = HistoryOp::Get { key: Key::from("k") };
        let del = HistoryOp::Del { key: Key::from("k") };
        assert!(put.is_write());
        assert!(del.is_write());
        assert!(!get.is_write());
        assert_eq!(get.key(), &Key::from("k"));
    }
}
