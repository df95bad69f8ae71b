//! Control-plane and replication messages.
//!
//! Everything that travels between controlets, the coordinator, the shared
//! log, and the DLM is a [`NetMsg`]. Client traffic ([`Request`]/[`Response`])
//! is wrapped in the same envelope so a single transport (and a single DES
//! event type) carries the whole system.

use crate::client::{Request, Response};
use crate::{wire, wire_enum, wire_struct};
use bespokv_types::{
    mode::{Consistency, Topology},
    shardmap::Partitioning,
    ClientId, Duration, Key, Mode, NodeId, RequestId, ShardId, ShardInfo, ShardMap, Value,
    Version,
};
use bytes::{Bytes, BytesMut};

/// One replicated mutation: `value: None` encodes a delete (tombstone).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Target table.
    pub table: String,
    /// Key mutated.
    pub key: Key,
    /// New value, or `None` for a delete.
    pub value: Option<Value>,
    /// Version assigned by the ordering authority.
    pub version: Version,
}

wire_struct!(LogEntry {
    table,
    key,
    value,
    version
});

impl LogEntry {
    /// Approximate wire footprint, for the DES link model.
    pub fn wire_size(&self) -> usize {
        16 + self.table.len()
            + self.key.len()
            + self.value.as_ref().map_or(0, |v| v.len())
    }
}

/// Replication-path messages (controlet <-> controlet).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplMsg {
    /// Asynchronous propagation batch (MS+EC master -> slaves).
    PropBatch {
        /// Shard.
        shard: ShardId,
        /// Epoch.
        epoch: u64,
        /// Sequence number of the first entry in the batch.
        first_seq: u64,
        /// Highest sequence the master has trimmed from its resend buffer.
        /// Everything at or below it was acknowledged by the replica set of
        /// an earlier configuration and is therefore covered by any later
        /// joiner's recovery snapshot; a slave whose cursor is below the
        /// floor fast-forwards to it instead of waiting for entries the
        /// master can no longer send.
        floor: u64,
        /// Remaining deadline budget of the oldest client write in the
        /// batch when it was flushed ([`Duration::ZERO`] = unbounded).
        /// Telemetry for slow-replica diagnosis: committed work is never
        /// dropped mid-replication, but a slave can see how far behind the
        /// clients' patience it is running.
        budget: Duration,
        /// The mutations, in sequence order.
        entries: Vec<LogEntry>,
    },
    /// Cumulative propagation ack (slave -> master).
    PropAck {
        /// Shard.
        shard: ShardId,
        /// Epoch of the propagation stream being acknowledged; the master
        /// ignores acks from a stale epoch (a delayed ack from before a
        /// failover must not mark new-stream entries as replicated).
        epoch: u64,
        /// Highest contiguous sequence applied by the sender.
        upto: u64,
    },
    /// Synchronous peer write (AA+SC, under DLM protection).
    PeerWrite {
        /// Shard.
        shard: ShardId,
        /// Epoch.
        epoch: u64,
        /// Request id the origin is waiting on.
        rid: RequestId,
        /// The mutation.
        entry: LogEntry,
    },
    /// Ack for a [`ReplMsg::PeerWrite`].
    PeerWriteAck {
        /// Shard.
        shard: ShardId,
        /// Request id.
        rid: RequestId,
    },
    /// A client request forwarded controlet-to-controlet (transitions, P2P
    /// topology, and wrong-node redirects that choose to proxy).
    ForwardedReq {
        /// The original request.
        req: Request,
        /// Controlet that should receive the reply and relay it.
        reply_via: NodeId,
    },
    /// Response to a forwarded request, flowing back to the relay.
    ForwardedResp {
        /// The response to relay.
        resp: Response,
    },
    /// Ask a peer datalet for a state snapshot (failover recovery).
    RecoveryReq {
        /// Shard being recovered.
        shard: ShardId,
        /// Stream chunks starting at this position in the snapshot.
        from: u64,
        /// Durable version floor the requester already holds: the source
        /// may skip snapshot entries with `version <= floor` (delta
        /// catch-up after a restart-from-disk). 0 requests everything.
        floor: u64,
    },
    /// One chunk of recovery state.
    RecoveryChunk {
        /// Shard.
        shard: ShardId,
        /// Position of the first entry in this chunk.
        from: u64,
        /// Source-side cursor consumption for this chunk: the requester's
        /// next `from` is `from + advance`. Not `entries.len()` — the
        /// source may have filtered entries below the requester's floor
        /// after consuming them from the snapshot cursor.
        advance: u64,
        /// Entries in this chunk.
        entries: Vec<LogEntry>,
        /// Whether this is the final chunk.
        done: bool,
        /// Replication sequence the snapshot corresponds to.
        snapshot_seq: u64,
    },
    /// Chain replication (MS+SC): writes travelling down the chain, in
    /// version order. The head sends each new write as a one-item batch
    /// and re-pushes whatever is still in flight as one batch after a
    /// retry or a reconfiguration; receivers apply idempotently, so
    /// duplicated or reordered batches are safe.
    ChainPutBatch {
        /// Shard the writes belong to.
        shard: ShardId,
        /// Sender's view of the shard epoch; stale epochs are rejected.
        epoch: u64,
        /// Remaining deadline budget of the oldest write in the batch at
        /// flush time ([`Duration::ZERO`] = unbounded). Telemetry only:
        /// ordered chain work is always completed, but downstream nodes
        /// can observe how much client patience remains.
        budget: Duration,
        /// The coalesced writes, in version order.
        items: Vec<(RequestId, LogEntry)>,
    },
    /// Chain replication (MS+SC): the tail's ack for a whole
    /// [`ReplMsg::ChainPutBatch`], flowing back up the chain.
    ChainAckBatch {
        /// Shard.
        shard: ShardId,
        /// Epoch.
        epoch: u64,
        /// `(rid, version)` pairs the tail durably holds.
        items: Vec<(RequestId, Version)>,
    },
}

wire_enum!(ReplMsg {
    // Tags 0 and 1 are retired (single-write chain put and ack, folded
    // into the batch pair 10/11).
    2 => PropBatch { shard, epoch, first_seq, floor, budget, entries },
    3 => PropAck { shard, epoch, upto },
    4 => PeerWrite { shard, epoch, rid, entry },
    5 => PeerWriteAck { shard, rid },
    6 => ForwardedReq { req, reply_via },
    7 => ForwardedResp { resp },
    8 => RecoveryReq { shard, from, floor },
    9 => RecoveryChunk { shard, from, advance, entries, done, snapshot_seq },
    10 => ChainPutBatch { shard, epoch, budget, items },
    11 => ChainAckBatch { shard, epoch, items },
    // Tag 12 is retired (it carried a write-combiner drain hint). Never
    // reuse a retired tag, so a peer running older code cannot misread a
    // new message.
});

/// Coordinator messages (controlet <-> coordinator, client <-> coordinator).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoordMsg {
    /// Periodic liveness beacon from a controlet (paper: every 5 s).
    Heartbeat {
        /// Reporting node.
        node: NodeId,
        /// Highest replication sequence the node has applied (used to pick
        /// the most up-to-date slave during master election).
        applied: u64,
    },
    /// Request the current shard map.
    GetShardMap,
    /// Full shard-map push (answer to `GetShardMap`, and broadcast on every
    /// reconfiguration).
    ShardMapUpdate {
        /// The authoritative map.
        map: ShardMap,
    },
    /// Direct a controlet to reconfigure one shard (failover or transition).
    Reconfigure {
        /// New shard descriptor (epoch already bumped).
        info: ShardInfo,
    },
    /// Direct a standby controlet to take over `shard` by recovering state
    /// from `source`, then joining with `role_position` in the replica order.
    StartRecovery {
        /// Shard to recover.
        shard: ShardId,
        /// Node to copy state from.
        source: NodeId,
        /// Index this node will occupy in the new replica order.
        role_position: u32,
        /// Shard descriptor after the join completes.
        info: ShardInfo,
    },
    /// A recovering node reports completion to the coordinator.
    RecoveryDone {
        /// Shard recovered.
        shard: ShardId,
        /// The node that finished recovery.
        node: NodeId,
    },
    /// Begin a mode transition for a shard (section V).
    BeginTransition {
        /// Shard to transition.
        shard: ShardId,
        /// Descriptor of the new configuration (new mode, new controlets).
        target: ShardInfo,
    },
    /// A controlet reports that its side of a transition has drained.
    TransitionDrained {
        /// Shard.
        shard: ShardId,
        /// Reporting node.
        node: NodeId,
    },
    /// A freshly (re)started controlet with no shard assignment announces
    /// itself as a standby. Sent on start and re-sent on every heartbeat
    /// until the coordinator assigns it work, so the announcement survives
    /// message loss. The coordinator readmits the node and, if any shard is
    /// under-replicated, immediately directs it to recover.
    StandbyAvailable {
        /// The announcing node.
        node: NodeId,
    },
}

wire_enum!(CoordMsg {
    0 => Heartbeat { node, applied },
    1 => GetShardMap,
    2 => ShardMapUpdate { map },
    3 => Reconfigure { info },
    4 => StartRecovery { shard, source, role_position, info },
    5 => RecoveryDone { shard, node },
    6 => BeginTransition { shard, target },
    7 => TransitionDrained { shard, node },
    8 => StandbyAvailable { node },
});

/// Shared-log messages (controlet <-> shared log; AA+EC ordering).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogMsg {
    /// Append a mutation; the log assigns the global sequence number.
    Append {
        /// Shard (each shard has its own log stream).
        shard: ShardId,
        /// Request the origin is waiting on.
        rid: RequestId,
        /// The mutation (version filled in by the log's sequencer).
        entry: LogEntry,
    },
    /// Ack: the entry is durable at sequence `seq`.
    AppendAck {
        /// Shard.
        shard: ShardId,
        /// Request id.
        rid: RequestId,
        /// Assigned global sequence (also the entry's version).
        seq: u64,
    },
    /// Fetch entries at/after `from_seq` (asynchronous replica catch-up).
    Fetch {
        /// Shard.
        shard: ShardId,
        /// First sequence wanted.
        from_seq: u64,
        /// Max entries to return.
        max: u32,
    },
    /// Batch of log entries.
    FetchResp {
        /// Shard.
        shard: ShardId,
        /// Sequence of the first returned entry.
        first_seq: u64,
        /// Entries, contiguous from `first_seq`.
        entries: Vec<LogEntry>,
        /// Current log tail (next sequence to be assigned).
        tail_seq: u64,
    },
    /// Trim the log up to `upto` (all replicas have applied it).
    Trim {
        /// Shard.
        shard: ShardId,
        /// Sequence below which entries may be discarded.
        upto: u64,
    },
}

wire_enum!(LogMsg {
    0 => Append { shard, rid, entry },
    1 => AppendAck { shard, rid, seq },
    2 => Fetch { shard, from_seq, max },
    3 => FetchResp { shard, first_seq, entries, tail_seq },
    4 => Trim { shard, upto },
});

/// Lock mode for the DLM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

wire_enum!(LockMode {
    0 => Shared,
    1 => Exclusive,
});

/// DLM messages (controlet <-> lock manager; AA+SC serialization).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DlmMsg {
    /// Acquire a lock on `key`.
    Lock {
        /// Key to lock.
        key: Key,
        /// Requesting node.
        owner: NodeId,
        /// Request the owner is waiting on.
        rid: RequestId,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Lock granted, with a lease and a fencing token.
    Granted {
        /// Key locked.
        key: Key,
        /// Request id.
        rid: RequestId,
        /// Lease duration; the DLM auto-releases after this (paper: locks
        /// are released after a configurable period to guarantee deadlock
        /// freedom).
        lease: Duration,
        /// Monotonic fencing token; stale holders are rejected.
        fencing: u64,
    },
    /// Lock denied (queue full / fast-fail configuration).
    Denied {
        /// Key.
        key: Key,
        /// Request id.
        rid: RequestId,
    },
    /// Release a held lock.
    Unlock {
        /// Key to unlock.
        key: Key,
        /// Releasing node.
        owner: NodeId,
        /// Fencing token returned at grant time.
        fencing: u64,
    },
}

wire_enum!(DlmMsg {
    0 => Lock { key, owner, rid, mode },
    1 => Granted { key, rid, lease, fencing },
    2 => Denied { key, rid },
    3 => Unlock { key, owner, fencing },
});

/// The single envelope carried by every transport in the workspace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetMsg {
    /// Client -> controlet request.
    Client(Request),
    /// Controlet -> client response.
    ClientResp(Response),
    /// Controlet <-> controlet replication traffic.
    Repl(ReplMsg),
    /// Coordinator traffic.
    Coord(CoordMsg),
    /// Shared-log traffic.
    Log(LogMsg),
    /// DLM traffic.
    Dlm(DlmMsg),
}

wire_enum!(NetMsg {
    0 => Client(req),
    1 => ClientResp(resp),
    2 => Repl(m),
    3 => Coord(m),
    4 => Log(m),
    5 => Dlm(m),
});

impl NetMsg {
    /// Approximate serialized size in bytes, used by the simulator's link
    /// model (bandwidth/latency). Cheap analytic estimate — we avoid
    /// actually encoding in the DES hot loop.
    pub fn wire_size(&self) -> usize {
        const HDR: usize = 24; // envelope + framing + ids
        match self {
            NetMsg::Client(r) => HDR + request_size(r),
            NetMsg::ClientResp(r) => HDR + response_size(r),
            NetMsg::Repl(m) => {
                HDR + match m {
                    ReplMsg::PeerWrite { entry, .. } => entry.wire_size(),
                    ReplMsg::PropAck { .. }
                    | ReplMsg::PeerWriteAck { .. }
                    | ReplMsg::RecoveryReq { .. } => 8,
                    ReplMsg::PropBatch { entries, .. }
                    | ReplMsg::RecoveryChunk { entries, .. } => {
                        entries.iter().map(LogEntry::wire_size).sum::<usize>() + 16
                    }
                    ReplMsg::ChainPutBatch { items, .. } => {
                        items.iter().map(|(_, e)| e.wire_size() + 8).sum::<usize>() + 16
                    }
                    ReplMsg::ChainAckBatch { items, .. } => 16 * items.len() + 16,
                    ReplMsg::ForwardedReq { req, .. } => request_size(req),
                    ReplMsg::ForwardedResp { resp } => response_size(resp),
                }
            }
            NetMsg::Coord(m) => {
                HDR + match m {
                    CoordMsg::ShardMapUpdate { map } => 32 * map.num_shards() + 16,
                    CoordMsg::Reconfigure { info } | CoordMsg::StartRecovery { info, .. } => {
                        16 + 4 * info.replicas.len()
                    }
                    CoordMsg::BeginTransition { target, .. } => 16 + 4 * target.replicas.len(),
                    _ => 16,
                }
            }
            NetMsg::Log(m) => {
                HDR + match m {
                    LogMsg::Append { entry, .. } => entry.wire_size(),
                    LogMsg::FetchResp { entries, .. } => {
                        entries.iter().map(LogEntry::wire_size).sum::<usize>() + 16
                    }
                    _ => 16,
                }
            }
            NetMsg::Dlm(m) => {
                HDR + match m {
                    DlmMsg::Lock { key, .. }
                    | DlmMsg::Granted { key, .. }
                    | DlmMsg::Denied { key, .. }
                    | DlmMsg::Unlock { key, .. } => key.len() + 16,
                }
            }
        }
    }
}

fn request_size(r: &Request) -> usize {
    let op = match &r.op {
        crate::client::Op::Put { key, value } => key.len() + value.len(),
        crate::client::Op::Get { key } | crate::client::Op::Del { key } => key.len(),
        crate::client::Op::Scan { start, end, .. } => start.len() + end.len() + 4,
        crate::client::Op::CreateTable { name } | crate::client::Op::DeleteTable { name } => {
            name.len()
        }
    };
    12 + r.table.len() + op
}

fn response_size(r: &Response) -> usize {
    12 + match &r.result {
        Ok(crate::client::RespBody::Done) => 1,
        Ok(crate::client::RespBody::Value(v)) => v.value.len() + 8,
        Ok(crate::client::RespBody::Entries(es)) => es
            .iter()
            .map(|(k, v)| k.len() + v.value.len() + 8)
            .sum::<usize>(),
        Err(_) => 16,
    }
}

// --- Wire impls for foreign metadata types ----------------------------------

impl wire::Encode for Topology {
    fn encode(&self, buf: &mut BytesMut) {
        (matches!(self, Topology::ActiveActive) as u8).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl wire::Decode for Topology {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Topology::MasterSlave),
            1 => Ok(Topology::ActiveActive),
            n => Err(wire::DecodeError(format!("invalid topology {n}"))),
        }
    }
}

impl wire::Encode for Consistency {
    fn encode(&self, buf: &mut BytesMut) {
        (matches!(self, Consistency::Eventual) as u8).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl wire::Decode for Consistency {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Consistency::Strong),
            1 => Ok(Consistency::Eventual),
            n => Err(wire::DecodeError(format!("invalid consistency {n}"))),
        }
    }
}

impl wire::Encode for Mode {
    fn encode(&self, buf: &mut BytesMut) {
        self.topology.encode(buf);
        self.consistency.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.topology.encoded_len() + self.consistency.encoded_len()
    }
}

impl wire::Decode for Mode {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        Ok(Mode {
            topology: Topology::decode(buf)?,
            consistency: Consistency::decode(buf)?,
        })
    }
}

impl wire::Encode for Partitioning {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Partitioning::ConsistentHash { vnodes } => {
                0u8.encode(buf);
                vnodes.encode(buf);
            }
            Partitioning::Range { split_points } => {
                1u8.encode(buf);
                split_points.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            Partitioning::ConsistentHash { vnodes } => 1 + vnodes.encoded_len(),
            Partitioning::Range { split_points } => 1 + split_points.encoded_len(),
        }
    }
}

impl wire::Decode for Partitioning {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Partitioning::ConsistentHash {
                vnodes: u32::decode(buf)?,
            }),
            1 => Ok(Partitioning::Range {
                split_points: Vec::decode(buf)?,
            }),
            n => Err(wire::DecodeError(format!("invalid partitioning {n}"))),
        }
    }
}

impl wire::Encode for ShardInfo {
    fn encode(&self, buf: &mut BytesMut) {
        self.shard.encode(buf);
        self.mode.encode(buf);
        self.replicas.encode(buf);
        self.epoch.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.shard.encoded_len()
            + self.mode.encoded_len()
            + self.replicas.encoded_len()
            + self.epoch.encoded_len()
    }
}

impl wire::Decode for ShardInfo {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        Ok(ShardInfo {
            shard: ShardId::decode(buf)?,
            mode: Mode::decode(buf)?,
            replicas: Vec::decode(buf)?,
            epoch: u64::decode(buf)?,
        })
    }
}

impl wire::Encode for ShardMap {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.partitioning.encode(buf);
        self.shards.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len()
            + self.partitioning.encoded_len()
            + self.shards.encoded_len()
    }
}

impl wire::Decode for ShardMap {
    fn decode(buf: &mut Bytes) -> wire::DecodeResult<Self> {
        Ok(ShardMap {
            epoch: u64::decode(buf)?,
            partitioning: Partitioning::decode(buf)?,
            shards: Vec::decode(buf)?,
        })
    }
}

// ClientId appears in messages only through RequestId composition today, but
// keep the symmetry for extensions.
const _: fn() = || {
    fn assert_wire<T: wire::Encode + wire::Decode>() {}
    assert_wire::<ClientId>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Op;
    use crate::wire::{Decode, Encode};
    use bespokv_types::ClientId;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    fn entry() -> LogEntry {
        LogEntry {
            table: "t".into(),
            key: Key::from("k1"),
            value: Some(Value::from("v1")),
            version: 42,
        }
    }

    fn rid() -> RequestId {
        RequestId::compose(ClientId(1), 7)
    }

    #[test]
    fn repl_messages_roundtrip() {
        roundtrip(ReplMsg::PropBatch {
            shard: ShardId(1),
            epoch: 0,
            first_seq: 10,
            floor: 4,
            budget: Duration::from_millis(75),
            entries: vec![entry(), entry()],
        });
        roundtrip(ReplMsg::RecoveryReq {
            shard: ShardId(2),
            from: 64,
            floor: 17,
        });
        roundtrip(ReplMsg::RecoveryChunk {
            shard: ShardId(1),
            from: 0,
            advance: 3,
            entries: vec![entry()],
            done: true,
            snapshot_seq: 100,
        });
        roundtrip(ReplMsg::ForwardedReq {
            req: Request::new(rid(), Op::Get { key: Key::from("k") }),
            reply_via: NodeId(2),
        });
    }

    #[test]
    fn chain_batch_messages_roundtrip() {
        roundtrip(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 5,
            budget: Duration::from_millis(40),
            items: vec![(rid(), entry()), (RequestId::compose(ClientId(2), 9), entry())],
        });
        roundtrip(ReplMsg::ChainPutBatch {
            shard: ShardId(3),
            epoch: 0,
            budget: Duration::ZERO,
            items: Vec::new(),
        });
        roundtrip(ReplMsg::ChainAckBatch {
            shard: ShardId(0),
            epoch: 5,
            items: vec![(rid(), 42), (RequestId::compose(ClientId(2), 9), 43)],
        });
    }

    #[test]
    fn retired_repl_tags_do_not_decode() {
        for tag in [0u8, 1, 12] {
            assert!(ReplMsg::from_bytes(vec![tag]).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn chain_batch_wire_size_tracks_payload() {
        let one = NetMsg::Repl(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 1,
            budget: Duration::ZERO,
            items: vec![(rid(), entry())],
        });
        let many = NetMsg::Repl(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 1,
            budget: Duration::ZERO,
            items: (0..32).map(|_| (rid(), entry())).collect(),
        });
        // 31 extra items, each at least one entry's footprint.
        assert!(many.wire_size() >= one.wire_size() + 31 * entry().wire_size());
    }

    #[test]
    fn coord_messages_roundtrip() {
        let map = ShardMap::dense(
            2,
            3,
            Mode::AA_EC,
            Partitioning::ConsistentHash { vnodes: 16 },
        );
        roundtrip(CoordMsg::Heartbeat {
            node: NodeId(4),
            applied: 99,
        });
        roundtrip(CoordMsg::GetShardMap);
        roundtrip(CoordMsg::ShardMapUpdate { map: map.clone() });
        roundtrip(CoordMsg::StartRecovery {
            shard: ShardId(1),
            source: NodeId(5),
            role_position: 2,
            info: map.shards[1].clone(),
        });
    }

    #[test]
    fn log_and_dlm_messages_roundtrip() {
        roundtrip(LogMsg::Append {
            shard: ShardId(0),
            rid: rid(),
            entry: entry(),
        });
        roundtrip(LogMsg::FetchResp {
            shard: ShardId(0),
            first_seq: 5,
            entries: vec![entry()],
            tail_seq: 6,
        });
        roundtrip(DlmMsg::Lock {
            key: Key::from("k"),
            owner: NodeId(1),
            rid: rid(),
            mode: LockMode::Exclusive,
        });
        roundtrip(DlmMsg::Granted {
            key: Key::from("k"),
            rid: rid(),
            lease: Duration::from_millis(500),
            fencing: 12,
        });
    }

    #[test]
    fn netmsg_envelope_roundtrip() {
        roundtrip(NetMsg::Client(Request::new(
            rid(),
            Op::Put {
                key: Key::from("k"),
                value: Value::from("v"),
            },
        )));
        roundtrip(NetMsg::Repl(ReplMsg::PropAck {
            shard: ShardId(0),
            epoch: 2,
            upto: 3,
        }));
        roundtrip(NetMsg::Coord(CoordMsg::GetShardMap));
        roundtrip(NetMsg::Coord(CoordMsg::StandbyAvailable { node: NodeId(6) }));
    }

    #[test]
    fn range_partitioning_roundtrip() {
        roundtrip(Partitioning::Range {
            split_points: vec![Key::from("h"), Key::from("p")],
        });
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = NetMsg::Client(Request::new(rid(), Op::Get { key: Key::from("k") }));
        let big = NetMsg::Client(Request::new(
            rid(),
            Op::Put {
                key: Key::from("k"),
                value: Value::from(vec![0u8; 4096]),
            },
        ));
        assert!(big.wire_size() > small.wire_size() + 4000);
    }

    #[test]
    fn tombstone_entry_roundtrip() {
        roundtrip(LogEntry {
            table: String::new(),
            key: Key::from("gone"),
            value: None,
            version: 7,
        });
    }
}
