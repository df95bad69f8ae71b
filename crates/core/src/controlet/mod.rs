//! The controlet: bespoKV's per-node control-plane proxy.
//!
//! A controlet pairs with one datalet and gives it distributed behaviour:
//! it terminates client requests, enforces the shard's topology +
//! consistency mode, replicates writes to its peers, participates in
//! failover, and (during a mode transition) drains and forwards traffic to
//! its successor. The four pre-built modes of the paper are implemented in
//! [`modes`]; recovery and transitions live in [`maintenance`].
//!
//! One controlet serves one shard (the paper's default one-to-one
//! controlet-datalet mapping).

pub mod maintenance;
pub mod modes;

#[cfg(test)]
mod tests;

use bespokv_datalet::Datalet;
use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::{CoordMsg, LogEntry, NetMsg, ReplMsg};
use bespokv_runtime::{Actor, Addr, Context, CostModel, Event};
use bespokv_types::{
    Consistency, Duration, KvError, NodeId, OverloadConfig, OverloadCounters, RequestId, ShardId,
    ShardInfo, Topology, Version,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Timer tokens.
pub(crate) const HEARTBEAT_TIMER: u64 = 1;
pub(crate) const PROP_FLUSH_TIMER: u64 = 2;
pub(crate) const LOG_POLL_TIMER: u64 = 3;
pub(crate) const RECOVERY_RETRY_TIMER: u64 = 4;

/// Heartbeat period. It also paces the recovery-retry timer.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(250);

/// MS+EC asynchronous propagation flush period. Throughput is flat from
/// 0.5 ms to 32 ms (EXPERIMENTS.md, "Ablations"), and an ack-clocked send
/// instead of the timer cost 20–34 % more CPU per op.
pub(crate) const PROP_FLUSH_EVERY: Duration = Duration::from_millis(2);

/// AA+EC shared-log poll period.
pub(crate) const LOG_POLL_EVERY: Duration = Duration::from_millis(2);

/// Map refresh cadence: every Nth heartbeat a serving controlet re-pulls
/// the shard map, so a dropped `ShardMapUpdate` broadcast heals itself.
pub(crate) const MAP_REFRESH_BEATS: u64 = 4;

/// Entries per recovery chunk.
pub(crate) const RECOVERY_CHUNK: usize = 512;

/// Static controlet deployment parameters.
#[derive(Clone, Debug)]
pub struct ControletConfig {
    /// This node's identity (its runtime address is `Addr(node.raw())`).
    pub node: NodeId,
    /// The shard this controlet serves.
    pub shard: ShardId,
    /// Coordinator address.
    pub coordinator: Addr,
    /// DLM address (required for AA+SC).
    pub dlm: Option<Addr>,
    /// Shared-log address (required for AA+EC).
    pub shared_log: Option<Addr>,
    /// Simulated CPU cost of datalet operations (ignored by the live
    /// driver).
    pub cost: CostModel,
    /// P2P-style routing (section IV-E): a request for a key this shard
    /// does not own is forwarded to the owning controlet instead of being
    /// rejected with `WrongNode`. Clients may then send requests to *any*
    /// controlet.
    pub p2p_forwarding: bool,
    /// Consistency-oracle sink: when set, every datalet apply is recorded
    /// (test harness plumbing; `None` in production configurations).
    pub recorder: Option<bespokv_types::HistoryRecorder>,
    /// Overload-protection knobs (deadline expiry, chain head window,
    /// MS+EC propagation watermarks).
    pub overload: OverloadConfig,
    /// Shed/expiry/containment counters, shared with the edges and the
    /// measurement harness of the cluster this controlet belongs to.
    pub counters: Arc<OverloadCounters>,
    /// Durable state this node replayed from local disk before starting
    /// (restart-from-disk). When the coordinator assigns the node back to
    /// the same shard, recovery advertises the floor so the source sends
    /// only the delta above it instead of a full snapshot.
    pub recovered: Option<RecoveredLocal>,
}

/// What a restarted node salvaged from its local durable engine.
#[derive(Clone, Copy, Debug)]
pub struct RecoveredLocal {
    /// Shard the durable state belongs to.
    pub shard: ShardId,
    /// Sound delta floor: every write with `version <= floor` is already
    /// applied locally. 0 means "nothing certain" (full snapshot). Only
    /// honored for master-slave topologies, where log order tracks
    /// version order; active-active version sources make any non-zero
    /// floor unsound, so callers must pass 0 there.
    pub floor: u64,
}

impl ControletConfig {
    /// Reasonable defaults for tests and examples.
    pub fn new(node: NodeId, shard: ShardId, coordinator: Addr) -> Self {
        ControletConfig {
            node,
            shard,
            coordinator,
            dlm: None,
            shared_log: None,
            cost: CostModel::tht(),
            p2p_forwarding: false,
            recorder: None,
            overload: OverloadConfig::default(),
            counters: Arc::new(OverloadCounters::new()),
            recovered: None,
        }
    }
}

/// Completed-write reply cache capacity. Only needs to outlive a client's
/// retry window (a handful of seconds), so a small bound suffices.
const REPLY_CACHE_CAP: usize = 1024;

/// Reply cache for completed writes: a client retry of a write already
/// acked is answered from here, never executed again — a re-execution
/// would commit the same payload under a fresh version and resurrect it
/// over writes that landed in between.
#[derive(Debug, Default)]
pub(crate) struct ReplyCache {
    map: HashMap<RequestId, Response>,
    order: VecDeque<RequestId>,
}

impl ReplyCache {
    /// The cached reply for a completed write, if any.
    pub(crate) fn get(&self, rid: RequestId) -> Option<Response> {
        self.map.get(&rid).cloned()
    }

    /// Records a completed write reply (only successful `Done`s are worth
    /// caching; errors are safe to re-derive). The oldest entry is evicted
    /// past [`REPLY_CACHE_CAP`].
    pub(crate) fn record(&mut self, resp: &Response) {
        if !matches!(resp.result, Ok(RespBody::Done)) {
            return;
        }
        if self.map.insert(resp.id, resp.clone()).is_none() {
            self.order.push_back(resp.id);
            if self.order.len() > REPLY_CACHE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// A client request the controlet has not yet answered.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Where the eventual [`Response`] goes.
    pub reply: ReplyPath,
    /// The original request (needed when completion happens in a later
    /// event, e.g. after a lock grant or an append ack).
    pub req: Request,
    /// Peers whose acknowledgement is still outstanding (AA+SC fan-out).
    /// Tracked per peer, not as a counter: a duplicated `PeerWriteAck`
    /// (retry, fault injection) must not count twice and ack the client
    /// while another peer has not applied the write.
    pub awaiting: std::collections::HashSet<NodeId>,
    /// Fencing token held (AA+SC), doubling as the write version.
    pub fencing: u64,
}

/// How to deliver a response: directly to a client connection, or back
/// through the controlet that forwarded the request (P2P routing, or a
/// transition's writes).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ReplyPath {
    /// Reply straight to this address.
    Client(Addr),
    /// Wrap in [`ReplMsg::ForwardedResp`] and send to this relay.
    Relay(Addr),
}

/// MS+EC asynchronous propagation state (master side).
#[derive(Debug, Default)]
pub(crate) struct PropState {
    /// Unacknowledged entries, keyed by contiguous propagation sequence.
    pub buffer: BTreeMap<u64, LogEntry>,
    /// Next propagation sequence to assign.
    pub next_seq: u64,
    /// Cumulative ack per slave.
    pub acked: HashMap<NodeId, u64>,
    /// Highest sequence dropped from `buffer`: every current slave at trim
    /// time had acknowledged it. Sent as the batch floor so later joiners
    /// (whose snapshot covers the trimmed prefix) can fast-forward.
    pub trimmed_upto: u64,
}

impl PropState {
    pub(crate) fn new() -> Self {
        PropState {
            buffer: BTreeMap::new(),
            next_seq: 1,
            acked: HashMap::new(),
            trimmed_upto: 0,
        }
    }

    /// Lowest sequence every slave has acknowledged.
    pub(crate) fn min_acked(&self, slaves: &[NodeId]) -> u64 {
        slaves
            .iter()
            .map(|s| self.acked.get(s).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.next_seq.saturating_sub(1))
    }

    /// Drops entries every slave has.
    pub(crate) fn trim(&mut self, slaves: &[NodeId]) {
        let upto = self.min_acked(slaves);
        self.trimmed_upto = self.trimmed_upto.max(upto);
        self.buffer.retain(|&seq, _| seq > upto);
    }
}

/// AA+EC shared-log consumption state.
#[derive(Debug)]
pub(crate) struct LogState {
    /// Next log sequence to fetch.
    pub fetch_pos: u64,
}

/// A strong read parked until this replica catches up with the shared log
/// (AA+EC per-request consistency upgrade).
#[derive(Debug)]
pub(crate) struct ParkedRead {
    pub req: bespokv_proto::client::Request,
    pub reply: ReplyPath,
    /// Log sequence this read must observe; `None` until the first fetch
    /// response reveals the tail.
    pub target: Option<u64>,
}

/// State while this node recovers a shard from a peer (standby takeover).
#[derive(Debug)]
pub(crate) struct RecoveryState {
    pub source: NodeId,
    pub next_from: u64,
    /// Configuration this node will serve once recovered.
    pub info: ShardInfo,
    /// `Some(floor)` marks a self-initiated watermark resync by an
    /// established MS+EC slave: on completion the propagation cursor
    /// resumes at `floor` (everything at or below it is in the snapshot,
    /// since the source *is* the stream master) and no `RecoveryDone` is
    /// reported — the coordinator ignores "done" from an existing replica,
    /// so reporting would leave `pending_recovery_done` armed forever and
    /// disable the floor-jump guard that makes forced trims safe.
    /// `None` is a coordinator-directed join (`StartRecovery`): report
    /// done, and restart the cursor from nothing because the snapshot's
    /// numbering belongs to the source's stream, not necessarily the one
    /// the current master sends.
    pub resync_floor: Option<u64>,
    /// Durable version floor advertised to the source with every
    /// `RecoveryReq`: entries at or below it are already applied locally
    /// (replayed from disk), so the source may filter them out. 0 for
    /// ordinary full-snapshot joins and all watermark resyncs.
    pub floor: u64,
}

/// High bit of `RecoveryReq::from` marks a *delta* pull: the requester has
/// finished the snapshot and is draining the source's feed of entries
/// applied concurrently with the stream (low bits = feed cursor).
pub(crate) const RECOVERY_DELTA_FLAG: u64 = 1 << 63;

/// Source-side feed for one in-progress recovery: every entry applied
/// locally while the snapshot streams is recorded here, because the
/// snapshot cursor (a sorted-key index) silently skips keys that sort into
/// the already-streamed prefix. The joiner drains the feed with cursor
/// polls after the snapshot; the feed freezes once this node's map shows
/// the joiner as a replica (from then on normal replication reaches it).
#[derive(Debug, Default)]
pub(crate) struct RecoveryFeed {
    pub entries: Vec<LogEntry>,
}

/// State while this (old) controlet drains during a mode transition.
#[derive(Debug)]
pub(crate) struct TransitionState {
    /// The configuration taking over.
    pub target: ShardInfo,
    /// Whether we already reported drained to the coordinator.
    pub reported: bool,
}

/// The controlet actor.
pub struct Controlet {
    pub(crate) cfg: ControletConfig,
    pub(crate) datalet: Arc<dyn Datalet>,
    /// Current shard configuration; `None` until the first map update or
    /// an explicit bootstrap.
    pub(crate) info: Option<ShardInfo>,
    pub(crate) serving: bool,
    /// Next write version to issue; rebased on every epoch change so
    /// versions stay monotonic across failovers and transitions.
    pub(crate) next_version: Version,
    /// Highest replication sequence applied locally (reported in
    /// heartbeats; used for master election).
    pub(crate) applied_seq: u64,
    pub(crate) pending: HashMap<RequestId, Pending>,
    /// MS+SC: in-flight chain writes not yet acked by the tail.
    pub(crate) in_flight: BTreeMap<Version, (RequestId, LogEntry)>,
    /// Read-fast-path gate published to edge threads (see [`crate::serving`]).
    pub(crate) gate: Arc<crate::serving::ServingState>,
    /// Keys with in-flight chain writes, shared with edge threads so
    /// clean-key strong reads can bypass the actor under MS+SC.
    pub(crate) dirty: Arc<crate::serving::DirtySet>,
    pub(crate) prop: PropState,
    /// Slave-side propagation cursor: highest contiguous propagation
    /// sequence applied, scoped to `prop_epoch`. Duplicated or overlapping
    /// `PropBatch` deliveries below this are skipped; a batch from a newer
    /// epoch *and* a new master (fresh stream numbering) resets it.
    pub(crate) prop_applied: u64,
    pub(crate) prop_epoch: u64,
    /// Sender of the propagation stream `prop_applied` counts against.
    pub(crate) prop_master: Option<Addr>,
    pub(crate) log: LogState,
    pub(crate) parked_reads: Vec<ParkedRead>,
    pub(crate) recovery: Option<RecoveryState>,
    /// Joining side, after the snapshot: (source, feed cursor) for delta
    /// polls covering writes the fuzzy snapshot missed. Cleared when the
    /// source reports the feed drained and this node a member.
    pub(crate) recovery_delta: Option<(NodeId, u64)>,
    /// Source side: one delta feed per in-flight recovery requester.
    pub(crate) recovery_feeds: HashMap<Addr, RecoveryFeed>,
    /// Set after recovery completes until the coordinator's map shows this
    /// node in the replica set; `RecoveryDone` is re-sent on each heartbeat
    /// while set, so a lost completion report cannot wedge the join.
    pub(crate) pending_recovery_done: Option<ShardId>,
    /// Heartbeats sent since start (drives the periodic map re-pull).
    pub(crate) heartbeats_sent: u64,
    pub(crate) transition: Option<TransitionState>,
    /// Whole-cluster map (for ownership checks and P2P forwarding).
    pub(crate) cluster_map: Option<bespokv_types::ShardMap>,
    /// Requests this controlet forwarded to another controlet (P2P
    /// routing, or a transition's writes) whose reply it still owes:
    /// rid -> where that reply goes.
    pub(crate) relayed: HashMap<RequestId, ReplyPath>,
    /// Completed-write replies, for exactly-once across client retries.
    pub(crate) replies: ReplyCache,
}

impl Controlet {
    /// Creates a controlet that learns its configuration from the
    /// coordinator (sends `GetShardMap` at start).
    pub fn new(cfg: ControletConfig, datalet: Arc<dyn Datalet>) -> Self {
        Controlet {
            cfg,
            datalet,
            info: None,
            serving: false,
            next_version: 1,
            applied_seq: 0,
            pending: HashMap::new(),
            in_flight: BTreeMap::new(),
            gate: Arc::new(crate::serving::ServingState::new()),
            dirty: Arc::new(crate::serving::DirtySet::new()),
            prop: PropState::new(),
            prop_applied: 0,
            prop_epoch: 0,
            prop_master: None,
            log: LogState { fetch_pos: 1 },
            parked_reads: Vec::new(),
            recovery: None,
            recovery_delta: None,
            recovery_feeds: HashMap::new(),
            pending_recovery_done: None,
            heartbeats_sent: 0,
            transition: None,
            cluster_map: None,
            relayed: HashMap::new(),
            replies: ReplyCache::default(),
        }
    }

    /// Creates a controlet pre-loaded with its shard configuration
    /// (skips the startup round trip; used by harnesses and benches).
    pub fn with_info(cfg: ControletConfig, datalet: Arc<dyn Datalet>, info: ShardInfo) -> Self {
        let mut c = Self::new(cfg, datalet);
        c.adopt_info(info);
        c.serving = true;
        c.publish_serving();
        c
    }

    /// Seeds the whole-cluster map (ownership checks + P2P forwarding);
    /// later `ShardMapUpdate`s refresh it.
    pub fn with_cluster_map(mut self, map: bespokv_types::ShardMap) -> Self {
        self.cluster_map = Some(map);
        self
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// The wrapped datalet (shared with any co-mapped controlet).
    pub fn datalet(&self) -> &Arc<dyn Datalet> {
        &self.datalet
    }

    /// Current shard configuration, if known.
    pub fn shard_info(&self) -> Option<&ShardInfo> {
        self.info.as_ref()
    }

    /// Whether a transition is draining through this controlet.
    pub fn in_transition(&self) -> bool {
        self.transition.is_some()
    }

    /// The read-fast-path gate this controlet publishes. Edge threads
    /// (TCP workers, harness clients) snapshot it to decide whether a GET
    /// may be served straight from the shared datalet.
    pub fn serving_gate(&self) -> Arc<crate::serving::ServingState> {
        Arc::clone(&self.gate)
    }

    /// The shared dirty-key set (keys with in-flight chain writes).
    pub fn dirty_keys(&self) -> Arc<crate::serving::DirtySet> {
        Arc::clone(&self.dirty)
    }

    /// Whether this node is still catching up on a shard it joined:
    /// pulling the snapshot, or draining the source's delta feed after it.
    /// Either way it may lack a write its peers already acked, so it must
    /// not answer clients yet.
    pub(crate) fn catching_up(&self) -> bool {
        self.recovery.is_some() || self.recovery_delta.is_some()
    }

    /// Recomputes and publishes the fast-path gate word. Must be called
    /// after any change to `serving`, `info`, `recovery`,
    /// `recovery_delta`, or `transition`.
    pub(crate) fn publish_serving(&self) {
        let quiesced = !self.serving || self.catching_up() || self.transition.is_some();
        self.gate.publish(self.info.as_ref(), self.cfg.node, quiesced);
    }

    /// Records a chain write as in flight, marking its key dirty for the
    /// fast path. Idempotent per version (duplicated batches must not
    /// double-count the dirty mark).
    pub(crate) fn track_in_flight(&mut self, version: Version, rid: RequestId, entry: LogEntry) {
        if !self.in_flight.contains_key(&version) {
            self.dirty.mark(&entry.key);
        }
        self.in_flight.insert(version, (rid, entry));
    }

    /// Retires an in-flight chain write, clearing its dirty mark.
    pub(crate) fn untrack_in_flight(
        &mut self,
        version: Version,
    ) -> Option<(RequestId, LogEntry)> {
        let removed = self.in_flight.remove(&version);
        if let Some((_, entry)) = &removed {
            self.dirty.unmark(&entry.key);
        }
        removed
    }

    // --- shared helpers -----------------------------------------------------

    pub(crate) fn addr_of(node: NodeId) -> Addr {
        Addr(node.raw())
    }

    /// Installs a (newer) shard configuration and rebases the version
    /// counter so writes ordered under the new epoch supersede the old:
    /// every version issued afterwards exceeds anything issued under
    /// earlier epochs, and an older epoch never moves it back.
    pub(crate) fn adopt_info(&mut self, info: ShardInfo) {
        self.next_version = self.next_version.max(((info.epoch + 1) << 40) + 1);
        self.info = Some(info);
    }

    pub(crate) fn fresh_version(&mut self) -> Version {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    /// Remaining deadline budget carried on outgoing replication batches:
    /// the tightest remaining deadline among pending client writes, or
    /// `Duration::ZERO` (= unbounded) when none carries a deadline.
    /// Telemetry only — committed replication work is never dropped.
    pub(crate) fn repl_budget(&self, now: bespokv_types::Instant) -> Duration {
        self.pending
            .values()
            .filter(|p| p.req.deadline != bespokv_types::Instant::ZERO)
            .map(|p| p.req.deadline.saturating_since(now))
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// Applies one replicated entry to the local datalet (auto-creating
    /// the table so replication never races table creation).
    pub(crate) fn apply_entry(&mut self, entry: &LogEntry, ctx: &mut Context) {
        // Record into active recovery feeds (fuzzy-snapshot repair): once
        // the requester is a replica in our map, normal replication covers
        // it and its feed freezes where it is.
        if !self.recovery_feeds.is_empty() {
            let info = self.info.clone();
            for (&requester, feed) in self.recovery_feeds.iter_mut() {
                let member = info
                    .as_ref()
                    .map(|i| i.position(NodeId(requester.0)).is_some())
                    .unwrap_or(false);
                if !member {
                    feed.entries.push(entry.clone());
                }
            }
        }
        let _ = self.datalet.create_table(&entry.table);
        let cost = self.cfg.cost.put;
        match &entry.value {
            Some(v) => {
                let _ = self
                    .datalet
                    .put(&entry.table, entry.key.clone(), v.clone(), entry.version);
            }
            None => {
                let _ = self.datalet.del(&entry.table, &entry.key, entry.version);
            }
        }
        if let Some(rec) = &self.cfg.recorder {
            rec.record_apply(bespokv_types::ApplyEvent {
                node: self.cfg.node,
                shard: self.cfg.shard,
                table: entry.table.clone(),
                key: entry.key.clone(),
                value: entry.value.clone(),
                version: entry.version,
                at: ctx.now(),
            });
        }
        ctx.charge(cost);
    }

    /// Builds the replication entry for a client write.
    pub(crate) fn entry_for(req: &Request, version: Version) -> Option<LogEntry> {
        match &req.op {
            Op::Put { key, value } => Some(LogEntry {
                table: req.table.clone(),
                key: key.clone(),
                value: Some(value.clone()),
                version,
            }),
            Op::Del { key } => Some(LogEntry {
                table: req.table.clone(),
                key: key.clone(),
                value: None,
                version,
            }),
            _ => None,
        }
    }

    pub(crate) fn respond(&mut self, reply: ReplyPath, resp: Response, ctx: &mut Context) {
        self.replies.record(&resp);
        self.deliver(reply, resp, ctx);
    }

    /// Sends a response along its reply path, without caching it (a
    /// relayed reply belongs to the controlet that executed the request).
    pub(crate) fn deliver(&self, reply: ReplyPath, resp: Response, ctx: &mut Context) {
        match reply {
            ReplyPath::Client(addr) => ctx.send(addr, NetMsg::ClientResp(resp)),
            ReplyPath::Relay(addr) => {
                ctx.send(addr, NetMsg::Repl(ReplMsg::ForwardedResp { resp }))
            }
        }
    }

    pub(crate) fn reply_err(
        &mut self,
        reply: ReplyPath,
        rid: RequestId,
        e: KvError,
        ctx: &mut Context,
    ) {
        self.respond(reply, Response::err(rid, e), ctx);
    }

    /// Serves a read (Get/Scan) from the local datalet.
    pub(crate) fn serve_local_read(
        &mut self,
        req: &Request,
        reply: ReplyPath,
        ctx: &mut Context,
    ) {
        let result = match &req.op {
            Op::Get { key } => {
                ctx.charge(self.cfg.cost.get);
                self.datalet.get(&req.table, key).map(RespBody::Value)
            }
            Op::Scan { start, end, limit } => {
                let r = self
                    .datalet
                    .scan(&req.table, start, end, *limit as usize);
                let n = r.as_ref().map(|v| v.len()).unwrap_or(0);
                ctx.charge(
                    self.cfg.cost.scan_base
                        + Duration::from_nanos(
                            self.cfg.cost.scan_per_entry.as_nanos() * n as u64,
                        ),
                );
                r.map(RespBody::Entries)
            }
            _ => Err(KvError::Rejected("not a read".into())),
        };
        self.respond(
            reply,
            Response {
                id: req.id,
                result,
            },
            ctx,
        );
    }

    /// Executes a table-management op locally and fans it out to peers
    /// (fire-and-forget; tables converge via the auto-create apply path).
    pub(crate) fn handle_table_op(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let result = match &req.op {
            Op::CreateTable { name } => self.datalet.create_table(name).map(|()| RespBody::Done),
            Op::DeleteTable { name } => self.datalet.delete_table(name).map(|()| RespBody::Done),
            _ => unreachable!("caller checked"),
        };
        ctx.charge(self.cfg.cost.controlet_overhead);
        if let Some(info) = self.info.clone() {
            for &peer in &info.replicas {
                if peer != self.cfg.node {
                    ctx.send(
                        Self::addr_of(peer),
                        NetMsg::Repl(ReplMsg::ForwardedReq {
                            req: req.clone(),
                            reply_via: NodeId::UNASSIGNED, // no reply wanted
                        }),
                    );
                }
            }
        }
        self.respond(
            reply,
            Response {
                id: req.id,
                result,
            },
            ctx,
        );
    }

    /// Role checks.
    pub(crate) fn is_writer(&self) -> bool {
        match &self.info {
            None => false,
            Some(info) => match info.mode.topology {
                Topology::MasterSlave => info.head() == Some(self.cfg.node),
                Topology::ActiveActive => info.position(self.cfg.node).is_some(),
            },
        }
    }

    pub(crate) fn strong_read_target(&self) -> Option<NodeId> {
        let info = self.info.as_ref()?;
        match (info.mode.topology, info.mode.consistency) {
            // Chain replication serves SC reads at the tail.
            (Topology::MasterSlave, Consistency::Strong) => info.tail(),
            // MS+EC strong reads (per-request upgrade) go to the master.
            (Topology::MasterSlave, Consistency::Eventual) => info.head(),
            // AA: any active (AA+SC serializes via read locks).
            (Topology::ActiveActive, _) => Some(self.cfg.node),
        }
    }
}

impl Actor for Controlet {
    fn on_event(&mut self, ev: Event, ctx: &mut Context) {
        match ev {
            Event::Start => {
                ctx.set_timer(HEARTBEAT_EVERY, HEARTBEAT_TIMER);
                if self.info.is_none() {
                    ctx.send(self.cfg.coordinator, NetMsg::Coord(CoordMsg::GetShardMap));
                }
                self.arm_mode_timers(ctx);
            }
            Event::Timer { token } => self.on_timer(token, ctx),
            Event::Msg { from, msg } => match msg {
                NetMsg::Client(req) => {
                    ctx.charge(self.cfg.cost.controlet_overhead);
                    self.handle_client(req, ReplyPath::Client(from), ctx);
                }
                NetMsg::Repl(m) => self.handle_repl(from, m, ctx),
                NetMsg::Coord(m) => self.handle_coord(from, m, ctx),
                NetMsg::Log(m) => self.handle_log(m, ctx),
                NetMsg::Dlm(m) => self.handle_dlm(m, ctx),
                NetMsg::ClientResp(_) => {} // controlets never receive these
            },
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Controlet {
    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        match token {
            HEARTBEAT_TIMER => {
                ctx.send(
                    self.cfg.coordinator,
                    NetMsg::Coord(CoordMsg::Heartbeat {
                        node: self.cfg.node,
                        applied: self.applied_seq,
                    }),
                );
                self.heartbeats_sent += 1;
                // An unassigned, non-recovering controlet is a standby;
                // re-announce every beat so the offer survives message
                // loss (the coordinator registers it idempotently).
                if self.info.is_none() && self.recovery.is_none() {
                    ctx.send(
                        self.cfg.coordinator,
                        NetMsg::Coord(CoordMsg::StandbyAvailable {
                            node: self.cfg.node,
                        }),
                    );
                }
                // A completed recovery whose report may have been lost is
                // re-reported until the map confirms membership.
                if let Some(shard) = self.pending_recovery_done {
                    ctx.send(
                        self.cfg.coordinator,
                        NetMsg::Coord(CoordMsg::RecoveryDone {
                            shard,
                            node: self.cfg.node,
                        }),
                    );
                }
                // Periodic map re-pull: a dropped broadcast otherwise
                // leaves this controlet on a stale epoch indefinitely.
                if self.heartbeats_sent.is_multiple_of(MAP_REFRESH_BEATS) {
                    ctx.send(self.cfg.coordinator, NetMsg::Coord(CoordMsg::GetShardMap));
                }
                ctx.set_timer(HEARTBEAT_EVERY, HEARTBEAT_TIMER);
            }
            PROP_FLUSH_TIMER => {
                self.flush_propagation(ctx);
                ctx.set_timer(PROP_FLUSH_EVERY, PROP_FLUSH_TIMER);
            }
            LOG_POLL_TIMER => {
                self.poll_shared_log(ctx);
                ctx.set_timer(LOG_POLL_EVERY, LOG_POLL_TIMER);
            }
            RECOVERY_RETRY_TIMER => {
                // A lost RecoveryReq/RecoveryChunk would wedge the pull
                // loop forever; re-issue the request for the current
                // position while recovery is in progress.
                if let Some(rec) = &self.recovery {
                    let shard = self.cfg.shard;
                    let from = rec.next_from;
                    let floor = rec.floor;
                    ctx.send(
                        Self::addr_of(rec.source),
                        NetMsg::Repl(ReplMsg::RecoveryReq { shard, from, floor }),
                    );
                    ctx.set_timer(HEARTBEAT_EVERY, RECOVERY_RETRY_TIMER);
                } else if let Some((source, cursor)) = self.recovery_delta {
                    // Snapshot done: drain the source's delta feed until it
                    // confirms we are a member and the feed is dry.
                    ctx.send(
                        Self::addr_of(source),
                        NetMsg::Repl(ReplMsg::RecoveryReq {
                            shard: self.cfg.shard,
                            from: RECOVERY_DELTA_FLAG | cursor,
                            floor: 0,
                        }),
                    );
                    ctx.set_timer(HEARTBEAT_EVERY, RECOVERY_RETRY_TIMER);
                }
            }
            _ => {}
        }
    }

    fn arm_mode_timers(&mut self, ctx: &mut Context) {
        // Arm both; the handlers are no-ops when the mode doesn't use them,
        // and modes can change at runtime (transitions), so keeping both
        // armed is the simplest correct choice.
        ctx.set_timer(PROP_FLUSH_EVERY, PROP_FLUSH_TIMER);
        ctx.set_timer(LOG_POLL_EVERY, LOG_POLL_TIMER);
    }
}
