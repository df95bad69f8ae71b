//! The client library (paper section III "Client library", Table II).
//!
//! [`ClientCore`] is a driver-agnostic state machine: the application (or a
//! workload actor) calls [`ClientCore::begin`] to issue operations, feeds
//! every incoming message to [`ClientCore::on_msg`], and receives
//! [`Completion`]s. The core:
//!
//! * fetches and caches the shard map from the coordinator, refreshing it
//!   whenever a routing error reveals staleness;
//! * routes requests by partitioning scheme and role — writes to the
//!   master/head (MS) or any active (AA, round-robin), strong reads to the
//!   mode's designated replica, eventual reads round-robin across all
//!   replicas — honouring per-request consistency overrides (section IV-C);
//! * scatter-gathers range queries across shards under range partitioning
//!   (section IV-B) and merges the results in key order;
//! * transparently retries retryable failures (wrong node, failover
//!   windows, lock contention) with bounded attempts, and re-issues
//!   requests that outlive `request_timeout` (e.g. sent to a node that
//!   died before replying).

use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::{CoordMsg, NetMsg};
use bespokv_runtime::Addr;
use bespokv_types::{
    Consistency, ConsistencyLevel, ClientId, Duration, HistoryEvent, HistoryOp, HistoryOutcome,
    HistoryRecorder, Instant, Key, KeySketch, KvError, NodeId, OverloadConfig, OverloadCounters,
    RequestId, ShardMap, SkewConfig, SkewCounters, Topology, VersionedValue,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Default maximum transparent retries before surfacing the error.
const MAX_ATTEMPTS: u32 = 5;

/// Cap on the exponential re-issue backoff, as a multiple of the base
/// request timeout.
const BACKOFF_CAP_FACTOR: u64 = 8;

/// How long an overloaded or refusing node stays parked behind the
/// circuit breaker before traffic is routed to it again.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// A finished operation.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The id returned by [`ClientCore::begin`].
    pub rid: RequestId,
    /// Outcome.
    pub result: Result<RespBody, KvError>,
    /// When the operation was first issued (for latency accounting).
    pub issued_at: Instant,
    /// How many sends it took (1 = no retry).
    pub attempts: u32,
}

#[derive(Debug)]
struct Outstanding {
    req: Request,
    issued_at: Instant,
    last_sent: Instant,
    attempts: u32,
    /// Current re-issue timeout: doubles on every silent re-issue (capped
    /// exponential backoff) so a dead or partitioned target is not hammered
    /// at a fixed cadence.
    cur_timeout: Duration,
    /// Present when this is one leg of a scatter-gather scan.
    parent: Option<RequestId>,
    /// Node the request was last sent to (for sticky write retries).
    target: NodeId,
    /// Set once a write attempt goes silent past its timeout: the write
    /// may have been applied even though no ack arrived, so from here on
    /// it must never be re-routed to a different node — re-executing it
    /// elsewhere would commit the same payload a second time under a fresh
    /// version. Silent retries stay pinned to `target`; an explicit
    /// retryable failure completes the op instead (ambiguous outcome).
    maybe_applied: bool,
}

#[derive(Debug)]
struct Scatter {
    remaining: usize,
    entries: Vec<(Key, bespokv_types::VersionedValue)>,
    first_error: Option<KvError>,
    issued_at: Instant,
    limit: u32,
}

/// The client-side routing state machine.
pub struct ClientCore {
    id: ClientId,
    coordinator: Addr,
    map: Option<ShardMap>,
    next_seq: u32,
    outstanding: HashMap<RequestId, Outstanding>,
    scatters: HashMap<RequestId, Scatter>,
    deferred: Vec<Request>,
    out: Vec<(Addr, NetMsg)>,
    rr: u64,
    request_timeout: Duration,
    map_requested: bool,
    /// Requests awaiting a re-route (failed without an authoritative
    /// hint); retried on the next tick or map update, which bounds retry
    /// storms against dead nodes.
    parked: Vec<RequestId>,
    /// Circuit breaker: nodes that refused a connection recently are
    /// routed around until the cooldown passes (or a map update clears
    /// them).
    dead_until: HashMap<NodeId, Instant>,
    /// Last time a map fetch went out (fetches are rate-limited: during a
    /// failure storm every failed request would otherwise refresh the map
    /// at wire speed and saturate the coordinator).
    last_map_fetch: Option<Instant>,
    /// P2P mode: send every request to an arbitrary controlet from this
    /// set; the receiving controlet forwards to the owner (section IV-E).
    p2p_targets: Option<Vec<NodeId>>,
    /// Send attempts per operation (1 = fail fast, no transparent retry —
    /// the behaviour of benchmark clients like redis-benchmark).
    max_attempts: u32,
    /// Consistency-oracle sink: point ops are tagged at invocation and
    /// their outcome recorded at completion (see `bespokv_types::history`).
    recorder: Option<HistoryRecorder>,
    /// Invocation bookkeeping for the recorder, keyed by request id.
    history_pending: HashMap<RequestId, PendingHistory>,
    /// Dev-only fault injection: when set, every successful Get after the
    /// first returns the *first* value observed for its key — a blatant
    /// stale-read bug the oracle must catch (proves the checker has teeth).
    stale_read_debug: Option<HashMap<Key, VersionedValue>>,
    /// Deadline budget stamped on every request (`now + budget`); `None`
    /// leaves requests deadline-free.
    deadline_budget: Option<Duration>,
    /// Retry token bucket: load-shedding and contention retries each
    /// consume one token; successes refill. An empty bucket completes the
    /// op with its error instead of amplifying load on a saturated
    /// cluster. Routing corrections (wrong node, forwarded) stay free.
    retry_tokens: u32,
    retry_token_cap: u32,
    /// Shared overload counters (breaker trips, denied retries).
    counters: Arc<OverloadCounters>,
    /// Hot-key routing: a client-local sketch over the GET stream. Strong
    /// reads for detected heavy hitters under MS+SC spread round-robin
    /// across the whole chain (clean replicas serve them via the fast
    /// path, dirty ones bounce `WrongNode{hint: tail}` — an authoritative,
    /// token-free correction) instead of serializing on the tail.
    skew: Option<ClientSkew>,
}

/// Client half of the skew engine: the local sketch plus the shared
/// counters hot-routing decisions are reported into.
struct ClientSkew {
    sketch: KeySketch,
    counters: Arc<SkewCounters>,
}

#[derive(Debug)]
struct PendingHistory {
    op: HistoryOp,
    level: ConsistencyLevel,
    invoked_at: Instant,
    inv_tick: u64,
}

impl ClientCore {
    /// Creates a client that will fetch its map from `coordinator`.
    pub fn new(id: ClientId, coordinator: Addr) -> Self {
        ClientCore {
            id,
            coordinator,
            map: None,
            next_seq: 0,
            outstanding: HashMap::new(),
            scatters: HashMap::new(),
            deferred: Vec::new(),
            out: Vec::new(),
            rr: id.raw() as u64, // decorrelate round-robin across clients
            request_timeout: Duration::from_millis(2000),
            map_requested: false,
            parked: Vec::new(),
            dead_until: HashMap::new(),
            last_map_fetch: None,
            p2p_targets: None,
            max_attempts: MAX_ATTEMPTS,
            recorder: None,
            history_pending: HashMap::new(),
            stale_read_debug: None,
            deadline_budget: None,
            retry_tokens: OverloadConfig::default().retry_tokens,
            retry_token_cap: OverloadConfig::default().retry_tokens,
            counters: Arc::new(OverloadCounters::new()),
            skew: None,
        }
    }

    /// Arms hot-key routing: GET keys feed a client-local sketch, and
    /// strong reads for detected heavy hitters spread across all replicas
    /// of an MS+SC chain instead of pinning to the tail. `counters` are
    /// shared with the cluster so the harness sees routing decisions.
    pub fn with_skew(mut self, cfg: SkewConfig, counters: Arc<SkewCounters>) -> Self {
        self.skew = Some(ClientSkew {
            sketch: KeySketch::new(&cfg),
            counters,
        });
        self
    }

    /// Attaches a consistency-oracle recorder: every point op (put/get/del)
    /// is logged with its invocation/response interval and outcome.
    pub fn with_history(mut self, recorder: HistoryRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Dev-only: injects a deliberate stale-read bug (repeated Gets return
    /// the first value ever observed for the key). Used by oracle tests to
    /// prove the linearizability checker actually detects violations.
    pub fn with_debug_stale_reads(mut self) -> Self {
        self.stale_read_debug = Some(HashMap::new());
        self
    }

    /// Overrides the per-operation attempt budget (1 disables transparent
    /// retries).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Stamps every request with a deadline of `now + budget`: edges and
    /// controlets drop the work (with an `Overloaded` reply) once the
    /// budget is gone instead of executing it for a caller that gave up.
    pub fn with_deadline_budget(mut self, budget: Duration) -> Self {
        self.deadline_budget = Some(budget);
        self
    }

    /// Adopts the client-side overload knobs (deadline budget, retry token
    /// bucket) and shares the cluster's counters.
    pub fn with_overload(mut self, cfg: OverloadConfig, counters: Arc<OverloadCounters>) -> Self {
        self.deadline_budget = cfg.deadline_budget;
        self.retry_tokens = cfg.retry_tokens;
        self.retry_token_cap = cfg.retry_tokens;
        self.counters = counters;
        self
    }

    /// The shared overload counters this client reports into.
    pub fn overload_counters(&self) -> Arc<OverloadCounters> {
        Arc::clone(&self.counters)
    }

    /// Enables P2P routing: requests go to any of `targets`, which forward
    /// to the owning controlet themselves.
    pub fn with_p2p(mut self, targets: Vec<NodeId>) -> Self {
        self.p2p_targets = Some(targets);
        self
    }

    /// Overrides the re-issue timeout.
    pub fn with_request_timeout(mut self, t: Duration) -> Self {
        self.request_timeout = t;
        self
    }

    /// Seeds the map directly (harnesses; skips the coordinator fetch).
    pub fn with_map(mut self, map: ShardMap) -> Self {
        self.map = Some(map);
        self
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether requests can be issued (a routing map is available, or P2P
    /// mode makes one unnecessary).
    pub fn ready(&self) -> bool {
        self.map.is_some() || self.p2p_targets.is_some()
    }

    /// Number of requests in flight (scatter legs counted individually).
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Messages to transmit; the caller drains and sends them.
    pub fn take_outgoing(&mut self) -> Vec<(Addr, NetMsg)> {
        std::mem::take(&mut self.out)
    }

    /// Asks the coordinator for the shard map (idempotent and rate-limited
    /// to one fetch per 50 ms; called automatically on first use and on
    /// routing errors).
    pub fn request_map(&mut self, now: Instant) {
        let recently = self
            .last_map_fetch
            .map(|t| now.saturating_since(t) < Duration::from_millis(50))
            .unwrap_or(false);
        if !self.map_requested && !recently {
            self.map_requested = true;
            self.last_map_fetch = Some(now);
            self.out
                .push((self.coordinator, NetMsg::Coord(CoordMsg::GetShardMap)));
        }
    }

    fn fresh_rid(&mut self) -> RequestId {
        let rid = RequestId::compose(self.id, self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        rid
    }

    /// Issues an operation. Returns the request id that the eventual
    /// [`Completion`] will carry.
    pub fn begin(
        &mut self,
        op: Op,
        table: impl Into<String>,
        level: ConsistencyLevel,
        now: Instant,
    ) -> RequestId {
        let rid = self.fresh_rid();
        let req = Request {
            id: rid,
            table: table.into(),
            op,
            level,
            deadline: self
                .deadline_budget
                .map(|b| now + b)
                .unwrap_or(Instant::ZERO),
        };
        if let Some(rec) = &self.recorder {
            if let Some(op) = history_op(&req.op) {
                self.history_pending.insert(
                    rid,
                    PendingHistory {
                        op,
                        level,
                        invoked_at: now,
                        inv_tick: rec.tick(),
                    },
                );
            }
        }
        self.dispatch(req, now, None);
        rid
    }

    /// Closes the history record for a completed point op (no-op when no
    /// recorder is attached or the op was not recorded, e.g. scans).
    /// `maybe_applied` carries the outstanding entry's ambiguity flag: a
    /// write attempt that ever went silent may have been applied.
    fn record_history(
        &mut self,
        rid: RequestId,
        result: &Result<RespBody, KvError>,
        maybe_applied: bool,
        now: Instant,
    ) {
        let Some(rec) = &self.recorder else { return };
        let Some(p) = self.history_pending.remove(&rid) else {
            return;
        };
        let outcome = match result {
            Ok(RespBody::Value(vv)) => HistoryOutcome::Ok {
                value: Some(vv.clone()),
            },
            Ok(_) => HistoryOutcome::Ok { value: None },
            // A read of an absent key is a successful observation of "no
            // value", not a failure.
            Err(KvError::NotFound) if !p.op.is_write() => HistoryOutcome::Ok { value: None },
            // A shed write is rejected strictly before execution, so
            // `Overloaded` is a definitive not-applied — unless an earlier
            // attempt of the same op went silent (then the shed verdict
            // only covers the latest attempt). Recording it as `Fail`
            // (never-happened) is what lets the oracle prove shedding
            // safe: if a shed write is ever observed, that is a violation.
            Err(KvError::Overloaded) if p.op.is_write() && !maybe_applied => {
                HistoryOutcome::Fail
            }
            // Any other failed write may still have been applied by an
            // earlier attempt whose ack was lost; the checker treats it as
            // free to take effect at any later point, or never.
            Err(_) if p.op.is_write() => HistoryOutcome::Ambiguous,
            // Failed reads observed nothing.
            Err(_) => HistoryOutcome::Fail,
        };
        rec.record(HistoryEvent {
            client: self.id,
            seq: 0, // assigned by the recorder
            inv_tick: p.inv_tick,
            op: p.op,
            level: p.level,
            invoked_at: p.invoked_at,
            completed_at: now,
            outcome,
        });
    }

    fn dispatch(&mut self, req: Request, now: Instant, parent: Option<RequestId>) {
        if self.p2p_targets.is_some() {
            let target = self.route(&req, now);
            self.track_and_send(req, target, now, parent);
            return;
        }
        let Some(map) = &self.map else {
            self.request_map(now);
            self.deferred.push(req);
            return;
        };
        // Scatter-gather: a scan spanning multiple shards fans out.
        if parent.is_none() {
            if let Op::Scan { start, end, limit } = &req.op {
                let shards = map.shards_for_range(start, end);
                if shards.len() > 1 {
                    let legs: Vec<Request> = shards
                        .iter()
                        .map(|_| Request {
                            id: RequestId::default(), // assigned below
                            table: req.table.clone(),
                            op: req.op.clone(),
                            level: req.level,
                            deadline: req.deadline,
                        })
                        .collect();
                    self.scatters.insert(
                        req.id,
                        Scatter {
                            remaining: legs.len(),
                            entries: Vec::new(),
                            first_error: None,
                            issued_at: now,
                            limit: *limit,
                        },
                    );
                    for (shard, mut leg) in shards.into_iter().zip(legs) {
                        leg.id = self.fresh_rid();
                        let target = self.pick_node_for_shard(shard, &leg, now);
                        self.track_and_send(leg, target, now, Some(req.id));
                    }
                    return;
                }
            }
        }
        let target = self.route(&req, now);
        self.track_and_send(req, target, now, parent);
    }

    fn track_and_send(
        &mut self,
        req: Request,
        target: Option<NodeId>,
        now: Instant,
        parent: Option<RequestId>,
    ) {
        let Some(node) = target else {
            let resp = Response::err(req.id, KvError::Unavailable(bespokv_types::ShardId(0)));
            self.finish(resp, now);
            return;
        };
        self.outstanding.insert(
            req.id,
            Outstanding {
                req: req.clone(),
                issued_at: now,
                last_sent: now,
                attempts: 1,
                cur_timeout: self.request_timeout,
                parent,
                target: node,
                maybe_applied: false,
            },
        );
        self.out.push((Addr(node.raw()), NetMsg::Client(req)));
    }

    /// Picks the destination node for a request under the current map.
    fn route(&mut self, req: &Request, now: Instant) -> Option<NodeId> {
        if let Some(skew) = &self.skew {
            // Feed the GET stream into the hot-key sketch at routing time
            // (reads only: write placement is ownership, not load).
            if let (Some(key), false) = (req.op.key(), req.op.is_write()) {
                skew.counters
                    .sketch_ops
                    .fetch_add(1, Ordering::Relaxed);
                skew.sketch.record(key);
            }
        }
        if let Some(targets) = &self.p2p_targets {
            if !targets.is_empty() {
                self.rr = self.rr.wrapping_add(1);
                return Some(targets[(self.rr % targets.len() as u64) as usize]);
            }
        }
        let map = self.map.as_ref()?;
        let shard = match req.op.key() {
            Some(key) => map.shard_for_key(key),
            None => match &req.op {
                Op::Scan { start, .. } => *map.shards_for_range(start, start).first()?,
                // Table ops go anywhere; spread them.
                _ => bespokv_types::ShardId((self.rr % map.num_shards() as u64) as u32),
            },
        };
        self.pick_node_for_shard(shard, req, now)
    }

    fn pick_node_for_shard(
        &mut self,
        shard: bespokv_types::ShardId,
        req: &Request,
        now: Instant,
    ) -> Option<NodeId> {
        let map = self.map.as_ref()?;
        let info = map.shard(shard)?;
        if info.replicas.is_empty() {
            return None;
        }
        // Circuit breaker: prefer replicas that have not recently refused
        // a connection. Role-pinned targets (head/tail) have no
        // alternative, so they are returned regardless — their failure
        // resolves via the coordinator's repair, not rerouting.
        let alive: Vec<NodeId> = info
            .replicas
            .iter()
            .copied()
            .filter(|n| {
                self.dead_until
                    .get(n)
                    .map(|&until| now >= until)
                    .unwrap_or(true)
            })
            .collect();
        let pool: &[NodeId] = if alive.is_empty() {
            &info.replicas
        } else {
            &alive
        };
        self.rr = self.rr.wrapping_add(1);
        let pick = (self.rr % pool.len() as u64) as usize;
        if req.op.is_write() {
            return match info.mode.topology {
                Topology::MasterSlave => info.head(),
                Topology::ActiveActive => Some(pool[pick]),
            };
        }
        let effective = req.level.resolve(info.mode.consistency);
        match effective {
            Consistency::Eventual => Some(pool[pick]),
            Consistency::Strong => match (info.mode.topology, info.mode.consistency) {
                (Topology::MasterSlave, Consistency::Strong) => {
                    // Hot-key spreading: a heavy hitter would serialize on
                    // the tail. Any chain member may serve a strong read
                    // for a *clean* key (the CRAQ fast path); a dirty one
                    // answers `WrongNode{hint: tail}`, which retries free
                    // of tokens and lands exactly where the pinned route
                    // would have gone. So spreading costs at most one
                    // authoritative bounce and never weakens the read.
                    if let Some(skew) = &self.skew {
                        if let Some(key) = req.op.key() {
                            if pool.len() > 1 && skew.sketch.is_hot(key) {
                                skew.counters.hot_routed.fetch_add(1, Ordering::Relaxed);
                                return Some(pool[pick]);
                            }
                        }
                    }
                    info.tail()
                }
                (Topology::MasterSlave, Consistency::Eventual) => info.head(),
                (Topology::ActiveActive, _) => Some(pool[pick]),
            },
        }
    }

    /// Feeds one incoming message; returns completions it produced.
    pub fn on_msg(&mut self, msg: NetMsg, now: Instant) -> Vec<Completion> {
        match msg {
            NetMsg::Coord(CoordMsg::ShardMapUpdate { map }) => {
                let advanced = self
                    .map
                    .as_ref()
                    .map(|m| map.epoch > m.epoch)
                    .unwrap_or(true);
                if self
                    .map
                    .as_ref()
                    .map(|m| map.epoch >= m.epoch)
                    .unwrap_or(true)
                {
                    self.map = Some(map);
                }
                self.map_requested = false;
                let deferred = std::mem::take(&mut self.deferred);
                for req in deferred {
                    let parent = self.outstanding.get(&req.id).and_then(|o| o.parent);
                    self.dispatch(req, now, parent);
                }
                // Parked retries only fire when the routing actually
                // changed (epoch advance) or on the periodic tick; a
                // same-epoch refresh would re-bounce at wire speed. A new
                // epoch also resets the circuit breakers: the repaired map
                // no longer lists dead nodes.
                if advanced {
                    self.dead_until.clear();
                    self.retry_parked(now);
                }
                Vec::new()
            }
            NetMsg::ClientResp(resp) => self.finish(resp, now),
            _ => Vec::new(),
        }
    }

    /// Completes or retries one response.
    fn finish(&mut self, resp: Response, now: Instant) -> Vec<Completion> {
        let Some(mut o) = self.outstanding.remove(&resp.id) else {
            return Vec::new(); // duplicate or post-timeout straggler
        };
        // Transparent retry on retryable errors. A write that ever went
        // silent (`maybe_applied`) is excluded: the explicit failure is for
        // the *latest* attempt only, an earlier one may have applied, and
        // re-routing would re-execute it — so it completes with the error
        // and the caller sees an ambiguous outcome.
        if let Err(e) = &resp.result {
            let wants_retry = e.is_retryable()
                && o.attempts < self.max_attempts
                && !(o.req.op.is_write() && o.maybe_applied);
            // Load-shedding and contention retries spend from the token
            // bucket; routing corrections (wrong node, forwarded) are
            // free. An empty bucket surfaces the error instead of adding
            // retry load to a cluster that is already saturated.
            let costs_token = matches!(
                e,
                KvError::Timeout | KvError::Overloaded | KvError::LockContended
            );
            let denied = costs_token && self.retry_tokens == 0;
            if wants_retry && denied {
                self.counters.retries_denied.fetch_add(1, Ordering::Relaxed);
            }
            if wants_retry && !denied {
                if costs_token {
                    self.retry_tokens -= 1;
                }
                o.attempts += 1;
                o.last_sent = now;
                // A wrong-node hint is authoritative: retry there. A
                // hintless failure (dead target, stale map) re-routes via
                // the current map immediately — failing fast after
                // MAX_ATTEMPTS, exactly like a client whose TCP connects
                // are refused — while a *single* outstanding map fetch
                // (gated by `map_requested`) refreshes the routing.
                let target = match e {
                    KvError::WrongNode { hint: Some(h), .. } => Some(*h),
                    KvError::Forwarded(n) => Some(*n),
                    KvError::Overloaded => {
                        // Circuit breaker: park the overloaded node for
                        // the cooldown so rerouteable traffic (eventual
                        // reads, AA writes) drains away from it; the map
                        // is not stale, so no refresh. The request itself
                        // waits for the next tick: re-sent at once, a
                        // write whose only target is the shedding head
                        // would spend its whole attempt budget in a few
                        // round trips, long before the in-flight write
                        // holding the head's window is repaired.
                        if self
                            .dead_until
                            .insert(o.target, now + BREAKER_COOLDOWN)
                            .is_none()
                        {
                            self.counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
                        }
                        None
                    }
                    other => {
                        // Connection refused / unroutable: open the
                        // breaker on the refusing node and re-route.
                        if let KvError::WrongNode { node, hint: None } = other {
                            self.dead_until.insert(*node, now + BREAKER_COOLDOWN);
                        }
                        self.request_map(now);
                        self.route(&o.req, now)
                    }
                };
                match target {
                    Some(node) => {
                        o.target = node;
                        self.out
                            .push((Addr(node.raw()), NetMsg::Client(o.req.clone())));
                    }
                    None => self.parked.push(resp.id),
                }
                self.outstanding.insert(resp.id, o);
                return Vec::new();
            }
        }
        // Scatter leg?
        if let Some(parent) = o.parent {
            return self.finish_scatter_leg(parent, resp, o, now);
        }
        let mut result = resp.result;
        // A success refills the retry bucket: the cluster is keeping up.
        if result.is_ok() {
            self.retry_tokens = (self.retry_tokens + 1).min(self.retry_token_cap);
        }
        // Dev-only stale-read injection (see `with_debug_stale_reads`).
        if let Some(cache) = &mut self.stale_read_debug {
            if let (Op::Get { key }, Ok(RespBody::Value(vv))) = (&o.req.op, &result) {
                match cache.get(key) {
                    Some(first) => result = Ok(RespBody::Value(first.clone())),
                    None => {
                        cache.insert(key.clone(), vv.clone());
                    }
                }
            }
        }
        self.record_history(resp.id, &result, o.maybe_applied, now);
        vec![Completion {
            rid: resp.id,
            result,
            issued_at: o.issued_at,
            attempts: o.attempts,
        }]
    }

    fn finish_scatter_leg(
        &mut self,
        parent: RequestId,
        resp: Response,
        leg: Outstanding,
        _now: Instant,
    ) -> Vec<Completion> {
        let done = {
            let Some(s) = self.scatters.get_mut(&parent) else {
                return Vec::new();
            };
            match resp.result {
                Ok(RespBody::Entries(es)) => s.entries.extend(es),
                Ok(_) => {}
                Err(e) => {
                    if s.first_error.is_none() {
                        s.first_error = Some(e);
                    }
                }
            }
            s.remaining -= 1;
            s.remaining == 0
        };
        let _ = leg;
        if !done {
            return Vec::new();
        }
        let mut s = self.scatters.remove(&parent).expect("present");
        let result = match s.first_error {
            Some(e) => Err(e),
            None => {
                s.entries.sort_by(|a, b| a.0.cmp(&b.0));
                if s.limit > 0 {
                    s.entries.truncate(s.limit as usize);
                }
                Ok(RespBody::Entries(s.entries))
            }
        };
        vec![Completion {
            rid: parent,
            result,
            issued_at: s.issued_at,
            attempts: 1,
        }]
    }

    /// Re-routes requests parked after a retryable failure.
    fn retry_parked(&mut self, now: Instant) {
        let parked = std::mem::take(&mut self.parked);
        for rid in parked {
            let Some(o) = self.outstanding.get_mut(&rid) else {
                continue;
            };
            o.last_sent = now;
            let req = o.req.clone();
            if let Some(node) = self.route(&req, now) {
                if let Some(o) = self.outstanding.get_mut(&rid) {
                    o.target = node;
                }
                self.out.push((Addr(node.raw()), NetMsg::Client(req)));
            } else {
                self.parked.push(rid);
            }
        }
    }

    /// Re-issues requests that have been silent longer than their current
    /// backoff (their target likely died before replying) and retries
    /// parked failures. Call periodically. Operations that exhaust their
    /// attempt budget complete with [`KvError::Timeout`] — they are
    /// surfaced, never silently dropped.
    pub fn on_tick(&mut self, now: Instant) -> Vec<Completion> {
        self.retry_parked(now);
        // A lost GetShardMap (or its response) must not wedge the client
        // forever: once the outstanding fetch has been silent past the
        // request timeout, clear the gate and fetch again.
        if self.map_requested
            && self
                .last_map_fetch
                .map(|t| now.saturating_since(t) > self.request_timeout)
                .unwrap_or(false)
        {
            self.map_requested = false;
            self.request_map(now);
        }
        let stale: Vec<RequestId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now.saturating_since(o.last_sent) > o.cur_timeout)
            .map(|(rid, _)| *rid)
            .collect();
        if stale.is_empty() {
            return Vec::new();
        }
        // The silence probably means our map is stale too.
        self.map_requested = false;
        self.request_map(now);
        let cap = Duration(self.request_timeout.0.saturating_mul(BACKOFF_CAP_FACTOR));
        let mut completions = Vec::new();
        for rid in stale {
            let (req, give_up, sticky) = {
                let o = self.outstanding.get_mut(&rid).expect("listed");
                o.attempts += 1;
                o.last_sent = now;
                o.cur_timeout = Duration(o.cur_timeout.0.saturating_mul(2)).min(cap);
                if o.req.op.is_write() {
                    // Silence means the write may have been applied; pin
                    // all further retries to the original target (see
                    // `Outstanding::maybe_applied`).
                    o.maybe_applied = true;
                }
                (o.req.clone(), o.attempts > self.max_attempts, o.target)
            };
            if give_up {
                let o = self.outstanding.remove(&rid).expect("listed");
                let resp = Response::err(rid, KvError::Timeout);
                match o.parent {
                    Some(parent) => {
                        completions.extend(self.finish_scatter_leg(parent, resp, o, now))
                    }
                    None => {
                        self.record_history(rid, &Err(KvError::Timeout), o.maybe_applied, now);
                        completions.push(Completion {
                            rid,
                            result: Err(KvError::Timeout),
                            issued_at: o.issued_at,
                            attempts: o.attempts,
                        });
                    }
                }
                continue;
            }
            let dest = if req.op.is_write() {
                Some(sticky)
            } else {
                self.route(&req, now)
            };
            if let Some(node) = dest {
                if let Some(o) = self.outstanding.get_mut(&rid) {
                    o.target = node;
                }
                self.out.push((Addr(node.raw()), NetMsg::Client(req)));
            }
        }
        completions
    }
}

/// Maps a wire op to its history representation; multi-key and table ops
/// are not recorded (the oracle models single-key registers only).
fn history_op(op: &Op) -> Option<HistoryOp> {
    match op {
        Op::Put { key, value } => Some(HistoryOp::Put {
            key: key.clone(),
            value: value.clone(),
        }),
        Op::Get { key } => Some(HistoryOp::Get { key: key.clone() }),
        Op::Del { key } => Some(HistoryOp::Del { key: key.clone() }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bespokv_types::{Mode, Partitioning, Value};

    fn map(mode: Mode) -> ShardMap {
        ShardMap::dense(2, 3, mode, Partitioning::ConsistentHash { vnodes: 16 })
    }

    fn now() -> Instant {
        Instant::ZERO + Duration::from_millis(1)
    }

    fn put_op() -> Op {
        Op::Put {
            key: Key::from("k"),
            value: Value::from("v"),
        }
    }

    fn target_of(core: &mut ClientCore) -> Addr {
        let out = core.take_outgoing();
        assert_eq!(out.len(), 1, "{out:?}");
        out[0].0
    }

    #[test]
    fn writes_route_to_head_under_ms() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m.clone());
        core.begin(put_op(), "", ConsistencyLevel::Default, now());
        let target = target_of(&mut core);
        let shard = m.shard_for_key(&Key::from("k"));
        assert_eq!(
            target,
            Addr(m.shard(shard).unwrap().head().unwrap().raw())
        );
    }

    #[test]
    fn strong_reads_route_to_tail_under_ms_sc() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m.clone());
        core.begin(
            Op::Get { key: Key::from("k") },
            "",
            ConsistencyLevel::Default,
            now(),
        );
        let target = target_of(&mut core);
        let shard = m.shard_for_key(&Key::from("k"));
        assert_eq!(target, Addr(m.shard(shard).unwrap().tail().unwrap().raw()));
    }

    #[test]
    fn hot_strong_reads_spread_across_the_chain() {
        let m = map(Mode::MS_SC);
        let cfg = SkewConfig { hot_min_count: 8 };
        let counters = Arc::new(SkewCounters::new());
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m.clone())
            .with_skew(cfg, Arc::clone(&counters));
        let hot = Key::from("hot");
        let shard = m.shard_for_key(&hot);
        let info = m.shard(shard).unwrap().clone();
        let tail = info.tail().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            core.begin(
                Op::Get { key: hot.clone() },
                "",
                ConsistencyLevel::Default,
                now(),
            );
            seen.insert(target_of(&mut core));
        }
        assert!(
            seen.len() > 1,
            "hot strong reads must spread beyond the tail: {seen:?}"
        );
        for t in &seen {
            assert!(
                info.replicas.iter().any(|n| Addr(n.raw()) == *t),
                "spread target {t:?} must stay within the shard's chain"
            );
        }
        assert!(counters.snapshot().hot_routed > 0);
        // A cold key keeps the pinned tail route.
        core.begin(
            Op::Get { key: Key::from("cold") },
            "",
            ConsistencyLevel::Default,
            now(),
        );
        let cold_shard = m.shard_for_key(&Key::from("cold"));
        let cold_tail = m.shard(cold_shard).unwrap().tail().unwrap();
        assert_eq!(target_of(&mut core), Addr(cold_tail.raw()));
        let _ = tail;
    }

    #[test]
    fn hot_writes_keep_the_head_route() {
        let m = map(Mode::MS_SC);
        let cfg = SkewConfig { hot_min_count: 8 };
        let counters = Arc::new(SkewCounters::new());
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m.clone())
            .with_skew(cfg, counters);
        // Heat the key via reads, then check writes still pin to the head.
        for _ in 0..50 {
            core.begin(
                Op::Get { key: Key::from("k") },
                "",
                ConsistencyLevel::Default,
                now(),
            );
            let _ = target_of(&mut core);
        }
        core.begin(put_op(), "", ConsistencyLevel::Default, now());
        let shard = m.shard_for_key(&Key::from("k"));
        assert_eq!(
            target_of(&mut core),
            Addr(m.shard(shard).unwrap().head().unwrap().raw())
        );
    }

    #[test]
    fn eventual_reads_spread_across_replicas() {
        let m = map(Mode::MS_EC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..30 {
            core.begin(
                Op::Get { key: Key::from("k") },
                "",
                ConsistencyLevel::Default,
                now(),
            );
            seen.insert(target_of(&mut core).0);
        }
        assert!(seen.len() >= 3, "round robin should hit all replicas: {seen:?}");
    }

    #[test]
    fn per_request_strong_read_under_ms_ec_goes_to_master() {
        let m = map(Mode::MS_EC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m.clone());
        core.begin(
            Op::Get { key: Key::from("k") },
            "",
            ConsistencyLevel::Strong,
            now(),
        );
        let target = target_of(&mut core);
        let shard = m.shard_for_key(&Key::from("k"));
        assert_eq!(target, Addr(m.shard(shard).unwrap().head().unwrap().raw()));
    }

    #[test]
    fn aa_writes_round_robin() {
        let m = map(Mode::AA_EC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..30 {
            core.begin(put_op(), "", ConsistencyLevel::Default, now());
            seen.insert(target_of(&mut core).0);
        }
        assert!(seen.len() >= 3, "AA writes should spread: {seen:?}");
    }

    #[test]
    fn no_map_defers_and_requests_it() {
        let mut core = ClientCore::new(ClientId(1), Addr(99));
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        let out = core.take_outgoing();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Addr(99));
        assert!(matches!(out[0].1, NetMsg::Coord(CoordMsg::GetShardMap)));
        // Map arrives: the deferred op goes out.
        let comps = core.on_msg(
            NetMsg::Coord(CoordMsg::ShardMapUpdate { map: map(Mode::MS_SC) }),
            now(),
        );
        assert!(comps.is_empty());
        let out = core.take_outgoing();
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0].1, NetMsg::Client(r) if r.id == rid));
    }

    #[test]
    fn wrong_node_hint_retries_directly() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let comps = core.on_msg(
            NetMsg::ClientResp(Response::err(
                rid,
                KvError::WrongNode {
                    node: NodeId(0),
                    hint: Some(NodeId(4)),
                },
            )),
            now(),
        );
        assert!(comps.is_empty(), "retried, not completed");
        let out = core.take_outgoing();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Addr(4));
    }

    #[test]
    fn retries_are_bounded() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let mut completions = Vec::new();
        for _ in 0..MAX_ATTEMPTS + 1 {
            completions = core.on_msg(
                NetMsg::ClientResp(Response::err(
                    rid,
                    KvError::WrongNode {
                        node: NodeId(0),
                        hint: Some(NodeId(1)),
                    },
                )),
                now(),
            );
            core.take_outgoing();
            if !completions.is_empty() {
                break;
            }
        }
        assert_eq!(completions.len(), 1);
        assert!(completions[0].result.is_err());
        assert_eq!(completions[0].attempts, MAX_ATTEMPTS);
    }

    #[test]
    fn success_completes_with_latency_base() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let t0 = now();
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, t0);
        core.take_outgoing();
        let comps = core.on_msg(
            NetMsg::ClientResp(Response::ok(rid, RespBody::Done)),
            t0 + Duration::from_millis(3),
        );
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].issued_at, t0);
        assert_eq!(comps[0].attempts, 1);
    }

    #[test]
    fn scan_scatters_across_range_shards_and_merges() {
        let m = ShardMap::dense(
            3,
            1,
            Mode::MS_EC,
            Partitioning::Range {
                split_points: vec![Key::from("h"), Key::from("p")],
            },
        );
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(m);
        let rid = core.begin(
            Op::Scan {
                start: Key::from("a"),
                end: Key::from("z"),
                limit: 0,
            },
            "",
            ConsistencyLevel::Default,
            now(),
        );
        let out = core.take_outgoing();
        assert_eq!(out.len(), 3, "one leg per shard");
        // Answer each leg out of order with one entry.
        let legs: Vec<RequestId> = out
            .iter()
            .map(|(_, m)| match m {
                NetMsg::Client(r) => r.id,
                _ => panic!("unexpected"),
            })
            .collect();
        let vv = |s: &str| bespokv_types::VersionedValue::new(Value::from(s), 1);
        let mut comps = core.on_msg(
            NetMsg::ClientResp(Response::ok(
                legs[2],
                RespBody::Entries(vec![(Key::from("r"), vv("3"))]),
            )),
            now(),
        );
        assert!(comps.is_empty());
        comps = core.on_msg(
            NetMsg::ClientResp(Response::ok(
                legs[0],
                RespBody::Entries(vec![(Key::from("b"), vv("1"))]),
            )),
            now(),
        );
        assert!(comps.is_empty());
        comps = core.on_msg(
            NetMsg::ClientResp(Response::ok(
                legs[1],
                RespBody::Entries(vec![(Key::from("j"), vv("2"))]),
            )),
            now(),
        );
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].rid, rid);
        match comps[0].result.clone().unwrap() {
            RespBody::Entries(es) => {
                let keys: Vec<Key> = es.into_iter().map(|(k, _)| k).collect();
                assert_eq!(keys, vec![Key::from("b"), Key::from("j"), Key::from("r")]);
            }
            other => panic!("wrong shape {other:?}"),
        }
    }

    #[test]
    fn tick_reissues_silent_requests() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_request_timeout(Duration::from_millis(10));
        core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let comps = core.on_tick(now() + Duration::from_millis(50));
        assert!(comps.is_empty(), "first re-issue, not a give-up");
        let out = core.take_outgoing();
        // A map refresh plus the re-issued request.
        assert!(out
            .iter()
            .any(|(a, m)| *a == Addr(99) && matches!(m, NetMsg::Coord(CoordMsg::GetShardMap))));
        assert!(out.iter().any(|(_, m)| matches!(m, NetMsg::Client(_))));
        assert_eq!(core.in_flight(), 1);
    }

    #[test]
    fn reissue_backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_request_timeout(base)
            .with_max_attempts(u32::MAX);
        core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let mut t = now();
        let mut reissues = 0;
        let mut gaps = Vec::new();
        // Tick every 1 ms for a while; count when re-issues actually fire.
        let mut last_reissue = t;
        for _ in 0..2000 {
            t += Duration::from_millis(1);
            core.on_tick(t);
            let sent = core
                .take_outgoing()
                .iter()
                .any(|(_, m)| matches!(m, NetMsg::Client(_)));
            if sent {
                gaps.push(t.saturating_since(last_reissue));
                last_reissue = t;
                reissues += 1;
            }
        }
        assert!(reissues >= 5, "expected several re-issues, got {reissues}");
        // Gaps grow (exponential): 10, 20, 40, 80, cap at 80 = 8 * base.
        assert!(gaps[1] > gaps[0], "backoff must grow: {gaps:?}");
        assert!(gaps[2] > gaps[1], "backoff must grow: {gaps:?}");
        let cap = Duration(base.0 * super::BACKOFF_CAP_FACTOR) + Duration::from_millis(2);
        for g in &gaps[1..] {
            assert!(*g <= cap, "gap {g:?} exceeds cap {cap:?}: {gaps:?}");
        }
    }

    #[test]
    fn exhausted_retries_surface_timeout() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_request_timeout(Duration::from_millis(10))
            .with_max_attempts(2);
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let mut t = now();
        let mut comps = Vec::new();
        for _ in 0..200 {
            t += Duration::from_millis(25);
            comps = core.on_tick(t);
            core.take_outgoing();
            if !comps.is_empty() {
                break;
            }
        }
        assert_eq!(comps.len(), 1, "give-up must surface a completion");
        assert_eq!(comps[0].rid, rid);
        assert_eq!(comps[0].result, Err(KvError::Timeout));
        assert_eq!(core.in_flight(), 0);
    }

    #[test]
    fn history_records_interval_and_outcomes() {
        let rec = HistoryRecorder::new();
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_history(rec.clone());
        let t0 = now();
        // Successful put.
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, t0);
        core.take_outgoing();
        core.on_msg(
            NetMsg::ClientResp(Response::ok(rid, RespBody::Done)),
            t0 + Duration::from_millis(2),
        );
        // Read observing a value.
        let rid = core.begin(
            Op::Get { key: Key::from("k") },
            "",
            ConsistencyLevel::Default,
            t0 + Duration::from_millis(3),
        );
        core.take_outgoing();
        let vv = VersionedValue::new(Value::from("v"), 7);
        core.on_msg(
            NetMsg::ClientResp(Response::ok(rid, RespBody::Value(vv.clone()))),
            t0 + Duration::from_millis(4),
        );
        // Read of an absent key: NotFound is a successful "no value".
        let rid = core.begin(
            Op::Get { key: Key::from("missing") },
            "",
            ConsistencyLevel::Default,
            t0 + Duration::from_millis(5),
        );
        core.take_outgoing();
        core.on_msg(
            NetMsg::ClientResp(Response::err(rid, KvError::NotFound)),
            t0 + Duration::from_millis(6),
        );

        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].client, ClientId(1));
        assert!(matches!(evs[0].op, HistoryOp::Put { .. }));
        assert_eq!(evs[0].outcome, HistoryOutcome::Ok { value: None });
        assert!(evs[0].inv_tick < evs[0].seq, "invocation precedes response");
        assert!(evs[0].seq < evs[1].inv_tick, "sequential ops do not overlap");
        assert_eq!(
            evs[1].outcome,
            HistoryOutcome::Ok {
                value: Some(vv.clone())
            }
        );
        assert_eq!(evs[2].outcome, HistoryOutcome::Ok { value: None });
        assert!(matches!(evs[2].op, HistoryOp::Get { .. }));
    }

    #[test]
    fn history_marks_timed_out_writes_ambiguous() {
        let rec = HistoryRecorder::new();
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_history(rec.clone())
            .with_request_timeout(Duration::from_millis(10))
            .with_max_attempts(1);
        core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let mut t = now();
        for _ in 0..50 {
            t += Duration::from_millis(25);
            if !core.on_tick(t).is_empty() {
                break;
            }
            core.take_outgoing();
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].outcome, HistoryOutcome::Ambiguous);
    }

    #[test]
    fn deadline_budget_stamps_requests() {
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_deadline_budget(Duration::from_millis(40));
        let t0 = now();
        core.begin(put_op(), "", ConsistencyLevel::Default, t0);
        let out = core.take_outgoing();
        match &out[0].1 {
            NetMsg::Client(r) => {
                assert_eq!(r.deadline, t0 + Duration::from_millis(40));
                assert!(!r.expired(t0 + Duration::from_millis(39)));
                assert!(r.expired(t0 + Duration::from_millis(40)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overloaded_write_trips_breaker_and_records_fail() {
        let rec = HistoryRecorder::new();
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_history(rec.clone());
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        // Every attempt is shed; the op completes with the error once the
        // attempt budget runs out.
        let mut comps = Vec::new();
        for _ in 0..MAX_ATTEMPTS + 1 {
            comps = core.on_msg(
                NetMsg::ClientResp(Response::err(rid, KvError::Overloaded)),
                now(),
            );
            core.take_outgoing();
            if !comps.is_empty() {
                break;
            }
        }
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].result, Err(KvError::Overloaded));
        let snap = core.overload_counters().snapshot();
        assert_eq!(snap.breaker_trips, 1, "first shed parks the node once");
        // A shed write was rejected before execution on every attempt:
        // the oracle records it as never-happened, not ambiguous.
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].outcome, HistoryOutcome::Fail);
    }

    #[test]
    fn overloaded_write_is_resent_only_on_the_next_tick() {
        let mut core = ClientCore::new(ClientId(1), Addr(99)).with_map(map(Mode::MS_SC));
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        let head = target_of(&mut core);
        let comps = core.on_msg(
            NetMsg::ClientResp(Response::err(rid, KvError::Overloaded)),
            now(),
        );
        assert!(comps.is_empty(), "a shed write is retried, not failed");
        assert!(
            core.take_outgoing().is_empty(),
            "the shed write went straight back to the head that shed it"
        );
        assert!(core.on_tick(now() + Duration::from_millis(1)).is_empty());
        let out = core.take_outgoing();
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, head, "an MS write has only the head to go to");
        assert!(matches!(&out[0].1, NetMsg::Client(r) if r.id == rid));
    }

    #[test]
    fn retry_budget_denies_shed_retries_when_exhausted() {
        let m = map(Mode::MS_SC);
        let cfg = OverloadConfig {
            retry_tokens: 0,
            ..OverloadConfig::default()
        };
        let counters = Arc::new(OverloadCounters::new());
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_overload(cfg, Arc::clone(&counters));
        let rid = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let comps = core.on_msg(
            NetMsg::ClientResp(Response::err(rid, KvError::Overloaded)),
            now(),
        );
        assert_eq!(comps.len(), 1, "no tokens: complete, do not retry");
        assert_eq!(counters.snapshot().retries_denied, 1);
        // Routing corrections stay free even with an empty bucket.
        let rid2 = core.begin(put_op(), "", ConsistencyLevel::Default, now());
        core.take_outgoing();
        let comps = core.on_msg(
            NetMsg::ClientResp(Response::err(
                rid2,
                KvError::WrongNode {
                    node: NodeId(0),
                    hint: Some(NodeId(4)),
                },
            )),
            now(),
        );
        assert!(comps.is_empty(), "hinted retry must not need a token");
        core.take_outgoing();
    }

    #[test]
    fn debug_stale_reads_replays_first_observation() {
        let rec = HistoryRecorder::new();
        let m = map(Mode::MS_SC);
        let mut core = ClientCore::new(ClientId(1), Addr(99))
            .with_map(m)
            .with_history(rec.clone())
            .with_debug_stale_reads();
        let old = VersionedValue::new(Value::from("old"), 1);
        let new = VersionedValue::new(Value::from("new"), 2);
        for served in [&old, &new] {
            let rid = core.begin(
                Op::Get { key: Key::from("k") },
                "",
                ConsistencyLevel::Default,
                now(),
            );
            core.take_outgoing();
            let comps = core.on_msg(
                NetMsg::ClientResp(Response::ok(rid, RespBody::Value((*served).clone()))),
                now(),
            );
            // Both reads surface the first-ever value.
            assert_eq!(comps[0].result, Ok(RespBody::Value(old.clone())));
        }
        let evs = rec.events();
        assert_eq!(evs[1].outcome, HistoryOutcome::Ok { value: Some(old) });
    }
}
