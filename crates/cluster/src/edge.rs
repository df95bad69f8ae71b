//! The shared-datalet read fast path (multi-core serving).
//!
//! A controlet is a single-threaded actor, so with the actor loop on the
//! read path every GET serializes through one thread per node. But the
//! datalet underneath is a concurrent store, and most reads need none of
//! the controlet's machinery. [`FastPathTable`] lets *edge threads* — the
//! TCP reactors on the live runtime, the scripted client in the simulator —
//! answer GETs directly against the shared datalet, consulting the
//! controlet-published [`ServingState`] gate to decide, per read, whether
//! this replica may legitimately answer at the requested consistency:
//!
//! * effective-Eventual reads: any serving replica;
//! * Strong reads: the MS+SC tail or MS+EC master unconditionally, an
//!   MS+SC non-tail only for *clean* keys (no in-flight chain write — the
//!   CRAQ argument), never under AA.
//!
//! Everything else — writes, scans, mis-routed keys, dirty keys, closed
//! gates, reads that race a reconfiguration — falls back to the actor
//! loop, which remains the single source of truth. The gate is a seqlock:
//! the edge snapshots the word, reads, then validates; any epoch bump
//! (failover, recovery, transition) slams the fast path shut.
//!
//! [`NodeEdge`] packages the live-runtime side: a TCP request handler
//! that serves GETs on the reactor thread when permitted and relays the
//! rest to the controlet actor through a [`Mailbox`]; the thread running
//! the replying actor completes entries — for an idle controlet, the
//! reactor thread that relayed — and a sweeper thread expires deadlines
//! (10 ms).
//!
//! The **skew engine** ([`SkewState`]) rides on both halves.
//! Every GET that reaches the fast path is recorded in a count-min
//! sketch; keys its top-k table classifies as hot get (a) a small
//! *validating cache* inside [`FastPathTable::try_get`] — a cached value
//! is served only when the gate word, the key's dirty bit, *and* the
//! stripe's write generation all prove nothing changed since the fill,
//! so it inherits the fast path's staleness argument verbatim — and
//! (b) *request coalescing* in [`NodeEdge::defer_handler`]: concurrent
//! relayed GETs for the same hot key share one upstream read through a
//! singleflight table, with followers woken off the leader's response.

use bespokv::{DirtySet, ReadPermit, ServingState};
use bespokv_datalet::Datalet;
use bespokv_proto::client::{Op, RespBody, Request, Response};
use bespokv_proto::NetMsg;
use bespokv_runtime::{Addr, Completer, Defer, DeferHandler, LiveRuntime, Mailbox, Served};
use bespokv_types::{
    Consistency, ConsistencyLevel, Instant, Key, KeySketch, KvError, NodeId,
    OverloadConfig, OverloadCounters, RequestId, ShardId, ShardMap, SkewConfig, SkewCounters,
    SkewSnapshot,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Everything an edge thread needs to serve reads for one node.
pub struct FastPathHandle {
    /// The controlet-published serving gate.
    pub gate: Arc<ServingState>,
    /// Keys with in-flight chain writes (MS+SC clean-read check).
    pub dirty: Arc<DirtySet>,
    /// The shared concurrent store.
    pub datalet: Arc<dyn Datalet>,
    /// Shard this node serves; reads for other shards fall back so the
    /// actor can answer `WrongNode` with a proper hint.
    pub shard: ShardId,
    /// Store-wide consistency, for resolving `ConsistencyLevel::Default`.
    /// Captured at registration: controlets are replaced (not re-moded) on
    /// transition, so the handle's mode is fixed for its lifetime.
    pub default_level: Consistency,
}

/// Write-combiner counters, kept so callers that read them still compile.
/// Every PUT/DEL is ordered by its controlet actor and nothing combines
/// writes at the edge, so every field reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinerSnapshot {
    /// Batches combined.
    pub batches: u64,
    /// Writes that went through the combiner.
    pub ops: u64,
    /// Ops rejected `Overloaded` at a full op log.
    pub shed_full: u64,
    /// Ops shed at combine time for an expired deadline.
    pub shed_expired: u64,
    /// Ops shed at combine time for a full head in-flight window.
    pub shed_window: u64,
    /// Submit attempts that found the combiner lock held.
    pub lock_contention: u64,
    /// Drains that waited for a concurrent submit to join the batch.
    pub window_waits: u64,
}

/// One direct-mapped slot of the validating edge cache: the identity of
/// the cached read, the gate word and stripe write generation it was
/// filled under, and the result it produced.
struct CacheEntry {
    node: NodeId,
    table: String,
    key: Key,
    /// Gate word at fill time; a serve requires the *current* word to be
    /// identical (same epoch, role, and permissions as the fill).
    word: u64,
    /// Dirty-stripe write generation sampled before the fill's datalet
    /// read. Unchanged generation = no write marked (hence none applied)
    /// in the key's stripe since, so the cached bytes equal the datalet's.
    gen: u64,
    /// The validated read result (a `NotFound` is as cacheable as a hit —
    /// absence is a committed read result under the same argument).
    result: Result<RespBody, KvError>,
}

/// Validating edge-cache entries per deployment.
const CACHE_CAPACITY: usize = 64;

/// Deployment-wide skew-engine state: the hot-key sketch fed by the live
/// GET stream, the validating cache, and the event counters. Shared by
/// every edge thread via [`FastPathTable`].
pub struct SkewState {
    sketch: KeySketch,
    counters: Arc<SkewCounters>,
    /// Direct-mapped validating cache, indexed by key hash. Collisions
    /// simply overwrite: the cache holds the few heavy hitters, and a
    /// lost slot only costs one refill.
    cache: Vec<Mutex<Option<CacheEntry>>>,
}

impl SkewState {
    /// Fresh state with `cfg`'s hot threshold.
    pub fn new(cfg: SkewConfig) -> Self {
        SkewState {
            sketch: KeySketch::new(&cfg),
            counters: Arc::new(SkewCounters::new()),
            cache: (0..CACHE_CAPACITY).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The hot-key sketch (shared with clients/benches for routing).
    pub fn sketch(&self) -> &KeySketch {
        &self.sketch
    }

    /// The shared event counters.
    pub fn counters(&self) -> Arc<SkewCounters> {
        Arc::clone(&self.counters)
    }

    /// Counter snapshot with the sketch's epoch folded in.
    pub fn snapshot(&self) -> SkewSnapshot {
        let mut s = self.counters.snapshot();
        s.epochs = self.sketch.epoch();
        s
    }

    fn slot(&self, key: &Key) -> &Mutex<Option<CacheEntry>> {
        &self.cache[(key.stable_hash() as usize) % self.cache.len()]
    }

    /// Serves a cached result if every validity proof holds: same node,
    /// table and key; the *current* gate word equals the fill's; and the
    /// key's stripe write generation is unchanged since the fill. The
    /// generation check is what upgrades "the gate looks the same" into
    /// "no write touched this stripe": chain writes bump the generation
    /// when they mark (before applying), so equality means the datalet
    /// still holds exactly the cached bytes.
    fn cache_lookup(
        &self,
        node: NodeId,
        req: &Request,
        key: &Key,
        token: u64,
        gen: u64,
    ) -> Option<Response> {
        let mut slot = self.slot(key).lock();
        let e = slot.as_ref()?;
        if e.node != node || e.table != req.table || e.key != *key {
            return None;
        }
        if e.word != token || e.gen != gen {
            // The proof is permanently broken (generations are monotone,
            // a changed word means a reconfiguration): drop the entry so
            // the next validated read refills it.
            *slot = None;
            self.counters
                .cache_invalidated
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return None;
        }
        self.counters
            .cache_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(Response {
            id: req.id,
            result: e.result.clone(),
        })
    }

    /// Retains a fully validated fast-path read for future hot lookups.
    fn cache_fill(
        &self,
        node: NodeId,
        req: &Request,
        key: &Key,
        token: u64,
        gen: u64,
        result: &Result<RespBody, KvError>,
    ) {
        *self.slot(key).lock() = Some(CacheEntry {
            node,
            table: req.table.clone(),
            key: key.clone(),
            word: token,
            gen,
            result: result.clone(),
        });
        self.counters
            .cache_fills
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Per-node fast-path handles plus the key→shard mapping, shared by every
/// edge thread of a deployment.
pub struct FastPathTable {
    /// Build-time partitioning; used only for `shard_for_key` ownership
    /// checks (partitioning never changes at runtime, membership does —
    /// and membership is the gate's job, not ours).
    map: ShardMap,
    handles: RwLock<HashMap<NodeId, FastPathHandle>>,
    /// Hot-key engine: sketch, validating cache and counters.
    skew: SkewState,
}

impl FastPathTable {
    /// An empty table over the deployment's partitioning, with a skew
    /// engine sized by `skew`.
    pub fn new(map: ShardMap, skew: SkewConfig) -> Self {
        FastPathTable {
            map,
            handles: RwLock::new(HashMap::new()),
            skew: SkewState::new(skew),
        }
    }

    /// The skew engine.
    pub fn skew(&self) -> &SkewState {
        &self.skew
    }

    /// Skew-engine counter snapshot.
    pub fn skew_snapshot(&self) -> SkewSnapshot {
        self.skew.snapshot()
    }

    /// Registers (or replaces) the handle for a node.
    pub fn register(&self, node: NodeId, handle: FastPathHandle) {
        self.handles.write().insert(node, handle);
    }

    /// Removes a node's handle (restart-as-standby, teardown).
    pub fn unregister(&self, node: NodeId) {
        self.handles.write().remove(&node);
    }

    /// Slams a node's gate shut (fail-stop kill). The gate word is shared
    /// with the controlet, so this also invalidates in-progress reads.
    pub fn close(&self, node: NodeId) {
        if let Some(h) = self.handles.read().get(&node) {
            h.gate.close();
        }
    }

    /// The node's gate, for telemetry and test assertions.
    pub fn gate(&self, node: NodeId) -> Option<Arc<ServingState>> {
        self.handles.read().get(&node).map(|h| Arc::clone(&h.gate))
    }

    /// The replica currently publishing unconditional Strong service for
    /// `node`'s shard (the MS+SC tail / MS+EC master), if any. The
    /// hot-key relay uses this to send a fallback strong GET straight to
    /// the ordering authority instead of bouncing `WrongNode` off the
    /// local actor first.
    pub fn strong_peer(&self, node: NodeId) -> Option<NodeId> {
        let handles = self.handles.read();
        let shard = handles.get(&node)?.shard;
        handles
            .iter()
            .find(|(_, h)| h.shard == shard && h.gate.serves_strong())
            .map(|(&n, _)| n)
    }

    /// A replica of `node`'s shard *other than `node` itself* currently
    /// fit to serve reads: gate open, and publishing unconditional Strong
    /// service when `strong`. This is the fast-fail bounce target when
    /// `node` is believed gray-failed — the generalization of
    /// [`Self::strong_peer`] to any spreadable read.
    pub fn healthy_peer(&self, node: NodeId, strong: bool) -> Option<NodeId> {
        let handles = self.handles.read();
        let shard = handles.get(&node)?.shard;
        handles
            .iter()
            .find(|(&n, h)| {
                n != node
                    && h.shard == shard
                    && if strong { h.gate.serves_strong() } else { h.gate.is_open() }
            })
            .map(|(&n, _)| n)
    }

    /// The shard `node` serves, if registered.
    pub fn shard_of(&self, node: NodeId) -> Option<ShardId> {
        self.handles.read().get(&node).map(|h| h.shard)
    }

    /// Resolves a request's consistency level against `node`'s store-wide
    /// default (`None` for unknown nodes).
    pub fn effective_level(
        &self,
        node: NodeId,
        level: ConsistencyLevel,
    ) -> Option<Consistency> {
        self.handles
            .read()
            .get(&node)
            .map(|h| level.resolve(h.default_level))
    }

    /// Total fast-path serves across all registered nodes.
    pub fn total_hits(&self) -> u64 {
        self.handles.read().values().map(|h| h.gate.hits()).sum()
    }

    /// Total actor-loop fallbacks across all registered nodes.
    pub fn total_fallbacks(&self) -> u64 {
        self.handles.read().values().map(|h| h.gate.fallbacks()).sum()
    }

    /// Write-combiner counters: all zero (see [`CombinerSnapshot`]).
    pub fn combiner_snapshot(&self) -> CombinerSnapshot {
        CombinerSnapshot::default()
    }

    /// Tries to serve `req` addressed to `node` directly from the shared
    /// datalet. `None` means "send it to the controlet actor" — for any
    /// reason: not a GET, unknown node, wrong shard, closed gate,
    /// insufficient permission, dirty key, or a read that raced a
    /// reconfiguration. A `Some` is a complete, committed-read response
    /// (`NotFound` included — absence is a valid read result).
    pub fn try_get(&self, node: NodeId, req: &Request) -> Option<Response> {
        let Op::Get { key } = &req.op else { return None };
        let handles = self.handles.read();
        let h = handles.get(&node)?;
        if self.map.shard_for_key(key) != h.shard {
            return None;
        }
        // Feed the live GET stream into the hot-key sketch. Hotness only
        // arms the validating cache below; cold keys take the exact
        // pre-skew path.
        let skew = &self.skew;
        skew.counters
            .sketch_ops
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        skew.sketch.record(key);
        let hot = skew.sketch.is_hot(key);
        if hot {
            skew.counters
                .hot_lookups
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let token = h.gate.begin_read();
        let level = req.level.resolve(h.default_level);
        // Stripe write generation, sampled before the dirty probe and the
        // datalet read: it timestamps any cache fill this read produces.
        let gen = h.dirty.generation(key);
        let clean_read = match ServingState::permit(token, level) {
            ReadPermit::Serve => false,
            ReadPermit::ServeIfClean => {
                if h.dirty.is_dirty(key) {
                    h.gate.count_fallback();
                    return None;
                }
                // Validating cache, only on the clean-read path: this is
                // the one permit whose serves are already justified by
                // mark-before-apply plus the dirty probe, which is exactly
                // the machinery the write-generation check reuses. On the
                // unconditional `Serve` path (tail/master, EC replicas)
                // generations are not maintained by every write path, and
                // the datalet read is a single concurrent-map lookup
                // anyway — a cache would only add a staleness hazard.
                if hot {
                    if let Some(resp) = skew.cache_lookup(node, req, key, token, gen) {
                        h.gate.count_hit();
                        return Some(resp);
                    }
                }
                true
            }
            ReadPermit::Fallback => {
                h.gate.count_fallback();
                return None;
            }
        };
        let result = h.datalet.get(&req.table, key).map(RespBody::Value);
        // Seqlock validation: any reconfiguration since `begin_read`
        // invalidates the read.
        if !h.gate.validate(token) {
            h.gate.count_fallback();
            return None;
        }
        // Clean-read revalidation. The controlet marks a key dirty
        // *before* applying the uncommitted value, so a read that saw an
        // uncommitted apply necessarily sees the dirty mark here and falls
        // back;
        // a read that re-checks clean saw only committed state.
        if clean_read && h.dirty.is_dirty(key) {
            h.gate.count_fallback();
            return None;
        }
        if clean_read && hot {
            // Every proof that justified serving this read holds for the
            // cached copy until the gate word or stripe generation moves.
            skew.cache_fill(node, req, key, token, gen, &result);
        }
        h.gate.count_hit();
        Some(Response {
            id: req.id,
            result,
        })
    }
}

/// Overload protection for a [`NodeEdge`]: the cluster's relay cap
/// (0 = unbounded), relay deadline and stall-detection knobs, plus
/// expired-deadline rejection. The clock must be the same one deadlines
/// were stamped against (the runtime's `now()`).
pub(crate) struct EdgeOverload {
    /// The cluster's overload knobs; the edge reads the relay ones.
    pub cfg: OverloadConfig,
    /// Shed/expiry event counters.
    pub counters: Arc<OverloadCounters>,
    /// Clock for deadline checks.
    pub clock: Arc<dyn Fn() -> Instant + Send + Sync>,
}

/// Identity of one coalescable upstream read: same table, key and
/// requested level share a flight.
type FlightKey = (String, Key, ConsistencyLevel);

/// Followers parked on an in-flight leader: each is settled when the
/// leader's relay completes or expires — adopted result, fast-path
/// revalidation, or a re-dispatched relay of its own.
type FlightWaiters = Vec<(Request, Completer)>;

/// One request parked awaiting a controlet reply. The connection, not the
/// thread, is what waits: the [`Completer`] finishes the transport-level
/// response slot from whichever thread settles the entry.
struct Parked {
    completer: Completer,
    /// Wall-clock expiry; the sweeper thread completes the entry with
    /// `Timeout` past this, so the table never leaks.
    deadline: std::time::Instant,
    /// The controlet this relay was dispatched to (relay-health keying).
    peer: NodeId,
    /// The singleflight this entry leads, settled alongside it.
    flight: Option<FlightKey>,
}

/// Per-peer relay health: the gray-failure detector. Watches the age of
/// the oldest outstanding relay to each peer; trips into fast-fail when
/// it crosses the stall threshold or a relay expires outright; self-heals
/// on the first reply that proves the peer is draining again.
struct RelayHealth {
    peers: Mutex<HashMap<NodeId, PeerHealth>>,
}

struct PeerHealth {
    /// Dispatch time of every in-flight relay to this peer.
    outstanding: HashMap<RequestId, std::time::Instant>,
    tripped: bool,
}

impl RelayHealth {
    fn new() -> Self {
        RelayHealth { peers: Mutex::new(HashMap::new()) }
    }

    fn on_dispatch(&self, peer: NodeId, rid: RequestId) {
        self.peers
            .lock()
            .entry(peer)
            .or_insert_with(|| PeerHealth { outstanding: HashMap::new(), tripped: false })
            .outstanding
            .insert(rid, std::time::Instant::now());
    }

    /// A reply landed: the peer is draining. Heals a tripped peer.
    fn on_reply(&self, peer: NodeId, rid: RequestId) {
        if let Some(p) = self.peers.lock().get_mut(&peer) {
            p.outstanding.remove(&rid);
            p.tripped = false;
        }
    }

    /// A relay to this peer expired. Returns true when this newly trips.
    fn on_timeout(&self, peer: NodeId, rid: RequestId) -> bool {
        let mut peers = self.peers.lock();
        let Some(p) = peers.get_mut(&peer) else { return false };
        p.outstanding.remove(&rid);
        let newly = !p.tripped;
        p.tripped = true;
        newly
    }

    /// Whether the peer is currently considered gray-failed: already
    /// tripped, or its oldest outstanding relay is older than
    /// `threshold` (the watermark catches a wedge *before* the first
    /// timeout fires). Returns `(tripped, newly_tripped)`.
    fn check(&self, peer: NodeId, threshold: std::time::Duration) -> (bool, bool) {
        let now = std::time::Instant::now();
        let mut peers = self.peers.lock();
        let Some(p) = peers.get_mut(&peer) else { return (false, false) };
        if p.tripped {
            // Probe exception: with nothing outstanding, one relay is let
            // through to test the peer — its reply is the only thing that
            // can heal the trip, and fast-failing everything forever
            // would turn a 2-second wedge into a permanent outage.
            return (!p.outstanding.is_empty(), false);
        }
        let stalled = p
            .outstanding
            .values()
            .min()
            .is_some_and(|t| now.duration_since(*t) > threshold);
        if stalled {
            p.tripped = true;
        }
        (stalled, stalled)
    }

    fn tripped(&self, peer: NodeId) -> bool {
        self.peers.lock().get(&peer).is_some_and(|p| p.tripped)
    }
}

/// The live-runtime edge for one node: a TCP-server-compatible request
/// handler that serves permitted GETs on the calling reactor thread and
/// relays everything else to the controlet actor via a [`Mailbox`]. A
/// relayed request *parks the connection, never the thread*: the serving
/// turn returns with [`Served::Parked`], having run an idle controlet
/// itself (the reply then completes the entry before `serve` returns).
/// The thread running the replying actor completes entries; a sweeper
/// thread expires deadlines every 10 ms with `Timeout`, so a wedged
/// controlet costs its own callers a bounce, not the edge its threads.
pub struct NodeEdge {
    inner: Arc<EdgeInner>,
    stop: Arc<AtomicBool>,
    sweeper: Option<std::thread::JoinHandle<()>>,
}

/// Shared state of one [`NodeEdge`]: everything the serving threads, the
/// threads running the replying actors and the sweeper thread touch.
struct EdgeInner {
    node: NodeId,
    table: Arc<FastPathTable>,
    mailbox: Mailbox,
    pending: Mutex<HashMap<RequestId, Parked>>,
    /// Singleflight table for hot-key GET coalescing: the first relayed
    /// GET for a hot key becomes the leader, concurrent identical GETs
    /// park here and are settled off the leader's outcome.
    flights: Mutex<HashMap<FlightKey, FlightWaiters>>,
    fast_path: AtomicBool,
    overload: EdgeOverload,
    health: RelayHealth,
}

impl NodeEdge {
    /// Builds the edge for `node`, registering its mailbox on `rt` — the
    /// runtime the node's controlet runs on. `enable_fast_path: false`
    /// routes every GET through the actor (the relay baseline).
    pub(crate) fn new(
        node: NodeId,
        table: Arc<FastPathTable>,
        rt: &mut LiveRuntime,
        enable_fast_path: bool,
        overload: EdgeOverload,
    ) -> Self {
        // Replies complete their entry on the sending thread. The sink holds
        // the edge weakly: the runtime must not keep a dropped edge alive.
        let inner = Arc::new_cyclic(|me: &Weak<EdgeInner>| {
            let me = me.clone();
            let mailbox = rt.register_mailbox(move |_, msg| {
                if let (NetMsg::ClientResp(resp), Some(inner)) = (msg, me.upgrade()) {
                    inner.complete(resp);
                }
            });
            EdgeInner {
                node,
                table,
                mailbox,
                pending: Mutex::new(HashMap::new()),
                flights: Mutex::new(HashMap::new()),
                fast_path: AtomicBool::new(enable_fast_path),
                overload,
                health: RelayHealth::new(),
            }
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (edge, halt) = (Arc::clone(&inner), Arc::clone(&stop));
        let sweeper = std::thread::spawn(move || {
            while !halt.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(10));
                edge.expire_parked(std::time::Instant::now());
            }
        });
        NodeEdge { inner, stop, sweeper: Some(sweeper) }
    }

    /// Flips the fast path on or off (bench before/after comparison).
    pub fn set_fast_path(&self, on: bool) {
        self.inner.fast_path.store(on, Ordering::Release);
    }

    /// Whether the relay health tracker currently considers `peer`
    /// gray-failed (test/telemetry probe; does not itself trip).
    pub fn peer_tripped(&self, peer: NodeId) -> bool {
        self.inner.health.tripped(peer)
    }

    /// Requests currently parked awaiting a controlet reply.
    pub fn parked(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// The deferred request handler for `TcpServer::bind_deferred`: serves
    /// or sheds inline where possible and parks the *connection* for
    /// relays. A relay to a busy or stalled controlet costs the reactor
    /// thread nothing but the dispatch, so a wedged controlet cannot absorb
    /// reactor threads; an idle one runs on the reactor thread.
    pub fn defer_handler(&self) -> Arc<DeferHandler> {
        let inner = Arc::clone(&self.inner);
        Arc::new(move |req: Request, mut defer: Defer<'_>| {
            inner.serve(req, &mut || defer.completer())
        })
    }
}

impl EdgeInner {
    /// Serves one request: inline (`Served::Ready`) when the fast path,
    /// a shed, or a fast-fail bounce answers it on the calling thread;
    /// parked (`Served::Parked`) when a completer was minted and the
    /// controlet's reply (or the sweeper) owns the eventual response.
    fn serve(&self, req: Request, mint: &mut dyn FnMut() -> Completer) -> Served {
        let now = (self.overload.clock)();
        // Work whose deadline already passed is dead on arrival: the
        // client has given up, so executing it only steals capacity from
        // requests that can still make their SLO.
        if req.expired(now) {
            self.overload
                .counters
                .deadline_expired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Served::Ready(Response::err(req.id, KvError::Overloaded));
        }
        if self.fast_path.load(Ordering::Acquire) {
            if let Some(resp) = self.table.try_get(self.node, &req) {
                return Served::Ready(resp);
            }
        }
        // Hot-key request coalescing: concurrent relayed GETs for the
        // same hot key share one upstream read. The first becomes the
        // *leader* and does the relay; the rest park as followers on its
        // flight and are settled when the leader's entry completes or
        // expires — never by re-waiting a full relay budget of their own.
        let mut flight: Option<FlightKey> = None;
        let mut relay_to = self.node;
        if let Op::Get { key } = &req.op {
            let skew = self.table.skew();
            if skew.sketch().is_hot(key) {
                let fk: FlightKey = (req.table.clone(), key.clone(), req.level);
                {
                    let mut fl = self.flights.lock();
                    match fl.get_mut(&fk) {
                        Some(waiters) => {
                            waiters.push((req, mint()));
                            return Served::Parked;
                        }
                        None => {
                            fl.insert(fk.clone(), Vec::new());
                            flight = Some(fk);
                        }
                    }
                }
                skew.counters
                    .coalesce_leaders
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                relay_to = self.route(&req);
            }
        }
        // Refusals (gray fast-fail, relay-cap shed) answer inline and
        // settle the flight we lead, so followers never park behind a
        // relay that was never dispatched.
        if let Some(resp) = self.refuse(&req, relay_to) {
            let result = resp.result.clone();
            self.settle_flight(flight, &result);
            return Served::Ready(resp);
        }
        self.park(req.id, mint(), self.deadline_for(&req), relay_to, flight);
        self.mailbox.send(Addr(relay_to.raw()), NetMsg::Client(req));
        Served::Parked
    }

    /// Relay target for a hot GET: strong reads go straight to the
    /// strong-read authority when one is known (a fallback strong GET at
    /// an MS+SC non-tail would only bounce `WrongNode{hint: tail}` off
    /// the local actor first).
    fn route(&self, req: &Request) -> NodeId {
        if self.table.effective_level(self.node, req.level) == Some(Consistency::Strong) {
            if let Some(peer) = self.table.strong_peer(self.node) {
                return peer;
            }
        }
        self.node
    }

    /// Inline rejection, checked before dispatching any relay: a tripped
    /// gray peer bounces immediately (`WrongNode{hint}` toward a healthy
    /// replica for spreadable GETs, `Unavailable` otherwise), and a full
    /// pending table sheds `Overloaded` rather than park without limit.
    fn refuse(&self, req: &Request, relay_to: NodeId) -> Option<Response> {
        let o = &self.overload;
        if self.peer_is_tripped(relay_to) {
            o.counters
                .stall_fastfails
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Some(Response::err(req.id, self.bounce_error(req, relay_to)));
        }
        if o.cfg.relay_cap != 0 && self.pending.lock().len() >= o.cfg.relay_cap {
            o.counters
                .relay_shed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Some(Response::err(req.id, KvError::Overloaded));
        }
        None
    }

    /// The fast-fail verdict for a request whose relay target is believed
    /// gray-failed. GETs bounce toward a healthy replica of the shard
    /// when one is registered (the client retries there for free, and its
    /// circuit breaker parks the wedged node); everything else — writes
    /// must reach *this* ordering authority — fails `Unavailable`.
    fn bounce_error(&self, req: &Request, relay_to: NodeId) -> KvError {
        if matches!(req.op, Op::Get { .. }) {
            let strong =
                self.table.effective_level(relay_to, req.level) == Some(Consistency::Strong);
            if let Some(alt) = self.table.healthy_peer(relay_to, strong) {
                return KvError::WrongNode { node: relay_to, hint: Some(alt) };
            }
        }
        KvError::Unavailable(self.table.shard_of(relay_to).unwrap_or(ShardId(0)))
    }

    fn peer_is_tripped(&self, peer: NodeId) -> bool {
        let o = &self.overload;
        let (tripped, newly) = self.health.check(peer, o.cfg.relay_stall_threshold.into());
        if newly {
            o.counters
                .stall_trips
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        tripped
    }

    /// Wall-clock expiry for a new parked entry: the configured relay
    /// timeout, clamped by the request's own wire deadline when tighter.
    fn deadline_for(&self, req: &Request) -> std::time::Instant {
        let o = &self.overload;
        let mut budget: std::time::Duration = o.cfg.relay_timeout.into();
        if req.deadline != Instant::ZERO {
            let remaining: std::time::Duration =
                req.deadline.saturating_since((o.clock)()).into();
            budget = budget.min(remaining);
        }
        std::time::Instant::now() + budget
    }

    fn park(
        &self,
        rid: RequestId,
        completer: Completer,
        deadline: std::time::Instant,
        peer: NodeId,
        flight: Option<FlightKey>,
    ) {
        self.health.on_dispatch(peer, rid);
        self.pending
            .lock()
            .insert(rid, Parked { completer, deadline, peer, flight });
    }

    /// Completes a parked entry on the replying actor's thread: health
    /// heals, the connection's response slot fills, and any flight the
    /// entry led is settled with the same result.
    fn complete(&self, resp: Response) {
        let Some(p) = self.pending.lock().remove(&resp.id) else { return };
        self.health.on_reply(p.peer, resp.id);
        let rid = resp.id;
        let result = resp.result.clone();
        p.completer.complete(Response { id: rid, result: resp.result });
        self.settle_flight(p.flight, &result);
    }

    /// Expires every parked entry past its deadline with `Timeout`, trips
    /// relay health for the silent peer, and settles led flights. Runs on
    /// the sweeper thread every 10 ms; the pending lock is dropped before
    /// any completer fires.
    fn expire_parked(&self, now: std::time::Instant) {
        let expired: Vec<(RequestId, Parked)> = {
            let mut pending = self.pending.lock();
            let rids: Vec<RequestId> = pending
                .iter()
                .filter(|(_, e)| e.deadline <= now)
                .map(|(r, _)| *r)
                .collect();
            rids.into_iter()
                .filter_map(|r| pending.remove(&r).map(|e| (r, e)))
                .collect()
        };
        if expired.is_empty() {
            return;
        }
        let counters = &self.overload.counters;
        for (rid, e) in expired {
            counters
                .relay_expired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.health.on_timeout(e.peer, rid) {
                counters
                    .stall_trips
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            let result: Result<RespBody, KvError> = Err(KvError::Timeout);
            e.completer.complete(Response { id: rid, result: result.clone() });
            self.settle_flight(e.flight, &result);
        }
    }

    /// Settles every follower of a completed (or failed) flight leader:
    /// an effective-Eventual follower adopts a successful result
    /// wholesale (any recently committed value or committed absence is a
    /// legitimate eventual read); a strong follower must not inherit
    /// another request's linearization point, so it revalidates through
    /// the fast path — the dirty window that forced the fallback has
    /// likely closed — and otherwise is *re-dispatched* as a relay of its
    /// own, immediately, never re-waiting the leader's full budget.
    fn settle_flight(&self, fk: Option<FlightKey>, result: &Result<RespBody, KvError>) {
        let Some(fk) = fk else { return };
        let Some(waiters) = self.flights.lock().remove(&fk) else { return };
        if waiters.is_empty() {
            return;
        }
        let coalesced = |n: u64| {
            self.table
                .skew()
                .counters
                .coalesced
                .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        };
        for (wreq, completer) in waiters {
            let level = self.table.effective_level(self.node, wreq.level);
            if level == Some(Consistency::Eventual) && result.is_ok() {
                coalesced(1);
                completer.complete(Response { id: wreq.id, result: result.clone() });
                continue;
            }
            if self.fast_path.load(Ordering::Acquire) {
                if let Some(resp) = self.table.try_get(self.node, &wreq) {
                    coalesced(1);
                    completer.complete(resp);
                    continue;
                }
            }
            let to = self.route(&wreq);
            if let Some(resp) = self.refuse(&wreq, to) {
                completer.complete(resp);
                continue;
            }
            self.overload
                .counters
                .relay_redispatches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.park(wreq.id, completer, self.deadline_for(&wreq), to, None);
            self.mailbox.send(Addr(to.raw()), NetMsg::Client(wreq));
        }
    }
}

impl Drop for NodeEdge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        // Anything still parked completes with the Timeout backstop when
        // its completer drops here — no connection is left hanging.
        self.inner.pending.lock().clear();
        self.inner.flights.lock().clear();
    }
}
