//! The flat-combining write path (multi-core mutation).
//!
//! PR 4 let edge threads *read* the shared datalet directly; every write
//! still serialized through the single-threaded controlet actor, so PUT
//! throughput was flat no matter how many TCP workers served a node. This
//! module is the write-side counterpart, in the node-replication style: a
//! per-datalet **operation log** ([`OpLog`]) with per-thread enqueue slots
//! and a combiner lock.
//!
//! An edge thread publishes a PUT/DEL into its slot and then either
//!
//! * observes its slot drained by another thread (qlock loser: spin on the
//!   slot's drain generation), or
//! * wins the combiner lock, drains *every* slot in slot order, allocates a
//!   contiguous version range from the shared [`VersionSource`], applies
//!   the whole batch to the shared datalet with the existing
//!   mark-before-apply [`DirtySet`] ordering, and parks the ordered batch
//!   on a handoff queue for the controlet actor.
//!
//! The actor then processes **O(batches)** messages instead of O(writes):
//! each [`CombinedBatch`] becomes one `ChainPutBatch` (MS+SC) or one run of
//! propagation-buffer inserts (MS+EC). Replication, ordering authority,
//! failover, and transitions all stay on the actor — only raw mutation
//! moved off it.
//!
//! Safety mirrors the read fast path:
//!
//! * **Gate.** The controlet publishes a [`WriteGate`] word (same seqlock
//!   idiom as `ServingState`): writes combine only while this node is the
//!   serving master-slave write ingress at the current epoch, outside
//!   recovery/transition, and with no active recovery feed. Everything
//!   else falls back to the actor path.
//! * **Exactly-once.** Every op's `RequestId` passes through the shared
//!   [`ReplyCache`] before enqueue (a retried completed write is answered
//!   from cache), and an in-flight set refuses double-enqueue of a rid
//!   until the actor responds.
//! * **Overload.** A full op log rejects the newest op with `Overloaded`
//!   (never a silent drop), per-op deadlines are re-checked at combine
//!   time — expired ops are shed into the batch's reject list — and chain
//!   batches are capped by the actor-published head window (in-flight
//!   bound), shed *before* versioning/apply so `Overloaded` stays a
//!   definitive not-applied even on the combined path.
//! * **Epoch fencing.** The batch snapshots the gate's epoch; versions come
//!   from the same rebased-on-adopt [`VersionSource`] the actor uses, so a
//!   batch that raced a reconfiguration carries versions the new epoch
//!   supersedes, and version-guarded (LWW) applies keep every replica
//!   convergent.

use crate::serving::DirtySet;
use bespokv_datalet::Datalet;
use bespokv_proto::client::{RespBody, Request, Response};
use bespokv_proto::LogEntry;
use bespokv_runtime::Addr;
use bespokv_types::{
    Consistency, HistoryRecorder, Instant, Key, KvError, NodeId, RequestId, ShardId, ShardInfo,
    Topology, Value, Version,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Write combining is permitted at all.
const W_OPEN: u64 = 1;
/// Combined applies must dirty-mark before applying (MS+SC chain with a
/// successor: the entry stays uncommitted until the tail acks).
const W_CHAIN: u64 = 1 << 1;
/// Bits the epoch is shifted by (mirrors `ServingState`).
const EPOCH_SHIFT: u32 = 8;

/// The controlet-published write-combining gate: one `AtomicU64`, low bits
/// permission flags, high bits the shard epoch. Same publish/close/epoch
/// discipline as the read gate in [`crate::serving::ServingState`].
#[derive(Debug, Default)]
pub struct WriteGate {
    word: AtomicU64,
}

impl WriteGate {
    /// A closed gate (every write takes the actor path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes and stores the gate word. Combining is legal only when
    /// this node is the serving write ingress of a master-slave shard —
    /// the MS+SC head or MS+EC master — at the current epoch. AA modes
    /// (lock/log-ordered writes) and every quiesced state (not serving,
    /// recovery, transition, active recovery feed) close the gate.
    pub fn publish(&self, info: Option<&ShardInfo>, node: NodeId, quiesced: bool) {
        let word = match info {
            Some(info)
                if !quiesced
                    && info.mode.topology == Topology::MasterSlave
                    && info.head() == Some(node) =>
            {
                let mut flags = W_OPEN;
                // A chain with a successor holds writes dirty until the
                // tail acks; a chain of one (or MS+EC) commits on apply.
                if info.mode.consistency == Consistency::Strong && info.replicas.len() > 1 {
                    flags |= W_CHAIN;
                }
                (info.epoch << EPOCH_SHIFT) | flags
            }
            _ => 0,
        };
        self.word.store(word, Ordering::Release);
    }

    /// Slams the gate shut (node death, harness teardown).
    pub fn close(&self) {
        self.word.store(0, Ordering::Release);
    }

    /// Whether combining is currently permitted.
    pub fn is_open(&self) -> bool {
        self.word.load(Ordering::Acquire) & W_OPEN != 0
    }

    /// Epoch carried by the current gate word (tests).
    pub fn epoch(&self) -> u64 {
        self.word.load(Ordering::Acquire) >> EPOCH_SHIFT
    }

    fn snapshot(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }
}

/// Shared monotonic write-version source. The controlet actor and the
/// combiner allocate from the same counter, so versions stay totally
/// ordered across both write paths; `rebase` keeps them monotonic across
/// epochs exactly like the actor's old private counter.
#[derive(Debug)]
pub struct VersionSource(AtomicU64);

impl VersionSource {
    /// Starts the counter at `start` (the actor seeds 1).
    pub fn new(start: Version) -> Self {
        VersionSource(AtomicU64::new(start))
    }

    /// Allocates one version.
    pub fn fresh(&self) -> Version {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates `n` contiguous versions, returning the first.
    pub fn alloc(&self, n: u64) -> Version {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Rebases for a new epoch: every version issued afterwards exceeds
    /// anything issued under earlier epochs.
    pub fn rebase(&self, epoch: u64) {
        self.0.fetch_max(((epoch + 1) << 40) + 1, Ordering::Relaxed);
    }
}

/// Completed-write reply cache capacity. Only needs to outlive a client's
/// retry window (a handful of seconds), so a small bound suffices.
const REPLY_CACHE_CAP: usize = 1024;

/// Reply cache for completed writes, shared between the controlet actor
/// and the edge combiner: a client retry of a write already acked is
/// answered from here, never executed again — a re-execution would commit
/// the same payload under a fresh version and resurrect it over writes
/// that landed in between.
#[derive(Debug, Default)]
pub struct ReplyCache {
    inner: Mutex<ReplyCacheInner>,
}

#[derive(Debug, Default)]
struct ReplyCacheInner {
    map: HashMap<RequestId, Response>,
    order: VecDeque<RequestId>,
}

impl ReplyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached reply for a completed write, if any.
    pub fn get(&self, rid: RequestId) -> Option<Response> {
        self.inner.lock().map.get(&rid).cloned()
    }

    /// Records a completed write reply (only successful `Done`s are worth
    /// caching; errors are safe to re-derive).
    pub fn record(&self, resp: &Response) {
        if !matches!(resp.result, Ok(RespBody::Done)) {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.insert(resp.id, resp.clone()).is_none() {
            inner.order.push_back(resp.id);
            if inner.order.len() > REPLY_CACHE_CAP {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }
}

/// Per-thread enqueue slots. Power of two; more threads than slots just
/// share (the slot queue is a short mutex-guarded deque, not a 1:1 cell).
const SLOTS: usize = 8;

/// Bounded spin budget for the opportunistic combine window: how long a
/// combiner that won the lock while another submit was mid-flight lingers
/// before draining, giving the peer time to land its op in a slot so the
/// drain takes a batch > 1. Purely best-effort — the window only delays
/// the drain, never correctness.
const COMBINE_WINDOW_SPINS: usize = 256;

/// Ops-per-batch histogram buckets: 1, 2-3, 4-7, ..., 64-127, 128+.
const BATCH_BUCKETS: usize = 8;

/// One write parked in a slot, pre-ordering.
#[derive(Debug)]
struct PendingWrite {
    rid: RequestId,
    reply_to: Addr,
    deadline: Instant,
    table: String,
    key: Key,
    /// `None` encodes a delete.
    value: Option<Value>,
}

#[derive(Debug, Default)]
struct Slot {
    queue: Mutex<VecDeque<PendingWrite>>,
    /// Bumped every time the slot is drained; a submitter whose push
    /// preceded the bump knows its op is in a combined batch.
    drained_gen: AtomicU64,
}

/// One combined, version-ordered write awaiting actor-side replication.
#[derive(Debug, Clone)]
pub struct CombinedWrite {
    /// The client request id (reply bookkeeping + exactly-once).
    pub rid: RequestId,
    /// Where the eventual response goes.
    pub reply_to: Addr,
    /// Deadline carried by the original request (`Instant::ZERO` = none).
    pub deadline: Instant,
    /// The mutation, version already assigned from the shared range.
    pub entry: LogEntry,
}

/// A drained batch: the unit the controlet actor replicates.
#[derive(Debug)]
pub struct CombinedBatch {
    /// Gate epoch snapshotted at combine time (telemetry/fencing; applies
    /// are version-guarded, so a stale epoch is safe to process).
    pub epoch: u64,
    /// Whether the combiner already applied the writes to the datalet.
    /// `false` means the gate closed between enqueue and combine: nothing
    /// was applied and the actor must route each op through the normal
    /// client path instead of replicating it.
    pub applied: bool,
    /// Whether applied writes were dirty-marked (chain mode): the actor
    /// must retire the marks through the in-flight table, not re-mark.
    pub chain_marked: bool,
    /// The writes, in combined (= version) order.
    pub writes: Vec<CombinedWrite>,
    /// Ops shed at combine time because their deadline had expired; the
    /// actor owes each an explicit `Overloaded` reply.
    pub rejects: Vec<(RequestId, Addr)>,
    /// Ops shed at combine time because the head's in-flight window was
    /// full (chain mode). Never versioned or applied — `Overloaded` stays
    /// a definitive not-applied — and the actor owes each an explicit
    /// reply plus the `head_window_shed` accounting.
    pub window_sheds: Vec<(RequestId, Addr)>,
}

/// What a submit attempt resolved to.
#[derive(Debug)]
pub enum Submit {
    /// Finished on the edge thread: cached reply or overload rejection.
    Done(Response),
    /// The op is in a combined batch (or will be in the next one). When
    /// `nudge` is true the caller combined a batch itself and should poke
    /// the controlet actor to drain the handoff queue.
    Enqueued {
        /// Whether this submit produced a new handoff batch.
        nudge: bool,
    },
}

/// Combiner event counters (relaxed atomics; cheap on the hot path).
#[derive(Debug, Default)]
pub struct CombinerCounters {
    batches: AtomicU64,
    ops: AtomicU64,
    shed_full: AtomicU64,
    shed_expired: AtomicU64,
    shed_window: AtomicU64,
    cache_hits: AtomicU64,
    lock_contention: AtomicU64,
    window_waits: AtomicU64,
    ops_per_batch: [AtomicU64; BATCH_BUCKETS],
}

/// Plain-integer snapshot of [`CombinerCounters`].
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
    /// Retries answered from the reply cache at enqueue.
    pub cache_hits: u64,
    /// Submit attempts that found the combiner lock held.
    pub lock_contention: u64,
    /// Drains that spun the opportunistic combine window because another
    /// submit was mid-flight when the combiner lock was won.
    pub window_waits: u64,
    /// Ops-per-batch histogram: buckets 1, 2-3, 4-7, ..., 64-127, 128+.
    pub ops_per_batch: [u64; BATCH_BUCKETS],
}

impl CombinerSnapshot {
    /// Field-wise accumulation (edge-stats aggregation).
    pub fn absorb(&mut self, other: &CombinerSnapshot) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.shed_full += other.shed_full;
        self.shed_expired += other.shed_expired;
        self.shed_window += other.shed_window;
        self.cache_hits += other.cache_hits;
        self.lock_contention += other.lock_contention;
        self.window_waits += other.window_waits;
        for (a, b) in self.ops_per_batch.iter_mut().zip(other.ops_per_batch) {
            *a += b;
        }
    }
}

impl std::fmt::Display for CombinerSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "combiner: {} batches, {} ops, {} shed-full, {} shed-expired, \
             {} shed-window, {} cache hits, {} lock contention, \
             {} window waits; ops/batch {:?}",
            self.batches,
            self.ops,
            self.shed_full,
            self.shed_expired,
            self.shed_window,
            self.cache_hits,
            self.lock_contention,
            self.window_waits,
            self.ops_per_batch,
        )
    }
}

fn batch_bucket(n: usize) -> usize {
    let mut b = 0;
    let mut m = n;
    while m > 1 && b < BATCH_BUCKETS - 1 {
        m >>= 1;
        b += 1;
    }
    b
}

/// The per-datalet operation log (see module docs). One per controlet,
/// shared by every edge thread serving that node.
pub struct OpLog {
    gate: WriteGate,
    versions: Arc<VersionSource>,
    replies: Arc<ReplyCache>,
    dirty: Arc<DirtySet>,
    datalet: Arc<dyn Datalet>,
    recorder: Option<HistoryRecorder>,
    node: NodeId,
    /// The shard this node serves; rebound when a standby is assigned
    /// (mirrors `ControletConfig::shard`).
    shard: AtomicU32,
    /// Op-log capacity: enqueues beyond this many parked-or-unreplicated
    /// ops are rejected `Overloaded` (reject-newest, never a silent drop).
    /// Doubles as the head window (both come from
    /// `OverloadConfig::head_window`): `head_inflight` plus a combined
    /// batch's size is bounded by it.
    cap: usize,
    /// Ops enqueued but not yet drained out of the slots.
    pending_ops: AtomicUsize,
    /// Threads currently between the enqueue checks and the end of the
    /// qlock loop. A combiner that wins the lock while this is above one
    /// spins the combine window before draining so the mid-flight peer's
    /// op joins the batch; a solo submitter never waits, so the
    /// uncontended path is unchanged.
    submitting: AtomicUsize,
    /// Actor-published size of its chain in-flight table (writes awaiting
    /// the tail ack). The combiner sheds past `cap - head_inflight`, so a
    /// slow chain successor cannot grow the head's in-flight map, pending
    /// table, and DirtySet without bound while clients keep writing —
    /// same bound the actor path enforces in `ms_sc_write`.
    head_inflight: AtomicUsize,
    slots: Vec<Slot>,
    combiner: Mutex<()>,
    /// Rids enqueued or combined but not yet responded to, each tagged
    /// with who currently owns its repair path: refuses double-enqueue of
    /// a retried write while the original is in flight, and routes the
    /// retry to whichever side can actually repair a lost message.
    inflight: Mutex<HashMap<RequestId, RidOwner>>,
    handoff: Mutex<VecDeque<CombinedBatch>>,
    counters: CombinerCounters,
}

/// Who owns an in-flight rid's repair path (see the retry routing in
/// [`OpLog::submit_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RidOwner {
    /// Parked in a slot or in a handed-off batch: a retry only re-arms
    /// the drain nudge.
    Edge,
    /// Collected by the controlet via [`OpLog::pop_batch`] — the op sits
    /// in the actor's pending/in-flight tables, so a retry must take the
    /// actor path, where the controlet joins it to the original and
    /// re-pushes the chain write.
    Actor,
}

/// Round-robin slot assignment, cached per thread.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static MY_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

impl OpLog {
    /// Builds the op log for one controlet. The gate starts closed; the
    /// controlet opens it via [`WriteGate::publish`] when eligible.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        datalet: Arc<dyn Datalet>,
        dirty: Arc<DirtySet>,
        versions: Arc<VersionSource>,
        replies: Arc<ReplyCache>,
        recorder: Option<HistoryRecorder>,
        node: NodeId,
        shard: ShardId,
        cap: usize,
    ) -> Self {
        OpLog {
            gate: WriteGate::new(),
            versions,
            replies,
            dirty,
            datalet,
            recorder,
            node,
            shard: AtomicU32::new(shard.raw()),
            cap: cap.max(1),
            pending_ops: AtomicUsize::new(0),
            submitting: AtomicUsize::new(0),
            head_inflight: AtomicUsize::new(0),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            combiner: Mutex::new(()),
            inflight: Mutex::new(HashMap::new()),
            handoff: Mutex::new(VecDeque::new()),
            counters: CombinerCounters::default(),
        }
    }

    /// The published write gate.
    pub fn gate(&self) -> &WriteGate {
        &self.gate
    }

    /// Rebinds the shard id (standby assignment).
    pub fn set_shard(&self, shard: ShardId) {
        self.shard.store(shard.raw(), Ordering::Release);
    }

    /// The shard this op log currently serves.
    pub fn shard(&self) -> ShardId {
        ShardId(self.shard.load(Ordering::Acquire))
    }

    /// Counter snapshot (telemetry).
    pub fn snapshot(&self) -> CombinerSnapshot {
        let c = &self.counters;
        let mut ops_per_batch = [0u64; BATCH_BUCKETS];
        for (o, c) in ops_per_batch.iter_mut().zip(&c.ops_per_batch) {
            *o = c.load(Ordering::Relaxed);
        }
        CombinerSnapshot {
            batches: c.batches.load(Ordering::Relaxed),
            ops: c.ops.load(Ordering::Relaxed),
            shed_full: c.shed_full.load(Ordering::Relaxed),
            shed_expired: c.shed_expired.load(Ordering::Relaxed),
            shed_window: c.shed_window.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            lock_contention: c.lock_contention.load(Ordering::Relaxed),
            window_waits: c.window_waits.load(Ordering::Relaxed),
            ops_per_batch,
        }
    }

    /// Retires a rid from the in-flight set. The controlet calls this from
    /// `respond`, so the exactly-once guard covers the whole window from
    /// enqueue to client reply.
    pub fn release(&self, rid: RequestId) {
        self.inflight.lock().remove(&rid);
    }

    /// Marks a chain write the actor ordered itself (it arrived while the
    /// gate was closed) as actor-owned. Its retry may find the gate open;
    /// without the mark the retry would be combined as a new write —
    /// re-ordering the payload, or shedding it against the window its own
    /// original occupies, so the original's lost `ChainPut` or ack is never
    /// re-pushed and the head's window stays full. `respond` releases it.
    pub fn claim_for_actor(&self, rid: RequestId) {
        self.inflight.lock().insert(rid, RidOwner::Actor);
    }

    /// Publishes the actor's current chain in-flight count. The controlet
    /// calls this wherever `in_flight` changes size; the combiner reads it
    /// to bound how many chain writes it admits per batch.
    pub fn publish_head_inflight(&self, n: usize) {
        self.head_inflight.store(n, Ordering::Release);
    }

    /// Whether a rid is somewhere in the combiner pipeline (slot, handoff,
    /// or replication after a drain) and unanswered. The actor checks this
    /// before ordering a write that arrived on the relay path: a retry of
    /// a combined write must join the original, never re-order.
    pub fn tracks(&self, rid: RequestId) -> bool {
        self.inflight.lock().contains_key(&rid)
    }

    /// Whether the actor has drained every combined batch.
    pub fn handoff_empty(&self) -> bool {
        self.handoff.lock().is_empty()
    }

    /// Whether nothing is parked anywhere: no enqueued-but-uncombined ops
    /// and no undrained batches (transition-drain check).
    pub fn idle(&self) -> bool {
        self.pending_ops.load(Ordering::Acquire) == 0 && self.handoff_empty()
    }

    /// Pops one combined batch for actor-side replication. Every rid in
    /// the batch becomes actor-owned: from here on it lives in the
    /// controlet's pending/in-flight tables (or is owed an explicit shed
    /// reply), so retries must route to the actor — see `submit_at`.
    pub fn pop_batch(&self) -> Option<CombinedBatch> {
        let batch = self.handoff.lock().pop_front()?;
        {
            let mut inflight = self.inflight.lock();
            for rid in batch
                .writes
                .iter()
                .map(|w| w.rid)
                .chain(batch.rejects.iter().map(|&(rid, _)| rid))
                .chain(batch.window_sheds.iter().map(|&(rid, _)| rid))
            {
                if let Some(owner) = inflight.get_mut(&rid) {
                    *owner = RidOwner::Actor;
                }
            }
        }
        Some(batch)
    }

    /// Submits a PUT/DEL through the combiner, from this thread's slot.
    /// `None` means take the actor path: the gate is closed, the op
    /// carries no key, or it is a retry of an in-flight write the actor
    /// already owns (the controlet joins it to the original and re-pushes
    /// the chain write). `reply_to` is where the controlet's response
    /// should go; `now` is the caller's clock for deadline checks
    /// (`Instant::ZERO` disables them).
    pub fn submit(&self, req: &Request, reply_to: Addr, now: Instant) -> Option<Submit> {
        MY_SLOT.with(|&s| self.submit_at(s, req, reply_to, now))
    }

    /// [`Self::submit`] with an explicit slot (tests exercise slot-order
    /// guarantees with it; `submit` routes through a per-thread slot).
    pub fn submit_at(
        &self,
        slot: usize,
        req: &Request,
        reply_to: Addr,
        now: Instant,
    ) -> Option<Submit> {
        if !self.gate.is_open() {
            return None;
        }
        let (key, value) = match &req.op {
            bespokv_proto::client::Op::Put { key, value } => (key.clone(), Some(value.clone())),
            bespokv_proto::client::Op::Del { key } => (key.clone(), None),
            _ => return None,
        };
        // Exactly-once, part 1: a retried completed write is answered from
        // the shared reply cache without touching the log.
        if let Some(resp) = self.replies.get(req.id) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Submit::Done(resp));
        }
        // Exactly-once, part 2: a retry of a write still in flight must
        // not enqueue a second copy. Where the retry goes depends on who
        // owns the original — tracked per rid, because unrelated traffic
        // keeping the log busy must not change how THIS op is repaired.
        // While the op is edge-owned (parked in a slot or in a handed-off
        // batch) the retry is swallowed but re-arms the nudge: the client
        // only retries after silence, so the original `CombinerNudge` may
        // have been lost, and a stranded batch would otherwise wait for
        // an unrelated write to poke the controlet (a nudge is an
        // idempotent drain — worst case is one empty pop). Once the actor
        // has collected the op's batch (`pop_batch`) the rid is
        // actor-owned — it sits in the controlet's pending/in-flight
        // tables — so the retry takes the actor path, where the controlet
        // joins it to the original and re-pushes the chain write: the
        // only repair for a `ChainPut` or ack lost in flight. The idle
        // fallback covers the one edge-owned case a nudge cannot reach —
        // a retry racing the original's own submit, before its push is
        // visible — where the actor path's `tracks` join is the answer.
        {
            let mut inflight = self.inflight.lock();
            match inflight.entry(req.id) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let owner = *e.get();
                    drop(inflight);
                    if owner == RidOwner::Actor || self.idle() {
                        return None;
                    }
                    return Some(Submit::Enqueued { nudge: true });
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(RidOwner::Edge);
                }
            }
        }
        // Exactly-once, part 3: close the race against the controlet's
        // `respond`, which records the reply to the cache and THEN
        // releases the rid. A retry can miss the cache above (reply not
        // yet recorded) and still win the insert (rid just released) —
        // but a successful insert means the release already happened, so
        // the record is visible now; without this re-check the retry
        // would re-enqueue and commit the old payload under a fresh
        // version, resurrecting it over writes that landed in between.
        if let Some(resp) = self.replies.get(req.id) {
            self.inflight.lock().remove(&req.id);
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Submit::Done(resp));
        }
        // Reject-newest at a full op log: an explicit `Overloaded` before
        // the op is ordered, so the error is a definitive not-applied.
        if self.pending_ops.load(Ordering::Acquire) >= self.cap {
            self.inflight.lock().remove(&req.id);
            self.counters.shed_full.fetch_add(1, Ordering::Relaxed);
            return Some(Submit::Done(Response::err(req.id, KvError::Overloaded)));
        }
        // Advertise that a submit is in flight (the combine window below
        // reads this gauge); the guard drops it on every exit path out of
        // the qlock loop.
        self.submitting.fetch_add(1, Ordering::AcqRel);
        struct SubmitGauge<'a>(&'a AtomicUsize);
        impl Drop for SubmitGauge<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _gauge = SubmitGauge(&self.submitting);
        let slot = &self.slots[slot % SLOTS];
        let g0 = {
            let mut q = slot.queue.lock();
            q.push_back(PendingWrite {
                rid: req.id,
                reply_to,
                deadline: req.deadline,
                table: req.table.clone(),
                key,
                value,
            });
            // Count while the slot lock is held: a combiner drains this
            // entry only under the same lock, so the op is counted before
            // it can be drained-and-subtracted — a post-unlock add could
            // land after the combiner's `fetch_sub` and wrap `pending_ops`
            // to ~usize::MAX, spuriously shedding every submit until it
            // caught up.
            self.pending_ops.fetch_add(1, Ordering::AcqRel);
            // Read the generation under the slot lock, after the push: any
            // later drain of this slot necessarily takes our entry.
            slot.drained_gen.load(Ordering::Acquire)
        };
        // qlock: win the combiner lock or spin until someone who holds it
        // drains our slot past our enqueue point.
        let mut counted_contention = false;
        loop {
            if slot.drained_gen.load(Ordering::Acquire) > g0 {
                return Some(Submit::Enqueued { nudge: false });
            }
            match self.combiner.try_lock() {
                Some(guard) => {
                    // Re-check under the lock: the previous holder may have
                    // drained us between the generation check and the win.
                    if slot.drained_gen.load(Ordering::Acquire) > g0 {
                        return Some(Submit::Enqueued { nudge: false });
                    }
                    // Combine window: we won the drain, but the gauge says
                    // another submit is mid-flight RIGHT NOW. Linger a
                    // bounded moment so its push lands in a slot and this
                    // drain takes a batch > 1 instead of two batches of 1
                    // — waiting here is strictly better than draining solo
                    // and making the peer run its own full combine. Exit
                    // early once a second op is visible (`pending_ops`)
                    // or every peer has left the submit path. A solo
                    // submitter (gauge == 1, just us) skips the window
                    // entirely: the uncontended path is unchanged, which
                    // keeps single-threaded simulation runs deterministic
                    // and costs nothing when there is nobody to combine
                    // with.
                    if self.submitting.load(Ordering::Acquire) > 1 {
                        self.counters.window_waits.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..COMBINE_WINDOW_SPINS {
                            if self.pending_ops.load(Ordering::Acquire) > 1
                                || self.submitting.load(Ordering::Acquire) <= 1
                            {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    let combined = self.combine(now);
                    drop(guard);
                    return Some(Submit::Enqueued { nudge: combined });
                }
                None => {
                    if !counted_contention {
                        self.counters.lock_contention.fetch_add(1, Ordering::Relaxed);
                        counted_contention = true;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Drains every slot and applies the batch. Must hold the combiner
    /// lock. Returns whether a batch was produced.
    fn combine(&self, now: Instant) -> bool {
        let word = self.gate.snapshot();
        // Drain slots in slot order; each slot is FIFO, so per-thread
        // program order is preserved and the concatenation is the batch
        // (and version) order.
        let mut drained: Vec<PendingWrite> = Vec::new();
        for slot in &self.slots {
            let mut q = slot.queue.lock();
            if q.is_empty() {
                // Bump anyway: a waiter that pushed after our take but
                // before this bump spins on the *next* drain, which is
                // correct — its entry is still queued.
                slot.drained_gen.fetch_add(1, Ordering::AcqRel);
                continue;
            }
            drained.extend(q.drain(..));
            slot.drained_gen.fetch_add(1, Ordering::AcqRel);
        }
        if drained.is_empty() {
            return false;
        }
        self.pending_ops.fetch_sub(drained.len(), Ordering::AcqRel);
        let applied = word & W_OPEN != 0;
        let chain_marked = applied && word & W_CHAIN != 0;
        // Head-window bound, mirroring the actor path's shed in
        // `ms_sc_write`. Chain mode only: MS+EC and single-replica chains
        // ack on drain and never enter the actor's in-flight table. The
        // shed happens HERE — before versions are allocated and the write
        // hits the datalet — because once applied, an `Overloaded` reply
        // would no longer be a definitive not-applied.
        let mut window_budget = if chain_marked {
            self.cap
                .saturating_sub(self.head_inflight.load(Ordering::Acquire))
        } else {
            usize::MAX
        };
        // Keep-first dedup by rid (belt and braces over the in-flight
        // set): a duplicate's reply rides on the first copy's response.
        let mut seen: HashSet<RequestId> = HashSet::new();
        let mut rejects: Vec<(RequestId, Addr)> = Vec::new();
        let mut window_sheds: Vec<(RequestId, Addr)> = Vec::new();
        let mut live: Vec<PendingWrite> = Vec::new();
        for w in drained {
            if !seen.insert(w.rid) {
                continue;
            }
            // Deadline re-check at combine time: the client has given up
            // on expired work; shed it with an explicit reply.
            if w.deadline != Instant::ZERO && now != Instant::ZERO && now >= w.deadline {
                self.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
                rejects.push((w.rid, w.reply_to));
                continue;
            }
            // Reject-newest past the head window: slots drain in arrival
            // order, so the oldest parked ops keep their place.
            if window_budget == 0 {
                self.counters.shed_window.fetch_add(1, Ordering::Relaxed);
                window_sheds.push((w.rid, w.reply_to));
                continue;
            }
            window_budget -= 1;
            live.push(w);
        }
        let first = if applied && !live.is_empty() {
            self.versions.alloc(live.len() as u64)
        } else {
            0
        };
        let shard = self.shard();
        let mut writes = Vec::with_capacity(live.len());
        for (i, w) in live.into_iter().enumerate() {
            let entry = LogEntry {
                table: w.table,
                key: w.key,
                value: w.value,
                version: first + i as Version,
            };
            if applied {
                // Mark BEFORE apply (chain mode): an edge reader probing
                // the DirtySet must never see the uncommitted value on a
                // key it still believes clean.
                if chain_marked {
                    self.dirty.mark(&entry.key);
                }
                let _ = self.datalet.create_table(&entry.table);
                match &entry.value {
                    Some(v) => {
                        let _ = self.datalet.put(
                            &entry.table,
                            entry.key.clone(),
                            v.clone(),
                            entry.version,
                        );
                    }
                    None => {
                        let _ = self.datalet.del(&entry.table, &entry.key, entry.version);
                    }
                }
                if let Some(rec) = &self.recorder {
                    rec.record_apply(bespokv_types::ApplyEvent {
                        node: self.node,
                        shard,
                        table: entry.table.clone(),
                        key: entry.key.clone(),
                        value: entry.value.clone(),
                        version: entry.version,
                        at: now,
                    });
                }
            }
            writes.push(CombinedWrite {
                rid: w.rid,
                reply_to: w.reply_to,
                deadline: w.deadline,
                entry,
            });
        }
        if writes.is_empty() && rejects.is_empty() && window_sheds.is_empty() {
            return false;
        }
        if applied && !writes.is_empty() {
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters.ops.fetch_add(writes.len() as u64, Ordering::Relaxed);
            self.counters.ops_per_batch[batch_bucket(writes.len())]
                .fetch_add(1, Ordering::Relaxed);
        }
        self.handoff.lock().push_back(CombinedBatch {
            epoch: word >> EPOCH_SHIFT,
            applied,
            chain_marked,
            writes,
            rejects,
            window_sheds,
        });
        true
    }

    /// Force-combines whatever is parked in the slots (actor-side drain:
    /// flush timers, transition entry, recovery-feed creation). Blocks on
    /// the combiner lock, so it serializes after any in-progress combine.
    pub fn force_combine(&self, now: Instant) {
        let _guard = self.combiner.lock();
        self.combine(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bespokv_datalet::EngineKind;
    use bespokv_proto::client::Op;
    use bespokv_types::{ClientId, Mode};

    fn info(mode: Mode, replicas: u32, epoch: u64) -> ShardInfo {
        ShardInfo {
            shard: ShardId(0),
            mode,
            replicas: (0..replicas).map(NodeId).collect(),
            epoch,
        }
    }

    fn oplog(cap: usize) -> OpLog {
        OpLog::new(
            EngineKind::THt.build(),
            Arc::new(DirtySet::new()),
            Arc::new(VersionSource::new(1)),
            Arc::new(ReplyCache::new()),
            None,
            NodeId(0),
            ShardId(0),
            cap,
        )
    }

    fn put(seq: u32, key: &str) -> Request {
        Request::new(
            RequestId::compose(ClientId(500), seq),
            Op::Put {
                key: Key::from(key),
                value: Value::from("v"),
            },
        )
    }

    /// Parks one op from its own thread while the caller holds the
    /// combiner lock, returning once the push is visible — so tests can
    /// sequence multi-op arrival deterministically. The spawned thread
    /// spins inside `submit_at` until a drain releases it; the caller
    /// must eventually combine (or the join hangs, by design).
    fn park(
        log: &Arc<OpLog>,
        slot: usize,
        req: Request,
        reply_to: Addr,
        now: Instant,
    ) -> std::thread::JoinHandle<bool> {
        let before = log.pending_ops.load(Ordering::Acquire);
        let l = Arc::clone(log);
        let h = std::thread::spawn(move || {
            matches!(
                l.submit_at(slot, &req, reply_to, now),
                Some(Submit::Enqueued { .. })
            )
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while log.pending_ops.load(Ordering::Acquire) <= before {
            assert!(std::time::Instant::now() < deadline, "op never parked");
            std::thread::yield_now();
        }
        h
    }

    #[test]
    fn gate_opens_only_for_ms_write_ingress() {
        let g = WriteGate::new();
        assert!(!g.is_open());
        g.publish(Some(&info(Mode::MS_SC, 3, 2)), NodeId(0), false);
        assert!(g.is_open());
        assert_eq!(g.epoch(), 2);
        assert!(g.snapshot() & W_CHAIN != 0, "multi-replica chain marks dirty");
        // Non-head, AA modes, quiesced, single-replica chain flag.
        g.publish(Some(&info(Mode::MS_SC, 3, 2)), NodeId(1), false);
        assert!(!g.is_open());
        g.publish(Some(&info(Mode::AA_EC, 3, 2)), NodeId(0), false);
        assert!(!g.is_open());
        g.publish(Some(&info(Mode::MS_SC, 3, 2)), NodeId(0), true);
        assert!(!g.is_open());
        g.publish(Some(&info(Mode::MS_SC, 1, 2)), NodeId(0), false);
        assert!(g.is_open() && g.snapshot() & W_CHAIN == 0);
        g.publish(Some(&info(Mode::MS_EC, 3, 2)), NodeId(0), false);
        assert!(g.is_open() && g.snapshot() & W_CHAIN == 0, "MS+EC commits on apply");
        g.close();
        assert!(!g.is_open());
    }

    #[test]
    fn version_source_rebase_is_monotonic() {
        let v = VersionSource::new(1);
        assert_eq!(v.fresh(), 1);
        let first = v.alloc(10);
        assert_eq!(first, 2);
        assert_eq!(v.fresh(), 12);
        v.rebase(3);
        assert!(v.fresh() > 3 << 40);
        // Rebasing to an older epoch never regresses.
        let high = v.fresh();
        v.rebase(0);
        assert!(v.fresh() > high);
    }

    #[test]
    fn batch_order_matches_slot_publish_order() {
        let log = oplog(64);
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        // Three ops in slot 0, two in slot 1, interleaved publish order
        // per slot must be preserved; slots drain in slot order.
        for (slot, seq, key) in [(0, 1, "a"), (1, 2, "b"), (0, 3, "c"), (1, 4, "d"), (0, 5, "e")] {
            // Park without combining: fill the slot directly while the
            // combiner is held elsewhere is hard to stage determinis-
            // tically, so enqueue via submit_at and only let the LAST
            // submit combine by checking the queue before each call.
            let req = put(seq, key);
            let res = log.submit_at(slot, &req, Addr(99), Instant::ZERO);
            match res {
                Some(Submit::Enqueued { .. }) => {}
                other => panic!("expected enqueue, got {other:?}"),
            }
        }
        // Single-threaded, every submit wins the combiner lock and drains
        // immediately: five batches of one. Re-stage with a held lock to
        // get one multi-op batch instead.
        let mut combined: Vec<String> = Vec::new();
        while let Some(b) = log.pop_batch() {
            assert!(b.applied);
            for w in &b.writes {
                combined.push(String::from_utf8_lossy(w.entry.key.as_bytes()).into_owned());
            }
        }
        assert_eq!(combined, vec!["a", "b", "c", "d", "e"]);

        // Now a true multi-slot single combine: hold the combiner lock,
        // park ops one at a time (each from its own spinning thread, in a
        // fixed arrival order), then drain them in one combine.
        let log = Arc::new(oplog(64));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        {
            let guard = log.combiner.lock();
            // Publish order: s1a into slot 1, then s0a into slot 0, then
            // s1b into slot 1 — these submitters lose the combiner lock
            // and spin until the holder drains them.
            let parked: Vec<_> = [(1usize, 11, "s1a"), (0usize, 12, "s0a"), (1usize, 13, "s1b")]
                .into_iter()
                .map(|(slot, seq, key)| park(&log, slot, put(seq, key), Addr(99), Instant::ZERO))
                .collect();
            assert!(log.combine(Instant::ZERO));
            drop(guard);
            for h in parked {
                assert!(h.join().unwrap(), "losers must unblock after the drain");
            }
        }
        let b = log.pop_batch().expect("one batch");
        assert!(log.pop_batch().is_none());
        let keys: Vec<_> = b
            .writes
            .iter()
            .map(|w| String::from_utf8_lossy(w.entry.key.as_bytes()).into_owned())
            .collect();
        // Slot 0 before slot 1; FIFO within each slot.
        assert_eq!(keys, vec!["s0a", "s1a", "s1b"]);
        // Versions are contiguous in batch order.
        let versions: Vec<_> = b.writes.iter().map(|w| w.entry.version).collect();
        assert_eq!(versions, vec![versions[0], versions[0] + 1, versions[0] + 2]);
    }

    #[test]
    fn combine_window_waits_only_with_concurrent_submitters() {
        let log = Arc::new(oplog(64));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        // A solo submitter never pays the window.
        assert!(matches!(
            log.submit_at(0, &put(1, "a"), Addr(9), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        assert_eq!(log.snapshot().window_waits, 0, "solo path skips the window");
        // Two submitters parked mid-flight (both pushed, both spinning in
        // the qlock loop while we hold the combiner lock). On release,
        // whichever wins the lock observes the other's gauge, spins the
        // combine window, sees the second op already pending, and drains
        // both as one batch.
        {
            let guard = log.combiner.lock();
            let h1 = park(&log, 0, put(2, "b"), Addr(9), Instant::ZERO);
            let h2 = park(&log, 1, put(3, "c"), Addr(9), Instant::ZERO);
            drop(guard);
            assert!(h1.join().unwrap());
            assert!(h2.join().unwrap());
        }
        let s = log.snapshot();
        assert!(s.window_waits >= 1, "winning combiner spun the window: {s}");
        // The windowed pair drained as one batch of two.
        assert_eq!(s.batches, 2);
        assert_eq!(s.ops, 3);
        assert_eq!(s.ops_per_batch[1], 1, "one 2-op batch: {s}");
        assert_eq!(log.submitting.load(Ordering::Acquire), 0, "gauge drains to zero");
    }

    #[test]
    fn duplicate_rid_dedups_via_reply_cache_and_inflight() {
        let log = oplog(64);
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        let req = put(7, "k");
        assert!(matches!(
            log.submit_at(0, &req, Addr(99), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        // Retry while the combined batch is still awaiting collection: no
        // second enqueue, but the nudge IS re-armed — the retry means the
        // client saw silence, so the original nudge may have been lost,
        // and a stranded handoff batch would wedge the write until an
        // unrelated submit poked the controlet.
        assert!(matches!(
            log.submit_at(0, &req, Addr(99), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        let b = log.pop_batch().expect("batch");
        assert_eq!(b.writes.len(), 1, "duplicate never re-combined");
        assert!(log.pop_batch().is_none());
        // Retry after collection: the actor owns the op now (pending /
        // in-flight tables), so the retry takes the actor path — where a
        // lost ChainPut or ack gets re-pushed — instead of being
        // swallowed at the edge.
        assert!(log.submit_at(0, &req, Addr(99), Instant::ZERO).is_none());
        // The controlet responds: cache the reply, release the rid.
        let resp = Response::ok(req.id, RespBody::Done);
        log.replies.record(&resp);
        log.release(req.id);
        // A later retry is answered from the reply cache, not re-executed.
        match log.submit_at(0, &req, Addr(99), Instant::ZERO) {
            Some(Submit::Done(r)) => assert!(matches!(r.result, Ok(RespBody::Done))),
            other => panic!("expected cached reply, got {other:?}"),
        }
        assert_eq!(log.snapshot().cache_hits, 1);
        assert_eq!(log.snapshot().ops, 1);
    }

    #[test]
    fn retry_of_collected_write_takes_actor_path_even_under_load() {
        // The lost-ChainPut repair lives on the actor path: once the
        // controlet has collected a batch, a retry of one of its writes
        // must route to the actor — even while unrelated traffic keeps
        // the log permanently non-idle. A global idle() proxy starves
        // exactly this repair under sustained load.
        let log = Arc::new(oplog(64));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        let req = put(1, "k");
        assert!(matches!(
            log.submit_at(0, &req, Addr(99), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        let b = log.pop_batch().expect("batch");
        assert_eq!(b.writes.len(), 1);
        // Unrelated write parked in a slot: the log is busy, not idle.
        {
            let guard = log.combiner.lock();
            let parked = park(&log, 1, put(2, "other"), Addr(99), Instant::ZERO);
            assert!(!log.idle(), "unrelated traffic keeps the log busy");
            // The retry must still take the actor path (None): the actor
            // owns the rid since pop_batch, and only its re-push repairs
            // a ChainPut or ack lost in flight.
            assert!(log.submit_at(0, &req, Addr(99), Instant::ZERO).is_none());
            assert!(log.combine(Instant::ZERO));
            drop(guard);
            assert!(parked.join().unwrap());
        }
        // The unrelated write combined separately; the retried rid was
        // never re-enqueued.
        let b2 = log.pop_batch().expect("unrelated batch");
        assert_eq!(b2.writes.len(), 1);
        assert_eq!(b2.writes[0].rid, put(2, "other").id);
        assert!(log.pop_batch().is_none());
    }

    #[test]
    fn retry_of_actor_ordered_write_takes_actor_path_once_gate_opens() {
        // The original arrived while the gate was closed, so the actor
        // ordered it and holds it in flight (the whole one-deep window).
        // Its retry finds the gate open: it must go to the actor, which
        // joins it and re-pushes the chain write — never combined afresh,
        // which would shed it against its own original's window slot.
        let log = oplog(1);
        let req = put(1, "k");
        log.claim_for_actor(req.id);
        log.publish_head_inflight(1);
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        assert!(log.submit_at(0, &req, Addr(9), Instant::ZERO).is_none());
        assert!(log.pop_batch().is_none(), "retry never reached the combiner");
        assert_eq!(log.snapshot().shed_window, 0);
        // The actor's reply releases the claim.
        log.release(req.id);
        assert!(!log.tracks(req.id));
    }

    #[test]
    fn retry_racing_respond_never_reenqueues_a_completed_write() {
        // A client retry can miss the reply cache while the controlet's
        // `respond` is mid-flight (record, THEN release). If the retry's
        // in-flight insert then succeeds, the release — and therefore the
        // record — already happened, so the re-check inside `submit_at`
        // must answer from cache. Without it the retry re-enqueues and
        // commits the old payload under a fresh version, resurrecting it
        // over writes that landed in between.
        for _ in 0..200 {
            let log = Arc::new(oplog(64));
            log.gate()
                .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
            let req = put(1, "k");
            // The original is enqueued and unanswered.
            assert!(log.inflight.lock().insert(req.id, RidOwner::Edge).is_none());
            let resp = Response::ok(req.id, RespBody::Done);
            let l = Arc::clone(&log);
            let responder = std::thread::spawn(move || {
                l.replies.record(&resp);
                l.release(resp.id);
            });
            let res = log.submit_at(0, &req, Addr(9), Instant::ZERO);
            responder.join().unwrap();
            match res {
                Some(Submit::Done(r)) => assert!(matches!(r.result, Ok(RespBody::Done))),
                Some(Submit::Enqueued { .. }) | None => {
                    // The insert lost to the still-unreleased original:
                    // the retry joined it (`Enqueued`) or was sent down
                    // the actor path (`None`, idle edge) where the
                    // controlet answers from the reply cache. Either
                    // way nothing new may be parked or combined.
                    assert!(log.handoff_empty(), "completed write re-executed");
                    assert_eq!(log.pending_ops.load(Ordering::Acquire), 0);
                }
            }
        }
    }

    #[test]
    fn full_head_window_sheds_chain_writes_at_combine() {
        let log = Arc::new(oplog(2));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        // One chain write already awaits the tail ack: budget for the
        // next batch is window - in_flight = 1.
        log.publish_head_inflight(1);
        let a = put(1, "a");
        let b = put(2, "b");
        let guard = log.combiner.lock();
        let pa = park(&log, 0, a.clone(), Addr(9), Instant::ZERO);
        let pb = park(&log, 1, b.clone(), Addr(9), Instant::ZERO);
        assert!(log.combine(Instant::ZERO));
        drop(guard);
        assert!(pa.join().unwrap());
        assert!(pb.join().unwrap());
        let batch = log.pop_batch().expect("batch");
        assert_eq!(batch.writes.len(), 1, "only the budgeted op combined");
        assert_eq!(batch.writes[0].rid, a.id);
        // Reject-newest: the later arrival is shed, never applied.
        assert_eq!(batch.window_sheds, vec![(b.id, Addr(9))]);
        assert_eq!(
            log.datalet.get("", &Key::from("b")).ok().map(|v| v.value),
            None,
            "shed op never touched the datalet"
        );
        assert_eq!(log.snapshot().shed_window, 1);
        assert_eq!(log.snapshot().ops, 1, "shed op not counted as combined");

        // The bound retires with the in-flight writes: once the actor
        // replies Overloaded (releasing the rid) and the table drains,
        // the same window admits the retry.
        log.release(b.id);
        log.publish_head_inflight(0);
        assert!(matches!(
            log.submit_at(0, &b, Addr(9), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        let batch = log.pop_batch().expect("batch");
        assert_eq!(batch.writes.len(), 1);
        assert!(batch.window_sheds.is_empty());

        // MS+EC acks on drain and never enters the in-flight table: the
        // window does not apply.
        let log = oplog(2);
        log.gate()
            .publish(Some(&info(Mode::MS_EC, 3, 1)), NodeId(0), false);
        log.publish_head_inflight(2);
        assert!(matches!(
            log.submit_at(0, &put(3, "c"), Addr(9), Instant::ZERO),
            Some(Submit::Enqueued { nudge: true })
        ));
        let batch = log.pop_batch().expect("batch");
        assert_eq!(batch.writes.len(), 1);
        assert!(batch.window_sheds.is_empty());
    }

    #[test]
    fn full_log_rejects_newest_with_overloaded() {
        let log = Arc::new(oplog(2));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        // Park two ops while the combiner lock is held so the log fills.
        let guard = log.combiner.lock();
        let pa = park(&log, 0, put(1, "a"), Addr(9), Instant::ZERO);
        let pb = park(&log, 0, put(2, "b"), Addr(9), Instant::ZERO);
        // Third op: the log is at capacity — explicit Overloaded.
        let c = put(3, "c");
        match log.submit_at(1, &c, Addr(9), Instant::ZERO) {
            Some(Submit::Done(r)) => {
                assert!(matches!(r.result, Err(KvError::Overloaded)), "{r:?}")
            }
            other => panic!("expected overload rejection, got {other:?}"),
        }
        assert_eq!(log.snapshot().shed_full, 1);
        // The shed rid is NOT left in the in-flight set: a later retry
        // (post-drain) enqueues normally.
        assert!(log.combine(Instant::ZERO));
        drop(guard);
        assert!(pa.join().unwrap());
        assert!(pb.join().unwrap());
        assert!(matches!(
            log.submit_at(1, &c, Addr(9), Instant::ZERO),
            Some(Submit::Enqueued { .. })
        ));
    }

    #[test]
    fn expired_deadline_ops_are_shed_at_combine_and_counted() {
        let log = oplog(64);
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        let now = Instant(1_000_000);
        let mut expired = put(1, "late");
        expired.deadline = Instant(500_000);
        let mut alive = put(2, "ok");
        alive.deadline = Instant(2_000_000);
        // Enqueue both before any combine runs: hold the lock.
        let log = Arc::new(log);
        let guard = log.combiner.lock();
        let p1 = park(&log, 0, expired.clone(), Addr(7), now);
        let p2 = park(&log, 0, alive.clone(), Addr(7), now);
        assert!(log.combine(now));
        drop(guard);
        assert!(p1.join().unwrap());
        assert!(p2.join().unwrap());
        let b = log.pop_batch().expect("batch");
        assert_eq!(b.rejects, vec![(expired.id, Addr(7))]);
        assert_eq!(b.writes.len(), 1);
        assert_eq!(b.writes[0].rid, alive.id);
        let snap = log.snapshot();
        assert_eq!(snap.shed_expired, 1);
        assert_eq!(snap.ops, 1, "shed op never counted as combined");
    }

    #[test]
    fn closed_gate_at_combine_produces_unapplied_batch() {
        let log = Arc::new(oplog(64));
        log.gate()
            .publish(Some(&info(Mode::MS_SC, 3, 1)), NodeId(0), false);
        let guard = log.combiner.lock();
        let req = put(1, "k");
        let parked = park(&log, 0, req.clone(), Addr(5), Instant::ZERO);
        // Gate closes (kill / reconfiguration) before the combine runs.
        log.gate().close();
        assert!(log.combine(Instant::ZERO));
        drop(guard);
        assert!(parked.join().unwrap());
        let b = log.pop_batch().expect("batch");
        assert!(!b.applied, "nothing applied under a closed gate");
        assert_eq!(b.writes.len(), 1);
        assert_eq!(
            log.datalet.get("", &Key::from("k")).ok().map(|v| v.value),
            None,
            "datalet untouched"
        );
        assert_eq!(log.snapshot().batches, 0, "unapplied batches not counted");
    }

    #[test]
    fn batch_bucket_boundaries() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 1);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(7), 2);
        assert_eq!(batch_bucket(64), 6);
        assert_eq!(batch_bucket(127), 6);
        assert_eq!(batch_bucket(128), 7);
        assert_eq!(batch_bucket(100_000), 7);
    }
}
