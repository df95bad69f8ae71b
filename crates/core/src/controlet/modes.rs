//! The four pre-built controlet modes (paper section IV and appendix C).
//!
//! * **MS+SC** — chain replication: the head orders writes and pushes them
//!   down the chain; the tail's ack releases the client reply (CRAQ-style
//!   head reply, as the paper does); SC reads are served by the tail.
//! * **MS+EC** — the master commits locally, acks the client, and
//!   propagates asynchronously in batches; any replica serves reads.
//! * **AA+SC** — any active takes writes, serialized through the DLM with
//!   leases and fencing tokens; reads take shared locks.
//! * **AA+EC** — any active takes writes, globally ordered by the shared
//!   log; every active asynchronously fetches and applies the stream.

use super::{Controlet, Pending, RecoveryState, ReplyPath, RECOVERY_RETRY_TIMER};
use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::{DlmMsg, LockMode, LogMsg, NetMsg, ReplMsg};
use bespokv_runtime::{Addr, Context};
use bespokv_types::{
    Consistency, Duration, KvError, NodeId, Topology,
};
use std::sync::atomic::Ordering;

impl Controlet {
    /// Entry point for a client request (or a forwarded one via `reply`).
    pub(crate) fn handle_client(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        // Exactly-once across client retries: a write this controlet
        // already acked is answered from the reply cache, never executed
        // again (see `replies`).
        if matches!(req.op, Op::Put { .. } | Op::Del { .. }) {
            if let Some(resp) = self.replies.get(req.id) {
                self.respond(reply, resp, ctx);
                return;
            }
        }
        // Deadline propagation: work whose deadline already passed is shed
        // before execution — the client has given up on it, so executing
        // only adds load. An explicit reply (never a silent drop) lets
        // relays and edges clean up their pending tables. Placed after the
        // dedup cache so a retried-but-completed write still gets its
        // cached success.
        if req.expired(ctx.now()) {
            self.cfg.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let id = req.id;
            self.reply_err(reply, id, KvError::Overloaded, ctx);
            return;
        }
        if !self.serving || self.catching_up() {
            let id = req.id;
            self.reply_err(reply, id, KvError::NotServing, ctx);
            return;
        }
        let Some(info) = self.info.clone() else {
            let id = req.id;
            self.reply_err(reply, id, KvError::NotServing, ctx);
            return;
        };
        // Ownership check: a point op for a key another shard owns is
        // either forwarded (P2P topology, section IV-E) or bounced with a
        // routing hint, so stale-mapped clients cannot write to the wrong
        // shard.
        if let (Some(map), Some(key)) = (&self.cluster_map, req.op.key()) {
            let owner = map.shard_for_key(key);
            if owner != self.cfg.shard {
                let owner_head = map.shard(owner).and_then(|i| i.head());
                if self.cfg.p2p_forwarding {
                    if let Some(target) = owner_head {
                        self.forward_to(target, req, reply, ctx);
                        return;
                    }
                }
                let id = req.id;
                self.reply_err(
                    reply,
                    id,
                    KvError::WrongNode {
                        node: self.cfg.node,
                        hint: owner_head,
                    },
                    ctx,
                );
                return;
            }
        }
        match &req.op {
            Op::CreateTable { .. } | Op::DeleteTable { .. } => {
                self.handle_table_op(req, reply, ctx);
            }
            Op::Put { .. } | Op::Del { .. } => {
                // Mid-transition, the old controlet forwards all writes to
                // the new configuration (section V).
                if let Some(t) = &self.transition {
                    let target_writer = t.target.head().unwrap_or(NodeId::UNASSIGNED);
                    self.forward_to(target_writer, req, reply, ctx);
                    return;
                }
                if !self.is_writer() {
                    let hint = info.head();
                    let id = req.id;
                    self.reply_err(
                        reply,
                        id,
                        KvError::WrongNode {
                            node: self.cfg.node,
                            hint,
                        },
                        ctx,
                    );
                    return;
                }
                match (info.mode.topology, info.mode.consistency) {
                    (Topology::MasterSlave, Consistency::Strong) => {
                        self.ms_sc_write(req, reply, ctx)
                    }
                    (Topology::MasterSlave, Consistency::Eventual) => {
                        self.ms_ec_write(req, reply, ctx)
                    }
                    (Topology::ActiveActive, Consistency::Strong) => {
                        self.aa_sc_write(req, reply, ctx)
                    }
                    (Topology::ActiveActive, Consistency::Eventual) => {
                        self.aa_ec_write(req, reply, ctx)
                    }
                }
            }
            Op::Get { .. } | Op::Scan { .. } => {
                let effective = req.level.resolve(info.mode.consistency);
                // During a transition reads stay on the old replicas with
                // EC guarantees (the paper: "any node may respond to Get
                // requests, providing EC guarantee" until the switch ends).
                if self.transition.is_some() || effective == Consistency::Eventual {
                    self.serve_local_read(&req, reply, ctx);
                    return;
                }
                match (info.mode.topology, info.mode.consistency) {
                    (Topology::ActiveActive, Consistency::Strong) => {
                        // AA+SC: strong reads take a shared lock first.
                        self.aa_sc_read(req, reply, ctx)
                    }
                    (Topology::ActiveActive, Consistency::Eventual) => {
                        // Per-request strong read under AA+EC: park until
                        // this replica has applied the log up to the tail
                        // observed after the read arrived (read-after-sync).
                        // Without a shared log there is nothing to sync
                        // against; serve locally rather than parking a
                        // request that can never complete.
                        if self.cfg.shared_log.is_none() {
                            self.serve_local_read(&req, reply, ctx);
                        } else {
                            self.parked_reads.push(super::ParkedRead {
                                req,
                                reply,
                                target: None,
                            });
                            self.poll_shared_log(ctx);
                        }
                    }
                    _ => {
                        // SC read placement: only the designated node may
                        // answer (tail under MS+SC; master for per-request
                        // strong reads under MS+EC).
                        let target = self.strong_read_target();
                        if target == Some(self.cfg.node) {
                            self.serve_local_read(&req, reply, ctx);
                        } else {
                            let id = req.id;
                            self.reply_err(
                                reply,
                                id,
                                KvError::WrongNode {
                                    node: self.cfg.node,
                                    hint: target,
                                },
                                ctx,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Forwards a request to the controlet on `node` (P2P routing, or a
    /// transition's writes) and remembers where its reply goes: the
    /// `ForwardedResp` is resolved from [`Controlet::relayed`].
    pub(crate) fn forward_to(
        &mut self,
        node: NodeId,
        req: Request,
        reply: ReplyPath,
        ctx: &mut Context,
    ) {
        if node.is_unassigned() {
            let id = req.id;
            self.reply_err(reply, id, KvError::NotServing, ctx);
            return;
        }
        self.relayed.insert(req.id, reply);
        ctx.send(
            Self::addr_of(node),
            NetMsg::Repl(ReplMsg::ForwardedReq {
                req,
                reply_via: self.cfg.node,
            }),
        );
    }

    // --- MS+SC: chain replication -------------------------------------------

    fn ms_sc_write(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let info = self.info.clone().expect("writer has info");
        // Client retry of a write still in flight (its timeout fired while
        // our chain ack was delayed or a batch was dropped): do not order
        // it again — that would leak the old in-flight entry forever.
        // Refresh the reply path and re-push the existing entry instead.
        if self.pending.contains_key(&req.id) {
            self.pending.get_mut(&req.id).expect("checked").reply = reply;
            let item = self
                .in_flight
                .values()
                .find(|(rid, _)| *rid == req.id)
                .cloned();
            if let (Some(item), Some(successor)) = (item, info.successor(self.cfg.node)) {
                self.send_chain_batch(successor, info.epoch, vec![item], ctx);
            }
            return;
        }
        // Bounded in-flight window at the head: a slow mid/tail otherwise
        // grows `in_flight` (and the dirty set) without bound while clients
        // keep writing. Shedding happens before the write is ordered, so an
        // `Overloaded` reply is a definitive not-applied.
        if self.in_flight.len() >= self.cfg.overload.head_window {
            self.cfg.counters.head_window_shed.fetch_add(1, Ordering::Relaxed);
            let id = req.id;
            self.reply_err(reply, id, KvError::Overloaded, ctx);
            return;
        }
        let version = self.fresh_version();
        let Some(entry) = Self::entry_for(&req, version) else {
            let id = req.id;
            self.reply_err(reply, id, KvError::Rejected("not a write".into()), ctx);
            return;
        };
        let Some(successor) = info.successor(self.cfg.node) else {
            // Single-replica chain: head is also tail; the apply is the
            // commit, no dirty interval exists.
            self.apply_entry(&entry, ctx);
            self.applied_seq = self.applied_seq.max(version);
            let resp = Response::ok(req.id, RespBody::Done);
            self.respond(reply, resp, ctx);
            return;
        };
        self.pending.insert(
            req.id,
            Pending {
                reply,
                req: req.clone(),
                awaiting: Default::default(),
                fencing: 0,
            },
        );
        // Dirty-mark BEFORE the local apply: an edge thread probing the
        // DirtySet must never observe the uncommitted value on a key it
        // still believes is clean.
        self.track_in_flight(version, req.id, entry.clone());
        self.apply_entry(&entry, ctx);
        self.applied_seq = self.applied_seq.max(version);
        // The write goes down the chain at once as a one-item batch.
        self.send_chain_batch(successor, info.epoch, vec![(req.id, entry)], ctx);
    }

    /// Pushes head-ordered writes to the chain successor as one batch.
    fn send_chain_batch(
        &self,
        successor: NodeId,
        epoch: u64,
        items: Vec<(bespokv_types::RequestId, bespokv_proto::LogEntry)>,
        ctx: &mut Context,
    ) {
        let budget = self.repl_budget(ctx.now());
        ctx.send(
            Self::addr_of(successor),
            NetMsg::Repl(ReplMsg::ChainPutBatch {
                shard: self.cfg.shard,
                epoch,
                budget,
                items,
            }),
        );
    }

    /// Receives a group-commit batch: apply all entries, then forward the
    /// whole batch (mid) or ack it as a whole (tail). Entries are
    /// version-guarded, so duplicated or reordered batches apply cleanly.
    pub(crate) fn on_chain_put_batch(
        &mut self,
        shard: bespokv_types::ShardId,
        epoch: u64,
        budget: Duration,
        items: Vec<(bespokv_types::RequestId, bespokv_proto::LogEntry)>,
        ctx: &mut Context,
    ) {
        let Some(info) = self.info.clone() else { return };
        if shard != self.cfg.shard || epoch < info.epoch {
            return; // stale chain traffic from an old configuration
        }
        let successor = info.successor(self.cfg.node);
        for (rid, entry) in &items {
            // Mid nodes dirty-mark before applying (see `ms_sc_write`); on
            // the tail the apply is the commit, so no mark is needed.
            if successor.is_some() {
                self.track_in_flight(entry.version, *rid, entry.clone());
            }
            self.apply_entry(entry, ctx);
            self.applied_seq = self.applied_seq.max(entry.version);
        }
        match successor {
            Some(next) => {
                ctx.send(
                    Self::addr_of(next),
                    NetMsg::Repl(ReplMsg::ChainPutBatch {
                        shard,
                        epoch: info.epoch,
                        budget,
                        items,
                    }),
                );
            }
            None => {
                // Tail: one batched ack flows back up.
                if let Some(prev) = info.predecessor(self.cfg.node) {
                    let acks = items
                        .into_iter()
                        .map(|(rid, entry)| (rid, entry.version))
                        .collect();
                    ctx.send(
                        Self::addr_of(prev),
                        NetMsg::Repl(ReplMsg::ChainAckBatch {
                            shard,
                            epoch: info.epoch,
                            items: acks,
                        }),
                    );
                }
            }
        }
    }

    /// Receives a batched chain ack: retire every in-flight entry it
    /// covers, relay it up the chain, and (at the head) release the client
    /// replies.
    pub(crate) fn on_chain_ack_batch(
        &mut self,
        shard: bespokv_types::ShardId,
        epoch: u64,
        items: Vec<(bespokv_types::RequestId, bespokv_types::Version)>,
        ctx: &mut Context,
    ) {
        let Some(info) = self.info.clone() else { return };
        if shard != self.cfg.shard || epoch < info.epoch {
            return;
        }
        for (_, version) in &items {
            self.untrack_in_flight(*version);
        }
        match info.predecessor(self.cfg.node) {
            Some(prev) => {
                ctx.send(
                    Self::addr_of(prev),
                    NetMsg::Repl(ReplMsg::ChainAckBatch {
                        shard,
                        epoch: info.epoch,
                        items,
                    }),
                );
            }
            None => {
                for (rid, _) in items {
                    if let Some(p) = self.pending.remove(&rid) {
                        let resp = Response::ok(rid, RespBody::Done);
                        self.respond(p.reply, resp, ctx);
                    }
                }
                self.check_transition_drained(ctx);
            }
        }
    }

    /// After a chain reconfiguration the head resends every in-flight
    /// write, as one batch in version order, so entries lost with a dead
    /// mid/tail are re-propagated (idempotent: versions make replays
    /// harmless).
    pub(crate) fn resend_in_flight(&mut self, ctx: &mut Context) {
        let Some(info) = self.info.clone() else { return };
        if info.head() != Some(self.cfg.node) {
            return;
        }
        let Some(successor) = info.successor(self.cfg.node) else {
            // Chain of one: everything in flight is trivially committed.
            let committed: Vec<_> = std::mem::take(&mut self.in_flight).into_values().collect();
            for (_, entry) in &committed {
                self.dirty.unmark(&entry.key);
            }
            let rids: Vec<_> = committed.into_iter().map(|(rid, _)| rid).collect();
            for rid in rids {
                if let Some(p) = self.pending.remove(&rid) {
                    let resp = Response::ok(rid, RespBody::Done);
                    self.respond(p.reply, resp, ctx);
                }
            }
            self.check_transition_drained(ctx);
            return;
        };
        if self.in_flight.is_empty() {
            return;
        }
        let items = self.in_flight.values().cloned().collect();
        self.send_chain_batch(successor, info.epoch, items, ctx);
    }

    // --- MS+EC: asynchronous propagation --------------------------------------

    fn ms_ec_write(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let version = self.fresh_version();
        let Some(entry) = Self::entry_for(&req, version) else {
            let id = req.id;
            self.reply_err(reply, id, KvError::Rejected("not a write".into()), ctx);
            return;
        };
        // Commit locally, ack immediately (the paper: the master does not
        // wait for propagation), then batch-propagate on the flush timer.
        self.apply_entry(&entry, ctx);
        let seq = self.prop.next_seq;
        self.prop.next_seq += 1;
        self.prop.buffer.insert(seq, entry);
        self.applied_seq = self.applied_seq.max(seq);
        let resp = Response::ok(req.id, RespBody::Done);
        self.respond(reply, resp, ctx);
    }

    /// Periodic flush of the propagation buffer to every slave.
    pub(crate) fn flush_propagation(&mut self, ctx: &mut Context) {
        let Some(info) = self.info.clone() else { return };
        if info.mode != bespokv_types::Mode::MS_EC
            || info.head() != Some(self.cfg.node)
            || self.prop.buffer.is_empty()
        {
            self.check_transition_drained(ctx);
            return;
        }
        // Slow-replica containment: the buffer holds everything the
        // slowest slave has not acked, so one stalled slave grows it
        // without bound. Past the high watermark, force the floor forward
        // to the low watermark — the lagging slave sees a floor above its
        // cursor and resyncs via snapshot instead of the stream.
        if self.prop.buffer.len() > self.cfg.overload.prop_high_watermark {
            let drop_n = self.prop.buffer.len() - self.cfg.overload.prop_low_watermark;
            if let Some(cut) = self.prop.buffer.keys().nth(drop_n - 1).copied() {
                self.prop.trimmed_upto = self.prop.trimmed_upto.max(cut);
                self.prop.buffer.retain(|&seq, _| seq > cut);
                self.cfg.counters.slow_slave_trims.fetch_add(1, Ordering::Relaxed);
            }
        }
        let budget = self.repl_budget(ctx.now());
        for &slave in info.replicas.iter().skip(1) {
            let from = self.prop.acked.get(&slave).copied().unwrap_or(0) + 1;
            let entries: Vec<_> = self
                .prop
                .buffer
                .range(from..)
                .map(|(_, e)| e.clone())
                .collect();
            if entries.is_empty() {
                continue;
            }
            let first_seq = *self
                .prop
                .buffer
                .range(from..)
                .next()
                .map(|(s, _)| s)
                .expect("nonempty");
            ctx.send(
                Self::addr_of(slave),
                NetMsg::Repl(ReplMsg::PropBatch {
                    shard: self.cfg.shard,
                    epoch: info.epoch,
                    first_seq,
                    floor: self.prop.trimmed_upto,
                    budget,
                    entries,
                }),
            );
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the PropBatch wire message field-for-field
    pub(crate) fn on_prop_batch(
        &mut self,
        from: Addr,
        shard: bespokv_types::ShardId,
        epoch: u64,
        first_seq: u64,
        floor: u64,
        _budget: Duration,
        entries: Vec<bespokv_proto::LogEntry>,
        ctx: &mut Context,
    ) {
        if shard != self.cfg.shard {
            return;
        }
        // Mid-snapshot: the propagation stream restarts once recovery
        // completes; interleaving it with snapshot chunks is pointless.
        if self.recovery.is_some() {
            return;
        }
        // Propagation streams are epoch-scoped: a batch from an older epoch
        // (delayed/duplicated across a failover) is discarded. A newer
        // epoch from a *new* master restarts the sequence numbering, so the
        // cursor resets; a newer epoch from the same master (e.g. a
        // recovered tail joined) continues the same stream.
        if epoch < self.prop_epoch {
            return;
        }
        if epoch > self.prop_epoch {
            self.prop_epoch = epoch;
            if self.prop_master != Some(from) {
                self.prop_applied = 0;
            }
        }
        self.prop_master = Some(from);
        // A floor above this slave's cursor means the master trimmed
        // entries this node never applied — a forced watermark trim cut it
        // loose, and the stream can no longer repair the gap. Pull a fresh
        // snapshot from the master instead of silently skipping it. No
        // exemption for fresh joiners: the recovery delta feed freezes as
        // soon as the source's map lists us, so a live feed does not prove
        // the gap is covered. The occasional redundant snapshot pull right
        // after a join is the price of never losing a trimmed entry.
        if floor > self.prop_applied {
            self.cfg
                .counters
                .slow_slave_resyncs
                .fetch_add(1, Ordering::Relaxed);
            let Some(info) = self.info.clone() else { return };
            let source = NodeId(from.0);
            self.serving = false;
            self.recovery = Some(RecoveryState {
                source,
                next_from: 0,
                info,
                resync_floor: Some(floor),
                floor: 0,
            });
            self.publish_serving();
            ctx.send(
                from,
                NetMsg::Repl(ReplMsg::RecoveryReq {
                    shard,
                    from: 0,
                    floor: 0,
                }),
            );
            ctx.set_timer(super::HEARTBEAT_EVERY, RECOVERY_RETRY_TIMER);
            return;
        }
        let count = entries.len() as u64;
        if count > 0 && first_seq > self.prop_applied + 1 {
            // Gap: an earlier batch was lost. Entries are version-guarded,
            // so applying them early is safe, but the cumulative cursor
            // must not jump the hole — the master will resend from ack+1.
            for e in &entries {
                self.apply_entry(e, ctx);
            }
        } else if count > 0 {
            // Skip the already-applied prefix of an overlapping resend.
            let skip = self.prop_applied.saturating_sub(first_seq.saturating_sub(1));
            for e in entries.iter().skip(skip as usize) {
                self.apply_entry(e, ctx);
            }
            self.prop_applied = self.prop_applied.max(first_seq + count - 1);
        }
        self.applied_seq = self.applied_seq.max(self.prop_applied);
        // Ack is cumulative over the contiguous prefix actually applied.
        ctx.send(
            from,
            NetMsg::Repl(ReplMsg::PropAck {
                shard,
                epoch: self.prop_epoch,
                upto: self.prop_applied,
            }),
        );
    }

    pub(crate) fn on_prop_ack(&mut self, from: Addr, epoch: u64, upto: u64, ctx: &mut Context) {
        let Some(info) = self.info.clone() else { return };
        // An ack for an old stream (sent before the slave learned about a
        // failover) must not mark this master's entries as replicated.
        if epoch != info.epoch {
            return;
        }
        // An ack beyond this stream's high-water mark counts sequences from
        // some other stream (e.g. a cursor a joiner carried over); trusting
        // it would trim entries the slave never applied.
        if upto >= self.prop.next_seq {
            return;
        }
        let slave = NodeId(from.0);
        let e = self.prop.acked.entry(slave).or_insert(0);
        *e = (*e).max(upto);
        let slaves: Vec<NodeId> = info.replicas.iter().skip(1).copied().collect();
        self.prop.trim(&slaves);
        self.check_transition_drained(ctx);
    }

    // --- AA+SC: DLM-serialized writes -----------------------------------------

    fn aa_sc_write(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let Some(dlm) = self.cfg.dlm else {
            let id = req.id;
            self.reply_err(reply, id, KvError::Rejected("no DLM configured".into()), ctx);
            return;
        };
        // Client retry of a write still in flight: re-acquiring the lock
        // would assign a second fencing token and apply the same payload
        // twice (the second application resurrects it over writes that
        // landed in between). Refresh the reply path; if the fan-out is
        // already running, re-push the entry to peers that have not acked
        // (the original PeerWrite may have been dropped).
        if self.pending.contains_key(&req.id) {
            let p = self.pending.get_mut(&req.id).expect("checked");
            p.reply = reply;
            let fencing = p.fencing;
            let awaiting: Vec<NodeId> = p.awaiting.iter().copied().collect();
            let pending_req = p.req.clone();
            if fencing != 0 {
                if let (Some(entry), Some(info)) =
                    (Self::entry_for(&pending_req, fencing), self.info.clone())
                {
                    for peer in awaiting {
                        ctx.send(
                            Self::addr_of(peer),
                            NetMsg::Repl(ReplMsg::PeerWrite {
                                shard: self.cfg.shard,
                                epoch: info.epoch,
                                rid: req.id,
                                entry: entry.clone(),
                            }),
                        );
                    }
                }
            } else if let Some(key) = pending_req.op.key().cloned() {
                // Not granted yet — the Lock or its grant may have been
                // dropped, so re-request. A duplicate request queues behind
                // the orphaned grant and is promoted when its lease
                // expires; the Granted handler discards surplus grants.
                ctx.send(
                    dlm,
                    NetMsg::Dlm(DlmMsg::Lock {
                        key,
                        owner: self.cfg.node,
                        rid: req.id,
                        mode: LockMode::Exclusive,
                    }),
                );
            }
            return;
        }
        let Some(key) = req.op.key().cloned() else {
            let id = req.id;
            self.reply_err(reply, id, KvError::Rejected("not a point op".into()), ctx);
            return;
        };
        self.pending.insert(
            req.id,
            Pending {
                reply,
                req: req.clone(),
                awaiting: Default::default(),
                fencing: 0,
            },
        );
        ctx.send(
            dlm,
            NetMsg::Dlm(DlmMsg::Lock {
                key,
                owner: self.cfg.node,
                rid: req.id,
                mode: LockMode::Exclusive,
            }),
        );
    }

    fn aa_sc_read(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let Some(dlm) = self.cfg.dlm else {
            self.serve_local_read(&req, reply, ctx);
            return;
        };
        // Retry while the shared-lock grant is in flight: refresh the
        // reply path and re-request (the Lock or its grant may have been
        // dropped). A surplus grant finds no pending entry — the read was
        // served under the first one — and is released immediately by the
        // no-longer-care path in `handle_dlm`.
        if let Some(p) = self.pending.get_mut(&req.id) {
            p.reply = reply;
            if let Some(key) = p.req.op.key().cloned() {
                ctx.send(
                    dlm,
                    NetMsg::Dlm(DlmMsg::Lock {
                        key,
                        owner: self.cfg.node,
                        rid: req.id,
                        mode: LockMode::Shared,
                    }),
                );
            }
            return;
        }
        let Some(key) = req.op.key().cloned() else {
            // Range scans are served locally (the paper locks point ops).
            self.serve_local_read(&req, reply, ctx);
            return;
        };
        self.pending.insert(
            req.id,
            Pending {
                reply,
                req: req.clone(),
                awaiting: Default::default(),
                fencing: 0,
            },
        );
        ctx.send(
            dlm,
            NetMsg::Dlm(DlmMsg::Lock {
                key,
                owner: self.cfg.node,
                rid: req.id,
                mode: LockMode::Shared,
            }),
        );
    }

    pub(crate) fn handle_dlm(&mut self, msg: DlmMsg, ctx: &mut Context) {
        match msg {
            DlmMsg::Granted { key, rid, fencing, .. } => {
                let Some(p) = self.pending.get_mut(&rid) else {
                    // We no longer care (e.g. failed over); release at once.
                    if let Some(dlm) = self.cfg.dlm {
                        ctx.send(
                            dlm,
                            NetMsg::Dlm(DlmMsg::Unlock {
                                key,
                                owner: self.cfg.node,
                                fencing,
                            }),
                        );
                    }
                    return;
                };
                if p.fencing != 0 {
                    // Duplicate grant (a lock re-request raced an earlier
                    // grant): executing under a second token would apply
                    // the write twice. Release the surplus grant.
                    if let Some(dlm) = self.cfg.dlm {
                        ctx.send(
                            dlm,
                            NetMsg::Dlm(DlmMsg::Unlock {
                                key,
                                owner: self.cfg.node,
                                fencing,
                            }),
                        );
                    }
                    return;
                }
                p.fencing = fencing;
                let is_write = p.req.op.is_write();
                if is_write {
                    // Fencing tokens are globally monotonic: use them as
                    // the write version so concurrent writers serialize.
                    let entry = Self::entry_for(&p.req, fencing).expect("write op");
                    let info = self.info.clone().expect("serving");
                    let peers: Vec<NodeId> = info
                        .replicas
                        .iter()
                        .copied()
                        .filter(|&n| n != self.cfg.node)
                        .collect();
                    let rid_copy = rid;
                    self.pending.get_mut(&rid).expect("present").awaiting =
                        peers.iter().copied().collect();
                    self.apply_entry(&entry, ctx);
                    self.applied_seq = self.applied_seq.max(fencing);
                    if peers.is_empty() {
                        self.finish_aa_sc(rid_copy, ctx);
                    } else {
                        for peer in peers {
                            ctx.send(
                                Self::addr_of(peer),
                                NetMsg::Repl(ReplMsg::PeerWrite {
                                    shard: self.cfg.shard,
                                    epoch: info.epoch,
                                    rid,
                                    entry: entry.clone(),
                                }),
                            );
                        }
                    }
                } else {
                    // Shared lock held: read locally, release, reply.
                    let p = self.pending.remove(&rid).expect("present");
                    let req = p.req.clone();
                    self.serve_local_read(&req, p.reply, ctx);
                    if let Some(dlm) = self.cfg.dlm {
                        ctx.send(
                            dlm,
                            NetMsg::Dlm(DlmMsg::Unlock {
                                key,
                                owner: self.cfg.node,
                                fencing,
                            }),
                        );
                    }
                    self.check_transition_drained(ctx);
                }
            }
            DlmMsg::Denied { rid, .. } => {
                if let Some(p) = self.pending.remove(&rid) {
                    self.reply_err(p.reply, rid, KvError::LockContended, ctx);
                }
                self.check_transition_drained(ctx);
            }
            _ => {}
        }
    }

    pub(crate) fn on_peer_write(
        &mut self,
        from: Addr,
        shard: bespokv_types::ShardId,
        rid: bespokv_types::RequestId,
        entry: bespokv_proto::LogEntry,
        ctx: &mut Context,
    ) {
        if shard != self.cfg.shard {
            return;
        }
        self.apply_entry(&entry, ctx);
        self.applied_seq = self.applied_seq.max(entry.version);
        ctx.send(
            from,
            NetMsg::Repl(ReplMsg::PeerWriteAck { shard, rid }),
        );
    }

    pub(crate) fn on_peer_write_ack(
        &mut self,
        from: Addr,
        rid: bespokv_types::RequestId,
        ctx: &mut Context,
    ) {
        let done = {
            let Some(p) = self.pending.get_mut(&rid) else { return };
            p.awaiting.remove(&NodeId(from.0));
            p.awaiting.is_empty()
        };
        if done {
            self.finish_aa_sc(rid, ctx);
        }
    }

    fn finish_aa_sc(&mut self, rid: bespokv_types::RequestId, ctx: &mut Context) {
        let Some(p) = self.pending.remove(&rid) else { return };
        if let (Some(dlm), Some(key)) = (self.cfg.dlm, p.req.op.key().cloned()) {
            ctx.send(
                dlm,
                NetMsg::Dlm(DlmMsg::Unlock {
                    key,
                    owner: self.cfg.node,
                    fencing: p.fencing,
                }),
            );
        }
        let resp = Response::ok(rid, RespBody::Done);
        self.respond(p.reply, resp, ctx);
        self.check_transition_drained(ctx);
    }

    // --- AA+EC: shared-log ordering --------------------------------------------

    fn aa_ec_write(&mut self, req: Request, reply: ReplyPath, ctx: &mut Context) {
        let Some(log) = self.cfg.shared_log else {
            let id = req.id;
            self.reply_err(
                reply,
                id,
                KvError::Rejected("no shared log configured".into()),
                ctx,
            );
            return;
        };
        let Some(entry) = Self::entry_for(&req, 0) else {
            let id = req.id;
            self.reply_err(reply, id, KvError::Rejected("not a write".into()), ctx);
            return;
        };
        let rid = req.id;
        // Client retry while the append is outstanding: the shared log
        // dedups appends by rid, so re-sending covers a lost Append or
        // AppendAck without ordering the write twice.
        if let Some(p) = self.pending.get_mut(&rid) {
            p.reply = reply;
            ctx.send(
                log,
                NetMsg::Log(LogMsg::Append {
                    shard: self.cfg.shard,
                    rid,
                    entry,
                }),
            );
            return;
        }
        self.pending.insert(
            rid,
            Pending {
                reply,
                req,
                awaiting: Default::default(),
                fencing: 0,
            },
        );
        ctx.send(
            log,
            NetMsg::Log(LogMsg::Append {
                shard: self.cfg.shard,
                rid,
                entry,
            }),
        );
    }

    pub(crate) fn handle_log(&mut self, msg: LogMsg, ctx: &mut Context) {
        match msg {
            LogMsg::AppendAck { rid, seq, .. } => {
                if let Some(p) = self.pending.remove(&rid) {
                    // Apply our own write eagerly at its assigned order.
                    if let Some(entry) = Self::entry_for(&p.req, seq) {
                        self.apply_entry(&entry, ctx);
                    }
                    let resp = Response::ok(rid, RespBody::Done);
                    self.respond(p.reply, resp, ctx);
                }
                self.check_transition_drained(ctx);
            }
            LogMsg::FetchResp {
                first_seq,
                entries,
                tail_seq,
                ..
            } => {
                if first_seq > self.log.fetch_pos {
                    // Entries below first_seq were trimmed; skip forward.
                    self.log.fetch_pos = first_seq;
                }
                // A duplicated or reordered response (fault injection, an
                // extra poll for parked reads) may overlap or sit entirely
                // below the cursor. Applying entries twice is harmless
                // (version-guarded), but the cursor must only advance to
                // the end of THIS response's range — blindly adding the
                // length would jump past log positions never fetched.
                for e in &entries {
                    self.apply_entry(e, ctx);
                }
                let resp_end = first_seq + entries.len() as u64;
                self.log.fetch_pos = self.log.fetch_pos.max(resp_end);
                self.applied_seq = self.applied_seq.max(self.log.fetch_pos.saturating_sub(1));
                // Strong reads park until we observe the log tail they
                // arrived behind; serve the ones now satisfied.
                if !self.parked_reads.is_empty() {
                    let fetch_pos = self.log.fetch_pos;
                    let mut parked = std::mem::take(&mut self.parked_reads);
                    for p in &mut parked {
                        if p.target.is_none() {
                            p.target = Some(tail_seq);
                        }
                    }
                    let (ready, waiting): (Vec<_>, Vec<_>) = parked
                        .into_iter()
                        .partition(|p| p.target.expect("set above") <= fetch_pos);
                    self.parked_reads = waiting;
                    for p in ready {
                        self.serve_local_read(&p.req, p.reply, ctx);
                    }
                    if !self.parked_reads.is_empty() {
                        self.poll_shared_log(ctx);
                    }
                }
                self.check_transition_drained(ctx);
            }
            _ => {}
        }
    }

    /// Periodic shared-log catch-up (AA+EC replicas).
    pub(crate) fn poll_shared_log(&mut self, ctx: &mut Context) {
        let Some(info) = &self.info else { return };
        if info.mode != bespokv_types::Mode::AA_EC {
            return;
        }
        let Some(log) = self.cfg.shared_log else { return };
        ctx.send(
            log,
            NetMsg::Log(LogMsg::Fetch {
                shard: self.cfg.shard,
                from_seq: self.log.fetch_pos,
                max: 1024,
            }),
        );
    }

    // --- message dispatch -------------------------------------------------------

    pub(crate) fn handle_repl(&mut self, from: Addr, msg: ReplMsg, ctx: &mut Context) {
        match msg {
            ReplMsg::ChainPutBatch { shard, epoch, budget, items } => {
                self.on_chain_put_batch(shard, epoch, budget, items, ctx)
            }
            ReplMsg::ChainAckBatch { shard, epoch, items } => {
                self.on_chain_ack_batch(shard, epoch, items, ctx)
            }
            ReplMsg::PropBatch {
                shard,
                epoch,
                first_seq,
                floor,
                budget,
                entries,
            } => self.on_prop_batch(from, shard, epoch, first_seq, floor, budget, entries, ctx),
            ReplMsg::PropAck { epoch, upto, .. } => self.on_prop_ack(from, epoch, upto, ctx),
            ReplMsg::PeerWrite {
                shard, rid, entry, ..
            } => self.on_peer_write(from, shard, rid, entry, ctx),
            ReplMsg::PeerWriteAck { rid, .. } => self.on_peer_write_ack(from, rid, ctx),
            ReplMsg::ForwardedReq { req, reply_via } => {
                ctx.charge(self.cfg.cost.controlet_overhead);
                let reply = if reply_via.is_unassigned() {
                    // Fire-and-forget fan-out (table ops): apply locally
                    // without replying or re-fanning out.
                    match &req.op {
                        Op::CreateTable { name } => {
                            let _ = self.datalet.create_table(name);
                        }
                        Op::DeleteTable { name } => {
                            let _ = self.datalet.delete_table(name);
                        }
                        _ => {}
                    }
                    return;
                } else {
                    ReplyPath::Relay(Self::addr_of(reply_via))
                };
                self.handle_client(req, reply, ctx);
            }
            ReplMsg::ForwardedResp { resp } => {
                // We are the relay: hand the response to whoever asked us.
                // An unknown rid is a duplicate or late response; drop it.
                if let Some(reply) = self.relayed.remove(&resp.id) {
                    self.deliver(reply, resp, ctx);
                }
            }
            ReplMsg::RecoveryReq {
                shard,
                from: pos,
                floor,
            } => {
                self.serve_recovery_chunk(shard, pos, floor, from, ctx);
            }
            ReplMsg::RecoveryChunk {
                shard,
                from: pos,
                advance,
                entries,
                done,
                snapshot_seq,
            } => {
                self.on_recovery_chunk(shard, pos, advance, entries, done, snapshot_seq, ctx);
            }
        }
    }
}
