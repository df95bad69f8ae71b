//! Controlet maintenance paths: failover recovery, configuration adoption,
//! and mode transitions (paper sections IV "Failover" and V).

use super::{Controlet, RecoveryState, TransitionState, RECOVERY_CHUNK};
use bespokv_datalet::SnapshotEntry;
use bespokv_proto::{CoordMsg, LogEntry, NetMsg, ReplMsg};
use bespokv_runtime::{Addr, Context};
use bespokv_types::{Consistency, Duration, NodeId, ShardId, ShardInfo, Topology};

impl Controlet {
    pub(crate) fn handle_coord(&mut self, _from: Addr, msg: CoordMsg, ctx: &mut Context) {
        match msg {
            CoordMsg::ShardMapUpdate { map } => {
                let Some(info) = map.shard(self.cfg.shard).cloned() else {
                    return;
                };
                self.cluster_map = Some(map);
                self.maybe_adopt(info, ctx);
            }
            // Direct instruction (transitions hand the new controlets
            // their configuration this way).
            CoordMsg::Reconfigure { info } if info.shard == self.cfg.shard => {
                self.adopt_info(info);
                self.serving = true;
                self.publish_serving();
            }
            CoordMsg::StartRecovery {
                shard,
                source,
                role_position: _,
                info,
            } => {
                if shard != self.cfg.shard && self.info.is_some() {
                    return;
                }
                // A standby may be assigned to any shard; rebind.
                self.cfg.shard = shard;
                self.serving = false;
                self.recovery_delta = None;
                // Delta catch-up: a node that replayed durable local state
                // for *this* shard advertises its version floor so the
                // source skips everything already held. Only sound under
                // master-slave topologies — there the replicated log is
                // version-ordered, so "all versions <= floor" is a prefix;
                // active-active version sources interleave, and a restart
                // into a different shard holds the wrong data entirely.
                let floor = match self.cfg.recovered {
                    Some(r)
                        if r.shard == shard
                            && info.mode.topology == Topology::MasterSlave =>
                    {
                        r.floor
                    }
                    _ => 0,
                };
                self.recovery = Some(RecoveryState {
                    source,
                    next_from: 0,
                    info,
                    resync_floor: None,
                    floor,
                });
                self.publish_serving();
                ctx.send(
                    Self::addr_of(source),
                    NetMsg::Repl(ReplMsg::RecoveryReq { shard, from: 0, floor }),
                );
                // The pull loop dies if a request or chunk is lost; the
                // retry timer re-issues the current request until done.
                ctx.set_timer(super::HEARTBEAT_EVERY, super::RECOVERY_RETRY_TIMER);
            }
            CoordMsg::BeginTransition { shard, target } if shard == self.cfg.shard => {
                self.begin_transition(target, ctx);
            }
            _ => {}
        }
    }

    /// Adopts a map update if it is newer than what we have; reacts to
    /// role changes.
    fn maybe_adopt(&mut self, info: ShardInfo, ctx: &mut Context) {
        // The coordinator has acknowledged our recovery once the published
        // map includes us; stop re-reporting RecoveryDone. (Checked before
        // the staleness gate: the recovering node adopted the future info
        // early, so the confirming map may not be strictly newer.)
        if self.pending_recovery_done == Some(info.shard)
            && info.position(self.cfg.node).is_some()
        {
            self.pending_recovery_done = None;
        }
        let newer = match &self.info {
            None => true,
            Some(cur) => info.epoch > cur.epoch,
        };
        if !newer {
            return;
        }
        // If our delta-feed source left the replica set (it died), there is
        // nothing left to drain from it; stop polling.
        if let Some((source, _)) = self.recovery_delta {
            if info.position(source).is_none() {
                self.recovery_delta = None;
            }
        }
        // A watermark resync whose snapshot source died mid-pull would
        // otherwise wedge forever: the retry timer polls a dead node, and
        // `recovery.is_some()` drops every batch the *new* master sends.
        // The dead master's stream died with it, so restart the pull
        // against the current head from a clean stream cursor.
        if let Some(rec) = &mut self.recovery {
            if rec.resync_floor.is_some() && info.position(rec.source).is_none() {
                match info.head() {
                    Some(head) if head != self.cfg.node => {
                        self.prop_applied = 0;
                        self.prop_epoch = 0;
                        self.prop_master = None;
                        rec.source = head;
                        rec.next_from = 0;
                        rec.resync_floor = Some(0);
                        rec.floor = 0;
                        rec.info = info.clone();
                        ctx.send(
                            Self::addr_of(head),
                            NetMsg::Repl(ReplMsg::RecoveryReq {
                                shard: info.shard,
                                from: 0,
                                floor: 0,
                            }),
                        );
                        ctx.set_timer(super::HEARTBEAT_EVERY, super::RECOVERY_RETRY_TIMER);
                    }
                    // Promoted to master (or headless) mid-resync: there
                    // is no one left to pull from — serve what we have.
                    _ => self.recovery = None,
                }
            }
        }
        let was_member = self
            .info
            .as_ref()
            .map(|i| i.position(self.cfg.node).is_some())
            .unwrap_or(false);
        let is_member = info.position(self.cfg.node).is_some();
        self.adopt_info(info.clone());
        if is_member && self.recovery.is_none() {
            self.serving = true;
            // The source's feed can finish only once its map lists us:
            // poll now instead of on the next retry tick, so the window
            // in which this member refuses clients stays one round trip.
            if let Some((source, cursor)) = self.recovery_delta {
                ctx.send(
                    Self::addr_of(source),
                    NetMsg::Repl(ReplMsg::RecoveryReq {
                        shard: info.shard,
                        from: super::RECOVERY_DELTA_FLAG | cursor,
                        floor: 0,
                    }),
                );
            }
        }
        if was_member && !is_member && self.transition.is_none() {
            // Removed from the replica set outside a transition (we were
            // presumed failed). Stop serving; a human or the harness
            // decides what to do with this controlet.
            self.serving = false;
        }
        // Every adoption re-publishes the fast-path gate: the epoch in the
        // gate word changed, so edge reads snapshotted under the old
        // configuration fail their seqlock validation (the gate "slams
        // shut" for them even when this node keeps serving).
        self.publish_serving();
        // Chain repair: the head re-propagates in-flight writes so
        // whatever the dead node was holding reaches the new chain
        // (paper: "every node maintains a list of requests received but
        // not yet processed by the tail, which is used to resolve
        // in-flight requests").
        if info.mode.topology == Topology::MasterSlave
            && info.mode.consistency == Consistency::Strong
        {
            self.resend_in_flight(ctx);
        }
    }

    // --- recovery: source side ------------------------------------------------

    /// Streams one snapshot chunk to a recovering peer. `floor` is the
    /// requester's durable version floor: entries at or below it are
    /// dropped from the chunk (the requester already holds them), while
    /// `advance` still reports the unfiltered cursor consumption.
    pub(crate) fn serve_recovery_chunk(
        &mut self,
        shard: ShardId,
        from: u64,
        floor: u64,
        requester: Addr,
        ctx: &mut Context,
    ) {
        if shard != self.cfg.shard {
            return;
        }
        if from & super::RECOVERY_DELTA_FLAG != 0 {
            self.serve_recovery_delta(shard, from, requester, ctx);
            return;
        }
        // First request: start recording concurrently applied entries. The
        // snapshot cursor is an index into the sorted keyspace, so a write
        // landing in the already-streamed prefix would otherwise be lost.
        // (A retried `from == 0` request must NOT reset an existing feed —
        // the feed has been recording since the true start.)
        if from == 0 {
            self.recovery_feeds.entry(requester).or_default();
        }
        let (entries, done) = self.datalet.snapshot_chunk(from, RECOVERY_CHUNK);
        // Reading and serializing a chunk is real work (charged on the
        // unfiltered count: the cursor walk happens either way).
        ctx.charge(Duration::from_micros(2 * entries.len().max(1) as u64));
        let advance = entries.len() as u64;
        let mut entries: Vec<LogEntry> = entries.into_iter().map(snapshot_to_log).collect();
        if floor > 0 {
            entries.retain(|e| e.version > floor);
        }
        self.cfg
            .counters
            .recovery_entries_transferred
            .fetch_add(entries.len() as u64, std::sync::atomic::Ordering::Relaxed);
        ctx.send(
            requester,
            NetMsg::Repl(ReplMsg::RecoveryChunk {
                shard,
                from,
                advance,
                entries,
                done,
                snapshot_seq: self.applied_seq,
            }),
        );
    }

    /// Serves one cursor-addressed slice of the delta feed. Responds
    /// `done: true` only when the feed is drained *and* this node's map
    /// already lists the requester as a replica — from that point normal
    /// replication covers it, so both sides can forget the feed.
    fn serve_recovery_delta(&mut self, shard: ShardId, from: u64, requester: Addr, ctx: &mut Context) {
        let cursor = (from & !super::RECOVERY_DELTA_FLAG) as usize;
        let feed_entries: Vec<LogEntry> = self
            .recovery_feeds
            .get(&requester)
            .map(|f| {
                f.entries
                    .iter()
                    .skip(cursor)
                    .take(RECOVERY_CHUNK)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        let member = self
            .info
            .as_ref()
            .map(|i| i.position(NodeId(requester.0)).is_some())
            .unwrap_or(false);
        let finished = feed_entries.is_empty() && member;
        ctx.charge(Duration::from_micros(2 * feed_entries.len().max(1) as u64));
        self.cfg
            .counters
            .recovery_entries_transferred
            .fetch_add(feed_entries.len() as u64, std::sync::atomic::Ordering::Relaxed);
        ctx.send(
            requester,
            NetMsg::Repl(ReplMsg::RecoveryChunk {
                shard,
                from,
                advance: feed_entries.len() as u64,
                entries: feed_entries,
                done: finished,
                snapshot_seq: self.applied_seq,
            }),
        );
        if finished {
            self.recovery_feeds.remove(&requester);
        }
    }

    // --- recovery: joining side -------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_recovery_chunk(
        &mut self,
        shard: ShardId,
        from: u64,
        advance: u64,
        entries: Vec<LogEntry>,
        done: bool,
        snapshot_seq: u64,
        ctx: &mut Context,
    ) {
        if shard != self.cfg.shard {
            return;
        }
        // Delta responses (post-snapshot feed drain) are cursor-matched so
        // duplicates, reorders and drops are all safe to replay.
        if from & super::RECOVERY_DELTA_FLAG != 0 {
            if let Some((source, cursor)) = self.recovery_delta {
                if from == super::RECOVERY_DELTA_FLAG | cursor {
                    for e in &entries {
                        self.apply_entry(e, ctx);
                    }
                    if done {
                        self.recovery_delta = None;
                        self.publish_serving();
                    } else {
                        self.recovery_delta = Some((source, cursor + advance));
                    }
                }
            }
            return;
        }
        if self.recovery.is_none() {
            return;
        }
        // Only the chunk for the current position advances the pull loop;
        // duplicated or stale chunks (fault injection, retry overlap) are
        // ignored so the cursor never regresses.
        if from != self.recovery.as_ref().expect("checked").next_from {
            return;
        }
        for e in &entries {
            self.apply_entry(e, ctx);
        }
        let source = self.recovery.as_ref().expect("checked").source;
        if done {
            let rec = self.recovery.take().expect("checked");
            self.applied_seq = self.applied_seq.max(snapshot_seq);
            // Resume shared-log consumption where the snapshot left off
            // (AA+EC: log positions are global, so the source's sequence is
            // meaningful here).
            self.log.fetch_pos = snapshot_seq + 1;
            match rec.resync_floor {
                // Watermark resync: the source IS the current stream
                // master, and everything at or below the floor that cut
                // this slave loose is covered by the snapshot just
                // applied. Resume the stream there, same epoch, same
                // master — resetting to zero would re-trigger the
                // floor-jump guard on the very next batch and thrash
                // resync forever. If the master force-trimmed *again*
                // during the pull, the next batch's floor will exceed
                // this cursor and correctly trigger a fresh resync.
                Some(floor) => self.prop_applied = self.prop_applied.max(floor),
                // Joining an MS+EC chain as a slave: the snapshot's
                // sequence is numbered in the *source's* stream, which
                // need not be the stream the current master sends (a
                // promoted master starts a fresh one at 1). Guessing a
                // cursor here is poison — a stale high cursor silently
                // skips every new-stream entry and its cumulative ack
                // makes the master trim them unreplicated. Start from
                // nothing; if the master's floor is already ahead, the
                // floor-jump guard pulls a (redundant but safe) snapshot
                // and resumes at the floor.
                None => {
                    self.prop_applied = 0;
                    self.prop_epoch = 0;
                    self.prop_master = None;
                }
            }
            self.adopt_info(rec.info);
            self.serving = true;
            // The fuzzy snapshot missed writes applied concurrently with
            // the stream: drain the source's delta feed from cursor 0.
            self.recovery_delta = Some((rec.source, 0));
            self.publish_serving();
            ctx.send(
                Self::addr_of(rec.source),
                NetMsg::Repl(ReplMsg::RecoveryReq {
                    shard,
                    from: super::RECOVERY_DELTA_FLAG,
                    floor: 0,
                }),
            );
            if rec.resync_floor.is_none() {
                // Keep re-reporting on the heartbeat until the map shows us.
                self.pending_recovery_done = Some(shard);
                ctx.send(
                    self.cfg.coordinator,
                    NetMsg::Coord(CoordMsg::RecoveryDone {
                        shard,
                        node: self.cfg.node,
                    }),
                );
            }
        } else {
            // Advance by the source's cursor consumption, not the entry
            // count: floor-filtered entries were consumed from the
            // snapshot cursor even though they were not sent.
            let next_from = from + advance;
            let floor = self.recovery.as_ref().expect("checked").floor;
            if let Some(rec) = &mut self.recovery {
                rec.next_from = next_from;
            }
            ctx.send(
                Self::addr_of(source),
                NetMsg::Repl(ReplMsg::RecoveryReq {
                    shard,
                    from: next_from,
                    floor,
                }),
            );
        }
    }

    // --- transitions (section V) -------------------------------------------------

    /// Old-controlet side: enter drain-and-forward mode.
    fn begin_transition(&mut self, target: ShardInfo, ctx: &mut Context) {
        // Only replica-set members participate; the new controlets get
        // Reconfigure instead.
        let Some(info) = &self.info else { return };
        if info.position(self.cfg.node).is_none() {
            return;
        }
        // Flush any pending propagation right away (MS+EC -> * requires
        // the old master to push out everything it has).
        self.transition = Some(TransitionState {
            target,
            reported: false,
        });
        // A transition closes the fast path outright: reads fall back to
        // the actor loop, which serves them with EC guarantees until the
        // switch completes (section V).
        self.publish_serving();
        self.flush_propagation(ctx);
        self.check_transition_drained(ctx);
    }

    /// True when this controlet has no obligations left from its old role.
    fn drained(&self) -> bool {
        let Some(info) = &self.info else { return true };
        let writer = match info.mode.topology {
            Topology::MasterSlave => info.head() == Some(self.cfg.node),
            Topology::ActiveActive => true,
        };
        if !writer {
            return true;
        }
        match (info.mode.topology, info.mode.consistency) {
            // MS+SC head: all chain writes acked.
            (Topology::MasterSlave, Consistency::Strong) => self.in_flight.is_empty(),
            // MS+EC master: every slave acked the whole buffer.
            (Topology::MasterSlave, Consistency::Eventual) => self.prop.buffer.is_empty(),
            // AA+SC active: no locks in flight.
            (Topology::ActiveActive, Consistency::Strong) => self.pending.is_empty(),
            // AA+EC active: no appends waiting on the log.
            (Topology::ActiveActive, Consistency::Eventual) => self.pending.is_empty(),
        }
    }

    /// Reports drained once, when the transition state allows.
    pub(crate) fn check_transition_drained(&mut self, ctx: &mut Context) {
        let Some(t) = &self.transition else { return };
        if t.reported || !self.drained() {
            return;
        }
        if let Some(t) = &mut self.transition {
            t.reported = true;
        }
        ctx.send(
            self.cfg.coordinator,
            NetMsg::Coord(CoordMsg::TransitionDrained {
                shard: self.cfg.shard,
                node: self.cfg.node,
            }),
        );
    }

    /// Clears transition bookkeeping once the new configuration (which no
    /// longer includes this node) has been adopted and no forwarded
    /// replies are owed. Harnesses may call this to retire old controlets.
    pub fn transition_complete(&self) -> bool {
        match &self.transition {
            None => true,
            Some(t) => t.reported && self.relayed.is_empty(),
        }
    }
}

fn snapshot_to_log(e: SnapshotEntry) -> LogEntry {
    LogEntry {
        table: e.table,
        key: e.key,
        value: e.value,
        version: e.version,
    }
}

/// Helper for harnesses: which node id the transition should forward
/// writes to for a given target configuration.
pub fn transition_writer(target: &ShardInfo) -> Option<NodeId> {
    target.head()
}
