//! Direct state-machine tests of the controlet: drive events by hand and
//! inspect the emitted actions, without a runtime driver.

use super::*;
use bespokv_datalet::{EngineKind, DEFAULT_TABLE};
use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::{CoordMsg, LogEntry, NetMsg, ReplMsg};
use bespokv_runtime::{Action, Actor, Addr, Context, Event};
use bespokv_types::{
    ClientId, Duration, Instant, Key, KvError, Mode, NodeId, RequestId, ShardId, ShardInfo, Value,
};

const COORD: Addr = Addr(100);

fn info(mode: Mode, nodes: &[u32]) -> ShardInfo {
    ShardInfo {
        shard: ShardId(0),
        mode,
        replicas: nodes.iter().map(|&n| NodeId(n)).collect(),
        epoch: 1,
    }
}

fn controlet(node: u32, mode: Mode, nodes: &[u32]) -> Controlet {
    let cfg = ControletConfig::new(NodeId(node), ShardId(0), COORD);
    Controlet::with_info(cfg, EngineKind::THt.build(), info(mode, nodes))
}

/// Drives one event, returning the actions it produced.
fn drive(c: &mut Controlet, ev: Event) -> Vec<Action> {
    let mut ctx = Context::new(Instant::ZERO, Addr(c.node().raw()));
    c.on_event(ev, &mut ctx);
    ctx.take_actions()
}

fn client_put(seq: u32, key: &str, val: &str) -> Event {
    Event::Msg {
        from: Addr(999),
        msg: NetMsg::Client(Request::new(
            RequestId::compose(ClientId(9), seq),
            Op::Put {
                key: Key::from(key),
                value: Value::from(val),
            },
        )),
    }
}

fn sent_to(actions: &[Action]) -> Vec<(Addr, &NetMsg)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

/// Like `drive`, but with the clock set to `now` (deadline tests).
fn drive_at(c: &mut Controlet, now: Instant, ev: Event) -> Vec<Action> {
    let mut ctx = Context::new(now, Addr(c.node().raw()));
    c.on_event(ev, &mut ctx);
    ctx.take_actions()
}

#[test]
fn non_writer_rejects_writes_with_hint() {
    let mut slave = controlet(1, Mode::MS_SC, &[0, 1, 2]);
    let actions = drive(&mut slave, client_put(0, "k", "v"));
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    match sends[0].1 {
        NetMsg::ClientResp(Response {
            result: Err(KvError::WrongNode { node, hint }),
            ..
        }) => {
            assert_eq!(*node, NodeId(1));
            assert_eq!(*hint, Some(NodeId(0)));
        }
        other => panic!("expected WrongNode, got {other:?}"),
    }
}

#[test]
fn chain_head_applies_locally_and_sends_one_batch_at_once() {
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    let actions = drive(&mut head, client_put(0, "k", "v"));
    // Applied locally before forwarding.
    assert_eq!(
        head.datalet().get(DEFAULT_TABLE, &Key::from("k")).unwrap().value,
        Value::from("v")
    );
    // The same event pushes the write to the successor as a one-item
    // batch: no buffer, no flush timer.
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1, "exactly one chain forward");
    assert_eq!(sends[0].0, Addr(1), "to the successor");
    match sends[0].1 {
        NetMsg::Repl(ReplMsg::ChainPutBatch { items, epoch, .. }) => {
            assert_eq!(items.len(), 1);
            assert_eq!(*epoch, 1);
        }
        other => panic!("expected ChainPutBatch, got {other:?}"),
    }
    // No reply yet: the client waits for the tail ack.
    assert_eq!(head.pending.len(), 1);
    assert_eq!(head.in_flight.len(), 1);
}

fn entry_v(key: &str, val: &str, version: u64) -> LogEntry {
    LogEntry {
        table: String::new(),
        key: Key::from(key),
        value: Some(Value::from(val)),
        version,
    }
}

#[test]
fn tail_acks_whole_batch_and_mid_relays_batch() {
    let rid_a = RequestId::compose(ClientId(9), 0);
    let rid_b = RequestId::compose(ClientId(9), 1);
    let batch = || Event::Msg {
        from: Addr(1),
        msg: NetMsg::Repl(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 1,
            budget: Duration::ZERO,
            items: vec![(rid_a, entry_v("a", "1", 7)), (rid_b, entry_v("b", "2", 8))],
        }),
    };
    // Tail: applies every entry and acks the batch as one message.
    let mut tail = controlet(2, Mode::MS_SC, &[0, 1, 2]);
    let actions = drive(&mut tail, batch());
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(1));
    match sends[0].1 {
        NetMsg::Repl(ReplMsg::ChainAckBatch { items, .. }) => {
            assert_eq!(items.as_slice(), &[(rid_a, 7), (rid_b, 8)]);
        }
        other => panic!("expected ChainAckBatch, got {other:?}"),
    }
    assert_eq!(
        tail.datalet().get(DEFAULT_TABLE, &Key::from("b")).unwrap().value,
        Value::from("2")
    );
    // Mid: applies, tracks in flight, and forwards the batch whole.
    let mut mid = controlet(1, Mode::MS_SC, &[0, 1, 2]);
    let mid_batch = Event::Msg {
        from: Addr(0),
        msg: NetMsg::Repl(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 1,
            budget: Duration::ZERO,
            items: vec![(rid_a, entry_v("a", "1", 7)), (rid_b, entry_v("b", "2", 8))],
        }),
    };
    let actions = drive(&mut mid, mid_batch);
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(2), "forwarded to the tail");
    assert!(matches!(sends[0].1, NetMsg::Repl(ReplMsg::ChainPutBatch { items, .. }) if items.len() == 2));
    assert_eq!(mid.in_flight.len(), 2);
    // The batched ack flowing back clears both and relays upstream.
    let actions = drive(
        &mut mid,
        Event::Msg {
            from: Addr(2),
            msg: NetMsg::Repl(ReplMsg::ChainAckBatch {
                shard: ShardId(0),
                epoch: 1,
                items: vec![(rid_a, 7), (rid_b, 8)],
            }),
        },
    );
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(0), "ack batch relayed to the head");
    assert!(mid.in_flight.is_empty());
}

#[test]
fn duplicated_and_reordered_chain_batches_are_safe() {
    // Fault injection can duplicate or reorder whole batches. Applies are
    // version-guarded and in-flight tracking is keyed by version, so a
    // replay must change nothing; acks arriving out of order must answer
    // each client exactly once.
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    drive(&mut head, client_put(0, "a", "1"));
    drive(&mut head, client_put(1, "b", "2"));
    assert_eq!(head.in_flight.len(), 2);
    let versions: Vec<u64> = head.in_flight.keys().copied().collect();
    let rids: Vec<RequestId> = head.in_flight.values().map(|(r, _)| *r).collect();
    // Acks arrive as two single-item batches in reverse order.
    let ack_batch = |items: Vec<(RequestId, u64)>| Event::Msg {
        from: Addr(1),
        msg: NetMsg::Repl(ReplMsg::ChainAckBatch {
            shard: ShardId(0),
            epoch: 1,
            items,
        }),
    };
    let actions = drive(&mut head, ack_batch(vec![(rids[1], versions[1])]));
    assert_eq!(sent_to(&actions).len(), 1, "client 2 answered");
    let actions = drive(&mut head, ack_batch(vec![(rids[0], versions[0])]));
    assert_eq!(sent_to(&actions).len(), 1, "client 1 answered");
    assert!(head.in_flight.is_empty());
    // A duplicated ack batch is absorbed silently.
    let actions = drive(
        &mut head,
        ack_batch(vec![(rids[0], versions[0]), (rids[1], versions[1])]),
    );
    assert!(sent_to(&actions).is_empty(), "duplicate batch re-answered a client");
    // A mid receiving the same put batch twice must not double-track.
    let mut mid = controlet(1, Mode::MS_SC, &[0, 1, 2]);
    let put_batch = || Event::Msg {
        from: Addr(0),
        msg: NetMsg::Repl(ReplMsg::ChainPutBatch {
            shard: ShardId(0),
            epoch: 1,
            budget: Duration::ZERO,
            items: vec![(rids[0], entry_v("a", "1", versions[0]))],
        }),
    };
    drive(&mut mid, put_batch());
    drive(&mut mid, put_batch());
    assert_eq!(mid.in_flight.len(), 1, "duplicate batch double-tracked");
    let got = mid.datalet().get(DEFAULT_TABLE, &Key::from("a")).unwrap();
    assert_eq!(got.version, versions[0]);
}

#[test]
fn stale_epoch_chain_batch_is_dropped() {
    let mut mid = controlet(1, Mode::MS_SC, &[0, 1, 2]);
    let actions = drive(
        &mut mid,
        Event::Msg {
            from: Addr(0),
            msg: NetMsg::Repl(ReplMsg::ChainPutBatch {
                shard: ShardId(0),
                epoch: 0,
                budget: Duration::ZERO,
                items: vec![(RequestId::compose(ClientId(9), 0), entry_v("k", "v", 5))],
            }),
        },
    );
    assert!(sent_to(&actions).is_empty(), "stale batch forwarded");
    assert!(mid.datalet().get(DEFAULT_TABLE, &Key::from("k")).is_err());
    assert!(mid.in_flight.is_empty());
}

#[test]
fn chain_writes_mark_keys_dirty_until_acked() {
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    let dirty = head.dirty_keys();
    drive(&mut head, client_put(0, "k", "v"));
    assert!(dirty.is_dirty(&Key::from("k")), "in-flight write must mark dirty until acked");
    let (version, (rid, _)) = head.in_flight.iter().next().map(|(v, p)| (*v, p.clone())).unwrap();
    drive(
        &mut head,
        Event::Msg {
            from: Addr(1),
            msg: NetMsg::Repl(ReplMsg::ChainAckBatch {
                shard: ShardId(0),
                epoch: 1,
                items: vec![(rid, version)],
            }),
        },
    );
    assert!(!dirty.is_dirty(&Key::from("k")), "ack retires the dirty mark");
}

#[test]
fn gate_tracks_role_and_epoch() {
    use crate::serving::{ReadPermit, ServingState};
    use bespokv_types::Consistency;
    // MS+SC tail publishes strong-serve; the head only clean-key serve.
    let tail = controlet(2, Mode::MS_SC, &[0, 1, 2]);
    let gate = tail.serving_gate();
    assert!(gate.is_open());
    assert_eq!(gate.epoch(), 1);
    assert_eq!(
        ServingState::permit(gate.begin_read(), Consistency::Strong),
        ReadPermit::Serve
    );
    let head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    assert_eq!(
        ServingState::permit(head.serving_gate().begin_read(), Consistency::Strong),
        ReadPermit::ServeIfClean
    );
    // Reconfiguration bumps the gate epoch so snapshotted reads fail
    // validation; a transition closes the gate entirely.
    let mut c = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    let gate = c.serving_gate();
    let token = gate.begin_read();
    let mut newer = info(Mode::MS_EC, &[0, 1, 2]);
    newer.epoch = 7;
    drive(
        &mut c,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::Reconfigure { info: newer }),
        },
    );
    assert!(!gate.validate(token), "epoch bump must invalidate old tokens");
    assert!(gate.is_open());
    let target = ShardInfo {
        shard: ShardId(0),
        mode: Mode::MS_SC,
        replicas: vec![NodeId(10), NodeId(11), NodeId(12)],
        epoch: 8,
    };
    drive(
        &mut c,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::BeginTransition {
                shard: ShardId(0),
                target,
            }),
        },
    );
    assert!(!gate.is_open(), "transition slams the fast path shut");
}

#[test]
fn retried_write_reuses_in_flight_entry() {
    // A client retry of a write whose ack is still in flight must not be
    // ordered again: same version, same single in-flight slot, and the
    // write is re-pushed as a one-item batch so a dropped one is recovered.
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    drive(&mut head, client_put(0, "k", "v"));
    let version = *head.in_flight.keys().next().expect("one in flight");
    let actions = drive(&mut head, client_put(0, "k", "v"));
    assert_eq!(head.in_flight.len(), 1, "retry must not order a second entry");
    assert_eq!(head.pending.len(), 1);
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1, "retry re-pushes the write");
    assert_eq!(sends[0].0, Addr(1), "to the successor");
    match sends[0].1 {
        NetMsg::Repl(ReplMsg::ChainPutBatch { items, .. }) => {
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].0, RequestId::compose(ClientId(9), 0));
            assert_eq!(items[0].1.version, version, "same ordering as the original");
        }
        other => panic!("expected ChainPutBatch, got {other:?}"),
    }
}

/// A shard map update moving shard 0 to `nodes` at `epoch`.
fn map_update(mode: Mode, nodes: &[u32], epoch: u64) -> Event {
    let mut map = bespokv_types::ShardMap::dense(
        1,
        3,
        mode,
        bespokv_types::Partitioning::ConsistentHash { vnodes: 4 },
    );
    let shard = map.shard_mut(ShardId(0)).expect("dense");
    shard.replicas = nodes.iter().map(|&n| NodeId(n)).collect();
    shard.epoch = epoch;
    Event::Msg {
        from: COORD,
        msg: NetMsg::Coord(CoordMsg::ShardMapUpdate { map }),
    }
}

#[test]
fn resend_in_flight_sends_one_batch_in_version_order() {
    // The middle of the chain dies: the head re-pushes everything still
    // in flight to its new successor as one batch, in version order.
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    for seq in 0..3 {
        drive(&mut head, client_put(seq, &format!("k{seq}"), "v"));
    }
    let expected: Vec<(RequestId, u64)> =
        head.in_flight.iter().map(|(v, (rid, _))| (*rid, *v)).collect();
    let actions = drive(&mut head, map_update(Mode::MS_SC, &[0, 2], 2));
    let batches: Vec<_> = sent_to(&actions)
        .into_iter()
        .filter_map(|(to, m)| match m {
            NetMsg::Repl(ReplMsg::ChainPutBatch { items, epoch, .. }) => Some((to, *epoch, items)),
            _ => None,
        })
        .collect();
    assert_eq!(batches.len(), 1, "one batch, not one message per write");
    let (to, epoch, items) = &batches[0];
    assert_eq!(*to, Addr(2), "to the new successor");
    assert_eq!(*epoch, 2, "under the new epoch");
    let got: Vec<(RequestId, u64)> = items.iter().map(|(rid, e)| (*rid, e.version)).collect();
    assert_eq!(got, expected, "every in-flight write, in version order");
    assert_eq!(head.in_flight.len(), 3, "still in flight until the tail acks");

    // Both followers die: a chain of one commits everything locally.
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    let dirty = head.dirty_keys();
    drive(&mut head, client_put(0, "a", "1"));
    drive(&mut head, client_put(1, "b", "2"));
    let actions = drive(&mut head, map_update(Mode::MS_SC, &[0], 2));
    let sends = sent_to(&actions);
    assert!(
        !sends.iter().any(|(_, m)| matches!(m, NetMsg::Repl(ReplMsg::ChainPutBatch { .. }))),
        "nothing to push down a chain of one"
    );
    let acked = sends
        .iter()
        .filter(|(to, m)| {
            *to == Addr(999)
                && matches!(m, NetMsg::ClientResp(Response { result: Ok(RespBody::Done), .. }))
        })
        .count();
    assert_eq!(acked, 2, "both clients answered");
    assert!(head.in_flight.is_empty() && head.pending.is_empty());
    assert!(!dirty.is_dirty(&Key::from("a")) && !dirty.is_dirty(&Key::from("b")));
}

#[test]
fn out_of_order_and_duplicate_chain_acks_resolve_cleanly() {
    // Two writes in flight at the head; the acks arrive tail-first in
    // reverse order, then one is duplicated. Each client must be answered
    // exactly once and nothing may stay wedged for resend_in_flight.
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    drive(&mut head, client_put(0, "a", "1"));
    drive(&mut head, client_put(1, "b", "2"));
    assert_eq!(head.in_flight.len(), 2);
    let versions: Vec<u64> = head.in_flight.keys().copied().collect();
    let rids: Vec<RequestId> = head.in_flight.values().map(|(r, _)| *r).collect();
    let ack = |rid, version| Event::Msg {
        from: Addr(1),
        msg: NetMsg::Repl(ReplMsg::ChainAckBatch {
            shard: ShardId(0),
            epoch: 1,
            items: vec![(rid, version)],
        }),
    };
    // Second write acked first.
    let actions = drive(&mut head, ack(rids[1], versions[1]));
    assert_eq!(sent_to(&actions).len(), 1, "client 2 answered");
    assert_eq!(head.in_flight.len(), 1);
    // Then the first.
    let actions = drive(&mut head, ack(rids[0], versions[0]));
    assert_eq!(sent_to(&actions).len(), 1, "client 1 answered");
    assert!(head.in_flight.is_empty());
    assert!(head.pending.is_empty());
    // A duplicated ack is absorbed without answering anyone twice.
    let actions = drive(&mut head, ack(rids[1], versions[1]));
    assert!(sent_to(&actions).is_empty(), "duplicate ack re-answered a client");
    // Nothing left for the post-reconfiguration resend path to chew on.
    let mut ctx = Context::new(Instant::ZERO, Addr(0));
    head.resend_in_flight(&mut ctx);
    assert!(ctx.take_actions().is_empty(), "resend_in_flight found stale state");
}

#[test]
fn ms_ec_master_acks_immediately_and_buffers() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    let actions = drive(&mut master, client_put(0, "k", "v"));
    let sends = sent_to(&actions);
    // Immediate client ack, no synchronous replication traffic.
    assert_eq!(sends.len(), 1);
    assert!(matches!(
        sends[0].1,
        NetMsg::ClientResp(Response { result: Ok(RespBody::Done), .. })
    ));
    assert_eq!(master.prop.buffer.len(), 1);
    // The flush timer pushes a batch to each slave.
    let actions = drive(&mut master, Event::Timer { token: super::PROP_FLUSH_TIMER });
    let batches: Vec<_> = sent_to(&actions)
        .into_iter()
        .filter(|(_, m)| matches!(m, NetMsg::Repl(ReplMsg::PropBatch { .. })))
        .collect();
    assert_eq!(batches.len(), 2, "one batch per slave");
}

#[test]
fn prop_buffer_trims_after_all_slaves_ack() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    drive(&mut master, client_put(0, "a", "1"));
    drive(&mut master, client_put(1, "b", "2"));
    assert_eq!(master.prop.buffer.len(), 2);
    let ack = |from: u32, upto: u64| Event::Msg {
        from: Addr(from),
        msg: NetMsg::Repl(ReplMsg::PropAck {
            shard: ShardId(0),
            epoch: 1,
            upto,
        }),
    };
    drive(&mut master, ack(1, 2));
    assert_eq!(master.prop.buffer.len(), 2, "slave 2 still behind");
    drive(&mut master, ack(2, 2));
    assert!(master.prop.buffer.is_empty(), "everyone acked: trimmed");
}

#[test]
fn version_rebase_is_monotonic_across_epochs() {
    let mut c = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    drive(&mut c, client_put(0, "k", "v1"));
    let v1 = c
        .datalet()
        .get(DEFAULT_TABLE, &Key::from("k"))
        .unwrap()
        .version;
    // Adopt a newer configuration (failover happened elsewhere).
    let mut newer = info(Mode::MS_EC, &[0, 2]);
    newer.epoch = 5;
    drive(
        &mut c,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::Reconfigure { info: newer }),
        },
    );
    drive(&mut c, client_put(1, "k", "v2"));
    let v2 = c
        .datalet()
        .get(DEFAULT_TABLE, &Key::from("k"))
        .unwrap()
        .version;
    assert!(v2 > v1, "epoch-rebased version must supersede: {v1} vs {v2}");
    assert_eq!(
        c.datalet().get(DEFAULT_TABLE, &Key::from("k")).unwrap().value,
        Value::from("v2")
    );
    // Rebasing to an older epoch never moves the counter back.
    c.adopt_info(info(Mode::MS_EC, &[0, 2]));
    assert!(c.fresh_version() > v2, "an older epoch regressed the version counter");
}

#[test]
fn reply_cache_keeps_done_replies_and_evicts_the_oldest() {
    let mut cache = ReplyCache::default();
    let rid = |seq| RequestId::compose(ClientId(9), seq);
    cache.record(&Response::ok(rid(0), RespBody::Done));
    cache.record(&Response::err(rid(1), KvError::Overloaded));
    assert!(matches!(cache.get(rid(0)), Some(Response { result: Ok(RespBody::Done), .. })));
    assert!(cache.get(rid(1)).is_none(), "errors are re-derived, not cached");
    for seq in 2..=REPLY_CACHE_CAP as u32 + 1 {
        cache.record(&Response::ok(rid(seq), RespBody::Done));
    }
    assert!(cache.get(rid(0)).is_none(), "the oldest reply is evicted past the cap");
    assert!(cache.get(rid(2)).is_some());
}

#[test]
fn not_serving_while_recovering() {
    let cfg = ControletConfig::new(NodeId(5), ShardId(u32::MAX), COORD);
    let mut standby = Controlet::new(cfg, EngineKind::THt.build());
    // Assignment puts it into recovery mode.
    let actions = drive(
        &mut standby,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::StartRecovery {
                shard: ShardId(0),
                source: NodeId(1),
                role_position: 2,
                info: info(Mode::MS_SC, &[0, 1, 5]),
            }),
        },
    );
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(1), "recovery stream requested from source");
    // Client traffic is rejected mid-recovery.
    let actions = drive(&mut standby, client_put(0, "k", "v"));
    assert!(matches!(
        sent_to(&actions)[0].1,
        NetMsg::ClientResp(Response { result: Err(KvError::NotServing), .. })
    ));
}

#[test]
fn recovery_completion_reports_to_coordinator() {
    let cfg = ControletConfig::new(NodeId(5), ShardId(u32::MAX), COORD);
    let mut standby = Controlet::new(cfg, EngineKind::THt.build());
    drive(
        &mut standby,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::StartRecovery {
                shard: ShardId(0),
                source: NodeId(1),
                role_position: 2,
                info: info(Mode::MS_SC, &[0, 1, 5]),
            }),
        },
    );
    let entries = vec![LogEntry {
        table: String::new(),
        key: Key::from("recovered"),
        value: Some(Value::from("state")),
        version: 3,
    }];
    let actions = drive(
        &mut standby,
        Event::Msg {
            from: Addr(1),
            msg: NetMsg::Repl(ReplMsg::RecoveryChunk {
                shard: ShardId(0),
                from: 0,
                advance: 1,
                entries,
                done: true,
                snapshot_seq: 42,
            }),
        },
    );
    let sends = sent_to(&actions);
    assert!(sends.iter().any(|(to, m)| *to == COORD
        && matches!(m, NetMsg::Coord(CoordMsg::RecoveryDone { node, .. }) if *node == NodeId(5))));
    assert_eq!(
        standby
            .datalet()
            .get(DEFAULT_TABLE, &Key::from("recovered"))
            .unwrap()
            .value,
        Value::from("state")
    );
    assert_eq!(standby.applied_seq, 42);
}

#[test]
fn joiner_refuses_clients_until_the_delta_feed_drains() {
    let cfg = ControletConfig::new(NodeId(5), ShardId(u32::MAX), COORD);
    let mut joiner = Controlet::new(cfg, EngineKind::THt.build());
    drive(
        &mut joiner,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::StartRecovery {
                shard: ShardId(0),
                source: NodeId(1),
                role_position: 2,
                info: info(Mode::MS_SC, &[0, 1, 5]),
            }),
        },
    );
    let chunk = |from, entries, done| Event::Msg {
        from: Addr(1),
        msg: NetMsg::Repl(ReplMsg::RecoveryChunk {
            shard: ShardId(0),
            from,
            advance: 0,
            entries,
            done,
            snapshot_seq: 0,
        }),
    };
    drive(&mut joiner, chunk(0, Vec::new(), true));
    // Snapshot done, but a write the source applied while it streamed
    // may still sit in the delta feed: the new tail must not answer yet.
    let get = |seq| Event::Msg {
        from: Addr(999),
        msg: NetMsg::Client(Request::new(
            RequestId::compose(ClientId(9), seq),
            Op::Get { key: Key::from("k") },
        )),
    };
    let actions = drive(&mut joiner, get(0));
    assert!(matches!(
        sent_to(&actions)[0].1,
        NetMsg::ClientResp(Response { result: Err(KvError::NotServing), .. })
    ));
    assert!(!joiner.serving_gate().is_open(), "fast path open mid-drain");
    // The feed delivers the missed write and reports itself drained.
    drive(
        &mut joiner,
        chunk(super::RECOVERY_DELTA_FLAG, vec![entry_v("k", "missed", 7)], true),
    );
    assert!(joiner.serving_gate().is_open());
    let actions = drive(&mut joiner, get(1));
    match sent_to(&actions)[0].1 {
        NetMsg::ClientResp(Response { result: Ok(RespBody::Value(v)), .. }) => {
            assert_eq!(v.value, Value::from("missed"))
        }
        other => panic!("expected the drained write, got {other:?}"),
    }
}

#[test]
fn recovery_source_streams_chunks_with_done_flag() {
    let mut source = controlet(1, Mode::MS_SC, &[0, 1, 2]);
    for i in 0..10 {
        source
            .datalet()
            .put(DEFAULT_TABLE, Key::from(format!("k{i}")), Value::from("v"), i)
            .unwrap();
    }
    let actions = drive(
        &mut source,
        Event::Msg {
            from: Addr(5),
            msg: NetMsg::Repl(ReplMsg::RecoveryReq {
                shard: ShardId(0),
                from: 0,
                floor: 0,
            }),
        },
    );
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    match sends[0].1 {
        NetMsg::Repl(ReplMsg::RecoveryChunk { entries, done, .. }) => {
            assert_eq!(entries.len(), 10);
            assert!(done);
        }
        other => panic!("expected chunk, got {other:?}"),
    }
}

#[test]
fn transition_forwards_writes_and_reports_drained() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    let target = ShardInfo {
        shard: ShardId(0),
        mode: Mode::MS_SC,
        replicas: vec![NodeId(10), NodeId(11), NodeId(12)],
        epoch: 2,
    };
    let actions = drive(
        &mut master,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::BeginTransition {
                shard: ShardId(0),
                target,
            }),
        },
    );
    // Nothing buffered: drains immediately.
    assert!(sent_to(&actions).iter().any(|(to, m)| *to == COORD
        && matches!(m, NetMsg::Coord(CoordMsg::TransitionDrained { .. }))));
    // Writes now forward to the new head.
    let actions = drive(&mut master, client_put(0, "k", "v"));
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(10));
    assert!(matches!(
        sends[0].1,
        NetMsg::Repl(ReplMsg::ForwardedReq { .. })
    ));
    // The relayed response reaches the original client.
    let actions = drive(
        &mut master,
        Event::Msg {
            from: Addr(10),
            msg: NetMsg::Repl(ReplMsg::ForwardedResp {
                resp: Response::ok(RequestId::compose(ClientId(9), 0), RespBody::Done),
            }),
        },
    );
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(999), "relayed to the original client");
}

#[test]
fn p2p_forwarded_reply_reaches_the_client() {
    // A P2P controlet forwards a write for a key another shard owns to
    // that shard's head, then relays the head's reply to the client.
    let map = bespokv_types::ShardMap::dense(
        2,
        3,
        Mode::MS_EC,
        bespokv_types::Partitioning::ConsistentHash { vnodes: 32 },
    );
    let owner = map.shard(ShardId(1)).expect("dense").head().expect("head");
    let key = (0..1000)
        .map(|i| format!("p2p{i}"))
        .find(|k| map.shard_for_key(&Key::from(k.as_str())) == ShardId(1))
        .expect("some key maps to shard 1");
    let mut cfg = ControletConfig::new(NodeId(0), ShardId(0), COORD);
    cfg.p2p_forwarding = true;
    let shard0 = map.shard(ShardId(0)).expect("dense").clone();
    let mut c = Controlet::with_info(cfg, EngineKind::THt.build(), shard0).with_cluster_map(map);
    let actions = drive(&mut c, client_put(0, &key, "v"));
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(owner.raw()), "forwarded to the owning head");
    assert!(matches!(
        sends[0].1,
        NetMsg::Repl(ReplMsg::ForwardedReq { reply_via, .. }) if *reply_via == NodeId(0)
    ));
    let resp = || Event::Msg {
        from: Addr(owner.raw()),
        msg: NetMsg::Repl(ReplMsg::ForwardedResp {
            resp: Response::ok(RequestId::compose(ClientId(9), 0), RespBody::Done),
        }),
    };
    let actions = drive(&mut c, resp());
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, Addr(999), "relayed to the original client");
    assert!(matches!(
        sends[0].1,
        NetMsg::ClientResp(Response { result: Ok(RespBody::Done), .. })
    ));
    assert!(c.relayed.is_empty(), "the relay entry is retired with the reply");
    // A duplicated reply finds no entry and is dropped.
    assert!(sent_to(&drive(&mut c, resp())).is_empty());
}

#[test]
fn reads_still_served_locally_during_transition() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    drive(&mut master, client_put(0, "k", "v"));
    let target = ShardInfo {
        shard: ShardId(0),
        mode: Mode::MS_SC,
        replicas: vec![NodeId(10), NodeId(11), NodeId(12)],
        epoch: 2,
    };
    drive(
        &mut master,
        Event::Msg {
            from: COORD,
            msg: NetMsg::Coord(CoordMsg::BeginTransition {
                shard: ShardId(0),
                target,
            }),
        },
    );
    let actions = drive(
        &mut master,
        Event::Msg {
            from: Addr(999),
            msg: NetMsg::Client(Request::new(
                RequestId::compose(ClientId(9), 1),
                Op::Get { key: Key::from("k") },
            )),
        },
    );
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert!(
        matches!(
            sends[0].1,
            NetMsg::ClientResp(Response { result: Ok(RespBody::Value(_)), .. })
        ),
        "reads keep flowing locally (EC) during the transition"
    );
}

#[test]
fn table_ops_fan_out_to_peers() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    let actions = drive(
        &mut master,
        Event::Msg {
            from: Addr(999),
            msg: NetMsg::Client(Request::new(
                RequestId::compose(ClientId(9), 0),
                Op::CreateTable {
                    name: "users".into(),
                },
            )),
        },
    );
    let sends = sent_to(&actions);
    let fanout = sends
        .iter()
        .filter(|(_, m)| matches!(m, NetMsg::Repl(ReplMsg::ForwardedReq { .. })))
        .count();
    assert_eq!(fanout, 2, "both peers told");
    assert!(sends
        .iter()
        .any(|(_, m)| matches!(m, NetMsg::ClientResp(Response { result: Ok(_), .. }))));
}

#[test]
fn expired_deadline_is_shed_with_overloaded() {
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    let req = Request::new(
        RequestId::compose(ClientId(9), 0),
        Op::Put {
            key: Key::from("k"),
            value: Value::from("v"),
        },
    )
    .with_deadline(Instant::ZERO + Duration::from_millis(1));
    let ev = Event::Msg {
        from: Addr(999),
        msg: NetMsg::Client(req),
    };
    let actions = drive_at(&mut head, Instant::ZERO + Duration::from_millis(2), ev);
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert!(matches!(
        sends[0].1,
        NetMsg::ClientResp(Response { result: Err(KvError::Overloaded), .. })
    ));
    assert_eq!(head.cfg.counters.snapshot().deadline_expired, 1);
    assert!(
        head.datalet().get(DEFAULT_TABLE, &Key::from("k")).is_err(),
        "expired work must not execute"
    );
}

#[test]
fn full_head_window_sheds_new_writes() {
    let mut head = controlet(0, Mode::MS_SC, &[0, 1, 2]);
    head.cfg.overload.head_window = 2;
    drive(&mut head, client_put(0, "a", "1"));
    drive(&mut head, client_put(1, "b", "2"));
    // Window full (no tail acks yet): the third write is shed before it
    // is ordered or applied.
    let actions = drive(&mut head, client_put(2, "c", "3"));
    let sends = sent_to(&actions);
    assert_eq!(sends.len(), 1);
    assert!(matches!(
        sends[0].1,
        NetMsg::ClientResp(Response { result: Err(KvError::Overloaded), .. })
    ));
    assert_eq!(head.in_flight.len(), 2);
    assert_eq!(head.cfg.counters.snapshot().head_window_shed, 1);
    assert!(head.datalet().get(DEFAULT_TABLE, &Key::from("c")).is_err());
    // A client retry of a write already in flight is a refresh, never a
    // shed — shedding it would orphan the pending reply.
    drive(&mut head, client_put(0, "a", "1"));
    assert_eq!(head.cfg.counters.snapshot().head_window_shed, 1);
}

#[test]
fn prop_watermark_trims_and_lagging_slave_resyncs() {
    let mut master = controlet(0, Mode::MS_EC, &[0, 1, 2]);
    master.cfg.overload.prop_high_watermark = 4;
    master.cfg.overload.prop_low_watermark = 2;
    for i in 0..6 {
        drive(&mut master, client_put(i, &format!("k{i}"), "v"));
    }
    assert_eq!(master.prop.buffer.len(), 6);
    let actions = drive(&mut master, Event::Timer { token: super::PROP_FLUSH_TIMER });
    // Forced trim: the unacked buffer is bounded back to the low
    // watermark instead of growing with the slowest slave.
    assert_eq!(master.prop.buffer.len(), 2);
    assert_eq!(master.cfg.counters.snapshot().slow_slave_trims, 1);
    let floor = sent_to(&actions)
        .iter()
        .find_map(|(_, m)| match m {
            NetMsg::Repl(ReplMsg::PropBatch { floor, .. }) => Some(*floor),
            _ => None,
        })
        .expect("prop batch sent");
    assert_eq!(floor, 4, "floor advanced past the trimmed entries");

    // A slave whose cursor is below the floor missed entries it will
    // never receive: it must stop serving and pull a snapshot, not skip
    // the gap.
    let mut slave = controlet(1, Mode::MS_EC, &[0, 1, 2]);
    let actions = drive(
        &mut slave,
        Event::Msg {
            from: Addr(0),
            msg: NetMsg::Repl(ReplMsg::PropBatch {
                shard: ShardId(0),
                epoch: 1,
                first_seq: 5,
                floor: 4,
                budget: Duration::ZERO,
                entries: vec![entry_v("k4", "v", 100)],
            }),
        },
    );
    assert_eq!(slave.cfg.counters.snapshot().slow_slave_resyncs, 1);
    assert!(slave.recovery.is_some(), "resync started");
    assert!(!slave.serving);
    assert!(sent_to(&actions).iter().any(|(to, m)| *to == Addr(0)
        && matches!(m, NetMsg::Repl(ReplMsg::RecoveryReq { from: 0, .. }))));
    assert!(
        slave.datalet().get(DEFAULT_TABLE, &Key::from("k4")).is_err(),
        "no entries applied while resyncing"
    );
}
