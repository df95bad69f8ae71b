//! Live-runtime end-to-end tests of the write path: real threads, real TCP
//! edges, real failover. The simulator oracle proves writes consistent
//! under seeded fault schedules; these tests prove the deployment-shaped
//! wiring — TCP reactor threads relaying PUTs to the head's controlet, the
//! actor replying after chain replication, a killed head deregistered —
//! behaves the same under true parallelism and wall-clock time.

use bespokv_suite::cluster::{ClusterSpec, LiveCluster};
use bespokv_suite::coordinator::CoordConfig;
use bespokv_suite::proto::client::{Op, RespBody, Request};
use bespokv_suite::proto::parser::BinaryParser;
use bespokv_suite::runtime::tcp::TcpClient;
use bespokv_suite::types::{
    ClientId, ConsistencyLevel, Duration, Key, Mode, NodeId, RequestId, Value,
};
use std::sync::Arc;
use std::time::Duration as StdDuration;

fn req(seq: u32, op: Op) -> Request {
    Request::new(RequestId::compose(ClientId(7100), seq), op)
}

fn put_op(key: &str, value: &str) -> Op {
    Op::Put {
        key: Key::from(key),
        value: Value::from(value),
    }
}

fn get_op(key: &str) -> Op {
    Op::Get {
        key: Key::from(key),
    }
}

/// Pipelined PUTs through the head's edge are acked only after chain
/// replication, read their own writes at the tail, and a replayed
/// `RequestId` is answered from the reply cache, not ordered again.
#[test]
fn live_edge_combines_writes_and_exports_counters() {
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC));
    let (_head_edge, head_srv) = cluster.tcp_edge(NodeId(0), false);
    let (_tail_edge, tail_srv) = cluster.tcp_edge(NodeId(2), false);
    let mut head =
        TcpClient::connect(head_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut tail =
        TcpClient::connect(tail_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();

    // Deep pipelining: many writes are in flight down the chain before the
    // first ack comes back.
    let reqs: Vec<Request> = (0..64u32)
        .map(|i| req(i, put_op(&format!("k{i}"), &format!("v{i}"))))
        .collect();
    for resp in head.call_pipelined(&reqs).unwrap() {
        assert!(resp.result.is_ok(), "put: {:?}", resp.result);
    }
    // An ack means the whole chain applied: the tail must serve every key
    // strongly, no sleep.
    for i in 0..64u32 {
        let mut r = req(1000 + i, get_op(&format!("k{i}")));
        r.level = ConsistencyLevel::Strong;
        let resp = tail.call(&r).unwrap();
        match resp.result {
            Ok(RespBody::Value(v)) => assert_eq!(v.value, Value::from(format!("v{i}"))),
            other => panic!("get k{i}: {other:?}"),
        }
    }

    // Exactly-once: replaying an already-acked RequestId is answered from
    // the reply cache, not ordered a second time under a fresh version.
    let version_of = |tail: &mut TcpClient| {
        let mut r = req(5000, get_op("k0"));
        r.level = ConsistencyLevel::Strong;
        match tail.call(&r).unwrap().result {
            Ok(RespBody::Value(v)) => v.version,
            other => panic!("get k0: {other:?}"),
        }
    };
    let before = version_of(&mut tail);
    let resp = head.call(&req(0, put_op("k0", "v0"))).unwrap();
    assert!(resp.result.is_ok(), "replay: {:?}", resp.result);
    assert_eq!(version_of(&mut tail), before, "replay was ordered again");

    drop(head_srv);
    drop(tail_srv);
    cluster.rt.shutdown();
}

/// Killing the head (the write ingress) deregisters it: a write into the
/// dead head fails instead of being acked, and every write acked before
/// the kill survives onto the repaired chain.
#[test]
fn live_kill_head_closes_write_gate_and_keeps_acked_writes() {
    let mut cluster = LiveCluster::build(
        ClusterSpec::new(1, 3, Mode::MS_SC)
            .with_standbys(1)
            .with_coord(CoordConfig {
                failure_timeout: Duration::from_millis(600),
                check_every: Duration::from_millis(100),
            }),
    );
    let table = Arc::clone(cluster.fast_path().unwrap());
    let (_head_edge, head_srv) = cluster.tcp_edge(NodeId(0), false);
    let (_tail_edge, tail_srv) = cluster.tcp_edge(NodeId(2), false);
    let mut head =
        TcpClient::connect(head_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut tail =
        TcpClient::connect(tail_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();

    let reqs: Vec<Request> = (0..32u32)
        .map(|i| req(i, put_op(&format!("k{i}"), &format!("v{i}"))))
        .collect();
    for resp in head.call_pipelined(&reqs).unwrap() {
        assert!(resp.result.is_ok(), "pre-kill put: {:?}", resp.result);
    }
    let tail_gate = table.gate(NodeId(2)).expect("tail registered");
    let tail_epoch_before = tail_gate.epoch();

    cluster.kill_node(NodeId(0));
    // The handle is deregistered and the relay to the dead controlet can
    // only time out: an unacked write is never silently absorbed.
    assert!(table.gate(NodeId(0)).is_none());
    head.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
    let resp = head.call(&req(500, put_op("k-dead", "x"))).unwrap();
    assert!(resp.result.is_err(), "dead-head write must fail: {:?}", resp.result);

    // Repair: the standby splices in, survivors adopt the new chain at a
    // bumped epoch.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    loop {
        if tail_gate.epoch() > tail_epoch_before && tail_gate.is_open() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "chain never repaired: tail epoch {} (was {})",
            tail_gate.epoch(),
            tail_epoch_before
        );
        std::thread::sleep(StdDuration::from_millis(25));
    }
    // Every acked write survived the failover: each was fully replicated
    // before its ack, so the old tail holds them all. (The repaired
    // chain's strong-read replica is the spliced-in standby; an eventual
    // read is what n2 may still answer.)
    for i in 0..32u32 {
        let mut r = req(2000 + i, get_op(&format!("k{i}")));
        r.level = ConsistencyLevel::Eventual;
        let resp = tail.call(&r).unwrap();
        match resp.result {
            Ok(RespBody::Value(v)) => {
                assert_eq!(v.value, Value::from(format!("v{i}")), "k{i} lost ack")
            }
            other => panic!("post-repair get k{i}: {other:?}"),
        }
    }

    drop(head_srv);
    drop(tail_srv);
    cluster.rt.shutdown();
}
