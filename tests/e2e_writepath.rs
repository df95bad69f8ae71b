//! Live-runtime end-to-end tests of the flat-combining write path: real
//! threads, real TCP edges, real failover. The simulator oracle proves
//! combined writes consistent under seeded fault schedules; these tests
//! prove the deployment-shaped wiring — TCP reactor threads publishing
//! into the op log, one combiner applying batches, the actor replying
//! after replication, gates slamming shut on kill — behaves the same
//! under true parallelism and wall-clock time.

use bespokv_suite::cluster::{ClusterSpec, EdgeStats, LiveCluster};
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

/// Pipelined PUTs through the head's combining edge are acked only after
/// chain replication, read their own writes at the tail, and show up in
/// the combiner counters exported through `EdgeStats`.
#[test]
fn live_edge_combines_writes_and_exports_counters() {
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC));
    let table = Arc::clone(cluster.fast_path().unwrap());
    let (_head_edge, head_srv) = cluster.tcp_edge(NodeId(0), false);
    let (_tail_edge, tail_srv) = cluster.tcp_edge(NodeId(2), false);
    let mut head =
        TcpClient::connect(head_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut tail =
        TcpClient::connect(tail_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();

    // Deep pipelining: the whole batch is in the op log before the first
    // ack comes back.
    let reqs: Vec<Request> = (0..64u32)
        .map(|i| req(i, put_op(&format!("k{i}"), &format!("v{i}"))))
        .collect();
    for resp in head.call_pipelined(&reqs).unwrap() {
        assert!(resp.result.is_ok(), "combined put: {:?}", resp.result);
    }
    // A combined ack means the whole chain applied: the tail must serve
    // every key strongly, no sleep.
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
    // the reply cache, not ordered a second time.
    let ops_before = table.combiner_snapshot().ops;
    let resp = head.call(&req(0, put_op("k0", "v0"))).unwrap();
    assert!(resp.result.is_ok(), "replay: {:?}", resp.result);
    let snap = table.combiner_snapshot();
    assert_eq!(snap.ops, ops_before, "replay must not re-enter the log");
    assert!(snap.cache_hits >= 1, "replay must hit the reply cache");

    // The counters flow through the measurement harness' EdgeStats.
    let mut stats = EdgeStats::default();
    stats.absorb_combiner(&snap);
    assert!(stats.combiner.batches > 0, "no batches combined");
    assert!(stats.combiner.ops >= 64, "combiner missed writes");
    assert!(stats.to_string().contains("batches"));

    drop(head_srv);
    drop(tail_srv);
    cluster.rt.shutdown();
}

/// Killing the head (the write ingress) slams its write gate shut: edge
/// threads stop publishing into the dead node's op log instantly, and
/// every write acked before the kill survives onto the repaired chain.
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
    assert!(table.combiner_snapshot().ops >= 32, "writes not combined");
    let tail_gate = table.gate(NodeId(2)).expect("tail registered");
    let tail_epoch_before = tail_gate.epoch();

    cluster.kill_node(NodeId(0));
    // The write gate the edge threads share with the dead controlet is
    // closed and the handle deregistered: a racing submit fails the gate
    // check and falls back to the relay, which can only time out — an
    // unacked write is never silently absorbed by a corpse's op log.
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
    // Every acked write survived the failover: combined batches were
    // fully replicated before their acks, so the old tail holds them
    // all. (The repaired chain's strong-read replica is the spliced-in
    // standby; an eventual read is what n2 may still answer.)
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
