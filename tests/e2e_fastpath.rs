//! Live-runtime end-to-end tests of the shared-datalet read fast path:
//! real threads, real TCP edges, real failover. The simulator oracle
//! proves the fast path consistent under seeded fault schedules; these
//! tests prove the *deployment-shaped* wiring — `NodeEdge` handlers on
//! the TCP reactor threads, gate closure on kill, epoch bumps on repair —
//! behaves the same under true parallelism and wall-clock time.

use bespokv_suite::cluster::{ClusterSpec, LiveCluster};
use bespokv_suite::coordinator::CoordConfig;
use bespokv_suite::proto::client::{Op, Request, RespBody};
use bespokv_suite::proto::parser::BinaryParser;
use bespokv_suite::runtime::tcp::TcpClient;
use bespokv_suite::types::{
    ClientId, ConsistencyLevel, Duration, Key, KvError, Mode, NodeId, RequestId, Value,
};
use std::sync::Arc;
use std::time::Duration as StdDuration;

fn req(seq: u32, op: Op) -> Request {
    Request::new(RequestId::compose(ClientId(7000), seq), op)
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

/// Writes enter at the head and relay through the actor; GETs at the tail
/// are served by the TCP reactor threads straight from the shared datalet,
/// and read their own writes.
#[test]
fn live_edge_serves_reads_from_shared_datalet() {
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC));
    let table = Arc::clone(cluster.fast_path().unwrap());
    let (_head_edge, head_srv) = cluster.tcp_edge(NodeId(0), false);
    let (_tail_edge, tail_srv) = cluster.tcp_edge(NodeId(2), true);
    let mut head = TcpClient::connect(head_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut tail = TcpClient::connect(tail_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();

    for i in 0..20u32 {
        let resp = head.call(&req(i, put_op(&format!("k{i}"), &format!("v{i}")))).unwrap();
        assert!(resp.result.is_ok(), "put k{i}: {:?}", resp.result);
    }
    // A chain ack means the tail applied, so the tail's datalet must
    // already hold every key: no sleep, the read is immediately strong.
    for i in 0..20u32 {
        let resp = tail.call(&req(100 + i, get_op(&format!("k{i}")))).unwrap();
        match resp.result {
            Ok(RespBody::Value(v)) => assert_eq!(v.value, Value::from(format!("v{i}"))),
            other => panic!("get k{i}: {other:?}"),
        }
    }
    assert!(table.total_hits() >= 20, "reads did not take the fast path");

    drop(head_srv);
    drop(tail_srv);
    cluster.rt.shutdown();
}

/// Killing the tail slams its gate shut: edge threads stop serving for it
/// instantly (no stale reads on behalf of a dead node), and once the
/// coordinator repairs the chain, the survivors republish at a higher
/// epoch and the fast path reopens on the new chain.
#[test]
fn live_kill_closes_gate_and_repair_bumps_epoch() {
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
    let (_tail_edge, tail_srv) = cluster.tcp_edge(NodeId(2), true);
    let (_mid_edge, mid_srv) = cluster.tcp_edge(NodeId(1), true);
    let mut head = TcpClient::connect(head_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut tail = TcpClient::connect(tail_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    let mut mid = TcpClient::connect(mid_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();

    for i in 0..8u32 {
        let resp = head.call(&req(i, put_op(&format!("k{i}"), "v"))).unwrap();
        assert!(resp.result.is_ok(), "put k{i}: {:?}", resp.result);
    }
    let resp = tail.call(&req(50, get_op("k0"))).unwrap();
    assert!(matches!(resp.result, Ok(RespBody::Value(_))));
    let tail_gate = table.gate(NodeId(2)).expect("tail registered");
    let mid_gate = table.gate(NodeId(1)).expect("mid registered");
    assert!(tail_gate.is_open());
    let mid_epoch_before = mid_gate.epoch();

    cluster.kill_node(NodeId(2));
    // The gate the edge threads share with the dead controlet is closed
    // and the handle deregistered — a racing read fails seqlock
    // validation rather than answering for a corpse.
    assert!(!tail_gate.is_open());
    assert!(table.gate(NodeId(2)).is_none());
    // A read addressed to the dead tail falls back to the actor relay,
    // which can only time out — never a silent stale value.
    tail.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
    let resp = tail.call(&req(51, get_op("k0"))).unwrap();
    assert!(
        matches!(resp.result, Err(KvError::Timeout)),
        "dead-tail read must fail: {:?}",
        resp.result
    );

    // Repair: the coordinator splices the standby in and the survivors
    // adopt the new chain at a bumped epoch, reopening their gates.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    loop {
        if mid_gate.epoch() > mid_epoch_before && mid_gate.is_open() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "chain never repaired: mid epoch {} (was {})",
            mid_gate.epoch(),
            mid_epoch_before
        );
        std::thread::sleep(StdDuration::from_millis(25));
    }
    // Post-repair the old mid is a clean-read replica on the new chain;
    // with no writes in flight its keys are clean, so a strong read is
    // served on the reactor thread from the shared datalet.
    let hits_before = table.total_hits();
    let mut r = Request::new(RequestId::compose(ClientId(7000), 60), get_op("k3"));
    r.level = ConsistencyLevel::Strong;
    let resp = mid.call(&r).unwrap();
    match resp.result {
        Ok(RespBody::Value(v)) => assert_eq!(v.value, Value::from("v")),
        other => panic!("post-repair read: {other:?}"),
    }
    assert!(table.total_hits() > hits_before, "post-repair read fell back");

    drop(head_srv);
    drop(tail_srv);
    drop(mid_srv);
    cluster.rt.shutdown();
}
