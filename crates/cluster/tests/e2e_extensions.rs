//! End-to-end tests of the paper's extension features (section IV):
//! P2P-style routing, per-request consistency, polyglot persistence, and
//! stale-client ownership protection.

use bespokv_cluster::script::{get, put, ScriptClient};
use bespokv_cluster::{ClusterSpec, SimCluster};
use bespokv_datalet::{EngineKind, DEFAULT_TABLE};
use bespokv_proto::client::RespBody;
use bespokv_types::{ConsistencyLevel, Duration, Key, Mode, Value};

/// P2P topology (section IV-E): clients throw requests at arbitrary
/// controlets; controlets forward to the owner; everything still works,
/// and no op waits out a timeout (a dropped forwarded reply would).
#[test]
fn p2p_routing_serves_from_any_controlet() {
    let spec = ClusterSpec::new(3, 3, Mode::MS_EC).with_p2p();
    let mut cluster = SimCluster::build(spec);
    let mut script = Vec::new();
    for i in 0..20 {
        script.push(put(&format!("k{i}"), &format!("v{i}")));
    }
    for i in 0..20 {
        script.push(get(&format!("k{i}")).with_level(ConsistencyLevel::Strong));
    }
    let started = cluster.sim.now();
    let client = cluster.add_script_client(script);
    cluster.run_for(Duration::from_secs(8));
    let c = cluster.sim.actor_mut::<ScriptClient>(client);
    assert!(c.done(), "{} of 40 ops done", c.results.len());
    for (i, r) in c.results.iter().enumerate().skip(20) {
        let expect = Value::from(format!("v{}", i - 20));
        assert!(
            matches!(r, Ok(RespBody::Value(v)) if v.value == expect),
            "op {i}: {r:?}"
        );
    }
    // The script is sequential, so an op's latency is at most the gap
    // since the previous completion. The scripted client's request
    // timeout is 300 ms: every op finishing sooner needed no retry.
    let mut prev = started;
    for (i, &at) in c.completed_at.iter().enumerate() {
        let took = at.saturating_since(prev);
        assert!(took < Duration::from_millis(300), "op {i} took {took:?}: it was retried");
        prev = at;
    }
}

/// Ownership safety: a client with a wired-wrong target gets bounced with
/// a hint instead of polluting the wrong shard.
#[test]
fn wrong_shard_writes_are_bounced_not_stored() {
    use bespokv_proto::client::{Op, Request};
    use bespokv_proto::NetMsg;
    use bespokv_runtime::Addr;
    use bespokv_types::{ClientId, KvError, RequestId};

    let mut cluster = SimCluster::build(ClusterSpec::new(2, 3, Mode::MS_EC));
    // Find a key owned by shard 1, then force-send it to shard 0's master.
    let key = (0..1000)
        .map(|i| Key::from(format!("probe{i}")))
        .find(|k| cluster.map.shard_for_key(k).raw() == 1)
        .expect("some key maps to shard 1");
    cluster.sim.inject(
        Addr(4242),
        Addr(0), // shard 0 master
        NetMsg::Client(Request::new(
            RequestId::compose(ClientId(77), 0),
            Op::Put {
                key: key.clone(),
                value: Value::from("misrouted"),
            },
        )),
    );
    cluster.run_for(Duration::from_millis(100));
    // The wrong shard never stored it...
    for node in 0..3u32 {
        assert!(
            cluster.datalets[node as usize].get(DEFAULT_TABLE, &key).is_err(),
            "shard 0 node {node} stored a foreign key"
        );
    }
    let _ = KvError::NotFound; // (documents the expected client-visible error)
}

/// Per-request consistency (section IV-C) under MS+SC: eventual-level
/// reads may be served by any replica; strong reads go to the tail.
#[test]
fn per_request_levels_route_differently() {
    let mut cluster = SimCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC));
    let mut script = vec![put("k", "v")];
    for _ in 0..30 {
        script.push(get("k").with_level(ConsistencyLevel::Eventual));
    }
    let client = cluster.add_script_client(script);
    cluster.run_for(Duration::from_secs(5));
    let c = cluster.sim.actor_mut::<ScriptClient>(client);
    assert!(c.done());
    // All eventual reads succeeded (chain replication already propagated
    // the single write before the reads arrived).
    let ok_reads = c.results[1..]
        .iter()
        .filter(|r| matches!(r, Ok(RespBody::Value(_))))
        .count();
    assert_eq!(ok_reads, 30);
    // And every replica can serve: the read load spread beyond the tail.
    let reads_per_node: Vec<u64> = (0..3)
        .map(|n| cluster.datalets[n].stats().reads)
        .collect();
    assert!(
        reads_per_node.iter().filter(|&&r| r > 0).count() >= 2,
        "eventual reads should spread: {reads_per_node:?}"
    );
}

/// Polyglot persistence (section IV-D): replicas of one shard live in
/// three different engines and all converge.
#[test]
fn polyglot_replicas_converge_across_engines() {
    let spec = ClusterSpec::new(1, 3, Mode::MS_EC).with_engines(vec![
        EngineKind::THt,
        EngineKind::TLog,
        EngineKind::TMt,
    ]);
    let mut cluster = SimCluster::build(spec);
    let script: Vec<_> = (0..25).map(|i| put(&format!("k{i:02}"), "v")).collect();
    let client = cluster.add_script_client(script);
    cluster.run_for(Duration::from_secs(5));
    assert!(cluster.sim.actor_mut::<ScriptClient>(client).done());
    cluster.run_for(Duration::from_secs(1)); // drain propagation
    let names: Vec<&str> = (0..3).map(|n| cluster.datalets[n].name()).collect();
    assert_eq!(names, vec!["tHT", "tLog", "tMT"]);
    for (n, name) in names.iter().enumerate() {
        assert_eq!(cluster.datalets[n].len(), 25, "engine {name} missing data");
    }
    // The ordered replica additionally serves range queries over the same
    // data (the multifaceted-view promise of Fig 5).
    let hits = cluster.datalets[2]
        .scan(DEFAULT_TABLE, &Key::from("k00"), &Key::from("k10"), 0)
        .unwrap();
    assert_eq!(hits.len(), 10);
}

/// Hybrid topology (section IV-E): different shards run different modes in
/// one deployment — e.g. chain-replicated MS+SC for one partition next to
/// shared-log AA+EC for another — and one client works across both.
#[test]
fn hybrid_per_shard_modes() {
    let spec = ClusterSpec::new(2, 3, Mode::MS_SC)
        .with_per_shard_modes(vec![Mode::MS_SC, Mode::AA_EC]);
    let mut cluster = SimCluster::build(spec);
    assert_eq!(cluster.map.shard(bespokv_types::ShardId(0)).unwrap().mode, Mode::MS_SC);
    assert_eq!(cluster.map.shard(bespokv_types::ShardId(1)).unwrap().mode, Mode::AA_EC);
    // Find keys on each shard and exercise both through one client.
    let key_on = |cluster: &SimCluster, shard: u32| {
        (0..1000)
            .map(|i| format!("hk{i}"))
            .find(|k| cluster.map.shard_for_key(&Key::from(k.as_str())).raw() == shard)
            .expect("key found")
    };
    let k0 = key_on(&cluster, 0);
    let k1 = key_on(&cluster, 1);
    let client = cluster.add_script_client(vec![
        put(&k0, "chain"),
        put(&k1, "logged"),
        get(&k0).with_level(ConsistencyLevel::Strong),
        get(&k1).with_level(ConsistencyLevel::Strong),
    ]);
    cluster.run_for(Duration::from_secs(5));
    let c = cluster.sim.actor_mut::<ScriptClient>(client);
    assert!(c.done());
    assert!(matches!(&c.results[2], Ok(RespBody::Value(v)) if v.value == Value::from("chain")));
    assert!(matches!(&c.results[3], Ok(RespBody::Value(v)) if v.value == Value::from("logged")));
}
