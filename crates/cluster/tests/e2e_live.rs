//! The same controlet state machines on the live threaded runtime: real
//! threads, real timers, nondeterministic interleavings.

use bespokv_cluster::script::{del, get, put};
use bespokv_cluster::{ClusterSpec, LiveCluster};
use bespokv_datalet::DEFAULT_TABLE;
use bespokv_proto::client::RespBody;
use bespokv_types::{ConsistencyLevel, Key, KvError, Mode, Value};

fn lifecycle_on_live(mode: Mode) {
    let mut cluster = LiveCluster::build(ClusterSpec::new(2, 3, mode));
    let client = cluster.add_script_client(vec![
        put("alpha", "1"),
        get("alpha").with_level(ConsistencyLevel::Strong),
        put("alpha", "2"),
        get("alpha").with_level(ConsistencyLevel::Strong),
        del("alpha"),
        get("alpha").with_level(ConsistencyLevel::Strong),
    ]);
    // Wall-clock budget: scripts take a handful of RTTs plus timers.
    assert!(
        cluster.wait_for_script(client, std::time::Duration::from_secs(10)),
        "{mode}: script did not finish in time"
    );
    let results = cluster.take_script_results(client);
    assert_eq!(results.len(), 6, "{mode}: script incomplete: {results:?}");
    assert_eq!(results[0], Ok(RespBody::Done), "{mode}");
    assert!(
        matches!(&results[1], Ok(RespBody::Value(v)) if v.value == Value::from("1")),
        "{mode}: {:?}",
        results[1]
    );
    assert!(
        matches!(&results[3], Ok(RespBody::Value(v)) if v.value == Value::from("2")),
        "{mode}: {:?}",
        results[3]
    );
    assert_eq!(results[5], Err(KvError::NotFound), "{mode}");
}

#[test]
fn live_ms_sc_lifecycle() {
    lifecycle_on_live(Mode::MS_SC);
}

#[test]
fn live_ms_ec_lifecycle() {
    lifecycle_on_live(Mode::MS_EC);
}

#[test]
fn live_aa_sc_lifecycle() {
    lifecycle_on_live(Mode::AA_SC);
}

#[test]
fn live_aa_ec_lifecycle() {
    lifecycle_on_live(Mode::AA_EC);
}

/// Chain replication converges on real threads too.
#[test]
fn live_replication_converges() {
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC));
    let script: Vec<_> = (0..20).map(|i| put(&format!("k{i}"), "v")).collect();
    let client = cluster.add_script_client(script);
    assert!(
        cluster.wait_for_script(client, std::time::Duration::from_secs(10)),
        "script did not finish in time"
    );
    let results = cluster.take_script_results(client);
    assert_eq!(results.len(), 20);
    assert!(results.iter().all(|r| r.is_ok()));
    for d in &cluster.datalets {
        assert_eq!(d.len(), 20, "replica diverged");
    }
    let v = cluster.datalets[2]
        .get(DEFAULT_TABLE, &Key::from("k7"))
        .unwrap();
    assert_eq!(v.value, Value::from("v"));
}

/// One spec means one cluster on both runtimes: a hybrid, durable spec with
/// a standby must come out of `LiveCluster::build` with the same shard map
/// (per-shard modes applied), the same engines and the same per-node
/// fast-path consistency as out of `SimCluster::build`. And a spec with no
/// builder call at all is served the one way on both: GETs off the fast
/// path, PUTs through the combiner, every GET seen by the skew sketch.
#[test]
fn live_and_sim_assemble_the_same_cluster_from_one_spec() {
    use bespokv_cluster::{DurabilityConfig, FastPathTable, SimCluster};
    use bespokv_datalet::{EngineKind, SyncPolicy};
    use bespokv_types::{Duration, NodeId};

    let spec = ClusterSpec::new(2, 3, Mode::MS_SC)
        .with_per_shard_modes(vec![Mode::MS_SC, Mode::AA_EC])
        .with_standbys(1)
        .with_durability(DurabilityConfig {
            engine: EngineKind::TLog,
            sync: SyncPolicy::Always,
            seed: 7,
        });
    let sim = SimCluster::build(spec.clone());
    let live = LiveCluster::build(spec);

    assert_eq!(live.map, sim.map, "hybrid shard modes must reach the live map");
    assert_eq!(live.map.shard(bespokv_types::ShardId(1)).unwrap().mode, Mode::AA_EC);
    let names = |d: &[std::sync::Arc<dyn bespokv_datalet::Datalet>]| -> Vec<&'static str> {
        d.iter().map(|d| d.name()).collect()
    };
    assert_eq!(names(&live.datalets), names(&sim.datalets), "durable engines");
    let (lt, st) = (live.fast_path().unwrap(), sim.fast_path().unwrap());
    for n in 0..6 {
        let level = |t: &FastPathTable| t.effective_level(NodeId(n), ConsistencyLevel::Default);
        assert_eq!(level(lt), level(st), "node {n} default consistency");
        assert!(level(lt).is_some());
    }
    live.rt.shutdown();

    let script = || {
        let mut steps: Vec<_> = (0..10).map(|i| put(&format!("d{i}"), "v")).collect();
        steps.extend((0..10).map(|i| get(&format!("d{i}"))));
        steps
    };
    let served_one_way = |runtime: &str, t: &FastPathTable| {
        assert!(t.total_hits() > 0, "{runtime}: no GET served off the fast path");
        assert!(t.combiner_snapshot().ops > 0, "{runtime}: no PUT combined");
        assert!(t.skew_snapshot().sketch_ops > 0, "{runtime}: the sketch saw no GET");
    };
    let spec = ClusterSpec::new(1, 3, Mode::MS_SC);
    let mut sim = SimCluster::build(spec.clone());
    let client = sim.add_script_client(script());
    sim.run_for(Duration::from_secs(2));
    let c = sim.sim.actor_mut::<bespokv_cluster::ScriptClient>(client);
    assert!(c.done() && c.results.iter().all(|r| r.is_ok()), "sim: {:?}", c.results);
    served_one_way("sim", sim.fast_path().expect("sim table"));

    let mut live = LiveCluster::build(spec);
    let client = live.add_script_client(script());
    assert!(live.wait_for_script(client, std::time::Duration::from_secs(10)));
    let results = live.take_script_results(client);
    assert!(results.iter().all(|r| r.is_ok()), "live: {results:?}");
    served_one_way("live", live.fast_path().expect("live table"));
    live.rt.shutdown();
}
