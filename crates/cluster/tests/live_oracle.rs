//! The consistency oracles over histories made on the live runtime, under
//! real thread interleavings: an idle actor runs on whichever thread sends
//! to it, so four scripted clients on four threads race each other through
//! the same controlets, chain peers and DLM. Strong modes must stay
//! linearizable; eventual modes must converge once the writes stop.

use bespokv_checker::{check_convergence, check_linearizable, replica_live_map};
use bespokv_cluster::script::{del, get, put, Step};
use bespokv_cluster::{ClusterSpec, LiveCluster};
use bespokv_datalet::DEFAULT_TABLE;
use bespokv_types::{Consistency, Key, Mode, NodeId, Value};
use std::collections::BTreeMap;
use std::time::Duration;

const CLIENTS: usize = 4;
const STEPS: usize = 100;
const KEYS: usize = 4;

/// Client `c`'s script: mostly writes, every value unique so the checker
/// can anchor reads to writes, over a few keys every client shares.
fn script(c: usize) -> Vec<Step> {
    (0..STEPS)
        .map(|i| {
            let key = format!("k{}", (c + i) % KEYS);
            match i % 6 {
                2 | 5 => get(&key),
                4 if i % 12 == 4 => del(&key),
                _ => put(&key, &format!("c{c}-{i}")),
            }
        })
        .collect()
}

/// Every replica's live key/value map.
fn replicas(cluster: &LiveCluster) -> Vec<(NodeId, BTreeMap<Key, Value>)> {
    cluster
        .datalets
        .iter()
        .enumerate()
        .map(|(node, d)| {
            let mut entries = Vec::new();
            let mut from = 0u64;
            loop {
                let (chunk, done) = d.snapshot_chunk(from, 1024);
                from += chunk.len() as u64;
                entries.extend(
                    chunk
                        .into_iter()
                        .filter(|e| e.table == DEFAULT_TABLE)
                        .map(|e| (e.key, e.value)),
                );
                if done {
                    break;
                }
            }
            (NodeId(node as u32), replica_live_map(entries))
        })
        .collect()
}

fn check_live(mode: Mode) {
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, mode).with_history());
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| cluster.add_script_client(script(c)))
        .collect();
    for (c, &client) in clients.iter().enumerate() {
        assert!(
            cluster.wait_for_script(client, Duration::from_secs(10)),
            "{mode}: client {c} did not finish"
        );
    }
    let acked: usize = clients
        .iter()
        .map(|&client| {
            cluster
                .take_script_results(client)
                .iter()
                .filter(|r| r.is_ok())
                .count()
        })
        .sum();
    assert!(
        acked >= CLIENTS * STEPS / 2,
        "{mode}: only {acked} steps succeeded"
    );
    let events = cluster.history().expect("history enabled").events();
    // The history must interleave clients, or the check proves nothing
    // about concurrency: count pairs of operations whose intervals overlap.
    let overlaps = events
        .iter()
        .flat_map(|e| events.iter().map(move |f| (e, f)))
        .filter(|(e, f)| e.client < f.client && e.inv_tick < f.seq && f.inv_tick < e.seq)
        .count();
    assert!(overlaps > 0, "{mode}: the clients never ran concurrently");
    match mode.consistency {
        Consistency::Strong => {
            let lin = check_linearizable(&events, &BTreeMap::new());
            assert!(
                lin.ok(),
                "{mode}: history not linearizable: {:#?}",
                lin.violations
            );
            assert_eq!(lin.keys, KEYS, "{mode}: not every key was checked");
            assert!(
                lin.ops >= CLIENTS * STEPS / 2,
                "{mode}: only {} ops checked",
                lin.ops
            );
        }
        Consistency::Eventual => {
            // Quiescence: propagation and log polling run on 2 ms timers.
            let deadline = std::time::Instant::now() + Duration::from_secs(3);
            let conv = loop {
                let conv = check_convergence(&replicas(&cluster));
                if conv.ok() || std::time::Instant::now() >= deadline {
                    break conv;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            assert_eq!(conv.replicas, 3, "{mode}");
            assert!(
                conv.ok(),
                "{mode}: replicas diverged after quiescence: {:#?}",
                conv.divergent
            );
            assert!(conv.keys > 0, "{mode}: empty final state");
        }
    }
    cluster.rt.shutdown();
}

#[test]
fn live_ms_sc_history_is_linearizable() {
    check_live(Mode::MS_SC);
}

#[test]
fn live_aa_sc_history_is_linearizable() {
    check_live(Mode::AA_SC);
}

#[test]
fn live_ms_ec_replicas_converge() {
    check_live(Mode::MS_EC);
}

#[test]
fn live_aa_ec_replicas_converge() {
    check_live(Mode::AA_EC);
}
