//! Consistency-oracle sweep (the standing correctness gate): every mode the
//! paper evaluates runs a mixed workload under seeded fault injection with a
//! kill + rejoin schedule, the full history is recorded, and the checker
//! decides whether the advertised guarantee actually held:
//!
//! * SC modes (MS+SC, AA+SC): the recorded history must be linearizable,
//!   and the per-session guarantees (monotonic reads, read-your-writes)
//!   must hold as a corollary.
//! * EC modes (MS+EC, AA+EC): after the workload stops and the anti-entropy
//!   machinery drains, all replicas must converge to identical live state.
//! * MS+EC -> MS+SC transition: per-request Strong operations must stay
//!   linearizable *across* the switch (the paper promises no guarantee
//!   regression during transitions), and the replicas must converge.
//!
//! Every cluster is served one way — read fast path, write combiner, skew
//! engine and overload bounds — so every scenario runs with all of them in
//! the history, at the tight limits below that make each one actually fire.
//!
//! A final test injects a deliberate client-side stale-read bug and asserts
//! the oracle flags it — proof the harness has teeth, not just green lights.

use bespokv_suite::checker::{
    check_convergence, check_linearizable, check_sessions, replica_live_map,
};
use bespokv_suite::cluster::script::{del, get, put, ScriptClient, Step};
use bespokv_suite::cluster::{ClusterSpec, SimCluster};
use bespokv_suite::coordinator::{CoordConfig, CoordinatorActor};
use bespokv_suite::runtime::{FaultPlan, LinkFaults};
use bespokv_suite::types::{
    ApplyEvent, Consistency, ConsistencyLevel, Duration, HistoryEvent, Key, KvError, Mode,
    NodeId, OverloadConfig, ShardId, SkewConfig, SkewSnapshot, Value,
};
use std::collections::BTreeMap;

/// Fixed seed matrix; CI runs all of them for every mode.
const SEEDS: [u64; 4] = [3, 5, 9, 21];
const DROP_P: f64 = 0.02;

/// Keys the workload cycles over (bounded so the per-key search stays small).
const KEYS: usize = 6;

fn k(i: usize) -> String {
    format!("k{}", i % KEYS)
}

/// A deliberately tight overload configuration for the sweep: a single
/// in-flight chain write at the head, a small queue-delay bound, and low
/// propagation watermarks, so shedding, trims, and resyncs actually fire
/// during the scenario instead of idling at production-sized limits. Every
/// guarantee below must hold *with requests being shed mid-scenario* — a
/// shed write that ever became visible would fail the same checks.
fn tight_overload() -> OverloadConfig {
    OverloadConfig {
        head_window: 1,
        max_queue_delay: Some(Duration::from_millis(2)),
        prop_high_watermark: 8,
        prop_low_watermark: 4,
        ..OverloadConfig::default()
    }
}

/// `BESPOKV_STALL=1` re-runs the whole sweep with gray-failure stall
/// injection armed: a replica wedged solid mid-outage, a gray partition
/// (heartbeats flow, client traffic stalls) on another, and a slow-node
/// window late in the run. Every guarantee below must hold with nodes
/// that are alive-but-not-making-progress in the mix — a stalled
/// replica serving a stale read, or a wedge-delayed write acked twice,
/// would fail the same linearizability/convergence checks.
fn stall_enabled() -> bool {
    std::env::var("BESPOKV_STALL").ok().as_deref() == Some("1")
}

/// The sweep's stall schedule, seeded like the fault plan. Node 0 is the
/// kill-and-repair target, so stalls aim at the survivors: node 1 wedges
/// during the repair window (detection + recovery must ride through a
/// frozen replica), node 2 goes gray after the repair settles, and node 1
/// runs slow near the drain. Windows use virtual sim time.
fn oracle_stalls(seed: u64) -> bespokv_suite::runtime::StallPlan {
    use bespokv_suite::types::Instant;
    let at = |ms: u64| Instant::ZERO + Duration::from_millis(ms);
    bespokv_suite::runtime::StallPlan::new(seed)
        .with_wedge(bespokv_suite::runtime::Addr(1), at(1000), at(3000))
        .with_gray(bespokv_suite::runtime::Addr(2), at(5000), at(6500))
        .with_slow(
            bespokv_suite::runtime::Addr(1),
            at(8000),
            at(9000),
            Duration::from_micros(200),
        )
}

/// A hair-trigger skew config for the sweep (cf. [`tight_overload`]): the
/// oracle workload touches 6 keys a few dozen times each, far below the
/// production hot threshold, so the sketch must classify hot after a
/// handful of reads for the cache and routing paths to engage at all. A
/// cached value served past the gate's proof, or a spread read landing on
/// a stale replica, would fail the same linearizability checks.
fn tight_skew() -> SkewConfig {
    SkewConfig {
        hot_min_count: 4,
        ..SkewConfig::default()
    }
}

fn oracle_spec(mode: Mode, seed: u64) -> ClusterSpec {
    let spec = ClusterSpec::new(1, 3, mode)
        .with_standbys(1)
        .with_coord(CoordConfig {
            failure_timeout: Duration::from_millis(1200),
            check_every: Duration::from_millis(200),
        })
        .with_faults(FaultPlan::new(seed).with_default(LinkFaults::lossy(DROP_P)))
        .with_history()
        .with_overload(tight_overload())
        .with_skew(tight_skew());
    if stall_enabled() {
        return spec.with_stalls(oracle_stalls(seed));
    }
    spec
}

/// What the scenario's clients lean on. Every run has every engine on; the
/// load decides which of them the extra client presses hardest.
#[derive(Clone, Copy)]
enum Load {
    /// Two writers and one reader.
    Mixed,
    /// `Mixed` plus a second reader on an offset key cycle: more reads race
    /// the kill and repair through the fast path, sketch and cache.
    ReadHeavy,
    /// `Mixed` plus a third writer on an offset key cycle: more writes
    /// contend for the head's one-deep window and the combiner's op log.
    WriteHeavy,
}

struct RunArtifacts {
    events: Vec<HistoryEvent>,
    applies: Vec<ApplyEvent>,
    replicas: Vec<(NodeId, BTreeMap<Key, Value>)>,
    acked_writes: usize,
    /// Every client's results, in attachment order (determinism compares).
    results: Vec<Vec<Result<bespokv_suite::proto::RespBody, bespokv_suite::types::KvError>>>,
    /// Fast-path serves / fallbacks across all nodes.
    fast_hits: u64,
    fast_fallbacks: u64,
    /// Writes that went through the combiner.
    combined_ops: u64,
    /// Skew-engine counters across all edges.
    skew: SkewSnapshot,
}

/// One kill + rejoin scenario: two writers and a reader share a small
/// keyspace while node 0 is crashed mid-workload under packet loss; after
/// the coordinator repairs onto the standby, the dead node is restarted as
/// a fresh standby (rejoin). `load` may add one more client. Every
/// operation is recorded.
fn run_fault_scenario(mode: Mode, seed: u64, load: Load) -> RunArtifacts {
    let mut cluster = SimCluster::build(oracle_spec(mode, seed));
    // Unique values per (client, op) so the checker can anchor writes.
    // Scripts are long enough that steps are still being issued when the
    // repair lands (~2 s in): during the outage each step burns its retry
    // budget in ~400 ms, so post-repair acks — the proof of recovery —
    // need steps left over, for every seed and schedule.
    let writer_a = cluster.add_script_client(
        (0..40).map(|i| put(&k(i), &format!("a{i}"))).collect(),
    );
    let writer_b = cluster.add_script_client(
        (0..28)
            .map(|i| {
                if i % 7 == 6 {
                    del(&k(i))
                } else {
                    put(&k(i), &format!("b{i}"))
                }
            })
            .collect(),
    );
    // Long enough that plenty of reads land after the first group-commit
    // flush window (~1 ms) — early reads legitimately observe "absent".
    let reader = cluster.add_script_client((0..48).map(|i| get(&k(i))).collect());
    let mut writers = vec![("writer_a", writer_a), ("writer_b", writer_b)];
    let mut readers = vec![("reader", reader)];
    match load {
        Load::Mixed => {}
        Load::ReadHeavy => readers.push((
            "reader_b",
            cluster.add_script_client((0..48).map(|i| get(&k(i + 3))).collect()),
        )),
        Load::WriteHeavy => writers.push((
            "writer_c",
            cluster.add_script_client(
                (0..30).map(|i| put(&k(i + 1), &format!("c{i}"))).collect(),
            ),
        )),
    }
    let clients: Vec<_> = writers.iter().chain(&readers).copied().collect();

    cluster.run_for(Duration::from_millis(400));
    cluster.kill_node(NodeId(0));
    // Failure detection + repair + recovery + workload retries.
    cluster.run_for(Duration::from_secs(12));
    // Rejoin: the crashed node comes back empty and re-registers as standby.
    cluster.restart_as_standby(NodeId(0));
    // Drain: scripts finish and EC anti-entropy catches every replica up.
    cluster.run_for(Duration::from_secs(10));

    for &(name, addr) in &clients {
        let c = cluster.sim.actor_mut::<ScriptClient>(addr);
        assert!(
            c.done(),
            "{mode:?} seed {seed}: {name} wedged at {}/{}",
            c.results.len(),
            c.script_len()
        );
    }
    let acked_writes = writers
        .iter()
        .map(|&(_, a)| {
            let c = cluster.sim.actor_mut::<ScriptClient>(a);
            c.results.iter().filter(|r| r.is_ok()).count()
        })
        .sum();
    let results = clients
        .iter()
        .map(|&(_, a)| cluster.sim.actor_mut::<ScriptClient>(a).results.clone())
        .collect();
    let t = cluster.fast_path().expect("every cluster has a fast-path table");
    let (fast_hits, fast_fallbacks) = (t.total_hits(), t.total_fallbacks());
    let combined_ops = t.combiner_snapshot().ops;
    let skew = cluster.skew_snapshot();

    if stall_enabled() {
        // If the plan never held a message, the sweep is vacuously green.
        assert!(
            cluster.sim.stats().stalled > 0,
            "{mode:?} seed {seed}: stall plan armed but no delivery was stalled"
        );
    }
    let recorder = cluster.history().expect("history enabled").clone();
    let replicas = cluster
        .dump_replicas(ShardId(0))
        .into_iter()
        .map(|(node, entries)| (node, replica_live_map(entries)))
        .collect();
    RunArtifacts {
        events: recorder.events(),
        applies: recorder.applies(),
        replicas,
        acked_writes,
        results,
        fast_hits,
        fast_fallbacks,
        combined_ops,
        skew,
    }
}

fn check_mode_under_faults(mode: Mode, load: Load) {
    for seed in SEEDS {
        let run = run_fault_scenario(mode, seed, load);
        if mode == Mode::MS_SC || mode == Mode::MS_EC {
            // The head/master is the write ingress; its gate opens, so
            // writes must actually flow through the combiner.
            assert!(
                run.combined_ops > 0,
                "{mode:?} seed {seed}: no write combined"
            );
        } else {
            // AA modes have no single write ingress: the write gate
            // never opens and every write must fall back to the actor.
            assert_eq!(
                run.combined_ops, 0,
                "{mode:?} seed {seed}: AA must never combine writes"
            );
        }
        // The fast path must actually carry reads — except under AA+SC,
        // where every Default read resolves to Strong and Strong is never
        // fast-path-eligible under AA.
        if mode == Mode::AA_SC {
            assert_eq!(
                run.fast_hits, 0,
                "seed {seed}: AA+SC must never serve strong reads off the fast path"
            );
            assert!(run.fast_fallbacks > 0, "seed {seed}: gate never consulted");
        } else {
            assert!(run.fast_hits > 0, "{mode:?} seed {seed}: fast path served nothing");
        }
        // The sketch taps every edge-intercepted GET, whatever the permit
        // outcome — if it saw nothing, the engine wasn't wired.
        assert!(
            run.skew.sketch_ops > 0,
            "{mode:?} seed {seed}: the sketch saw no reads"
        );
        if mode == Mode::AA_SC || mode == Mode::AA_EC {
            // The validating cache serves (and fills) only under a
            // `ServeIfClean` grant. AA gates never publish STRONG_CLEAN —
            // no chain position proves a replica clean — so the cache
            // must stay stone cold: any fill or hit here is a serve the
            // gate never justified.
            assert_eq!(
                (run.skew.cache_fills, run.skew.cache_hits),
                (0, 0),
                "{mode:?} seed {seed}: cache active without a ServeIfClean grant"
            );
        }
        // During the outage window, steps burn their retry budget quickly
        // and fail back to the script (which marches on), so only a floor
        // is asserted: enough acked writes to prove the cluster recovered
        // and the history is meaningful.
        assert!(
            run.acked_writes >= 8,
            "{mode:?} seed {seed}: too few acked writes ({}) — cluster never recovered",
            run.acked_writes
        );
        assert!(
            run.events.len() >= 40,
            "{mode:?} seed {seed}: history suspiciously small ({} events)",
            run.events.len()
        );
        match mode.consistency {
            Consistency::Strong => {
                let lin = check_linearizable(&run.events, &BTreeMap::new());
                assert!(
                    lin.ok(),
                    "{mode:?} seed {seed}: history not linearizable: {:#?}",
                    lin.violations
                );
                assert!(lin.ops > 0, "{mode:?} seed {seed}: nothing checked");
                let sess = check_sessions(&run.events, &run.applies);
                assert!(
                    sess.ok(),
                    "{mode:?} seed {seed}: session guarantees broken: {sess:#?}"
                );
                assert!(sess.reads_checked > 0);
            }
            Consistency::Eventual => {
                let conv = check_convergence(&run.replicas);
                assert_eq!(conv.replicas, 3, "{mode:?} seed {seed}: wrong replica count");
                assert!(
                    conv.ok(),
                    "{mode:?} seed {seed}: replicas diverged after quiescence: {:#?}",
                    conv.divergent
                );
                assert!(conv.keys > 0, "{mode:?} seed {seed}: empty final state");
            }
        }
    }
}

#[test]
fn oracle_ms_sc_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_SC, Load::Mixed);
}

#[test]
fn oracle_ms_ec_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_EC, Load::Mixed);
}

#[test]
fn oracle_aa_sc_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::AA_SC, Load::Mixed);
}

#[test]
fn oracle_aa_ec_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::AA_EC, Load::Mixed);
}

// Same scenarios with a second reader: more reads race the kill and repair
// through the fast path, sketch and cache, and the same oracle must hold.

#[test]
fn oracle_ms_sc_fastpath_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_SC, Load::ReadHeavy);
}

#[test]
fn oracle_ms_ec_fastpath_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_EC, Load::ReadHeavy);
}

#[test]
fn oracle_aa_sc_fastpath_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::AA_SC, Load::ReadHeavy);
}

#[test]
fn oracle_aa_ec_fastpath_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::AA_EC, Load::ReadHeavy);
}

// Same scenarios with a third writer: more writes contend for the head's
// window and the combiner's op log, and the same oracle must hold.

#[test]
fn oracle_ms_sc_write_combine_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_SC, Load::WriteHeavy);
}

#[test]
fn oracle_ms_ec_write_combine_kill_rejoin_under_faults() {
    check_mode_under_faults(Mode::MS_EC, Load::WriteHeavy);
}

/// Determinism gate for the whole stack — group commit, fault injection,
/// fast path, combiner, skew engine and shedding together: the same spec
/// and seed must replay to bit-identical client results, replica contents,
/// and fast-path, combiner and skew counters.
fn assert_same_seed_replays(load: Load, seed: u64) {
    let a = run_fault_scenario(Mode::MS_SC, seed, load);
    let b = run_fault_scenario(Mode::MS_SC, seed, load);
    assert_eq!(a.results, b.results, "seed {seed}: client results diverged");
    assert_eq!(a.replicas, b.replicas, "seed {seed}: replica state diverged");
    assert_eq!(
        (a.fast_hits, a.fast_fallbacks),
        (b.fast_hits, b.fast_fallbacks),
        "seed {seed}: fast-path counters diverged"
    );
    assert_eq!(a.combined_ops, b.combined_ops, "seed {seed}: combiner diverged");
    assert_eq!(a.skew, b.skew, "seed {seed}: skew counters diverged");
    assert_eq!(a.acked_writes, b.acked_writes, "seed {seed}");
}

#[test]
fn oracle_fastpath_same_seed_runs_are_identical() {
    for seed in [SEEDS[0], SEEDS[2]] {
        assert_same_seed_replays(Load::ReadHeavy, seed);
    }
}

#[test]
fn oracle_write_combine_same_seed_runs_are_identical() {
    assert_same_seed_replays(Load::WriteHeavy, SEEDS[1]);
}

/// Killing the write ingress (the head) with writes mid-combine: the kill
/// slams the write gate shut and deregisters the node, the unprocessed
/// remainder of the op log dies with the controlet *unacked*, and every
/// write that WAS acked — combined batches fully replicated before their
/// acks — survives verbatim on every replica of the repaired chain.
#[test]
fn oracle_write_combine_gate_close_on_kill_preserves_acked_writes() {
    let mut cluster = SimCluster::build(oracle_spec(Mode::MS_SC, 7));
    // Distinct keys, one sequential writer: an acked put is never
    // overwritten, so it must appear verbatim in the final state.
    let writer = cluster.add_script_client(
        (0..40)
            .map(|i| put(&format!("wc{i}"), &format!("v{i}")))
            .collect(),
    );
    cluster.run_for(Duration::from_millis(400));
    let t = std::sync::Arc::clone(cluster.fast_path().expect("fast-path table"));
    assert!(
        t.combiner_snapshot().ops > 0,
        "head never combined a write before the kill"
    );

    cluster.kill_node(NodeId(0));
    assert!(
        t.gate(NodeId(0)).is_none(),
        "killed head must be unregistered from the edge table"
    );
    // Failure detection + chain splice + recovery onto the standby, then
    // rejoin and drain.
    cluster.run_for(Duration::from_secs(12));
    cluster.restart_as_standby(NodeId(0));
    cluster.run_for(Duration::from_secs(10));

    let c = cluster.sim.actor_mut::<ScriptClient>(writer);
    assert!(c.done(), "writer wedged at {}/{}", c.results.len(), c.script_len());
    let acked: Vec<usize> = c
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_ok())
        .map(|(i, _)| i)
        .collect();
    assert!(
        acked.len() >= 8,
        "too few acked writes ({}) — cluster never recovered",
        acked.len()
    );

    // Zero lost acks: every acked combined put is present, with its exact
    // value, on every replica of the repaired chain.
    let replicas: Vec<(NodeId, BTreeMap<Key, Value>)> = cluster
        .dump_replicas(ShardId(0))
        .into_iter()
        .map(|(node, entries)| (node, replica_live_map(entries)))
        .collect();
    for (node, live) in &replicas {
        for &i in &acked {
            assert_eq!(
                live.get(&Key::from(format!("wc{i}"))),
                Some(&Value::from(format!("v{i}"))),
                "replica {node} lost acked combined write wc{i}"
            );
        }
    }
    // And the recorded history, combiner in the path, still linearizes —
    // no duplicated or resurrected acked write either.
    let recorder = cluster.history().expect("history enabled").clone();
    let lin = check_linearizable(&recorder.events(), &BTreeMap::new());
    assert!(
        lin.ok(),
        "combined history not linearizable: {:#?}",
        lin.violations
    );
}

/// The fast path must slam shut on failover: killing the serving node
/// closes its gate immediately, and the repaired configuration publishes a
/// bumped epoch on the survivors — so no in-progress read can validate
/// across the reconfiguration.
#[test]
fn oracle_fastpath_gate_closes_on_kill_and_bumps_epoch_on_repair() {
    let mut cluster = SimCluster::build(oracle_spec(Mode::MS_SC, 7));
    cluster.run_for(Duration::from_millis(500));
    let t = std::sync::Arc::clone(cluster.fast_path().expect("fast-path table"));

    let tail_gate = t.gate(NodeId(2)).expect("tail registered");
    assert!(tail_gate.is_open(), "tail gate open before the fault");
    let epoch_before = tail_gate.epoch();

    cluster.kill_node(NodeId(0));
    assert!(
        t.gate(NodeId(0)).is_none(),
        "killed node must be unregistered from the fast path"
    );
    // Failure detection + chain splice + recovery onto the standby.
    cluster.run_for(Duration::from_secs(12));
    assert!(
        tail_gate.epoch() > epoch_before,
        "surviving tail must republish a bumped epoch after repair \
         (before {epoch_before}, after {})",
        tail_gate.epoch()
    );
    assert!(tail_gate.is_open(), "tail serves again after repair");
}

/// MS+EC -> MS+SC transition with history: operations issued before, during
/// and after the switch. Writes and per-request Strong reads serialize at
/// the master (whose datalet the new head inherits), so that sub-history
/// must be linearizable end-to-end — the "no guarantee regression" claim —
/// with edge-served reads in the mix. Default-consistency reads stay EC and
/// are only required to converge. The old controlets' gates must close when
/// the switch begins (quiesce) and stay closed once they are out of the
/// replica set; the replacement controlets' gates open only under the new
/// mode.
fn check_transition(spec: ClusterSpec) {
    let mut cluster = SimCluster::build(spec);
    let seed: Vec<Step> = (0..KEYS)
        .flat_map(|i| {
            vec![
                put(&k(i), &format!("seed{i}")),
                get(&k(i)).with_level(ConsistencyLevel::Strong),
                get(&k(i)),
            ]
        })
        .collect();
    let seeder = cluster.add_script_client(seed);
    cluster.run_for(Duration::from_secs(2));
    assert!(cluster.sim.actor_mut::<ScriptClient>(seeder).done());
    let t = std::sync::Arc::clone(cluster.fast_path().expect("fast-path table"));
    assert!(
        t.total_hits() > 0,
        "MS+EC reads should serve off the fast path before the transition"
    );
    let old_master_gate = t.gate(NodeId(0)).expect("old master registered");
    assert!(old_master_gate.is_open());

    let new_nodes = cluster.start_transition(ShardId(0), Mode::MS_SC);
    let during = cluster.add_script_client(
        (0..8)
            .flat_map(|i| {
                vec![
                    put(&k(i), &format!("mid{i}")),
                    get(&k(i)).with_level(ConsistencyLevel::Strong),
                    get(&k(i)), // EC read: liveness only
                ]
            })
            .collect(),
    );
    cluster.run_for(Duration::from_secs(4));
    assert!(cluster.sim.actor_mut::<ScriptClient>(during).done());

    // Committed: new mode, new replica set.
    let info = cluster
        .sim
        .actor_mut::<CoordinatorActor>(cluster.coordinator)
        .core()
        .map()
        .shard(ShardId(0))
        .unwrap()
        .clone();
    assert_eq!(info.mode, Mode::MS_SC);
    assert_eq!(info.replicas, new_nodes);
    // The old master quiesced (and left the replica set): its gate is shut
    // for good. The new tail serves strong reads under the new mode.
    assert!(
        !old_master_gate.is_open(),
        "old master's gate must close across the transition"
    );
    let new_tail = *new_nodes.last().expect("replicas");
    let new_tail_gate = t.gate(new_tail).expect("new tail registered");
    assert!(
        new_tail_gate.is_open(),
        "new tail must serve once the transition commits"
    );

    let post = cluster.add_script_client(
        (0..KEYS)
            .flat_map(|i| vec![put(&k(i), &format!("post{i}")), get(&k(i))])
            .collect(),
    );
    cluster.run_for(Duration::from_secs(4));
    assert!(cluster.sim.actor_mut::<ScriptClient>(post).done());

    let recorder = cluster.history().expect("history enabled").clone();
    // The linearizable core: every write, plus reads that were Strong by
    // request or ran after the commit to MS+SC (where Default = Strong).
    let strong_core: Vec<HistoryEvent> = recorder
        .events()
        .into_iter()
        .filter(|e| e.op.is_write() || e.level == ConsistencyLevel::Strong)
        .collect();
    let lin = check_linearizable(&strong_core, &BTreeMap::new());
    assert!(
        lin.ok(),
        "strong ops regressed across the MS+EC -> MS+SC transition: {:#?}",
        lin.violations
    );
    assert!(lin.ops >= 2 * KEYS, "transition history too thin");

    let replicas: Vec<(NodeId, BTreeMap<Key, Value>)> = cluster
        .dump_replicas(ShardId(0))
        .into_iter()
        .map(|(node, entries)| (node, replica_live_map(entries)))
        .collect();
    let conv = check_convergence(&replicas);
    assert!(
        conv.ok(),
        "replicas diverged across the transition: {:#?}",
        conv.divergent
    );
    assert_eq!(conv.keys, KEYS, "every key survived the transition");
}

#[test]
fn oracle_ms_ec_to_ms_sc_transition() {
    check_transition(ClusterSpec::new(1, 3, Mode::MS_EC).with_history());
}

/// The same transition at the sweep's tight limits, so edge-served reads
/// cross the switch with the sketch classifying hot after a handful of
/// reads and the head admitting one write at a time.
#[test]
fn oracle_ms_ec_to_ms_sc_transition_fastpath() {
    check_transition(
        ClusterSpec::new(1, 3, Mode::MS_EC)
            .with_history()
            .with_overload(tight_overload())
            .with_skew(tight_skew()),
    );
}

/// Shedding safety, with nothing left to retry: six concurrent writers
/// hammer one MS+SC chain whose head admits a single in-flight write, with
/// client retries disabled so every shed surfaces as a final
/// `Err(Overloaded)`. The invariant under test is the one that makes
/// shedding safe at all: `Overloaded` is returned strictly *before*
/// execution, so a shed write must never be observed — not by any read in
/// the recorded history, and not in any replica's final state.
#[test]
fn oracle_shed_writes_never_become_violations() {
    let ocfg = OverloadConfig {
        retry_tokens: 0,
        ..tight_overload()
    };
    let mut cluster = SimCluster::build(
        ClusterSpec::new(1, 3, Mode::MS_SC)
            .with_history()
            .with_overload(ocfg),
    );
    let writers: Vec<_> = (0..6)
        .map(|w| {
            cluster.add_script_client(
                (0..30).map(|i| put(&k(i), &format!("w{w}v{i}"))).collect(),
            )
        })
        .collect();
    cluster.run_for(Duration::from_secs(30));

    let mut shed_values = Vec::new();
    let mut acked = 0usize;
    for (w, &addr) in writers.iter().enumerate() {
        let c = cluster.sim.actor_mut::<ScriptClient>(addr);
        assert!(c.done(), "writer {w} wedged at {}/{}", c.results.len(), c.script_len());
        for (i, r) in c.results.clone().into_iter().enumerate() {
            match r {
                Ok(_) => acked += 1,
                Err(KvError::Overloaded) => shed_values.push(Value::from(format!("w{w}v{i}"))),
                Err(_) => {}
            }
        }
    }
    assert!(acked > 0, "head admitted nothing");
    assert!(
        !shed_values.is_empty(),
        "six writers against a one-deep head window never shed — overload \
         protection is not engaging"
    );
    let snap = cluster.overload_counters().snapshot();
    assert!(
        snap.total_shed() >= shed_values.len() as u64,
        "sheds happened but the counters missed them: {snap}"
    );

    // The oracle proper: the history (where every shed write is recorded
    // as never-happened) must still linearize.
    let recorder = cluster.history().expect("history enabled").clone();
    let lin = check_linearizable(&recorder.events(), &BTreeMap::new());
    assert!(
        lin.ok(),
        "a shed write became a consistency violation: {:#?}",
        lin.violations
    );

    // Belt and braces: no shed value may exist in any replica.
    for (node, entries) in cluster.dump_replicas(ShardId(0)) {
        let live = replica_live_map(entries);
        for v in live.values() {
            assert!(
                !shed_values.contains(v),
                "replica {node} holds a value whose write was shed: {v:?}"
            );
        }
    }
}

/// Teeth test: a client with the dev-only stale-read bug (repeated Gets
/// replay the first observed value) must produce a history the
/// linearizability checker rejects — on a cluster that is otherwise
/// perfectly healthy, so the only possible culprit is the injected bug.
#[test]
fn oracle_catches_injected_stale_read_bug() {
    let mut cluster = SimCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC).with_history());
    let buggy = cluster.add_script_client_debug_stale(vec![
        put("k", "first"),
        get("k"),
        put("k", "second"),
        get("k"), // replays "first": a stale read the oracle must flag
    ]);
    cluster.run_for(Duration::from_secs(3));
    let c = cluster.sim.actor_mut::<ScriptClient>(buggy);
    assert!(c.done(), "script wedged: {:?}", c.results);
    assert!(c.results.iter().all(|r| r.is_ok()), "healthy cluster: {:?}", c.results);

    let recorder = cluster.history().expect("history enabled").clone();
    let lin = check_linearizable(&recorder.events(), &BTreeMap::new());
    assert!(
        !lin.ok(),
        "oracle failed to flag the injected stale read (checker has no teeth)"
    );
    assert_eq!(lin.violations[0].key, Key::from("k"));

    // Control: the identical script without the bug passes.
    let mut cluster = SimCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC).with_history());
    let clean = cluster.add_script_client(vec![
        put("k", "first"),
        get("k"),
        put("k", "second"),
        get("k"),
    ]);
    cluster.run_for(Duration::from_secs(3));
    assert!(cluster.sim.actor_mut::<ScriptClient>(clean).done());
    let recorder = cluster.history().expect("history enabled").clone();
    let lin = check_linearizable(&recorder.events(), &BTreeMap::new());
    assert!(lin.ok(), "clean control run must pass: {:#?}", lin.violations);
}

