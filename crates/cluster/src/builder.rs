//! Cluster specification, and the cluster on the discrete-event simulator.
//!
//! [`ClusterSpec`] describes the full bespoKV deployment the paper
//! evaluates: one controlet per datalet (per shard replica), a coordinator,
//! the optional DLM and shared-log services, standby pairs for failover.
//! `crate::assembly` wires it (address layout there); [`SimCluster`] runs
//! it under virtual time with a network model and closed-loop workload
//! clients.

use crate::assembly::{assemble, fast_path_handle, p2p_targets, script_client, Assembled, Wiring};
use crate::client_actor::{OpSource, WorkloadClient};
use bespokv::client::ClientCore;
use bespokv::controlet::{Controlet, RecoveredLocal};
use bespokv_coordinator::{CoordConfig, CoordinatorActor};
use bespokv_datalet::{
    CrashDevice, Datalet, EngineKind, LogDevice, LsmConfig, RecoveryReport, SyncPolicy, TLog, TLsm,
};
use bespokv_proto::{CoordMsg, NetMsg};
use bespokv_runtime::{Addr, CostModel, FaultPlan, NetworkModel, Simulation, TransportProfile};
use bespokv_types::{
    ClientId, Duration, HistoryRecorder, Key, Mode, NodeId, OverloadConfig, OverloadCounters,
    Partitioning, ShardId, ShardInfo, ShardMap, SkewConfig, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One replica's dumped default-table contents: key -> value, with
/// tombstones as `None` (see [`SimCluster::dump_replicas`]).
pub type ReplicaEntries = Vec<(Key, Option<Value>)>;

/// Everything needed to stand up a cluster.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Number of shards.
    pub shards: u32,
    /// Replicas per shard.
    pub replication: u32,
    /// Topology + consistency for every shard.
    pub mode: Mode,
    /// Engine per replica position; replica `i` uses
    /// `engines[i % engines.len()]` (one entry = homogeneous; several =
    /// polyglot persistence, section IV-D).
    pub engines: Vec<EngineKind>,
    /// Key partitioning.
    pub partitioning: Partitioning,
    /// Network fabric profile.
    pub transport: TransportProfile,
    /// Standby controlet-datalet pairs for failover.
    pub standbys: u32,
    /// Coordinator tuning.
    pub coord: CoordConfig,
    /// P2P-style routing (section IV-E): clients send to any controlet,
    /// controlets forward to the owner.
    pub p2p: bool,
    /// Per-shard mode overrides (hybrid topologies, section IV-E): shard
    /// `i` runs `per_shard_modes[i]`; shards beyond the list use `mode`.
    pub per_shard_modes: Vec<Mode>,
    /// Deterministic fault-injection plan applied to the network fabric.
    pub faults: Option<FaultPlan>,
    /// Deterministic stall-injection plan (wedges, slow nodes, gray
    /// partitions) applied to inbound delivery at named nodes.
    pub stalls: Option<bespokv_runtime::StallPlan>,
    /// When true, a shared [`HistoryRecorder`] is created and plumbed into
    /// every client and controlet so the consistency oracle can audit the
    /// run (see `bespokv-checker`).
    pub history: bool,
    /// Overload-protection knobs, shared end to end: the runtime's bounded
    /// queues, every controlet's shed points, every edge's relay table and
    /// every client's deadline/retry budget, all reporting into one
    /// [`OverloadCounters`] set (see `SimCluster::overload_counters`).
    pub overload: OverloadConfig,
    /// When set, every replica runs a *durable* engine (tLog or tLSM) over
    /// a seeded [`CrashDevice`], `kill_node` simulates a power cut on the
    /// node's device, and [`SimCluster::restart_from_disk`] brings a dead
    /// node back by replaying its surviving log before delta-syncing from
    /// the chain.
    pub durability: Option<DurabilityConfig>,
    /// Skew-engine knobs: the fast-path table's hot-key sketch and
    /// validating edge cache, and every scripted client's spreading of
    /// strong reads for heavy hitters across clean replicas (see
    /// `bespokv_types::skew` and DESIGN.md §14).
    pub skew: SkewConfig,
}

/// Disk-backed deployment knobs (see [`ClusterSpec::with_durability`]).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Durable engine for every replica: [`EngineKind::TLog`] or
    /// [`EngineKind::TLsm`] (WAL-backed). Other kinds panic at build.
    pub engine: EngineKind,
    /// Fsync policy threaded into every engine's device writes.
    pub sync: SyncPolicy,
    /// Base seed for the per-node [`CrashDevice`] crash-cut RNGs; the same
    /// spec + seed replays the same torn-tail cuts.
    pub seed: u64,
}

impl DurabilityConfig {
    pub(crate) fn device_seed(&self, node: NodeId) -> u64 {
        self.seed ^ (node.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    pub(crate) fn build_engine(&self, dev: Arc<CrashDevice>) -> Arc<dyn Datalet> {
        match self.engine {
            EngineKind::TLog => Arc::new(
                TLog::open(dev as Arc<dyn LogDevice>, self.sync)
                    .expect("fresh crash device cannot fail to replay"),
            ),
            EngineKind::TLsm => Arc::new(
                TLsm::with_wal(LsmConfig::default(), dev as Arc<dyn LogDevice>, self.sync)
                    .expect("fresh crash device cannot fail to replay"),
            ),
            other => panic!("durability requires tLog or tLSM, got {}", other.tag()),
        }
    }

    fn recover_engine(&self, dev: Arc<CrashDevice>) -> (Arc<dyn Datalet>, RecoveryReport) {
        match self.engine {
            EngineKind::TLog => {
                let (log, report) = TLog::open_recovering(dev as Arc<dyn LogDevice>, self.sync)
                    .expect("recovering open only fails on hard IO errors");
                (Arc::new(log), report)
            }
            EngineKind::TLsm => {
                let (lsm, report) = TLsm::with_wal_recovering(
                    LsmConfig::default(),
                    dev as Arc<dyn LogDevice>,
                    self.sync,
                )
                .expect("recovering open only fails on hard IO errors");
                (Arc::new(lsm), report)
            }
            other => panic!("durability requires tLog or tLSM, got {}", other.tag()),
        }
    }
}

impl ClusterSpec {
    /// A sane baseline: `shards x replication` nodes of `tHT` in `mode`,
    /// served the one way every cluster is (DESIGN.md §10): read fast
    /// path, skew engine and overload bounds, each at its default config.
    /// The mode's gates decide where each one engages.
    pub fn new(shards: u32, replication: u32, mode: Mode) -> Self {
        ClusterSpec {
            shards,
            replication,
            mode,
            engines: vec![EngineKind::THt],
            partitioning: Partitioning::ConsistentHash { vnodes: 32 },
            transport: TransportProfile::socket(),
            standbys: 0,
            coord: CoordConfig::default(),
            p2p: false,
            per_shard_modes: Vec::new(),
            faults: None,
            stalls: None,
            history: false,
            overload: OverloadConfig::default(),
            durability: None,
            skew: SkewConfig::default(),
        }
    }

    /// Attaches a seeded fault plan: the same spec + seed replays the exact
    /// same drop/duplicate/reorder/partition schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a seeded stall plan: wedge/slow/gray windows replayed
    /// identically for the same spec + seed. Stalls act on *inbound
    /// delivery* at the stalled node — heartbeats the node sends still
    /// flow, which is what makes the failure gray.
    pub fn with_stalls(mut self, plan: bespokv_runtime::StallPlan) -> Self {
        self.stalls = Some(plan);
        self
    }

    /// Enables history capture for the consistency oracle.
    pub fn with_history(mut self) -> Self {
        self.history = true;
        self
    }

    /// No-op, kept so existing callers (the frozen `spine` benchmark)
    /// still compile: every PUT/DEL is ordered by its controlet actor, and
    /// there is no edge write combiner left to enable.
    pub fn with_write_combine(self) -> Self {
        self
    }

    /// Replaces the overload-protection knobs (tests use tight values).
    pub fn with_overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Replaces the skew-engine knobs (tests use a low hot threshold).
    pub fn with_skew(mut self, cfg: SkewConfig) -> Self {
        self.skew = cfg;
        self
    }

    /// Runs every replica on a durable engine over a seeded crash device
    /// (see [`DurabilityConfig`]). Overrides `engines`.
    pub fn with_durability(mut self, cfg: DurabilityConfig) -> Self {
        assert!(
            matches!(cfg.engine, EngineKind::TLog | EngineKind::TLsm),
            "durability requires tLog or tLSM"
        );
        self.engines = vec![cfg.engine];
        self.durability = Some(cfg);
        self
    }

    /// Gives each shard its own mode (hybrid topologies): e.g. an AA-MS
    /// hybrid runs MS chains per shard under an active-active overlay.
    pub fn with_per_shard_modes(mut self, modes: Vec<Mode>) -> Self {
        self.per_shard_modes = modes;
        self
    }

    /// Enables P2P routing.
    pub fn with_p2p(mut self) -> Self {
        self.p2p = true;
        self
    }

    /// Sets the engines (single entry = homogeneous).
    pub fn with_engines(mut self, engines: Vec<EngineKind>) -> Self {
        assert!(!engines.is_empty());
        self.engines = engines;
        self
    }

    /// Sets the transport profile.
    pub fn with_transport(mut self, t: TransportProfile) -> Self {
        self.transport = t;
        self
    }

    /// Sets the number of standby pairs.
    pub fn with_standbys(mut self, n: u32) -> Self {
        self.standbys = n;
        self
    }

    /// Sets coordinator failure detection parameters.
    pub fn with_coord(mut self, coord: CoordConfig) -> Self {
        self.coord = coord;
        self
    }

    /// Total non-standby nodes.
    pub fn num_nodes(&self) -> u32 {
        self.shards * self.replication
    }

    /// TCP edge server options derived from this spec's overload config,
    /// so live edges inherit the cluster's connection cap, pipeline cap,
    /// and reactor sizing instead of restating them.
    pub fn edge_server_options(&self) -> bespokv_runtime::tcp::ServerOptions {
        let o = &self.overload;
        bespokv_runtime::tcp::ServerOptions {
            max_connections: Some(o.max_connections),
            pipeline_cap: Some(o.pipeline_cap),
            reactor_threads: (o.reactor_threads > 0).then_some(o.reactor_threads),
            ..Default::default()
        }
    }
}

/// Cost model matching an engine (calibrated constants; see netmodel docs).
pub fn cost_for(engine: EngineKind) -> CostModel {
    match engine {
        EngineKind::THt | EngineKind::TRedis => CostModel::tht(),
        EngineKind::TMt => CostModel::tmt(),
        EngineKind::TLog => CostModel::tlog(),
        EngineKind::TLsm | EngineKind::TSsdb => CostModel::tlsm(),
    }
}

/// A running simulated cluster.
pub struct SimCluster {
    /// The simulator (step it, kill actors, inspect).
    pub sim: Simulation,
    /// Controlet addresses, indexed by `NodeId` raw value.
    pub controlets: Vec<Addr>,
    /// Standby controlet addresses.
    pub standbys: Vec<Addr>,
    /// Coordinator address.
    pub coordinator: Addr,
    /// DLM address.
    pub dlm: Addr,
    /// Shared log addresses, one per shard.
    pub shared_logs: Vec<Addr>,
    /// Workload client addresses.
    pub clients: Vec<Addr>,
    /// Scripted client addresses.
    pub clients_scripted: Vec<Addr>,
    /// Datalets, indexed like `controlets` (standbys included at the end).
    pub datalets: Vec<Arc<dyn Datalet>>,
    /// The initial shard map.
    pub map: ShardMap,
    spec: ClusterSpec,
    next_client_id: u32,
    /// Consistency-oracle recorder (present when the spec enabled history).
    recorder: Option<HistoryRecorder>,
    /// Shared fast-path table (read fast path, skew engine).
    fast_path: Arc<crate::edge::FastPathTable>,
    /// Cluster-wide overload counters.
    overload_counters: Arc<OverloadCounters>,
    /// Datalet per node id — unlike `datalets` (indexed by original node
    /// order), this also covers transition controlets with high node ids.
    datalet_by_node: HashMap<NodeId, Arc<dyn Datalet>>,
    /// Per-node crash devices (durability specs only). The device outlives
    /// kills: `restart_from_disk` reopens the surviving bytes.
    crash_devices: HashMap<NodeId, Arc<CrashDevice>>,
    /// The shard each replica was built for (durable restarts rejoin it).
    shard_of_node: HashMap<NodeId, ShardId>,
}

impl SimCluster {
    /// Builds the cluster described by `spec`.
    pub fn build(spec: ClusterSpec) -> Self {
        let mut net = NetworkModel::uniform(spec.transport);
        if let Some(plan) = &spec.faults {
            net = net.with_faults(plan.clone());
        }
        if let Some(plan) = &spec.stalls {
            net = net.with_stalls(plan.clone());
        }
        let mut sim = Simulation::new(net);
        sim.set_max_queue_delay(spec.overload.max_queue_delay);
        let Assembled {
            map,
            controlets,
            standbys,
            coordinator,
            dlm,
            shared_logs,
            datalets,
            recorder,
            fast_path,
            overload_counters,
            crash_devices,
            shard_of_node,
        } = assemble(&spec, &mut |actor| sim.add_actor(actor));
        // Connection-refused semantics for client traffic: a request to a
        // crashed node errors immediately (as a TCP connect would) instead
        // of silently timing out; replication/control traffic to dead
        // nodes still just vanishes (repair handles it).
        sim.set_bounce(Box::new(|dead, msg| match msg {
            NetMsg::Client(req) => Some(NetMsg::ClientResp(
                bespokv_proto::client::Response::err(
                    req.id,
                    bespokv_types::KvError::WrongNode {
                        node: NodeId(dead.0),
                        hint: None,
                    },
                ),
            )),
            _ => None,
        }));
        let datalet_by_node = datalets
            .iter()
            .enumerate()
            .map(|(i, d)| (NodeId(i as u32), Arc::clone(d)))
            .collect();

        SimCluster {
            sim,
            controlets,
            standbys,
            coordinator,
            dlm,
            shared_logs,
            clients: Vec::new(),
            clients_scripted: Vec::new(),
            datalets,
            map,
            spec,
            next_client_id: 1000,
            recorder,
            fast_path,
            overload_counters,
            datalet_by_node,
            crash_devices,
            shard_of_node,
        }
    }

    fn wiring(&self) -> Wiring<'_> {
        Wiring {
            spec: &self.spec,
            coordinator: self.coordinator,
            dlm: self.dlm,
            shared_logs: &self.shared_logs,
            recorder: &self.recorder,
            counters: &self.overload_counters,
        }
    }

    /// Skew-engine counter snapshot.
    pub fn skew_snapshot(&self) -> bespokv_types::SkewSnapshot {
        self.fast_path.skew_snapshot()
    }

    /// The cluster-wide overload counters.
    pub fn overload_counters(&self) -> Arc<OverloadCounters> {
        Arc::clone(&self.overload_counters)
    }

    /// The shared fast-path table. Always `Some` (every cluster is
    /// assembled with one); the `Option` matches `LiveCluster::fast_path`.
    pub fn fast_path(&self) -> Option<&Arc<crate::edge::FastPathTable>> {
        Some(&self.fast_path)
    }

    /// The consistency-oracle recorder, when the spec enabled history.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.recorder.as_ref()
    }

    /// Dumps the current contents of every replica of `shard` (default
    /// table, tombstones included) according to the *coordinator's current*
    /// map — i.e. post-failover/transition membership, not the build-time
    /// layout. Feed the result to `bespokv-checker`'s convergence oracle.
    pub fn dump_replicas(&mut self, shard: ShardId) -> Vec<(NodeId, ReplicaEntries)> {
        let info = self
            .sim
            .actor_mut::<CoordinatorActor>(self.coordinator)
            .core()
            .map()
            .shard(shard)
            .expect("shard exists")
            .clone();
        info.replicas
            .iter()
            .map(|&node| {
                let d = self
                    .datalet_by_node
                    .get(&node)
                    .unwrap_or_else(|| panic!("no datalet registered for {node}"));
                let mut entries = Vec::new();
                let mut from = 0u64;
                loop {
                    let (chunk, done) = d.snapshot_chunk(from, 1024);
                    from += chunk.len() as u64;
                    for e in chunk {
                        if e.table == bespokv_datalet::DEFAULT_TABLE {
                            entries.push((e.key, e.value));
                        }
                    }
                    if done {
                        break;
                    }
                }
                (node, entries)
            })
            .collect()
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Pre-loads key/value pairs into every replica of the owning shard
    /// (version 1), so read workloads hit.
    pub fn preload<I: IntoIterator<Item = (Key, Value)>>(&mut self, items: I) {
        for (key, value) in items {
            let shard = self.map.shard_for_key(&key);
            let info = self.map.shard(shard).expect("dense");
            for &node in &info.replicas {
                let d = &self.datalets[node.raw() as usize];
                let _ = d.put(bespokv_datalet::DEFAULT_TABLE, key.clone(), value.clone(), 1);
            }
        }
    }

    /// Attaches one closed-loop client; returns its address.
    pub fn add_client(
        &mut self,
        source: Box<dyn OpSource>,
        concurrency: usize,
        warmup: Duration,
        timeline_bucket: Duration,
    ) -> Addr {
        self.add_client_inner(source, concurrency, warmup, timeline_bucket, u32::MAX)
    }

    /// Attaches a closed-loop client that does NOT transparently retry:
    /// failures surface immediately (redis-benchmark semantics, used by
    /// the failover timelines).
    pub fn add_client_no_retry(
        &mut self,
        source: Box<dyn OpSource>,
        concurrency: usize,
        warmup: Duration,
        timeline_bucket: Duration,
    ) -> Addr {
        self.add_client_inner(source, concurrency, warmup, timeline_bucket, 1)
    }

    fn add_client_inner(
        &mut self,
        source: Box<dyn OpSource>,
        concurrency: usize,
        warmup: Duration,
        timeline_bucket: Duration,
        max_attempts: u32,
    ) -> Addr {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let mut core = ClientCore::new(id, self.coordinator)
            .with_request_timeout(Duration::from_millis(500));
        if max_attempts != u32::MAX {
            core = core.with_max_attempts(max_attempts);
        }
        if self.spec.p2p {
            core = core.with_p2p(p2p_targets(&self.spec));
        }
        if let Some(rec) = &self.recorder {
            core = core.with_history(rec.clone());
        }
        let core = core.with_overload(self.spec.overload, Arc::clone(&self.overload_counters));
        let client = WorkloadClient::new(core, source, concurrency, warmup, timeline_bucket);
        let addr = self.sim.add_actor(Box::new(client));
        self.clients.push(addr);
        addr
    }

    /// Attaches a sequential scripted client; returns its address.
    pub fn add_script_client(&mut self, script: Vec<crate::script::Step>) -> Addr {
        self.add_script_client_inner(script, false)
    }

    /// Dev-only: attaches a scripted client with the deliberate stale-read
    /// bug enabled (`ClientCore::with_debug_stale_reads`). Oracle tests use
    /// it to prove the linearizability checker catches real violations.
    pub fn add_script_client_debug_stale(&mut self, script: Vec<crate::script::Step>) -> Addr {
        self.add_script_client_inner(script, true)
    }

    fn add_script_client_inner(&mut self, script: Vec<crate::script::Step>, stale: bool) -> Addr {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let mut core = ClientCore::new(id, self.coordinator)
            .with_request_timeout(Duration::from_millis(300));
        if stale {
            core = core.with_debug_stale_reads();
        }
        let client = script_client(
            &self.spec,
            core,
            &self.recorder,
            &self.overload_counters,
            &self.fast_path,
            script,
        );
        let addr = self.sim.add_actor(Box::new(client));
        self.clients_scripted.push(addr);
        addr
    }

    /// Crashes a node (controlet + datalet, fail-stop). With a durability
    /// spec this is a simulated power cut: the node's crash device keeps
    /// its synced prefix plus a seeded cut of the unsynced tail — possibly
    /// mid-record — and drops the rest, exactly what `kill -9` plus a
    /// power failure leaves on disk.
    pub fn kill_node(&mut self, node: NodeId) {
        // Fail-stop means the fast path must stop serving this node's
        // datalet immediately; the dead controlet can no longer close its
        // own gate.
        self.fast_path.close(node);
        self.fast_path.unregister(node);
        self.sim.kill(Addr(node.raw()));
        if let Some(dev) = self.crash_devices.get(&node) {
            dev.crash().expect("crash cut on an in-memory device");
        }
    }

    /// The crash device backing `node`'s durable engine, when the spec
    /// armed durability (inspect `durable_len`/`sync_count` in tests).
    pub fn crash_device(&self, node: NodeId) -> Option<Arc<CrashDevice>> {
        self.crash_devices.get(&node).cloned()
    }

    /// The datalet currently registered for `node` (covers restarted and
    /// transition controlets, unlike the build-order `datalets` vec).
    pub fn datalet_of(&self, node: NodeId) -> Option<Arc<dyn Datalet>> {
        self.datalet_by_node.get(&node).cloned()
    }

    /// Restarts a previously killed node as a blank standby: a fresh
    /// controlet over a fresh (empty) datalet takes over the address. The
    /// new controlet announces itself via `StandbyAvailable` heartbeats;
    /// the coordinator re-registers it and re-replicates any short shard
    /// onto it through the normal recovery flow — all via real message
    /// traffic, no harness back-channel.
    pub fn restart_as_standby(&mut self, node: NodeId) {
        assert!(
            !self.sim.is_alive(Addr(node.raw())),
            "restart_as_standby({node}): node is still alive"
        );
        let engine = self.spec.engines[0];
        let datalet = engine.build();
        let cfg = self.wiring().config(node, ShardId(u32::MAX), 0, engine);
        let controlet = Controlet::new(cfg, Arc::clone(&datalet));
        // Standbys are not registered with the fast path: they learn their
        // shard only at StartRecovery, and a handle's shard is fixed at
        // registration. Their reads simply take the actor loop.
        self.sim.revive(Addr(node.raw()), Box::new(controlet));
        self.datalet_by_node.insert(node, Arc::clone(&datalet));
        self.datalets[node.raw() as usize] = datalet;
    }

    /// Restarts a previously killed node *from its local durable state*
    /// (durability specs only): reopens the node's crash device, truncates
    /// any torn tail, replays the surviving log into a fresh engine, and
    /// revives the controlet as a standby that advertises the recovered
    /// version floor. When the coordinator reassigns it to its old shard,
    /// recovery delta-syncs only the writes above the floor instead of
    /// pulling a full snapshot. Returns the local replay report.
    pub fn restart_from_disk(&mut self, node: NodeId) -> RecoveryReport {
        assert!(
            !self.sim.is_alive(Addr(node.raw())),
            "restart_from_disk({node}): node is still alive"
        );
        let d = self
            .spec
            .durability
            .expect("restart_from_disk requires ClusterSpec::with_durability");
        let dev = Arc::clone(
            self.crash_devices
                .get(&node)
                .unwrap_or_else(|| panic!("no crash device for {node}")),
        );
        let shard = *self
            .shard_of_node
            .get(&node)
            .unwrap_or_else(|| panic!("{node} was never assigned a shard"));
        let (datalet, report) = d.recover_engine(dev);
        let mut cfg =
            self.wiring()
                .config(node, ShardId(u32::MAX), shard.raw() as usize, d.engine);
        // The floor is only meaningful if the coordinator sends the node
        // back to its old shard AND the topology keeps log order = version
        // order; the controlet's StartRecovery handler checks both and
        // falls back to a full snapshot otherwise.
        cfg.recovered = Some(RecoveredLocal {
            shard,
            floor: report.delta_floor(),
        });
        let controlet = Controlet::new(cfg, Arc::clone(&datalet));
        self.sim.revive(Addr(node.raw()), Box::new(controlet));
        self.datalet_by_node.insert(node, Arc::clone(&datalet));
        self.datalets[node.raw() as usize] = datalet;
        report
    }

    /// Injects a failure notification directly (deterministic failover in
    /// tests, instead of waiting for heartbeat silence).
    pub fn declare_failed(&mut self, node: NodeId) {
        self.sim
            .actor_mut::<CoordinatorActor>(self.coordinator)
            .core_mut()
            .fail_node(node);
        self.flush_coordinator();
    }

    /// Sends the coordinator's queued directives (after driving its core
    /// directly from the harness).
    fn flush_coordinator(&mut self) {
        let directives = self
            .sim
            .actor_mut::<CoordinatorActor>(self.coordinator)
            .core_mut()
            .take_directives();
        for d in directives {
            self.sim.inject(self.coordinator, d.to, d.msg);
        }
    }

    /// Spawns new controlets over the *same datalets* of `shard` and starts
    /// a transition to `new_mode` (section V: controlets are replaced, the
    /// datalets stay). Returns the new node ids.
    pub fn start_transition(&mut self, shard: ShardId, new_mode: Mode) -> Vec<NodeId> {
        let current = self
            .sim
            .actor_mut::<CoordinatorActor>(self.coordinator)
            .core()
            .map()
            .shard(shard)
            .expect("shard exists")
            .clone();
        let mut new_nodes = Vec::new();
        for (pos, &old) in current.replicas.iter().enumerate() {
            let datalet = Arc::clone(&self.datalets[old.raw() as usize]);
            // Address is assigned by the simulator; NodeId must match it.
            let probe = NodeId(self.sim.num_actors() as u32);
            let engine = self.spec.engines[pos % self.spec.engines.len()];
            let cfg = self.wiring().config(probe, shard, shard.raw() as usize, engine);
            let controlet = Controlet::new(cfg, Arc::clone(&datalet));
            // Register the replacement controlets with the fast path. Their
            // gates stay closed until they adopt the post-transition shard
            // info, so reads keep falling back to the actor until then.
            self.fast_path.register(
                probe,
                fast_path_handle(&controlet, &datalet, shard, new_mode.consistency),
            );
            let addr = self.sim.add_actor(Box::new(controlet));
            assert_eq!(addr.0, probe.raw());
            self.datalet_by_node.insert(probe, Arc::clone(&datalet));
            self.datalets.push(datalet);
            new_nodes.push(probe);
        }
        let target = ShardInfo {
            shard,
            mode: new_mode,
            replicas: new_nodes.clone(),
            epoch: current.epoch + 1,
        };
        self.sim.inject(
            Addr(u32::MAX),
            self.coordinator,
            NetMsg::Coord(CoordMsg::BeginTransition { shard, target }),
        );
        new_nodes
    }

}

impl SimCluster {
    /// Runs the cluster for a span of virtual time.
    pub fn run_for(&mut self, span: Duration) {
        self.sim.run_for(span);
    }

    /// Merged statistics across all clients.
    pub fn collect_stats(&mut self, window: Duration) -> crate::metrics::RunStats {
        let mut latency = crate::metrics::LatencyHistogram::new();
        let mut completed = 0;
        let mut errors = 0;
        let mut timeline: Option<crate::metrics::Timeline> = None;
        for &addr in &self.clients.clone() {
            let c = self.sim.actor_mut::<WorkloadClient>(addr);
            let s = c.stats();
            completed += s.completed;
            errors += s.errors;
            latency.merge(&s.latency);
            match &mut timeline {
                Some(t) => t.merge(&s.timeline),
                None => timeline = Some(s.timeline.clone()),
            }
        }
        crate::metrics::RunStats {
            completed,
            errors,
            window,
            latency,
            timeline: timeline
                .unwrap_or_else(|| crate::metrics::Timeline::new(Duration::from_millis(500))),
        }
    }
}
