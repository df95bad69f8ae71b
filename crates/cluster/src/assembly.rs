//! One assembly for both runtimes.
//!
//! [`assemble`] wires the deployment a [`ClusterSpec`] describes —
//! controlets over datalets, standbys, coordinator, DLM, one shared log per
//! shard — and hands every actor to the caller's `spawn`. The simulator and
//! the live runtime differ only in that closure and in what surrounds it
//! (network model and bounce rule there, mailbox cap here), so a spec means
//! the same cluster on both.
//!
//! Address layout (the coordinator's `NodeId(n) == Addr(n)` convention):
//!
//! ```text
//! [0 .. shards*replication)             controlet-datalet pairs
//! [.. + standbys)                       standby pairs
//! next                                  coordinator
//! next                                  DLM
//! next .. + shards                      shared logs, one per shard
//! remainder                             clients / transition controlets
//! ```

use crate::builder::{cost_for, ClusterSpec};
use crate::edge::{FastPathHandle, FastPathTable};
use crate::script::{ScriptClient, Step};
use bespokv::client::ClientCore;
use bespokv::controlet::{Controlet, ControletConfig};
use bespokv_coordinator::CoordinatorActor;
use bespokv_datalet::{CrashDevice, Datalet, EngineKind, MemDevice};
use bespokv_dlm::DlmActor;
use bespokv_runtime::{Actor, Addr};
use bespokv_sharedlog::SharedLogActor;
use bespokv_types::{
    Consistency, Duration, HistoryRecorder, NodeId, OverloadCounters, ShardId, ShardMap,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The handles every controlet of one deployment is configured with.
pub(crate) struct Wiring<'a> {
    pub spec: &'a ClusterSpec,
    pub coordinator: Addr,
    pub dlm: Addr,
    pub shared_logs: &'a [Addr],
    pub recorder: &'a Option<HistoryRecorder>,
    pub counters: &'a Arc<OverloadCounters>,
}

impl Wiring<'_> {
    /// The config of a controlet for `node`. `shard` is what the controlet
    /// is told it serves (`ShardId(u32::MAX)` for a standby, which learns
    /// its shard at StartRecovery); `log` picks the shared-log instance.
    pub fn config(
        &self,
        node: NodeId,
        shard: ShardId,
        log: usize,
        engine: EngineKind,
    ) -> ControletConfig {
        let spec = self.spec;
        let mut cfg = ControletConfig::new(node, shard, self.coordinator);
        cfg.dlm = Some(self.dlm);
        cfg.shared_log = Some(self.shared_logs[log % self.shared_logs.len()]);
        cfg.cost = cost_for(engine);
        cfg.heartbeat_every = spec.heartbeat_every;
        cfg.prop_flush_every = spec.prop_flush_every;
        cfg.log_poll_every = spec.log_poll_every;
        cfg.recorder = self.recorder.clone();
        cfg.counters = Arc::clone(self.counters);
        cfg.overload = spec.overload;
        cfg
    }
}

/// A controlet's fast-path handle. The gate, dirty set and op log must be
/// grabbed before the controlet moves into its runtime.
pub(crate) fn fast_path_handle(
    controlet: &Controlet,
    datalet: &Arc<dyn Datalet>,
    shard: ShardId,
    default_level: Consistency,
) -> FastPathHandle {
    FastPathHandle {
        gate: controlet.serving_gate(),
        dirty: controlet.dirty_keys(),
        datalet: Arc::clone(datalet),
        shard,
        default_level,
        writes: controlet.oplog(),
    }
}

/// A scripted client of either runtime: `core` plus the cluster's history
/// recorder, overload budget and hot-read spreading, over the shared
/// fast-path table.
pub(crate) fn script_client(
    spec: &ClusterSpec,
    mut core: ClientCore,
    recorder: &Option<HistoryRecorder>,
    counters: &Arc<OverloadCounters>,
    table: &Arc<FastPathTable>,
    script: Vec<Step>,
) -> ScriptClient {
    if let Some(rec) = recorder {
        core = core.with_history(rec.clone());
    }
    // The client half of the skew engine reports into the same counter
    // set as the edge half, so harness assertions see both routing and
    // caching decisions in one snapshot.
    let core = core
        .with_overload(spec.overload, Arc::clone(counters))
        .with_skew(spec.skew, table.skew().counters());
    ScriptClient::new(core, script, Arc::clone(table))
}

/// What [`assemble`] built, for the cluster handle of either runtime.
pub(crate) struct Assembled {
    /// The initial shard map, per-shard mode overrides applied.
    pub map: ShardMap,
    /// Controlet addresses, indexed by `NodeId` raw value.
    pub controlets: Vec<Addr>,
    pub standbys: Vec<Addr>,
    pub coordinator: Addr,
    pub dlm: Addr,
    /// One shared-log instance per shard (the paper: "we need to scale the
    /// Shared Log setup as BESPOKV scales").
    pub shared_logs: Vec<Addr>,
    /// Datalets, indexed like `controlets`, standbys at the end.
    pub datalets: Vec<Arc<dyn Datalet>>,
    pub recorder: Option<HistoryRecorder>,
    pub fast_path: Arc<FastPathTable>,
    pub overload_counters: Arc<OverloadCounters>,
    /// Per-node crash devices (durability specs only).
    pub crash_devices: HashMap<NodeId, Arc<CrashDevice>>,
    /// The shard each replica was built for.
    pub shard_of_node: HashMap<NodeId, ShardId>,
}

/// Builds every actor of `spec`'s deployment and passes it to `spawn`,
/// which must hand out addresses densely from 0 (both runtimes do).
pub(crate) fn assemble(
    spec: &ClusterSpec,
    spawn: &mut dyn FnMut(Box<dyn Actor>) -> Addr,
) -> Assembled {
    let mut map = ShardMap::dense(
        spec.shards,
        spec.replication,
        spec.mode,
        spec.partitioning.clone(),
    );
    for (i, &mode) in spec.per_shard_modes.iter().enumerate() {
        if let Some(info) = map.shard_mut(ShardId(i as u32)) {
            info.mode = mode;
        }
    }
    let num_nodes = spec.num_nodes();
    let coordinator = Addr(num_nodes + spec.standbys);
    let dlm = Addr(coordinator.0 + 1);
    let shared_logs: Vec<Addr> = (0..spec.shards)
        .map(|s| Addr(coordinator.0 + 2 + s))
        .collect();
    let recorder = spec.history.then(HistoryRecorder::new);
    let fast_path = Arc::new(FastPathTable::new(map.clone(), spec.skew));
    let overload_counters = Arc::new(OverloadCounters::new());
    let wiring = Wiring {
        spec,
        coordinator,
        dlm,
        shared_logs: &shared_logs,
        recorder: &recorder,
        counters: &overload_counters,
    };
    let mut crash_devices = HashMap::new();
    let mut shard_of_node = HashMap::new();
    let mut controlets = Vec::new();
    let mut datalets: Vec<Arc<dyn Datalet>> = Vec::new();
    for shard in 0..spec.shards {
        let info = map.shard(ShardId(shard)).expect("dense").clone();
        for (pos, &node) in info.replicas.iter().enumerate() {
            let engine = spec.engines[pos % spec.engines.len()];
            let datalet = match &spec.durability {
                Some(d) => {
                    let dev = Arc::new(CrashDevice::new(MemDevice::new(), d.device_seed(node)));
                    crash_devices.insert(node, Arc::clone(&dev));
                    d.build_engine(dev)
                }
                None => engine.build(),
            };
            shard_of_node.insert(node, ShardId(shard));
            let mut cfg = wiring.config(node, ShardId(shard), shard as usize, engine);
            cfg.p2p_forwarding = spec.p2p;
            let controlet = Controlet::with_info(cfg, Arc::clone(&datalet), info.clone())
                .with_cluster_map(map.clone());
            fast_path.register(
                node,
                fast_path_handle(&controlet, &datalet, ShardId(shard), info.mode.consistency),
            );
            let addr = spawn(Box::new(controlet));
            assert_eq!(addr.0, node.raw(), "address/NodeId convention broken");
            controlets.push(addr);
            datalets.push(datalet);
        }
    }
    // Standbys: fresh empty pairs awaiting StartRecovery, on the first
    // shared-log instance until they are assigned.
    let mut standbys = Vec::new();
    for i in 0..spec.standbys {
        let node = NodeId(num_nodes + i);
        let engine = spec.engines[0];
        let datalet = engine.build();
        let cfg = wiring.config(node, ShardId(u32::MAX), 0, engine);
        let addr = spawn(Box::new(Controlet::new(cfg, Arc::clone(&datalet))));
        assert_eq!(addr.0, node.raw());
        standbys.push(addr);
        datalets.push(datalet);
    }
    let mut coord = CoordinatorActor::new(spec.coord, map.clone());
    for i in 0..spec.standbys {
        coord.core_mut().add_standby(NodeId(num_nodes + i));
    }
    assert_eq!(spawn(Box::new(coord)), coordinator);
    let got = spawn(Box::new(DlmActor::new(
        spec.dlm_lease,
        Duration::from_millis(50),
    )));
    assert_eq!(got, dlm);
    for &expected in &shared_logs {
        assert_eq!(spawn(Box::new(SharedLogActor::new())), expected);
    }
    Assembled {
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
    }
}
