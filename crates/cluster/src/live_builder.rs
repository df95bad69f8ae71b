//! Cluster assembly on the live threaded runtime.
//!
//! The same actors the simulator executes — controlets, coordinator, DLM,
//! shared logs, scripted clients — here run on real OS threads with real
//! timers: an idle actor on the thread that sends to it, a busy or stalled
//! one on the thread already running it or its own home thread. This is
//! the deployment-shaped configuration:
//! correctness under true parallelism, wall-clock time, nondeterministic
//! interleavings.

use crate::assembly::{assemble, script_client, Assembled};
use crate::builder::ClusterSpec;
use crate::edge::{EdgeOverload, FastPathTable, NodeEdge};
use bespokv::client::ClientCore;
use bespokv_datalet::{CrashDevice, Datalet};
use bespokv_runtime::{Actor, Addr, LiveRuntime};
use bespokv_types::{
    ClientId, Duration, HistoryRecorder, NodeId, OverloadCounters, ShardMap, MAILBOX_CAP,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A cluster running on real threads.
pub struct LiveCluster {
    /// The runtime (spawn more actors, kill nodes, shut down).
    pub rt: LiveRuntime,
    /// Controlet addresses (`NodeId(n) == Addr(n)`).
    pub controlets: Vec<Addr>,
    /// Coordinator address.
    pub coordinator: Addr,
    /// Datalets, shared with the controlets.
    pub datalets: Vec<Arc<dyn Datalet>>,
    /// The initial map.
    pub map: ShardMap,
    /// The spec this cluster was built from.
    spec: ClusterSpec,
    next_client_id: u32,
    /// Per-client (completed-step counter, script length), registered at
    /// spawn time so progress is observable while the actor runs.
    script_progress: HashMap<Addr, (Arc<std::sync::atomic::AtomicUsize>, usize)>,
    /// Consistency-oracle recorder (present when the spec enabled history).
    recorder: Option<HistoryRecorder>,
    /// Shared fast-path table (read fast path, skew engine).
    fast_path: Arc<FastPathTable>,
    /// Cluster-wide overload counters.
    overload_counters: Arc<OverloadCounters>,
    /// Per-node crash devices (durability specs only); `kill_node` cuts
    /// their power.
    crash_devices: HashMap<NodeId, Arc<CrashDevice>>,
}

impl LiveCluster {
    /// Stands the cluster up on threads: the same assembly as
    /// `SimCluster::build`, spawned onto the live runtime.
    pub fn build(spec: ClusterSpec) -> Self {
        let mut rt = LiveRuntime::new();
        let Assembled {
            map,
            controlets,
            coordinator,
            datalets,
            recorder,
            fast_path,
            overload_counters,
            crash_devices,
            ..
        } = assemble(&spec, &mut |actor| rt.spawn(actor));
        rt.set_mailbox_cap(MAILBOX_CAP, Arc::clone(&overload_counters));
        LiveCluster {
            rt,
            controlets,
            coordinator,
            datalets,
            map,
            spec,
            next_client_id: 3000,
            script_progress: HashMap::new(),
            recorder,
            fast_path,
            overload_counters,
            crash_devices,
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

    /// The consistency-oracle recorder, when the spec enabled history.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.recorder.as_ref()
    }

    /// The shared fast-path table. Always `Some` (every cluster is
    /// assembled with one); the `Option` keeps existing callers compiling.
    pub fn fast_path(&self) -> Option<&Arc<FastPathTable>> {
        Some(&self.fast_path)
    }

    /// Binds a real TCP edge for `node`: a fresh [`NodeEdge`] relaying
    /// into the node's controlet, served by a `TcpServer` on an ephemeral
    /// local port speaking the binary protocol. Server caps (connection
    /// slab, pipeline budget, reactor sizing) and relay-side overload
    /// protection come from the spec's overload config. `serve_fast_path:
    /// false` routes every GET through the actor (the relay baseline).
    pub fn tcp_edge(
        &mut self,
        node: NodeId,
        serve_fast_path: bool,
    ) -> (NodeEdge, bespokv_runtime::tcp::TcpServer) {
        let clock = self.rt.clock();
        let edge = NodeEdge::new(
            node,
            Arc::clone(&self.fast_path),
            &mut self.rt,
            serve_fast_path,
            EdgeOverload {
                cfg: self.spec.overload,
                counters: Arc::clone(&self.overload_counters),
                clock,
            },
        );
        let parser_factory: Arc<bespokv_runtime::tcp::ParserFactory> = Arc::new(|| {
            Box::new(bespokv_proto::parser::BinaryParser::new())
                as Box<dyn bespokv_proto::parser::ProtocolParser>
        });
        // Deferred completion: a relayed request parks its *connection*,
        // not the reactor thread — a wedged controlet cannot absorb them.
        let server = bespokv_runtime::tcp::TcpServer::bind_deferred(
            "127.0.0.1:0",
            parser_factory,
            edge.defer_handler(),
            self.spec.edge_server_options(),
        )
        .expect("bind tcp edge");
        (edge, server)
    }

    /// Wedges a node for `dur`: its controlet thread freezes completely
    /// (no inbound messages, no timers), then resumes. A gray-failure
    /// stand-in — the process is alive and the OS accepts its traffic,
    /// but nothing makes progress.
    pub fn wedge_node(&self, node: NodeId, dur: std::time::Duration) {
        self.rt.wedge(Addr(node.raw()), dur);
    }

    /// Slows a node for `dur`: every message its controlet handles costs
    /// an extra `per_msg` of wall-clock.
    pub fn slow_node(&self, node: NodeId, dur: std::time::Duration, per_msg: std::time::Duration) {
        self.rt.slow(Addr(node.raw()), dur, per_msg);
    }

    /// Gray-partitions a node for `dur`: control traffic (heartbeats,
    /// replication, coordinator RPCs) flows normally but client requests
    /// are held until the window closes — the classic gray failure that
    /// fail-stop detectors never see.
    pub fn gray_node(&self, node: NodeId, dur: std::time::Duration) {
        self.rt.gray(Addr(node.raw()), dur);
    }

    /// Attaches a sequential scripted client; returns its address.
    pub fn add_script_client(&mut self, script: Vec<crate::script::Step>) -> Addr {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let core = ClientCore::new(id, self.coordinator)
            .with_request_timeout(Duration::from_millis(300));
        let client = script_client(
            &self.spec,
            core,
            &self.recorder,
            &self.overload_counters,
            &self.fast_path,
            script,
        );
        let progress = client.progress_handle();
        let len = client.script_len();
        let addr = self.rt.spawn(Box::new(client));
        self.script_progress.insert(addr, (progress, len));
        addr
    }

    /// Crashes a node (with a durability spec, a power cut on its device
    /// too, as `SimCluster::kill_node` does).
    pub fn kill_node(&mut self, node: NodeId) -> Option<Box<dyn Actor>> {
        // Close the gate first: edge threads mid-read must fail seqlock
        // validation rather than serve on behalf of a dead node.
        self.fast_path.close(node);
        self.fast_path.unregister(node);
        let actor = self.rt.kill(Addr(node.raw()));
        if let Some(dev) = self.crash_devices.get(&node) {
            dev.crash().expect("crash cut on an in-memory device");
        }
        actor
    }

    /// Stops a client and returns its recorded results.
    pub fn take_script_results(
        &mut self,
        client: Addr,
    ) -> Vec<Result<bespokv_proto::RespBody, bespokv_types::KvError>> {
        let mut actor = self.rt.kill(client).expect("client alive");
        actor
            .as_any()
            .downcast_mut::<crate::script::ScriptClient>()
            .expect("script client")
            .results
            .clone()
    }

    /// Waits (wall-clock) until the client has completed every scripted
    /// step or the timeout expires. Returns whether it finished — callers
    /// must check, a `false` means the script is still mid-run.
    pub fn wait_for_script(&mut self, client: Addr, timeout: std::time::Duration) -> bool {
        let Some((progress, len)) = self.script_progress.get(&client) else {
            return false;
        };
        let (progress, len) = (Arc::clone(progress), *len);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if progress.load(std::sync::atomic::Ordering::Acquire) >= len {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}
