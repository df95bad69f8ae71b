//! The system under test. Every call from the benchmark into a workspace
//! crate is in this file, so the API surface the benchmark pins can be read
//! in one place: cluster build, preload, edge bind, the wire codec, the
//! counters, and the direct-call rungs of the layer ladder.

use crate::check::{stamp, VALUE_LEN};
use crate::stats::median_ns_per_call;
use crate::trace::{Tracer, NONE};
use bespokv::{DirtySet, ServingState};
use bespokv_cluster::{ClusterSpec, FastPathTable, LiveCluster, NodeEdge};
use bespokv_datalet::{Datalet, EngineKind, DEFAULT_TABLE};
use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{Handler, ParserFactory, ServerOptions, TcpServer, TransportKind};
use bespokv_types::{
    ClientId, Consistency, Key, KeySketch, KvError, Mode, NodeId, OverloadConfig, RequestId,
    SkewConfig, Value, VersionedValue,
};
use bespokv_workloads::ycsb::make_key;
use bespokv_workloads::{Distribution, Mix, Workload, WorkloadConfig};
use bytes::BytesMut;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;

/// Paper sizes: 16-byte keys, 32-byte values.
pub const KEY_LEN: usize = 16;
/// Replicas of the one shard; node ids are `0..REPLICAS`.
pub const REPLICAS: usize = 3;
/// The one profile every workload runs on, for the result stamp.
pub const PROFILE: &str = "LiveCluster 1 shard x 3 replicas, tHT, with_skew(default) + with_write_combine + \
     with_overload(default), tcp_edge(node, true) per replica, binary codec, loopback, no injected delay, no durable engine";
/// The edge transport the benchmark insists on.
pub const TRANSPORT: &str = "reactor";

const CLIENT: ClientId = ClientId(7001);
/// Calls per timing batch of a direct rung.
const BATCH: usize = 100;

/// Must run before the first edge is bound and before any thread is
/// spawned: `LiveCluster::tcp_edge` takes its transport from the process
/// environment.
pub fn select_transport() {
    std::env::set_var("BESPOKV_EDGE", TRANSPORT);
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModeSel {
    MsSc,
    MsEc,
    AaSc,
}

impl ModeSel {
    fn mode(self) -> Mode {
        match self {
            ModeSel::MsSc => Mode::MS_SC,
            ModeSel::MsEc => Mode::MS_EC,
            ModeSel::AaSc => Mode::AA_SC,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ModeSel::MsSc => "MS+SC",
            ModeSel::MsEc => "MS+EC",
            ModeSel::AaSc => "AA+SC",
        }
    }

    /// Whether a read must observe every acknowledged write.
    pub fn strong(self) -> bool {
        self != ModeSel::MsEc
    }

    /// Whether writes have one ingress (head / master) and reads another.
    pub fn master_slave(self) -> bool {
        self != ModeSel::AaSc
    }
}

/// One generated operation. The key stays inside so that only this file
/// handles workspace types.
pub struct GenOp {
    pub put: bool,
    pub rank: u64,
    key: Key,
}

impl GenOp {
    /// Rebuilds an op from what a pending-request slot remembers (replays).
    pub fn rebuild(put: bool, rank: u64) -> GenOp {
        GenOp {
            put,
            rank,
            key: make_key(rank, KEY_LEN),
        }
    }
}

/// The rank `make_key` wrote into a key: "user", then the zero-padded
/// decimal rank.
fn rank_of(key: &Key) -> u64 {
    key.as_bytes()[4..]
        .iter()
        .fold(0, |rank, digit| rank * 10 + u64::from(digit - b'0'))
}

/// The seeded op stream: `bespokv_workloads::Workload` over the paper's key
/// and value sizes.
pub struct OpStream {
    workload: Workload,
}

impl OpStream {
    pub fn new(keys: u64, get_share: f64, zipf: bool, seed: u64) -> Self {
        let distribution = if zipf {
            Distribution::Zipfian
        } else {
            Distribution::Uniform
        };
        OpStream {
            workload: Workload::new(WorkloadConfig {
                num_keys: keys,
                key_len: KEY_LEN,
                value_len: VALUE_LEN,
                mix: Mix::read_write(get_share),
                distribution,
                scan_len: 0,
                seed,
            }),
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let (put, key) = match self.workload.next_op() {
            Op::Get { key } => (false, key),
            // The generated value is dropped: the harness stamps its own.
            Op::Put { key, .. } => (true, key),
            other => unreachable!("a GET/PUT mix generated {}", other.name()),
        };
        GenOp {
            put,
            rank: rank_of(&key),
            key,
        }
    }
}

/// The client-side hot-key sketch that decides read spreading (what
/// `ClientCore::with_skew` keeps per client).
pub struct ClientSketch(KeySketch);

impl ClientSketch {
    pub fn new() -> Self {
        ClientSketch(KeySketch::new(&SkewConfig::default()))
    }

    pub fn record_is_hot(&self, op: &GenOp) -> bool {
        self.0.record(&op.key);
        self.0.is_hot(&op.key)
    }
}

fn request(seq: u32, op: &GenOp, seq_stamp: u64) -> Request {
    let key = op.key.clone();
    let op = if op.put {
        Op::Put {
            key,
            value: Value::from(stamp(op.rank, seq_stamp).to_vec()),
        }
    } else {
        Op::Get { key }
    };
    Request::new(RequestId::compose(CLIENT, seq), op)
}

/// Client side of the binary codec, sending half: frames requests into
/// `out`, which the caller writes to a socket and clears.
pub struct Encoder {
    parser: BinaryParser,
    pub out: BytesMut,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder {
            parser: BinaryParser::new(),
            out: BytesMut::with_capacity(64 * 1024),
        }
    }

    /// Appends the request for `op`; a PUT carries `stamp(op.rank, seq)`.
    pub fn push(&mut self, seq: u32, op: &GenOp) {
        self.parser
            .encode_request(&request(seq, op, u64::from(seq)), &mut self.out);
    }
}

/// What came back for one request.
pub enum ReplyBody {
    /// A PUT was acknowledged.
    Done,
    /// A GET's value; `None` when it is not 32 bytes long.
    Value(Option<[u8; VALUE_LEN]>),
    NotFound,
    /// The node does not serve this request; the hint names one that does.
    WrongNode(Option<u32>),
    /// Shed before execution.
    Overloaded,
    /// Any other error reply.
    Error,
}

pub struct Reply {
    pub seq: u32,
    pub body: ReplyBody,
}

/// Client side of the binary codec, receiving half.
pub struct Decoder {
    parser: BinaryParser,
}

impl Decoder {
    pub fn new() -> Self {
        Decoder {
            parser: BinaryParser::new(),
        }
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        self.parser.feed(bytes);
    }

    /// The next complete reply; `Err` on a malformed stream.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, String> {
        let Some(resp) = self.parser.next_response().map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        let body = match resp.result {
            Ok(RespBody::Done) => ReplyBody::Done,
            Ok(RespBody::Value(v)) => ReplyBody::Value(v.value.as_bytes().try_into().ok()),
            Ok(RespBody::Entries(_)) => ReplyBody::Error,
            Err(KvError::NotFound) => ReplyBody::NotFound,
            Err(KvError::WrongNode { hint, .. }) => ReplyBody::WrongNode(hint.map(NodeId::raw)),
            Err(KvError::Overloaded) => ReplyBody::Overloaded,
            Err(_) => ReplyBody::Error,
        };
        Ok(Some(Reply {
            seq: resp.id.seq(),
            body,
        }))
    }
}

fn binary_parsers() -> Arc<ParserFactory> {
    Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>)
}

/// Existing public counters, read before and after a phase.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub fast_hits: u64,
    pub fast_fallbacks: u64,
    pub comb_ops: u64,
    pub comb_batches: u64,
    pub comb_lock_contention: u64,
    pub comb_window_waits: u64,
    pub comb_shed: u64,
    pub skew_hot_lookups: u64,
    pub skew_cache_hits: u64,
    pub skew_coalesced: u64,
    pub overload_shed: u64,
    pub edge_refused: u64,
    pub edge_pipeline_shed: u64,
}

impl Counters {
    /// Adds `later - earlier` into `self`.
    pub fn add_delta(&mut self, earlier: &Counters, later: &Counters) {
        macro_rules! acc {
            ($($f:ident),*) => { $( self.$f += later.$f - earlier.$f; )* };
        }
        acc!(
            fast_hits,
            fast_fallbacks,
            comb_ops,
            comb_batches,
            comb_lock_contention,
            comb_window_waits,
            comb_shed,
            skew_hot_lookups,
            skew_cache_hits,
            skew_coalesced,
            overload_shed,
            edge_refused,
            edge_pipeline_shed
        );
    }
}

/// The armed three-replica cluster with one reactor TCP edge per replica.
pub struct Sut {
    cluster: LiveCluster,
    table: Arc<FastPathTable>,
    edges: Vec<(NodeEdge, TcpServer)>,
    mode: ModeSel,
}

impl Sut {
    /// "Everything armed", one shard of three tHT replicas.
    pub fn build(mode: ModeSel) -> Sut {
        let spec = ClusterSpec::new(1, REPLICAS as u32, mode.mode())
            .with_skew(SkewConfig::default())
            .with_write_combine()
            .with_overload(OverloadConfig::default());
        let cluster = LiveCluster::build(spec);
        let table = Arc::clone(
            cluster
                .fast_path()
                .expect("with_skew builds the fast-path table"),
        );
        Sut {
            cluster,
            table,
            edges: Vec::new(),
            mode,
        }
    }

    /// Stores every key at version 1 straight into each replica's datalet
    /// (what `SimCluster::preload` does), stamped as seq 0.
    pub fn preload(&self, keys: u64) {
        preload_into(&self.cluster.datalets[..REPLICAS], keys);
    }

    /// Binds one edge per replica and returns their addresses by node id.
    pub fn bind(&mut self) -> [SocketAddr; REPLICAS] {
        for node in 0..REPLICAS as u32 {
            let (edge, server) = self.cluster.tcp_edge(NodeId(node), true);
            assert_eq!(
                server.transport_kind(),
                TransportKind::Reactor,
                "edge must run on the reactor"
            );
            self.edges.push((edge, server));
        }
        std::array::from_fn(|n| self.edges[n].1.local_addr())
    }

    /// Routes every request of `node`'s edge through the controlet actor
    /// (`false`) or lets the gate serve it (`true`).
    pub fn set_fast_path(&self, node: usize, on: bool) {
        self.edges[node].0.set_fast_path(on);
    }

    pub fn counters(&self) -> Counters {
        let comb = self.table.combiner_snapshot();
        let skew = self.table.skew_snapshot();
        let mut c = Counters {
            fast_hits: self.table.total_hits(),
            fast_fallbacks: self.table.total_fallbacks(),
            comb_ops: comb.ops,
            comb_batches: comb.batches,
            comb_lock_contention: comb.lock_contention,
            comb_window_waits: comb.window_waits,
            comb_shed: comb.shed_full + comb.shed_expired + comb.shed_window,
            skew_hot_lookups: skew.hot_lookups,
            skew_cache_hits: skew.cache_hits,
            skew_coalesced: skew.coalesced,
            overload_shed: self.cluster.overload_counters().snapshot().total_shed(),
            ..Counters::default()
        };
        for (_, server) in &self.edges {
            let s = server.stats();
            c.edge_refused += s.connections_refused;
            c.edge_pipeline_shed += s.pipeline_shed;
        }
        c
    }

    /// What replica `node` holds for the key of `rank`, if it is 32 bytes.
    pub fn replica_value(&self, node: usize, rank: u64) -> Option<[u8; VALUE_LEN]> {
        let v = self.cluster.datalets[node]
            .get(DEFAULT_TABLE, &make_key(rank, KEY_LEN))
            .ok()?;
        v.value.as_bytes().try_into().ok()
    }

    /// Stops the edges, then the actors, and waits for their threads.
    pub fn shutdown(self) {
        for (edge, server) in self.edges {
            server.stop();
            drop(edge);
        }
        self.cluster.rt.shutdown();
    }

    /// The rungs of the layer ladder that call a layer's public functions
    /// directly, on this workload's keys (`ops`, at least `calls` of them)
    /// and this cluster. Returns `(metric, value)`; each rung is one span.
    pub fn direct_rungs(
        &self,
        ops: &[GenOp],
        calls: usize,
        keys: u64,
        tr: &mut Tracer,
    ) -> Vec<(&'static str, f64)> {
        assert!(ops.len() >= calls && calls >= BATCH);
        let batches = calls / BATCH;
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        let rung = |name: &'static str, tr: &mut Tracer, f: &mut dyn FnMut(usize)| {
            let span = tr.begin(name, NONE, 0);
            let ns = median_ns_per_call(batches, BATCH, |i| f(i % ops.len()));
            tr.end(span);
            (name, ns)
        };

        // Codec: the requests and replies this workload puts on the wire.
        let reqs: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| request(i as u32, op, i as u64))
            .collect();
        let resps: Vec<Response> = ops
            .iter()
            .zip(&reqs)
            .map(|(op, req)| {
                let body = if op.put {
                    RespBody::Done
                } else {
                    RespBody::Value(VersionedValue::new(
                        Value::from(stamp(op.rank, 0).to_vec()),
                        1,
                    ))
                };
                Response::ok(req.id, body)
            })
            .collect();
        let mut parser = BinaryParser::new();
        let mut wire = BytesMut::with_capacity(1 << 20);
        let frame_ends =
            |wire: &mut BytesMut, encode: &mut dyn FnMut(usize, &mut BytesMut)| -> Vec<usize> {
                wire.clear();
                (0..ops.len())
                    .map(|i| {
                        encode(i, wire);
                        wire.len()
                    })
                    .collect()
            };

        let mut scratch = BytesMut::with_capacity(64 * 1024);
        out.push(rung("proto.encode_req_ns", tr, &mut |i| {
            if i % BATCH == 0 {
                scratch.clear();
            }
            parser.encode_request(&reqs[i], &mut scratch);
        }));
        let mut framer = BinaryParser::new();
        let ends = frame_ends(&mut wire, &mut |i, w| framer.encode_request(&reqs[i], w));
        out.push((
            "proto.req_bytes_per_op",
            wire.len() as f64 / ops.len() as f64,
        ));
        out.push(rung("proto.decode_req_ns", tr, &mut |i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            parser.feed(&wire[start..ends[i]]);
            black_box(parser.next_request().expect("own frame decodes"));
        }));
        out.push(rung("proto.encode_resp_ns", tr, &mut |i| {
            if i % BATCH == 0 {
                scratch.clear();
            }
            parser.encode_response(&resps[i], &mut scratch);
        }));
        let ends = frame_ends(&mut wire, &mut |i, w| framer.encode_response(&resps[i], w));
        out.push((
            "proto.resp_bytes_per_op",
            wire.len() as f64 / ops.len() as f64,
        ));
        out.push(rung("proto.decode_resp_ns", tr, &mut |i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            parser.feed(&wire[start..ends[i]]);
            black_box(parser.next_response().expect("own frame decodes"));
        }));

        // Routing vocabulary.
        let sketch = KeySketch::new(&SkewConfig::default());
        out.push(rung("types.sketch_record_ns", tr, &mut |i| {
            sketch.record(&ops[i].key);
            black_box(sketch.is_hot(&ops[i].key));
        }));
        out.push(rung("types.shard_for_key_ns", tr, &mut |i| {
            black_box(self.cluster.map.shard_for_key(&ops[i].key));
        }));

        // The engine alone, on a scratch copy preloaded like the replicas.
        let scratch_store = EngineKind::THt.build();
        preload_into(std::slice::from_ref(&scratch_store), keys);
        out.push(rung("datalet.get_ns", tr, &mut |i| {
            black_box(
                scratch_store
                    .get(DEFAULT_TABLE, &ops[i].key)
                    .expect("preloaded"),
            );
        }));
        let mut version = 1u64;
        out.push(rung("datalet.put_ns", tr, &mut |i| {
            version += 1;
            let value = Value::from(stamp(ops[i].rank, version).to_vec());
            scratch_store
                .put(DEFAULT_TABLE, ops[i].key.clone(), value, version)
                .expect("tHT put");
        }));

        // The read gate: the seqlock and dirty probes `try_get` makes
        // around its datalet read.
        let read_node = NodeId(REPLICAS as u32 - 1);
        let gate = self.table.gate(read_node).expect("replica registered");
        let dirty = DirtySet::new();
        let level = if self.mode.strong() {
            Consistency::Strong
        } else {
            Consistency::Eventual
        };
        out.push(rung("core.gate_read_ns", tr, &mut |i| {
            let key = &ops[i].key;
            let token = gate.begin_read();
            black_box(dirty.generation(key));
            black_box(ServingState::permit(token, level));
            black_box(dirty.is_dirty(key));
            black_box(gate.validate(token));
            black_box(dirty.is_dirty(key));
        }));

        // The whole gated read on the live table, no socket.
        let gets: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                Request::new(
                    RequestId::compose(CLIENT, i as u32),
                    Op::Get {
                        key: op.key.clone(),
                    },
                )
            })
            .collect();
        out.push(rung("cluster.try_get_ns", tr, &mut |i| {
            black_box(self.table.try_get(read_node, &gets[i]));
        }));
        out
    }
}

fn preload_into(stores: &[Arc<dyn Datalet>], keys: u64) {
    for rank in 0..keys {
        let key = make_key(rank, KEY_LEN);
        let value = Value::from(stamp(rank, 0).to_vec());
        for store in stores {
            store
                .put(DEFAULT_TABLE, key.clone(), value.clone(), 1)
                .expect("tHT put");
        }
    }
}

/// A reactor `TcpServer` that answers every frame at once: the socket floor
/// under every operation, on the same transport and frames as the edges.
pub struct Echo {
    server: TcpServer,
}

impl Echo {
    pub fn bind() -> (Echo, SocketAddr) {
        let handler: Arc<Handler> = Arc::new(|req: Request| {
            let body = match &req.op {
                // A well-formed value of the asked key, so the harness
                // checks echo replies like any other.
                Op::Get { key } => RespBody::Value(VersionedValue::new(
                    Value::from(stamp(rank_of(key), 0).to_vec()),
                    1,
                )),
                _ => RespBody::Done,
            };
            Response::ok(req.id, body)
        });
        let options = ServerOptions {
            transport: Some(TransportKind::Reactor),
            ..ServerOptions::default()
        };
        let server = TcpServer::bind_with("127.0.0.1:0", binary_parsers(), handler, options)
            .expect("bind echo server");
        let addr = server.local_addr();
        (Echo { server }, addr)
    }

    pub fn stop(self) {
        self.server.stop();
    }
}
