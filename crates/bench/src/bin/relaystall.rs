//! Relay-stall bench: healthy-node goodput while a peer controlet is
//! wedged solid for 2 seconds.
//!
//! The gray-failure scenario the nonblocking relay exists for: node 0's
//! edge relays every request into a controlet that stops making progress
//! (alive, accepting TCP, heartbeating — just not working). If a parked
//! relay held a server thread, one wedged node could absorb the whole
//! reactor pool and take healthy traffic down with it. A parked relay is
//! a table entry: the bench wedges node 0, parks a burst of relays on it,
//! and measures node 1's read goodput during the wedge against its own
//! unwedged baseline — the acceptance floor is a 0.9x ratio with zero
//! extra threads blocked.
//!
//! Produces `BENCH_relaystall.json` on stdout. Run with
//! `cargo run --release --bin relaystall > BENCH_relaystall.json`.

use bespokv_cluster::edge::{EdgeOverload, NodeEdge};
use bespokv_cluster::{ClusterSpec, LiveCluster};
use bespokv_proto::client::{Op, Request, Response};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{ServerOptions, TcpClient, TcpServer};
use bespokv_types::{
    ClientId, Duration, Key, Mode, NodeId, OverloadCounters, RequestId, Value,
};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;
use std::time::Instant;

/// Client threads driving the healthy node.
const THREADS: usize = 4;
/// Pipeline depth per client thread.
const DEPTH: usize = 32;
/// Keys in the working set.
const KEYS: usize = 16;
/// Measurement window, chosen to fit inside the 2 s wedge.
const MEASURE_MS: u64 = 1_500;
/// Relays parked on the wedged node during the measurement.
const PARKED: usize = 64;
/// The wedge itself.
const WEDGE_MS: u64 = 2_000;

fn parser_factory() -> Arc<bespokv_runtime::tcp::ParserFactory> {
    Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>)
}

fn req(client: u32, seq: u32, op: Op) -> Request {
    Request::new(RequestId::compose(ClientId(client), seq), op)
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn reactor_edge(
    cluster: &mut LiveCluster,
    node: u32,
    fast_path: bool,
    counters: Arc<OverloadCounters>,
) -> (NodeEdge, TcpServer) {
    let table = Arc::clone(cluster.fast_path().expect("fast path enabled"));
    let edge = NodeEdge::new(NodeId(node), table, cluster.rt.register_mailbox(), fast_path)
        .with_overload(EdgeOverload {
            relay_cap: 0,
            relay_timeout: Duration::from_secs(5),
            relay_stall_threshold: Duration::from_millis(500),
            counters,
            clock: cluster.rt.clock(),
        });
    let server = TcpServer::bind_deferred(
        "127.0.0.1:0",
        parser_factory(),
        edge.defer_handler(),
        ServerOptions::default(),
    )
    .unwrap();
    (edge, server)
}

/// Drives pipelined GETs at `addr` from THREADS threads for the window;
/// returns completed ops.
fn drive(addr: std::net::SocketAddr, window_ms: u64) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
                let mut done = 0u64;
                let mut seq = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<Request> = (0..DEPTH)
                        .map(|_| {
                            seq += 1;
                            req(
                                100 + t as u32,
                                seq,
                                Op::Get { key: Key::from(format!("k{}", seq as usize % KEYS)) },
                            )
                        })
                        .collect();
                    let resps = c.call_pipelined(&batch).expect("healthy pipeline");
                    done += resps.iter().filter(|r| r.result.is_ok()).count() as u64;
                }
                done
            })
        })
        .collect();
    std::thread::sleep(StdDuration::from_millis(window_ms));
    stop.store(true, Ordering::Relaxed);
    workers.into_iter().map(|w| w.join().unwrap()).sum()
}

fn send_raw(addr: std::net::SocketAddr, req: &Request) -> std::net::TcpStream {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    let mut parser = BinaryParser::new();
    let mut buf = BytesMut::new();
    parser.encode_request(req, &mut buf);
    s.write_all(&buf).unwrap();
    s
}

fn read_response(s: &mut std::net::TcpStream) -> Response {
    let mut parser = BinaryParser::new();
    let mut buf = [0u8; 256];
    loop {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before replying");
        parser.feed(&buf[..n]);
        if let Some(resp) = parser.next_response().unwrap() {
            return resp;
        }
    }
}

fn main() {
    let counters = Arc::new(OverloadCounters::new());
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::AA_EC).with_fast_path());
    let (wedged_edge, wedged_srv) =
        reactor_edge(&mut cluster, 0, false, Arc::clone(&counters));
    let (_healthy_edge, healthy_srv) =
        reactor_edge(&mut cluster, 1, true, Arc::clone(&counters));

    // Seed through the healthy node (AA accepts writes anywhere).
    let mut seeder =
        TcpClient::connect(healthy_srv.local_addr(), Box::new(BinaryParser::new())).unwrap();
    for i in 0..KEYS as u32 {
        let resp = seeder
            .call(&req(99, i, Op::Put {
                key: Key::from(format!("k{i}")),
                value: Value::from("v"),
            }))
            .unwrap();
        assert!(resp.result.is_ok(), "seed put: {:?}", resp.result);
    }

    // Warm-up, then the unwedged baseline.
    drive(healthy_srv.local_addr(), 300);
    let baseline_ops = drive(healthy_srv.local_addr(), MEASURE_MS);
    let threads_before = thread_count();

    // Wedge node 0, park a relay burst on it, measure again mid-wedge.
    cluster.wedge_node(NodeId(0), StdDuration::from_millis(WEDGE_MS));
    let mut held: Vec<std::net::TcpStream> = (0..PARKED)
        .map(|i| {
            send_raw(
                wedged_srv.local_addr(),
                &req(98, i as u32, Op::Get { key: Key::from("k0") }),
            )
        })
        .collect();
    let deadline = Instant::now() + StdDuration::from_secs(2);
    while wedged_edge.parked() < PARKED && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(5));
    }
    let parked_mid_wedge = wedged_edge.parked();
    let wedged_ops = drive(healthy_srv.local_addr(), MEASURE_MS);
    let threads_during = thread_count();

    // The wedge releases inside the 5 s relay budget: every parked relay
    // must complete rather than leak.
    let mut relays_completed = 0usize;
    for s in held.iter_mut() {
        if read_response(s).result.is_ok() {
            relays_completed += 1;
        }
    }

    let baseline_qps = baseline_ops as f64 / (MEASURE_MS as f64 / 1000.0);
    let wedged_qps = wedged_ops as f64 / (MEASURE_MS as f64 / 1000.0);
    let snap = counters.snapshot();
    println!(
        "{{\"threads\":{THREADS},\"depth\":{DEPTH},\"measure_ms\":{MEASURE_MS},\
         \"wedge_ms\":{WEDGE_MS},\"parked_target\":{PARKED},\
         \"parked_mid_wedge\":{parked_mid_wedge},\
         \"relays_completed\":{relays_completed},\
         \"baseline_qps\":{baseline_qps:.0},\"wedged_qps\":{wedged_qps:.0},\
         \"goodput_ratio\":{:.3},\
         \"threads_before\":{threads_before},\"threads_during\":{threads_during},\
         \"relay_expired\":{},\"stall_trips\":{},\"stall_fastfails\":{}}}",
        wedged_qps / baseline_qps,
        snap.relay_expired,
        snap.stall_trips,
        snap.stall_fastfails,
    );

    drop(wedged_srv);
    drop(healthy_srv);
    cluster.rt.shutdown();
}
