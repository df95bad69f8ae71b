//! Saturation probe: graceful degradation of the live TCP edge under
//! offered load past capacity.
//!
//! Stands up a real `LiveCluster` (MS+SC, one chain of three) with the
//! overload-protection stack at tight limits — per-turn pipeline budget,
//! bounded head in-flight window and edge relay table, actor mailbox
//! caps, deadline rejection — then drives the *write* path (every PUT
//! is relayed to the head's controlet actor, which orders it and runs
//! its chain replication on one thread) in three phases:
//!
//! 1. **peak**: moderate closed-loop load that fits capacity, to measure
//!    the achievable goodput baseline;
//! 2. **overload**: roughly double the client concurrency and pipeline
//!    depth. A protected server must keep goodput (accepted, committed
//!    PUTs per second) within 70% of peak, keep the latency of *accepted*
//!    requests bounded, and turn the excess into explicit
//!    `KvError::Overloaded` replies — never silent drops, never collapse;
//! 3. **deadline**: a burst stamped with already-expired deadlines, which
//!    must be rejected at the edge to the last request without touching
//!    the actor.
//!
//! Prints one JSON object; used to produce `BENCH_saturate.json`. Run
//! with `cargo run --release --bin saturate`.

use bespokv_cluster::{ClusterSpec, LiveCluster};
use bespokv_proto::client::{Op, Request};
use bespokv_proto::parser::BinaryParser;
use bespokv_runtime::tcp::TcpClient;
use bespokv_types::{ClientId, Key, KvError, Mode, NodeId, OverloadConfig, RequestId, Value};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u32 = 2048;
const MEASURE_MS: u64 = 800;
/// Requests served per connection per reactor turn (fairness, not shed).
const PIPELINE_CAP: usize = 32;
/// Writes in flight at the head at once; the shed point. It bounds both
/// the head's chain window (`head_window`) and the edge's relay table in
/// front of it (`relay_cap`). The peak phase's 2 x 16 in flight fit, the
/// overload phase's 4 x 128 do not.
const IN_FLIGHT_CAP: usize = 64;

fn key(i: u32) -> Key {
    Key::from(format!("user{i:012}"))
}

/// One phase of closed-loop PUT load: `threads` clients, each pipelining
/// `depth` requests per round trip, for [`MEASURE_MS`]. Overloaded replies
/// are the protocol working as designed and are counted, not failed on.
struct PhaseResult {
    ok: u64,
    shed: u64,
    other_err: u64,
    secs: f64,
}

impl PhaseResult {
    fn goodput(&self) -> f64 {
        self.ok as f64 / self.secs
    }
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.secs
    }
}

fn put_load(addr: std::net::SocketAddr, threads: u32, depth: usize, seq: &AtomicU32) -> PhaseResult {
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let base_seq = seq.fetch_add(1_000_000, Ordering::Relaxed);
            std::thread::spawn(move || {
                let mut client =
                    TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
                let (mut ok, mut shed, mut other) = (0u64, 0u64, 0u64);
                let mut n = base_seq;
                while !stop.load(Ordering::Acquire) {
                    let reqs: Vec<Request> = (0..depth)
                        .map(|_| {
                            n += 1;
                            Request::new(
                                RequestId::compose(ClientId(9100 + t), n),
                                Op::Put {
                                    key: key(n % KEYS),
                                    value: Value::from(format!("v{n:028}")),
                                },
                            )
                        })
                        .collect();
                    for resp in client.call_pipelined(&reqs).unwrap() {
                        match resp.result {
                            Ok(_) => ok += 1,
                            Err(KvError::Overloaded) => shed += 1,
                            Err(_) => other += 1,
                        }
                    }
                }
                (ok, shed, other)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(MEASURE_MS));
    stop.store(true, Ordering::Release);
    let (mut ok, mut shed, mut other) = (0u64, 0u64, 0u64);
    for w in workers {
        let (o, s, e) = w.join().unwrap();
        ok += o;
        shed += s;
        other += e;
    }
    PhaseResult {
        ok,
        shed,
        other_err: other,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Sequential unpipelined PUT probe running alongside an overload phase:
/// records the RTT of every *accepted* request, because the claim under
/// test is that admitted work keeps bounded latency while the excess is
/// shed.
fn probe_accepted_rtts(
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<f64>> {
    std::thread::spawn(move || {
        let mut client = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let mut rtts = Vec::new();
        let mut seq = 0u32;
        while !stop.load(Ordering::Acquire) {
            seq += 1;
            let req = Request::new(
                RequestId::compose(ClientId(9300), seq),
                Op::Put {
                    key: key(seq % KEYS),
                    value: Value::from("probe"),
                },
            );
            let t = Instant::now();
            if let Ok(resp) = client.call(&req) {
                if resp.result.is_ok() {
                    rtts.push(t.elapsed().as_nanos() as f64 / 1e6);
                }
            } else {
                break;
            }
        }
        rtts
    })
}

fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn main() {
    let ocfg = OverloadConfig {
        pipeline_cap: PIPELINE_CAP,
        relay_cap: IN_FLIGHT_CAP,
        head_window: IN_FLIGHT_CAP,
        ..OverloadConfig::default()
    };
    let mut cluster = LiveCluster::build(ClusterSpec::new(1, 3, Mode::MS_SC).with_overload(ocfg));
    let counters = cluster.overload_counters();
    // Deadlines are stamped against the clock the edge checks them with.
    let clock = cluster.rt.clock();

    // The head is the write ingress: every PUT is ordered and replicated
    // by its actor, which is the resource being saturated.
    let (head_edge, server) = cluster.tcp_edge(NodeId(0), false);
    let addr = server.local_addr();
    let seq = AtomicU32::new(0);

    // Phase 1 — peak: pipelines under the server cap, light concurrency.
    let peak = put_load(addr, 2, 16, &seq);
    assert!(peak.ok > 0, "peak phase made no progress");

    // Phase 2 — overload: ~2x the threads, 4x the pipeline depth. The
    // probe rides along to measure accepted-request latency.
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = probe_accepted_rtts(addr, Arc::clone(&probe_stop));
    let over = put_load(addr, 4, 128, &seq);
    probe_stop.store(true, Ordering::Release);
    let mut rtts = probe.join().unwrap();
    rtts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&rtts, 50), percentile(&rtts, 99));

    // Phase 3 — deadline: a burst stamped with an already-passed deadline
    // must be shed at the edge to the last request.
    let expired_before = counters.snapshot().deadline_expired;
    let mut dl_client = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
    let stamp = clock();
    let dl_reqs: Vec<Request> = (0..16u32)
        .map(|n| {
            Request::new(
                RequestId::compose(ClientId(9400), n),
                Op::Put {
                    key: key(n),
                    value: Value::from("late"),
                },
            )
            .with_deadline(stamp)
        })
        .collect();
    let dl_resps = dl_client.call_pipelined(&dl_reqs).unwrap();
    let dl_shed = dl_resps
        .iter()
        .filter(|r| matches!(r.result, Err(KvError::Overloaded)))
        .count();
    assert_eq!(dl_shed, dl_reqs.len(), "expired requests must all be shed");
    let expired = counters.snapshot().deadline_expired - expired_before;
    assert_eq!(expired as usize, dl_reqs.len(), "every expiry must be counted");

    let stats = server.stats();
    let snap = counters.snapshot();
    let ratio = over.goodput() / peak.goodput();

    // The acceptance bar: under ~2x load the server keeps at least 70% of
    // peak goodput, sheds the excess explicitly, and accepted requests
    // keep bounded latency.
    assert!(
        ratio >= 0.7,
        "goodput collapsed under overload: {:.0}/s vs peak {:.0}/s",
        over.goodput(),
        peak.goodput()
    );
    assert!(over.shed > 0, "overload phase never shed — not saturated");
    assert!(
        p99 < 1500.0,
        "accepted-request p99 unbounded under overload: {p99:.1}ms"
    );

    drop(server);
    drop(head_edge);
    cluster.rt.shutdown();

    println!(
        "{{\"peak\":{{\"goodput_qps\":{:.0},\"shed_per_sec\":{:.0}}},\
         \"overload\":{{\"goodput_qps\":{:.0},\"shed_per_sec\":{:.0},\"ok\":{},\"shed\":{},\
         \"other_err\":{},\"accepted_p50_ms\":{p50:.2},\"accepted_p99_ms\":{p99:.2}}},\
         \"goodput_ratio\":{ratio:.3},\
         \"deadline\":{{\"sent\":{},\"shed\":{dl_shed}}},\
         \"server\":{{\"accepted\":{},\"refused\":{}}},\
         \"counters\":{{\"mailbox_shed\":{},\"relay_shed\":{},\"deadline_expired\":{},\
         \"head_window_shed\":{},\"slow_slave_trims\":{},\"slow_slave_resyncs\":{}}}}}",
        peak.goodput(),
        peak.shed_rate(),
        over.goodput(),
        over.shed_rate(),
        over.ok,
        over.shed,
        over.other_err,
        dl_reqs.len(),
        stats.connections_accepted,
        stats.connections_refused,
        snap.mailbox_shed,
        snap.relay_shed,
        snap.deadline_expired,
        snap.head_window_shed,
        snap.slow_slave_trims,
        snap.slow_slave_resyncs,
    );
}
