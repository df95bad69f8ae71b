//! Connection-scale bench: qps and resident memory of the TCP edge while
//! N mostly-idle connections are held open.
//!
//! This is the experiment the epoll reactor exists for (DESIGN.md §12):
//! it pays one slab entry and one descriptor per connection, so
//! throughput on the *active* connections should stay flat as the idle
//! population grows.
//!
//! Idle connections are held by child processes (`connscale hold <addr>
//! <n>`) so the bench process's descriptor budget is spent on the server
//! side only. Tiers request 1k / 5k / 50k connections; each tier is
//! clamped to what the container's `RLIMIT_NOFILE` (20 000 here, and not
//! raisable without `CAP_SYS_RESOURCE`) leaves for the server after
//! slack.
//!
//! Produces `BENCH_connscale.json`. Run with
//! `cargo run --release --bin connscale`.

use bespokv_proto::client::{Op, Request};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{Handler, ServerOptions, TcpClient, TcpServer};
use bespokv_types::{ClientId, Key, KvError, RequestId, Value};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Requested tiers; each is clamped to the descriptor budget.
const TIERS: [usize; 3] = [1_000, 5_000, 50_000];
/// Idle connections per holder child (each child has its own fd limit).
const PER_CHILD: usize = 4_000;
/// Active connections driving load during the measurement.
const ACTIVE: usize = 4;
/// Pipeline depth per active connection.
const DEPTH: usize = 64;
/// Measurement window per tier.
const MEASURE_MS: u64 = 2_000;

fn kv_handler() -> Arc<Handler> {
    use bespokv_proto::client::{RespBody, Response};
    use bespokv_types::VersionedValue;
    use std::collections::HashMap;
    use std::sync::Mutex;
    let store: Mutex<HashMap<Key, Value>> = Mutex::new(HashMap::new());
    Arc::new(move |req: Request| {
        let result = match &req.op {
            Op::Put { key, value } => {
                store.lock().unwrap().insert(key.clone(), value.clone());
                Ok(RespBody::Done)
            }
            Op::Get { key } => store
                .lock()
                .unwrap()
                .get(key)
                .cloned()
                .map(|v| RespBody::Value(VersionedValue::new(v, 1)))
                .ok_or(KvError::NotFound),
            _ => Err(KvError::Rejected("unsupported".into())),
        };
        Response { id: req.id, result }
    })
}

fn parser() -> Box<dyn ProtocolParser> {
    Box::new(BinaryParser::new())
}

fn parser_factory() -> Arc<bespokv_runtime::tcp::ParserFactory> {
    Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>)
}

/// `RLIMIT_NOFILE` soft limit, from /proc (no libc crate in this tree).
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024)
}

/// Resident set size of this process (server included — it is in-process)
/// in kilobytes.
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Child mode: hold `n` idle connections open against `addr`. Each does
/// one round-trip so it is fully served, then sits silent. Prints READY
/// when all are up, exits when stdin closes (parent dropped us).
fn hold(addr: &str, n: usize) {
    let addr: SocketAddr = addr.parse().expect("addr");
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = match TcpClient::connect(addr, parser()) {
            Ok(c) => c,
            Err(e) => {
                println!("FAILED {i} {e}");
                return;
            }
        };
        let req = Request::new(
            RequestId::compose(ClientId(9_000 + std::process::id()), i as u32),
            Op::Put {
                key: Key::from(format!("idle{i}").as_str()),
                value: Value::from("x"),
            },
        );
        if let Err(e) = c.call(&req) {
            println!("FAILED {i} {e}");
            return;
        }
        conns.push(c);
    }
    println!("READY {n}");
    // Block until the parent closes our stdin, then drop everything.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(conns);
}

struct Holders {
    children: Vec<Child>,
    held: usize,
}

impl Holders {
    /// Spawns holder children totalling `n` idle connections and waits
    /// until every one reports READY. Returns how many are actually held.
    fn spawn(addr: SocketAddr, n: usize) -> Holders {
        let exe = std::env::current_exe().expect("current_exe");
        let mut children = Vec::new();
        let mut held = 0usize;
        let mut left = n;
        while left > 0 {
            let batch = left.min(PER_CHILD);
            let mut child = Command::new(&exe)
                .arg("hold")
                .arg(addr.to_string())
                .arg(batch.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn holder");
            let mut line = String::new();
            let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
            reader.read_line(&mut line).expect("holder status");
            if let Some(k) = line.strip_prefix("READY ") {
                held += k.trim().parse::<usize>().unwrap_or(0);
            } else {
                eprintln!("holder gave up: {}", line.trim());
                child.stdout = Some(reader.into_inner());
                children.push(child);
                break;
            }
            child.stdout = Some(reader.into_inner());
            children.push(child);
            left -= batch;
        }
        Holders { children, held }
    }
}

impl Drop for Holders {
    fn drop(&mut self) {
        for c in &mut self.children {
            // Closing stdin unblocks the child's read_to_end; kill is the
            // backstop so teardown never hangs the bench.
            drop(c.stdin.take());
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Pipelined PUT/GET load on `ACTIVE` fresh connections for `MEASURE_MS`;
/// returns ops completed per second.
fn measure_qps(addr: SocketAddr) -> f64 {
    let mut clients: Vec<TcpClient> = (0..ACTIVE)
        .map(|_| TcpClient::connect(addr, parser()).expect("active conn"))
        .collect();
    let mut ops = 0u64;
    let mut seq = 0u32;
    let start = Instant::now();
    while start.elapsed().as_millis() < MEASURE_MS as u128 {
        for c in &mut clients {
            let reqs: Vec<Request> = (0..DEPTH)
                .map(|d| {
                    seq += 1;
                    let id = RequestId::compose(ClientId(1), seq);
                    if d % 2 == 0 {
                        Request::new(
                            id,
                            Op::Put {
                                key: Key::from(format!("act{}", seq % 512).as_str()),
                                value: Value::from("v".repeat(32).as_str()),
                            },
                        )
                    } else {
                        Request::new(
                            id,
                            Op::Get {
                                key: Key::from(format!("act{}", seq % 512).as_str()),
                            },
                        )
                    }
                })
                .collect();
            let resps = c.call_pipelined(&reqs).expect("pipelined batch");
            ops += resps.len() as u64;
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

struct TierResult {
    requested: usize,
    held: usize,
    qps: f64,
    rss_kb: u64,
    accepted: u64,
    refused: u64,
}

fn run_tiers() -> Vec<TierResult> {
    // One descriptor per connection: the stream in the reactor's slab.
    let budget = fd_limit().saturating_sub(512);
    let mut results = Vec::new();
    for requested in TIERS {
        let target = requested.min(budget);
        let server = TcpServer::bind_with(
            "127.0.0.1:0",
            parser_factory(),
            kv_handler(),
            ServerOptions {
                max_connections: Some(target + ACTIVE + 64),
                reactor_threads: Some(2),
                ..ServerOptions::default()
            },
        )
        .expect("bind server");
        let addr = server.local_addr();

        let holders = Holders::spawn(addr, target);
        let qps = measure_qps(addr);
        let rss_kb = vm_rss_kb();
        let stats = server.stats();
        results.push(TierResult {
            requested,
            held: holders.held,
            qps,
            rss_kb,
            accepted: stats.connections_accepted,
            refused: stats.connections_refused,
        });
        eprintln!(
            "tier {requested}: held {} qps {:.0} rss {} MB",
            holders.held,
            qps,
            rss_kb / 1024
        );
        drop(holders);
        drop(server);
    }
    results
}

fn to_json(kind: &str, tiers: &[TierResult]) -> String {
    let rows: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "{{\"requested\":{},\"held\":{},\"qps\":{:.0},\"vm_rss_kb\":{},\
                 \"accepted\":{},\"refused\":{}}}",
                t.requested, t.held, t.qps, t.rss_kb, t.accepted, t.refused
            )
        })
        .collect();
    format!("\"{kind}\":[{}]", rows.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "hold" {
        hold(&args[2], args[3].parse().expect("count"));
        return;
    }

    let limit = fd_limit();
    let reactor = run_tiers();
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"fd_limit\":{limit},"));
    out.push_str(&format!(
        "\"active_conns\":{ACTIVE},\"pipeline_depth\":{DEPTH},\"measure_ms\":{MEASURE_MS},"
    ));
    out.push_str(&to_json("reactor", &reactor));
    out.push('}');
    println!("{out}");
}
