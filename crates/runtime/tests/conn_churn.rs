//! Connection-churn leak tests for the TCP edge.
//!
//! A long-lived KV edge sees clients come and go forever; any per-
//! connection resource that outlives its connection — a file descriptor,
//! a handler thread, a slab slot — is a slow death. These tests churn
//! ~1000 connections through the server and assert, via
//! `/proc/self/fd` and `/proc/self/status`, that the process ends with
//! as many descriptors and threads as it started with (modulo a small
//! tolerance for the reactor's own steady-state machinery).

#![cfg(target_os = "linux")]

use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{ServerOptions, TcpClient, TcpServer};
use bespokv_types::{ClientId, Key, KvError, RequestId, Value, VersionedValue};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn kv_handler() -> Arc<bespokv_runtime::tcp::Handler> {
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

fn parser_factory() -> Arc<bespokv_runtime::tcp::ParserFactory> {
    Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>)
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Churns `total` connections through the server in small waves, doing a
/// round-trip on each so the connection is fully established and served
/// (not just SYN-accepted) before it closes.
fn churn(addr: std::net::SocketAddr, total: u32, wave: u32) {
    let mut seq = 0u32;
    for _ in 0..total / wave {
        let mut clients: Vec<TcpClient> = (0..wave)
            .map(|_| TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap())
            .collect();
        for c in &mut clients {
            seq += 1;
            let req = Request::new(
                RequestId::compose(ClientId(77), seq),
                Op::Put {
                    key: Key::from(format!("k{seq}").as_str()),
                    value: Value::from("v"),
                },
            );
            let resp = c.call(&req).unwrap();
            assert!(resp.result.is_ok(), "{:?}", resp.result);
        }
        // Dropping the vec closes the whole wave at once: the server sees
        // a burst of EOFs, the shape most likely to race teardown paths.
    }
}

/// Polls until the leak-sensitive gauges return to baseline; churn
/// teardown is asynchronous (the reactor reaps EOFs on its own turns),
/// so a single post-churn sample would be racy.
fn settles(baseline_fds: usize, baseline_threads: usize, slack_fds: usize) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if open_fds() <= baseline_fds + slack_fds && thread_count() <= baseline_threads {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    false
}

#[test]
fn reactor_edge_survives_connection_churn_without_leaks() {
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        parser_factory(),
        kv_handler(),
        ServerOptions {
            max_connections: Some(2048),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Warm the reactor to steady state (slabs touched) before taking the
    // baseline.
    churn(addr, 8, 8);
    std::thread::sleep(std::time::Duration::from_millis(200));
    let baseline_fds = open_fds();
    let baseline_threads = thread_count();

    churn(addr, 1000, 50);

    assert!(
        settles(baseline_fds, baseline_threads, 4),
        "leak after 1000-conn churn: fds {} -> {}, threads {} -> {}",
        baseline_fds,
        open_fds(),
        baseline_threads,
        thread_count(),
    );

    let stats = server.stats();
    assert!(
        stats.connections_accepted >= 1008,
        "expected every churned connection accepted, got {}",
        stats.connections_accepted
    );
    drop(server);
}

// ---------------------------------------------------------------------------
// Wedged-upstream isolation: parked relays must not absorb server threads.
// ---------------------------------------------------------------------------

use bespokv_runtime::tcp::{Completer, Defer, Served};
use bytes::BytesMut;
use std::io::{Read, Write};

/// A deferred handler standing in for a gray-failed controlet: requests
/// whose key starts with `park` are parked (their completers stashed for
/// a later "upstream reply"), everything else is served inline.
fn wedged_handler(
    parked: Arc<Mutex<Vec<Completer>>>,
) -> Arc<bespokv_runtime::tcp::DeferHandler> {
    Arc::new(move |req: Request, mut defer: Defer<'_>| {
        if let Op::Get { key } = &req.op {
            if key.as_bytes().starts_with(b"park") {
                parked.lock().unwrap().push(defer.completer());
                return Served::Parked;
            }
        }
        Served::Ready(Response {
            id: req.id,
            result: Ok(RespBody::Done),
        })
    })
}

fn get_req(seq: u32, key: &str) -> Request {
    Request::new(
        RequestId::compose(ClientId(9), seq),
        Op::Get { key: Key::from(key) },
    )
}

/// Sends `req` on a raw socket without waiting for the reply — the process
/// gains no client-side thread, so `/proc/self/status` measures only what
/// the *server* spends on the parked request.
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
    let mut byte = [0u8; 256];
    loop {
        let n = s.read(&mut byte).unwrap();
        assert!(n > 0, "server closed before replying");
        parser.feed(&byte[..n]);
        if let Some(resp) = parser.next_response().unwrap() {
            return resp;
        }
    }
}

/// One controlet wedged must cost the edge nothing but parked *state*:
/// with 50 relays parked on a dead upstream, healthy traffic runs at full
/// rate and — the gray-failure tentpole property — the server blocks zero
/// additional threads on them. When the upstream finally answers, every
/// parked connection gets its reply.
#[test]
fn reactor_edge_parks_relays_without_blocking_any_thread() {
    let parked: Arc<Mutex<Vec<Completer>>> = Arc::new(Mutex::new(Vec::new()));
    let server = TcpServer::bind_deferred(
        "127.0.0.1:0",
        parser_factory(),
        wedged_handler(Arc::clone(&parked)),
        ServerOptions {
            max_connections: Some(512),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Warm to steady state, then baseline.
    churn(addr, 8, 8);
    std::thread::sleep(std::time::Duration::from_millis(200));
    let baseline_threads = thread_count();

    const PARKED: usize = 50;
    let mut held: Vec<std::net::TcpStream> = (0..PARKED)
        .map(|i| send_raw(addr, &get_req(i as u32, &format!("park{i}"))))
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while parked.lock().unwrap().len() < PARKED {
        assert!(
            std::time::Instant::now() < deadline,
            "only {}/{PARKED} relays parked",
            parked.lock().unwrap().len()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Healthy traffic at full rate while every relay above stays parked.
    let t0 = std::time::Instant::now();
    let mut healthy = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
    for i in 0..200u32 {
        let resp = healthy.call(&get_req(1000 + i, "ok")).unwrap();
        assert!(resp.result.is_ok());
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(2),
        "healthy traffic starved behind parked relays: 200 calls took {:?}",
        t0.elapsed()
    );

    let now = thread_count();
    assert!(
        now <= baseline_threads,
        "reactor blocked threads on parked relays: {baseline_threads} -> {now}"
    );

    // The wedged upstream recovers: complete every parked relay and
    // assert each held connection receives its own reply.
    let completers: Vec<Completer> = std::mem::take(&mut *parked.lock().unwrap());
    assert_eq!(completers.len(), PARKED);
    for c in completers {
        let id = c.rid();
        c.complete(Response { id, result: Ok(RespBody::Done) });
    }
    for (i, s) in held.iter_mut().enumerate() {
        let resp = read_response(s);
        assert_eq!(
            resp.id,
            RequestId::compose(ClientId(9), i as u32),
            "parked reply crossed connections"
        );
        assert!(resp.result.is_ok());
    }
    drop(server);
}
