//! Real TCP transport for the client edge.
//!
//! The simulator and the live runtime move messages in-process; this module
//! is the genuine network path. [`TcpServer`] is served by one transport,
//! the nonblocking epoll readiness loop in [`crate::reactor`] (the paper's
//! event-driven controlet edge, section III-B): N per-core reactor threads,
//! a slab of connection states each, one fd per connection, edge-triggered
//! reads feeding incremental [`ProtocolParser`]s, coalesced response
//! flushes. It is Linux-only; elsewhere `TcpServer::bind*` returns the
//! `Unsupported` error of the vendored poll shim.

use crate::reactor::ReactorEdge;
use bespokv_proto::client::{Request, Response};
use bespokv_proto::parser::ProtocolParser;
use bespokv_types::{KvError, KvResult, RequestId, ShardId};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Produces a fresh parser per connection.
pub type ParserFactory = dyn Fn() -> Box<dyn ProtocolParser> + Send + Sync;

/// Handles one request, producing the response. Shared across connections.
pub type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// What a [`DeferHandler`] did with one request.
pub enum Served {
    /// The response is ready now; the transport encodes it immediately.
    Ready(Response),
    /// The handler took a [`Completer`] and will finish the request from
    /// another thread. The transport parks the *connection slot* — never a
    /// reactor thread — until the completer fires (or is dropped).
    Parked,
}

/// A handler that may answer inline (`Served::Ready`) or take a
/// [`Completer`] from [`Defer::completer`] and park the request
/// (`Served::Parked`). This is how the relay edge returns a reactor turn
/// immediately: the replying actor's thread completes entries; a sweeper
/// thread expires deadlines every 10 ms.
pub type DeferHandler = dyn Fn(Request, Defer<'_>) -> Served + Send + Sync;

/// Lazily mints the [`Completer`] for one request. Handlers that answer
/// inline never touch it, so the fast path allocates nothing; calling
/// [`Defer::completer`] commits the connection slot to wait for an
/// asynchronous completion.
pub struct Defer<'a> {
    make: &'a mut dyn FnMut() -> Completer,
}

impl Defer<'_> {
    /// Takes the completion handle for this request. The handler must then
    /// return [`Served::Parked`]; completing happens from any thread.
    pub fn completer(&mut self) -> Completer {
        (self.make)()
    }
}

/// Once-only completion handle for a parked request.
///
/// Dropping an uncompleted `Completer` delivers a stamped
/// [`KvError::Timeout`] response, so a lost handle can wedge neither a
/// connection slot nor the client waiting on it.
pub struct Completer {
    rid: RequestId,
    sink: Option<Box<dyn FnOnce(Response) + Send>>,
}

impl Completer {
    /// Wraps a transport-provided delivery sink. `rid` stamps the backstop
    /// `Timeout` response if the handle is dropped uncompleted.
    pub fn new(rid: RequestId, sink: impl FnOnce(Response) + Send + 'static) -> Completer {
        Completer {
            rid,
            sink: Some(Box::new(sink)),
        }
    }

    /// The id of the request this handle completes.
    pub fn rid(&self) -> RequestId {
        self.rid
    }

    /// Delivers the response to the parked connection slot.
    pub fn complete(mut self, resp: Response) {
        if let Some(sink) = self.sink.take() {
            sink(resp);
        }
    }

    /// Completes with an error stamped with the parked request's id.
    pub fn fail(self, err: KvError) {
        let rid = self.rid;
        self.complete(Response::err(rid, err));
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink(Response::err(self.rid, KvError::Timeout));
        }
    }
}

impl std::fmt::Debug for Completer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completer")
            .field("rid", &self.rid)
            .field("completed", &self.sink.is_none())
            .finish()
    }
}

/// Internal union of the two handler shapes, so plain handlers pay nothing
/// for the deferred seam.
#[derive(Clone)]
pub(crate) enum AnyHandler {
    Plain(Arc<Handler>),
    Defer(Arc<DeferHandler>),
}

impl AnyHandler {
    /// Runs the handler, minting completers through `make` on demand.
    pub(crate) fn call(&self, req: Request, make: &mut dyn FnMut() -> Completer) -> Served {
        match self {
            AnyHandler::Plain(h) => Served::Ready(h(req)),
            AnyHandler::Defer(h) => h(req, Defer { make }),
        }
    }
}

/// Which server transport backs a [`TcpServer`]: the epoll reactor is the
/// only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Nonblocking epoll reactor threads (see [`crate::reactor`]).
    Reactor,
}

/// Tuning knobs for [`TcpServer::bind_with`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Concurrent connections beyond this are refused: the reactor bounds
    /// its connection slab and answers the refused connection's first
    /// request batch with an explicit [`KvError::Overloaded`] before
    /// closing (never a silent SYN-backlog stall). `None` means unbounded.
    pub max_connections: Option<usize>,
    /// Per-connection fairness budget: at most `n` requests are decoded
    /// and served per connection per reactor turn, further input stays in
    /// the socket buffer until the pipeline drains (TCP pushes back;
    /// nothing is shed mid-stream).
    pub pipeline_cap: Option<usize>,
    /// Kept only for source compatibility; nothing reads it.
    pub transport: Option<TransportKind>,
    /// Number of reactor threads (each owning an acceptor and a slab of
    /// connections). `None` sizes to the machine (`min(cores, 4)`).
    pub reactor_threads: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            // Generous, but bounded: a SYN-and-hold flood must not grow the
            // connection slab without limit.
            max_connections: Some(1024),
            pipeline_cap: None,
            transport: None,
            reactor_threads: None,
        }
    }
}

/// Counters exported by a running [`TcpServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpServerStats {
    /// Connections accepted since bind.
    pub connections_accepted: u64,
    /// Connections dropped because the peer sent a malformed stream.
    pub protocol_error_drops: u64,
    /// Connections refused at the `max_connections` cap.
    pub connections_refused: u64,
    /// Requests answered `Overloaded` at the per-connection pipeline cap.
    /// Always 0: the reactor defers over-cap input instead of shedding it.
    pub pipeline_shed: u64,
}

/// Shared atomic counters behind [`TcpServerStats`]; one set per server,
/// written by its reactor threads.
#[derive(Debug, Default)]
pub(crate) struct EdgeCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) refused: AtomicU64,
}

impl EdgeCounters {
    fn snapshot(&self) -> TcpServerStats {
        TcpServerStats {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            protocol_error_drops: self.protocol_errors.load(Ordering::Relaxed),
            connections_refused: self.refused.load(Ordering::Relaxed),
            pipeline_shed: 0,
        }
    }
}

/// A TCP server speaking any [`ProtocolParser`], served by the epoll
/// reactor ([`crate::reactor`]). Dropping it stops it.
pub struct TcpServer {
    edge: ReactorEdge,
}

impl TcpServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"`) and starts accepting, with
    /// default [`ServerOptions`].
    pub fn bind(
        addr: &str,
        make_parser: Arc<ParserFactory>,
        handler: Arc<Handler>,
    ) -> std::io::Result<TcpServer> {
        Self::bind_with(addr, make_parser, handler, ServerOptions::default())
    }

    /// Binds with explicit [`ServerOptions`].
    pub fn bind_with(
        addr: &str,
        make_parser: Arc<ParserFactory>,
        handler: Arc<Handler>,
        options: ServerOptions,
    ) -> std::io::Result<TcpServer> {
        Self::bind_any(addr, make_parser, AnyHandler::Plain(handler), options)
    }

    /// Binds with a deferred-completion handler: requests the handler
    /// parks are completed later through their [`Completer`] without
    /// holding a server thread (see [`DeferHandler`]).
    pub fn bind_deferred(
        addr: &str,
        make_parser: Arc<ParserFactory>,
        handler: Arc<DeferHandler>,
        options: ServerOptions,
    ) -> std::io::Result<TcpServer> {
        Self::bind_any(addr, make_parser, AnyHandler::Defer(handler), options)
    }

    fn bind_any(
        addr: &str,
        make_parser: Arc<ParserFactory>,
        handler: AnyHandler,
        options: ServerOptions,
    ) -> std::io::Result<TcpServer> {
        let edge = ReactorEdge::bind(addr, make_parser, handler, &options)?;
        Ok(TcpServer { edge })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// Which transport serves this listener.
    pub fn transport_kind(&self) -> TransportKind {
        TransportKind::Reactor
    }

    /// Current server counters.
    pub fn stats(&self) -> TcpServerStats {
        self.edge.counters().snapshot()
    }

    /// Stops accepting, closes live connections, and waits for all server
    /// threads to exit.
    pub fn stop(self) {
        drop(self);
    }
}

/// A blocking TCP client speaking any [`ProtocolParser`].
///
/// **Timeout poisoning:** a call that fails with [`KvError::Timeout`]
/// leaves the stream desynchronized — the response may still arrive and
/// would be matched to the *next* request. The client therefore poisons
/// itself on timeout: subsequent calls fail fast with
/// [`KvError::Unavailable`] (retryable — reroute or reconnect) until
/// [`TcpClient::reconnect`] establishes a fresh stream and parser.
pub struct TcpClient {
    stream: TcpStream,
    parser: Box<dyn ProtocolParser>,
    scratch: BytesMut,
    addr: SocketAddr,
    read_timeout: Option<std::time::Duration>,
    poisoned: bool,
}

/// Default per-call read deadline. A server that accepts the connection
/// but never answers (hung handler, half-open socket) must surface as a
/// retryable [`KvError::Timeout`], not block the caller forever.
const DEFAULT_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

impl TcpClient {
    /// Connects to a [`TcpServer`] with the default read timeout.
    pub fn connect(addr: SocketAddr, parser: Box<dyn ProtocolParser>) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, parser, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connects, mapping transport failures to retryable [`KvError`]s: a
    /// refused or unreachable endpoint is [`KvError::Unavailable`] (the
    /// node is down — reroute), not an opaque I/O error.
    pub fn connect_kv(addr: SocketAddr, parser: Box<dyn ProtocolParser>) -> KvResult<Self> {
        Self::connect(addr, parser).map_err(|e| match e.kind() {
            std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset => {
                // No shard context at the transport layer; the sentinel
                // keeps the variant's retryable classification.
                KvError::Unavailable(ShardId(u32::MAX))
            }
            _ => KvError::from(e),
        })
    }

    /// Connects with an explicit per-read deadline (`None` blocks forever).
    pub fn connect_with_timeout(
        addr: SocketAddr,
        parser: Box<dyn ProtocolParser>,
        read_timeout: Option<std::time::Duration>,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        Ok(TcpClient {
            stream,
            parser,
            scratch: BytesMut::new(),
            addr,
            read_timeout,
            poisoned: false,
        })
    }

    /// Changes the per-read deadline on the live connection.
    pub fn set_read_timeout(
        &mut self,
        read_timeout: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        self.read_timeout = read_timeout;
        self.stream.set_read_timeout(read_timeout)
    }

    /// Whether a timeout has poisoned this connection (see the type docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Re-establishes the connection after a poisoning timeout. `parser`
    /// must be a fresh instance of the connection's protocol (the old one
    /// may hold half a late response).
    pub fn reconnect(&mut self, parser: Box<dyn ProtocolParser>) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.stream = stream;
        self.parser = parser;
        self.scratch = BytesMut::new();
        self.poisoned = false;
        Ok(())
    }

    fn check_poisoned(&self) -> KvResult<()> {
        if self.poisoned {
            // The stream may deliver a late response to an abandoned
            // request; matching it to a new request would hand the caller
            // someone else's answer. Fail fast until reconnect.
            Err(KvError::Unavailable(ShardId(u32::MAX)))
        } else {
            Ok(())
        }
    }

    /// Records a completed call, poisoning the connection when it timed
    /// out mid-protocol.
    fn note_outcome<T>(&mut self, result: KvResult<T>) -> KvResult<T> {
        if matches!(result, Err(KvError::Timeout)) {
            self.poisoned = true;
        }
        result
    }

    /// Records decoded response bodies. A well-formed reply carrying
    /// `Timeout` or `Unavailable` is the relay edge reporting its node is
    /// wedged or bouncing: the stream itself is still synchronized, but
    /// the node behind it must be backed off from exactly like a direct
    /// timeout — poison, so callers reroute/reconnect and the per-node
    /// circuit breaker sees the failure.
    fn note_response_bodies(&mut self, resps: &[Response]) {
        if resps.iter().any(|r| {
            matches!(
                r.result,
                Err(KvError::Timeout) | Err(KvError::Unavailable(_))
            )
        }) {
            self.poisoned = true;
        }
    }

    /// Sends one request and blocks for its response, at most the
    /// configured read timeout per read ([`KvError::Timeout`] after that).
    pub fn call(&mut self, req: &Request) -> KvResult<Response> {
        self.check_poisoned()?;
        let result = self.call_inner(req);
        let result = self.note_outcome(result);
        if let Ok(resp) = &result {
            self.note_response_bodies(std::slice::from_ref(resp));
        }
        result
    }

    fn call_inner(&mut self, req: &Request) -> KvResult<Response> {
        self.scratch.clear();
        self.parser.encode_request(req, &mut self.scratch);
        self.stream
            .write_all(&self.scratch)
            .map_err(KvError::from)?;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = self.parser.next_response()? {
                return Ok(resp);
            }
            let n = self.stream.read(&mut buf).map_err(KvError::from)?;
            if n == 0 {
                // A connection that dies mid-response is indistinguishable
                // from a lost reply: the request may have been applied, so
                // this is a Timeout (retryable, maybe-applied), not an
                // opaque I/O error the client core would treat as fatal.
                return Err(KvError::Timeout);
            }
            self.parser.feed(&buf[..n]);
        }
    }

    /// Sends a batch of pipelined requests, then collects all responses.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> KvResult<Vec<Response>> {
        self.check_poisoned()?;
        let result = self.call_pipelined_inner(reqs);
        let result = self.note_outcome(result);
        if let Ok(resps) = &result {
            self.note_response_bodies(resps);
        }
        result
    }

    fn call_pipelined_inner(&mut self, reqs: &[Request]) -> KvResult<Vec<Response>> {
        self.scratch.clear();
        for r in reqs {
            self.parser.encode_request(r, &mut self.scratch);
        }
        self.stream
            .write_all(&self.scratch)
            .map_err(KvError::from)?;
        let mut out = Vec::with_capacity(reqs.len());
        let mut buf = [0u8; 16 * 1024];
        while out.len() < reqs.len() {
            while let Some(resp) = self.parser.next_response()? {
                out.push(resp);
                if out.len() == reqs.len() {
                    return Ok(out);
                }
            }
            let n = self.stream.read(&mut buf).map_err(KvError::from)?;
            if n == 0 {
                // Same maybe-applied classification as `call`.
                return Err(KvError::Timeout);
            }
            self.parser.feed(&buf[..n]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bespokv_proto::client::{Op, RespBody};
    use bespokv_proto::parser::BinaryParser;
    use bespokv_proto::text::RespParser;
    use bespokv_types::{ClientId, Key, RequestId, Value, VersionedValue};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn kv_handler() -> Arc<Handler> {
        let store: Mutex<HashMap<Key, Value>> = Mutex::new(HashMap::new());
        Arc::new(move |req: Request| {
            let result = match &req.op {
                Op::Put { key, value } => {
                    store.lock().insert(key.clone(), value.clone());
                    Ok(RespBody::Done)
                }
                Op::Get { key } => store
                    .lock()
                    .get(key)
                    .cloned()
                    .map(|v| RespBody::Value(VersionedValue::new(v, 1)))
                    .ok_or(KvError::NotFound),
                _ => Err(KvError::Rejected("unsupported".into())),
            };
            Response {
                id: req.id,
                result,
            }
        })
    }

    fn rid(seq: u32) -> RequestId {
        RequestId::compose(ClientId(1), seq)
    }

    #[test]
    fn binary_protocol_over_tcp() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let put = Request::new(
            rid(0),
            Op::Put {
                key: Key::from("k"),
                value: Value::from("v"),
            },
        );
        assert_eq!(client.call(&put).unwrap().result, Ok(RespBody::Done));
        let get = Request::new(rid(1), Op::Get { key: Key::from("k") });
        let resp = client.call(&get).unwrap();
        assert_eq!(
            resp.result,
            Ok(RespBody::Value(VersionedValue::new(Value::from("v"), 1)))
        );
        server.stop();
    }

    #[test]
    fn resp_protocol_over_tcp() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(RespParser::new(ClientId(0))) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        // Talk raw RESP like a redis-cli would.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n*2\r\n$3\r\nGET\r\n$1\r\na\r\n")
            .unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 1024];
        while got.len() < b"+OK\r\n$1\r\n1\r\n".len() {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(&got[..], b"+OK\r\n$1\r\n1\r\n");
        server.stop();
    }

    #[test]
    fn pipelined_batch_roundtrip() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let reqs: Vec<Request> = (0..32)
            .map(|i| {
                Request::new(
                    rid(i),
                    Op::Put {
                        key: Key::from(format!("k{i}")),
                        value: Value::from(format!("v{i}")),
                    },
                )
            })
            .collect();
        let resps = client.call_pipelined(&reqs).unwrap();
        assert_eq!(resps.len(), 32);
        assert!(resps.iter().all(|r| r.result == Ok(RespBody::Done)));
        server.stop();
    }

    /// Satellite regression: stopping the server while pipelined load is in
    /// flight must terminate cleanly — stop() joins the reactor threads
    /// mid-batch without hanging, and every client sees an error, not a
    /// wedge.
    #[test]
    fn stop_under_active_pipelined_load() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..4u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let Ok(mut c) = TcpClient::connect(addr, Box::new(BinaryParser::new()))
                    else {
                        return;
                    };
                    loop {
                        let reqs: Vec<Request> = (0..64)
                            .map(|i| {
                                Request::new(
                                    RequestId::compose(ClientId(t), i),
                                    Op::Put {
                                        key: Key::from(format!("k{t}-{i}")),
                                        value: Value::from("v"),
                                    },
                                )
                            })
                            .collect();
                        // The stop() below kills the connection mid-batch at
                        // some point; any error ends the load loop.
                        if c.call_pipelined(&reqs).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let (tx, rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok(),
            "stop() hung under active pipelined load"
        );
        stopper.join().unwrap();
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn protocol_error_drops_are_counted() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // An impossible frame length: the binary parser must reject it and
        // the server must drop the connection.
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = [0u8; 16];
        // Read returns 0 (or an error) once the server closes our socket.
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("unexpected {n} response bytes to a corrupt frame"),
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.stats().protocol_error_drops == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "protocol error drop never counted"
            );
            std::thread::yield_now();
        }
        let stats = server.stats();
        assert_eq!(stats.protocol_error_drops, 1);
        assert_eq!(stats.connections_accepted, 1);
        server.stop();
    }

    /// Satellite: >=4 concurrent pipelined clients with mixed binary/RESP
    /// parsers; every client must see its own responses, complete and in
    /// order.
    #[test]
    fn concurrent_pipelined_mixed_parsers() {
        let store: Arc<Mutex<HashMap<Key, Value>>> = Arc::new(Mutex::new(HashMap::new()));
        let handler_for = |store: Arc<Mutex<HashMap<Key, Value>>>| -> Arc<Handler> {
            Arc::new(move |req: Request| {
                let result = match &req.op {
                    Op::Put { key, value } => {
                        store.lock().insert(key.clone(), value.clone());
                        Ok(RespBody::Done)
                    }
                    Op::Get { key } => store
                        .lock()
                        .get(key)
                        .cloned()
                        .map(|v| RespBody::Value(VersionedValue::new(v, 1)))
                        .ok_or(KvError::NotFound),
                    _ => Err(KvError::Rejected("unsupported".into())),
                };
                Response {
                    id: req.id,
                    result,
                }
            })
        };
        // One store, two protocol edges — as a controlet would expose both
        // the native binary protocol and a Redis-compatible one.
        let bin_server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler_for(Arc::clone(&store)),
        )
        .unwrap();
        let resp_server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(RespParser::new(ClientId(0))) as Box<dyn ProtocolParser>),
            handler_for(Arc::clone(&store)),
        )
        .unwrap();
        let bin_addr = bin_server.local_addr();
        let resp_addr = resp_server.local_addr();

        let mut threads = Vec::new();
        // 4 binary clients, each pipelining batches of distinct keys.
        for t in 0..4u32 {
            threads.push(std::thread::spawn(move || {
                let mut c = TcpClient::connect(bin_addr, Box::new(BinaryParser::new())).unwrap();
                for round in 0..10u32 {
                    let reqs: Vec<Request> = (0..32)
                        .map(|i| {
                            let seq = round * 32 + i;
                            Request::new(
                                RequestId::compose(ClientId(t), seq),
                                Op::Put {
                                    key: Key::from(format!("bin-{t}-{seq}")),
                                    value: Value::from(format!("val-{t}-{seq}")),
                                },
                            )
                        })
                        .collect();
                    let resps = c.call_pipelined(&reqs).unwrap();
                    assert_eq!(resps.len(), reqs.len(), "lost responses");
                    for (req, resp) in reqs.iter().zip(&resps) {
                        assert_eq!(resp.id, req.id, "responses reordered");
                        assert_eq!(resp.result, Ok(RespBody::Done));
                    }
                }
            }));
        }
        // 2 raw RESP clients, pipelining SETs and counting +OK replies.
        for t in 0..2u32 {
            threads.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(resp_addr).unwrap();
                stream.set_nodelay(true).unwrap();
                for round in 0..10u32 {
                    let mut wire = Vec::new();
                    for i in 0..16u32 {
                        let key = format!("resp-{t}-{round}-{i}");
                        let val = format!("rv-{t}-{round}-{i}");
                        wire.extend_from_slice(
                            format!(
                                "*3\r\n$3\r\nSET\r\n${}\r\n{key}\r\n${}\r\n{val}\r\n",
                                key.len(),
                                val.len()
                            )
                            .as_bytes(),
                        );
                    }
                    stream.write_all(&wire).unwrap();
                    let want = b"+OK\r\n".repeat(16);
                    let mut got = Vec::new();
                    let mut buf = [0u8; 1024];
                    while got.len() < want.len() {
                        let n = stream.read(&mut buf).unwrap();
                        assert!(n > 0, "connection closed early");
                        got.extend_from_slice(&buf[..n]);
                    }
                    assert_eq!(got, want, "RESP responses lost or corrupted");
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        // Every write from every client must have landed.
        assert_eq!(store.lock().len(), 4 * 10 * 32 + 2 * 10 * 16);
        bin_server.stop();
        resp_server.stop();
    }

    #[test]
    fn unresponsive_server_surfaces_timeout() {
        // A listener that accepts and then goes silent: the client call
        // must come back with a retryable Timeout, not block forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Keep the socket open without ever responding.
            std::thread::sleep(std::time::Duration::from_secs(2));
            drop(stream);
        });
        let mut client = TcpClient::connect_with_timeout(
            addr,
            Box::new(BinaryParser::new()),
            Some(std::time::Duration::from_millis(100)),
        )
        .unwrap();
        let req = Request::new(rid(0), Op::Get { key: Key::from("k") });
        let started = std::time::Instant::now();
        assert_eq!(client.call(&req), Err(KvError::Timeout));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "call blocked until the server hung up instead of timing out"
        );
        // The timeout poisoned the connection (the late reply could still
        // arrive): further calls fail fast with Unavailable, they must NOT
        // touch the desynchronized stream.
        assert!(client.is_poisoned());
        let started = std::time::Instant::now();
        assert_eq!(
            client.call_pipelined(std::slice::from_ref(&req)),
            Err(KvError::Unavailable(ShardId(u32::MAX)))
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "poisoned call should fail fast, not wait on the socket"
        );
        hold.join().unwrap();
    }

    /// Satellite regression: a timeout mid-conversation must not leave the
    /// client matching the late reply to the *next* request. The poisoned
    /// client refuses further calls until an explicit reconnect, after
    /// which calls see correct responses again.
    #[test]
    fn timeout_poisons_client_until_reconnect() {
        // A handler that stalls on one magic key, long enough to outlive
        // the client's read deadline — the late reply then sits in the
        // socket, exactly the desynchronization hazard.
        let handler: Arc<Handler> = Arc::new(move |req: Request| {
            if let Op::Get { key } = &req.op {
                if *key == Key::from("slow") {
                    std::thread::sleep(std::time::Duration::from_millis(400));
                }
            }
            Response {
                id: req.id,
                result: Ok(RespBody::Done),
            }
        });
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
        )
        .unwrap();
        let mut client = TcpClient::connect_with_timeout(
            server.local_addr(),
            Box::new(BinaryParser::new()),
            Some(std::time::Duration::from_millis(100)),
        )
        .unwrap();
        let slow = Request::new(rid(0), Op::Get { key: Key::from("slow") });
        let fast = Request::new(rid(1), Op::Get { key: Key::from("fast") });
        assert_eq!(client.call(&slow), Err(KvError::Timeout));
        assert!(client.is_poisoned());
        // Without poisoning, this call would read the late reply to `slow`
        // (id 0) and hand it back as the answer to `fast` (id 1). Instead it
        // must fail fast and leave the socket alone.
        assert_eq!(
            client.call(&fast),
            Err(KvError::Unavailable(ShardId(u32::MAX)))
        );
        // Wait out the slow handler so its late reply is certainly in
        // flight, then reconnect: the fresh stream has no stale bytes.
        std::thread::sleep(std::time::Duration::from_millis(400));
        client.reconnect(Box::new(BinaryParser::new())).unwrap();
        assert!(!client.is_poisoned());
        let resp = client.call(&fast).unwrap();
        assert_eq!(resp.id, fast.id, "reconnected client got a stale response");
        server.stop();
    }

    /// Same poisoning contract for pipelined batches: a timeout mid-batch
    /// desynchronizes every outstanding reply.
    #[test]
    fn pipelined_timeout_poisons_client() {
        let handler: Arc<Handler> = Arc::new(move |req: Request| {
            if let Op::Get { key } = &req.op {
                if *key == Key::from("slow") {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                }
            }
            Response {
                id: req.id,
                result: Ok(RespBody::Done),
            }
        });
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
        )
        .unwrap();
        let mut client = TcpClient::connect_with_timeout(
            server.local_addr(),
            Box::new(BinaryParser::new()),
            Some(std::time::Duration::from_millis(100)),
        )
        .unwrap();
        let batch = vec![
            Request::new(rid(0), Op::Get { key: Key::from("fast") }),
            Request::new(rid(1), Op::Get { key: Key::from("slow") }),
            Request::new(rid(2), Op::Get { key: Key::from("fast") }),
        ];
        assert_eq!(client.call_pipelined(&batch), Err(KvError::Timeout));
        assert!(client.is_poisoned());
        let lone = Request::new(rid(3), Op::Get { key: Key::from("fast") });
        assert_eq!(
            client.call(&lone),
            Err(KvError::Unavailable(ShardId(u32::MAX)))
        );
        std::thread::sleep(std::time::Duration::from_millis(300));
        client.reconnect(Box::new(BinaryParser::new())).unwrap();
        let resp = client.call(&lone).unwrap();
        assert_eq!(resp.id, lone.id);
        server.stop();
    }

    /// A flood of connections over `max_connections` that never send a
    /// byte is counted and contained: the in-cap connections keep being
    /// served, and hanging one up frees its slot for the next client.
    #[test]
    fn connection_cap_refuses_flood() {
        let server = TcpServer::bind_with(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
            ServerOptions {
                max_connections: Some(2),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let put = |i: u32| {
            Request::new(rid(i), Op::Put {
                key: Key::from(format!("k{i}")),
                value: Value::from("v"),
            })
        };
        // Two live connections, proven installed by a completed call each.
        let mut keep = Vec::new();
        for i in 0..2u32 {
            let mut c = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
            assert_eq!(c.call(&put(i)).unwrap().result, Ok(RespBody::Done));
            keep.push(c);
        }
        let flood: Vec<TcpStream> = (0..20).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.stats().connections_refused < 20 {
            assert!(std::time::Instant::now() < deadline, "flood never counted as refused");
            std::thread::yield_now();
        }
        assert_eq!(server.stats().connections_accepted, 2);
        for (i, c) in keep.iter_mut().enumerate() {
            assert!(c.call(&put(10 + i as u32)).unwrap().result.is_ok());
        }
        drop(flood);
        // Hanging up an in-cap connection frees its slot: a fresh client is
        // eventually accepted (attempts racing the release are refused with
        // an explicit Overloaded, then closed).
        drop(keep.pop());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let mut c = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
            match c.call(&put(20)) {
                Ok(resp) if resp.result == Ok(RespBody::Done) => break,
                _ => assert!(std::time::Instant::now() < deadline, "freed slot never reused"),
            }
            std::thread::yield_now();
        }
        assert_eq!(server.stats().connections_accepted, 3);
        server.stop();
    }

    #[test]
    fn refused_connect_maps_to_unavailable() {
        // Grab a port that is then closed again: connecting must surface
        // as Unavailable (node down — reroute), not an opaque Io error.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match TcpClient::connect_kv(addr, Box::new(BinaryParser::new())) {
            Err(KvError::Unavailable(s)) => assert_eq!(s, ShardId(u32::MAX)),
            other => panic!("expected Unavailable, got {:?}", other.err()),
        }
    }

    #[test]
    fn mid_response_disconnect_maps_to_timeout() {
        // A server that accepts, reads the request, then hangs up without
        // answering: the reply may or may not have been applied, so the
        // client must see a retryable Timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            drop(stream); // close mid-response
        });
        let mut client = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let req = Request::new(rid(0), Op::Get { key: Key::from("k") });
        assert_eq!(client.call(&req), Err(KvError::Timeout));
        hold.join().unwrap();

        // Same for a pipelined batch cut off mid-stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            drop(stream);
        });
        let mut client = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        assert_eq!(
            client.call_pipelined(std::slice::from_ref(&req)),
            Err(KvError::Timeout)
        );
        hold.join().unwrap();
    }

    /// A deferred handler that parks GETs of the key `park`, handing their
    /// completers to the returned registry; everything else is answered
    /// inline.
    fn parking_handler() -> (Arc<DeferHandler>, Arc<Mutex<Vec<Completer>>>) {
        let parked: Arc<Mutex<Vec<Completer>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::clone(&parked);
        let handler: Arc<DeferHandler> = Arc::new(move |req: Request, mut defer: Defer<'_>| {
            if let Op::Get { key } = &req.op {
                if *key == Key::from("park") {
                    registry.lock().push(defer.completer());
                    return Served::Parked;
                }
            }
            Served::Ready(Response {
                id: req.id,
                result: Ok(RespBody::Done),
            })
        });
        (handler, parked)
    }

    /// Tentpole seam: a parked request is completed from a *different*
    /// thread after the handler returned, and the client still sees the
    /// right response matched to the right id (default options: the
    /// completion must find its way back to whichever reactor owns the
    /// connection).
    #[test]
    fn deferred_handler_completes_from_another_thread() {
        let (handler, parked) = parking_handler();
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions::default(),
        )
        .unwrap();
        let completer_thread = {
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || loop {
                if let Some(c) = parked.lock().pop() {
                    let id = c.rid();
                    c.complete(Response {
                        id,
                        result: Ok(RespBody::Value(VersionedValue::new(
                            Value::from("late"),
                            7,
                        ))),
                    });
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
        };
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let req = Request::new(rid(0), Op::Get { key: Key::from("park") });
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.id, req.id);
        assert_eq!(
            resp.result,
            Ok(RespBody::Value(VersionedValue::new(Value::from("late"), 7)))
        );
        completer_thread.join().unwrap();
        server.stop();
    }

    /// Per-connection FIFO order survives a parked request in the middle
    /// of a pipelined batch: the park must not let later responses
    /// overtake.
    #[test]
    fn deferred_park_preserves_pipeline_order() {
        let (handler, parked) = parking_handler();
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions::default(),
        )
        .unwrap();
        let completer_thread = {
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || loop {
                if let Some(c) = parked.lock().pop() {
                    // Complete well after the inline requests have run.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    let id = c.rid();
                    c.complete(Response {
                        id,
                        result: Ok(RespBody::Done),
                    });
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
        };
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let batch = vec![
            Request::new(rid(0), Op::Get { key: Key::from("fast") }),
            Request::new(rid(1), Op::Get { key: Key::from("park") }),
            Request::new(rid(2), Op::Get { key: Key::from("fast") }),
        ];
        let resps = client.call_pipelined(&batch).unwrap();
        assert_eq!(resps.len(), 3);
        for (req, resp) in batch.iter().zip(&resps) {
            assert_eq!(resp.id, req.id, "park reordered pipelined responses");
            assert_eq!(resp.result, Ok(RespBody::Done));
        }
        completer_thread.join().unwrap();
        server.stop();
    }

    /// Dropping a completer without completing must deliver the stamped
    /// `Timeout` backstop — a lost completer can never wedge a connection.
    #[test]
    fn dropped_completer_backstops_with_timeout() {
        let handler: Arc<DeferHandler> = Arc::new(move |req: Request, mut defer: Defer<'_>| {
            // Take the completer and lose it immediately.
            drop(defer.completer());
            let _ = req;
            Served::Parked
        });
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions::default(),
        )
        .unwrap();
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let req = Request::new(rid(0), Op::Get { key: Key::from("k") });
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.id, req.id);
        assert_eq!(resp.result, Err(KvError::Timeout));
        server.stop();
    }

    /// Satellite (b) regression: a *well-formed* reply whose body is the
    /// relay edge's `Timeout` (wedged controlet) must poison the client
    /// exactly like a direct transport timeout, so the caller's per-node
    /// circuit breaker sees the gray failure and reroutes. Same for an
    /// `Unavailable` fast-fail bounce.
    #[test]
    fn relay_failure_body_poisons_client_like_direct_timeout() {
        for err in [KvError::Timeout, KvError::Unavailable(ShardId(3))] {
            let relay_err = err.clone();
            let handler: Arc<Handler> = Arc::new(move |req: Request| {
                if let Op::Get { key } = &req.op {
                    if *key == Key::from("wedged") {
                        return Response::err(req.id, relay_err.clone());
                    }
                }
                Response {
                    id: req.id,
                    result: Ok(RespBody::Done),
                }
            });
            let server = TcpServer::bind(
                "127.0.0.1:0",
                Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
                handler,
            )
            .unwrap();
            let mut client =
                TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
            let bad = Request::new(rid(0), Op::Get { key: Key::from("wedged") });
            let resp = client.call(&bad).unwrap();
            assert_eq!(resp.result, Err(err.clone()));
            assert!(
                client.is_poisoned(),
                "relay-path {err:?} body must poison like a direct failure"
            );
            // Breaker engaged: further calls fail fast without touching the
            // socket, until an explicit reconnect.
            let ok = Request::new(rid(1), Op::Get { key: Key::from("fine") });
            assert_eq!(
                client.call(&ok),
                Err(KvError::Unavailable(ShardId(u32::MAX)))
            );
            client.reconnect(Box::new(BinaryParser::new())).unwrap();
            assert_eq!(client.call(&ok).unwrap().result, Ok(RespBody::Done));
            // An Overloaded shed body, by contrast, must NOT poison.
            server.stop();
        }
    }

    /// Shed (`Overloaded`) bodies are load signals, not node death — they
    /// must not trip the connection-level breaker.
    #[test]
    fn overloaded_body_does_not_poison() {
        let handler: Arc<Handler> = Arc::new(move |req: Request| {
            Response::err(req.id, KvError::Overloaded)
        });
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
        )
        .unwrap();
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let req = Request::new(rid(0), Op::Get { key: Key::from("k") });
        assert_eq!(client.call(&req).unwrap().result, Err(KvError::Overloaded));
        assert!(!client.is_poisoned());
        server.stop();
    }

    #[test]
    fn concurrent_connections() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
        )
        .unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c =
                        TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
                    for i in 0..50u32 {
                        let r = Request::new(
                            RequestId::compose(ClientId(t), i),
                            Op::Put {
                                key: Key::from(format!("t{t}-{i}")),
                                value: Value::from("x"),
                            },
                        );
                        assert_eq!(c.call(&r).unwrap().result, Ok(RespBody::Done));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.stop();
    }
}
