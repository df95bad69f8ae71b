//! Epoll reactor: the transport behind [`crate::tcp::TcpServer`] (Linux
//! only).
//!
//! A thread per connection spends a stack and two fds on each; at tens of
//! thousands of mostly-idle connections the stacks and context switches
//! dominate. This is the readiness-based design the paper's event-driven
//! framework implies: **N reactor threads**, each owning
//!
//! * one epoll instance (via the vendored `mio` shim),
//! * one acceptor — its own `SO_REUSEPORT` listener when the platform
//!   grants it (the kernel then load-balances accepts across reactors),
//!   else a shared listener drained under a tiny accept lock,
//! * a slab of connection states, indexed by the epoll token.
//!
//! Reads are edge-triggered: a readable event marks the connection and the
//! drive loop reads until `WouldBlock`, feeding the connection's
//! incremental [`ProtocolParser`]. Each response is encoded once into a
//! frame that is queued as-is; a vectored write (`writev`-style) flushes a
//! batch of frames per turn without recopying them into a contiguous
//! output buffer.
//!
//! # Backpressure
//!
//! Overload caps are expressed as flow control wherever it can do the job,
//! not shed-and-reply:
//!
//! * `pipeline_cap` → a **fairness budget**: at most that many requests
//!   are decoded and served per connection per turn. Surplus input stays
//!   in the parser/socket buffer and TCP pushes back on the sender —
//!   nothing mid-stream is shed, it is merely deferred.
//! * response backlog → an **output high-water mark**: a connection whose
//!   pending output exceeds [`OUT_HIGH_WATER`] stops being served (and
//!   therefore stops being read) until a writable edge drains it below
//!   [`OUT_LOW_WATER`].
//! * `max_connections` → a **slab bound**: a connection over the cap is
//!   still accepted, answers its first request batch with an explicit
//!   [`KvError::Overloaded`], and is closed — the client learns it was
//!   shed instead of staring at an unanswered SYN backlog. (A bounded
//!   number of such "shed lane" connections exist at once; beyond that the
//!   socket is simply dropped.)

use crate::tcp::{AnyHandler, Completer, EdgeCounters, ParserFactory, Served, ServerOptions};
use bespokv_proto::client::Response;
use bespokv_proto::parser::ProtocolParser;
use bespokv_types::KvError;
use bytes::{Bytes, BytesMut};
use mio::net::{TcpListener as MioListener, TcpStream as MioStream};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Token of every reactor's acceptor.
const ACCEPT: Token = Token(usize::MAX - 1);
/// Token of every reactor's shutdown waker.
const WAKE: Token = Token(usize::MAX);

/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Pending output beyond this pauses serving (and thus reading) the
/// connection until the socket drains.
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Serving resumes once pending output falls to this.
const OUT_LOW_WATER: usize = 32 * 1024;
/// Per-reactor bound on over-cap connections parked to receive their
/// explicit `Overloaded` answer.
const SHED_LANE: usize = 256;
/// Fairness budget when no `pipeline_cap` is configured: requests served
/// per connection per reactor turn.
const DEFAULT_TURN_BUDGET: usize = 128;
/// Frames per vectored write — Linux caps an iovec array at 1024
/// (`UIO_MAXIOV`); 64 already amortises the syscall and keeps the
/// on-stack slice array small.
const MAX_IOV: usize = 64;

fn default_reactor_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

/// State shared by all reactor threads of one server.
struct ReactorShared {
    stop: AtomicBool,
    counters: EdgeCounters,
    /// Live (non-shed) connections across all reactors.
    conn_count: AtomicUsize,
    max_connections: Option<usize>,
    /// Requests served per connection per turn (see module docs).
    budget: usize,
}

impl ReactorShared {
    /// Reserves a connection slot under `max_connections`, atomically
    /// across reactors. `false` means the cap is reached.
    fn try_reserve_conn(&self) -> bool {
        let Some(cap) = self.max_connections else {
            self.conn_count.fetch_add(1, Ordering::Relaxed);
            return true;
        };
        let mut cur = self.conn_count.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return false;
            }
            match self.conn_count.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

/// Per-reactor completion mailbox for parked requests. A [`Completer`]
/// minted on this reactor pushes its response here from any thread and
/// wakes the reactor, which matches it back to the parked output slot by
/// `(token, generation, ticket)` — the generation discards completions
/// aimed at a slab slot that was reused in the meantime.
struct Injector {
    queue: Mutex<Vec<(usize, u64, u64, Response)>>,
    waker: Waker,
    /// Wakes issued: one per empty → non-empty transition of `queue`.
    wakes: AtomicUsize,
}

impl Injector {
    /// Queues a completion; only a push onto an empty queue wakes the
    /// reactor, which drains the whole queue per turn.
    fn complete(&self, token: usize, gen: u64, ticket: u64, resp: Response) {
        let mut q = self.queue.lock();
        q.push((token, gen, ticket, resp));
        if q.len() == 1 {
            drop(q);
            self.wakes.fetch_add(1, Ordering::Relaxed);
            let _ = self.waker.wake();
        }
    }
}

/// The reactor threads of one [`crate::tcp::TcpServer`]. Dropping it stops
/// accepting, closes live connections and joins every thread.
pub(crate) struct ReactorEdge {
    local_addr: SocketAddr,
    shared: Arc<ReactorShared>,
    injectors: Vec<Arc<Injector>>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorEdge {
    pub(crate) fn bind(
        addr: &str,
        make_parser: Arc<ParserFactory>,
        handler: AnyHandler,
        options: &ServerOptions,
    ) -> io::Result<ReactorEdge> {
        let n = options.reactor_threads.unwrap_or_else(default_reactor_count).max(1);
        // Polls first: off Linux the shim fails here with `Unsupported`,
        // before any socket exists.
        let polls = (0..n).map(|_| Poll::new()).collect::<io::Result<Vec<_>>>()?;
        let (listeners, local_addr, accept_lock) = build_listeners(addr, n)?;
        let shared = Arc::new(ReactorShared {
            stop: AtomicBool::new(false),
            counters: EdgeCounters::default(),
            conn_count: AtomicUsize::new(0),
            max_connections: options.max_connections,
            budget: options.pipeline_cap.unwrap_or(DEFAULT_TURN_BUDGET).max(1),
        });
        // An early `?` return drops `edge`, which stops and joins the
        // reactors already running.
        let mut edge = ReactorEdge {
            local_addr,
            shared,
            injectors: Vec::with_capacity(n),
            threads: Vec::with_capacity(n),
        };
        for (i, (poll, listener)) in polls.into_iter().zip(listeners).enumerate() {
            let waker = Waker::new(poll.registry(), WAKE)?;
            let injector = Arc::new(Injector {
                queue: Mutex::new(Vec::new()),
                waker,
                wakes: AtomicUsize::new(0),
            });
            let mut mio_listener = MioListener::from_std(listener);
            poll.registry()
                .register(&mut mio_listener, ACCEPT, Interest::READABLE)?;
            let mut reactor = Reactor {
                poll,
                listener: mio_listener,
                accept_lock: accept_lock.clone(),
                shared: Arc::clone(&edge.shared),
                make_parser: Arc::clone(&make_parser),
                handler: handler.clone(),
                injector: Arc::clone(&injector),
                slab: Vec::new(),
                free: Vec::new(),
                ready: Vec::new(),
                shed_count: 0,
                next_gen: 0,
                read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            };
            let t = std::thread::Builder::new()
                .name(format!("bespokv-reactor-{i}"))
                .spawn(move || reactor.run())?;
            edge.injectors.push(injector);
            edge.threads.push(t);
        }
        Ok(edge)
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn counters(&self) -> &EdgeCounters {
        &self.shared.counters
    }
}

impl Drop for ReactorEdge {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for inj in &self.injectors {
            let _ = inj.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Builds the per-reactor listeners: `SO_REUSEPORT` siblings when
/// possible (kernel-balanced accepts, no shared state), else clones of
/// one listener drained under a shared accept lock.
#[allow(clippy::type_complexity)]
fn build_listeners(
    addr: &str,
    n: usize,
) -> io::Result<(Vec<std::net::TcpListener>, SocketAddr, Option<Arc<Mutex<()>>>)> {
    use std::net::ToSocketAddrs;
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable bind address"))?;
    if n > 1 {
        if let SocketAddr::V4(v4) = target {
            if let Ok(first) = sys::bind_reuseport(v4) {
                if let Ok(SocketAddr::V4(real)) = first.local_addr() {
                    let mut listeners = vec![first];
                    // Siblings bind the *resolved* port (matters for :0).
                    while listeners.len() < n {
                        match sys::bind_reuseport(real) {
                            Ok(l) => listeners.push(l),
                            Err(_) => break,
                        }
                    }
                    if listeners.len() == n {
                        return Ok((listeners, SocketAddr::V4(real), None));
                    }
                }
            }
        }
    }
    let listener = std::net::TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let mut listeners = Vec::with_capacity(n);
    for _ in 1..n {
        listeners.push(listener.try_clone()?);
    }
    listeners.push(listener);
    Ok((listeners, local, Some(Arc::new(Mutex::new(())))))
}

/// One ordered response slot in a connection's output queue. Parked
/// requests hold their place in the per-connection FIFO as `Pending`
/// slots; the completion (or the deadline backstop) turns the slot into a
/// `Frame` in place, so responses can never overtake each other even when
/// one of them waits on a wedged controlet.
enum OutSlot {
    /// An encoded, ready-to-write response frame.
    Frame(Bytes),
    /// A parked request's reserved position, keyed by its ticket.
    Pending(u64),
}

/// Per-connection state, slab-indexed by its epoll token.
struct Conn {
    stream: MioStream,
    parser: Box<dyn ProtocolParser>,
    /// Ordered response slots, oldest first. Ready frames are encoded
    /// exactly once and frozen in place; a vectored write flushes up to
    /// [`MAX_IOV`] of the *contiguous ready prefix* per syscall (a
    /// `Pending` slot fences the flush until its completion arrives).
    out: VecDeque<OutSlot>,
    /// Bytes of the front frame already written (partial `writev`).
    out_head: usize,
    /// Unsent bytes across all ready frames (already net of `out_head`) —
    /// the quantity the high/low-water marks compare against.
    out_len: usize,
    /// Slab-slot generation this connection was installed under; a
    /// completion carrying a stale generation is discarded.
    gen: u64,
    /// Next parked-request ticket (unique per connection incarnation).
    next_ticket: u64,
    /// Outstanding `Pending` slots; at `budget` the connection stops being
    /// served (and read) until a completion lands — backpressure, exactly
    /// like the output high-water mark.
    parked: usize,
    /// The last read edge has not been drained to `WouldBlock` yet.
    sock_readable: bool,
    /// Registered for WRITABLE (a flush hit `WouldBlock`).
    writable_interest: bool,
    /// Output over the high-water mark: serving is suspended.
    paused: bool,
    /// Over-cap connection in the shed lane: answers `Overloaded`, then closes.
    shed: bool,
    /// The shed answer has been produced.
    answered_shed: bool,
    /// Peer hung up; close once output drains.
    eof: bool,
    /// Close once output drains.
    closing: bool,
    /// Already on the ready list for this turn.
    queued: bool,
}

enum Drive {
    Keep,
    Close,
}

/// Encodes a ready response once and queues it as the connection's next
/// ordered output slot.
fn push_frame(c: &mut Conn, resp: &Response) {
    let mut buf = BytesMut::new();
    c.parser.encode_response(resp, &mut buf);
    let frame = buf.freeze();
    c.out_len += frame.len();
    c.out.push_back(OutSlot::Frame(frame));
}

/// One reactor thread: poll, accept, drive.
struct Reactor {
    poll: Poll,
    listener: MioListener,
    accept_lock: Option<Arc<Mutex<()>>>,
    shared: Arc<ReactorShared>,
    make_parser: Arc<ParserFactory>,
    handler: AnyHandler,
    injector: Arc<Injector>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections with work pending this turn (deferred budget, fresh
    /// readable/writable edges).
    ready: Vec<usize>,
    /// Shed-lane connections currently parked on this reactor.
    shed_count: usize,
    /// Generation source for slab installs (see [`Conn::gen`]).
    next_gen: u64,
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            // Deferred work pending → just collect whatever is already
            // ready; otherwise sleep until an edge or the shutdown waker.
            let timeout = if self.ready.is_empty() {
                None
            } else {
                Some(Duration::ZERO)
            };
            if self.poll.poll(&mut events, timeout).is_err() {
                if self.shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let mut accept_ready = false;
            for ev in &events {
                match ev.token() {
                    WAKE => {}
                    ACCEPT => accept_ready = true,
                    Token(i) => {
                        if let Some(c) = self.slab.get_mut(i).and_then(|s| s.as_mut()) {
                            if ev.is_readable() {
                                c.sock_readable = true;
                            }
                            // Writable edges are consumed by the flush every
                            // drive performs; only the scheduling matters.
                            if !c.queued {
                                c.queued = true;
                                self.ready.push(i);
                            }
                        }
                    }
                }
            }
            if accept_ready {
                self.accept_all();
            }
            self.drain_completions();
            for idx in std::mem::take(&mut self.ready) {
                self.drive(idx);
            }
        }
        // Dropping the slab closes every connection fd.
        for c in self.slab.drain(..).flatten() {
            if !c.shed {
                self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Matches injected completions of parked requests back to their
    /// reserved output slots. Runs on the reactor thread, so the
    /// connection's parser is used without synchronization; stale
    /// `(token, gen)` pairs (the connection died or the slot was reused)
    /// and unknown tickets (deadline already answered) are discarded.
    fn drain_completions(&mut self) {
        let completions = std::mem::take(&mut *self.injector.queue.lock());
        for (idx, gen, ticket, resp) in completions {
            let Some(c) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                continue;
            };
            if c.gen != gen {
                continue;
            }
            let Some(pos) = c
                .out
                .iter()
                .position(|s| matches!(s, OutSlot::Pending(t) if *t == ticket))
            else {
                continue;
            };
            let mut buf = BytesMut::new();
            c.parser.encode_response(&resp, &mut buf);
            let frame = buf.freeze();
            c.out_len += frame.len();
            c.out[pos] = OutSlot::Frame(frame);
            c.parked -= 1;
            if !c.queued {
                c.queued = true;
                self.ready.push(idx);
            }
        }
    }

    /// Drains the acceptor (edge-triggered: must hit `WouldBlock`).
    fn accept_all(&mut self) {
        loop {
            let accepted = {
                let _guard = self.accept_lock.as_ref().map(|l| l.lock());
                self.listener.accept()
            };
            match accepted {
                Ok((stream, _peer)) => self.install(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn install(&mut self, mut stream: MioStream) {
        let _ = stream.set_nodelay(true);
        let shed = if self.shared.try_reserve_conn() {
            false
        } else {
            // Over the slab bound. Park it in the shed lane for an explicit
            // Overloaded answer — unless the lane itself is full, in which
            // case dropping is the only honest move left.
            self.shared.counters.refused.fetch_add(1, Ordering::Relaxed);
            if self.shed_count >= SHED_LANE {
                return; // drop: closes the socket
            }
            self.shed_count += 1;
            true
        };
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        if self
            .poll
            .registry()
            .register(&mut stream, Token(idx), Interest::READABLE)
            .is_err()
        {
            self.free.push(idx);
            if shed {
                self.shed_count -= 1;
            } else {
                self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
        if !shed {
            self.shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        }
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        self.slab[idx] = Some(Conn {
            stream,
            parser: (self.make_parser)(),
            out: VecDeque::new(),
            out_head: 0,
            out_len: 0,
            gen,
            next_ticket: 0,
            parked: 0,
            // Bytes may have landed before registration; the first drive
            // reads to WouldBlock either way.
            sock_readable: true,
            writable_interest: false,
            paused: false,
            shed,
            answered_shed: false,
            eof: false,
            closing: false,
            queued: true,
        });
        self.ready.push(idx);
    }

    fn drive(&mut self, idx: usize) {
        // The connection leaves the slab for the duration of the drive so
        // the borrow checker sees it disjoint from the reactor state.
        let Some(mut conn) = self.slab.get_mut(idx).and_then(Option::take) else {
            return;
        };
        match self.drive_conn(idx, &mut conn) {
            Drive::Keep => self.slab[idx] = Some(conn),
            Drive::Close => self.release(idx, conn),
        }
    }

    fn release(&mut self, idx: usize, conn: Conn) {
        if conn.shed {
            self.shed_count -= 1;
        } else {
            self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
        }
        drop(conn); // closes the fd, which also removes it from epoll
        self.free.push(idx);
    }

    fn drive_conn(&mut self, idx: usize, c: &mut Conn) -> Drive {
        c.queued = false;
        let mut requeue = false;
        'work: loop {
            // Serve what the parser already holds, within the fairness
            // budget and below the output high-water mark.
            let mut served = 0usize;
            let mut parked_full = false;
            while !c.paused && served < self.shared.budget {
                if c.parked >= self.shared.budget {
                    // Parked-slot backpressure: too many requests already
                    // wait on asynchronous completions; stop serving (and
                    // reading) this connection until one lands — TCP pushes
                    // back on the sender, nothing is shed.
                    parked_full = true;
                    break;
                }
                match c.parser.next_request() {
                    Ok(Some(req)) => {
                        served += 1;
                        if c.shed {
                            c.answered_shed = true;
                            let resp = Response::err(req.id, KvError::Overloaded);
                            push_frame(c, &resp);
                            continue;
                        }
                        let rid = req.id;
                        let gen = c.gen;
                        let ticket = c.next_ticket;
                        let mut minted = false;
                        let injector = &self.injector;
                        let handler = &self.handler;
                        // A panicking handler costs this connection, not
                        // the reactor thread (and its whole slab).
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                handler.call(req, &mut || {
                                    minted = true;
                                    let inj = Arc::clone(injector);
                                    Completer::new(rid, move |resp| {
                                        inj.complete(idx, gen, ticket, resp);
                                    })
                                })
                            }));
                        match outcome {
                            Ok(Served::Ready(resp)) => push_frame(c, &resp),
                            Ok(Served::Parked) if minted => {
                                // The reactor turn returns immediately; the
                                // slot holds the response's place in the
                                // per-connection FIFO until the completer
                                // (or its drop backstop) fires.
                                c.next_ticket += 1;
                                c.parked += 1;
                                c.out.push_back(OutSlot::Pending(ticket));
                            }
                            Ok(Served::Parked) => {
                                // Parked without taking a completer: nothing
                                // will ever answer; synthesize the failure.
                                push_frame(c, &Response::err(rid, KvError::Timeout));
                            }
                            Err(_) => return Drive::Close,
                        }
                        if c.out_len >= OUT_HIGH_WATER {
                            c.paused = true;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        return Drive::Close;
                    }
                }
            }
            if served == self.shared.budget {
                // Budget spent: yield to the other connections; the rest of
                // this one's input is deferred, not shed.
                requeue = true;
                break 'work;
            }
            if parked_full {
                // No requeue: nothing can progress until a completion
                // arrives, and `drain_completions` requeues then.
                break 'work;
            }
            if c.paused {
                // Output backpressure: try to drain; park until a writable
                // edge if the socket won't take it yet.
                if !self.flush(idx, c) {
                    return Drive::Close;
                }
                if c.paused {
                    break 'work;
                }
                continue 'work;
            }
            // Parser drained; pull more bytes while the read edge is live.
            if !c.sock_readable {
                break 'work;
            }
            match c.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    c.eof = true;
                    c.sock_readable = false;
                }
                Ok(n) => {
                    c.parser.feed(&self.read_buf[..n]);
                    continue 'work;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => c.sock_readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Drive::Close,
            }
        }
        // A shed-lane connection closes right after its explicit answer; a
        // hung-up peer once the responses it is owed have drained.
        if (c.shed && c.answered_shed) || c.eof {
            c.closing = true;
        }
        if !self.flush(idx, c) {
            return Drive::Close;
        }
        // A closing connection with parked slots waits for their
        // completions (the deadline backstop bounds the wait); the stale-
        // generation check makes late completions after the close harmless.
        if c.closing && c.out.is_empty() {
            return Drive::Close;
        }
        if requeue && !c.queued {
            c.queued = true;
            self.ready.push(idx);
        }
        Drive::Keep
    }

    /// Writes pending output with vectored writes (up to [`MAX_IOV`]
    /// frames of the contiguous *ready* prefix per syscall — a `Pending`
    /// slot fences the flush — the first frame offset by `out_head` for a
    /// partial prior write); arms/disarms WRITABLE interest as needed.
    /// `false` means the connection is dead.
    fn flush(&self, idx: usize, c: &mut Conn) -> bool {
        loop {
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(c.out.len().min(MAX_IOV));
            for (i, slot) in c.out.iter().take(MAX_IOV).enumerate() {
                match slot {
                    OutSlot::Frame(frame) => {
                        let frame = if i == 0 { &frame[c.out_head..] } else { &frame[..] };
                        iov.push(IoSlice::new(frame));
                    }
                    // A parked response's reserved position: everything
                    // behind it must wait, or responses would reorder.
                    OutSlot::Pending(_) => break,
                }
            }
            if iov.is_empty() {
                break;
            }
            match c.stream.write_vectored(&iov) {
                Ok(0) => return false,
                Ok(mut n) => {
                    c.out_len -= n;
                    // Retire fully-written frames; remember the offset
                    // into a partially-written front frame.
                    while n > 0 {
                        let OutSlot::Frame(front) = &c.out[0] else {
                            unreachable!("wrote bytes of a pending slot");
                        };
                        let left = front.len() - c.out_head;
                        if n >= left {
                            n -= left;
                            c.out_head = 0;
                            c.out.pop_front();
                        } else {
                            c.out_head += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Socket buffer full: re-arm for a writable edge. The
                    // reregister also refreshes the read edge, which is
                    // harmless (a spurious event at worst).
                    if !c.writable_interest {
                        if self
                            .poll
                            .registry()
                            .reregister(
                                &mut c.stream,
                                Token(idx),
                                Interest::READABLE | Interest::WRITABLE,
                            )
                            .is_err()
                        {
                            return false;
                        }
                        c.writable_interest = true;
                    }
                    if c.paused && c.out_len <= OUT_LOW_WATER {
                        c.paused = false;
                    }
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if c.writable_interest {
            if self
                .poll
                .registry()
                .reregister(&mut c.stream, Token(idx), Interest::READABLE)
                .is_err()
            {
                return false;
            }
            c.writable_interest = false;
        }
        // Ready frames fenced behind a pending slot still count against
        // the high-water mark; only a genuinely drained backlog unpauses.
        if c.out_len <= OUT_LOW_WATER {
            c.paused = false;
        }
        true
    }
}

/// `SO_REUSEPORT` listener creation, declared directly against the C ABI
/// (same offline-build pattern as the vendored `mio` shim; IPv4 only,
/// which is all the edge binds in practice).
mod sys {
    use std::io;
    use std::mem;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;
    const LISTEN_BACKLOG: i32 = 1024;

    /// The kernel's `struct sockaddr_in`: port and address live in network
    /// byte order.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub(super) fn bind_reuseport(addr: SocketAddrV4) -> io::Result<TcpListener> {
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let fail = |fd: i32| -> io::Error {
                let e = io::Error::last_os_error();
                close(fd);
                e
            };
            let one: i32 = 1;
            for opt in [SO_REUSEADDR, SO_REUSEPORT] {
                if setsockopt(fd, SOL_SOCKET, opt, &one, 4) != 0 {
                    return Err(fail(fd));
                }
            }
            let sa = SockaddrIn {
                family: AF_INET as u16,
                port: addr.port().to_be(),
                // octets() is already big-endian byte order; from_ne_bytes
                // preserves that memory layout.
                addr: u32::from_ne_bytes(addr.ip().octets()),
                zero: [0; 8],
            };
            if bind(fd, &sa, mem::size_of::<SockaddrIn>() as u32) != 0 {
                return Err(fail(fd));
            }
            if listen(fd, LISTEN_BACKLOG) != 0 {
                return Err(fail(fd));
            }
            // SAFETY: fd is a fresh, owned, listening socket.
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tcp::{Handler, ServerOptions, TcpClient, TcpServer};
    use bespokv_proto::client::{Op, Request, RespBody, Response};
    use bespokv_proto::parser::{BinaryParser, ProtocolParser};
    use bespokv_types::{ClientId, Key, KvError, RequestId, Value, VersionedValue};
    use bytes::BytesMut;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::sync::Arc;
    use std::time::Duration;

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

    fn reactor_server(options: ServerOptions) -> TcpServer {
        TcpServer::bind_with(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            kv_handler(),
            ServerOptions {
                reactor_threads: Some(2),
                ..options
            },
        )
        .unwrap()
    }

    fn rid(seq: u32) -> RequestId {
        RequestId::compose(ClientId(1), seq)
    }

    #[test]
    fn injector_wakes_once_per_drain() {
        use super::{Injector, WAKE};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let poll = mio::Poll::new().unwrap();
        let inj = Injector {
            queue: Mutex::new(Vec::new()),
            waker: mio::Waker::new(poll.registry(), WAKE).unwrap(),
            wakes: AtomicUsize::new(0),
        };
        let push = |seq: u32| {
            inj.complete(0, 0, u64::from(seq), Response::err(rid(seq), KvError::Timeout))
        };
        for seq in 0..3 {
            push(seq);
        }
        assert_eq!(inj.wakes.load(Ordering::Relaxed), 1, "pushes behind a pending wake woke again");
        // The reactor's drain empties the queue; the next push must wake.
        assert_eq!(std::mem::take(&mut *inj.queue.lock()).len(), 3);
        push(3);
        assert_eq!(inj.wakes.load(Ordering::Relaxed), 2, "a push after the drain must wake");
    }

    #[test]
    fn reactor_roundtrip_and_stop() {
        let server = reactor_server(ServerOptions::default());
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
        assert_eq!(
            client.call(&get).unwrap().result,
            Ok(RespBody::Value(VersionedValue::new(Value::from("v"), 1)))
        );
        // stop() with the connection still open must join promptly.
        let (tx, rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "reactor stop() hung with a live connection"
        );
        stopper.join().unwrap();
    }

    /// Satellite: a request frame trickling in byte-by-byte across many
    /// readable edges must reassemble into exactly one served request.
    #[test]
    fn partial_frame_trickle_reassembles() {
        let server = reactor_server(ServerOptions::default());
        // Seed a value to read back.
        let mut seeder =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let put = Request::new(
            rid(0),
            Op::Put {
                key: Key::from("trickle"),
                value: Value::from("payload"),
            },
        );
        assert_eq!(seeder.call(&put).unwrap().result, Ok(RespBody::Done));

        // Hand-feed the GET frame one byte at a time.
        let mut parser = BinaryParser::new();
        let get = Request::new(rid(1), Op::Get { key: Key::from("trickle") });
        let mut wire = BytesMut::new();
        parser.encode_request(&get, &mut wire);
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in wire.iter() {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = BinaryParser::new();
        let mut buf = [0u8; 1024];
        let resp = loop {
            if let Some(r) = reply.next_response().unwrap() {
                break r;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed mid-trickle");
            reply.feed(&buf[..n]);
        };
        assert_eq!(resp.id, get.id);
        assert_eq!(
            resp.result,
            Ok(RespBody::Value(VersionedValue::new(Value::from("payload"), 1)))
        );
        server.stop();
    }

    /// Satellite: responses larger than the socket buffer must pend, arm
    /// WRITABLE interest, and complete once the (initially idle) client
    /// starts reading — the write path re-arms instead of busy-spinning or
    /// dropping output.
    #[test]
    fn write_interest_rearms_after_full_socket_buffer() {
        let server = reactor_server(ServerOptions::default());
        let addr = server.local_addr();
        let big = Value::from(vec![0xA5u8; 256 * 1024]);
        let mut seeder = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let put = Request::new(
            rid(0),
            Op::Put {
                key: Key::from("big"),
                value: big.clone(),
            },
        );
        assert_eq!(seeder.call(&put).unwrap().result, Ok(RespBody::Done));

        // Pipeline 8 GETs of the 256 KiB value (~2 MiB of responses) and
        // do NOT read for a while: the server must park on WRITABLE.
        let mut parser = BinaryParser::new();
        let reqs: Vec<Request> = (1..=8)
            .map(|i| Request::new(rid(i), Op::Get { key: Key::from("big") }))
            .collect();
        let mut wire = BytesMut::new();
        for r in &reqs {
            parser.encode_request(r, &mut wire);
        }
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // Now drain: every response must arrive, intact and in order.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reply = BinaryParser::new();
        let mut buf = [0u8; 64 * 1024];
        let mut got = Vec::new();
        while got.len() < reqs.len() {
            while let Some(r) = reply.next_response().unwrap() {
                got.push(r);
            }
            if got.len() == reqs.len() {
                break;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed before all responses arrived");
            reply.feed(&buf[..n]);
        }
        for (req, resp) in reqs.iter().zip(&got) {
            assert_eq!(resp.id, req.id, "responses reordered under write backpressure");
            assert_eq!(
                resp.result,
                Ok(RespBody::Value(VersionedValue::new(big.clone(), 1)))
            );
        }
        server.stop();
    }

    /// Satellite (writev flush): a burst of pipelined mid-size responses
    /// must trip the output high-water pause by accumulation (no single
    /// frame reaches the mark alone), then drain through repeated
    /// vectored writes. Exercises pause/unpause cycling, multi-frame
    /// iovec batches, and partial-write head offsets — every response
    /// must arrive intact and in order.
    #[test]
    fn high_water_pause_resumes_and_preserves_frames() {
        let server = reactor_server(ServerOptions::default());
        let addr = server.local_addr();
        let val = Value::from(vec![0x5Au8; 48 * 1024]);
        let mut seeder = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let put = Request::new(
            rid(0),
            Op::Put {
                key: Key::from("hw"),
                value: val.clone(),
            },
        );
        assert_eq!(seeder.call(&put).unwrap().result, Ok(RespBody::Done));

        // 32 pipelined GETs of a 48 KiB value: ~1.5 MiB of responses, far
        // over OUT_HIGH_WATER, while the client does not read — the
        // server must pause serving, park on WRITABLE, and resume below
        // the low-water mark as we drain.
        let mut parser = BinaryParser::new();
        let reqs: Vec<Request> = (1..=32)
            .map(|i| Request::new(rid(i), Op::Get { key: Key::from("hw") }))
            .collect();
        let mut wire = BytesMut::new();
        for r in &reqs {
            parser.encode_request(r, &mut wire);
        }
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reply = BinaryParser::new();
        let mut buf = [0u8; 64 * 1024];
        let mut got = Vec::new();
        while got.len() < reqs.len() {
            while let Some(r) = reply.next_response().unwrap() {
                got.push(r);
            }
            if got.len() == reqs.len() {
                break;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed before all responses arrived");
            reply.feed(&buf[..n]);
        }
        for (req, resp) in reqs.iter().zip(&got) {
            assert_eq!(resp.id, req.id, "frames reordered across the pause");
            assert_eq!(
                resp.result,
                Ok(RespBody::Value(VersionedValue::new(val.clone(), 1)))
            );
        }
        server.stop();
    }

    /// Satellite: deep pipelining across concurrent connections — each
    /// connection's responses come back complete and in request order.
    #[test]
    fn per_connection_order_across_reactors() {
        let server = reactor_server(ServerOptions::default());
        let addr = server.local_addr();
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c =
                        TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
                    for round in 0..5u32 {
                        let reqs: Vec<Request> = (0..64)
                            .map(|i| {
                                Request::new(
                                    RequestId::compose(ClientId(t), round * 64 + i),
                                    Op::Put {
                                        key: Key::from(format!("k{t}-{round}-{i}")),
                                        value: Value::from("v"),
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
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.stop();
    }

    /// The reactor re-expression of `pipeline_cap`: a batch deeper than the
    /// cap is *deferred* across turns, not shed — every request is served.
    #[test]
    fn pipeline_cap_defers_instead_of_shedding() {
        let server = reactor_server(ServerOptions {
            pipeline_cap: Some(4),
            ..ServerOptions::default()
        });
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let reqs: Vec<Request> = (0..64)
            .map(|i| {
                Request::new(rid(i), Op::Put {
                    key: Key::from(format!("k{i}")),
                    value: Value::from("v"),
                })
            })
            .collect();
        let resps = client.call_pipelined(&reqs).unwrap();
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(resp.id, req.id);
            assert_eq!(resp.result, Ok(RespBody::Done), "reactor shed a deferrable request");
        }
        assert_eq!(server.stats().pipeline_shed, 0);
        server.stop();
    }

    /// The reactor re-expression of `max_connections`: an over-cap
    /// connection is answered with an explicit Overloaded and closed —
    /// not silently left in the SYN backlog.
    #[test]
    fn slab_cap_sheds_with_explicit_overloaded() {
        let server = reactor_server(ServerOptions {
            max_connections: Some(2),
            ..ServerOptions::default()
        });
        let addr = server.local_addr();
        let mut keep = Vec::new();
        for i in 0..2u32 {
            let mut c = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
            let r = Request::new(rid(i), Op::Put {
                key: Key::from(format!("k{i}")),
                value: Value::from("v"),
            });
            assert_eq!(c.call(&r).unwrap().result, Ok(RespBody::Done));
            keep.push(c);
        }
        // The over-cap client gets a real answer: Overloaded, then close.
        let mut extra = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let r = Request::new(rid(9), Op::Get { key: Key::from("k0") });
        let resp = extra.call(&r).unwrap();
        assert_eq!(resp.id, r.id);
        assert_eq!(resp.result, Err(KvError::Overloaded));
        let stats = server.stats();
        assert!(stats.connections_refused >= 1);
        assert_eq!(stats.connections_accepted, 2);
        // In-cap connections keep working.
        let r2 = Request::new(rid(10), Op::Get { key: Key::from("k0") });
        assert!(keep[0].call(&r2).unwrap().result.is_ok());
        server.stop();
    }

    /// Tentpole: a parked request must NOT hold a reactor thread — other
    /// connections keep being served while one response waits, and the
    /// parked response arrives correctly once completed from outside.
    #[test]
    fn parked_request_does_not_block_the_reactor() {
        use crate::tcp::{Completer, Defer, DeferHandler, Served};
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
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions {
                // One reactor thread: if the park blocked it, the probe
                // connection below could not be served at all.
                reactor_threads: Some(1),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut parker = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let park_req = Request::new(rid(0), Op::Get { key: Key::from("park") });
        let parker_thread = std::thread::spawn(move || {
            let resp = parker.call(&park_req).unwrap();
            assert_eq!(resp.id, park_req.id);
            assert_eq!(resp.result, Ok(RespBody::Done));
        });
        // Wait until the request is actually parked on the single reactor.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while parked.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "request never parked");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The lone reactor thread must still serve other connections while
        // the first request is parked.
        let mut probe = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        for i in 1..=20u32 {
            let r = Request::new(rid(i), Op::Get { key: Key::from("probe") });
            let resp = probe.call(&r).unwrap();
            assert_eq!(resp.id, r.id, "reactor blocked by a parked request");
        }
        // Now complete the parked request from this thread.
        let c = parked.lock().pop().unwrap();
        let id = c.rid();
        c.complete(Response {
            id,
            result: Ok(RespBody::Done),
        });
        parker_thread.join().unwrap();
        server.stop();
    }

    /// Per-connection FIFO survives a park in the middle of a pipelined
    /// batch on the reactor: the pending slot fences later (already ready)
    /// responses until its completion arrives.
    #[test]
    fn parked_slot_preserves_pipeline_order_on_reactor() {
        use crate::tcp::{Completer, Defer, DeferHandler, Served};
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
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions {
                reactor_threads: Some(1),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let completer_thread = {
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || loop {
                if let Some(c) = parked.lock().pop() {
                    std::thread::sleep(Duration::from_millis(50));
                    let id = c.rid();
                    c.complete(Response {
                        id,
                        result: Ok(RespBody::Done),
                    });
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
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
            assert_eq!(resp.id, req.id, "park reordered reactor responses");
            assert_eq!(resp.result, Ok(RespBody::Done));
        }
        completer_thread.join().unwrap();
        server.stop();
    }

    /// A dropped completer's backstop `Timeout` flows through the
    /// injection path and unfences the connection's output queue.
    #[test]
    fn dropped_completer_backstop_reaches_reactor_client() {
        use crate::tcp::{Defer, DeferHandler, Served};
        let handler: Arc<DeferHandler> = Arc::new(move |req: Request, mut defer: Defer<'_>| {
            if let Op::Get { key } = &req.op {
                if *key == Key::from("lost") {
                    drop(defer.completer());
                    return Served::Parked;
                }
            }
            Served::Ready(Response {
                id: req.id,
                result: Ok(RespBody::Done),
            })
        });
        let server = TcpServer::bind_deferred(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            handler,
            ServerOptions {
                reactor_threads: Some(1),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let mut client =
            TcpClient::connect(server.local_addr(), Box::new(BinaryParser::new())).unwrap();
        let batch = vec![
            Request::new(rid(0), Op::Get { key: Key::from("lost") }),
            Request::new(rid(1), Op::Get { key: Key::from("fine") }),
        ];
        let resps = client.call_pipelined(&batch).unwrap();
        assert_eq!(resps[0].result, Err(KvError::Timeout));
        assert_eq!(resps[1].id, batch[1].id);
        assert_eq!(resps[1].result, Ok(RespBody::Done));
        server.stop();
    }

    /// A malformed stream drops only its own connection, and is counted.
    #[test]
    fn protocol_error_drops_connection_and_counts() {
        let server = reactor_server(ServerOptions::default());
        let addr = server.local_addr();
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        match bad.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("corrupt frame got {n} response bytes"),
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().protocol_error_drops == 0 {
            assert!(std::time::Instant::now() < deadline, "drop never counted");
            std::thread::yield_now();
        }
        // The server survived: a well-formed connection still works.
        let mut ok = TcpClient::connect(addr, Box::new(BinaryParser::new())).unwrap();
        let r = Request::new(rid(0), Op::Put {
            key: Key::from("k"),
            value: Value::from("v"),
        });
        assert_eq!(ok.call(&r).unwrap().result, Ok(RespBody::Done));
        server.stop();
    }
}
