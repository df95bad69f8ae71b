//! Live driver: real threads, real time, and actors that run on the thread
//! that sends to them.
//!
//! Runs the same [`Actor`] state machines as the simulator, run to
//! completion as the paper's event loop runs its handlers (§III-B). Each
//! actor has its state behind a try-lock, one FIFO queue, a timer heap and
//! a home thread `actor-N`. A send enqueues its message and then, when the
//! target is idle, runs the target's handler right there on the sending
//! thread — a reactor thread, a thread running a peer actor, a test thread
//! — so a request crosses no thread hop. The home thread takes over only
//! when the target is busy on another thread (whose runner then drains the
//! queue), inside a stall window, or past a budget of 64 messages in one
//! run; it alone dispatches `Start`, fires timers and takes the stop of
//! [`LiveRuntime::kill`].
//!
//! A thread inside a handler never runs a second actor nested under it: its
//! sends put the target on a thread-local run list, which the outermost
//! frame drains once the first actor is released. Nesting depth stays at 1,
//! and no thread ever blocks on another actor's lock.
//!
//! `now()` reads the monotonic clock. CPU charges from [`Context::charge`]
//! are ignored — real work takes real time here. An external address
//! ([`Mailbox`]) has no state or thread: a message sent to it runs its sink
//! callback on the sender's thread.
//!
//! This driver backs the integration tests (end-to-end correctness of the
//! controlet protocols with true parallelism) and the wall-clock latency
//! benchmarks.

use crate::actor::{Action, Actor, Addr, Context, Event};
use bespokv_proto::client::Response;
use bespokv_proto::NetMsg;
use bespokv_types::{Instant, KvError, OverloadCounters};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;

/// Messages one run handles before it hands the actor to its home thread:
/// a flooded actor cannot hold a reactor thread, and its timers still fire.
const INLINE_BUDGET: usize = 64;

/// Longest a home thread sleeps while a stall window is open or client
/// traffic is gray-held, so the window's end is noticed promptly.
const STALL_POLL: std::time::Duration = std::time::Duration::from_millis(2);

/// Wall-clock gray-failure state injected into one actor. The live
/// counterpart of the simulator's `StallPlan` windows: the node stays alive
/// and its outbound traffic is untouched, only inbound progress is impaired.
/// While a window is open every message goes through the home thread.
#[derive(Clone, Copy, Debug, Default)]
enum StallState {
    #[default]
    None,
    /// The actor stops: no messages, no timers — a GC pause or disk
    /// stall, not a crash.
    Wedge { until: std::time::Instant },
    /// Every message costs an extra `per_msg` of service time.
    Slow {
        until: std::time::Instant,
        per_msg: std::time::Duration,
    },
    /// Client/relay messages are held until the window closes;
    /// replication and control traffic (and timers) proceed, so
    /// heartbeats keep the node looking healthy.
    Gray { until: std::time::Instant },
}

impl StallState {
    fn until(&self) -> Option<std::time::Instant> {
        match *self {
            StallState::None => None,
            StallState::Wedge { until }
            | StallState::Slow { until, .. }
            | StallState::Gray { until } => Some(until),
        }
    }
}

#[derive(Default)]
struct StallCell {
    state: Mutex<StallState>,
    /// Whether a window is open, read lock-free on every send. Only the
    /// home thread clears it, while it holds the actor: gray-held traffic
    /// replays before any inline run sees the window closed.
    armed: AtomicBool,
}

impl StallCell {
    fn set(&self, s: StallState) {
        let mut st = self.state.lock();
        *st = s;
        self.armed.store(s.until().is_some(), Ordering::Release);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// The open window, closing it first if it has expired.
    fn current(&self) -> StallState {
        if !self.armed() {
            return StallState::None;
        }
        let mut st = self.state.lock();
        if st.until().is_none_or(|until| std::time::Instant::now() >= until) {
            *st = StallState::None;
            self.armed.store(false, Ordering::Release);
        }
        *st
    }

    /// Blocks while a wedge window is open (in small slices, so a
    /// cancelled or replaced window takes effect promptly).
    fn wedge_wait(&self) {
        while let StallState::Wedge { until } = self.current() {
            let left = until.saturating_duration_since(std::time::Instant::now());
            std::thread::sleep(left.min(STALL_POLL));
        }
    }

    /// Extra per-message service delay while a slow window is open.
    fn slow_delay(&self) -> Option<std::time::Duration> {
        match self.current() {
            StallState::Slow { per_msg, .. } => Some(per_msg),
            _ => None,
        }
    }

    /// Whether a gray window currently holds client traffic.
    fn gray_active(&self) -> bool {
        matches!(self.current(), StallState::Gray { .. })
    }
}

struct PendingTimer {
    due: Instant,
    seq: u64,
    token: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

#[derive(Default)]
struct Timers {
    heap: BinaryHeap<PendingTimer>,
    seq: u64,
}

/// An actor as its runners hold it: `None` before `Start` and once gone.
type State = Option<Box<dyn Actor>>;

/// An actor waiting on a thread's run list, with the router it sends through.
type Runnable = (Arc<Router>, Arc<Cell>);

/// What a home thread is woken for.
struct Home {
    /// Work may be waiting: queued messages it must run, or a timer armed
    /// earlier than the deadline it sleeps to.
    rung: bool,
    /// Parked on the condvar (a ring only signals a sleeping thread).
    sleeping: bool,
    /// [`LiveRuntime::kill`] asked it to stop.
    stop: bool,
}

/// One actor: its state, mailbox, timers, stall window and home thread's
/// wake-up flags.
struct Cell {
    addr: Addr,
    /// The actor, held by whichever thread is running it. `None` until the
    /// home thread has dispatched `Start`, and again once it stopped or a
    /// handler panicked.
    state: Mutex<State>,
    /// Messages not yet handled, in arrival order: the mailbox depth the
    /// cap applies to.
    queue: Mutex<VecDeque<(Addr, NetMsg)>>,
    timers: Mutex<Timers>,
    stall: StallCell,
    home: Mutex<Home>,
    wake: Condvar,
}

impl Cell {
    fn new(addr: Addr) -> Self {
        Cell {
            addr,
            state: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            timers: Mutex::new(Timers::default()),
            stall: StallCell::default(),
            // Rung from birth: the home thread drains whatever queued
            // behind `Start` before it first sleeps.
            home: Mutex::new(Home { rung: true, sleeping: false, stop: false }),
            wake: Condvar::new(),
        }
    }

    fn pop(&self) -> Option<(Addr, NetMsg)> {
        self.queue.lock().pop_front()
    }

    fn idle_queue(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Hands work to the home thread; a system call only if it sleeps.
    fn ring(&self) {
        let mut h = self.home.lock();
        h.rung = true;
        if h.sleeping {
            self.wake.notify_one();
        }
    }

    fn stop(&self) {
        self.home.lock().stop = true;
        self.wake.notify_one();
    }

    /// Sleeps until rung, stopped or `deadline`; returns whether to stop.
    fn sleep(&self, deadline: Option<std::time::Instant>) -> bool {
        let mut h = self.home.lock();
        while !h.rung && !h.stop {
            let wait = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(std::time::Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break,
                },
            };
            h.sleeping = true;
            h = match wait {
                None => self.wake.wait(h).unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    self.wake
                        .wait_timeout(h, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            h.sleeping = false;
        }
        h.rung = false;
        h.stop
    }

    /// Arms a timer; rings the home thread when it must wake sooner than
    /// the deadline it may be sleeping to.
    fn arm(&self, due: Instant, token: u64) {
        let mut t = self.timers.lock();
        let earliest = t.heap.peek().is_none_or(|p| due < p.due);
        let seq = t.seq;
        t.seq += 1;
        t.heap.push(PendingTimer { due, seq, token });
        drop(t);
        if earliest {
            self.ring();
        }
    }

    fn due_timer(&self, now: Instant) -> Option<u64> {
        let mut t = self.timers.lock();
        if t.heap.peek().is_some_and(|p| p.due <= now) {
            t.heap.pop().map(|p| p.token)
        } else {
            None
        }
    }

    fn next_due(&self) -> Option<Instant> {
        self.timers.lock().heap.peek().map(|p| p.due)
    }
}

/// Where a slot's messages go; `None` in the slot table once killed.
#[derive(Clone)]
enum Slot {
    Actor(Arc<Cell>),
    /// An external address: the sender's thread runs the callback.
    Sink(Arc<dyn Fn(Addr, NetMsg) + Send + Sync>),
}

thread_local! {
    /// `Some` while this thread runs actors: a send from a handler queues
    /// its target here instead of nesting a second actor under the first,
    /// and the outermost frame runs the list once the first is released.
    static RUN_LIST: RefCell<Option<VecDeque<Runnable>>> = const { RefCell::new(None) };
}

/// Marks the current thread as running actors until dropped.
struct Frame;

impl Frame {
    /// `None` when the thread already runs actors (the caller is nested).
    fn enter() -> Option<Frame> {
        RUN_LIST.with(|r| {
            let mut r = r.borrow_mut();
            if r.is_some() {
                return None;
            }
            *r = Some(VecDeque::new());
            Some(Frame)
        })
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        RUN_LIST.with(|r| *r.borrow_mut() = None);
    }
}

struct Router {
    slots: RwLock<Vec<Option<Slot>>>,
    /// Bounded-mailbox cap on queued client requests per actor; 0 means
    /// unbounded. Replication/control traffic is always enqueued —
    /// shedding it would turn overload into replica divergence.
    client_cap: AtomicUsize,
    counters: RwLock<Option<Arc<OverloadCounters>>>,
    epoch: std::time::Instant,
}

impl Router {
    fn now(&self) -> Instant {
        Instant(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(self: &Arc<Self>, from: Addr, to: Addr, msg: NetMsg) {
        // Sends to dead or unknown actors are silently dropped, matching
        // the fail-stop network semantics of the simulator. The slot guard
        // is dropped first: a sink or a handler may send in turn, and a
        // read re-taken while `spawn` waits to write would deadlock.
        let slot = match self.slots.read().get(to.0 as usize) {
            Some(Some(slot)) => slot.clone(),
            _ => return,
        };
        let cell = match slot {
            Slot::Sink(sink) => return sink(from, msg),
            Slot::Actor(cell) => cell,
        };
        {
            let mut q = cell.queue.lock();
            let cap = self.client_cap.load(Ordering::Relaxed);
            if cap != 0 && matches!(msg, NetMsg::Client(_)) && q.len() >= cap {
                drop(q);
                return self.shed(from, to, msg);
            }
            q.push_back((from, msg));
        }
        if cell.stall.armed() {
            return cell.ring();
        }
        let nested = RUN_LIST.with(|r| match r.borrow_mut().as_mut() {
            Some(list) => {
                if !list.back().is_some_and(|(_, c)| Arc::ptr_eq(c, &cell)) {
                    list.push_back((Arc::clone(self), Arc::clone(&cell)));
                }
                true
            }
            None => false,
        });
        if !nested {
            let _frame = Frame::enter();
            self.run(&cell);
            run_list();
        }
    }

    /// Full mailbox: answers the client explicitly instead of queueing
    /// without bound (or dropping silently). The reply bypasses the cap
    /// because it is a ClientResp, not a Client request.
    fn shed(self: &Arc<Self>, from: Addr, to: Addr, msg: NetMsg) {
        let NetMsg::Client(req) = msg else {
            unreachable!("only client requests are shed")
        };
        if let Some(c) = &*self.counters.read() {
            c.mailbox_shed.fetch_add(1, Ordering::Relaxed);
        }
        let reply = NetMsg::ClientResp(Response::err(req.id, KvError::Overloaded));
        self.send(to, from, reply);
    }

    /// Runs `cell` on this thread if nobody else is: drains its queue up to
    /// the budget, then hands a stalled or still-busy actor to its home
    /// thread. After releasing the actor it re-checks the queue, so a send
    /// that lost the try-lock race is never left behind.
    fn run(self: &Arc<Self>, cell: &Cell) {
        loop {
            // Held elsewhere: that runner re-checks the queue on release.
            let Some(mut state) = cell.state.try_lock() else { return };
            // Not started yet (the home thread drains after `Start`), or gone.
            if state.is_none() {
                return;
            }
            let mut handoff = true;
            for _ in 0..INLINE_BUDGET {
                if cell.stall.armed() {
                    break;
                }
                let Some((from, msg)) = cell.pop() else {
                    handoff = false;
                    break;
                };
                if !self.dispatch(cell, &mut state, Event::Msg { from, msg }) {
                    return;
                }
            }
            drop(state);
            if cell.idle_queue() {
                return;
            }
            if handoff {
                return cell.ring();
            }
        }
    }

    /// Runs one handler and its actions. A panic is contained: the actor
    /// is dropped and unreachable, as if killed, and the running thread —
    /// whichever it is — carries on. Returns whether the actor lives.
    fn dispatch(self: &Arc<Self>, cell: &Cell, state: &mut State, ev: Event) -> bool {
        let Some(actor) = state.as_mut() else { return false };
        let t = self.now();
        let mut ctx = Context::new(t, cell.addr);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            actor.on_event(ev, &mut ctx);
            for action in ctx.take_actions() {
                match action {
                    Action::Send { to, msg } => self.send(cell.addr, to, msg),
                    Action::Timer { delay, token } => cell.arm(t + delay, token),
                }
            }
        }));
        if ran.is_ok() {
            return true;
        }
        // A half-updated actor is never run again; its drop may panic too.
        let _ = catch_unwind(AssertUnwindSafe(|| drop(state.take())));
        self.slots.write()[cell.addr.0 as usize] = None;
        cell.queue.lock().clear();
        cell.ring();
        false
    }

    /// The home thread of one actor: dispatches `Start`, fires timers,
    /// runs stall windows and whatever inline runs handed off, and takes
    /// the stop. Returns the final state (`None` if a handler panicked).
    fn home(self: &Arc<Self>, cell: &Cell, actor: Box<dyn Actor>) -> State {
        let _frame = Frame::enter();
        {
            let mut state = cell.state.lock();
            *state = Some(actor);
            self.dispatch(cell, &mut state, Event::Start);
        }
        run_list();
        // Client messages held by an open gray window, replayed in arrival
        // order before anything newer. Dropped with the actor if it stops
        // mid-window (the node died; held traffic dies with its socket).
        let mut held: VecDeque<(Addr, NetMsg)> = VecDeque::new();
        loop {
            let mut deadline = cell
                .next_due()
                .map(|due| self.epoch + std::time::Duration::from_nanos(due.as_nanos()));
            if !held.is_empty() || cell.stall.armed() {
                let poll = std::time::Instant::now() + STALL_POLL;
                deadline = Some(deadline.map_or(poll, |d| d.min(poll)));
            }
            let stop = cell.sleep(deadline);
            let mut state = cell.state.lock();
            if state.is_none() {
                return None;
            }
            // A wedge stalls the whole actor: no messages, no timers.
            cell.stall.wedge_wait();
            let now = self.now();
            while let Some(token) = cell.due_timer(now) {
                self.dispatch(cell, &mut state, Event::Timer { token });
            }
            // Messages queued before the stop are still handled.
            let budget = if stop { usize::MAX } else { INLINE_BUDGET };
            for _ in 0..budget {
                // A wedge landing mid-drain still stalls the next message.
                cell.stall.wedge_wait();
                let gray = cell.stall.gray_active();
                if !gray {
                    for (from, msg) in std::mem::take(&mut held) {
                        self.dispatch(cell, &mut state, Event::Msg { from, msg });
                    }
                }
                let Some((from, msg)) = cell.pop() else { break };
                if gray && matches!(msg, NetMsg::Client(_)) {
                    held.push_back((from, msg));
                    continue;
                }
                if let Some(d) = cell.stall.slow_delay() {
                    std::thread::sleep(d);
                }
                self.dispatch(cell, &mut state, Event::Msg { from, msg });
            }
            let last = stop.then(|| state.take());
            drop(state);
            run_list();
            if let Some(last) = last {
                return last;
            }
            if !cell.idle_queue() {
                cell.ring();
            }
        }
    }
}

/// Runs the actors that handlers on this thread sent to, until none is left.
fn run_list() {
    while let Some((router, cell)) =
        RUN_LIST.with(|r| r.borrow_mut().as_mut().and_then(VecDeque::pop_front))
    {
        router.run(&cell);
    }
}

/// The live runtime: a set of actors with their home threads, plus a shared
/// router.
pub struct LiveRuntime {
    router: Arc<Router>,
    handles: Vec<Option<JoinHandle<State>>>,
}

impl LiveRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        LiveRuntime {
            router: Arc::new(Router {
                slots: RwLock::new(Vec::new()),
                client_cap: AtomicUsize::new(0),
                counters: RwLock::new(None),
                epoch: std::time::Instant::now(),
            }),
            handles: Vec::new(),
        }
    }

    /// Arms the bounded-mailbox model: client requests sent to an actor
    /// with `cap` messages already queued are answered `Overloaded`
    /// (counted in `counters.mailbox_shed`). A cap of 0 disables it.
    pub fn set_mailbox_cap(&self, cap: usize, counters: Arc<OverloadCounters>) {
        *self.router.counters.write() = Some(counters);
        self.router.client_cap.store(cap, Ordering::Relaxed);
    }

    /// Spawns an actor with its home thread, which dispatches
    /// [`Event::Start`] before any message; sends that race the spawn
    /// queue behind it.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> Addr {
        let addr = Addr(self.handles.len() as u32);
        let cell = Arc::new(Cell::new(addr));
        self.router.slots.write().push(Some(Slot::Actor(Arc::clone(&cell))));
        let router = Arc::clone(&self.router);
        let handle = std::thread::Builder::new()
            .name(format!("actor-{}", addr.0))
            .spawn(move || router.home(&cell, actor))
            .expect("spawn actor thread");
        self.handles.push(Some(handle));
        addr
    }

    /// Wedges the actor at `addr` for `dur`: it stops handling messages
    /// and firing timers entirely, while its already-sent outbound traffic
    /// stands — a gray failure, not a crash.
    pub fn wedge(&self, addr: Addr, dur: std::time::Duration) {
        self.set_stall(addr, StallState::Wedge { until: std::time::Instant::now() + dur });
    }

    /// Slows the actor at `addr` for `dur`: each inbound message costs an
    /// extra `per_msg` of service time.
    pub fn slow(&self, addr: Addr, dur: std::time::Duration, per_msg: std::time::Duration) {
        self.set_stall(
            addr,
            StallState::Slow { until: std::time::Instant::now() + dur, per_msg },
        );
    }

    /// Gray-partitions the actor at `addr` for `dur`: inbound client and
    /// relay traffic is held until the window closes while replication,
    /// control traffic, and timers proceed — heartbeats stay green.
    pub fn gray(&self, addr: Addr, dur: std::time::Duration) {
        self.set_stall(addr, StallState::Gray { until: std::time::Instant::now() + dur });
    }

    fn set_stall(&self, addr: Addr, s: StallState) {
        if let Some(Some(Slot::Actor(cell))) = self.router.slots.read().get(addr.0 as usize) {
            cell.stall.set(s);
        }
    }

    /// Sends a message into the runtime from outside (tests, harnesses).
    pub fn send(&self, from: Addr, to: Addr, msg: NetMsg) {
        self.router.send(from, to, msg);
    }

    /// Registers an external mailbox: an address that participates in the
    /// message fabric without an actor behind it. Edge layers use it to
    /// inject requests into actors; every message an actor addresses back
    /// to it runs `sink(from, msg)` on the thread running that actor, in
    /// send order, with no queue or thread hop in between.
    pub fn register_mailbox(
        &mut self,
        sink: impl Fn(Addr, NetMsg) + Send + Sync + 'static,
    ) -> Mailbox {
        let addr = Addr(self.handles.len() as u32);
        self.router.slots.write().push(Some(Slot::Sink(Arc::new(sink))));
        // No thread: keep the handle table aligned with addresses so
        // `kill`/`shutdown` indexing stays valid (both are no-ops here).
        self.handles.push(None);
        Mailbox {
            addr,
            router: Arc::clone(&self.router),
        }
    }

    /// Kills an actor: further sends to it drop, its home thread handles
    /// what was already queued and stops. Returns the actor's final state
    /// once no thread runs it (`None` if a handler panicked).
    pub fn kill(&mut self, addr: Addr) -> Option<Box<dyn Actor>> {
        let slot = self.router.slots.write()[addr.0 as usize].take();
        if let Some(Slot::Actor(cell)) = slot {
            cell.stop();
        }
        self.handles[addr.0 as usize]
            .take()
            .and_then(|h| h.join().ok().flatten())
    }

    /// Stops every actor and returns their final states, indexed by
    /// address.
    pub fn shutdown(mut self) -> Vec<Option<Box<dyn Actor>>> {
        let addrs: Vec<Addr> = (0..self.handles.len() as u32).map(Addr).collect();
        addrs.into_iter().map(|a| self.kill(a)).collect()
    }

    /// Monotonic time since the runtime was created.
    pub fn now(&self) -> Instant {
        self.router.now()
    }

    /// A clone-cheap handle on the runtime clock: yields [`Self::now`]
    /// without borrowing the runtime, for edge layers that check request
    /// deadlines from TCP worker or reactor threads.
    pub fn clock(&self) -> std::sync::Arc<dyn Fn() -> Instant + Send + Sync> {
        let epoch = self.router.epoch;
        std::sync::Arc::new(move || Instant(epoch.elapsed().as_nanos() as u64))
    }
}

impl Default for LiveRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// An external participant in a [`LiveRuntime`]'s message fabric: it has an
/// address actors can reply to, but no actor of its own. Replies run the
/// sink given to [`LiveRuntime::register_mailbox`].
#[derive(Clone)]
pub struct Mailbox {
    addr: Addr,
    router: Arc<Router>,
}

impl Mailbox {
    /// The address actors see as the sender of this mailbox's messages.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Sends a message into the runtime, from this mailbox's address. An
    /// idle target handles it on this thread before `send` returns.
    pub fn send(&self, to: Addr, msg: NetMsg) {
        self.router.send(self.addr, to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bespokv_proto::CoordMsg;
    use bespokv_types::Duration;
    use std::any::Any;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};

    /// Polls a shared counter until it reaches `want` or five seconds pass.
    /// Condition-based instead of a fixed sleep: fast when the runtime is
    /// fast, and a real failure (not a scheduling hiccup) when it's not.
    fn wait_for_count(counter: &AtomicUsize, want: usize, what: &str) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counter.load(Ordering::Acquire) < want {
            assert!(
                std::time::Instant::now() < deadline,
                "{what}: stuck at {} of {want}",
                counter.load(Ordering::Acquire)
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A mailbox whose sink forwards every message into a channel, so a
    /// test can wait on replies.
    fn forwarding_mailbox(rt: &mut LiveRuntime) -> (Mailbox, mpsc::Receiver<(Addr, NetMsg)>) {
        let (tx, rx) = mpsc::channel();
        let mailbox = rt.register_mailbox(move |from, msg| {
            let _ = tx.send((from, msg));
        });
        (mailbox, rx)
    }

    struct Ponger {
        seen: usize,
    }

    impl Actor for Ponger {
        fn on_event(&mut self, ev: Event, ctx: &mut Context) {
            if let Event::Msg { from, msg } = ev {
                self.seen += 1;
                ctx.send(from, msg);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Pinger {
        target: Addr,
        replies: Arc<AtomicUsize>,
        to_send: usize,
    }

    impl Actor for Pinger {
        fn on_event(&mut self, ev: Event, ctx: &mut Context) {
            match ev {
                Event::Start => {
                    for _ in 0..self.to_send {
                        ctx.send(self.target, NetMsg::Coord(CoordMsg::GetShardMap));
                    }
                }
                Event::Msg { .. } => {
                    self.replies.fetch_add(1, Ordering::AcqRel);
                }
                _ => {}
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn live_ping_pong() {
        let mut rt = LiveRuntime::new();
        let replies = Arc::new(AtomicUsize::new(0));
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        let pinger = rt.spawn(Box::new(Pinger {
            target: ponger,
            replies: Arc::clone(&replies),
            to_send: 100,
        }));
        wait_for_count(&replies, 100, "ping-pong replies");
        rt.kill(pinger).expect("pinger state");
        let mut ponger_box = rt.kill(ponger).expect("ponger state");
        let q = ponger_box.as_any().downcast_mut::<Ponger>().unwrap();
        assert_eq!(q.seen, 100);
    }

    #[test]
    fn timers_fire_in_live_mode() {
        struct Beeper {
            beeps: Arc<AtomicUsize>,
        }
        impl Actor for Beeper {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                match ev {
                    Event::Start => ctx.set_timer(Duration::from_millis(5), 7),
                    Event::Timer { token: 7 } => {
                        let done = self.beeps.fetch_add(1, Ordering::AcqRel) + 1;
                        if done < 5 {
                            ctx.set_timer(Duration::from_millis(5), 7);
                        }
                    }
                    _ => {}
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        let beeps = Arc::new(AtomicUsize::new(0));
        let b = rt.spawn(Box::new(Beeper {
            beeps: Arc::clone(&beeps),
        }));
        wait_for_count(&beeps, 5, "timer beeps");
        rt.kill(b).unwrap();
        assert_eq!(beeps.load(Ordering::Acquire), 5, "timer re-armed past its stop");
    }

    #[test]
    fn mailbox_round_trips_through_an_actor() {
        let mut rt = LiveRuntime::new();
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        let (mailbox, replies) = forwarding_mailbox(&mut rt);
        mailbox.send(ponger, NetMsg::Coord(CoordMsg::GetShardMap));
        let (from, msg) = replies
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("echo");
        assert_eq!(from, ponger);
        assert!(matches!(msg, NetMsg::Coord(CoordMsg::GetShardMap)));
        // Address table stays aligned: killing the mailbox address is a
        // no-op and the actor after it is still reachable.
        let second = rt.spawn(Box::new(Ponger { seen: 0 }));
        assert_eq!(second.0, mailbox.addr().0 + 1);
        mailbox.send(second, NetMsg::Coord(CoordMsg::GetShardMap));
        assert!(replies.recv_timeout(std::time::Duration::from_secs(5)).is_ok());
        rt.kill(ponger).expect("ponger state");
        assert!(rt.kill(mailbox.addr()).is_none(), "mailbox has no actor state");
    }

    #[test]
    fn sink_runs_on_the_sending_actor_thread_in_send_order() {
        use bespokv_types::{ClientId, RequestId};

        /// Sends `n` numbered replies to `to` on start.
        struct Burst {
            to: Addr,
            n: u32,
        }
        impl Actor for Burst {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                if let Event::Start = ev {
                    for i in 0..self.n {
                        let id = RequestId::compose(ClientId(1), i);
                        ctx.send(self.to, NetMsg::ClientResp(Response::err(id, KvError::Timeout)));
                    }
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut rt = LiveRuntime::new();
        let (tx, rx) = mpsc::channel();
        let mailbox = rt.register_mailbox(move |_, msg| {
            let thread = std::thread::current().name().map(str::to_owned);
            let _ = tx.send((thread, msg));
        });
        let sender = rt.spawn(Box::new(Burst { to: mailbox.addr(), n: 50 }));
        let want = format!("actor-{}", sender.0);
        for i in 0..50u32 {
            let (thread, msg) = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("every message reaches the sink");
            assert_eq!(thread.as_deref(), Some(want.as_str()), "sink ran off the sender");
            let NetMsg::ClientResp(r) = msg else { panic!("unexpected {msg:?}") };
            assert_eq!(r.id, RequestId::compose(ClientId(1), i), "out of send order");
        }
        rt.kill(sender);
    }

    #[test]
    fn resending_sink_does_not_deadlock_against_spawn() {
        // The sink re-sends from inside its callback while `spawn` waits
        // for the slot table's write lock. A slot guard held around the
        // callback would block that writer, and the re-send's read would
        // queue behind the writer: a deadlock.
        let mut rt = LiveRuntime::new();
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (echoed_tx, echoed_rx) = mpsc::channel();
        let me: Arc<std::sync::OnceLock<Mailbox>> = Arc::new(std::sync::OnceLock::new());
        let mailbox = {
            let me = Arc::clone(&me);
            let calls = AtomicUsize::new(0);
            rt.register_mailbox(move |from, msg| {
                if calls.fetch_add(1, Ordering::AcqRel) > 0 {
                    let _ = echoed_tx.send(());
                    return;
                }
                // First echo: hand over to the spawner, give it time to
                // queue for the write lock, then send from inside the sink.
                let _ = entered_tx.send(());
                std::thread::sleep(std::time::Duration::from_millis(20));
                me.get().expect("mailbox set").send(from, msg);
            })
        };
        me.set(mailbox.clone()).ok().expect("set once");
        let spawner = std::thread::spawn(move || {
            entered_rx.recv().expect("sink entered");
            rt.spawn(Box::new(Ponger { seen: 0 }));
            rt
        });
        mailbox.send(ponger, NetMsg::Coord(CoordMsg::GetShardMap));
        echoed_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a re-sending sink deadlocked against spawn");
        spawner.join().expect("spawner").shutdown();
    }

    #[test]
    fn full_mailbox_sheds_client_requests_with_reply() {
        use bespokv_proto::client::{Op, Request, RespBody, Response};
        use bespokv_types::{ClientId, Key, RequestId};

        /// Takes 20 ms of real time per request, then replies Done.
        struct SlowServer;
        impl Actor for SlowServer {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                if let Event::Msg { from, msg: NetMsg::Client(req) } = ev {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ctx.send(from, NetMsg::ClientResp(Response::ok(req.id, RespBody::Done)));
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut rt = LiveRuntime::new();
        let counters = Arc::new(OverloadCounters::new());
        rt.set_mailbox_cap(2, Arc::clone(&counters));
        let server = rt.spawn(Box::new(SlowServer));
        // An idle server would take each request inline on this thread,
        // one at a time, and nothing would queue. Wedged for the burst, it
        // lets exactly the cap queue and every other request is shed.
        rt.wedge(server, std::time::Duration::from_millis(100));
        let (mailbox, replies) = forwarding_mailbox(&mut rt);
        const N: usize = 20;
        for i in 0..N as u32 {
            let req = Request::new(
                RequestId::compose(ClientId(3), i),
                Op::Get { key: Key::from("k") },
            );
            mailbox.send(server, NetMsg::Client(req));
        }
        // Every request must be answered — served or explicitly shed.
        let mut ok = 0usize;
        let mut shed = 0usize;
        for _ in 0..N {
            let (_, msg) = replies
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a reply for every request");
            match msg {
                NetMsg::ClientResp(r) => match r.result {
                    Ok(_) => ok += 1,
                    Err(KvError::Overloaded) => shed += 1,
                    other => panic!("unexpected result {other:?}"),
                },
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(ok + shed, N);
        assert!(ok >= 1, "the in-cap requests must be served");
        assert!(
            shed >= N - 5,
            "a 20-deep burst against cap 2 must mostly shed, shed={shed}"
        );
        assert_eq!(counters.snapshot().mailbox_shed, shed as u64);
        rt.kill(server);
    }

    #[test]
    fn wedge_stalls_then_releases_an_actor() {
        let mut rt = LiveRuntime::new();
        let replies = Arc::new(AtomicUsize::new(0));
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        rt.wedge(ponger, std::time::Duration::from_millis(80));
        let pinger = rt.spawn(Box::new(Pinger {
            target: ponger,
            replies: Arc::clone(&replies),
            to_send: 10,
        }));
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert_eq!(
            replies.load(Ordering::Acquire),
            0,
            "wedged actor must not answer mid-window"
        );
        wait_for_count(&replies, 10, "post-wedge replies");
        rt.kill(pinger);
        rt.kill(ponger);
    }

    #[test]
    fn gray_holds_client_traffic_but_not_control() {
        use bespokv_proto::client::{Op, Request};
        use bespokv_types::{ClientId, Key, RequestId};

        let mut rt = LiveRuntime::new();
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        rt.gray(ponger, std::time::Duration::from_millis(80));
        let (mailbox, replies) = forwarding_mailbox(&mut rt);
        let req = Request::new(
            RequestId::compose(ClientId(1), 0),
            Op::Get { key: Key::from("k") },
        );
        mailbox.send(ponger, NetMsg::Client(req));
        mailbox.send(ponger, NetMsg::Coord(CoordMsg::GetShardMap));
        // Control traffic echoes back promptly despite the gray window…
        let (_, first) = replies
            .recv_timeout(std::time::Duration::from_millis(40))
            .expect("control passes through a gray window");
        assert!(matches!(first, NetMsg::Coord(_)), "{first:?}");
        // …and the held client request is replayed once the window closes.
        let (_, second) = replies
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("client traffic released after the window");
        assert!(matches!(second, NetMsg::Client(_)), "{second:?}");
        rt.kill(ponger);
    }

    #[test]
    fn sends_to_killed_actors_are_dropped() {
        let mut rt = LiveRuntime::new();
        let ponger = rt.spawn(Box::new(Ponger { seen: 0 }));
        rt.kill(ponger);
        // Must not panic or block.
        rt.send(Addr(99), ponger, NetMsg::Coord(CoordMsg::GetShardMap));
    }

    #[test]
    fn shutdown_returns_all_states() {
        let mut rt = LiveRuntime::new();
        rt.spawn(Box::new(Ponger { seen: 0 }));
        rt.spawn(Box::new(Ponger { seen: 0 }));
        let states = rt.shutdown();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|s| s.is_some()));
    }

    /// A client request numbered `seq` from client `client`.
    fn numbered(client: u32, seq: u32) -> NetMsg {
        use bespokv_proto::client::{Op, Request};
        use bespokv_types::{ClientId, Key, RequestId};
        NetMsg::Client(Request::new(
            RequestId::compose(ClientId(client), seq),
            Op::Get { key: Key::from("k") },
        ))
    }

    /// Counts `Start` and messages, recording the thread each message ran
    /// on; a message marked `block` (client 1, seq 0) waits for the gate.
    struct Recorder {
        started: Arc<AtomicUsize>,
        handled: Arc<AtomicUsize>,
        threads: Arc<parking_lot::Mutex<Vec<std::thread::ThreadId>>>,
        entered: Option<mpsc::Sender<()>>,
        gate: Option<parking_lot::Mutex<mpsc::Receiver<()>>>,
        seen: usize,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                started: Arc::new(AtomicUsize::new(0)),
                handled: Arc::new(AtomicUsize::new(0)),
                threads: Arc::default(),
                entered: None,
                gate: None,
                seen: 0,
            }
        }

        /// Blocks the `block` message until the returned sender is used.
        fn gated(mut self) -> (Self, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (gate_tx, gate_rx) = mpsc::channel();
            self.entered = Some(entered_tx);
            self.gate = Some(parking_lot::Mutex::new(gate_rx));
            (self, entered_rx, gate_tx)
        }
    }

    impl Actor for Recorder {
        fn on_event(&mut self, ev: Event, _ctx: &mut Context) {
            match ev {
                Event::Start => {
                    self.started.fetch_add(1, Ordering::AcqRel);
                }
                Event::Msg { msg, .. } => {
                    let block = matches!(&msg, NetMsg::Client(r)
                        if r.id.client().0 == 1 && r.id.seq() == 0);
                    if let (true, Some(entered), Some(gate)) = (block, &self.entered, &self.gate) {
                        let _ = entered.send(());
                        let _ = gate.lock().recv();
                    }
                    self.threads.lock().push(std::thread::current().id());
                    self.seen += 1;
                    self.handled.fetch_add(1, Ordering::AcqRel);
                }
                Event::Timer { .. } => {}
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn idle_actor_runs_on_the_sending_thread_before_send_returns() {
        let mut rt = LiveRuntime::new();
        let rec = Recorder::new();
        let (started, handled, threads) =
            (Arc::clone(&rec.started), Arc::clone(&rec.handled), Arc::clone(&rec.threads));
        let actor = rt.spawn(Box::new(rec));
        wait_for_count(&started, 1, "start");
        for i in 0..3 {
            rt.send(Addr(99), actor, numbered(2, i));
            let done = handled.load(Ordering::Acquire);
            assert_eq!(done, i as usize + 1, "not handled before send returned");
        }
        let me = std::thread::current().id();
        let off = threads.lock().iter().filter(|t| **t != me).count();
        assert_eq!(off, 0, "an idle actor ran off the sending thread");
        rt.kill(actor).expect("state");
    }

    #[test]
    fn ten_thousand_hop_ping_pong_finishes_on_a_small_stack() {
        /// Bounces every message to its peer until `HOPS` were handled.
        struct Bouncer {
            peer: Addr,
            hops: Arc<AtomicUsize>,
            off_thread: Arc<AtomicUsize>,
        }
        const HOPS: usize = 10_000;
        impl Actor for Bouncer {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                if let Event::Msg { msg, .. } = ev {
                    if std::thread::current().name() != Some("small-stack") {
                        self.off_thread.fetch_add(1, Ordering::AcqRel);
                    }
                    if self.hops.fetch_add(1, Ordering::AcqRel) + 1 < HOPS {
                        ctx.send(self.peer, msg);
                    }
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        let hops = Arc::new(AtomicUsize::new(0));
        let off_thread = Arc::new(AtomicUsize::new(0));
        let bouncer = |peer| Bouncer {
            peer: Addr(peer),
            hops: Arc::clone(&hops),
            off_thread: Arc::clone(&off_thread),
        };
        let a = rt.spawn(Box::new(bouncer(1)));
        let b = rt.spawn(Box::new(bouncer(0)));
        assert_eq!((a, b), (Addr(0), Addr(1)));
        // Both started: `Start` runs on the home threads.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("small-stack".into())
                .stack_size(256 * 1024)
                .spawn_scoped(s, || rt.send(Addr(99), a, NetMsg::Coord(CoordMsg::GetShardMap)))
                .expect("spawn")
                .join()
                .expect("the ping-pong overflowed a 256 KiB stack");
        });
        assert_eq!(hops.load(Ordering::Acquire), HOPS, "send returned before the ping-pong ended");
        assert_eq!(off_thread.load(Ordering::Acquire), 0, "a hop ran off the sending thread");
        rt.shutdown();
    }

    #[test]
    fn each_senders_messages_arrive_in_order() {
        /// Counts, per sending client, messages that skipped ahead.
        struct Orderly {
            next: std::collections::HashMap<u32, u32>,
            out_of_order: usize,
            handled: Arc<AtomicUsize>,
        }
        impl Actor for Orderly {
            fn on_event(&mut self, ev: Event, _ctx: &mut Context) {
                if let Event::Msg { msg: NetMsg::Client(r), .. } = ev {
                    let next = self.next.entry(r.id.client().0).or_insert(0);
                    if r.id.seq() != *next {
                        self.out_of_order += 1;
                    }
                    *next = r.id.seq() + 1;
                    self.handled.fetch_add(1, Ordering::AcqRel);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        let handled = Arc::new(AtomicUsize::new(0));
        let actor = rt.spawn(Box::new(Orderly {
            next: Default::default(),
            out_of_order: 0,
            handled: Arc::clone(&handled),
        }));
        std::thread::scope(|s| {
            for sender in 0..4u32 {
                let rt = &rt;
                s.spawn(move || {
                    for seq in 0..1_000 {
                        rt.send(Addr(100 + sender), actor, numbered(10 + sender, seq));
                    }
                });
            }
        });
        wait_for_count(&handled, 4_000, "ordered messages");
        let mut state = rt.kill(actor).expect("state");
        let o = state.as_any().downcast_mut::<Orderly>().unwrap();
        assert_eq!(o.next.len(), 4);
        assert!(o.next.values().all(|n| *n == 1_000));
        assert_eq!(o.out_of_order, 0, "a sender's messages were reordered");
    }

    #[test]
    fn send_to_a_running_actor_returns_at_once_and_its_runner_handles_it() {
        let mut rt = LiveRuntime::new();
        let (rec, entered, gate) = Recorder::new().gated();
        let (started, handled, threads) =
            (Arc::clone(&rec.started), Arc::clone(&rec.handled), Arc::clone(&rec.threads));
        let actor = rt.spawn(Box::new(rec));
        wait_for_count(&started, 1, "start");
        std::thread::scope(|s| {
            let rt = &rt;
            let runner = s.spawn(move || {
                rt.send(Addr(99), actor, numbered(1, 0));
                std::thread::current().id()
            });
            entered
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("the runner entered the handler");
            // The actor is busy on `runner`: this send must not wait for it.
            rt.send(Addr(99), actor, numbered(2, 0));
            assert_eq!(handled.load(Ordering::Acquire), 0, "send waited for the busy actor");
            gate.send(()).expect("release");
            let runner = runner.join().expect("runner");
            let done = handled.load(Ordering::Acquire);
            assert_eq!(done, 2, "the runner left the queued message behind");
            assert_eq!(*threads.lock(), vec![runner, runner]);
        });
        rt.kill(actor).expect("state");
    }

    #[test]
    fn sends_racing_spawn_are_handled_after_start() {
        /// Records the order of `Start` and messages; `Start` may dawdle.
        struct Ordered {
            log: Arc<parking_lot::Mutex<Vec<&'static str>>>,
            start_delay: std::time::Duration,
        }
        impl Actor for Ordered {
            fn on_event(&mut self, ev: Event, _ctx: &mut Context) {
                match ev {
                    Event::Start => {
                        std::thread::sleep(self.start_delay);
                        self.log.lock().push("start");
                    }
                    Event::Msg { .. } => self.log.lock().push("msg"),
                    Event::Timer { .. } => {}
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        for round in 0..40u64 {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            // Every fourth round holds `Start` long enough for all the sends
            // to find the actor busy; the rest race the home thread's lock.
            let start_delay = std::time::Duration::from_millis(if round % 4 == 0 { 10 } else { 0 });
            let actor = rt.spawn(Box::new(Ordered { log: Arc::clone(&log), start_delay }));
            for _ in 0..5 {
                rt.send(Addr(999), actor, NetMsg::Coord(CoordMsg::GetShardMap));
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while log.lock().len() < 6 {
                assert!(std::time::Instant::now() < deadline, "round {round}: {:?}", log.lock());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(log.lock()[0], "start", "round {round}: a message ran before Start");
            rt.kill(actor).expect("state");
        }
    }

    #[test]
    fn timer_armed_during_an_inline_run_fires() {
        struct Arms {
            fired: Arc<AtomicUsize>,
            started: Arc<AtomicUsize>,
            inline: Arc<AtomicUsize>,
        }
        impl Actor for Arms {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                match ev {
                    Event::Start => {
                        self.started.fetch_add(1, Ordering::AcqRel);
                    }
                    Event::Msg { .. } => {
                        if !std::thread::current().name().is_some_and(|n| n.starts_with("actor-")) {
                            self.inline.fetch_add(1, Ordering::AcqRel);
                        }
                        ctx.set_timer(Duration::from_millis(5), 9);
                    }
                    Event::Timer { token: 9 } => {
                        self.fired.fetch_add(1, Ordering::AcqRel);
                    }
                    Event::Timer { .. } => {}
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        let counter = || Arc::new(AtomicUsize::new(0));
        let (fired, started, inline) = (counter(), counter(), counter());
        let actor = rt.spawn(Box::new(Arms {
            fired: Arc::clone(&fired),
            started: Arc::clone(&started),
            inline: Arc::clone(&inline),
        }));
        // Started with no timer armed: the home thread sleeps with no
        // deadline, and only the arming run can wake it.
        wait_for_count(&started, 1, "start");
        std::thread::sleep(std::time::Duration::from_millis(5));
        rt.send(Addr(99), actor, NetMsg::Coord(CoordMsg::GetShardMap));
        assert_eq!(inline.load(Ordering::Acquire), 1, "the message did not run inline");
        wait_for_count(&fired, 1, "timer armed inline");
        rt.kill(actor).expect("state");
    }

    #[test]
    fn kill_returns_the_state_a_running_thread_leaves_and_later_sends_drop() {
        let mut rt = LiveRuntime::new();
        let (rec, entered, gate) = Recorder::new().gated();
        let (started, handled) = (Arc::clone(&rec.started), Arc::clone(&rec.handled));
        let actor = rt.spawn(Box::new(rec));
        let (mailbox, _replies) = forwarding_mailbox(&mut rt);
        wait_for_count(&started, 1, "start");
        let runner = {
            let mailbox = mailbox.clone();
            std::thread::spawn(move || mailbox.send(actor, numbered(1, 0)))
        };
        entered
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the runner entered the handler");
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            gate.send(()).expect("release");
        });
        let mut state = rt.kill(actor).expect("kill returns the final state");
        assert_eq!(
            state.as_any().downcast_mut::<Recorder>().unwrap().seen,
            1,
            "kill returned before the running thread finished"
        );
        runner.join().expect("runner");
        release.join().expect("release");
        mailbox.send(actor, numbered(2, 0));
        rt.send(Addr(99), actor, numbered(2, 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(handled.load(Ordering::Acquire), 1, "a send after kill was handled");
    }

    #[test]
    fn a_panicking_handler_is_contained_and_its_actor_dies() {
        /// Forwards every message to `to`, then echoes it to its sender.
        struct Forwarder {
            to: Addr,
        }
        impl Actor for Forwarder {
            fn on_event(&mut self, ev: Event, ctx: &mut Context) {
                if let Event::Msg { from, msg } = ev {
                    ctx.send(self.to, msg.clone());
                    ctx.send(from, msg);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        /// Panics on its first message, recording which thread it ran on.
        struct Bomb {
            ran_on: Arc<parking_lot::Mutex<Option<std::thread::ThreadId>>>,
        }
        impl Actor for Bomb {
            fn on_event(&mut self, ev: Event, _ctx: &mut Context) {
                if let Event::Msg { .. } = ev {
                    *self.ran_on.lock() = Some(std::thread::current().id());
                    panic!("handler bug");
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut rt = LiveRuntime::new();
        let ran_on = Arc::new(parking_lot::Mutex::new(None));
        let b = rt.spawn(Box::new(Bomb { ran_on: Arc::clone(&ran_on) }));
        let a = rt.spawn(Box::new(Forwarder { to: b }));
        let (mailbox, replies) = forwarding_mailbox(&mut rt);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A runs inline here and B after it, on this thread: B's panic
        // must neither unwind into this thread nor stop A.
        for i in 0..3 {
            mailbox.send(a, NetMsg::Coord(CoordMsg::GetShardMap));
            let (from, _) = replies
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("A stopped serving after B's panic (round {i})"));
            assert_eq!(from, a);
        }
        assert_eq!(*ran_on.lock(), Some(std::thread::current().id()), "B did not run inline");
        rt.send(Addr(99), b, NetMsg::Coord(CoordMsg::GetShardMap));
        assert!(rt.kill(b).is_none(), "a panicked actor has no final state");
        assert!(rt.kill(a).is_some());
    }
}
