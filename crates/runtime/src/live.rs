//! Live threaded driver: real threads, real time, real channels.
//!
//! Runs the same [`Actor`] state machines as the simulator, but each actor
//! gets its own OS thread and an MPSC channel; `now()` reads the monotonic
//! clock; timers are kept in a per-thread heap and serviced with
//! `recv_timeout`. CPU charges from [`Context::charge`] are ignored — real
//! work takes real time here. An external address ([`Mailbox`]) has no
//! thread or channel: a message sent to it runs its sink callback on the
//! sender's thread.
//!
//! This driver backs the integration tests (end-to-end correctness of the
//! controlet protocols with true parallelism) and the wall-clock latency
//! benchmarks.

use crate::actor::{Action, Actor, Addr, Context, Event};
use bespokv_proto::client::Response;
use bespokv_proto::NetMsg;
use bespokv_types::{Instant, KvError, OverloadCounters};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Envelope {
    Msg { from: Addr, msg: NetMsg },
    Stop,
}

/// Wall-clock gray-failure state injected into one actor thread. The
/// live counterpart of the simulator's `StallPlan` windows: the node
/// stays alive and its outbound traffic is untouched, only inbound
/// progress is impaired.
#[derive(Clone, Copy, Debug, Default)]
enum StallState {
    #[default]
    None,
    /// The whole thread stops: no mailbox drain, no timers — a GC pause
    /// or disk stall, not a crash.
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

struct StallCell {
    state: parking_lot::Mutex<StallState>,
}

impl StallCell {
    fn new() -> Self {
        StallCell { state: parking_lot::Mutex::new(StallState::None) }
    }

    fn set(&self, s: StallState) {
        *self.state.lock() = s;
    }

    /// Blocks while a wedge window is active (in small slices, so a
    /// cancelled or replaced window takes effect promptly).
    fn wedge_wait(&self) {
        loop {
            let until = match *self.state.lock() {
                StallState::Wedge { until } => until,
                _ => return,
            };
            let now = std::time::Instant::now();
            if now >= until {
                *self.state.lock() = StallState::None;
                return;
            }
            std::thread::sleep((until - now).min(std::time::Duration::from_millis(2)));
        }
    }

    /// Extra per-message service delay while a slow window is active.
    fn slow_delay(&self) -> Option<std::time::Duration> {
        let mut st = self.state.lock();
        match *st {
            StallState::Slow { until, per_msg } => {
                if std::time::Instant::now() >= until {
                    *st = StallState::None;
                    None
                } else {
                    Some(per_msg)
                }
            }
            _ => None,
        }
    }

    /// Whether a gray window currently holds client traffic.
    fn gray_active(&self) -> bool {
        let mut st = self.state.lock();
        match *st {
            StallState::Gray { until } => {
                if std::time::Instant::now() >= until {
                    *st = StallState::None;
                    false
                } else {
                    true
                }
            }
            _ => false,
        }
    }
}

/// Where a slot's messages go; `None` in [`Slot::inbox`] once killed.
enum Inbox {
    /// An actor thread's channel.
    Actor(Sender<Envelope>),
    /// An external address: the sender's thread runs the callback.
    Sink(Arc<dyn Fn(Addr, NetMsg) + Send + Sync>),
}

struct Slot {
    inbox: Option<Inbox>,
    /// Messages currently queued in this slot's channel (in-service
    /// messages excluded): the mailbox depth the cap applies to.
    depth: Arc<AtomicUsize>,
    /// Gray-failure injection state consumed by this slot's actor loop.
    stall: Arc<StallCell>,
}

struct Router {
    slots: RwLock<Vec<Slot>>,
    /// Bounded-mailbox cap on queued client requests per actor; 0 means
    /// unbounded. Replication/control traffic is always enqueued —
    /// shedding it would turn overload into replica divergence.
    client_cap: AtomicUsize,
    counters: RwLock<Option<Arc<OverloadCounters>>>,
}

impl Router {
    fn send(&self, from: Addr, to: Addr, msg: NetMsg) {
        let sink = {
            // Sends to dead or unknown actors are silently dropped,
            // matching the fail-stop network semantics of the simulator.
            let slots = self.slots.read();
            let Some(slot) = slots.get(to.0 as usize) else {
                return;
            };
            match &slot.inbox {
                None => return,
                Some(Inbox::Sink(sink)) => Some(Arc::clone(sink)),
                Some(Inbox::Actor(tx)) => {
                    let cap = self.client_cap.load(Ordering::Relaxed);
                    let shed = cap != 0
                        && matches!(&msg, NetMsg::Client(_))
                        && slot.depth.load(Ordering::Acquire) >= cap;
                    if !shed {
                        slot.depth.fetch_add(1, Ordering::AcqRel);
                        let _ = tx.send(Envelope::Msg { from, msg });
                        return;
                    }
                    None
                }
            }
        };
        // The slot guard is dropped first: a sink may send in turn, and a
        // read re-taken while `spawn` waits to write would deadlock.
        if let Some(sink) = sink {
            sink(from, msg);
            return;
        }
        // Full mailbox: answer the client explicitly instead of queueing
        // without bound (or dropping silently). The reply bypasses the
        // cap because it is a ClientResp, not a Client request.
        let NetMsg::Client(req) = msg else {
            unreachable!("only client requests are shed")
        };
        if let Some(c) = &*self.counters.read() {
            c.mailbox_shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let reply = NetMsg::ClientResp(Response::err(req.id, KvError::Overloaded));
        self.send(to, from, reply);
    }
}

/// The live runtime: a set of actor threads plus a shared router.
pub struct LiveRuntime {
    router: Arc<Router>,
    handles: Vec<Option<JoinHandle<Box<dyn Actor>>>>,
    epoch: std::time::Instant,
}

impl LiveRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        LiveRuntime {
            router: Arc::new(Router {
                slots: RwLock::new(Vec::new()),
                client_cap: AtomicUsize::new(0),
                counters: RwLock::new(None),
            }),
            handles: Vec::new(),
            epoch: std::time::Instant::now(),
        }
    }

    /// Arms the bounded-mailbox model: client requests sent to an actor
    /// with `cap` messages already queued are answered `Overloaded`
    /// (counted in `counters.mailbox_shed`). A cap of 0 disables it.
    pub fn set_mailbox_cap(&self, cap: usize, counters: Arc<OverloadCounters>) {
        *self.router.counters.write() = Some(counters);
        self.router.client_cap.store(cap, Ordering::Relaxed);
    }

    /// Spawns an actor on its own thread; it receives [`Event::Start`]
    /// immediately.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> Addr {
        let addr = Addr(self.handles.len() as u32);
        let (tx, rx) = unbounded();
        let depth = Arc::new(AtomicUsize::new(0));
        let stall = Arc::new(StallCell::new());
        self.router.slots.write().push(Slot {
            inbox: Some(Inbox::Actor(tx)),
            depth: Arc::clone(&depth),
            stall: Arc::clone(&stall),
        });
        let router = Arc::clone(&self.router);
        let epoch = self.epoch;
        let handle = std::thread::Builder::new()
            .name(format!("actor-{}", addr.0))
            .spawn(move || actor_loop(actor, addr, rx, router, epoch, depth, stall))
            .expect("spawn actor thread");
        self.handles.push(Some(handle));
        addr
    }

    /// Wedges the actor at `addr` for `dur`: its thread stops draining
    /// the mailbox and firing timers entirely, while its already-sent
    /// outbound traffic stands — a gray failure, not a crash.
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
        if let Some(slot) = self.router.slots.read().get(addr.0 as usize) {
            slot.stall.set(s);
        }
    }

    /// Sends a message into the runtime from outside (tests, harnesses).
    pub fn send(&self, from: Addr, to: Addr, msg: NetMsg) {
        self.router.send(from, to, msg);
    }

    /// Registers an external mailbox: an address that participates in the
    /// message fabric without an actor thread behind it. Edge layers use
    /// it to inject requests into actors; every message an actor addresses
    /// back to it runs `sink(from, msg)` on that actor's thread, in send
    /// order, with no queue or thread hop in between.
    pub fn register_mailbox(
        &mut self,
        sink: impl Fn(Addr, NetMsg) + Send + Sync + 'static,
    ) -> Mailbox {
        let addr = Addr(self.handles.len() as u32);
        self.router.slots.write().push(Slot {
            inbox: Some(Inbox::Sink(Arc::new(sink))),
            depth: Arc::new(AtomicUsize::new(0)),
            stall: Arc::new(StallCell::new()),
        });
        // No thread: keep the handle table aligned with addresses so
        // `kill`/`shutdown` indexing stays valid (both are no-ops here).
        self.handles.push(None);
        Mailbox {
            addr,
            router: Arc::clone(&self.router),
        }
    }

    /// Kills an actor: its channel is closed and further sends to it drop.
    /// Returns the actor's final state once its thread exits.
    pub fn kill(&mut self, addr: Addr) -> Option<Box<dyn Actor>> {
        let inbox = self.router.slots.write()[addr.0 as usize].inbox.take();
        if let Some(Inbox::Actor(tx)) = inbox {
            let _ = tx.send(Envelope::Stop);
        }
        self.handles[addr.0 as usize]
            .take()
            .and_then(|h| h.join().ok())
    }

    /// Stops every actor and returns their final states, indexed by
    /// address.
    pub fn shutdown(mut self) -> Vec<Option<Box<dyn Actor>>> {
        let addrs: Vec<Addr> = (0..self.handles.len() as u32).map(Addr).collect();
        addrs.into_iter().map(|a| self.kill(a)).collect()
    }

    /// Monotonic time since the runtime was created.
    pub fn now(&self) -> Instant {
        Instant(self.epoch.elapsed().as_nanos() as u64)
    }

    /// A clone-cheap handle on the runtime clock: yields [`Self::now`]
    /// without borrowing the runtime, for edge layers that check request
    /// deadlines from TCP worker or reactor threads.
    pub fn clock(&self) -> std::sync::Arc<dyn Fn() -> Instant + Send + Sync> {
        let epoch = self.epoch;
        std::sync::Arc::new(move || Instant(epoch.elapsed().as_nanos() as u64))
    }
}

impl Default for LiveRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// An external participant in a [`LiveRuntime`]'s message fabric: it has an
/// address actors can reply to, but no thread or actor of its own. Replies
/// run the sink given to [`LiveRuntime::register_mailbox`].
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

    /// Sends a message into the runtime, from this mailbox's address.
    pub fn send(&self, to: Addr, msg: NetMsg) {
        self.router.send(self.addr, to, msg);
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

fn actor_loop(
    mut actor: Box<dyn Actor>,
    addr: Addr,
    rx: Receiver<Envelope>,
    router: Arc<Router>,
    epoch: std::time::Instant,
    depth: Arc<AtomicUsize>,
    stall: Arc<StallCell>,
) -> Box<dyn Actor> {
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let now = |epoch: std::time::Instant| Instant(epoch.elapsed().as_nanos() as u64);

    let dispatch = |actor: &mut Box<dyn Actor>,
                        ev: Event,
                        timers: &mut BinaryHeap<PendingTimer>,
                        timer_seq: &mut u64| {
        let t = now(epoch);
        let mut ctx = Context::new(t, addr);
        actor.on_event(ev, &mut ctx);
        for action in ctx.take_actions() {
            match action {
                Action::Send { to, msg } => router.send(addr, to, msg),
                Action::Timer { delay, token } => {
                    timers.push(PendingTimer {
                        due: t + delay,
                        seq: *timer_seq,
                        token,
                    });
                    *timer_seq += 1;
                }
            }
        }
    };

    dispatch(&mut actor, Event::Start, &mut timers, &mut timer_seq);

    // Cap on messages drained per wakeup before timers are re-checked:
    // large enough to amortize the clock read and timer-heap probe across a
    // burst, small enough that a flooded actor still services timers.
    const BURST: usize = 128;

    // Client messages held by an active gray window, replayed in arrival
    // order once it closes. Dropped with the actor if it stops mid-window
    // (the node died; held traffic dies with its socket).
    let mut held: Vec<(Addr, NetMsg)> = Vec::new();

    'outer: loop {
        // A wedge stalls the whole thread: no drain, no timers.
        stall.wedge_wait();
        // Release gray-held client traffic once the window closes.
        if !held.is_empty() && !stall.gray_active() {
            for (from, msg) in held.drain(..) {
                dispatch(&mut actor, Event::Msg { from, msg }, &mut timers, &mut timer_seq);
            }
        }
        // Fire all due timers first.
        let t = now(epoch);
        while timers.peek().is_some_and(|p| p.due <= t) {
            let p = timers.pop().expect("peeked");
            dispatch(
                &mut actor,
                Event::Timer { token: p.token },
                &mut timers,
                &mut timer_seq,
            );
        }
        // Wait for the next message or the next timer deadline; while
        // messages are gray-held, poll in short slices so the release
        // happens promptly even if nothing else arrives.
        let timer_wait: Option<std::time::Duration> = timers
            .peek()
            .map(|p| p.due.saturating_since(now(epoch)).into());
        let hold_wait = (!held.is_empty()).then(|| std::time::Duration::from_millis(2));
        let wait = match (timer_wait, hold_wait) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let env = match wait {
            Some(wait) => match rx.recv_timeout(wait) {
                Ok(env) => env,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            },
            None => match rx.recv() {
                Ok(env) => env,
                Err(_) => break,
            },
        };
        // Drain any burst that queued up behind the first message without
        // re-arming the timer machinery per message.
        let mut env = Some(env);
        let mut drained = 0;
        while let Some(e) = env.take() {
            match e {
                Envelope::Msg { from, msg } => {
                    depth.fetch_sub(1, Ordering::AcqRel);
                    // A wedge that lands while the thread was parked in
                    // recv() must still stall the message it woke up for.
                    stall.wedge_wait();
                    if matches!(msg, NetMsg::Client(_)) && stall.gray_active() {
                        held.push((from, msg));
                    } else {
                        if let Some(d) = stall.slow_delay() {
                            std::thread::sleep(d);
                        }
                        dispatch(
                            &mut actor,
                            Event::Msg { from, msg },
                            &mut timers,
                            &mut timer_seq,
                        );
                    }
                }
                Envelope::Stop => break 'outer,
            }
            drained += 1;
            if drained < BURST {
                env = rx.try_recv().ok();
            }
        }
    }
    actor
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
}
