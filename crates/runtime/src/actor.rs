//! The event-driven programming model (section III-B of the paper).
//!
//! Controlets, the coordinator, the DLM, the shared log and workload clients
//! are all [`Actor`]s: deterministic state machines that react to events
//! (incoming messages, timers) by emitting actions (sends, timer arms,
//! simulated CPU charges) into a [`Context`]. The paper exposes this as the
//! `Register/On/Emit/Enable` callback API over connections; we express the
//! same model as a single `on_event` entry point, which makes the state
//! machine runnable by two interchangeable drivers:
//!
//! * [`crate::sim::Simulation`] — a virtual-time discrete-event simulator
//!   used for cluster-scale experiments (48-node sweeps, failover and
//!   transition timelines);
//! * [`crate::live::LiveRuntime`] — real threads and real time, an idle
//!   actor's handler running on the thread that sends to it; used for
//!   integration tests and wall-clock latency measurements.

use bespokv_proto::NetMsg;
use bespokv_types::{Duration, Instant};
use std::any::Any;
use std::fmt;

/// An actor address within a runtime.
///
/// The cluster assembly layer assigns dense addresses: controlets first
/// (matching their `NodeId`), then services (coordinator, DLM, shared log),
/// then clients.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// An event delivered to an actor.
#[derive(Clone, Debug)]
pub enum Event {
    /// First event every actor receives, before any message.
    Start,
    /// A message arrived.
    Msg {
        /// Sender's address.
        from: Addr,
        /// The payload.
        msg: NetMsg,
    },
    /// A timer armed with [`Context::set_timer`] fired.
    Timer {
        /// Token passed when arming.
        token: u64,
    },
}

/// Side effects an actor requests while handling one event.
#[derive(Debug)]
pub enum Action {
    /// Send a message to another actor.
    Send {
        /// Destination.
        to: Addr,
        /// Payload.
        msg: NetMsg,
    },
    /// Arm a one-shot timer.
    Timer {
        /// Delay from now.
        delay: Duration,
        /// Token echoed in [`Event::Timer`].
        token: u64,
    },
}

/// Per-event execution context handed to [`Actor::on_event`].
pub struct Context {
    now: Instant,
    self_addr: Addr,
    actions: Vec<Action>,
    charge: Duration,
}

impl Context {
    /// Creates a context for one event dispatch. Drivers call this.
    pub fn new(now: Instant, self_addr: Addr) -> Self {
        Context {
            now,
            self_addr,
            actions: Vec::new(),
            charge: Duration::ZERO,
        }
    }

    /// Current time (virtual under the simulator, monotonic wall clock
    /// under the live runtime).
    #[inline]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// This actor's own address.
    #[inline]
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// Sends `msg` to `to`. Delivery order between a fixed (sender,
    /// receiver) pair is FIFO under both drivers.
    pub fn send(&mut self, to: Addr, msg: NetMsg) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Arms a one-shot timer; [`Event::Timer`] with `token` fires after
    /// `delay`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Accounts simulated CPU time for the work done while handling this
    /// event (e.g. a datalet operation). The simulator serializes an
    /// actor's events through this busy time, which is what produces
    /// saturation and throughput ceilings; the live runtime ignores it
    /// (real work takes real time there).
    pub fn charge(&mut self, cost: Duration) {
        self.charge += cost;
    }

    /// Total charge accumulated during this event.
    pub fn charged(&self) -> Duration {
        self.charge
    }

    /// Drains the requested actions. Drivers call this after dispatch.
    pub fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }
}

/// A deterministic event-driven state machine.
pub trait Actor: Send {
    /// Handles one event. All side effects go through `ctx`.
    fn on_event(&mut self, ev: Event, ctx: &mut Context);

    /// Downcast support, so harnesses can extract results from their own
    /// actor types after a run.
    fn as_any(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bespokv_proto::CoordMsg;

    struct Echo {
        seen: usize,
    }

    impl Actor for Echo {
        fn on_event(&mut self, ev: Event, ctx: &mut Context) {
            if let Event::Msg { from, msg } = ev {
                self.seen += 1;
                ctx.send(from, msg);
                ctx.charge(Duration::from_micros(2));
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_collects_actions_and_charges() {
        let mut actor = Echo { seen: 0 };
        let mut ctx = Context::new(Instant::ZERO, Addr(1));
        actor.on_event(
            Event::Msg {
                from: Addr(2),
                msg: NetMsg::Coord(CoordMsg::GetShardMap),
            },
            &mut ctx,
        );
        assert_eq!(actor.seen, 1);
        assert_eq!(ctx.charged(), Duration::from_micros(2));
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Send { to: Addr(2), .. }));
        // Draining empties the buffer.
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn downcast_recovers_concrete_actor() {
        let mut actor: Box<dyn Actor> = Box::new(Echo { seen: 7 });
        let echo = actor.as_any().downcast_mut::<Echo>().unwrap();
        assert_eq!(echo.seen, 7);
    }
}
