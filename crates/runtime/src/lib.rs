//! Event-driven runtime for bespoKV.
//!
//! The paper builds its control plane on an asynchronous event-driven
//! network programming framework (section III-B). This crate is that
//! framework, with one extra property the evaluation needs: the same
//! state-machine code runs under two drivers.
//!
//! * [`actor`] — the programming model: [`actor::Actor`] state machines,
//!   events (messages/timers), and the action-collecting [`actor::Context`].
//! * [`sim`] — a deterministic discrete-event simulator (virtual time,
//!   busy-server capacity model, network latency/bandwidth/jitter model).
//!   Cluster-scale experiments (48-node sweeps, failover and transition
//!   timelines) run here.
//! * [`live`] — a wall-clock driver that runs an idle actor's handler on
//!   the thread that sends to it, with a home thread per actor for timers,
//!   stall windows and hand-offs; integration tests and wall-clock
//!   measurements run here.
//! * [`tcp`] — a real TCP server/client speaking any protocol parser, for
//!   the client edge and the socket-vs-kernel-bypass comparison. The
//!   server is the epoll [`reactor`] (Linux only).
//! * [`netmodel`] — transport profiles (socket / DPDK / 1 Gbps cloud) and
//!   datalet cost models used by the simulator.

pub mod actor;
pub mod live;
pub mod netmodel;
pub mod reactor;
pub mod sim;
pub mod tcp;

pub use actor::{Action, Actor, Addr, Context, Event};
pub use live::{LiveRuntime, Mailbox};
pub use netmodel::{
    CostModel, FaultOutcome, FaultPlan, LinkFaults, NetworkModel, Partition, StallKind,
    StallPlan, StallWindow, TransportProfile,
};
pub use sim::{SimStats, Simulation};
pub use tcp::{
    Completer, Defer, DeferHandler, Served, ServerOptions, TcpClient, TcpServer, TransportKind,
};
