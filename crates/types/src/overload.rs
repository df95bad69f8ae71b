//! Overload-protection vocabulary: the knobs every layer shares and the
//! counters that make shed/expiry/containment events observable.
//!
//! The shed policy is uniform across the stack: **reject-newest with an
//! explicit [`crate::KvError::Overloaded`] reply, never a silent drop**.
//! Every shed point happens strictly *before* the request is executed or
//! ordered, so an `Overloaded` error is a definitive "not applied" — the
//! consistency oracle records such writes as failed (never-happened) ops,
//! which is exactly what makes shedding safe to prove.

use crate::time::Duration;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for the overload-protection layer. One instance is shared
/// by the builders with every controlet, edge, and client of a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Simulator: a client message that would wait longer than this in a
    /// busy actor's virtual queue is bounced with `Overloaded` instead of
    /// being requeued (models a bounded mailbox in virtual time).
    pub max_queue_delay: Option<Duration>,
    /// Live runtime: client messages queued per actor mailbox beyond this
    /// are shed at enqueue time (replication/control traffic is exempt).
    pub mailbox_cap: usize,
    /// TCP edge: a per-connection fairness budget, expressed as
    /// *backpressure* — at most this many requests are decoded and served
    /// per connection per reactor turn, and surplus input waits in the
    /// socket buffer (TCP pushes back on the sender; nothing mid-stream
    /// is shed).
    pub pipeline_cap: usize,
    /// TCP edge: concurrent connections per server. The edge bounds its
    /// connection slab and answers the over-cap connection's first
    /// request batch with an explicit `Overloaded` before closing.
    pub max_connections: usize,
    /// TCP edge: reactor threads per server, each owning an acceptor and
    /// a slab of connections. `0` sizes to the machine (`min(cores, 4)`).
    pub reactor_threads: usize,
    /// Edge relay: requests parked awaiting a controlet reply per
    /// `NodeEdge` beyond this are shed before entering the mailbox.
    pub relay_cap: usize,
    /// Edge relay: how long a parked relay may wait for its controlet
    /// reply before the edge completes it with `Timeout`. The request's
    /// own wire deadline is honoured when tighter.
    pub relay_timeout: Duration,
    /// Edge relay health: when the *oldest* outstanding relay to a peer
    /// has been parked longer than this, the peer is considered gray-
    /// failed and the edge trips into fast-fail for it (new requests
    /// bounce immediately instead of parking behind the wedge).
    pub relay_stall_threshold: Duration,
    /// MS+SC head: chain writes in flight (ordered but not tail-acked)
    /// beyond this shed new writes — a slow mid/tail otherwise grows the
    /// head's in-flight map without bound.
    pub head_window: usize,
    /// MS+EC master: when the unacked propagation buffer exceeds this,
    /// the slowest slaves are cut loose (forced trim + resync) instead of
    /// buffering forever.
    pub prop_high_watermark: usize,
    /// MS+EC master: the forced trim drops buffered entries down to this
    /// many, so propagation resumes with bounded memory.
    pub prop_low_watermark: usize,
    /// Client: deadline stamped on every request (now + budget). `None`
    /// leaves requests deadline-free.
    pub deadline_budget: Option<Duration>,
    /// Client: retry token bucket capacity — retries beyond the budget
    /// complete with the underlying error instead of amplifying load.
    pub retry_tokens: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_queue_delay: Some(Duration::from_millis(250)),
            mailbox_cap: 4096,
            pipeline_cap: 1024,
            max_connections: 1024,
            reactor_threads: 0,
            relay_cap: 1024,
            relay_timeout: Duration::from_secs(2),
            relay_stall_threshold: Duration::from_millis(500),
            head_window: 4096,
            prop_high_watermark: 16384,
            prop_low_watermark: 4096,
            deadline_budget: None,
            retry_tokens: 100,
        }
    }
}

/// Cross-layer shed/expiry/containment event counters. Cheap enough to
/// bump on hot paths (one relaxed atomic add) and aggregated into
/// `EdgeStats` by the measurement harness.
#[derive(Debug, Default)]
pub struct OverloadCounters {
    /// Simulator: client messages bounced for excess virtual queue delay.
    pub queue_shed: AtomicU64,
    /// Live runtime: client messages shed at a full actor mailbox.
    pub mailbox_shed: AtomicU64,
    /// Edge relay: requests shed at a full pending-reply table.
    pub relay_shed: AtomicU64,
    /// Edge relay: parked relays expired with `Timeout` by the deadline
    /// sweep (the controlet never answered in time).
    pub relay_expired: AtomicU64,
    /// Edge relay health: trips into fast-fail after a peer's outstanding
    /// relay watermark crossed the stall threshold (or a relay expired).
    pub stall_trips: AtomicU64,
    /// Edge relay health: requests bounced immediately (`WrongNode` hint
    /// or `Unavailable`) while a peer was tripped, instead of parking.
    pub stall_fastfails: AtomicU64,
    /// Edge relay: singleflight followers re-dispatched as their own
    /// relays after their leader's relay failed or timed out.
    pub relay_redispatches: AtomicU64,
    /// Requests dropped (with a reply) because their deadline had already
    /// expired when a server was about to execute them.
    pub deadline_expired: AtomicU64,
    /// MS+SC head: writes shed at a full in-flight chain window.
    pub head_window_shed: AtomicU64,
    /// MS+EC master: forced watermark trims of the propagation buffer.
    pub slow_slave_trims: AtomicU64,
    /// MS+EC slave: self-initiated resyncs after falling below the floor.
    pub slow_slave_resyncs: AtomicU64,
    /// Client: circuit-breaker activations (node parked after Overloaded).
    pub breaker_trips: AtomicU64,
    /// Client: retries denied by an empty token bucket.
    pub retries_denied: AtomicU64,
    /// Recovery: snapshot/delta entries actually sent to a joining or
    /// restarting replica (post floor-filtering). A replica that replayed
    /// local durable state transfers far fewer than a full snapshot.
    pub recovery_entries_transferred: AtomicU64,
}

/// Plain-integer snapshot of [`OverloadCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadSnapshot {
    pub queue_shed: u64,
    pub mailbox_shed: u64,
    pub relay_shed: u64,
    pub relay_expired: u64,
    pub stall_trips: u64,
    pub stall_fastfails: u64,
    pub relay_redispatches: u64,
    pub deadline_expired: u64,
    pub head_window_shed: u64,
    pub slow_slave_trims: u64,
    pub slow_slave_resyncs: u64,
    pub breaker_trips: u64,
    pub retries_denied: u64,
    pub recovery_entries_transferred: u64,
}

impl OverloadCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consistent-enough snapshot (individually atomic reads).
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            queue_shed: self.queue_shed.load(Ordering::Relaxed),
            mailbox_shed: self.mailbox_shed.load(Ordering::Relaxed),
            relay_shed: self.relay_shed.load(Ordering::Relaxed),
            relay_expired: self.relay_expired.load(Ordering::Relaxed),
            stall_trips: self.stall_trips.load(Ordering::Relaxed),
            stall_fastfails: self.stall_fastfails.load(Ordering::Relaxed),
            relay_redispatches: self.relay_redispatches.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            head_window_shed: self.head_window_shed.load(Ordering::Relaxed),
            slow_slave_trims: self.slow_slave_trims.load(Ordering::Relaxed),
            slow_slave_resyncs: self.slow_slave_resyncs.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            retries_denied: self.retries_denied.load(Ordering::Relaxed),
            recovery_entries_transferred: self
                .recovery_entries_transferred
                .load(Ordering::Relaxed),
        }
    }
}

impl OverloadSnapshot {
    /// Requests shed before execution, summed across all shed points.
    pub fn total_shed(&self) -> u64 {
        self.queue_shed
            + self.mailbox_shed
            + self.relay_shed
            + self.deadline_expired
            + self.head_window_shed
    }
}

impl std::fmt::Display for OverloadSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shed: {} queue, {} mailbox, {} relay, \
             {} expired, {} head-window; containment: {} trims, {} resyncs; \
             gray: {} relay-expired, {} stall trips, {} fast-fails, \
             {} redispatches; client: {} breaker trips, {} retries denied; \
             recovery: {} entries transferred",
            self.queue_shed,
            self.mailbox_shed,
            self.relay_shed,
            self.deadline_expired,
            self.head_window_shed,
            self.slow_slave_trims,
            self.slow_slave_resyncs,
            self.relay_expired,
            self.stall_trips,
            self.stall_fastfails,
            self.relay_redispatches,
            self.breaker_trips,
            self.retries_denied,
            self.recovery_entries_transferred,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_sum() {
        let c = OverloadCounters::new();
        c.relay_shed.fetch_add(3, Ordering::Relaxed);
        c.deadline_expired.fetch_add(2, Ordering::Relaxed);
        c.slow_slave_trims.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.relay_shed, 3);
        assert_eq!(s.total_shed(), 5, "containment events are not sheds");
        assert!(s.to_string().contains("3 relay"));
    }

    #[test]
    fn gray_failure_counters_are_observable_but_not_sheds() {
        let c = OverloadCounters::new();
        c.relay_expired.fetch_add(4, Ordering::Relaxed);
        c.stall_trips.fetch_add(1, Ordering::Relaxed);
        c.stall_fastfails.fetch_add(7, Ordering::Relaxed);
        c.relay_redispatches.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(
            (s.relay_expired, s.stall_trips, s.stall_fastfails, s.relay_redispatches),
            (4, 1, 7, 2)
        );
        // An expired relay was already dispatched and a fast-fail bounce is
        // a routing correction — neither is a pre-execution shed.
        assert_eq!(s.total_shed(), 0);
        assert!(s.to_string().contains("1 stall trips"));
    }

    #[test]
    fn default_relay_timeouts_are_ordered() {
        let cfg = OverloadConfig::default();
        assert!(cfg.relay_stall_threshold < cfg.relay_timeout);
    }

    #[test]
    fn default_config_watermarks_are_ordered() {
        let cfg = OverloadConfig::default();
        assert!(cfg.prop_low_watermark < cfg.prop_high_watermark);
        assert!(cfg.retry_tokens > 0);
    }
}
