//! Sequential scripted client, for correctness tests and examples.
//!
//! Issues a fixed list of operations strictly one at a time (each waits for
//! the previous completion), which gives program-order semantics — exactly
//! what consistency assertions need. Records every result.

use crate::edge::FastPathTable;
use bespokv::client::ClientCore;
use bespokv_proto::client::{Op, RespBody};
use bespokv_proto::NetMsg;
use bespokv_runtime::{Actor, Context, Event};
use bespokv_types::{ConsistencyLevel, Duration, Instant, KvError, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One scripted step.
#[derive(Clone, Debug)]
pub struct Step {
    /// Operation to perform.
    pub op: Op,
    /// Table.
    pub table: String,
    /// Per-request consistency.
    pub level: ConsistencyLevel,
}

impl Step {
    /// A step against the default table with default consistency.
    pub fn new(op: Op) -> Self {
        Step {
            op,
            table: String::new(),
            level: ConsistencyLevel::Default,
        }
    }

    /// Sets the consistency level.
    pub fn with_level(mut self, level: ConsistencyLevel) -> Self {
        self.level = level;
        self
    }
}

/// Timer token for the retry tick.
const TICK: u64 = 1;
/// Timer token that resumes the pump after a fast-path serve.
const PUMP: u64 = 2;
/// Modeled service time of one edge-served read (datalet access plus edge
/// handling), comparable to the actor-path RTT it replaces. Charged
/// between a fast-path completion and the next issued step so the scripted
/// client keeps realistic pacing — without it the whole read script would
/// collapse into a single virtual instant and never overlap concurrent
/// writers.
const FAST_READ_LATENCY: Duration = Duration::from_micros(80);

/// The scripted client actor.
pub struct ScriptClient {
    core: ClientCore,
    script: Vec<Step>,
    next: usize,
    in_flight: bool,
    /// Results, in script order.
    pub results: Vec<Result<RespBody, KvError>>,
    /// Completion time of each step.
    pub completed_at: Vec<Instant>,
    /// Completed-step count, shared so the outside world (live-runtime
    /// tests, which cannot peek into an actor on another thread) can watch
    /// progress without stopping the client.
    progress: Arc<AtomicUsize>,
    /// The cluster's edge: GETs are first offered to the shared-datalet
    /// read fast path; everything else, and every fallback, travels the
    /// actor channel as an ordinary client message.
    table: Arc<FastPathTable>,
}

impl ScriptClient {
    /// Creates the client over the cluster's fast-path table.
    pub fn new(core: ClientCore, script: Vec<Step>, table: Arc<FastPathTable>) -> Self {
        ScriptClient {
            core,
            script,
            next: 0,
            in_flight: false,
            results: Vec::new(),
            completed_at: Vec::new(),
            progress: Arc::new(AtomicUsize::new(0)),
            table,
        }
    }

    /// Whether every step has completed.
    pub fn done(&self) -> bool {
        self.results.len() == self.script.len()
    }

    /// Number of scripted steps.
    pub fn script_len(&self) -> usize {
        self.script.len()
    }

    /// Shared handle to the completed-step counter.
    pub fn progress_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.progress)
    }

    fn record(&mut self, result: Result<RespBody, KvError>, now: Instant) {
        self.results.push(result);
        self.completed_at.push(now);
        self.in_flight = false;
        self.progress.store(self.results.len(), Ordering::Release);
    }

    fn begin_if_idle(&mut self, now: Instant) {
        if self.in_flight || self.next >= self.script.len() {
            return;
        }
        if !self.core.ready() {
            self.core.request_map(now);
        } else {
            let step = self.script[self.next].clone();
            self.next += 1;
            self.in_flight = true;
            self.core.begin(step.op, step.table, step.level, now);
        }
    }

    /// Issues the next step (if idle) and drains outgoing traffic. GETs
    /// are offered to the fast path first; a locally served response is
    /// fed straight back into the core, and the pump resumes after
    /// [`FAST_READ_LATENCY`] so consecutive edge reads stay paced.
    fn pump(&mut self, now: Instant, ctx: &mut Context) {
        self.begin_if_idle(now);
        let mut served = Vec::new();
        for (to, msg) in self.core.take_outgoing() {
            if let NetMsg::Client(req) = &msg {
                // Controlet addresses follow `Addr(n) == NodeId(n)`.
                if let Some(resp) = self.table.try_get(NodeId(to.0), req) {
                    served.push(resp);
                    continue;
                }
            }
            ctx.send(to, msg);
        }
        if served.is_empty() {
            return;
        }
        for resp in served {
            for c in self.core.on_msg(NetMsg::ClientResp(resp), now) {
                self.record(c.result, now);
            }
        }
        ctx.set_timer(FAST_READ_LATENCY, PUMP);
    }
}

impl Actor for ScriptClient {
    fn on_event(&mut self, ev: Event, ctx: &mut Context) {
        match ev {
            Event::Start => {
                ctx.set_timer(Duration::from_millis(100), TICK);
                self.pump(ctx.now(), ctx);
            }
            Event::Timer { token: TICK } => {
                let now = ctx.now();
                for c in self.core.on_tick(now) {
                    // A step that exhausted its retries completes with
                    // Timeout; the script moves on instead of wedging.
                    self.record(c.result, now);
                }
                self.pump(now, ctx);
                ctx.set_timer(Duration::from_millis(100), TICK);
            }
            Event::Timer { token: PUMP } => {
                self.pump(ctx.now(), ctx);
            }
            Event::Timer { .. } => {}
            Event::Msg { msg, .. } => {
                let now = ctx.now();
                for c in self.core.on_msg(msg, now) {
                    self.record(c.result, now);
                }
                self.pump(now, ctx);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds a put step.
pub fn put(key: &str, value: &str) -> Step {
    Step::new(Op::Put {
        key: bespokv_types::Key::from(key),
        value: bespokv_types::Value::from(value),
    })
}

/// Builds a get step.
pub fn get(key: &str) -> Step {
    Step::new(Op::Get {
        key: bespokv_types::Key::from(key),
    })
}

/// Builds a delete step.
pub fn del(key: &str) -> Step {
    Step::new(Op::Del {
        key: bespokv_types::Key::from(key),
    })
}

/// Builds a scan step.
pub fn scan(start: &str, end: &str, limit: u32) -> Step {
    Step::new(Op::Scan {
        start: bespokv_types::Key::from(start),
        end: bespokv_types::Key::from(end),
        limit,
    })
}
