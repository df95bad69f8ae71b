//! The load generator: two connections and one thread that never sleeps
//! while requests are in flight. It writes every request that is due (open
//! loop: a seeded Poisson schedule; closed loop: a fixed number in flight),
//! then asks `poll(2)` which socket has replies, reads, checks, and goes round
//! again.
//!
//! A sending and a receiving thread were tried first. Pinned to the
//! generator's one CPU they take turns: behind a yielding sender the median
//! GET sat at either 52 or 80 microseconds for seconds at a time, behind a
//! spinning one at 300. One thread has nobody to wait for.

use crate::check::{Checker, Violation};
use crate::stats::{median, percentile, Windows};
use crate::sut::{ClientSketch, Decoder, Encoder, GenOp, OpStream, Reply, ReplyBody};
use crate::sys::{now_ns, poll_readable, process_cpu_ns, thread_cpu_ns};
use crate::trace::{SpanId, Tracer, NONE};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

/// A step's requests must complete within this long of its end; one that
/// does not is a failure and shows a growing backlog.
pub const DRAIN_NS: u64 = 200_000_000;
/// How long past a step's end, or past the last reply of a closed loop, the
/// generator keeps reading so that late replies do not leak into the next
/// phase.
const HARD_DRAIN_NS: u64 = 3_000_000_000;
/// Windows per open-loop step whose percentiles are medianed.
pub const WINDOWS: usize = 5;
/// Node ids the two connections go to: first and last replica.
pub const CONN_NODES: [u32; 2] = [0, 2];

/// A nonblocking connection: a full socket buffer must never stop the one
/// thread from reading the replies that would drain it.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream })
    }
}

/// Seeded uniform and exponential variates for the arrival schedule
/// (splitmix64; the op stream has its own generator).
pub struct ScheduleRng(u64);

impl ScheduleRng {
    pub fn new(seed: u64) -> Self {
        ScheduleRng(seed ^ 0x5C4E_D01E_5EED_0001)
    }

    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // 53 random bits into (0, 1]: never 0, so the logarithm is finite.
        ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Offsets in nanoseconds of Poisson arrivals at `rate` per second over
    /// `dur_ns`.
    pub fn poisson(&mut self, rate: f64, dur_ns: u64) -> Vec<u64> {
        let mean_gap_ns = 1e9 / rate;
        let mut out = Vec::with_capacity((rate * dur_ns as f64 / 1e9 * 1.05) as usize + 16);
        let mut t = 0.0f64;
        loop {
            t += -self.next_unit().ln() * mean_gap_ns;
            if t >= dur_ns as f64 {
                return out;
            }
            out.push(t as u64);
        }
    }
}

/// Which connection an op travels on.
pub struct Router {
    master_slave: bool,
    alternate: usize,
}

impl Router {
    pub fn new(master_slave: bool) -> Self {
        Router {
            master_slave,
            alternate: 0,
        }
    }

    /// MS modes: PUTs to the head / master, GETs to the tail / slave, hot
    /// GETs alternating between both. AA: PUTs by key parity (so one key's
    /// PUTs stay ordered on one connection), GETs alternating.
    pub fn route(&mut self, op: &GenOp, hot: bool) -> usize {
        let spread = |alternate: &mut usize| {
            *alternate ^= 1;
            *alternate
        };
        match (self.master_slave, op.put) {
            (true, true) => 0,
            (true, false) if hot => spread(&mut self.alternate),
            (true, false) => 1,
            (false, true) => (op.rank & 1) as usize,
            (false, false) => spread(&mut self.alternate),
        }
    }
}

/// How one request ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Pending,
    Ok,
    /// An error reply (shed, timeout, lock contended, …).
    ErrorReply,
    /// A value that is not this key's, or not a value at all.
    Corrupt,
    /// A value older than an acknowledged write (SC modes).
    Stale,
}

/// Failure accounting shared by every phase. An unanswered or late request
/// is an attempt that failed, never a request that did not happen.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub error_replies: u64,
    /// No reply within the deadline (open loop: `DRAIN_NS` past step end).
    pub unanswered: u64,
    /// Corrupt or stale values: correctness violations, not load failures.
    pub wrong: u64,
    /// `WrongNode` replies replayed to the hinted node.
    pub bounces: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.error_replies + self.unanswered + self.wrong
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.error_replies += other.error_replies;
        self.unanswered += other.unanswered;
        self.wrong += other.wrong;
        self.bounces += other.bounces;
    }

    /// Files one request by how it ended and whether that was in time.
    pub fn count(&mut self, outcome: Outcome, in_time: bool) {
        self.attempted += 1;
        match outcome {
            Outcome::Corrupt | Outcome::Stale => self.wrong += 1,
            Outcome::Pending => self.unanswered += 1,
            _ if !in_time => self.unanswered += 1,
            Outcome::Ok => self.ok += 1,
            Outcome::ErrorReply => self.error_replies += 1,
        }
    }
}

/// One request of the current phase, indexed by `seq - base_seq`.
struct Slot {
    put: bool,
    rank: u64,
    /// Lowest seq a GET may return (SC modes).
    floor: u64,
    /// When the request was due (open loop) or issued (closed loop):
    /// latency is counted from here.
    due_ns: u64,
    /// When the write carrying it started.
    flushed_ns: u64,
    done_ns: u64,
    outcome: Outcome,
    bounced: bool,
    span: SpanId,
}

/// The requests of one phase.
struct Phase {
    base_seq: u32,
    slots: Vec<Slot>,
    /// Slots before this index have been handed to a socket write.
    flushed: usize,
    settled: usize,
}

impl Phase {
    fn in_flight(&self) -> usize {
        self.slots.len() - self.settled
    }
}

/// Everything the phases of one run share.
pub struct Driver {
    conns: [Conn; 2],
    pub checker: Checker,
    stream: OpStream,
    schedule: ScheduleRng,
    sketch: ClientSketch,
    router: Router,
    encoders: [Encoder; 2],
    decoders: [Decoder; 2],
    /// Next request sequence number; also the PUT stamp.
    next_seq: u32,
    /// Malformed reply streams and replies nobody was waiting for.
    pub protocol_errors: u64,
    buf: Vec<u8>,
}

/// One open-loop step, measured.
pub struct StepResult {
    pub tally: Tally,
    pub get: Windows,
    pub put: Windows,
    /// Requests answered (with anything) within `DRAIN_NS` of the step end.
    pub completed_in_time: u64,
    /// How late the writes started, taken like the step's latencies: the
    /// median of the windows' p99, so that one stall of the generator's CPU
    /// spoils a window, not the step.
    pub gen_lag_p99_us: f64,
    /// Per window: CPU of the whole process minus the generator thread,
    /// and the generator thread's own, in microseconds per request due in
    /// the window.
    pub sut_cpu_us_per_op: Vec<f64>,
    pub gen_cpu_us_per_op: Vec<f64>,
}

/// Latency limit on both p99s for a step to pass.
pub const LIMIT_P99_US: f64 = 10_000.0;

impl StepResult {
    /// The step's percentile: the median over its windows.
    pub fn p(&self, put: bool, p: f64) -> Option<f64> {
        median(&self.window_p(put, p))
    }

    /// Each non-empty window's percentile, in microseconds.
    pub fn window_p(&self, put: bool, p: f64) -> Vec<f64> {
        if put { &self.put } else { &self.get }.percentiles(p)
    }

    /// p99s within the limit, failures within one in a thousand, and no
    /// backlog left `DRAIN_NS` after the end.
    pub fn passes(&self) -> bool {
        let within = |v: Option<f64>| v.is_none_or(|us| us <= LIMIT_P99_US);
        within(self.p(false, 0.99))
            && within(self.p(true, 0.99))
            && self.tally.failed_share() <= 0.001
            && self.completed_in_time as f64 >= 0.999 * self.tally.attempted as f64
    }
}

/// One closed-loop phase, measured.
pub struct ClosedResult {
    pub tally: Tally,
    /// When the phase started, and when each successful request completed.
    start_ns: u64,
    ok_done_ns: Vec<u64>,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
}

impl ClosedResult {
    /// Successes per second in each whole `window_ns` of the phase.
    pub fn ok_per_s(&self, window_ns: u64) -> Vec<f64> {
        let end = self
            .ok_done_ns
            .iter()
            .max()
            .copied()
            .unwrap_or(self.start_ns);
        let mut counts = vec![0u64; ((end - self.start_ns) / window_ns) as usize];
        for done in &self.ok_done_ns {
            if let Some(c) = counts.get_mut(((done - self.start_ns) / window_ns) as usize) {
                *c += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| c as f64 * 1e9 / window_ns as f64)
            .collect()
    }

    pub fn median_us(&self, put: bool) -> Option<f64> {
        let mut v = if put {
            self.put_ns.clone()
        } else {
            self.get_ns.clone()
        };
        v.sort_unstable();
        (!v.is_empty()).then(|| percentile(&v, 0.5) as f64 / 1e3)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Only {
    Both,
    Gets,
    Puts,
}

pub enum Until {
    Ops(u64),
    Deadline(u64),
}

impl Driver {
    pub fn new(
        conns: [Conn; 2],
        checker: Checker,
        stream: OpStream,
        seed: u64,
        master_slave: bool,
    ) -> Self {
        Driver {
            conns,
            checker,
            stream,
            schedule: ScheduleRng::new(seed),
            sketch: ClientSketch::new(),
            router: Router::new(master_slave),
            encoders: [Encoder::new(), Encoder::new()],
            decoders: [Decoder::new(), Decoder::new()],
            next_seq: 1,
            protocol_errors: 0,
            buf: vec![0u8; 64 * 1024],
        }
    }

    fn begin_phase(&self, capacity: usize) -> Phase {
        Phase {
            base_seq: self.next_seq,
            slots: Vec::with_capacity(capacity),
            flushed: 0,
            settled: 0,
        }
    }

    /// Takes the next op, notes it with the checker, picks its connection
    /// and encodes it. Latency counts from `due_ns`.
    fn issue(
        &mut self,
        phase: &mut Phase,
        due_ns: u64,
        only: Only,
        fixed_conn: Option<usize>,
        tr: &mut Tracer,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let root = tr.begin("req", NONE, u64::from(seq));
        let span = tr.begin("workloads.next_op", root, u64::from(seq));
        let op = loop {
            let op = self.stream.next_op();
            if only == Only::Both || (only == Only::Puts) == op.put {
                break op;
            }
        };
        tr.end(span);
        let hot = !op.put && self.sketch.record_is_hot(&op);
        let conn = fixed_conn.unwrap_or_else(|| self.router.route(&op, hot));
        let floor = if op.put {
            self.checker.put_sent(op.rank, u64::from(seq));
            0
        } else {
            self.checker.read_floor(op.rank)
        };
        let span = tr.begin("proto.encode_req", root, u64::from(seq));
        self.encoders[conn].push(seq, &op);
        tr.end(span);
        phase.slots.push(Slot {
            put: op.put,
            rank: op.rank,
            floor,
            due_ns,
            flushed_ns: 0,
            done_ns: 0,
            outcome: Outcome::Pending,
            bounced: false,
            span: root,
        });
    }

    /// Writes as much of the encoded requests as the sockets take and stamps
    /// the requests handed over for the first time.
    fn flush(&mut self, phase: &mut Phase) {
        if phase.flushed < phase.slots.len() {
            let now = now_ns();
            for slot in &mut phase.slots[phase.flushed..] {
                slot.flushed_ns = now;
            }
            phase.flushed = phase.slots.len();
        }
        for (conn, encoder) in self.conns.iter().zip(&mut self.encoders) {
            while !encoder.out.is_empty() {
                match (&conn.stream).write(&encoder.out) {
                    Ok(n) if n > 0 => encoder.out.advance(n),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // Full buffer: the rest goes out after some reading. A
                    // dead connection shows up as unanswered requests.
                    _ => break,
                }
            }
        }
    }

    /// Reads whatever both sockets hold right now and settles the replies.
    /// At depth 1 (`lone`) the decode is a span of the one request.
    fn receive(&mut self, phase: &mut Phase, tr: &mut Tracer, lone: Option<(SpanId, u64)>) {
        let ready = poll_readable(
            [
                self.conns[0].stream.as_raw_fd(),
                self.conns[1].stream.as_raw_fd(),
            ],
            0,
        );
        for (c, _) in ready.iter().enumerate().filter(|(_, ready)| **ready) {
            let got = (&self.conns[c].stream).read(&mut self.buf).unwrap_or(0);
            if got == 0 {
                continue;
            }
            let span = lone.map(|(root, req)| tr.begin("proto.decode_resp", root, req));
            self.decoders[c].feed(&self.buf[..got]);
            let mut next = self.decoders[c].next_reply();
            if let Some(span) = span {
                tr.end(span);
            }
            loop {
                match next {
                    Ok(Some(reply)) => self.settle(phase, reply, tr),
                    Ok(None) => break,
                    Err(_) => {
                        self.protocol_errors += 1;
                        break;
                    }
                }
                next = self.decoders[c].next_reply();
            }
        }
    }

    /// Files one reply: replays a first `WrongNode` to the hinted node,
    /// otherwise checks the reply and closes the request.
    fn settle(&mut self, phase: &mut Phase, reply: Reply, tr: &mut Tracer) {
        // Stragglers of an earlier phase fall below `base_seq`.
        let Some(slot) = reply
            .seq
            .checked_sub(phase.base_seq)
            .and_then(|i| phase.slots.get_mut(i as usize))
        else {
            return;
        };
        if slot.outcome != Outcome::Pending {
            self.protocol_errors += 1;
            return;
        }
        if let (ReplyBody::WrongNode(Some(node)), false) = (&reply.body, slot.bounced) {
            if let Some(to) = CONN_NODES.iter().position(|n| n == node) {
                slot.bounced = true;
                self.encoders[to].push(reply.seq, &GenOp::rebuild(slot.put, slot.rank));
                return;
            }
        }
        let span = tr.begin("verify", slot.span, u64::from(reply.seq));
        slot.outcome = match (slot.put, &reply.body) {
            (true, ReplyBody::Done) => {
                self.checker.put_acked(slot.rank, u64::from(reply.seq));
                Outcome::Ok
            }
            (false, ReplyBody::Value(Some(value))) => {
                match self.checker.check_read(slot.rank, slot.floor, value) {
                    Ok(()) => Outcome::Ok,
                    Err(Violation::Corrupt) => Outcome::Corrupt,
                    Err(Violation::Stale) => Outcome::Stale,
                }
            }
            // Every key is preloaded, so a miss is a wrong answer; so is a
            // value for a PUT, an ack for a GET, or a value of another size.
            (false, ReplyBody::NotFound | ReplyBody::Value(None) | ReplyBody::Done)
            | (true, ReplyBody::Value(_)) => Outcome::Corrupt,
            _ => Outcome::ErrorReply,
        };
        tr.end(span);
        tr.end(slot.span);
        slot.done_ns = now_ns();
        phase.settled += 1;
    }

    /// Offers `rate` requests per second for `dur_ns`, each timed from the
    /// instant it was due.
    pub fn open_loop_step(&mut self, rate: f64, dur_ns: u64) -> StepResult {
        let offsets = self.schedule.poisson(rate, dur_ns);
        let mut phase = self.begin_phase(offsets.len());
        let mut off = Tracer::off();
        let window_ns = dur_ns.div_ceil(WINDOWS as u64);
        // CPU clocks at every window boundary: (process, this thread).
        let cpu_now = || (process_cpu_ns(), thread_cpu_ns());
        let mut cpu_marks = vec![cpu_now()];
        let t0 = now_ns();
        let end_ns = t0 + dur_ns;
        loop {
            let now = now_ns();
            while cpu_marks.len() <= WINDOWS
                && now >= (t0 + cpu_marks.len() as u64 * window_ns).min(end_ns)
            {
                cpu_marks.push(cpu_now());
            }
            while let Some(&offset) = offsets.get(phase.slots.len()).filter(|&&o| t0 + o <= now) {
                self.issue(&mut phase, t0 + offset, Only::Both, None, &mut off);
            }
            self.flush(&mut phase);
            let step_over = cpu_marks.len() > WINDOWS;
            if step_over && (phase.settled == offsets.len() || now > end_ns + HARD_DRAIN_NS) {
                break;
            }
            self.receive(&mut phase, &mut off, None);
        }

        let mut result = StepResult {
            tally: Tally::default(),
            get: Windows::new(WINDOWS),
            put: Windows::new(WINDOWS),
            completed_in_time: 0,
            gen_lag_p99_us: 0.0,
            sut_cpu_us_per_op: Vec::new(),
            gen_cpu_us_per_op: Vec::new(),
        };
        let mut due_in_window = [0u64; WINDOWS];
        let mut lags = Windows::new(WINDOWS);
        for slot in &phase.slots {
            let window = (((slot.due_ns - t0) / window_ns) as usize).min(WINDOWS - 1);
            due_in_window[window] += 1;
            lags.record(window, slot.flushed_ns.saturating_sub(slot.due_ns));
            let in_time = slot.outcome != Outcome::Pending && slot.done_ns <= end_ns + DRAIN_NS;
            result.tally.count(slot.outcome, in_time);
            result.tally.bounces += u64::from(slot.bounced);
            result.completed_in_time += u64::from(in_time);
            if slot.outcome == Outcome::Ok && in_time {
                let windows = if slot.put {
                    &mut result.put
                } else {
                    &mut result.get
                };
                windows.record(window, slot.done_ns.saturating_sub(slot.due_ns));
            }
        }
        for (marks, &due) in cpu_marks.windows(2).zip(&due_in_window) {
            if due > 0 {
                let (process, generator) = (marks[1].0 - marks[0].0, marks[1].1 - marks[0].1);
                result
                    .sut_cpu_us_per_op
                    .push(process.saturating_sub(generator) as f64 / 1e3 / due as f64);
                result
                    .gen_cpu_us_per_op
                    .push(generator as f64 / 1e3 / due as f64);
            }
        }
        result.get.seal();
        result.put.seal();
        lags.seal();
        result.gen_lag_p99_us = median(&lags.percentiles(0.99)).unwrap_or(0.0);
        result
    }

    /// Keeps `depth` requests in flight: each reply triggers the next
    /// request. `fixed_conn` sends everything one way (ladder rungs); the
    /// tracer, when on, records a span tree per request.
    pub fn closed_loop(
        &mut self,
        depth: usize,
        until: Until,
        only: Only,
        fixed_conn: Option<usize>,
        tr: &mut Tracer,
    ) -> ClosedResult {
        let mut phase = self.begin_phase(0);
        let may_issue = |issued: usize| match until {
            Until::Ops(n) => (issued as u64) < n,
            Until::Deadline(t) => now_ns() < t,
        };
        let start_ns = now_ns();
        let mut last_progress = (start_ns, 0);
        loop {
            while phase.in_flight() < depth && may_issue(phase.slots.len()) {
                self.issue(&mut phase, now_ns(), only, fixed_conn, tr);
            }
            if phase.in_flight() == 0 {
                break;
            }
            // At depth 1 the one request's round trip is a span of its own:
            // the write, and polling until its bytes are back.
            let lone = phase
                .slots
                .last()
                .filter(|_| depth == 1)
                .map(|s| (s.span, u64::from(self.next_seq - 1)));
            let rtt = lone.map(|(root, req)| tr.begin("edge.rtt", root, req));
            self.flush(&mut phase);
            while lone.is_some()
                && !poll_readable(
                    [
                        self.conns[0].stream.as_raw_fd(),
                        self.conns[1].stream.as_raw_fd(),
                    ],
                    0,
                )
                .contains(&true)
            {
                if now_ns() - last_progress.0 > HARD_DRAIN_NS {
                    break;
                }
            }
            if let Some(span) = rtt {
                tr.end(span);
            }
            self.receive(&mut phase, tr, lone);
            // Replies that never come end the phase instead of hanging it.
            if phase.settled > last_progress.1 {
                last_progress = (now_ns(), phase.settled);
            } else if now_ns() - last_progress.0 > HARD_DRAIN_NS {
                break;
            }
        }
        let mut result = ClosedResult {
            tally: Tally::default(),
            start_ns,
            ok_done_ns: Vec::new(),
            get_ns: Vec::new(),
            put_ns: Vec::new(),
        };
        for slot in &phase.slots {
            result.tally.count(slot.outcome, true);
            result.tally.bounces += u64::from(slot.bounced);
            if slot.outcome == Outcome::Ok {
                result.ok_done_ns.push(slot.done_ns);
                if slot.put {
                    &mut result.put_ns
                } else {
                    &mut result.get_ns
                }
                .push(slot.done_ns - slot.due_ns);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = ScheduleRng::new(7).poisson(50_000.0, 100_000_000);
        let b = ScheduleRng::new(7).poisson(50_000.0, 100_000_000);
        let c = ScheduleRng::new(8).poisson(50_000.0, 100_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // 5 000 expected arrivals, ascending, all inside the step.
        assert!((4_700..5_300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 100_000_000);
    }

    #[test]
    fn op_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let take = |seed| {
            let mut s = OpStream::new(5_000, 0.5, true, seed);
            (0..200)
                .map(|_| s.next_op())
                .map(|op| (op.put, op.rank))
                .collect::<Vec<_>>()
        };
        assert_eq!(take(11), take(11));
        assert_ne!(take(11), take(12));
        assert!(take(11).iter().all(|(_, rank)| *rank < 5_000));
    }

    #[test]
    fn unanswered_and_late_requests_count_as_failed_attempts() {
        let mut t = Tally::default();
        t.count(Outcome::Ok, true);
        t.count(Outcome::Ok, false); // answered, but after the deadline
        t.count(Outcome::Pending, false); // never answered
        t.count(Outcome::ErrorReply, true);
        t.count(Outcome::Stale, true);
        t.count(Outcome::Corrupt, false);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                ok: 1,
                error_replies: 1,
                unanswered: 2,
                wrong: 2,
                bounces: 0
            }
        );
        assert_eq!(t.failed(), 5);
        assert!((t.failed_share() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn router_keeps_one_keys_puts_on_one_connection() {
        let mut ms = Router::new(true);
        let mut aa = Router::new(false);
        let put = |rank| GenOp::rebuild(true, rank);
        let get = |rank| GenOp::rebuild(false, rank);
        assert_eq!([ms.route(&put(4), false), ms.route(&put(5), false)], [0, 0]);
        assert_eq!([ms.route(&get(4), false), ms.route(&get(4), false)], [1, 1]);
        let hot: Vec<usize> = (0..4).map(|_| ms.route(&get(4), true)).collect();
        assert_eq!(hot, vec![1, 0, 1, 0]);
        assert_eq!(
            [
                aa.route(&put(4), false),
                aa.route(&put(5), false),
                aa.route(&put(4), true)
            ],
            [0, 1, 0]
        );
        let reads: Vec<usize> = (0..4).map(|_| aa.route(&get(9), false)).collect();
        assert_eq!(reads, vec![1, 0, 1, 0]);
    }
}
