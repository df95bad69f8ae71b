//! One run of one workload: set-up, warm-up, the rate ladder, then either
//! saturation (end-to-end pass) or the traced replay and the layer ladder
//! (traced pass), and the final-state check.

use crate::check::Checker;
use crate::gen::{Conn, Driver, Only, StepResult, Tally, Until, CONN_NODES, WINDOWS};
use crate::metrics::{self, WorkloadDef, CURVE_FIELDS, END_TO_END, LADDER, TRACE_SPANS};
use crate::stats::{highest_supported_percentile, median, median_ns_per_call, percentile};
use crate::sut::{self, Counters, Echo, OpStream, Sut};
use crate::sys::{self, now_ns};
use crate::trace::{self, Tracer};

/// A step whose generator ran later than this at p99 is redone.
const GEN_LAG_LIMIT_US: f64 = 1_000.0;
const MAX_REDOS: u64 = 2;
/// Requests in flight during saturation: 32 per connection.
const SAT_DEPTH: usize = 64;
/// User bytes per key: 16-byte key + 32-byte value.
const USER_BYTES_PER_KEY: u64 = 48;

/// How long and how big one run is. Everything scales from `--seconds`, so
/// the shape is the same on every commit.
pub struct Shape {
    keys: u64,
    setups: usize,
    warm_ns: u64,
    /// The reference step is twice as long as the others: every latency and
    /// cost this benchmark reports is measured there.
    ref_step_ns: u64,
    step_ns: u64,
    rounds: usize,
    sat_ns: u64,
    /// Ops of the traced depth-1 replay (the untraced one is half of it)
    /// and calls per ladder rung.
    calls: usize,
    pipelined_ns: u64,
}

impl Shape {
    /// `seconds` covers warm-up and three rounds of the reference step (two
    /// twentieths), three more steps and one saturation phase (a twentieth
    /// each).
    pub fn of_seconds(seconds: f64) -> Shape {
        let twentieth = (seconds / 20.0 * 1e9) as u64;
        Shape {
            keys: 200_000,
            setups: 3,
            warm_ns: twentieth,
            ref_step_ns: 2 * twentieth,
            step_ns: twentieth,
            rounds: 3,
            sat_ns: twentieth,
            calls: 5_000,
            pipelined_ns: 300_000_000,
        }
    }

    pub fn smoke() -> Shape {
        Shape {
            keys: 5_000,
            setups: 1,
            warm_ns: 200_000_000,
            ref_step_ns: 500_000_000,
            step_ns: 500_000_000,
            rounds: 1,
            sat_ns: 300_000_000,
            calls: 1_000,
            pipelined_ns: 100_000_000,
        }
    }

    /// The durations and sizes a result was measured with, for its stamp.
    pub fn stamp_json(&self) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        format!(
            "{{\"keys\":{},\"setups\":{},\"warm_s\":{},\"ref_step_s\":{},\"step_s\":{},\"rounds\":{},\"sat_s\":{}}}",
            self.keys,
            self.setups,
            s(self.warm_ns),
            s(self.ref_step_ns),
            s(self.step_ns),
            self.rounds,
            s(self.sat_ns)
        )
    }
}

/// Which CPUs the generator's thread and the system's threads run on. They
/// are kept apart so that how the kernel happens to mix a polling generator
/// with the system's threads is not part of the measurement.
pub struct Cores {
    /// How many CPUs the process may use (`available_parallelism` sees only
    /// the generator's once the split is applied).
    pub allowed: usize,
    pub generator: Vec<usize>,
    pub system: Vec<usize>,
}

impl Cores {
    /// The first allowed CPU for the generator, every other one for the
    /// system; with a single CPU both share it.
    pub fn split() -> Cores {
        let cpus = sys::allowed_cpus();
        let allowed = cpus.len();
        match cpus.split_first() {
            Some((first, rest)) if !rest.is_empty() => Cores {
                allowed,
                generator: vec![*first],
                system: rest.to_vec(),
            },
            _ => Cores {
                allowed,
                generator: cpus.clone(),
                system: cpus,
            },
        }
    }

    /// Runs `f` with the calling thread on the system's CPUs: threads
    /// spawned inside inherit them. Returns to the generator's afterwards.
    fn as_system<T>(&self, f: impl FnOnce() -> T) -> T {
        sys::pin_current_thread(&self.system);
        let out = f();
        sys::pin_current_thread(&self.generator);
        out
    }
}

/// One measured metric, ready to print.
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// One run's printable result.
pub struct RunOutput {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    pub notes: Vec<String>,
}

struct Setup {
    sut: Sut,
    conns: [Conn; 2],
    setup_s: f64,
    build_s: f64,
    preload_s: f64,
}

fn set_up(w: &WorkloadDef, keys: u64, cores: &Cores) -> Setup {
    let t0 = now_ns();
    let (mut sut, t1) = cores.as_system(|| (Sut::build(w.mode), now_ns()));
    sut.preload(keys);
    let t2 = now_ns();
    let addrs = cores.as_system(|| sut.bind());
    let conns = CONN_NODES.map(|node| Conn::connect(addrs[node as usize]).expect("edge accepts"));
    let t3 = now_ns();
    let s = |a: u64, b: u64| (b - a) as f64 / 1e9;
    Setup {
        sut,
        conns,
        setup_s: s(t0, t3),
        build_s: s(t0, t1),
        preload_s: s(t1, t2),
    }
}

/// The share of all CPU time since `before` that the host gave to someone
/// else: a run with more than a percent or two of it measured the host.
fn steal_share(before: (u64, u64)) -> f64 {
    let now = sys::host_ticks();
    (now.0 - before.0) as f64 / (now.1 - before.1).max(1) as f64
}

/// The median; 0 when nothing was measured.
fn mid(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    mid(&values.collect::<Vec<_>>())
}

/// The highest percentile of the samples with ten beyond it, as
/// `(percent, microseconds)`.
fn tail(sorted: &[u64]) -> (f64, f64) {
    match highest_supported_percentile(sorted.len()) {
        Some(p) => (p * 100.0, percentile(sorted, p) as f64 / 1e3),
        None => (0.0, 0.0),
    }
}

/// Runs one ladder step, redoing it when the generator itself ran late.
fn accepted_step(
    driver: &mut Driver,
    rate: f64,
    dur_ns: u64,
    redos: &mut u64,
) -> (StepResult, bool) {
    loop {
        let r = driver.open_loop_step(rate, dur_ns);
        let on_time = r.gen_lag_p99_us <= GEN_LAG_LIMIT_US;
        if r.passes() && !on_time && *redos < MAX_REDOS {
            *redos += 1;
            continue;
        }
        let passed = r.passes() && on_time;
        return (r, passed);
    }
}

/// What the rounds of the rate ladder measured.
#[derive(Default)]
struct Ladder {
    /// Window-level values of every reference-rate step. A reported number
    /// is their median.
    get_p50: Vec<f64>,
    get_p99: Vec<f64>,
    put_p50: Vec<f64>,
    put_p99: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    gen_cpu_us_per_op: Vec<f64>,
    /// Every latency of the reference steps, ascending, for the tail report.
    ref_get_ns: Vec<u64>,
    ref_put_ns: Vec<u64>,
    /// The system's counters and the harness's tally over the reference steps.
    ref_counters: Counters,
    ref_tally: Tally,
    /// Highest passing rate of each round (with every step below it).
    max_ok: Vec<f64>,
    /// Per step, per round: GET p50/p99, PUT p50/p99, failed share.
    curve: Vec<Vec<[f64; 5]>>,
    /// Steps at or below each round's highest passing one.
    counted: Tally,
    /// Wrong values in any step, above the knee too.
    wrong: u64,
    redos: u64,
    /// Worst generator lag p99 of an accepted step.
    max_lag_accepted_us: f64,
    notes: Vec<String>,
}

impl Ladder {
    /// `rounds` climbs of `LADDER`, each followed by `after_round`. A round
    /// stops at its first failing step, though never before the reference
    /// step; `whole_curve` climbs on regardless.
    fn measure(
        driver: &mut Driver,
        sut: &Sut,
        w: &WorkloadDef,
        shape: &Shape,
        rounds: usize,
        whole_curve: bool,
        mut after_round: impl FnMut(&mut Driver),
    ) -> Ladder {
        let mut l = Ladder {
            curve: vec![Vec::new(); LADDER.len()],
            ..Ladder::default()
        };
        for _ in 0..rounds {
            let mut best = 0.0;
            let mut climbing = true;
            for (k, mult) in LADDER.iter().enumerate() {
                let rate = w.ref_rate * mult;
                let dur_ns = if *mult == 1.0 {
                    shape.ref_step_ns
                } else {
                    shape.step_ns
                };
                let before = sut.counters();
                let (r, passed) = accepted_step(driver, rate, dur_ns, &mut l.redos);
                l.wrong += r.tally.wrong;
                let point = |put, p| r.p(put, p).unwrap_or(0.0);
                let points = [
                    point(false, 0.5),
                    point(false, 0.99),
                    point(true, 0.5),
                    point(true, 0.99),
                    r.tally.failed_share(),
                ];
                l.curve[k].push(points);
                l.notes.push(format!(
                    "step x{mult}: {} get p50 {:.0} p99 {:.0} put p50 {:.0} p99 {:.0} us, failed {}/{}, lag p99 {:.0} us",
                    if passed { "pass" } else { "FAIL" },
                    points[0],
                    points[1],
                    points[2],
                    points[3],
                    r.tally.failed(),
                    r.tally.attempted,
                    r.gen_lag_p99_us
                ));
                if *mult == 1.0 {
                    l.ref_counters.add_delta(&before, &sut.counters());
                    l.ref_tally.add(&r.tally);
                    l.get_p50.extend(r.window_p(false, 0.5));
                    l.get_p99.extend(r.window_p(false, 0.99));
                    l.put_p50.extend(r.window_p(true, 0.5));
                    l.put_p99.extend(r.window_p(true, 0.99));
                    l.cpu_us_per_op.extend(&r.sut_cpu_us_per_op);
                    l.gen_cpu_us_per_op.extend(&r.gen_cpu_us_per_op);
                    l.ref_get_ns.extend(r.get.pooled());
                    l.ref_put_ns.extend(r.put.pooled());
                }
                climbing &= passed;
                if climbing {
                    best = rate;
                    l.counted.add(&r.tally);
                    l.max_lag_accepted_us = l.max_lag_accepted_us.max(r.gen_lag_p99_us);
                } else if !whole_curve && *mult >= 1.0 {
                    break;
                }
            }
            l.max_ok.push(best);
            after_round(driver);
        }
        l.ref_get_ns.sort_unstable();
        l.ref_put_ns.sort_unstable();
        l
    }

    fn tails_note(&self) -> String {
        let ((gp, gu), (pp, pu)) = (tail(&self.ref_get_ns), tail(&self.ref_put_ns));
        format!(
            "reference step: get p50 {:.1} p99 {:.1} us, put p50 {:.1} p99 {:.1} us; tails get p{gp:.3} {gu:.1} us over {} samples, put p{pp:.3} {pu:.1} us over {}",
            mid(&self.get_p50),
            mid(&self.get_p99),
            mid(&self.put_p50),
            mid(&self.put_p99),
            self.ref_get_ns.len(),
            self.ref_put_ns.len()
        )
    }
}

/// What one run is asked to do.
pub struct Plan<'a> {
    pub w: &'a WorkloadDef,
    pub seed: u64,
    pub shape: &'a Shape,
    pub cores: &'a Cores,
}

/// What a run has to answer for besides its metrics: the requests that
/// count as attempted and failed (the ladder's accepted steps, the
/// saturation phases, the depth-1 replays), wrong values from every phase —
/// above the knee a wrong value is still wrong — and notes for the reader.
struct Audit {
    counted: Tally,
    wrong: u64,
    notes: Vec<String>,
}

impl Audit {
    /// Counts a closed-loop phase in full.
    fn count(&mut self, tally: &Tally) {
        self.counted.add(tally);
        self.wrong += tally.wrong;
    }
}

pub fn run_workload(plan: &Plan, traced: bool) -> RunOutput {
    let Plan {
        w,
        seed,
        shape,
        cores,
    } = *plan;
    let ticks_before = sys::host_ticks();
    let rss_before = sys::rss_bytes();
    let mut setups = Vec::new();
    let mut rss_loaded = 0;
    let mut live = None;
    for i in 0..shape.setups {
        let s = set_up(w, shape.keys, cores);
        if i == 0 {
            rss_loaded = sys::rss_bytes();
        }
        setups.push((s.setup_s, s.build_s, s.preload_s));
        if let Some(Setup { sut, conns, .. }) = live.replace(s) {
            drop(conns);
            sut.shutdown();
        }
    }
    let Setup { sut, conns, .. } = live.expect("at least one set-up");
    let setup_s = median_of(setups.iter().map(|s| s.0));
    let mem_ratio = rss_loaded.saturating_sub(rss_before) as f64
        / (shape.keys * USER_BYTES_PER_KEY * sut::REPLICAS as u64) as f64;

    let checker = Checker::new(shape.keys, w.mode.strong());
    let stream = OpStream::new(shape.keys, w.get_share, w.zipf, seed);
    let mut driver = Driver::new(conns, checker, stream, seed, w.mode.master_slave());
    let warm = driver.open_loop_step(w.ref_rate, shape.warm_ns);
    // One saturation phase after every round of the end-to-end pass, so
    // that they sample three different moments of the host's mood.
    let mut sat_phases = Vec::new();
    let saturate = |driver: &mut Driver| {
        if !traced {
            sat_phases.push(driver.closed_loop(
                SAT_DEPTH,
                Until::Deadline(now_ns() + shape.sat_ns),
                Only::Both,
                None,
                &mut Tracer::off(),
            ));
        }
    };
    let rounds = if traced { 1 } else { shape.rounds };
    let mut ladder = Ladder::measure(&mut driver, &sut, w, shape, rounds, traced, saturate);

    let mut audit = Audit {
        counted: ladder.counted,
        wrong: warm.tally.wrong + ladder.wrong,
        notes: std::mem::take(&mut ladder.notes),
    };
    let metrics = if traced {
        let mut layer = per_layer(plan, &sut, &mut driver, &ladder, &mut audit);
        layer.push((
            "cluster.build_s".into(),
            median_of(setups.iter().map(|s| s.1)),
        ));
        layer.push((
            "bench.preload_s".into(),
            median_of(setups.iter().map(|s| s.2)),
        ));
        layer.push(("bench.host_steal_share".into(), steal_share(ticks_before)));
        listed_order(layer).expect("per-layer metrics match metrics.rs")
    } else {
        let mut sat = Vec::new();
        for r in &sat_phases {
            audit.count(&r.tally);
            sat.extend(r.ok_per_s(shape.sat_ns / WINDOWS as u64));
        }
        let counted = audit.counted;
        let notes = &mut audit.notes;
        notes.push(format!(
            "max_ok per round {:?}, redo_steps {}, gen_lag_p99_us (accepted) {:.1}",
            ladder.max_ok, ladder.redos, ladder.max_lag_accepted_us
        ));
        notes.push(format!(
            "failed_share {:.6} over {} counted requests",
            counted.failed_share(),
            counted.attempted
        ));
        notes.push(ladder.tails_note());
        notes.push(format!(
            "reference windows: get p50 {:.0?} put p50 {:.0?} cpu {:.1?} us",
            ladder.get_p50, ladder.put_p50, ladder.cpu_us_per_op
        ));
        notes.push(format!("saturation windows: {sat:.0?} ops/s"));
        notes.push(format!(
            "host stole {:.4} of the CPU time of this run",
            steal_share(ticks_before)
        ));
        let values = [
            setup_s,
            mid(&ladder.max_ok),
            mid(&sat),
            mid(&ladder.cpu_us_per_op),
            mem_ratio,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name.into(),
                value,
                unit: m.unit,
                better: m.better,
            })
            .collect()
    };

    let final_violations = final_check(&sut, &driver.checker);
    let protocol_errors = driver.protocol_errors;
    drop(driver);
    sut.shutdown();
    let Audit {
        counted,
        wrong,
        mut notes,
    } = audit;
    let correct = wrong + protocol_errors + final_violations == 0;
    if !correct {
        notes.push(format!("INCORRECT: {wrong} wrong values, {protocol_errors} protocol errors, {final_violations} final-state violations"));
    }
    RunOutput {
        correct,
        tally: counted,
        metrics,
        notes,
    }
}

/// The traced pass after the ladder: depth-1 replays, the layer ladder
/// outside in, and the counters of the reference step.
fn per_layer(
    plan: &Plan,
    sut: &Sut,
    driver: &mut Driver,
    ladder: &Ladder,
    audit: &mut Audit,
) -> Vec<(String, f64)> {
    let Plan {
        w,
        seed,
        shape,
        cores,
    } = *plan;
    let mut layer: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| layer.push((name.to_string(), value));
    let mut off = Tracer::off();
    let calls = shape.calls as u64;

    // Depth-1 replays of the same stream: a short one to let the last
    // ladder step's backlog settle, then untraced, then traced.
    let settle = driver.closed_loop(1, Until::Ops(calls / 10), Only::Both, None, &mut off);
    let plain = driver.closed_loop(1, Until::Ops(calls / 2), Only::Both, None, &mut off);
    let mut tr = Tracer::on();
    let replay = driver.closed_loop(1, Until::Ops(calls), Only::Both, None, &mut tr);
    for r in [&settle, &plain, &replay] {
        audit.count(&r.tally);
    }
    let (p50_plain, p50_traced) = (
        plain.median_us(false).unwrap_or(0.0),
        replay.median_us(false).unwrap_or(0.0),
    );
    put(
        "bench.trace_overhead_share",
        if p50_plain > 0.0 {
            (p50_traced - p50_plain) / p50_plain
        } else {
            0.0
        },
    );
    let selfs = tr.median_self_ns();
    for (span, short) in TRACE_SPANS {
        put(
            &format!("trace.{short}_self_ns"),
            selfs
                .iter()
                .find(|(n, _, _)| *n == span)
                .map_or(0.0, |(_, ns, _)| *ns),
        );
    }

    // Direct calls, on this workload's own keys.
    let mut fork = OpStream::new(shape.keys, w.get_share, w.zipf, seed ^ 0x1ADD_E200);
    let span = tr.begin("workloads.next_op_ns", trace::NONE, 0);
    let mut ops = Vec::with_capacity(shape.calls);
    put(
        "workloads.next_op_ns",
        median_ns_per_call(shape.calls / 100, 100, |_| ops.push(fork.next_op())),
    );
    tr.end(span);
    let direct = sut.direct_rungs(&ops, shape.calls, shape.keys, &mut tr);
    let rung = |name: &str| {
        direct
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    for (name, value) in &direct {
        put(name, *value);
    }
    put(
        "cluster.try_get_self_ns",
        rung("cluster.try_get_ns")
            - rung("datalet.get_ns")
            - rung("types.sketch_record_ns")
            - rung("core.gate_read_ns"),
    );

    // The socket floor: an echo server on the same transport and frames.
    let (echo, echo_addr) = cores.as_system(Echo::bind);
    let echo_conns = [0, 1].map(|_| Conn::connect(echo_addr).expect("echo accepts"));
    let echo_stream = OpStream::new(shape.keys, w.get_share, w.zipf, seed ^ 0xEC40);
    let mut echo_driver = Driver::new(
        echo_conns,
        Checker::new(shape.keys, false),
        echo_stream,
        seed,
        true,
    );
    let span = tr.begin("runtime.echo_rtt_us", trace::NONE, 0);
    let rtt = echo_driver.closed_loop(1, Until::Ops(calls), Only::Gets, Some(0), &mut off);
    tr.end(span);
    let span = tr.begin("runtime.echo_pipelined_ops_s", trace::NONE, 0);
    let piped = echo_driver.closed_loop(
        SAT_DEPTH,
        Until::Deadline(now_ns() + shape.pipelined_ns),
        Only::Gets,
        Some(0),
        &mut off,
    );
    tr.end(span);
    audit.wrong += rtt.tally.wrong + piped.tally.wrong + echo_driver.protocol_errors;
    drop(echo_driver);
    echo.stop();
    put("runtime.echo_rtt_us", rtt.median_us(false).unwrap_or(0.0));
    put(
        "runtime.echo_pipelined_ops_s",
        mid(&piped.ok_per_s(shape.pipelined_ns / WINDOWS as u64)),
    );

    // Depth-1 requests over TCP: a gated GET at the read replica, the same
    // through the controlet actor, a PUT at the ingress.
    let read_conn = 1;
    let read_node = CONN_NODES[read_conn] as usize;
    let mut tcp_rung = |name: &'static str, only: Only, conn: Option<usize>, tr: &mut Tracer| {
        let span = tr.begin(name, trace::NONE, 0);
        let r = driver.closed_loop(1, Until::Ops(calls), only, conn, &mut off);
        tr.end(span);
        audit.count(&r.tally);
        r.median_us(only == Only::Puts).unwrap_or(0.0)
    };
    let gated = tcp_rung(
        "cluster.gated_get_rtt_us",
        Only::Gets,
        Some(read_conn),
        &mut tr,
    );
    sut.set_fast_path(read_node, false);
    let relayed = tcp_rung(
        "cluster.relayed_get_rtt_us",
        Only::Gets,
        Some(read_conn),
        &mut tr,
    );
    sut.set_fast_path(read_node, true);
    let put_rtt = tcp_rung("cluster.put_rtt_us", Only::Puts, None, &mut tr);
    put("cluster.gated_get_rtt_us", gated);
    put("cluster.relayed_get_rtt_us", relayed);
    put("runtime.actor_hop_us", relayed - gated);
    put("cluster.put_rtt_us", put_rtt);

    // Counters over the untraced reference step.
    let c = &ladder.ref_counters;
    let kop = ladder.ref_tally.attempted.max(1) as f64 / 1e3;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    put(
        "core.combiner_ops_per_batch",
        share(c.comb_ops, c.comb_batches),
    );
    put(
        "core.combiner_lock_contention_per_kop",
        c.comb_lock_contention as f64 / kop,
    );
    put(
        "core.combiner_window_waits_per_kop",
        c.comb_window_waits as f64 / kop,
    );
    put("core.combiner_shed_per_kop", c.comb_shed as f64 / kop);
    put(
        "cluster.fastpath_hit_share",
        share(c.fast_hits, c.fast_hits + c.fast_fallbacks),
    );
    put(
        "cluster.skew_cache_hit_share",
        share(c.skew_cache_hits, c.skew_hot_lookups),
    );
    put("cluster.coalesced_per_kop", c.skew_coalesced as f64 / kop);
    put(
        "cluster.wrongnode_bounce_per_kop",
        ladder.ref_tally.bounces as f64 / kop,
    );
    put("types.overload_shed_per_kop", c.overload_shed as f64 / kop);
    put("runtime.edge_refused", c.edge_refused as f64);
    put(
        "runtime.edge_pipeline_shed_per_kop",
        c.edge_pipeline_shed as f64 / kop,
    );

    // The harness's own validity numbers and the curve.
    put("bench.gen_lag_p99_us", ladder.max_lag_accepted_us);
    put("bench.gen_cpu_us_per_op", mid(&ladder.gen_cpu_us_per_op));
    put("bench.redo_steps", ladder.redos as f64);
    put("bench.samples_get", ladder.ref_get_ns.len() as f64);
    put("bench.samples_put", ladder.ref_put_ns.len() as f64);
    put("failed_share", audit.counted.failed_share());
    put("curve.max_ok_rate_ops_s", mid(&ladder.max_ok));
    put("curve.ref_get_p50_us", mid(&ladder.get_p50));
    put("curve.ref_put_p50_us", mid(&ladder.put_p50));
    put("curve.ref_get_p99_us", mid(&ladder.get_p99));
    put("curve.ref_put_p99_us", mid(&ladder.put_p99));
    let ((gp, gu), (pp, pu)) = (tail(&ladder.ref_get_ns), tail(&ladder.ref_put_ns));
    put("curve.get_tail_pct", gp);
    put("curve.get_tail_us", gu);
    put("curve.put_tail_pct", pp);
    put("curve.put_tail_us", pu);
    for (k, points) in ladder.curve.iter().enumerate() {
        for (f, (field, _)) in CURVE_FIELDS.iter().enumerate() {
            put(
                &format!("curve.s{}.{field}", k + 1),
                median_of(points.iter().map(|p| p[f])),
            );
        }
    }

    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("spine");
    let path = dir.join(format!("trace-{}.json", w.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json(w.name))) {
        Ok(()) => audit
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => audit
            .notes
            .push(format!("could not write {}: {e}", path.display())),
    }
    layer
}

/// Puts measured per-layer values in the order `BENCHMARK.json` lists them.
/// A listed name measured twice or not at all, or a measured name that is
/// not listed, is an error: every name is printed exactly once and nothing
/// unnamed is printed.
fn listed_order(measured: Vec<(String, f64)>) -> Result<Vec<Measured>, String> {
    let listed = metrics::per_layer();
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !listed.iter().any(|m| m.name == *n))
    {
        return Err(format!("{name} is measured but not listed"));
    }
    listed
        .into_iter()
        .map(|m| {
            let found: Vec<f64> = measured
                .iter()
                .filter(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .collect();
            match found[..] {
                [value] => Ok(Measured {
                    name: m.name,
                    value,
                    unit: m.unit,
                    better: m.better,
                }),
                _ => Err(format!("{} measured {} times", m.name, found.len())),
            }
        })
        .collect()
}

/// After the run every written key must read back, on every replica, as a
/// PUT no older than its last acknowledged one. Eventual replicas get a
/// moment to converge first.
fn final_check(sut: &Sut, checker: &Checker) -> u64 {
    let give_up = now_ns() + 3_000_000_000;
    loop {
        let mut violations = 0u64;
        for rank in checker.written() {
            for node in 0..sut::REPLICAS {
                if checker
                    .check_final(rank, sut.replica_value(node, rank).as_ref())
                    .is_err()
                {
                    violations += 1;
                }
            }
        }
        if violations == 0 || now_ns() > give_up {
            return violations;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_measured() -> Vec<(String, f64)> {
        metrics::per_layer()
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m.name, i as f64))
            .collect()
    }

    #[test]
    fn every_listed_name_is_printed_once_and_nothing_else() {
        // Measured in any order, printed in the listed one.
        let mut shuffled = all_measured();
        shuffled.reverse();
        let printed = listed_order(shuffled).ok().unwrap();
        let names: Vec<String> = printed.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            names,
            metrics::per_layer()
                .into_iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(printed[3].value, 3.0);

        let mut missing = all_measured();
        missing.remove(5);
        assert!(listed_order(missing).err().unwrap().contains("0 times"));
        let mut twice = all_measured();
        twice.push(twice[7].clone());
        assert!(listed_order(twice).err().unwrap().contains("2 times"));
        let mut unnamed = all_measured();
        unnamed.push(("bench.made_up".into(), 1.0));
        assert!(listed_order(unnamed).err().unwrap().contains("not listed"));
    }

    #[test]
    fn shape_scales_with_seconds_and_smoke_is_short() {
        let s = Shape::of_seconds(20.0);
        let round = s.ref_step_ns + s.step_ns * (LADDER.len() - 1) as u64 + s.sat_ns;
        assert_eq!(s.warm_ns + round * s.rounds as u64, 19_000_000_000);
        assert_eq!(Shape::of_seconds(10.0).step_ns * 2, s.step_ns);
        let k = Shape::smoke();
        assert!(k.warm_ns + k.step_ns * (2 * LADDER.len()) as u64 + k.sat_ns < 7_000_000_000);
    }
}
