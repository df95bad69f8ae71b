//! The names this benchmark defines: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository root
//! restates them for the driver; a test keeps the two identical.

use crate::sut::ModeSel;

pub struct WorkloadDef {
    pub name: &'static str,
    pub mode: ModeSel,
    pub get_share: f64,
    pub zipf: bool,
    /// Reference offered rate, ops/s: 12 % of the closed-loop saturation
    /// rate on the reference box (README, "Workloads"). The ladder offers
    /// `LADDER` multiples of it.
    pub ref_rate: f64,
    pub why: &'static str,
}

/// Multiples of `ref_rate` each round climbs through. The last one is above
/// saturation on the reference box, so that a gain can show as a step, and
/// two and a half times the third: on the reference box steps from about 0.6
/// of saturation fail on the host's stalls alone, and the third has to stay
/// clear of that while the last stays clear of saturation (README,
/// "Workloads").
pub const LADDER: [f64; 4] = [1.0, 2.0, 4.0, 10.0];

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "b_zipf_mssc",
        mode: ModeSel::MsSc,
        get_share: 0.95,
        zipf: true,
        ref_rate: 32_000.0,
        why: "MS+SC 95/5 zipf 0.99: the read path (edge, gate, tHT get, sketch, validating cache) does most of the work; hot keys stay dirty.",
    },
    WorkloadDef {
        name: "a_unif_mssc",
        mode: ModeSel::MsSc,
        get_share: 0.5,
        zipf: false,
        ref_rate: 13_000.0,
        why: "MS+SC 50/50 uniform: the write path (combiner, two chain hops, ack) does most of the work, reads run beside it.",
    },
    WorkloadDef {
        name: "a_unif_msec",
        mode: ModeSel::MsEc,
        get_share: 0.5,
        zipf: false,
        ref_rate: 18_000.0,
        why: "MS+EC 50/50 uniform: same bytes and mix as a_unif_mssc but acked locally; the control separating combiner cost from chain round trips.",
    },
    WorkloadDef {
        name: "b_zipf_aasc",
        mode: ModeSel::AaSc,
        get_share: 0.95,
        zipf: true,
        ref_rate: 11_000.0,
        why: "AA+SC 95/5 zipf 0.99: no fast-path hits, closed write gate, DLM locks; a fast-path or combiner change predicts no change here.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The issue's four latencies at the reference step are not here. Between
/// sets of ten runs on the shared reference box the quartile spread of the
/// GET and PUT p50 ranged from 0.05 to 0.36 and that of the p99s from 0.3 to
/// 1.7 (README, "Steadiness"), with the reference step at twice the length
/// of the others; the issue demotes what needs more than 0.15, and the
/// contract refuses a benchmark whose spread exceeds its bound. They are
/// measured in every run and reported as `curve.ref_*`, and the tail still
/// decides `max_ok_rate_ops_s` through the pass rule. `failed_share` is 0 on
/// every workload, and an end-to-end metric may never be 0: it is per-layer
/// too, and the result object carries `failed` and `attempted`.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("max_ok_rate_ops_s", "ops/s", "higher", 0.25),
    e2e("sat_ops_s", "ops/s", "higher", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("mem_bytes_per_user_byte", "ratio", "lower", 0.05),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// What each ladder step contributes to the `curve.s<k>.*` diagnostics.
pub const CURVE_FIELDS: [(&str, &str); 5] = [
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("failed_share", "ratio"),
];

/// Span names of the traced replay whose median self time is reported as
/// `trace.<name>_self_ns`.
pub const TRACE_SPANS: [(&str, &str); 6] = [
    ("req", "req"),
    ("workloads.next_op", "next_op"),
    ("proto.encode_req", "encode_req"),
    ("edge.rtt", "edge_rtt"),
    ("proto.decode_resp", "decode_resp"),
    ("verify", "verify"),
];

pub fn per_layer() -> Vec<PerLayer> {
    let fixed: &[(&str, &str, &str)] = &[
        ("workloads.next_op_ns", "ns", "lower"),
        ("proto.encode_req_ns", "ns", "lower"),
        ("proto.decode_req_ns", "ns", "lower"),
        ("proto.encode_resp_ns", "ns", "lower"),
        ("proto.decode_resp_ns", "ns", "lower"),
        ("proto.req_bytes_per_op", "B", "lower"),
        ("proto.resp_bytes_per_op", "B", "lower"),
        ("types.sketch_record_ns", "ns", "lower"),
        ("types.shard_for_key_ns", "ns", "lower"),
        ("datalet.get_ns", "ns", "lower"),
        ("datalet.put_ns", "ns", "lower"),
        ("core.gate_read_ns", "ns", "lower"),
        ("cluster.try_get_ns", "ns", "lower"),
        ("cluster.try_get_self_ns", "ns", "lower"),
        ("runtime.echo_rtt_us", "us", "lower"),
        ("runtime.echo_pipelined_ops_s", "ops/s", "higher"),
        ("cluster.gated_get_rtt_us", "us", "lower"),
        ("cluster.relayed_get_rtt_us", "us", "lower"),
        ("runtime.actor_hop_us", "us", "lower"),
        ("cluster.put_rtt_us", "us", "lower"),
        ("core.combiner_ops_per_batch", "count", "higher"),
        ("core.combiner_lock_contention_per_kop", "count", "lower"),
        ("core.combiner_window_waits_per_kop", "count", "lower"),
        ("core.combiner_shed_per_kop", "count", "lower"),
        ("cluster.fastpath_hit_share", "ratio", "higher"),
        ("cluster.skew_cache_hit_share", "ratio", "higher"),
        ("cluster.coalesced_per_kop", "count", "higher"),
        ("cluster.wrongnode_bounce_per_kop", "count", "lower"),
        ("types.overload_shed_per_kop", "count", "lower"),
        ("runtime.edge_refused", "count", "lower"),
        ("runtime.edge_pipeline_shed_per_kop", "count", "lower"),
        ("cluster.build_s", "s", "lower"),
        ("bench.preload_s", "s", "lower"),
        ("bench.gen_lag_p99_us", "us", "lower"),
        ("bench.gen_cpu_us_per_op", "us", "lower"),
        ("bench.redo_steps", "count", "lower"),
        ("bench.samples_get", "count", "higher"),
        ("bench.samples_put", "count", "higher"),
        ("bench.trace_overhead_share", "ratio", "lower"),
        ("bench.host_steal_share", "ratio", "lower"),
        ("failed_share", "ratio", "lower"),
        ("curve.max_ok_rate_ops_s", "ops/s", "higher"),
        ("curve.ref_get_p50_us", "us", "lower"),
        ("curve.ref_put_p50_us", "us", "lower"),
        ("curve.ref_get_p99_us", "us", "lower"),
        ("curve.ref_put_p99_us", "us", "lower"),
        ("curve.get_tail_pct", "%", "higher"),
        ("curve.get_tail_us", "us", "lower"),
        ("curve.put_tail_pct", "%", "higher"),
        ("curve.put_tail_us", "us", "lower"),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.into(),
            unit,
            better,
        })
        .collect();
    for step in 1..=LADDER.len() {
        for (field, unit) in CURVE_FIELDS {
            out.push(PerLayer {
                name: format!("curve.s{step}.{field}"),
                unit,
                better: "lower",
            });
        }
    }
    for (_, short) in TRACE_SPANS {
        out.push(PerLayer {
            name: format!("trace.{short}_self_ns"),
            unit: "ns",
            better: "lower",
        });
    }
    out
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{num, string};
    use serde::Value;

    fn field<'a>(j: &'a Value, key: &str) -> &'a str {
        j.get(key)
            .and_then(string)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn list<'a>(j: &'a Value, key: &str) -> &'a [Value] {
        match j.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("{key} missing"),
        }
    }

    /// `BENCHMARK.json` names exactly what this file defines, with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_restates_this_file() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let j: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");

        let got: Vec<(&str, &str)> = list(&j, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(got, want);

        let e2e = list(&j, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better, "{}", want.name);
            assert_eq!(
                got.get("bound").and_then(num),
                Some(want.bound),
                "{}",
                want.name
            );
        }

        let layers = list(&j, "per_layer");
        let want = per_layer();
        assert_eq!(layers.len(), want.len());
        for (got, want) in layers.iter().zip(&want) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better, "{}", want.name);
        }

        let command: Vec<&str> = list(&j, "command").iter().filter_map(string).collect();
        assert!(command.contains(&"crates/bench/src/bin/spine/Cargo.toml"));
        let paths: Vec<&str> = list(&j, "paths").iter().filter_map(string).collect();
        assert_eq!(paths, vec!["crates/bench/src/bin/spine"]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(
            WORKLOADS.iter().all(|w| w.why.len() <= 200),
            "a why is too long"
        );
    }
}
