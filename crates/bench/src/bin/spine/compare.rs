//! `spine --compare A B`: the two-set check. Each file holds the records
//! `--out` appended, one per line; A is the base, B the candidate.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::collections::BTreeMap;

/// `workload -> metric -> values`, end-to-end records only.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between one side's own runs is wider than the bound.
    Unresolved,
}

/// A JSON number, whole or not.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn string(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(string)
            .ok_or(format!("line {}: no workload", n + 1))?;
        if record.get("trace").and_then(num) != Some(0.0) {
            continue;
        }
        let Some(Value::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result.metrics", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(num)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// `candidate` against `base` for a metric with this direction and bound.
pub fn verdict(base: &[f64], candidate: &[f64], better: &str, bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (median(base), median(candidate)) else {
        return Verdict::Unresolved;
    };
    let spread = [base, candidate]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    let worse_by = if better == "lower" {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, metric); `Ok(false)` when any regressed.
pub fn compare_files(base_path: &str, candidate_path: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_runs(&t))
    };
    let (base, candidate) = (read(base_path)?, read(candidate_path)?);
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "cand median",
        "cand/base",
        "spread A",
        "spread B",
        "bound"
    );
    let mut regressed = false;
    for (workload, metrics) in &base {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                metrics.get(m.name),
                candidate.get(workload).and_then(|c| c.get(m.name)),
            ) else {
                continue;
            };
            let v = verdict(a, b, m.better, m.bound);
            regressed |= v == Verdict::Regressed;
            let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
            let spread =
                |s: &[f64]| quartile_spread(s).map_or("n/a".to_string(), |x| format!("{x:.3}"));
            println!(
                "{workload:<14} {:<26} {ma:>14.4} {mb:>14.4} {:>9.3} {:>8} {:>8} {:>6.2}  {}",
                m.name,
                mb / ma,
                spread(a),
                spread(b),
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = around(100.0, 0.2);
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not, and
        // getting faster never regresses.
        assert_eq!(
            verdict(&base, &around(105.0, 0.2), "lower", 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &around(120.0, 0.2), "lower", 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &around(50.0, 0.2), "lower", 0.10),
            Verdict::Ok
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            verdict(&base, &around(80.0, 0.2), "higher", 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &around(120.0, 0.2), "higher", 0.10),
            Verdict::Ok
        );
        // Runs that scatter by more than the bound resolve nothing.
        assert_eq!(
            verdict(&around(100.0, 5.0), &around(120.0, 0.2), "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[], &base, "lower", 0.10), Verdict::Unresolved);
    }

    #[test]
    fn records_are_grouped_by_workload_and_traced_passes_skipped() {
        let text = concat!(
            "{\"workload\":\"w\",\"seed\":1,\"trace\":0,\"stamp\":{},\"result\":{\"correct\": true, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}}\n",
            "\n",
            "{\"workload\":\"w\",\"seed\":2,\"trace\":0,\"stamp\":{},\"result\":{\"correct\": true, \"metrics\": {\"setup_s\": {\"value\": 0.7, \"unit\": \"s\"}}}}\n",
            "{\"workload\":\"w\",\"seed\":2,\"trace\":1,\"stamp\":{},\"result\":{\"correct\": true, \"metrics\": {\"datalet.get_ns\": {\"value\": 90, \"unit\": \"ns\"}}}}\n",
        );
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs["w"]["setup_s"], vec![0.5, 0.7]);
        assert!(!runs["w"].contains_key("datalet.get_ns"));
        assert!(parse_runs("{\"seed\":1}").is_err());
    }
}
