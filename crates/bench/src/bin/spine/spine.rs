//! `spine`: one open-loop benchmark of the armed live cluster, four
//! workloads, and an outside-in layer ladder. See `README.md` beside this
//! file for how to run it and what every name means.

mod check;
mod compare;
mod gen;
mod metrics;
mod run;
mod stats;
mod sut;
mod sys;
mod trace;

use metrics::{WorkloadDef, LADDER, WORKLOADS};
use run::{run_workload, Cores, Plan, RunOutput, Shape};

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was measured. `toolchain` is `(commit, rustc -V)`.
fn stamp_json(
    w: &WorkloadDef,
    seed: u64,
    shape: &Shape,
    cores: &Cores,
    toolchain: &(String, String),
) -> String {
    let nproc = cores.allowed;
    let rates: Vec<String> = LADDER
        .iter()
        .map(|m| format!("{}", w.ref_rate * m))
        .collect();
    format!(
        "{{\"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc},\"generator_cpus\":{:?},\"system_cpus\":{:?},\"transport\":\"{}\",\"profile\":\"{}\",\"mode\":\"{}\",\"seed\":{seed},\"shape\":{},\"rates_ops_s\":[{}]}}",
        toolchain.0,
        toolchain.1,
        cores.generator,
        cores.system,
        sut::TRANSPORT,
        sut::PROFILE,
        w.mode.label(),
        shape.stamp_json(),
        rates.join(",")
    )
}

/// The one-line result object the driver reads.
fn result_json(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.tally.attempted.max(1),
        out.tally.failed(),
        metrics.join(", ")
    )
}

fn print_table(w: &WorkloadDef, trace: bool, stamp: &str, out: &RunOutput) {
    println!(
        "# {} ({}) {}",
        w.name,
        w.mode.label(),
        if trace {
            "traced pass: per-layer"
        } else {
            "end to end"
        }
    );
    println!("# {}", w.why);
    println!("# {stamp}");
    for m in &out.metrics {
        println!(
            "{:<44} {:>16.4} {:<6} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: spine [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       spine --smoke [--workload NAME]\n       spine --compare A.jsonl B.jsonl";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => args.out = Some(value(&mut it, &flag)?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value(&mut it, &flag)?, value(&mut it, &flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1.0..=60.0).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// Runs one pass of one workload in a process of its own; `false` when it
/// did not exit with success.
fn run_in_child(args: &Args, workload: &str, trace: bool) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        child.arg("--smoke");
    }
    if let Some(path) = &args.out {
        child.args(["--out", path]);
    }
    match child.status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("spine: cannot start a pass of {workload}: {e}");
            false
        }
    }
}

fn main() -> std::process::ExitCode {
    use std::process::ExitCode;
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spine: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("spine --compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workloads: Vec<&WorkloadDef> = match &args.workload {
        Some(name) => match metrics::workload(name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "spine: unknown workload {name}; one of {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        // A smoke run keeps to one workload unless told otherwise.
        None if args.smoke => vec![&WORKLOADS[0]],
        None => WORKLOADS.iter().collect(),
    };
    let passes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    // Several passes: a process each, as the driver runs them, so that none
    // measures its memory or its latencies on top of another's heap.
    let (w, trace) = match (&workloads[..], &passes[..]) {
        ([w], [trace]) => (*w, *trace),
        _ => {
            let mut all_correct = true;
            for w in &workloads {
                for &trace in &passes {
                    all_correct &= run_in_child(&args, w.name, trace);
                }
            }
            return ExitCode::from(u8::from(!all_correct));
        }
    };
    let shape = if args.smoke {
        Shape::smoke()
    } else {
        Shape::of_seconds(args.seconds)
    };
    sut::select_transport();
    let cores = Cores::split();
    let toolchain = (
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
    );

    let plan = Plan {
        w,
        seed: args.seed,
        shape: &shape,
        cores: &cores,
    };
    let out = run_workload(&plan, trace);
    let stamp = stamp_json(w, args.seed, &shape, &cores, &toolchain);
    print_table(w, trace, &stamp, &out);
    let result = result_json(&out);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"stamp\":{stamp},\"result\":{result}}}\n",
            w.name,
            args.seed,
            u8::from(trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("spine: cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    ExitCode::from(u8::from(!out.correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::{num, string};
    use gen::Tally;
    use run::Measured;
    use serde::Value;

    #[test]
    fn result_object_has_the_contracts_keys_and_every_digit() {
        let out = RunOutput {
            correct: true,
            tally: Tally {
                attempted: 10,
                ok: 9,
                error_replies: 1,
                ..Tally::default()
            },
            metrics: vec![
                Measured {
                    name: "setup_s".into(),
                    value: 0.123456789012,
                    unit: "s",
                    better: "lower",
                },
                Measured {
                    name: "sat_ops_s".into(),
                    value: 2e5,
                    unit: "ops/s",
                    better: "higher",
                },
            ],
            notes: Vec::new(),
        };
        let j: Value = serde_json::from_str(&result_json(&out)).unwrap();
        let Value::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("failed").and_then(num), Some(1.0));
        let setup = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(num), Some(0.123456789012));
        assert_eq!(setup.get("unit").and_then(string), Some("s"));
    }
}
