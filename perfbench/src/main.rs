//! Command-line entry point of the OddCI benchmark.
//!
//! ```text
//! perfbench --workload <dispatch|wire|job-stream|sweep|all> [--seed N]
//!           [--seconds S] [--trace 0|1] [--runs N]
//! ```
//!
//! One workload runs in this process and prints its metrics, then one JSON
//! result line. `--workload all` runs each workload `BENCHMARK.json`
//! declares (dispatch and wire) in a child process of its own, so peak
//! memory and set-up time never mix. `--runs N` repeats
//! one workload in N child processes on seeds `S, S+1, …` (`S` from
//! `--seed`) and prints each metric's median and quartiles across the runs.

use oddci_perfbench::common::{cpu_steal_ticks, nproc, revision, Outcome, RunCfg};
use oddci_perfbench::stats::{median, quartiles, relative_spread, FailureShare};
use oddci_perfbench::{result_json, run_workload, BENCHMARKED, HELD_OUT_SEED, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be within (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if n < 2 {
                    return Err("--runs needs at least 2 runs".into());
                }
                args.runs = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.runs {
        return repeat(&args, runs);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

fn run_one(args: &Args) -> ExitCode {
    let out_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        out_dir,
    };
    println!(
        "# perfbench workload={} seed={}{} seconds={} trace={} nproc={} rev={}",
        args.workload,
        args.seed,
        if args.seed == HELD_OUT_SEED {
            " (held out)"
        } else {
            ""
        },
        args.seconds,
        u8::from(args.trace),
        nproc(),
        revision()
    );
    let steal_before = cpu_steal_ticks();
    let mut out: Outcome = run_workload(&args.workload, &cfg).expect("workload name was checked");
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal_ticks()) {
        let share = 100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        out.note(format!("cpu steal during the run: {share:.1}%"));
    }
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed = 1;
        out.gate(false, || "no operation was attempted".into());
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.gate_failures
                .push(format!("metric {} is not a finite number", m.name));
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let share = FailureShare {
        failed: out.failed,
        attempted: out.attempted,
    };
    println!("# failed: {share}");
    let code = if out.correct() {
        for m in &out.metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        ExitCode::SUCCESS
    } else {
        for g in &out.gate_failures {
            eprintln!("perfbench: correctness gate failed: {g}");
        }
        ExitCode::from(1)
    };
    println!("{}", result_json(&out));
    code
}

/// Runs `args` with `workload` and `seed` in a child process; returns its
/// exit status and its last stdout line.
fn child(args: &Args, workload: &str, seed: u64) -> Option<(bool, String)> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{text}");
    let last = text.lines().last()?.to_string();
    Some((output.status.success(), last))
}

/// Metric name -> (value, unit), as a result line reports them.
type Metrics = BTreeMap<String, (f64, String)>;

/// Parses a result line and its metrics.
fn parse_metrics(line: &str) -> Option<(serde_json::Value, Metrics)> {
    let v: serde_json::Value = serde_json::from_str(line).ok()?;
    let mut out = BTreeMap::new();
    let serde_json::Value::Object(entries) = v.get("metrics")? else {
        return None;
    };
    for (name, m) in entries {
        let value = m.get("value")?.as_f64()?;
        let unit = m.get("unit")?.as_str()?.to_string();
        out.insert(name.clone(), (value, unit));
    }
    Some((v, out))
}

fn run_all(args: &Args) -> ExitCode {
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for w in BENCHMARKED {
        let Some((ok, last)) = child(args, w, args.seed) else {
            eprintln!("perfbench: could not run workload {w}");
            return ExitCode::from(1);
        };
        let Some((v, m)) = parse_metrics(&last) else {
            eprintln!("perfbench: workload {w} printed no result");
            return ExitCode::from(1);
        };
        correct &= ok && v.get("correct").and_then(|c| c.as_bool()) == Some(true);
        attempted += v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0);
        failed += v.get("failed").and_then(|a| a.as_u64()).unwrap_or(0);
        for (name, (value, unit)) in m {
            metrics.push(format!(
                "\"{w}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn repeat(args: &Args, runs: u64) -> ExitCode {
    if args.workload == "all" {
        eprintln!("perfbench: --runs repeats one workload; name it");
        return ExitCode::from(2);
    }
    let mut series: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for i in 0..runs {
        let seed = args.seed + i;
        let parsed = child(args, &args.workload, seed).and_then(|(ok, last)| {
            let (v, m) = parse_metrics(&last)?;
            (ok && v.get("correct").and_then(|c| c.as_bool()) == Some(true)).then_some(m)
        });
        let Some(m) = parsed else {
            eprintln!("perfbench: run with seed {seed} failed");
            return ExitCode::from(1);
        };
        for (name, (value, unit)) in m {
            series
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
    }
    println!(
        "\n# {} x{runs} (seeds {}..={}), nproc={} rev={}",
        args.workload,
        args.seed,
        args.seed + runs - 1,
        nproc(),
        revision()
    );
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>9} unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, (values, unit)) in &series {
        let q = quartiles(values).unwrap_or([f64::NAN; 3]);
        let spread = relative_spread(values).map_or("-".to_string(), |s| format!("{:.4}", s));
        println!(
            "{name:<40} {:>14.6} {:>14.6} {:>14.6} {spread:>9} {unit}",
            median(values).unwrap_or(f64::NAN),
            q[0],
            q[2]
        );
    }
    ExitCode::SUCCESS
}
