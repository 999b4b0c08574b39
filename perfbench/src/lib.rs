//! The OddCI benchmark: four seeded workloads against the public APIs of
//! `oddci-live`, `oddci-core`, `oddci-wire` and `oddci-telemetry`.
//!
//! See `perfbench/README.md` for why each workload exists, which layers it
//! exercises and bypasses, and which end-to-end metric each per-layer
//! metric should move.

pub mod common;
pub mod dispatch;
pub mod jobstream;
pub mod layers;
pub mod live;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod wire;

use common::{Outcome, RunCfg};

/// Every workload, by name.
pub const WORKLOADS: [&str; 4] = ["dispatch", "wire", "job-stream", "sweep"];

/// The workloads `BENCHMARK.json` declares, which `--workload all` runs.
/// `job-stream` and `sweep` run only by name: the README says why.
pub const BENCHMARKED: [&str; 2] = ["dispatch", "wire"];

/// A second fixed seed, held out: tune nothing on it, so a claimed gain
/// can be checked on inputs it was not fitted to.
pub const HELD_OUT_SEED: u64 = 20_091_117;

/// Runs one workload in this process.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "dispatch" => dispatch::run(cfg),
        "wire" => wire::run(cfg),
        "job-stream" => jobstream::run(cfg),
        "sweep" => sweep::run(cfg),
        _ => return None,
    })
}

/// Writes the traced pass's spans under the run's scratch directory.
pub fn write_spans(cfg: &RunCfg, workload: &str, tracer: &trace::Tracer, out: &mut Outcome) {
    let path = cfg
        .out_dir
        .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A run whose gates failed reports no numbers.
pub fn result_json(out: &Outcome) -> String {
    let correct = out.correct();
    let metrics: Vec<String> = if correct {
        out.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
