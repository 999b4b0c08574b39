//! What every workload shares: run parameters, the outcome it reports,
//! seeded input derivation and process-level measurements.

use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of one benchmark run, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Scratch directory for files the run writes (snapshots, traces).
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` declares it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` declares it.
    pub unit: &'static str,
}

/// What a workload run reports: its metrics, operation counts and every
/// correctness gate that failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tasks, jobs or simulated tasks).
    pub attempted: u64,
    /// Operations that failed: timed out, unaccounted, or scored
    /// differently from the reference.
    pub failed: u64,
    /// Failed correctness gates, one line each.
    pub gate_failures: Vec<String>,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (sample counts, reasons a
    /// metric could not be measured).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every gate held and no operation failed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }
}

/// State of one measured pass: its time budget and span recorder.
pub struct Pass {
    /// When the pass started.
    pub started: Instant,
    /// Measured-phase budget.
    pub budget: Duration,
    /// Benchmark-side spans (disabled in the untraced pass).
    pub tracer: Tracer,
}

impl Pass {
    /// A pass of `seconds`, traced or not.
    pub fn new(seconds: f64, traced: bool) -> Pass {
        Pass {
            started: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            tracer: Tracer::new(traced),
        }
    }

    /// True once the budget is spent.
    pub fn expired(&self) -> bool {
        self.started.elapsed() >= self.budget
    }
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process so far, in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reports `peak_rss_mb`, read once the first repetition ended. Each later
/// repetition starts a fresh system in the same process, and the allocator's
/// per-thread arenas then keep memory that no single system holds, by an
/// amount that varies from run to run; the first repetition is one system's
/// whole life.
pub fn report_peak_rss(out: &mut Outcome, first_rep_mb: Option<f64>) {
    out.gate(first_rep_mb.is_some(), || {
        "cannot read VmHWM from /proc/self/status".into()
    });
    out.metric("peak_rss_mb", first_rep_mb.unwrap_or(0.0), "MB");
}

/// Cumulative (steal, total) CPU ticks of the machine from `/proc/stat`:
/// time the hypervisor ran something else while this machine's virtual CPUs
/// were runnable. Steal inflates wall-clock figures without any change in
/// the program, so runs report it next to their numbers.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision: `git rev-parse HEAD` when run inside a git
/// checkout, else the `ODDCI_REV` environment variable, else `"unknown"`.
pub fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("ODDCI_REV").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Tasks per wall second over a run's jobs of `tasks` tasks each: total
/// tasks over total job seconds, so every job weighs by its duration.
pub fn throughput(tasks: u64, job_secs: &[f64]) -> f64 {
    let total: f64 = job_secs.iter().sum();
    if total > 0.0 {
        (tasks * job_secs.len() as u64) as f64 / total
    } else {
        0.0
    }
}

/// A pass's samples without its first repetition, which also pays the
/// process's first-touch page faults; all of them when there is only one.
pub fn after_first(samples: &[f64]) -> &[f64] {
    samples
        .get(1..)
        .filter(|rest| !rest.is_empty())
        .unwrap_or(samples)
}

/// Median, or 0 for no samples (callers gate on sample counts first).
pub fn median_or_zero(values: &[f64]) -> f64 {
    crate::stats::median(values).unwrap_or(0.0)
}

/// Tracing overhead: how much longer one unit of work took in the traced
/// pass than in the untraced one, in percent.
pub fn overhead_pct(untraced_cost: f64, traced_cost: f64) -> f64 {
    if untraced_cost > 0.0 {
        (traced_cost / untraced_cost - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Adds each layer's self time (seconds) as `selftime.<layer>_s`.
pub fn report_self_times(out: &mut Outcome, tracer: &Tracer) {
    if tracer.spans().iter().any(|s| s.layer == "live") {
        out.note(
            "selftime: spans wrap the benchmark's calls into each crate, so `live` \
             includes the core, wire and telemetry work the live plane does inside \
             those calls; splitting it needs spans inside the program",
        );
    }
    for (layer, secs) in crate::trace::self_time_by_layer(tracer.spans()) {
        out.metric(format!("selftime.{layer}_s"), secs, "s");
    }
}

/// Times `iters` calls of `f` and returns nanoseconds per call.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}
