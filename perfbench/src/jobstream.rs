//! `job-stream`: one client runs a closed loop of sequential jobs on the
//! in-process headend with 2 receivers. Each job has 64 150-base queries
//! (half planted homologs) against a 20 kB image and runs on a fresh 2-node
//! instance.
//!
//! Instance formation dominates each job: wakeup publish, HMAC-signed
//! control messages, PNA accept, DVE boot (indexing the image), dismantle —
//! and the way `wait_job` reports completion. Dispatch barely matters: the
//! Backend and Controller are used once per job, not once per task.

use crate::common::{
    after_first, median_or_zero, overhead_pct, peak_rss_mb, report_self_times, secs, Outcome, Pass,
    RunCfg,
};
use crate::layers;
use crate::live::{
    alignment_queries, failed_tasks, image, reference_scores, report_dve_boot, telemetry,
    SpanDurations,
};
use crate::stats::{highest_supported_tail, percentile};
use crate::trace::Tracer;
use oddci_live::{AlignmentImage, LiveConfig, LiveOddci};
use oddci_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOB_TASKS: u64 = 64;
const DB_LEN: usize = 20_000;
const NODES: u64 = 2;
/// Jobs an untraced run measures at least, so that 10 samples lie beyond
/// the reported 99th percentile.
const MIN_JOBS: usize = 1_000;
/// Systems started per pass: every start is a set-up sample, the last one
/// serves the jobs.
const STARTS: usize = 3;
/// Longest an untraced pass extends past its budget to reach `MIN_JOBS`.
const HARD_CAP: Duration = Duration::from_secs(100);
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Distinct query sets the jobs cycle through. Their reference scores are
/// computed once, before the measured loop, so checking every task costs
/// the loop nothing.
const QUERY_SETS: u64 = 64;

/// One job's queries and the reference score of each.
struct QuerySet {
    queries: Vec<Arc<Vec<u8>>>,
    reference: Vec<(usize, i32)>,
}

fn query_sets(image: &AlignmentImage, seed: u64) -> Vec<QuerySet> {
    let db = image.materialize().db().to_vec();
    let all: Vec<usize> = (0..JOB_TASKS as usize).collect();
    (0..QUERY_SETS)
        .map(|set| {
            let queries = alignment_queries(&db, JOB_TASKS, set, seed);
            let reference = reference_scores(image, &queries, &all);
            QuerySet { queries, reference }
        })
        .collect()
}

#[derive(Default)]
struct PassStats {
    latency_ms: Vec<f64>,
    overhang_ms: Vec<f64>,
    makespan_ms: Vec<f64>,
    start_s: Vec<f64>,
    shutdown_s: Vec<f64>,
    /// Span durations the traced pass's telemetry collected.
    spans: Option<Arc<SpanDurations>>,
    tracer: Option<Tracer>,
}

fn start(cfg: &RunCfg, tele: &Telemetry) -> LiveOddci {
    LiveOddci::start(LiveConfig {
        nodes: NODES,
        seed: cfg.seed,
        telemetry: tele.clone(),
        ..Default::default()
    })
}

fn pass(
    cfg: &RunCfg,
    seconds: f64,
    traced: bool,
    min_jobs: usize,
    image: &AlignmentImage,
    sets: &[QuerySet],
    out: &mut Outcome,
) -> PassStats {
    let mut s = PassStats::default();
    let (tele, spans) = telemetry(traced);
    let mut tracer = Tracer::new(traced);
    let mut live = None;
    for i in 0..STARTS {
        if let Some(prev) = live.take() {
            let t = Instant::now();
            let report = tracer.span("live.shutdown", "live", 0, || LiveOddci::shutdown(prev));
            s.shutdown_s.push(t.elapsed().as_secs_f64());
            out.gate(report.threads_failed == 0, || {
                "job-stream: a set-up system lost threads".into()
            });
        }
        let t = Instant::now();
        live = Some(tracer.span("live.start", "live", i as u64, || start(cfg, &tele)));
        s.start_s.push(t.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one start");

    let mut p = Pass::new(seconds, traced);
    p.tracer = tracer;
    for job in 0u64.. {
        let done = job as usize;
        if (p.expired() && done >= min_jobs) || p.started.elapsed() >= HARD_CAP {
            break;
        }
        let root = p.tracer.begin("job-stream.job", "bench", job);
        let set = &sets[(job % QUERY_SETS) as usize];
        let queries = set.queries.clone();
        let t0 = Instant::now();
        let outcome = p
            .tracer
            .span("live.submit_query_job", "live", job, || {
                live.submit_query_job(image.clone(), queries, NODES)
            })
            .and_then(|req| {
                p.tracer.span("live.wait_job", "live", job, || {
                    live.wait_job(req, JOB_TIMEOUT)
                })
            });
        let t1 = Instant::now();
        p.tracer.end(root);
        out.attempted += 1;
        match outcome {
            Some(o) => {
                let latency = secs(t0, t1) * 1e3;
                let makespan = o.report.makespan.as_secs_f64() * 1e3;
                s.latency_ms.push(latency);
                s.makespan_ms.push(makespan);
                s.overhang_ms.push(latency - makespan);
                let bad = failed_tasks(&o, JOB_TASKS, &set.reference);
                out.failed += u64::from(bad > 0);
                out.gate(bad == 0, || {
                    format!("job-stream job {job}: {bad} tasks missing or scored wrong")
                });
            }
            None => {
                out.failed += 1;
                out.gate(false, || {
                    format!("job-stream job {job}: did not finish in {JOB_TIMEOUT:?}")
                });
            }
        }
        if !out.correct() {
            break;
        }
    }
    let t = Instant::now();
    let report = p
        .tracer
        .span("live.shutdown", "live", 0, || live.shutdown());
    s.shutdown_s.push(t.elapsed().as_secs_f64());
    out.failed += report.tasks_unaccounted;
    out.gate(report.tasks_unaccounted == 0, || {
        format!("job-stream: {} tasks unaccounted", report.tasks_unaccounted)
    });
    out.gate(report.threads_failed == 0, || {
        format!("job-stream: {} threads failed", report.threads_failed)
    });
    s.spans = spans;
    s.tracer = Some(p.tracer);
    s
}

/// Runs the workload and reports its metrics.
pub fn run(cfg: &RunCfg) -> Outcome {
    let image = image(DB_LEN, cfg.seed);
    let sets = query_sets(&image, cfg.seed);
    let mut out = Outcome::default();
    if !cfg.traced {
        let s = pass(cfg, cfg.seconds, false, MIN_JOBS, &image, &sets, &mut out);
        let n = s.latency_ms.len();
        match highest_supported_tail(&s.latency_ms) {
            Some(t) => out.note(format!(
                "job-stream: {n} jobs; highest supported tail p{} = {:.3} ms ({} samples beyond)",
                t.percentile, t.value, t.beyond
            )),
            None => out.note(format!(
                "job-stream: {n} jobs, too few for a tail percentile"
            )),
        }
        if n < MIN_JOBS {
            out.note(format!(
                "job-stream: only {n} jobs within {HARD_CAP:?}; fewer than 10 lie beyond p99"
            ));
        }
        out.metric("job_latency_p50_ms", median_or_zero(&s.latency_ms), "ms");
        out.metric(
            "job_latency_p99_ms",
            percentile(&s.latency_ms, 99.0).unwrap_or(0.0),
            "ms",
        );
        out.metric("setup_s", median_or_zero(&s.start_s), "s");
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
        return out;
    }
    let base = pass(cfg, cfg.seconds / 2.0, false, 1, &image, &sets, &mut out);
    let mut tr = pass(cfg, cfg.seconds / 2.0, true, 1, &image, &sets, &mut out);
    out.note(format!(
        "job-stream: {} untraced and {} traced jobs",
        base.latency_ms.len(),
        tr.latency_ms.len()
    ));
    out.metric("live.start_s", median_or_zero(&tr.start_s), "s");
    out.metric(
        "live.wait_overhang_ms",
        median_or_zero(&tr.overhang_ms),
        "ms",
    );
    out.metric("live.shutdown_s", median_or_zero(&tr.shutdown_s), "s");
    if let Some(spans) = &tr.spans {
        report_dve_boot(&mut out, spans);
    }
    out.metric(
        "core.provider.makespan_p50_ms",
        median_or_zero(&tr.makespan_ms),
        "ms",
    );
    layers::core_instance_cycle(&mut out);
    layers::workload_search(&mut out, &image, &sets[0].queries[0]);
    layers::crypto_sign_verify(&mut out);
    let tracer = tr
        .tracer
        .take()
        .expect("the traced pass returns its tracer");
    report_self_times(&mut out, &tracer);
    out.metric(
        "trace.overhead_pct",
        overhead_pct(
            median_or_zero(after_first(&base.latency_ms)),
            median_or_zero(after_first(&tr.latency_ms)),
        ),
        "%",
    );
    crate::write_spans(cfg, "job-stream", &tracer, &mut out);
    out
}
