//! `dispatch`: the in-process headend in its default mode (2 shards, 2
//! dispatch workers, batch 8) with 2 receiver threads, running one job of
//! 500k 16-base queries against a 400-base image per repetition.
//!
//! Each task is a few k-mer lookups, so nearly all the work is the headend
//! round trip: the channel hop, the hub lock, and the Backend's batch fetch
//! and completion. There is no wire and no snapshot writer, so its
//! throughput must not move for wire or snapshot changes.
//!
//! Every few repetitions, once the job is done, the headend's state is cut
//! as a snapshot and a standby adopts it: `adopt_s` on this workload is the
//! takeover of a 500k-task ledger. The adoptions run between jobs and are
//! left out of the pass's time budget, so the jobs measured stay the same.

use crate::common::{
    after_first, median_or_zero, overhead_pct, peak_rss_mb, report_peak_rss, report_self_times,
    throughput, Outcome, Pass, RunCfg,
};
use crate::layers;
use crate::live::{
    gate_shutdown, report_dve_boot, report_task_phases, run_job, telemetry, SpanDurations, TinyJob,
};
use crate::trace::Tracer;
use crate::wire::adopt_gated;
use oddci_live::snapshot::write_file;
use oddci_live::{LiveConfig, LiveOddci, SnapshotState, SNAPSHOT_FILE};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TASKS: u64 = 500_000;
const DB_LEN: usize = 400;
const QUERY_LEN: usize = 16;
const NODES: u64 = 2;
/// Tasks checked against the reference search per job.
const SAMPLE: usize = 2_000;
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// The end-to-end pass adopts a snapshot after every `ADOPT_EVERY`-th
/// repetition, starting with the second, so adoptions spread over the run
/// and the first repetition (which `peak_rss_mb` reads) has none. The pass
/// runs at least until its first adoption.
const ADOPT_EVERY: u64 = 3;

#[derive(Default)]
struct PassStats {
    /// Peak RSS once the first repetition ended (see `peak_rss_mb`).
    first_rep_rss_mb: Option<f64>,
    /// Wall seconds of each job, submit to `wait_job` returning.
    job_s: Vec<f64>,
    setup_s: Vec<f64>,
    submit_ms: Vec<f64>,
    makespan_ms: Vec<f64>,
    overhang_ms: Vec<f64>,
    shutdown_s: Vec<f64>,
    adopt_s: Vec<f64>,
    /// Span durations the last traced repetition's telemetry collected.
    spans: Option<Arc<SpanDurations>>,
    tracer: Option<Tracer>,
}

fn pass(
    cfg: &RunCfg,
    seconds: f64,
    traced: bool,
    adopt: bool,
    inputs: &TinyJob,
    out: &mut Outcome,
) -> PassStats {
    let mut p = Pass::new(seconds, traced);
    let mut s = PassStats::default();
    for rep in 0u64.. {
        let root = p.tracer.begin("dispatch.rep", "bench", rep);
        let (tele, spans) = telemetry(traced);
        let config = LiveConfig {
            nodes: NODES,
            seed: cfg.seed,
            telemetry: tele,
            ..Default::default()
        };
        let t = Instant::now();
        let live = p
            .tracer
            .span("live.start", "live", rep, || LiveOddci::start(config));
        s.setup_s.push(t.elapsed().as_secs_f64());
        let job = run_job(
            &live,
            inputs,
            NODES,
            JOB_TIMEOUT,
            &mut p.tracer,
            ("dispatch", rep),
            out,
        );
        if let Some(job) = job {
            s.job_s.push(job.wall_s);
            s.submit_ms.push(job.submit_ms);
            s.makespan_ms.push(job.makespan_ms);
            s.overhang_ms.push(job.wall_s * 1e3 - job.makespan_ms);
        }

        let snap = (adopt && rep % ADOPT_EVERY == 1)
            .then(|| live.snapshot_now())
            .flatten();

        let t = Instant::now();
        let report = p
            .tracer
            .span("live.shutdown", "live", rep, || live.shutdown());
        s.shutdown_s.push(t.elapsed().as_secs_f64());
        gate_shutdown(&report, ("dispatch", rep), out);
        p.tracer.end(root);
        if let Some(snap) = snap {
            let t = Instant::now();
            s.adopt_s.extend(adopt_cut(cfg, snap, rep, out));
            p.budget += t.elapsed();
        }
        s.spans = spans;
        if rep == 0 {
            s.first_rep_rss_mb = peak_rss_mb();
        }
        let adopted = !adopt || !s.adopt_s.is_empty();
        if (p.expired() && adopted) || !out.correct() {
            break;
        }
    }
    s.tracer = Some(p.tracer);
    s
}

/// Writes `snap` (cut once repetition `rep`'s job was done) as a snapshot
/// file and adopts it on a standby. Returns the adoption time.
fn adopt_cut(cfg: &RunCfg, snap: SnapshotState, rep: u64, out: &mut Outcome) -> Option<f64> {
    let dir = cfg
        .out_dir
        .join(format!("dispatch-snap-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join(SNAPSHOT_FILE);
    let written = std::fs::create_dir_all(&dir).and_then(|()| write_file(&path, &snap));
    drop(snap);
    let adopted = match written {
        Ok(()) => adopt_gated(
            &path,
            cfg.seed,
            &dir.join("standby"),
            &mut Tracer::new(false),
            ("dispatch", rep),
            out,
        ),
        Err(e) => {
            out.gate(false, || {
                format!("dispatch rep {rep}: write {}: {e}", path.display())
            });
            None
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    adopted
}

/// Runs the workload and reports its metrics.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let inputs = TinyJob::new(TASKS, DB_LEN, QUERY_LEN, SAMPLE, cfg.seed, &mut out);
    if !out.correct() {
        return out;
    }
    if !cfg.traced {
        let s = pass(cfg, cfg.seconds, false, true, &inputs, &mut out);
        out.note(format!(
            "dispatch: {} jobs of {TASKS} tasks, tasks/s {:.0?}, setup ms {:.3?}, adopt s {:.3?}",
            s.job_s.len(),
            s.job_s.iter().map(|w| TASKS as f64 / w).collect::<Vec<_>>(),
            s.setup_s.iter().map(|x| x * 1e3).collect::<Vec<_>>(),
            s.adopt_s
        ));
        out.metric("tasks_per_s", throughput(TASKS, &s.job_s), "1/s");
        out.metric("adopt_s", median_or_zero(&s.adopt_s), "s");
        out.metric("setup_s", median_or_zero(&s.setup_s), "s");
        report_peak_rss(&mut out, s.first_rep_rss_mb);
        return out;
    }
    let base = pass(cfg, cfg.seconds / 2.0, false, false, &inputs, &mut out);
    let mut tr = pass(cfg, cfg.seconds / 2.0, true, false, &inputs, &mut out);
    out.metric("live.start_s", median_or_zero(&tr.setup_s), "s");
    out.metric("live.submit_ms", median_or_zero(&tr.submit_ms), "ms");
    out.metric(
        "live.wait_overhang_ms",
        median_or_zero(&tr.overhang_ms),
        "ms",
    );
    out.metric("live.shutdown_s", median_or_zero(&tr.shutdown_s), "s");
    out.metric(
        "core.provider.makespan_p50_ms",
        median_or_zero(&tr.makespan_ms),
        "ms",
    );
    if let Some(spans) = &tr.spans {
        report_task_phases(&mut out, spans);
        report_dve_boot(&mut out, spans);
    }
    layers::direct_calls(&mut out, cfg, TASKS);
    let mut tracer = tr
        .tracer
        .take()
        .expect("the traced pass returns its tracer");
    tracer.absorb(crate::wire::measure_layers(cfg, &mut out));
    report_self_times(&mut out, &tracer);
    out.metric(
        "trace.overhead_pct",
        overhead_pct(
            1.0 / throughput(TASKS, after_first(&base.job_s)),
            1.0 / throughput(TASKS, after_first(&tr.job_s)),
        ),
        "%",
    );
    crate::write_spans(cfg, "dispatch", &tracer, &mut out);
    out
}
