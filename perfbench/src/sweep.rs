//! `sweep`: the discrete-event `World::simulation` with a 100k-receiver
//! audience and a 4000-node instance, running 20k tasks of 5 s each with a
//! 2 MB image, streaming its events through the binary trace sink.
//!
//! It is the only workload that runs the simulator, the broadcast carousel,
//! the receiver and direct-channel models and the streaming sink. No live
//! thread runs, so it must not move for any live-plane change.

use crate::common::{
    after_first, median_or_zero, mix, overhead_pct, peak_rss_mb, report_peak_rss,
    report_self_times, secs, Outcome, Pass, RunCfg,
};
use crate::layers;
use crate::trace::Tracer;
use oddci_analytics::wakeup_envelope;
use oddci_core::{World, WorldConfig};
use oddci_telemetry::sink::span_durations_us;
use oddci_telemetry::{binary, Event, Phase, StreamingSink, Telemetry};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::JobGenerator;
use std::time::Instant;

const AUDIENCE: u64 = 100_000;
const TARGET: u64 = 4_000;
const TASKS: u64 = 20_000;
const TASK_SECS: f64 = 5.0;
const IMAGE_MB: u64 = 2;

#[derive(Default)]
struct PassStats {
    /// Peak RSS once the first repetition ended (see `peak_rss_mb`).
    first_rep_rss_mb: Option<f64>,
    wall_s: Vec<f64>,
    build_s: Vec<f64>,
    run_s: Vec<f64>,
    finish_s: Vec<f64>,
    events: u64,
    makespan_s: f64,
    emitted: u64,
    persisted: u64,
    dropped: u64,
    bytes: u64,
    trace: Vec<Event>,
    tracer: Option<Tracer>,
}

fn mean_secs(durs: &[u64]) -> f64 {
    durs.iter().sum::<u64>() as f64 / durs.len().max(1) as f64 / 1e6
}

fn pass(cfg: &RunCfg, seconds: f64, traced: bool, out: &mut Outcome) -> PassStats {
    let mut p = Pass::new(seconds, traced);
    let mut s = PassStats::default();
    let image = DataSize::from_megabytes(IMAGE_MB);
    for rep in 0u64.. {
        let root = p.tracer.begin("sweep.rep", "bench", rep);
        let path = cfg
            .out_dir
            .join(format!("sweep-{}-{rep}.trace.bin", std::process::id()));
        let sink = StreamingSink::builder()
            .binary(&path)
            .lanes(4)
            .lane_capacity(1 << 18)
            .meta("scenario", "perfbench-sweep")
            .meta("seed", cfg.seed.to_string())
            .start();
        let sink = match sink {
            Ok(sink) => sink,
            Err(e) => {
                out.gate(false, || {
                    format!("sweep: cannot open {}: {e}", path.display())
                });
                break;
            }
        };
        // The traced pass records into the program's event ring as well;
        // the untraced one keeps metrics and the streamed trace only.
        let tele = if traced {
            Telemetry::recording()
        } else {
            Telemetry::recording_with_capacity(0)
        }
        .with_sink(sink.clone());
        let world = WorldConfig {
            nodes: AUDIENCE,
            telemetry: tele,
            ..Default::default()
        };
        let beta = world.dtv.beta;
        let job = JobGenerator::homogeneous(
            image,
            DataSize::from_bytes(500),
            DataSize::from_bytes(500),
            SimDuration::from_secs_f64(TASK_SECS),
            mix(cfg.seed, 0x5EE9),
        )
        .generate(TASKS);

        let t0 = Instant::now();
        let mut sim = p.tracer.span("core.world.simulation", "sim", rep, || {
            World::simulation(world, cfg.seed)
        });
        let t1 = Instant::now();
        let report = p.tracer.span("core.run_request", "sim", rep, || {
            let req = sim.submit_job(job, TARGET);
            sim.run_request(req, SimTime::from_secs(365 * 24 * 3600))
        });
        let t2 = Instant::now();
        let summary = p
            .tracer
            .span("telemetry.sink.finish", "telemetry", rep, || sink.finish());
        let t3 = Instant::now();
        s.build_s.push(secs(t0, t1));
        s.run_s.push(secs(t1, t2));
        s.finish_s.push(secs(t2, t3));
        s.wall_s.push(secs(t0, t3));
        s.events = sim.events_processed();

        let completed = report.map_or(0, |r| r.tasks_completed);
        s.makespan_s = report.map_or(0.0, |r| r.makespan.as_secs_f64());
        out.attempted += TASKS;
        out.failed += TASKS.saturating_sub(completed);
        out.gate(completed == TASKS, || {
            format!("sweep rep {rep}: {completed} of {TASKS} simulated tasks completed")
        });
        let summary = match summary {
            Ok(summary) => summary,
            Err(e) => {
                out.gate(false, || {
                    format!("sweep rep {rep}: sink did not close: {e}")
                });
                break;
            }
        };
        let st = summary.stats;
        (s.emitted, s.persisted, s.dropped) = (st.emitted, st.persisted, st.dropped);
        s.bytes = summary.outputs.iter().map(|o| o.bytes).sum();
        out.gate(st.emitted == st.persisted + st.dropped && st.dropped == 0, || {
            format!(
                "sweep rep {rep}: sink emitted {} = persisted {} + dropped {} must hold with 0 dropped",
                st.emitted, st.persisted, st.dropped
            )
        });

        // Read the trace back and check the wakeup agreement from it: mean
        // wait for the carousel plus mean DVE boot lands inside the
        // [I/β, 2I/β] envelope around W = 1.5·I/β.
        let trace = p
            .tracer
            .span("telemetry.binary.read_file", "telemetry", rep, || {
                binary::read_file(&path)
            });
        let _ = std::fs::remove_file(&path);
        match trace {
            Ok(trace) => {
                out.gate(
                    trace.truncated.is_none() && trace.events.len() as u64 == st.persisted,
                    || {
                        format!(
                            "sweep rep {rep}: trace holds {} events of {} persisted ({:?})",
                            trace.events.len(),
                            st.persisted,
                            trace.truncated
                        )
                    },
                );
                let wait = span_durations_us(&trace.events, Phase::WakeupWait);
                let boot = span_durations_us(&trace.events, Phase::DveBoot);
                let measured = mean_secs(&wait) + mean_secs(&boot);
                let (best, _, worst) = wakeup_envelope(image, beta);
                out.gate(
                    measured >= 0.9 * best.as_secs_f64() && measured <= 1.1 * worst.as_secs_f64(),
                    || {
                        format!(
                            "sweep rep {rep}: wakeup {measured:.1}s outside [{:.1}s, {:.1}s]",
                            best.as_secs_f64(),
                            worst.as_secs_f64()
                        )
                    },
                );
                if traced {
                    s.trace = trace.events;
                }
            }
            Err(e) => out.gate(false, || {
                format!("sweep rep {rep}: cannot read trace back: {e}")
            }),
        }
        p.tracer.end(root);
        if rep == 0 {
            s.first_rep_rss_mb = peak_rss_mb();
        }
        if p.expired() || !out.correct() {
            break;
        }
    }
    s.tracer = Some(p.tracer);
    s
}

/// Reports the simulator and telemetry-sink layers from a traced pass.
fn report_layers(tr: &PassStats, out: &mut Outcome) {
    layers::telemetry_span_emit(out);
    let sample = &tr.trace[..tr.trace.len().min(200_000)];
    layers::telemetry_binary_encode(out, sample);
    out.metric("telemetry.sink.emitted", tr.emitted as f64, "count");
    out.metric("telemetry.sink.persisted", tr.persisted as f64, "count");
    out.metric("telemetry.sink.dropped", tr.dropped as f64, "count");
    out.metric(
        "telemetry.sink.bytes_per_event",
        tr.bytes as f64 / tr.persisted.max(1) as f64,
        "B",
    );
    out.metric("telemetry.sink.finish_s", median_or_zero(&tr.finish_s), "s");
    out.metric("sim.build_s", median_or_zero(&tr.build_s), "s");
    out.metric("sim.run_s", median_or_zero(&tr.run_s), "s");
    out.metric("sim.events", tr.events as f64, "count");
    // The simulated makespan is the same on every seed (the job's shape
    // fixes it), so it is a note that pins the simulated work, not a metric.
    out.note(format!(
        "sim.makespan_simulated_s: {:.6} s (simulated time, the same on every seed)",
        tr.makespan_s
    ));
}

/// Runs one traced sweep, gates included, and reports the simulator and
/// telemetry-sink layers from it. The dispatch workload's traced run calls
/// this so that these layers are measured by a workload `BENCHMARK.json`
/// lists; the sweep workload itself is left out of it (see the README).
pub fn measure_layers(cfg: &RunCfg, out: &mut Outcome) {
    let tr = pass(cfg, 0.0, true, out);
    report_layers(&tr, out);
}

/// Runs the workload and reports its metrics.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if !cfg.traced {
        let s = pass(cfg, cfg.seconds, false, &mut out);
        out.note(format!(
            "sweep: {} sweeps, {} events each, wall s {:.3?}",
            s.wall_s.len(),
            s.events,
            s.wall_s
        ));
        out.metric("sweep_wall_s", median_or_zero(&s.wall_s), "s");
        out.metric("setup_s", median_or_zero(&s.build_s), "s");
        report_peak_rss(&mut out, s.first_rep_rss_mb);
        return out;
    }
    let base = pass(cfg, cfg.seconds / 2.0, false, &mut out);
    let mut tr = pass(cfg, cfg.seconds / 2.0, true, &mut out);
    report_layers(&tr, &mut out);
    let tracer = tr
        .tracer
        .take()
        .expect("the traced pass returns its tracer");
    report_self_times(&mut out, &tracer);
    out.metric(
        "trace.overhead_pct",
        overhead_pct(
            median_or_zero(after_first(&base.wall_s)),
            median_or_zero(after_first(&tr.wall_s)),
        ),
        "%",
    );
    crate::write_spans(cfg, "sweep", &tracer, &mut out);
    out
}
