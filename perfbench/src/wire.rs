//! `wire`: the default sharded headend behind `HeadendMode::Socket` on
//! loopback, with 2 `run_wire_pna` threads and batch 8, snapshotting every
//! 500 ms. Each repetition runs one job of 40k tiny tasks against a 20 kB
//! image (which streams in more than one chunk); after the job a standby
//! adopts the last `headend.snap`.
//!
//! Every fetch crosses frame encode, integrity check and decode, the
//! `WireMsg` codec and the single-threaded serving loop; the snapshot
//! writer re-encodes a ledger that grows with the job. Loopback TCP is the
//! host's, not a real link: these figures bound the protocol's own cost.

use crate::common::{
    after_first, median_or_zero, overhead_pct, peak_rss_mb, report_peak_rss, report_self_times,
    throughput, Outcome, Pass, RunCfg,
};
use crate::layers::{self, KEY};
use crate::live::{
    gate_shutdown, report_dve_boot, report_task_phases, run_job, telemetry, SpanDurations, TinyJob,
};
use crate::trace::Tracer;
use oddci_live::snapshot::read_file;
use oddci_live::{
    run_wire_pna, HeadendMode, LiveConfig, LiveOddci, SnapshotState, WirePnaConfig, SNAPSHOT_FILE,
};
use oddci_telemetry::{Phase, Telemetry};
use oddci_wire::{ClientConfig, Integrity, WireClient, WireMsg, WireStatsSnapshot, PROTO_VERSION};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TASKS: u64 = 40_000;
const DB_LEN: usize = 20_000;
const QUERY_LEN: usize = 16;
const PNAS: u64 = 2;
/// Tasks checked against the reference search per job.
const SAMPLE: usize = 1_000;
/// The snapshot cadence OPERATIONS.md prescribes.
const SNAPSHOT_INTERVAL: Duration = Duration::from_millis(500);
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Standbys that adopt each job's last snapshot, one after another: one
/// adoption is short and noisy, so each job contributes several samples.
const ADOPTIONS: usize = 3;

#[derive(Default)]
struct PassStats {
    /// Peak RSS once the first repetition ended (see `peak_rss_mb`).
    first_rep_rss_mb: Option<f64>,
    /// Wall seconds of each job, submit to `wait_job` returning.
    job_s: Vec<f64>,
    setup_s: Vec<f64>,
    start_s: Vec<f64>,
    submit_ms: Vec<f64>,
    adopt_s: Vec<f64>,
    shutdown_s: Vec<f64>,
    makespan_ms: Vec<f64>,
    overhang_ms: Vec<f64>,
    /// Span durations of the last traced repetition's headend and PNAs.
    headend_spans: Option<Arc<SpanDurations>>,
    pna_spans: Option<Arc<SpanDurations>>,
    wire: Option<WireStatsSnapshot>,
    snapshot: Option<SnapshotState>,
    tracer: Option<Tracer>,
}

fn config(listen: SocketAddr, seed: u64, dir: &Path, tele: &Telemetry) -> LiveConfig {
    LiveConfig {
        nodes: PNAS,
        seed,
        telemetry: tele.clone(),
        mode: HeadendMode::Socket {
            listen,
            shards: 2,
            dispatch: 2,
            batch: 8,
        },
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_interval: SNAPSHOT_INTERVAL,
        ..Default::default()
    }
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

fn completed_tasks(snap: &SnapshotState) -> usize {
    snap.backend.jobs.iter().map(|j| j.completed.len()).sum()
}

/// Adopts the snapshot at `path` on a standby and waits for its listener
/// to ack a `Hello`, which ends the adoption time.
fn adopt(
    path: &Path,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<Adoption, String> {
    let begin = Instant::now();
    let snap = tracer
        .span("snapshot.read_file", "snapshot", rep, || read_file(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let standby = tracer.span("live.start_standby", "live", rep, || {
        LiveOddci::start_standby(config(loopback(), seed, dir, &Telemetry::disabled()), &snap)
    })?;
    let acked = tracer.span("wire.hello", "wire", rep, || {
        let addr = standby.wire_addr().ok_or("standby has no listener")?;
        let client = WireClient::connect(addr, ClientConfig::new(Integrity::hmac(KEY)))
            .map_err(|e| format!("connect to standby: {e}"))?;
        let hello = WireMsg::Hello {
            proto: PROTO_VERSION,
            epoch: 0,
            resume: None,
        };
        if !client.send(&hello) {
            return Err("standby closed the connection on hello".to_string());
        }
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(WireMsg::HelloAck { epoch, .. }) =
                client.receiver().recv_timeout(Duration::from_millis(100))
            {
                return Ok(epoch);
            }
        }
        Err("standby never acked the hello".to_string())
    });
    let seconds = begin.elapsed().as_secs_f64();
    let completed = standby.snapshot_now().map_or(0, |s| completed_tasks(&s));
    let report = standby.shutdown();
    Ok(Adoption {
        epoch: acked?,
        seconds,
        completed,
        threads_failed: report.threads_failed,
        snap,
    })
}

/// What adopting a snapshot on a standby showed.
struct Adoption {
    /// Epoch the standby acked the hello with.
    epoch: u64,
    /// Snapshot read to hello ack.
    seconds: f64,
    /// Completed tasks the standby's Backend holds.
    completed: usize,
    /// Standby threads that panicked.
    threads_failed: u64,
    /// The adopted snapshot.
    snap: SnapshotState,
}

/// Adopts the snapshot at `path` on a standby (see [`adopt`]) and gates
/// it: the standby acks at the snapshot's epoch + 1, holds the snapshot's
/// completed tasks, and no standby thread fails. Returns the adoption time,
/// or `None` (with a failed gate) if the standby never served.
pub fn adopt_gated(
    path: &Path,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    (workload, rep): (&str, u64),
    out: &mut Outcome,
) -> Option<f64> {
    let a = match adopt(path, seed, dir, tracer, rep) {
        Ok(a) => a,
        Err(e) => {
            out.gate(false, || {
                format!("{workload} rep {rep}: adoption failed: {e}")
            });
            return None;
        }
    };
    out.gate(a.epoch == a.snap.epoch + 1, || {
        format!(
            "{workload} rep {rep}: standby acked at epoch {}, snapshot epoch {}",
            a.epoch, a.snap.epoch
        )
    });
    out.gate(a.completed == completed_tasks(&a.snap), || {
        format!(
            "{workload} rep {rep}: standby holds {} completed tasks, snapshot {}",
            a.completed,
            completed_tasks(&a.snap)
        )
    });
    out.gate(a.threads_failed == 0, || {
        format!(
            "{workload} rep {rep}: {} standby threads failed",
            a.threads_failed
        )
    });
    Some(a.seconds)
}

fn pass(
    cfg: &RunCfg,
    seconds: f64,
    traced: bool,
    inputs: &TinyJob,
    out: &mut Outcome,
) -> PassStats {
    let mut p = Pass::new(seconds, traced);
    let mut s = PassStats::default();
    for rep in 0u64.. {
        let root = p.tracer.begin("wire.rep", "bench", rep);
        let dir = cfg
            .out_dir
            .join(format!("wire-snap-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (tele, headend_spans) = telemetry(traced);
        let (pna_tele, pna_spans) = telemetry(traced);

        let t = Instant::now();
        let live = p.tracer.span("live.start", "live", rep, || {
            LiveOddci::start(config(loopback(), cfg.seed, &dir, &tele))
        });
        s.start_s.push(t.elapsed().as_secs_f64());
        let addr = live.wire_addr().expect("socket headends listen");
        let pnas: Vec<_> = (0..PNAS)
            .map(|i| {
                let mut pcfg = WirePnaConfig::new(addr);
                pcfg.seed = cfg.seed ^ (0xD1A1 + i);
                pcfg.telemetry = pna_tele.clone();
                std::thread::spawn(move || run_wire_pna(pcfg))
            })
            .collect();
        let connected = p.tracer.span("wire.await_pnas", "wire", rep, || {
            let deadline = Instant::now() + CONNECT_TIMEOUT;
            while live.wire_stats().is_some_and(|w| w.accepted < PNAS) {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            true
        });
        s.setup_s.push(t.elapsed().as_secs_f64());
        out.gate(connected, || {
            format!("wire rep {rep}: PNAs did not connect")
        });

        let job = run_job(
            &live,
            inputs,
            PNAS,
            JOB_TIMEOUT,
            &mut p.tracer,
            ("wire", rep),
            out,
        );
        if let Some(job) = job {
            s.job_s.push(job.wall_s);
            s.submit_ms.push(job.submit_ms);
            s.makespan_ms.push(job.makespan_ms);
            s.overhang_ms.push(job.wall_s * 1e3 - job.makespan_ms);
        }
        let stats = live.wire_stats().unwrap_or_default();
        out.gate(stats.checksum_rejects == 0, || {
            format!(
                "wire rep {rep}: {} checksum rejects on clean loopback",
                stats.checksum_rejects
            )
        });
        out.gate(stats.multi_chunk_tx >= 1, || {
            format!("wire rep {rep}: the image never streamed in more than one chunk")
        });
        if traced {
            s.snapshot = live.snapshot_now();
        }

        let t = Instant::now();
        let report = p.tracer.span("live.shutdown", "live", rep, || {
            let report = live.shutdown();
            let pnas_ok = pnas
                .into_iter()
                .map(|h| h.join().map(|r| r.is_ok()).unwrap_or(false))
                .filter(|ok| *ok)
                .count() as u64;
            (report, pnas_ok)
        });
        s.shutdown_s.push(t.elapsed().as_secs_f64());
        let (report, pnas_ok) = report;
        gate_shutdown(&report, ("wire", rep), out);
        out.gate(pnas_ok == PNAS, || {
            format!("wire rep {rep}: {pnas_ok} of {PNAS} PNAs exited cleanly")
        });

        for n in 0..ADOPTIONS {
            let adopted = adopt_gated(
                &dir.join(SNAPSHOT_FILE),
                cfg.seed,
                &dir.join(format!("standby-{n}")),
                &mut p.tracer,
                ("wire", rep),
                out,
            );
            match adopted {
                Some(seconds) => s.adopt_s.push(seconds),
                None => break,
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        p.tracer.end(root);
        s.headend_spans = headend_spans;
        s.pna_spans = pna_spans;
        s.wire = Some(stats);
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

/// Reports the layers only this workload has, from its traced pass: the
/// snapshot writer's cuts, the PNA-side fetch round trip, the wire
/// counters and the snapshot codec on the state the pass cut.
fn report_wire_layers(tr: &PassStats, out: &mut Outcome) {
    if let Some(spans) = &tr.headend_spans {
        out.metric(
            "live.snapshot_cuts",
            spans.of(Phase::HeadendSnapshot).len() as f64,
            "count",
        );
        let p50 = spans.quantile_s(out, Phase::HeadendSnapshot, 0.5);
        out.metric("live.headend_snapshot_p50_ms", p50 * 1e3, "ms");
    }
    if let Some(spans) = &tr.pna_spans {
        let p50 = spans.quantile_s(out, Phase::TaskFetch, 0.5);
        let p99 = spans.quantile_s(out, Phase::TaskFetch, 0.99);
        out.metric("wire.fetch_rtt_p50_us", p50 * 1e6, "us");
        out.metric("wire.fetch_rtt_p99_us", p99 * 1e6, "us");
    }
    if let Some(w) = &tr.wire {
        let per_task = |n: u64| n as f64 / TASKS as f64;
        out.metric(
            "wire.frames_per_task",
            per_task(w.tx_frames + w.rx_frames),
            "count",
        );
        out.metric(
            "wire.bytes_per_task",
            per_task(w.tx_bytes + w.rx_bytes),
            "B",
        );
        out.metric("wire.checksum_rejects", w.checksum_rejects as f64, "count");
        out.metric("wire.resyncs", w.resyncs as f64, "count");
        out.metric("wire.duplicates", w.duplicates as f64, "count");
    }
    match &tr.snapshot {
        Some(snap) => layers::snapshot_codec(out, snap, TASKS),
        None => out.gate(false, || "wire: the traced pass cut no snapshot".into()),
    }
}

/// Runs one traced repetition of this workload, gates included, and
/// reports the layers only it has (see [`report_wire_layers`]). The
/// dispatch workload's traced run calls this, as it has no wire or
/// snapshot writer of its own; the returned spans go into its self times.
pub fn measure_layers(cfg: &RunCfg, out: &mut Outcome) -> Tracer {
    let inputs = TinyJob::new(TASKS, DB_LEN, QUERY_LEN, SAMPLE, cfg.seed, out);
    let mut tr = pass(cfg, 0.0, true, &inputs, out);
    report_wire_layers(&tr, out);
    tr.tracer
        .take()
        .expect("the traced pass returns its tracer")
}

/// Runs the workload and reports its metrics.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let inputs = TinyJob::new(TASKS, DB_LEN, QUERY_LEN, SAMPLE, cfg.seed, &mut out);
    if !out.correct() {
        return out;
    }
    if !cfg.traced {
        let s = pass(cfg, cfg.seconds, false, &inputs, &mut out);
        out.note(format!(
            "wire: {} jobs of {TASKS} tasks, tasks/s {:.0?}, adopt s {:.3?}",
            s.job_s.len(),
            s.job_s.iter().map(|w| TASKS as f64 / w).collect::<Vec<_>>(),
            s.adopt_s
        ));
        out.metric("tasks_per_s", throughput(TASKS, &s.job_s), "1/s");
        out.metric("adopt_s", median_or_zero(&s.adopt_s), "s");
        out.metric("setup_s", median_or_zero(&s.setup_s), "s");
        report_peak_rss(&mut out, s.first_rep_rss_mb);
        return out;
    }
    let base = pass(cfg, cfg.seconds / 2.0, false, &inputs, &mut out);
    let mut tr = pass(cfg, cfg.seconds / 2.0, true, &inputs, &mut out);
    out.metric("live.start_s", median_or_zero(&tr.start_s), "s");
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
    if let Some(spans) = &tr.pna_spans {
        report_task_phases(&mut out, spans);
        report_dve_boot(&mut out, spans);
    }
    report_wire_layers(&tr, &mut out);
    layers::direct_calls(&mut out, cfg, TASKS);
    let tracer = tr
        .tracer
        .take()
        .expect("the traced pass returns its tracer");
    report_self_times(&mut out, &tracer);
    out.metric(
        "trace.overhead_pct",
        overhead_pct(
            1.0 / throughput(TASKS, after_first(&base.job_s)),
            1.0 / throughput(TASKS, after_first(&tr.job_s)),
        ),
        "%",
    );
    crate::write_spans(cfg, "wire", &tracer, &mut out);
    out
}
