//! X12 — headend durability: the recovery-time curve.
//!
//! Two measurements, one artifact:
//!
//! * **Synthetic scaling.** Encode/decode cost and container size of an
//!   `OSNP` snapshot as instance membership grows (10k / 100k / 1M
//!   nodes). Decode time is the floor on how fast a standby can adopt a
//!   fleet-scale headend — everything else in adoption is O(running
//!   jobs), not O(members).
//! * **Live ground truth.** Real failovers over loopback TCP across a
//!   sweep of snapshot intervals: a socket headend snapshots while three
//!   reconnecting PNAs chew on an alignment job, dies the way SIGKILL
//!   would (`crash()` drops the listener with no goodbye), and a standby
//!   adopts the latest snapshot on the same port. Measured: snapshot age
//!   at the instant of the crash (the replay window the interval buys)
//!   and time from crash to a serving standby. Zero task loss asserted.
//!
//! Artifacts: `results/failover.json` plus a schema-conformant
//! `results/failover.metrics.json` envelope.

use oddci_bench::{header, write_artifact, write_metrics, RunInfo};
use oddci_core::backend::BackendState;
use oddci_core::controller::{ControllerState, InstanceExport, NodeExport};
use oddci_core::provider::{ProviderState, RequestExport, RequestState};
use oddci_core::{
    InstanceRequest, InstanceStatus, NodeRequirements, PnaStateKind, ProviderRequest,
};
use oddci_live::snapshot::{decode, encode, ImageExport};
use oddci_live::{
    run_wire_pna, AlignmentImage, HeadendMode, LiveConfig, LiveOddci, SnapshotState, WirePnaConfig,
    SNAPSHOT_FILE,
};
use oddci_telemetry::HistogramSummary;
use oddci_types::{DataSize, ImageId, InstanceId, JobId, NodeId, SimDuration, TaskId};
use oddci_workload::alignment::random_sequence;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 12;
/// Best-of repetitions for the synthetic encode/decode timings.
const REPS: usize = 3;
/// Membership sizes for the synthetic snapshots.
const MEMBERSHIPS: [u64; 3] = [10_000, 100_000, 1_000_000];
/// Snapshot cadences for the live failover sweep.
const INTERVALS_MS: [u64; 4] = [25, 50, 100, 200];
/// PNA processes (threads here) per live run.
const PNAS: u64 = 3;
/// Queries per live job — enough work that the crash lands mid-job at
/// every cadence. With 64 the job finished inside 200 ms, and the only
/// snapshot holding it was the cut its completion triggered.
const QUERIES: usize = 4096;
/// Queries in the synthetic snapshots' one job, held constant so the
/// synthetic sweep measures how membership alone scales.
const SYNTHETIC_QUERIES: u64 = 64;

/// One row of the synthetic scaling table.
#[derive(Debug, Clone, Serialize)]
struct SyntheticRow {
    nodes: u64,
    snapshot_bytes: usize,
    encode_secs: f64,
    decode_secs: f64,
}

/// One row of the live failover sweep.
#[derive(Debug, Clone, Serialize)]
struct LiveRow {
    snapshot_interval_ms: u64,
    snapshot_bytes: u64,
    snapshot_age_at_crash_secs: f64,
    adopt_secs: f64,
    standby_epoch: u64,
    tasks_completed: usize,
    tasks_lost: usize,
    requeues: u64,
    pnas_reacked: u64,
}

/// A snapshot the size a fleet-scale headend would cut: one active
/// instance at `nodes` members, a full heartbeat registry, and the wire
/// plane's identity ledger. Job payloads are held constant — the point
/// is how membership scales, and jobs are measured by the live sweep.
fn synthetic_snapshot(nodes: u64) -> SnapshotState {
    const SHARDS: u64 = 2;
    let request = InstanceRequest {
        image: ImageId::new(1),
        image_size: DataSize(50_000),
        target: nodes,
        requirements: NodeRequirements::default(),
    };
    let shards = (0..SHARDS)
        .map(|s| {
            let members: Vec<NodeId> = (s..nodes)
                .step_by(SHARDS as usize)
                .map(NodeId::new)
                .collect();
            let registry = members
                .iter()
                .map(|&node| NodeExport {
                    node,
                    heartbeat_age: SimDuration::from_secs_f64(0.05),
                    state: PnaStateKind::Busy,
                    instance: Some(InstanceId::new(0)),
                })
                .collect();
            ControllerState {
                instances: vec![InstanceExport {
                    id: InstanceId::new(0),
                    request,
                    status: InstanceStatus::Active,
                    members,
                    wakeups_sent: 1,
                }],
                registry,
                next_instance: 1,
                next_message: s,
                message_stride: SHARDS,
                heartbeats_received: nodes.saturating_mul(10),
            }
        })
        .collect();
    SnapshotState {
        epoch: 0,
        taken_at_us: 1_000_000,
        shards,
        backend: BackendState { jobs: Vec::new() },
        provider: ProviderState {
            requests: vec![RequestExport {
                request: ProviderRequest(0),
                job: JobId::new(0),
                instance: InstanceId::new(0),
                target: nodes,
                submitted_age: SimDuration::from_secs_f64(1.0),
                state: RequestState::Running,
                report: None,
            }],
            next: 1,
        },
        instance_job: vec![(InstanceId::new(0), JobId::new(0))],
        job_queries: vec![(
            JobId::new(0),
            (0..SYNTHETIC_QUERIES)
                .map(|i| random_sequence(64, SEED ^ i))
                .collect(),
        )],
        job_scores: vec![(JobId::new(0), vec![(TaskId::new(0), 42)])],
        wakeups: vec![(InstanceId::new(0), 1)],
        images: vec![(
            InstanceId::new(0),
            ImageExport::from_image(&AlignmentImage::small_demo()),
        )],
        wire_next_node: nodes,
        wire_nodes: (0..nodes).collect(),
        autoscale: None,
    }
}

/// Best-of-`reps` wall time for `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn synthetic_sweep() -> Vec<SyntheticRow> {
    MEMBERSHIPS
        .iter()
        .map(|&nodes| {
            // One rep at fleet scale: a single encode/decode there already
            // runs seconds, and jitter is tiny relative to the measurement.
            let reps = if nodes >= 1_000_000 { 1 } else { REPS };
            let snap = synthetic_snapshot(nodes);
            let (encode_secs, bytes) = best_of(reps, || encode(&snap));
            let (decode_secs, decoded) =
                best_of(reps, || decode(&bytes).expect("synthetic snapshot decodes"));
            assert_eq!(decoded, snap, "{nodes}-node snapshot must round-trip");
            let row = SyntheticRow {
                nodes,
                snapshot_bytes: bytes.len(),
                encode_secs,
                decode_secs,
            };
            print_synthetic_row(&row);
            row
        })
        .collect()
}

fn print_synthetic_row(row: &SyntheticRow) {
    println!(
        "  {:>10} {:>14} {:>10.1}ms {:>10.1}ms",
        row.nodes,
        row.snapshot_bytes,
        row.encode_secs * 1e3,
        row.decode_secs * 1e3
    );
}

/// One real failover at the given snapshot cadence, following the same
/// script as the `oddci failover` CLI drill but timed from the inside.
fn live_failover(interval_ms: u64) -> LiveRow {
    let dir = std::env::temp_dir().join(format!(
        "oddci-bench-failover-{}-{interval_ms}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mk_config = |listen: std::net::SocketAddr| LiveConfig {
        nodes: PNAS,
        seed: SEED,
        heartbeat_interval: Duration::from_millis(60),
        mode: HeadendMode::Socket {
            listen,
            shards: 2,
            dispatch: 2,
            batch: 4,
        },
        snapshot_dir: Some(dir.clone()),
        snapshot_interval: Duration::from_millis(interval_ms),
        ..Default::default()
    };
    let primary = LiveOddci::start(mk_config("127.0.0.1:0".parse().expect("addr")));
    let addr = primary.wire_addr().expect("socket headends listen");

    let pnas: Vec<_> = (0..PNAS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = 100 + i;
                cfg.heartbeat_interval = Duration::from_millis(60);
                cfg.reconnect = Some(Duration::from_secs(30));
                run_wire_pna(cfg)
            })
        })
        .collect();

    let image = AlignmentImage {
        db_len: 200_000,
        ..AlignmentImage::small_demo()
    };
    let queries: Vec<Arc<Vec<u8>>> = (0..QUERIES as u64)
        .map(|i| Arc::new(random_sequence(64, SEED ^ i)))
        .collect();
    let req = primary
        .submit_query_job(image, queries, PNAS)
        .expect("submit succeeds");

    // Pull the plug only once a snapshot has seen the job in flight. A
    // job finished at the cut is no failover: the cut a job's completion
    // triggers would otherwise satisfy the wait at the longer cadences.
    let snap_path = dir.join(SNAPSHOT_FILE);
    let deadline = Instant::now() + Duration::from_secs(30);
    let snap = loop {
        if let Ok(s) = oddci_live::snapshot::read_file(&snap_path) {
            if s.backend.jobs.iter().any(|j| j.completed_age.is_none()) {
                break s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no snapshot with the job in flight appeared within 30s"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let snapshot_age = std::fs::metadata(&snap_path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .map(|age| age.as_secs_f64())
        .unwrap_or(0.0);
    primary.crash();

    let t_crash = Instant::now();
    let standby = LiveOddci::start_standby(mk_config(addr), &snap).expect("standby adopts");
    let adopt_secs = t_crash.elapsed().as_secs_f64();
    let standby_epoch = standby.epoch();
    assert!(
        standby.running_jobs().contains(&req),
        "{interval_ms}ms: the adopted Provider still tracks the in-flight request"
    );
    let outcome = standby
        .wait_job(req, Duration::from_secs(60))
        .expect("job completes on the standby");

    // Hold the shutdown broadcast until every PNA has redialed, so each
    // one observes the fencing epoch and exits cleanly.
    let reconnect_deadline = Instant::now() + Duration::from_secs(10);
    while standby.wire_stats().is_some_and(|s| s.accepted < PNAS) {
        assert!(
            Instant::now() < reconnect_deadline,
            "{interval_ms}ms: PNAs did not all redial the standby"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = standby.shutdown();
    let epochs: Vec<u64> = pnas
        .into_iter()
        .filter_map(|h| h.join().ok().and_then(|r| r.ok()).map(|r| r.epoch))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.tasks_unaccounted, 0, "{interval_ms}ms: tasks leaked");
    assert_eq!(report.threads_failed, 0, "{interval_ms}ms: thread panicked");
    LiveRow {
        snapshot_interval_ms: interval_ms,
        snapshot_bytes,
        snapshot_age_at_crash_secs: snapshot_age,
        adopt_secs,
        standby_epoch,
        tasks_completed: outcome.scores.len(),
        tasks_lost: QUERIES - outcome.scores.len(),
        requeues: outcome.report.requeues,
        pnas_reacked: epochs.iter().filter(|&&e| e == standby_epoch).count() as u64,
    }
}

/// Percentile summary over a small sample, for the metrics envelope.
fn summarize(samples: &[f64]) -> HistogramSummary {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
        }
    };
    HistogramSummary {
        count: sorted.len() as u64,
        mean: if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        },
        p50: pick(0.5),
        p90: pick(0.9),
        p99: pick(0.99),
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

fn main() {
    header("X12 — headend durability: recovery-time curve");

    println!("\nSynthetic snapshot scaling (best of {REPS}):");
    println!(
        "  {:>10} {:>14} {:>12} {:>12}",
        "members", "bytes", "encode", "decode"
    );
    let synthetic = synthetic_sweep();

    println!("\nLive failover sweep ({PNAS} PNAs, {QUERIES} queries, SIGKILL-style crash):");
    println!(
        "  {:>9} {:>11} {:>11} {:>10} {:>9} {:>9} {:>9}",
        "interval", "snap bytes", "age@crash", "adopt", "tasks", "requeues", "re-acked"
    );
    let live: Vec<LiveRow> = INTERVALS_MS
        .iter()
        .map(|&ms| {
            let row = live_failover(ms);
            println!(
                "  {:>7}ms {:>11} {:>9.0}ms {:>8.1}ms {:>6}/{QUERIES} {:>9} {:>7}/{PNAS}",
                row.snapshot_interval_ms,
                row.snapshot_bytes,
                row.snapshot_age_at_crash_secs * 1e3,
                row.adopt_secs * 1e3,
                row.tasks_completed,
                row.requeues,
                row.pnas_reacked
            );
            row
        })
        .collect();

    // Shape checks: durability must be lossless at every cadence, the
    // standby always fences one epoch up, and every PNA follows it there.
    for row in &live {
        assert_eq!(
            row.tasks_lost, 0,
            "{}ms: tasks lost",
            row.snapshot_interval_ms
        );
        assert_eq!(
            row.standby_epoch, 1,
            "{}ms: wrong epoch",
            row.snapshot_interval_ms
        );
        assert_eq!(
            row.pnas_reacked, PNAS,
            "{}ms: not every PNA re-acked the standby",
            row.snapshot_interval_ms
        );
    }
    let worst_adopt = live.iter().map(|r| r.adopt_secs).fold(0.0, f64::max);
    assert!(
        worst_adopt < 5.0,
        "standby adoption took {worst_adopt:.1}s — recovery is supposed to be sub-second-ish"
    );

    write_artifact(
        "failover",
        &serde_json::json!({ "synthetic": synthetic, "live": live }),
    );
    let run = RunInfo::new("failover", SEED);
    let adopt: Vec<f64> = live.iter().map(|r| r.adopt_secs).collect();
    let metrics = serde_json::json!({
        "wakeup_latency": {"count": 0, "mean": 0.0, "std_dev": 0.0, "min": 0.0, "max": 0.0},
        "joins": live.iter().map(|r| r.pnas_reacked).sum::<u64>(),
        "tasks_completed": live.iter().map(|r| r.tasks_completed).sum::<usize>(),
        "control_deliveries": 0,
        "heartbeats_delivered": 0,
        "direct_resets": 0,
        "tasks_orphaned": live.iter().map(|r| r.tasks_lost).sum::<usize>(),
        "requeues": live.iter().map(|r| r.requeues).sum::<u64>(),
        "task_fetch_retries": 0,
        "fetch_aborts": 0,
        "faults": {"headend_crashes": live.len()},
        "synthetic": synthetic,
        "failover": live,
    });
    let phases = [
        ("headend.adopt", summarize(&adopt)),
        (
            "snapshot.encode",
            summarize(&synthetic.iter().map(|r| r.encode_secs).collect::<Vec<_>>()),
        ),
        (
            "snapshot.decode",
            summarize(&synthetic.iter().map(|r| r.decode_secs).collect::<Vec<_>>()),
        ),
    ];
    write_metrics("failover", &run, &metrics, &phases);
}
