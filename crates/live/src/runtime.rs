//! The live runtime: a headend (Provider + Controller + Backend) and one
//! OS thread per receiver, all speaking the §3.2 protocol over real
//! channels.
//!
//! The headend comes in two shapes, selected by [`HeadendMode`]:
//!
//! * [`HeadendMode::SingleLoop`] — the original sequential loop: one
//!   thread owns the Controller, the Backend and the carousel, and every
//!   heartbeat, task fetch and result upload serializes behind it. Kept
//!   as the measured baseline for the `soak` experiment.
//! * [`HeadendMode::Sharded`] — the multi-threaded headend of
//!   [`headend`](crate::headend): a carousel thread, N controller shards
//!   (disjoint node-membership slices) and a dispatch pool serving task
//!   *batches* in front of the shared Backend.
//!
//! Wall-clock time is mapped onto [`SimTime`] (microseconds since runtime
//! start) so the *identical* Controller/Backend/Provider code from
//! `oddci-core` runs unmodified on this plane.

use crate::bus::BroadcastBus;
use crate::headend::{DispatchMsg, ShardMsg, ShardedHeadend, SnapshotHandle, SnapshotMsg};
use crate::image::{AlignmentImage, LiveBroadcast};
use crate::snapshot::{self, SnapshotState};
use crate::wire::WireMembership;
use oddci_check::sync::{bounded, unbounded, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{AutoscaleExport, AutoscalePolicy, Reconciler};
use oddci_core::backend::{Backend, TaskOutcome};
use oddci_core::controller::{Controller, ControllerOutput, ControllerPolicy, InstanceRequest};
use oddci_core::messages::{ControlMessage, Heartbeat, HeartbeatReply};
use oddci_core::pna::{HostInfo, Pna, PnaAction};
use oddci_core::provider::{JobReport, Provider, ProviderRequest};
use oddci_core::sharded::shard_of;
use oddci_faults::{Backoff, FaultInjector, FaultPlan};
use oddci_receiver::compute::UsageMode;
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{
    DataSize, HeartbeatConfig, ImageId, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId,
};
use oddci_workload::alignment::{mutate, random_sequence};
use oddci_workload::{Job, Task};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which headend serves the node fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadendMode {
    /// One sequential headend thread (the pre-sharding architecture).
    /// Retained as the comparison baseline: it serves exactly one task
    /// per fetch round trip.
    SingleLoop,
    /// Sharded multi-threaded headend.
    Sharded {
        /// Controller shards (disjoint node-membership slices), 1..=64.
        shards: usize,
        /// Dispatch workers in front of the Backend, 1..=64.
        dispatch: usize,
        /// Tasks served per fetch round trip, 1..=1024.
        batch: usize,
    },
    /// A sharded headend behind a real TCP socket: nodes are *separate
    /// PNA processes* (or threads) dialing in over `oddci-wire` instead
    /// of in-process receiver threads. [`LiveConfig::nodes`] becomes the
    /// expected audience size (controller sizing), not a thread count —
    /// no local receivers are spawned.
    Socket {
        /// Address to listen on (port 0 picks an ephemeral port;
        /// [`LiveOddci::wire_addr`] reports the bound address).
        listen: std::net::SocketAddr,
        /// Controller shards, 1..=64.
        shards: usize,
        /// Dispatch workers, 1..=64.
        dispatch: usize,
        /// Tasks served per fetch round trip, 1..=1024.
        batch: usize,
    },
}

impl HeadendMode {
    /// Most controller shards a live system will run.
    pub const MAX_SHARDS: usize = 64;
    /// Most dispatch workers a live system will run.
    pub const MAX_DISPATCH: usize = 64;
    /// Largest task batch a node may fetch in one round trip.
    pub const MAX_BATCH: usize = 1024;

    /// Rejects degenerate configurations (`shards == 0`, oversized
    /// pools, …) with a human-readable explanation instead of letting
    /// the runtime panic on a zero-length shard vector.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            HeadendMode::SingleLoop => Ok(()),
            HeadendMode::Sharded {
                shards,
                dispatch,
                batch,
            }
            | HeadendMode::Socket {
                shards,
                dispatch,
                batch,
                ..
            } => {
                if shards == 0 || shards > Self::MAX_SHARDS {
                    return Err(format!(
                        "shards must be within 1..={} (got {shards})",
                        Self::MAX_SHARDS
                    ));
                }
                if dispatch == 0 || dispatch > Self::MAX_DISPATCH {
                    return Err(format!(
                        "dispatch workers must be within 1..={} (got {dispatch})",
                        Self::MAX_DISPATCH
                    ));
                }
                if batch == 0 || batch > Self::MAX_BATCH {
                    return Err(format!(
                        "batch must be within 1..={} (got {batch})",
                        Self::MAX_BATCH
                    ));
                }
                Ok(())
            }
        }
    }
}

impl Default for HeadendMode {
    fn default() -> Self {
        HeadendMode::Sharded {
            shards: 2,
            dispatch: 2,
            batch: 8,
        }
    }
}

/// Live runtime parameters.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Receiver threads to spawn.
    pub nodes: u64,
    /// Controller↔PNA shared key.
    pub key: Vec<u8>,
    /// PNA heartbeat period.
    pub heartbeat_interval: Duration,
    /// Controller maintenance period (loss detection, recomposition).
    pub controller_tick: Duration,
    /// Master seed for per-node randomness.
    pub seed: u64,
    /// Faults to inject (none by default). Decisions are keyed on runtime
    /// micros, so live injection is *statistically* faithful to the plan
    /// rather than replay-deterministic like the simulated plane.
    pub faults: FaultPlan,
    /// Observability sink shared by the headend and every node thread.
    /// Timestamps are wall-clock microseconds since runtime start, so live
    /// traces open in the same viewers as simulated ones.
    pub telemetry: Telemetry,
    /// Headend architecture (sharded by default).
    pub mode: HeadendMode,
    /// Where to publish durability snapshots (`headend.snap`, written
    /// atomically every [`snapshot_interval`](LiveConfig::snapshot_interval)).
    /// `None` (the default) disables snapshotting. Only the sharded and
    /// socket headends snapshot; the single-loop baseline predates
    /// durability and has no export path.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Snapshot cadence. Shorter intervals shrink the replay window a
    /// standby must cover but cost one state export per tick.
    pub snapshot_interval: Duration,
    /// Elastic sizing: when set, a reconciler thread continuously
    /// re-sizes every running instance against this SLO (see
    /// [`AutoscalePolicy`]). `None` (the default) keeps the paper's
    /// size-once behavior. Only the sharded and socket headends scale;
    /// the single-loop baseline ignores this.
    pub autoscale: Option<AutoscalePolicy>,
    /// Reconciliation cadence for the autoscale loop.
    pub autoscale_interval: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            nodes: 4,
            key: b"live-oddci-key".to_vec(),
            heartbeat_interval: Duration::from_millis(150),
            controller_tick: Duration::from_millis(200),
            seed: 42,
            faults: FaultPlan::none(),
            telemetry: Telemetry::disabled(),
            mode: HeadendMode::default(),
            snapshot_dir: None,
            snapshot_interval: Duration::from_millis(500),
            autoscale: None,
            autoscale_interval: Duration::from_millis(200),
        }
    }
}

/// What rides the bus.
#[derive(Debug, Clone)]
pub(crate) enum BusMsg {
    Control(LiveBroadcast),
    Shutdown,
}

/// Node → single-loop headend messages.
pub(crate) enum ToHeadend {
    Heartbeat(Heartbeat, Sender<HeartbeatReply>),
    TaskRequest {
        instance: InstanceId,
        node: NodeId,
        reply: Sender<TaskBatchReply>,
    },
    TaskResult {
        job: JobId,
        task: TaskId,
        node: NodeId,
        score: i32,
    },
    Submit {
        job: Job,
        queries: Vec<Arc<Vec<u8>>>,
        image: Arc<AlignmentImage>,
        target: u64,
        reply: Sender<ProviderRequest>,
    },
    Report {
        req: ProviderRequest,
        reply: Sender<Option<(JobReport, BTreeMap<TaskId, i32>)>>,
    },
    Shutdown,
}

/// Reply to a node's task request: a batch of (task, query) pairs. The
/// single-loop headend always answers with a batch of one.
#[derive(Debug, Clone)]
pub(crate) enum TaskBatchReply {
    Assigned {
        job: JobId,
        tasks: Vec<(Task, Arc<Vec<u8>>)>,
    },
    Drained,
}

/// How a node reaches the headend: one channel in single-loop mode, the
/// shard/dispatch fan-in channels (routed by node-id hash) when sharded,
/// or a framed TCP connection when the node is a separate PNA process.
#[derive(Clone)]
pub(crate) enum NodeLink {
    Single(Sender<ToHeadend>),
    Sharded {
        shards: Arc<Vec<Sender<ShardMsg>>>,
        dispatch: Arc<Vec<Sender<DispatchMsg>>>,
        batch: usize,
    },
    Remote(Arc<crate::wire::RemoteLink>),
}

impl NodeLink {
    pub(crate) fn send_heartbeat(&self, hb: Heartbeat, reply: Sender<HeartbeatReply>) -> bool {
        match self {
            NodeLink::Single(tx) => tx.send(ToHeadend::Heartbeat(hb, reply)).is_ok(),
            NodeLink::Sharded { shards, .. } => {
                let s = shard_of(hb.node, shards.len());
                shards[s]
                    .send(ShardMsg::Heartbeat {
                        hb,
                        reply: reply.into(),
                    })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.send_heartbeat(hb, reply),
        }
    }

    pub(crate) fn request_tasks(
        &self,
        instance: InstanceId,
        node: NodeId,
        reply: Sender<TaskBatchReply>,
    ) -> bool {
        match self {
            NodeLink::Single(tx) => tx
                .send(ToHeadend::TaskRequest {
                    instance,
                    node,
                    reply,
                })
                .is_ok(),
            NodeLink::Sharded {
                dispatch, batch, ..
            } => {
                let d = shard_of(node, dispatch.len());
                dispatch[d]
                    .send(DispatchMsg::Request {
                        instance,
                        node,
                        max: *batch,
                        reply: reply.into(),
                    })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.request_tasks(instance, node, reply),
        }
    }

    pub(crate) fn send_results(
        &self,
        job: JobId,
        node: NodeId,
        results: Vec<(TaskId, i32)>,
    ) -> bool {
        match self {
            NodeLink::Single(tx) => results.into_iter().all(|(task, score)| {
                tx.send(ToHeadend::TaskResult {
                    job,
                    task,
                    node,
                    score,
                })
                .is_ok()
            }),
            NodeLink::Sharded { dispatch, .. } => {
                let d = shard_of(node, dispatch.len());
                dispatch[d]
                    .send(DispatchMsg::Results { job, node, results })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.send_results(job, node, results),
        }
    }
}

/// Result of a completed live job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The Provider's report (makespan in runtime microseconds, etc.).
    pub report: JobReport,
    /// Best alignment score per task.
    pub scores: BTreeMap<TaskId, i32>,
}

/// Final accounting returned by [`LiveOddci::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Tasks in no Backend ledger (pending / assigned / completed) at
    /// shutdown. Always 0 unless bookkeeping broke — the
    /// `headend_shards` integration tests assert on it.
    pub tasks_unaccounted: u64,
    /// Threads (headend or node) that exited by panic instead of a clean
    /// return. When this is nonzero, `tasks_unaccounted` may undercount:
    /// a panicked thread's ledger contribution is unknown. Always 0 in a
    /// healthy run — joins used to be silently swallowed here, which hid
    /// exactly this failure mode.
    pub threads_failed: u64,
}

/// The running headend, by mode.
enum Headend {
    Single {
        tx: Sender<ToHeadend>,
        thread: Option<JoinHandle<u64>>,
    },
    Sharded(Option<ShardedHeadend>),
    Socket {
        sh: Option<ShardedHeadend>,
        server: Option<oddci_wire::WireServer>,
        conn_stats: Arc<oddci_wire::ConnStatsHub>,
        membership: Arc<Mutex<WireMembership>>,
    },
}

/// The live OddCI system.
pub struct LiveOddci {
    headend: Headend,
    bus: Arc<BroadcastBus<BusMsg>>,
    nodes: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
    config: LiveConfig,
    /// Fencing epoch this headend acks hellos with (0 for a primary;
    /// snapshot epoch + 1 for a standby).
    epoch: u64,
    snapshot_handle: Option<SnapshotHandle>,
    /// The snapshot writer's inbox, for its explicit stop.
    snapshot_stop: Option<Sender<SnapshotMsg>>,
    snapshot_thread: Option<JoinHandle<()>>,
    /// The shared elastic-sizing loop state, when autoscale is on.
    autoscale: Option<Arc<Mutex<Reconciler>>>,
    /// Dropping the sender stops the reconciler thread.
    autoscale_stop: Option<Sender<()>>,
    autoscale_thread: Option<JoinHandle<()>>,
}

impl LiveOddci {
    /// Spawns the headend (per [`LiveConfig::mode`]) and all receiver
    /// threads.
    ///
    /// # Panics
    /// On `nodes == 0`, a [`HeadendMode`] that fails
    /// [`HeadendMode::validate`] (callers wanting an error instead of a
    /// panic — e.g. CLIs — validate first), or a
    /// [`HeadendMode::Socket`] listen address that cannot be bound.
    pub fn start(config: LiveConfig) -> Self {
        assert!(config.nodes > 0, "a live system needs at least one node");
        if let Err(e) = config.mode.validate() {
            panic!("invalid headend mode: {e}");
        }
        let bus = Arc::new(BroadcastBus::new());
        let start = Instant::now();
        let injector = Arc::new(FaultInjector::new(
            config.faults.clone(),
            config.seed ^ 0xFA17_FA17,
        ));

        let (headend, link) = match config.mode {
            HeadendMode::SingleLoop => {
                let (tx, rx) = unbounded();
                let thread = {
                    let bus = Arc::clone(&bus);
                    let cfg = config.clone();
                    let inj = Arc::clone(&injector);
                    std::thread::spawn(move || headend_main(cfg, bus, rx, start, inj))
                };
                (
                    Headend::Single {
                        tx: tx.clone(),
                        thread: Some(thread),
                    },
                    NodeLink::Single(tx),
                )
            }
            HeadendMode::Sharded {
                shards,
                dispatch,
                batch,
            } => {
                let sh = ShardedHeadend::start(
                    &config,
                    shards,
                    dispatch,
                    Arc::clone(&bus),
                    start,
                    Arc::clone(&injector),
                );
                let (shard_txs, dispatch_txs) = sh.node_links();
                (
                    Headend::Sharded(Some(sh)),
                    NodeLink::Sharded {
                        shards: Arc::new(shard_txs),
                        dispatch: Arc::new(dispatch_txs),
                        batch,
                    },
                )
            }
            HeadendMode::Socket {
                listen,
                shards,
                dispatch,
                batch,
            } => {
                let sh = ShardedHeadend::start(
                    &config,
                    shards,
                    dispatch,
                    Arc::clone(&bus),
                    start,
                    Arc::clone(&injector),
                );
                let (shard_txs, dispatch_txs) = sh.node_links();
                let shard_txs = Arc::new(shard_txs);
                let dispatch_txs = Arc::new(dispatch_txs);
                let conn_stats = Arc::new(oddci_wire::ConnStatsHub::new());
                let membership =
                    Arc::new(Mutex::named(WireMembership::new(), "live.wire.membership"));
                let waker = match oddci_wire::Waker::new() {
                    Ok(w) => w,
                    Err(e) => panic!("socket headend cannot create its waker: {e}"),
                };
                let service = crate::wire::LiveWireService::new(
                    Arc::clone(&shard_txs),
                    Arc::clone(&dispatch_txs),
                    batch,
                    bus.subscribe_waking(waker.clone()),
                    config.telemetry.clone(),
                    Arc::clone(&conn_stats),
                    0, // a fresh primary starts at epoch 0
                    Arc::clone(&membership),
                    waker.clone(),
                );
                let mut scfg =
                    oddci_wire::ServerConfig::new(oddci_wire::Integrity::hmac(&config.key));
                scfg.injector =
                    FaultInjector::new(config.faults.clone(), config.seed ^ 0xFA17_FA17);
                scfg.telemetry = config.telemetry.clone();
                scfg.conn_stats = Some(Arc::clone(&conn_stats));
                let server = match oddci_wire::WireServer::bind(listen, scfg, waker, service) {
                    Ok(s) => s,
                    Err(e) => panic!("socket headend cannot bind {listen}: {e}"),
                };
                (
                    Headend::Socket {
                        sh: Some(sh),
                        server: Some(server),
                        conn_stats,
                        membership,
                    },
                    NodeLink::Sharded {
                        shards: shard_txs,
                        dispatch: dispatch_txs,
                        batch,
                    },
                )
            }
        };

        // In socket mode the fleet lives in other processes: `nodes` is
        // the expected audience, not a local thread count.
        let local_nodes = match config.mode {
            HeadendMode::Socket { .. } => 0,
            _ => config.nodes,
        };
        let mut nodes = Vec::with_capacity(local_nodes as usize);
        for i in 0..local_nodes {
            let bus_rx = bus.subscribe();
            let link = link.clone();
            let key = config.key.clone();
            let hb = config.heartbeat_interval;
            let seed = config.seed ^ (i.wrapping_mul(0x9e3779b97f4a7c15));
            let inj = Arc::clone(&injector);
            let tele = config.telemetry.clone();
            nodes.push(std::thread::spawn(move || {
                node_main(
                    NodeId::new(i),
                    key,
                    bus_rx,
                    link,
                    hb,
                    seed,
                    start,
                    inj,
                    tele,
                )
            }));
        }

        // Elastic sizing: the reconciler thread steers every running
        // instance toward the policy's SLO. Created before the snapshot
        // writer so snapshots can embed the desired-state record.
        let (autoscale, autoscale_stop, autoscale_thread) = match (&headend, &config.autoscale) {
            (Headend::Sharded(Some(sh)) | Headend::Socket { sh: Some(sh), .. }, Some(policy)) => {
                let shared = Arc::new(Mutex::named(
                    Reconciler::new(*policy, policy.min_size),
                    "live.autoscale",
                ));
                let (stop, thread) = crate::headend::spawn_reconciler(
                    sh.reconciler_links(),
                    Arc::clone(&shared),
                    config.autoscale_interval,
                    Arc::clone(&injector),
                    config.telemetry.clone(),
                );
                (Some(shared), Some(stop), Some(thread))
            }
            _ => (None, None, None),
        };

        let (snapshot_handle, snapshot_stop, snapshot_thread) = match &headend {
            Headend::Sharded(Some(sh)) | Headend::Socket { sh: Some(sh), .. } => {
                let handle = sh.snapshot_handle();
                match (&config.snapshot_dir, sh.snapshot_inbox()) {
                    (Some(dir), Some(inbox)) => {
                        let membership = match &headend {
                            Headend::Socket { membership, .. } => Some(Arc::clone(membership)),
                            _ => None,
                        };
                        let (stop, thread) = spawn_snapshot_writer(
                            sh.snapshot_handle(),
                            inbox,
                            membership,
                            autoscale.as_ref().map(Arc::clone),
                            0,
                            dir.clone(),
                            config.snapshot_interval,
                            start,
                            config.telemetry.clone(),
                        );
                        (Some(handle), Some(stop), Some(thread))
                    }
                    _ => (Some(handle), None, None),
                }
            }
            _ => (None, None, None),
        };

        LiveOddci {
            headend,
            bus,
            nodes,
            next_job: AtomicU64::new(0),
            config,
            epoch: 0,
            snapshot_handle,
            snapshot_stop,
            snapshot_thread,
            autoscale,
            autoscale_stop,
            autoscale_thread,
        }
    }

    /// Boots a **standby** headend from a durability snapshot: the same
    /// socket architecture as [`LiveOddci::start`], but every shard's
    /// Controller, the carousel's image table, the hub's job state and
    /// the wire node-id namespace are adopted from `snap` *before* the
    /// listener binds — so the first PNA to redial finds its membership,
    /// its instance and its task ledger already in place. The standby
    /// acks hellos with `snap.epoch + 1`, which is what lets PNAs fence
    /// off the dead primary.
    ///
    /// Only [`HeadendMode::Socket`] makes sense here (a standby adopts
    /// *remote* PNAs; in-process node threads die with their runtime), and
    /// the shard count must match the snapshot's — message-id namespaces
    /// are per-shard.
    pub fn start_standby(config: LiveConfig, snap: &SnapshotState) -> Result<LiveOddci, String> {
        let HeadendMode::Socket {
            listen,
            shards,
            dispatch,
            batch,
        } = config.mode
        else {
            return Err("a standby headend adopts remote PNAs: use HeadendMode::Socket".into());
        };
        config.mode.validate()?;
        if config.nodes == 0 {
            return Err("a live system needs at least one node".into());
        }
        let waker = oddci_wire::Waker::new()
            .map_err(|e| format!("standby cannot create its waker: {e}"))?;
        let bus = Arc::new(BroadcastBus::new());
        let start = Instant::now();
        let adopt_begin = wall_now(&start).as_micros();
        let injector = Arc::new(FaultInjector::new(
            config.faults.clone(),
            config.seed ^ 0xFA17_FA17,
        ));
        let sh = ShardedHeadend::start(
            &config,
            shards,
            dispatch,
            Arc::clone(&bus),
            start,
            Arc::clone(&injector),
        );
        if let Err(e) = sh.import_state(snap) {
            let _ = sh.shutdown();
            return Err(e);
        }
        let epoch = snap.epoch + 1;
        let membership = Arc::new(Mutex::named(
            WireMembership::adopted(snap.wire_next_node, &snap.wire_nodes),
            "live.wire.membership",
        ));
        let (shard_txs, dispatch_txs) = sh.node_links();
        let shard_txs = Arc::new(shard_txs);
        let dispatch_txs = Arc::new(dispatch_txs);
        let conn_stats = Arc::new(oddci_wire::ConnStatsHub::new());
        // The dead primary's listener can linger briefly after a kill;
        // retry AddrInUse for a few seconds instead of failing adoption.
        let bind_deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            let service = crate::wire::LiveWireService::new(
                Arc::clone(&shard_txs),
                Arc::clone(&dispatch_txs),
                batch,
                bus.subscribe_waking(waker.clone()),
                config.telemetry.clone(),
                Arc::clone(&conn_stats),
                epoch,
                Arc::clone(&membership),
                waker.clone(),
            );
            let mut scfg = oddci_wire::ServerConfig::new(oddci_wire::Integrity::hmac(&config.key));
            scfg.injector = FaultInjector::new(config.faults.clone(), config.seed ^ 0xFA17_FA17);
            scfg.telemetry = config.telemetry.clone();
            scfg.conn_stats = Some(Arc::clone(&conn_stats));
            match oddci_wire::WireServer::bind(listen, scfg, waker.clone(), service) {
                Ok(s) => break s,
                Err(oddci_wire::WireError::Io(e))
                    if e.kind() == std::io::ErrorKind::AddrInUse
                        && Instant::now() < bind_deadline =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => {
                    let _ = sh.shutdown();
                    return Err(format!("standby cannot bind {listen}: {e}"));
                }
            }
        };
        config.telemetry.span(
            adopt_begin,
            wall_now(&start).as_micros(),
            Phase::HeadendAdopt,
            CONTROL_TRACK,
            epoch,
        );
        // Job ids must keep climbing past everything the primary issued.
        let next_job = snap
            .job_queries
            .iter()
            .map(|(job, _)| job.raw() + 1)
            .chain(snap.job_scores.iter().map(|(job, _)| job.raw() + 1))
            .max()
            .unwrap_or(0);
        let handle = sh.snapshot_handle();
        // Resume scaling from the snapshot's desired-state record: the
        // adopted loop keeps the primary's desired size and unserved
        // cooldown, so the standby never re-provisions capacity the
        // primary already requested.
        let (autoscale, autoscale_stop, autoscale_thread) = match &config.autoscale {
            Some(policy) => {
                let now = wall_now(&start);
                let reconciler = match &snap.autoscale {
                    Some(export) => Reconciler::from_export(*policy, export, now),
                    None => Reconciler::new(*policy, policy.min_size),
                };
                let shared = Arc::new(Mutex::named(reconciler, "live.autoscale"));
                let (stop, thread) = crate::headend::spawn_reconciler(
                    sh.reconciler_links(),
                    Arc::clone(&shared),
                    config.autoscale_interval,
                    Arc::clone(&injector),
                    config.telemetry.clone(),
                );
                (Some(shared), Some(stop), Some(thread))
            }
            None => (None, None, None),
        };
        let (snapshot_stop, snapshot_thread) = match (&config.snapshot_dir, sh.snapshot_inbox()) {
            (Some(dir), Some(inbox)) => {
                let (stop, thread) = spawn_snapshot_writer(
                    sh.snapshot_handle(),
                    inbox,
                    Some(Arc::clone(&membership)),
                    autoscale.as_ref().map(Arc::clone),
                    epoch,
                    dir.clone(),
                    config.snapshot_interval,
                    start,
                    config.telemetry.clone(),
                );
                (Some(stop), Some(thread))
            }
            _ => (None, None),
        };
        Ok(LiveOddci {
            headend: Headend::Socket {
                sh: Some(sh),
                server: Some(server),
                conn_stats,
                membership,
            },
            bus,
            nodes: Vec::new(),
            next_job: AtomicU64::new(next_job),
            config,
            epoch,
            snapshot_handle: Some(handle),
            snapshot_stop,
            snapshot_thread,
            autoscale,
            autoscale_stop,
            autoscale_thread,
        })
    }

    /// The configuration this runtime started with.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The runtime's telemetry bundle (all threads report into it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// The socket the headend listens on, in [`HeadendMode::Socket`] only
    /// (reports the ephemeral port when the config asked for port 0).
    pub fn wire_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.headend {
            Headend::Socket {
                server: Some(server),
                ..
            } => Some(server.local_addr()),
            _ => None,
        }
    }

    /// Wire transport counters, in [`HeadendMode::Socket`] only.
    pub fn wire_stats(&self) -> Option<oddci_wire::WireStatsSnapshot> {
        match &self.headend {
            Headend::Socket {
                server: Some(server),
                ..
            } => Some(server.stats().snapshot()),
            _ => None,
        }
    }

    /// Per-connection wire counters, in [`HeadendMode::Socket`] only.
    /// Disconnected peers stay listed with their final counters.
    pub fn wire_conn_stats(&self) -> Option<Vec<oddci_wire::ConnTraffic>> {
        match &self.headend {
            Headend::Socket { conn_stats, .. } => Some(conn_stats.snapshot()),
            _ => None,
        }
    }

    /// Submits an alignment job with `n_queries` queries against `image`'s
    /// database on an instance of `target` nodes, waits up to `timeout`
    /// and returns the outcome if the job completed in time.
    ///
    /// Half the queries are homologs planted in the database (they should
    /// score high), half are random noise (they should score ~0) — so the
    /// caller can verify that the distributed computation really ran.
    pub fn run_alignment_job(
        &self,
        image: AlignmentImage,
        n_queries: u64,
        target: u64,
        timeout: Duration,
    ) -> Option<JobOutcome> {
        assert!(n_queries > 0, "a job needs at least one query");
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..n_queries)
            .map(|i| {
                let q = if i % 2 == 0 {
                    // Planted homolog: a mutated slice of the database.
                    let start = (i as usize * 131) % db.len().saturating_sub(200);
                    mutate(&db[start..start + 150], 0.05, image.db_seed ^ i)
                } else {
                    random_sequence(150, image.db_seed ^ (i | 1 << 60))
                };
                Arc::new(q)
            })
            .collect();
        self.run_query_job(image, queries, target, timeout)
    }

    /// Submits a job of caller-supplied queries against `image`'s database
    /// (one task per query) and waits for it like
    /// [`run_alignment_job`](LiveOddci::run_alignment_job) — which is a
    /// wrapper around this that plants verifiable homologs. Callers that
    /// want throughput-shaped work (e.g. the `soak` benchmark) pass short
    /// random queries so each task is a cheap index scan and the headend
    /// round trip dominates.
    pub fn run_query_job(
        &self,
        image: AlignmentImage,
        queries: Vec<Arc<Vec<u8>>>,
        target: u64,
        timeout: Duration,
    ) -> Option<JobOutcome> {
        let req = self.submit_query_job(image, queries, target)?;
        self.wait_job(req, timeout)
    }

    /// Submits a job of caller-supplied queries without waiting: the
    /// split half of [`run_query_job`](LiveOddci::run_query_job), for
    /// callers who outlive the headend serving the job — the failover
    /// path submits on the primary, crashes it, and [`wait_job`]s the
    /// *standby's* matching request.
    ///
    /// [`wait_job`]: LiveOddci::wait_job
    pub fn submit_query_job(
        &self,
        image: AlignmentImage,
        queries: Vec<Arc<Vec<u8>>>,
        target: u64,
    ) -> Option<ProviderRequest> {
        assert!(!queries.is_empty(), "a job needs at least one query");
        let n_queries = queries.len() as u64;
        let job_id = JobId::new(self.next_job.fetch_add(1, Ordering::Relaxed));
        let tasks = (0..n_queries)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(150),
                    SimDuration::from_millis(10),
                    DataSize::from_bytes(8),
                )
            })
            .collect();
        let job = Job::new(
            job_id,
            ImageId::new(job_id.raw()),
            DataSize::from_megabytes(1),
            tasks,
        );

        match &self.headend {
            Headend::Single { tx, .. } => {
                let (reply_tx, reply_rx) = bounded(1);
                tx.send(ToHeadend::Submit {
                    job,
                    queries,
                    image: Arc::new(image),
                    target,
                    reply: reply_tx,
                })
                .ok()?;
                reply_rx.recv_timeout(Duration::from_secs(5)).ok()
            }
            Headend::Sharded(sh) | Headend::Socket { sh, .. } => {
                Some(sh.as_ref()?.submit(job, queries, Arc::new(image), target))
            }
        }
    }

    /// Polls a submitted request until it completes or `timeout` passes.
    pub fn wait_job(&self, req: ProviderRequest, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        loop {
            let out = match &self.headend {
                Headend::Single { tx, .. } => {
                    let (rtx, rrx) = bounded(1);
                    tx.send(ToHeadend::Report { req, reply: rtx }).ok()?;
                    rrx.recv_timeout(Duration::from_secs(5)).ok().flatten()
                }
                Headend::Sharded(sh) | Headend::Socket { sh, .. } => sh.as_ref()?.report(req),
            };
            if let Some((report, scores)) = out {
                return Some(JobOutcome { report, scores });
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Provider requests still running — what a standby must keep
    /// waiting on after adoption. Empty in single-loop mode (the
    /// baseline predates durability).
    pub fn running_jobs(&self) -> Vec<ProviderRequest> {
        match &self.headend {
            Headend::Sharded(sh) | Headend::Socket { sh, .. } => sh
                .as_ref()
                .map(ShardedHeadend::running_jobs)
                .unwrap_or_default(),
            Headend::Single { .. } => Vec::new(),
        }
    }

    /// The fencing epoch this headend acks hellos with: 0 for a primary,
    /// snapshot epoch + 1 for a standby.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cuts a snapshot right now, bypassing the periodic writer. `None`
    /// in single-loop mode or while the headend is winding down.
    pub fn snapshot_now(&self) -> Option<SnapshotState> {
        let handle = self.snapshot_handle.as_ref()?;
        let wire = match &self.headend {
            Headend::Socket { membership, .. } => membership.lock().export(),
            _ => (0, Vec::new()),
        };
        let mut snap = handle.export(self.epoch, wire)?;
        snap.autoscale = self.autoscale_state();
        Some(snap)
    }

    /// The elastic-sizing loop's current state — desired size, unserved
    /// cooldown, action counters. `None` when autoscale is off or the
    /// headend mode cannot scale.
    pub fn autoscale_state(&self) -> Option<AutoscaleExport> {
        let shared = self.autoscale.as_ref()?;
        let now = match &self.headend {
            Headend::Sharded(Some(sh)) | Headend::Socket { sh: Some(sh), .. } => {
                SimTime::from_micros(sh.now_us())
            }
            _ => SimTime::ZERO,
        };
        Some(shared.lock().export(now))
    }

    /// Re-applies `NodeLost` instants recorded after `since_us` (a
    /// snapshot's `taken_at_us`) from a recovered trace-event suffix: the
    /// dead primary may have re-queued a lost node's assignments *after*
    /// the snapshot was cut, and replaying those losses lets the standby
    /// re-queue immediately instead of waiting out its own miss-threshold
    /// window. Returns how many losses changed the ledger.
    pub fn replay_trace(&self, events: &[oddci_telemetry::Event], since_us: u64) -> u64 {
        let sh = match &self.headend {
            Headend::Sharded(Some(sh)) | Headend::Socket { sh: Some(sh), .. } => sh,
            _ => return 0,
        };
        let begin = sh.now_us();
        let mut nodes: Vec<NodeId> = events
            .iter()
            .filter(|e| {
                e.phase == Phase::NodeLost
                    && e.kind == oddci_telemetry::EventKind::Instant
                    && e.ts_us > since_us
            })
            .map(|e| NodeId::new(e.track))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let applied = sh.replay_node_losses(&nodes);
        self.config.telemetry.span(
            begin,
            sh.now_us(),
            Phase::HeadendReplay,
            CONTROL_TRACK,
            applied,
        );
        applied
    }

    /// Stops the snapshot writer (see [`SnapshotMsg::Stop`] for `flush`)
    /// and joins it. Returns 1 if the writer had panicked, else 0.
    fn stop_snapshot_writer(&mut self, flush: bool) -> u64 {
        if let Some(tx) = self.snapshot_stop.take() {
            let _ = tx.send(SnapshotMsg::Stop { flush });
        }
        self.snapshot_thread
            .take()
            .map_or(0, |t| u64::from(t.join().is_err()))
    }

    /// Kills a socket headend the way SIGKILL would: the listener and its
    /// service drop (PNAs see a dead connection, not a goodbye), the
    /// headend threads are abandoned to exit on channel disconnect, and
    /// nothing is drained or accounted. The telemetry sink is flushed
    /// only because in-process "processes" share a sink — bytes already
    /// written to the fd would survive a real kill anyway.
    ///
    /// # Panics
    /// Outside [`HeadendMode::Socket`]: in-process modes share channels
    /// with live node threads, which would loop forever against a dropped
    /// headend.
    pub fn crash(mut self) {
        drop(self.autoscale_stop.take());
        if let Some(t) = self.autoscale_thread.take() {
            let _ = t.join();
        }
        // A killed process cuts nothing more: the writer exits without
        // serving a kick that may still be queued.
        self.stop_snapshot_writer(false);
        match &mut self.headend {
            Headend::Socket { sh, server, .. } => {
                if let Some(mut server) = server.take() {
                    let _ = server.stop();
                }
                drop(sh.take());
            }
            _ => panic!("crash() models a dead socket headend; use HeadendMode::Socket"),
        }
        self.config.telemetry.flush_sink();
    }

    /// Stops the headend and all nodes, joining every thread.
    ///
    /// The shutdown barrier: `Shutdown` goes out on the bus first and
    /// every node thread is joined, so no node can still be sending;
    /// then the headend winds down (sharded: dispatch pool, controller
    /// shards, carousel — receivers strictly outlive senders). The
    /// returned report carries the Backend's final task accounting.
    ///
    /// When a streaming trace sink is attached, every thread has exited
    /// — and therefore emitted its last event — before the sink is
    /// flushed, and the flush completes before `tasks_unaccounted` is
    /// computed: the streamed artifact always covers the full run the
    /// report describes.
    pub fn shutdown(mut self) -> ShutdownReport {
        let mut threads_failed = 0u64;
        // The reconciler and snapshot writer both talk to the shard
        // channels, so they must stop before those receivers wind down.
        drop(self.autoscale_stop.take());
        if let Some(t) = self.autoscale_thread.take() {
            threads_failed += u64::from(t.join().is_err());
        }
        // A clean stop still cuts a finished job whose kick is in flight.
        threads_failed += self.stop_snapshot_writer(true);
        self.bus.publish(&BusMsg::Shutdown);
        let tasks_unaccounted = match &mut self.headend {
            Headend::Single { tx, thread } => {
                let _ = tx.send(ToHeadend::Shutdown);
                let n = match thread.take().map(JoinHandle::join) {
                    Some(Ok(n)) => n,
                    Some(Err(_)) => {
                        threads_failed += 1;
                        0
                    }
                    None => 0,
                };
                for node in self.nodes.drain(..) {
                    threads_failed += u64::from(node.join().is_err());
                }
                n
            }
            Headend::Sharded(sh) => {
                for node in self.nodes.drain(..) {
                    threads_failed += u64::from(node.join().is_err());
                }
                match sh.take() {
                    Some(sh) => {
                        let (unaccounted, failed) = sh.shutdown();
                        threads_failed += failed;
                        unaccounted
                    }
                    None => 0,
                }
            }
            Headend::Socket { sh, server, .. } => {
                // The Shutdown bus message reaches the wire service, which
                // broadcasts it to every PNA and asks the serving loop to
                // drain and stop; joining the server here guarantees the
                // service (a shard/dispatch sender) is gone before the
                // sharded headend tears its receivers down.
                if let Some(mut server) = server.take() {
                    threads_failed += u64::from(!server.stop());
                }
                for node in self.nodes.drain(..) {
                    threads_failed += u64::from(node.join().is_err());
                }
                match sh.take() {
                    Some(sh) => {
                        let (unaccounted, failed) = sh.shutdown();
                        threads_failed += failed;
                        unaccounted
                    }
                    None => 0,
                }
            }
        };
        self.config.telemetry.flush_sink();
        ShutdownReport {
            tasks_unaccounted,
            threads_failed,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot writer
// ---------------------------------------------------------------------

/// Spawns the snapshot writer: it cuts a state export and atomically
/// replaces `dir/headend.snap` every `interval`, and at once when a
/// dispatch worker kicks it with [`SnapshotMsg::Cut`] on finishing a job
/// (kicks already queued coalesce into that one cut). It runs until
/// [`SnapshotMsg::Stop`] arrives on `inbox`; the returned sender is the
/// inbox's, for that stop.
#[allow(clippy::too_many_arguments)]
fn spawn_snapshot_writer(
    handle: SnapshotHandle,
    inbox: (Sender<SnapshotMsg>, Receiver<SnapshotMsg>),
    membership: Option<Arc<Mutex<WireMembership>>>,
    autoscale: Option<Arc<Mutex<Reconciler>>>,
    epoch: u64,
    dir: std::path::PathBuf,
    interval: Duration,
    start: Instant,
    tele: Telemetry,
) -> (Sender<SnapshotMsg>, JoinHandle<()>) {
    let (tx, rx) = inbox;
    let thread = std::thread::spawn(move || {
        if std::fs::create_dir_all(&dir).is_err() {
            return; // nowhere to write; durability is best-effort
        }
        let path = dir.join(snapshot::SNAPSHOT_FILE);
        // Finished jobs as of the last cut.
        let mut cut_through = 0u64;
        loop {
            let (cut, stop) = match rx.recv_timeout(interval) {
                Err(RecvTimeoutError::Timeout) => (true, false),
                Err(RecvTimeoutError::Disconnected) => (false, true),
                Ok(SnapshotMsg::Cut) => {
                    // One cut serves every kick queued so far; a stop
                    // queued behind them decides whether it still runs.
                    let stop = rx.try_iter().find_map(|msg| match msg {
                        SnapshotMsg::Stop { flush } => Some(flush),
                        SnapshotMsg::Cut => None,
                    });
                    (stop.unwrap_or(true), stop.is_some())
                }
                Ok(SnapshotMsg::Stop { flush }) => {
                    (flush && handle.jobs_finished() > cut_through, true)
                }
            };
            if cut {
                let begin = wall_now(&start).as_micros();
                let finished = handle.jobs_finished();
                let wire = membership
                    .as_ref()
                    .map(|m| m.lock().export())
                    .unwrap_or((0, Vec::new()));
                let Some(mut snap) = handle.export(epoch, wire) else {
                    return; // headend winding down mid-export
                };
                snap.autoscale = autoscale
                    .as_ref()
                    .map(|r| r.lock().export(wall_now(&start)));
                let _ = snapshot::write_file(&path, &snap);
                cut_through = finished;
                tele.span(
                    begin,
                    wall_now(&start).as_micros(),
                    Phase::HeadendSnapshot,
                    CONTROL_TRACK,
                    epoch,
                );
            }
            if stop {
                return;
            }
        }
    });
    (tx, thread)
}

// ---------------------------------------------------------------------
// Single-loop headend (the baseline architecture)
// ---------------------------------------------------------------------

struct HeadendState {
    controller: Controller,
    backend: Backend,
    provider: Provider,
    bus: Arc<BroadcastBus<BusMsg>>,
    start: Instant,
    instance_job: BTreeMap<InstanceId, JobId>,
    job_queries: BTreeMap<JobId, Vec<Arc<Vec<u8>>>>,
    job_scores: BTreeMap<JobId, BTreeMap<TaskId, i32>>,
    instance_image: BTreeMap<InstanceId, Arc<AlignmentImage>>,
    tele: Telemetry,
    queue_depth: oddci_telemetry::Gauge,
}

impl HeadendState {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn process_outputs(&mut self, outputs: Vec<ControllerOutput>) -> Vec<HeartbeatReply> {
        let mut replies = Vec::new();
        for out in outputs {
            match out {
                ControllerOutput::Broadcast(signed) => {
                    let (image, inst) = match signed.message {
                        ControlMessage::Wakeup(w) => {
                            (self.instance_image.get(&w.instance).cloned(), w.instance)
                        }
                        ControlMessage::Reset(r) => {
                            self.instance_image.remove(&r.instance);
                            (None, r.instance)
                        }
                    };
                    self.tele.instant(
                        self.now().as_micros(),
                        Phase::CarouselPublish,
                        CONTROL_TRACK,
                        inst.raw(),
                    );
                    self.bus
                        .publish(&BusMsg::Control(LiveBroadcast { signed, image }));
                }
                ControllerOutput::DirectReset { node, instance } => {
                    // In the live plane direct resets ride heartbeat replies.
                    self.tele.instant(
                        self.now().as_micros(),
                        Phase::DirectReset,
                        node.raw(),
                        instance.raw(),
                    );
                    replies.push(HeartbeatReply::Reset(instance));
                }
                ControllerOutput::NodeLost { node, .. } => {
                    self.tele
                        .instant(self.now().as_micros(), Phase::NodeLost, node.raw(), 0);
                    let _ = self.backend.node_lost(node);
                }
            }
        }
        replies
    }

    fn finish_if_done(&mut self, job: JobId) {
        if !self.backend.is_complete(job) {
            return;
        }
        let Some(req) = self.provider.request_for_job(job) else {
            return;
        };
        let Some((&inst, _)) = self.instance_job.iter().find(|(_, &j)| j == job) else {
            return;
        };
        let wakeups = self.controller.instance(inst).map_or(0, |r| r.wakeups_sent);
        let completed = self.backend.completed_count(job);
        let requeues = self.backend.requeue_count(job);
        let now = self.now();
        if self
            .provider
            .complete(req, now, completed, requeues, wakeups)
            .is_some()
        {
            if let Some(report) = self.provider.report(req) {
                let end = now.as_micros();
                self.tele.span(
                    end.saturating_sub(report.makespan.as_micros()),
                    end,
                    Phase::JobRun,
                    CONTROL_TRACK,
                    job.raw(),
                );
            }
            if let Ok(outputs) = self.controller.dismantle(inst) {
                let _ = self.process_outputs(outputs);
            }
        }
    }

    /// Final accounting: tasks in no ledger, across every job ever seen.
    fn unaccounted(&self) -> u64 {
        self.job_scores
            .keys()
            .map(|&job| self.backend.unaccounted_tasks(job))
            .sum()
    }
}

fn headend_main(
    config: LiveConfig,
    bus: Arc<BroadcastBus<BusMsg>>,
    rx: Receiver<ToHeadend>,
    start: Instant,
    injector: Arc<FaultInjector>,
) -> u64 {
    let policy = ControllerPolicy {
        heartbeat: HeartbeatConfig {
            interval: SimDuration::from_micros(config.heartbeat_interval.as_micros() as u64),
            // Generous: live nodes block while computing and may skip beats.
            miss_threshold: 50,
            message_bytes: 128,
        },
        sizing_slack: 1.0,
        recompose_threshold: 0.99,
        assumed_audience: config.nodes,
        recompose_requires_idle: false,
    };
    let tele = config.telemetry.clone();
    let queue_depth = tele.registry().gauge("backend.queue_depth");
    let mut st = HeadendState {
        controller: Controller::new(&config.key, policy),
        backend: Backend::new(),
        provider: Provider::new(),
        bus,
        start,
        instance_job: BTreeMap::new(),
        job_queries: BTreeMap::new(),
        job_scores: BTreeMap::new(),
        instance_image: BTreeMap::new(),
        tele,
        queue_depth,
    };
    let mut last_tick = Instant::now();

    loop {
        match rx.recv_timeout(config.controller_tick) {
            Ok(ToHeadend::Shutdown) => return st.unaccounted(),
            Ok(ToHeadend::Heartbeat(hb, reply)) => {
                let now = st.now();
                let outputs = st.controller.on_heartbeat(hb, now);
                let mut replies = st.process_outputs(outputs);
                let _ = reply.send(replies.pop().unwrap_or(HeartbeatReply::Ack));
            }
            Ok(ToHeadend::TaskRequest {
                instance,
                node,
                reply,
            }) => {
                // Fault hook: a stalled Backend answers nothing at all; the
                // node's reply timeout fires and it retries with backoff.
                if injector.backend_stalled(st.now()).is_some() {
                    drop(reply);
                    continue;
                }
                let Some(&job) = st.instance_job.get(&instance) else {
                    let _ = reply.send(TaskBatchReply::Drained);
                    continue;
                };
                match st.backend.fetch_task(job, node) {
                    Ok(TaskOutcome::Assigned(task)) => {
                        let query = st.job_queries[&job][task.id.index()].clone();
                        let _ = reply.send(TaskBatchReply::Assigned {
                            job,
                            tasks: vec![(task, query)],
                        });
                    }
                    _ => {
                        let _ = reply.send(TaskBatchReply::Drained);
                    }
                }
            }
            Ok(ToHeadend::TaskResult {
                job,
                task,
                node,
                score,
            }) => {
                let now = st.now();
                if st
                    .backend
                    .complete_task(job, task, node, now)
                    .unwrap_or(false)
                {
                    st.job_scores.entry(job).or_default().insert(task, score);
                    st.finish_if_done(job);
                } else {
                    st.job_scores.entry(job).or_default().insert(task, score);
                }
            }
            Ok(ToHeadend::Submit {
                job,
                queries,
                image,
                target,
                reply,
            }) => {
                let now = st.now();
                let job_id = job.id;
                let req = InstanceRequest {
                    image: job.image,
                    image_size: job.image_size,
                    target,
                    requirements: Default::default(),
                };
                st.backend.register_job(job, now);
                st.job_queries.insert(job_id, queries);
                st.job_scores.insert(job_id, BTreeMap::new());
                let (inst, outputs) = st.controller.create_instance(req, now);
                st.instance_job.insert(inst, job_id);
                st.instance_image.insert(inst, image);
                let request = st.provider.open_request(job_id, inst, target, now);
                let _ = st.process_outputs(outputs);
                let _ = reply.send(request);
            }
            Ok(ToHeadend::Report { req, reply }) => {
                let out = st.provider.report(req).map(|r| {
                    let scores = st.job_scores.get(&r.job).cloned().unwrap_or_default();
                    (r, scores)
                });
                let _ = reply.send(out);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return st.unaccounted(),
        }
        if last_tick.elapsed() >= config.controller_tick {
            last_tick = Instant::now();
            let now = st.now();
            let outputs = st.controller.tick(now);
            let _ = st.process_outputs(outputs);
            st.queue_depth.set(st.backend.pending_total() as f64);
        }
    }
}

// ---------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
pub(crate) fn node_main(
    id: NodeId,
    key: Vec<u8>,
    bus_rx: Receiver<BusMsg>,
    link: NodeLink,
    hb_interval: Duration,
    seed: u64,
    start: Instant,
    injector: Arc<FaultInjector>,
    tele: Telemetry,
) {
    let mut pna = Pna::new(id, &key);
    let mut rng = SmallRng::seed_from_u64(seed);
    let host = HostInfo {
        free_memory: DataSize::from_megabytes(128),
        usage: UsageMode::Standby,
    };
    loop {
        // Idle: listen to the bus, heartbeat on the side.
        match bus_rx.recv_timeout(hb_interval) {
            Ok(BusMsg::Shutdown) => return,
            Ok(BusMsg::Control(b)) => {
                if let PnaAction::BeginAcquisition { instance, .. } =
                    pna.on_control_message(&b.signed, host, &mut rng)
                {
                    tele.instant(
                        wall_now(&start).as_micros(),
                        Phase::PnaAccept,
                        id.raw(),
                        instance.raw(),
                    );
                    if let Some(image) = b.image {
                        if !run_instance(
                            &mut pna,
                            &mut rng,
                            host,
                            instance,
                            &image,
                            &bus_rx,
                            &link,
                            hb_interval,
                            seed,
                            &start,
                            &injector,
                            &tele,
                        ) {
                            return; // shutdown observed while busy
                        }
                    } else {
                        // Wakeup without image (race with reset): bail out.
                        pna.on_direct_reset(instance);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Fault hook: the PNA software crashes at its own timer; a
                // reboot later it comes back idle and resumes listening
                // (restart = this same loop — the carousel repeats).
                if maybe_crash(&mut pna, &injector, &start) {
                    continue;
                }
                if !heartbeat(&mut pna, &link, seed, &start, &injector, &tele) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// How long a node waits for a heartbeat reply before backing off.
const HB_REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a node waits for a task-fetch reply before backing off.
const TASK_REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// Wall-clock runtime instant as [`SimTime`].
pub(crate) fn wall_now(start: &Instant) -> SimTime {
    SimTime::from_micros(start.elapsed().as_micros() as u64)
}

/// Rolls the PNA-crash fault. On a crash the agent loses all state and
/// sleeps out the reboot; returns `true` if one happened.
fn maybe_crash(pna: &mut Pna, injector: &FaultInjector, start: &Instant) -> bool {
    let Some(downtime) = injector.pna_crash(pna.node(), wall_now(start)) else {
        return false;
    };
    pna.power_off();
    std::thread::sleep(Duration::from_micros(downtime.as_micros()));
    true
}

/// Sends one heartbeat and applies the reply. A beat swallowed by an
/// injected drop or partition is simply skipped (the miss-threshold
/// machinery is the Controller's problem); a reply timeout is retried a
/// few times and then given up on *without* killing the node. Returns
/// false only when the headend is gone.
fn heartbeat(
    pna: &mut Pna,
    link: &NodeLink,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) -> bool {
    let id = pna.node();
    let backoff = Backoff::live();
    let mut attempt = 0;
    loop {
        let now = wall_now(start);
        if injector.partitioned(id, now) || injector.heartbeat_dropped(id, now) {
            return true;
        }
        let hb = pna.heartbeat(now);
        let (rtx, rrx) = bounded(1);
        if !link.send_heartbeat(hb, rtx) {
            return false;
        }
        match rrx.recv_timeout(HB_REPLY_TIMEOUT) {
            Ok(HeartbeatReply::Reset(inst)) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 1);
                pna.on_direct_reset(inst);
                return true;
            }
            Ok(HeartbeatReply::Ack) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 0);
                return true;
            }
            Err(_) => match backoff.delay_std(attempt, seed ^ 0xbea7) {
                Some(d) => {
                    tele.instant(
                        wall_now(start).as_micros(),
                        Phase::Retry,
                        id.raw(),
                        u64::from(attempt),
                    );
                    attempt += 1;
                    std::thread::sleep(d);
                }
                // Give up on this beat, not on the node.
                None => return true,
            },
        }
    }
}

/// Runs the busy phase: materialize the image, then pull batches of
/// tasks, compute them, and upload results until reset. Returns false
/// only on shutdown.
#[allow(clippy::too_many_arguments)]
fn run_instance(
    pna: &mut Pna,
    rng: &mut SmallRng,
    host: HostInfo,
    instance: InstanceId,
    image: &AlignmentImage,
    bus_rx: &Receiver<BusMsg>,
    link: &NodeLink,
    hb_interval: Duration,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) -> bool {
    let _ = pna.image_ready();
    // Real work: regenerate and index the database — the live plane's
    // DVE boot. The span runs accept → database ready.
    let boot_begin = wall_now(start).as_micros();
    let db = image.materialize();
    tele.span(
        boot_begin,
        wall_now(start).as_micros(),
        Phase::DveBoot,
        pna.node().raw(),
        instance.raw(),
    );
    if !heartbeat(pna, link, seed, start, injector, tele) {
        return true;
    }
    let backoff = Backoff::live();
    let mut fetch_attempt: u32 = 0;
    let mut fetch_began: Option<u64> = None;
    while !pna.is_idle() {
        // Drain broadcast traffic (resets, other instances' wakeups).
        while let Ok(msg) = bus_rx.try_recv() {
            match msg {
                BusMsg::Shutdown => return false,
                BusMsg::Control(b) => {
                    if let PnaAction::DveDestroyed { .. } =
                        pna.on_control_message(&b.signed, host, rng)
                    {
                        let _ = heartbeat(pna, link, seed, start, injector, tele);
                        return true;
                    }
                }
            }
        }
        if pna.is_idle() {
            break;
        }

        // Fault hook: a direct-channel loss episode eats the request on
        // the wire; the reply timeout below treats a stalled Backend the
        // same way. Both paths retry with backoff.
        let now = wall_now(start);
        let lost =
            injector.partitioned(pna.node(), now) || injector.direct_dropped(pna.node(), now);
        fetch_began.get_or_insert(now.as_micros());
        let reply = if lost {
            None
        } else {
            let (rtx, rrx) = bounded(1);
            if !link.request_tasks(instance, pna.node(), rtx) {
                return true;
            }
            rrx.recv_timeout(TASK_REPLY_TIMEOUT).ok()
        };
        match reply {
            Some(TaskBatchReply::Assigned { job, tasks }) => {
                fetch_attempt = 0;
                let track = pna.node().raw();
                if let Some(begin) = fetch_began.take() {
                    tele.span(
                        begin,
                        wall_now(start).as_micros(),
                        Phase::TaskFetch,
                        track,
                        tasks[0].0.id.raw(),
                    );
                }
                let mut results: Vec<(TaskId, i32)> = Vec::with_capacity(tasks.len());
                let mut destroyed = false;
                for (task, query) in tasks {
                    // Between tasks, drain control traffic: a reset
                    // mid-batch abandons the remainder (the Backend
                    // re-queues it via the NodeLost membership
                    // transition at this node's next idle heartbeat).
                    while let Ok(msg) = bus_rx.try_recv() {
                        match msg {
                            BusMsg::Shutdown => return false,
                            BusMsg::Control(b) => {
                                if let PnaAction::DveDestroyed { .. } =
                                    pna.on_control_message(&b.signed, host, rng)
                                {
                                    destroyed = true;
                                }
                            }
                        }
                    }
                    if destroyed {
                        break;
                    }
                    let compute_begin = wall_now(start).as_micros();
                    let score = image.score(&db, &query);
                    let computed = wall_now(start).as_micros();
                    tele.span(
                        compute_begin,
                        computed,
                        Phase::Compute,
                        track,
                        task.id.raw(),
                    );
                    tele.duration(
                        (computed.saturating_sub(compute_begin)) as f64 / 1e6,
                        Phase::Kernel,
                    );
                    let _ = pna.task_done();
                    results.push((task.id, score));
                }
                if !results.is_empty() {
                    send_results(pna, link, job, results, seed, start, injector, tele);
                }
                if destroyed {
                    let _ = heartbeat(pna, link, seed, start, injector, tele);
                    return true;
                }
            }
            Some(TaskBatchReply::Drained) => {
                fetch_attempt = 0;
                fetch_began = None;
                if maybe_crash(pna, injector, start) {
                    return true;
                }
                if !heartbeat(pna, link, seed, start, injector, tele) {
                    return true;
                }
                match bus_rx.recv_timeout(hb_interval) {
                    Ok(BusMsg::Shutdown) => return false,
                    Ok(BusMsg::Control(b)) => {
                        if let PnaAction::DveDestroyed { .. } =
                            pna.on_control_message(&b.signed, host, rng)
                        {
                            let _ = heartbeat(pna, link, seed, start, injector, tele);
                            return true;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return true,
                }
            }
            None => match backoff.delay_std(fetch_attempt, seed ^ 0xfe7c) {
                Some(d) => {
                    tele.instant(
                        wall_now(start).as_micros(),
                        Phase::Retry,
                        pna.node().raw(),
                        u64::from(fetch_attempt),
                    );
                    fetch_attempt += 1;
                    std::thread::sleep(d);
                }
                None => {
                    // Exhausted: give up on this chain but not on the node —
                    // heartbeat (so the Controller still sees us) and start
                    // a fresh chain. Pre-hardening this killed the worker.
                    fetch_attempt = 0;
                    fetch_began = None;
                    if !heartbeat(pna, link, seed, start, injector, tele) {
                        return true;
                    }
                }
            },
        }
    }
    true
}

/// Uploads a batch of results, retrying through loss episodes. An
/// exhausted chain abandons the local copies: the Backend still holds
/// the assignments and recycles them into the queue at this node's next
/// fetch.
#[allow(clippy::too_many_arguments)]
fn send_results(
    pna: &Pna,
    link: &NodeLink,
    job: JobId,
    results: Vec<(TaskId, i32)>,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) {
    let backoff = Backoff::live();
    let mut attempt = 0;
    let began = wall_now(start).as_micros();
    let count = results.len() as u64;
    loop {
        let now = wall_now(start);
        if !(injector.partitioned(pna.node(), now) || injector.direct_dropped(pna.node(), now)) {
            let _ = link.send_results(job, pna.node(), results);
            tele.span(
                began,
                wall_now(start).as_micros(),
                Phase::ResultUpload,
                pna.node().raw(),
                count,
            );
            return;
        }
        match backoff.delay_std(attempt, seed ^ 0x5e9d) {
            Some(d) => {
                tele.instant(
                    wall_now(start).as_micros(),
                    Phase::Retry,
                    pna.node().raw(),
                    u64::from(attempt),
                );
                attempt += 1;
                std::thread::sleep(d);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{run_wire_pna, WirePnaConfig};

    #[test]
    fn snapshot_now_round_trips_through_encode_decode() {
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            ..Default::default()
        });
        let image = AlignmentImage::small_demo();
        let outcome = live
            .run_alignment_job(image, 4, 2, Duration::from_secs(30))
            .expect("job completes");
        assert_eq!(outcome.scores.len(), 4);
        let snap = live.snapshot_now().expect("sharded headends can snapshot");
        let decoded =
            crate::snapshot::decode(&crate::snapshot::encode(&snap)).expect("container decodes");
        assert_eq!(decoded, snap);
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0);
    }

    /// A snapshot whose ledger names a task the job does not have is
    /// refused with an error, before any state is adopted.
    #[test]
    fn standby_refuses_an_inconsistent_snapshot_without_panicking() {
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            ..Default::default()
        });
        live.run_alignment_job(AlignmentImage::small_demo(), 4, 2, Duration::from_secs(30))
            .expect("job completes");
        let snap = live.snapshot_now().expect("sharded headends can snapshot");
        live.shutdown();
        let config = LiveConfig {
            nodes: 2,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            ..Default::default()
        };
        let spoils: [fn(&mut SnapshotState); 2] = [
            |s| s.backend.jobs[0].completed.push(TaskId::new(4)),
            |s| s.job_scores[0].1.push((TaskId::new(1 << 40), 1)),
        ];
        for spoil in spoils {
            let mut bad = snap.clone();
            spoil(&mut bad);
            let err = LiveOddci::start_standby(config.clone(), &bad)
                .err()
                .expect("an inconsistent snapshot is refused");
            assert!(err.starts_with("snapshot cannot be adopted"), "{err}");
        }
    }

    /// The full failover story, in-process: a socket headend snapshots
    /// while three reconnecting PNAs chew on a job, dies the way SIGKILL
    /// would, and a standby adopts its snapshot on the same port. The
    /// job must complete on the standby with every task accounted for
    /// and every PNA fenced up to the new epoch.
    #[test]
    fn standby_adopts_a_killed_socket_headend_mid_job() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-failover-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mk_config = |listen: std::net::SocketAddr| LiveConfig {
            nodes: 3,
            heartbeat_interval: Duration::from_millis(60),
            mode: HeadendMode::Socket {
                listen,
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            snapshot_dir: Some(dir.clone()),
            snapshot_interval: Duration::from_millis(50),
            ..Default::default()
        };
        let primary = LiveOddci::start(mk_config("127.0.0.1:0".parse().expect("addr")));
        let addr = primary.wire_addr().expect("socket headends listen");

        let pnas: Vec<_> = (0..3u64)
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

        // Enough work that the kill lands mid-job: planted homologs
        // against a larger library are genuinely expensive to score, so
        // the job cannot outrun the snapshot cadence even on a loaded
        // test machine.
        let image = AlignmentImage {
            db_len: 200_000,
            ..AlignmentImage::small_demo()
        };
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..64u64)
            .map(|i| {
                let start = (i as usize * 199) % (db.len() - 200);
                Arc::new(mutate(&db[start..start + 200], 0.05, 7 ^ i))
            })
            .collect();
        let req = primary
            .submit_query_job(image, queries, 3)
            .expect("submit succeeds");

        // Wait for a snapshot whose Provider still shows the request in
        // flight, then pull the plug — adopting a finished job would
        // make the running_jobs assertion below vacuous.
        let snap_path = dir.join(crate::snapshot::SNAPSHOT_FILE);
        let deadline = Instant::now() + Duration::from_secs(10);
        let snap = loop {
            if let Ok(s) = crate::snapshot::read_file(&snap_path) {
                let mid_job = !s.job_queries.is_empty()
                    && s.provider.requests.iter().any(|r| {
                        r.request == req
                            && matches!(r.state, oddci_core::provider::RequestState::Running)
                    });
                if mid_job {
                    break s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "no snapshot caught the job in flight"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        primary.crash();

        let standby =
            LiveOddci::start_standby(mk_config(addr), &snap).expect("standby adopts the snapshot");
        assert_eq!(standby.epoch(), snap.epoch + 1);
        assert!(
            standby.running_jobs().contains(&req),
            "the adopted Provider still tracks the in-flight request"
        );
        let outcome = standby
            .wait_job(req, Duration::from_secs(120))
            .expect("job completes on the standby");
        assert_eq!(outcome.scores.len(), 64);

        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "no task lost across failover");
        assert_eq!(report.threads_failed, 0);
        for h in pnas {
            let rep = h
                .join()
                .expect("pna thread joins")
                .expect("pna survives the failover");
            assert_eq!(rep.epoch, 1, "every PNA re-acked at the standby's epoch");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished job is durable before anyone shuts down: the dispatch
    /// worker that finishes it kicks the snapshot writer, which cuts at
    /// once instead of waiting out an interval this test sets far beyond
    /// the job's runtime.
    #[test]
    fn a_finished_job_is_snapshotted_before_shutdown() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-finish-cut-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            heartbeat_interval: Duration::from_millis(60),
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            snapshot_dir: Some(dir.clone()),
            snapshot_interval: Duration::from_secs(60),
            ..Default::default()
        });
        let addr = live.wire_addr().expect("socket headends listen");
        let pnas: Vec<_> = (0..2u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 300 + i;
                    cfg.heartbeat_interval = Duration::from_millis(60);
                    run_wire_pna(cfg)
                })
            })
            .collect();
        let image = AlignmentImage {
            db_len: 20_000,
            ..AlignmentImage::small_demo()
        };
        let outcome = live
            .run_alignment_job(image, 6, 2, Duration::from_secs(60))
            .expect("job completes");
        let job = outcome.report.job;

        let snap_path = dir.join(crate::snapshot::SNAPSHOT_FILE);
        let deadline = Instant::now() + Duration::from_secs(10);
        let snap = loop {
            if let Ok(s) = crate::snapshot::read_file(&snap_path) {
                let finished = s.provider.requests.iter().any(|r| {
                    r.job == job && matches!(r.state, oddci_core::provider::RequestState::Complete)
                });
                if finished {
                    break s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "no snapshot holds the finished job"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let scores = snap
            .job_scores
            .iter()
            .find(|(j, _)| *j == job)
            .map_or(0, |(_, s)| s.len());
        assert_eq!(scores, 6, "the cut holds every score of the finished job");

        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0);
        assert_eq!(report.threads_failed, 0);
        for h in pnas {
            h.join().expect("pna thread joins").expect("pna runs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Failover mid-scale-up: the primary's reconciler grows the instance
    /// from the floor, a snapshot captures the desired-state record, the
    /// primary dies, and the standby must resume from that record — same
    /// desired size, same action counters, inherited cooldown — instead
    /// of re-provisioning capacity the primary already requested.
    #[test]
    fn standby_resumes_autoscale_desired_state_from_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-autoscale-failover-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = AutoscalePolicy {
            min_size: 1,
            max_size: 4,
            slo_queue_depth: 4,
            // Long cooldown: the scale-up the primary took must fence the
            // standby's loop for the rest of the test.
            cooldown: SimDuration::from_secs(30),
            ..AutoscalePolicy::default()
        };
        let mk_config = |listen: std::net::SocketAddr| LiveConfig {
            nodes: 4,
            heartbeat_interval: Duration::from_millis(60),
            mode: HeadendMode::Socket {
                listen,
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            snapshot_dir: Some(dir.clone()),
            snapshot_interval: Duration::from_millis(50),
            autoscale: Some(policy),
            autoscale_interval: Duration::from_millis(25),
            ..Default::default()
        };
        let primary = LiveOddci::start(mk_config("127.0.0.1:0".parse().expect("addr")));
        let addr = primary.wire_addr().expect("socket headends listen");

        let pnas: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 200 + i;
                    cfg.heartbeat_interval = Duration::from_millis(60);
                    cfg.reconnect = Some(Duration::from_secs(30));
                    run_wire_pna(cfg)
                })
            })
            .collect();

        // Submit at the policy floor: 64 queued tasks against
        // slo_queue_depth=4 force the reconciler off the floor on its
        // first tick, so the kill lands mid-scale-up. Planted homolog
        // queries against a bigger database keep the job busy well past
        // the snapshot cut even in release builds.
        let image = AlignmentImage {
            db_len: 300_000,
            ..AlignmentImage::small_demo()
        };
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..64u64)
            .map(|i| {
                let start = (i as usize * 211) % (db.len() - 200);
                Arc::new(mutate(&db[start..start + 200], 0.05, 900 + i))
            })
            .collect();
        let req = primary
            .submit_query_job(image, queries, policy.min_size as u64)
            .expect("submit succeeds");

        // Wait for the reconciler's first scale-up, cut a snapshot that
        // carries the desired-state record, then pull the plug.
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary.autoscale_state().is_none_or(|a| a.scale_ups < 1) {
            assert!(
                Instant::now() < deadline,
                "the reconciler never scaled up off the floor"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = primary.snapshot_now().expect("socket headends snapshot");
        assert!(
            !snap.job_queries.is_empty(),
            "the job must outlive the snapshot cut"
        );
        let pre = snap.autoscale.expect("snapshot carries the record");
        assert!(pre.scale_ups >= 1);
        assert!(pre.desired > policy.min_size, "scale-up left the floor");
        primary.crash();

        let standby =
            LiveOddci::start_standby(mk_config(addr), &snap).expect("standby adopts the snapshot");
        let adopted = standby
            .autoscale_state()
            .expect("autoscale config revives the reconciler");
        assert_eq!(
            adopted.desired, pre.desired,
            "desired state carries over verbatim"
        );
        assert!(adopted.scale_ups >= pre.scale_ups);

        // Let several reconcile ticks pass: the inherited cooldown must
        // fence any further action, so the standby cannot double-provision
        // the capacity the primary already requested.
        std::thread::sleep(Duration::from_millis(150));
        let later = standby
            .autoscale_state()
            .expect("reconciler still running on the standby");
        assert_eq!(
            later.scale_ups, pre.scale_ups,
            "standby re-provisioned capacity the primary already requested"
        );
        assert_eq!(later.desired, pre.desired);
        assert!(
            later.ticks > adopted.ticks,
            "the standby's reconciler is actually ticking"
        );

        let outcome = standby
            .wait_job(req, Duration::from_secs(120))
            .expect("job completes on the standby");
        assert_eq!(outcome.scores.len(), 64);

        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "no task lost across failover");
        assert_eq!(report.threads_failed, 0);
        for h in pnas {
            let rep = h
                .join()
                .expect("pna thread joins")
                .expect("pna survives the failover");
            assert_eq!(rep.epoch, 1, "every PNA re-acked at the standby's epoch");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
