//! The sharded multi-threaded live headend.
//!
//! The paper's Controller must "serve millions of tuned devices" over
//! individual direct channels (§3.2); a single sequential headend loop
//! serializes carousel publishing, heartbeat consolidation and task
//! dispatch behind one thread. This module splits the headend into
//! cooperating threads over bounded channels:
//!
//! * **carousel thread** — owns the broadcast bus and the instance→image
//!   map; everything that reaches the §3.1 broadcast channel goes through
//!   it (one publisher, exactly like a real carousel injector);
//! * **N controller shards** — each owns a private
//!   [`oddci_core::Controller`] covering a disjoint slice of
//!   node membership ([`shard_of`](oddci_core::sharded::shard_of) of the
//!   node id), with its own heartbeat ledger, loss detection and
//!   recomposition. Shards sign from disjoint message-id namespaces so
//!   PNA carousel-repeat dedup never drops a sibling shard's message;
//! * **D dispatch workers** — a task-dispatch pool in front of the shared
//!   Backend, behind a sharded work queue (node id → queue). Workers
//!   serve *batches* of tasks per round trip
//!   ([`Backend::fetch_batch`](oddci_core::Backend::fetch_batch)), which
//!   is where the throughput over the single loop comes from: one channel
//!   round trip amortizes across `batch` tasks.
//!
//! Shared job state (Backend, Provider, per-job queries/scores) lives in
//! a `Hub` behind one mutex. Everything done under it on a fetch or a
//! result is indexed by the dense task id: Backend slots, query table,
//! score table. The locking rule that keeps this
//! deadlock-free: **never send on a channel while holding the hub lock**
//! — every handler computes under the lock, drops it, then sends.
//!
//! Shutdown order (the barrier): the runtime publishes `Shutdown` on the
//! bus and joins every node first, then dispatch workers, then shards,
//! then the carousel — so every thread that might still *receive* from a
//! channel outlives every thread that might still *send* on it.

use crate::bus::BroadcastBus;
use crate::image::{AlignmentImage, LiveBroadcast};
use crate::runtime::{wall_now, BusMsg, LiveConfig, TaskBatchReply};
use crate::snapshot::{ImageExport, SnapshotState};
use oddci_check::sync::{bounded, unbounded, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{Reconciler, ScaleDecision, ScaleInputs};
use oddci_core::backend::Backend;
use oddci_core::controller::{
    Controller, ControllerOutput, ControllerPolicy, ControllerState, InstanceRequest,
};
use oddci_core::messages::{ControlMessage, Heartbeat, HeartbeatReply};
use oddci_core::provider::{JobReport, Provider, ProviderRequest};
use oddci_core::sharded::split_target;
use oddci_faults::FaultInjector;
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{HeartbeatConfig, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId};
use oddci_wire::Waker;
use oddci_workload::Job;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Capacity of each shard's and dispatch worker's inbox. Senders block
/// when a queue is full — backpressure, not unbounded memory.
const QUEUE_CAP: usize = 1024;
/// Capacity of the carousel thread's inbox (control traffic is sparse).
const CAROUSEL_CAP: usize = 256;
/// How long a snapshot export/import waits for a shard or the carousel
/// to answer before declaring the headend unhealthy.
const EXPORT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Where a shard or dispatch worker sends its answer. A request that
/// arrived over the wire carries the serving loop's [`Waker`], rung after
/// the send so the loop relays the answer at once; in-process callers
/// convert a bare sender and pass none.
pub(crate) struct Reply<T> {
    tx: Sender<T>,
    waker: Option<Waker>,
}

impl<T> Reply<T> {
    /// A reply that wakes `waker` once sent.
    pub(crate) fn waking(tx: Sender<T>, waker: Waker) -> Reply<T> {
        Reply {
            tx,
            waker: Some(waker),
        }
    }

    /// Sends the answer, then rings the waker if there is one. A
    /// requester that gave up (receiver dropped) is neither answered nor
    /// woken.
    pub(crate) fn send(self, value: T) {
        if self.tx.send(value).is_ok() {
            if let Some(waker) = &self.waker {
                waker.wake();
            }
        }
    }
}

impl<T> From<Sender<T>> for Reply<T> {
    fn from(tx: Sender<T>) -> Reply<T> {
        Reply { tx, waker: None }
    }
}

/// Traffic into the snapshot writer thread.
pub(crate) enum SnapshotMsg {
    /// A job just finished: cut now instead of at the next interval, so
    /// the finished job is durable as soon as its report is.
    Cut,
    /// Stop the writer. With `flush` (a clean shutdown) it first cuts
    /// once more if a job finished after its last cut — a `Cut` still
    /// in flight; without it (a crash) it exits at once.
    Stop { flush: bool },
}

/// Traffic into the carousel thread.
pub(crate) enum CarouselMsg {
    /// Remember the image to attach to this instance's wakeups.
    Register {
        instance: InstanceId,
        image: Arc<AlignmentImage>,
    },
    /// Publish a signed control message (from any shard).
    Publish(oddci_core::messages::SignedMessage),
    /// Export the registered image recipes for a durability snapshot.
    Export {
        reply: Sender<Vec<(InstanceId, ImageExport)>>,
    },
    Shutdown,
}

/// Traffic into one controller shard.
pub(crate) enum ShardMsg {
    /// A heartbeat from a node this shard owns.
    Heartbeat {
        hb: Heartbeat,
        reply: Reply<HeartbeatReply>,
    },
    /// Admit an instance (coordinator-allocated id, per-shard target).
    Admit {
        instance: InstanceId,
        request: InstanceRequest,
    },
    /// Dismantle an instance; only the home shard publishes the reset.
    Dismantle {
        instance: InstanceId,
        publish: bool,
    },
    /// Steer this shard's slice of an instance to a new per-shard target
    /// (autoscale reconciliation). Growth rides the next tick's
    /// recomposition wakeup; shrinking trims lazily via heartbeat
    /// replies.
    Resize {
        instance: InstanceId,
        target: u64,
    },
    /// Spot-style airtime revocation: the broadcaster reclaimed the
    /// channel, so every member of the instance is evicted at once and
    /// their in-flight tasks re-queued.
    Revoke {
        instance: InstanceId,
    },
    /// Export this shard's Controller state for a durability snapshot.
    Export {
        reply: Sender<ControllerState>,
    },
    /// Replace this shard's Controller state from a snapshot (standby
    /// adoption); the reply is the completion barrier.
    Import {
        state: ControllerState,
        reply: Sender<()>,
    },
    Shutdown,
}

/// Traffic into one dispatch worker.
pub(crate) enum DispatchMsg {
    /// A node asks for up to `max` tasks of its instance's job.
    Request {
        instance: InstanceId,
        node: NodeId,
        max: usize,
        reply: Reply<TaskBatchReply>,
    },
    /// A node uploads a batch of results.
    Results {
        job: JobId,
        node: NodeId,
        results: Vec<(TaskId, i32)>,
    },
    Shutdown,
}

/// One job's reported scores, indexed by [`TaskId::index`].
struct JobScores {
    by_task: Vec<Option<i32>>,
    /// Tasks with a score.
    scored: u64,
}

impl JobScores {
    fn new(tasks: usize) -> JobScores {
        JobScores {
            by_task: vec![None; tasks],
            scored: 0,
        }
    }

    /// Records the score a node reported for `task`. An id outside the
    /// job is dropped.
    fn record(&mut self, task: TaskId, score: i32) {
        if let Some(slot) = self.by_task.get_mut(task.index()) {
            self.scored += u64::from(slot.replace(score).is_none());
        }
    }

    /// The recorded scores in ascending task order.
    fn entries(by_task: &[Option<i32>]) -> impl Iterator<Item = (TaskId, i32)> + '_ {
        (0..)
            .zip(by_task)
            .filter_map(|(i, score)| score.map(|score| (TaskId::new(i), score)))
    }
}

/// Job state shared by dispatch workers, shards and the coordinator.
struct Hub {
    backend: Backend,
    provider: Provider,
    instance_job: BTreeMap<InstanceId, JobId>,
    job_instance: BTreeMap<JobId, InstanceId>,
    job_queries: BTreeMap<JobId, Vec<Arc<Vec<u8>>>>,
    job_scores: BTreeMap<JobId, JobScores>,
    /// Wakeup broadcasts published per instance (sum over shards), for
    /// the Provider's report.
    wakeups: BTreeMap<InstanceId, u32>,
    /// Jobs this headend has finished; the snapshot writer compares it
    /// with the count as of its last cut.
    jobs_finished: u64,
}

/// Handles to the sharded headend's threads and channels.
pub(crate) struct ShardedHeadend {
    hub: Arc<Mutex<Hub>>,
    carousel_tx: Sender<CarouselMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    dispatch_txs: Vec<Sender<DispatchMsg>>,
    carousel: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    dispatch_threads: Vec<JoinHandle<()>>,
    /// The snapshot writer's inbox, when the config asks for snapshots.
    /// Dispatch workers hold senders to kick a cut on job completion.
    snapshot_inbox: Option<(Sender<SnapshotMsg>, Receiver<SnapshotMsg>)>,
    next_instance: AtomicU64,
    start: Instant,
}

impl ShardedHeadend {
    /// Spawns the carousel thread, `shards` controller shards and
    /// `dispatch` dispatch workers.
    pub(crate) fn start(
        config: &LiveConfig,
        shards: usize,
        dispatch: usize,
        bus: Arc<BroadcastBus<BusMsg>>,
        start: Instant,
        injector: Arc<FaultInjector>,
    ) -> ShardedHeadend {
        assert!(shards > 0 && dispatch > 0, "validated by LiveConfig");
        let tele = config.telemetry.clone();
        // Send-sensitive: the module-level locking rule ("never send on a
        // channel while holding the hub lock") is enforced at runtime —
        // under ODDCI_CHECK=1 any `Sender::send` on a thread holding this
        // lock is reported as a violation.
        let hub = Arc::new(Mutex::named_send_sensitive(
            Hub {
                backend: Backend::new(),
                provider: Provider::new(),
                instance_job: BTreeMap::new(),
                job_instance: BTreeMap::new(),
                job_queries: BTreeMap::new(),
                job_scores: BTreeMap::new(),
                wakeups: BTreeMap::new(),
                jobs_finished: 0,
            },
            "live.hub",
        ));

        let (carousel_tx, carousel_rx) = bounded(CAROUSEL_CAP);
        // Streaming-sink lane layout: carousel on lane 0, controller
        // shard `i` on lane `1 + i`, dispatch worker `j` on lane
        // `1 + shards + j`. Every headend thread gets a lane-pinned
        // telemetry handle, so their trace offers enqueue into disjoint
        // queues and never contend on a sink mutex (no-op without a
        // sink). Node threads keep the unpinned handle and spread by
        // track id.
        let carousel = {
            let hub = Arc::clone(&hub);
            let tele = tele.with_sink_lane(0);
            std::thread::spawn(move || carousel_main(carousel_rx, bus, hub, start, tele))
        };

        // Per-shard Controller policy: same constants as the single loop,
        // but the assumed audience is this shard's expected slice and
        // recomposition waits for a live idle node (a saturated or empty
        // slice must not spam the carousel every tick).
        let policy = ControllerPolicy {
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_micros(config.heartbeat_interval.as_micros() as u64),
                // Generous: live nodes block while computing batches.
                miss_threshold: 50,
                message_bytes: 128,
            },
            sizing_slack: 1.0,
            recompose_threshold: 0.99,
            assumed_audience: (config.nodes / shards as u64).max(1),
            recompose_requires_idle: true,
        };

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_threads = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = bounded(QUEUE_CAP);
            shard_txs.push(tx);
            let key = config.key.clone();
            let policy = policy.clone();
            let tick = config.controller_tick;
            let carousel_tx = carousel_tx.clone();
            let hub = Arc::clone(&hub);
            let tele = tele.with_sink_lane(1 + index);
            shard_threads.push(std::thread::spawn(move || {
                shard_main(
                    index,
                    shards,
                    key,
                    policy,
                    tick,
                    rx,
                    carousel_tx,
                    hub,
                    start,
                    tele,
                )
            }));
        }

        // Unbounded: kicks are one per finished job, and the writer
        // coalesces whatever has queued by the time it cuts.
        let snapshot_inbox = config.snapshot_dir.as_ref().map(|_| unbounded());
        let mut dispatch_txs = Vec::with_capacity(dispatch);
        let mut dispatch_threads = Vec::with_capacity(dispatch);
        for index in 0..dispatch {
            let (tx, rx) = bounded(QUEUE_CAP);
            dispatch_txs.push(tx);
            let hub = Arc::clone(&hub);
            let shard_txs = shard_txs.clone();
            let snapshot_tx = snapshot_inbox.as_ref().map(|(tx, _)| tx.clone());
            let inj = Arc::clone(&injector);
            let tele = tele.with_sink_lane(1 + shards + index);
            dispatch_threads.push(std::thread::spawn(move || {
                dispatch_main(index, rx, hub, shard_txs, snapshot_tx, inj, start, tele)
            }));
        }

        ShardedHeadend {
            hub,
            carousel_tx,
            shard_txs,
            dispatch_txs,
            carousel: Some(carousel),
            shard_threads,
            dispatch_threads,
            snapshot_inbox,
            next_instance: AtomicU64::new(0),
            start,
        }
    }

    /// Senders for routing node traffic (heartbeats by shard, task
    /// requests/results by dispatch queue).
    pub(crate) fn node_links(&self) -> (Vec<Sender<ShardMsg>>, Vec<Sender<DispatchMsg>>) {
        (self.shard_txs.clone(), self.dispatch_txs.clone())
    }

    /// The snapshot writer's inbox (sender for stop requests, receiver
    /// for the writer), or `None` when the config asks for no snapshots.
    pub(crate) fn snapshot_inbox(&self) -> Option<(Sender<SnapshotMsg>, Receiver<SnapshotMsg>)> {
        self.snapshot_inbox.clone()
    }

    /// A detached handle the snapshot writer thread exports through.
    pub(crate) fn snapshot_handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            hub: Arc::clone(&self.hub),
            carousel_tx: self.carousel_tx.clone(),
            shard_txs: self.shard_txs.clone(),
            start: self.start,
        }
    }

    /// Replaces this headend's state from a snapshot: every shard's
    /// Controller, the carousel's image table and the hub's job state.
    /// Must run before node traffic arrives (standby adoption happens
    /// before the wire server binds).
    pub(crate) fn import_state(&self, snap: &SnapshotState) -> Result<(), String> {
        snap.validate()
            .map_err(|why| format!("snapshot cannot be adopted: {why}"))?;
        if snap.shards.len() != self.shard_txs.len() {
            return Err(format!(
                "snapshot has {} controller shards but this headend runs {} — \
                 message-id namespaces are per-shard, so the counts must match",
                snap.shards.len(),
                self.shard_txs.len()
            ));
        }
        for (tx, state) in self.shard_txs.iter().zip(&snap.shards) {
            let (rtx, rrx) = bounded(1);
            tx.send(ShardMsg::Import {
                state: state.clone(),
                reply: rtx,
            })
            .map_err(|_| "controller shard gone during import".to_string())?;
            rrx.recv_timeout(EXPORT_TIMEOUT)
                .map_err(|_| "controller shard did not acknowledge import".to_string())?;
        }
        for (instance, recipe) in &snap.images {
            self.carousel_tx
                .send(CarouselMsg::Register {
                    instance: *instance,
                    image: Arc::new(recipe.to_image()),
                })
                .map_err(|_| "carousel gone during import".to_string())?;
        }
        let now = wall_now(&self.start);
        {
            let mut hub = self.hub.lock();
            hub.backend.import_state(snap.backend.clone(), now);
            hub.provider.import_state(snap.provider.clone(), now);
            hub.instance_job = snap.instance_job.iter().copied().collect();
            hub.job_instance = snap
                .instance_job
                .iter()
                .map(|&(instance, job)| (job, instance))
                .collect();
            hub.job_queries = snap
                .job_queries
                .iter()
                .map(|(job, queries)| (*job, queries.iter().map(|q| Arc::new(q.clone())).collect()))
                .collect();
            hub.job_scores = snap
                .backend
                .jobs
                .iter()
                .map(|e| (e.job.id, JobScores::new(e.job.tasks.len())))
                .collect();
            for (job, scores) in &snap.job_scores {
                if let Some(dense) = hub.job_scores.get_mut(job) {
                    for &(task, score) in scores {
                        dense.record(task, score);
                    }
                }
            }
            hub.wakeups = snap.wakeups.iter().copied().collect();
        }
        let next_instance = snap
            .instance_job
            .iter()
            .map(|&(instance, _)| instance.raw() + 1)
            .max()
            .unwrap_or(0);
        self.next_instance.store(next_instance, Ordering::Relaxed);
        Ok(())
    }

    /// Re-applies `NodeLost` events recorded after a snapshot was cut:
    /// the crashed primary may have detected losses (re-queuing their
    /// assignments) that the snapshot predates. Replaying them means the
    /// standby re-queues immediately instead of waiting out its own
    /// miss-threshold window. Returns how many losses were applied.
    pub(crate) fn replay_node_losses(&self, nodes: &[NodeId]) -> u64 {
        let mut hub = self.hub.lock();
        let mut applied = 0u64;
        for &node in nodes {
            applied += u64::from(!hub.backend.node_lost(node).is_empty());
        }
        applied
    }

    /// Wall-clock runtime instant, in microseconds on this headend's
    /// clock (a standby's clock starts at adoption, not at the primary's
    /// boot — snapshot import rebases ages accordingly).
    pub(crate) fn now_us(&self) -> u64 {
        wall_now(&self.start).as_micros()
    }

    /// Provider requests still running. A standby uses this right after
    /// adoption to find the jobs it must keep waiting on.
    pub(crate) fn running_jobs(&self) -> Vec<ProviderRequest> {
        self.hub.lock().provider.running().collect()
    }

    /// Registers a job, admits its instance on every shard (split
    /// targets) and opens the Provider request. Runs on the caller's
    /// thread — the coordinator is whoever submits.
    pub(crate) fn submit(
        &self,
        job: Job,
        queries: Vec<Arc<Vec<u8>>>,
        image: Arc<AlignmentImage>,
        target: u64,
    ) -> ProviderRequest {
        let now = wall_now(&self.start);
        let job_id = job.id;
        let tasks = job.tasks.len();
        let instance = InstanceId::new(self.next_instance.fetch_add(1, Ordering::Relaxed));
        let req = InstanceRequest {
            image: job.image,
            image_size: job.image_size,
            target,
            requirements: Default::default(),
        };
        let request = {
            let mut hub = self.hub.lock();
            hub.backend.register_job(job, now);
            hub.job_queries.insert(job_id, queries);
            hub.job_scores.insert(job_id, JobScores::new(tasks));
            hub.instance_job.insert(instance, job_id);
            hub.job_instance.insert(job_id, instance);
            hub.provider.open_request(job_id, instance, target, now)
        };
        // Image first, then admissions: the carousel channel preserves
        // causal order, so every shard's wakeup finds the image mapped.
        let _ = self
            .carousel_tx
            .send(CarouselMsg::Register { instance, image });
        let targets = split_target(target, self.shard_txs.len());
        for (tx, shard_target) in self.shard_txs.iter().zip(targets) {
            let _ = tx.send(ShardMsg::Admit {
                instance,
                request: InstanceRequest {
                    target: shard_target,
                    ..req
                },
            });
        }
        request
    }

    /// The Provider's report (with per-task scores), once complete. The
    /// score map is built after the hub lock is dropped.
    pub(crate) fn report(
        &self,
        req: ProviderRequest,
    ) -> Option<(JobReport, BTreeMap<TaskId, i32>)> {
        let (report, by_task) = {
            let hub = self.hub.lock();
            let report = hub.provider.report(req)?;
            let by_task = hub
                .job_scores
                .get(&report.job)
                .map(|s| s.by_task.clone())
                .unwrap_or_default();
            (report, by_task)
        };
        Some((report, JobScores::entries(&by_task).collect()))
    }

    /// Stops dispatch workers, shards and the carousel — in that order,
    /// so receivers outlive senders — joining every thread. Returns the
    /// number of tasks in no ledger (always 0 unless bookkeeping broke)
    /// and how many headend threads exited by panic instead of a clean
    /// return (a panicked thread's ledger contribution is unknown, so
    /// the first number may undercount when the second is nonzero).
    ///
    /// The runtime must have joined every node thread first.
    pub(crate) fn shutdown(mut self) -> (u64, u64) {
        let mut failed = 0u64;
        for tx in &self.dispatch_txs {
            let _ = tx.send(DispatchMsg::Shutdown);
        }
        for h in self.dispatch_threads.drain(..) {
            failed += u64::from(h.join().is_err());
        }
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for h in self.shard_threads.drain(..) {
            failed += u64::from(h.join().is_err());
        }
        let _ = self.carousel_tx.send(CarouselMsg::Shutdown);
        if let Some(h) = self.carousel.take() {
            failed += u64::from(h.join().is_err());
        }
        let hub = self.hub.lock();
        let unaccounted = hub
            .job_instance
            .keys()
            .map(|&job| hub.backend.unaccounted_tasks(job))
            .sum();
        (unaccounted, failed)
    }
}

// ---------------------------------------------------------------------
// Snapshot export
// ---------------------------------------------------------------------

/// Channels and shared state a snapshot writer needs to cut a consistent
/// export without owning the headend. Cloned senders keep the export path
/// off the headend's own threads: the writer asks each shard and the
/// carousel over their inboxes and reads the hub under its lock.
pub(crate) struct SnapshotHandle {
    hub: Arc<Mutex<Hub>>,
    carousel_tx: Sender<CarouselMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    start: Instant,
}

impl SnapshotHandle {
    /// Jobs this headend has finished so far. Read before a cut, it is a
    /// lower bound on the finished jobs the cut holds.
    pub(crate) fn jobs_finished(&self) -> u64 {
        self.hub.lock().jobs_finished
    }

    /// Cuts one snapshot at the current instant. Returns `None` when the
    /// headend is winding down (a channel closed mid-export) — callers
    /// just skip that cycle.
    ///
    /// Consistency: the Backend/Provider/job tables are read atomically
    /// under the hub lock — that is the task-accounting ground truth. The
    /// per-shard Controller states are collected just before, so they can
    /// trail the hub by the export's own latency; membership and
    /// heartbeat ledgers re-converge from live traffic after adoption, so
    /// that skew is harmless (and the task ledger never is skewed).
    pub(crate) fn export(&self, epoch: u64, wire: (u64, Vec<u64>)) -> Option<SnapshotState> {
        let mut shards = Vec::with_capacity(self.shard_txs.len());
        for tx in &self.shard_txs {
            let (rtx, rrx) = bounded(1);
            tx.send(ShardMsg::Export { reply: rtx }).ok()?;
            shards.push(rrx.recv_timeout(EXPORT_TIMEOUT).ok()?);
        }
        let (rtx, rrx) = bounded(1);
        self.carousel_tx
            .send(CarouselMsg::Export { reply: rtx })
            .ok()?;
        let images = rrx.recv_timeout(EXPORT_TIMEOUT).ok()?;

        let now = wall_now(&self.start);
        let hub = self.hub.lock();
        let snap = SnapshotState {
            epoch,
            taken_at_us: now.as_micros(),
            shards,
            backend: hub.backend.export_state(now),
            provider: hub.provider.export_state(now),
            instance_job: hub.instance_job.iter().map(|(&i, &j)| (i, j)).collect(),
            job_queries: hub
                .job_queries
                .iter()
                .map(|(&job, queries)| (job, queries.iter().map(|q| q.as_ref().clone()).collect()))
                .collect(),
            job_scores: hub
                .job_scores
                .iter()
                .map(|(&job, scores)| (job, JobScores::entries(&scores.by_task).collect()))
                .collect(),
            wakeups: hub.wakeups.iter().map(|(&i, &w)| (i, w)).collect(),
            images,
            wire_next_node: wire.0,
            wire_nodes: wire.1,
            // Filled in by the runtime, which owns the shared reconciler.
            autoscale: None,
        };
        Some(snap)
    }
}

// ---------------------------------------------------------------------
// Autoscale reconciler thread
// ---------------------------------------------------------------------

/// What the reconciler thread needs to observe and steer the headend:
/// the hub (queue depth, throughput, running instances) and the shard
/// inboxes (resize / revoke commands).
pub(crate) struct ReconcilerLinks {
    hub: Arc<Mutex<Hub>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    start: Instant,
}

impl ShardedHeadend {
    /// Handles for [`spawn_reconciler`].
    pub(crate) fn reconciler_links(&self) -> ReconcilerLinks {
        ReconcilerLinks {
            hub: Arc::clone(&self.hub),
            shard_txs: self.shard_txs.clone(),
            start: self.start,
        }
    }
}

/// Spawns the elastic-sizing control loop. Every `interval` it samples
/// the Backend queue depth, the per-shard heartbeat-lag and membership
/// gauges and the task-fetch p99, feeds them to the shared
/// [`Reconciler`], and applies the decision by resizing every running
/// instance (per-shard split targets). An `airtime-revoked` fault roll
/// first evicts every member ([`ShardMsg::Revoke`]); the reconciler then
/// restores the lost capacity as a [`ScaleDecision::Replace`], bypassing
/// its cooldown. Dropping the returned sender stops the thread.
///
/// Locking rule: the hub lock and the reconciler lock are each dropped
/// before any channel send.
pub(crate) fn spawn_reconciler(
    links: ReconcilerLinks,
    shared: Arc<Mutex<Reconciler>>,
    interval: std::time::Duration,
    injector: Arc<FaultInjector>,
    tele: Telemetry,
) -> (Sender<()>, JoinHandle<()>) {
    let (tx, rx) = bounded::<()>(1);
    let thread = std::thread::spawn(move || {
        let shards = links.shard_txs.len();
        let lag_gauges: Vec<_> = (0..shards)
            .map(|i| {
                tele.registry()
                    .gauge(&format!("controller.heartbeat_lag.shard{i}"))
            })
            .collect();
        let member_gauges: Vec<_> = (0..shards)
            .map(|i| {
                tele.registry()
                    .gauge(&format!("controller.members.shard{i}"))
            })
            .collect();
        let desired_gauge = tele.registry().gauge("provider.desired_size");
        let queue_gauge = tele.registry().gauge("backend.queue_depth");
        let revocations = tele.registry().counter("faults.airtime_revoked");
        let cooldown = shared.lock().policy().cooldown;
        let mut last_sample = (wall_now(&links.start), 0u64);
        // At most one revocation per cooldown window: the fault plan rolls
        // per reconcile tick, and a 100%-rate window would otherwise evict
        // the replacement capacity as fast as it forms.
        let mut revoke_gate = SimTime::ZERO;
        loop {
            match rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            let begin = wall_now(&links.start);
            let (instances, queue_depth, completed) = {
                let hub = links.hub.lock();
                let done: u64 = hub.job_scores.values().map(|s| s.scored).sum();
                let instances: Vec<InstanceId> = hub
                    .backend
                    .open_jobs()
                    .iter()
                    .filter_map(|j| hub.job_instance.get(j).copied())
                    .collect();
                (instances, hub.backend.pending_total(), done)
            };

            // Spot-like reclamation: evict the whole membership, then let
            // the reconciler's Replace decision restore it.
            if !instances.is_empty() && begin >= revoke_gate && injector.airtime_revoked(begin) {
                for &instance in &instances {
                    for stx in &links.shard_txs {
                        let _ = stx.send(ShardMsg::Revoke { instance });
                    }
                }
                revocations.inc();
                shared.lock().observe_revocation();
                revoke_gate = begin + cooldown;
            }

            let elapsed = begin.since(last_sample.0).as_secs_f64();
            let tasks_per_sec = if elapsed > 0.0 {
                completed.saturating_sub(last_sample.1) as f64 / elapsed
            } else {
                0.0
            };
            last_sample = (begin, completed);
            let inputs = ScaleInputs {
                queue_depth: queue_depth as usize,
                heartbeat_lag: lag_gauges.iter().map(|g| g.get()).fold(0.0, f64::max),
                tasks_per_sec,
                fetch_p99: tele.phase_summary(Phase::TaskFetch).p99,
                current_size: member_gauges.iter().map(|g| g.get()).sum::<f64>() as usize,
            };
            let (decision, desired) = {
                let mut r = shared.lock();
                let d = r.tick(begin, &inputs);
                (d, r.desired())
            };
            desired_gauge.set(desired as f64);
            queue_gauge.set(queue_depth as f64);

            if decision.acted() {
                let targets = split_target(desired as u64, shards);
                for &instance in &instances {
                    for (stx, &target) in links.shard_txs.iter().zip(&targets) {
                        let _ = stx.send(ShardMsg::Resize { instance, target });
                    }
                }
            }
            let end = wall_now(&links.start);
            match decision {
                ScaleDecision::ScaleUp { to, .. } => {
                    tele.instant(
                        end.as_micros(),
                        Phase::ProviderScaleUp,
                        CONTROL_TRACK,
                        to as u64,
                    );
                }
                ScaleDecision::ScaleDown { to, .. } => {
                    tele.instant(
                        end.as_micros(),
                        Phase::ProviderScaleDown,
                        CONTROL_TRACK,
                        to as u64,
                    );
                }
                ScaleDecision::Replace { .. } | ScaleDecision::Hold => {}
            }
            tele.span(
                begin.as_micros(),
                end.as_micros(),
                Phase::ProviderReconcile,
                CONTROL_TRACK,
                desired as u64,
            );
        }
    });
    (tx, thread)
}

// ---------------------------------------------------------------------
// Carousel thread
// ---------------------------------------------------------------------

fn carousel_main(
    rx: Receiver<CarouselMsg>,
    bus: Arc<BroadcastBus<BusMsg>>,
    hub: Arc<Mutex<Hub>>,
    start: Instant,
    tele: Telemetry,
) {
    let mut images: BTreeMap<InstanceId, Arc<AlignmentImage>> = BTreeMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CarouselMsg::Register { instance, image } => {
                images.insert(instance, image);
            }
            CarouselMsg::Publish(signed) => {
                let (image, instance) = match signed.message {
                    ControlMessage::Wakeup(w) => {
                        *hub.lock().wakeups.entry(w.instance).or_insert(0) += 1;
                        (images.get(&w.instance).cloned(), w.instance)
                    }
                    ControlMessage::Reset(r) => {
                        images.remove(&r.instance);
                        (None, r.instance)
                    }
                };
                tele.instant(
                    wall_now(&start).as_micros(),
                    Phase::CarouselPublish,
                    CONTROL_TRACK,
                    instance.raw(),
                );
                bus.publish(&BusMsg::Control(LiveBroadcast { signed, image }));
            }
            CarouselMsg::Export { reply } => {
                let recipes = images
                    .iter()
                    .map(|(&instance, image)| (instance, ImageExport::from_image(image)))
                    .collect();
                let _ = reply.send(recipes);
            }
            CarouselMsg::Shutdown => return,
        }
    }
}

// ---------------------------------------------------------------------
// Controller shards
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn shard_main(
    index: usize,
    shards: usize,
    key: Vec<u8>,
    policy: ControllerPolicy,
    tick: std::time::Duration,
    rx: Receiver<ShardMsg>,
    carousel_tx: Sender<CarouselMsg>,
    hub: Arc<Mutex<Hub>>,
    start: Instant,
    tele: Telemetry,
) {
    // Disjoint message-id namespace: ids ≡ index (mod shards).
    let mut controller = Controller::with_id_namespace(&key, policy, index as u64, shards as u64);
    let lag_gauge = tele
        .registry()
        .gauge(&format!("controller.heartbeat_lag.shard{index}"));
    let members_gauge = tele
        .registry()
        .gauge(&format!("controller.members.shard{index}"));
    let mut last_tick = Instant::now();
    loop {
        match rx.recv_timeout(tick) {
            Ok(ShardMsg::Heartbeat { hb, reply }) => {
                let now = wall_now(&start);
                // Heartbeat lag: emission → consolidation, i.e. this
                // shard's backlog as seen by its nodes.
                lag_gauge.set(now.since(hb.sent_at).as_secs_f64());
                let outputs = controller.on_heartbeat(hb, now);
                let mut replies = apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                reply.send(replies.pop().unwrap_or(HeartbeatReply::Ack));
            }
            Ok(ShardMsg::Admit { instance, request }) => {
                let outputs = controller.admit_instance(instance, request, wall_now(&start));
                apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
            }
            Ok(ShardMsg::Dismantle { instance, publish }) => {
                if let Ok(outputs) = controller.dismantle(instance) {
                    if publish {
                        // One carousel reset reaches every shard's nodes;
                        // the other shards just flip to Dismantled and trim
                        // their own stragglers via heartbeat replies.
                        apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                    }
                }
            }
            Ok(ShardMsg::Resize { instance, target }) => {
                // Unknown or dismantled instances are fine to skip: the
                // reconciler races job completion by design.
                let _ = controller.resize(instance, target);
            }
            Ok(ShardMsg::Revoke { instance }) => {
                if let Ok(outputs) = controller.revoke_members(instance) {
                    // The evicted members' DirectResets have no in-flight
                    // heartbeat reply to ride, so they are telemetered and
                    // dropped here; NodeLost still re-queues every
                    // assignment, and the next tick's recomposition wakeup
                    // re-forms the membership.
                    apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                }
            }
            Ok(ShardMsg::Export { reply }) => {
                let _ = reply.send(controller.export_state(wall_now(&start)));
            }
            Ok(ShardMsg::Import { state, reply }) => {
                controller.import_state(state, wall_now(&start));
                let _ = reply.send(());
            }
            Ok(ShardMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        members_gauge.set(controller.total_members() as f64);
        if last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            let outputs = controller.tick(wall_now(&start));
            apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
        }
    }
}

/// Executes a shard Controller's side effects: broadcasts go to the
/// carousel thread, `NodeLost` re-queues via the shared Backend, direct
/// resets become heartbeat replies (returned to the caller).
fn apply_outputs(
    outputs: Vec<ControllerOutput>,
    carousel_tx: &Sender<CarouselMsg>,
    hub: &Arc<Mutex<Hub>>,
    start: &Instant,
    tele: &Telemetry,
) -> Vec<HeartbeatReply> {
    let mut replies = Vec::new();
    for out in outputs {
        match out {
            ControllerOutput::Broadcast(signed) => {
                let _ = carousel_tx.send(CarouselMsg::Publish(signed));
            }
            ControllerOutput::DirectReset { node, instance } => {
                tele.instant(
                    wall_now(start).as_micros(),
                    Phase::DirectReset,
                    node.raw(),
                    instance.raw(),
                );
                replies.push(HeartbeatReply::Reset(instance));
            }
            ControllerOutput::NodeLost { node, .. } => {
                tele.instant(wall_now(start).as_micros(), Phase::NodeLost, node.raw(), 0);
                let _ = hub.lock().backend.node_lost(node);
            }
        }
    }
    replies
}

// ---------------------------------------------------------------------
// Dispatch workers
// ---------------------------------------------------------------------

/// One dispatch worker. `snapshot_tx`, when snapshots are on, is the
/// writer's inbox, kicked each time this worker finishes a job.
#[allow(clippy::too_many_arguments)]
fn dispatch_main(
    index: usize,
    rx: Receiver<DispatchMsg>,
    hub: Arc<Mutex<Hub>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    snapshot_tx: Option<Sender<SnapshotMsg>>,
    injector: Arc<FaultInjector>,
    start: Instant,
    tele: Telemetry,
) {
    let depth_gauge = tele
        .registry()
        .gauge(&format!("dispatch.queue_depth.shard{index}"));
    let backend_depth = tele.registry().gauge("backend.queue_depth");
    while let Ok(msg) = rx.recv() {
        depth_gauge.set(rx.len() as f64);
        match msg {
            DispatchMsg::Request {
                instance,
                node,
                max,
                reply,
            } => {
                // Fault hook: a stalled Backend answers nothing; the
                // node's reply timeout fires and it retries with backoff.
                if injector.backend_stalled(wall_now(&start)).is_some() {
                    drop(reply);
                    continue;
                }
                let response = {
                    let mut hub = hub.lock();
                    fetch_batch_reply(&mut hub, instance, node, max)
                };
                reply.send(response);
            }
            DispatchMsg::Results { job, node, results } => {
                let dismantle = {
                    let mut guard = hub.lock();
                    let hub = &mut *guard;
                    let now = wall_now(&start);
                    let mut scores = hub.job_scores.get_mut(&job);
                    for &(task, score) in &results {
                        let _ = hub.backend.complete_task(job, task, node, now);
                        if let Some(scores) = scores.as_mut() {
                            scores.record(task, score);
                        }
                    }
                    backend_depth.set(hub.backend.pending_total() as f64);
                    if hub.backend.is_complete(job) {
                        finish_job(hub, job, now, &tele)
                    } else {
                        None
                    }
                };
                // Locking rule: the hub guard is dropped before these sends.
                if let Some(instance) = dismantle {
                    for (i, tx) in shard_txs.iter().enumerate() {
                        let _ = tx.send(ShardMsg::Dismantle {
                            instance,
                            publish: i == 0,
                        });
                    }
                    if let Some(tx) = &snapshot_tx {
                        let _ = tx.send(SnapshotMsg::Cut);
                    }
                }
            }
            DispatchMsg::Shutdown => return,
        }
    }
}

/// Cuts a batch for `node` under the hub lock.
fn fetch_batch_reply(
    hub: &mut Hub,
    instance: InstanceId,
    node: NodeId,
    max: usize,
) -> TaskBatchReply {
    let Some(&job) = hub.instance_job.get(&instance) else {
        return TaskBatchReply::Drained;
    };
    let batch = match hub.backend.fetch_batch(job, node, max) {
        Ok(batch) if !batch.is_empty() => batch,
        _ => return TaskBatchReply::Drained,
    };
    let queries = &hub.job_queries[&job];
    let tasks = batch
        .into_iter()
        .map(|task| {
            let query = queries[task.id.index()].clone();
            (task, query)
        })
        .collect();
    TaskBatchReply::Assigned { job, tasks }
}

/// Completes the Provider request for a finished job and reports which
/// instance to dismantle. Runs under the hub lock; the caller sends the
/// per-shard dismantles after dropping it.
fn finish_job(hub: &mut Hub, job: JobId, now: SimTime, tele: &Telemetry) -> Option<InstanceId> {
    let req = hub.provider.request_for_job(job)?;
    let instance = *hub.job_instance.get(&job)?;
    let wakeups = hub.wakeups.get(&instance).copied().unwrap_or(0);
    let completed = hub.backend.completed_count(job);
    let requeues = hub.backend.requeue_count(job);
    hub.provider
        .complete(req, now, completed, requeues, wakeups)?;
    hub.jobs_finished += 1;
    if let Some(report) = hub.provider.report(req) {
        let end = now.as_micros();
        tele.span(
            end.saturating_sub(report.makespan.as_micros()),
            end,
            Phase::JobRun,
            CONTROL_TRACK,
            job.raw(),
        );
    }
    Some(instance)
}
