//! The Backend (§3.1): application-specific management — task scheduling,
//! input provision, result collection.
//!
//! The paper assumes a suitably provisioned Backend whose result
//! post-processing time is negligible; ours is a pull-model bag-of-tasks
//! scheduler. Nodes request work over their direct channels; the Backend
//! hands out pending tasks, tracks assignments, and re-queues the tasks of
//! nodes the Controller declares lost.
//!
//! Task ids of a job are dense (`0..n`), so each job's ledger is one slot
//! per task indexed by [`TaskId::index`]: a fetch, a result and a
//! re-queue touch only the slots involved, never an ordered map.

use oddci_types::{JobId, NodeId, OddciError, Result, SimDuration, SimTime, TaskId};
use oddci_workload::{Job, Task};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Reply to a node's task request.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome {
    /// Run this task.
    Assigned(Task),
    /// No work left (the job is draining or complete); idle until reset.
    Drained,
}

/// Where one task stands in its job's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// In the pending queue.
    Pending,
    /// Handed to this node; no result yet.
    Assigned(NodeId),
    /// Result accepted.
    Done,
}

#[derive(Debug)]
struct JobState {
    job: Job,
    /// Unassigned tasks in hand-out order.
    pending: VecDeque<TaskId>,
    /// Every task's ledger state, indexed by [`TaskId::index`].
    slots: Vec<Slot>,
    /// Tasks in [`Slot::Assigned`].
    assigned: u64,
    /// Tasks in [`Slot::Done`].
    completed: u64,
    /// Each node's most recent batch, reused from fetch to fetch. An
    /// entry is still held only while its slot names the node: a result
    /// marks the slot done and leaves the entry behind.
    batches: HashMap<NodeId, Vec<TaskId>>,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    /// Tasks re-queued after node loss (accounting).
    requeues: u64,
}

impl JobState {
    /// Re-queues every task `node` still holds. Returns how many went
    /// back.
    fn recycle_node(&mut self, node: NodeId) -> u64 {
        let Some(held) = self.batches.get_mut(&node) else {
            return 0;
        };
        let recycled = requeue_held(held, node, &mut self.slots, &mut self.pending);
        self.assigned -= recycled;
        self.requeues += recycled;
        recycled
    }
}

/// Puts the tasks of `held` whose slot still names `node` back at the
/// front of `pending` (they have waited longest) and empties `held`.
/// They are pushed in ascending id order, one at a time, so the highest
/// id ends up first. Returns how many went back. A free function so a
/// fetch can requeue and refill the node's batch with one map lookup.
fn requeue_held(
    held: &mut Vec<TaskId>,
    node: NodeId,
    slots: &mut [Slot],
    pending: &mut VecDeque<TaskId>,
) -> u64 {
    held.retain(|t| slots[t.index()] == Slot::Assigned(node));
    held.sort_unstable();
    for &task in held.iter() {
        slots[task.index()] = Slot::Pending;
        pending.push_front(task);
    }
    let recycled = held.len() as u64;
    held.clear();
    recycled
}

/// Serializable snapshot of one job's scheduling ledger.
///
/// The full [`Job`] (task definitions included) travels in the snapshot so
/// a standby can keep cutting batches without re-submission. Assignment
/// order inside `pending` is preserved — re-queued tasks sit at the front
/// and must stay there across a failover. Per-node batches are *not*
/// exported: they are derivable from `assigned` and rebuilt on import.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobExport {
    /// The job definition, tasks included.
    pub job: Job,
    /// Unassigned tasks in queue order.
    pub pending: Vec<TaskId>,
    /// In-flight assignments.
    pub assigned: Vec<(TaskId, NodeId)>,
    /// Completed tasks.
    pub completed: Vec<TaskId>,
    /// How long before the snapshot the job was submitted.
    pub submitted_age: SimDuration,
    /// How long before the snapshot it completed, if it did.
    pub completed_age: Option<SimDuration>,
    /// Tasks re-queued after node losses so far.
    pub requeues: u64,
}

impl JobExport {
    /// Checks that the Backend can adopt this ledger: task `i` of the job
    /// has id `i`, and every task id sits in exactly one of `pending`,
    /// `assigned` and `completed`. A checksum-valid snapshot can still
    /// fail this; adopting it would index past the job's tasks or lose
    /// some.
    pub fn validate(&self) -> std::result::Result<(), &'static str> {
        let tasks = &self.job.tasks;
        if tasks.iter().enumerate().any(|(i, t)| t.id.index() != i) {
            return Err("task ids are not 0..n in order");
        }
        let mut listed = vec![false; tasks.len()];
        let mut list = |task: TaskId| {
            let seen = listed
                .get_mut(task.index())
                .ok_or("task id beyond the job's task count")?;
            if std::mem::replace(seen, true) {
                return Err("task in more than one ledger entry");
            }
            Ok(())
        };
        self.pending.iter().try_for_each(|&task| list(task))?;
        self.assigned.iter().try_for_each(|&(task, _)| list(task))?;
        self.completed.iter().try_for_each(|&task| list(task))?;
        // No id listed twice, so fewer entries than tasks leaves one out.
        if self.pending.len() + self.assigned.len() + self.completed.len() < tasks.len() {
            return Err("task in no ledger");
        }
        Ok(())
    }
}

/// Complete exported Backend state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendState {
    /// Every registered job's ledger.
    pub jobs: Vec<JobExport>,
}

/// The Backend.
#[derive(Debug, Default)]
pub struct Backend {
    jobs: BTreeMap<JobId, JobState>,
    /// Pending tasks summed over every job (a finished job has none).
    pending_total: u64,
}

impl Backend {
    /// Creates an empty Backend.
    pub fn new() -> Self {
        Backend::default()
    }

    /// Registers a job for scheduling, timestamping its submission.
    pub fn register_job(&mut self, job: Job, now: SimTime) {
        let pending: VecDeque<TaskId> = job.tasks.iter().map(|t| t.id).collect();
        let state = JobState {
            slots: vec![Slot::Pending; job.tasks.len()],
            job,
            pending,
            assigned: 0,
            completed: 0,
            batches: HashMap::new(),
            submitted_at: now,
            completed_at: None,
            requeues: 0,
        };
        self.pending_total += state.pending.len() as u64;
        if let Some(old) = self.jobs.insert(state.job.id, state) {
            self.pending_total -= old.pending.len() as u64;
        }
    }

    /// A node asks for work on `job`.
    ///
    /// A fresh request from a node the Backend still believes busy means
    /// the node lost its previous assignment without the Controller
    /// noticing yet (it power-cycled within the heartbeat deadline): the
    /// stale task is re-queued first, exactly as if the loss had been
    /// reported.
    pub fn fetch_task(&mut self, job: JobId, node: NodeId) -> Result<TaskOutcome> {
        let mut batch = self.fetch_batch(job, node, 1)?;
        match batch.pop() {
            Some(task) => Ok(TaskOutcome::Assigned(task)),
            None => Ok(TaskOutcome::Drained),
        }
    }

    /// A node asks for up to `max` tasks of `job` in one round trip.
    ///
    /// The batched form of [`fetch_task`](Self::fetch_task), used by the
    /// sharded live headend's dispatch pool to amortize per-task channel
    /// round trips. The same stale-assignment rule applies: any task the
    /// Backend still believes this node holds is re-queued before the new
    /// batch is cut. An empty vec means the job is drained.
    pub fn fetch_batch(&mut self, job: JobId, node: NodeId, max: usize) -> Result<Vec<Task>> {
        let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
        let held = state.batches.entry(node).or_default();
        let recycled = requeue_held(held, node, &mut state.slots, &mut state.pending);
        state.requeues += recycled;
        let take = max.min(state.pending.len());
        let mut batch = Vec::with_capacity(take);
        for task_id in state.pending.drain(..take) {
            state.slots[task_id.index()] = Slot::Assigned(node);
            held.push(task_id);
            batch.push(state.job.tasks[task_id.index()].clone());
        }
        state.assigned = state.assigned - recycled + take as u64;
        self.pending_total = self.pending_total + recycled - take as u64;
        Ok(batch)
    }

    /// A node uploads the result of `task`. Returns `true` when this was
    /// the job's last outstanding task. The first result for an open task
    /// counts whichever node sends it; later ones are duplicates.
    pub fn complete_task(
        &mut self,
        job: JobId,
        task: TaskId,
        _node: NodeId,
        now: SimTime,
    ) -> Result<bool> {
        let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
        let Some(slot) = state.slots.get_mut(task.index()) else {
            return Err(OddciError::UnknownTask { job, task });
        };
        match *slot {
            // A duplicate upload (a zombie's, after the re-run finished).
            Slot::Done => return Ok(state.completed_at.is_some()),
            // The assignee — or a node whose assignment was re-queued
            // after a loss declaration and handed on (it came back):
            // either way the work is done.
            Slot::Assigned(_) => state.assigned -= 1,
            // Such a node's result while the task still waits: accept it.
            Slot::Pending => {
                state.pending.retain(|&t| t != task);
                self.pending_total -= 1;
            }
        }
        *slot = Slot::Done;
        state.completed += 1;
        if state.completed == state.job.tasks.len() as u64 {
            state.completed_at = Some(now);
            return Ok(true);
        }
        Ok(false)
    }

    /// The Controller declared `node` lost: re-queue its in-flight tasks
    /// (front of the queue — they have waited longest). Returns the jobs
    /// whose queues were refilled.
    pub fn node_lost(&mut self, node: NodeId) -> Vec<JobId> {
        let mut affected = Vec::new();
        for (&job_id, state) in &mut self.jobs {
            let recycled = state.recycle_node(node);
            if recycled > 0 {
                self.pending_total += recycled;
                affected.push(job_id);
            }
        }
        affected
    }

    /// True once every task of `job` completed.
    pub fn is_complete(&self, job: JobId) -> bool {
        self.jobs
            .get(&job)
            .is_some_and(|s| s.completed_at.is_some())
    }

    /// The job's makespan (completion − submission), once complete.
    pub fn makespan(&self, job: JobId) -> Option<SimDuration> {
        let s = self.jobs.get(&job)?;
        s.completed_at.map(|done| done - s.submitted_at)
    }

    /// Completed-task count.
    pub fn completed_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.completed)
    }

    /// Pending (unassigned) task count.
    pub fn pending_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.pending.len() as u64)
    }

    /// Pending tasks summed over every open job — the Backend queue
    /// depth, kept as a running total so reading it costs nothing.
    pub fn pending_total(&self) -> u64 {
        self.pending_total
    }

    /// In-flight (assigned, not yet completed) task count.
    pub fn assigned_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.assigned)
    }

    /// Accounting check for shutdown barriers: how many of `job`'s tasks
    /// are in **no** ledger — neither pending, assigned to a node, nor
    /// completed. Any bookkeeping bug (a task orphaned by a lost node
    /// without a re-queue, a double pop) shows up here as a non-zero
    /// count; a healthy Backend always returns 0.
    pub fn unaccounted_tasks(&self, job: JobId) -> u64 {
        let Some(s) = self.jobs.get(&job) else {
            return 0;
        };
        let mut queued = vec![false; s.slots.len()];
        for task in &s.pending {
            queued[task.index()] = true;
        }
        s.slots
            .iter()
            .zip(&queued)
            .filter(|&(&slot, &queued)| slot == Slot::Pending && !queued)
            .count() as u64
    }

    /// Tasks re-queued after node losses.
    pub fn requeue_count(&self, job: JobId) -> u64 {
        self.jobs.get(&job).map_or(0, |s| s.requeues)
    }

    /// Total re-queues across every registered job.
    pub fn total_requeues(&self) -> u64 {
        self.jobs.values().map(|s| s.requeues).sum()
    }

    /// Jobs that still have unfinished tasks (pending or assigned).
    pub fn open_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, s)| s.completed_at.is_none())
            .map(|(&id, _)| id)
            .collect()
    }

    /// The registered job, if any.
    pub fn job(&self, job: JobId) -> Option<&Job> {
        self.jobs.get(&job).map(|s| &s.job)
    }

    /// Exports every job's ledger for a snapshot taken at `now`.
    /// `assigned` and `completed` list tasks in ascending id order.
    pub fn export_state(&self, now: SimTime) -> BackendState {
        BackendState {
            jobs: self
                .jobs
                .values()
                .map(|s| JobExport {
                    job: s.job.clone(),
                    pending: s.pending.iter().copied().collect(),
                    assigned: (0..)
                        .zip(&s.slots)
                        .filter_map(|(i, slot)| match *slot {
                            Slot::Assigned(node) => Some((TaskId::new(i), node)),
                            _ => None,
                        })
                        .collect(),
                    completed: (0..)
                        .zip(&s.slots)
                        .filter(|(_, &slot)| slot == Slot::Done)
                        .map(|(i, _)| TaskId::new(i))
                        .collect(),
                    submitted_age: now.since(s.submitted_at),
                    completed_age: s.completed_at.map(|t| now.since(t)),
                    requeues: s.requeues,
                })
                .collect(),
        }
    }

    /// Replaces all state from an exported snapshot, rebasing submission
    /// timestamps onto `now` (the adopting headend's clock).
    ///
    /// In-flight assignments survive verbatim: a node that finished its
    /// task during the failover window uploads to the standby and the
    /// result is accepted against the imported ledger; a node that died
    /// during the window is declared lost by the imported heartbeat ledger
    /// and its tasks re-queue here, so no task is ever unaccounted.
    ///
    /// Every job's ledger must pass [`JobExport::validate`] (snapshot
    /// decoding and standby adoption refuse any that does not).
    ///
    /// # Panics
    ///
    /// If a ledger names a task id beyond its job's task count.
    pub fn import_state(&mut self, state: BackendState, now: SimTime) {
        self.jobs = state
            .jobs
            .into_iter()
            .map(|e| {
                debug_assert_eq!(e.validate(), Ok(()), "job {} ledger", e.job.id.raw());
                let mut slots = vec![Slot::Pending; e.job.tasks.len()];
                let mut batches: HashMap<NodeId, Vec<TaskId>> = HashMap::new();
                for &(task, node) in &e.assigned {
                    slots[task.index()] = Slot::Assigned(node);
                    batches.entry(node).or_default().push(task);
                }
                for &task in &e.completed {
                    slots[task.index()] = Slot::Done;
                }
                (
                    e.job.id,
                    JobState {
                        pending: e.pending.into_iter().collect(),
                        slots,
                        assigned: e.assigned.len() as u64,
                        completed: e.completed.len() as u64,
                        batches,
                        submitted_at: now.saturating_sub(e.submitted_age),
                        completed_at: e.completed_age.map(|age| now.saturating_sub(age)),
                        requeues: e.requeues,
                        job: e.job,
                    },
                )
            })
            .collect();
        self.pending_total = self.jobs.values().map(|s| s.pending.len() as u64).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{DataSize, ImageId};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn job(n: u64) -> Job {
        let tasks = (0..n)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(100),
                    SimDuration::from_secs(10),
                    DataSize::from_bytes(100),
                )
            })
            .collect();
        Job::new(
            JobId::new(1),
            ImageId::new(1),
            DataSize::from_megabytes(1),
            tasks,
        )
    }

    #[test]
    fn fetch_assigns_in_order_then_drains() {
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        let TaskOutcome::Assigned(t0) = b.fetch_task(j, NodeId::new(10)).unwrap() else {
            panic!()
        };
        assert_eq!(t0.id, TaskId::new(0));
        let TaskOutcome::Assigned(t1) = b.fetch_task(j, NodeId::new(11)).unwrap() else {
            panic!()
        };
        assert_eq!(t1.id, TaskId::new(1));
        assert_eq!(
            b.fetch_task(j, NodeId::new(12)).unwrap(),
            TaskOutcome::Drained
        );
    }

    #[test]
    fn completion_detects_last_task() {
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_task(j, NodeId::new(10)).unwrap();
        b.fetch_task(j, NodeId::new(11)).unwrap();
        assert!(!b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(5))
            .unwrap());
        assert!(!b.is_complete(j));
        assert!(b
            .complete_task(j, TaskId::new(1), NodeId::new(11), SimTime::from_secs(9))
            .unwrap());
        assert!(b.is_complete(j));
        assert_eq!(b.makespan(j), Some(SimDuration::from_secs(9)));
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn unknown_job_errors() {
        let mut b = Backend::new();
        assert!(matches!(
            b.fetch_task(JobId::new(9), NodeId::new(1)),
            Err(OddciError::UnknownJob(_))
        ));
    }

    #[test]
    fn node_loss_requeues_in_flight_task() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_task(j, NodeId::new(10)).unwrap();
        assert_eq!(b.pending_count(j), 0);
        let affected = b.node_lost(NodeId::new(10));
        assert_eq!(affected, vec![j]);
        assert_eq!(b.pending_count(j), 1);
        assert_eq!(b.requeue_count(j), 1);
        // Another node picks the re-queued task up and finishes the job.
        let TaskOutcome::Assigned(t) = b.fetch_task(j, NodeId::new(11)).unwrap() else {
            panic!()
        };
        assert_eq!(t.id, TaskId::new(0));
        assert!(b
            .complete_task(j, t.id, NodeId::new(11), SimTime::from_secs(60))
            .unwrap());
    }

    #[test]
    fn zombie_result_after_requeue_is_accepted_once() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_task(j, NodeId::new(10)).unwrap();
        b.node_lost(NodeId::new(10));
        // The "lost" node was only slow; its result arrives before the
        // task is re-assigned. It must count, and the queue must drain.
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(99))
            .unwrap());
        assert_eq!(b.pending_count(j), 0);
        assert_eq!(
            b.fetch_task(j, NodeId::new(11)).unwrap(),
            TaskOutcome::Drained
        );
    }

    #[test]
    fn duplicate_result_is_idempotent() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_task(j, NodeId::new(10)).unwrap();
        b.node_lost(NodeId::new(10));
        b.fetch_task(j, NodeId::new(11)).unwrap();
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(11), SimTime::from_secs(50))
            .unwrap());
        // The zombie's duplicate upload changes nothing.
        assert!(b
            .complete_task(j, TaskId::new(0), NodeId::new(10), SimTime::from_secs(60))
            .unwrap());
        assert_eq!(b.completed_count(j), 1);
        assert_eq!(b.makespan(j), Some(SimDuration::from_secs(50)));
    }

    #[test]
    fn bogus_task_id_is_rejected() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        let j = JobId::new(1);
        assert!(matches!(
            b.complete_task(j, TaskId::new(99), NodeId::new(1), SimTime::ZERO),
            Err(OddciError::UnknownTask { .. })
        ));
    }

    #[test]
    fn re_request_recycles_a_stale_assignment() {
        // A node power-cycles mid-task and asks again before the Controller
        // notices: its old task goes back to the queue and (being at the
        // front) is handed right back.
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        let TaskOutcome::Assigned(first) = b.fetch_task(j, NodeId::new(10)).unwrap() else {
            panic!()
        };
        let TaskOutcome::Assigned(again) = b.fetch_task(j, NodeId::new(10)).unwrap() else {
            panic!()
        };
        assert_eq!(first.id, again.id, "stale task re-queued at the front");
        assert_eq!(b.requeue_count(j), 1);
        // The job still completes exactly once per task.
        assert!(!b
            .complete_task(j, again.id, NodeId::new(10), SimTime::from_secs(1))
            .unwrap());
        let TaskOutcome::Assigned(second) = b.fetch_task(j, NodeId::new(10)).unwrap() else {
            panic!()
        };
        assert!(b
            .complete_task(j, second.id, NodeId::new(10), SimTime::from_secs(2))
            .unwrap());
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn fetch_batch_assigns_up_to_max() {
        let mut b = Backend::new();
        b.register_job(job(5), SimTime::ZERO);
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 3).unwrap();
        assert_eq!(
            batch.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)]
        );
        assert_eq!(b.assigned_count(j), 3);
        // The remainder is a short batch; a further fetch drains.
        assert_eq!(b.fetch_batch(j, NodeId::new(11), 3).unwrap().len(), 2);
        assert!(b.fetch_batch(j, NodeId::new(12), 3).unwrap().is_empty());
        assert_eq!(b.unaccounted_tasks(j), 0);
    }

    #[test]
    fn node_loss_requeues_a_whole_batch() {
        let mut b = Backend::new();
        b.register_job(job(4), SimTime::ZERO);
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 3).unwrap();
        // One result lands before the node dies.
        assert!(!b
            .complete_task(j, batch[0].id, NodeId::new(10), SimTime::from_secs(1))
            .unwrap());
        assert_eq!(b.node_lost(NodeId::new(10)), vec![j]);
        // The two unfinished tasks of the batch went back, the completed
        // one did not; nothing is orphaned.
        assert_eq!(b.pending_count(j), 3);
        assert_eq!(b.requeue_count(j), 2);
        assert_eq!(b.unaccounted_tasks(j), 0);
        // Another node finishes the job.
        for t in b.fetch_batch(j, NodeId::new(11), 4).unwrap() {
            b.complete_task(j, t.id, NodeId::new(11), SimTime::from_secs(9))
                .unwrap();
        }
        assert!(b.is_complete(j));
    }

    #[test]
    fn batch_refetch_recycles_stale_assignments() {
        // A node holding a batch power-cycles and fetches afresh: its old
        // batch is re-queued first, so nothing is lost or duplicated.
        let mut b = Backend::new();
        b.register_job(job(2), SimTime::ZERO);
        let j = JobId::new(1);
        b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        let again = b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(b.requeue_count(j), 2);
        assert_eq!(b.unaccounted_tasks(j), 0);
        for t in again {
            b.complete_task(j, t.id, NodeId::new(10), SimTime::from_secs(2))
                .unwrap();
        }
        assert!(b.is_complete(j));
        assert_eq!(b.completed_count(j), 2);
    }

    #[test]
    fn loss_of_idle_node_is_a_no_op() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::ZERO);
        assert!(b.node_lost(NodeId::new(77)).is_empty());
    }

    #[test]
    fn makespan_absent_until_done() {
        let mut b = Backend::new();
        b.register_job(job(1), SimTime::from_secs(100));
        assert_eq!(b.makespan(JobId::new(1)), None);
    }

    #[test]
    fn export_import_round_trips_ledger() {
        let mut b = Backend::new();
        b.register_job(job(4), SimTime::from_secs(1));
        let j = JobId::new(1);
        let batch = b.fetch_batch(j, NodeId::new(10), 2).unwrap();
        b.complete_task(j, batch[0].id, NodeId::new(10), SimTime::from_secs(2))
            .unwrap();
        b.node_lost(NodeId::new(10)); // re-queues batch[1] at the front
        b.fetch_task(j, NodeId::new(11)).unwrap();
        let now = SimTime::from_secs(3);
        let state = b.export_state(now);

        let mut adopted = Backend::new();
        adopted.import_state(state.clone(), now);
        assert_eq!(adopted.export_state(now), state);
        assert_eq!(adopted.completed_count(j), 1);
        assert_eq!(adopted.assigned_count(j), 1);
        assert_eq!(adopted.pending_count(j), 2);
        assert_eq!(adopted.requeue_count(j), 1);
        assert_eq!(adopted.unaccounted_tasks(j), 0);

        // The adopted ledger keeps full semantics: the in-flight node's
        // upload is accepted, a loss re-queues, and the job completes with
        // every task accounted.
        adopted
            .complete_task(j, batch[1].id, NodeId::new(11), SimTime::from_secs(4))
            .unwrap();
        for t in adopted.fetch_batch(j, NodeId::new(12), 4).unwrap() {
            adopted
                .complete_task(j, t.id, NodeId::new(12), SimTime::from_secs(5))
                .unwrap();
        }
        assert!(adopted.is_complete(j));
        assert_eq!(adopted.unaccounted_tasks(j), 0);
    }

    #[test]
    fn import_rebases_submission_onto_new_clock() {
        let mut b = Backend::new();
        // Submitted at t=100s on the primary, snapshot at t=130s: age 30s.
        b.register_job(job(1), SimTime::from_secs(100));
        let state = b.export_state(SimTime::from_secs(130));

        // Standby clock reads 40s at adoption → submission rebased to 10s.
        let mut adopted = Backend::new();
        adopted.import_state(state, SimTime::from_secs(40));
        let j = JobId::new(1);
        let TaskOutcome::Assigned(t) = adopted.fetch_task(j, NodeId::new(1)).unwrap() else {
            panic!()
        };
        adopted
            .complete_task(j, t.id, NodeId::new(1), SimTime::from_secs(70))
            .unwrap();
        assert_eq!(adopted.makespan(j), Some(SimDuration::from_secs(60)));
    }

    /// The ordered-map ledger the dense one replaced, kept verbatim as
    /// the reference model for `dense_ledger_matches_the_ordered_map_model`.
    #[derive(Default)]
    struct ModelBackend {
        jobs: BTreeMap<JobId, ModelJob>,
    }

    struct ModelJob {
        job: Job,
        pending: VecDeque<TaskId>,
        assigned: BTreeMap<TaskId, NodeId>,
        node_task: BTreeMap<NodeId, BTreeSet<TaskId>>,
        completed: BTreeSet<TaskId>,
        submitted_at: SimTime,
        completed_at: Option<SimTime>,
        requeues: u64,
    }

    impl ModelJob {
        fn recycle_node(&mut self, node: NodeId) -> u64 {
            let Some(tasks) = self.node_task.remove(&node) else {
                return 0;
            };
            let mut recycled = 0;
            for task in tasks {
                self.assigned.remove(&task);
                if !self.completed.contains(&task) {
                    self.pending.push_front(task);
                    self.requeues += 1;
                    recycled += 1;
                }
            }
            recycled
        }
    }

    impl ModelBackend {
        fn register_job(&mut self, job: Job, now: SimTime) {
            let pending = job.tasks.iter().map(|t| t.id).collect();
            self.jobs.insert(
                job.id,
                ModelJob {
                    job,
                    pending,
                    assigned: BTreeMap::new(),
                    node_task: BTreeMap::new(),
                    completed: BTreeSet::new(),
                    submitted_at: now,
                    completed_at: None,
                    requeues: 0,
                },
            );
        }

        fn fetch_batch(&mut self, job: JobId, node: NodeId, max: usize) -> Result<Vec<Task>> {
            let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
            state.recycle_node(node);
            let mut batch = Vec::new();
            while batch.len() < max {
                let Some(task_id) = state.pending.pop_front() else {
                    break;
                };
                state.assigned.insert(task_id, node);
                state.node_task.entry(node).or_default().insert(task_id);
                batch.push(state.job.tasks[task_id.index()].clone());
            }
            Ok(batch)
        }

        fn complete_task(
            &mut self,
            job: JobId,
            task: TaskId,
            node: NodeId,
            now: SimTime,
        ) -> Result<bool> {
            let state = self.jobs.get_mut(&job).ok_or(OddciError::UnknownJob(job))?;
            match state.assigned.get(&task) {
                Some(&assignee) if assignee == node => {}
                _ => {
                    if state.completed.contains(&task) {
                        return Ok(state.completed_at.is_some());
                    }
                    if task.index() >= state.job.tasks.len() {
                        return Err(OddciError::UnknownTask { job, task });
                    }
                    state.pending.retain(|&t| t != task);
                }
            }
            state.assigned.remove(&task);
            if let Some(held) = state.node_task.get_mut(&node) {
                held.remove(&task);
                if held.is_empty() {
                    state.node_task.remove(&node);
                }
            }
            state.completed.insert(task);
            if state.completed.len() == state.job.tasks.len() {
                state.completed_at = Some(now);
                return Ok(true);
            }
            Ok(false)
        }

        fn node_lost(&mut self, node: NodeId) -> Vec<JobId> {
            let mut affected = Vec::new();
            for (&job_id, state) in &mut self.jobs {
                if state.recycle_node(node) > 0 {
                    affected.push(job_id);
                }
            }
            affected
        }

        fn unaccounted_tasks(&self, job: JobId) -> u64 {
            let s = &self.jobs[&job];
            let mut accounted: BTreeSet<TaskId> = s.completed.clone();
            accounted.extend(s.pending.iter().copied());
            accounted.extend(s.assigned.keys().copied());
            s.job.tasks.len() as u64 - accounted.len() as u64
        }

        /// The queue depth the headend summed before `pending_total`.
        fn open_pending(&self) -> u64 {
            self.jobs
                .values()
                .filter(|s| s.completed_at.is_none())
                .map(|s| s.pending.len() as u64)
                .sum()
        }

        fn export_state(&self, now: SimTime) -> BackendState {
            BackendState {
                jobs: self
                    .jobs
                    .values()
                    .map(|s| JobExport {
                        job: s.job.clone(),
                        pending: s.pending.iter().copied().collect(),
                        assigned: s.assigned.iter().map(|(&t, &n)| (t, n)).collect(),
                        completed: s.completed.iter().copied().collect(),
                        submitted_age: now.since(s.submitted_at),
                        completed_age: s.completed_at.map(|t| now.since(t)),
                        requeues: s.requeues,
                    })
                    .collect(),
            }
        }

        fn import_state(state: BackendState, now: SimTime) -> ModelBackend {
            let jobs = state
                .jobs
                .into_iter()
                .map(|e| {
                    let mut node_task: BTreeMap<NodeId, BTreeSet<TaskId>> = BTreeMap::new();
                    for &(task, node) in &e.assigned {
                        node_task.entry(node).or_default().insert(task);
                    }
                    (
                        e.job.id,
                        ModelJob {
                            pending: e.pending.into_iter().collect(),
                            assigned: e.assigned.into_iter().collect(),
                            node_task,
                            completed: e.completed.into_iter().collect(),
                            submitted_at: now.saturating_sub(e.submitted_age),
                            completed_at: e.completed_age.map(|age| now.saturating_sub(age)),
                            requeues: e.requeues,
                            job: e.job,
                        },
                    )
                })
                .collect();
            ModelBackend { jobs }
        }
    }

    /// A job of `n` tasks with id `id`.
    fn job_with_id(id: u64, n: u64) -> Job {
        let mut j = job(n);
        j.id = JobId::new(id);
        j
    }

    /// Every count, the export and both accounting identities agree
    /// between the dense ledger and the model.
    fn assert_same(
        dense: &Backend,
        model: &ModelBackend,
        now: SimTime,
    ) -> std::result::Result<(), String> {
        for (&j, m) in &model.jobs {
            let n = m.job.tasks.len() as u64;
            prop_assert_eq!(dense.pending_count(j), m.pending.len() as u64);
            prop_assert_eq!(dense.assigned_count(j), m.assigned.len() as u64);
            prop_assert_eq!(dense.completed_count(j), m.completed.len() as u64);
            prop_assert_eq!(dense.requeue_count(j), m.requeues);
            prop_assert_eq!(dense.is_complete(j), m.completed_at.is_some());
            prop_assert_eq!(
                dense.makespan(j),
                m.completed_at.map(|done| done - m.submitted_at)
            );
            prop_assert_eq!(
                dense.pending_count(j) + dense.assigned_count(j) + dense.completed_count(j),
                n
            );
            prop_assert_eq!(dense.unaccounted_tasks(j), 0);
            prop_assert_eq!(model.unaccounted_tasks(j), 0);
        }
        prop_assert_eq!(dense.pending_total(), model.open_pending());
        prop_assert_eq!(
            dense.total_requeues(),
            model.jobs.values().map(|s| s.requeues).sum::<u64>()
        );
        prop_assert_eq!(dense.export_state(now), model.export_state(now));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random fetches (1–8 per batch), completions by the assignee,
        /// zombie and duplicate results, bogus ids, node losses, re-fetches
        /// by busy nodes and an export → import partway through: the
        /// dense ledger returns and exports exactly what the ordered-map
        /// model does, after every step.
        #[test]
        fn dense_ledger_matches_the_ordered_map_model(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut dense = Backend::new();
            let mut model = ModelBackend::default();
            let sizes: Vec<u64> = (0..1 + rng.index(2)).map(|_| 1 + rng.index(24) as u64).collect();
            for (i, &n) in sizes.iter().enumerate() {
                dense.register_job(job_with_id(i as u64, n), SimTime::ZERO);
                model.register_job(job_with_id(i as u64, n), SimTime::ZERO);
            }
            // Every (job, task, node) handed out, and every result sent.
            let mut handed: Vec<(JobId, TaskId, NodeId)> = Vec::new();
            let mut sent: Vec<(JobId, TaskId)> = Vec::new();
            let import_at = rng.index(120);
            for step in 0..120u64 {
                let now = SimTime::from_secs(step + 1);
                let j = JobId::new(rng.index(sizes.len()) as u64);
                let node = NodeId::new(rng.index(5) as u64);
                match rng.index(8) {
                    0 | 1 => {
                        let max = 1 + rng.index(8);
                        let got = dense.fetch_batch(j, node, max);
                        prop_assert_eq!(&got, &model.fetch_batch(j, node, max));
                        handed.extend(got.unwrap().iter().map(|t| (j, t.id, node)));
                    }
                    2 | 3 if !handed.is_empty() => {
                        let (j, task, node) = handed.swap_remove(rng.index(handed.len()));
                        prop_assert_eq!(
                            dense.complete_task(j, task, node, now),
                            model.complete_task(j, task, node, now)
                        );
                        sent.push((j, task));
                    }
                    4 if !handed.is_empty() => {
                        // The node is declared lost, then its result lands.
                        let (j, task, node) = handed.swap_remove(rng.index(handed.len()));
                        prop_assert_eq!(dense.node_lost(node), model.node_lost(node));
                        prop_assert_eq!(
                            dense.complete_task(j, task, node, now),
                            model.complete_task(j, task, node, now)
                        );
                        sent.push((j, task));
                    }
                    5 if !sent.is_empty() => {
                        let (j, task) = sent[rng.index(sent.len())];
                        prop_assert_eq!(
                            dense.complete_task(j, task, node, now),
                            model.complete_task(j, task, node, now)
                        );
                    }
                    6 => {
                        let n = sizes[j.index()];
                        let task = TaskId::new(n + rng.index(4) as u64);
                        let got = dense.complete_task(j, task, node, now);
                        prop_assert_eq!(&got, &Err(OddciError::UnknownTask { job: j, task }));
                        prop_assert_eq!(got, model.complete_task(j, task, node, now));
                    }
                    7 => prop_assert_eq!(dense.node_lost(node), model.node_lost(node)),
                    _ if !handed.is_empty() => {
                        // A busy node fetches afresh (it power-cycled).
                        let (j, _, node) = handed[rng.index(handed.len())];
                        let max = 1 + rng.index(8);
                        let got = dense.fetch_batch(j, node, max);
                        prop_assert_eq!(&got, &model.fetch_batch(j, node, max));
                        handed.extend(got.unwrap().iter().map(|t| (j, t.id, node)));
                    }
                    _ => {}
                }
                if step as usize == import_at {
                    let state = dense.export_state(now);
                    prop_assert_eq!(&state, &model.export_state(now));
                    let later = now + SimDuration::from_secs(1);
                    dense = Backend::new();
                    dense.import_state(state.clone(), later);
                    model = ModelBackend::import_state(state, later);
                }
                assert_same(&dense, &model, now)?;
            }
        }
    }
}
