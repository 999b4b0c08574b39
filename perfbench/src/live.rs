//! Helpers shared by the workloads that drive the live plane.

use crate::common::{mix, secs, Outcome};
use crate::stats::grouped_quantile;
use crate::trace::Tracer;
use oddci_live::{AlignmentImage, JobOutcome, LiveOddci, ShutdownReport};
use oddci_telemetry::{Event, EventKind, Phase, SinkStats, Telemetry, TraceSink};
use oddci_types::TaskId;
use oddci_workload::alignment::{mutate, random_sequence, BlastSearch};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An alignment image over a `db_len`-base database drawn from `seed`.
pub fn image(db_len: usize, seed: u64) -> AlignmentImage {
    AlignmentImage {
        db_seed: mix(seed, 0x1A6E),
        db_len,
        ..AlignmentImage::small_demo()
    }
}

/// `n` 150-base queries built the way `LiveOddci::run_alignment_job`
/// builds them — even ones are 5%-mutated slices of the database (planted
/// homologs that score high), odd ones random noise — varied per `job`.
pub fn alignment_queries(db: &[u8], n: u64, job: u64, seed: u64) -> Vec<Arc<Vec<u8>>> {
    let base = mix(seed, 0xA119 ^ (job << 20));
    let span = db.len().saturating_sub(200).max(1);
    (0..n)
        .map(|i| {
            let q = if i % 2 == 0 {
                let start = (mix(base, i) as usize) % span;
                mutate(&db[start..start + 150], 0.05, base ^ i)
            } else {
                random_sequence(150, base ^ (i | 1 << 60))
            };
            Arc::new(q)
        })
        .collect()
}

/// Reference scores for the tasks at `indices`, computed outside the timed
/// region by indexing the image's database and searching it with
/// `BlastSearch` directly, not through the live plane's image code.
pub fn reference_scores(
    image: &AlignmentImage,
    queries: &[Arc<Vec<u8>>],
    indices: &[usize],
) -> Vec<(usize, i32)> {
    let db = BlastSearch::index(
        random_sequence(image.db_len, image.db_seed),
        image.k,
        image.scoring,
    );
    indices
        .iter()
        .map(|&i| {
            let best = db.search(&queries[i], image.window, image.min_score);
            (i, best.first().map_or(0, |hit| hit.score))
        })
        .collect()
}

/// One job of tiny tasks (`dispatch`, `wire`): the image, the queries, and
/// the reference scores of the sampled tasks.
pub struct TinyJob {
    /// Image the job ships.
    pub image: AlignmentImage,
    /// One query per task.
    pub queries: Vec<Arc<Vec<u8>>>,
    /// (task index, reference score) of each sampled task.
    pub reference: Vec<(usize, i32)>,
}

impl TinyJob {
    /// `tasks` random `query_len`-base queries against a `db_len`-base
    /// image, drawn from `seed`. Every task is a few k-mer lookups that
    /// find nothing, so the headend round trip dominates.
    ///
    /// `sample` tasks, evenly spread, are checked against the reference;
    /// half of them are planted homologs (see [`planted_query`]) whose
    /// reference scores are non-zero and vary, so a program that skips the
    /// search or mis-scores fails the check. A gate fails the run if the
    /// reference does not show that.
    pub fn new(
        tasks: u64,
        db_len: usize,
        query_len: usize,
        sample: usize,
        seed: u64,
        out: &mut Outcome,
    ) -> TinyJob {
        let image = image(db_len, seed);
        let db = random_sequence(image.db_len, image.db_seed);
        let base = mix(seed, 0x0E21);
        let mut queries: Vec<_> = (0..tasks)
            .map(|i| Arc::new(random_sequence(query_len, base ^ i)))
            .collect();
        let sampled = sample_indices(tasks as usize, sample, seed);
        let planted: Vec<usize> = sampled.iter().copied().step_by(2).collect();
        for &i in &planted {
            queries[i] = Arc::new(planted_query(&db, query_len, mix(base, i as u64)));
        }
        let reference = reference_scores(&image, &queries, &sampled);
        let planted_scores: Vec<i32> = reference
            .iter()
            .filter(|(i, _)| planted.binary_search(i).is_ok())
            .map(|&(_, score)| score)
            .collect();
        let zero = planted_scores.iter().filter(|s| **s == 0).count();
        let distinct: BTreeSet<i32> = planted_scores.iter().copied().collect();
        out.gate(zero == 0 && distinct.len() >= 2, || {
            format!(
                "inputs: {zero} of {} planted homologs score 0 in the reference, \
                 {} distinct scores",
                planted.len(),
                distinct.len()
            )
        });
        out.note(format!(
            "inputs: {} of {} checked tasks are planted homologs, reference scores {distinct:?}",
            planted.len(),
            sampled.len()
        ));
        TinyJob {
            image,
            queries,
            reference,
        }
    }

    /// Tasks in the job.
    pub fn tasks(&self) -> u64 {
        self.queries.len() as u64
    }
}

/// A `len`-base slice of `db` at a position drawn from `seed`, with one
/// substitution at its first two or last two bases, or none. With the
/// image's k = 11, +1 per match and −3 per mismatch, it keeps an exact
/// run of at least `len − 2` bases, so it scores `len − 2` to `len`, above
/// the image's `min_score` of 14 for 16-base queries.
fn planted_query(db: &[u8], len: usize, seed: u64) -> Vec<u8> {
    let start = (seed as usize) % (db.len() - len + 1);
    let mut q = db[start..start + len].to_vec();
    let at = [None, Some(0), Some(1), Some(len - 2), Some(len - 1)];
    if let Some(p) = at[(mix(seed, 0x5B) % at.len() as u64) as usize] {
        let old = b"ACGT".iter().position(|b| *b == q[p]).unwrap_or(0);
        q[p] = b"ACGT"[(old + 1 + (mix(seed, 0x5C) % 3) as usize) % 4];
    }
    q
}

/// Evenly spread sample of `k` task indices out of `n`, offset by `seed`.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n).max(1);
    let stride = n / k;
    let offset = (mix(seed, 0x5A3) as usize) % stride.max(1);
    (0..k).map(|j| (j * stride + offset).min(n - 1)).collect()
}

/// Wall times of one job run by [`run_job`].
pub struct JobTimes {
    /// `submit_query_job` call to `wait_job` returning.
    pub wall_s: f64,
    /// The `submit_query_job` call alone.
    pub submit_ms: f64,
    /// Makespan the Provider reported.
    pub makespan_ms: f64,
}

/// Submits `job` to `live` on `nodes` nodes, waits for it and checks its
/// scores against the reference. Counts the job's tasks as attempted and
/// the missing or wrongly scored ones as failed; `None` if it did not
/// finish within `timeout`.
pub fn run_job(
    live: &LiveOddci,
    job: &TinyJob,
    nodes: u64,
    timeout: Duration,
    tracer: &mut Tracer,
    (workload, rep): (&str, u64),
    out: &mut Outcome,
) -> Option<JobTimes> {
    let (image, queries) = (job.image.clone(), job.queries.clone());
    let t0 = Instant::now();
    let req = tracer.span("live.submit_query_job", "live", rep, || {
        live.submit_query_job(image, queries, nodes)
    });
    let t1 = Instant::now();
    let outcome = req
        .and_then(|req| tracer.span("live.wait_job", "live", rep, || live.wait_job(req, timeout)));
    let t2 = Instant::now();
    out.attempted += job.tasks();
    let Some(o) = outcome else {
        out.failed += job.tasks();
        out.gate(false, || {
            format!("{workload} rep {rep}: job did not finish in {timeout:?}")
        });
        return None;
    };
    let bad = failed_tasks(&o, job.tasks(), &job.reference);
    out.failed += bad;
    out.gate(bad == 0, || {
        format!("{workload} rep {rep}: {bad} tasks missing or scored wrong")
    });
    Some(JobTimes {
        wall_s: secs(t0, t2),
        submit_ms: secs(t0, t1) * 1e3,
        makespan_ms: o.report.makespan.as_secs_f64() * 1e3,
    })
}

/// Gates a headend's shutdown report: no task unaccounted, no thread
/// failed. Unaccounted tasks count as failed.
pub fn gate_shutdown(report: &ShutdownReport, (workload, rep): (&str, u64), out: &mut Outcome) {
    out.failed += report.tasks_unaccounted;
    out.gate(report.tasks_unaccounted == 0, || {
        format!(
            "{workload} rep {rep}: {} tasks unaccounted",
            report.tasks_unaccounted
        )
    });
    out.gate(report.threads_failed == 0, || {
        format!(
            "{workload} rep {rep}: {} headend threads failed",
            report.threads_failed
        )
    });
}

/// Checks a job's outcome: every task has a score and the sampled ones
/// equal the reference. Returns how many tasks failed.
pub fn failed_tasks(outcome: &JobOutcome, tasks: u64, reference: &[(usize, i32)]) -> u64 {
    let missing = tasks.saturating_sub(outcome.scores.len() as u64);
    let wrong = reference
        .iter()
        .filter(|(i, score)| {
            outcome
                .scores
                .get(&TaskId::new(*i as u64))
                .is_some_and(|got| got != score)
        })
        .count() as u64;
    missing + wrong
}

/// A trace sink that keeps the duration of every span the program emits,
/// by phase. The recorder's own ring keeps only its last 2^18 events, which
/// on `dispatch` no longer hold a job's DVE boots by the time it ends.
#[derive(Debug, Default)]
pub struct SpanDurations {
    state: Mutex<SpanState>,
}

#[derive(Debug, Default)]
struct SpanState {
    /// Begin timestamps of spans not yet ended, by (phase, track, scope).
    open: HashMap<(Phase, u64, u64), Vec<u64>>,
    /// Durations in microseconds of ended spans, by phase.
    done: HashMap<Phase, Vec<u64>>,
}

impl SpanDurations {
    /// Durations, in whole microseconds, of `phase`'s spans so far.
    pub fn of(&self, phase: Phase) -> Vec<u64> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.done.get(&phase).cloned().unwrap_or_default()
    }

    /// Quantile `q` of `phase`'s span durations, in seconds, as the
    /// quantile of grouped data (see [`grouped_quantile`]). A phase with no
    /// span fails a gate.
    pub fn quantile_s(&self, out: &mut Outcome, phase: Phase, q: f64) -> f64 {
        let value = grouped_quantile(&self.of(phase), q);
        out.gate(value.is_some(), || {
            format!("telemetry: no {phase:?} span was recorded")
        });
        value.unwrap_or(0.0) / 1e6
    }
}

impl TraceSink for SpanDurations {
    fn offer(&self, ev: Event, _lane_hint: Option<usize>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let key = (ev.phase, ev.track, ev.scope);
        match ev.kind {
            EventKind::Begin => state.open.entry(key).or_default().push(ev.ts_us),
            EventKind::End => {
                let begin = state.open.get_mut(&key).and_then(Vec::pop);
                if state.open.get(&key).is_some_and(Vec::is_empty) {
                    state.open.remove(&key);
                }
                if let Some(begin) = begin {
                    let us = ev.ts_us.saturating_sub(begin);
                    state.done.entry(ev.phase).or_default().push(us);
                }
            }
            EventKind::Instant => {}
        }
        true
    }

    fn flush(&self) {}

    fn stats(&self) -> SinkStats {
        SinkStats::default()
    }

    fn dropped_by_phase(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Reports the program's own per-task phase latencies from its spans:
/// `live.task_fetch_p50_us`, `live.task_fetch_p99_us`,
/// `live.task_upload_p50_us` and `live.task_compute_p50_us`.
pub fn report_task_phases(out: &mut Outcome, spans: &SpanDurations) {
    for (name, phase, q) in [
        ("live.task_fetch_p50_us", Phase::TaskFetch, 0.5),
        ("live.task_fetch_p99_us", Phase::TaskFetch, 0.99),
        ("live.task_upload_p50_us", Phase::ResultUpload, 0.5),
        ("live.task_compute_p50_us", Phase::Compute, 0.5),
    ] {
        let seconds = spans.quantile_s(out, phase, q);
        out.metric(name, seconds * 1e6, "us");
    }
}

/// Reports `live.dve_boot_p50_ms`, the median of the program's own DVE
/// boot spans (accept to database indexed).
pub fn report_dve_boot(out: &mut Outcome, spans: &SpanDurations) {
    let seconds = spans.quantile_s(out, Phase::DveBoot, 0.5);
    out.metric("live.dve_boot_p50_ms", seconds * 1e3, "ms");
}

/// Telemetry for a live pass. In the traced pass it is the program's
/// recording telemetry, with a [`SpanDurations`] sink attached and
/// returned; otherwise the default (metrics only, no event recording).
pub fn telemetry(traced: bool) -> (Telemetry, Option<Arc<SpanDurations>>) {
    if !traced {
        return (Telemetry::disabled(), None);
    }
    let spans = Arc::new(SpanDurations::default());
    (Telemetry::recording().with_sink(spans.clone()), Some(spans))
}
