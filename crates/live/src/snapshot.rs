//! Durability snapshots of headend state.
//!
//! A snapshot is everything a standby headend needs to adopt a crashed
//! primary's fleet mid-job: per-shard Controller state (membership,
//! heartbeat ledgers, message-id namespaces), the Backend's task ledgers,
//! the Provider's request table, the hub's job bookkeeping, the carousel's
//! image recipes and the wire plane's node-id namespace. Timestamps are
//! stored as *ages* relative to the snapshot instant — the standby runs
//! its own clock, so absolute instants from the primary would be
//! meaningless there (see `SimTime::saturating_sub`).
//!
//! On disk a snapshot is a small self-describing container:
//!
//! ```text
//! magic "OSNP" | version u16 | epoch u64 | payload len u32 | payload | crc32 u32
//! ```
//!
//! (all integers little-endian; the checksum covers version..payload).
//! The payload is [`SnapshotState`] minus its epoch (the header carries
//! it) in the `oddci-wire` binary codec, fields in declaration order:
//!
//! ```text
//! taken_at_us u64
//! shards       [ControllerState]   instances, registry, four u64 counters
//! backend.jobs [JobExport]         job (id, image, size, [Task]), pending,
//!                                  assigned, completed, ages, requeues
//! provider     [RequestExport], next u64
//! instance_job [(u64, u64)]        job_queries [(u64, [bytes])]
//! job_scores   [(u64, [(u64, i32)])]
//! wakeups      [(u64, u32)]        images [(u64, ImageExport)]
//! wire_next_node u64, wire_nodes [u64], autoscale option
//! ```
//!
//! A `[T]` is a `u32` count followed by the elements; an option is a
//! `0`/`1` byte followed by the value when `1`; a `bytes` is a `u32`
//! length and the raw bytes; tasks and node requirements use the wire
//! message encoders. The decoder refuses any count whose elements could
//! not fit in the bytes left, so a hostile length never allocates, and
//! it refuses trailing bytes.
//!
//! The format is versioned so a layout change bumps [`SNAPSHOT_VERSION`]
//! instead of silently misreading old files (a primary and its standby
//! must run the same build), and checksummed so a torn write (crash
//! mid-snapshot) is *detected* rather than adopted. [`write_file`] writes
//! to a temporary sibling and renames into place, so the published path
//! always holds a complete snapshot.

use crate::image::AlignmentImage;
use oddci_core::autoscale::AutoscaleExport;
use oddci_core::backend::{BackendState, JobExport};
use oddci_core::controller::{ControllerState, InstanceExport, NodeExport};
use oddci_core::provider::{ProviderState, RequestExport, RequestState};
use oddci_core::{InstanceRequest, InstanceStatus, JobReport, PnaStateKind, ProviderRequest};
use oddci_types::{DataSize, ImageId, InstanceId, JobId, NodeId, SimDuration, TaskId};
use oddci_wire::codec::{
    decode_requirements, decode_task, encode_requirements, encode_task, Reader, Writer, TASK_LEN,
};
use oddci_wire::frame::crc32_parts;
use oddci_wire::WireError;
use oddci_workload::alignment::Scoring;
use oddci_workload::Job;
use std::io;
use std::path::Path;

/// File magic identifying a headend snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OSNP";
/// Container layout version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Conventional file name inside a `--snapshot-dir`.
pub const SNAPSHOT_FILE: &str = "headend.snap";

/// Container bytes before the payload: magic + version + epoch + length.
const HEADER_LEN: usize = 4 + 2 + 8 + 4;
/// Fixed container overhead: the header plus the trailing checksum.
const CONTAINER_OVERHEAD: usize = HEADER_LEN + 4;

/// An [`AlignmentImage`] recipe in serializable form. The materialized
/// database is *not* exported — every field needed to regenerate it
/// deterministically is, so adopted wakeups rebuild the identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageExport {
    /// Seed regenerating the reference database.
    pub db_seed: u64,
    /// Database length in bases.
    pub db_len: u64,
    /// Seed word length for the index.
    pub k: u64,
    /// Alignment match score.
    pub matched: i32,
    /// Alignment mismatch penalty.
    pub mismatch: i32,
    /// Alignment gap penalty.
    pub gap: i32,
    /// Window for seed extension.
    pub window: u64,
    /// Minimum reported score.
    pub min_score: i32,
}

impl ImageExport {
    /// Captures a recipe (dropping any prefetched database bytes — they
    /// regenerate from the seed).
    pub fn from_image(image: &AlignmentImage) -> ImageExport {
        ImageExport {
            db_seed: image.db_seed,
            db_len: image.db_len as u64,
            k: image.k as u64,
            matched: image.scoring.matched,
            mismatch: image.scoring.mismatch,
            gap: image.scoring.gap,
            window: image.window as u64,
            min_score: image.min_score,
        }
    }

    /// Rebuilds the runnable recipe.
    pub fn to_image(&self) -> AlignmentImage {
        AlignmentImage {
            db_seed: self.db_seed,
            db_len: self.db_len as usize,
            k: self.k as usize,
            scoring: Scoring {
                matched: self.matched,
                mismatch: self.mismatch,
                gap: self.gap,
            },
            window: self.window as usize,
            min_score: self.min_score,
            prefetched: None,
        }
    }
}

/// Complete exported headend state — the payload of one snapshot.
///
/// Maps are exported as sorted pair vectors, so the encoding is
/// byte-stable for the round-trip property tests.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// The writing headend's fencing epoch.
    pub epoch: u64,
    /// Microseconds on the writing headend's clock when the snapshot was
    /// cut — the replay boundary for trailing trace events.
    pub taken_at_us: u64,
    /// Per-shard Controller state, in shard order. A standby must run the
    /// same shard count to adopt (message-id namespaces are `mod shards`).
    pub shards: Vec<ControllerState>,
    /// The shared Backend's task ledgers.
    pub backend: BackendState,
    /// The Provider's request table.
    pub provider: ProviderState,
    /// Instance → job routing.
    pub instance_job: Vec<(InstanceId, JobId)>,
    /// Per-job query payloads (task index → query bytes).
    pub job_queries: Vec<(JobId, Vec<Vec<u8>>)>,
    /// Per-job best scores reported so far.
    pub job_scores: Vec<(JobId, Vec<(TaskId, i32)>)>,
    /// Wakeup broadcasts published per instance (Provider report input).
    pub wakeups: Vec<(InstanceId, u32)>,
    /// Image recipes the carousel attaches to wakeups.
    pub images: Vec<(InstanceId, ImageExport)>,
    /// Next node id the wire plane would assign — adopted so fresh
    /// connections never collide with resumed ones.
    pub wire_next_node: u64,
    /// Node ids the wire plane has handed out (resume validation).
    pub wire_nodes: Vec<u64>,
    /// Autoscale reconciler state, when elastic sizing is on: the
    /// desired-state record a standby resumes scaling from without
    /// double-provisioning. Cooldowns are stored as *remaining*
    /// durations (the standby's clock starts at adoption).
    pub autoscale: Option<AutoscaleExport>,
}

/// Why a snapshot failed to decode. Every variant is a clean error — a
/// truncated or corrupt file must never panic the adopting headend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the fixed container overhead.
    TooShort,
    /// The magic bytes are not `OSNP`.
    BadMagic,
    /// A container version this build does not read.
    UnsupportedVersion(u16),
    /// The declared payload extends past the available bytes (torn write).
    Truncated,
    /// The checksum does not match (bit rot or torn write).
    ChecksumMismatch,
    /// The payload is not a valid [`SnapshotState`] encoding.
    Payload(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its container header"),
            SnapshotError::BadMagic => write!(f, "not a headend snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated mid-payload"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Payload(e) => write!(f, "snapshot payload invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes a snapshot into its on-disk container form.
pub fn encode(state: &SnapshotState) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&SNAPSHOT_MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u64(state.epoch);
    w.u32(0); // payload length, patched once the payload is written
    encode_payload(&mut w, state);
    let mut out = w.into_bytes();
    let len = (out.len() - HEADER_LEN) as u32;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_parts(&[&out[4..]]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a container. Any malformed input — truncation at any byte,
/// flipped bits, wrong magic, a hostile count, trailing bytes — comes
/// back as a [`SnapshotError`].
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, SnapshotError> {
    if bytes.len() < CONTAINER_OVERHEAD {
        return Err(SnapshotError::TooShort);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]) as usize;
    let payload_end = HEADER_LEN + len;
    if bytes.len() < payload_end + 4 {
        return Err(SnapshotError::Truncated);
    }
    let crc = u32::from_le_bytes([
        bytes[payload_end],
        bytes[payload_end + 1],
        bytes[payload_end + 2],
        bytes[payload_end + 3],
    ]);
    if crc32_parts(&[&bytes[4..payload_end]]) != crc {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader::new(&bytes[HEADER_LEN..payload_end]);
    decode_payload(&mut r, peek_epoch(bytes)?)
        .and_then(|state| r.finish().map(|()| state))
        .map_err(|e| match e {
            WireError::Malformed(what) => SnapshotError::Payload(what.to_string()),
            other => SnapshotError::Payload(other.to_string()),
        })
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

// Smallest encodings of the records `read_seq` bounds its counts by.
/// Two empty sequences and four counters.
const CONTROLLER_MIN: usize = 2 * 4 + 4 * 8;
/// Id and request, requirements, status, no members, wakeups sent.
const INSTANCE_MIN: usize = 4 * 8 + 9 + 1 + 4 + 4;
/// Node, age, state, absent instance.
const NODE_MIN: usize = 2 * 8 + 1 + 1;
/// Job header, four empty sequences, submitted age, absent completed
/// age, requeues.
const JOB_MIN: usize = 3 * 8 + 4 * 4 + 8 + 1 + 8;
/// Five `u64`s, state, absent report.
const REQUEST_MIN: usize = 5 * 8 + 1 + 1;
/// Four `u64`s and four `i32`s.
const IMAGE_MIN: usize = 4 * 8 + 4 * 4;

/// Writes a `u32` element count, then each element.
fn write_seq<T>(w: &mut Writer, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        f(w, item);
    }
}

/// Reads a sequence written by [`write_seq`]. `min_len` is the smallest
/// encoding of one element: a count whose elements cannot fit in the
/// bytes left is refused before anything is allocated.
fn read_seq<'a, T>(
    r: &mut Reader<'a>,
    min_len: usize,
    mut f: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.u32()? as usize;
    if n.saturating_mul(min_len) > r.remaining() {
        return Err(WireError::Malformed("element count exceeds the payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f(r)?);
    }
    Ok(out)
}

/// Writes an option as a presence byte and, when present, the value.
fn write_opt<T: Copy>(w: &mut Writer, v: Option<T>, f: impl FnOnce(&mut Writer, T)) {
    w.bool(v.is_some());
    if let Some(v) = v {
        f(w, v);
    }
}

/// Reads an option written by [`write_opt`].
fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    if r.bool()? {
        f(r).map(Some)
    } else {
        Ok(None)
    }
}

fn read_age(r: &mut Reader<'_>) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_micros(r.u64()?))
}

fn encode_payload(w: &mut Writer, s: &SnapshotState) {
    w.u64(s.taken_at_us);
    write_seq(w, &s.shards, encode_controller);
    write_seq(w, &s.backend.jobs, encode_job);
    write_seq(w, &s.provider.requests, encode_request);
    w.u64(s.provider.next);
    write_seq(w, &s.instance_job, |w, (inst, job)| {
        w.u64(inst.raw());
        w.u64(job.raw());
    });
    write_seq(w, &s.job_queries, |w, (job, queries)| {
        w.u64(job.raw());
        write_seq(w, queries, |w, q| w.bytes(q));
    });
    write_seq(w, &s.job_scores, |w, (job, scores)| {
        w.u64(job.raw());
        write_seq(w, scores, |w, (task, score)| {
            w.u64(task.raw());
            w.i32(*score);
        });
    });
    write_seq(w, &s.wakeups, |w, (inst, n)| {
        w.u64(inst.raw());
        w.u32(*n);
    });
    write_seq(w, &s.images, |w, (inst, image)| {
        w.u64(inst.raw());
        encode_image(w, image);
    });
    w.u64(s.wire_next_node);
    write_seq(w, &s.wire_nodes, |w, n| w.u64(*n));
    write_opt(w, s.autoscale, encode_autoscale);
}

fn decode_payload(r: &mut Reader<'_>, epoch: u64) -> Result<SnapshotState, WireError> {
    Ok(SnapshotState {
        epoch,
        taken_at_us: r.u64()?,
        shards: read_seq(r, CONTROLLER_MIN, decode_controller)?,
        backend: BackendState {
            jobs: read_seq(r, JOB_MIN, decode_job)?,
        },
        provider: ProviderState {
            requests: read_seq(r, REQUEST_MIN, decode_request)?,
            next: r.u64()?,
        },
        instance_job: read_seq(r, 16, |r| {
            Ok((InstanceId::new(r.u64()?), JobId::new(r.u64()?)))
        })?,
        job_queries: read_seq(r, 12, |r| {
            let job = JobId::new(r.u64()?);
            Ok((job, read_seq(r, 4, |r| Ok(r.bytes()?.to_vec()))?))
        })?,
        job_scores: read_seq(r, 12, |r| {
            let job = JobId::new(r.u64()?);
            let scores = read_seq(r, 12, |r| Ok((TaskId::new(r.u64()?), r.i32()?)))?;
            Ok((job, scores))
        })?,
        wakeups: read_seq(r, 12, |r| Ok((InstanceId::new(r.u64()?), r.u32()?)))?,
        images: read_seq(r, 8 + IMAGE_MIN, |r| {
            Ok((InstanceId::new(r.u64()?), decode_image(r)?))
        })?,
        wire_next_node: r.u64()?,
        wire_nodes: read_seq(r, 8, |r| r.u64())?,
        autoscale: read_opt(r, decode_autoscale)?,
    })
}

fn encode_controller(w: &mut Writer, c: &ControllerState) {
    write_seq(w, &c.instances, |w, i| {
        w.u64(i.id.raw());
        w.u64(i.request.image.raw());
        w.u64(i.request.image_size.bits());
        w.u64(i.request.target);
        encode_requirements(w, &i.request.requirements);
        w.u8(match i.status {
            InstanceStatus::Forming => 0,
            InstanceStatus::Active => 1,
            InstanceStatus::Dismantled => 2,
        });
        write_seq(w, &i.members, |w, n| w.u64(n.raw()));
        w.u32(i.wakeups_sent);
    });
    write_seq(w, &c.registry, |w, n| {
        w.u64(n.node.raw());
        w.u64(n.heartbeat_age.as_micros());
        w.u8(match n.state {
            PnaStateKind::Idle => 0,
            PnaStateKind::Busy => 1,
        });
        write_opt(w, n.instance, |w, i| w.u64(i.raw()));
    });
    w.u64(c.next_instance);
    w.u64(c.next_message);
    w.u64(c.message_stride);
    w.u64(c.heartbeats_received);
}

fn decode_controller(r: &mut Reader<'_>) -> Result<ControllerState, WireError> {
    Ok(ControllerState {
        instances: read_seq(r, INSTANCE_MIN, |r| {
            Ok(InstanceExport {
                id: InstanceId::new(r.u64()?),
                request: InstanceRequest {
                    image: ImageId::new(r.u64()?),
                    image_size: DataSize::from_bits(r.u64()?),
                    target: r.u64()?,
                    requirements: decode_requirements(r)?,
                },
                status: match r.u8()? {
                    0 => InstanceStatus::Forming,
                    1 => InstanceStatus::Active,
                    2 => InstanceStatus::Dismantled,
                    _ => return Err(WireError::Malformed("unknown instance status")),
                },
                members: read_seq(r, 8, |r| Ok(NodeId::new(r.u64()?)))?,
                wakeups_sent: r.u32()?,
            })
        })?,
        registry: read_seq(r, NODE_MIN, |r| {
            Ok(NodeExport {
                node: NodeId::new(r.u64()?),
                heartbeat_age: read_age(r)?,
                state: match r.u8()? {
                    0 => PnaStateKind::Idle,
                    1 => PnaStateKind::Busy,
                    _ => return Err(WireError::Malformed("unknown PNA state")),
                },
                instance: read_opt(r, |r| Ok(InstanceId::new(r.u64()?)))?,
            })
        })?,
        next_instance: r.u64()?,
        next_message: r.u64()?,
        message_stride: r.u64()?,
        heartbeats_received: r.u64()?,
    })
}

fn encode_job(w: &mut Writer, j: &JobExport) {
    w.u64(j.job.id.raw());
    w.u64(j.job.image.raw());
    w.u64(j.job.image_size.bits());
    write_seq(w, &j.job.tasks, encode_task);
    write_seq(w, &j.pending, |w, t| w.u64(t.raw()));
    write_seq(w, &j.assigned, |w, (t, n)| {
        w.u64(t.raw());
        w.u64(n.raw());
    });
    write_seq(w, &j.completed, |w, t| w.u64(t.raw()));
    w.u64(j.submitted_age.as_micros());
    write_opt(w, j.completed_age, |w, age| w.u64(age.as_micros()));
    w.u64(j.requeues);
}

fn decode_job(r: &mut Reader<'_>) -> Result<JobExport, WireError> {
    let task_id = |r: &mut Reader<'_>| Ok(TaskId::new(r.u64()?));
    Ok(JobExport {
        job: Job {
            id: JobId::new(r.u64()?),
            image: ImageId::new(r.u64()?),
            image_size: DataSize::from_bits(r.u64()?),
            tasks: read_seq(r, TASK_LEN, decode_task)?,
        },
        pending: read_seq(r, 8, task_id)?,
        assigned: read_seq(r, 16, |r| {
            Ok((TaskId::new(r.u64()?), NodeId::new(r.u64()?)))
        })?,
        completed: read_seq(r, 8, task_id)?,
        submitted_age: read_age(r)?,
        completed_age: read_opt(r, read_age)?,
        requeues: r.u64()?,
    })
}

fn encode_request(w: &mut Writer, q: &RequestExport) {
    w.u64(q.request.0);
    w.u64(q.job.raw());
    w.u64(q.instance.raw());
    w.u64(q.target);
    w.u64(q.submitted_age.as_micros());
    w.u8(match q.state {
        RequestState::Running => 0,
        RequestState::Complete => 1,
    });
    write_opt(w, q.report, |w, rep| {
        w.u64(rep.job.raw());
        w.u64(rep.instance.raw());
        w.u64(rep.target_nodes);
        w.u64(rep.makespan.as_micros());
        w.u64(rep.tasks_completed);
        w.u64(rep.requeues);
        w.u32(rep.wakeup_broadcasts);
    });
}

fn decode_request(r: &mut Reader<'_>) -> Result<RequestExport, WireError> {
    Ok(RequestExport {
        request: ProviderRequest(r.u64()?),
        job: JobId::new(r.u64()?),
        instance: InstanceId::new(r.u64()?),
        target: r.u64()?,
        submitted_age: read_age(r)?,
        state: match r.u8()? {
            0 => RequestState::Running,
            1 => RequestState::Complete,
            _ => return Err(WireError::Malformed("unknown request state")),
        },
        report: read_opt(r, |r| {
            Ok(JobReport {
                job: JobId::new(r.u64()?),
                instance: InstanceId::new(r.u64()?),
                target_nodes: r.u64()?,
                makespan: read_age(r)?,
                tasks_completed: r.u64()?,
                requeues: r.u64()?,
                wakeup_broadcasts: r.u32()?,
            })
        })?,
    })
}

fn encode_image(w: &mut Writer, i: &ImageExport) {
    w.u64(i.db_seed);
    w.u64(i.db_len);
    w.u64(i.k);
    w.i32(i.matched);
    w.i32(i.mismatch);
    w.i32(i.gap);
    w.u64(i.window);
    w.i32(i.min_score);
}

fn decode_image(r: &mut Reader<'_>) -> Result<ImageExport, WireError> {
    Ok(ImageExport {
        db_seed: r.u64()?,
        db_len: r.u64()?,
        k: r.u64()?,
        matched: r.i32()?,
        mismatch: r.i32()?,
        gap: r.i32()?,
        window: r.u64()?,
        min_score: r.i32()?,
    })
}

fn encode_autoscale(w: &mut Writer, a: AutoscaleExport) {
    w.u64(a.desired as u64);
    w.u64(a.cooldown_remaining_micros);
    w.bool(a.pending_replace);
    w.u64(a.ticks);
    w.u64(a.scale_ups);
    w.u64(a.scale_downs);
    w.u64(a.replacements);
}

fn decode_autoscale(r: &mut Reader<'_>) -> Result<AutoscaleExport, WireError> {
    Ok(AutoscaleExport {
        desired: usize::try_from(r.u64()?)
            .map_err(|_| WireError::Malformed("desired size exceeds usize"))?,
        cooldown_remaining_micros: r.u64()?,
        pending_replace: r.bool()?,
        ticks: r.u64()?,
        scale_ups: r.u64()?,
        scale_downs: r.u64()?,
        replacements: r.u64()?,
    })
}

/// Reads just the epoch from a container header, without decoding the
/// payload (the standby CLI prints it before adopting).
pub fn peek_epoch(bytes: &[u8]) -> Result<u64, SnapshotError> {
    if bytes.len() < CONTAINER_OVERHEAD {
        return Err(SnapshotError::TooShort);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u64::from_le_bytes([
        bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13],
    ]))
}

/// Writes `state` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed into place, so a reader never observes
/// a half-written snapshot at the published path.
pub fn write_file(path: &Path, state: &SnapshotState) -> io::Result<()> {
    let bytes = encode(state);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads and decodes a snapshot file. Decode failures surface as
/// `InvalidData` I/O errors with the [`SnapshotError`] as the message.
pub fn read_file(path: &Path) -> io::Result<SnapshotState> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_core::NodeRequirements;
    use oddci_workload::Task;
    use proptest::prelude::*;

    fn sample() -> SnapshotState {
        SnapshotState {
            epoch: 3,
            taken_at_us: 1_234_567,
            shards: Vec::new(),
            backend: BackendState { jobs: Vec::new() },
            provider: ProviderState {
                requests: Vec::new(),
                next: 7,
            },
            instance_job: vec![(InstanceId::new(1), JobId::new(9))],
            job_queries: vec![(JobId::new(9), vec![vec![1, 2, 3], vec![4]])],
            job_scores: vec![(JobId::new(9), vec![(TaskId::new(0), 42)])],
            wakeups: vec![(InstanceId::new(1), 2)],
            images: vec![(
                InstanceId::new(1),
                ImageExport::from_image(&AlignmentImage::small_demo()),
            )],
            wire_next_node: 5,
            wire_nodes: vec![0, 1, 2, 3, 4],
            autoscale: None,
        }
    }

    /// Wraps `payload` in a container of `version` with a valid checksum.
    fn seal(version: u16, epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32_parts(&[&out[4..]]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn some_or_none<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
        (rng.next_u64() & 1 == 1).then(|| f(rng))
    }

    fn ids<T>(rng: &mut TestRng, max: usize, f: impl Fn(u64) -> T) -> Vec<T> {
        (0..rng.index(max + 1)).map(|_| f(rng.next_u64())).collect()
    }

    fn arbitrary_controller(rng: &mut TestRng) -> ControllerState {
        let instances = (0..rng.index(3))
            .map(|_| InstanceExport {
                id: InstanceId::new(rng.next_u64()),
                request: InstanceRequest {
                    image: ImageId::new(rng.next_u64()),
                    image_size: DataSize::from_bits(rng.next_u64()),
                    target: rng.next_u64(),
                    requirements: NodeRequirements {
                        min_memory: DataSize::from_bits(rng.next_u64()),
                        standby_only: rng.next_u64() & 1 == 1,
                    },
                },
                status: [
                    InstanceStatus::Forming,
                    InstanceStatus::Active,
                    InstanceStatus::Dismantled,
                ][rng.index(3)],
                members: ids(rng, 6, NodeId::new),
                wakeups_sent: rng.next_u64() as u32,
            })
            .collect();
        let registry = (0..rng.index(6))
            .map(|_| NodeExport {
                node: NodeId::new(rng.next_u64()),
                heartbeat_age: SimDuration::from_micros(rng.next_u64()),
                state: [PnaStateKind::Idle, PnaStateKind::Busy][rng.index(2)],
                instance: some_or_none(rng, |rng| InstanceId::new(rng.next_u64())),
            })
            .collect();
        ControllerState {
            instances,
            registry,
            next_instance: rng.next_u64(),
            next_message: rng.next_u64(),
            message_stride: rng.next_u64(),
            heartbeats_received: rng.next_u64(),
        }
    }

    /// A job ledger mid-flight: some tasks assigned, some re-queued to
    /// the front of `pending`, some done — or, one time in four, a job
    /// with no tasks at all.
    fn arbitrary_job(rng: &mut TestRng) -> JobExport {
        let n = if rng.index(4) == 0 { 0 } else { rng.index(12) };
        let tasks: Vec<Task> = (0..n as u64)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bits(rng.next_u64()),
                    SimDuration::from_micros(rng.next_u64()),
                    DataSize::from_bits(rng.next_u64()),
                )
            })
            .collect();
        let mut pending = Vec::new();
        let mut assigned = Vec::new();
        let mut completed = Vec::new();
        for task in &tasks {
            match rng.index(4) {
                0 => pending.push(task.id),
                1 => pending.insert(0, task.id), // re-queued after a node loss
                2 => assigned.push((task.id, NodeId::new(rng.next_u64()))),
                _ => completed.push(task.id),
            }
        }
        JobExport {
            job: Job {
                id: JobId::new(rng.next_u64()),
                image: ImageId::new(rng.next_u64()),
                image_size: DataSize::from_bits(rng.next_u64()),
                tasks,
            },
            pending,
            assigned,
            completed,
            submitted_age: SimDuration::from_micros(rng.next_u64()),
            completed_age: some_or_none(rng, |rng| SimDuration::from_micros(rng.next_u64())),
            requeues: rng.next_u64(),
        }
    }

    fn arbitrary_request(rng: &mut TestRng) -> RequestExport {
        RequestExport {
            request: ProviderRequest(rng.next_u64()),
            job: JobId::new(rng.next_u64()),
            instance: InstanceId::new(rng.next_u64()),
            target: rng.next_u64(),
            submitted_age: SimDuration::from_micros(rng.next_u64()),
            state: [RequestState::Running, RequestState::Complete][rng.index(2)],
            report: some_or_none(rng, |rng| JobReport {
                job: JobId::new(rng.next_u64()),
                instance: InstanceId::new(rng.next_u64()),
                target_nodes: rng.next_u64(),
                makespan: SimDuration::from_micros(rng.next_u64()),
                tasks_completed: rng.next_u64(),
                requeues: rng.next_u64(),
                wakeup_broadcasts: rng.next_u64() as u32,
            }),
        }
    }

    fn arbitrary_image(rng: &mut TestRng) -> ImageExport {
        ImageExport {
            db_seed: rng.next_u64(),
            db_len: rng.next_u64(),
            k: rng.next_u64(),
            matched: rng.next_u64() as i32,
            mismatch: rng.next_u64() as i32,
            gap: rng.next_u64() as i32,
            window: rng.next_u64(),
            min_score: rng.next_u64() as i32,
        }
    }

    /// A snapshot with every field drawn at random: up to three shards,
    /// jobs of every shape, several images, and both arms of each option.
    fn arbitrary_state(rng: &mut TestRng) -> SnapshotState {
        let jobs: Vec<JobExport> = (0..rng.index(4)).map(|_| arbitrary_job(rng)).collect();
        let job_queries = jobs
            .iter()
            .map(|j| {
                let queries = (0..j.job.tasks.len())
                    .map(|_| ids(rng, 20, |b| b as u8))
                    .collect();
                (j.job.id, queries)
            })
            .collect();
        let job_scores = jobs
            .iter()
            .map(|j| {
                let scores = j
                    .completed
                    .iter()
                    .map(|&t| (t, rng.next_u64() as i32))
                    .collect();
                (j.job.id, scores)
            })
            .collect();
        SnapshotState {
            epoch: rng.next_u64(),
            taken_at_us: rng.next_u64(),
            shards: (0..1 + rng.index(3))
                .map(|_| arbitrary_controller(rng))
                .collect(),
            backend: BackendState { jobs },
            provider: ProviderState {
                requests: (0..rng.index(3)).map(|_| arbitrary_request(rng)).collect(),
                next: rng.next_u64(),
            },
            instance_job: ids(rng, 3, |i| (InstanceId::new(i), JobId::new(!i))),
            job_queries,
            job_scores,
            wakeups: ids(rng, 3, |i| (InstanceId::new(i), i as u32)),
            images: (0..rng.index(4))
                .map(|_| (InstanceId::new(rng.next_u64()), arbitrary_image(rng)))
                .collect(),
            wire_next_node: rng.next_u64(),
            wire_nodes: ids(rng, 8, |n| n),
            autoscale: some_or_none(rng, |rng| AutoscaleExport {
                desired: rng.next_u64() as usize,
                cooldown_remaining_micros: rng.next_u64(),
                pending_replace: rng.next_u64() & 1 == 1,
                ticks: rng.next_u64(),
                scale_ups: rng.next_u64(),
                scale_downs: rng.next_u64(),
                replacements: rng.next_u64(),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every generated state survives the container byte for byte.
        #[test]
        fn arbitrary_state_round_trips(seed in any::<u64>()) {
            let state = arbitrary_state(&mut TestRng::new(seed));
            let bytes = encode(&state);
            prop_assert_eq!(peek_epoch(&bytes), Ok(state.epoch));
            prop_assert_eq!(decode(&bytes), Ok(state));
        }
    }

    #[test]
    fn v1_json_container_is_refused() {
        // The payload layout before the binary codec: a JSON object.
        let json = br#"{"epoch":3,"taken_at_us":1234567,"shards":[],"backend":{"jobs":[]}}"#;
        let bytes = seal(1, 3, json);
        assert_eq!(decode(&bytes), Err(SnapshotError::UnsupportedVersion(1)));
        let dir = std::env::temp_dir().join(format!("oddci-snap-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(SNAPSHOT_FILE);
        std::fs::write(&path, &bytes).expect("write");
        let err = read_file(&path).expect_err("a v1 snapshot is never adopted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_autoscale_round_trips() {
        let mut snap = sample();
        snap.autoscale = None;
        assert_eq!(decode(&encode(&snap)), Ok(snap.clone()));
        snap.autoscale = Some(AutoscaleExport {
            desired: 3,
            cooldown_remaining_micros: 0,
            pending_replace: false,
            ticks: 1,
            scale_ups: 0,
            scale_downs: 0,
            replacements: 0,
        });
        assert_eq!(decode(&encode(&snap)), Ok(snap));
    }

    #[test]
    fn hostile_counts_are_refused_without_allocating() {
        // One job declaring 2^32 - 1 tasks, in a container whose checksum
        // is valid: only the count check stands between it and a
        // 137 GB allocation.
        let refused = SnapshotError::Payload("element count exceeds the payload".into());
        let mut w = Writer::new();
        w.u64(0); // taken_at_us
        w.u32(0); // shards
        w.u32(1); // jobs
        w.u64(9); // job id
        w.u64(1); // image
        w.u64(0); // image size
        w.u32(u32::MAX); // tasks
        let bytes = seal(SNAPSHOT_VERSION, 1, &w.into_bytes());
        assert_eq!(decode(&bytes), Err(refused.clone()));

        // The same for the per-job query table.
        let mut w = Writer::new();
        w.u64(0); // taken_at_us
        w.u32(0); // shards
        w.u32(0); // jobs
        w.u32(0); // requests
        w.u64(0); // provider next
        w.u32(0); // instance_job
        w.u32(1); // job_queries
        w.u64(9); // job id
        w.u32(u32::MAX); // queries
        let bytes = seal(SNAPSHOT_VERSION, 1, &w.into_bytes());
        assert_eq!(decode(&bytes), Err(refused));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut payload = encode(&sample())[HEADER_LEN..].to_vec();
        payload.truncate(payload.len() - 4); // drop the checksum
        payload.push(0);
        let bytes = seal(SNAPSHOT_VERSION, 3, &payload);
        assert!(matches!(decode(&bytes), Err(SnapshotError::Payload(_))));
    }

    #[test]
    fn container_round_trips() {
        let snap = sample();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes), Ok(snap.clone()));
        assert_eq!(peek_epoch(&bytes), Ok(3));
    }

    #[test]
    fn truncation_at_every_length_is_a_clean_error() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            assert!(
                decode(&bytes[..n]).is_err(),
                "a {n}-byte prefix of a {}-byte snapshot must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::ChecksumMismatch) | Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(SnapshotError::BadMagic));
        let mut bytes = encode(&sample());
        bytes[4] = 0xEE; // version 0xEE??
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn image_recipe_round_trips() {
        let img = AlignmentImage::small_demo();
        let back = ImageExport::from_image(&img).to_image();
        assert_eq!(back, img);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("oddci-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(SNAPSHOT_FILE);
        let snap = sample();
        write_file(&path, &snap).expect("write");
        assert_eq!(read_file(&path).expect("read"), snap);
        assert!(
            !path.with_extension("tmp").exists(),
            "the temporary is renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
