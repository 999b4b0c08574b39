//! Per-layer measurements taken by calling one crate's public functions
//! directly, on state shaped like the workload that reports them. They run
//! in the traced run only, after its traced pass, and outside its spans.

use crate::common::{median_or_zero, ns_per_call, Outcome, RunCfg};
use oddci_core::{
    Backend, ControlMessage, Controller, ControllerPolicy, Heartbeat, InstanceRequest,
    NodeRequirements, PnaStateKind, SignedMessage, WakeupMessage,
};
use oddci_crypto::MessageAuthenticator;
use oddci_live::{AlignmentImage, SnapshotState};
use oddci_telemetry::{binary, Event, Phase, Telemetry};
use oddci_types::{
    DataSize, ImageId, InstanceId, JobId, MessageId, NodeId, Probability, SimDuration, SimTime,
    TaskId,
};
use oddci_wire::{encode_frame, FrameDecoder, Integrity, WireBatch, WireMsg};
use oddci_workload::alignment::random_sequence;
use oddci_workload::{Job, Task};
use std::hint::black_box;
use std::time::Instant;

/// The controller key the live plane uses by default.
pub const KEY: &[u8] = b"live-oddci-key";

fn job(tasks: u64) -> Job {
    Job::new(
        JobId::new(0),
        ImageId::new(0),
        DataSize::from_megabytes(1),
        (0..tasks)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(150),
                    SimDuration::from_millis(10),
                    DataSize::from_bytes(8),
                )
            })
            .collect(),
    )
}

/// `core.backend.*` on a `tasks`-task job served to `nodes` nodes in
/// batches of `batch`, the way the dispatch pool drives it: each node
/// fetches a batch, then reports it complete.
pub fn core_backend(out: &mut Outcome, tasks: u64, nodes: u64, batch: usize) {
    let job = job(tasks);
    let id = job.id;
    let mut backend = Backend::new();
    let t = Instant::now();
    backend.register_job(job, SimTime::ZERO);
    out.metric(
        "core.backend.register_job_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let (mut fetch_ns, mut fetches, mut complete_ns, mut completes) = (0u128, 0u64, 0u128, 0u64);
    for round in 0u64.. {
        let node = NodeId::new(round % nodes);
        let t = Instant::now();
        let cut = backend.fetch_batch(id, node, batch);
        fetch_ns += t.elapsed().as_nanos();
        fetches += 1;
        let Ok(cut) = cut else {
            out.gate(false, || {
                "core.backend: fetch_batch rejected the job".into()
            });
            return;
        };
        if cut.is_empty() {
            break;
        }
        let now = SimTime::from_micros(round);
        let t = Instant::now();
        for task in &cut {
            let _ = black_box(backend.complete_task(id, task.id, node, now));
        }
        complete_ns += t.elapsed().as_nanos();
        completes += cut.len() as u64;
    }
    out.gate(
        backend.is_complete(id) && backend.unaccounted_tasks(id) == 0,
        || "core.backend: the replayed job did not complete with every task accounted".into(),
    );
    out.metric(
        "core.backend.fetch_batch_ns",
        fetch_ns as f64 / fetches.max(1) as f64,
        "ns",
    );
    out.metric(
        "core.backend.complete_task_ns",
        complete_ns as f64 / completes.max(1) as f64,
        "ns",
    );
}

fn instance_request(target: u64) -> InstanceRequest {
    InstanceRequest {
        image: ImageId::new(1),
        image_size: DataSize::from_kilobytes(20),
        target,
        requirements: NodeRequirements::default(),
    }
}

fn heartbeat(node: u64, instance: Option<InstanceId>, at: SimTime) -> Heartbeat {
    Heartbeat {
        node: NodeId::new(node),
        state: if instance.is_some() {
            PnaStateKind::Busy
        } else {
            PnaStateKind::Idle
        },
        instance,
        sent_at: at,
    }
}

/// `core.controller.on_heartbeat_ns`: busy heartbeats from the members of
/// a 2-node instance, alternating, at the live heartbeat cadence.
pub fn core_heartbeat(out: &mut Outcome) {
    const CALLS: u64 = 400_000;
    let mut c = Controller::new(KEY, ControllerPolicy::default());
    let (inst, _) = c.create_instance(instance_request(2), SimTime::ZERO);
    let ns = ns_per_call(CALLS, |i| {
        let at = SimTime::from_micros(i * 75_000);
        black_box(c.on_heartbeat(heartbeat(i % 2, Some(inst), at), at));
    });
    out.gate(c.instance_size(inst) == 2, || {
        "core.controller: heartbeats did not admit both members".into()
    });
    out.metric("core.controller.on_heartbeat_ns", ns, "ns");
}

/// `core.controller.instance_cycle_us`: one job-stream instance lifetime —
/// create (signed wakeup), admit 2 members by heartbeat, dismantle (signed
/// reset), members report idle.
pub fn core_instance_cycle(out: &mut Outcome) {
    const CYCLES: u64 = 5_000;
    let mut c = Controller::new(KEY, ControllerPolicy::default());
    let mut admitted = true;
    let us = ns_per_call(CYCLES, |i| {
        let at = SimTime::from_micros(i * 10_000);
        let (inst, wakeup) = c.create_instance(instance_request(2), at);
        black_box(wakeup);
        for node in 0..2 {
            black_box(c.on_heartbeat(heartbeat(node, Some(inst), at), at));
        }
        admitted &= c.instance_size(inst) == 2;
        black_box(c.dismantle(inst).ok());
        for node in 0..2 {
            black_box(c.on_heartbeat(heartbeat(node, None, at), at));
        }
    }) / 1e3;
    out.gate(admitted, || {
        "core.controller: an instance cycle did not admit both members".into()
    });
    out.metric("core.controller.instance_cycle_us", us, "us");
}

/// `crypto.sign_verify_us`: sign one wakeup `SignedMessage` and verify it.
pub fn crypto_sign_verify(out: &mut Outcome) {
    const CALLS: u64 = 20_000;
    let auth = MessageAuthenticator::from_key(KEY);
    let mut verified = 0u64;
    let us = ns_per_call(CALLS, |i| {
        let msg = ControlMessage::Wakeup(WakeupMessage {
            id: MessageId::new(i),
            instance: InstanceId::new(i),
            image: ImageId::new(i),
            image_size: DataSize::from_kilobytes(20),
            probability: Probability::new(1.0),
            requirements: NodeRequirements::default(),
        });
        let signed = SignedMessage::sign(msg, &auth);
        verified += u64::from(black_box(&signed).verify(&auth).is_ok());
    }) / 1e3;
    out.gate(verified == CALLS, || {
        format!("crypto: {verified} of {CALLS} signed wakeups verified")
    });
    out.metric("crypto.sign_verify_us", us, "us");
}

/// `workload.index_ms` (index the image's database, as a DVE boot does)
/// and `workload.search_us` (score one query).
pub fn workload_search(out: &mut Outcome, image: &AlignmentImage, query: &[u8]) {
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(image.materialize());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.metric("workload.index_ms", median_or_zero(&samples), "ms");
    let db = image.materialize();
    let us = ns_per_call(2_000, |_| {
        black_box(image.score(&db, black_box(query)));
    }) / 1e3;
    out.metric("workload.search_us", us, "us");
}

/// `wire.frame_encode_ns_per_kib` and `wire.frame_decode_ns_per_kib`: one
/// full 16 KiB chunk sealed and verified with CRC-32.
pub fn wire_frames(out: &mut Outcome, seed: u64) {
    const CALLS: u64 = 2_000;
    let payload = random_sequence(oddci_wire::DEFAULT_CHUNK, seed);
    let kib = payload.len() as f64 / 1024.0;
    let crc = Integrity::Crc32;
    let encode = ns_per_call(CALLS, |i| {
        black_box(encode_frame(&crc, 8, i, 0, 1, black_box(&payload)));
    });
    let frame = encode_frame(&crc, 8, 0, 0, 1, &payload);
    let mut decoder = FrameDecoder::new(Integrity::Crc32);
    let mut intact = 0u64;
    let decode = ns_per_call(CALLS, |_| {
        decoder.extend(&frame);
        intact += u64::from(
            decoder
                .next_frame()
                .is_some_and(|f| f.payload.len() == payload.len()),
        );
    });
    out.gate(intact == CALLS, || {
        format!("wire: {intact} of {CALLS} frames decoded intact")
    });
    out.metric("wire.frame_encode_ns_per_kib", encode / kib, "ns");
    out.metric("wire.frame_decode_ns_per_kib", decode / kib, "ns");
}

/// `wire.msg_roundtrip_ns`: a batch-8 `TaskBatch` of `query_len`-base
/// queries and its `Results` reply, each encoded, framed with the live
/// plane's HMAC integrity, decoded and checked equal.
pub fn wire_roundtrip(out: &mut Outcome, query_len: usize, seed: u64) {
    const CALLS: u64 = 20_000;
    let tasks = job(8)
        .tasks
        .into_iter()
        .map(|t| {
            let q = random_sequence(query_len, seed ^ t.id.raw());
            (t, q)
        })
        .collect();
    let msgs = [
        WireMsg::TaskBatch {
            corr: 1,
            batch: WireBatch::Assigned {
                job: JobId::new(0),
                tasks,
            },
        },
        WireMsg::Results {
            job: JobId::new(0),
            node: NodeId::new(1),
            results: (0..8).map(|i| (TaskId::new(i), 20 + i as i32)).collect(),
        },
    ];
    let hmac = Integrity::hmac(KEY);
    let mut decoder = FrameDecoder::new(Integrity::hmac(KEY));
    let mut equal = 0u64;
    let ns = ns_per_call(CALLS, |i| {
        for msg in &msgs {
            let frame = encode_frame(&hmac, msg.kind(), i, 0, 1, &msg.encode());
            decoder.extend(&frame);
            let back = decoder
                .next_frame()
                .and_then(|f| WireMsg::decode(f.kind, &f.payload).ok());
            equal += u64::from(back.as_ref() == Some(msg));
        }
    });
    out.gate(equal == 2 * CALLS, || {
        format!(
            "wire: {equal} of {} messages survived the round trip",
            2 * CALLS
        )
    });
    out.metric("wire.msg_roundtrip_ns", ns, "ns");
}

/// `snapshot.*` on a headend snapshot: encode and decode time (median of
/// three), container size, and size per task of the job it holds.
pub fn snapshot_codec(out: &mut Outcome, snap: &SnapshotState, tasks: u64) {
    use oddci_live::snapshot::{decode, encode};
    let mut bytes = Vec::new();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut same = true;
    for _ in 0..3 {
        let t = Instant::now();
        bytes = encode(black_box(snap));
        enc.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let back = decode(black_box(&bytes));
        dec.push(t.elapsed().as_secs_f64());
        same &= back.as_ref().is_ok_and(|b| b == snap);
    }
    out.gate(same, || "snapshot: decode(encode(state)) != state".into());
    out.metric("snapshot.encode_s", median_or_zero(&enc), "s");
    out.metric("snapshot.decode_s", median_or_zero(&dec), "s");
    out.metric("snapshot.bytes", bytes.len() as f64, "B");
    out.metric(
        "snapshot.bytes_per_task",
        bytes.len() as f64 / tasks.max(1) as f64,
        "B",
    );
}

/// `telemetry.span_emit_ns`: one span into a recording telemetry handle.
pub fn telemetry_span_emit(out: &mut Outcome) {
    const CALLS: u64 = 1_000_000;
    let tele = Telemetry::recording();
    let ns = ns_per_call(CALLS, |i| {
        tele.span(i, i + 5, Phase::Compute, i % 4, i);
    });
    out.gate(tele.phase_events(Phase::Compute) == CALLS, || {
        "telemetry: span count disagrees with spans emitted".into()
    });
    out.metric("telemetry.span_emit_ns", ns, "ns");
}

/// `telemetry.binary_encode_ns_per_event`: encode `events` (read back from
/// a sweep trace) as one binary block.
pub fn telemetry_binary_encode(out: &mut Outcome, events: &[Event]) {
    if events.is_empty() {
        out.note("telemetry.binary_encode_ns_per_event: no events to encode");
        return;
    }
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(binary::encode_block(0, black_box(events)));
            t.elapsed().as_nanos() as f64 / events.len() as f64
        })
        .collect();
    out.metric(
        "telemetry.binary_encode_ns_per_event",
        median_or_zero(&samples),
        "ns",
    );
}

/// Every layer measured by direct calls, the same on each workload's
/// traced run: the core Backend on a `tasks`-task job served to 2 nodes in
/// batches of 8, a heartbeat and an instance cycle; frame and message
/// codecs with 16-base queries; indexing and searching the 20 kB image;
/// signing a wakeup; and one traced sweep for the simulator and the
/// telemetry sink.
pub fn direct_calls(out: &mut Outcome, cfg: &RunCfg, tasks: u64) {
    core_backend(out, tasks, 2, 8);
    core_heartbeat(out);
    core_instance_cycle(out);
    wire_frames(out, cfg.seed);
    wire_roundtrip(out, 16, cfg.seed);
    let image = crate::live::image(20_000, cfg.seed);
    let db = image.materialize().db().to_vec();
    let query = crate::live::alignment_queries(&db, 1, 0, cfg.seed);
    workload_search(out, &image, &query[0]);
    crypto_sign_verify(out);
    crate::sweep::measure_layers(cfg, out);
}
