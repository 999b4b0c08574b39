//! End-to-end tests of the socket-backed live plane: a headend listening
//! on loopback TCP and PNA clients running the full §3.2 protocol —
//! wakeup (image streamed in chunks), boot, task fetch, result upload,
//! heartbeats and shutdown — over real sockets.

use oddci::faults::{FaultClass, FaultPlan, FaultSpec};
use oddci::live::wire::{run_wire_pna, WirePnaConfig};
use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::wire::{
    ClientConfig, ConnId, Integrity, Outbox, ServerConfig, Waker, WireClient, WireMsg, WireServer,
    WireService,
};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}

fn socket_config(nodes: u64) -> LiveConfig {
    LiveConfig {
        nodes,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        mode: HeadendMode::Socket {
            listen: loopback(),
            shards: 2,
            dispatch: 2,
            batch: 4,
        },
        ..Default::default()
    }
}

fn tiny_image() -> AlignmentImage {
    AlignmentImage {
        db_len: 20_000,
        ..AlignmentImage::small_demo()
    }
}

/// Spawns `n` in-process PNAs against `addr` (each the same code a
/// standalone `oddci pna` process runs) and returns their join handles.
fn spawn_pnas(
    addr: SocketAddr,
    n: u64,
    faults: FaultPlan,
) -> Vec<std::thread::JoinHandle<oddci::live::WirePnaReport>> {
    (0..n)
        .map(|i| {
            let faults = faults.clone();
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = 1000 + i;
                cfg.heartbeat_interval = Duration::from_millis(60);
                cfg.faults = faults;
                run_wire_pna(cfg).expect("pna runs to shutdown")
            })
        })
        .collect()
}

#[test]
fn socket_job_completes_over_loopback() {
    let live = LiveOddci::start(socket_config(3));
    let addr = live.wire_addr().expect("socket mode exposes its address");
    let pnas = spawn_pnas(addr, 3, FaultPlan::none());

    let outcome = live
        .run_alignment_job(tiny_image(), 10, 3, Duration::from_secs(60))
        .expect("socket-backed job completes");
    assert_eq!(outcome.scores.len(), 10);
    assert_eq!(outcome.report.tasks_completed, 10);
    // Planted homologs (even task ids) must outscore random noise (odd):
    // proof the computation really ran on the remote side of the wire.
    let planted_min = outcome
        .scores
        .iter()
        .filter(|(t, _)| t.raw() % 2 == 0)
        .map(|(_, &s)| s)
        .min()
        .expect("planted scores");
    let noise_max = outcome
        .scores
        .iter()
        .filter(|(t, _)| t.raw() % 2 == 1)
        .map(|(_, &s)| s)
        .max()
        .expect("noise scores");
    assert!(
        planted_min > noise_max,
        "planted_min={planted_min} noise_max={noise_max}"
    );

    let stats = live.wire_stats().expect("socket mode exposes stats");
    assert!(
        stats.multi_chunk_tx >= 1,
        "the wakeup image must stream in more than one chunk (got {})",
        stats.multi_chunk_tx
    );
    assert_eq!(stats.checksum_rejects, 0, "clean run rejects nothing");

    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);

    for pna in pnas {
        let r = pna.join().expect("pna thread exits cleanly");
        assert!(
            r.stats.rx_messages > 0,
            "node {} heard the headend",
            r.node.raw()
        );
    }
}

#[test]
fn socket_plane_survives_wire_faults() {
    // Every frame class misbehaves at a low rate on both directions; the
    // envelope layer must reject garbage (never deliver it) and the
    // protocol's retries must still finish the job.
    let plan = FaultPlan::none()
        .with(FaultSpec::new(FaultClass::FrameCorrupt, 0.03))
        .with(FaultSpec::new(FaultClass::FrameTruncate, 0.02))
        .with(FaultSpec::new(FaultClass::FrameReorder, 0.08));
    let config = LiveConfig {
        faults: plan.clone(),
        ..socket_config(3)
    };
    let live = LiveOddci::start(config);
    let addr = live.wire_addr().expect("address");
    let pnas = spawn_pnas(addr, 3, plan);
    // Let every PNA finish its (retried, possibly mangled) handshake
    // before the wakeup goes out — a short job must not shut the plane
    // down while a straggler is still mid-hello.
    std::thread::sleep(Duration::from_millis(500));

    let outcome = live
        .run_alignment_job(tiny_image(), 8, 2, Duration::from_secs(120))
        .expect("job completes despite mangled frames");
    assert_eq!(outcome.report.tasks_completed, 8);

    let server = live.wire_stats().expect("stats");
    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);
    let mut mangled = server.mangled_corrupt + server.mangled_truncate + server.mangled_reorder;
    for pna in pnas {
        let r = pna.join().expect("pna exits");
        // A corrupted inbound frame must be rejected by the checksum,
        // not delivered: rejects counted, garbage never decoded.
        assert!(r.stats.rx_messages + r.stats.checksum_rejects > 0);
        mangled += r.stats.mangled_corrupt + r.stats.mangled_truncate + r.stats.mangled_reorder;
    }
    assert!(mangled > 0, "the injector actually fired somewhere");
}

#[test]
fn late_pnas_join_via_rebroadcast() {
    // PNAs that connect after the wakeup went out still catch it on the
    // carousel's next pass — the paper's repeated-broadcast behavior.
    let live = LiveOddci::start(socket_config(2));
    let addr = live.wire_addr().expect("address");

    // Submit the job before anyone is listening, then start the fleet:
    // the carousel re-broadcasts until the instance fills.
    let mut pnas = Vec::new();
    let outcome = std::thread::scope(|s| {
        let job = s.spawn(|| live.run_alignment_job(tiny_image(), 6, 2, Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(300));
        pnas = spawn_pnas(addr, 2, FaultPlan::none());
        job.join().expect("job thread")
    })
    .expect("job completes");
    assert_eq!(outcome.report.tasks_completed, 6);

    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
    assert_eq!(report.threads_failed, 0);
    for pna in pnas {
        pna.join().expect("pna exits");
    }
}

/// A service that answers nothing itself: it hands each message to a
/// worker thread, which echoes it back on a channel and rings the
/// serving loop's waker — the shape of the live headend, whose dispatch
/// workers answer task fetches off the serving thread.
struct OffThreadEcho {
    to_worker: std::sync::mpsc::Sender<(ConnId, WireMsg)>,
    replies: std::sync::mpsc::Receiver<(ConnId, WireMsg)>,
}

impl WireService for OffThreadEcho {
    fn on_message(&mut self, conn: ConnId, msg: WireMsg, _out: &mut Outbox) {
        let _ = self.to_worker.send((conn, msg));
    }

    fn poll(&mut self, out: &mut Outbox) {
        while let Ok((conn, msg)) = self.replies.try_recv() {
            out.send(conn, msg);
        }
    }
}

#[test]
fn replies_from_another_thread_arrive_through_the_waker() {
    let waker = Waker::new().expect("waker");
    let (to_worker, work) = std::sync::mpsc::channel::<(ConnId, WireMsg)>();
    let (reply_tx, replies) = std::sync::mpsc::channel();
    let worker = {
        let waker = waker.clone();
        std::thread::spawn(move || {
            for (conn, msg) in work {
                // Answer a little late, as a dispatch worker does: by
                // then the loop has finished the passes that carried the
                // request and sleeps in its readiness wait.
                std::thread::sleep(Duration::from_millis(2));
                if reply_tx.send((conn, msg)).is_err() {
                    return;
                }
                waker.wake();
            }
        })
    };
    let service = OffThreadEcho { to_worker, replies };
    let mut server = WireServer::bind(
        loopback(),
        ServerConfig::new(Integrity::Crc32),
        waker,
        service,
    )
    .expect("bind");
    let mut client = WireClient::connect(server.local_addr(), ClientConfig::new(Integrity::Crc32))
        .expect("connect");

    // Strictly one request in flight at a time, so every reply waits on
    // the serving loop's readiness wait: only the waker ends it early.
    const ROUND_TRIPS: u64 = 50;
    let begin = Instant::now();
    for corr in 0..ROUND_TRIPS {
        assert!(client.send(&WireMsg::StatsQuery { corr }));
        match client.receiver().recv_timeout(Duration::from_secs(5)) {
            Ok(WireMsg::StatsQuery { corr: back }) => assert_eq!(back, corr),
            other => panic!("round trip {corr}: unexpected {other:?}"),
        }
    }
    // Without the waker each reply would sit until the loop's fallback
    // tick (100 ms): 50 round trips would take at least 5 s.
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_millis(2500),
        "{ROUND_TRIPS} woken round trips took {elapsed:?}"
    );

    client.close();
    assert!(server.stop(), "serving thread exited cleanly");
    worker
        .join()
        .expect("worker exits once the service is gone");
}

#[test]
fn an_idle_server_stops_well_before_its_drain_grace() {
    struct Silent;
    impl WireService for Silent {
        fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
    }
    let mut config = ServerConfig::new(Integrity::Crc32);
    config.drain_grace = Duration::from_secs(10);
    let mut server =
        WireServer::bind(loopback(), config, Waker::new().expect("waker"), Silent).expect("bind");
    let client = WireClient::connect(server.local_addr(), ClientConfig::new(Integrity::Crc32))
        .expect("connect");
    // Let the loop accept the peer and settle into its readiness wait.
    std::thread::sleep(Duration::from_millis(200));
    let begin = Instant::now();
    assert!(server.stop());
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "stopping an idle server took {elapsed:?} (drain grace 10 s)"
    );
    drop(client);
}
