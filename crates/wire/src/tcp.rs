//! The `std::net` TCP transport: a readiness-driven serving loop for
//! the headend and a blocking direct-channel client for each PNA.
//!
//! # Serving-loop thread model
//!
//! [`WireServer::bind`] spawns **one** serving thread that owns the
//! listener and every accepted connection. Each pass it
//!
//! 1. resets its [`Waker`] (drains the wake pair, then disarms),
//! 2. accepts any pending connections (non-blocking listener),
//! 3. reads available bytes from every connection into that
//!    connection's [`FrameDecoder`] and [`Reassembler`], handing each
//!    completed message to the [`WireService`],
//! 4. calls [`WireService::poll`] so the service can emit unprompted
//!    traffic (broadcasts, replies that became ready),
//! 5. encodes the [`Outbox`] into per-connection output buffers
//!    (chunking large payloads, applying wire faults when an injector
//!    is armed), and
//! 6. flushes those buffers until the sockets would block.
//!
//! A pass that moved nothing ends in a `poll(2)` readiness wait on the
//! listener, every open connection (readable, plus writable while output
//! is pending) and the waker. The loop therefore wakes the moment a peer
//! sends, a socket drains, or another thread rings the waker after
//! queueing a reply; there is no fixed sleep on the hot path. A constant
//! fallback tick bounds the wait, so the service's timeout reaping and
//! the drain deadline still run on an otherwise silent plane.
//!
//! A stop request keeps the loop alive until every output buffer drains
//! (or a grace period expires) so a final shutdown broadcast actually
//! reaches the peers; [`WireServer::stop`] rings the waker, so an idle
//! server stops at once. Single-threaded connection ownership means the
//! service never needs a lock around connection state — the serving loop
//! *is* the serialization point, mirroring the polling-loop shape used by
//! the in-process headend carousel.
//!
//! The [`WireClient`] is the PNA half: a blocking connect (with retry
//! until a deadline, since the headend may still be binding), a reader
//! thread that turns socket bytes into decoded [`WireMsg`]s on a
//! channel, and a mutex-guarded writer usable from any node thread.

use crate::envelope::{encode_chunks, Reassembler, ReassemblyStats};
use crate::fault::mangle_frames;
use crate::frame::{DecodeStats, FrameDecoder, Integrity, DEFAULT_CHUNK};
use crate::message::WireMsg;
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::{Waker, WireError};
use oddci_check::sync::{self, Mutex, Receiver};
use oddci_faults::FaultInjector;
use oddci_telemetry::{Phase, Telemetry};
use oddci_types::{NodeId, SimTime};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Identifies one accepted connection for the lifetime of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

impl ConnId {
    /// The raw connection number (monotonic per server, starting at 1).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// Per-connection traffic counters, maintained by the serving loop in a
/// [`ConnStatsHub`]. The aggregate [`WireStats`] answers "how busy is
/// the plane"; this answers "which peer is misbehaving" — a PNA behind a
/// corrupting link shows up as one row with climbing `checksum_rejects`
/// while the fleet's totals stay healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnTraffic {
    /// The connection's id ([`ConnId::raw`]).
    pub conn: u64,
    /// Still connected? Closed rows keep their final counters.
    pub open: bool,
    /// Frames queued to this peer.
    pub tx_frames: u64,
    /// Frames read and checksum-verified from this peer.
    pub rx_frames: u64,
    /// Bytes written to this peer's socket.
    pub tx_bytes: u64,
    /// Bytes read from this peer's socket.
    pub rx_bytes: u64,
    /// This peer's frames rejected on a failed check.
    pub checksum_rejects: u64,
    /// Times this peer's decoder scanned forward for the next magic.
    pub resyncs: u64,
}

/// Shared ledger of [`ConnTraffic`] rows, keyed by connection id. Hand
/// one `Arc` to [`ServerConfig::conn_stats`] (the serving loop updates
/// it) and keep a clone wherever the numbers are served from — the live
/// wire service answers `StatsQuery` out of it, and the headend CLI
/// prints it in the shutdown summary. Disconnected peers stay listed
/// with their final counters and `open: false`.
#[derive(Debug)]
pub struct ConnStatsHub {
    inner: Mutex<BTreeMap<u64, ConnTraffic>>,
}

impl Default for ConnStatsHub {
    fn default() -> Self {
        ConnStatsHub {
            inner: Mutex::named(BTreeMap::new(), "wire.conn_stats"),
        }
    }
}

impl ConnStatsHub {
    /// An empty ledger.
    pub fn new() -> ConnStatsHub {
        ConnStatsHub::default()
    }

    fn update(&self, conn: u64, f: impl FnOnce(&mut ConnTraffic)) {
        let mut rows = self.inner.lock();
        let row = rows.entry(conn).or_insert_with(|| ConnTraffic {
            conn,
            open: true,
            ..ConnTraffic::default()
        });
        f(row);
    }

    /// All rows, ordered by connection id.
    pub fn snapshot(&self) -> Vec<ConnTraffic> {
        self.inner.lock().values().copied().collect()
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    open: AtomicU64,
    tx_frames: AtomicU64,
    rx_frames: AtomicU64,
    tx_bytes: AtomicU64,
    rx_bytes: AtomicU64,
    tx_messages: AtomicU64,
    rx_messages: AtomicU64,
    multi_chunk_tx: AtomicU64,
    multi_chunk_rx: AtomicU64,
    checksum_rejects: AtomicU64,
    resyncs: AtomicU64,
    duplicates: AtomicU64,
    reassembly_rejects: AtomicU64,
    mangled_corrupt: AtomicU64,
    mangled_truncate: AtomicU64,
    mangled_reorder: AtomicU64,
}

/// Shared traffic counters of one transport endpoint (server or client).
/// Cheap to clone; all methods are lock-free reads.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    inner: Arc<StatsInner>,
}

/// A point-in-time copy of every [`WireStats`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStatsSnapshot {
    /// Connections accepted (server) or established (client).
    pub accepted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Frames written to sockets.
    pub tx_frames: u64,
    /// Frames read and checksum-verified.
    pub rx_frames: u64,
    /// Bytes written to sockets.
    pub tx_bytes: u64,
    /// Bytes read from sockets.
    pub rx_bytes: u64,
    /// Messages sent (before chunking).
    pub tx_messages: u64,
    /// Messages fully reassembled and delivered.
    pub rx_messages: u64,
    /// Sent messages that needed more than one frame.
    pub multi_chunk_tx: u64,
    /// Delivered messages that arrived in more than one frame.
    pub multi_chunk_rx: u64,
    /// Frames rejected on a failed check or malformed header.
    pub checksum_rejects: u64,
    /// Times a decoder scanned forward for the next magic.
    pub resyncs: u64,
    /// Duplicate chunks or replayed messages dropped.
    pub duplicates: u64,
    /// Messages dropped by the reassembler (inconsistent chunks).
    pub reassembly_rejects: u64,
    /// Frames deliberately corrupted by the fault injector.
    pub mangled_corrupt: u64,
    /// Frames deliberately truncated by the fault injector.
    pub mangled_truncate: u64,
    /// Sends deliberately reordered/duplicated by the fault injector.
    pub mangled_reorder: u64,
}

impl WireStats {
    /// Fresh zeroed counters.
    pub fn new() -> WireStats {
        WireStats::default()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> WireStatsSnapshot {
        let i = &self.inner;
        WireStatsSnapshot {
            accepted: i.accepted.load(Ordering::Relaxed),
            open: i.open.load(Ordering::Relaxed),
            tx_frames: i.tx_frames.load(Ordering::Relaxed),
            rx_frames: i.rx_frames.load(Ordering::Relaxed),
            tx_bytes: i.tx_bytes.load(Ordering::Relaxed),
            rx_bytes: i.rx_bytes.load(Ordering::Relaxed),
            tx_messages: i.tx_messages.load(Ordering::Relaxed),
            rx_messages: i.rx_messages.load(Ordering::Relaxed),
            multi_chunk_tx: i.multi_chunk_tx.load(Ordering::Relaxed),
            multi_chunk_rx: i.multi_chunk_rx.load(Ordering::Relaxed),
            checksum_rejects: i.checksum_rejects.load(Ordering::Relaxed),
            resyncs: i.resyncs.load(Ordering::Relaxed),
            duplicates: i.duplicates.load(Ordering::Relaxed),
            reassembly_rejects: i.reassembly_rejects.load(Ordering::Relaxed),
            mangled_corrupt: i.mangled_corrupt.load(Ordering::Relaxed),
            mangled_truncate: i.mangled_truncate.load(Ordering::Relaxed),
            mangled_reorder: i.mangled_reorder.load(Ordering::Relaxed),
        }
    }

    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn absorb_decode_delta(&self, prev: &mut DecodeStats, now: DecodeStats) {
        Self::add(&self.inner.rx_frames, now.frames - prev.frames);
        Self::add(&self.inner.checksum_rejects, now.rejected - prev.rejected);
        Self::add(&self.inner.resyncs, now.resyncs - prev.resyncs);
        *prev = now;
    }

    fn absorb_reassembly_delta(&self, prev: &mut ReassemblyStats, now: ReassemblyStats) {
        Self::add(&self.inner.rx_messages, now.messages - prev.messages);
        Self::add(
            &self.inner.multi_chunk_rx,
            now.multi_chunk - prev.multi_chunk,
        );
        Self::add(&self.inner.duplicates, now.duplicates - prev.duplicates);
        Self::add(&self.inner.reassembly_rejects, now.rejected - prev.rejected);
        *prev = now;
    }

    fn record_send(&self, frames: &[Vec<u8>]) {
        Self::add(&self.inner.tx_messages, 1);
        Self::add(&self.inner.tx_frames, frames.len() as u64);
        if frames.len() > 1 {
            Self::add(&self.inner.multi_chunk_tx, 1);
        }
    }

    fn record_mangle(&self, report: crate::fault::MangleReport) {
        Self::add(&self.inner.mangled_corrupt, report.corrupted);
        Self::add(&self.inner.mangled_truncate, report.truncated);
        Self::add(&self.inner.mangled_reorder, report.reordered);
    }
}

/// Mirrors endpoint traffic into the shared telemetry registry and, when
/// recording, the event stream.
#[derive(Clone)]
struct TeleMirror {
    telemetry: Telemetry,
    start: Instant,
    tx_bytes: oddci_telemetry::Counter,
    rx_bytes: oddci_telemetry::Counter,
    tx_frames: oddci_telemetry::Counter,
    rx_frames: oddci_telemetry::Counter,
    connections: oddci_telemetry::Gauge,
}

impl TeleMirror {
    fn new(telemetry: Telemetry, start: Instant) -> TeleMirror {
        let reg = telemetry.registry();
        TeleMirror {
            tx_bytes: reg.counter("wire.tx.bytes"),
            rx_bytes: reg.counter("wire.rx.bytes"),
            tx_frames: reg.counter("wire.tx.frames"),
            rx_frames: reg.counter("wire.rx.frames"),
            connections: reg.gauge("wire.connections"),
            telemetry,
            start,
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn instant(&self, phase: Phase, track: u64, scope: u64) {
        self.telemetry.instant(self.now_us(), phase, track, scope);
    }
}

/// What a [`WireService`] hands back to the serving loop: messages to
/// write and, possibly, a request to wind the server down.
#[derive(Debug, Default)]
pub struct Outbox {
    queue: Vec<(Option<ConnId>, WireMsg)>,
    stop: bool,
}

impl Outbox {
    /// An empty outbox (exposed so service implementations can be unit
    /// tested without a socket).
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queues `msg` for one connection.
    pub fn send(&mut self, conn: ConnId, msg: WireMsg) {
        self.queue.push((Some(conn), msg));
    }

    /// Queues `msg` for every open connection.
    pub fn broadcast(&mut self, msg: WireMsg) {
        self.queue.push((None, msg));
    }

    /// Asks the serving loop to drain its buffers and exit.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// Messages queued so far (for service unit tests).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// The application half of a [`WireServer`]: the serving loop owns the
/// sockets, the service owns the protocol. All callbacks run on the
/// serving thread, so implementations need no internal locking for
/// per-connection state.
pub trait WireService: Send {
    /// A connection was accepted.
    fn on_connect(&mut self, _conn: ConnId, _out: &mut Outbox) {}

    /// A complete message arrived on `conn`.
    fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox);

    /// `conn` closed (EOF or error). Queued output for it is dropped.
    fn on_disconnect(&mut self, _conn: ConnId, _out: &mut Outbox) {}

    /// Called on every pass of the serving loop: after traffic, after
    /// each wake of the server's [`Waker`], and at least once per
    /// fallback tick. The place to surface replies that became ready on
    /// internal channels — whoever queues such a reply rings the waker.
    fn poll(&mut self, _out: &mut Outbox) {}
}

/// Configuration of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Frame checksum flavour (HMAC in the live plane).
    pub integrity: Integrity,
    /// Chunk payload size for outbound messages.
    pub max_chunk: usize,
    /// How long a stopping server keeps flushing unsent output.
    pub drain_grace: Duration,
    /// Wire fault injector (disabled by default); outbound frames to
    /// connection *n* mangle under `NodeId(n)`.
    pub injector: FaultInjector,
    /// Telemetry handle for counters and `wire.*` instants.
    pub telemetry: Telemetry,
    /// Per-connection counter ledger (off by default). The serving loop
    /// writes it; keep a clone of the `Arc` to read it elsewhere.
    pub conn_stats: Option<Arc<ConnStatsHub>>,
}

impl ServerConfig {
    /// Defaults: 16 KiB chunks, 2 s drain grace, no faults, telemetry
    /// off, no per-connection ledger.
    pub fn new(integrity: Integrity) -> ServerConfig {
        ServerConfig {
            integrity,
            max_chunk: DEFAULT_CHUNK,
            drain_grace: Duration::from_secs(2),
            injector: FaultInjector::disabled(),
            telemetry: Telemetry::disabled(),
            conn_stats: None,
        }
    }
}

struct ServerConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    reassembler: Reassembler,
    prev_decode: DecodeStats,
    prev_reassembly: ReassemblyStats,
    outbuf: Vec<u8>,
    out_pos: usize,
    next_seq: u64,
    open: bool,
}

impl ServerConn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }
}

/// Upper bound on one readiness wait. Nothing on the hot path waits for
/// it: it only lets the service's `poll` reap timed-out replies and a
/// stopping loop reach its drain deadline when no socket stirs.
const FALLBACK_TICK: Duration = Duration::from_millis(100);

/// A headend-side socket endpoint: binds, accepts, and runs a
/// [`WireService`] on a single serving thread until stopped.
pub struct WireServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<JoinHandle<()>>,
    stats: WireStats,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// serving loop with `service`. The loop sleeps until a socket is
    /// ready or `waker` rings: a service whose replies are produced on
    /// other threads hands those threads clones of `waker`, and they ring
    /// it after queueing each reply.
    pub fn bind<S: WireService + 'static>(
        addr: SocketAddr,
        config: ServerConfig,
        waker: Waker,
        service: S,
    ) -> Result<WireServer, WireError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = WireStats::new();
        let thread_stop = Arc::clone(&stop);
        let thread_waker = waker.clone();
        let thread_stats = stats.clone();
        let handle = thread::Builder::new()
            .name("wire-server".into())
            .spawn(move || {
                serve(
                    listener,
                    config,
                    service,
                    thread_stop,
                    thread_waker,
                    thread_stats,
                );
            })
            .map_err(WireError::Io)?;
        Ok(WireServer {
            local_addr,
            stop,
            waker,
            handle: Some(handle),
            stats,
        })
    }

    /// The bound address (reports the ephemeral port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's traffic counters.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// Stops the serving loop and joins it. The loop returns as soon as
    /// its output buffers are flushed (at once when idle), or when the
    /// drain grace expires. Returns `false` if the serving thread had
    /// panicked.
    pub fn stop(&mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        match self.handle.take() {
            Some(h) => h.join().is_ok(),
            None => true,
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Blocks until the listener (while accepting), a connection (readable,
/// or writable while it has output pending) or the waker is ready, or
/// until `timeout` passes. `fds` is scratch space reused across passes.
fn wait_ready(
    listener: Option<&TcpListener>,
    conns: &BTreeMap<ConnId, ServerConn>,
    waker: &Waker,
    fds: &mut Vec<PollFd>,
    timeout: Duration,
) {
    fds.clear();
    fds.push(PollFd::new(waker.fd(), POLLIN));
    if let Some(l) = listener {
        fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
    }
    for conn in conns.values().filter(|c| c.open) {
        let events = if conn.pending_out() > 0 {
            POLLIN | POLLOUT
        } else {
            POLLIN
        };
        fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
    }
    // A failed poll (out of memory, too many descriptors) falls back to
    // waiting on the waker alone, so the loop neither spins nor misses a
    // stop; the next pass retries every socket anyway.
    if poll::wait(fds, timeout).is_err() {
        let _ = poll::wait(&mut [PollFd::new(waker.fd(), POLLIN)], timeout);
    }
}

/// The serving loop body. Runs on the dedicated server thread.
fn serve<S: WireService>(
    listener: TcpListener,
    config: ServerConfig,
    mut service: S,
    stop: Arc<AtomicBool>,
    waker: Waker,
    stats: WireStats,
) {
    let start = Instant::now();
    let mirror = TeleMirror::new(config.telemetry.clone(), start);
    let mut conns: BTreeMap<ConnId, ServerConn> = BTreeMap::new();
    let mut next_conn: u64 = 1;
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut outbox = Outbox::new();
    let mut drain_deadline: Option<Instant> = None;
    let mut fds = Vec::new();

    loop {
        // 1. Reset the waker. Disarm before anything below reads the
        // stop flag or drains a reply channel: a stop or a reply from
        // here on re-arms the waker and ends this pass's wait at once.
        waker.reset();
        let stopping = stop.load(Ordering::SeqCst);
        let mut progressed = false;

        // 2. Accept (not while stopping: the fleet is winding down).
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let conn = ConnId(next_conn);
                        next_conn += 1;
                        conns.insert(
                            conn,
                            ServerConn {
                                stream,
                                decoder: FrameDecoder::new(config.integrity.clone()),
                                reassembler: Reassembler::new(),
                                prev_decode: DecodeStats::default(),
                                prev_reassembly: ReassemblyStats::default(),
                                outbuf: Vec::new(),
                                out_pos: 0,
                                next_seq: 0,
                                open: true,
                            },
                        );
                        WireStats::add(&stats.inner.accepted, 1);
                        WireStats::add(&stats.inner.open, 1);
                        if let Some(hub) = &config.conn_stats {
                            hub.update(conn.raw(), |t| t.open = true);
                        }
                        mirror.connections.set(conns.len() as f64);
                        mirror.instant(Phase::WireConnect, conn.raw(), 0);
                        service.on_connect(conn, &mut outbox);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 3. Read every connection and deliver completed messages.
        let ids: Vec<ConnId> = conns.keys().copied().collect();
        for conn_id in &ids {
            let Some(conn) = conns.get_mut(conn_id) else {
                continue;
            };
            if !conn.open {
                continue;
            }
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        conn.open = false;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        WireStats::add(&stats.inner.rx_bytes, n as u64);
                        mirror.rx_bytes.add(n as u64);
                        if let Some(hub) = &config.conn_stats {
                            hub.update(conn_id.raw(), |t| t.rx_bytes += n as u64);
                        }
                        conn.decoder.extend(&read_buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.open = false;
                        break;
                    }
                }
            }
            let mut delivered = Vec::new();
            while let Some(frame) = conn.decoder.next_frame() {
                if let Some(msg) = conn.reassembler.push(frame) {
                    if let Ok(decoded) = WireMsg::decode(msg.kind, &msg.payload) {
                        delivered.push((decoded, msg.seq));
                    }
                }
            }
            let decode_now = conn.decoder.stats();
            let reassembly_now = conn.reassembler.stats();
            if let Some(hub) = &config.conn_stats {
                hub.update(conn_id.raw(), |t| {
                    t.rx_frames += decode_now.frames - conn.prev_decode.frames;
                    t.checksum_rejects += decode_now.rejected - conn.prev_decode.rejected;
                    t.resyncs += decode_now.resyncs - conn.prev_decode.resyncs;
                });
            }
            stats.absorb_decode_delta(&mut conn.prev_decode, decode_now);
            stats.absorb_reassembly_delta(&mut conn.prev_reassembly, reassembly_now);
            mirror
                .rx_frames
                .set(stats.inner.rx_frames.load(Ordering::Relaxed));
            for (msg, seq) in delivered {
                progressed = true;
                mirror.instant(Phase::WireRx, conn_id.raw(), seq);
                service.on_message(*conn_id, msg, &mut outbox);
            }
        }

        // 4. Give the service its pass.
        service.poll(&mut outbox);

        // 5. Encode the outbox into per-connection buffers.
        if outbox.stop {
            stop.store(true, Ordering::SeqCst);
            outbox.stop = false;
            progressed = true;
        }
        let queue = std::mem::take(&mut outbox.queue);
        for (target, msg) in queue {
            progressed = true;
            let payload = msg.encode();
            let kind = msg.kind();
            let targets: Vec<ConnId> = match target {
                Some(c) => vec![c],
                None => conns
                    .iter()
                    .filter(|(_, c)| c.open)
                    .map(|(id, _)| *id)
                    .collect(),
            };
            for conn_id in targets {
                let Some(conn) = conns.get_mut(&conn_id) else {
                    continue;
                };
                if !conn.open {
                    continue;
                }
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let mut frames =
                    encode_chunks(&config.integrity, kind, seq, &payload, config.max_chunk);
                stats.record_send(&frames);
                let now = SimTime::from_micros(start.elapsed().as_micros() as u64);
                let report = mangle_frames(
                    &config.injector,
                    NodeId::new(conn_id.raw()),
                    now,
                    &mut frames,
                );
                stats.record_mangle(report);
                mirror.instant(Phase::WireTx, conn_id.raw(), seq);
                if let Some(hub) = &config.conn_stats {
                    hub.update(conn_id.raw(), |t| t.tx_frames += frames.len() as u64);
                }
                for frame in &frames {
                    mirror.tx_frames.inc();
                    conn.outbuf.extend_from_slice(frame);
                }
            }
        }

        // 6. Flush output buffers.
        for (conn_id, conn) in conns.iter_mut() {
            if !conn.open || conn.pending_out() == 0 {
                continue;
            }
            loop {
                let pending = &conn.outbuf[conn.out_pos..];
                if pending.is_empty() {
                    break;
                }
                match conn.stream.write(pending) {
                    Ok(0) => {
                        conn.open = false;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.out_pos += n;
                        WireStats::add(&stats.inner.tx_bytes, n as u64);
                        mirror.tx_bytes.add(n as u64);
                        if let Some(hub) = &config.conn_stats {
                            hub.update(conn_id.raw(), |t| t.tx_bytes += n as u64);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.open = false;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.outbuf.len() {
                conn.outbuf.clear();
                conn.out_pos = 0;
            } else if conn.out_pos > 64 * 1024 {
                conn.outbuf.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
        }

        // 7. Reap closed connections.
        let closed: Vec<ConnId> = conns
            .iter()
            .filter(|(_, c)| !c.open)
            .map(|(id, _)| *id)
            .collect();
        for conn_id in closed {
            conns.remove(&conn_id);
            if let Some(hub) = &config.conn_stats {
                hub.update(conn_id.raw(), |t| t.open = false);
            }
            let open_now = stats.inner.open.load(Ordering::Relaxed).saturating_sub(1);
            stats.inner.open.store(open_now, Ordering::Relaxed);
            mirror.connections.set(conns.len() as f64);
            service.on_disconnect(conn_id, &mut outbox);
            progressed = true;
        }

        // 8. Stop once drained (or when the grace period expires).
        let mut timeout = FALLBACK_TICK;
        if stopping {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + config.drain_grace);
            let drained = conns.values().all(|c| c.pending_out() == 0);
            let now = Instant::now();
            if drained || now >= deadline {
                for conn in conns.values() {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                return;
            }
            timeout = timeout.min(deadline - now);
        }

        // 9. Nothing moved: sleep until something is ready.
        if !progressed {
            let accepting = (!stopping).then_some(&listener);
            wait_ready(accepting, &conns, &waker, &mut fds, timeout);
        }
    }
}

/// Configuration of a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Frame checksum flavour — must match the server's.
    pub integrity: Integrity,
    /// Chunk payload size for outbound messages.
    pub max_chunk: usize,
    /// How long [`WireClient::connect`] keeps retrying the dial.
    pub connect_timeout: Duration,
    /// Wire fault injector for outbound frames (disabled by default).
    pub injector: FaultInjector,
    /// Node identity used for fault rolls and telemetry tracks.
    pub node: NodeId,
    /// Telemetry handle for counters and `wire.*` instants.
    pub telemetry: Telemetry,
}

impl ClientConfig {
    /// Defaults: 16 KiB chunks, 5 s connect timeout, no faults,
    /// telemetry off, node 0.
    pub fn new(integrity: Integrity) -> ClientConfig {
        ClientConfig {
            integrity,
            max_chunk: DEFAULT_CHUNK,
            connect_timeout: Duration::from_secs(5),
            injector: FaultInjector::disabled(),
            node: NodeId::new(0),
            telemetry: Telemetry::disabled(),
        }
    }
}

struct ClientWriter {
    stream: TcpStream,
    next_seq: u64,
}

/// A PNA-side direct channel: one TCP connection to the headend with a
/// background reader thread decoding inbound messages onto a channel.
pub struct WireClient {
    writer: Mutex<ClientWriter>,
    rx: Receiver<WireMsg>,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    stats: WireStats,
    config: ClientConfig,
    start: Instant,
    mirror: TeleMirror,
}

impl WireClient {
    /// Dials `addr`, retrying until `config.connect_timeout` expires
    /// (the headend may still be binding when a PNA process starts).
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<WireClient, WireError> {
        let start = Instant::now();
        let deadline = start + config.connect_timeout;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(WireError::Io(e));
                    }
                    thread::sleep(Duration::from_millis(20));
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let reader_stream = stream.try_clone()?;
        reader_stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let stats = WireStats::new();
        WireStats::add(&stats.inner.accepted, 1);
        WireStats::add(&stats.inner.open, 1);
        let mirror = TeleMirror::new(config.telemetry.clone(), start);
        mirror.instant(Phase::WireConnect, config.node.raw(), 0);
        mirror.connections.set(1.0);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync::unbounded();
        let reader = {
            let stop = Arc::clone(&stop);
            let stats = stats.clone();
            let mirror = mirror.clone();
            let integrity = config.integrity.clone();
            let node = config.node;
            thread::Builder::new()
                .name("wire-client-reader".into())
                .spawn(move || {
                    read_loop(reader_stream, integrity, node, tx, stop, stats, mirror);
                })
                .map_err(WireError::Io)?
        };
        Ok(WireClient {
            writer: Mutex::named(
                ClientWriter {
                    stream,
                    next_seq: 0,
                },
                "wire.client.writer",
            ),
            rx,
            stop,
            reader: Some(reader),
            stats,
            config,
            start,
            mirror,
        })
    }

    /// Encodes and writes `msg`. Returns `false` once the connection is
    /// gone (callers treat that like a dropped channel).
    pub fn send(&self, msg: &WireMsg) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        let payload = msg.encode();
        let mut w = self.writer.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        let mut frames = encode_chunks(
            &self.config.integrity,
            msg.kind(),
            seq,
            &payload,
            self.config.max_chunk,
        );
        self.stats.record_send(&frames);
        let now = SimTime::from_micros(self.start.elapsed().as_micros() as u64);
        let report = mangle_frames(&self.config.injector, self.config.node, now, &mut frames);
        self.stats.record_mangle(report);
        self.mirror
            .instant(Phase::WireTx, self.config.node.raw(), seq);
        for frame in &frames {
            if w.stream.write_all(frame).is_err() {
                return false;
            }
            WireStats::add(&self.stats.inner.tx_bytes, frame.len() as u64);
            self.mirror.tx_bytes.add(frame.len() as u64);
            self.mirror.tx_frames.inc();
        }
        true
    }

    /// The inbound message channel (fed by the reader thread; closes
    /// when the connection dies).
    pub fn receiver(&self) -> &Receiver<WireMsg> {
        &self.rx
    }

    /// The client's traffic counters.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// True once the reader thread has observed EOF or a socket error.
    pub fn is_closed(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Signals the connection to wind down from a shared (`&self`)
    /// handle: stops new sends, shuts the socket so the reader thread's
    /// pending read fails fast, and lets the inbound channel close. Use
    /// when the client sits behind an `Arc`; [`close`](WireClient::close)
    /// (or drop) still joins the reader afterwards.
    pub fn request_close(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let w = self.writer.lock();
        let _ = w.stream.shutdown(Shutdown::Both);
    }

    /// Shuts the socket down and joins the reader thread.
    pub fn close(&mut self) {
        self.request_close();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        self.mirror.connections.set(0.0);
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// The client reader thread: socket bytes → frames → messages → channel.
fn read_loop(
    mut stream: TcpStream,
    integrity: Integrity,
    node: NodeId,
    tx: sync::Sender<WireMsg>,
    stop: Arc<AtomicBool>,
    stats: WireStats,
    mirror: TeleMirror,
) {
    let mut decoder = FrameDecoder::new(integrity);
    let mut reassembler = Reassembler::new();
    let mut prev_decode = DecodeStats::default();
    let mut prev_reassembly = ReassemblyStats::default();
    let mut buf = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                WireStats::add(&stats.inner.rx_bytes, n as u64);
                mirror.rx_bytes.add(n as u64);
                decoder.extend(&buf[..n]);
                let mut delivered = Vec::new();
                while let Some(frame) = decoder.next_frame() {
                    mirror.rx_frames.inc();
                    if let Some(msg) = reassembler.push(frame) {
                        if let Ok(decoded) = WireMsg::decode(msg.kind, &msg.payload) {
                            delivered.push((decoded, msg.seq));
                        }
                    }
                }
                // Publish counters before handing messages out, so a
                // receiver that reads stats right after a recv sees them.
                stats.absorb_decode_delta(&mut prev_decode, decoder.stats());
                stats.absorb_reassembly_delta(&mut prev_reassembly, reassembler.stats());
                for (decoded, seq) in delivered {
                    mirror.instant(Phase::WireRx, node.raw(), seq);
                    if tx.send(decoded).is_err() {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::SeqCst);
    let open = stats.inner.open.load(Ordering::Relaxed).saturating_sub(1);
    stats.inner.open.store(open, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireMsg;
    use std::net::{IpAddr, Ipv4Addr};

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    /// Echoes every message back to its sender.
    struct Echo;
    impl WireService for Echo {
        fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
            out.send(conn, msg);
        }
    }

    fn serve_on_loopback<S: WireService + 'static>(config: ServerConfig, service: S) -> WireServer {
        let waker = Waker::new().expect("waker");
        WireServer::bind(loopback(), config, waker, service).expect("bind")
    }

    fn client(addr: SocketAddr, integrity: Integrity) -> WireClient {
        WireClient::connect(addr, ClientConfig::new(integrity)).expect("connect")
    }

    #[test]
    fn echo_round_trip_over_loopback() {
        let mut server = serve_on_loopback(ServerConfig::new(Integrity::hmac(b"test-key")), Echo);
        let mut c = client(server.local_addr(), Integrity::hmac(b"test-key"));
        assert!(c.send(&WireMsg::Hello {
            proto: crate::message::PROTO_VERSION,
            epoch: 0,
            resume: None,
        }));
        let back = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("echo");
        assert!(
            matches!(back, WireMsg::Hello { proto, .. } if proto == crate::message::PROTO_VERSION)
        );
        c.close();
        assert!(server.stop(), "serving thread exited cleanly");
    }

    fn signed_reset() -> oddci_core::messages::SignedMessage {
        use oddci_core::messages::{ControlMessage, ResetMessage, SignedMessage};
        use oddci_crypto::MessageAuthenticator;
        use oddci_types::{InstanceId, MessageId};
        SignedMessage::sign(
            ControlMessage::Reset(ResetMessage {
                id: MessageId::new(1),
                instance: InstanceId::new(1),
            }),
            &MessageAuthenticator::from_key(b"test-key"),
        )
    }

    #[test]
    fn large_broadcast_streams_in_many_chunks() {
        /// Broadcasts one big image blob at the first connection.
        struct Blast {
            sent: bool,
        }
        impl WireService for Blast {
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn on_connect(&mut self, _conn: ConnId, out: &mut Outbox) {
                if !self.sent {
                    self.sent = true;
                    out.broadcast(WireMsg::Broadcast {
                        signed: signed_reset(),
                        image: Some(vec![0xAB; 100_000]),
                    });
                }
            }
        }
        let mut config = ServerConfig::new(Integrity::Crc32);
        config.max_chunk = 4096;
        let mut server = serve_on_loopback(config, Blast { sent: false });
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let msg = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("broadcast arrives");
        match msg {
            WireMsg::Broadcast { image, .. } => {
                assert_eq!(image.map(|i| i.len()), Some(100_000));
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = c.stats().snapshot();
        assert!(snap.multi_chunk_rx >= 1, "blob arrived in many frames");
        let server_snap = server.stats().snapshot();
        assert!(server_snap.multi_chunk_tx >= 1);
        c.close();
        server.stop();
    }

    #[test]
    fn several_clients_multiplex_one_server() {
        /// Replies to each hello with the sender's connection number.
        struct Who;
        impl WireService for Who {
            fn on_message(&mut self, conn: ConnId, _msg: WireMsg, out: &mut Outbox) {
                out.send(
                    conn,
                    WireMsg::HelloAck {
                        node: NodeId::new(conn.raw()),
                        epoch: 1,
                    },
                );
            }
        }
        let mut server = serve_on_loopback(ServerConfig::new(Integrity::Crc32), Who);
        let addr = server.local_addr();
        let mut clients: Vec<WireClient> = (0..4).map(|_| client(addr, Integrity::Crc32)).collect();
        let mut seen = std::collections::BTreeSet::new();
        for c in &clients {
            assert!(c.send(&WireMsg::Hello {
                proto: crate::message::PROTO_VERSION,
                epoch: 0,
                resume: None,
            }));
            match c
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("ack")
            {
                WireMsg::HelloAck { node, .. } => {
                    seen.insert(node.raw());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 4, "each client got a distinct identity");
        for c in &mut clients {
            c.close();
        }
        assert!(server.stop());
    }

    #[test]
    fn shutdown_broadcast_drains_before_exit() {
        /// Broadcasts shutdown and stops the server from inside poll.
        struct OneShot {
            fired: bool,
            conns: usize,
        }
        impl WireService for OneShot {
            fn on_connect(&mut self, _conn: ConnId, _out: &mut Outbox) {
                self.conns += 1;
            }
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn poll(&mut self, out: &mut Outbox) {
                if self.conns >= 2 && !self.fired {
                    self.fired = true;
                    out.broadcast(WireMsg::Shutdown);
                    out.request_stop();
                }
            }
        }
        let mut server = serve_on_loopback(
            ServerConfig::new(Integrity::Crc32),
            OneShot {
                fired: false,
                conns: 0,
            },
        );
        let addr = server.local_addr();
        let mut a = client(addr, Integrity::Crc32);
        let mut b = client(addr, Integrity::Crc32);
        for c in [&a, &b] {
            let msg = c
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("shutdown reaches the client even as the server exits");
            assert!(matches!(msg, WireMsg::Shutdown));
        }
        assert!(server.stop());
        a.close();
        b.close();
    }

    #[test]
    fn corrupting_injector_on_loopback_is_survivable() {
        use oddci_faults::{FaultClass, FaultPlan, FaultSpec};
        let mut config = ServerConfig::new(Integrity::Crc32);
        config.injector = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::new(FaultClass::FrameReorder, 1.0)),
            11,
        );
        config.max_chunk = 64;
        struct Echo2;
        impl WireService for Echo2 {
            fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
                out.send(conn, msg);
            }
        }
        let mut server = serve_on_loopback(config, Echo2);
        let mut c = client(server.local_addr(), Integrity::Crc32);
        // A message spanning several chunks gets its first frames swapped
        // by the injector on every send; reassembly must still deliver.
        let big = WireMsg::Broadcast {
            signed: signed_reset(),
            image: Some(vec![0x5A; 400]),
        };
        assert!(c.send(&big));
        let echoed = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("reordered frames still reassemble");
        match echoed {
            WireMsg::Broadcast { image, .. } => assert_eq!(image, Some(vec![0x5A; 400])),
            other => panic!("unexpected {other:?}"),
        }
        assert!(server.stats().snapshot().mangled_reorder >= 1);
        c.close();
        server.stop();
    }
}
