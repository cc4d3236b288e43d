//! Real-socket transport: the fabric over OS processes.
//!
//! [`SocketTransport`] carries the same sealed frames as the in-memory
//! fabrics, but over stream sockets — Unix-domain by default, TCP
//! behind the same code — so node death can mean *process* death. Each
//! endpoint owns one listening socket and a full mesh of peer
//! connections; by convention node `i` dials every peer `j < i` and
//! accepts from every peer `j > i`, so each pair has exactly one
//! stream.
//!
//! On the wire every frame is length-delimited: a `u32` little-endian
//! byte count followed by the self-describing checksummed frame from
//! `gravel_pgas::frame` (DESIGN.md §13). [`StreamDecoder`] reassembles
//! frames from arbitrary read boundaries — a frame split at any byte
//! offset decodes identically.
//!
//! Connections open with a binary HELLO handshake (wire version, node
//! id, intended peer, epoch, cluster shape). A peer speaking a
//! different version or shape gets a counted, logged REJECT frame and a
//! closed stream, never a silent hang. Lost connections are redialed by
//! the connecting side with bounded exponential backoff plus seeded
//! jitter; while a link is down, frames routed over it are dropped and
//! counted — the runtime's retransmission heals the loss, and
//! heartbeat silence feeds the phi-accrual detector exactly as a dead
//! process should.
//!
//! Data-plane frames arrive sealed by their sender and are verified by
//! the receiving network thread; the connection control plane (HELLO /
//! REJECT / HEARTBEAT / CONTROL) is sealed and verified here. Both are
//! CRC32C.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use gravel_gq::BufferPool;
use gravel_pgas::frame::{
    open_control, open_heartbeat, open_hello, open_reject, seal_control_into, seal_heartbeat,
    seal_hello, seal_reject, HelloInfo, RejectReason,
};
use gravel_pgas::{
    split_wire_lane, DataFrame, FrameError, WireIntegrity, ACK_FRAME_BYTES, FRAME_OVERHEAD,
    HEADER_BYTES,
};

use crate::partition::{HoldQueue, LinkSchedule};
use crate::{splitmix, AckFrame, FaultStats, Heartbeat, NodeId, RecvStatus, SendStatus, Transport};

/// Hard ceiling on a single frame's size on the wire. A length prefix
/// beyond this is a protocol violation and drops the connection, so the
/// write side refuses (and counts) a frame over it instead of sending.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Where one node listens.
#[derive(Clone, Debug)]
pub enum SocketAddrSpec {
    /// Unix-domain socket at this path.
    Uds(PathBuf),
    /// TCP endpoint, e.g. `127.0.0.1:7400`. Port 0 binds an ephemeral
    /// port (usable only by the accept side of every pair).
    Tcp(String),
}

/// Redial policy for a lost connection.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectConfig {
    /// First retry delay; doubles per consecutive failure.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// How long a handshake may take before the dial counts as failed.
    pub handshake_timeout: Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(250),
            handshake_timeout: Duration::from_secs(2),
        }
    }
}

/// Configuration for one node's socket endpoint.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// This node's id.
    pub node: NodeId,
    /// Cluster size.
    pub nodes: usize,
    /// Aggregator lanes per node.
    pub lanes: usize,
    /// Listen address per node id; `addrs[node]` is bound locally.
    pub addrs: Vec<SocketAddrSpec>,
    /// Redial policy.
    pub reconnect: ReconnectConfig,
    /// Seed for backoff jitter (deterministic per seed).
    pub seed: u64,
    /// Data ingress channel capacity.
    pub ingress_capacity: usize,
    /// Packet-buffer arena for the data path: inbound data frames are
    /// sealed into recycled buffers and outbound control frames are
    /// sealed in pooled scratch, so the steady-state wire loop
    /// allocates nothing. [`new`](Self::new) makes a private one; a
    /// node process hands in its node's arena.
    pub pool: BufferPool,
    /// Declarative link chaos (partitions, one-way drops, per-link
    /// delays). Consulted at the single outbound chokepoint, so every
    /// traffic class — data, acks, heartbeats, control — experiences
    /// the fault like a pulled cable. Armed at [`SocketTransport::spawn`];
    /// what it injects is [`SocketTransport`]'s `fault_stats()`.
    pub link_chaos: Option<Arc<LinkSchedule>>,
}

impl SocketConfig {
    /// A small-cluster default over the given addresses.
    pub fn new(node: NodeId, addrs: Vec<SocketAddrSpec>) -> Self {
        SocketConfig {
            node,
            nodes: addrs.len(),
            lanes: 1,
            addrs,
            reconnect: ReconnectConfig::default(),
            seed: 1,
            ingress_capacity: 4096,
            pool: BufferPool::new(),
            link_chaos: None,
        }
    }
}

/// Membership-relevant connection events, in arrival order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerEvent {
    /// A handshake with this peer completed (first connect or redial).
    Up(NodeId),
    /// The stream to this peer died.
    Down(NodeId),
}

/// A verified control-plane message.
#[derive(Clone, Debug)]
pub struct ControlMsg {
    /// Sending node (verified header).
    pub src: NodeId,
    /// Sender's epoch at seal time.
    pub epoch: u32,
    /// Op-specific payload words.
    pub words: Vec<u64>,
}

/// Counter snapshot for tests and telemetry mirroring.
#[derive(Clone, Copy, Debug, Default)]
pub struct SocketStats {
    /// Handshakes completed (first connects and redials).
    pub handshakes: u64,
    /// Handshakes completed on a link that had been up before — i.e.
    /// successful reconnects after a loss.
    pub reconnects: u64,
    /// Dial attempts that failed before a handshake completed.
    pub connect_failures: u64,
    /// Inbound handshakes we refused with a REJECT frame.
    pub handshake_rejects: u64,
    /// Our own HELLOs a peer answered with a REJECT.
    pub rejected_by_peer: u64,
    /// Frames dropped because the link to their destination was down
    /// or mid-redial (retransmission heals these).
    pub link_drops: u64,
    /// Outbound frames refused because they exceed
    /// [`MAX_FRAME_BYTES`] (the peer would tear the link down on the
    /// length prefix alone).
    pub oversize_drops: u64,
    /// Inbound frames dropped on a full local mailbox.
    pub mailbox_drops: u64,
    /// Inbound bytes that were not a decodable frame (bad length
    /// prefix, unknown kind, failed control-plane verification).
    pub garbage_frames: u64,
}

/// One live stream, UDS or TCP, unified behind Read/Write.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, t: Option<Duration>) {
        let _ = match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(spec: &SocketAddrSpec) -> std::io::Result<Listener> {
        match spec {
            SocketAddrSpec::Uds(path) => {
                let _ = std::fs::remove_file(path);
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            SocketAddrSpec::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    fn set_nonblocking(&self) {
        let _ = match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        };
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
        }
    }

    fn local_tcp_port(&self) -> Option<u16> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok().map(|a| a.port()),
            Listener::Unix(_) => None,
        }
    }
}

// No unlink-on-drop for the Unix listener: a restarted endpoint may
// already have re-bound the same path, and a late async unlink from
// the old accept thread would delete the *new* socket file. Stale
// files are instead removed at bind time.

/// Size of a [`StreamDecoder`]'s buffer unless a single frame needs
/// more. A Unix stream socket buffers ~208 kB by default, so one read
/// into an empty buffer drains it: a 64 kB frame costs one `read` (not
/// four 16 kB ones) and a burst of acks costs one for all of them.
const READ_BYTES: usize = 256 * 1024;

/// Least room a read is offered; with less left after the buffered
/// bytes, they move to the front first.
const MIN_READ_BYTES: usize = 64 * 1024;

/// Reassembles length-delimited frames from arbitrary read boundaries.
/// The decoder owns one contiguous buffer: the stream is read straight
/// into it and complete frames are handed out as slices of it, so a
/// frame is copied only by whoever needs it to outlive the next read.
/// Public so the fuzz tests can split a valid byte stream at every
/// offset and assert identical reassembly.
pub struct StreamDecoder {
    /// Fully initialized; `buf[head..tail]` is what arrived and has not
    /// been returned as a frame yet.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    max_frame: usize,
}

impl StreamDecoder {
    /// Decoder enforcing the given frame-size ceiling.
    pub fn new(max_frame: usize) -> Self {
        StreamDecoder { buf: Vec::new(), head: 0, tail: 0, max_frame }
    }

    /// Feed bytes that arrived some other way than
    /// [`read_from`](Self::read_from) (tests, the fuzz harness).
    pub fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// One `read` from `src` straight into the decoder's buffer, with
    /// room for at least the rest of the frame in progress. Returns
    /// what `read` returned.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let want = self.missing().max(MIN_READ_BYTES);
        let n = src.read(self.room(want))?;
        self.tail += n;
        Ok(n)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.tail - self.head
    }

    /// Length of the frame at the head of the buffer, once its prefix
    /// has arrived.
    fn head_len(&self) -> Option<usize> {
        if self.pending() < 4 {
            return None;
        }
        let p = &self.buf[self.head..self.head + 4];
        Some(u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize)
    }

    /// Bytes the frame in progress still lacks (0 when its length is
    /// unknown or over the ceiling — the next `next_frame` rejects it).
    fn missing(&self) -> usize {
        match self.head_len() {
            Some(len) if len <= self.max_frame => (4 + len).saturating_sub(self.pending()),
            _ => 0,
        }
    }

    /// At least `min` writable bytes after the buffered ones. Buffered
    /// bytes move only when the room after them is too small: to the
    /// front (at most one partial frame per refill), and the buffer
    /// grows past [`READ_BYTES`] only for a frame that needs it.
    fn room(&mut self, min: usize) -> &mut [u8] {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        if self.buf.len() - self.tail < min && self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < min {
            self.buf.resize((self.tail + min).max(READ_BYTES), 0);
        }
        &mut self.buf[self.tail..]
    }

    /// The next complete frame, in place: valid until the decoder is
    /// fed again. `Ok(None)` if more bytes are needed, `Err(len)` if
    /// the length prefix exceeds the ceiling (the stream is
    /// unrecoverable — framing is lost).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, usize> {
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(len);
        }
        if self.pending() < 4 + len {
            return Ok(None);
        }
        let at = self.head + 4;
        self.head = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }
}

/// Per-peer connection state. `generation` ties each reader thread to
/// the stream it serves, so a stale reader can't tear down a
/// replacement connection. It lives *beside* the slot mutex, not in
/// it: a writer holds the mutex across a blocking frame write, and a
/// reader that had to take the same mutex to check its generation
/// would stop draining the socket — with both directions' buffers full
/// neither side's writer could ever finish. It is only written with
/// the slot locked; readers load it lock-free.
///
/// A peer's frames are routed in the order it wrote them, across
/// connections too: a replaced reader still reads its (shut down)
/// stream to the end, and each reader holds `reading` while it runs,
/// so the next connection's reader routes nothing before its
/// predecessor has returned.
struct Peer {
    slot: Mutex<PeerSlot>,
    generation: AtomicU64,
    reading: Mutex<()>,
}

impl Peer {
    fn lock(&self) -> std::sync::MutexGuard<'_, PeerSlot> {
        self.slot.lock().expect("a thread panicked holding a peer slot")
    }
}

struct PeerSlot {
    writer: Option<Stream>,
    ever_connected: bool,
    /// Peer answered our HELLO with a REJECT — dialing again is
    /// pointless (version/shape mismatches don't heal), so the
    /// connector stops, bounding the storm.
    gave_up: bool,
}

struct Counters {
    handshakes: AtomicU64,
    reconnects: AtomicU64,
    connect_failures: AtomicU64,
    handshake_rejects: AtomicU64,
    rejected_by_peer: AtomicU64,
    link_drops: AtomicU64,
    oversize_drops: AtomicU64,
    mailbox_drops: AtomicU64,
    garbage_frames: AtomicU64,
}

struct Inner {
    me: NodeId,
    nodes: usize,
    lanes: usize,
    reconnect: ReconnectConfig,
    seed: u64,
    addrs: Vec<SocketAddrSpec>,
    epoch: AtomicU32,
    closed: AtomicBool,
    peers: Vec<Peer>,
    data_tx: Sender<DataFrame>,
    data_rx: Receiver<DataFrame>,
    ack_tx: Vec<Sender<AckFrame>>,
    ack_rx: Vec<Receiver<AckFrame>>,
    hb_tx: Sender<Heartbeat>,
    hb_rx: Receiver<Heartbeat>,
    ctrl_tx: Sender<ControlMsg>,
    ctrl_rx: Receiver<ControlMsg>,
    event_tx: Sender<PeerEvent>,
    event_rx: Mutex<Receiver<PeerEvent>>,
    stats: Counters,
    tcp_port: AtomicU32,
    pool: BufferPool,
    link_chaos: Option<Arc<LinkSchedule>>,
    /// Frames held back by a delay fault, drained by the delay pump.
    held: HoldQueue<Vec<u8>>,
}

/// The socket-backed [`Transport`]. One instance per OS process (one
/// node's endpoint); construction binds the listener and starts the
/// connection supervisor threads.
pub struct SocketTransport {
    inner: Arc<Inner>,
}

const ACK_MAILBOX_CAPACITY: usize = 1024;
const HEARTBEAT_MAILBOX_CAPACITY: usize = 256;
/// How often blocked loops re-check the closed flag.
const POLL: Duration = Duration::from_millis(10);
/// Read timeout on established streams, so readers notice `close()`.
const READ_TICK: Duration = Duration::from_millis(100);

impl SocketTransport {
    /// Bind the listener, start the accept and redial supervisors, and
    /// begin forming the mesh. Returns as soon as the endpoint is
    /// listening — peers come up asynchronously (see
    /// [`wait_connected`](Self::wait_connected)).
    pub fn spawn(cfg: SocketConfig) -> std::io::Result<Arc<SocketTransport>> {
        assert_eq!(cfg.addrs.len(), cfg.nodes, "one listen address per node");
        assert!((cfg.node as usize) < cfg.nodes, "node id out of range");
        let listener = Listener::bind(&cfg.addrs[cfg.node as usize])?;
        listener.set_nonblocking();
        let tcp_port = listener.local_tcp_port().unwrap_or(0);
        let (data_tx, data_rx) = bounded(cfg.ingress_capacity);
        let (hb_tx, hb_rx) = bounded(HEARTBEAT_MAILBOX_CAPACITY);
        let (ctrl_tx, ctrl_rx) = unbounded();
        let (event_tx, event_rx) = unbounded();
        let mut ack_tx = Vec::new();
        let mut ack_rx = Vec::new();
        for _ in 0..cfg.lanes {
            let (t, r) = bounded(ACK_MAILBOX_CAPACITY);
            ack_tx.push(t);
            ack_rx.push(r);
        }
        let inner = Arc::new(Inner {
            me: cfg.node,
            nodes: cfg.nodes,
            lanes: cfg.lanes,
            reconnect: cfg.reconnect,
            seed: cfg.seed,
            addrs: cfg.addrs,
            epoch: AtomicU32::new(0),
            closed: AtomicBool::new(false),
            peers: (0..cfg.nodes)
                .map(|_| Peer {
                    slot: Mutex::new(PeerSlot {
                        writer: None,
                        ever_connected: false,
                        gave_up: false,
                    }),
                    generation: AtomicU64::new(0),
                    reading: Mutex::new(()),
                })
                .collect(),
            data_tx,
            data_rx,
            ack_tx,
            ack_rx,
            hb_tx,
            hb_rx,
            ctrl_tx,
            ctrl_rx,
            event_tx,
            event_rx: Mutex::new(event_rx),
            stats: Counters {
                handshakes: AtomicU64::new(0),
                reconnects: AtomicU64::new(0),
                connect_failures: AtomicU64::new(0),
                handshake_rejects: AtomicU64::new(0),
                rejected_by_peer: AtomicU64::new(0),
                link_drops: AtomicU64::new(0),
                oversize_drops: AtomicU64::new(0),
                mailbox_drops: AtomicU64::new(0),
                garbage_frames: AtomicU64::new(0),
            },
            tcp_port: AtomicU32::new(tcp_port as u32),
            pool: cfg.pool,
            link_chaos: cfg.link_chaos,
            held: HoldQueue::new(),
        });
        if let Some(sched) = &inner.link_chaos {
            sched.arm();
            if sched.has_delays() {
                let (inner, sched) = (Arc::clone(&inner), Arc::clone(sched));
                std::thread::Builder::new()
                    .name(format!("gravel-delay-{}", inner.me))
                    .spawn(move || inner.delay_pump(sched))
                    .expect("spawn delay pump");
            }
        }
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("gravel-accept-{}", inner.me))
                .spawn(move || inner.accept_loop(listener))
                .expect("spawn accept thread");
        }
        for peer in 0..inner.me {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("gravel-dial-{}-{}", inner.me, peer))
                .spawn(move || inner.dial_loop(peer))
                .expect("spawn dial thread");
        }
        Ok(Arc::new(SocketTransport { inner }))
    }

    /// The TCP port actually bound (for `Tcp("…:0")` listen specs).
    pub fn tcp_port(&self) -> u16 {
        self.inner.tcp_port.load(Ordering::Relaxed) as u16
    }

    /// Stamp the epoch carried by outgoing HELLO and heartbeat frames.
    pub fn set_epoch(&self, epoch: u32) {
        self.inner.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Whether the stream to `peer` is currently up.
    pub fn connected(&self, peer: NodeId) -> bool {
        self.inner.peers[peer as usize].lock().writer.is_some()
    }

    /// Block until the stream to `peer` is up, up to `deadline`.
    pub fn wait_connected(&self, peer: NodeId, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            if self.connected(peer) {
                return true;
            }
            if self.inner.closed.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.connected(peer)
    }

    /// Send a control-plane message (always CRC32C). Returns whether
    /// the frame reached a live stream (or the loopback) — callers
    /// treat `false` as "peer down, retry after reconnect".
    pub fn send_control(&self, dest: NodeId, words: &[u64]) -> bool {
        self.send_control_parts(dest, words, &[])
    }

    /// [`send_control`](Self::send_control) for a message whose bulk is
    /// already in wire order: the payload is `words` followed by `tail`
    /// (whole little-endian words, e.g. a packet's payload bytes). The
    /// frame is sealed in one pass — one copy of `tail`, one CRC — into
    /// pooled scratch and gather-written from there.
    pub fn send_control_parts(&self, dest: NodeId, words: &[u64], tail: &[u8]) -> bool {
        let inner = &self.inner;
        let epoch = inner.epoch.load(Ordering::Relaxed);
        if dest == inner.me {
            let mut all = words.to_vec();
            all.extend(tail.chunks_exact(8).map(|c| {
                u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"))
            }));
            return inner
                .ctrl_tx
                .send(ControlMsg { src: inner.me, epoch, words: all })
                .is_ok();
        }
        let (mut frame, ticket) = inner.pool.take(FRAME_OVERHEAD + words.len() * 8 + tail.len());
        seal_control_into(&mut frame, inner.me, dest, epoch, words, tail, WireIntegrity::Crc32c);
        let ok = inner.write_to_peer(dest, &frame);
        inner.pool.put(frame, ticket);
        ok
    }

    /// Receive the next verified control-plane message.
    pub fn recv_control(&self, timeout: Duration) -> RecvStatus<ControlMsg> {
        match self.inner.ctrl_rx.recv_timeout(timeout) {
            Ok(m) => RecvStatus::Msg(m),
            Err(RecvTimeoutError::Timeout) => {
                if self.inner.closed.load(Ordering::Relaxed) && self.inner.ctrl_rx.is_empty() {
                    RecvStatus::Closed
                } else {
                    RecvStatus::TimedOut
                }
            }
            Err(RecvTimeoutError::Disconnected) => RecvStatus::Closed,
        }
    }

    /// Pop the next connection event, waiting up to `timeout`.
    pub fn poll_event(&self, timeout: Duration) -> Option<PeerEvent> {
        self.inner.event_rx.lock().unwrap().recv_timeout(timeout).ok()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SocketStats {
        let c = &self.inner.stats;
        SocketStats {
            handshakes: c.handshakes.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            connect_failures: c.connect_failures.load(Ordering::Relaxed),
            handshake_rejects: c.handshake_rejects.load(Ordering::Relaxed),
            rejected_by_peer: c.rejected_by_peer.load(Ordering::Relaxed),
            link_drops: c.link_drops.load(Ordering::Relaxed),
            oversize_drops: c.oversize_drops.load(Ordering::Relaxed),
            mailbox_drops: c.mailbox_drops.load(Ordering::Relaxed),
            garbage_frames: c.garbage_frames.load(Ordering::Relaxed),
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.inner.close_impl();
    }
}

impl Inner {
    fn hello(&self, peer: NodeId) -> HelloInfo {
        HelloInfo {
            node: self.me,
            peer,
            nodes: self.nodes as u32,
            lanes: self.lanes as u32,
            epoch: self.epoch.load(Ordering::Relaxed),
        }
    }

    fn close_impl(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for peer in &self.peers {
            let mut slot = peer.lock();
            if let Some(s) = slot.writer.take() {
                s.shutdown();
            }
            peer.generation.fetch_add(1, Ordering::SeqCst);
        }
    }

    // -- outbound ----------------------------------------------------------

    /// Write one length-delimited frame to `peer`'s stream, subject to
    /// the link-chaos schedule: a partition or one-way window swallows
    /// the frame silently (the stream stays up — a pulled cable, not a
    /// closed socket), a delay fault hands it to the delay pump. This
    /// is the single outbound chokepoint, so data, acks, heartbeats,
    /// and control frames all experience the chaos identically.
    fn write_to_peer(&self, peer: NodeId, frame: &[u8]) -> bool {
        if let Some(sched) = &self.link_chaos {
            if sched.blocked(self.me, peer) {
                return true; // swallowed by the partition
            }
            if let Some(hold) = sched.delay(self.me, peer) {
                sched.hold(&self.held, self.me, peer, hold, frame.to_vec());
                return true;
            }
        }
        self.write_now(peer, frame)
    }

    /// The delay pump: write held-back frames when they come due. The
    /// schedule judges each link again on release, so a frame delayed
    /// into a partition window still dies like a real queue drained
    /// onto a dead link.
    fn delay_pump(self: Arc<Self>, sched: Arc<LinkSchedule>) {
        while !self.closed.load(Ordering::Relaxed) {
            while let (Some((peer, frame)), _) = sched.release(&self.held, Instant::now(), false) {
                self.write_now(peer, &frame);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Write one length-delimited frame to `peer`'s stream. On any
    /// failure the connection is torn down (the redial supervisor or
    /// the peer's own dialer brings it back), the frame is dropped, and
    /// the drop is announced as a [`PeerEvent::Down`] — here, because
    /// the reader of the same stream, which would otherwise announce
    /// it, now finds its generation gone and stays silent.
    fn write_now(&self, peer: NodeId, frame: &[u8]) -> bool {
        if frame.len() > MAX_FRAME_BYTES {
            // The peer's decoder would take the prefix for lost framing
            // and tear the link down; refusing costs only this frame.
            self.stats.oversize_drops.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gravel-net: node {} dropped a {}-byte frame for node {peer}: over the {} ceiling",
                self.me,
                frame.len(),
                MAX_FRAME_BYTES,
            );
            return false;
        }
        let p = &self.peers[peer as usize];
        let mut slot = p.lock();
        let Some(writer) = slot.writer.as_mut() else {
            self.stats.link_drops.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if write_frame(writer, frame).is_err() {
            self.stats.link_drops.fetch_add(1, Ordering::Relaxed);
            let gen = p.generation.load(Ordering::SeqCst);
            self.drop_conn(p, &mut slot, gen);
            drop(slot);
            self.note_down(peer);
            return false;
        }
        true
    }

    /// Tear down the connection in `peer`'s (locked) `slot` if it is
    /// still generation `gen`.
    fn drop_conn(&self, peer: &Peer, slot: &mut PeerSlot, gen: u64) {
        if peer.generation.load(Ordering::SeqCst) != gen {
            return;
        }
        if let Some(s) = slot.writer.take() {
            s.shutdown();
        }
        peer.generation.fetch_add(1, Ordering::SeqCst);
    }

    fn note_down(&self, peer: NodeId) {
        if !self.closed.load(Ordering::Relaxed) {
            let _ = self.event_tx.send(PeerEvent::Down(peer));
        }
    }

    // -- connection establishment -----------------------------------------

    /// Install a handshaken stream for `peer`, replacing any previous
    /// one, and start its reader thread.
    fn install(self: &Arc<Self>, peer: NodeId, stream: Stream) {
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => return,
        };
        stream.set_read_timeout(Some(READ_TICK));
        let gen;
        {
            let p = &self.peers[peer as usize];
            let mut slot = p.lock();
            if let Some(old) = slot.writer.take() {
                old.shutdown();
            }
            gen = p.generation.fetch_add(1, Ordering::SeqCst) + 1;
            slot.writer = Some(stream);
            if slot.ever_connected {
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            slot.ever_connected = true;
        }
        self.stats.handshakes.fetch_add(1, Ordering::Relaxed);
        let _ = self.event_tx.send(PeerEvent::Up(peer));
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("gravel-read-{}-{}", self.me, peer))
            .spawn(move || inner.read_loop(peer, gen, reader))
            .expect("spawn reader thread");
    }

    fn accept_loop(self: Arc<Self>, listener: Listener) {
        while !self.closed.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => self.handle_inbound(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }

    /// Run the accept side of the HELLO handshake on a fresh stream.
    fn handle_inbound(self: &Arc<Self>, mut stream: Stream) {
        stream.set_read_timeout(Some(self.reconnect.handshake_timeout));
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => return, // peer vanished or talked garbage framing
        };
        match open_hello(&frame, WireIntegrity::Crc32c) {
            Ok(h) => {
                if h.nodes as usize != self.nodes || h.lanes as usize != self.lanes {
                    self.reject(&mut stream, RejectReason::ClusterShape, h.nodes, h.node);
                    return;
                }
                if h.node as usize >= self.nodes || h.node == self.me || h.peer != self.me {
                    self.reject(&mut stream, RejectReason::NodeId, h.node, h.node);
                    return;
                }
                // Answer with our own HELLO to complete the handshake.
                let reply = seal_hello(&self.hello(h.node), WireIntegrity::Crc32c);
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
                self.install(h.node, stream);
            }
            Err(FrameError::BadVersion { got }) => {
                self.reject(&mut stream, RejectReason::Version, got as u32, u32::MAX);
            }
            Err(_) => {
                self.reject(&mut stream, RejectReason::Protocol, 0, u32::MAX);
            }
        }
    }

    /// Send a counted, logged REJECT and drop the stream.
    fn reject(&self, stream: &mut Stream, reason: RejectReason, detail: u32, claimed: u32) {
        self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "gravel-net: node {} rejected inbound handshake (claimed id {}): {} (detail {})",
            self.me,
            if claimed == u32::MAX { "?".into() } else { claimed.to_string() },
            reason,
            detail,
        );
        let frame = seal_reject(self.me, reason, detail, WireIntegrity::Crc32c);
        let _ = write_frame(stream, &frame);
        stream.shutdown();
    }

    /// Redial supervisor for one peer we are responsible for dialing
    /// (`peer < me`). Exponential backoff with seeded jitter, reset on
    /// every successful handshake.
    fn dial_loop(self: Arc<Self>, peer: NodeId) {
        let mut rng = self.seed ^ ((self.me as u64) << 32) ^ peer as u64;
        let mut attempt: u32 = 0;
        while !self.closed.load(Ordering::Relaxed) {
            {
                let slot = self.peers[peer as usize].lock();
                if slot.gave_up {
                    return;
                }
                if slot.writer.is_some() {
                    drop(slot);
                    attempt = 0;
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            }
            match self.dial_once(peer) {
                DialOutcome::Connected => {
                    attempt = 0;
                }
                DialOutcome::Rejected => {
                    self.peers[peer as usize].lock().gave_up = true;
                    return;
                }
                DialOutcome::Failed => {
                    self.stats.connect_failures.fetch_add(1, Ordering::Relaxed);
                    let exp = self
                        .reconnect
                        .base
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(self.reconnect.max);
                    // Jitter in [0, exp/2): desynchronizes redial storms
                    // without stretching the ceiling.
                    let jitter_ns =
                        splitmix(&mut rng) % (exp.as_nanos() as u64 / 2).max(1);
                    attempt = attempt.saturating_add(1);
                    let wait = exp + Duration::from_nanos(jitter_ns);
                    let until = Instant::now() + wait;
                    while Instant::now() < until && !self.closed.load(Ordering::Relaxed) {
                        std::thread::sleep(POLL.min(wait));
                    }
                }
            }
        }
    }

    fn dial_once(self: &Arc<Self>, peer: NodeId) -> DialOutcome {
        let stream = match &self.addrs[peer as usize] {
            SocketAddrSpec::Uds(path) => UnixStream::connect(path).map(Stream::Unix),
            SocketAddrSpec::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
        };
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => return DialOutcome::Failed,
        };
        stream.set_read_timeout(Some(self.reconnect.handshake_timeout));
        let hello = seal_hello(&self.hello(peer), WireIntegrity::Crc32c);
        if write_frame(&mut stream, &hello).is_err() {
            return DialOutcome::Failed;
        }
        let reply = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => return DialOutcome::Failed,
        };
        if let Ok(h) = open_hello(&reply, WireIntegrity::Crc32c) {
            if h.node != peer || h.peer != self.me {
                return DialOutcome::Failed;
            }
            self.install(peer, stream);
            return DialOutcome::Connected;
        }
        if let Ok((src, reason, detail)) = open_reject(&reply, WireIntegrity::Crc32c) {
            self.stats.rejected_by_peer.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gravel-net: node {} handshake rejected by node {src}: {reason} (detail {detail})",
                self.me,
            );
            return DialOutcome::Rejected;
        }
        DialOutcome::Failed
    }

    // -- inbound frame pump ------------------------------------------------

    fn read_loop(self: Arc<Self>, peer: NodeId, gen: u64, mut stream: Stream) {
        let p = &self.peers[peer as usize];
        let _turn = p.reading.lock().unwrap_or_else(|e| e.into_inner());
        let mut decoder = StreamDecoder::new(MAX_FRAME_BYTES);
        loop {
            if self.closed.load(Ordering::Relaxed) {
                return;
            }
            // Replaced by a newer connection (lock-free on purpose: see
            // `Peer`): whoever replaced it shut the stream down, so what
            // it still holds reads out, then EOF.
            let replaced = p.generation.load(Ordering::SeqCst) != gen;
            match decoder.read_from(&mut stream) {
                Ok(0) => break, // EOF: peer exited or died
                Ok(_) => loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => self.route(frame),
                        Ok(None) => break,
                        Err(_) => {
                            // Length prefix is garbage: framing is
                            // lost, the stream cannot be trusted.
                            self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                            self.teardown(peer, gen);
                            return;
                        }
                    }
                },
                Err(e)
                    if !replaced
                        && (e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut) =>
                {
                    continue;
                }
                Err(_) => break,
            }
        }
        self.teardown(peer, gen);
    }

    fn teardown(&self, peer: NodeId, gen: u64) {
        let p = &self.peers[peer as usize];
        let mut slot = p.lock();
        if p.generation.load(Ordering::SeqCst) == gen {
            self.drop_conn(p, &mut slot, gen);
            drop(slot);
            self.note_down(peer);
        }
    }

    /// Dispatch one reassembled frame — still in the decoder's buffer —
    /// by its (unverified) kind byte. Verification happens at each
    /// plane's consumer for data and acks (mirroring the in-memory
    /// fabrics, where frames arrive sealed); control-plane frames are
    /// verified and parsed right here. Only a data frame is copied
    /// whole, once, into the buffer it is delivered in.
    fn route(&self, frame: &[u8]) {
        if frame.len() < HEADER_BYTES {
            self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let kind = frame[6];
        let word = |at: usize| {
            u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
        };
        match kind {
            // DATA, bulk or express (the lane's band bit travels in the
            // bytes). The receiver's verified open re-checks the kind.
            0 => {
                // The frame bytes live in a recycled slab and the seal
                // allocates nothing (a frame too big for a bucket is
                // still served, by a fresh allocation).
                let (mut v, ticket) = self.pool.take(frame.len());
                v.extend_from_slice(frame);
                let bytes = self.pool.seal(v, ticket);
                let df = DataFrame {
                    src: word(8),
                    dest: word(12),
                    born: Instant::now(),
                    bytes,
                };
                if self.data_tx.try_send(df).is_err() {
                    self.stats.mailbox_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
            1 => {
                if frame.len() != ACK_FRAME_BYTES {
                    self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // The mailbox is the owning aggregator lane's; the band
                // stays in the frame for the sender to read.
                let lane = split_wire_lane(word(16)).0 as usize;
                if lane >= self.lanes {
                    self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let ack = AckFrame {
                    src: word(8),
                    dest: word(12),
                    lane: lane as u32,
                    bytes: frame.try_into().expect("length checked above"),
                };
                if self.ack_tx[lane].try_send(ack).is_err() {
                    self.stats.mailbox_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
            4 => match open_heartbeat(frame, WireIntegrity::Crc32c) {
                Ok(h) => {
                    let hb = Heartbeat { src: h.src, dest: h.dest, seq: h.seq };
                    if self.hb_tx.try_send(hb).is_err() {
                        self.stats.mailbox_drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                }
            },
            5 => match open_control(frame, WireIntegrity::Crc32c) {
                Ok((head, words)) => {
                    let _ = self.ctrl_tx.send(ControlMsg {
                        src: head.src,
                        epoch: head.epoch,
                        words,
                    });
                }
                Err(_) => {
                    self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                }
            },
            _ => {
                // HELLO / REJECT mid-stream, or an unknown kind.
                self.stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

enum DialOutcome {
    Connected,
    Rejected,
    Failed,
}

/// Read one length-delimited frame (handshake path; stream has a read
/// timeout set).
fn read_frame(stream: &mut Stream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "oversized frame"));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Write one length-delimited frame: `[len, frame]` gathered into one
/// `write_vectored` (no scratch copy to join them), looping on short
/// writes.
fn write_frame(stream: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    let prefix = (frame.len() as u32).to_le_bytes();
    // Bytes of prefix + frame written so far.
    let mut done = 0;
    while done < 4 + frame.len() {
        let wrote = if done < 4 {
            stream.write_vectored(&[IoSlice::new(&prefix[done..]), IoSlice::new(frame)])
        } else {
            stream.write(&frame[done - 4..])
        };
        match wrote {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Transport for SocketTransport {
    fn nodes(&self) -> usize {
        self.inner.nodes
    }

    fn lanes(&self) -> usize {
        self.inner.lanes
    }

    fn send_data(&self, frame: DataFrame, timeout: Duration) -> SendStatus {
        let inner = &self.inner;
        if inner.closed.load(Ordering::Relaxed) {
            return SendStatus::Closed;
        }
        if frame.dest == inner.me {
            // Loopback: a node's own serialized atomics never touch the
            // wire, but they do experience the same bounded-ingress
            // backpressure.
            return match inner.data_tx.send_timeout(frame, timeout) {
                Ok(()) => SendStatus::Sent,
                Err(crossbeam::channel::SendTimeoutError::Timeout(_)) => SendStatus::TimedOut,
                Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => SendStatus::Closed,
            };
        }
        // Cross-node: write or drop. A down link never blocks the
        // sender — retransmission heals the loss after the
        // redial supervisor restores the stream.
        inner.write_to_peer(frame.dest, &frame.bytes);
        SendStatus::Sent
    }

    fn recv_data(&self, node: NodeId, timeout: Duration) -> RecvStatus<DataFrame> {
        debug_assert_eq!(node, self.inner.me, "socket endpoint receives only its own node");
        match self.inner.data_rx.recv_timeout(timeout) {
            Ok(f) => RecvStatus::Msg(f),
            Err(RecvTimeoutError::Timeout) => {
                if self.inner.closed.load(Ordering::Relaxed) && self.inner.data_rx.is_empty() {
                    RecvStatus::Closed
                } else {
                    RecvStatus::TimedOut
                }
            }
            Err(RecvTimeoutError::Disconnected) => RecvStatus::Closed,
        }
    }

    fn send_ack(&self, ack: AckFrame) {
        let inner = &self.inner;
        if inner.closed.load(Ordering::Relaxed) {
            return;
        }
        if ack.dest == inner.me {
            let lane = ack.lane as usize;
            if lane < inner.lanes && inner.ack_tx[lane].try_send(ack).is_err() {
                inner.stats.mailbox_drops.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        inner.write_to_peer(ack.dest, &ack.bytes);
    }

    fn try_recv_ack(&self, node: NodeId, lane: u32) -> Option<AckFrame> {
        debug_assert_eq!(node, self.inner.me);
        self.inner.ack_rx.get(lane as usize)?.try_recv().ok()
    }

    fn send_heartbeat(&self, hb: Heartbeat) {
        let inner = &self.inner;
        if inner.closed.load(Ordering::Relaxed) {
            return;
        }
        if hb.dest == inner.me {
            let _ = inner.hb_tx.try_send(hb);
            return;
        }
        let epoch = inner.epoch.load(Ordering::Relaxed);
        let bytes = seal_heartbeat(hb.src, hb.dest, epoch, hb.seq, WireIntegrity::Crc32c);
        inner.write_to_peer(hb.dest, &bytes);
    }

    fn try_recv_heartbeat(&self, node: NodeId) -> Option<Heartbeat> {
        debug_assert_eq!(node, self.inner.me);
        self.inner.hb_rx.try_recv().ok()
    }

    fn close(&self) {
        self.inner.close_impl();
    }

    fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Relaxed)
    }

    /// What the link-chaos schedule injected (all zero without one);
    /// real link losses show up in [`stats`](SocketTransport::stats).
    fn fault_stats(&self) -> FaultStats {
        self.inner.link_chaos.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    fn data_depths(&self) -> Vec<usize> {
        let mut v = vec![0; self.inner.nodes];
        v[self.inner.me as usize] = self.inner.data_rx.len();
        v
    }

    fn ack_depths(&self, node: NodeId) -> usize {
        debug_assert_eq!(node, self.inner.me);
        self.inner.ack_rx.iter().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most `step` bytes per call, across the gathered
    /// buffers — a socket whose send buffer is smaller than the frame.
    struct ShortWriter {
        out: Vec<u8>,
        step: usize,
        interrupt_next: bool,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.interrupt_next) {
                return Err(ErrorKind::Interrupted.into());
            }
            let mut left = self.step;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.step - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn gather_write_resumes_after_a_short_write_at_every_offset() {
        let frame: Vec<u8> = (0..100u8).collect();
        let mut want = (frame.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&frame);
        // Steps 1..4 cut inside the length prefix, 4 exactly behind it.
        for step in (1..=want.len() + 1).chain([usize::MAX]) {
            let mut w = ShortWriter { out: Vec::new(), step, interrupt_next: true };
            write_frame(&mut w, &frame).expect("short writes are not errors");
            assert_eq!(w.out, want, "step {step}");
        }
        let mut empty = ShortWriter { out: Vec::new(), step: 3, interrupt_next: false };
        write_frame(&mut empty, &[]).expect("an empty frame is just its prefix");
        assert_eq!(empty.out, [0, 0, 0, 0]);
        let mut stuck = ShortWriter { out: Vec::new(), step: 0, interrupt_next: false };
        let err = write_frame(&mut stuck, &frame).expect_err("a stream that takes nothing");
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }
}
