//! Per-destination aggregation queues.
//!
//! The aggregator repacks GPU-initiated messages into one queue per
//! destination node and sends a queue "after \[it\] become\[s\] full or
//! exceed\[s\] a timeout" (paper §3.4). The paper's configuration (Table 3)
//! is 64 kB queues with a 125 µs timeout, three in flight per destination.
//! The queue size bounds the maximum network message and is the knob swept
//! by Figure 14; the timeout bounds the latency a sparse destination can
//! add, and is what keeps communication overlapped with computation
//! (Figure 15's kmeans discussion).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use gravel_gq::pool::{BufTicket, BufferPool, CLASS_SLACK_BYTES};
use gravel_gq::MSG_ROWS;
use gravel_telemetry::{Counter, Registry};

use crate::frame::{FRAME_OVERHEAD, HEADER_BYTES};
use crate::runs::{
    self, encoded_len, Messages, RunKind, RunWriter, PAIR_BYTES, RUN_HEADER_BYTES,
};

// A pooled buffer for a power-of-two queue, frame overhead included,
// must fit the queue's own size class.
const _: () = assert!(FRAME_OVERHEAD <= CLASS_SLACK_BYTES);

/// Default per-node queue size (Table 3).
pub const DEFAULT_QUEUE_BYTES: usize = 64 * 1024;

/// The smallest queue: one run header and one whole message.
pub const MIN_QUEUE_BYTES: usize = RUN_HEADER_BYTES + gravel_gq::MSG_BYTES;

/// Default flush timeout (Table 3).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_micros(125);

/// Bounds for the adaptive flush timeout (see [`FlushPolicy::Adaptive`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveFlush {
    /// Effective timeout for a destination whose queue stays nearly
    /// empty at flush time (sparse traffic: flush fast, keep latency).
    pub min: Duration,
    /// Effective timeout for a destination whose queue flushes full
    /// (dense traffic: wait longer, keep packets big).
    pub max: Duration,
}

impl Default for AdaptiveFlush {
    fn default() -> Self {
        AdaptiveFlush {
            min: Duration::from_micros(25),
            max: Duration::from_micros(500),
        }
    }
}

impl AdaptiveFlush {
    /// Panic on nonsensical bounds (called by config validation).
    pub fn validate(&self) {
        assert!(!self.min.is_zero(), "adaptive flush min must be nonzero");
        assert!(self.max >= self.min, "adaptive flush needs min <= max");
    }
}

/// How a destination queue decides its flush timeout.
///
/// The paper uses one fixed timeout (Table 3: 125 µs) for every
/// destination. `Adaptive` instead tunes each destination within
/// `[min, max]` from an EWMA of how full its recent flushes were: a
/// destination that keeps flushing full packets earns a long timeout
/// (bigger aggregates), one that keeps timing out nearly empty converges
/// to the minimum (paying little latency for traffic that will not
/// aggregate anyway).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// One timeout for every destination.
    Fixed(Duration),
    /// Per-destination timeout tuned within the given bounds.
    Adaptive(AdaptiveFlush),
}

impl FlushPolicy {
    /// The timeout a fresh (no-history) destination starts with.
    fn initial_timeout(&self) -> Duration {
        match *self {
            FlushPolicy::Fixed(t) => t,
            // Start mid-range: the EWMA walks it toward the right bound
            // within a few flushes either way.
            FlushPolicy::Adaptive(a) => a.min + (a.max - a.min) / 2,
        }
    }
}

/// A filled (or timed-out) per-node queue ready for network transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sending node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Sending aggregator lane (slot) on `src`. Together with `src` it
    /// names the flow a sequence number belongs to, so multiple
    /// aggregator threads per node keep independent sequence spaces.
    pub lane: u32,
    /// Per-flow sequence number, stamped by the sender at transmit time
    /// (0 until then). The receiver applies packets of a flow in
    /// sequence order exactly once and acks cumulatively.
    pub seq: u64,
    /// When the aggregation buffer behind this packet was opened (first
    /// message buffered). The receiver's apply path turns `born.elapsed()`
    /// into the end-to-end aggregate→apply latency histogram; in-process
    /// nodes share a clock, so the difference is meaningful.
    pub born: Instant,
    /// The messages as runs of records, little-endian words
    /// ([`runs`]).
    pub payload: Bytes,
    /// The buffer around `payload`, if it was filled with room for the
    /// frame header and trailer: [`seal_in`](Self::seal_in) then seals
    /// in place.
    pub(crate) room: FrameRoom,
}

/// A pooled packet's claim on the frame it will be sealed into: the
/// one view over the *whole* buffer its messages were written into —
/// [`HEADER_BYTES`] of room, the payload, room for the CRC trailer.
///
/// It is minted in this module, next to the payload view lent from the
/// middle of the same freshly sealed slab, and those two are the only
/// views the slab starts with. Views only narrow, so nothing but this
/// one ever covers the room; it is not `Clone` (a cloned [`Packet`]
/// gets an empty claim) and sealing takes it out, so the room has one
/// writer, once. `frame.rs`'s in-place seal rests on exactly that.
#[derive(Debug)]
pub(crate) struct FrameRoom(Mutex<Option<Bytes>>);

impl FrameRoom {
    /// No room: the packet seals by copy.
    pub(crate) const fn none() -> Self {
        FrameRoom(Mutex::new(None))
    }

    /// Lend `vec` — [`HEADER_BYTES`] of room, then the messages — from
    /// `pool` as a payload view plus the claim on the frame around it.
    fn lend(pool: &BufferPool, mut vec: Vec<u8>, ticket: BufTicket) -> (Bytes, FrameRoom) {
        let body = vec.len();
        vec.extend_from_slice(&[0; FRAME_OVERHEAD - HEADER_BYTES]);
        let whole = pool.seal(vec, ticket);
        let payload = whole.slice(HEADER_BYTES..body);
        (payload, FrameRoom(Mutex::new(Some(whole))))
    }

    /// Give up the frame buffer — if there is one, and `payload` still
    /// is the view lent from the middle of it (the field is public).
    pub(crate) fn take_around(&self, payload: &Bytes) -> Option<Bytes> {
        // An `Option` is valid whatever a panicking holder did.
        let mut held = self.0.lock().unwrap_or_else(|p| p.into_inner());
        let whole = held.as_ref()?;
        let fits = whole.len() == payload.len() + FRAME_OVERHEAD
            && std::ptr::eq(whole.as_ptr().wrapping_add(HEADER_BYTES), payload.as_ptr());
        if fits {
            held.take()
        } else {
            None
        }
    }
}

impl Clone for FrameRoom {
    /// A clone shares the payload, never the right to write around it.
    fn clone(&self) -> Self {
        FrameRoom::none()
    }
}

impl PartialEq for FrameRoom {
    /// Where a packet's bytes live is not part of what it says.
    fn eq(&self, _: &FrameRoom) -> bool {
        true
    }
}

impl Eq for FrameRoom {}

impl Packet {
    /// A packet around an existing payload (tests, decoders). It has
    /// no frame room, so it seals by copy.
    pub fn from_payload(src: u32, dest: u32, payload: Bytes) -> Self {
        Packet { src, dest, lane: 0, seq: 0, born: Instant::now(), payload, room: FrameRoom::none() }
    }

    /// Payload size in bytes (what Table 5's "average message size"
    /// measures).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the packet carries no messages.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The payload's `u64` words as they travel: run headers and
    /// records ([`messages`](Self::messages) decodes them).
    ///
    /// Allocates a fresh `Vec`; for tests, logs and the model code.
    pub fn words(&self) -> Vec<u64> {
        self.payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Number of messages before the payload's end or its first
    /// malformed run: a walk over the run headers.
    pub fn msg_count(&self) -> usize {
        runs::message_count(&self.payload[..])
    }

    /// Borrowing iterator over the packet's messages as four words each,
    /// `[command, dest, addr, value]` — a PUT or INC record's `dest` is
    /// this packet's — decoded lazily from the payload, nothing
    /// allocated. It stops at a malformed run
    /// ([`Messages::malformed_at`] says where).
    pub fn messages(&self) -> Messages<'_, [u8]> {
        runs::messages(&self.payload[..], self.dest)
    }

    /// Build a packet from four-word messages, encoded as runs (tests,
    /// model code, re-packed packets). It has no frame room, so it
    /// seals by copy.
    pub fn from_words(src: u32, dest: u32, words: &[u64]) -> Self {
        assert!(words.len().is_multiple_of(MSG_ROWS), "a packet carries whole messages");
        Self::encode_in(src, dest, encoded_len(words), None, |buf| {
            let mut run = RunWriter::new();
            for msg in words.chunks_exact(MSG_ROWS) {
                run.push(buf, RunKind::of_message(msg), msg);
            }
            run.close(buf);
        })
    }

    /// A packet of INCs for `dest`, one `(addr, value)` record each, in
    /// one run. With a pool the payload buffer comes from that
    /// packet-buffer arena with room for the frame around it: one copy
    /// — this one; the seal is in place — and no allocation in steady
    /// state. The `gravel-node` update streams packetize with this.
    pub fn from_incs_in(
        src: u32,
        dest: u32,
        incs: impl ExactSizeIterator<Item = (u64, u64)>,
        pool: Option<&BufferPool>,
    ) -> Self {
        let len = match incs.len() {
            0 => 0,
            n => RUN_HEADER_BYTES + n * PAIR_BYTES,
        };
        Self::encode_in(src, dest, len, pool, |buf| {
            let mut run = RunWriter::new();
            for (addr, value) in incs {
                run.push_inc(buf, addr, value);
            }
            run.close(buf);
        })
    }

    /// A packet whose `len` payload bytes `write` appends.
    fn encode_in(
        src: u32,
        dest: u32,
        len: usize,
        pool: Option<&BufferPool>,
        write: impl FnOnce(&mut BytesMut),
    ) -> Self {
        let (payload, room) = match pool {
            Some(pool) => {
                let (vec, ticket) = pool.take(FRAME_OVERHEAD + len);
                let mut buf = framed(vec);
                write(&mut buf);
                debug_assert_eq!(buf.len(), HEADER_BYTES + len);
                FrameRoom::lend(pool, buf.into_vec(), ticket)
            }
            None => {
                let mut buf = BytesMut::with_capacity(len);
                write(&mut buf);
                (buf.freeze(), FrameRoom::none())
            }
        };
        Packet { room, ..Self::from_payload(src, dest, payload) }
    }
}

/// A pooled vector as a message buffer: [`HEADER_BYTES`] of room first.
fn framed(mut vec: Vec<u8>) -> BytesMut {
    vec.resize(HEADER_BYTES, 0);
    BytesMut::from_vec(vec)
}

struct AggBuffer {
    /// Empty and unallocated between a flush and the next message.
    /// With a pool, an open buffer starts with [`HEADER_BYTES`] of
    /// frame room and has capacity for the trailer behind a full queue.
    buf: BytesMut,
    /// The run the next message may extend.
    run: RunWriter,
    /// Pool claim on `buf`'s backing vector, when it came from the
    /// arena; redeemed at flush so the buffer recycles.
    ticket: Option<BufTicket>,
    opened_at: Option<Instant>,
    messages: u64,
    /// EWMA of this destination's fill fraction at flush time (0..=1).
    /// Drives the effective timeout under [`FlushPolicy::Adaptive`].
    fill_ewma: f64,
    /// This destination's current effective flush timeout.
    eff_timeout: Duration,
}

impl AggBuffer {
    /// Append message `words` — a record of `kind` — in a run of its
    /// own, opening the buffer if need be.
    #[inline]
    fn append(
        &mut self,
        words: &[u64],
        kind: RunKind,
        now: Instant,
        pool: Option<&BufferPool>,
        queue_bytes: usize,
    ) {
        if self.buf.is_empty() {
            self.open(pool, queue_bytes, now);
        }
        self.run.push(&mut self.buf, kind, words);
        self.messages += 1;
    }

    /// Start a packet at `now`: with a pool, in a buffer the sealed
    /// frame will fit in as well.
    #[cold]
    fn open(&mut self, pool: Option<&BufferPool>, queue_bytes: usize, now: Instant) {
        self.opened_at = Some(now);
        if let Some(pool) = pool {
            let (vec, ticket) = pool.take(FRAME_OVERHEAD + queue_bytes);
            self.buf = framed(vec);
            self.ticket = Some(ticket);
        }
    }
}

/// Aggregation statistics for one node (Table 5's inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggStats {
    /// Packets flushed.
    pub packets: u64,
    /// Total payload bytes flushed.
    pub bytes: u64,
    /// Messages aggregated.
    pub messages: u64,
    /// Packets flushed because they filled.
    pub full_flushes: u64,
    /// Packets flushed because they timed out.
    pub timeout_flushes: u64,
}

/// Live counter handles behind [`AggStats`].
///
/// Detached by default (standalone queues always count); clusters build
/// them with [`AggCounters::bound`] so every aggregator slot of a node
/// adds into the same registry metrics — one increment per event, no
/// per-slot copies to drift.
#[derive(Clone, Debug)]
pub struct AggCounters {
    /// Packets flushed.
    pub packets: Counter,
    /// Total payload bytes flushed.
    pub bytes: Counter,
    /// Messages aggregated.
    pub messages: Counter,
    /// Packets flushed because they filled.
    pub full_flushes: Counter,
    /// Packets flushed because they timed out.
    pub timeout_flushes: Counter,
}

impl Default for AggCounters {
    fn default() -> Self {
        AggCounters {
            packets: Counter::detached(),
            bytes: Counter::detached(),
            messages: Counter::detached(),
            full_flushes: Counter::detached(),
            timeout_flushes: Counter::detached(),
        }
    }
}

impl AggCounters {
    /// Counters registered in `registry` under `{prefix}.agg.{field}`.
    pub fn bound(registry: &Registry, prefix: &str) -> Self {
        let name = |field: &str| format!("{prefix}.agg.{field}");
        AggCounters {
            packets: registry.counter(&name("packets")),
            bytes: registry.counter(&name("bytes")),
            messages: registry.counter(&name("messages")),
            full_flushes: registry.counter(&name("full_flushes")),
            timeout_flushes: registry.counter(&name("timeout_flushes")),
        }
    }

    /// Point-in-time [`AggStats`] view of the handles.
    pub fn snapshot(&self) -> AggStats {
        AggStats {
            packets: self.packets.get(),
            bytes: self.bytes.get(),
            messages: self.messages.get(),
            full_flushes: self.full_flushes.get(),
            timeout_flushes: self.timeout_flushes.get(),
        }
    }
}

impl AggStats {
    /// Average network-message (packet) size in bytes — Table 5's metric.
    pub fn avg_packet_bytes(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.packets as f64
    }
}

/// One node's set of per-destination aggregation queues.
///
/// ```
/// use gravel_gq::Message;
/// use gravel_pgas::NodeQueues;
/// use std::time::{Duration, Instant};
///
/// // A 56-byte queue holds a run header and three 16-byte INC records.
/// let mut nq = NodeQueues::with_config(0, 4, 56, Duration::from_micros(125));
/// let now = Instant::now();
/// let inc = |addr| Message::inc(2, addr, 1).encode();
/// assert!(nq.push(2, &inc(10), now).is_none()); // buffered
/// assert!(nq.push(2, &inc(11), now).is_none());
/// let pkt = nq.push(2, &inc(12), now).expect("the third INC fills it");
/// assert_eq!(pkt.dest, 2);
/// assert_eq!(pkt.len(), 56);
/// assert_eq!(pkt.messages().collect::<Vec<_>>(), [inc(10), inc(11), inc(12)]);
/// ```
pub struct NodeQueues {
    my_node: u32,
    nodes: usize,
    queue_bytes: usize,
    policy: FlushPolicy,
    bufs: Vec<AggBuffer>,
    /// Buffer arena packet buffers are drawn from and recycled to;
    /// `None` falls back to per-flush allocation.
    pool: Option<BufferPool>,
    /// Bytes in front of an open buffer's messages: [`HEADER_BYTES`]
    /// with a pool, none without.
    head_room: usize,
    /// Aggregation counters (detached unless built via
    /// [`with_policy`](Self::with_policy)).
    counters: AggCounters,
}

impl NodeQueues {
    /// Queues for `nodes` destinations with the paper's defaults.
    pub fn new(my_node: u32, nodes: usize) -> Self {
        Self::with_config(my_node, nodes, DEFAULT_QUEUE_BYTES, DEFAULT_TIMEOUT)
    }

    /// Queues with explicit size and a fixed timeout (Figure 14 sweeps
    /// the size).
    pub fn with_config(my_node: u32, nodes: usize, queue_bytes: usize, timeout: Duration) -> Self {
        Self::with_policy(
            my_node,
            nodes,
            queue_bytes,
            FlushPolicy::Fixed(timeout),
            AggCounters::default(),
        )
    }

    /// Queues with an explicit [`FlushPolicy`] whose flush statistics add
    /// into shared `counters` (all aggregator slots of a node pass clones
    /// of the same handles).
    pub fn with_policy(
        my_node: u32,
        nodes: usize,
        queue_bytes: usize,
        policy: FlushPolicy,
        counters: AggCounters,
    ) -> Self {
        assert!(queue_bytes >= MIN_QUEUE_BYTES, "queue must hold at least one message");
        if let FlushPolicy::Adaptive(a) = &policy {
            a.validate();
        }
        let initial = policy.initial_timeout();
        NodeQueues {
            my_node,
            nodes,
            queue_bytes,
            policy,
            bufs: (0..nodes)
                .map(|_| AggBuffer {
                    buf: BytesMut::new(),
                    run: RunWriter::new(),
                    ticket: None,
                    opened_at: None,
                    messages: 0,
                    fill_ewma: 0.5,
                    eff_timeout: initial,
                })
                .collect(),
            pool: None,
            head_room: 0,
            counters,
        }
    }

    /// Draw packet buffers from `pool` (and recycle them there once
    /// the frames sealed in them drop) instead of allocating per flush.
    /// Builder-style so existing constructors stay untouched.
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        debug_assert!(self.bufs.iter().all(|b| b.buf.is_empty()), "set the pool first");
        self.pool = Some(pool);
        self.head_room = HEADER_BYTES;
        self
    }

    /// Configured per-queue capacity in bytes.
    pub fn queue_bytes(&self) -> usize {
        self.queue_bytes
    }

    /// Configured flush timeout: the fixed value, or the adaptive
    /// starting point.
    pub fn timeout(&self) -> Duration {
        self.policy.initial_timeout()
    }

    /// The flush policy in force.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Destination `dest`'s current effective flush timeout (equals the
    /// fixed timeout under [`FlushPolicy::Fixed`]).
    pub fn effective_timeout(&self, dest: usize) -> Duration {
        self.bufs[dest].eff_timeout
    }

    /// Point-in-time aggregation statistics.
    pub fn stats(&self) -> AggStats {
        self.counters.snapshot()
    }

    fn flush_dest(&mut self, dest: usize, timed_out: bool) -> Option<Packet> {
        let queue_bytes = self.queue_bytes;
        let policy = self.policy;
        let b = &mut self.bufs[dest];
        if b.buf.is_empty() {
            return None;
        }
        // The next message opens the next buffer.
        b.run.close(&mut b.buf);
        let filled = b.buf.split();
        let (payload, room) = match (&self.pool, b.ticket.take()) {
            // Seal the filled vector into its slab: the payload is a
            // view of the pooled vector itself — no allocation, no
            // freeze memcpy — the frame will be sealed around it where
            // it lies, and the slab returns to the arena when the last
            // view of either drops.
            (Some(pool), Some(ticket)) => FrameRoom::lend(pool, filled.into_vec(), ticket),
            _ => (filled.freeze(), FrameRoom::none()),
        };
        let born = b.opened_at.take().unwrap_or_else(Instant::now);
        if let FlushPolicy::Adaptive(a) = policy {
            let fill = (payload.len() as f64 / queue_bytes as f64).min(1.0);
            b.fill_ewma = 0.75 * b.fill_ewma + 0.25 * fill;
            b.eff_timeout = a.min + (a.max - a.min).mul_f64(b.fill_ewma);
        }
        self.counters.packets.inc();
        self.counters.bytes.add(payload.len() as u64);
        self.counters.messages.add(b.messages);
        b.messages = 0;
        if timed_out {
            self.counters.timeout_flushes.inc();
        } else {
            self.counters.full_flushes.inc();
        }
        Some(Packet {
            src: self.my_node,
            dest: dest as u32,
            lane: 0,
            seq: 0,
            born,
            payload,
            room,
        })
    }

    /// Append one message (four words) to destination `dest`'s queue,
    /// encoded straight into the destination's buffer: a PUT or INC as
    /// an `(addr, value)` record of the open run of its kind, anything
    /// else whole. Returns a packet when the queue filled: flushed
    /// first if this message would overflow it, or right after if
    /// another one like it would. This is the aggregator's per-message
    /// scatter.
    #[inline]
    pub fn push(&mut self, dest: usize, words: &[u64], now: Instant) -> Option<Packet> {
        assert!(dest < self.bufs.len(), "destination out of range");
        assert_eq!(words.len(), MSG_ROWS, "a message is four words");
        // An open buffer is full at `head_room + queue_bytes`.
        let full = self.head_room + self.queue_bytes;
        let b = &mut self.bufs[dest];
        if b.run.takes_pair(words[0]) {
            // Another PUT or INC for the open run of its kind — a bulk
            // stream's every message but a packet's first. An open run
            // always has room for one more of its records: the buffer
            // flushed, or the run closed, when it had none.
            b.run.put_pair(&mut b.buf, words[2], words[3]);
            b.messages += 1;
            if b.buf.len() + PAIR_BYTES > full {
                return self.flush_dest(dest, false);
            }
            return None;
        }
        self.push_record(dest, words, now)
    }

    /// [`push`](Self::push) for a message that is not another PUT or
    /// INC record for the open run: a whole message, or the first record
    /// of a run.
    fn push_record(&mut self, dest: usize, words: &[u64], now: Instant) -> Option<Packet> {
        let kind = RunKind::of_message(words);
        let record = kind.record_bytes();
        let full = self.head_room + self.queue_bytes;
        let b = &mut self.bufs[dest];
        if b.run.extends(kind) {
            b.run.extend(&mut b.buf, kind, words);
            b.messages += 1;
        } else if !b.buf.is_empty() && b.buf.len() + RUN_HEADER_BYTES + record > full {
            // No room for a run of another kind. The message opens the
            // next buffer, which it cannot fill in a queue of at least
            // two records; if it would, its run closes and the buffer
            // waits for the next message or the timeout.
            let flushed = self.flush_dest(dest, false);
            let b = &mut self.bufs[dest];
            b.append(words, kind, now, self.pool.as_ref(), self.queue_bytes);
            if b.buf.len() + record > full {
                b.run.close(&mut b.buf);
            }
            return flushed;
        } else {
            b.append(words, kind, now, self.pool.as_ref(), self.queue_bytes);
        }
        if b.buf.len() + record > full {
            return self.flush_dest(dest, false);
        }
        None
    }

    /// [`push`](Self::push) every message of `words` — whole messages
    /// of `rows` words each, message-major — appending the packets
    /// flushed along the way to `out` in flush order.
    pub fn push_run(
        &mut self,
        dest: usize,
        words: &[u64],
        rows: usize,
        now: Instant,
        out: &mut Vec<Packet>,
    ) {
        debug_assert_eq!(words.len() % rows, 0, "partial message in run");
        for msg in words.chunks_exact(rows) {
            // Not `out.extend(..)`: that moves the whole `Option<Packet>`
            // through an iterator for every message that flushes nothing.
            if let Some(pkt) = self.push(dest, msg, now) {
                out.push(pkt);
            }
        }
    }

    /// Flush every queue whose oldest message is older than its
    /// (destination-effective) timeout.
    pub fn poll_timeouts(&mut self, now: Instant) -> Vec<Packet> {
        let mut out = Vec::new();
        self.poll_timeouts_into(now, &mut out);
        out
    }

    /// Allocation-free [`poll_timeouts`](Self::poll_timeouts): flushed
    /// packets are appended to `out` (the aggregator reuses one
    /// scratch vector across batches, so the steady state allocates
    /// nothing here).
    pub fn poll_timeouts_into(&mut self, now: Instant, out: &mut Vec<Packet>) {
        for d in 0..self.nodes {
            let due = self.bufs[d]
                .opened_at
                .is_some_and(|t| now.duration_since(t) >= self.bufs[d].eff_timeout);
            if due {
                if let Some(p) = self.flush_dest(d, true) {
                    out.push(p);
                }
            }
        }
    }

    /// Time until the earliest pending timeout flush, if any destination
    /// has messages buffered. Zero means a flush is already due. Lets
    /// the aggregator bound how long it may park without delaying a
    /// timeout flush.
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        self.bufs
            .iter()
            .filter_map(|b| {
                let opened = b.opened_at?;
                Some(b.eff_timeout.saturating_sub(now.duration_since(opened)))
            })
            .min()
    }

    /// Flush everything (end of kernel / shutdown).
    pub fn flush_all(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// Allocation-free [`flush_all`](Self::flush_all), appending to
    /// `out`.
    pub fn flush_all_into(&mut self, out: &mut Vec<Packet>) {
        for d in 0..self.nodes {
            if let Some(p) = self.flush_dest(d, false) {
                out.push(p);
            }
        }
    }

    /// Bytes currently buffered for `dest`.
    pub fn pending_bytes(&self, dest: usize) -> usize {
        self.bufs[dest].buf.len().saturating_sub(self.head_room)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;
    use proptest::prelude::*;

    fn inc(dest: u32, addr: u64) -> [u64; 4] {
        Message::inc(dest, addr, addr + 100).encode()
    }

    /// A queue of `n` INC records for one run.
    fn incs_fit(n: usize) -> usize {
        RUN_HEADER_BYTES + n * PAIR_BYTES
    }

    #[test]
    fn push_fills_and_flushes_at_capacity() {
        let mut nq = NodeQueues::with_config(0, 2, incs_fit(4), DEFAULT_TIMEOUT);
        let now = Instant::now();
        for i in 0..3 {
            assert!(nq.push(1, &inc(1, i), now).is_none());
        }
        let pkt = nq.push(1, &inc(1, 3), now).expect("fourth INC fills the queue");
        assert_eq!(pkt.dest, 1);
        assert_eq!(pkt.len(), incs_fit(4));
        let want: Vec<_> = (0..4).map(|i| inc(1, i)).collect();
        assert_eq!(pkt.messages().collect::<Vec<_>>(), want);
        assert_eq!(pkt.words()[0], runs::run_header(RunKind::Inc, 4));
        assert_eq!(nq.pending_bytes(1), 0);
        assert_eq!(nq.stats().full_flushes, 1);
    }

    #[test]
    fn a_default_queue_holds_4095_incs() {
        let mut nq = NodeQueues::new(0, 2);
        let now = Instant::now();
        let flushed: Vec<Packet> = (0..5000).filter_map(|i| nq.push(1, &inc(1, i), now)).collect();
        assert_eq!(flushed.len(), 1);
        assert_eq!((flushed[0].msg_count(), flushed[0].len()), (4095, DEFAULT_QUEUE_BYTES - 8));
    }

    /// The packets a queue of `queue_bytes` cuts `msgs` for `dest` into,
    /// read off the stateless [`encoded_len`]: a message goes in the
    /// open packet if the encoding still fits, and a packet closes as
    /// soon as a repeat of its last message would not fit — unless that
    /// message closed the packet before it (one push returns one
    /// packet), when it waits for the next message.
    fn cut_reference(msgs: &[[u64; 4]], queue_bytes: usize) -> Vec<Vec<[u64; 4]>> {
        let len = |p: &[[u64; 4]]| encoded_len(p.as_flattened());
        let mut out = vec![Vec::new()];
        for m in msgs {
            let open = out.last_mut().unwrap();
            let displaced =
                !open.is_empty() && len(&[open.as_slice(), &[*m]].concat()) > queue_bytes;
            if displaced {
                out.push(Vec::new());
            }
            let open = out.last_mut().unwrap();
            open.push(*m);
            if !displaced && len(&[open.as_slice(), &[*m]].concat()) > queue_bytes {
                out.push(Vec::new());
            }
        }
        out.retain(|p| !p.is_empty());
        out
    }

    proptest! {
        /// `push` and `push_run` cut a stream of PUTs, INCs and other
        /// messages into the reference's packets, whatever the queue
        /// size, and every packet decodes back to its messages.
        #[test]
        fn push_and_push_run_cut_the_reference_packets(
            kinds in prop::collection::vec(0u8..5, 1..120),
            queue_bytes in MIN_QUEUE_BYTES..400,
        ) {
            let msgs: Vec<[u64; 4]> = kinds
                .iter()
                .enumerate()
                .map(|(i, k)| match k {
                    0 => inc(1, i as u64),
                    1 => Message::put(1, i as u64, 7).encode(),
                    2 => Message::active(1, 3, i as u64, 7).encode(),
                    3 => [u64::MAX, 1, i as u64, 7], // no command at all
                    _ => {
                        let mut odd = inc(1, i as u64);
                        odd[0] |= 1 << 40; // bits above the opcode: whole
                        odd
                    }
                })
                .collect();
            let want = cut_reference(&msgs, queue_bytes);
            let now = Instant::now();
            let mut by_one = NodeQueues::with_config(0, 2, queue_bytes, DEFAULT_TIMEOUT);
            let mut got = Vec::new();
            for m in &msgs {
                got.extend(by_one.push(1, m, now));
            }
            got.extend(by_one.flush_all());
            let mut by_run = NodeQueues::with_config(0, 2, queue_bytes, DEFAULT_TIMEOUT);
            let mut run_got = Vec::new();
            by_run.push_run(1, msgs.as_flattened(), 4, now, &mut run_got);
            run_got.extend(by_run.flush_all());
            let payloads = |ps: &[Packet]| ps.iter().map(|p| p.payload.clone()).collect::<Vec<_>>();
            prop_assert_eq!(payloads(&got), payloads(&run_got));
            let view: Vec<Vec<[u64; 4]>> = got.iter().map(|p| p.messages().collect()).collect();
            prop_assert_eq!(view, want.clone());
            for (p, msgs) in got.iter().zip(&want) {
                prop_assert!(p.len() <= queue_bytes);
                prop_assert_eq!(&p.payload, &Packet::from_words(0, 1, msgs.as_flattened()).payload);
            }
            prop_assert_eq!(by_one.stats().messages, msgs.len() as u64);
            prop_assert_eq!(by_one.stats().packets, want.len() as u64);
        }

        /// Whatever the payload, the message walk and the count read it
        /// without a panic and agree with each other.
        #[test]
        fn any_payload_decodes_without_panicking(
            bytes in prop::collection::vec(any::<u8>(), 0..400),
        ) {
            let pkt = Packet::from_payload(1, 2, Bytes::from(bytes));
            prop_assert_eq!(pkt.messages().count(), pkt.msg_count());
        }
    }

    #[test]
    fn a_pooled_queue_uses_one_buffer_per_packet_in_the_frames_own_size_class() {
        use crate::frame::WireIntegrity;
        let pool = BufferPool::new();
        let takes = || pool.hits() + pool.misses();
        let mut nq = NodeQueues::new(0, 2).with_pool(pool.clone());
        assert_eq!(takes(), 0, "no buffer before the first message");
        let now = Instant::now();
        let per_packet = (DEFAULT_QUEUE_BYTES - RUN_HEADER_BYTES) / PAIR_BYTES;
        let mut flushed = None;
        for i in 0..per_packet {
            assert!(flushed.is_none());
            assert_eq!(nq.pending_bytes(1), if i == 0 { 0 } else { incs_fit(i) });
            flushed = nq.push(1, &inc(1, i as u64), now);
        }
        let pkt = flushed.expect("the last message fills the queue");
        assert_eq!(nq.pending_bytes(1), 0);
        assert_eq!(takes(), 1, "nothing is opened for the next packet yet");
        let frame = pkt.seal_in(0, WireIntegrity::Crc32c, Some(&pool));
        assert_eq!(takes(), 1, "sealed in the buffer it was filled in");
        assert_eq!(frame.len(), incs_fit(per_packet) + FRAME_OVERHEAD);
        // The one slab behind it is all the pool holds.
        let slab = pool.resident_bytes() as usize;
        assert!(slab >= frame.len());
        assert!((slab as f64) < 1.1 * frame.len() as f64, "a {slab}-byte slab for {}", frame.len());
        drop((pkt, frame));
        nq.push(1, &inc(1, 0), now);
        assert_eq!((pool.hits(), pool.misses()), (1, 1), "the next packet reuses it");
    }

    #[test]
    fn packet_from_words_encodes_runs_and_from_incs_matches_it() {
        let msgs = [inc(5, 1), inc(5, 2)];
        let pkt = Packet::from_words(3, 5, msgs.as_flattened());
        assert_eq!((pkt.src, pkt.dest, pkt.len()), (3, 5, incs_fit(2)));
        assert_eq!(pkt.words(), [runs::run_header(RunKind::Inc, 2), 1, 101, 2, 102]);
        let pairs = [(1, 101), (2, 102)];
        assert_eq!(Packet::from_incs_in(3, 5, pairs.into_iter(), None).payload, pkt.payload);
        let pool = BufferPool::new();
        assert_eq!(Packet::from_incs_in(3, 5, pairs.into_iter(), Some(&pool)).payload, pkt.payload);
        assert!(Packet::from_incs_in(3, 5, std::iter::empty(), None).is_empty());
    }

    #[test]
    fn timeout_flushes_partial_queue() {
        let mut nq = NodeQueues::with_config(0, 2, 1024, Duration::from_millis(1));
        let t0 = Instant::now();
        nq.push(1, &inc(1, 0), t0);
        assert!(nq.poll_timeouts(t0).is_empty(), "not yet expired");
        let later = t0 + Duration::from_millis(2);
        let pkts = nq.poll_timeouts(later);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].len(), incs_fit(1));
        assert_eq!(nq.stats().timeout_flushes, 1);
    }

    #[test]
    fn separate_destinations_do_not_mix() {
        let mut nq = NodeQueues::with_config(0, 3, 1024, DEFAULT_TIMEOUT);
        let now = Instant::now();
        nq.push(1, &inc(1, 10), now);
        nq.push(2, &inc(2, 20), now);
        let pkts = nq.flush_all();
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].dest, 1);
        assert_eq!(pkts[0].messages().collect::<Vec<_>>(), [inc(1, 10)]);
        assert_eq!(pkts[1].dest, 2);
        assert_eq!(pkts[1].messages().collect::<Vec<_>>(), [inc(2, 20)]);
    }

    #[test]
    fn flush_all_skips_empty_queues() {
        let mut nq = NodeQueues::new(0, 4);
        assert!(nq.flush_all().is_empty());
    }

    #[test]
    fn stats_track_average_packet_size() {
        let mut nq = NodeQueues::with_config(0, 2, incs_fit(3), DEFAULT_TIMEOUT);
        let now = Instant::now();
        for i in 0..6 {
            nq.push(1, &inc(1, i), now); // flushes every 3 messages
        }
        assert_eq!(nq.stats().packets, 2);
        assert!((nq.stats().avg_packet_bytes() - incs_fit(3) as f64).abs() < 1e-9);
        assert_eq!(nq.stats().messages, 6);
    }

    #[test]
    fn adaptive_timeout_tracks_fill_fraction() {
        let a = AdaptiveFlush {
            min: Duration::from_micros(25),
            max: Duration::from_micros(500),
        };
        let mut nq = NodeQueues::with_policy(
            0,
            2,
            incs_fit(4),
            FlushPolicy::Adaptive(a),
            AggCounters::default(),
        );
        let mid = nq.effective_timeout(1);
        assert!(mid > a.min && mid < a.max, "starts mid-range: {mid:?}");
        // Repeated full flushes walk dest 1's timeout toward max.
        let now = Instant::now();
        for i in 0..48 {
            nq.push(1, &inc(1, i), now);
        }
        let dense = nq.effective_timeout(1);
        assert!(
            dense > Duration::from_micros(400),
            "dense dest grows toward max: {dense:?}"
        );
        // Repeated near-empty timeout flushes walk a sparse destination's
        // timeout toward min (roomier queue so one message is ~2% fill).
        let mut sq =
            NodeQueues::with_policy(0, 2, 1024, FlushPolicy::Adaptive(a), AggCounters::default());
        for _ in 0..12 {
            sq.push(0, &inc(0, 0), now);
            let later = now + Duration::from_secs(1);
            assert_eq!(sq.poll_timeouts(later).len(), 1);
        }
        let sparse = sq.effective_timeout(0);
        assert!(
            sparse < Duration::from_micros(100),
            "sparse dest shrinks toward min: {sparse:?}"
        );
        assert!(
            nq.effective_timeout(1) > sparse,
            "destinations tune independently"
        );
    }

    #[test]
    fn fixed_policy_keeps_one_timeout_for_all() {
        let mut nq = NodeQueues::with_config(0, 2, 64, Duration::from_millis(3));
        let now = Instant::now();
        for i in 0..4 {
            nq.push(1, &inc(1, i), now);
        }
        assert_eq!(nq.effective_timeout(0), Duration::from_millis(3));
        assert_eq!(nq.effective_timeout(1), Duration::from_millis(3));
    }

    #[test]
    fn next_deadline_reports_earliest_pending_flush() {
        let mut nq = NodeQueues::with_config(0, 3, 1024, Duration::from_millis(1));
        let t0 = Instant::now();
        assert_eq!(nq.next_deadline(t0), None, "nothing buffered");
        nq.push(1, &inc(1, 0), t0);
        let d = nq.next_deadline(t0).unwrap();
        assert!(
            d <= Duration::from_millis(1) && d > Duration::from_micros(500),
            "{d:?}"
        );
        assert_eq!(
            nq.next_deadline(t0 + Duration::from_millis(2)),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn a_message_is_four_words_and_a_queue_holds_one() {
        let mut nq = NodeQueues::with_config(0, 1, MIN_QUEUE_BYTES, DEFAULT_TIMEOUT);
        let big = vec![0u64; 5];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            nq.push(0, &big, Instant::now());
        }));
        assert!(r.is_err());
        let get = Message::get(0, 7, 42, 250).encode();
        let pkt = nq.push(0, &get, Instant::now()).expect("one whole message fills it");
        assert_eq!(pkt.len(), MIN_QUEUE_BYTES);
        let r = std::panic::catch_unwind(|| NodeQueues::with_config(0, 1, 32, DEFAULT_TIMEOUT));
        assert!(r.is_err(), "32 bytes hold no run header and message");
    }
}
