//! Gravel's GPU-efficient producer/consumer queue (paper §4).
//!
//! The queue's slots are two-dimensional arrays holding one message per
//! *column*, so a work-group's lanes write adjacent words of each payload
//! row (coalescer-friendly, §4.2). Space is reserved at work-group
//! granularity: a leader work-item — elected with `reduce_max(LANE_ID)` —
//! performs a single `fetch_add` on the write index on behalf of the whole
//! work-group, and a prefix sum gives every active lane its column
//! (Fig. 5b). Slot handoff between the GPU and the aggregator uses the
//! paper's ticket protocol: a per-slot current-ticket counter `N` ("round"
//! here) plus a full/empty bit `F`. Tickets are issued by the global
//! `WriteIdx`/`ReadIdx` fetch-adds (the slot index and the ticket are two
//! views of the same reservation, which also makes ticket acquisition
//! race-free), producers wait for `N == ticket && !F`, consumers for
//! `N == ticket && F`, and the consumer releases the slot by clearing `F`
//! and incrementing `N` (Fig. 7 ①-⑤).
//!
//! The same structure with single-message slots and work-item-granularity
//! reservation ([`GravelQueue::wi_produce`]) is the paper's
//! "work-item-level synchronization" strawman (two orders of magnitude
//! slower, §4.1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gravel_simt::{Mask, WgCtx};
use gravel_telemetry::Tracer;

use crate::msg::MSG_ROWS;
use crate::park::WaitCell;
use crate::stats::QueueStats;

/// Queue geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of slots in the ring.
    pub slots: usize,
    /// Messages per slot (columns). Set to the work-group size for
    /// work-group-granularity production; 1 for work-item granularity.
    pub lane_width: usize,
    /// `u64` words per message (rows). 4 for the standard Gravel message.
    pub rows: usize,
}

impl QueueConfig {
    /// The paper's configuration (Table 3): a 1 MB producer/consumer
    /// queue of 256-message slots with 32-byte messages.
    pub fn gravel_default() -> Self {
        QueueConfig {
            slots: 128,
            lane_width: 256,
            rows: MSG_ROWS,
        }
    }

    /// Geometry for a total byte budget with the given slot shape.
    pub fn for_bytes(total_bytes: usize, lane_width: usize, rows: usize) -> Self {
        let slot_bytes = lane_width * rows * 8;
        QueueConfig {
            slots: (total_bytes / slot_bytes).max(2),
            lane_width,
            rows,
        }
    }

    /// Payload bytes per slot.
    pub fn slot_bytes(&self) -> usize {
        self.lane_width * self.rows * 8
    }

    /// Total payload capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.slots * self.slot_bytes()
    }
}

struct Slot {
    /// The slot's current ticket, `N` in Fig. 7.
    round: AtomicU64,
    /// The full/empty bit, `F` in Fig. 7.
    full: AtomicBool,
    /// Messages stored this round (≤ `lane_width`; divergence makes
    /// partially-filled slots common).
    count: AtomicU64,
    /// Row-major payload: `payload[row * lane_width + column]`.
    payload: Box<[AtomicU64]>,
}

impl Slot {
    fn new(cfg: &QueueConfig) -> Self {
        Slot {
            round: AtomicU64::new(0),
            full: AtomicBool::new(false),
            count: AtomicU64::new(0),
            payload: (0..cfg.lane_width * cfg.rows)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

/// Result of a non-blocking consume attempt: `T` is the message count
/// for the copying consumers, the [`Claim`] for
/// [`GravelQueue::try_claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consumed<T = usize> {
    /// Slots were drained (or claimed); `0` messages is impossible
    /// (empty work-groups never publish).
    Batch(T),
    /// Nothing ready right now.
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

/// Consecutive slots `first .. first + slots` owned by one consumer:
/// claimed by [`GravelQueue::try_claim`], read in place through
/// [`GravelQueue::claimed`], handed back one at a time by
/// [`GravelQueue::release`]. Plain data, so a consumer that must
/// outlive its thread (a supervised aggregator lane) keeps it beside
/// its own progress and a successor carries on from there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Claim {
    /// Sequence number of the first claimed slot.
    pub first: u64,
    /// How many slots were claimed.
    pub slots: u64,
}

/// The messages of one claimed slot, read where the producer wrote them.
pub struct SlotView<'a> {
    /// Row-major payload of the whole slot.
    payload: &'a [AtomicU64],
    lane_width: usize,
    /// Messages stored this round (columns `0..count` are live).
    count: usize,
}

impl<'a> SlotView<'a> {
    /// The live columns of every row, top row first.
    fn rows(&self) -> impl Iterator<Item = &'a [AtomicU64]> {
        let count = self.count;
        self.payload
            .chunks_exact(self.lane_width)
            .map(move |row| &row[..count])
    }

    /// Messages `from..` of the slot, each gathered from the `R` rows of
    /// its column. The row slices are cut once, so a message costs `R` loads.
    pub fn messages<const R: usize>(&self, from: usize) -> impl Iterator<Item = [u64; R]> + 'a {
        assert_eq!(self.payload.len(), R * self.lane_width, "slot has {R} rows");
        let mut rows = self.rows();
        let rows: [&[AtomicU64]; R] = std::array::from_fn(|_| rows.next().expect("R rows"));
        (from..self.count).map(move |m| rows.map(|row| row[m].load(Ordering::Relaxed)))
    }

    /// Append every message to `out`, message-major, whatever the row
    /// count.
    pub fn copy_into(&self, out: &mut Vec<u64>) {
        let rows = self.payload.len() / self.lane_width;
        let at = out.len();
        out.resize(at + self.count * rows, 0);
        for (r, row) in self.rows().enumerate() {
            // Word `r` of every message; an empty slot has none.
            for (word, cell) in out[at..].iter_mut().skip(r).step_by(rows).zip(row) {
                *word = cell.load(Ordering::Relaxed);
            }
        }
    }
}

/// How long a producer parks on a full ring before it looks again: the
/// backstop for a wake that never comes (a consumer killed between its
/// last release and [`GravelQueue::wake_producers`]).
const PRODUCER_PARK: Duration = Duration::from_micros(100);

/// The Gravel producer/consumer queue.
pub struct GravelQueue {
    cfg: QueueConfig,
    slots: Box<[Slot]>,
    write_idx: AtomicU64,
    read_idx: AtomicU64,
    closed: AtomicBool,
    /// Consumers park here when the ring is empty; `publish`/`close`
    /// wake them (near-free when nobody is parked). Shared with another
    /// ring when one consumer drains both
    /// ([`with_shared_waiter`](Self::with_shared_waiter)).
    waiter: Arc<WaitCell>,
    /// Producers park here when the ring is full; a consumer wakes them
    /// once it has released a whole claim
    /// ([`wake_producers`](Self::wake_producers); near-free when nobody
    /// is parked).
    prod_waiter: WaitCell,
    /// Longest a producer parks before it looks at its slot again
    /// ([`PRODUCER_PARK`]; a test may stretch it).
    producer_park: Duration,
    /// Synchronization instrumentation.
    pub stats: QueueStats,
    /// Span recorder for slot handoff (`gq.offload`); disabled by default.
    tracer: Tracer,
    /// Node id stamped on trace events (chrome `pid`).
    node: u32,
}

impl GravelQueue {
    /// Build a queue with the given geometry, detached stats, and no
    /// tracing — the standalone mode. Clusters use
    /// [`with_telemetry`](Self::with_telemetry).
    pub fn new(cfg: QueueConfig) -> Self {
        Self::with_telemetry(cfg, QueueStats::default(), Tracer::disabled(), 0)
    }

    /// Build a queue whose counters and spans feed a cluster's telemetry:
    /// `stats` from [`QueueStats::bound`], `tracer` from the node's
    /// `TelemetryConfig`, `node` stamped on every span.
    pub fn with_telemetry(cfg: QueueConfig, stats: QueueStats, tracer: Tracer, node: u32) -> Self {
        Self::build(cfg, stats, tracer, node, Arc::new(WaitCell::new()))
    }

    /// [`with_telemetry`](Self::with_telemetry), but consumers of this
    /// ring park on — and its publishes wake — `other`'s wait cell. For
    /// one thread draining both rings: it parks once, with
    /// [`park_for_ready_or`](Self::park_for_ready_or), and a publish on
    /// either ring wakes it.
    pub fn with_shared_waiter(
        cfg: QueueConfig,
        stats: QueueStats,
        tracer: Tracer,
        node: u32,
        other: &GravelQueue,
    ) -> Self {
        Self::build(cfg, stats, tracer, node, other.waiter.clone())
    }

    fn build(
        cfg: QueueConfig,
        stats: QueueStats,
        tracer: Tracer,
        node: u32,
        waiter: Arc<WaitCell>,
    ) -> Self {
        assert!(cfg.slots >= 2, "need at least two slots");
        assert!(
            cfg.lane_width >= 1 && cfg.rows >= 1,
            "degenerate slot shape"
        );
        GravelQueue {
            slots: (0..cfg.slots).map(|_| Slot::new(&cfg)).collect(),
            cfg,
            write_idx: AtomicU64::new(0),
            read_idx: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            waiter,
            prod_waiter: WaitCell::new(),
            producer_park: PRODUCER_PARK,
            stats,
            tracer,
            node,
        }
    }

    /// The queue's geometry.
    pub fn config(&self) -> QueueConfig {
        self.cfg
    }

    fn slot_ring(&self, seq: u64) -> (&Slot, u64) {
        (
            &self.slots[(seq % self.slots.len() as u64) as usize],
            seq / self.slots.len() as u64,
        )
    }

    /// Wait until the producer owns the slot for `seq`: a short spin
    /// window (the consumer usually frees the wrapped slot within
    /// microseconds), then park on `prod_waiter` — a consumer wakes
    /// producers each time it is done with a claim, so a full ring does
    /// not cost a busy core. Spin iterations are counted in
    /// `producer_spins`.
    fn producer_wait(&self, seq: u64) -> &Slot {
        let (slot, round) = self.slot_ring(seq);
        let ready =
            || slot.round.load(Ordering::Acquire) == round && !slot.full.load(Ordering::Acquire);
        let mut spins = 0u64;
        while !ready() {
            spins += 1;
            std::hint::spin_loop();
            if spins.is_multiple_of(128) {
                // The consumer's notify at the end of its claim is the
                // real wakeup; the timeout covers a consumer that died
                // between a release and that notify (its successor
                // finishes the claim and notifies then).
                self.prod_waiter.park_timeout(self.producer_park, ready);
            }
        }
        if spins > 0 {
            self.stats.producer_spins.add(spins);
        }
        slot
    }

    fn publish(&self, slot: &Slot, count: usize) {
        slot.count.store(count as u64, Ordering::Relaxed);
        slot.full.store(true, Ordering::Release);
        self.stats.slots_produced.add(1);
        self.stats.messages_produced.add(count as u64);
        self.waiter.notify_all();
    }

    /// Is slot `seq` published and not yet released?
    fn is_full(&self, seq: u64) -> bool {
        let (slot, round) = self.slot_ring(seq);
        slot.round.load(Ordering::Acquire) == round && slot.full.load(Ordering::Acquire)
    }

    /// Is the next unconsumed slot ready to drain (or the queue closed)?
    pub fn has_ready(&self) -> bool {
        self.is_full(self.read_idx.load(Ordering::Acquire)) || self.closed.load(Ordering::Acquire)
    }

    /// Park the calling consumer for up to `timeout`, waking early on a
    /// slot publish or [`close`](Self::close). Returns `true` if the
    /// thread actually slept (the caller's spin-then-park telemetry).
    pub fn park_for_ready(&self, timeout: Duration) -> bool {
        self.park_for_ready_or(timeout, || false)
    }

    /// [`park_for_ready`](Self::park_for_ready) that also returns early
    /// when `also()` holds — the readiness of a second ring built with
    /// [`with_shared_waiter`](Self::with_shared_waiter) on this one.
    pub fn park_for_ready_or(&self, timeout: Duration, also: impl Fn() -> bool) -> bool {
        self.waiter
            .park_timeout(timeout, || self.has_ready() || also())
    }

    // ---- producers -------------------------------------------------------

    /// Offload one message per *active* lane with work-group-granularity
    /// synchronization (Fig. 5b): one `fetch_add` for the whole work-group,
    /// columns assigned by prefix sum, coalesced payload writes.
    ///
    /// `payload(lane, row)` supplies row `row` of lane `lane`'s message.
    /// Lanes inactive in `ctx`'s current mask send nothing; this is
    /// exactly the diverged work-group-level semantic of §5 — callers in
    /// divergent code wrap the call in
    /// [`diverged_for`](gravel_simt::diverged_for).
    pub fn wg_produce(&self, ctx: &mut WgCtx, payload: impl Fn(usize, usize) -> u64) {
        self.wg_produce_with(ctx, |lane, msg| {
            for (row, word) in msg.iter_mut().enumerate() {
                *word = payload(lane, row);
            }
        });
    }

    /// [`wg_produce`](Self::wg_produce) for callers that build a lane's
    /// message in one go: `fill(lane, msg)` writes all `rows` words of
    /// lane `lane`'s message, once per active lane.
    ///
    /// What the lockstep work-group would *execute* — a prefix sum of
    /// ones, a leader election, a broadcast, one address computation per
    /// lane and row — is charged to `ctx` instruction for instruction, but
    /// not interpreted: a lane's column is its rank in the active mask,
    /// the broadcast value is the reservation the leader just made, and
    /// the store's cache lines follow from the ranks in closed form
    /// ([`WgCtx::mem_access_compacted`]). The host-side cost of an
    /// offload is then the payload evaluation and the same slot write
    /// [`produce_batch`](Self::produce_batch) does.
    ///
    /// The messages are filled into a staging buffer *before* the
    /// reservation and written row by row after it. Filling each message
    /// straight into its column after the reservation, as
    /// [`produce_with`](Self::produce_with) does, measured slower in
    /// `gups_simt` (×0.94–0.96, 0 of 20 pairs): the fill then runs while
    /// the slot holds up the lane, and one pass of interleaved stores
    /// loses to row passes here as in `write_slot`.
    /// Filling first also keeps a panicking `fill` (a kernel bug: a
    /// short register) from ever holding a reserved slot.
    pub fn wg_produce_with(&self, ctx: &mut WgCtx, fill: impl Fn(usize, &mut [u64])) {
        assert!(
            ctx.wg_size() <= self.cfg.lane_width,
            "work-group ({}) wider than queue slots ({})",
            ctx.wg_size(),
            self.cfg.lane_width
        );
        let count = ctx.active_count();
        if count == 0 {
            return;
        }
        // Spans the whole slot handoff: reservation fetch-add through the
        // full-bit publish.
        let _span = self.tracer.span("gq.offload", "offload", self.node);
        let rows = self.cfg.rows;
        // The lanes' messages, compacted in lane order (message-major).
        let mut words = ctx.take_words(count * rows);
        for (msg, lane) in words.chunks_exact_mut(rows).zip(ctx.active().iter()) {
            fill(lane, msg);
        }
        // Fig. 5b lines 4-6: `prefix_sum(1)` gives each lane its column,
        // `reduce_max(LANE_ID)` elects the leader.
        ctx.charge_collective();
        ctx.elect_leader();
        // Line 9: the leader reserves a slot for the whole work-group.
        let seq = ctx.atomic_fetch_add(&self.write_idx, 1);
        self.stats.producer_rmws.add(1);
        let slot = self.producer_wait(seq);
        // Line 10: broadcast the reservation to every lane (reduce-to-sum
        // of a register that is zero except at the leader).
        ctx.charge_collective();
        // Coalesced payload writes: row by row, the lane of rank `r`
        // writes column `r`.
        let pitch = (self.cfg.lane_width * 8) as u64;
        ctx.mem_access_compacted(8, rows, pitch, slot.payload.as_ptr() as u64);
        self.write_slot(slot, &words);
        ctx.give_words(words);
        // Fig. 7 time ③: the leader sets the full bit.
        self.publish(slot, count);
        ctx.counters.messages += count as u64;
    }

    /// Offload one message per active lane with *work-item*-granularity
    /// synchronization (Fig. 5a): every lane performs its own `fetch_add`
    /// and owns a single-message slot. Requires `lane_width == 1`.
    pub fn wi_produce(&self, ctx: &mut WgCtx, payload: impl Fn(usize, usize) -> u64) {
        assert_eq!(
            self.cfg.lane_width, 1,
            "work-item queues use single-message slots"
        );
        let mask = ctx.active().clone();
        for lane in mask.iter() {
            // Divergent serialization: each lane's reservation is its own
            // wavefront instruction.
            let mut single = Mask::none(ctx.wg_size());
            single.set(lane, true);
            ctx.with_mask(single, |ctx| {
                let seq = ctx.atomic_fetch_add(&self.write_idx, 1);
                self.stats.producer_rmws.add(1);
                let slot = self.producer_wait(seq);
                let base = slot.payload.as_ptr() as u64;
                for (row, word) in slot.payload.iter().enumerate() {
                    ctx.mem_access_by(8, |_| base + row as u64 * 8);
                    word.store(payload(lane, row), Ordering::Relaxed);
                }
                self.publish(slot, 1);
                ctx.counters.messages += 1;
            });
        }
    }

    /// CPU-side batch producer: enqueue `count` messages whose words are
    /// given message-major in `words` (`count * rows` words). Used by the
    /// CPU baselines and by host threads injecting control messages.
    pub fn produce_batch(&self, words: &[u64], count: usize) {
        assert!(
            count >= 1 && count <= self.cfg.lane_width,
            "batch of {count} exceeds slot"
        );
        assert_eq!(words.len(), count * self.cfg.rows, "word count mismatch");
        let seq = self.write_idx.fetch_add(1, Ordering::AcqRel);
        self.stats.producer_rmws.add(1);
        let slot = self.producer_wait(seq);
        self.write_slot(slot, words);
        self.publish(slot, count);
    }

    /// [`produce_batch`](Self::produce_batch) for a caller that holds
    /// messages, not words: message `i` of the slot is `msg(i)`, stored
    /// as it is produced — no staging copy. Standard four-row slots only.
    pub fn produce_with(&self, count: usize, mut msg: impl FnMut(usize) -> [u64; MSG_ROWS]) {
        assert!(
            count >= 1 && count <= self.cfg.lane_width,
            "batch of {count} exceeds slot"
        );
        assert_eq!(self.cfg.rows, MSG_ROWS, "produce_with fills four-row slots");
        let seq = self.write_idx.fetch_add(1, Ordering::AcqRel);
        self.stats.producer_rmws.add(1);
        let slot = self.producer_wait(seq);
        // Cut the row slices once, to the live columns; each message is
        // produced once and its words go to the same column of every
        // row — the mirror of [`SlotView::messages`].
        let mut rows = slot.payload.chunks_exact(self.cfg.lane_width).map(|row| &row[..count]);
        let rows: [&[AtomicU64]; MSG_ROWS] =
            std::array::from_fn(|_| rows.next().expect("MSG_ROWS rows"));
        for col in 0..count {
            for (row, w) in rows.iter().zip(msg(col)) {
                row[col].store(w, Ordering::Relaxed);
            }
        }
        self.publish(slot, count);
    }

    /// Store message-major `words` into `slot`'s row-major payload, one
    /// message per column from column 0: each row is one pass over its
    /// own slice, the mirror of [`SlotView::copy_into`]. (One pass over
    /// the messages, four stores each, reads better in a replay —
    /// `gq.produce_batch_ns_per_msg` 6.9 → 5.4 — and worse in a running
    /// pipeline, where the slot's lines come from the consumer's core:
    /// `gups_simt` 40.8 → 39.3 M msgs/s in six of six pairs;
    /// EXPERIMENTS.md "Hand-offs (PR 23)".)
    /// Measured again for [`wg_produce_with`](Self::wg_produce_with) once
    /// its coalescer walk was gone: ×0.98 in `gups_simt`, 5 of 6 rounds
    /// slower (EXPERIMENTS.md "The slot write's cache lines in closed
    /// form").
    fn write_slot(&self, slot: &Slot, words: &[u64]) {
        let rows = self.cfg.rows;
        for (r, row) in slot.payload.chunks_exact(self.cfg.lane_width).enumerate() {
            for (cell, &w) in row.iter().zip(words[r..].iter().step_by(rows)) {
                cell.store(w, Ordering::Relaxed);
            }
        }
    }

    // ---- consumers -------------------------------------------------------

    /// Claim up to `max_slots` *consecutive ready* slots with a single
    /// `read_idx` compare-exchange: the consumer-side mirror of the
    /// producer's work-group reservation — under load, one RMW claims
    /// many work-groups' worth of messages instead of one. Claimed slots
    /// are exclusively owned (later consumers CAS from `first + slots`)
    /// until each is [`release`](Self::release)d; their producers wait.
    pub fn try_claim(&self, max_slots: usize) -> Consumed<Claim> {
        let max = max_slots.max(1) as u64;
        loop {
            let seq = self.read_idx.load(Ordering::Acquire);
            // Count consecutive ready slots starting at `seq`. A slot one
            // full ring ahead can never look ready (its round is one too
            // low until we release the slot it wraps onto), so `k` is
            // implicitly bounded by the ring size.
            let k = (0..max).take_while(|k| self.is_full(seq + k)).count() as u64;
            if k == 0 {
                self.stats.consumer_empty_polls.add(1);
                if self.closed.load(Ordering::Acquire)
                    && seq >= self.write_idx.load(Ordering::Acquire)
                {
                    return Consumed::Closed;
                }
                return Consumed::Empty;
            }
            // A lost race means another consumer took `seq` — retry on
            // the next one.
            let won = self
                .read_idx
                .compare_exchange(seq, seq + k, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            self.stats.consumer_rmws.add(1);
            if won {
                self.stats.consumer_hits.add(k);
                return Consumed::Batch(Claim {
                    first: seq,
                    slots: k,
                });
            }
        }
    }

    /// The messages of slot `seq`, which the caller holds a [`Claim`] on
    /// and has not released. (Of any other slot this reads whatever a
    /// producer happens to be writing: stale, never unsafe.)
    pub fn claimed(&self, seq: u64) -> SlotView<'_> {
        let (slot, _) = self.slot_ring(seq);
        SlotView {
            payload: &slot.payload,
            lane_width: self.cfg.lane_width,
            count: slot.count.load(Ordering::Relaxed) as usize,
        }
    }

    /// Hand claimed slot `seq` back to its next producer (Fig. 7 time ⑤:
    /// clear `F`, bump the current ticket) and count its messages
    /// consumed. A producer that is spinning for the slot sees it at
    /// once; one that has parked is woken by
    /// [`wake_producers`](Self::wake_producers), which the consumer
    /// calls when it has released its whole claim.
    pub fn release(&self, seq: u64) {
        let (slot, round) = self.slot_ring(seq);
        let count = slot.count.load(Ordering::Relaxed);
        slot.full.store(false, Ordering::Release);
        slot.round.store(round + 1, Ordering::Release);
        self.stats.messages_consumed.add(count);
    }

    /// Wake the producers parked on a full ring: once per claim, after
    /// its last [`release`](Self::release), so a claim of eight slots
    /// costs one futex wake and its producers one context switch, not
    /// eight. Nearly free when nobody is parked; `producer_wakes`
    /// counts the calls that found somebody.
    pub fn wake_producers(&self) {
        if self.prod_waiter.notify_all() {
            self.stats.producer_wakes.add(1);
        }
    }

    /// Try to drain one slot. On success the slot's messages are appended
    /// to `out` *message-major* (each message's `rows` words contiguous)
    /// and `Consumed::Batch(count)` is returned.
    pub fn try_consume_into(&self, out: &mut Vec<u64>) -> Consumed {
        self.try_consume_batch(out, 1)
    }

    /// [`try_claim`](Self::try_claim), copy the claimed slots' messages
    /// to `out` message-major and release them. Returns
    /// `Consumed::Batch(total_messages)`.
    pub fn try_consume_batch(&self, out: &mut Vec<u64>, max_slots: usize) -> Consumed {
        match self.try_claim(max_slots) {
            Consumed::Batch(claim) => {
                let before = out.len();
                for seq in claim.first..claim.first + claim.slots {
                    self.claimed(seq).copy_into(out);
                    self.release(seq);
                }
                self.wake_producers();
                Consumed::Batch((out.len() - before) / self.cfg.rows)
            }
            Consumed::Empty => Consumed::Empty,
            Consumed::Closed => Consumed::Closed,
        }
    }

    /// Drain one slot, blocking until one is ready. Returns `None` once
    /// the queue is closed and empty. Spins briefly, then parks on the
    /// queue's wait cell (woken by publishes and close).
    pub fn consume_blocking(&self, out: &mut Vec<u64>) -> Option<usize> {
        let mut spins = 0u64;
        loop {
            match self.try_consume_into(out) {
                Consumed::Batch(n) => return Some(n),
                Consumed::Closed => return None,
                Consumed::Empty => {
                    spins += 1;
                    std::hint::spin_loop();
                    if spins.is_multiple_of(256) {
                        self.park_for_ready(Duration::from_micros(100));
                    }
                }
            }
        }
    }

    /// Mark the queue closed. Call after all producers have finished;
    /// consumers drain the remaining slots and then observe
    /// [`Consumed::Closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.waiter.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Slots published but not yet consumed (approximate under
    /// concurrency).
    pub fn backlog(&self) -> u64 {
        self.write_idx
            .load(Ordering::Acquire)
            .saturating_sub(self.read_idx.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod stepwise;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Message;
    use gravel_simt::{Grid, Mask, SimtEngine};

    fn small_cfg() -> QueueConfig {
        QueueConfig {
            slots: 4,
            lane_width: 8,
            rows: MSG_ROWS,
        }
    }

    #[test]
    fn config_capacity_math() {
        let cfg = QueueConfig::gravel_default();
        assert_eq!(cfg.capacity_bytes(), 1024 * 1024); // Table 3: 1 MB
        let c2 = QueueConfig::for_bytes(64 * 1024, 256, 4);
        assert_eq!(c2.slots, 8);
    }

    #[test]
    fn wg_produce_then_consume_roundtrip() {
        let q = GravelQueue::new(small_cfg());
        let engine = SimtEngine::with_cus(1);
        let grid = Grid {
            wg_count: 1,
            wg_size: 8,
            wf_width: 4,
        };
        engine.dispatch(grid, |ctx| {
            let msgs: Vec<[u64; MSG_ROWS]> = (0..8)
                .map(|l| Message::put(1, l as u64, 100 + l as u64).encode())
                .collect();
            q.wg_produce(ctx, |lane, row| msgs[lane][row]);
        });
        let mut out = Vec::new();
        assert_eq!(q.try_consume_into(&mut out), Consumed::Batch(8));
        assert_eq!(out.len(), 8 * MSG_ROWS);
        for (l, chunk) in out.chunks_exact(MSG_ROWS).enumerate() {
            let m = Message::decode([chunk[0], chunk[1], chunk[2], chunk[3]]).unwrap();
            assert_eq!(m, Message::put(1, l as u64, 100 + l as u64));
        }
    }

    #[test]
    fn wg_produce_compacts_inactive_lanes() {
        let q = GravelQueue::new(small_cfg());
        let engine = SimtEngine::with_cus(1);
        let grid = Grid {
            wg_count: 1,
            wg_size: 8,
            wf_width: 4,
        };
        engine.dispatch(grid, |ctx| {
            let odd = Mask::from_fn(8, |l| l % 2 == 1);
            ctx.if_then(&odd, |ctx| {
                q.wg_produce(ctx, |lane, row| {
                    Message::inc(0, lane as u64, 1).encode()[row]
                });
            });
        });
        let mut out = Vec::new();
        assert_eq!(q.try_consume_into(&mut out), Consumed::Batch(4));
        let addrs: Vec<u64> = out.chunks_exact(MSG_ROWS).map(|c| c[2]).collect();
        assert_eq!(addrs, vec![1, 3, 5, 7]); // compacted, in lane order
    }

    #[test]
    fn empty_workgroup_publishes_nothing() {
        let q = GravelQueue::new(small_cfg());
        let engine = SimtEngine::with_cus(1);
        let grid = Grid {
            wg_count: 1,
            wg_size: 8,
            wf_width: 4,
        };
        engine.dispatch(grid, |ctx| {
            let none = Mask::none(8);
            ctx.with_mask(none, |ctx| {
                q.wg_produce(ctx, |_, _| 0);
            });
        });
        let mut out = Vec::new();
        assert_eq!(q.try_consume_into(&mut out), Consumed::Empty);
        assert_eq!(q.stats.snapshot().slots_produced, 0);
    }

    #[test]
    fn one_rmw_per_workgroup() {
        let q = GravelQueue::new(QueueConfig {
            slots: 64,
            lane_width: 8,
            rows: 4,
        });
        let engine = SimtEngine::with_cus(1);
        let grid = Grid {
            wg_count: 10,
            wg_size: 8,
            wf_width: 4,
        };
        engine.dispatch(grid, |ctx| {
            q.wg_produce(ctx, |_, _| 7);
        });
        let snap = q.stats.snapshot();
        assert_eq!(snap.producer_rmws, 10); // exactly one fetch-add per WG
        assert_eq!(snap.messages_produced, 80);
    }

    #[test]
    fn wi_produce_uses_one_rmw_per_message() {
        let q = GravelQueue::new(QueueConfig {
            slots: 128,
            lane_width: 1,
            rows: 4,
        });
        let engine = SimtEngine::with_cus(1);
        let grid = Grid {
            wg_count: 1,
            wg_size: 8,
            wf_width: 4,
        };
        engine.dispatch(grid, |ctx| {
            q.wi_produce(ctx, |lane, row| {
                Message::inc(0, lane as u64, 0).encode()[row]
            });
        });
        let snap = q.stats.snapshot();
        assert_eq!(snap.producer_rmws, 8);
        assert_eq!(snap.messages_produced, 8);
        // Each message sits in its own slot.
        let mut out = Vec::new();
        let mut seen = Vec::new();
        while let Consumed::Batch(n) = q.try_consume_into(&mut out) {
            assert_eq!(n, 1);
            seen.push(out[out.len() - 2]); // addr row
        }
        assert_eq!(seen, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn producer_backpressure_when_ring_wraps() {
        // 2-slot ring: the third batch must wait for a consume. Run the
        // producer in a thread; consume from here.
        let q = std::sync::Arc::new(GravelQueue::new(QueueConfig {
            slots: 2,
            lane_width: 2,
            rows: 1,
        }));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..10u64 {
                q2.produce_batch(&[i, i + 100], 2);
            }
            q2.close();
        });
        let mut out = Vec::new();
        let mut batches = 0;
        while q.consume_blocking(&mut out).is_some() {
            batches += 1;
        }
        producer.join().unwrap();
        assert_eq!(batches, 10);
        assert_eq!(out.len(), 20);
        // First batch arrived in order.
        assert_eq!(&out[0..2], &[0, 100]);
    }

    #[test]
    fn close_drains_remaining_slots_first() {
        let q = GravelQueue::new(small_cfg());
        q.produce_batch(&[1, 2, 3, 4], 1);
        q.close();
        let mut out = Vec::new();
        assert_eq!(q.try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(q.try_consume_into(&mut out), Consumed::Closed);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        use std::sync::Arc;
        let q = Arc::new(GravelQueue::new(QueueConfig {
            slots: 8,
            lane_width: 4,
            rows: 1,
        }));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let tag = (p as u64) << 32 | i;
                        q.produce_batch(&[tag, tag, tag, tag], 4);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while q.consume_blocking(&mut got).is_some() {}
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        assert_eq!(all.len(), 3 * 200 * 4);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3 * 200); // each tag appears exactly once (×4 dups collapsed)
    }

    #[test]
    fn batch_consume_claims_many_slots_with_one_rmw() {
        let q = GravelQueue::new(QueueConfig {
            slots: 8,
            lane_width: 2,
            rows: 1,
        });
        for i in 0..5u64 {
            q.produce_batch(&[i, i + 100], 2);
        }
        let before = q.stats.snapshot().consumer_rmws;
        let mut out = Vec::new();
        assert_eq!(
            q.try_consume_batch(&mut out, 4),
            Consumed::Batch(8),
            "4 slots × 2 msgs"
        );
        assert_eq!(
            q.stats.snapshot().consumer_rmws,
            before + 1,
            "one CAS for four slots"
        );
        assert_eq!(out, vec![0, 100, 1, 101, 2, 102, 3, 103]);
        assert_eq!(
            q.try_consume_batch(&mut out, 4),
            Consumed::Batch(2),
            "the leftover slot"
        );
        assert_eq!(q.try_consume_batch(&mut out, 4), Consumed::Empty);
        q.close();
        assert_eq!(q.try_consume_batch(&mut out, 4), Consumed::Closed);
    }

    #[test]
    fn batch_consume_survives_ring_wrap_and_concurrency() {
        use std::sync::Arc;
        let q = Arc::new(GravelQueue::new(QueueConfig {
            slots: 4,
            lane_width: 2,
            rows: 1,
        }));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let tag = (p as u64) << 32 | i;
                        q.produce_batch(&[tag, tag], 2);
                    }
                })
            })
            .collect();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.try_consume_batch(&mut got, 3) {
                        Consumed::Closed => return got,
                        Consumed::Empty => {
                            q.park_for_ready(Duration::from_micros(50));
                        }
                        Consumed::Batch(_) => {}
                    }
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all = consumer.join().unwrap();
        assert_eq!(all.len(), 2 * 500 * 2);
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            2 * 500,
            "each tag exactly once (×2 dups collapsed)"
        );
    }

    #[test]
    fn produce_with_fills_the_slot_produce_batch_would() {
        let msgs: Vec<[u64; MSG_ROWS]> =
            (0..8u64).map(|i| Message::inc(1, i, 100 + i).encode()).collect();
        for count in [1, 3, 8] {
            let (by_words, by_msg) = (GravelQueue::new(small_cfg()), GravelQueue::new(small_cfg()));
            by_words.produce_batch(msgs[..count].as_flattened(), count);
            by_msg.produce_with(count, |i| msgs[i]);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            assert_eq!(by_words.try_consume_into(&mut want), Consumed::Batch(count));
            assert_eq!(by_msg.try_consume_into(&mut got), Consumed::Batch(count));
            assert_eq!(got, want);
            assert_eq!(by_msg.stats.snapshot(), by_words.stats.snapshot());
        }
    }

    #[test]
    fn a_fill_that_panics_leaves_the_ring_moving() {
        let grid = Grid { wg_count: 1, wg_size: 8, wf_width: 4 };
        let fill = |first: u64| {
            move |lane: usize, msg: &mut [u64]| {
                assert!(first > 0 || lane != 3, "a kernel bug at lane 3");
                msg.copy_from_slice(&Message::inc(0, first + lane as u64, 1).encode());
            }
        };
        for in_place in [false, true] {
            let q = GravelQueue::new(small_cfg());
            let mut ctx = WgCtx::new(grid, 0);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.wg_produce_with(&mut ctx, fill(0));
            }));
            assert!(unwound.is_err(), "the fill's panic reaches the kernel");
            ctx.reset(0);
            q.wg_produce_with(&mut ctx, fill(100));
            // Only the second work-group's messages come out, whoever
            // drains the ring.
            let addrs: Vec<u64> = if in_place {
                let Consumed::Batch(claim) = q.try_claim(4) else { panic!("a slot is ready") };
                let mut addrs = Vec::new();
                for seq in claim.first..claim.first + claim.slots {
                    addrs.extend(q.claimed(seq).messages::<MSG_ROWS>(0).map(|m| m[2]));
                    q.release(seq);
                }
                q.wake_producers();
                addrs
            } else {
                let mut out = Vec::new();
                assert_eq!(q.try_consume_batch(&mut out, 4), Consumed::Batch(8));
                out.chunks_exact(MSG_ROWS).map(|m| m[2]).collect()
            };
            assert_eq!(addrs, (100..108).collect::<Vec<u64>>());
            let snap = q.stats.snapshot();
            assert_eq!((snap.messages_produced, snap.messages_consumed), (8, 8));
            assert_eq!(q.backlog(), 0);
        }
    }

    #[test]
    fn an_empty_slot_copies_out_nothing() {
        let payload: Vec<AtomicU64> = (0..4 * 8).map(AtomicU64::new).collect();
        let mut out = vec![7];
        SlotView { payload: &payload, lane_width: 8, count: 0 }.copy_into(&mut out);
        assert_eq!(out, [7]);
        SlotView { payload: &payload, lane_width: 8, count: 2 }.copy_into(&mut out);
        assert_eq!(out, [7, 0, 8, 16, 24, 1, 9, 17, 25]);
    }

    #[test]
    fn a_drained_claim_wakes_its_parked_producers_once() {
        // A full ring of eight slots and eight more producers, one per
        // slot, parked for good: only a wake gets them out.
        const SLOTS: u64 = 8;
        let mut q = GravelQueue::new(QueueConfig { slots: SLOTS as usize, lane_width: 1, rows: 1 });
        q.producer_park = Duration::from_secs(3600);
        let q = Arc::new(q);
        for i in 0..SLOTS {
            q.produce_batch(&[i], 1);
        }
        let wakes = || q.stats.snapshot().producer_wakes;
        let rounds = (crate::fuzz_cases() / 64).max(1);
        for round in 0..rounds {
            let first = round * SLOTS;
            let producers: Vec<_> = (0..SLOTS)
                .map(|i| {
                    let q = q.clone();
                    std::thread::spawn(move || q.produce_batch(&[first + SLOTS + i], 1))
                })
                .collect();
            while q.prod_waiter.sleepers() < SLOTS {
                std::thread::yield_now();
            }
            assert_eq!(wakes(), round);
            // Releasing a slot wakes nobody, whoever is parked on it ...
            let claimed = q.try_claim(SLOTS as usize);
            assert_eq!(claimed, Consumed::Batch(Claim { first, slots: SLOTS }));
            let mut got: Vec<u64> = Vec::new();
            for seq in first..first + SLOTS {
                q.claimed(seq).copy_into(&mut got);
                q.release(seq);
                assert_eq!(wakes(), round, "the release of slot {seq} woke the producers");
            }
            // ... the end of the claim wakes everybody, once.
            q.wake_producers();
            assert_eq!(wakes(), round + 1);
            for p in producers {
                p.join().expect("a woken producer finds its slot free");
            }
            got.sort_unstable();
            assert_eq!(got, (first..first + SLOTS).collect::<Vec<_>>());
        }
        // The copying consumer is a claim like any other; nobody is
        // parked now, so its wake finds nobody and counts nothing.
        let mut out = Vec::new();
        assert_eq!(q.try_consume_batch(&mut out, SLOTS as usize), Consumed::Batch(SLOTS as usize));
        assert_eq!(wakes(), rounds);
    }

    #[test]
    fn park_for_ready_wakes_on_publish() {
        let q = Arc::new(GravelQueue::new(small_cfg()));
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                while !q.has_ready() {
                    q.park_for_ready(Duration::from_secs(10));
                }
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        q.produce_batch(&[1, 2, 3, 4], 1);
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "publish woke the parked consumer ({waited:?})"
        );
    }

    #[test]
    fn a_publish_on_a_sharing_ring_wakes_the_other_rings_consumer() {
        let main = Arc::new(GravelQueue::new(small_cfg()));
        let side = Arc::new(GravelQueue::with_shared_waiter(
            small_cfg(),
            QueueStats::default(),
            Tracer::disabled(),
            0,
            &main,
        ));
        let waiter = {
            let (main, side) = (main.clone(), side.clone());
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                while !side.has_ready() {
                    main.park_for_ready_or(Duration::from_secs(10), || side.has_ready());
                }
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        side.produce_batch(&[1, 2, 3, 4], 1);
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "side-ring publish woke the consumer parked on the main ring ({waited:?})"
        );
    }

    #[test]
    #[should_panic(expected = "wider than queue slots")]
    fn oversized_workgroup_panics() {
        let q = GravelQueue::new(QueueConfig {
            slots: 2,
            lane_width: 4,
            rows: 1,
        });
        let grid = Grid {
            wg_count: 1,
            wg_size: 8,
            wf_width: 4,
        };
        let mut ctx = gravel_simt::WgCtx::new(grid, 0);
        q.wg_produce(&mut ctx, |_, _| 0);
    }
}
