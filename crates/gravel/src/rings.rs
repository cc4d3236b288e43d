//! Destination-sharded GPU offload rings.
//!
//! One [`GravelQueue`] ring per aggregator lane, with messages sharded by
//! destination (`dest % lanes`) at *produce* time. Lane `L` exclusively
//! drains ring `L`, which buys two things at once:
//!
//! * **No consumer contention.** Each ring has exactly one consumer, so
//!   the read-index CAS in `try_consume_batch` never loses a race and
//!   lanes never bounce the same cache lines.
//! * **Per-destination ordering is preserved.** Every destination is
//!   owned by exactly one lane, so all its traffic flows through one
//!   `(src, lane)` sequence space — the multi-lane pipeline
//!   keeps the single-lane delivery guarantees (see DESIGN.md §12).
//!
//! With `lanes == 1` this degenerates to the classic single-ring layout
//! byte for byte: one ring with the full slot budget, every destination
//! in shard 0.
//!
//! Beside the bulk rings sits one small **express ring** per node for
//! request-reply traffic (every [`TrafficClass`] but `Bulk`), so a GET
//! or a reply never queues behind a ring full of PUTs. The aggregator
//! draining bulk ring 0 drains it too, before every bulk batch, and the
//! two rings share a wait cell so a publish on either wakes that one
//! thread (DESIGN.md §15).
//!
//! The total slot budget of the configured geometry is divided across
//! the rings (each keeps at least two slots), so enabling lanes does not
//! multiply the memory footprint — governed or not. A governed bank
//! collapsed to one lane therefore runs on a fraction of the budget,
//! and that is deliberate: a divided ring that a dense burst saturates
//! is exactly the backpressure signal the governor's occupancy term
//! reads to expand the mask (see `governor.rs`), while giving every
//! ring the full budget was measured to cost GUPS ~5 % in cache
//! footprint at four lanes.

use std::sync::atomic::{AtomicUsize, Ordering};

use gravel_gq::{Consumed, GravelQueue, QueueConfig, QueueStats, TrafficClass};
use gravel_telemetry::Tracer;

/// A bank of per-lane offload rings sharing one telemetry surface.
pub struct ShardedRings {
    rings: Box<[GravelQueue]>,
    /// The express ring: an eighth of the configured slot budget, the
    /// same slot shape. What it is asked to hold is bounded anyway — by
    /// the pending-reply table and by requesters waiting for their
    /// replies — and a full ring only makes a producer wait for the
    /// lane that drains it first.
    express: GravelQueue,
    /// Routing mask: destinations hash into the first `active` rings.
    /// Equals `rings.len()` (and never moves) without a governor.
    active: AtomicUsize,
    /// Synchronization instrumentation, shared by every ring (cloned
    /// counter handles all feed the same totals).
    pub stats: QueueStats,
}

impl ShardedRings {
    /// Build `lanes` rings by dividing `cfg.slots` across them (detached
    /// stats, no tracing — the standalone mode).
    pub fn new(cfg: QueueConfig, lanes: usize) -> Self {
        Self::with_telemetry(cfg, lanes, false, QueueStats::default(), Tracer::disabled(), 0)
    }

    /// Build `lanes` rings whose counters and spans feed a cluster's
    /// telemetry. Every ring shares (clones of) `stats`, so snapshots
    /// aggregate the whole bank. `governed` banks start collapsed to
    /// one active lane; static banks route across all rings forever.
    /// Both divide the slot budget (see module docs).
    pub fn with_telemetry(
        cfg: QueueConfig,
        lanes: usize,
        governed: bool,
        stats: QueueStats,
        tracer: Tracer,
        node: u32,
    ) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        let ring_cfg = QueueConfig {
            slots: (cfg.slots / lanes).max(2),
            ..cfg
        };
        let rings: Box<[GravelQueue]> = (0..lanes)
            .map(|_| GravelQueue::with_telemetry(ring_cfg, stats.clone(), tracer.clone(), node))
            .collect();
        let express_cfg = QueueConfig {
            slots: (cfg.slots / 8).max(2),
            ..cfg
        };
        ShardedRings {
            express: GravelQueue::with_shared_waiter(
                express_cfg,
                stats.clone(),
                tracer,
                node,
                &rings[0],
            ),
            rings,
            active: AtomicUsize::new(if governed { 1 } else { lanes }),
            stats,
        }
    }

    /// Number of lanes (== rings).
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// How many lanes currently receive new traffic. Equals
    /// [`lanes`](Self::lanes) on an ungoverned bank.
    pub fn active_lanes(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Point the routing mask at the first `n` lanes (governor only).
    /// Parked lanes keep draining whatever is already in their ring;
    /// producers that read the mask a moment late still land in a ring
    /// whose consumer exists, so no traffic strands.
    pub fn set_active_lanes(&self, n: usize) {
        let n = n.clamp(1, self.rings.len());
        self.active.store(n, Ordering::Relaxed);
    }

    /// Move the routing mask `from` → `to` only if it still reads
    /// `from`. Governor transitions go through this: producers drive
    /// decisions as well as lane 0, and the CAS turns the loser of a
    /// racing pair into a no-op instead of letting its stale view yank
    /// the mask backward.
    pub fn transition_active_lanes(&self, from: usize, to: usize) -> bool {
        let to = to.clamp(1, self.rings.len());
        self.active
            .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// The ring drained by lane `lane`.
    pub fn ring(&self, lane: usize) -> &GravelQueue {
        &self.rings[lane]
    }

    /// The express ring, drained by whichever aggregator drains bulk
    /// ring 0.
    pub fn express(&self) -> &GravelQueue {
        &self.express
    }

    /// Which lane owns destination `dest`. Stable while the active-lane
    /// mask holds — per-destination ordering within a mask depends on
    /// it (a governor transition remaps destinations; see DESIGN.md
    /// §17 for the ordering contract across transitions).
    pub fn shard_of(&self, dest: u32) -> usize {
        dest as usize % self.active_lanes()
    }

    /// Per-ring geometry (identical across lanes).
    pub fn config(&self) -> QueueConfig {
        self.rings[0].config()
    }

    /// Unconsumed slots across all rings.
    pub fn backlog(&self) -> u64 {
        self.express.backlog() + self.rings.iter().map(|r| r.backlog()).sum::<u64>()
    }

    /// Close every ring (producers must have stopped). Express first: a
    /// lane that finds its bulk ring closed may rely on the express
    /// ring being closed too.
    pub fn close(&self) {
        self.express.close();
        for r in self.rings.iter() {
            r.close();
        }
    }

    /// Are all rings closed?
    pub fn is_closed(&self) -> bool {
        self.express.is_closed() && self.rings.iter().all(|r| r.is_closed())
    }

    /// Produce one message (as words) into the ring its class and
    /// destination select (host paths).
    pub fn produce_one(&self, dest: u32, words: &[u64]) {
        let ring = match TrafficClass::of_command_word(words[0]) {
            TrafficClass::Bulk => &self.rings[self.shard_of(dest)],
            _ => &self.express,
        };
        ring.produce_batch(words, 1);
    }

    /// Drain one ready slot from any ring, express first and then the
    /// lanes in order (single-consumer test paths; live lanes drain
    /// their own ring via [`ring`](Self::ring)). `Closed` only once
    /// every ring is closed and drained.
    pub fn try_consume_into(&self, out: &mut Vec<u64>) -> Consumed {
        let mut all_closed = true;
        for r in std::iter::once(&self.express).chain(self.rings.iter()) {
            match r.try_consume_into(out) {
                Consumed::Batch(n) => return Consumed::Batch(n),
                Consumed::Empty => all_closed = false,
                Consumed::Closed => {}
            }
        }
        if all_closed {
            Consumed::Closed
        } else {
            Consumed::Empty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;

    fn bank(lanes: usize) -> ShardedRings {
        ShardedRings::new(
            QueueConfig {
                slots: 8,
                lane_width: 4,
                rows: 4,
            },
            lanes,
        )
    }

    #[test]
    fn one_lane_owns_every_destination() {
        let b = bank(1);
        for dest in 0..16 {
            assert_eq!(b.shard_of(dest), 0);
        }
        assert_eq!(b.lanes(), 1);
        assert_eq!(b.config().slots, 8, "single lane keeps the full budget");
    }

    #[test]
    fn slot_budget_divides_across_lanes() {
        assert_eq!(bank(4).config().slots, 2);
        assert_eq!(bank(2).config().slots, 4);
        // Floor of two slots even when oversubscribed.
        assert_eq!(bank(7).config().slots, 2);
    }

    #[test]
    fn governed_bank_starts_collapsed_with_divided_budget() {
        let cfg = QueueConfig { slots: 8, lane_width: 4, rows: 4 };
        let b = ShardedRings::with_telemetry(
            cfg,
            4,
            true,
            QueueStats::default(),
            Tracer::disabled(),
            0,
        );
        assert_eq!(b.lanes(), 4);
        assert_eq!(b.active_lanes(), 1, "governed banks start collapsed");
        assert_eq!(b.config().slots, 2, "budget divides like a static bank");
        for dest in 0..16 {
            assert_eq!(b.shard_of(dest), 0, "collapsed mask routes everything to lane 0");
        }
        b.set_active_lanes(2);
        assert_eq!(b.shard_of(3), 1);
        // Clamped to the physical lane count (and to >= 1).
        b.set_active_lanes(99);
        assert_eq!(b.active_lanes(), 4);
        b.set_active_lanes(0);
        assert_eq!(b.active_lanes(), 1);
    }

    #[test]
    fn produce_routes_by_destination_hash() {
        let b = bank(2);
        for dest in 0..4u32 {
            b.produce_one(dest, &Message::inc(dest, 0, 1).encode());
        }
        // Even dests on ring 0, odd on ring 1.
        let mut out = Vec::new();
        assert_eq!(b.ring(0).try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(out[1], 0);
        out.clear();
        assert_eq!(b.ring(1).try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(out[1], 1);
    }

    #[test]
    fn request_reply_classes_take_the_express_ring() {
        assert_eq!(bank(2).express().config().slots, 2, "floor of two slots");
        let b = ShardedRings::new(QueueConfig { slots: 32, lane_width: 4, rows: 4 }, 2);
        assert_eq!(b.express().config().slots, 4, "an eighth of the budget");
        b.produce_one(1, &Message::inc(1, 0, 1).encode());
        b.produce_one(1, &Message::get(1, 0, 7, 1).encode());
        b.produce_one(0, &Message::reply(0, 7, 9).encode());
        b.produce_one(1, &Message::am_call(1, 0, 0, 8, 1).encode());
        assert_eq!(b.ring(1).backlog(), 1, "only the INC is bulk");
        assert_eq!(b.ring(0).backlog(), 0);
        assert_eq!(b.express().backlog(), 3);
        assert_eq!(b.backlog(), 4);
        // The sweep serves the express ring first.
        let mut out = Vec::new();
        assert_eq!(b.try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(Message::decode([out[0], out[1], out[2], out[3]]), Some(Message::get(1, 0, 7, 1)));
        b.close();
        assert!(b.express().is_closed() && b.is_closed());
    }

    #[test]
    fn sweep_consume_and_backlog_cover_all_rings() {
        let b = bank(2);
        b.produce_one(0, &Message::inc(0, 0, 1).encode());
        b.produce_one(1, &Message::inc(1, 0, 1).encode());
        assert_eq!(b.backlog(), 2);
        let mut out = Vec::new();
        assert_eq!(b.try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(b.try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(b.try_consume_into(&mut out), Consumed::Empty);
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.try_consume_into(&mut out), Consumed::Closed);
    }

    #[test]
    fn shared_stats_aggregate_across_rings() {
        let b = bank(2);
        b.produce_one(0, &Message::inc(0, 0, 1).encode());
        b.produce_one(1, &Message::inc(1, 0, 1).encode());
        assert_eq!(b.stats.snapshot().messages_produced, 2);
    }
}
