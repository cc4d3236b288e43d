//! A node's GPU offload rings.
//!
//! Two [`GravelQueue`]s, drained by the node's one aggregator lane:
//!
//! * the **bulk ring**, with the configured slot budget, for PUTs,
//!   increments and one-way active messages;
//! * one small **express ring** for request-reply traffic (GET, REPLY,
//!   AM_CALL: [`Band::Express`]), so a GET or a reply never queues
//!   behind a ring full of PUTs. The lane drains it before every bulk
//!   batch, and the two rings share a wait cell so a publish on either
//!   wakes that one thread (DESIGN.md §15).
//!
//! One ring and one consumer per band is the paper's layout (§6,
//! Table 3) and the measured winner here (EXPERIMENTS.md "Lanes at the
//! aggregator"); it also makes per-destination order unconditional:
//! everything a node sends to one destination in one band travels one
//! ring, one lane and one sequence space.

use gravel_gq::{Band, GravelQueue, QueueConfig, QueueStats};
use gravel_telemetry::Tracer;

/// One node's bulk and express rings, sharing one telemetry surface.
pub struct RingPair {
    bulk: GravelQueue,
    /// The express ring: an eighth of the configured slot budget, the
    /// same slot shape. What it is asked to hold is bounded anyway — by
    /// the pending-reply table and by requesters waiting for their
    /// replies — and a full ring only makes a producer wait for the
    /// lane that drains it first.
    express: GravelQueue,
    /// Synchronization instrumentation, shared by both rings (cloned
    /// counter handles feed the same totals).
    pub stats: QueueStats,
}

impl RingPair {
    /// Build the pair with counters and spans feeding a cluster's
    /// telemetry. Both rings share (clones of) `stats`.
    pub fn with_telemetry(cfg: QueueConfig, stats: QueueStats, tracer: Tracer, node: u32) -> Self {
        let bulk = GravelQueue::with_telemetry(cfg, stats.clone(), tracer.clone(), node);
        let express_cfg = QueueConfig {
            slots: (cfg.slots / 8).max(2),
            ..cfg
        };
        RingPair {
            express: GravelQueue::with_shared_waiter(
                express_cfg,
                stats.clone(),
                tracer,
                node,
                &bulk,
            ),
            bulk,
            stats,
        }
    }

    /// The bulk ring. A node has exactly one, ring 0.
    pub fn ring(&self, index: usize) -> &GravelQueue {
        assert_eq!(index, 0, "a node has one bulk ring");
        &self.bulk
    }

    /// The express ring.
    pub fn express(&self) -> &GravelQueue {
        &self.express
    }

    /// The ring that carries `band`.
    pub fn band(&self, band: Band) -> &GravelQueue {
        match band {
            Band::Bulk => &self.bulk,
            Band::Express => &self.express,
        }
    }

    /// The bulk ring's geometry.
    pub fn config(&self) -> QueueConfig {
        self.bulk.config()
    }

    /// Unconsumed slots across both rings.
    pub fn backlog(&self) -> u64 {
        self.express.backlog() + self.bulk.backlog()
    }

    /// Close both rings (producers must have stopped). Express first: a
    /// lane that finds the bulk ring closed may rely on the express
    /// ring being closed too.
    pub fn close(&self) {
        self.express.close();
        self.bulk.close();
    }

    /// Produce one message (as words) into the ring of its band (host
    /// paths).
    pub fn produce_one(&self, words: &[u64]) {
        self.band(Band::of_command_word(words[0])).produce_batch(words, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::{Consumed, Message};

    fn pair(slots: usize) -> RingPair {
        let cfg = QueueConfig { slots, lane_width: 4, rows: 4 };
        RingPair::with_telemetry(cfg, QueueStats::default(), Tracer::disabled(), 0)
    }

    #[test]
    fn request_reply_messages_take_the_express_ring() {
        let small = pair(8);
        assert_eq!(small.config().slots, 8, "the bulk ring keeps the full budget");
        assert_eq!(small.express().config().slots, 2, "floor of two slots");
        let b = pair(32);
        assert_eq!(b.express().config().slots, 4, "an eighth of the budget");
        b.produce_one(&Message::inc(1, 0, 1).encode());
        b.produce_one(&Message::get(1, 0, 7, 1).encode());
        b.produce_one(&Message::reply(0, 7, 9).encode());
        b.produce_one(&Message::am_call(1, 0, 0, 8, 1).encode());
        assert_eq!(b.ring(0).backlog(), 1, "only the INC is bulk");
        assert_eq!(b.express().backlog(), 3);
        assert_eq!(b.backlog(), 4);
        assert_eq!(b.stats.snapshot().messages_produced, 4, "one stats surface");
        let mut out = Vec::new();
        assert_eq!(b.express().try_consume_into(&mut out), Consumed::Batch(1));
        assert_eq!(
            Message::decode([out[0], out[1], out[2], out[3]]),
            Some(Message::get(1, 0, 7, 1))
        );
        b.close();
        assert!(b.express().is_closed() && b.ring(0).is_closed());
    }
}
