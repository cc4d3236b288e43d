//! Per-node shared state.
//!
//! Everything the GPU kernels, the aggregator thread, and the network
//! thread of one node share: the symmetric heap, the producer/consumer
//! queue, the active-message registry, and the counters that let the
//! runtime detect cluster-wide quiescence.
//!
//! All counters are [`gravel_telemetry`] handles registered in the
//! cluster's shared [`Registry`] under a `node{id}.` prefix (see
//! DESIGN.md §10 for the naming scheme), so a single
//! [`Registry::snapshot`] captures the whole cluster and
//! [`NodeStats`] is just a typed view of it.
//! `quiesce()` reads the pair `offloaded`/`applied`, which is why no
//! telemetry level turns counters off.

use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::Arc;

use gravel_gq::{Band, BufferPool, Message, QueueStats};
use gravel_net::RetryConfig;
use gravel_pgas::{AggCounters, AmRegistry, Quarantine, SymmetricHeap};
use gravel_telemetry::{Counter, Histogram, Registry, Tracer};

use crate::config::GravelConfig;
use crate::rings::RingPair;
use crate::stats::NodeStats;

/// Messages each node's poison-message quarantine holds. Past it the
/// oldest entry is evicted, so a babbling peer cannot exhaust the
/// receiver's memory.
const QUARANTINE_CAPACITY: usize = 1024;

/// Shared state of one node.
pub struct NodeShared {
    /// This node's id.
    pub id: u32,
    /// Cluster size.
    pub nodes: usize,
    /// This node's slice of the symmetric heap.
    pub heap: SymmetricHeap,
    /// GPU → aggregator offload rings: one bulk ring and one express
    /// ring, both drained by the node's aggregator lane.
    pub queue: RingPair,
    /// Active-message handlers (identical on every node).
    pub ams: Arc<AmRegistry>,
    /// The cluster's metric registry (shared by every node; this node's
    /// metrics carry a `node{id}.` prefix).
    pub registry: Arc<Registry>,
    /// The cluster's span recorder (disabled unless
    /// `TelemetryConfig::CountersAndTrace`).
    pub tracer: Tracer,
    /// Messages offloaded into the queue by this node's GPU (and host).
    /// Drives quiescence.
    pub offloaded: Counter,
    /// Messages applied by this node's network thread.
    pub applied: Counter,
    /// Local operations short-circuited by the GPU (direct PUT stores).
    pub local_direct: Counter,
    /// Messages routed with a local destination (serialized atomics).
    pub local_routed: Counter,
    /// Messages routed to remote destinations.
    pub remote_routed: Counter,
    /// Aggregation counters of this node's aggregator lane.
    pub agg: AggCounters,
    /// Express-band packets this node's aggregator handed to its sender
    /// (`agg.express_packets`; also counted in `agg.packets`).
    pub agg_express_packets: Counter,
    /// Aggregator idle/busy poll counts (§8.1's 65 %-polling metric).
    pub agg_polls_empty: Counter,
    /// Aggregator polls that found work.
    pub agg_polls_hit: Counter,
    /// Sender-side delivery tuning (copied from the config so worker
    /// threads need no back-reference to it).
    pub retry: RetryConfig,
    /// Packets retransmitted by this node's sender flows: frames that
    /// actually went on the wire a second time, whatever the cause
    /// (`net.fast_retransmits + net.rto_retransmits`).
    pub net_retransmits: Counter,
    /// Retransmissions an ack triggered: its map proved the frame lost.
    pub net_fast_retransmits: Counter,
    /// Retransmissions the backstop timer triggered.
    pub net_rto_retransmits: Counter,
    /// From an ack first showing a frame missing below a later one to
    /// the cumulative ack passing it, in nanoseconds
    /// (`net.loss_recovery_ns`).
    pub net_loss_recovery: Histogram,
    /// Duplicate packets suppressed by this node's receiver.
    pub net_dups_suppressed: Counter,
    /// Packets a restarted sender retired without sending because the
    /// peer's cumulative ack already covered them (restart catch-up).
    pub net_fast_forwarded: Counter,
    /// Acks this node's network thread sent.
    pub net_acks_sent: Counter,
    /// Acks this node's aggregator lane received.
    pub net_acks_received: Counter,
    /// Sends that stalled because the bounded data channel stayed full
    /// for the whole attempt timeout.
    pub net_chan_stalls: Counter,
    /// Sends parked because the in-flight window was full.
    pub net_window_stalls: Counter,
    /// Out-of-order packets discarded because the reorder buffer was
    /// full (recovered later by retransmission).
    pub net_ooo_dropped: Counter,
    /// Packets parked in a reorder buffer because they arrived ahead of
    /// their flow's next sequence number. Zero on a reliable fabric:
    /// each band is its own flow, so an express frame overtaking bulk
    /// frames never waits for them here.
    pub net_ooo_parked: Counter,
    /// Inbound data frames whose lane carried the express bit.
    pub net_express_frames: Counter,
    /// Busy-spin iterations in the runtime's idle loops (aggregator
    /// drain waits, quiesce polls) before parking.
    pub net_spin_spins: Counter,
    /// Times an idle runtime thread actually parked (condvar or sleep)
    /// instead of burning a core.
    pub net_spin_parks: Counter,
    /// Checkpoint epoch stamped into outgoing frame headers; advanced by
    /// `cut_epoch` so misdirected cross-epoch traffic is attributable.
    pub wire_epoch: AtomicU32,
    /// Inbound frames dropped by this node's network thread for failed
    /// verification (bad magic/version/kind/length, CRC mismatch).
    /// Healed by the sender's retransmission.
    pub net_corrupt_dropped: Counter,
    /// Inbound frames dropped because they ended early (truncation).
    pub net_truncated: Counter,
    /// Frames that verified but whose header named a different
    /// destination (or an impossible source) — misrouted by the fabric.
    pub net_misrouted: Counter,
    /// Ack frames this node's aggregator lane discarded for failed
    /// verification.
    pub net_ack_corrupt_dropped: Counter,
    /// Dead-letter buffer for CRC-clean messages that failed semantic
    /// validation (owns the `net.quarantined` / `net.quarantine_evicted`
    /// counters).
    pub quarantine: Quarantine,
    /// Aggregation-open → apply latency of every packet this node's
    /// network thread applied, in nanoseconds.
    pub packet_latency: Histogram,
    /// Pending-reply table: tokens of this node's outstanding GETs and
    /// AM calls, completed by the network thread (reply interception,
    /// timeout sweep). See DESIGN.md §15.
    pub rpc: crate::rpc::PendingReplies,
    /// Request deadline copied from `cfg.rpc.timeout`.
    pub rpc_timeout: std::time::Duration,
    /// Times an express flow had packets waiting behind a full window
    /// (`rpc.credits_stalled`).
    pub rpc_credits_stalled: Counter,
    /// Replies this node's network thread generated while applying GETs
    /// and AM calls (`rpc.replies_sent`).
    pub rpc_replies_sent: Counter,
    /// Packet-buffer arena shared by this node's aggregator flushes,
    /// frame sealing, and socket receive path (owns the `pool.hits` /
    /// `pool.misses` / `pool.trimmed` / `pool.resident_bytes` metrics).
    /// See DESIGN.md §17 "Buffer pooling".
    pub pool: BufferPool,
}

/// The ring a message travels through.
fn band_of(m: &Message) -> Band {
    Band::of_command_word(m.command.encode())
}

impl NodeShared {
    /// Build node `id`'s state with a private registry derived from
    /// `cfg.telemetry` (unit tests, standalone nodes). Clusters share one
    /// registry via [`with_telemetry`](Self::with_telemetry).
    pub fn new(id: u32, cfg: &GravelConfig, ams: Arc<AmRegistry>) -> Self {
        let registry = Arc::new(Registry::new(cfg.telemetry));
        let tracer = cfg.telemetry.tracer();
        Self::with_telemetry(id, cfg, ams, registry, tracer)
    }

    /// Build node `id`'s state registering its metrics in a shared
    /// cluster `registry` and recording spans through `tracer`.
    pub fn with_telemetry(
        id: u32,
        cfg: &GravelConfig,
        ams: Arc<AmRegistry>,
        registry: Arc<Registry>,
        tracer: Tracer,
    ) -> Self {
        let p = format!("node{id}");
        let name = |suffix: &str| format!("{p}.{suffix}");
        let queue_stats = QueueStats::bound(&registry, &p);
        NodeShared {
            id,
            nodes: cfg.nodes,
            // The network thread is the heap's only read-modify-writer
            // unless the ablation lets GPU lanes `fetch_add` beside it.
            heap: if cfg.serialize_atomics {
                SymmetricHeap::new(cfg.heap_len)
            } else {
                SymmetricHeap::with_concurrent_atomics(cfg.heap_len)
            },
            queue: RingPair::with_telemetry(cfg.queue, queue_stats, tracer.clone(), id),
            pool: BufferPool::bound(&registry, &format!("{p}.")),
            ams,
            offloaded: registry.counter(&name("offloaded")),
            applied: registry.counter(&name("applied")),
            local_direct: registry.counter(&name("route.local_direct")),
            local_routed: registry.counter(&name("route.local_routed")),
            remote_routed: registry.counter(&name("route.remote_routed")),
            agg: AggCounters::bound(&registry, &p),
            agg_express_packets: registry.counter(&name("agg.express_packets")),
            agg_polls_empty: registry.counter(&name("agg.polls_empty")),
            agg_polls_hit: registry.counter(&name("agg.polls_hit")),
            retry: cfg.retry.clone(),
            net_retransmits: registry.counter(&name("net.retransmits")),
            net_fast_retransmits: registry.counter(&name("net.fast_retransmits")),
            net_rto_retransmits: registry.counter(&name("net.rto_retransmits")),
            net_loss_recovery: registry.histogram(&name("net.loss_recovery_ns")),
            net_dups_suppressed: registry.counter(&name("net.dups_suppressed")),
            net_fast_forwarded: registry.counter(&name("net.fast_forwarded")),
            net_acks_sent: registry.counter(&name("net.acks_sent")),
            net_acks_received: registry.counter(&name("net.acks_received")),
            net_chan_stalls: registry.counter(&name("net.chan_stalls")),
            net_window_stalls: registry.counter(&name("net.window_stalls")),
            net_ooo_dropped: registry.counter(&name("net.ooo_dropped")),
            net_ooo_parked: registry.counter(&name("net.ooo_parked")),
            net_express_frames: registry.counter(&name("net.express_frames")),
            net_spin_spins: registry.counter(&name("net.spin_spins")),
            net_spin_parks: registry.counter(&name("net.spin_parks")),
            wire_epoch: AtomicU32::new(0),
            net_corrupt_dropped: registry.counter(&name("net.corrupt_dropped")),
            net_truncated: registry.counter(&name("net.truncated")),
            net_misrouted: registry.counter(&name("net.misrouted")),
            net_ack_corrupt_dropped: registry.counter(&name("net.ack_corrupt_dropped")),
            quarantine: Quarantine::bound(&registry, &p, QUARANTINE_CAPACITY),
            packet_latency: registry.histogram(&name("net.packet_latency_ns")),
            rpc: crate::rpc::PendingReplies::bound(&registry, &p, cfg.rpc.reply_table_cap),
            rpc_timeout: cfg.rpc.timeout,
            rpc_credits_stalled: registry.counter(&name("rpc.credits_stalled")),
            rpc_replies_sent: registry.counter(&name("rpc.replies_sent")),
            registry,
            tracer,
        }
    }

    /// Count offloaded messages toward quiescence tracking. Called at
    /// enqueue time by the PGAS API. The release fence pairs with the
    /// acquire fence in the quiescence check so heap effects are visible
    /// once the counters balance.
    pub fn note_offloaded(&self, n: u64) {
        fence(Ordering::Release);
        self.offloaded.add(n);
    }

    /// Count applied messages (network thread).
    pub fn note_applied(&self, n: u64) {
        fence(Ordering::Release);
        self.applied.add(n);
    }

    /// Inject one message from the host CPU (control paths, tests). The
    /// message lands in the bulk ring, or in the express ring if it is
    /// a request or a reply.
    pub fn host_send(&self, msg: Message) {
        self.queue.produce_one(&msg.encode());
        self.note_offloaded(1);
    }

    /// Inject a batch of messages from the host CPU with one slot
    /// reservation per full slot (bench harnesses, bulk control paths).
    /// Messages may mix destinations and bands: bulk goes to the bulk
    /// ring, request-reply messages to the express ring, each in the
    /// order given.
    pub fn host_send_batch(&self, msgs: &[Message]) {
        let width = self.queue.config().lane_width;
        let ring = self.queue.ring(0);
        for chunk in msgs.chunks(width) {
            if chunk.iter().all(|m| band_of(m) == Band::Bulk) {
                // One ring takes the whole slot, filled straight from
                // the messages: no routing, no staged copy.
                // (EXPERIMENTS.md "Hand-offs (PR 23)" has what the
                // staging cost.)
                ring.produce_with(chunk.len(), |i| chunk[i].encode());
            } else {
                self.host_send_mixed(chunk);
            }
        }
        self.note_offloaded(msgs.len() as u64);
    }

    /// At most a slot's worth of messages of both bands: staged per
    /// band, each band's share produced in the order given.
    fn host_send_mixed(&self, msgs: &[Message]) {
        let mut staged = Band::ALL.map(|_| Vec::new());
        for m in msgs {
            staged[band_of(m).index()].extend_from_slice(&m.encode());
        }
        for (band, words) in Band::ALL.into_iter().zip(&staged) {
            if !words.is_empty() {
                let n = words.len() / gravel_gq::MSG_ROWS;
                self.queue.band(band).produce_batch(words, n);
            }
        }
    }

    /// Snapshot this node's statistics: the typed view of its
    /// `node{id}.*` metrics ([`NodeStats::from_snapshot`]).
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_snapshot(self.id, &self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_node(nodes: usize) -> NodeShared {
        let cfg = GravelConfig::small(nodes, 16);
        NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()))
    }

    #[test]
    fn host_send_counts_offloaded() {
        let node = make_node(2);
        node.host_send(Message::inc(1, 3, 1));
        assert_eq!(node.offloaded.get(), 1);
        assert_eq!(node.queue.backlog(), 1);
    }

    #[test]
    fn stats_snapshot_reflects_counters() {
        let node = make_node(2);
        node.note_offloaded(5);
        node.note_applied(3);
        let s = node.stats();
        assert_eq!(s.offloaded, 5);
        assert_eq!(s.applied, 3);
        assert_eq!(s.node, 0);
    }

    #[test]
    fn counters_land_in_registry_under_node_prefix() {
        let node = make_node(2);
        node.host_send(Message::inc(1, 0, 1));
        node.net_retransmits.add(2);
        let snap = node.registry.snapshot();
        assert_eq!(snap.counter("node0.offloaded"), 1);
        assert_eq!(snap.counter("node0.net.retransmits"), 2);
        assert_eq!(snap.counter("node0.queue.messages_produced"), 1);
    }

    #[test]
    fn hand_off_counters_are_exported_beside_the_ones_they_explain() {
        let node = make_node(2);
        let pool = &node.pool;
        // Two buffers, then a long run of takes that only ever need the
        // warm one: the cold one is trimmed.
        let both = [pool.take(100), pool.take(100)];
        for (v, t) in both {
            pool.put(v, t);
        }
        while pool.trimmed() == 0 {
            let (v, t) = pool.take(100);
            pool.put(v, t);
        }
        node.queue.stats.producer_wakes.add(3);
        let snap = node.registry.snapshot();
        assert_eq!(snap.counter("node0.queue.producer_wakes"), 3);
        assert_eq!(snap.counter("node0.pool.misses"), 2);
        assert_eq!(snap.counter("node0.pool.trimmed"), 1);
        assert_eq!(snap.gauge("node0.pool.resident_bytes"), pool.resident_bytes());
        assert_eq!(node.stats().queue.producer_wakes, 3);
        let restored = NodeStats::from_snapshot(0, &snap);
        assert_eq!(restored.queue.producer_wakes, 3);
    }

    #[test]
    fn a_mixed_batch_splits_by_class_and_keeps_each_rings_order() {
        // 64-message slots: two slots' worth that mix bands (the second
        // only at its start), then one that is all bulk and goes to the
        // ring straight from the messages.
        let node = make_node(2);
        let is_get = |i: u64| i < 70 && i.is_multiple_of(3);
        let msgs: Vec<Message> = (0..150u64)
            .map(|i| if is_get(i) { Message::get(1, i, i, 1) } else { Message::inc(1, i, 1) })
            .collect();
        node.host_send_batch(&msgs);
        assert_eq!(node.offloaded.get(), 150);
        let drain = |ring: &gravel_gq::GravelQueue| {
            let mut out = Vec::new();
            while let gravel_gq::Consumed::Batch(_) = ring.try_consume_into(&mut out) {}
            out.chunks(4).map(|w| w[2]).collect::<Vec<u64>>()
        };
        let (gets, incs): (Vec<u64>, Vec<u64>) = (0..150).partition(|&i| is_get(i));
        assert_eq!(drain(node.queue.express()), gets);
        assert_eq!(drain(node.queue.ring(0)), incs);
    }
}
