//! Runtime statistics.
//!
//! Table 5 of the paper reports, per workload at eight nodes, the remote
//! access frequency and the average (aggregated) network message size;
//! §8.1 reports the aggregator's polling fraction. All three are derived
//! here from the per-node counters.

use gravel_gq::StatsSnapshot;
use gravel_net::FaultStats;
use gravel_pgas::AggStats;
use gravel_telemetry::RegistrySnapshot;

/// Delivery-protocol counters of one node (sender + receiver side).
///
/// On a reliable transport every field except `acks_*` stays zero; under
/// injected faults the retransmit/duplicate counters are the visible
/// evidence that the protocol actually did work (the fault-matrix tests
/// assert on exactly that).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Frames this node's sender flows put on the wire again:
    /// `fast_retransmits + rto_retransmits`.
    pub retransmits: u64,
    /// Retransmissions triggered by an ack whose map proved the frame
    /// lost — recovery in a round trip.
    pub fast_retransmits: u64,
    /// Retransmissions triggered by the backstop timer (tail loss, a
    /// silent peer, a spurious expiry on a loaded host).
    pub rto_retransmits: u64,
    /// Duplicate packets this node's receiver suppressed (injected
    /// duplicates plus retransmissions of already-applied packets).
    pub dups_suppressed: u64,
    /// Acks sent by this node's network thread.
    pub acks_sent: u64,
    /// Acks received by this node's aggregator lane.
    pub acks_received: u64,
    /// Sends that stalled because the bounded data channel stayed full
    /// for a whole attempt timeout.
    pub chan_stalls: u64,
    /// Sends parked because the in-flight window was full.
    pub window_stalls: u64,
    /// Total backpressure signal: `chan_stalls + window_stalls`. Kept as
    /// a field (not a method) so existing struct literals and reports
    /// stay source-compatible.
    pub backpressure_stalls: u64,
    /// Out-of-order packets dropped because the reorder buffer was full;
    /// recovered by retransmission.
    pub ooo_dropped: u64,
    /// Packets parked in a reorder buffer, ahead of their own flow's
    /// next sequence number (never behind another band's).
    pub ooo_parked: u64,
    /// Inbound data frames whose lane carried the express bit.
    pub express_frames: u64,
    /// Busy-spin iterations in the runtime's idle loops before parking.
    pub spin_spins: u64,
    /// Times an idle runtime thread actually parked instead of spinning.
    pub spin_parks: u64,
    /// Inbound data frames dropped for failed verification (bad magic,
    /// version, kind, length, or CRC mismatch). Healed by
    /// retransmission — corrupted ≡ lost.
    pub corrupt_dropped: u64,
    /// Inbound data frames dropped because they ended early.
    pub truncated: u64,
    /// Frames that verified but were addressed to someone else (fabric
    /// misrouting caught by the header's dest/src check).
    pub misrouted: u64,
    /// Ack frames discarded by this node's aggregators for failed
    /// verification.
    pub ack_corrupt_dropped: u64,
    /// CRC-clean messages diverted to the poison quarantine (semantic
    /// validation failures: unknown handler, out-of-range address, bad
    /// command word).
    pub quarantined: u64,
    /// Quarantined messages evicted to bound the buffer.
    pub quarantine_evicted: u64,
}

impl NetStats {
    /// All frames this node's receive path refused for integrity
    /// reasons (excludes quarantine, which is semantic, not integrity).
    pub fn total_integrity_drops(&self) -> u64 {
        self.corrupt_dropped + self.truncated + self.misrouted
    }
}

/// Request-reply counters of one node (the rpc ledger: see DESIGN.md
/// §15). The invariant the chaos acceptance reconciles is
/// `issued == completed + timeouts + restarted` after every sink
/// resolves, with the pending-reply table empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcStats {
    /// GETs + value-returning AM calls this node issued.
    pub issued: u64,
    /// Requests completed with a reply value.
    pub completed: u64,
    /// Requests evicted as timed out (surfaced to the caller as a
    /// deterministic completion error).
    pub timeouts: u64,
    /// Requests failed because their node restarted (`recover_node`)
    /// before the reply arrived.
    pub restarted: u64,
    /// Replies rejected by the post-restart generation guard.
    pub stale_rejected: u64,
    /// Replies whose token named no pending entry.
    pub orphan_replies: u64,
    /// Registrations refused because the pending-reply table was full.
    pub table_full: u64,
    /// Times an express flow had packets waiting behind a full window.
    pub credits_stalled: u64,
    /// Replies this node generated serving GETs and AM calls.
    pub replies_sent: u64,
    /// Median issue→completion time of this node's requests, in
    /// nanoseconds (`rpc.rtt_ns`; timed-out requests included).
    pub rtt_p50_ns: u64,
    /// 99th percentile of the same.
    pub rtt_p99_ns: u64,
}

/// Statistics of one node at shutdown (or snapshot time).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Node id.
    pub node: u32,
    /// Messages the GPU/host offloaded into the producer/consumer queue.
    pub offloaded: u64,
    /// Messages this node's network thread applied.
    pub applied: u64,
    /// Local PUTs executed directly by the GPU (never routed).
    pub local_direct: u64,
    /// Routed messages whose destination was this node (serialized
    /// atomics on local data).
    pub local_routed: u64,
    /// Routed messages destined for other nodes.
    pub remote_routed: u64,
    /// Aggregator per-destination queue statistics.
    pub agg: AggStats,
    /// Producer/consumer queue statistics.
    pub queue: StatsSnapshot,
    /// Express-band packets among `agg.packets`.
    pub agg_express_packets: u64,
    /// Aggregator polls that found the queue empty.
    pub agg_polls_empty: u64,
    /// Aggregator polls that found work.
    pub agg_polls_hit: u64,
    /// Delivery-protocol counters.
    pub net: NetStats,
    /// Request-reply counters.
    pub rpc: RpcStats,
}

impl NodeStats {
    /// Node `node`'s statistics from a telemetry [`RegistrySnapshot`],
    /// reading the `node{N}.*` metric names that
    /// [`NodeShared::with_telemetry`](crate::node::NodeShared::with_telemetry)
    /// registers. The one mapping from metric names to fields:
    /// `NodeShared::stats()` and `GravelRuntime::stats()` both read
    /// through it.
    pub fn from_snapshot(node: u32, snap: &RegistrySnapshot) -> Self {
        let c = |suffix: &str| snap.counter(&format!("node{node}.{suffix}"));
        let chan_stalls = c("net.chan_stalls");
        let window_stalls = c("net.window_stalls");
        let rtt = snap.histogram(&format!("node{node}.rpc.rtt_ns"));
        NodeStats {
            node,
            offloaded: c("offloaded"),
            applied: c("applied"),
            local_direct: c("route.local_direct"),
            local_routed: c("route.local_routed"),
            remote_routed: c("route.remote_routed"),
            agg: AggStats {
                packets: c("agg.packets"),
                bytes: c("agg.bytes"),
                messages: c("agg.messages"),
                full_flushes: c("agg.full_flushes"),
                timeout_flushes: c("agg.timeout_flushes"),
            },
            queue: StatsSnapshot {
                producer_rmws: c("queue.producer_rmws"),
                producer_spins: c("queue.producer_spins"),
                producer_wakes: c("queue.producer_wakes"),
                consumer_rmws: c("queue.consumer_rmws"),
                consumer_empty_polls: c("queue.consumer_empty_polls"),
                consumer_hits: c("queue.consumer_hits"),
                messages_produced: c("queue.messages_produced"),
                messages_consumed: c("queue.messages_consumed"),
                slots_produced: c("queue.slots_produced"),
            },
            agg_express_packets: c("agg.express_packets"),
            agg_polls_empty: c("agg.polls_empty"),
            agg_polls_hit: c("agg.polls_hit"),
            net: NetStats {
                retransmits: c("net.retransmits"),
                fast_retransmits: c("net.fast_retransmits"),
                rto_retransmits: c("net.rto_retransmits"),
                dups_suppressed: c("net.dups_suppressed"),
                acks_sent: c("net.acks_sent"),
                acks_received: c("net.acks_received"),
                chan_stalls,
                window_stalls,
                backpressure_stalls: chan_stalls + window_stalls,
                ooo_dropped: c("net.ooo_dropped"),
                ooo_parked: c("net.ooo_parked"),
                express_frames: c("net.express_frames"),
                spin_spins: c("net.spin_spins"),
                spin_parks: c("net.spin_parks"),
                corrupt_dropped: c("net.corrupt_dropped"),
                truncated: c("net.truncated"),
                misrouted: c("net.misrouted"),
                ack_corrupt_dropped: c("net.ack_corrupt_dropped"),
                quarantined: c("net.quarantined"),
                quarantine_evicted: c("net.quarantine_evicted"),
            },
            rpc: RpcStats {
                issued: c("rpc.issued"),
                completed: c("rpc.completed"),
                timeouts: c("rpc.timeouts"),
                restarted: c("rpc.restarted"),
                stale_rejected: c("rpc.stale_rejected"),
                orphan_replies: c("rpc.orphan_replies"),
                table_full: c("rpc.table_full"),
                credits_stalled: c("rpc.credits_stalled"),
                replies_sent: c("rpc.replies_sent"),
                rtt_p50_ns: rtt.map_or(0, |h| h.p50()),
                rtt_p99_ns: rtt.map_or(0, |h| h.p99()),
            },
        }
    }

    /// Fraction of PGAS operations that touched a remote node —
    /// Table 5's "remote access frequency".
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_direct + self.local_routed + self.remote_routed;
        if total == 0 {
            return 0.0;
        }
        self.remote_routed as f64 / total as f64
    }

    /// Fraction of aggregator polls that found nothing — §8.1's
    /// "time spent polling" proxy.
    pub fn poll_fraction(&self) -> f64 {
        let total = self.agg_polls_empty + self.agg_polls_hit;
        if total == 0 {
            return 0.0;
        }
        self.agg_polls_empty as f64 / total as f64
    }
}

/// Fault-tolerance counters of the whole cluster (see DESIGN.md §11).
/// All zero on an undisturbed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HaStats {
    /// Worker threads restarted by the supervisor after a panic.
    pub restarts: u64,
    /// Nodes restored from an epoch checkpoint.
    pub recoveries: u64,
    /// Epoch cuts taken.
    pub epochs: u64,
    /// Stuck-pipeline warnings emitted by a spinning `quiesce()`.
    pub quiesce_warnings: u64,
}

impl HaStats {
    /// Read the `ha.*` counters out of a telemetry snapshot.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        HaStats {
            restarts: snap.counter("ha.restarts"),
            recoveries: snap.counter("ha.recoveries"),
            epochs: snap.counter("ha.epochs"),
            quiesce_warnings: snap.counter("ha.quiesce_warnings"),
        }
    }
}

/// Whole-cluster statistics.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// One entry per node.
    pub nodes: Vec<NodeStats>,
    /// Faults the transport injected (all zero on a reliable transport).
    pub faults: FaultStats,
    /// Fault-tolerance activity (restarts, recoveries, epoch cuts).
    pub ha: HaStats,
}

impl RuntimeStats {
    /// Cluster-wide remote access frequency.
    pub fn remote_fraction(&self) -> f64 {
        let (remote, total) = self.nodes.iter().fold((0u64, 0u64), |(r, t), n| {
            (
                r + n.remote_routed,
                t + n.local_direct + n.local_routed + n.remote_routed,
            )
        });
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }

    /// Cluster-wide average network packet size in bytes (Table 5).
    pub fn avg_packet_bytes(&self) -> f64 {
        let (bytes, packets) = self.nodes.iter().fold((0u64, 0u64), |(b, p), n| {
            (b + n.agg.bytes, p + n.agg.packets)
        });
        if packets == 0 {
            0.0
        } else {
            bytes as f64 / packets as f64
        }
    }

    /// Total messages offloaded across the cluster.
    pub fn total_offloaded(&self) -> u64 {
        self.nodes.iter().map(|n| n.offloaded).sum()
    }

    /// Total messages applied across the cluster.
    pub fn total_applied(&self) -> u64 {
        self.nodes.iter().map(|n| n.applied).sum()
    }

    /// Total packets retransmitted across the cluster.
    pub fn total_retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.retransmits).sum()
    }

    /// Total duplicate packets suppressed across the cluster.
    pub fn total_dups_suppressed(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.dups_suppressed).sum()
    }

    /// Total backpressure stalls across the cluster.
    pub fn total_backpressure_stalls(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.backpressure_stalls).sum()
    }

    /// Total data frames refused for integrity reasons across the
    /// cluster (corrupt + truncated + misrouted).
    pub fn total_integrity_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.total_integrity_drops()).sum()
    }

    /// Total frames dropped for CRC/structure failures.
    pub fn total_corrupt_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.corrupt_dropped).sum()
    }

    /// Total messages quarantined across the cluster.
    pub fn total_quarantined(&self) -> u64 {
        self.nodes.iter().map(|n| n.net.quarantined).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_fraction_single_node() {
        let n = NodeStats {
            local_direct: 10,
            local_routed: 10,
            remote_routed: 60,
            ..Default::default()
        };
        assert!((n.remote_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(NodeStats::default().remote_fraction(), 0.0);
    }

    #[test]
    fn cluster_aggregation() {
        let mut s = RuntimeStats::default();
        s.nodes.push(NodeStats {
            remote_routed: 7,
            local_direct: 1,
            offloaded: 8,
            ..Default::default()
        });
        s.nodes.push(NodeStats {
            remote_routed: 0,
            local_routed: 2,
            applied: 5,
            ..Default::default()
        });
        assert!((s.remote_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(s.total_offloaded(), 8);
        assert_eq!(s.total_applied(), 5);
    }

    #[test]
    fn poll_fraction() {
        let n = NodeStats {
            agg_polls_empty: 65,
            agg_polls_hit: 35,
            ..Default::default()
        };
        assert!((n.poll_fraction() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn avg_packet_bytes_handles_empty() {
        assert_eq!(RuntimeStats::default().avg_packet_bytes(), 0.0);
    }

    #[test]
    fn net_counters_aggregate() {
        let mut s = RuntimeStats::default();
        s.nodes.push(NodeStats {
            net: NetStats {
                retransmits: 3,
                dups_suppressed: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        s.nodes.push(NodeStats {
            net: NetStats {
                retransmits: 2,
                backpressure_stalls: 9,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(s.total_retransmits(), 5);
        assert_eq!(s.total_dups_suppressed(), 1);
        assert_eq!(s.total_backpressure_stalls(), 9);
        assert!(s.faults.is_clean());
    }
}
