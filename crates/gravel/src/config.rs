//! Runtime configuration.
//!
//! Defaults mirror the paper's evaluated configuration (Table 3): a 1 MB
//! producer/consumer queue, 64 kB per-node queues with a 125 µs timeout,
//! one aggregator thread per node, 8 compute units, 256-work-item
//! work-groups of 64-wide wavefronts, and atomics serialized through the
//! network thread.

use std::sync::Arc;
use std::time::Duration;

use gravel_gq::QueueConfig;
use gravel_net::{ChaosPlan, RetryConfig, TransportKind};
use gravel_telemetry::TelemetryConfig;

/// Configuration of a [`GravelRuntime`](crate::GravelRuntime).
#[derive(Clone, Debug)]
pub struct GravelConfig {
    /// Number of (in-process) nodes.
    pub nodes: usize,
    /// Elements in each node's symmetric heap.
    pub heap_len: usize,
    /// Producer/consumer queue geometry per node.
    pub queue: QueueConfig,
    /// Per-destination aggregation queue size in bytes (Table 3: 64 kB).
    pub node_queue_bytes: usize,
    /// Aggregation flush timeout (Table 3: 125 µs). The fallback fixed
    /// timeout when [`adaptive_flush`](Self::adaptive_flush) is `None`.
    pub flush_timeout: Duration,
    /// Adaptive per-destination flush tuning: when `Some`, each
    /// destination's effective timeout floats within `[min, max]` driven
    /// by an EWMA of how full its queue was at recent flushes (busy
    /// destinations wait longer and ship fuller packets; sparse ones
    /// flush near `min` for latency). `None` keeps the paper's fixed
    /// [`flush_timeout`](Self::flush_timeout) everywhere.
    pub adaptive_flush: Option<gravel_pgas::AdaptiveFlush>,
    /// Compute units per node's GPU.
    pub num_cus: usize,
    /// Work-group size used by [`dispatch`](crate::GravelRuntime::dispatch)
    /// convenience launches.
    pub wg_size: usize,
    /// Wavefront width.
    pub wf_width: usize,
    /// Serialize atomic operations (increment, active messages) through
    /// the network thread even when local (§6: "some operations that can
    /// execute locally are still routed through the NI"). Setting this to
    /// `false` is the concurrent-RMW ablation.
    pub serialize_atomics: bool,
    /// Which transport carries aggregated packets between nodes.
    ///
    /// The paper's evaluation runs over reliable MPI/InfiniBand
    /// ([`TransportKind::Reliable`], the default), but Gravel's delivery
    /// protocol (per-flow sequence numbers, selective acks, ack-clocked
    /// retransmission) does not depend on that: select
    /// [`TransportKind::Unreliable`] to inject seeded drops, duplication,
    /// reordering, jitter, and link outages and the runtime still
    /// delivers every message exactly once.
    pub transport: TransportKind,
    /// Delivery-protocol tuning: in-flight window per destination flow,
    /// retransmission backoff, and the retry budget after which a flow is
    /// declared dead (surfaced as
    /// [`RuntimeError::RetryExhausted`](crate::RuntimeError::RetryExhausted)
    /// rather than hanging quiescence).
    pub retry: RetryConfig,
    /// Capacity (in packets) of each node's bounded inbound data channel.
    ///
    /// Table 3 provisions three 64 kB per-node queues in flight per
    /// destination; the channel bound plays the same role as that
    /// in-flight credit — it is what makes aggregator backpressure real
    /// instead of letting a slow receiver buffer unbounded memory. A
    /// full channel parks packets at the sender (see
    /// `NodeStats::net.backpressure_stalls`).
    pub channel_capacity: usize,
    /// Observability level (see DESIGN.md §10):
    /// [`TelemetryConfig::Counters`] (the default) keeps the sharded
    /// metric registry live, [`TelemetryConfig::CountersAndTrace`] also
    /// records spans for chrome://tracing export as well.
    pub telemetry: TelemetryConfig,
    /// Keep per-node recovery logs so
    /// [`cut_epoch`](crate::GravelRuntime::cut_epoch) /
    /// [`recover_node`](crate::GravelRuntime::recover_node) can restore
    /// a dead node exactly (DESIGN.md §11). Off by default: the log
    /// grows with traffic between epoch cuts.
    pub checkpoint: bool,
    /// Optional deterministic process-fault schedule (panic this
    /// aggregator at that drain step, that network thread at that
    /// apply step). The chaos counterpart to
    /// [`TransportKind::Unreliable`]'s link faults; `None` (the default)
    /// injects nothing.
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Request-reply traffic: pending-reply table capacity and
    /// the request timeout. See DESIGN.md §15.
    pub rpc: crate::rpc::RpcConfig,
}

impl GravelConfig {
    /// The paper's configuration for `nodes` nodes with a `heap_len`-element
    /// symmetric heap per node.
    pub fn paper(nodes: usize, heap_len: usize) -> Self {
        GravelConfig {
            nodes,
            heap_len,
            queue: QueueConfig::gravel_default(),
            node_queue_bytes: gravel_pgas::DEFAULT_QUEUE_BYTES,
            flush_timeout: gravel_pgas::DEFAULT_TIMEOUT,
            adaptive_flush: Some(gravel_pgas::AdaptiveFlush::default()),
            num_cus: 8,
            wg_size: 256,
            wf_width: 64,
            serialize_atomics: true,
            transport: TransportKind::Reliable,
            retry: RetryConfig::default(),
            channel_capacity: 1024,
            telemetry: TelemetryConfig::default(),
            checkpoint: false,
            chaos: None,
            rpc: crate::rpc::RpcConfig::default(),
        }
    }

    /// A scaled-down configuration for unit tests and examples on small
    /// hosts: small queues, quick timeout, narrow work-groups, 2 CUs.
    pub fn small(nodes: usize, heap_len: usize) -> Self {
        GravelConfig {
            nodes,
            heap_len,
            queue: QueueConfig {
                slots: 16,
                lane_width: 64,
                rows: gravel_gq::MSG_ROWS,
            },
            node_queue_bytes: 1024,
            flush_timeout: Duration::from_micros(200),
            adaptive_flush: Some(gravel_pgas::AdaptiveFlush::default()),
            num_cus: 2,
            wg_size: 64,
            wf_width: 32,
            serialize_atomics: true,
            transport: TransportKind::Reliable,
            retry: RetryConfig::default(),
            channel_capacity: 256,
            telemetry: TelemetryConfig::default(),
            checkpoint: false,
            chaos: None,
            rpc: crate::rpc::RpcConfig {
                reply_table_cap: 256,
                timeout: Duration::from_millis(500),
            },
        }
    }

    /// Validate invariants; called by the runtime constructor.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "need at least one node");
        assert!(self.heap_len > 0, "empty symmetric heap");
        assert!(
            self.wg_size <= self.queue.lane_width,
            "work-group wider than queue slots"
        );
        assert_eq!(
            self.queue.rows,
            gravel_gq::MSG_ROWS,
            "runtime messages are 4 words"
        );
        assert!(
            self.node_queue_bytes >= gravel_pgas::MIN_QUEUE_BYTES,
            "node queue below one message"
        );
        assert!(
            self.wf_width > 0 && self.wg_size.is_multiple_of(self.wf_width),
            "wg/wf mismatch"
        );
        assert!(
            self.channel_capacity > 0,
            "need at least one packet of channel credit"
        );
        if let Some(a) = &self.adaptive_flush {
            a.validate();
        }
        assert!(
            self.retry.window > 0,
            "delivery window must admit one packet"
        );
        // Every frame a flow may have on the wire has a bit in the ack
        // map, and every frame the map can report fits the receiver's
        // reorder buffer: an in-window frame is never reported held and
        // then dropped.
        assert!(
            self.retry.window <= gravel_pgas::ACK_MAP_BITS,
            "delivery window wider than the ack map ({} frames)",
            gravel_pgas::ACK_MAP_BITS
        );
        const _: () = assert!(gravel_pgas::ACK_MAP_BITS <= crate::netthread::OOO_BUFFER_CAP);
        assert!(self.retry.max_retries > 0, "need at least one retry");
        if let TransportKind::Unreliable(faults) = &self.transport {
            faults.validate(self.nodes);
        }
        assert!(
            self.rpc.reply_table_cap >= 1,
            "pending-reply table must hold at least one request"
        );
        assert!(!self.rpc.timeout.is_zero(), "rpc timeout must be nonzero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = GravelConfig::paper(8, 1024);
        assert_eq!(c.queue.capacity_bytes(), 1024 * 1024);
        assert_eq!(c.node_queue_bytes, 64 * 1024);
        assert_eq!(c.flush_timeout, Duration::from_micros(125));
        assert_eq!(c.num_cus, 8);
        assert_eq!(c.wg_size, 256);
        assert_eq!(c.wf_width, 64);
        assert!(c.serialize_atomics);
        c.validate();
    }

    #[test]
    fn small_config_is_valid() {
        GravelConfig::small(4, 64).validate();
    }

    #[test]
    #[should_panic(expected = "work-group wider")]
    fn oversized_wg_rejected() {
        let mut c = GravelConfig::small(2, 8);
        c.wg_size = 1024;
        c.validate();
    }

    #[test]
    fn unreliable_transport_validates_faults() {
        let mut c = GravelConfig::small(2, 8);
        c.transport = TransportKind::Unreliable(gravel_net::FaultConfig::drop_only(7, 0.1));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_fault_probability_rejected() {
        let mut c = GravelConfig::small(2, 8);
        c.transport = TransportKind::Unreliable(gravel_net::FaultConfig::drop_only(7, 1.5));
        c.validate();
    }
}
