//! The names the benchmark emits: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root declares the same sets; a self-test compares the two.

/// Workload names. Later issues cite them; do not rename.
pub const WORKLOADS: [&str; 7] = [
    "put_dense",
    "put_lossy",
    "gups_simt",
    "pagerank",
    "latency_idle",
    "get_under_put",
    "cluster_gups",
];

/// One declared metric.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics: every workload reports every one with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("msgs_per_s", "1/s", true, 0.25),
    e2e("cpu_ns_per_msg", "ns", false, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

/// Per-layer metrics: every workload reports every one with tracing on.
/// The `replay.*`, `gq.*_ns*`, `simt.*`, `pgas.*`, `net.*` and `core.*_ns*`
/// entries come from the stage replay; the counts come from the traced
/// workload itself; `node.*` from the `cluster_gups` reports (0 elsewhere).
pub const PER_LAYER: &[MetricSpec] = &[
    // Stage replay, layer `gq`.
    layer("gq.produce_batch_ns_per_msg", "ns", false),
    layer("gq.consume_batch_ns_per_msg", "ns", false),
    layer("gq.wg_produce_ns_per_msg", "ns", false),
    layer("gq.pool_take_put_ns", "ns", false),
    layer("gq.replysink_complete_ns", "ns", false),
    // Stage replay, layer `simt`.
    layer("simt.offload_ns_per_msg", "ns", false),
    layer("simt.atomics_per_msg", "count", false),
    layer("simt.utilization", "frac", true),
    // Stage replay, layer `pgas`.
    layer("pgas.nodeq_push_run_ns_per_msg", "ns", false),
    layer("pgas.nodeq_avg_packet_bytes", "B", true),
    layer("pgas.frame_seal_ns_per_packet", "ns", false),
    layer("pgas.frame_open_ns_per_packet", "ns", false),
    layer("pgas.frame_seal_small_ns", "ns", false),
    layer("pgas.frame_open_small_ns", "ns", false),
    layer("pgas.crc32c_gb_per_s", "GB/s", true),
    layer("pgas.apply_ns_per_msg", "ns", false),
    layer("pgas.directory_route_ns", "ns", false),
    // Stage replay, layer `net`.
    layer("net.channel_send_recv_ns_per_frame", "ns", false),
    layer("net.uds_send_recv_ns_per_frame_64k", "ns", false),
    layer("net.uds_send_recv_ns_per_frame_small", "ns", false),
    layer("net.uds_mb_per_s", "MB/s", true),
    // Stage replay, layer `core`.
    layer("core.aggregator_ns_per_msg", "ns", false),
    layer("core.netthread_ns_per_msg", "ns", false),
    layer("core.rpc_pending_register_complete_ns", "ns", false),
    // Stage replay, derived.
    layer("replay.work_ns_per_msg", "ns", false),
    layer("replay.handoff_gap_ns_per_msg", "ns", false),
    // Counts read from the traced workload.
    layer("core.agg.packets", "count", false),
    layer("core.agg.avg_packet_bytes", "B", true),
    layer("core.agg.timeout_flush_frac", "frac", false),
    layer("core.agg.polls_empty_frac", "frac", false),
    layer("gq.queue.rmws_per_msg", "count", false),
    layer("gq.queue.producer_spins_per_msg", "count", false),
    layer("gq.queue.consumer_empty_poll_frac", "frac", false),
    layer("core.net.retransmits", "count", false),
    layer("core.net.dups_suppressed", "count", false),
    layer("core.net.ooo_dropped", "count", false),
    layer("core.net.window_stalls", "count", false),
    layer("core.net.chan_stalls", "count", false),
    layer("core.net.spin_parks", "count", false),
    layer("core.net.acks_per_packet", "count", false),
    layer("core.net.deliver_p50_us", "us", false),
    layer("core.net.deliver_p99_us", "us", false),
    layer("gq.pool.hit_frac", "frac", true),
    layer("gq.pool.resident_mb", "MB", false),
    layer("core.gov.expands", "count", false),
    layer("core.gov.collapses", "count", false),
    layer("core.rpc.credits_stalled", "count", false),
    layer("core.rpc.timeouts", "count", false),
    layer("core.route.local_frac", "frac", false),
    // Counts from the cluster members' reports.
    layer("node.retransmits", "count", false),
    layer("node.acks_per_update", "count", false),
    layer("node.fwd_sent_per_update", "count", false),
    layer("node.epochs_cut", "count", false),
    layer("node.link_drops", "count", false),
    // The traced run against the untraced one, and the end-to-end figures
    // that are too unsteady (or too workload-specific) to carry a bound.
    layer("trace.overhead_frac", "frac", false),
    layer("e2e.op_tail_us", "us", false),
    layer("e2e.op_tail_pct", "%", true),
    layer("e2e.op_samples", "count", true),
    layer("e2e.put_visible_p50_us", "us", false),
    layer("e2e.put_visible_tail_us", "us", false),
    layer("e2e.put_visible_samples", "count", true),
    layer("e2e.peak_rss_mb", "MB", false),
    // The untraced half as measured, before scaling to the reference
    // host's speed, the number of segments behind each median, the scale
    // itself (1 on the quiet reference host, lower when slower) and the
    // share of CPU time the hypervisor gave to other guests.
    layer("e2e.raw_msgs_per_s", "1/s", true),
    layer("e2e.raw_cpu_ns_per_msg", "ns", false),
    layer("e2e.raw_op_p50_us", "us", false),
    layer("e2e.segments", "count", true),
    layer("host.speed", "frac", true),
    layer("host.steal_frac", "frac", false),
];
