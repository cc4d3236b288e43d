//! Integration tests of the telemetry subsystem against the live
//! runtime: the stats migration (typed views vs. registry snapshots),
//! span tracing through all three pipeline stages, and the ack ledger.

use std::time::Duration;

use gravel_core::{GravelConfig, GravelRuntime, NodeStats, TelemetryConfig};
use gravel_simt::LaneVec;

/// One all-to-all scatter superstep: every node's work-items increment
/// slot 0 of `lane % nodes`.
fn scatter(rt: &GravelRuntime, wgs: usize) {
    rt.dispatch_all(wgs, |ctx| {
        let n = ctx.wg.wg_size();
        let k = ctx.nodes() as u32;
        let dests = LaneVec::from_fn(n, |l| (l as u32) % k);
        let addrs = LaneVec::splat(n, 0u64);
        let vals = LaneVec::splat(n, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
    });
    rt.quiesce();
}

#[test]
fn node_stats_agree_with_registry_snapshot() {
    let rt = GravelRuntime::new(GravelConfig::small(3, 8));
    scatter(&rt, 2);
    // Quiesced: the node's own view, the cluster view and the view
    // read from a registry snapshot must be identical, per node, field
    // for field, and must match the live handles of the counters that
    // only message flow moves. Quiescence stops message flow but not
    // the background threads, whose idle-poll/park counters keep
    // ticking — so the views are read back-to-back and retried a few
    // times if an idle counter advanced in the window. A genuine
    // mapping bug diverges on every attempt and still fails.
    for id in 0..rt.nodes() {
        let node = rt.node(id);
        let (mut live_dbg, mut snap_dbg, mut rt_dbg) = (String::new(), String::new(), String::new());
        for _ in 0..64 {
            let snap = rt.telemetry_snapshot();
            let live = node.stats();
            let cluster = rt.stats().nodes[id];
            let from_snap = NodeStats::from_snapshot(id as u32, &snap);
            (live_dbg, snap_dbg, rt_dbg) =
                (format!("{live:?}"), format!("{from_snap:?}"), format!("{cluster:?}"));
            if live_dbg == snap_dbg && live_dbg == rt_dbg {
                break;
            }
        }
        assert_eq!(live_dbg, snap_dbg, "node {id}: node view and snapshot view diverge");
        assert_eq!(live_dbg, rt_dbg, "node {id}: node view and cluster view diverge");
        let s = node.stats();
        assert!(s.offloaded > 0, "node {id} did work");
        assert_eq!(s.offloaded, node.offloaded.get());
        assert_eq!(s.applied, node.applied.get());
        assert_eq!(s.agg, node.agg.snapshot());
        let q = node.queue.stats.snapshot();
        assert_eq!(
            (s.queue.messages_produced, s.queue.messages_consumed, s.queue.slots_produced),
            (q.messages_produced, q.messages_consumed, q.slots_produced)
        );
    }
    rt.shutdown().expect("clean shutdown");
}

#[test]
fn trace_export_covers_all_three_stages() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.telemetry = TelemetryConfig::CountersAndTrace;
    let rt = GravelRuntime::new(cfg);
    scatter(&rt, 2);
    let json = rt.export_chrome_trace().expect("tracing is enabled");
    // Offload (GPU→queue), aggregate (drain/flush), apply (netthread):
    // one span name from each stage must appear in the export.
    for span in ["gq.offload", "agg.", "net.apply"] {
        assert!(json.contains(span), "no {span} span in trace:\n{json}");
    }
    assert!(json.contains("\"traceEvents\""), "chrome trace envelope");
    rt.shutdown().expect("clean shutdown");
}

#[test]
fn tracing_disabled_by_default() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 8));
    scatter(&rt, 1);
    assert!(rt.export_chrome_trace().is_none(), "default config records no spans");
    rt.shutdown().expect("clean shutdown");
}

#[test]
fn packet_latency_histogram_fills() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 8));
    scatter(&rt, 2);
    let snap = rt.telemetry_snapshot();
    let mut applied_packets = 0u64;
    for id in 0..rt.nodes() {
        let h = snap
            .histogram(&format!("node{id}.net.packet_latency_ns"))
            .expect("histogram registered");
        applied_packets += h.count;
        if h.count > 0 {
            assert!(h.max > 0, "a packet cannot apply in 0 ns");
            assert!(h.quantile(0.5) <= h.max);
        }
    }
    assert!(applied_packets > 0, "some packets were applied with latency recorded");
    rt.shutdown().expect("clean shutdown");
}

/// Satellite: the ack ledger closes on a quiesced reliable run. Every
/// ack the receivers sent is either received by an aggregator lane,
/// still sitting in a lane mailbox, or was dropped on a full mailbox —
/// the counters and the transport agree exactly, which is precisely the
/// drift the shared-counter migration eliminates.
#[test]
fn ack_ledger_reconciles_on_quiesced_run() {
    let rt = GravelRuntime::new(GravelConfig::small(3, 8));
    scatter(&rt, 4);
    // Quiescence covers data packets, not the trailing acks: an ack can
    // still be between `send_ack` and the sender's counter increment.
    // Retry briefly until the ledger closes.
    let mut last = (0, 0);
    for _ in 0..200 {
        let sent: u64 = (0..rt.nodes()).map(|i| rt.node(i).net_acks_sent.get()).sum();
        let received: u64 =
            (0..rt.nodes()).map(|i| rt.node(i).net_acks_received.get()).sum();
        let mailboxed: u64 =
            (0..rt.nodes()).map(|i| rt.transport().ack_depths(i as u32) as u64).sum();
        let dropped = rt.transport().fault_stats().dropped_acks;
        last = (sent, received + mailboxed + dropped);
        if sent > 0 && last.0 == last.1 {
            rt.shutdown().expect("clean shutdown");
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("ack ledger never closed: sent={} accounted={}", last.0, last.1);
}
