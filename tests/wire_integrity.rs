//! Wire-integrity acceptance tests (DESIGN.md §13): seeded *byte-level*
//! fabric corruption — bit flips, truncation, wholesale garbage, and
//! misrouted routing stamps — against full application runs. The
//! headline properties are the issue's acceptance criteria:
//!
//! - GUPS and PageRank complete **bit-exact** under combined corruption,
//!   loss, reordering, and a seeded aggregator kill, because a frame
//!   that fails verification is dropped and retransmission
//!   heals it exactly as if it had been lost.
//! - Every injected fault is **accounted for**: the injector's counters
//!   reconcile against the receivers' integrity-drop counters.
//! - Well-formed traffic quarantines **nothing**.

use std::sync::Arc;

use gravel_apps::graph::{gen, reference};
use gravel_apps::{gups, pagerank};
use gravel_core::{
    ChaosPlan, FaultConfig, GravelConfig, GravelRuntime, ProcessFault, TransportKind,
};

fn gups_input() -> gups::GupsInput {
    gups::GupsInput {
        updates: 6_000,
        table_len: 512,
        seed: 11,
    }
}

/// Fault-free GUPS baseline: the full per-node heap contents.
fn baseline_heaps(input: &gups::GupsInput, nodes: usize) -> Vec<Vec<u64>> {
    let rt = GravelRuntime::new(GravelConfig::small(nodes, input.table_len));
    gups::run_live(&rt, input);
    let heaps = (0..nodes).map(|i| rt.heap(i).snapshot()).collect();
    rt.shutdown().expect("fault-free run is clean");
    heaps
}

/// The acceptance fault mix: the full corruption family plus loss and
/// reordering underneath it.
fn corrupt_mixed(seed: u64) -> FaultConfig {
    FaultConfig {
        drop: 0.05,
        reorder: 0.05,
        ..FaultConfig::corrupting(seed, 0.02)
    }
}

#[test]
fn gups_is_bit_exact_under_corruption_drops_and_reordering() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 3);
    let mut cfg = GravelConfig::small(3, input.table_len);
    cfg.transport = TransportKind::Unreliable(corrupt_mixed(4_242));
    let rt = GravelRuntime::new(cfg);
    let issued = gups::run_live(&rt, &input);
    assert_eq!(issued, input.updates as u64);
    assert!(gups::verify_live(&rt, &input), "histogram wrong");
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(&rt.heap(i).snapshot(), expect, "heap {i} not bit-exact");
    }
    let stats = rt.shutdown().expect("clean shutdown under corruption");
    assert!(
        stats.faults.total_corruptions() > 0,
        "corruption mix never fired"
    );
    // Every corrupted frame was refused at a receiver and healed by
    // retransmission — never decoded, never quarantined.
    assert!(stats.total_integrity_drops() > 0);
    assert_eq!(stats.total_quarantined(), 0);
    assert_eq!(stats.total_offloaded(), stats.total_applied());
}

#[test]
fn gups_survives_corruption_plus_aggregator_kill_bit_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);
    // Derive the kill from a seed, like the chaos tests do; the horizon
    // keeps it well inside the run.
    let (seed, plan) = (0u64..)
        .map(|seed| (seed, ChaosPlan::seeded(seed, 2, 1, 64)))
        .find(|(_, p)| matches!(p.faults()[0], ProcessFault::PanicAggregator { .. }))
        .unwrap();
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.chaos = Some(Arc::new(plan));
    cfg.transport = TransportKind::Unreliable(corrupt_mixed(77));
    let rt = GravelRuntime::new(cfg);
    gups::run_live(&rt, &input);
    assert!(gups::verify_live(&rt, &input), "seed {seed}: histogram wrong");
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(
            &rt.heap(i).snapshot(),
            expect,
            "seed {seed}: heap {i} not bit-exact"
        );
    }
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1, "seed {seed}");
    assert!(stats.faults.total_corruptions() > 0);
    assert_eq!(stats.total_quarantined(), 0);
    assert_eq!(stats.total_offloaded(), stats.total_applied());
}

#[test]
fn pagerank_is_bit_exact_under_corruption() {
    let g = gen::cage15_like(96, 5);
    let damping = pagerank::default_damping();
    let mut cfg = GravelConfig::small(3, 64);
    // The graph is small: force tiny frames and a hot corruption rate
    // so the mix reliably fires inside the short run.
    cfg.node_queue_bytes = 64;
    cfg.transport = TransportKind::Unreliable(FaultConfig {
        drop: 0.02,
        ..FaultConfig::corrupting(99, 0.10)
    });
    let rt = GravelRuntime::new(cfg);
    let live = pagerank::run_live(&rt, &g, 3, damping);
    assert_eq!(live, reference::pagerank(&g, 3, damping));
    let stats = rt.shutdown().expect("clean shutdown under corruption");
    assert!(stats.faults.total_corruptions() > 0);
    assert_eq!(stats.total_quarantined(), 0);
}

/// Satellite (f): strict ledger reconciliation. Data-plane mangle
/// counters increment only when the inner fabric accepts the mangled
/// frame, so every one of them must reappear in exactly one receiver
/// counter: flips/garbage as `corrupt_dropped` or `truncated` (a flip
/// in the length field classifies as truncation — the sum is what is
/// conserved), truncations likewise, misroutes as `misrouted`. Ack
/// corruption is counted at injection on the best-effort ack plane, so
/// receivers reconcile `<=` there.
#[test]
fn injected_corruption_reconciles_with_receiver_counters() {
    let input = gups::GupsInput {
        updates: 20_000,
        table_len: 256,
        seed: 3,
    };
    let mut cfg = GravelConfig::small(3, input.table_len);
    cfg.node_queue_bytes = 64; // tiny frames → many fault rolls
    cfg.transport = TransportKind::Unreliable(FaultConfig::corrupting(1_234, 0.02));
    let rt = GravelRuntime::new(cfg);
    gups::run_live(&rt, &input);
    assert!(gups::verify_live(&rt, &input));
    let stats = rt.shutdown().expect("clean shutdown");
    let f = &stats.faults;
    assert!(f.total_corruptions() > 0, "no corruption fired");
    assert!(f.misrouted_data > 0, "no misroute fired");
    let rx_refused: u64 = stats
        .nodes
        .iter()
        .map(|n| n.net.corrupt_dropped + n.net.truncated)
        .sum();
    assert_eq!(
        f.total_corruptions(),
        rx_refused,
        "every mangled frame the fabric accepted must be refused at a receiver"
    );
    let rx_misrouted: u64 = stats.nodes.iter().map(|n| n.net.misrouted).sum();
    assert_eq!(f.misrouted_data, rx_misrouted);
    let rx_ack: u64 = stats.nodes.iter().map(|n| n.net.ack_corrupt_dropped).sum();
    assert!(
        rx_ack <= f.corrupted_acks,
        "receivers cannot refuse more acks than were corrupted"
    );
    // All of the above were *integrity* failures; none may reach the
    // semantic layer.
    assert_eq!(stats.total_quarantined(), 0);
    assert_eq!(stats.total_offloaded(), stats.total_applied());
}

#[test]
fn clean_traffic_quarantines_nothing() {
    let input = gups_input();
    let rt = GravelRuntime::new(GravelConfig::small(2, input.table_len));
    gups::run_live(&rt, &input);
    assert!(gups::verify_live(&rt, &input));
    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.total_integrity_drops(), 0);
    assert_eq!(stats.total_quarantined(), 0);
    assert!(stats.faults.is_clean());
}
