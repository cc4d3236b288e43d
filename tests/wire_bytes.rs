//! Wire bytes per message on the paper's configuration.
//!
//! A packet's payload is runs of records (DESIGN.md §13): an INC costs
//! its 16-byte `(addr, value)` record, and a packet one 8-byte run
//! header. These tests drive a bulk INC stream and a live GUPS round
//! through `GravelRuntime` on `GravelConfig::paper(2, ..)` and read the
//! aggregation counters: about 16 bytes a message, and a packet flushed
//! full carries a 64 kB queue's 4 095 INCs.

use gravel_apps::gups::{self, GupsInput};
use gravel_core::{GravelConfig, GravelRuntime, NodeStats};
use gravel_gq::Message;

const TABLE: usize = 1 << 13;

/// Every message an INC, every packet one INC run: the payload is one
/// header per packet and one 16-byte record per message. At most 17
/// bytes a message on average, and the packets flushed because they
/// filled carry at least 4 000 messages each. (A packet flushed by its
/// timeout carries at least one; the bound charges those the fewest.)
///
/// An optimized build fills packets. A debug build's producers are
/// slower than the flush timeout, so there its packets leave on the
/// timeout, short of full; CI runs this file in `--release` as well.
fn assert_inc_runs_fill_packets(stats: &NodeStats) {
    let agg = stats.agg;
    assert!(agg.messages > 0);
    assert_eq!(agg.bytes, 8 * agg.packets + 16 * agg.messages, "node {}: {agg:?}", stats.node);
    assert!(agg.bytes as f64 / agg.messages as f64 <= 17.0, "node {}: {agg:?}", stats.node);
    if !cfg!(debug_assertions) {
        assert!(agg.full_flushes > 0, "node {}: no packet filled: {agg:?}", stats.node);
    }
    assert!(
        agg.messages >= 4000 * agg.full_flushes + agg.timeout_flushes,
        "node {}: full packets carry fewer than 4000 messages: {agg:?}",
        stats.node
    );
}

/// `put_dense`'s shape: each node replays a seeded stream of INCs by one
/// at uniform addresses of the two-node table through
/// `host_send_batch`, then the cluster quiesces.
#[test]
fn a_dense_inc_stream_costs_16_bytes_a_message_on_the_wire() {
    const PER_NODE: u64 = 100_000;
    let rt = GravelRuntime::new(GravelConfig::paper(2, TABLE / 2));
    let mut expect = vec![0u64; TABLE];
    for node in 0..2u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15 ^ node;
        let stream: Vec<Message> = (0..PER_NODE)
            .map(|_| {
                // xorshift64: seeded, spread over the table.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let g = (x >> 16) as usize % TABLE;
                expect[g] += 1;
                Message::inc((g % 2) as u32, (g / 2) as u64, 1)
            })
            .collect();
        for slice in stream.chunks(4096) {
            rt.node(node as usize).host_send_batch(slice);
        }
    }
    rt.quiesce();
    for (g, want) in expect.iter().enumerate() {
        assert_eq!(rt.heap(g % 2).load((g / 2) as u64), *want, "table word {g}");
    }
    let stats = rt.stats();
    for node in &stats.nodes {
        assert_inc_runs_fill_packets(node);
    }
    rt.shutdown().expect("clean shutdown");
}

/// One round of the paper's GUPS kernel: work-items offload through
/// `shmem_inc`, and the lanes pack the same 16-byte records.
#[test]
fn a_live_gups_round_costs_16_bytes_a_message_on_the_wire() {
    let rt = GravelRuntime::new(GravelConfig::paper(2, TABLE / 2));
    let input = GupsInput { updates: 1 << 18, table_len: TABLE, seed: 11 };
    gups::run_live(&rt, &input);
    assert!(gups::verify_live(&rt, &input));
    let stats = rt.stats();
    for node in &stats.nodes {
        assert_inc_runs_fill_packets(node);
    }
    rt.shutdown().expect("clean shutdown");
}
