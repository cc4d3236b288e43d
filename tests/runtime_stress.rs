//! Failure-injection and stress tests for the live runtime.

use std::time::Duration;

use gravel_core::net::LinkFault;
use gravel_core::{FaultConfig, GravelConfig, GravelRuntime, RuntimeStats, TransportKind};
use gravel_simt::LaneVec;

/// Tiny queues: the ring wraps constantly, producers hit backpressure,
/// and nothing is lost.
#[test]
fn backpressure_through_tiny_queues() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.queue = gravel_gq::QueueConfig { slots: 2, lane_width: 64, rows: 4 };
    cfg.node_queue_bytes = 64; // two messages per packet
    let rt = GravelRuntime::new(cfg);
    for _ in 0..10 {
        rt.dispatch(0, 2, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::splat(n, 1u32);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
    }
    rt.quiesce();
    assert_eq!(rt.heap(1).load(0), 10 * 2 * 64);
    rt.shutdown().expect("clean shutdown");
}

/// Shutdown with messages still in flight must drain, not drop.
#[test]
fn shutdown_drains_in_flight_messages() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 4));
    rt.dispatch(0, 4, |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::splat(n, 1u32);
        let addrs = LaneVec::splat(n, 2u64);
        let vals = LaneVec::splat(n, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
    });
    // No explicit quiesce: shutdown must do it.
    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.total_offloaded(), stats.total_applied());
    assert_eq!(stats.total_offloaded(), 4 * 64);
}

/// Many tiny supersteps, each with a quiesce barrier.
#[test]
fn many_supersteps_with_barriers() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 2));
    for step in 0..50u64 {
        rt.dispatch((step % 2) as usize, 1, |ctx| {
            let n = ctx.wg.wg_size();
            let me = ctx.my_node();
            let dests = LaneVec::splat(n, 1 - me);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        rt.quiesce();
        let total = rt.heap(0).load(0) + rt.heap(1).load(0);
        assert_eq!(total, (step + 1) * 64, "after step {step}");
    }
    rt.shutdown().expect("clean shutdown");
}

/// The `serialize_atomics = false` ablation: a node's GPU lanes
/// `fetch_add` the very words its network thread is incrementing for the
/// other node, so that thread's INC must stay a locked add (a load and a
/// store would lose updates here). Both nodes launch at once, half of
/// every work-group local and half remote, onto four weighted words, and
/// every count must come out exact. `GRAVEL_FUZZ_CASES` sets the number
/// of rounds.
#[test]
fn concurrent_rmw_ablation_is_bit_exact_against_remote_incs() {
    let rounds: u64 = std::env::var("GRAVEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 256 } else { 4096 });
    let mut cfg = GravelConfig::small(2, 4);
    cfg.serialize_atomics = false;
    let rt = GravelRuntime::new(cfg);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for node in 0..2 {
            let (rt, start) = (&rt, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..rounds {
                    rt.dispatch(node, 2, |ctx| {
                        let n = ctx.wg.wg_size();
                        let dests = LaneVec::from_fn(n, |l| (l % 2) as u32);
                        let addrs = LaneVec::from_fn(n, |l| (l / 2 % 4) as u64);
                        let vals = LaneVec::from_fn(n, |l| 1 + (l / 2 % 4) as u64 * 1000);
                        ctx.shmem_inc(&dests, &addrs, &vals);
                    });
                }
            });
        }
    });
    rt.quiesce();
    // Per round and sender: 2 work-groups × 64 lanes, half to each node,
    // a quarter of those to each word.
    let per_word = rounds * 2 * 2 * 64 / 2 / 4;
    for node in 0..2 {
        for w in 0..4u64 {
            assert_eq!(
                rt.heap(node).load(w),
                per_word * (1 + w * 1000),
                "node {node} word {w}"
            );
        }
    }
    let stats = rt.shutdown().expect("clean shutdown");
    let direct: u64 = stats.nodes.iter().map(|n| n.local_direct).sum();
    assert_eq!(
        direct,
        rounds * 2 * 2 * 64 / 2,
        "local lanes bypassed the network thread"
    );
    assert_eq!(
        stats.total_applied(),
        direct,
        "remote lanes went through it"
    );
}

/// A kernel that sends nothing leaves the cluster clean.
#[test]
fn empty_kernels_and_empty_quiesce() {
    let rt = GravelRuntime::new(GravelConfig::small(3, 4));
    rt.dispatch_all(2, |_ctx| {});
    rt.quiesce();
    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.total_offloaded(), 0);
}

/// Divergent senders: only a shifting subset of lanes sends each launch.
#[test]
fn divergent_masked_senders() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 64));
    let mut expected = 0u64;
    for round in 0..8usize {
        rt.dispatch(0, 1, |ctx| {
            let n = ctx.wg.wg_size();
            let mask = gravel_simt::Mask::from_fn(n, |l| l % (round + 2) == 0);
            ctx.masked(&mask.clone(), |ctx| {
                let dests = LaneVec::splat(n, 1u32);
                let addrs = LaneVec::splat(n, round as u64);
                let vals = LaneVec::splat(n, 1u64);
                ctx.shmem_inc(&dests, &addrs, &vals);
            });
        });
        expected += (0..64).filter(|l| l % (round + 2) == 0).count() as u64;
    }
    rt.quiesce();
    let got: u64 = (0..8).map(|r| rt.heap(1).load(r)).sum();
    assert_eq!(got, expected);
    rt.shutdown().expect("clean shutdown");
}

/// Mixed op classes interleaved: PUTs, INCs and active messages in one
/// kernel, totals exact.
#[test]
fn mixed_operation_classes() {
    let rt = GravelRuntime::with_handlers(GravelConfig::small(2, 16), |reg| {
        reg.register(gravel_pgas::relax_min_handler());
    });
    rt.heap(1).store(9, 1_000_000);
    rt.dispatch(0, 1, |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::splat(n, 1u32);
        let gids = ctx.wg.global_ids();
        // PUT a marker, INC a counter, relax a distance — all per lane.
        ctx.shmem_put(&dests, &LaneVec::splat(n, 8u64), &LaneVec::splat(n, 7u64));
        ctx.shmem_inc(&dests, &LaneVec::splat(n, 0u64), &LaneVec::splat(n, 1u64));
        let relax_vals = LaneVec::from_fn(n, |l| 500 + gids.get(l) as u64);
        ctx.shmem_am(0, &dests, &LaneVec::splat(n, 9u64), &relax_vals);
    });
    rt.quiesce();
    assert_eq!(rt.heap(1).load(8), 7);
    assert_eq!(rt.heap(1).load(0), 64);
    assert_eq!(rt.heap(1).load(9), 500); // min over 500..564
    rt.shutdown().expect("clean shutdown");
}

/// Eight in-process nodes (the paper's cluster size) all-to-all.
#[test]
fn eight_node_all_to_all() {
    let nodes = 8;
    let rt = GravelRuntime::new(GravelConfig::small(nodes, nodes));
    rt.dispatch_all(1, |ctx| {
        let n = ctx.wg.wg_size();
        let me = ctx.my_node();
        let k = ctx.nodes() as u32;
        let dests = LaneVec::from_fn(n, |l| (l as u32) % k);
        let addrs = LaneVec::splat(n, me as u64);
        let vals = LaneVec::splat(n, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
    });
    rt.quiesce();
    // Every node received 64/8 = 8 increments from each of 8 sources at
    // address = source id.
    for dest in 0..nodes {
        for src in 0..nodes {
            assert_eq!(rt.heap(dest).load(src as u64), 8, "dest {dest} src {src}");
        }
    }
    let stats = rt.shutdown().expect("clean shutdown");
    assert!((stats.remote_fraction() - 0.875).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Fault matrix: the delivery protocol (sequence numbers, selective acks,
// ack-clocked retransmission with a timer behind it) must make results
// *identical* to the reliable transport under injected drops, duplication,
// reordering, and link outages — and the protocol counters must prove
// faults actually fired.
// ---------------------------------------------------------------------------

/// Shut down and check what holds in every cell of the matrix: each
/// retransmitted frame is counted once under its cause, and no packet
/// the receiver could have reported held was ever dropped for want of
/// reorder-buffer room (the window fits the ack map, the map fits the
/// buffer).
fn shutdown_with_ledger(rt: GravelRuntime) -> RuntimeStats {
    let stats = rt.shutdown().expect("clean shutdown under faults");
    for n in &stats.nodes {
        assert_eq!(
            n.net.retransmits,
            n.net.fast_retransmits + n.net.rto_retransmits,
            "node {}: retransmit ledger",
            n.node
        );
        assert_eq!(n.net.ooo_dropped, 0, "node {}: reorder buffer overflowed", n.node);
    }
    stats
}

/// Deterministic mixer shared by kernels and their sequential references.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn small_cfg(nodes: usize, heap: usize, faults: Option<FaultConfig>) -> GravelConfig {
    let mut cfg = GravelConfig::small(nodes, heap);
    cfg.node_queue_bytes = 64; // 2 messages per packet → many fault rolls
    if let Some(f) = faults {
        cfg.transport = TransportKind::Unreliable(f);
    }
    cfg
}

/// GUPS: every node scatters increments to pseudo-random remote slots for
/// several supersteps. Returns final stats; asserts heaps match the
/// sequential reference exactly.
fn run_gups(cfg: GravelConfig, supersteps: u64) -> RuntimeStats {
    let nodes = cfg.nodes;
    let heap = cfg.heap_len as u64;
    let wg = cfg.wg_size;
    let rt = GravelRuntime::new(cfg);
    for step in 0..supersteps {
        for me in 0..nodes {
            rt.dispatch(me, 1, |ctx| {
                let n = ctx.wg.wg_size();
                let me = ctx.my_node() as u64;
                let k = ctx.nodes() as u64;
                let dests =
                    LaneVec::from_fn(n, |l| (mix(step * 7919 + me * 131 + l as u64) % k) as u32);
                let addrs =
                    LaneVec::from_fn(n, |l| mix(step * 104729 + me * 31 + l as u64) % heap);
                let vals = LaneVec::splat(n, 1u64);
                ctx.shmem_inc(&dests, &addrs, &vals);
            });
        }
        rt.quiesce();
    }
    // Sequential reference.
    let mut expect = vec![vec![0u64; heap as usize]; nodes];
    for step in 0..supersteps {
        for me in 0..nodes as u64 {
            for l in 0..wg as u64 {
                let dest = (mix(step * 7919 + me * 131 + l) % nodes as u64) as usize;
                let addr = (mix(step * 104729 + me * 31 + l) % heap) as usize;
                expect[dest][addr] += 1;
            }
        }
    }
    for (d, row) in expect.iter().enumerate() {
        for (a, &want) in row.iter().enumerate() {
            assert_eq!(rt.heap(d).load(a as u64), want, "node {d} slot {a}");
        }
    }
    shutdown_with_ledger(rt)
}

/// PageRank-style superstep: each node pushes a weighted contribution
/// along a fixed synthetic edge list (dest and value derived from the
/// lane), accumulated with increments. Exact totals checked per slot.
fn run_pagerank_push(cfg: GravelConfig, rounds: u64) -> RuntimeStats {
    let nodes = cfg.nodes;
    let heap = cfg.heap_len as u64;
    let wg = cfg.wg_size;
    let rt = GravelRuntime::new(cfg);
    for round in 0..rounds {
        for me in 0..nodes {
            rt.dispatch(me, 1, |ctx| {
                let n = ctx.wg.wg_size();
                let me = ctx.my_node() as u64;
                let k = ctx.nodes() as u64;
                // Lane l owns vertex (me, l); its single out-edge goes to
                // node (me + l) % k, slot l % heap, weight l + round + 1.
                let dests = LaneVec::from_fn(n, |l| ((me + l as u64) % k) as u32);
                let addrs = LaneVec::from_fn(n, |l| l as u64 % heap);
                let vals = LaneVec::from_fn(n, |l| l as u64 + round + 1);
                ctx.shmem_inc(&dests, &addrs, &vals);
            });
        }
        rt.quiesce();
    }
    let mut expect = vec![vec![0u64; heap as usize]; nodes];
    for round in 0..rounds {
        for me in 0..nodes as u64 {
            for l in 0..wg as u64 {
                let dest = ((me + l) % nodes as u64) as usize;
                expect[dest][(l % heap) as usize] += l + round + 1;
            }
        }
    }
    for (d, row) in expect.iter().enumerate() {
        for (a, &want) in row.iter().enumerate() {
            assert_eq!(rt.heap(d).load(a as u64), want, "node {d} slot {a}");
        }
    }
    shutdown_with_ledger(rt)
}

#[test]
fn fault_matrix_gups_reliable_baseline_has_clean_counters() {
    let stats = run_gups(small_cfg(4, 32, None), 3);
    assert!(stats.faults.is_clean());
    assert_eq!(stats.total_retransmits(), 0, "reliable transport never retransmits");
    assert_eq!(stats.total_dups_suppressed(), 0);
}

#[test]
fn fault_matrix_gups_one_percent_drop() {
    let stats = run_gups(small_cfg(4, 32, Some(FaultConfig::drop_only(11, 0.01))), 3);
    assert!(stats.faults.dropped_data > 0, "1 % of ~{} packets should drop", 4 * 3);
    assert!(stats.total_retransmits() > 0, "drops must be repaired by retransmission");
}

#[test]
fn fault_matrix_gups_ten_percent_mixed() {
    // Drop + duplicate + reorder all at once, two cluster sizes.
    for nodes in [2, 4] {
        let stats = run_gups(small_cfg(nodes, 32, Some(FaultConfig::mixed(23, 0.10))), 3);
        assert!(stats.faults.dropped_data > 0, "{nodes} nodes: no drops injected");
        assert!(stats.faults.duplicated > 0, "{nodes} nodes: no duplicates injected");
        assert!(stats.total_retransmits() > 0, "{nodes} nodes");
        assert!(
            stats.total_dups_suppressed() > 0,
            "{nodes} nodes: duplicates must be suppressed, not applied"
        );
    }
}

#[test]
fn fault_matrix_gups_reorder_only() {
    let mut f = FaultConfig::quiet(31);
    f.reorder = 0.25;
    f.jitter = Duration::from_micros(500);
    let stats = run_gups(small_cfg(3, 32, Some(f)), 3);
    assert!(stats.faults.delayed > 0, "no packets were held back");
    // Reordering alone loses nothing: any retransmissions are spurious
    // — a held-back packet taken for a lost one by the ack of a packet
    // that overtook it (or the packets a barely-held one overtook in
    // the channel), or a timer expiry on a slow host — and results
    // (asserted inside run_gups) stay exact.
}

/// Intermittent outages over the whole run, as link-fault windows: for
/// 2 s every directed link goes down for 4 ms of every 20 ms, each
/// link's windows phase-shifted so that some link is down most of the
/// time.
fn outages(seed: u64, nodes: u32) -> FaultConfig {
    let links: Vec<(u32, u32)> = (0..nodes)
        .flat_map(|src| (0..nodes).filter(move |&dest| dest != src).map(move |dest| (src, dest)))
        .collect();
    let ms = Duration::from_millis;
    let mut link_faults = Vec::new();
    for k in 0..100 {
        for (i, &(src, dest)) in links.iter().enumerate() {
            let from = ms(20 * k) + ms(20) * i as u32 / links.len() as u32;
            link_faults.push(LinkFault::OneWay { src, dest, from, until: from + ms(4) });
        }
    }
    FaultConfig { link_faults, ..FaultConfig::quiet(seed) }
}

#[test]
fn fault_matrix_gups_outage_windows() {
    let stats = run_gups(small_cfg(3, 32, Some(outages(47, 3))), 4);
    // Outage windows swallow whole packets (or acks); the retry path
    // must have carried the cluster through (exact heaps are asserted
    // inside run_gups).
    let fired = stats.faults.partition_drops + stats.faults.oneway_drops;
    assert!(fired > 0, "no window fired: {:?}", stats.faults);
    assert_eq!(stats.faults.total_losses(), stats.faults.oneway_drops);
}

#[test]
fn fault_matrix_pagerank_reliable_and_faulty_agree() {
    let clean = run_pagerank_push(small_cfg(4, 16, None), 2);
    assert!(clean.faults.is_clean());
    assert_eq!(clean.total_retransmits(), 0);
    let faulty = run_pagerank_push(small_cfg(4, 16, Some(FaultConfig::mixed(59, 0.10))), 2);
    // Same totals delivered despite the fault mix (per-slot equality is
    // asserted against the sequential reference inside the helper).
    assert_eq!(clean.total_applied(), faulty.total_applied());
    assert!(!faulty.faults.is_clean());
}

/// GETs from every node interleaved with a multi-superstep GUPS storm,
/// over `cfg`'s fabric. Asserts what must hold under any fault mix:
/// every GET ends bit-exact or as a deterministic timeout, the rpc
/// ledger balances with empty pending tables, and the bulk heap matches
/// the sequential reference exactly (inside `run_gups`' twin below).
fn run_gets_in_a_put_storm(mut cfg: GravelConfig) -> RuntimeStats {
    const GETS: usize = 12;
    const STEPS: u64 = 3;
    let nodes = cfg.nodes;
    let heap = cfg.heap_len as u64;
    let wg = cfg.wg_size as u64;
    // The GET targets live above the words the storm increments.
    let probe = |node: usize, k: u64| 0xFEED_0000 | ((node as u64) << 8) | k;
    cfg.heap_len += 4;
    cfg.rpc.timeout = Duration::from_secs(2);
    let rt = GravelRuntime::new(cfg);
    for node in 0..nodes {
        for k in 0..4 {
            rt.heap(node).store(heap + k, probe(node, k));
        }
    }
    let failures = std::thread::scope(|s| {
        let getters: Vec<_> = (0..nodes)
            .map(|src| {
                let rt = &rt;
                s.spawn(move || {
                    let mut timed_out = 0u64;
                    for i in 0..GETS {
                        let dest = (src + 1 + i) % nodes;
                        let k = (i % 4) as u64;
                        match rt.host_get(src, dest as u32, heap + k) {
                            Ok(v) => assert_eq!(v, probe(dest, k), "GET {src}->{dest} word {k}"),
                            Err(gravel_gq::RpcFailure::TimedOut) => timed_out += 1,
                            Err(other) => panic!("non-deterministic GET failure {other:?}"),
                        }
                    }
                    timed_out
                })
            })
            .collect();
        for step in 0..STEPS {
            for me in 0..nodes {
                rt.dispatch(me, 1, |ctx| {
                    let n = ctx.wg.wg_size();
                    let me = ctx.my_node() as u64;
                    let k = ctx.nodes() as u64;
                    let dests = LaneVec::from_fn(n, |l| {
                        (mix(step * 7919 + me * 131 + l as u64) % k) as u32
                    });
                    let addrs =
                        LaneVec::from_fn(n, |l| mix(step * 104729 + me * 31 + l as u64) % heap);
                    ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(n, 1u64));
                });
            }
        }
        getters.into_iter().map(|g| g.join().unwrap()).sum::<u64>()
    });
    rt.quiesce();
    let mut expect = vec![vec![0u64; heap as usize]; nodes];
    for step in 0..STEPS {
        for me in 0..nodes as u64 {
            for l in 0..wg {
                let dest = (mix(step * 7919 + me * 131 + l) % nodes as u64) as usize;
                expect[dest][(mix(step * 104729 + me * 31 + l) % heap) as usize] += 1;
            }
        }
    }
    for (d, row) in expect.iter().enumerate() {
        for (a, &want) in row.iter().enumerate() {
            assert_eq!(rt.heap(d).load(a as u64), want, "node {d} slot {a}");
        }
        assert_eq!(rt.node(d).rpc.len(), 0, "node {d} pending table leaked");
    }
    let stats = shutdown_with_ledger(rt);
    let (mut issued, mut timeouts) = (0, 0);
    for n in &stats.nodes {
        assert_eq!(
            n.rpc.issued,
            n.rpc.completed + n.rpc.timeouts + n.rpc.restarted,
            "node {} ledger",
            n.node
        );
        issued += n.rpc.issued;
        timeouts += n.rpc.timeouts;
    }
    assert_eq!(issued, (nodes * GETS) as u64);
    assert_eq!(timeouts, failures, "every timeout the table counted reached its caller");
    stats
}

/// The request-reply cell of the fault matrix: the express and bulk
/// bands are separate flows sharing one fabric, so each fault
/// kind must be healed per band without the two ever waiting on each
/// other.
#[test]
fn fault_matrix_gets_interleaved_with_a_put_storm() {
    let clean = run_gets_in_a_put_storm(small_cfg(3, 32, None));
    assert!(clean.faults.is_clean());
    assert_eq!(clean.total_retransmits(), 0);
    for n in &clean.nodes {
        assert_eq!(n.rpc.timeouts, 0);
        assert_eq!(n.net.ooo_parked, 0, "a packet waited in a reorder buffer on a clean fabric");
        assert!(n.net.express_frames > 0);
    }

    let drop = run_gets_in_a_put_storm(small_cfg(3, 32, Some(FaultConfig::drop_only(71, 0.05))));
    assert!(drop.faults.dropped_data > 0);
    assert!(drop.total_retransmits() > 0);

    let mixed = run_gets_in_a_put_storm(small_cfg(3, 32, Some(FaultConfig::mixed(73, 0.10))));
    assert!(mixed.faults.duplicated > 0 && mixed.total_dups_suppressed() > 0);

    let mut reorder = FaultConfig::quiet(79);
    reorder.reorder = 0.25;
    reorder.jitter = Duration::from_micros(500);
    let reordered = run_gets_in_a_put_storm(small_cfg(3, 32, Some(reorder)));
    assert!(reordered.faults.delayed > 0);

    let outage = run_gets_in_a_put_storm(small_cfg(3, 32, Some(outages(83, 3))));
    assert!(outage.faults.partition_drops + outage.faults.oneway_drops > 0, "no window fired");
}

/// A corrupted/misrouted message (out-of-range address) is dropped by the
/// network thread without panicking, and quiescence still completes.
#[test]
fn malformed_message_does_not_wedge_the_cluster() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 4));
    // Inject a PUT far beyond node 1's 4-element heap.
    rt.node(0).host_send(gravel_gq::Message::put(1, 9999, 7));
    // And a healthy one after it.
    rt.node(0).host_send(gravel_gq::Message::put(1, 2, 7));
    rt.quiesce();
    assert_eq!(rt.heap(1).load(2), 7);
    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.total_offloaded(), 2);
    assert_eq!(stats.total_applied(), 2); // dropped counts as disposed
}

/// A kernel bug inside an offload — here a register one lane too short,
/// read while the work-group's messages are written — fails that
/// dispatch and nothing else: no ring slot waits for the failed
/// work-group, the next kernel's messages all arrive, and quiescence
/// balances (the failed work-group's messages were never counted
/// offloaded).
#[test]
fn a_kernel_that_panics_mid_offload_leaves_the_ring_moving() {
    let heap_len = 8;
    let rt = GravelRuntime::new(GravelConfig::small(2, heap_len));
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.dispatch(0, 1, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::from_fn(n, |l| (l % 2) as u32);
            let addrs = LaneVec::from_fn(n, |l| (l % heap_len) as u64);
            ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(3, 1u64));
        });
    }));
    assert!(failed.is_err(), "the kernel's panic surfaces from dispatch");
    let wgs = 3;
    let result = rt.dispatch(0, wgs, |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::from_fn(n, |l| (l % 2) as u32);
        let addrs = LaneVec::from_fn(n, |l| (l % heap_len) as u64);
        ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(n, 1u64));
    });
    rt.quiesce_deadline(Duration::from_secs(20))
        .expect("the ring drains past the failed work-group");
    let wg_size = result.counters.messages as usize / wgs;
    let mut want = vec![vec![0u64; heap_len]; 2];
    for l in 0..wg_size {
        want[l % 2][l % heap_len] += wgs as u64;
    }
    for (node, want) in want.iter().enumerate() {
        assert_eq!(&rt.heap(node).snapshot(), want, "node {node}'s heap");
    }
    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.total_offloaded(), (wgs * wg_size) as u64);
    assert_eq!(stats.total_applied(), stats.total_offloaded());
}
