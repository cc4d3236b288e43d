//! Request-reply integration tests: GET round trips, value-returning
//! AM calls, deterministic timeouts, the post-restart generation guard,
//! and the chaos acceptance run (DESIGN.md §15).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_core::{ChaosPlan, GravelConfig, GravelRuntime, ProcessFault};
use gravel_gq::{Message, ReplySink, ReplyState, RpcFailure};
use gravel_net::{FaultConfig, TransportKind};
use gravel_simt::LaneVec;

/// The known heap pattern GETs are verified against, bit-exact.
fn expected(node: usize, addr: u64) -> u64 {
    0x5EED_0000_0000_0000 | ((node as u64) << 32) | addr
}

/// Store `expected` into addresses `[base, base+n)` of every node.
fn seed_heaps(rt: &GravelRuntime, base: u64, n: u64) {
    for node in 0..rt.nodes() {
        for k in 0..n {
            rt.heap(node).store(base + k, expected(node, base + k));
        }
    }
}

#[test]
fn host_get_reads_remote_heap_bit_exact() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 32));
    seed_heaps(&rt, 0, 8);
    for addr in 0..8 {
        assert_eq!(rt.host_get(0, 1, addr), Ok(expected(1, addr)));
    }
    // Loopback GETs take the same full pipeline.
    assert_eq!(rt.host_get(0, 0, 3), Ok(expected(0, 3)));
    let node = rt.node(0).clone();
    assert_eq!(node.rpc.len(), 0, "pending table leaked entries");
    assert_eq!(node.rpc.issued.get(), 9);
    assert_eq!(node.rpc.completed.get(), 9);
    assert_eq!(node.rpc.timeouts.get(), 0);
    rt.shutdown().expect("clean run");
}

#[test]
fn kernel_gets_complete_for_the_whole_work_group() {
    let rt = GravelRuntime::new(GravelConfig::small(2, 128));
    seed_heaps(&rt, 0, 64);
    rt.dispatch(0, 1, |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::splat(n, 1u32);
        let addrs = LaneVec::from_fn(n, |lane| lane as u64);
        let sink = ctx.shmem_get(&dests, &addrs);
        assert!(sink.wait_all(Duration::from_secs(10)), "GETs never completed");
        for lane in 0..n {
            assert_eq!(sink.get(lane), ReplyState::Ok(expected(1, lane as u64)));
        }
    });
    rt.quiesce();
    assert_eq!(rt.node(0).rpc.len(), 0);
    rt.shutdown().expect("clean run");
}

#[test]
fn am_call_returns_handler_value() {
    let cfg = GravelConfig::small(2, 16);
    let rt = GravelRuntime::with_handlers(cfg, |reg| {
        reg.register_returning(Box::new(|heap, arg| heap.load(0).wrapping_add(arg * 3)));
    });
    rt.heap(1).store(0, 1000);
    assert_eq!(rt.host_am_call(0, 1, 0, 14), Ok(1042));
    assert_eq!(rt.node(0).rpc.completed.get(), 1);
    rt.shutdown().expect("clean run");
}

#[test]
fn semantically_invalid_get_times_out_and_is_quarantined() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.rpc.timeout = Duration::from_millis(150);
    let rt = GravelRuntime::new(cfg);
    // Address beyond node 1's heap: the server quarantines the request
    // (never replies), so the requester gets a deterministic timeout.
    assert_eq!(rt.host_get(0, 1, 9999), Err(RpcFailure::TimedOut));
    let node0 = rt.node(0).clone();
    assert_eq!(node0.rpc.timeouts.get(), 1);
    assert_eq!(node0.rpc.len(), 0, "timed-out entry must be evicted");
    let poison = rt.drain_quarantine(1);
    assert_eq!(poison.len(), 1, "server must quarantine the bad GET");
    assert_eq!(poison[0].src, 0);
    rt.quiesce();
    rt.shutdown().expect("a poison message is not a failed run");
}

#[test]
fn generation_guard_rejects_replies_from_before_a_restart() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.checkpoint = true;
    let rt = GravelRuntime::new(cfg);
    rt.cut_epoch();
    let node = rt.node(0).clone();
    let sink = Arc::new(ReplySink::new(1));
    let token = node
        .rpc
        .register(sink.clone(), 0, std::time::Instant::now() + Duration::from_secs(60))
        .expect("empty table accepts");
    rt.recover_node(0).expect("recovery succeeds");
    // The waiter was failed, not left hanging.
    assert_eq!(sink.get(0), ReplyState::Failed(RpcFailure::Restarted));
    assert_eq!(node.rpc.len(), 0);
    // A reply carrying the pre-restart token is rejected, not matched.
    assert!(!node.rpc.complete(token, 7));
    assert_eq!(node.rpc.stale_rejected.get(), 1);
    // Post-restart requests work normally under the new generation.
    rt.heap(1).store(2, 77);
    assert_eq!(rt.host_get(0, 1, 2), Ok(77));
    // Both requests are in the ledger: one completed, one failed by
    // the restart.
    let rpc = rt.stats().nodes[0].rpc;
    assert_eq!((rpc.issued, rpc.completed, rpc.timeouts, rpc.restarted), (2, 1, 0, 1));
    assert_eq!(rpc.issued, rpc.completed + rpc.timeouts + rpc.restarted, "rpc ledger");
    rt.shutdown().expect("clean run after recovery");
}

/// A lane thread and inline express passes race on node 0's express
/// ring — the producer runs the pass after two of every three calls,
/// and the lane thread picks up whatever it finds — and still one
/// producer's AM_CALLs reach the server's handler in the order they
/// were published.
#[test]
fn inline_express_passes_never_reorder_one_producers_am_calls() {
    const CALLS: usize = 1_500;
    let seen = Arc::new(Mutex::new(Vec::with_capacity(CALLS)));
    let mut cfg = GravelConfig::small(2, 8);
    cfg.rpc.reply_table_cap = CALLS;
    let rt = GravelRuntime::with_handlers(cfg, |reg| {
        let seen = seen.clone();
        reg.register_returning(Box::new(move |_heap, arg| {
            seen.lock().unwrap().push(arg);
            arg * 2
        }));
    });
    let node = rt.node(0);
    let sink = Arc::new(ReplySink::new(CALLS));
    let deadline = Instant::now() + Duration::from_secs(60);
    for i in 0..CALLS {
        let token = node.rpc.register(sink.clone(), i, deadline).expect("the table has room");
        node.host_send(Message::am_call(1, 0, i as u64, token, u16::MAX));
        if i % 3 != 0 {
            rt.lane(0).try_express_pass();
        }
    }
    assert!(sink.wait_all(Duration::from_secs(60)), "calls never completed");
    for i in 0..CALLS {
        assert_eq!(sink.get(i), ReplyState::Ok(2 * i as u64), "call {i}");
    }
    assert_eq!(*seen.lock().unwrap(), (0..CALLS as u64).collect::<Vec<_>>());
    rt.shutdown().expect("clean run");
}

/// Run a mixed PUT+GET workload and return each GET's outcome along
/// with its expected value.
fn mixed_workload(rt: &GravelRuntime, gets_per_node: usize) -> Vec<(u64, Result<u64, RpcFailure>)> {
    let nodes = rt.nodes();
    std::thread::scope(|s| {
        let getters: Vec<_> = (0..nodes)
            .map(|src| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(gets_per_node);
                    for i in 0..gets_per_node {
                        let dest = ((src + 1 + i) % nodes) as u32;
                        let addr = 16 + (i % 8) as u64;
                        out.push((
                            expected(dest as usize, addr),
                            rt.host_get(src, dest, addr),
                        ));
                    }
                    out
                })
            })
            .collect();
        // Bulk PUT storm racing the GETs: every node increments word 0
        // of its right neighbour.
        for src in 0..nodes {
            let dest = ((src + 1) % nodes) as u32;
            rt.dispatch(src, 2, move |ctx| {
                let n = ctx.wg.wg_size();
                let dests = LaneVec::splat(n, dest);
                let addrs = LaneVec::splat(n, 0u64);
                let vals = LaneVec::splat(n, 1u64);
                ctx.shmem_inc(&dests, &addrs, &vals);
            });
        }
        getters.into_iter().flat_map(|g| g.join().unwrap()).collect()
    })
}

/// GETs racing a PUT storm on a reliable fabric take the express path
/// end to end — and overtaking is invisible to the delivery protocol:
/// every band is its own flow, so no packet is ever parked in a reorder
/// buffer waiting for a packet of the other band.
#[test]
fn gets_beside_a_put_storm_overtake_without_reordering() {
    let rt = GravelRuntime::new(GravelConfig::small(3, 32));
    seed_heaps(&rt, 16, 8);
    const GETS_PER_NODE: usize = 24;
    for (want, got) in mixed_workload(&rt, GETS_PER_NODE) {
        assert_eq!(got, Ok(want));
    }
    rt.quiesce();
    for node in 0..3 {
        assert_eq!(rt.heap(node).load(0), 2 * 64, "node {node} inc total");
    }
    let stats = rt.shutdown().expect("clean run");
    for n in &stats.nodes {
        assert_eq!(n.rpc.issued, GETS_PER_NODE as u64);
        assert_eq!(n.rpc.completed, n.rpc.issued);
        // Every GET and every reply left in an express packet and
        // arrived in an express frame; the bulk INCs did not.
        assert!(n.agg_express_packets > 0 && n.agg_express_packets < n.agg.packets);
        assert!(n.net.express_frames > 0);
        assert_eq!(n.net.ooo_parked, 0, "node {}: a packet waited on another band", n.node);
        assert_eq!(n.net.dups_suppressed + n.net.retransmits, 0);
        // The node's own round-trip histogram saw every request.
        assert!(n.rpc.rtt_p50_ns > 0 && n.rpc.rtt_p50_ns <= n.rpc.rtt_p99_ns);
    }
    let sent: u64 = stats.nodes.iter().map(|n| n.agg_express_packets).sum();
    let received: u64 = stats.nodes.iter().map(|n| n.net.express_frames).sum();
    assert_eq!(sent, received, "reliable fabric: every express packet arrives once");
}

/// The §15 chaos acceptance: 4 nodes, seeded drops + duplication +
/// reordering + bit corruption on every link, plus an aggregator panic
/// and a network-thread panic mid-run. Every GET must end bit-exact or
/// as a deterministic timeout, the pending tables must be empty
/// afterwards, the rpc ledger must balance, and the racing bulk PUT
/// traffic must still be exactly-once.
#[test]
fn chaos_gets_are_bit_exact_or_deterministic_timeouts() {
    let mut cfg = GravelConfig::small(4, 32);
    cfg.transport = TransportKind::Unreliable(FaultConfig {
        drop: 0.03,
        duplicate: 0.02,
        reorder: 0.05,
        corrupt: 0.01,
        ..FaultConfig::quiet(0xC0FFEE)
    });
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![
        ProcessFault::PanicAggregator { node: 1, slot: 0, at_step: 23 },
        ProcessFault::PanicNet { node: 2, at_step: 37 },
    ])));
    cfg.rpc.timeout = Duration::from_secs(2);
    let rt = GravelRuntime::new(cfg);
    seed_heaps(&rt, 16, 8);

    const GETS_PER_NODE: usize = 16;
    let results = mixed_workload(&rt, GETS_PER_NODE);

    assert_eq!(results.len(), 4 * GETS_PER_NODE);
    let mut ok = 0u64;
    let mut timed_out = 0u64;
    for (want, got) in results {
        match got {
            Ok(v) => {
                assert_eq!(v, want, "reply delivered a wrong value");
                ok += 1;
            }
            Err(RpcFailure::TimedOut) => timed_out += 1,
            Err(other) => panic!("non-deterministic failure {other:?}"),
        }
    }
    assert_eq!(ok + timed_out, (4 * GETS_PER_NODE) as u64);
    // Under these fault rates the overwhelming majority must land.
    assert!(ok > timed_out, "only {ok} of {} GETs completed", 4 * GETS_PER_NODE);

    rt.quiesce();
    // Exactly-once bulk delivery survived the same faults: 2 WGs of
    // wg_size increments from each left neighbour.
    let per_node = 2 * 64;
    for node in 0..4 {
        assert_eq!(rt.heap(node).load(0), per_node, "node {node} inc total");
    }
    for id in 0..4 {
        let node = rt.node(id).clone();
        assert_eq!(node.rpc.len(), 0, "node {id} pending table leaked");
        assert_eq!(
            node.rpc.issued.get(),
            node.rpc.completed.get() + node.rpc.timeouts.get() + node.rpc.restarted.get(),
            "node {id} rpc ledger out of balance"
        );
    }
    rt.shutdown().expect("restarts absorb the injected panics");
}
