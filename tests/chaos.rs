//! Chaos acceptance tests (DESIGN.md §11): seeded process faults against
//! full application runs. The headline property is the issue's acceptance
//! criterion — a GUPS run that loses one node's aggregator mid-run
//! completes bit-exact versus a fault-free run, with the restart and
//! recovery-latency counters visible in the telemetry snapshot.

use std::sync::Arc;

use gravel_apps::graph::{gen, reference};
use gravel_apps::{gups, pagerank, sssp};
use gravel_core::{
    ChaosPlan, FaultConfig, GravelConfig, GravelRuntime, ProcessFault, TransportKind,
};
use gravel_simt::LaneVec;

fn gups_input() -> gups::GupsInput {
    gups::GupsInput {
        updates: 6_000,
        table_len: 512,
        seed: 9,
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

/// First seed whose derived single-kill plan matches `want`.
fn seeded_plan_slots(
    nodes: usize,
    slots: usize,
    horizon: u64,
    want: impl Fn(&ProcessFault) -> bool,
) -> (u64, ChaosPlan) {
    (0u64..)
        .map(|seed| (seed, ChaosPlan::seeded(seed, nodes, slots, horizon)))
        .find(|(_, p)| want(&p.faults()[0]))
        .unwrap()
}

fn seeded_plan(
    nodes: usize,
    horizon: u64,
    want: impl Fn(&ProcessFault) -> bool,
) -> (u64, ChaosPlan) {
    seeded_plan_slots(nodes, 1, horizon, want)
}

#[test]
fn gups_with_seeded_aggregator_kill_is_bit_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);

    // Derive the kill from a seed, like the sweep harness does; keep the
    // horizon well under the ~3000 messages each aggregator drains so the
    // fault is guaranteed to fire mid-run.
    let (seed, plan) = seeded_plan(2, 64, |f| matches!(f, ProcessFault::PanicAggregator { .. }));
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.chaos = Some(Arc::new(plan));
    let rt = GravelRuntime::new(cfg);
    let issued = gups::run_live(&rt, &input);
    assert_eq!(issued, input.updates as u64);

    assert!(
        gups::verify_live(&rt, &input),
        "seed {seed}: histogram wrong"
    );
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(
            &rt.heap(i).snapshot(),
            expect,
            "seed {seed}: heap {i} not bit-exact"
        );
    }

    let snap = rt.telemetry_snapshot();
    assert_eq!(
        snap.counter("ha.restarts"),
        1,
        "exactly one supervised restart"
    );
    let recovery = snap
        .histogram("ha.recovery_ns")
        .expect("recovery latency recorded");
    assert_eq!(recovery.count, 1);
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1);
    assert_eq!(stats.total_offloaded(), stats.total_applied());
}

#[test]
fn gups_with_seeded_netthread_kill_is_bit_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);

    let (seed, plan) = seeded_plan(2, 64, |f| matches!(f, ProcessFault::PanicNet { .. }));
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.chaos = Some(Arc::new(plan));
    let rt = GravelRuntime::new(cfg);
    gups::run_live(&rt, &input);

    assert!(
        gups::verify_live(&rt, &input),
        "seed {seed}: histogram wrong"
    );
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(
            &rt.heap(i).snapshot(),
            expect,
            "seed {seed}: heap {i} not bit-exact"
        );
    }
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1);
}

#[test]
fn epoch_checkpoint_recovers_a_reset_node_exactly() {
    // Checkpointed GUPS, then simulate losing node 1's memory after the
    // last epoch cut and restore it: the table must come back exactly.
    let input = gups_input();
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.ha.checkpoint = true;
    let rt = GravelRuntime::new(cfg);
    let mut progress = gups::GupsProgress::default();
    gups::run_live_checkpointed(&rt, &input, &mut progress);
    assert!(gups::verify_live(&rt, &input));

    let before = rt.heap(1).snapshot();
    rt.heap(1).reset(0); // node 1 "dies"
    assert_ne!(
        rt.heap(1).snapshot(),
        before,
        "reset visibly destroyed state"
    );
    rt.recover_node(1).expect("epoch restore");
    assert_eq!(rt.heap(1).snapshot(), before, "recovery is exact");
    assert!(gups::verify_live(&rt, &input));

    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.ha.epochs, 2, "one cut per superstep");
    assert_eq!(stats.ha.recoveries, 1);
}

// ---------------------------------------------------------------------------
// Lane sweep (DESIGN.md §12): the sharded multi-lane aggregation pipeline
// must keep the single-lane delivery guarantees — exactly-once apply and
// per-flow ordering — at every lane count, under link faults and seeded
// process kills alike. Destination-hash sharding pins each destination to
// one lane, so every (src, lane) flow keeps one sequence space.
// ---------------------------------------------------------------------------

fn lane_cfg(nodes: usize, heap: usize, lanes: usize) -> GravelConfig {
    let mut cfg = GravelConfig::small(nodes, heap);
    cfg.aggregator_threads = lanes;
    cfg
}

/// Exactly-once under a lossy link, every lane count: GUPS increments are
/// not idempotent, so a duplicated or double-applied message shows up as
/// a wrong count, and a lost one as a shortfall. Heaps must be bit-exact
/// against a fault-free single-lane run.
#[test]
fn lane_sweep_gups_is_bit_exact_under_mixed_link_faults() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 3);
    for lanes in [1usize, 2, 4] {
        let mut cfg = lane_cfg(3, input.table_len, lanes);
        cfg.transport = TransportKind::Unreliable(FaultConfig::mixed(1_000 + lanes as u64, 0.10));
        let rt = GravelRuntime::new(cfg);
        let issued = gups::run_live(&rt, &input);
        assert_eq!(issued, input.updates as u64, "lanes {lanes}");
        assert!(
            gups::verify_live(&rt, &input),
            "lanes {lanes}: histogram wrong"
        );
        for (i, expect) in baseline.iter().enumerate() {
            assert_eq!(
                &rt.heap(i).snapshot(),
                expect,
                "lanes {lanes}: heap {i} not bit-exact"
            );
        }
        let stats = rt.shutdown().expect("clean shutdown under faults");
        assert!(
            !stats.faults.is_clean(),
            "lanes {lanes}: fault mix never fired"
        );
        assert_eq!(
            stats.total_offloaded(),
            stats.total_applied(),
            "lanes {lanes}: exactly-once accounting"
        );
    }
}

/// Per-flow ordering, every lane count: each (src node, GPU lane) flow
/// puts a strictly increasing value to its own private slot each round,
/// with no quiesce between rounds and a fault mix forcing drops and
/// reordering underneath. PUT is last-writer-wins, so if the sharded
/// pipeline (or the flow engine under retransmission) ever let a later round
/// overtake an earlier one, a stale value would survive in the heap.
#[test]
fn lane_sweep_preserves_per_flow_put_order_under_faults() {
    const ROUNDS: u64 = 40;
    let nodes = 3usize;
    for lanes in [1usize, 2, 4] {
        let mut cfg = lane_cfg(nodes, 64, lanes);
        // Strict per-flow PUT ordering requires a static destination→lane
        // mask: a governor transition remaps destinations and opens a
        // bounded reorder window (DESIGN.md §17), which last-writer-wins
        // PUT streams are exactly the workload that cannot tolerate.
        cfg.lane_governor = None;
        let wg = cfg.wg_size;
        cfg.heap_len = nodes * wg; // one private slot per (src, lane) flow
        cfg.transport = TransportKind::Unreliable(FaultConfig::mixed(7_700 + lanes as u64, 0.10));
        let heap = cfg.heap_len;
        let rt = GravelRuntime::new(cfg);
        for round in 0..ROUNDS {
            for me in 0..nodes {
                rt.dispatch(me, 1, |ctx| {
                    let n = ctx.wg.wg_size();
                    let me = ctx.my_node() as u64;
                    let k = ctx.nodes() as u64;
                    // Lane l writes its flow's slot on node (me + l) % k.
                    let dests = LaneVec::from_fn(n, |l| ((me + l as u64) % k) as u32);
                    let addrs = LaneVec::from_fn(n, |l| me * n as u64 + l as u64);
                    let vals = LaneVec::from_fn(n, |l| round * 10_000 + me * 100 + l as u64);
                    ctx.shmem_put(&dests, &addrs, &vals);
                });
            }
        }
        rt.quiesce();
        // Only the final round's value may survive in any flow's slot.
        for me in 0..nodes as u64 {
            for l in 0..wg as u64 {
                let dest = ((me + l) % nodes as u64) as usize;
                let addr = me * wg as u64 + l;
                assert!((addr as usize) < heap);
                assert_eq!(
                    rt.heap(dest).load(addr),
                    (ROUNDS - 1) * 10_000 + me * 100 + l,
                    "lanes {lanes}: flow (src {me}, lane {l}) applied out of order"
                );
            }
        }
        rt.shutdown().expect("clean shutdown under faults");
    }
}

/// Seeded chaos kill with lanes > 1: a randomly chosen aggregator lane
/// panics mid-run, the supervisor restarts it, and the run still ends
/// bit-exact with exactly-once accounting.
#[test]
fn lane_sweep_survives_seeded_aggregator_kill() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);
    for lanes in [2usize, 4] {
        // With 2 nodes only shards {0 % lanes, 1 % lanes} carry traffic;
        // a kill scheduled on an idle lane would never fire, so keep
        // searching seeds until the chosen lane is one that drains.
        let (seed, plan) = seeded_plan_slots(
            2,
            lanes,
            64,
            |f| matches!(f, ProcessFault::PanicAggregator { slot, .. } if (*slot as usize) < 2),
        );
        let mut cfg = lane_cfg(2, input.table_len, lanes);
        cfg.chaos = Some(Arc::new(plan));
        let rt = GravelRuntime::new(cfg);
        gups::run_live(&rt, &input);
        assert!(
            gups::verify_live(&rt, &input),
            "lanes {lanes} seed {seed}: histogram wrong"
        );
        for (i, expect) in baseline.iter().enumerate() {
            assert_eq!(
                &rt.heap(i).snapshot(),
                expect,
                "lanes {lanes} seed {seed}: heap {i} not bit-exact"
            );
        }
        let stats = rt.shutdown().expect("restart absorbed the kill");
        assert_eq!(stats.ha.restarts, 1, "lanes {lanes} seed {seed}");
        assert_eq!(stats.total_offloaded(), stats.total_applied());
    }
}

// ---------------------------------------------------------------------------
// Governed lane sweep (DESIGN.md §17): the adaptive lane governor moves the
// destination→lane routing mask at runtime. Transitions open a bounded
// reorder window but must never duplicate or lose a message — commuting
// workloads (GUPS INC, PageRank accumulate) stay bit-exact through any
// interleaving of collapse/expand transitions and process kills. These
// tests flap the mask far harder than the real governor's hysteresis ever
// would, from a background thread, while a seeded kill fires mid-run.
// ---------------------------------------------------------------------------

/// Governed config whose automatic decider is parked far in the future,
/// so the test thread owns the mask: rings start collapsed exactly as
/// under the live governor, but every transition is test-driven.
fn flapped_cfg(nodes: usize, heap: usize, lanes: usize) -> GravelConfig {
    let mut cfg = lane_cfg(nodes, heap, lanes);
    cfg.lane_governor = Some(gravel_core::GovernorConfig {
        decide_every: std::time::Duration::from_secs(3600),
        ..Default::default()
    });
    cfg
}

/// Cycle every node's active-lane mask through collapse/expand
/// transitions until `stop` is set.
fn spawn_mask_flapper(
    rt: &GravelRuntime,
    stop: &Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    use std::sync::atomic::Ordering::Relaxed;
    let nodes: Vec<_> = (0..rt.nodes()).map(|i| rt.node(i).clone()).collect();
    let stop = stop.clone();
    std::thread::spawn(move || {
        let cycle = [2usize, 4, 1, 3];
        let mut flips = 0u64;
        while !stop.load(Relaxed) {
            for n in &nodes {
                n.queue.set_active_lanes(cycle[flips as usize % cycle.len()]);
            }
            flips += 1;
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        flips
    })
}

/// GUPS under mask flapping plus a seeded aggregator-lane kill: INC
/// commutes, so no matter how the transitions interleave with the kill
/// and restart, the heaps must end bit-exact with exactly-once
/// accounting. (A mid-split mask move once routed one GPU lane into two
/// shards — a duplicate — or into none — a loss; this is the regression
/// test that pins the snapshot-once produce split.)
#[test]
fn governed_gups_is_bit_exact_under_mask_flapping_and_aggregator_kill() {
    use std::sync::atomic::AtomicBool;
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);
    let lanes = 4usize;
    // Kill lane 0: it is never parked, so the kill always fires.
    let (seed, plan) = seeded_plan_slots(
        2,
        lanes,
        64,
        |f| matches!(f, ProcessFault::PanicAggregator { slot: 0, .. }),
    );
    let mut cfg = flapped_cfg(2, input.table_len, lanes);
    cfg.chaos = Some(Arc::new(plan));
    let rt = GravelRuntime::new(cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let flapper = spawn_mask_flapper(&rt, &stop);
    gups::run_live(&rt, &input);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let flips = flapper.join().unwrap();
    assert!(flips > 0, "mask flapper never ran");
    assert!(
        gups::verify_live(&rt, &input),
        "seed {seed}: histogram wrong under mask flapping"
    );
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(
            &rt.heap(i).snapshot(),
            expect,
            "seed {seed}: heap {i} not bit-exact under mask flapping"
        );
    }
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1, "seed {seed}");
    assert_eq!(stats.total_offloaded(), stats.total_applied());
}

/// PageRank under mask flapping plus a seeded network-thread kill: the
/// accumulate path commutes like GUPS INC, and the net-thread restart
/// exercises the receiver half (per-(src, lane) sequence expectations
/// survive while the set of live sender flows is itself shifting).
#[test]
fn governed_pagerank_is_bit_exact_under_mask_flapping_and_net_kill() {
    use std::sync::atomic::AtomicBool;
    let g = gen::cage15_like(96, 5);
    let damping = pagerank::default_damping();
    let mut cfg = flapped_cfg(3, 64, 4);
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::PanicNet {
        node: 1,
        at_step: 5,
    }])));
    let rt = GravelRuntime::new(cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let flapper = spawn_mask_flapper(&rt, &stop);
    let live = pagerank::run_live(&rt, &g, 3, damping);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let flips = flapper.join().unwrap();
    assert!(flips > 0, "mask flapper never ran");
    assert_eq!(live, reference::pagerank(&g, 3, damping));
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1);
}

#[test]
fn checkpointed_pagerank_survives_aggregator_kill() {
    // Both robustness layers at once: per-iteration epoch cuts *and* a
    // supervised restart of a killed aggregator, still bit-exact.
    let g = gen::cage15_like(96, 5);
    let damping = pagerank::default_damping();
    let mut cfg = GravelConfig::small(3, 64);
    cfg.ha.checkpoint = true;
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![
        ProcessFault::PanicAggregator {
            node: 1,
            slot: 0,
            at_step: 5,
        },
    ])));
    let rt = GravelRuntime::new(cfg);
    let mut progress = pagerank::PageRankProgress::default();
    let live = pagerank::run_live_checkpointed(&rt, &g, 3, damping, &mut progress);
    assert_eq!(live, reference::pagerank(&g, 3, damping));
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1);
    assert_eq!(stats.ha.epochs, 3);
}

#[test]
fn checkpointed_sssp_survives_aggregator_kill() {
    // SSSP's progress (distances + frontier) rides the same epoch-cut
    // machinery as GUPS/PageRank: a mid-run aggregator kill is absorbed
    // by the supervisor and the distances still match Dijkstra exactly.
    let g = gen::hugebubbles_like(144, 11);
    let mut cfg = GravelConfig::small(3, 64);
    cfg.ha.checkpoint = true;
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![
        ProcessFault::PanicAggregator {
            node: 1,
            slot: 0,
            at_step: 5,
        },
    ])));
    let mut relax_id = 0;
    let rt = GravelRuntime::with_handlers(cfg, |reg| {
        relax_id = sssp::register(reg);
    });
    let mut progress = sssp::SsspProgress::default();
    let live = sssp::run_live_checkpointed(&rt, &g, 0, relax_id, &mut progress, None);
    assert_eq!(live, reference::sssp(&g, 0));
    assert!(progress.frontier.is_empty(), "run converged");
    assert!(progress.round > 0);
    let stats = rt.shutdown().expect("restart absorbed the kill");
    assert_eq!(stats.ha.restarts, 1);
    assert_eq!(stats.ha.epochs, progress.round, "one cut per superstep");
}
