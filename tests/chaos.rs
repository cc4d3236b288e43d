//! Chaos acceptance tests (DESIGN.md §11): seeded process faults against
//! full application runs. The headline property is the issue's acceptance
//! criterion — a GUPS run that loses one node's aggregator mid-run
//! completes bit-exact versus a fault-free run, with the restart and
//! recovery-latency counters visible in the telemetry snapshot.

use std::sync::Arc;

use gravel_apps::graph::{gen, reference};
use gravel_apps::{gups, pagerank, sssp};
use gravel_core::{
    ChaosPlan, Checkpoint, FaultConfig, GravelConfig, GravelRuntime, ProcessFault, TransportKind,
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
fn seeded_plan(
    nodes: usize,
    horizon: u64,
    want: impl Fn(&ProcessFault) -> bool,
) -> (u64, ChaosPlan) {
    (0u64..)
        .map(|seed| (seed, ChaosPlan::seeded(seed, nodes, 1, horizon)))
        .find(|(_, p)| want(&p.faults()[0]))
        .unwrap()
}

/// Run GUPS under `cfg`'s seeded kill plan and hold it to the fault-free
/// `baseline`: bit-exact heaps, one supervised restart per planned kill,
/// each with a recovery time, and no update lost.
fn assert_kill_absorbed(cfg: GravelConfig, input: &gups::GupsInput, baseline: &[Vec<u64>], seed: u64) {
    let kills = cfg.chaos.as_ref().expect("a chaos plan").kills_planned() as u64;
    let rt = GravelRuntime::new(cfg);
    assert_eq!(gups::run_live(&rt, input), input.updates as u64);
    assert!(gups::verify_live(&rt, input), "seed {seed}: histogram wrong");
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(&rt.heap(i).snapshot(), expect, "seed {seed}: heap {i} not bit-exact");
    }
    let snap = rt.telemetry_snapshot();
    let restarts = snap.counter("ha.restarts");
    assert_eq!(restarts, kills, "seed {seed}: one supervised restart per planned kill");
    let timed = snap.histogram("ha.recovery_ns").map_or(0, |h| h.count);
    assert_eq!(timed, restarts, "seed {seed}: a restart without a recovery time");
    let stats = rt.shutdown().expect("supervised restart must absorb the kill");
    assert_eq!(stats.ha.restarts, restarts);
    assert_eq!(stats.total_offloaded(), stats.total_applied(), "seed {seed}: lost updates");
}

#[test]
fn gups_with_seeded_aggregator_kill_is_bit_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);

    // Keep the horizon well under the ~3000 messages each aggregator
    // drains so the fault is guaranteed to fire mid-run.
    let (seed, plan) = seeded_plan(2, 64, |f| matches!(f, ProcessFault::PanicAggregator { .. }));
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.chaos = Some(Arc::new(plan));
    assert_kill_absorbed(cfg, &input, &baseline, seed);
}

/// Six seeds on four nodes, each an aggregator or network-thread kill
/// inside the first 256 steps of a random node, over small
/// per-destination queues (4 kB packets).
#[test]
fn gups_with_seeded_kills_on_four_nodes_is_bit_exact() {
    let input = gups::GupsInput { updates: 12_000, table_len: 4096, seed: 7 };
    let baseline = baseline_heaps(&input, 4);
    let mut cfg = GravelConfig::small(4, input.table_len);
    cfg.node_queue_bytes = 4096;
    for seed in 0..6 {
        cfg.chaos = Some(Arc::new(ChaosPlan::seeded(seed, 4, 1, 256)));
        assert_kill_absorbed(cfg.clone(), &input, &baseline, seed);
    }
}

/// Producers are woken once per claim, not once per released slot, so a
/// lane killed inside a claim dies owing a wake for the slots it had
/// released. Its successor finishes the claim and pays it. A ring of
/// four slots keeps the producers parked on it for the whole run, and
/// the kill lands on the first message after one, two and three
/// releases of the first full claim (and in the middle of a slot):
/// every producer must get through, and the heaps must come out as if
/// nothing had happened.
#[test]
fn a_lane_killed_mid_claim_leaves_no_producer_parked_and_the_heap_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);
    for at_step in [65, 129, 193, 100] {
        let mut cfg = GravelConfig::small(2, input.table_len);
        cfg.queue.slots = 4;
        cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::PanicAggregator {
            node: 0,
            slot: 0,
            at_step,
        }])));
        let rt = GravelRuntime::new(cfg);
        // Returns only when every work-group's `wg_produce` has.
        assert_eq!(gups::run_live(&rt, &input), input.updates as u64);
        for (i, expect) in baseline.iter().enumerate() {
            assert_eq!(&rt.heap(i).snapshot(), expect, "kill at {at_step}: heap {i} not bit-exact");
        }
        let snap = rt.telemetry_snapshot();
        assert_eq!(snap.counter("ha.restarts"), 1, "kill at {at_step}");
        assert_eq!(
            snap.counter("node0.queue.messages_consumed"),
            snap.counter("node0.queue.messages_produced"),
            "kill at {at_step}: every slot went back to the producers"
        );
        let stats = rt.shutdown().expect("restart absorbed the kill");
        assert_eq!(stats.total_offloaded(), stats.total_applied());
    }
}

#[test]
fn gups_with_seeded_netthread_kill_is_bit_exact() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 2);
    let (seed, plan) = seeded_plan(2, 64, |f| matches!(f, ProcessFault::PanicNet { .. }));
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.chaos = Some(Arc::new(plan));
    assert_kill_absorbed(cfg, &input, &baseline, seed);
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
    let app = rt.recover_node(1).expect("epoch restore");
    assert_eq!(rt.heap(1).snapshot(), before, "recovery is exact");
    assert!(gups::verify_live(&rt, &input));

    // The cut saved the run's progress too: a run resumed from it
    // knows every stream is dispatched and issues nothing twice.
    let mut resumed = gups::GupsProgress::default();
    resumed.restore(&app);
    assert_eq!(resumed, progress);
    assert_eq!(gups::run_live_checkpointed(&rt, &input, &mut resumed), 0);
    assert!(gups::verify_live(&rt, &input));

    let stats = rt.shutdown().expect("clean shutdown");
    assert_eq!(stats.ha.epochs, 2, "one cut per superstep");
    assert_eq!(stats.ha.recoveries, 1);
}

/// Exactly-once under a lossy link: GUPS increments are not idempotent,
/// so a duplicated or double-applied message shows up as a wrong count,
/// and a lost one as a shortfall. Heaps must be bit-exact against a
/// fault-free run.
#[test]
fn lane_sweep_gups_is_bit_exact_under_mixed_link_faults() {
    let input = gups_input();
    let baseline = baseline_heaps(&input, 3);
    let mut cfg = GravelConfig::small(3, input.table_len);
    cfg.transport = TransportKind::Unreliable(FaultConfig::mixed(1_001, 0.10));
    let rt = GravelRuntime::new(cfg);
    let issued = gups::run_live(&rt, &input);
    assert_eq!(issued, input.updates as u64);
    assert!(gups::verify_live(&rt, &input), "histogram wrong");
    for (i, expect) in baseline.iter().enumerate() {
        assert_eq!(&rt.heap(i).snapshot(), expect, "heap {i} not bit-exact");
    }
    let stats = rt.shutdown().expect("clean shutdown under faults");
    assert!(!stats.faults.is_clean(), "fault mix never fired");
    assert_eq!(
        stats.total_offloaded(),
        stats.total_applied(),
        "exactly-once accounting"
    );
}

/// Per-(src, dest) PUT order over a whole run: every node PUTs each
/// round's number into a cell of its own on every other node, round
/// after round with no quiesce in between, over a fault mix that drops
/// and reorders underneath. Everything one node sends one destination
/// travels one ring, one lane and one flow, so the rounds must apply
/// in the order they were issued. A second thread samples the cells
/// while the run is going: PUT is last-writer-wins, so a round
/// overtaking an earlier one shows as a cell that steps backwards, at
/// whatever point of the run it happens, and as a stale final value.
#[test]
fn lane_sweep_preserves_per_flow_put_order_under_faults() {
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    const ROUNDS: u64 = 40;
    let nodes = 3usize;
    let mut cfg = GravelConfig::small(nodes, 64);
    let wg = cfg.wg_size;
    cfg.heap_len = nodes * wg; // one private cell per (src, GPU lane)
    cfg.transport = TransportKind::Unreliable(FaultConfig::mixed(7_701, 0.10));
    let rt = GravelRuntime::new(cfg);
    // The cell (src, l) lives on node (src + l) % nodes at src * wg + l.
    let cells: Vec<(usize, u64)> = (0..nodes)
        .flat_map(|me| (0..wg).map(move |l| ((me + l) % nodes, (me * wg + l) as u64)))
        .collect();
    let done = AtomicBool::new(false);
    let samples = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut last = vec![0u64; cells.len()];
            let mut samples = 0u64;
            while !done.load(Relaxed) {
                for (seen, &(dest, addr)) in last.iter_mut().zip(&cells) {
                    let now = rt.heap(dest).load(addr);
                    assert!(
                        now >= *seen,
                        "cell {addr} on node {dest} stepped back from {seen} to {now}"
                    );
                    *seen = now;
                }
                samples += 1;
                std::thread::yield_now();
            }
            samples
        });
        for round in 1..=ROUNDS {
            for me in 0..nodes {
                rt.dispatch(me, 1, |ctx| {
                    let n = ctx.wg.wg_size();
                    let me = ctx.my_node() as u64;
                    let k = ctx.nodes() as u64;
                    let dests = LaneVec::from_fn(n, |l| ((me + l as u64) % k) as u32);
                    let addrs = LaneVec::from_fn(n, |l| me * n as u64 + l as u64);
                    let vals = LaneVec::splat(n, round);
                    ctx.shmem_put(&dests, &addrs, &vals);
                });
            }
        }
        rt.quiesce();
        done.store(true, Relaxed);
        watcher.join().expect("a cell stepped backwards")
    });
    assert!(samples > 0, "the watcher never ran");
    for &(dest, addr) in &cells {
        assert_eq!(
            rt.heap(dest).load(addr),
            ROUNDS,
            "cell {addr} on node {dest}: a stale round survived"
        );
    }
    let stats = rt.shutdown().expect("clean shutdown under faults");
    assert!(!stats.faults.is_clean(), "fault mix never fired");
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
