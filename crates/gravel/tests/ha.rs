//! Fault-tolerance integration tests: supervised restart exactness,
//! escalation, failure detection, and the quiesce stuck-pipeline
//! warning (DESIGN.md §11).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_core::{
    ChaosPlan, GravelConfig, GravelRuntime, HeartbeatConfig, PeerStatus, ProcessFault,
    RuntimeError,
};
use gravel_simt::LaneVec;
use proptest::prelude::*;

fn inc_all(rt: &GravelRuntime, src: usize, dest: u32, wgs: usize) {
    rt.dispatch(src, wgs, move |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::splat(n, dest);
        let addrs = LaneVec::splat(n, 0u64);
        let vals = LaneVec::splat(n, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A panic injected at an arbitrary aggregator drain step never
    /// loses or duplicates a message: the supervised restart resumes
    /// the lane's batch cursor and sender flows exactly.
    #[test]
    fn aggregator_panic_at_random_step_is_exactly_once(at_step in 1u64..200) {
        let mut cfg = GravelConfig::small(2, 8);
        cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::PanicAggregator {
            node: 0,
            slot: 0,
            at_step,
        }])));
        let rt = GravelRuntime::new(cfg);
        inc_all(&rt, 0, 1, 2); // 128 increments node0 → node1
        rt.quiesce();
        prop_assert_eq!(rt.heap(1).load(0), 128);
        let stats = rt.shutdown().expect("restart absorbs the panic");
        prop_assert_eq!(stats.total_offloaded(), 128);
        prop_assert_eq!(stats.total_applied(), 128);
        // at_step beyond the traffic simply never fires.
        prop_assert!(stats.ha.restarts <= 1);
    }

    /// Same property for the receiver: a panic at an arbitrary apply
    /// step resumes mid-packet via the per-flow cursor and the
    /// packet's retransmission, with every message applied exactly once.
    #[test]
    fn netthread_panic_at_random_step_is_exactly_once(at_step in 1u64..200) {
        let mut cfg = GravelConfig::small(2, 8);
        cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::PanicNet {
            node: 1,
            at_step,
        }])));
        let rt = GravelRuntime::new(cfg);
        inc_all(&rt, 0, 1, 2);
        rt.quiesce();
        prop_assert_eq!(rt.heap(1).load(0), 128);
        let stats = rt.shutdown().expect("restart absorbs the panic");
        prop_assert_eq!(stats.total_applied(), 128);
    }
}

#[test]
fn chaos_restarts_are_visible_in_telemetry() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::PanicNet {
        node: 1,
        at_step: 3,
    }])));
    let rt = GravelRuntime::new(cfg);
    inc_all(&rt, 0, 1, 1);
    rt.quiesce();
    assert_eq!(rt.heap(1).load(0), 64);
    let snap = rt.telemetry_snapshot();
    assert_eq!(snap.counter("ha.restarts"), 1);
    assert_eq!(snap.counter("node1.ha.restarts"), 1);
    let recovery = snap.histogram("ha.recovery_ns").expect("recovery latency recorded");
    assert_eq!(recovery.count, 1);
    let stats = rt.shutdown().expect("clean run after restart");
    assert_eq!(stats.ha.restarts, 1);
}

#[test]
fn simultaneous_worker_deaths_error_without_hanging() {
    // Both pipeline halves die with restarts disabled: shutdown must
    // join everything and report the first failure, not hang.
    let mut cfg = GravelConfig::small(2, 8);
    cfg.ha.supervisor.max_restarts = 0;
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![
        ProcessFault::PanicAggregator { node: 0, slot: 0, at_step: 1 },
        ProcessFault::PanicNet { node: 1, at_step: 1 },
    ])));
    // Short retry budget: with node 1's receiver dead, node 0's flows
    // can only drain by giving up.
    cfg.retry.backoff = Duration::from_millis(1);
    cfg.retry.backoff_max = Duration::from_millis(5);
    cfg.retry.max_retries = 5;
    cfg.quiesce_deadline = Some(Duration::from_secs(5));
    let rt = GravelRuntime::new(cfg);
    inc_all(&rt, 0, 1, 1);
    let start = Instant::now();
    let err = rt.shutdown().expect_err("two dead workers cannot be a clean run");
    assert!(start.elapsed() < Duration::from_secs(30), "shutdown hung");
    match err {
        RuntimeError::WorkerPanic { message, .. } => {
            assert!(message.contains("chaos:"), "{message}");
        }
        // Depending on scheduling the retry path may lose the race and
        // report first; both prove the cluster wound down.
        RuntimeError::RetryExhausted { .. } | RuntimeError::QuiesceTimeout { .. } => {}
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn restart_budget_exhaustion_escalates_worker_panic() {
    // A deterministically poisoned AM handler kills node 1's network
    // thread on every delivery: the supervisor restarts it
    // `max_restarts` times, then escalates the panic.
    let mut cfg = GravelConfig::small(2, 8);
    cfg.ha.supervisor.max_restarts = 2;
    cfg.retry.backoff = Duration::from_millis(2);
    cfg.retry.backoff_max = Duration::from_millis(10);
    let rt = GravelRuntime::with_handlers(cfg, |reg| {
        reg.register(Box::new(|_h, _a, _v| panic!("handler always explodes")));
    });
    rt.dispatch(0, 1, |ctx| {
        let n = ctx.wg.wg_size();
        let dests = LaneVec::splat(n, 1u32);
        let addrs = LaneVec::splat(n, 0u64);
        let vals = LaneVec::splat(n, 1u64);
        ctx.shmem_am(0, &dests, &addrs, &vals);
    });
    match rt.shutdown() {
        Err(RuntimeError::WorkerPanic { thread, message }) => {
            assert!(thread.starts_with("gravel-net-1"), "{thread}");
            assert!(message.contains("handler always explodes"), "{message}");
        }
        other => panic!("expected escalated WorkerPanic, got {other:?}"),
    }
}

#[test]
fn stuck_quiesce_warns_with_diagnostics_then_converges() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.quiesce_warn_interval = Duration::from_millis(15);
    cfg.quiesce_deadline = Some(Duration::from_secs(10));
    let rt = GravelRuntime::new(cfg);
    // One message counted as offloaded but applied only ~60 ms later:
    // quiesce() must spin, warn at least once, then return normally.
    rt.node(0).note_offloaded(1);
    let node = rt.node(0).clone();
    let unstick = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        node.note_applied(1);
    });
    rt.quiesce();
    unstick.join().unwrap();
    let snap = rt.telemetry_snapshot();
    assert!(snap.counter("ha.quiesce_warnings") >= 1, "no warning emitted");
    let stats = rt.shutdown().expect("converged run is clean");
    assert!(stats.ha.quiesce_warnings >= 1);
}

#[test]
fn heartbeats_keep_healthy_cluster_alive() {
    let mut cfg = GravelConfig::small(3, 8);
    cfg.ha.heartbeat = Some(HeartbeatConfig::default());
    let rt = GravelRuntime::new(cfg);
    // Let a few beat intervals elapse, with real traffic in flight.
    inc_all(&rt, 0, 1, 1);
    rt.quiesce();
    std::thread::sleep(Duration::from_millis(60));
    let now = Instant::now();
    for observer in 0..3 {
        let det = rt.detector(observer).expect("heartbeat enabled");
        for peer in 0..3u32 {
            if peer as usize != observer {
                assert_eq!(det.status(peer, now), PeerStatus::Alive, "{observer} -> {peer}");
            }
        }
    }
    let snap = rt.telemetry_snapshot();
    for id in 0..3 {
        assert!(snap.counter(&format!("node{id}.ha.beats_sent")) > 0, "node {id} never beat");
    }
    let stats = rt.shutdown().expect("clean");
    assert_eq!(stats.ha.deaths_declared, 0);
}

#[test]
fn blackholed_node_is_declared_dead_by_its_peers() {
    let mut cfg = GravelConfig::small(2, 8);
    cfg.ha.heartbeat = Some(HeartbeatConfig::default());
    // Node 0 never gets a beat out: its peer must eventually latch it
    // dead while node 0 still sees node 1 alive.
    cfg.chaos = Some(Arc::new(ChaosPlan::new(vec![ProcessFault::HeartbeatBlackhole {
        node: 0,
        from_beat: 0,
        beats: u64::MAX,
    }])));
    let rt = GravelRuntime::new(cfg);
    let observer = rt.detector(1).expect("heartbeat enabled").clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while observer.dead_peers().is_empty() {
        assert!(Instant::now() < deadline, "death never declared");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(observer.dead_peers(), vec![0]);
    let snap = rt.telemetry_snapshot();
    assert!(snap.counter("ha.deaths_declared") >= 1);
    // Suspicion gauges export milli-phi; the dead peer's must be high.
    assert!(snap.gauge("node1.ha.phi.node0") >= 8000, "phi gauge too low");
    // A blackholed heartbeat plane harms liveness *detection* only, not
    // delivery: data still flows and shutdown is clean.
    inc_all(&rt, 0, 1, 1);
    rt.quiesce();
    assert_eq!(rt.heap(1).load(0), 64);
    rt.shutdown().expect("data plane unaffected");
}
