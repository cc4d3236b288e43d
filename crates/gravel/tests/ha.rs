//! Fault-tolerance integration tests: supervised restart exactness and
//! escalation, and failure detection over the socket transport
//! (DESIGN.md §11).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_core::ha::heartbeat;
use gravel_core::net::{SocketAddrSpec, SocketConfig, SocketTransport, Transport};
use gravel_core::{
    ChaosPlan, ErrorSlot, FailureDetector, GravelConfig, GravelRuntime, HeartbeatConfig,
    PeerStatus, ProcessFault, Registry, RuntimeError, SupervisorConfig, TelemetryConfig,
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
    // Both pipeline halves die once more than the default restart budget
    // allows: shutdown must join everything and report the first
    // failure, not hang. Steps count across restarts, so each fault
    // fires on the next drain (or apply) step after the last restart.
    let steps = 1..=u64::from(SupervisorConfig::default().max_restarts) + 1;
    let mut cfg = GravelConfig::small(2, 8);
    cfg.chaos = Some(Arc::new(ChaosPlan::new(
        steps
            .flat_map(|at_step| {
                [
                    ProcessFault::PanicAggregator { node: 0, slot: 0, at_step },
                    ProcessFault::PanicNet { node: 1, at_step },
                ]
            })
            .collect(),
    )));
    // Short retry budget: with node 1's receiver dead, node 0's flows
    // can only drain by giving up.
    cfg.retry.backoff = Duration::from_millis(1);
    cfg.retry.backoff_max = Duration::from_millis(5);
    cfg.retry.max_retries = 5;
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
    // thread on every delivery: the supervisor restarts it up to its
    // default budget, then escalates the panic.
    let mut cfg = GravelConfig::small(2, 8);
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

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gravel-ha-{}-{tag}", std::process::id()))
}

/// Poll `done` every 10 ms until it holds; fail after 10 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let until = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < until, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The real `heartbeat::run` on both ends of a `SocketTransport` pair
/// over Unix sockets, the one transport that carries beats: while both
/// sides beat, each holds the other alive; once one side stops, the
/// other latches it dead and exports it.
#[test]
fn socket_heartbeats_keep_a_live_peer_alive_and_latch_a_silent_one_dead() {
    let addrs = vec![SocketAddrSpec::Uds(uds_path("0")), SocketAddrSpec::Uds(uds_path("1"))];
    let transports: Vec<Arc<SocketTransport>> = (0..2)
        .map(|id| SocketTransport::spawn(SocketConfig::new(id, addrs.clone())).expect("bind"))
        .collect();
    for (id, t) in transports.iter().enumerate() {
        assert!(t.wait_connected(1 - id as u32, Duration::from_secs(10)), "{id} connects");
    }
    // A 20 ms beat: a peer that never beats is latched dead after about
    // 1.5 s under the warm-up prior, one that stops after about 0.4 s.
    let cfg = HeartbeatConfig { interval: Duration::from_millis(20), ..HeartbeatConfig::default() };
    let registries: Vec<Arc<Registry>> =
        (0..2).map(|_| Arc::new(Registry::new(TelemetryConfig::Counters))).collect();
    let detectors: Vec<Arc<FailureDetector>> =
        (0..2).map(|_| Arc::new(FailureDetector::new(cfg.clone()))).collect();
    let errors = Arc::new(ErrorSlot::default());
    let beaters: Vec<_> = (0..2)
        .map(|id| {
            let (cfg, errors) = (cfg.clone(), errors.clone());
            let t: Arc<dyn Transport> = transports[id].clone();
            let (d, r) = (detectors[id].clone(), registries[id].clone());
            std::thread::spawn(move || heartbeat::run(cfg, id as u32, 2, t, d, errors, r))
        })
        .collect();
    let beats = |id: usize| registries[id].snapshot().counter(&format!("node{id}.ha.beats_sent"));

    // Both beat for 2 s, past the time the prior alone would take to
    // latch a silent peer: each still holds the other alive.
    wait_for("both sides sent 100 beats", || beats(0) >= 100 && beats(1) >= 100);
    let now = Instant::now();
    for (id, d) in detectors.iter().enumerate() {
        let peer = 1 - id as u32;
        assert_eq!(d.status(peer, now), PeerStatus::Alive, "{id} -> {peer}");
        assert_eq!(registries[id].snapshot().counter("ha.deaths_declared"), 0, "node {id}");
    }

    // Node 0 stops: its transport closes and its beater exits.
    let mut beaters = beaters.into_iter();
    transports[0].close();
    beaters.next().unwrap().join().expect("node 0's beater");
    wait_for("node 1 latches node 0 dead", || {
        let snap = registries[1].snapshot();
        // Suspicion gauges export milli-phi.
        snap.counter("ha.deaths_declared") >= 1 && snap.gauge("node1.ha.phi.node0") >= 8000
    });
    assert_eq!(detectors[1].dead_peers(), vec![0]);
    assert_eq!(detectors[1].status(0, Instant::now()), PeerStatus::Dead);
    transports[1].close();
    beaters.next().unwrap().join().expect("node 1's beater");
}
