//! The Gravel runtime.
//!
//! [`GravelRuntime`] hosts an N-node Gravel cluster inside one process:
//! each node gets a symmetric heap, a producer/consumer queue, an
//! aggregator thread, and a network thread; "the network" is a pluggable
//! [`Transport`] — bounded in-memory channels by default, optionally
//! wrapped in a seeded fault injector
//! ([`TransportKind::Unreliable`](gravel_net::TransportKind)). GPU
//! kernels are dispatched onto the SIMT engine and offload PGAS
//! operations through their node's queue exactly as on the paper's APUs —
//! queue → aggregator → per-node queues → network thread → remote heap —
//! with the delivery protocol (sequence numbers, selective acks,
//! ack-clocked retransmission) providing exactly-once semantics even when
//! the transport drops, duplicates, or reorders packets.
//!
//! ```
//! use gravel_core::{GravelConfig, GravelRuntime};
//! use gravel_simt::LaneVec;
//!
//! // 2 nodes, 16-element heaps; every work-item on node 0 increments a
//! // counter on node 1.
//! let rt = GravelRuntime::new(GravelConfig::small(2, 16));
//! rt.dispatch(0, 1, |ctx| {
//!     let dests = LaneVec::splat(ctx.wg.wg_size(), 1u32);
//!     let addrs = LaneVec::splat(ctx.wg.wg_size(), 0u64);
//!     let vals = LaneVec::splat(ctx.wg.wg_size(), 1u64);
//!     ctx.shmem_inc(&dests, &addrs, &vals);
//! });
//! rt.quiesce();
//! assert_eq!(rt.heap(1).load(0), 64); // one WG of 64 work-items
//! let _stats = rt.shutdown().expect("clean shutdown");
//! ```

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_net::{ChannelTransport, Transport, TransportKind, UnreliableTransport};
use gravel_pgas::{AmRegistry, FlushPolicy, QuarantinedMessage, SymmetricHeap};
use gravel_simt::{DispatchResult, Grid, SimtEngine};
use gravel_telemetry::{Registry, RegistrySnapshot, Tracer};

use crate::aggregator::{self, Lane};
use crate::config::GravelConfig;
use crate::ctx::GravelCtx;
use crate::error::{ErrorSlot, RuntimeError};
use crate::ha::{heartbeat, Baseline, Checkpoint, FailureDetector, Keeper, Supervisor, WorkerKind};
use crate::netthread::{self, RecvState};
use crate::node::NodeShared;
use crate::stats::{HaStats, NodeStats, RuntimeStats};

/// Park cap for quiescence polling (the wait escalates from a short
/// spin up to this).
const QUIESCE_POLL: Duration = Duration::from_micros(200);

/// An in-process Gravel cluster.
pub struct GravelRuntime {
    cfg: GravelConfig,
    nodes: Vec<Arc<NodeShared>>,
    engine: SimtEngine,
    transport: Arc<dyn Transport>,
    registry: Arc<Registry>,
    tracer: Tracer,
    errors: Arc<ErrorSlot>,
    /// All worker threads (aggregators, net threads, heartbeat emitters)
    /// run under the supervisor; `None` only after shutdown.
    supervisor: Option<Supervisor>,
    /// Per-node failure detectors; empty unless `cfg.ha.heartbeat`.
    detectors: Vec<Arc<FailureDetector>>,
    /// Per-node receiver state, shared with the (restartable) network
    /// threads so epoch cuts can read the flow cursors and recovery can
    /// reset mid-packet ones.
    recv_states: Vec<Arc<Mutex<RecvState>>>,
    /// Every node's recovery log, with `cfg.ha.checkpoint`: each network
    /// thread's tap appends what it applies, under its receive-state
    /// lock, so no cut falls between a packet's apply and its entry.
    keeper: Option<Arc<Keeper>>,
    /// Per-node aggregator lanes, shared with the (restartable) lane
    /// threads so host requesters can run the express pass themselves.
    lanes: Vec<Arc<Lane>>,
    shut_down: bool,
}

impl GravelRuntime {
    /// Start a cluster with no active-message handlers.
    pub fn new(cfg: GravelConfig) -> Self {
        Self::with_handlers(cfg, |_| {})
    }

    /// Start a cluster, registering active-message handlers first (the
    /// registry is replicated logically on every node, as in SPMD codes).
    pub fn with_handlers(cfg: GravelConfig, register: impl FnOnce(&mut AmRegistry)) -> Self {
        cfg.validate();
        let mut ams = AmRegistry::new();
        register(&mut ams);
        let ams = Arc::new(ams);

        let fabric = ChannelTransport::new(cfg.nodes, 1, cfg.channel_capacity);
        let transport: Arc<dyn Transport> = match &cfg.transport {
            TransportKind::Reliable => Arc::new(fabric),
            TransportKind::Unreliable(faults) => {
                Arc::new(UnreliableTransport::new(fabric, faults.clone()))
            }
        };
        let errors = Arc::new(ErrorSlot::default());

        // One cluster-wide registry/tracer: node `i`'s metrics carry a
        // `node{i}.` prefix, so a single snapshot captures everything.
        let registry = Arc::new(Registry::new(cfg.telemetry));
        let tracer = cfg.telemetry.tracer();
        let nodes: Vec<Arc<NodeShared>> = (0..cfg.nodes)
            .map(|i| {
                Arc::new(NodeShared::with_telemetry(
                    i as u32,
                    &cfg,
                    ams.clone(),
                    registry.clone(),
                    tracer.clone(),
                ))
            })
            .collect();

        // Every worker runs under the supervisor: a panicked worker is
        // joined and respawned (resuming from shared state) until its
        // restart budget runs out, at which point the panic escalates
        // through `errors` exactly as an unsupervised worker's would.
        let supervisor =
            Supervisor::new(cfg.ha.supervisor.clone(), errors.clone(), registry.clone());
        let chaos = cfg.chaos.clone();

        // Adaptive flush when configured; the paper's fixed timeout
        // otherwise.
        let policy = cfg
            .adaptive_flush
            .map_or(FlushPolicy::Fixed(cfg.flush_timeout), FlushPolicy::Adaptive);
        let lanes: Vec<Arc<Lane>> = nodes
            .iter()
            .map(|node| {
                let (node, transport) = (node.clone(), transport.clone());
                let lane = Lane::new(node, 0, transport, cfg.node_queue_bytes, policy, errors.clone());
                Arc::new(lane)
            })
            .collect();

        // Network threads (receivers) first, then aggregators (senders).
        let recv_states: Vec<Arc<Mutex<RecvState>>> =
            (0..cfg.nodes).map(|_| Arc::default()).collect();
        let keeper = cfg.ha.checkpoint.then(Arc::<Keeper>::default);
        for ((node, state), lane) in nodes.iter().zip(&recv_states).zip(&lanes) {
            let (node, transport, errors, state, chaos, lane) = (
                node.clone(),
                transport.clone(),
                errors.clone(),
                state.clone(),
                chaos.clone(),
                lane.clone(),
            );
            let tap = keeper.as_ref().map(|k| k.tap(node.id));
            supervisor.spawn(
                format!("gravel-net-{}", node.id),
                WorkerKind::Net,
                node.id,
                Arc::new(move || {
                    netthread::run_with(
                        node.clone(),
                        transport.clone(),
                        errors.clone(),
                        state.clone(),
                        chaos.clone(),
                        tap.clone(),
                        None,
                        Some(lane.clone()),
                    )
                }),
            );
        }
        for lane in &lanes {
            let (lane, chaos) = (lane.clone(), chaos.clone());
            supervisor.spawn(
                format!("gravel-agg-{}", lane.node().id),
                WorkerKind::Aggregator,
                lane.node().id,
                Arc::new(move || aggregator::run_supervised(lane.clone(), chaos.clone())),
            );
        }

        // Optional heartbeat plane: one emitter/detector thread per node.
        let mut detectors = Vec::new();
        if let Some(hb) = &cfg.ha.heartbeat {
            for i in 0..cfg.nodes as u32 {
                let detector = Arc::new(FailureDetector::new(hb.clone()));
                detectors.push(detector.clone());
                let beat_seq = Arc::new(AtomicU64::new(0));
                let (hb, transport, errors, registry, chaos) = (
                    hb.clone(),
                    transport.clone(),
                    errors.clone(),
                    registry.clone(),
                    chaos.clone(),
                );
                let nodes_total = cfg.nodes as u32;
                supervisor.spawn(
                    format!("gravel-hb-{i}"),
                    WorkerKind::Heartbeat,
                    i,
                    Arc::new(move || {
                        heartbeat::run(
                            hb.clone(),
                            i,
                            nodes_total,
                            transport.clone(),
                            detector.clone(),
                            chaos.clone(),
                            errors.clone(),
                            registry.clone(),
                            beat_seq.clone(),
                        )
                    }),
                );
            }
        }

        GravelRuntime {
            engine: SimtEngine::with_cus(cfg.num_cus),
            cfg,
            nodes,
            transport,
            registry,
            tracer,
            errors,
            supervisor: Some(supervisor),
            detectors,
            recv_states,
            keeper,
            lanes,
            shut_down: false,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &GravelConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Node `id`'s shared state.
    pub fn node(&self, id: usize) -> &Arc<NodeShared> {
        &self.nodes[id]
    }

    /// Node `id`'s symmetric heap.
    pub fn heap(&self, id: usize) -> &SymmetricHeap {
        &self.nodes[id].heap
    }

    /// The cluster's metric registry (one per runtime; per-node metrics
    /// carry a `node{N}.` prefix); snapshot it for the counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The cluster's span recorder (disabled unless the config selects
    /// [`TelemetryConfig::CountersAndTrace`](gravel_telemetry::TelemetryConfig)).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Point-in-time copy of every metric in the cluster.
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Export every span recorded so far as chrome://tracing JSON.
    /// `None` when tracing is disabled.
    pub fn export_chrome_trace(&self) -> Option<String> {
        self.tracer.export_chrome_json()
    }

    /// The fabric carrying packets between nodes (tests use it to audit
    /// in-flight ack mailbox depths against the counter ledger).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Dispatch `kernel` on node `node_id`'s GPU over `wg_count`
    /// work-groups of the configured work-group size. Returns the SIMT
    /// dispatch counters. Synchronous: returns when the kernel finishes
    /// (messages may still be in flight — see [`quiesce`](Self::quiesce)).
    pub fn dispatch(
        &self,
        node_id: usize,
        wg_count: usize,
        kernel: impl Fn(&mut GravelCtx) + Sync,
    ) -> DispatchResult {
        let grid = Grid {
            wg_count,
            wg_size: self.cfg.wg_size,
            wf_width: self.cfg.wf_width,
        };
        self.dispatch_grid(node_id, grid, kernel)
    }

    /// Dispatch with an explicit grid.
    pub fn dispatch_grid(
        &self,
        node_id: usize,
        grid: Grid,
        kernel: impl Fn(&mut GravelCtx) + Sync,
    ) -> DispatchResult {
        let node = &self.nodes[node_id];
        let serialize = self.cfg.serialize_atomics;
        self.engine.dispatch(grid, |wg| {
            let mut ctx = GravelCtx::new(wg, node, serialize);
            kernel(&mut ctx);
        })
    }

    /// Dispatch the same kernel on every node (SPMD superstep). Kernels
    /// see their node through [`GravelCtx::my_node`]. Nodes run one after
    /// another; on a real cluster they run concurrently. The dispatches
    /// are live, and `gbench` times rounds of them end to end; only the
    /// paper-scale cluster figures come from the `gravel-cluster`
    /// simulator.
    pub fn dispatch_all(&self, wg_count: usize, kernel: impl Fn(&mut GravelCtx) + Sync) {
        for id in 0..self.cfg.nodes {
            self.dispatch(id, wg_count, &kernel);
        }
    }

    /// True once every offloaded message has been applied at its
    /// destination.
    fn is_quiescent(&self) -> bool {
        // The reads are not an atomic snapshot, so order matters: read
        // the *downstream* counter first. Every applied message was
        // offloaded-counted strictly earlier, and a handler's reply is
        // offloaded before the triggering message's apply is counted, so
        // `applied@t0 == offloaded@t1` (t0 < t1) proves the pipeline was
        // empty at t0 and nothing entered it since. Reading `applied`
        // last has a race: a reply offloaded between the two reads can
        // balance a stale `offloaded` against a fresh `applied` and
        // report quiescence with that reply still in flight.
        let applied: u64 = self.nodes.iter().map(|n| n.applied.get()).sum();
        let offloaded: u64 = self.nodes.iter().map(|n| n.offloaded.get()).sum();
        let backlog: u64 = self.nodes.iter().map(|n| n.queue.backlog()).sum();
        // Counter reads are relaxed; this pairs with the release fences
        // in note_offloaded/note_applied so heap effects of counted
        // messages are visible to whoever observes the balance.
        fence(Ordering::Acquire);
        backlog == 0 && offloaded == applied
    }

    /// Block until every offloaded message has been applied at its
    /// destination. Call between supersteps (after `dispatch*` returns)
    /// and before reading remote results.
    ///
    /// Bounded by `GravelConfig::quiesce_deadline` (when set) and bails
    /// early if a worker already failed; either way the failure is
    /// reported by [`shutdown`](Self::shutdown), so a kernel loop can
    /// keep calling `quiesce()` obliviously and still terminate.
    pub fn quiesce(&self) {
        match self.cfg.quiesce_deadline {
            Some(d) => {
                let _ = self.quiesce_deadline(d);
            }
            None => {
                let start = Instant::now();
                let mut last_warn = start;
                let mut bo = crate::backoff::Backoff::new(QUIESCE_POLL);
                while !self.is_quiescent() && !self.errors.is_set() {
                    self.warn_if_stuck(start, &mut last_warn);
                    if !bo.should_spin() {
                        bo.park_sleep();
                    }
                }
            }
        }
    }

    /// Emit a once-per-`quiesce_warn_interval` stuck-pipeline warning
    /// (stderr + the `ha.quiesce_warnings` counter) while a
    /// quiescence wait spins, so an operator watching a wedged run sees
    /// *where* messages are stuck instead of silence.
    fn warn_if_stuck(&self, start: Instant, last_warn: &mut Instant) {
        if last_warn.elapsed() < self.cfg.quiesce_warn_interval {
            return;
        }
        *last_warn = Instant::now();
        self.registry.counter("ha.quiesce_warnings").inc();
        eprintln!(
            "gravel: quiesce still waiting after {:?}; pipeline diagnostics:\n{}",
            start.elapsed(),
            self.diagnostics()
        );
    }

    /// Like [`quiesce`](Self::quiesce) with an explicit deadline. On
    /// timeout, returns (and records, so `shutdown` also reports it) a
    /// [`RuntimeError::QuiesceTimeout`] carrying per-node diagnostics of
    /// where messages are stuck.
    pub fn quiesce_deadline(&self, deadline: Duration) -> Result<(), RuntimeError> {
        let start = Instant::now();
        let mut last_warn = start;
        let mut bo = crate::backoff::Backoff::new(QUIESCE_POLL);
        loop {
            if self.errors.is_set() {
                // The failure is the cluster's, not this wait's; the
                // caller learns the cause from shutdown().
                return Ok(());
            }
            if self.is_quiescent() {
                return Ok(());
            }
            if start.elapsed() >= deadline {
                let e = RuntimeError::QuiesceTimeout {
                    waited: start.elapsed(),
                    diagnostics: self.diagnostics(),
                };
                self.errors.set(e.clone());
                return Err(e);
            }
            self.warn_if_stuck(start, &mut last_warn);
            if !bo.should_spin() {
                bo.park_sleep();
            }
        }
    }

    /// Human-readable per-node dump of the counters that explain where
    /// in the pipeline messages are stuck (used by quiesce timeouts).
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write;
        let depths = self.transport.data_depths();
        let snap = self.registry.snapshot();
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let s = NodeStats::from_snapshot(n.id, &snap);
            let gauge = |name: &str| snap.gauge(&format!("node{i}.agg.{name}"));
            let _ = writeln!(
                out,
                "node {i}: backlog={} offloaded={} applied={} agg_backlog={} in_flight={} \
                 chan_depth={} retransmits={} (fast={} rto={}) dups={} acks_tx={} acks_rx={} \
                 stalls={} ooo_drop={}",
                n.queue.backlog(),
                s.offloaded,
                s.applied,
                gauge("backlog_packets"),
                gauge("in_flight"),
                depths.get(i).copied().unwrap_or(0),
                s.net.retransmits,
                s.net.fast_retransmits,
                s.net.rto_retransmits,
                s.net.dups_suppressed,
                s.net.acks_sent,
                s.net.acks_received,
                s.net.backpressure_stalls,
                s.net.ooo_dropped,
            );
            if s.net.total_integrity_drops() + s.net.quarantined > 0 {
                let _ = writeln!(
                    out,
                    "  integrity: corrupt={} trunc={} misroute={} ack_corrupt={} \
                     quarantined={} evicted={}",
                    s.net.corrupt_dropped,
                    s.net.truncated,
                    s.net.misrouted,
                    s.net.ack_corrupt_dropped,
                    s.net.quarantined,
                    s.net.quarantine_evicted,
                );
            }
        }
        let f = self.transport.fault_stats();
        let _ = writeln!(
            out,
            "faults: dropped={} dup={} delayed={} partition={} oneway={} acks_dropped={} \
             corrupted={} truncated={} garbage={} misrouted={} ack_corrupted={}",
            f.dropped_data,
            f.duplicated,
            f.delayed,
            f.partition_drops,
            f.oneway_drops,
            f.dropped_acks,
            f.corrupted_data,
            f.truncated_data,
            f.garbage_data,
            f.misrouted_data,
            f.corrupted_acks,
        );
        out
    }

    /// Drain node `id`'s poison-message quarantine: every CRC-clean
    /// message that failed semantic validation since the last drain,
    /// oldest first, with full provenance (peer, lane, seq, index, raw
    /// words, reason). The `net.quarantined` counter keeps its lifetime
    /// total — draining inspects, it does not un-count.
    pub fn drain_quarantine(&self, id: usize) -> Vec<QuarantinedMessage> {
        self.nodes[id].quarantine.drain()
    }

    /// Issue one blocking GET from node `src`: read word `addr` of node
    /// `dest`'s heap through the full request-reply pipeline (queue →
    /// aggregator → wire → remote apply → reply frame → pending table).
    /// Returns the value, or the failure the pending table assigned
    /// (timeout, restart, table full). Host-side convenience — kernels
    /// use [`GravelCtx::shmem_get`](crate::ctx::GravelCtx::shmem_get).
    pub fn host_get(&self, src: usize, dest: u32, addr: u64) -> Result<u64, gravel_gq::RpcFailure> {
        self.host_rpc(src, |token, dl| gravel_gq::Message::get(dest, addr, token, dl))
    }

    /// Issue one blocking value-returning active-message call from node
    /// `src`: run returning handler `handler` against `arg` on `dest`
    /// and return its result. See [`host_get`](Self::host_get).
    pub fn host_am_call(
        &self,
        src: usize,
        dest: u32,
        handler: u32,
        arg: u64,
    ) -> Result<u64, gravel_gq::RpcFailure> {
        self.host_rpc(src, |token, dl| {
            gravel_gq::Message::am_call(dest, handler, arg, token, dl)
        })
    }

    fn host_rpc(
        &self,
        src: usize,
        build: impl FnOnce(u64, u16) -> gravel_gq::Message,
    ) -> Result<u64, gravel_gq::RpcFailure> {
        self.lanes[src].host_rpc(build)
    }

    /// Node `id`'s aggregator lane. A host thread that publishes express
    /// traffic without waiting for it (tests, harnesses) calls its
    /// [`Lane::try_express_pass`] to put it on the wire itself.
    pub fn lane(&self, id: usize) -> &Arc<Lane> {
        &self.lanes[id]
    }

    /// Snapshot cluster statistics (one registry snapshot for every node).
    pub fn stats(&self) -> RuntimeStats {
        let snap = self.registry.snapshot();
        RuntimeStats {
            nodes: self.nodes.iter().map(|n| NodeStats::from_snapshot(n.id, &snap)).collect(),
            faults: self.transport.fault_stats(),
            ha: HaStats::from_snapshot(&snap),
        }
    }

    /// Node `id`'s phi-accrual failure detector (its view of every
    /// peer). `None` unless `cfg.ha.heartbeat` is set.
    pub fn detector(&self, id: usize) -> Option<&Arc<FailureDetector>> {
        self.detectors.get(id)
    }

    /// Cut an epoch checkpoint with no application progress attached.
    /// See [`cut_epoch_with`](Self::cut_epoch_with).
    pub fn cut_epoch(&self) -> u64 {
        self.cut_epoch_with(None)
    }

    /// Cut a consistent epoch: quiesce, then rebase every node's
    /// recovery log on its heap image and flow cursors (plus `app`'s
    /// progress words, if given). Returns the new epoch number (first
    /// cut = 1).
    ///
    /// Must be called *between supersteps* — after the dispatching code
    /// has stopped issuing messages — because the quiesce-then-snapshot
    /// sequence is only a consistent cut when no new traffic races it.
    /// Requires `cfg.ha.checkpoint` (programmer error otherwise).
    pub fn cut_epoch_with(&self, app: Option<&dyn Checkpoint>) -> u64 {
        let keeper = self
            .keeper
            .as_ref()
            .expect("cut_epoch requires GravelConfig.ha.checkpoint = true");
        self.quiesce();
        let app = app.map_or_else(Vec::new, |a| a.save());
        let epoch = keeper.epoch(0) + 1;
        for (id, node) in self.nodes.iter().enumerate() {
            // Under the receive-state lock the network thread applies
            // and logs under: heap image and cursors are one consistent
            // pair, and a packet counted applied is already logged.
            let recv = self.recv_states[id].lock().unwrap_or_else(|p| p.into_inner());
            let baseline = Baseline {
                epoch,
                cursors: recv.flow_cursors(),
                heap: node.heap.snapshot(),
                app: app.clone(),
            };
            keeper.on_ckpt(node.id, baseline);
            // Stamp the new epoch into every frame sealed from here on;
            // the cluster is quiescent, so no in-flight frame still
            // carries the old number.
            node.wire_epoch.store(epoch as u32, Ordering::Release);
        }
        self.registry.counter("ha.epochs").inc();
        epoch
    }

    /// Restore node `id` from its recovery log: refill its heap from the
    /// last cut's baseline, replay every packet the node fully applied
    /// since (in original apply order, with replies suppressed — they
    /// were already delivered and logged at their own destinations) and
    /// reset any mid-packet resume cursor. On a quiescent cluster this
    /// reproduces the pre-death heap exactly. Returns the progress words
    /// the cut saved from its [`Checkpoint`] (empty without one).
    pub fn recover_node(&self, id: usize) -> Result<Vec<u64>, RuntimeError> {
        let started = Instant::now();
        let fail = |reason: &str| RuntimeError::RecoveryFailed {
            node: id as u32,
            reason: reason.to_string(),
        };
        let node = self
            .nodes
            .get(id)
            .ok_or_else(|| fail("node id out of range"))?;
        let app = {
            // The replay read-modify-writes the heap, which only the
            // node's network thread may do — or, as here, whoever holds
            // its receive-state lock: the thread takes that lock per
            // delivered packet, so it cannot apply one (or leave a
            // resume cursor behind) between the refill and the reset.
            let mut recv = self.recv_states[id]
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let keeper = self.keeper.as_ref().ok_or_else(|| fail("checkpointing disabled"))?;
            let log = keeper.recover(node.id);
            let baseline = log.baseline.as_ref().ok_or_else(|| fail("no epoch checkpoint taken"))?;
            // Replayed messages were already counted toward quiescence
            // when first applied: the disposed count goes nowhere.
            log.replay(&node.heap, &node.ams).map_err(|e| fail(&e.to_string()))?;
            let app = baseline.app.clone();
            recv.reset_resume_cursors();
            app
        };
        // The node restarted: every reply token it issued before dying
        // is now unanswerable (the sink that would receive it is gone).
        // Bumping the generation fails the old waiters and rejects any
        // late reply carrying a stale token.
        node.rpc.bump_generation();
        self.registry.counter("ha.recoveries").inc();
        self.registry.counter(&format!("node{id}.ha.recoveries")).inc();
        self.registry
            .histogram("ha.recovery_ns")
            .record(started.elapsed().as_nanos() as u64);
        Ok(app)
    }

    fn shutdown_impl(&mut self) -> Result<RuntimeStats, RuntimeError> {
        if !self.shut_down {
            self.shut_down = true;
            self.quiesce();
            // Closing the queues sends the aggregators into their drain
            // phase: flush partial packets, then hold until every flow
            // is acknowledged (the network threads are still alive to
            // re-ack retransmissions).
            for node in &self.nodes {
                node.queue.close();
            }
            if let Some(supervisor) = self.supervisor.take() {
                supervisor.join_kind(WorkerKind::Aggregator);
                // Only now stop the fabric and let the receivers (and
                // heartbeat emitters) exit.
                self.transport.close();
                supervisor.join_kind(WorkerKind::Net);
                supervisor.join_kind(WorkerKind::Heartbeat);
                // stop() joins any straggler exactly once — including
                // workers that failed after their restart budget — so no
                // thread outlives the runtime even with multiple errors.
                supervisor.stop();
            }
        }
        match self.errors.take() {
            Some(e) => Err(e),
            None => Ok(self.stats()),
        }
    }

    /// Quiesce, stop all threads, and return final statistics.
    ///
    /// Any failure during the run — a panicked worker thread, a delivery
    /// flow that exhausted its retries, a quiescence timeout — surfaces
    /// here as an `Err` (first failure wins) instead of a hang or an
    /// unwinding join.
    pub fn shutdown(mut self) -> Result<RuntimeStats, RuntimeError> {
        self.shutdown_impl()
    }
}

impl Drop for GravelRuntime {
    fn drop(&mut self) {
        // Errors were either already taken by shutdown() or are
        // deliberately discarded: panicking in drop would abort.
        let _ = self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;
    use gravel_net::FaultConfig;
    use gravel_simt::LaneVec;

    #[test]
    fn startup_and_clean_shutdown() {
        let rt = GravelRuntime::new(GravelConfig::small(3, 8));
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.nodes.len(), 3);
        assert_eq!(stats.total_offloaded(), 0);
    }

    #[test]
    fn remote_increments_land_exactly_once() {
        let rt = GravelRuntime::new(GravelConfig::small(2, 4));
        // Node 0: 2 work-groups × 64 lanes increment node 1's counter.
        rt.dispatch(0, 2, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::splat(n, 1u32);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        rt.quiesce();
        assert_eq!(rt.heap(1).load(0), 128);
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.total_offloaded(), 128);
        assert_eq!(stats.total_applied(), 128);
        assert!((stats.remote_fraction() - 1.0).abs() < 1e-12);
        // Reliable transport: protocol ran (acks flowed) but never
        // needed to repair anything.
        assert_eq!(stats.total_retransmits(), 0);
        assert_eq!(stats.total_dups_suppressed(), 0);
        assert!(stats.faults.is_clean());
    }

    #[test]
    fn all_to_all_scatter() {
        // 4 nodes; every node's work-items scatter increments across all
        // nodes by lane id.
        let nodes = 4;
        let rt = GravelRuntime::new(GravelConfig::small(nodes, 4));
        rt.dispatch_all(1, |ctx| {
            let n = ctx.wg.wg_size();
            let k = ctx.nodes() as u32;
            let dests = LaneVec::from_fn(n, |l| (l as u32) % k);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        rt.quiesce();
        // 64 lanes per node / 4 dests = 16 messages per (src, dest) pair;
        // each dest receives 16 × 4 sources = 64.
        for id in 0..nodes {
            assert_eq!(rt.heap(id).load(0), 64, "node {id}");
        }
        let stats = rt.shutdown().expect("clean shutdown");
        for n in &stats.nodes {
            assert_eq!(
                n.queue.producer_rmws, 1,
                "node {}: lanes for four destinations, one reservation",
                n.node
            );
        }
        // 3/4 of scattered messages are remote.
        assert!(
            (stats.remote_fraction() - 0.75).abs() < 1e-9,
            "{}",
            stats.remote_fraction()
        );
    }

    #[test]
    fn puts_and_ams_roundtrip() {
        let rt = GravelRuntime::with_handlers(GravelConfig::small(2, 8), |reg| {
            reg.register(gravel_pgas::relax_min_handler());
        });
        rt.heap(1).store(5, 1000);
        rt.dispatch(0, 1, |ctx| {
            let n = ctx.wg.wg_size();
            // Every lane PUTs 77 into node 1 slot 3 (idempotent) and
            // relaxes node 1 slot 5 down to 42 via the min handler.
            let dests = LaneVec::splat(n, 1u32);
            let addr3 = LaneVec::splat(n, 3u64);
            let val77 = LaneVec::splat(n, 77u64);
            ctx.shmem_put(&dests, &addr3, &val77);
            let addr5 = LaneVec::splat(n, 5u64);
            let val42 = LaneVec::splat(n, 42u64);
            ctx.shmem_am(0, &dests, &addr5, &val42);
        });
        rt.quiesce();
        assert_eq!(rt.heap(1).load(3), 77);
        assert_eq!(rt.heap(1).load(5), 42);
        rt.shutdown().expect("clean shutdown");
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let rt = GravelRuntime::new(GravelConfig::small(2, 4));
        rt.dispatch(0, 1, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::splat(n, 1u32);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        drop(rt); // Drop quiesces and joins
    }

    #[test]
    fn stats_capture_packet_sizes() {
        let mut cfg = GravelConfig::small(2, 4);
        cfg.node_queue_bytes = 72; // a run header and 4 INC records per packet
        let rt = GravelRuntime::new(cfg);
        rt.dispatch(0, 1, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::splat(n, 1u32);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        rt.quiesce();
        let stats = rt.shutdown().expect("clean shutdown");
        let n0 = &stats.nodes[0];
        assert_eq!(n0.agg.messages, 64);
        assert!(n0.agg.packets >= 16, "64 msgs / 4 per packet");
        assert!(stats.avg_packet_bytes() <= 72.0);
    }

    #[test]
    fn faulty_transport_still_delivers_exactly_once() {
        let mut cfg = GravelConfig::small(2, 4);
        cfg.node_queue_bytes = 64; // many small packets → many fault rolls
        cfg.transport = TransportKind::Unreliable(FaultConfig::mixed(42, 0.10));
        let rt = GravelRuntime::new(cfg);
        rt.dispatch(0, 2, |ctx| {
            let n = ctx.wg.wg_size();
            let dests = LaneVec::splat(n, 1u32);
            let addrs = LaneVec::splat(n, 0u64);
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        rt.quiesce();
        assert_eq!(rt.heap(1).load(0), 128, "exactly-once despite faults");
        let stats = rt.shutdown().expect("shutdown under faults");
        assert_eq!(stats.total_applied(), 128);
        assert!(
            !stats.faults.is_clean(),
            "10 % fault mix over ~32 packets should have fired at least once"
        );
    }

    #[test]
    fn worker_panic_surfaces_from_shutdown() {
        let rt = GravelRuntime::with_handlers(GravelConfig::small(2, 4), |reg| {
            reg.register(Box::new(|_h, _a, _v| panic!("handler exploded")));
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
                assert!(message.contains("handler exploded"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_drains_poison_without_wedging_quiescence() {
        let rt = GravelRuntime::new(GravelConfig::small(2, 4));
        // An unknown active-message handler and an out-of-range put,
        // through the normal pipeline: both must still dispose for
        // quiescence and land in node 1's quarantine with provenance.
        rt.node(0).host_send(gravel_gq::Message::active(1, 7, 0, 0));
        rt.node(0).host_send(gravel_gq::Message::put(1, 999, 5));
        rt.quiesce();
        let q = rt.drain_quarantine(1);
        assert_eq!(q.len(), 2);
        use gravel_pgas::QuarantineReason;
        assert!(q
            .iter()
            .any(|m| m.reason == QuarantineReason::UnknownHandler));
        assert!(q.iter().any(|m| m.reason == QuarantineReason::OutOfRange));
        assert!(q.iter().all(|m| m.src == 0));
        // Draining empties the buffer but keeps the lifetime counter.
        assert!(rt.drain_quarantine(1).is_empty());
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.nodes[1].net.quarantined, 2);
        assert_eq!(stats.total_quarantined(), 2);
        assert_eq!(stats.total_integrity_drops(), 0);
    }

    #[test]
    fn a_stray_destination_is_quarantined_at_the_sending_lane() {
        use gravel_gq::Message;
        use gravel_pgas::QuarantineReason;
        let rt = GravelRuntime::new(GravelConfig::small(2, 4));
        // A PUT for a node the cluster does not have, batched between
        // two good ones (one slot), and another on its own.
        rt.node(0).host_send_batch(&[
            Message::put(1, 0, 11),
            Message::put(5, 1, 99),
            Message::put(1, 2, 13),
        ]);
        rt.node(0).host_send(Message::put(7, 3, 98));
        rt.quiesce();
        assert_eq!(rt.node(1).heap.snapshot(), vec![11, 0, 13, 0]);
        let q = rt.drain_quarantine(0);
        assert_eq!(q.len(), 2, "{q:?}");
        assert!(q.iter().all(|m| m.reason == QuarantineReason::UnknownDest
            && (m.src, m.lane) == (0, 0)
            && Message::decode(m.words).is_some_and(|w| w.dest >= 2)));
        assert_eq!((q[0].seq, q[0].index), (0, 1), "ring slot 0, column 1");
        assert_eq!((q[1].seq, q[1].index), (1, 0));
        let stats = rt.shutdown().expect("the lane survived");
        assert_eq!(stats.nodes[0].net.quarantined, 2);
        assert_eq!(stats.nodes[0].offloaded, 4);
        assert_eq!(stats.nodes[0].applied + stats.nodes[1].applied, 4);
    }

    #[test]
    fn epoch_cuts_stamp_the_wire_epoch() {
        let mut cfg = GravelConfig::small(2, 4);
        cfg.ha.checkpoint = true;
        let rt = GravelRuntime::new(cfg);
        assert_eq!(rt.node(0).wire_epoch.load(Ordering::Relaxed), 0);
        assert_eq!(rt.cut_epoch(), 1);
        assert_eq!(rt.cut_epoch(), 2);
        for id in 0..2 {
            assert_eq!(rt.node(id).wire_epoch.load(Ordering::Relaxed), 2);
        }
        rt.shutdown().expect("clean shutdown");
    }

    /// `recover_node` read-modify-writes a heap whose single writer is
    /// the node's network thread, so it must hold that thread's
    /// receive-state lock for the whole refill + replay. A replayed
    /// active message observes the lock from inside the replay.
    #[test]
    fn recovery_replays_under_the_receive_state_lock() {
        use std::sync::{OnceLock, TryLockError};
        let state: Arc<OnceLock<Arc<Mutex<RecvState>>>> = Arc::new(OnceLock::new());
        let (probe, held) = (state.clone(), Arc::new(Mutex::new(Vec::new())));
        let seen = held.clone();
        let mut cfg = GravelConfig::small(2, 4);
        cfg.ha.checkpoint = true;
        let rt = GravelRuntime::with_handlers(cfg, |reg| {
            reg.register(Box::new(move |h, a, v| {
                h.fetch_add(a, v);
                if let Some(state) = probe.get() {
                    let held = matches!(state.try_lock(), Err(TryLockError::WouldBlock));
                    seen.lock().unwrap().push(held);
                }
            }));
        });
        rt.cut_epoch();
        rt.node(0).host_send(Message::inc(1, 2, 5));
        rt.node(0).host_send(Message::active(1, 0, 2, 7));
        rt.quiesce();
        assert_eq!(rt.heap(1).load(2), 12);
        // Only the replay is probed; the live apply above was not.
        state.set(rt.recv_states[1].clone()).ok().unwrap();
        rt.heap(1).reset(0);
        rt.recover_node(1).expect("epoch restore");
        assert_eq!(rt.heap(1).load(2), 12, "refill + replay is exact");
        assert_eq!(
            *held.lock().unwrap(),
            vec![true],
            "replay ran under the lock"
        );
        assert!(rt.recv_states[1].try_lock().is_ok(), "and released it");
        rt.shutdown().expect("clean shutdown");
    }

    #[test]
    fn quiesce_deadline_reports_diagnostics_instead_of_hanging() {
        let rt = GravelRuntime::new(GravelConfig::small(2, 4));
        // Fake a message that was counted as offloaded but will never be
        // applied: quiescence can then never converge.
        rt.node(0).note_offloaded(1);
        let start = Instant::now();
        match rt.quiesce_deadline(Duration::from_millis(50)) {
            Err(RuntimeError::QuiesceTimeout {
                waited,
                diagnostics,
            }) => {
                assert!(waited >= Duration::from_millis(50));
                assert!(diagnostics.contains("node 0"), "{diagnostics}");
                assert!(diagnostics.contains("offloaded=1"), "{diagnostics}");
                assert!(diagnostics.contains("agg_backlog=0"), "{diagnostics}");
            }
            other => panic!("expected QuiesceTimeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(10));
        // The recorded failure also surfaces from shutdown.
        match rt.shutdown() {
            Err(RuntimeError::QuiesceTimeout { .. }) => {}
            other => panic!("expected QuiesceTimeout from shutdown, got {other:?}"),
        }
    }
}
