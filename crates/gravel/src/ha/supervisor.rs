//! Worker supervision: restart panicked workers instead of aborting.
//!
//! The runtime's worker threads (aggregator lanes, network threads,
//! heartbeat emitters) are spawned through a [`Supervisor`]. Each worker
//! is a restartable body (`Arc<dyn Fn()>` over state that outlives the
//! thread); when a worker panics, a monitor thread joins the corpse and
//! respawns the body with exponential backoff, up to
//! [`SupervisorConfig::max_restarts`] restarts per sliding
//! [`SupervisorConfig::restart_window`]. Budget exhaustion (or a restart
//! attempted after the cluster already failed) escalates the panic as a
//! [`RuntimeError::WorkerPanic`] carrying the worker's thread name and
//! the *last* panic message — exactly what an unsupervised runtime would
//! have reported on the first panic.
//!
//! Every worker thread is joined exactly once — on its exit event, or
//! at [`Supervisor::stop`] — regardless of how many workers failed, so
//! no thread can leak past `Runtime::drop` even when several workers
//! panic concurrently.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use gravel_telemetry::Registry;

use crate::error::{panic_message, ErrorSlot, RuntimeError};

/// Restart policy for supervised workers.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Restarts allowed per worker within [`restart_window`](Self::restart_window);
    /// the next panic escalates. `0` disables restarts entirely (every
    /// panic is terminal, the pre-HA behaviour).
    pub max_restarts: u32,
    /// Sliding window the restart budget applies to.
    pub restart_window: Duration,
    /// Backoff before the first restart of a worker; doubles per restart
    /// in the window.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        // Five restarts in ten seconds absorbs a burst of transient
        // failures; a worker that keeps dying faster than that has a
        // deterministic bug and should escalate. Backoff stays small:
        // what the dead worker dropped is re-sent as soon as an ack
        // shows the gap, so the restart is the recovery latency.
        SupervisorConfig {
            max_restarts: 5,
            restart_window: Duration::from_secs(10),
            backoff: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
        }
    }
}

/// What pipeline role a worker plays; shutdown joins roles in order
/// (aggregators before the transport closes, receivers after).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerKind {
    /// Aggregator lane (sender half of the delivery protocol).
    Aggregator,
    /// Network thread (receiver half).
    Net,
    /// Heartbeat emitter / failure-detector driver.
    Heartbeat,
    /// Elastic-topology coordinator driver (owns no protocol state —
    /// that lives in the supervisor's
    /// [`Rebalancer`](crate::ha::Rebalancer), so a restarted driver
    /// resumes the in-flight migration exactly).
    Rebalance,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Running,
    Done,
    Failed,
}

struct Worker {
    name: String,
    kind: WorkerKind,
    node: u32,
    body: Arc<dyn Fn() + Send + Sync>,
    status: Status,
    handle: Option<JoinHandle<()>>,
    /// Timestamps of restarts inside the current window.
    restarts: Vec<Instant>,
}

enum Event {
    Exited { id: usize, panic: Option<String> },
    Stop,
}

struct Shared {
    workers: Mutex<Vec<Worker>>,
    changed: Condvar,
}

fn lock_workers(shared: &Shared) -> MutexGuard<'_, Vec<Worker>> {
    // A poisoned lock here means the monitor panicked mid-update; the
    // worker table itself is still consistent (all updates are
    // single-field writes).
    shared.workers.lock().unwrap_or_else(|p| p.into_inner())
}

/// Spawns and supervises the runtime's worker threads. One monitor
/// thread per runtime processes exit events; all bookkeeping lives in a
/// shared table so [`join_kind`](Self::join_kind) can block on worker
/// states without talking to the monitor.
pub struct Supervisor {
    cfg: SupervisorConfig,
    shared: Arc<Shared>,
    tx: Sender<Event>,
    monitor: Option<JoinHandle<()>>,
    /// Coordinator-side topology-change state (queued proposals, the
    /// in-flight migration). Owned here — outside any worker thread —
    /// for the same reason `LaneState`/`RecvState` are: a supervised
    /// restart of the [`WorkerKind::Rebalance`] driver must resume the
    /// protocol exactly where its predecessor died.
    rebalancer: Arc<Mutex<super::rebalance::Rebalancer>>,
}

impl Supervisor {
    /// Start a supervisor recording restarts/escalations into `errors`
    /// and `registry` (`ha.restarts`, `node{N}.ha.restarts`,
    /// `ha.recovery_ns`).
    pub fn new(cfg: SupervisorConfig, errors: Arc<ErrorSlot>, registry: Arc<Registry>) -> Self {
        let shared = Arc::new(Shared { workers: Mutex::new(Vec::new()), changed: Condvar::new() });
        let (tx, rx) = unbounded::<Event>();
        let monitor = {
            let (cfg, shared, tx) = (cfg.clone(), shared.clone(), tx.clone());
            std::thread::Builder::new()
                .name("gravel-supervisor".into())
                .spawn(move || monitor_loop(cfg, shared, tx, rx, errors, registry))
                .expect("spawn supervisor monitor")
        };
        Supervisor {
            cfg,
            shared,
            tx,
            monitor: Some(monitor),
            rebalancer: Arc::new(Mutex::new(super::rebalance::Rebalancer::new())),
        }
    }

    /// The supervisor-owned topology-change state machine; clone the
    /// handle into a [`WorkerKind::Rebalance`] driver body.
    pub fn rebalancer(&self) -> Arc<Mutex<super::rebalance::Rebalancer>> {
        self.rebalancer.clone()
    }

    /// Spawn a supervised worker. `body` must be re-runnable: all state
    /// that survives a restart lives behind the `Arc`s it captures.
    pub fn spawn(&self, name: String, kind: WorkerKind, node: u32, body: Arc<dyn Fn() + Send + Sync>) {
        let mut ws = lock_workers(&self.shared);
        let id = ws.len();
        let handle = spawn_worker_thread(&name, id, body.clone(), self.tx.clone());
        ws.push(Worker {
            name,
            kind,
            node,
            body,
            status: Status::Running,
            handle: Some(handle),
            restarts: Vec::new(),
        });
    }

    /// Block until every worker of `kind` has exited for good (`Done` or
    /// `Failed` — a worker mid-restart still counts as running).
    pub fn join_kind(&self, kind: WorkerKind) {
        let mut ws = lock_workers(&self.shared);
        while ws.iter().any(|w| w.kind == kind && w.status == Status::Running) {
            let (guard, _) = self
                .shared
                .changed
                .wait_timeout(ws, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner());
            ws = guard;
        }
    }

    /// Stop supervising: no further restarts, join every thread that is
    /// still alive, then join the monitor. Call only after the workers'
    /// exit conditions hold (queues closed, transport closed), or this
    /// blocks until they do.
    pub fn stop(mut self) {
        let _ = self.tx.send(Event::Stop);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }

    /// The configured restart policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            let _ = self.tx.send(Event::Stop);
            let _ = m.join();
        }
    }
}

/// Run `body` in a named thread; deliver the exit (clean or panicked)
/// to the monitor. The catch_unwind boundary means `join` never itself
/// propagates a panic.
fn spawn_worker_thread(
    name: &str,
    id: usize,
    body: Arc<dyn Fn() + Send + Sync>,
    tx: Sender<Event>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let panic = std::panic::catch_unwind(AssertUnwindSafe(|| body()))
                .err()
                .map(|payload| panic_message(payload.as_ref()));
            let _ = tx.send(Event::Exited { id, panic });
        })
        .expect("spawn supervised worker")
}

fn monitor_loop(
    cfg: SupervisorConfig,
    shared: Arc<Shared>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    errors: Arc<ErrorSlot>,
    registry: Arc<Registry>,
) {
    let restarts_total = registry.counter("ha.restarts");
    let recovery_ns = registry.histogram("ha.recovery_ns");
    while let Ok(event) = rx.recv() {
        match event {
            Event::Exited { id, panic } => {
                let observed = Instant::now();
                let mut ws = lock_workers(&shared);
                // The thread has sent its last message; join returns
                // promptly and can never unwind (panics were caught).
                if let Some(h) = ws[id].handle.take() {
                    let _ = h.join();
                }
                match panic {
                    None => ws[id].status = Status::Done,
                    Some(message) => {
                        let now = Instant::now();
                        let window = cfg.restart_window;
                        ws[id].restarts.retain(|t| now.duration_since(*t) < window);
                        let attempt = ws[id].restarts.len() as u32;
                        if attempt < cfg.max_restarts && !errors.is_set() {
                            ws[id].restarts.push(now);
                            let (name, node, body) =
                                (ws[id].name.clone(), ws[id].node, ws[id].body.clone());
                            drop(ws);
                            let backoff = (cfg.backoff * 2u32.saturating_pow(attempt))
                                .min(cfg.backoff_max);
                            std::thread::sleep(backoff);
                            let handle = spawn_worker_thread(&name, id, body, tx.clone());
                            restarts_total.add(1);
                            registry.counter(&format!("node{node}.ha.restarts")).add(1);
                            recovery_ns.record(observed.elapsed().as_nanos() as u64);
                            let mut ws = lock_workers(&shared);
                            ws[id].handle = Some(handle);
                            // status stays Running
                        } else {
                            errors.set(RuntimeError::WorkerPanic {
                                thread: ws[id].name.clone(),
                                message,
                            });
                            ws[id].status = Status::Failed;
                        }
                    }
                }
                shared.changed.notify_all();
            }
            Event::Stop => break,
        }
    }
    // Final sweep: join anything still alive (blocks until the worker's
    // exit condition — closed queue/transport — lets it leave), and
    // absorb exit events that raced the Stop. No restarts from here on.
    loop {
        let pending: Vec<(usize, JoinHandle<()>)> = {
            let mut ws = lock_workers(&shared);
            ws.iter_mut()
                .enumerate()
                .filter_map(|(i, w)| w.handle.take().map(|h| (i, h)))
                .collect()
        };
        if pending.is_empty() {
            break;
        }
        for (id, h) in pending {
            let _ = h.join();
            let mut ws = lock_workers(&shared);
            if ws[id].status == Status::Running {
                ws[id].status = Status::Done;
            }
        }
    }
    // Drain the mailbox so late Exited events don't keep handles queued.
    while rx.try_recv().is_ok() {}
    shared.changed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use gravel_telemetry::TelemetryConfig;

    fn sup(max_restarts: u32) -> (Supervisor, Arc<ErrorSlot>, Arc<Registry>) {
        let errors = Arc::new(ErrorSlot::default());
        let registry = Arc::new(Registry::new(TelemetryConfig::Counters));
        let cfg = SupervisorConfig {
            max_restarts,
            restart_window: Duration::from_secs(5),
            backoff: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
        };
        (Supervisor::new(cfg, errors.clone(), registry.clone()), errors, registry)
    }

    #[test]
    fn clean_exit_is_not_restarted() {
        let (s, errors, registry) = sup(5);
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        s.spawn("w".into(), WorkerKind::Net, 0, Arc::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        s.join_kind(WorkerKind::Net);
        s.stop();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(!errors.is_set());
        assert_eq!(registry.snapshot().counter("ha.restarts"), 0);
    }

    #[test]
    fn panics_restart_until_success() {
        let (s, errors, registry) = sup(5);
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        s.spawn("w".into(), WorkerKind::Aggregator, 3, Arc::new(move || {
            // Panic twice, then exit cleanly.
            if r.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
        }));
        s.join_kind(WorkerKind::Aggregator);
        s.stop();
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        assert!(!errors.is_set(), "transient failures absorbed");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ha.restarts"), 2);
        assert_eq!(snap.counter("node3.ha.restarts"), 2);
        assert_eq!(snap.histogram("ha.recovery_ns").map(|h| h.count), Some(2));
    }

    #[test]
    fn budget_exhaustion_escalates_last_panic() {
        let (s, errors, registry) = sup(2);
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        s.spawn("gravel-net-7".into(), WorkerKind::Net, 7, Arc::new(move || {
            let n = r.fetch_add(1, Ordering::SeqCst);
            panic!("persistent failure #{n}");
        }));
        s.join_kind(WorkerKind::Net);
        s.stop();
        assert_eq!(runs.load(Ordering::SeqCst), 3, "original + 2 restarts");
        match errors.take() {
            Some(RuntimeError::WorkerPanic { thread, message }) => {
                assert_eq!(thread, "gravel-net-7");
                assert!(message.contains("persistent failure #2"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(registry.snapshot().counter("ha.restarts"), 2);
    }

    #[test]
    fn zero_budget_is_terminal_on_first_panic() {
        let (s, errors, _) = sup(0);
        s.spawn("w".into(), WorkerKind::Net, 0, Arc::new(|| panic!("boom")));
        s.join_kind(WorkerKind::Net);
        s.stop();
        assert!(errors.is_set());
    }

    #[test]
    fn all_workers_joined_even_after_multiple_failures() {
        let (s, errors, _) = sup(0);
        // Two workers panic, a third exits cleanly; stop() must join all
        // three without hanging and both panics must be observed (first
        // recorded, second dropped by first-failure-wins).
        s.spawn("a".into(), WorkerKind::Aggregator, 0, Arc::new(|| panic!("first")));
        s.spawn("b".into(), WorkerKind::Net, 1, Arc::new(|| panic!("second")));
        s.spawn("c".into(), WorkerKind::Net, 2, Arc::new(|| {}));
        s.join_kind(WorkerKind::Aggregator);
        s.join_kind(WorkerKind::Net);
        s.stop();
        assert!(errors.is_set());
    }

    #[test]
    fn no_restart_once_cluster_failed() {
        let (s, errors, registry) = sup(5);
        errors.set(RuntimeError::WorkerPanic { thread: "x".into(), message: "prior".into() });
        s.spawn("w".into(), WorkerKind::Net, 0, Arc::new(|| panic!("late")));
        s.join_kind(WorkerKind::Net);
        s.stop();
        assert_eq!(registry.snapshot().counter("ha.restarts"), 0);
    }
}
