//! The lock-free metrics registry.
//!
//! A [`Registry`] owns every named metric of one cluster. Registration
//! (name → handle) takes a mutex, but that is a cold path: components
//! resolve their handles once at construction and then update them with
//! nothing but relaxed atomics. Counters are sharded across cache-line
//! padded cells so concurrent producers (GPU worker threads hammering
//! the offload counters) do not serialize on one line.
//!
//! Every handle is live: the runtime depends on some counters
//! functionally (quiescence offload/apply totals, supervisor restarts),
//! and the paper's Table-5 quantities are read from the rest, so there
//! is no level at which they stop counting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot};
use crate::TelemetryConfig;

/// Counter shard count. Eight padded cells absorb the contention of the
/// small worker-thread pools this runtime spawns (CUs + aggregators +
/// network threads) without bloating every counter to kilobytes.
pub const COUNTER_SHARDS: usize = 8;

/// A cache-line padded atomic cell.
#[repr(align(128))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Returns this thread's stable shard index.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

#[derive(Default)]
struct CounterCore {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl CounterCore {
    fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A monotonically increasing, sharded, relaxed-atomic counter.
///
/// Cloning is cheap (an `Arc` bump); clones observe the same value.
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    /// A counter not attached to any registry. Used by components that
    /// can run standalone, outside a cluster.
    pub fn detached() -> Self {
        Counter(Arc::default())
    }

    /// Add `n` to the counter (relaxed; hot path).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum over shards (exact once writers quiesce).
    pub fn get(&self) -> u64 {
        self.0.sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

#[derive(Default)]
struct GaugeCore {
    value: AtomicI64,
}

/// A last-value-wins instantaneous measurement (queue depth, in-flight
/// window occupancy). Single cell: gauges are set by one writer.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::default())
    }

    /// Record the current value (relaxed; hot path).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Last recorded value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

enum Metric {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

/// A point-in-time copy of every metric in a registry.
///
/// Serializes to one JSON object with `counters`, `gauges`, and
/// `histograms` maps; histograms carry their bucket arrays so snapshots
/// from different nodes (or processes) can be merged loss-free.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value, or 0 when the metric was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, or 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Merge `other` into `self`: counters add, gauges last-wins,
    /// histograms merge bucket-wise. This is how per-node snapshots roll
    /// up into cluster totals.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

impl serde::Serialize for RegistrySnapshot {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("counters".into(), self.counters.serialize()),
            ("gauges".into(), self.gauges.serialize()),
            ("histograms".into(), self.histograms.serialize()),
        ])
    }
}

/// The cluster-wide metric registry. See the module docs.
pub struct Registry {
    config: TelemetryConfig,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A registry built for `config` (which only decides whether the
    /// runtime also traces).
    pub fn new(config: TelemetryConfig) -> Self {
        Registry { config, metrics: Mutex::new(BTreeMap::new()) }
    }

    /// A registry at the default level (counters, no tracing implied).
    pub fn enabled() -> Self {
        Registry::new(TelemetryConfig::Counters)
    }

    /// The config this registry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Resolve (or create) the counter `name`. Same name → same counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m.get(name) {
            Some(Metric::Counter(c)) => Counter(c.clone()),
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let core = Arc::new(CounterCore::default());
                m.insert(name.to_string(), Metric::Counter(core.clone()));
                Counter(core)
            }
        }
    }

    /// Resolve (or create) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m.get(name) {
            Some(Metric::Gauge(g)) => Gauge(g.clone()),
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let core = Arc::new(GaugeCore::default());
                m.insert(name.to_string(), Metric::Gauge(core.clone()));
                Gauge(core)
            }
        }
    }

    /// Resolve (or create) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m.get(name) {
            Some(Metric::Histogram(h)) => Histogram::from_core(h.clone()),
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let core = Arc::new(HistogramCore::new());
                m.insert(name.to_string(), Metric::Histogram(core.clone()));
                Histogram::from_core(core)
            }
        }
    }

    /// Snapshot every registered metric (relaxed reads; quiesce writers
    /// for exact values).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics.lock().unwrap();
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.sum());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.value.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().unwrap().len();
        write!(f, "Registry({:?}, {n} metrics)", self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let r = Registry::enabled();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().counter("x"), 4);
    }

    #[test]
    fn gauges_last_value_wins() {
        let r = Registry::enabled();
        let g = r.gauge("depth");
        g.set(5);
        g.set(-2);
        assert_eq!(g.get(), -2);
        assert_eq!(r.snapshot().gauge("depth"), -2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::enabled();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let a = Registry::enabled();
        let b = Registry::enabled();
        a.counter("n").add(2);
        b.counter("n").add(5);
        a.histogram("h").record(10);
        b.histogram("h").record(20);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.counter("n"), 7);
        assert_eq!(sa.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn concurrent_sharded_increments_lose_nothing() {
        let r = Arc::new(Registry::enabled());
        let c = r.counter("hot");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = Registry::enabled();
        r.counter("a.b").add(7);
        r.gauge("g").set(-1);
        r.histogram("h").record(100);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(json.contains("\"a.b\":7"), "{json}");
        assert!(json.contains("\"g\":-1"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
    }
}
