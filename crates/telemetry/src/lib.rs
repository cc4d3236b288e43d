//! # gravel-telemetry — unified observability for the Gravel runtime
//!
//! The paper's evaluation (§8, Table 5) is built on measurements taken
//! *inside* the runtime: the aggregator's polling fraction, average
//! network message size, per-stage latency. This crate is the single
//! substrate for all of them:
//!
//! * [`Registry`] — a lock-free metrics registry of named, sharded
//!   relaxed-atomic [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s (p50/p95/p99/max, mergeable across nodes), cheap
//!   enough to live on the offload / aggregate / apply hot paths.
//! * [`Tracer`] — an event-tracing ring buffer with per-thread writers
//!   and a `chrome://tracing`-compatible JSON exporter; the runtime
//!   plants spans at queue slot handoff, aggregator drain/flush/
//!   retransmit, and network-thread apply.
//!
//! Counters are always live: the runtime depends on some of them
//! functionally (quiescence, supervisor restarts), and the paper's
//! numbers are read from the rest. [`TelemetryConfig`] only decides
//! whether spans are recorded as well.

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use trace::{SpanGuard, TraceEvent, Tracer};

/// How much telemetry the runtime records.
///
/// The default is [`Counters`](TelemetryConfig::Counters): the paper's
/// Table-5 quantities cost a handful of relaxed atomic adds per event
/// (EXPERIMENTS.md "Telemetry levels and harnesses retired" prices them
/// on `gups_simt`). Tracing is opt-in because span buffers grow with
/// the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryConfig {
    /// Counters, gauges, and histograms; no span tracing. The default.
    #[default]
    Counters,
    /// Counters plus chrome-trace span recording
    /// ([`Tracer::export_chrome_json`] exports the result).
    CountersAndTrace,
}

impl TelemetryConfig {
    /// Whether spans record.
    pub fn trace_enabled(&self) -> bool {
        matches!(self, TelemetryConfig::CountersAndTrace)
    }

    /// Build the matching tracer ([`Tracer::disabled`] unless tracing
    /// is on).
    pub fn tracer(&self) -> Tracer {
        if self.trace_enabled() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_gates() {
        assert!(!TelemetryConfig::Counters.trace_enabled());
        assert!(TelemetryConfig::CountersAndTrace.trace_enabled());
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::Counters);
        assert!(!TelemetryConfig::Counters.tracer().is_enabled());
        assert!(TelemetryConfig::CountersAndTrace.tracer().is_enabled());
    }
}
