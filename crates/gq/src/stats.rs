//! Queue instrumentation.
//!
//! The paper's Figure 6 plots throughput next to *dynamically profiled*
//! atomic operations per work-item, and §8.1 reports that the aggregator's
//! CPU spends 65 % of its time polling. Both require the queues to count
//! their own synchronization events, which this module provides as a block
//! of [`gravel_telemetry::Counter`] handles shared by all queue variants.
//!
//! Standalone queues (benches, unit tests) get detached always-live
//! counters from [`QueueStats::default`]; inside a cluster the runtime
//! builds them with [`QueueStats::bound`] so every count also appears in
//! the node's [`gravel_telemetry::Registry`] under `{prefix}.queue.*`.

use gravel_telemetry::{Counter, Registry};

/// Shared-memory synchronization counters for one queue.
#[derive(Clone, Debug)]
pub struct QueueStats {
    /// Read-modify-write operations issued by producers (reservation
    /// fetch-adds and CAS attempts).
    pub producer_rmws: Counter,
    /// Synchronization loads spent by producers waiting for a slot to
    /// drain (queue-full backpressure).
    pub producer_spins: Counter,
    /// Times a consumer, done with a claim, found producers parked on
    /// the full ring and woke them (a futex wake each; a notify that
    /// finds nobody asleep is not counted).
    pub producer_wakes: Counter,
    /// RMWs issued by consumers (index CAS).
    pub consumer_rmws: Counter,
    /// Polls by consumers that found nothing ready (the aggregator's
    /// "time spent polling" proxy, §8.1).
    pub consumer_empty_polls: Counter,
    /// Polls by consumers that found a slot ready.
    pub consumer_hits: Counter,
    /// Messages enqueued.
    pub messages_produced: Counter,
    /// Messages dequeued.
    pub messages_consumed: Counter,
    /// Slots (or single-message cells) filled.
    pub slots_produced: Counter,
}

impl Default for QueueStats {
    /// Detached, always-recording counters — the standalone-queue mode.
    fn default() -> Self {
        QueueStats {
            producer_rmws: Counter::detached(),
            producer_spins: Counter::detached(),
            producer_wakes: Counter::detached(),
            consumer_rmws: Counter::detached(),
            consumer_empty_polls: Counter::detached(),
            consumer_hits: Counter::detached(),
            messages_produced: Counter::detached(),
            messages_consumed: Counter::detached(),
            slots_produced: Counter::detached(),
        }
    }
}

impl QueueStats {
    /// Counters registered in `registry` under `{prefix}.queue.{field}`
    /// (so per-node queue stats land in the cluster telemetry snapshot).
    /// Honors the registry's `TelemetryConfig`: a disabled registry hands
    /// out dead counters.
    pub fn bound(registry: &Registry, prefix: &str) -> Self {
        let name = |field: &str| format!("{prefix}.queue.{field}");
        QueueStats {
            producer_rmws: registry.counter(&name("producer_rmws")),
            producer_spins: registry.counter(&name("producer_spins")),
            producer_wakes: registry.counter(&name("producer_wakes")),
            consumer_rmws: registry.counter(&name("consumer_rmws")),
            consumer_empty_polls: registry.counter(&name("consumer_empty_polls")),
            consumer_hits: registry.counter(&name("consumer_hits")),
            messages_produced: registry.counter(&name("messages_produced")),
            messages_consumed: registry.counter(&name("messages_consumed")),
            slots_produced: registry.counter(&name("slots_produced")),
        }
    }

    /// Snapshot all counters (relaxed; callers quiesce the queue first for
    /// exact numbers).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            producer_rmws: self.producer_rmws.get(),
            producer_spins: self.producer_spins.get(),
            producer_wakes: self.producer_wakes.get(),
            consumer_rmws: self.consumer_rmws.get(),
            consumer_empty_polls: self.consumer_empty_polls.get(),
            consumer_hits: self.consumer_hits.get(),
            messages_produced: self.messages_produced.get(),
            messages_consumed: self.messages_consumed.get(),
            slots_produced: self.slots_produced.get(),
        }
    }
}

/// A point-in-time copy of [`QueueStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub producer_rmws: u64,
    pub producer_spins: u64,
    pub producer_wakes: u64,
    pub consumer_rmws: u64,
    pub consumer_empty_polls: u64,
    pub consumer_hits: u64,
    pub messages_produced: u64,
    pub messages_consumed: u64,
    pub slots_produced: u64,
}

impl StatsSnapshot {
    /// Producer RMWs per enqueued message — Figure 6's right axis (there,
    /// one message per work-item).
    pub fn rmws_per_message(&self) -> f64 {
        if self.messages_produced == 0 {
            return 0.0;
        }
        self.producer_rmws as f64 / self.messages_produced as f64
    }

    /// Fraction of consumer poll attempts that found nothing — the §8.1
    /// "fraction of time polling" proxy.
    pub fn poll_fraction(&self) -> f64 {
        let total = self.consumer_empty_polls + self.consumer_hits;
        if total == 0 {
            return 0.0;
        }
        self.consumer_empty_polls as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_back_bumps() {
        let s = QueueStats::default();
        s.producer_rmws.add(3);
        s.messages_produced.add(12);
        let snap = s.snapshot();
        assert_eq!(snap.producer_rmws, 3);
        assert_eq!(snap.messages_produced, 12);
        assert!((snap.rmws_per_message() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.rmws_per_message(), 0.0);
        assert_eq!(snap.poll_fraction(), 0.0);
    }

    #[test]
    fn poll_fraction() {
        let s = QueueStats::default();
        s.consumer_empty_polls.add(65);
        s.consumer_hits.add(35);
        assert!((s.snapshot().poll_fraction() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn bound_stats_appear_in_registry() {
        let r = Registry::enabled();
        let s = QueueStats::bound(&r, "node0");
        s.messages_produced.add(9);
        assert_eq!(r.snapshot().counter("node0.queue.messages_produced"), 9);
        // Clones registered under the same prefix share counters.
        let s2 = QueueStats::bound(&r, "node0");
        assert_eq!(s2.messages_produced.get(), 9);
    }
}
