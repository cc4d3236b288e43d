//! Fault-model, retry, and transport-selection configuration.

use std::time::Duration;

use crate::partition::LinkFault;

/// Which fabric the runtime should build.
#[derive(Clone, Debug, Default)]
pub enum TransportKind {
    /// In-memory bounded channels with no injected faults (the behaviour
    /// of the original hardwired fabric). The delivery protocol still
    /// runs — sequence numbers and acks flow — but nothing is ever
    /// dropped, duplicated, or reordered.
    #[default]
    Reliable,
    /// The reliable fabric wrapped in
    /// [`UnreliableTransport`](crate::UnreliableTransport)
    /// (crate-level docs) with this fault model.
    Unreliable(FaultConfig),
}

/// Seeded per-link fault model for
/// [`UnreliableTransport`](crate::UnreliableTransport).
///
/// Each ordered cross-node link `(src, dest)` gets its own RNG derived
/// from `seed`, so a fixed seed reproduces the exact same fault pattern
/// for a given traffic order on each link regardless of cluster size or
/// scheduling of other links.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Base seed for all per-link RNGs.
    pub seed: u64,
    /// Probability a data packet is silently dropped.
    pub drop: f64,
    /// Probability a data packet is delivered twice.
    pub duplicate: f64,
    /// Probability a data packet is held back (delayed past later
    /// packets on the same link — the reordering mechanism).
    pub reorder: f64,
    /// Maximum extra latency for held-back packets; also the jitter
    /// bound applied to every delayed delivery.
    pub jitter: Duration,
    /// If nonzero, every link independently goes down once per period
    /// (phase-shifted per link so outages do not align cluster-wide).
    pub link_down_period: Duration,
    /// Length of each link-down window; packets and acks sent into a
    /// down link are dropped.
    pub link_down_len: Duration,
    /// Probability a data frame has 1–3 random bits flipped in flight.
    /// Also the probability an ack frame is bit-flipped on the reverse
    /// path.
    pub corrupt: f64,
    /// Probability a data frame is cut short at a random byte boundary.
    pub truncate: f64,
    /// Probability a data frame is replaced wholesale by random junk
    /// bytes (a babbling fabric).
    pub garbage: f64,
    /// Probability a data frame's *routing stamp* is rewritten so it
    /// lands at the wrong node with its contents (and CRC) intact.
    pub misroute: f64,
    /// Probability a data packet is held back by `delay` +
    /// seeded jitter in `[0, jitter)` — a latency fault, independent of
    /// the `reorder` knob (which injects jitter-only holds).
    pub delay_prob: f64,
    /// Base extra latency for `delay_prob` holds.
    pub delay: Duration,
    /// Declarative connectivity faults (symmetric partitions, one-way
    /// drops, per-link delays) evaluated against time since the
    /// transport was built — see [`LinkFault`]. These affect every
    /// traffic class: data, acks, and heartbeats.
    pub link_faults: Vec<LinkFault>,
}

impl FaultConfig {
    /// A fault model that only drops packets, with probability `drop`.
    pub fn drop_only(seed: u64, drop: f64) -> Self {
        FaultConfig { seed, drop, ..FaultConfig::quiet(seed) }
    }

    /// All fault probabilities zero (useful as a `..` base).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter: Duration::from_micros(300),
            link_down_period: Duration::ZERO,
            link_down_len: Duration::ZERO,
            corrupt: 0.0,
            truncate: 0.0,
            garbage: 0.0,
            misroute: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            link_faults: Vec::new(),
        }
    }

    /// The corruption mix used by the wire-integrity tests and the
    /// fault_sweep corruption cells: bit flips at `p`, truncation and
    /// garbage at `p/2`, misroutes at `p/4`.
    pub fn corrupting(seed: u64, p: f64) -> Self {
        FaultConfig {
            corrupt: p,
            truncate: p / 2.0,
            garbage: p / 2.0,
            misroute: p / 4.0,
            ..FaultConfig::quiet(seed)
        }
    }

    /// The stress mix used by the fault-matrix tests: drop + duplicate +
    /// reorder all enabled at `p`, `2·p/3`, and `p` respectively.
    pub fn mixed(seed: u64, p: f64) -> Self {
        FaultConfig {
            seed,
            drop: p,
            duplicate: p * 2.0 / 3.0,
            reorder: p,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Validate probability ranges; panics on nonsense.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
            ("truncate", self.truncate),
            ("garbage", self.garbage),
            ("misroute", self.misroute),
            ("delay_prob", self.delay_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "fault probability `{name}` = {p} out of [0, 1]");
        }
        if !self.link_down_period.is_zero() {
            assert!(
                self.link_down_len < self.link_down_period,
                "link_down_len must be shorter than link_down_period"
            );
        }
        if self.delay_prob > 0.0 {
            assert!(
                !self.delay.is_zero() || !self.jitter.is_zero(),
                "delay_prob without a delay or jitter bound does nothing"
            );
        }
    }
}

/// Sender-side delivery/retry tuning (selective repeat clocked by acks,
/// with a backstop timer).
#[derive(Clone, Debug)]
pub struct RetryConfig {
    /// Maximum packets in flight per (lane, destination) flow that the
    /// receiver has not reported, cumulatively or in an ack's map; a
    /// full window stalls the sender (counted as backpressure). With
    /// the reported ones a flow keeps at most two windows past the
    /// cumulative point. At most the map's 64
    /// (`GravelConfig::validate`).
    pub window: usize,
    /// Initial backoff of the backstop retransmit timer (tail loss, a
    /// silent peer — a loss a later ack can expose never waits for it).
    /// Doubles on every expiry without progress, up to
    /// [`backoff_max`](Self::backoff_max).
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive no-progress timer expiries before the flow is
    /// declared dead and shutdown reports `RetryExhausted`.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        // The initial backoff is deliberately far above in-process ack
        // latency (~tens of µs): an expiry should mean the tail of a
        // burst or its acks were genuinely lost, not that the receiver
        // thread was briefly preempted. Worst-case dead-flow detection is
        // 25 + 50 + 100 + 200 + 16·250 ms ≈ 4.4 s, comfortably inside
        // the default quiesce deadlines.
        RetryConfig {
            window: 64,
            backoff: Duration::from_millis(25),
            backoff_max: Duration::from_millis(250),
            max_retries: 20,
        }
    }
}

/// Counters of faults an unreliable transport actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data packets silently dropped (probability faults).
    pub dropped_data: u64,
    /// Acks dropped (probability faults or full mailbox).
    pub dropped_acks: u64,
    /// Heartbeats dropped (probability faults; full-mailbox losses are
    /// not counted — the detector never learns about them by design).
    pub dropped_heartbeats: u64,
    /// Data packets delivered twice.
    pub duplicated: u64,
    /// Data packets held back for jittered delivery.
    pub delayed: u64,
    /// Frames dropped because their link was in a down window.
    pub link_down_drops: u64,
    /// Data frames delivered with 1–3 bits flipped. Corruption counters
    /// count frames that *reached* a receiver mangled (the fabric
    /// accepted them), so they reconcile exactly against the receiver's
    /// integrity-drop counters.
    pub corrupted_data: u64,
    /// Data frames delivered cut short.
    pub truncated_data: u64,
    /// Data frames replaced wholesale with junk bytes.
    pub garbage_data: u64,
    /// Data frames delivered to the wrong node, contents intact.
    pub misrouted_data: u64,
    /// Ack frames delivered with bits flipped (best-effort plane: a
    /// corrupted ack may additionally die in a full mailbox, so
    /// receivers reconcile `<=` against this).
    pub corrupted_acks: u64,
    /// Frames (any plane) dropped by a symmetric partition window.
    pub partition_drops: u64,
    /// Frames (any plane) dropped by a one-way link fault.
    pub oneway_drops: u64,
}

impl FaultStats {
    /// Total injected data-plane losses.
    pub fn total_losses(&self) -> u64 {
        self.dropped_data + self.link_down_drops + self.partition_drops + self.oneway_drops
    }

    /// Total data frames delivered mangled in some way (excludes
    /// misroutes, whose bytes are intact).
    pub fn total_corruptions(&self) -> u64 {
        self.corrupted_data + self.truncated_data + self.garbage_data
    }

    /// True when no fault of any kind fired.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_sane_models() {
        FaultConfig::quiet(1).validate();
        FaultConfig::drop_only(1, 0.1).validate();
        FaultConfig::mixed(1, 0.1).validate();
        FaultConfig::corrupting(1, 0.1).validate();
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn validation_rejects_bad_corruption_probability() {
        FaultConfig { corrupt: -0.5, ..FaultConfig::quiet(1) }.validate();
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn validation_rejects_bad_probability() {
        FaultConfig::drop_only(1, 1.5).validate();
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn validation_rejects_always_down_link() {
        let mut f = FaultConfig::quiet(1);
        f.link_down_period = Duration::from_millis(5);
        f.link_down_len = Duration::from_millis(5);
        f.validate();
    }

    #[test]
    fn fault_stats_helpers() {
        let mut s = FaultStats::default();
        assert!(s.is_clean());
        s.dropped_data = 3;
        s.link_down_drops = 2;
        assert_eq!(s.total_losses(), 5);
        assert!(!s.is_clean());
        s.corrupted_data = 4;
        s.truncated_data = 2;
        s.garbage_data = 1;
        s.misrouted_data = 9;
        assert_eq!(s.total_corruptions(), 7, "misroutes are not byte corruption");
    }
}
