//! Adaptive lane governor: collapse the dest-hash routing mask to
//! fewer *active* lanes when per-lane fill is low, re-expand under
//! sustained high fill.
//!
//! PR 4's multi-lane aggregator is a straight win for dense flows
//! (GUPS: every queue flushes full, more lanes = more drain
//! bandwidth) and a straight loss for sparse ones (PageRank: thin
//! per-destination flows fragment across lanes, every lane pays its
//! own flush/park overhead, packets shrink). The signal separating
//! the two already exists — the per-destination fill EWMA the
//! adaptive flush tracks — so the governor reuses it at lane
//! granularity:
//!
//! * Each aggregator lane periodically publishes the **max** fill EWMA
//!   across its destination queues ([`LaneGovernor::publish_fill`]);
//!   an idle lane publishes zero.
//! * The decision rule also reads the active rings' **occupancy**
//!   (published-unconsumed slots) directly. The fill EWMA only moves
//!   when a lane gets scheduled and flushes; on an oversubscribed host
//!   a collapsed mask under dense traffic can take tens of
//!   milliseconds to register there, while the ring behind it fills
//!   instantly. The load signal is the max of the two, so expansion
//!   reacts at ring speed and collapse stays conservative (it needs
//!   *both* signals quiet).
//! * Lane 0 (never parked — the mask always includes it) runs the
//!   decision rule ([`LaneGovernor::decide`]) at a bounded cadence:
//!   if the signal across *active* lanes stays above the high-water
//!   mark for `hysteresis` consecutive decisions, the active count
//!   doubles; if it stays below the low-water mark, it halves. A
//!   *saturated* signal (≥ [`SATURATED_SIGNAL`]) skips the streak:
//!   a ring pinned full is unambiguous, and every decision period
//!   spent waiting under a collapsed mask is throughput lost.
//!
//! A governed bank **starts collapsed** at one active lane. Sparse
//! workloads therefore run the (optimal) single-lane configuration
//! from the first message and never pay a fragmentation transient;
//! dense workloads expand to the full lane count within a few decision
//! periods — microseconds against a run measured in milliseconds.
//!
//! Parked lanes need no machinery: a lane whose ring receives no
//! traffic drains its residue and parks on the existing ring wait-cell;
//! re-expansion routes messages at it again, and the producer-side
//! Dekker handshake wakes it. Chaos tick accounting is untouched —
//! kills land at message boundaries whatever the mask says, so
//! restart-exactness is preserved (the lane-sweep chaos tests run with
//! the governor on).
//!
//! **Ordering contract:** per-destination ordering is guaranteed while
//! the mask holds. A transition remaps destinations between lanes, so
//! traffic produced just before and just after it may travel two
//! `(src, lane)` flows concurrently — a bounded reorder
//! window, same relaxation elastic resharding already makes for
//! in-flight traffic (DESIGN.md §16). Gravel's PGAS operations
//! commute; workloads that need strict cross-transition PUT order run
//! with `lane_governor: None` (see DESIGN.md §17).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gravel_telemetry::{Counter, Gauge, Registry};

use crate::rings::ShardedRings;

/// Tuning for the adaptive lane governor. `None` in the runtime config
/// disables it (static mask over all lanes — the PR 4 behavior).
#[derive(Clone, Debug, PartialEq)]
pub struct GovernorConfig {
    /// Collapse when the max active-lane fill EWMA stays below this.
    /// Default 0.25: comfortably under PageRank's ~0.37 steady fill,
    /// so a workload that merely *aggregates poorly* is not bounced
    /// between masks — only a genuinely thin load collapses.
    pub low_fill: f64,
    /// Expand when the max active-lane fill EWMA stays above this.
    /// Default 0.75: GUPS-dense traffic pins fill near 1.0 and clears
    /// it immediately; PageRank never reaches it.
    pub high_fill: f64,
    /// Decision cadence (lane 0 evaluates at most this often).
    pub decide_every: Duration,
    /// Consecutive high decisions required before the mask grows —
    /// the hysteresis that keeps a bursty workload from thrashing the
    /// mask. (A saturated signal skips it; see [`SATURATED_SIGNAL`].)
    pub hysteresis: u32,
    /// Consecutive low decisions required before the mask shrinks.
    /// Deliberately much larger than the expand hysteresis (default 40
    /// ≈ 10 ms of sustained quiet at the default cadence): the low
    /// signal is structurally noisy on an oversubscribed host — an
    /// aggregator that just drained its ring looks idle while the
    /// producer feeding it is merely descheduled — and collapsing
    /// under load costs backpressure, while a late collapse costs
    /// almost nothing (idle lanes park). Decisions are cadence-gated,
    /// so the streak also spans at least `collapse_hysteresis ×
    /// decide_every` of wall clock, giving producers time slices in
    /// which to refill the rings and reset it.
    pub collapse_hysteresis: u32,
}

/// Signal level treated as saturated: expansion skips the hysteresis
/// streak entirely. A ring pinned at ≥ 95 % occupancy under a
/// collapsed mask means producers are already stalling on
/// backpressure — waiting `hysteresis` further decision periods to
/// "confirm" it only converts more of the run into single-lane time.
/// Collapse never uses this fast path; shrinking the mask is the risky
/// direction and always pays the full streak.
pub const SATURATED_SIGNAL: f64 = 0.95;

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            low_fill: 0.25,
            high_fill: 0.75,
            decide_every: Duration::from_micros(250),
            hysteresis: 2,
            collapse_hysteresis: 40,
        }
    }
}

impl GovernorConfig {
    /// Panic on nonsensical tuning (called by config validation).
    pub fn validate(&self) {
        assert!(
            self.low_fill > 0.0 && self.low_fill < self.high_fill && self.high_fill <= 1.0,
            "governor needs 0 < low_fill < high_fill <= 1"
        );
        assert!(!self.decide_every.is_zero(), "governor decision cadence must be nonzero");
        assert!(self.hysteresis >= 1, "governor hysteresis must be >= 1");
        assert!(self.collapse_hysteresis >= 1, "governor collapse hysteresis must be >= 1");
    }
}

/// Shared governor state: per-lane fill signals published by every
/// aggregator lane, decision state driven by lane 0. Lives in
/// `NodeShared` so lane restarts (chaos kills) resume with the streaks
/// and mask intact.
pub struct LaneGovernor {
    cfg: GovernorConfig,
    lanes: usize,
    /// Per-lane fill signal in milli-units (0..=1000).
    fills: Box<[AtomicU64]>,
    expand_streak: AtomicU32,
    collapse_streak: AtomicU32,
    /// Decision clock: monotonic nanos (since `start`) before which
    /// `decide` is a no-op.
    start: Instant,
    next_decide_ns: AtomicU64,
    expands: Counter,
    collapses: Counter,
    active_gauge: Gauge,
}

impl LaneGovernor {
    /// Governor for `lanes` lanes with detached telemetry.
    pub fn new(cfg: GovernorConfig, lanes: usize) -> Self {
        Self::build(cfg, lanes, Counter::detached(), Counter::detached(), Gauge::detached())
    }

    /// Governor whose `gov.expands` / `gov.collapses` /
    /// `gov.active_lanes` metrics live in `registry` under `prefix`
    /// (e.g. `"node0"`).
    pub fn bound(cfg: GovernorConfig, lanes: usize, registry: &Registry, prefix: &str) -> Self {
        Self::build(
            cfg,
            lanes,
            registry.counter(&format!("{prefix}.gov.expands")),
            registry.counter(&format!("{prefix}.gov.collapses")),
            registry.gauge(&format!("{prefix}.gov.active_lanes")),
        )
    }

    fn build(
        cfg: GovernorConfig,
        lanes: usize,
        expands: Counter,
        collapses: Counter,
        active_gauge: Gauge,
    ) -> Self {
        cfg.validate();
        assert!(lanes >= 1);
        active_gauge.set(1);
        LaneGovernor {
            cfg,
            lanes,
            fills: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            expand_streak: AtomicU32::new(0),
            collapse_streak: AtomicU32::new(0),
            start: Instant::now(),
            next_decide_ns: AtomicU64::new(0),
            expands,
            collapses,
            active_gauge,
        }
    }

    /// The tuning in force.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Publish lane `lane`'s current load signal (its queues' max fill
    /// EWMA, or 0 when fully idle). Called from the lane's own loop.
    pub fn publish_fill(&self, lane: usize, fill: f64) {
        if let Some(f) = self.fills.get(lane) {
            f.store((fill.clamp(0.0, 1.0) * 1000.0) as u64, Ordering::Relaxed);
        }
    }

    /// Lane `lane`'s last published signal (telemetry/tests).
    pub fn fill(&self, lane: usize) -> f64 {
        self.fills.get(lane).map_or(0.0, |f| f.load(Ordering::Relaxed) as f64 / 1000.0)
    }

    /// Evaluate the mask, rate-limited to the configured cadence.
    /// Called by lane 0 once per drain-loop iteration and by producers
    /// after each full slot they publish; cheap when the cadence has
    /// not elapsed. Returns the new active count if the mask moved.
    ///
    /// Producers matter on an oversubscribed host: a lane-0 consumer
    /// can sit descheduled for tens of milliseconds while a dense burst
    /// backs its ring up, but the producer filling that ring is running
    /// by definition — it sees the saturation first. Mask transitions
    /// CAS ([`ShardedRings::transition_active_lanes`]), so a racing
    /// pair of deciders moves the mask once, never backward.
    pub fn decide(&self, rings: &ShardedRings, now: Instant) -> Option<usize> {
        let t = now.saturating_duration_since(self.start).as_nanos() as u64;
        if t < self.next_decide_ns.load(Ordering::Relaxed) {
            return None;
        }
        // The cadence gate is check-then-store over two relaxed atomics:
        // with several deciders a pair can slip through one period
        // together. That only makes the cadence approximate, and the
        // transition CAS keeps the outcome single-move.
        self.next_decide_ns
            .store(t + self.cfg.decide_every.as_nanos() as u64, Ordering::Relaxed);
        self.decide_now(rings)
    }

    /// The decision rule without the cadence gate (tests drive this
    /// directly).
    pub fn decide_now(&self, rings: &ShardedRings) -> Option<usize> {
        let active = rings.active_lanes();
        let fill = (0..active.min(self.lanes))
            .map(|l| self.fills[l].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0) as f64
            / 1000.0;
        // Upstream backpressure, read at decision time: occupancy of
        // the rings the active mask routes into. Unlike the fill EWMA
        // (which needs a lane to run and flush before it moves), this
        // reflects a saturated collapsed mask within one decision
        // period.
        let slots = rings.config().slots as f64;
        let occupancy = (0..active.min(self.lanes))
            .map(|l| rings.ring(l).backlog() as f64 / slots)
            .fold(0.0, f64::max)
            .min(1.0);
        let signal = fill.max(occupancy);
        if signal >= self.cfg.high_fill && active < self.lanes {
            self.collapse_streak.store(0, Ordering::Relaxed);
            let streak = self.expand_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= self.cfg.hysteresis || signal >= SATURATED_SIGNAL {
                self.expand_streak.store(0, Ordering::Relaxed);
                let next = (active * 2).min(self.lanes);
                if !rings.transition_active_lanes(active, next) {
                    return None; // lost the race to a concurrent decider
                }
                self.expands.inc();
                self.active_gauge.set(next as i64);
                return Some(next);
            }
        } else if signal <= self.cfg.low_fill && active > 1 {
            self.expand_streak.store(0, Ordering::Relaxed);
            let streak = self.collapse_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= self.cfg.collapse_hysteresis {
                self.collapse_streak.store(0, Ordering::Relaxed);
                let next = (active / 2).max(1);
                if !rings.transition_active_lanes(active, next) {
                    return None; // lost the race to a concurrent decider
                }
                self.collapses.inc();
                self.active_gauge.set(next as i64);
                return Some(next);
            }
        } else {
            self.expand_streak.store(0, Ordering::Relaxed);
            self.collapse_streak.store(0, Ordering::Relaxed);
        }
        None
    }
}

impl std::fmt::Debug for LaneGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneGovernor")
            .field("lanes", &self.lanes)
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::{Message, QueueConfig, QueueStats};
    use gravel_telemetry::Tracer;

    fn governed_bank(lanes: usize) -> ShardedRings {
        ShardedRings::with_telemetry(
            QueueConfig { slots: 8, lane_width: 4, rows: 4 },
            lanes,
            true,
            QueueStats::default(),
            Tracer::disabled(),
            0,
        )
    }

    #[test]
    fn sustained_high_fill_expands_to_all_lanes() {
        let rings = governed_bank(4);
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        assert_eq!(rings.active_lanes(), 1);
        // 0.8 sits above the high-water mark but below saturation, so
        // the full hysteresis applies: first decision arms, second
        // moves. 1→2→4.
        gov.publish_fill(0, 0.8);
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), Some(2));
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), Some(4));
        assert_eq!(rings.active_lanes(), 4);
        // Fully expanded: further high fill is a no-op.
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), None);
    }

    #[test]
    fn saturated_signal_skips_the_expand_streak() {
        let rings = governed_bank(4);
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        // A pinned signal expands on every decision — no arming step.
        gov.publish_fill(0, 1.0);
        assert_eq!(gov.decide_now(&rings), Some(2));
        gov.publish_fill(1, 1.0);
        assert_eq!(gov.decide_now(&rings), Some(4));
        assert_eq!(rings.active_lanes(), 4);
    }

    #[test]
    fn ring_backpressure_expands_without_a_flush() {
        // 32 slots divide to 8 per ring (the bank splits the budget).
        let rings = ShardedRings::with_telemetry(
            QueueConfig { slots: 32, lane_width: 4, rows: 4 },
            4,
            true,
            QueueStats::default(),
            Tracer::disabled(),
            0,
        );
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        // No lane has flushed yet (no fill was ever published), but the
        // collapsed ring is backing up: occupancy alone carries the
        // signal. 6 of 8 slots = 0.75 — high water, below saturation.
        for _ in 0..6 {
            rings.produce_one(0, &Message::inc(0, 0, 1).encode());
        }
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), Some(2));
        assert_eq!(rings.active_lanes(), 2);
    }

    #[test]
    fn sustained_low_fill_collapses_back() {
        let rings = governed_bank(4);
        let cfg = GovernorConfig { collapse_hysteresis: 2, ..Default::default() };
        let gov = LaneGovernor::new(cfg, 4);
        rings.set_active_lanes(4);
        for l in 0..4 {
            gov.publish_fill(l, 0.05);
        }
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), Some(2));
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), Some(1));
        assert_eq!(rings.active_lanes(), 1);
        assert_eq!(gov.decide_now(&rings), None, "cannot collapse below one lane");
    }

    #[test]
    fn collapse_hysteresis_is_asymmetric_and_resets_on_load() {
        let rings = governed_bank(4);
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        rings.set_active_lanes(4);
        gov.publish_fill(0, 0.05);
        // Default collapse hysteresis (40) holds through a long quiet
        // spell an expand streak (2) would already have acted on…
        for _ in 0..39 {
            assert_eq!(gov.decide_now(&rings), None);
        }
        // …and one busy reading arms it back to zero.
        gov.publish_fill(0, 0.5);
        assert_eq!(gov.decide_now(&rings), None);
        gov.publish_fill(0, 0.05);
        for _ in 0..39 {
            assert_eq!(gov.decide_now(&rings), None);
        }
        assert_eq!(rings.active_lanes(), 4, "mask held through both spells");
        assert_eq!(gov.decide_now(&rings), Some(2), "40th consecutive low reading moves it");
    }

    #[test]
    fn mid_band_fill_holds_the_mask_and_resets_streaks() {
        let rings = governed_bank(4);
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        // PageRank-like: ~0.37 fill sits between the water marks.
        gov.publish_fill(0, 0.37);
        for _ in 0..16 {
            assert_eq!(gov.decide_now(&rings), None);
        }
        assert_eq!(rings.active_lanes(), 1, "sparse load never fragments");
        // An interrupted streak must not carry over (0.8: high water
        // without the saturation fast path).
        gov.publish_fill(0, 0.8);
        assert_eq!(gov.decide_now(&rings), None); // arms
        gov.publish_fill(0, 0.5);
        assert_eq!(gov.decide_now(&rings), None); // resets
        gov.publish_fill(0, 0.8);
        assert_eq!(gov.decide_now(&rings), None, "streak restarted from zero");
        assert_eq!(gov.decide_now(&rings), Some(2));
    }

    #[test]
    fn signal_reads_only_active_lanes() {
        let rings = governed_bank(4);
        let gov = LaneGovernor::new(GovernorConfig::default(), 4);
        // A stale high fill on a parked lane must not drive expansion.
        gov.publish_fill(3, 1.0);
        gov.publish_fill(0, 0.1);
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(gov.decide_now(&rings), None);
        assert_eq!(rings.active_lanes(), 1);
    }

    #[test]
    fn decide_respects_the_cadence() {
        let rings = governed_bank(2);
        let cfg = GovernorConfig { decide_every: Duration::from_secs(3600), ..Default::default() };
        let gov = LaneGovernor::new(cfg, 2);
        gov.publish_fill(0, 0.8);
        let now = Instant::now();
        assert_eq!(gov.decide(&rings, now), None); // consumes the first slot
        for _ in 0..8 {
            assert_eq!(gov.decide(&rings, now), None, "cadence not elapsed");
        }
        // The first call armed the streak; nothing further ran.
        assert_eq!(rings.active_lanes(), 1);
    }
}
