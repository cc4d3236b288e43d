//! Log-bucketed latency histograms.
//!
//! HDR-style layout: values 0..8 get exact unit buckets; above that,
//! each power of two is split into [`SUB_BUCKETS`] linear sub-buckets,
//! so any recorded value lands in a bucket whose width is at most 1/8 of
//! its lower bound. Quantile estimates report the bucket's *upper*
//! bound, which bounds the relative error one-sided:
//!
//! ```text
//! true_value ≤ estimate ≤ true_value * (1 + 1/SUB_BUCKETS)
//! ```
//!
//! (the property tests in `tests/proptests.rs` assert exactly this).
//! Recording is a single relaxed `fetch_add` plus count/sum/max updates;
//! snapshots are plain bucket arrays, mergeable across nodes without
//! losing samples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the sub-bucket count.
pub const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power of two (relative error bound 1/8).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: 8 exact unit buckets + 61 octaves × 8.
pub const BUCKETS: usize = (SUB_BUCKETS as usize) + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

/// Bucket index of `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB_BUCKETS; // top SUB_BITS bits below the leader
    (SUB_BUCKETS + (exp - SUB_BITS) as u64 * SUB_BUCKETS + mantissa) as usize
}

/// Largest value mapping to bucket `idx` (the quantile representative).
pub fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let b = idx - SUB_BUCKETS;
    let shift = (b / SUB_BUCKETS) as u32;
    let mantissa = b % SUB_BUCKETS;
    let low = (SUB_BUCKETS + mantissa) << shift;
    low + ((1u64 << shift) - 1)
}

pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        // Box the bucket array directly (it is ~4 kB).
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        HistogramCore {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A concurrent log-bucketed histogram handle (cheap to clone).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    pub(crate) fn from_core(core: Arc<HistogramCore>) -> Self {
        Histogram(core)
    }

    /// Record one sample (relaxed atomics; hot path).
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, p99={}, max={})",
            s.count,
            s.p50(),
            s.p99(),
            s.max
        )
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (length [`BUCKETS`]; empty = no samples).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merge `other`'s samples into `self` (bucket-wise addition; no
    /// samples are lost or double-counted).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-quantile sample (`0.0 ≤ q ≤ 1.0`), clamped to the recorded
    /// maximum (which is exact, so no quantile can truly exceed it).
    /// Returns 0 when empty.
    /// One-sided error bound: `true ≤ estimate ≤ true * (1 + 1/8)`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all samples (exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl serde::Serialize for HistogramSnapshot {
    fn serialize(&self) -> serde::Value {
        // Sparse bucket encoding: the full array is ~500 mostly-zero
        // entries; emit (index, count) pairs instead.
        let sparse: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect();
        serde::Value::Object(vec![
            ("count".into(), self.count.serialize()),
            ("sum".into(), self.sum.serialize()),
            ("max".into(), self.max.serialize()),
            ("mean".into(), self.mean().serialize()),
            ("p50".into(), self.p50().serialize()),
            ("p95".into(), self.p95().serialize()),
            ("p99".into(), self.p99().serialize()),
            ("sparse_buckets".into(), sparse.serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [8u64, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "idx {idx} for {v}");
            let high = bucket_high(idx);
            assert!(high >= v, "high {high} < {v}");
            // Relative error bound: high ≤ v * (1 + 1/8).
            assert!(
                high as f64 <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "{v} → {high}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index dropped at {v}");
            last = idx;
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((450..=570).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((980..=1120).contains(&p99), "p99 {p99}");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_preserves_everything() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        for v in 0..100 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 200);
        assert_eq!(s.max, 99_000);
        assert_eq!(s.sum, (0..100u64).sum::<u64>() * 1001);
    }
}
