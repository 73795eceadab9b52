//! Mergeable log-linear latency histograms with lock-free recording.
//!
//! # Design
//!
//! Samples are nonnegative seconds (`f64`). On record they are converted to
//! integer nanosecond "ticks" (`round(v * 1e9)`, saturating) and bucketed
//! HDR-style: values below `M = 2^SUB_BITS` ticks get exact unit buckets,
//! and every power-of-two range above that is split into `M` linear
//! sub-buckets, giving a worst-case relative error of `1/M` (~3% with
//! `SUB_BITS = 5`) across the full `u64` range. Each bucket is an
//! `AtomicU64` bumped with a relaxed `fetch_add`; the running sum is a
//! relaxed `fetch_add` of ticks and the running max a relaxed `fetch_max`
//! (for nonnegative values, `f64`-as-ticks integer order equals numeric
//! order). Recording is therefore wait-free and, because every internal
//! quantity is an integer, merging two histograms is *exactly* equal to
//! recording the concatenated sample streams — no float re-association.
//!
//! Readout walks the bucket array once, reporting each quantile as its
//! bucket's upper bound (clamped to the exact observed max), so
//! `p50 <= p90 <= p99 <= max` always holds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Linear sub-buckets per power-of-two range, as a bit count.
const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power-of-two range.
const M: u64 = 1 << SUB_BITS;
/// Total bucket count: `M` unit buckets plus `M` per remaining exponent.
const NUM_BUCKETS: usize = (M as usize) * (64 - SUB_BITS as usize + 1);

/// Ticks per second: samples are recorded with nanosecond resolution.
const TICKS_PER_SEC: f64 = 1e9;

/// Convert a sample in seconds to integer ticks (saturating, NaN -> 0).
#[inline]
fn to_ticks(secs: f64) -> u64 {
    // `as` casts from f64 saturate (and map NaN to 0) in Rust, which is
    // exactly the behaviour we want at the extremes.
    (secs.max(0.0) * TICKS_PER_SEC).round() as u64
}

/// Bucket index for a tick value.
#[inline]
fn bucket_index(t: u64) -> usize {
    if t < M {
        t as usize
    } else {
        let exp = 63 - t.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (t >> shift) - M;
        ((exp - SUB_BITS + 1) as u64 * M + sub) as usize
    }
}

/// Inclusive upper bound (in ticks) of the bucket at `index`.
fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < M {
        i
    } else {
        let b = i / M;
        let exp = b - 1 + SUB_BITS as u64;
        let sub = i % M;
        let shift = exp - SUB_BITS as u64;
        let lower = (M + sub) << shift;
        let width = 1u64 << shift;
        lower + (width - 1)
    }
}

/// A fixed-size log-linear histogram of nonnegative durations in seconds.
///
/// See the module docs for the bucketing scheme. All recording paths are
/// lock-free relaxed atomics; snapshots are relaxed loads and
/// may tear *across* buckets under concurrent writes (each individual
/// bucket is still exact), which is the standard trade for wait-free
/// recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum_ticks: AtomicU64,
    max_ticks: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        // Build on the heap without materialising a stack array first.
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = (0..NUM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .expect("bucket count mismatch");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum_ticks: AtomicU64::new(0),
            max_ticks: AtomicU64::new(0),
        }
    }

    /// Record one sample, in seconds. Negative and NaN samples clamp to 0.
    #[inline]
    pub fn observe(&self, secs: f64) {
        let t = to_ticks(secs);
        self.buckets[bucket_index(t)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ticks.fetch_add(t, Ordering::Relaxed);
        self.max_ticks.fetch_max(t, Ordering::Relaxed);
    }

    /// Start a span: returns a guard that records the elapsed wall time
    /// into this histogram when dropped.
    pub fn start_span(self: &Arc<Self>) -> SpanGuard {
        SpanGuard { hist: Arc::clone(self), started: Instant::now() }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact running sum, in integer ticks (test invariant hook).
    pub fn sum_ticks(&self) -> u64 {
        self.sum_ticks.load(Ordering::Relaxed)
    }

    /// Exact running max, in integer ticks (test invariant hook).
    pub fn max_ticks(&self) -> u64 {
        self.max_ticks.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(index, count)` pairs (test hook).
    pub fn sparse_counts(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n != 0).then_some((i, n))
            })
            .collect()
    }

    /// Value (seconds) at quantile `q` in `[0, 1]`, or 0.0 when empty.
    ///
    /// Reported as the containing bucket's upper bound, clamped to the
    /// exact observed max — so quantiles are monotone in `q` and never
    /// exceed the max.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let max = self.max_ticks();
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(max) as f64 / TICKS_PER_SEC;
            }
        }
        max as f64 / TICKS_PER_SEC
    }

    /// One-pass snapshot of count, sum, max, and the standard quantiles.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum_ticks() as f64 / TICKS_PER_SEC,
            max: self.max_ticks() as f64 / TICKS_PER_SEC,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time readout of a [`Histogram`]: sample count, sum and max in
/// seconds, and the p50/p90/p99 quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, seconds.
    pub sum: f64,
    /// Largest sample, seconds.
    pub max: f64,
    /// Median, seconds.
    pub p50: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
}

/// RAII scoped timer returned by [`Histogram::start_span`]; records the
/// elapsed wall time (seconds) into its histogram on drop.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Arc<Histogram>,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.observe(self.started.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for exp in 0..64u32 {
            let t = 1u64 << exp;
            for probe in [t, t + t / 3, t + t / 2] {
                let i = bucket_index(probe);
                assert!(i < NUM_BUCKETS, "index {i} out of range for t={probe}");
                assert!(i >= prev, "index not monotone at t={probe}");
                prev = i;
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(M - 1), (M - 1) as usize);
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for t in [0u64, 1, 31, 32, 33, 100, 1_000_000, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(t);
            assert!(bucket_upper(i) >= t, "upper({i}) < t={t}");
            if i + 1 < NUM_BUCKETS {
                assert!(bucket_upper(i) < bucket_upper(i + 1));
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for t in [100u64, 12_345, 1_000_000, 123_456_789, u64::MAX / 3] {
            let upper = bucket_upper(bucket_index(t));
            let err = (upper - t) as f64 / t as f64;
            assert!(err <= 1.0 / M as f64 + 1e-12, "err {err} too large at t={t}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn single_sample_quantiles_hit_the_sample() {
        let h = Histogram::new();
        h.observe(0.125);
        let s = h.summary();
        assert_eq!(s.count, 1);
        // max is exact; quantiles clamp to it.
        assert_eq!(s.max, 0.125);
        assert_eq!(s.p50, 0.125);
        assert_eq!(s.p99, 0.125);
        assert!((s.sum - 0.125).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_ordered_on_spread_data() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-4);
        }
        let s = h.summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p50 of 0.1ms..100ms uniform should land near 50ms within bucket error.
        assert!((s.p50 - 0.05).abs() / 0.05 < 2.0 / M as f64 + 0.01, "p50={}", s.p50);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        let h = Histogram::new();
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ticks(), 0);
        assert_eq!(h.max_ticks(), 0);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let h = Arc::new(Histogram::new());
        {
            let _span = h.start_span();
        }
        assert_eq!(h.count(), 1);
    }
}
