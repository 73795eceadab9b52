//! Property tests for the log-linear histogram invariants: quantile
//! monotonicity, quantiles inside the recorded range, and lossless
//! concurrent recording.

use cdim_obs::Histogram;
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// Ticks are nanoseconds; keep samples under 2^53 ns so the f64 seconds
/// round-trip back to the exact tick value.
const MAX_TICKS: u64 = 5_000_000_000;

fn record_all(hist: &Histogram, ticks: &[u64]) {
    for &t in ticks {
        hist.observe(t as f64 / 1e9);
    }
}

proptest! {
    /// Quantiles never decrease as q increases, and never exceed the max.
    #[test]
    fn quantiles_are_monotone(samples in proptest::collection::vec(0u64..MAX_TICKS, 1..300)) {
        let hist = Histogram::new();
        record_all(&hist, &samples);
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let mut prev = 0.0;
        for &q in &grid {
            let v = hist.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        let max_secs = hist.max_ticks() as f64 / 1e9;
        prop_assert!(hist.quantile(1.0) <= max_secs);
        prop_assert!(hist.quantile(0.99) <= max_secs);
    }

    /// Quantiles always land inside the recorded value range (within the
    /// bucket's bounded relative over-estimate).
    #[test]
    fn quantiles_stay_in_range(samples in proptest::collection::vec(1u64..MAX_TICKS, 1..200)) {
        let hist = Histogram::new();
        record_all(&hist, &samples);
        let min = *samples.iter().min().unwrap() as f64 / 1e9;
        let max = *samples.iter().max().unwrap() as f64 / 1e9;
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = hist.quantile(q);
            // Lower bound: a quantile is at least its bucket's presence,
            // never below the smallest sample's own bucket lower edge
            // (conservatively: never below min / (1 + 1/32) - rounding).
            prop_assert!(v <= max, "quantile({q}) = {v} > max {max}");
            prop_assert!(v >= min * (1.0 - 1.0 / 16.0) - 1e-9, "quantile({q}) = {v} < min {min}");
        }
    }
}

/// Concurrent recording from N threads loses no counts: count, sum, and
/// max all match the single-threaded equivalent exactly.
#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let hist = Arc::new(Histogram::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let hist = Arc::clone(&hist);
        handles.push(thread::spawn(move || {
            for i in 0..PER_THREAD {
                // Distinct deterministic tick values per thread.
                let ticks = t * PER_THREAD + i;
                hist.observe(ticks as f64 / 1e9);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.count(), n);
    assert_eq!(hist.sum_ticks(), n * (n - 1) / 2);
    assert_eq!(hist.max_ticks(), n - 1);
    let total: u64 = hist.sparse_counts().iter().map(|&(_, c)| c).sum();
    assert_eq!(total, n);
}
