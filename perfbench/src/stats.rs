//! Order statistics with the benchmark's sample-count rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
#[cfg(test)]
fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| n - ((q * n as f64).ceil() as usize) >= MIN_BEYOND).expect("unbounded search")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly ten samples (91..=100) above.
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        // p99 would leave one sample beyond: refused.
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..99], 0.90), None);
        assert_eq!(percentile(&samples, 0.50), Some(50.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples[..999], 0.99), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q);
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&samples, q).is_some());
            assert!(percentile(&samples[..n - 1], q).is_none());
        }
    }
}
