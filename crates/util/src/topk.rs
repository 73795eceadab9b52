//! Top-k selection by a float score.
//!
//! The HighDegree and PageRank baselines (Fig 6) and several diagnostics
//! need "the k items with the largest score". A bounded min-heap gives
//! O(n log k) instead of a full O(n log n) sort.

use crate::ord::OrdF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Returns the indices of the `k` largest scores, best first.
///
/// Ties are broken toward the smaller index so output is deterministic.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    // Min-heap of (score, Reverse(index)): the weakest kept item is on top;
    // Reverse(index) means that among equal scores the larger index is
    // evicted first, keeping the smaller ones.
    let mut heap: BinaryHeap<Reverse<(OrdF64, Reverse<usize>)>> = BinaryHeap::with_capacity(k + 1);
    for (i, &s) in scores.iter().enumerate() {
        heap.push(Reverse((OrdF64(s), Reverse(i))));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<(OrdF64, Reverse<usize>)> = heap.into_iter().map(|Reverse(p)| p).collect();
    out.sort_by(|a, b| b.cmp(a));
    out.into_iter().map(|(_, Reverse(i))| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_largest_in_order() {
        let scores = [0.1, 5.0, 3.0, 4.0, 2.0];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
    }

    #[test]
    fn k_larger_than_n_returns_all_sorted() {
        let scores = [1.0, 3.0, 2.0];
        assert_eq!(top_k_indices(&scores, 10), vec![1, 2, 0]);
    }

    #[test]
    fn k_zero_and_empty() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn ties_prefer_smaller_index() {
        let scores = [2.0, 2.0, 2.0, 1.0];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        let mut rng = crate::rng::Rng::seed_from_u64(99);
        let scores: Vec<f64> = (0..500).map(|_| rng.f64()).collect();
        let by_heap = top_k_indices(&scores, 25);
        let mut by_sort: Vec<usize> = (0..scores.len()).collect();
        by_sort.sort_by(|&a, &b| OrdF64(scores[b]).cmp(&OrdF64(scores[a])).then(a.cmp(&b)));
        by_sort.truncate(25);
        assert_eq!(by_heap, by_sort);
    }
}
