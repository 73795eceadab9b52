//! The spread-oracle abstraction.
//!
//! Every seed-selection strategy in this workspace asks one question of a
//! model: "what is σ(S)?". Wrapping that in a trait lets the greedy and
//! CELF selectors run unchanged against Monte-Carlo IC/LT estimators, the
//! MIA/LDAG heuristics, or the credit-distribution model.

use cdim_diffusion::mc::CascadeSampler;
use cdim_diffusion::MonteCarloEstimator;
use cdim_graph::NodeId;

/// A model that can evaluate the expected influence spread of a seed set.
pub trait SpreadOracle {
    /// Expected spread σ(S). Must be monotone in `S` for the greedy
    /// guarantee to hold; submodularity additionally justifies CELF.
    fn spread(&self, seeds: &[NodeId]) -> f64;

    /// Size of the candidate universe (node ids are `0..universe()`).
    fn universe(&self) -> usize;
}

impl<M: CascadeSampler> SpreadOracle for MonteCarloEstimator<M> {
    fn spread(&self, seeds: &[NodeId]) -> f64 {
        MonteCarloEstimator::spread(self, seeds)
    }

    fn universe(&self) -> usize {
        self.sampler().num_nodes()
    }
}

/// Outcome of a seed-selection run.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Chosen seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// Marginal gain recorded when each seed was chosen (same order).
    pub marginal_gains: Vec<f64>,
    /// Number of oracle spread evaluations performed — the cost driver for
    /// MC-backed oracles (Fig 7) and the quantity CELF reduces.
    pub evaluations: usize,
}

impl Selection {
    /// Total spread claimed by the selection (sum of marginal gains, which
    /// telescopes to σ(S) for an exact oracle).
    pub fn total_gain(&self) -> f64 {
        self.marginal_gains.iter().sum()
    }

    /// Number of seeds selected.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no seed was selected.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

/// A deterministic, additive oracle for tests: σ(S) = Σ_{u∈S} value[u],
/// deduplicated. Monotone and submodular (modular, in fact).
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct AdditiveOracle {
    /// Per-node value.
    pub values: Vec<f64>,
}

#[cfg(test)]
impl SpreadOracle for AdditiveOracle {
    fn spread(&self, seeds: &[NodeId]) -> f64 {
        let mut seen = std::collections::HashSet::new();
        seeds.iter().filter(|&&s| seen.insert(s)).map(|&s| self.values[s as usize]).sum()
    }

    fn universe(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_oracle_sums_and_dedups() {
        let o = AdditiveOracle { values: vec![1.0, 2.0, 4.0] };
        assert_eq!(o.spread(&[0, 2]), 5.0);
        assert_eq!(o.spread(&[1, 1]), 2.0);
        assert_eq!(o.universe(), 3);
    }

    #[test]
    fn selection_total_gain() {
        let s = Selection { seeds: vec![3, 1], marginal_gains: vec![4.0, 2.0], evaluations: 10 };
        assert_eq!(s.total_gain(), 6.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
