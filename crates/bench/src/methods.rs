//! Shared experiment plumbing: dataset preparation and trained methods.
//!
//! A [`Workbench`] owns one generated dataset, its 80/20 split, and every
//! competing method trained on the training half:
//!
//! * ad-hoc IC probability assignments UN / TV / WC (§3),
//! * EM-learned IC probabilities and their perturbation PT,
//! * learned LT weights,
//! * the trained CD model (time-aware credit, λ = 0.001).

use crate::config::ExperimentScale;
use cdim_actionlog::{train_test_split, ActionId, PropagationArena, TrainTestSplit, UserId};
use cdim_core::{CdModel, CdModelConfig};
use cdim_datagen::presets::DatasetSpec;
use cdim_datagen::Dataset;
use cdim_diffusion::{EdgeProbabilities, IcModel, LtModel, McConfig, MonteCarloEstimator};
use cdim_learning::{assign, em::EmConfig, em::EmLearner, lt_weights_of};
use cdim_maxim::ldag::LdagConfig;
use cdim_maxim::mia::MiaConfig;
use cdim_maxim::{celf_select, LdagOracle, MiaOracle};

/// One test propagation trace: who initiated it, how far it actually went.
#[derive(Clone, Debug)]
pub struct TestTrace {
    /// The initiators (first performers among their friends) — the seed
    /// set whose spread each model predicts.
    pub initiators: Vec<UserId>,
    /// Ground-truth spread: the trace's propagation size.
    pub actual: f64,
}

/// A dataset plus every trained competitor.
pub struct Workbench {
    /// The generated dataset.
    pub dataset: Dataset,
    /// 80/20 size-stratified split.
    pub split: TrainTestSplit,
    /// Scaling knobs.
    pub scale: ExperimentScale,
    /// UN probabilities (p = 0.01).
    pub un: EdgeProbabilities,
    /// TV probabilities ({0.1, 0.01, 0.001}).
    pub tv: EdgeProbabilities,
    /// WC probabilities (1/in-degree).
    pub wc: EdgeProbabilities,
    /// EM-learned IC probabilities.
    pub em: EdgeProbabilities,
    /// EM perturbed by ±20%.
    pub pt: EdgeProbabilities,
    /// Learned LT weights (valid: in-sums ≤ 1).
    pub lt: EdgeProbabilities,
    /// Trained CD model.
    pub cd: CdModel,
}

impl Workbench {
    /// Generates the dataset at the requested scale and trains everything.
    pub fn prepare(spec: DatasetSpec, scale: ExperimentScale) -> Self {
        let spec = spec.scaled_down(scale.dataset_divisor);
        let dataset = spec.generate();
        let split = train_test_split(&dataset.log, 5);
        let graph = &dataset.graph;

        let un = assign::uniform(graph, 0.01);
        let tv = assign::trivalency(graph, 0xBEEF);
        let wc = assign::weighted_cascade(graph);
        // One DAG build of the training half, lent to every learner.
        let dags = PropagationArena::build(&split.train, graph, split.train.actions());
        let em = EmLearner::from_dags(&dags).learn(EmConfig::default()).0;
        let pt = assign::perturb(graph, &em, 0.2, 0xFACE);
        let lt = lt_weights_of(&dags);
        let cd =
            CdModel::from_dags(dags, CdModelConfig::default()).expect("a generated split trains");

        Workbench { dataset, split, scale, un, tv, wc, em, pt, lt, cd }
    }

    /// Monte-Carlo configuration at the workbench scale.
    pub fn mc_config(&self) -> McConfig {
        McConfig {
            simulations: self.scale.mc_simulations,
            threads: self.scale.threads,
            base_seed: 0x5EED,
        }
    }

    /// IC spread estimator over arbitrary probabilities.
    pub fn ic_estimator<'a>(
        &'a self,
        probs: &'a EdgeProbabilities,
    ) -> MonteCarloEstimator<IcModel<'a>> {
        MonteCarloEstimator::new(IcModel::new(&self.dataset.graph, probs), self.mc_config())
    }

    /// LT spread estimator over the learned weights.
    pub fn lt_estimator(&self) -> MonteCarloEstimator<LtModel<'_>> {
        MonteCarloEstimator::new(LtModel::new(&self.dataset.graph, &self.lt), self.mc_config())
    }

    /// The test traces (initiators + actual spread), capped by the scale.
    pub fn test_traces(&self) -> Vec<TestTrace> {
        let cap =
            if self.scale.max_test_traces == 0 { usize::MAX } else { self.scale.max_test_traces };
        let test = &self.split.test;
        let traces = 0..test.num_actions().min(cap) as ActionId;
        let dags = PropagationArena::build(test, &self.dataset.graph, traces);
        dags.dags()
            .map(|dag| TestTrace { initiators: dag.initiators(), actual: dag.len() as f64 })
            .collect()
    }

    /// CELF seed selection under IC/MC with the given probabilities.
    pub fn select_ic_mc(&self, probs: &EdgeProbabilities, k: usize) -> Vec<UserId> {
        let est =
            MonteCarloEstimator::new(IcModel::new(&self.dataset.graph, probs), self.mc_config());
        celf_select(&est, k).seeds
    }

    /// CELF seed selection under LT/MC with the learned weights.
    pub fn select_lt_mc(&self, k: usize) -> Vec<UserId> {
        celf_select(&self.lt_estimator(), k).seeds
    }

    /// CELF over the MIA heuristic (the paper's PMIA stand-in for graphs
    /// where MC-greedy is infeasible).
    pub fn select_ic_mia(&self, probs: &EdgeProbabilities, k: usize) -> Vec<UserId> {
        let oracle = MiaOracle::build(&self.dataset.graph, probs, MiaConfig::default());
        celf_select(&oracle, k).seeds
    }

    /// CELF over the LDAG heuristic for LT.
    pub fn select_lt_ldag(&self, k: usize) -> Vec<UserId> {
        let oracle = LdagOracle::build(&self.dataset.graph, &self.lt, LdagConfig::default());
        celf_select(&oracle, k).seeds
    }

    /// CD seed selection (Algorithm 3).
    pub fn select_cd(&self, k: usize) -> Vec<UserId> {
        self.cd.select(k).seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_datagen::presets;

    fn bench() -> Workbench {
        Workbench::prepare(presets::tiny(), ExperimentScale::quick())
    }

    #[test]
    fn prepares_all_methods() {
        let wb = bench();
        let m = wb.dataset.graph.num_edges();
        assert_eq!(wb.un.out_view().len(), m);
        assert_eq!(wb.em.out_view().len(), m);
        assert!(wb.lt.max_in_weight_sum(&wb.dataset.graph) <= 1.0 + 1e-9);
        assert!(wb.cd.store().total_entries() > 0);
    }

    #[test]
    fn test_traces_are_nonempty_with_positive_actuals() {
        let wb = bench();
        let traces = wb.test_traces();
        assert!(!traces.is_empty());
        for t in &traces {
            assert!(!t.initiators.is_empty());
            assert!(t.actual >= t.initiators.len() as f64);
        }
    }

    #[test]
    fn selectors_produce_k_seeds() {
        let wb = bench();
        assert_eq!(wb.select_cd(3).len(), 3);
        assert_eq!(wb.select_ic_mia(&wb.wc, 3).len(), 3);
        assert_eq!(wb.select_lt_ldag(3).len(), 3);
    }

    #[test]
    fn mc_selectors_work_at_tiny_scale() {
        let wb = bench();
        assert_eq!(wb.select_ic_mc(&wb.un, 2).len(), 2);
        assert_eq!(wb.select_lt_mc(2).len(), 2);
    }
}
