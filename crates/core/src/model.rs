//! Convenience facade: train once, then select seeds and predict spread.
//!
//! [`CdModel`] is what a downstream application uses: it bundles the
//! scanned (λ-truncated) credit model for seed selection and the exact
//! evaluator for spread prediction, both built under the learned credit
//! policy.

use crate::compact::CompactSelector;
use crate::policy::CreditPolicy;
use crate::scan::{scan_with, ScanError};
use crate::spread::CdSpreadEvaluator;
use cdim_actionlog::{ActionLog, UserId};
use cdim_graph::DirectedGraph;
use cdim_maxim::Selection;
use cdim_util::{HeapSize, Parallelism};

/// Which direct-credit policy to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// `γ = 1/d_in(u, a)`.
    Uniform,
    /// Eq 9 with learned `τ` and `infl` (the paper's default in §6).
    TimeAware,
}

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct CdModelConfig {
    /// Direct-credit policy.
    pub policy: PolicyKind,
    /// Truncation threshold λ for the selection model (§5.3; the paper
    /// uses `0.001` in all experiments).
    pub lambda: f64,
    /// Worker threads for the credit scan (the dominant training cost).
    /// Never affects the trained model — the scan is bit-identical for
    /// every thread count — only how fast training finishes.
    pub parallelism: Parallelism,
}

impl Default for CdModelConfig {
    fn default() -> Self {
        CdModelConfig {
            policy: PolicyKind::TimeAware,
            lambda: 0.001,
            parallelism: Parallelism::auto(),
        }
    }
}

impl CdModelConfig {
    /// Instantiates the configured credit policy (learning temporal
    /// parameters from `train_log` when the kind requires them). The one
    /// place the [`PolicyKind`] → [`CreditPolicy`] mapping lives; every
    /// training entry point (model, snapshot build) goes through it.
    pub fn build_policy(&self, graph: &DirectedGraph, train_log: &ActionLog) -> CreditPolicy {
        match self.policy {
            PolicyKind::Uniform => CreditPolicy::Uniform,
            PolicyKind::TimeAware => CreditPolicy::time_aware(graph, train_log),
        }
    }
}

/// A trained credit-distribution model.
///
/// ```
/// use cdim_core::{CdModel, CdModelConfig};
///
/// let dataset = cdim_datagen::presets::tiny().generate();
/// let model = CdModel::train(&dataset.graph, &dataset.log, CdModelConfig::default());
///
/// let selection = model.select(3);
/// assert_eq!(selection.seeds.len(), 3);
/// // The telescoped gains never exceed the exact spread (λ truncation
/// // can only lose credit mass).
/// assert!(selection.total_gain() <= model.spread(&selection.seeds) + 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct CdModel {
    store: CompactSelector,
    evaluator: CdSpreadEvaluator,
}

impl CdModel {
    /// Trains the model: learns temporal parameters (if requested), scans
    /// the log into the credit model, and precompiles the evaluator.
    ///
    /// Panics on invalid inputs; use [`Self::try_train`] where bad data
    /// must be rejected as a value (e.g. inside a serving process).
    pub fn train(graph: &DirectedGraph, train_log: &ActionLog, config: CdModelConfig) -> Self {
        Self::try_train(graph, train_log, config).expect("invalid training inputs")
    }

    /// Fallible variant of [`Self::train`].
    pub fn try_train(
        graph: &DirectedGraph,
        train_log: &ActionLog,
        config: CdModelConfig,
    ) -> Result<Self, ScanError> {
        let policy = config.build_policy(graph, train_log);
        let store = scan_with(graph, train_log, &policy, config.lambda, config.parallelism)?;
        let evaluator = CdSpreadEvaluator::build(graph, train_log, &policy);
        Ok(CdModel { store, evaluator })
    }

    /// The λ-truncated credit model (pre-selection state: no seeds).
    pub fn store(&self) -> &CompactSelector {
        &self.store
    }

    /// Influence maximization: runs Algorithm 3 for `k` seeds.
    ///
    /// Selection runs on an [`crate::OverlaySelector`] over the model's
    /// arena, the engine a served model answers with, so the answer —
    /// seeds and gain bits — equals a served `top_k(k)` of the same model.
    /// The arena is shared until the first committed seed, which copies
    /// the whole credit array (`out_credits`, 8 bytes per entry) into the
    /// overlay's private working copy.
    pub fn select(&self, k: usize) -> Selection {
        self.store.overlay().select(k)
    }

    /// Exact σ_cd(S) — the model's spread prediction for any seed set.
    pub fn spread(&self, seeds: &[UserId]) -> f64 {
        self.evaluator.spread(seeds)
    }
}

impl HeapSize for CdModel {
    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes() + self.evaluator.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    fn instance() -> (DirectedGraph, ActionLog) {
        let graph = GraphBuilder::new(5).edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).build();
        let mut b = ActionLogBuilder::new(5);
        for a in 0..4u32 {
            let mut t = 0.0;
            for u in 0..=(a.min(4)) {
                b.push(u, a, t);
                t += 1.0;
            }
        }
        (graph, b.build())
    }

    #[test]
    fn train_select_spread_round_trip() {
        let (graph, log) = instance();
        let model = CdModel::train(&graph, &log, CdModelConfig::default());
        let sel = model.select(2);
        assert_eq!(sel.seeds.len(), 2);
        let s = model.spread(&sel.seeds);
        assert!(s > 0.0);
        // Selection gains approximate the exact spread (λ truncation may
        // lose a little mass, never gain).
        assert!(sel.total_gain() <= s + 1e-9);
    }

    #[test]
    fn uniform_policy_lambda_zero_is_exact() {
        let (graph, log) = instance();
        let config =
            CdModelConfig { policy: PolicyKind::Uniform, lambda: 0.0, ..Default::default() };
        let model = CdModel::train(&graph, &log, config);
        let sel = model.select(2);
        assert!((model.spread(&sel.seeds) - sel.total_gain()).abs() < 1e-9);
    }

    #[test]
    fn training_parallelism_never_changes_the_model() {
        let (graph, log) = instance();
        let dump = |threads: usize| {
            let config =
                CdModelConfig { parallelism: Parallelism::fixed(threads), ..Default::default() };
            crate::reference::dump_of(CdModel::train(&graph, &log, config).store())
        };
        let baseline = dump(1);
        for threads in [2usize, 8] {
            assert_eq!(dump(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn memory_reporting_is_positive_after_training() {
        let (graph, log) = instance();
        let model = CdModel::train(&graph, &log, CdModelConfig::default());
        assert!(model.store().memory_bytes() > 0);
        assert!(model.heap_bytes() >= model.store().memory_bytes());
    }

    #[test]
    fn select_does_not_consume_model() {
        let (graph, log) = instance();
        let model = CdModel::train(&graph, &log, CdModelConfig::default());
        let a = model.select(1);
        let b = model.select(1);
        assert_eq!(a.seeds, b.seeds);
    }
}
