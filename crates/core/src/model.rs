//! Convenience facade: train once, then select seeds and predict spread.
//!
//! [`CdModel`] is what a downstream application uses: it bundles the
//! scanned (λ-truncated) credit model for seed selection and the exact
//! evaluator for spread prediction, both built under the learned credit
//! policy.

use crate::compact::CompactSelector;
use crate::policy::CreditPolicy;
use crate::scan::{check_inputs, scan_dags, ScanError};
use crate::spread::CdSpreadEvaluator;
use cdim_actionlog::{ActionLog, PropagationArena, UserId};
use cdim_graph::DirectedGraph;
use cdim_learning::TemporalModel;
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
    /// Instantiates the configured credit policy, learning temporal
    /// parameters from `dags` — a [`PropagationArena`] of the whole
    /// training log, which the caller then hands on to the scan — when
    /// the kind requires them. The one place the [`PolicyKind`] →
    /// [`CreditPolicy`] mapping lives; every training entry point (model,
    /// snapshot build, `cdim` commands) goes through it.
    pub fn build_policy(&self, dags: &PropagationArena<'_>) -> CreditPolicy {
        match self.policy {
            PolicyKind::Uniform => CreditPolicy::Uniform,
            PolicyKind::TimeAware => CreditPolicy::TimeAware(TemporalModel::learn(dags)),
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
    /// Trains the model: checks the inputs, builds the log's propagation
    /// DAGs once, and from them learns temporal parameters (if
    /// requested), precompiles the evaluator and scans the log into the
    /// credit model.
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
        check_inputs(graph, train_log, config.lambda)?;
        Self::from_dags(PropagationArena::build(train_log, graph, train_log.actions()), config)
    }

    /// [`Self::try_train`] on `dags`, the propagation DAGs of the whole
    /// training log, which the caller may first lend to other learners.
    /// Only `config.lambda` can still be rejected here: a log that does
    /// not share its graph's user universe cannot be built into DAGs.
    pub fn from_dags(dags: PropagationArena<'_>, config: CdModelConfig) -> Result<Self, ScanError> {
        check_inputs(dags.graph(), dags.log(), config.lambda)?;
        let policy = config.build_policy(&dags);
        let evaluator = CdSpreadEvaluator::build(&dags, &policy);
        let store = scan_dags(dags, &policy, config.lambda, config.parallelism)?;
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
    use crate::reference::dump_of;
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

    /// Training reads one shared arena; the standalone readers each build
    /// their own. On `flixster_small`, under both policies, λ ∈ {0, 0.001}
    /// and 1 or 2 threads, the trained model's dump equals `scan_with`'s
    /// under the wrapper-learned policy, and `spread` equals a standalone
    /// evaluator's bits on 20 seed sets.
    #[test]
    fn shared_arena_training_equals_the_standalone_readers() {
        let ds = cdim_datagen::presets::flixster_small().generate();
        let (graph, log) = (&ds.graph, &ds.log);
        let mut rng = cdim_util::Rng::seed_from_u64(28);
        let seed_sets: Vec<Vec<u32>> = (0..20)
            .map(|i| (0..=i % 6).map(|_| rng.index(graph.num_nodes()) as u32).collect())
            .collect();
        for policy in [PolicyKind::Uniform, PolicyKind::TimeAware] {
            let standalone = match policy {
                PolicyKind::Uniform => CreditPolicy::Uniform,
                PolicyKind::TimeAware => CreditPolicy::time_aware(graph, log),
            };
            let evaluator = crate::spread::evaluator(graph, log, &standalone);
            for lambda in [0.0, 0.001] {
                let scanned =
                    crate::scan_with(graph, log, &standalone, lambda, Parallelism::single());
                let want = dump_of(&scanned.unwrap());
                for threads in [1, 2] {
                    let parallelism = Parallelism::fixed(threads);
                    let config = CdModelConfig { policy, lambda, parallelism };
                    let model = CdModel::train(graph, log, config);
                    assert!(dump_of(model.store()) == want, "{config:?}");
                    for seeds in &seed_sets {
                        let (got, want) = (model.spread(seeds), evaluator.spread(seeds));
                        assert_eq!(got.to_bits(), want.to_bits(), "{config:?}, seeds {seeds:?}");
                    }
                }
            }
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
