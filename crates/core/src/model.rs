//! Convenience facade: train once, then select seeds and predict spread.
//!
//! [`CdModel`] is what a downstream application uses: it bundles the
//! learned credit policy, the scanned (λ-truncated) credit store for seed
//! selection, and the exact evaluator for spread prediction.

use crate::compact::CompactSelector;
use crate::policy::CreditPolicy;
use crate::scan::{scan_with, ScanError};
use crate::spread::CdSpreadEvaluator;
use crate::store::CreditStore;
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
    /// Truncation threshold λ for the selection store (§5.3; the paper
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
    config: CdModelConfig,
    policy: CreditPolicy,
    store: CreditStore,
    evaluator: CdSpreadEvaluator,
}

impl CdModel {
    /// Trains the model: learns temporal parameters (if requested), scans
    /// the log into the credit store, and precompiles the evaluator.
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
        Ok(CdModel { config, policy, store, evaluator })
    }

    /// Incremental retraining: folds an append-only batch of new actions
    /// into the trained model — credit store and exact evaluator both —
    /// without rescanning anything already learned. Delta batches run in
    /// parallel under the training [`CdModelConfig::parallelism`].
    ///
    /// The credit policy stays as trained (time-aware `τ`/`infl` are
    /// *not* re-learned — refreshing them would change old actions'
    /// credits and require a full retrain). Under that fixed policy the
    /// extended store's [`CreditStore::dump`] is byte-identical to a
    /// from-scratch scan of the combined log, for every thread count.
    pub fn extend(
        &mut self,
        graph: &DirectedGraph,
        delta: &cdim_actionlog::ActionLogDelta,
    ) -> Result<(), crate::incremental::ExtendError> {
        self.store.apply_delta(graph, delta, &self.policy, self.config.parallelism)?;
        self.evaluator.extend(graph, delta, &self.policy)
    }

    /// Sliding-window retraining: expires an action prefix from the
    /// trained model — credit store and exact evaluator both — without
    /// rescanning anything that survives. `expired` must be the model's
    /// first actions packaged as a delta based at 0 (see
    /// `ActionLog::split_off_prefix`); the expired credits are recomputed
    /// with the scan kernel and checked bit-for-bit before anything is
    /// dropped.
    ///
    /// As with [`extend`](Self::extend) the trained policy stays fixed.
    /// Under that fixed policy the retracted store's
    /// [`CreditStore::dump`] is byte-identical to a from-scratch scan of
    /// just the surviving window, for every thread count.
    pub fn retract(
        &mut self,
        graph: &DirectedGraph,
        expired: &cdim_actionlog::ActionLogDelta,
    ) -> Result<(), crate::incremental::ExtendError> {
        self.store.retract_delta(graph, expired, &self.policy, self.config.parallelism)?;
        self.evaluator.retract(graph, expired)
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> CdModelConfig {
        self.config
    }

    /// The trained credit policy.
    pub fn policy(&self) -> &CreditPolicy {
        &self.policy
    }

    /// The λ-truncated credit store (pre-selection state).
    pub fn store(&self) -> &CreditStore {
        &self.store
    }

    /// The exact spread evaluator.
    pub fn evaluator(&self) -> &CdSpreadEvaluator {
        &self.evaluator
    }

    /// Influence maximization: runs Algorithm 3 for `k` seeds.
    ///
    /// Selection runs on an [`crate::OverlaySelector`] over the store's
    /// arena, the engine a served model answers with, so the answer —
    /// seeds and gain bits — equals a served `top_k(k)` of the same store.
    /// The arena is shared, not copied; the first committed seed copies
    /// only its credit values.
    pub fn select(&self, k: usize) -> Selection {
        CompactSelector::from_store(self.store.clone()).overlay().select(k)
    }

    /// Exact σ_cd(S) — the model's spread prediction for any seed set.
    pub fn spread(&self, seeds: &[UserId]) -> f64 {
        self.evaluator.spread(seeds)
    }

    /// Heap memory of the credit store's arena, in bytes (the quantity
    /// Fig 8 right / Table 4 track).
    pub fn store_memory_bytes(&self) -> usize {
        self.store.memory_bytes()
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
            CdModel::train(&graph, &log, config).store().dump()
        };
        let baseline = dump(1);
        for threads in [2usize, 8] {
            assert_eq!(dump(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn extend_equals_training_on_the_full_log() {
        let (graph, log) = instance();
        // Uniform policy is log-independent, so prefix-trained and
        // full-trained models share it exactly — the extended model must
        // match full training bit for bit.
        let config =
            CdModelConfig { policy: PolicyKind::Uniform, lambda: 0.001, ..Default::default() };
        let full = CdModel::train(&graph, &log, config);
        for split in 0..=log.num_actions() {
            let (prefix, delta) = log.split_at_action(split);
            let mut model = CdModel::train(&graph, &prefix, config);
            model.extend(&graph, &delta).unwrap();
            assert_eq!(model.store().dump(), full.store().dump(), "split {split}");
            let sel = full.select(2);
            assert_eq!(model.select(2).seeds, sel.seeds);
            assert_eq!(
                model.spread(&sel.seeds).to_bits(),
                full.spread(&sel.seeds).to_bits(),
                "split {split}"
            );
        }
    }

    #[test]
    fn retract_equals_training_on_the_window() {
        let (graph, log) = instance();
        // Uniform policy is log-independent, so the full-trained and
        // window-trained models share it exactly — retraction must land
        // bit-for-bit on the window-only model.
        let config =
            CdModelConfig { policy: PolicyKind::Uniform, lambda: 0.001, ..Default::default() };
        for expire in 0..=log.num_actions() {
            let (expired, window) = log.split_off_prefix(expire);
            let mut model = CdModel::train(&graph, &log, config);
            model.retract(&graph, &expired).unwrap();
            let fresh = CdModel::train(&graph, &window, config);
            assert_eq!(model.store().dump(), fresh.store().dump(), "expire {expire}");
            assert_eq!(model.evaluator().num_actions(), fresh.evaluator().num_actions());
            for seeds in [vec![0u32], vec![1, 3], vec![0, 2, 4]] {
                assert_eq!(
                    model.spread(&seeds).to_bits(),
                    fresh.spread(&seeds).to_bits(),
                    "expire {expire}, seeds {seeds:?}"
                );
            }
        }
    }

    #[test]
    fn retract_rejects_non_prefix_batches() {
        let (graph, log) = instance();
        let mut model = CdModel::train(&graph, &log, CdModelConfig::default());
        // A mid-log range is not a prefix (base != 0).
        let not_a_prefix = log.delta_range(1, 3);
        assert!(model.retract(&graph, &not_a_prefix).is_err());
        // Data the model was never trained on fails the bitwise replay.
        let mut b = ActionLogBuilder::new(5);
        b.push(4, 0, 0.0);
        b.push(0, 0, 1.0);
        let foreign = cdim_actionlog::ActionLogDelta::new(0, b.build());
        assert!(model.retract(&graph, &foreign).is_err());
    }

    #[test]
    fn extend_rejects_stale_deltas() {
        let (graph, log) = instance();
        let (prefix, _) = log.split_at_action(2);
        let mut model = CdModel::train(&graph, &prefix, CdModelConfig::default());
        let wrong_base = log.delta_range(3, 4);
        assert!(model.extend(&graph, &wrong_base).is_err());
    }

    #[test]
    fn memory_reporting_is_positive_after_training() {
        let (graph, log) = instance();
        let model = CdModel::train(&graph, &log, CdModelConfig::default());
        assert!(model.store_memory_bytes() > 0);
        assert!(model.heap_bytes() >= model.store_memory_bytes());
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
