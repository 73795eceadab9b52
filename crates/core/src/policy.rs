//! Direct-credit assignment policies.
//!
//! When `u` performs `a`, each potential influencer `v ∈ N_in(u, a)` is
//! given direct credit `γ_{v,u}(a)`, with `Σ_v γ_{v,u}(a) ≤ 1` (§4).
//!
//! Two policies from the paper:
//!
//! * [`CreditPolicy::Uniform`] — `γ = 1/d_in(u, a)`, the expository
//!   default used in all worked examples;
//! * [`CreditPolicy::TimeAware`] — Eq 9:
//!   `γ_{v,u}(a) = infl(u)/d_in(u,a) · exp(−(t(u,a) − t(v,a))/τ_{v,u})`,
//!   where `infl(u)` is learned influenceability and `τ_{v,u}` the learned
//!   mean propagation delay; influence decays exponentially with elapsed
//!   time, and less influenceable users hand out less credit.
//!
//! [`CreditPolicy::edge_credits`] reads a [`PropagationDag`] view of a
//! [`PropagationArena`], which stores each parent edge's
//! in-aligned position, so `τ_{v,u}` is one array read, and writes γ into
//! a buffer the caller reuses across actions.

use cdim_actionlog::{ActionLog, PropagationArena, PropagationDag};
use cdim_graph::DirectedGraph;
use cdim_learning::TemporalModel;

/// How direct influence credit is assigned.
#[derive(Clone, Debug)]
pub enum CreditPolicy {
    /// Equal credit to every potential influencer: `γ = 1/d_in(u, a)`.
    Uniform,
    /// The time-aware credit of Eq 9, parameterized by learned temporal
    /// parameters.
    TimeAware(TemporalModel),
}

impl CreditPolicy {
    /// Learns a time-aware policy from the training log, on a
    /// propagation arena of its own. Training builds one arena and learns
    /// from it instead ([`crate::CdModelConfig::build_policy`]).
    pub fn time_aware(graph: &DirectedGraph, train: &ActionLog) -> Self {
        let dags = PropagationArena::build(train, graph, train.actions());
        CreditPolicy::TimeAware(TemporalModel::learn(&dags))
    }

    /// Writes `γ` for every propagation edge of `dag` into `gammas`
    /// (cleared first), parallel to the DAG's flattened parent lists:
    /// `parents_of(i)` maps to the next `in_degree(i)` values. `τ_{v,u}`
    /// is read at the edge position the DAG stores beside each parent.
    pub fn edge_credits(&self, dag: &PropagationDag<'_>, gammas: &mut Vec<f64>) {
        gammas.clear();
        for i in 0..dag.len() {
            let parents = dag.parents_of(i);
            if parents.is_empty() {
                continue;
            }
            let d_in = parents.len() as f64;
            match self {
                CreditPolicy::Uniform => {
                    gammas.extend(parents.iter().map(|_| 1.0 / d_in));
                }
                CreditPolicy::TimeAware(temporal) => {
                    let t_u = dag.time(i);
                    let base = temporal.infl(dag.user(i)) / d_in;
                    for (&pj, &e) in parents.iter().zip(dag.positions_of(i)) {
                        let tau = temporal.tau_at(e as usize);
                        gammas.push(base * (-(t_u - dag.time(pj as usize)) / tau).exp());
                    }
                }
            }
        }
        debug_assert_eq!(gammas.len(), dag.num_edges());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::{ActionId, ActionLogBuilder};
    use cdim_graph::GraphBuilder;

    /// γ of every propagation edge of action `a`.
    fn credits(
        policy: &CreditPolicy,
        graph: &DirectedGraph,
        log: &ActionLog,
        a: ActionId,
    ) -> Vec<f64> {
        let arena = PropagationArena::build(log, graph, a..a + 1);
        let mut gammas = Vec::new();
        policy.edge_credits(&arena.dag(a), &mut gammas);
        gammas
    }

    /// `edge_credits` as it was written before the arena stored edge
    /// positions, with an in-edge search per parent edge and a fresh
    /// vector per action: the oracle the stored-position γ must equal
    /// bit for bit.
    pub(super) fn searched_credits(
        policy: &CreditPolicy,
        graph: &DirectedGraph,
        dag: &PropagationDag<'_>,
    ) -> Vec<f64> {
        let mut gammas = Vec::with_capacity(dag.num_edges());
        for i in 0..dag.len() {
            let parents = dag.parents_of(i);
            if parents.is_empty() {
                continue;
            }
            let d_in = parents.len() as f64;
            match policy {
                CreditPolicy::Uniform => {
                    for _ in parents {
                        gammas.push(1.0 / d_in);
                    }
                }
                CreditPolicy::TimeAware(temporal) => {
                    let u = dag.user(i);
                    let t_u = dag.time(i);
                    let base = temporal.infl(u) / d_in;
                    for &pj in parents {
                        let v = dag.user(pj as usize);
                        let t_v = dag.time(pj as usize);
                        let e = graph
                            .in_edge_position(v, u)
                            .expect("propagation edge must be a social edge");
                        let tau = temporal.tau_at(e);
                        gammas.push(base * (-(t_u - t_v) / tau).exp());
                    }
                }
            }
        }
        gammas
    }

    /// Every action's γ equals the searched oracle's bit for bit, through
    /// one buffer reused across the whole log.
    pub(super) fn assert_credits_match_oracle(
        policy: &CreditPolicy,
        graph: &DirectedGraph,
        log: &ActionLog,
    ) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let arena = PropagationArena::build(log, graph, log.actions());
        let mut gammas = vec![f64::NAN; 3];
        for dag in arena.dags() {
            policy.edge_credits(&dag, &mut gammas);
            let want = searched_credits(policy, graph, &dag);
            assert_eq!(bits(&gammas), bits(&want), "action {}", dag.action);
        }
    }

    #[test]
    fn credits_are_bit_identical_to_the_searched_oracle_on_the_small_presets() {
        for spec in [cdim_datagen::presets::flixster_small(), cdim_datagen::presets::flickr_small()]
        {
            let ds = spec.generate();
            let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
            assert_credits_match_oracle(&policy, &ds.graph, &ds.log);
            assert_credits_match_oracle(&CreditPolicy::Uniform, &ds.graph, &ds.log);
        }
    }

    fn setup() -> (DirectedGraph, ActionLog) {
        // 0 -> 2, 1 -> 2; both 0 and 1 precede 2.
        let graph = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(3);
        b.push(0, 0, 0.0);
        b.push(1, 0, 1.0);
        b.push(2, 0, 2.0);
        let log = b.build();
        (graph, log)
    }

    #[test]
    fn uniform_credit_splits_equally() {
        let (graph, log) = setup();
        let gammas = credits(&CreditPolicy::Uniform, &graph, &log, 0);
        assert_eq!(gammas.len(), 2);
        assert!(gammas.iter().all(|&g| (g - 0.5).abs() < 1e-12));
    }

    #[test]
    fn uniform_credit_sums_to_one_per_activation() {
        let (graph, log) = setup();
        let total: f64 = credits(&CreditPolicy::Uniform, &graph, &log, 0).iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_aware_decays_with_delay() {
        // Edge (0, 1) observed with delays 4 and 2 → τ = 3. The action with
        // the shorter delay must earn more credit: exp(-2/3) > exp(-4/3).
        // (With a single observation per edge, Δ = τ always, so a
        // multi-observation setup is required to see the decay.)
        let graph = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 0.0);
        b.push(1, 0, 4.0);
        b.push(0, 1, 0.0);
        b.push(1, 1, 2.0);
        let log = b.build();
        let policy = CreditPolicy::time_aware(&graph, &log);

        let g_slow = credits(&policy, &graph, &log, 0)[0];
        let g_fast = credits(&policy, &graph, &log, 1)[0];
        assert!(g_fast > g_slow, "shorter delay should earn more credit: {g_fast} vs {g_slow}");
        // infl(1) = 1/2: only the delay-2 action is within τ = 3.
        let expected_fast = 0.5 * (-2.0f64 / 3.0).exp();
        let expected_slow = 0.5 * (-4.0f64 / 3.0).exp();
        assert!((g_fast - expected_fast).abs() < 1e-12);
        assert!((g_slow - expected_slow).abs() < 1e-12);
    }

    #[test]
    fn time_aware_credit_bounded_by_one() {
        let (graph, log) = setup();
        let policy = CreditPolicy::time_aware(&graph, &log);
        let gammas = credits(&policy, &graph, &log, 0);
        let total: f64 = gammas.iter().sum();
        assert!(total <= 1.0 + 1e-12, "sum = {total}");
        assert!(gammas.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn initiators_produce_no_credits() {
        let graph = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 0.0);
        let log = b.build();
        assert!(credits(&CreditPolicy::Uniform, &graph, &log, 0).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_credits_match_oracle;
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// On random graphs and logs with tied timestamps and users who
        /// act once or never, γ from stored positions equals the searched
        /// oracle bit for bit under the uniform policy and under the
        /// time-aware one, learned on the log itself or on a copy with
        /// compressed delays (so that `exp` underflows to 0).
        #[test]
        fn credits_are_bit_identical_to_the_searched_oracle(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..80),
            events in proptest::collection::vec((0u32..10, 0u32..6, 0u64..9), 0..80),
            policy_kind in 0u32..3,
        ) {
            let graph = GraphBuilder::new(12).edges(edges).build();
            let log_at = |scale: f64| {
                let mut b = ActionLogBuilder::new(12);
                for &(u, a, t) in &events {
                    b.push(u, a, t as f64 * scale);
                }
                b.build()
            };
            let log = log_at(1.0);
            let policy = match policy_kind {
                0 => CreditPolicy::Uniform,
                1 => CreditPolicy::time_aware(&graph, &log),
                _ => CreditPolicy::time_aware(&graph, &log_at(1.0 / 400.0)),
            };
            assert_credits_match_oracle(&policy, &graph, &log);
        }
    }
}
