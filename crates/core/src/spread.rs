//! Exact σ_cd(S) evaluation for arbitrary seed sets.
//!
//! The spread-prediction experiments (Figs 3, 4, 6) evaluate σ_cd on seed
//! sets that were *not* produced by the selector (test-trace initiators,
//! rival models' seeds), so they need a standalone evaluator. It runs the
//! set-credit DP of Eq 5 over each propagation DAG with no λ truncation:
//!
//! ```text
//! Γ_{S,u}(a) = 1                        if u ∈ S
//!            = Σ_w Γ_{S,w}(a)·γ_{w,u}   otherwise
//! σ_cd(S)   = Σ_a Σ_{u∈V(a)} Γ_{S,u}(a) / A_u
//! ```
//!
//! DAG topology and γ values are copied once out of a borrowed
//! [`PropagationArena`] of the log (training shares its one arena with
//! the policy learner and the scan); each evaluation is one linear pass
//! per action. The evaluator implements
//! [`cdim_maxim::SpreadOracle`], so the generic greedy/CELF selectors can
//! run against exact σ_cd — the ablation baseline for the specialized
//! Algorithm 3.

use crate::compact::one_over_au;
use crate::policy::CreditPolicy;
use cdim_actionlog::{PropagationArena, UserId};
use cdim_graph::NodeId;
use cdim_maxim::SpreadOracle;
use cdim_util::HeapSize;

/// Precompiled exact σ_cd evaluator: every action's propagation DAG in
/// flat whole-log arrays, with u32 offsets as in [`PropagationArena`].
///
/// The evaluator owns its arrays rather than borrowing the arena, so a
/// [`crate::CdModel`] carries no lifetime.
#[derive(Clone, Debug)]
pub struct CdSpreadEvaluator {
    /// Performers of every action, in log order (chronological within an
    /// action).
    users: Vec<UserId>,
    /// Action `a`'s performers are `users[starts[a]..starts[a + 1]]`.
    starts: Vec<u32>,
    /// Performer `n`'s parent edges are
    /// `parent_offsets[n]..parent_offsets[n + 1]` of `parents`/`gammas`.
    parent_offsets: Vec<u32>,
    /// Parent's action-local index, per parent edge.
    parents: Vec<u32>,
    /// Direct credit, per parent edge.
    gammas: Vec<f64>,
    /// `1/A_u` per user of the log's universe (0 when the user never
    /// acted).
    inv_au: Vec<f64>,
    max_dag_len: usize,
}

impl CdSpreadEvaluator {
    /// Precompiles every propagation DAG of `arena` with its γ values;
    /// `1/A_u` is read from the log the arena was built from.
    ///
    /// # Panics
    /// Panics if the arena holds more than `u32::MAX` performers or parent
    /// edges.
    pub fn build(arena: &PropagationArena<'_>, policy: &CreditPolicy) -> Self {
        let offset = |n: usize| u32::try_from(n).expect("evaluator fits u32 offsets");
        let log = arena.log();
        let mut users = Vec::with_capacity(log.num_tuples());
        let mut starts = Vec::with_capacity(log.num_actions() + 1);
        let mut parent_offsets = Vec::with_capacity(log.num_tuples() + 1);
        let (mut parents, mut gammas, mut dag_gammas) = (Vec::new(), Vec::new(), Vec::new());
        let mut max_dag_len = 0;
        starts.push(0);
        parent_offsets.push(0);
        for dag in arena.dags() {
            max_dag_len = max_dag_len.max(dag.len());
            users.extend_from_slice(dag.users());
            starts.push(offset(users.len()));
            for i in 0..dag.len() {
                parents.extend_from_slice(dag.parents_of(i));
                parent_offsets.push(offset(parents.len()));
            }
            policy.edge_credits(&dag, &mut dag_gammas);
            gammas.extend_from_slice(&dag_gammas);
        }
        let inv_au = log.actions_per_user().iter().map(|&n| one_over_au(n)).collect();
        CdSpreadEvaluator { users, starts, parent_offsets, parents, gammas, inv_au, max_dag_len }
    }

    /// Exact σ_cd(S).
    pub fn spread(&self, seeds: &[UserId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mut is_seed = vec![false; self.inv_au.len()];
        for &s in seeds {
            is_seed[s as usize] = true;
        }
        // Γ_{S,·}(a) of the current action's performers, by local index.
        let mut credit = Vec::with_capacity(self.max_dag_len);
        let mut total = 0.0;
        for action in self.starts.windows(2) {
            credit.clear();
            for n in action[0] as usize..action[1] as usize {
                let u = self.users[n] as usize;
                let c = if is_seed[u] {
                    1.0
                } else {
                    let lo = self.parent_offsets[n] as usize;
                    let hi = self.parent_offsets[n + 1] as usize;
                    let mut acc = 0.0;
                    for k in lo..hi {
                        acc += credit[self.parents[k] as usize] * self.gammas[k];
                    }
                    acc
                };
                credit.push(c);
                total += c * self.inv_au[u];
            }
        }
        total
    }
}

impl SpreadOracle for CdSpreadEvaluator {
    fn spread(&self, seeds: &[NodeId]) -> f64 {
        CdSpreadEvaluator::spread(self, seeds)
    }

    fn universe(&self) -> usize {
        self.inv_au.len()
    }
}

impl HeapSize for CdSpreadEvaluator {
    fn heap_bytes(&self) -> usize {
        self.users.heap_bytes()
            + self.starts.heap_bytes()
            + self.parent_offsets.heap_bytes()
            + self.parents.heap_bytes()
            + self.gammas.heap_bytes()
            + self.inv_au.heap_bytes()
    }
}

/// The evaluator of `log` under `policy`, on an arena of its own.
#[cfg(test)]
pub(crate) fn evaluator(
    graph: &cdim_graph::DirectedGraph,
    log: &cdim_actionlog::ActionLog,
    policy: &CreditPolicy,
) -> CdSpreadEvaluator {
    CdSpreadEvaluator::build(&PropagationArena::build(log, graph, log.actions()), policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::testing::figure1;

    #[test]
    fn matches_reference_on_example() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let eval = evaluator(&graph, &log, &policy);
        for seeds in [vec![0u32], vec![0, 4], vec![5], vec![0, 1], vec![2, 3]] {
            let fast = eval.spread(&seeds);
            let slow = reference::sigma_cd(&graph, &log, &policy, &seeds);
            assert!((fast - slow).abs() < 1e-12, "{seeds:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn empty_seeds_spread_zero() {
        let (graph, log) = figure1();
        let eval = evaluator(&graph, &log, &CreditPolicy::Uniform);
        assert_eq!(eval.spread(&[]), 0.0);
    }

    #[test]
    fn oracle_interface_agrees() {
        let (graph, log) = figure1();
        let eval = evaluator(&graph, &log, &CreditPolicy::Uniform);
        let via_trait = <CdSpreadEvaluator as SpreadOracle>::spread(&eval, &[0]);
        assert!((via_trait - eval.spread(&[0])).abs() < 1e-15);
        assert_eq!(eval.universe(), 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference;
    use crate::testing::eight_user_instance;
    use proptest::prelude::*;

    proptest! {
        /// Seeding every user saturates the model: Γ_{S,u}(a) = 1 for all
        /// performers, so σ_cd equals exactly the number of active users.
        #[test]
        fn full_seed_set_spread_is_active_user_count(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..30),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
        ) {
            let (graph, log, policy) = eight_user_instance(&edges, &events, false);
            let eval = evaluator(&graph, &log, &policy);
            let everyone: Vec<u32> = (0..8).collect();
            let active = (0..8u32).filter(|&u| log.actions_performed_by(u) > 0).count();
            let sigma = eval.spread(&everyone);
            prop_assert!((sigma - active as f64).abs() < 1e-9,
                "σ_cd(V) = {sigma}, active = {active}");
        }

        /// The compiled evaluator must equal the naive reference for random
        /// instances, both policies, arbitrary seed sets.
        #[test]
        fn evaluator_matches_reference(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
            seeds in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..5),
            time_aware in proptest::bool::ANY,
        ) {
            let (graph, log, policy) = eight_user_instance(&edges, &events, time_aware);
            let eval = evaluator(&graph, &log, &policy);
            let fast = eval.spread(&seeds);
            let slow = reference::sigma_cd(&graph, &log, &policy, &seeds);
            prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        }
    }
}
