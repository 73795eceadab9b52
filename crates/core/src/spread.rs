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
//! DAG topology and γ values are precomputed once; each evaluation is one
//! linear pass per action. The evaluator implements
//! [`cdim_maxim::SpreadOracle`], so the generic greedy/CELF selectors can
//! run against exact σ_cd — the ablation baseline for the specialized
//! Algorithm 3.

use crate::incremental::ExtendError;
use crate::policy::CreditPolicy;
use cdim_actionlog::{ActionLog, ActionLogDelta, PropagationArena, PropagationDag, UserId};
use cdim_graph::{DirectedGraph, NodeId};
use cdim_maxim::SpreadOracle;
use cdim_util::HeapSize;

/// One precompiled propagation DAG.
#[derive(Clone, Debug)]
struct CompactDag {
    /// Performers in chronological order.
    users: Vec<UserId>,
    /// CSR offsets into `parents`/`gammas` per local node.
    parent_offsets: Vec<u32>,
    /// Parent local indices.
    parents: Vec<u32>,
    /// Direct credit per parent edge.
    gammas: Vec<f64>,
}

/// Precompiled exact σ_cd evaluator.
#[derive(Clone, Debug)]
pub struct CdSpreadEvaluator {
    dags: Vec<CompactDag>,
    /// `A_u` per user over the compiled log (kept alongside `inv_au` so
    /// an append-only [`extend`](Self::extend) can bump counts exactly).
    au: Vec<u32>,
    /// `1/A_u` per user (0 when the user never acted).
    inv_au: Vec<f64>,
    num_users: usize,
    max_dag_len: usize,
}

impl CdSpreadEvaluator {
    /// Compiles one action's DAG + γ values.
    fn compile_dag(dag: &PropagationDag<'_>, policy: &CreditPolicy) -> CompactDag {
        let mut gammas = Vec::with_capacity(dag.num_edges());
        policy.edge_credits(dag, &mut gammas);
        let mut parent_offsets = Vec::with_capacity(dag.len() + 1);
        let mut parents = Vec::with_capacity(dag.num_edges());
        parent_offsets.push(0u32);
        for i in 0..dag.len() {
            parents.extend_from_slice(dag.parents_of(i));
            parent_offsets.push(parents.len() as u32);
        }
        CompactDag { users: dag.users().to_vec(), parent_offsets, parents, gammas }
    }

    /// Precompiles every propagation DAG of `log` with its γ values.
    pub fn build(graph: &DirectedGraph, log: &ActionLog, policy: &CreditPolicy) -> Self {
        let mut max_dag_len = 0;
        let arena = PropagationArena::build(log, graph, log.actions());
        let dags = arena
            .dags()
            .map(|dag| {
                max_dag_len = max_dag_len.max(dag.len());
                Self::compile_dag(&dag, policy)
            })
            .collect();
        let au = log.actions_per_user().to_vec();
        let inv_au = au.iter().map(|&n| if n > 0 { 1.0 / f64::from(n) } else { 0.0 }).collect();
        CdSpreadEvaluator { dags, au, inv_au, num_users: log.num_users(), max_dag_len }
    }

    /// Appends an action batch: compiles the new DAGs (γ under the same
    /// `policy` the evaluator was built with) and bumps the `A_u` counts
    /// of users acting in the delta — already-compiled DAGs are reused
    /// untouched. Spread answers afterwards are bit-identical to a
    /// from-scratch [`build`](Self::build) over the combined log.
    pub fn extend(
        &mut self,
        graph: &DirectedGraph,
        delta: &ActionLogDelta,
        policy: &CreditPolicy,
    ) -> Result<(), ExtendError> {
        if graph.num_nodes() != self.num_users {
            return Err(ExtendError::GraphMismatch {
                graph_nodes: graph.num_nodes(),
                store_users: self.num_users,
            });
        }
        if delta.num_users() != self.num_users {
            return Err(ExtendError::UserUniverseMismatch {
                store_users: self.num_users,
                delta_users: delta.num_users(),
            });
        }
        if delta.base_actions() != self.dags.len() {
            return Err(ExtendError::BaseMismatch {
                store_actions: self.dags.len(),
                delta_base: delta.base_actions(),
            });
        }
        let additions = delta.additions();
        self.dags.reserve(additions.num_actions());
        let arena = PropagationArena::build(additions, graph, additions.actions());
        for dag in arena.dags() {
            self.max_dag_len = self.max_dag_len.max(dag.len());
            self.dags.push(Self::compile_dag(&dag, policy));
        }
        for (u, &n) in additions.actions_per_user().iter().enumerate() {
            if n > 0 {
                self.au[u] += n;
                self.inv_au[u] = 1.0 / f64::from(self.au[u]);
            }
        }
        Ok(())
    }

    /// Retracts an expired action prefix — the inverse of
    /// [`extend`](Self::extend). `expired` must be based at 0 and cover
    /// the evaluator's first actions (see `ActionLog::split_off_prefix`):
    /// their compiled DAGs are dropped and the `A_u` counts of users
    /// acting in the prefix are decremented. Spread answers afterwards
    /// are bit-identical to a from-scratch [`build`](Self::build) over
    /// just the surviving window (`1/A_u` depends only on the surviving
    /// count, and a DAG never references its action's dense id).
    pub fn retract(
        &mut self,
        graph: &DirectedGraph,
        expired: &ActionLogDelta,
    ) -> Result<(), ExtendError> {
        if graph.num_nodes() != self.num_users {
            return Err(ExtendError::GraphMismatch {
                graph_nodes: graph.num_nodes(),
                store_users: self.num_users,
            });
        }
        if expired.num_users() != self.num_users {
            return Err(ExtendError::UserUniverseMismatch {
                store_users: self.num_users,
                delta_users: expired.num_users(),
            });
        }
        let k = expired.num_new_actions();
        if expired.base_actions() != 0 || k > self.dags.len() {
            return Err(ExtendError::WindowMismatch {
                store_actions: self.dags.len(),
                expired_base: expired.base_actions(),
                expired_actions: k,
            });
        }
        for (u, &n) in expired.additions().actions_per_user().iter().enumerate() {
            if n > self.au[u] {
                return Err(ExtendError::MembershipMismatch {
                    user: u as u32,
                    expected: n,
                    got: self.au[u],
                });
            }
        }
        self.dags.drain(..k);
        for (u, &n) in expired.additions().actions_per_user().iter().enumerate() {
            if n > 0 {
                self.au[u] -= n;
                self.inv_au[u] = if self.au[u] > 0 { 1.0 / f64::from(self.au[u]) } else { 0.0 };
            }
        }
        // `max_dag_len` stays as-is: it is a scratch-capacity hint only
        // and never influences an answer.
        Ok(())
    }

    /// Exact σ_cd(S).
    pub fn spread(&self, seeds: &[UserId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mut is_seed = vec![false; self.num_users];
        for &s in seeds {
            is_seed[s as usize] = true;
        }
        let mut credit = Vec::with_capacity(self.max_dag_len);
        let mut total = 0.0;
        for dag in &self.dags {
            credit.clear();
            for i in 0..dag.users.len() {
                let c = if is_seed[dag.users[i] as usize] {
                    1.0
                } else {
                    let lo = dag.parent_offsets[i] as usize;
                    let hi = dag.parent_offsets[i + 1] as usize;
                    let mut acc = 0.0;
                    for k in lo..hi {
                        acc += credit[dag.parents[k] as usize] * dag.gammas[k];
                    }
                    acc
                };
                credit.push(c);
                total += c * self.inv_au[dag.users[i] as usize];
            }
        }
        total
    }

    /// Per-action predicted credit mass Σ_{u∈V(a)} Γ_{S,u}(a): the model's
    /// estimate of how many performers of `a` the set `S` accounts for.
    pub fn per_action_credit(&self, seeds: &[UserId]) -> Vec<f64> {
        let mut is_seed = vec![false; self.num_users];
        for &s in seeds {
            is_seed[s as usize] = true;
        }
        let mut credit = Vec::with_capacity(self.max_dag_len);
        self.dags
            .iter()
            .map(|dag| {
                credit.clear();
                let mut mass = 0.0;
                for i in 0..dag.users.len() {
                    let c = if is_seed[dag.users[i] as usize] {
                        1.0
                    } else {
                        let lo = dag.parent_offsets[i] as usize;
                        let hi = dag.parent_offsets[i + 1] as usize;
                        let mut acc = 0.0;
                        for k in lo..hi {
                            acc += credit[dag.parents[k] as usize] * dag.gammas[k];
                        }
                        acc
                    };
                    credit.push(c);
                    mass += c;
                }
                mass
            })
            .collect()
    }

    /// Number of precompiled actions.
    pub fn num_actions(&self) -> usize {
        self.dags.len()
    }
}

impl SpreadOracle for CdSpreadEvaluator {
    fn spread(&self, seeds: &[NodeId]) -> f64 {
        CdSpreadEvaluator::spread(self, seeds)
    }

    fn universe(&self) -> usize {
        self.num_users
    }
}

impl HeapSize for CdSpreadEvaluator {
    fn heap_bytes(&self) -> usize {
        self.au.heap_bytes()
            + self.inv_au.heap_bytes()
            + self
                .dags
                .iter()
                .map(|d| {
                    d.users.heap_bytes()
                        + d.parent_offsets.heap_bytes()
                        + d.parents.heap_bytes()
                        + d.gammas.heap_bytes()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    fn figure1() -> (DirectedGraph, ActionLog) {
        let graph = GraphBuilder::new(6)
            .edges([(0, 2), (1, 2), (0, 3), (2, 4), (0, 5), (2, 5), (3, 5), (4, 5)])
            .build();
        let mut b = ActionLogBuilder::new(6);
        for (u, t) in [(0u32, 0.0), (1, 0.5), (2, 1.0), (3, 1.5), (4, 2.0), (5, 2.5)] {
            b.push(u, 0, t);
        }
        (graph, b.build())
    }

    #[test]
    fn matches_reference_on_example() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let eval = CdSpreadEvaluator::build(&graph, &log, &policy);
        for seeds in [vec![0u32], vec![0, 4], vec![5], vec![0, 1], vec![2, 3]] {
            let fast = eval.spread(&seeds);
            let slow = reference::sigma_cd(&graph, &log, &policy, &seeds);
            assert!((fast - slow).abs() < 1e-12, "{seeds:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn empty_seeds_spread_zero() {
        let (graph, log) = figure1();
        let eval = CdSpreadEvaluator::build(&graph, &log, &CreditPolicy::Uniform);
        assert_eq!(eval.spread(&[]), 0.0);
    }

    #[test]
    fn per_action_credit_of_initiators_is_trace_size() {
        let (graph, log) = figure1();
        let eval = CdSpreadEvaluator::build(&graph, &log, &CreditPolicy::Uniform);
        // Seeding the initiators accounts for the entire trace.
        let mass = eval.per_action_credit(&[0, 1]);
        assert_eq!(mass.len(), 1);
        assert!((mass[0] - 6.0).abs() < 1e-12, "mass = {}", mass[0]);
    }

    #[test]
    fn extend_matches_rebuild_bitwise() {
        let (graph, log) = figure1();
        // Duplicate the trace into three actions so splits are non-trivial.
        let mut b = ActionLogBuilder::new(6);
        for a in 0..3u32 {
            for (u, t) in [(0u32, 0.0), (1, 0.5), (2, 1.0), (3, 1.5), (4, 2.0), (5, 2.5)] {
                if (u + a) % 4 != 3 {
                    b.push(u, a, t);
                }
            }
        }
        let log3 = b.build();
        for policy in [CreditPolicy::Uniform, CreditPolicy::time_aware(&graph, &log)] {
            let full = CdSpreadEvaluator::build(&graph, &log3, &policy);
            for split in 0..=log3.num_actions() {
                let (prefix, delta) = log3.split_at_action(split);
                let mut eval = CdSpreadEvaluator::build(&graph, &prefix, &policy);
                eval.extend(&graph, &delta, &policy).unwrap();
                assert_eq!(eval.num_actions(), full.num_actions());
                for seeds in [vec![0u32], vec![0, 4], vec![2, 3, 5]] {
                    assert_eq!(
                        eval.spread(&seeds).to_bits(),
                        full.spread(&seeds).to_bits(),
                        "split {split}, seeds {seeds:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_rejects_mismatched_deltas() {
        let (graph, log) = figure1();
        let mut eval = CdSpreadEvaluator::build(&graph, &log, &CreditPolicy::Uniform);
        let late = log.delta_range(1, 1); // base 1, evaluator holds 1 action… use wrong base
        let wrong = cdim_actionlog::ActionLogDelta::new(5, late.additions().clone());
        assert!(matches!(
            eval.extend(&graph, &wrong, &CreditPolicy::Uniform),
            Err(crate::incremental::ExtendError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn oracle_interface_agrees() {
        let (graph, log) = figure1();
        let eval = CdSpreadEvaluator::build(&graph, &log, &CreditPolicy::Uniform);
        let via_trait = <CdSpreadEvaluator as SpreadOracle>::spread(&eval, &[0]);
        assert!((via_trait - eval.spread(&[0])).abs() < 1e-15);
        assert_eq!(eval.universe(), 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// Seeding every user saturates the model: Γ_{S,u}(a) = 1 for all
        /// performers, so σ_cd equals exactly the number of active users.
        #[test]
        fn full_seed_set_spread_is_active_user_count(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..30),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
        ) {
            let graph = GraphBuilder::new(8).edges(edges).build();
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let eval = CdSpreadEvaluator::build(&graph, &log, &CreditPolicy::Uniform);
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
            let graph = GraphBuilder::new(8).edges(edges).build();
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let eval = CdSpreadEvaluator::build(&graph, &log, &policy);
            let fast = eval.spread(&seeds);
            let slow = reference::sigma_cd(&graph, &log, &policy, &seeds);
            prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        }
    }
}
