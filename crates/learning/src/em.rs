//! EM learning of IC influence probabilities (Saito et al., KES 2008).
//!
//! The likelihood of the observed traces under IC treats, for each action
//! `a` and each potential influence edge `(v, u)`:
//!
//! * a **success trial** when `v ∈ N_in(u, a)` — `v` was active before `u`
//!   and `u` did activate; the activation is explained by *some* parent:
//!   `P_u(a) = 1 − Π_{w ∈ N_in(u,a)} (1 − p_{w,u})`;
//! * a **failure trial** when `v` performed `a`, `u` is `v`'s out-neighbor
//!   and `u` never performed `a` — `v` had its shot and missed.
//!
//! E-step: responsibility `q_{v,u}(a) = p_{v,u} / P_u(a)` for success
//! trials. M-step: `p_{v,u} = Σ_a q_{v,u}(a) / (#successes + #failures)`.
//!
//! As §3 notes, real logs are not round-based, so *all previously activated
//! neighbors* count as potential influencers (that is exactly what
//! `N_in(u, a)` contains in our data model).
//!
//! The paper's "maximum-confidence anomaly" falls out naturally: a user
//! with one action that reached a follower gets `p = 1` on that edge
//! (1 success / 1 trial), which is why EM-greedy can pick statistically
//! insignificant seeds (§6, "Spread Achieved").

use cdim_actionlog::{ActionLog, PropagationArena};
use cdim_diffusion::EdgeProbabilities;
use cdim_graph::DirectedGraph;
use cdim_util::FxHashMap;

/// EM hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct EmConfig {
    /// Initial probability for every edge with at least one trial.
    pub initial_p: f64,
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Stop when the maximum absolute parameter change drops below this.
    pub tolerance: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig { initial_p: 0.2, max_iterations: 30, tolerance: 1e-6 }
    }
}

/// Precomputed trial statistics plus the EM loop.
pub struct EmLearner<'a> {
    graph: &'a DirectedGraph,
    /// Per in-aligned edge position: total trials (successes + failures).
    trials: Vec<u32>,
    /// For every (action, performer-with-parents): the in-aligned edge
    /// positions of its parent edges, flattened CSR-style. Groups are the
    /// unit over which `P_u(a)` is computed.
    group_offsets: Vec<usize>,
    parent_edges: Vec<u32>,
}

impl<'a> EmLearner<'a> {
    /// Scans the training log once and precomputes all trial statistics.
    pub fn new(graph: &'a DirectedGraph, train: &'a ActionLog) -> Self {
        Self::from_dags(&PropagationArena::build(train, graph, train.actions()))
    }

    /// [`Self::new`] over `dags`, the propagation DAGs of the whole
    /// training log, which the caller may lend to other learners too.
    pub fn from_dags(dags: &PropagationArena<'a>) -> Self {
        let graph = dags.graph();
        let m = graph.num_edges();
        let mut trials = vec![0u32; m];
        let mut group_offsets = vec![0usize];
        let mut parent_edges: Vec<u32> = Vec::new();
        let mut performed: FxHashMap<u32, f64> = FxHashMap::default();

        for dag in dags.dags() {
            performed.clear();
            for (i, (&u, &t)) in dag.users().iter().zip(dag.times()).enumerate() {
                if dag.in_degree(i) > 0 {
                    for &e in dag.positions_of(i) {
                        trials[e as usize] += 1;
                        parent_edges.push(e);
                    }
                    group_offsets.push(parent_edges.len());
                }
                performed.insert(u, t);
            }
            // Failure trials: v acted, out-neighbor u never did.
            for &v in dag.users() {
                for &u in graph.out_neighbors(v) {
                    if !performed.contains_key(&u) {
                        let e = graph.in_edge_position(v, u).expect("edge exists");
                        trials[e] += 1;
                    }
                }
            }
        }

        EmLearner { graph, trials, group_offsets, parent_edges }
    }

    /// Number of success-trial groups (activations with parents).
    pub fn num_activation_groups(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Trial count of the edge at an in-aligned position.
    pub fn trials_at(&self, in_pos: usize) -> u32 {
        self.trials[in_pos]
    }

    /// Runs EM and returns the learned probabilities plus the number of
    /// iterations performed.
    pub fn learn(&self, config: EmConfig) -> (EdgeProbabilities, usize) {
        let m = self.graph.num_edges();
        // In-aligned parameter vector; edges with no trials stay 0.
        let mut p: Vec<f64> =
            (0..m).map(|e| if self.trials[e] > 0 { config.initial_p } else { 0.0 }).collect();
        let mut acc = vec![0.0f64; m];
        let mut iterations = 0;

        for _ in 0..config.max_iterations {
            iterations += 1;
            acc.fill(0.0);
            // E-step: distribute each activation across its parent edges.
            for g in 0..self.num_activation_groups() {
                let edges = &self.parent_edges[self.group_offsets[g]..self.group_offsets[g + 1]];
                let mut none_prob = 1.0;
                for &e in edges {
                    none_prob *= 1.0 - p[e as usize];
                }
                let p_u = 1.0 - none_prob;
                if p_u <= f64::MIN_POSITIVE {
                    continue;
                }
                for &e in edges {
                    acc[e as usize] += p[e as usize] / p_u;
                }
            }
            // M-step.
            let mut max_delta = 0.0f64;
            for e in 0..m {
                if self.trials[e] == 0 {
                    continue;
                }
                let next = (acc[e] / self.trials[e] as f64).clamp(0.0, 1.0);
                max_delta = max_delta.max((next - p[e]).abs());
                p[e] = next;
            }
            if max_delta < config.tolerance {
                break;
            }
        }

        // Convert the in-aligned vector to the canonical overlay.
        let mut out_aligned = vec![0.0; m];
        for out_pos in 0..m {
            out_aligned[out_pos] = p[self.graph.out_pos_to_in_pos(out_pos)];
        }
        (EdgeProbabilities::from_out_aligned(self.graph, out_aligned), iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    /// 0 -> 1: action propagates on half the trials.
    #[test]
    fn single_edge_frequency_estimate() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        // 4 actions performed by 0; 2 of them reach 1.
        for a in 0..4u32 {
            b.push(0, a, 1.0);
            if a < 2 {
                b.push(1, a, 2.0);
            }
        }
        let log = b.build();
        let learner = EmLearner::new(&g, &log);
        let (p, _) = learner.learn(EmConfig::default());
        // 2 successes, 2 failures -> p = 0.5; single-parent groups converge
        // in one step.
        assert!((p.get(&g, 0, 1).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn certain_influencer_gets_probability_one() {
        // The "statistically insignificant seed" anomaly: one action, one
        // propagation, no failures -> p = 1.
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        let log = b.build();
        let (p, _) = EmLearner::new(&g, &log).learn(EmConfig::default());
        assert!((p.get(&g, 0, 1).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn edge_never_observed_stays_zero() {
        let g = GraphBuilder::new(3).edges([(0, 1), (2, 1)]).build();
        let mut b = ActionLogBuilder::new(3);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        let log = b.build();
        let (p, _) = EmLearner::new(&g, &log).learn(EmConfig::default());
        // User 2 never acted: edge (2,1) has no trial at all.
        assert_eq!(p.get(&g, 2, 1), Some(0.0));
    }

    #[test]
    fn pure_failures_drive_probability_to_zero() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        for a in 0..5u32 {
            b.push(0, a, 1.0); // 1 never follows
        }
        let log = b.build();
        let (p, _) = EmLearner::new(&g, &log).learn(EmConfig::default());
        assert_eq!(p.get(&g, 0, 1), Some(0.0));
    }

    #[test]
    fn shared_credit_between_two_parents() {
        // v0 and v2 both precede u1 on every action; symmetric evidence
        // must produce symmetric probabilities.
        let g = GraphBuilder::new(3).edges([(0, 1), (2, 1)]).build();
        let mut b = ActionLogBuilder::new(3);
        for a in 0..6u32 {
            b.push(0, a, 1.0);
            b.push(2, a, 1.5);
            if a < 3 {
                b.push(1, a, 2.0);
            }
        }
        let log = b.build();
        let (p, _) = EmLearner::new(&g, &log).learn(EmConfig::default());
        let p01 = p.get(&g, 0, 1).unwrap();
        let p21 = p.get(&g, 2, 1).unwrap();
        assert!((p01 - p21).abs() < 1e-9, "{p01} vs {p21}");
        assert!(p01 > 0.0 && p01 < 1.0);
        // Joint activation probability should roughly match the observed
        // activation frequency (3 of 6).
        let joint = 1.0 - (1.0 - p01) * (1.0 - p21);
        assert!((joint - 0.5).abs() < 0.05, "joint = {joint}");
    }

    #[test]
    fn respects_time_order_for_trials() {
        // u acts *before* v: no success trial, and since u did perform the
        // action it is not a failure trial either — p must stay at init
        // value only if it had other trials; with none it should be 0.
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(1, 0, 1.0); // u first
        b.push(0, 0, 2.0); // v later
        let log = b.build();
        let learner = EmLearner::new(&g, &log);
        assert_eq!(learner.num_activation_groups(), 0);
        let (p, _) = learner.learn(EmConfig::default());
        assert_eq!(p.get(&g, 0, 1), Some(0.0));
    }

    #[test]
    fn converges_and_reports_iterations() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        b.push(0, 1, 1.0);
        let log = b.build();
        let (_, iters) = EmLearner::new(&g, &log).learn(EmConfig::default());
        assert!((1..=30).contains(&iters));
    }

    #[test]
    fn probabilities_always_within_bounds() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]).build();
        let mut b = ActionLogBuilder::new(4);
        let mut t = 0.0;
        for a in 0..10u32 {
            for u in 0..4u32 {
                if (a + u) % 3 != 0 {
                    t += 1.0;
                    b.push(u, a, t);
                }
            }
        }
        let log = b.build();
        let (p, _) = EmLearner::new(&g, &log).learn(EmConfig::default());
        for &x in p.out_view() {
            assert!((0.0..=1.0).contains(&x), "p = {x}");
        }
    }
}
