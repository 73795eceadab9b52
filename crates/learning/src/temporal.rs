//! Temporal influence parameters for the time-aware direct credit (Eq 9).
//!
//! From Goyal et al. (WSDM 2010), as adopted by §4 "Assigning Direct
//! Credit":
//!
//! * `τ_{v,u}` — the average time actions take to propagate from `v` to
//!   `u`, estimated over all training actions with `v ∈ N_in(u, a)`;
//! * `infl(u)` — user influenceability: the fraction of `u`'s actions
//!   performed "under the influence" of some neighbor, i.e. with
//!   `t(u,a) − t(v,a) ≤ τ_{v,u}` for at least one potential influencer.
//!
//! Both passes walk a borrowed [`PropagationArena`] of the whole training
//! log — the one the credit scan and the spread evaluator then read too.
//! The arena stores each parent edge's in-aligned position beside it, so
//! a per-edge delay sum or `τ` is indexed directly, with no edge search.

use cdim_actionlog::PropagationArena;
use cdim_util::HeapSize;

/// Learned temporal parameters.
#[derive(Clone, Debug)]
pub struct TemporalModel {
    /// `τ` per in-aligned edge position; `f64::INFINITY` when the edge was
    /// never observed propagating (so `exp(-Δ/τ) = 1` degenerates safely
    /// only if never used; lookups fall back to [`Self::default_tau`]).
    tau: Vec<f64>,
    /// Influenceability per user, in `[0, 1]`.
    infl: Vec<f64>,
    /// Global mean propagation delay — fallback for unobserved edges.
    default_tau: f64,
}

impl TemporalModel {
    /// Learns `τ` and `infl` in two passes over `arena`, which holds every
    /// action of the training log.
    pub fn learn(arena: &PropagationArena<'_>) -> Self {
        let (graph, train) = (arena.graph(), arena.log());
        let m = graph.num_edges();
        let mut delay_sum = vec![0.0f64; m];
        let mut delay_count = vec![0u32; m];

        // Pass 1: per-edge mean delays.
        for dag in arena.dags() {
            for i in 0..dag.len() {
                let tu = dag.time(i);
                for (&pj, &e) in dag.parents_of(i).iter().zip(dag.positions_of(i)) {
                    delay_sum[e as usize] += tu - dag.time(pj as usize);
                    delay_count[e as usize] += 1;
                }
            }
        }
        let total_sum: f64 = delay_sum.iter().sum();
        let total_count: u64 = delay_count.iter().map(|&c| c as u64).sum();
        let default_tau = if total_count > 0 {
            (total_sum / total_count as f64).max(f64::MIN_POSITIVE)
        } else {
            1.0
        };
        let tau: Vec<f64> = (0..m)
            .map(|e| {
                if delay_count[e] > 0 {
                    // Guard against zero mean delay (all propagations
                    // instantaneous) — exp(-Δ/0) would be NaN for Δ = 0.
                    (delay_sum[e] / delay_count[e] as f64).max(f64::MIN_POSITIVE)
                } else {
                    f64::INFINITY
                }
            })
            .collect();

        // Pass 2: influenceability.
        let mut influenced_actions = vec![0u32; graph.num_nodes()];
        for dag in arena.dags() {
            for i in 0..dag.len() {
                let tu = dag.time(i);
                let mut edges = dag.parents_of(i).iter().zip(dag.positions_of(i));
                if edges.any(|(&pj, &e)| tu - dag.time(pj as usize) <= tau[e as usize]) {
                    influenced_actions[dag.user(i) as usize] += 1;
                }
            }
        }
        let infl: Vec<f64> = (0..graph.num_nodes())
            .map(|u| {
                let au = train.actions_performed_by(u as u32);
                if au == 0 {
                    0.0
                } else {
                    influenced_actions[u] as f64 / au as f64
                }
            })
            .collect();

        TemporalModel { tau, infl, default_tau }
    }

    /// `τ` for the in-aligned edge position, falling back to the global
    /// mean when the edge was never observed propagating.
    #[inline]
    pub fn tau_at(&self, in_pos: usize) -> f64 {
        let t = self.tau[in_pos];
        if t.is_finite() {
            t
        } else {
            self.default_tau
        }
    }

    /// Influenceability of `u`.
    #[inline]
    pub fn infl(&self, u: u32) -> f64 {
        self.infl[u as usize]
    }

    /// Global mean propagation delay.
    #[inline]
    pub fn default_tau(&self) -> f64 {
        self.default_tau
    }
}

impl HeapSize for TemporalModel {
    fn heap_bytes(&self) -> usize {
        self.tau.heap_bytes() + self.infl.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::{ActionLog, ActionLogBuilder};
    use cdim_graph::{DirectedGraph, GraphBuilder};

    /// [`TemporalModel::learn`] on a whole-log arena.
    fn learn(graph: &DirectedGraph, train: &ActionLog) -> TemporalModel {
        TemporalModel::learn(&PropagationArena::build(train, graph, train.actions()))
    }

    /// `τ_{v,u}` of the social edge `(v, u)`.
    fn tau(t: &TemporalModel, g: &DirectedGraph, v: u32, u: u32) -> f64 {
        t.tau_at(g.in_edge_position(v, u).expect("social edge"))
    }

    #[test]
    fn tau_is_mean_delay() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 0.0);
        b.push(1, 0, 2.0); // delay 2
        b.push(0, 1, 0.0);
        b.push(1, 1, 4.0); // delay 4
        let log = b.build();
        let t = learn(&g, &log);
        assert!((tau(&t, &g, 0, 1) - 3.0).abs() < 1e-12);
        assert!((t.default_tau() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unobserved_edge_falls_back_to_global_mean() {
        let g = GraphBuilder::new(3).edges([(0, 1), (2, 1)]).build();
        let mut b = ActionLogBuilder::new(3);
        b.push(0, 0, 0.0);
        b.push(1, 0, 2.0);
        let log = b.build();
        let t = learn(&g, &log);
        assert!((tau(&t, &g, 2, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn infl_counts_influenced_fraction() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        // Action 0: 1 follows 0 after delay 1.
        b.push(0, 0, 0.0);
        b.push(1, 0, 1.0);
        // Action 1: 1 follows 0 after a huge delay (mean tau becomes
        // (1 + 99) / 2 = 50, so both delays are within tau... to build a
        // *not*-influenced case we need an action with no parents at all).
        b.push(1, 1, 5.0); // initiator, no influence
        let log = b.build();
        let t = learn(&g, &log);
        // User 1 performed 2 actions, 1 under influence.
        assert!((t.infl(1) - 0.5).abs() < 1e-12);
        // User 0's actions were never influenced.
        assert_eq!(t.infl(0), 0.0);
    }

    #[test]
    fn infl_respects_tau_cutoff() {
        let g = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(3);
        // Edge (0,2): delays 1 and 9 -> tau = 5. The 9-delay action is NOT
        // within tau... but the delay-1 action is.
        b.push(0, 0, 0.0);
        b.push(2, 0, 1.0);
        b.push(0, 1, 0.0);
        b.push(2, 1, 9.0);
        let log = b.build();
        let t = learn(&g, &log);
        // tau(0,2) = 5; action 0 within, action 1 not -> infl = 1/2.
        assert!((t.infl(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inactive_user_has_zero_infl() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let log = ActionLogBuilder::new(2).build();
        let t = learn(&g, &log);
        assert_eq!(t.infl(0), 0.0);
        assert_eq!(t.infl(1), 0.0);
        assert_eq!(t.default_tau(), 1.0);
    }

    #[test]
    fn zero_delay_is_guarded() {
        // Simultaneity is excluded by the DAG, but near-zero deltas are
        // possible; tau must stay strictly positive.
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 1.0 + 1e-300);
        let log = b.build();
        let t = learn(&g, &log);
        assert!(tau(&t, &g, 0, 1) > 0.0);
    }

    /// The two passes as they were written against the hash-map DAG
    /// builder, with an in-edge search per parent edge: the oracle the
    /// arena-based [`TemporalModel::learn`] must equal bit for bit.
    fn searched_learn(graph: &DirectedGraph, train: &ActionLog) -> TemporalModel {
        let m = graph.num_edges();
        let mut delay_sum = vec![0.0f64; m];
        let mut delay_count = vec![0u32; m];
        let arena = PropagationArena::build(train, graph, train.actions());
        for dag in arena.dags() {
            for i in 0..dag.len() {
                let u = dag.user(i);
                let tu = dag.time(i);
                for &pj in dag.parents_of(i) {
                    let v = dag.user(pj as usize);
                    let tv = dag.time(pj as usize);
                    let e = graph.in_edge_position(v, u).expect("social edge");
                    delay_sum[e] += tu - tv;
                    delay_count[e] += 1;
                }
            }
        }
        let total_sum: f64 = delay_sum.iter().sum();
        let total_count: u64 = delay_count.iter().map(|&c| c as u64).sum();
        let default_tau = if total_count > 0 {
            (total_sum / total_count as f64).max(f64::MIN_POSITIVE)
        } else {
            1.0
        };
        let tau: Vec<f64> = (0..m)
            .map(|e| {
                if delay_count[e] > 0 {
                    (delay_sum[e] / delay_count[e] as f64).max(f64::MIN_POSITIVE)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let mut influenced_actions = vec![0u32; graph.num_nodes()];
        for dag in arena.dags() {
            for i in 0..dag.len() {
                let u = dag.user(i);
                let tu = dag.time(i);
                let within_tau = dag.parents_of(i).iter().any(|&pj| {
                    let v = dag.user(pj as usize);
                    let tv = dag.time(pj as usize);
                    let e = graph.in_edge_position(v, u).expect("social edge");
                    tu - tv <= tau[e]
                });
                if within_tau {
                    influenced_actions[u as usize] += 1;
                }
            }
        }
        let infl: Vec<f64> = (0..graph.num_nodes())
            .map(|u| {
                let au = train.actions_performed_by(u as u32);
                if au == 0 {
                    0.0
                } else {
                    influenced_actions[u] as f64 / au as f64
                }
            })
            .collect();
        TemporalModel { tau, infl, default_tau }
    }

    /// `τ`, `infl` and the default `τ` of `learn` equal the oracle's bit
    /// for bit.
    pub(super) fn assert_learn_matches_oracle(graph: &DirectedGraph, train: &ActionLog) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (got, want) = (learn(graph, train), searched_learn(graph, train));
        assert_eq!(bits(&got.tau), bits(&want.tau), "tau");
        assert_eq!(bits(&got.infl), bits(&want.infl), "infl");
        assert_eq!(got.default_tau.to_bits(), want.default_tau.to_bits(), "default_tau");
    }

    #[test]
    fn learn_is_bit_identical_to_the_searched_oracle_on_the_small_presets() {
        for spec in [cdim_datagen::presets::flixster_small(), cdim_datagen::presets::flickr_small()]
        {
            let ds = spec.generate();
            assert_learn_matches_oracle(&ds.graph, &ds.log);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_learn_matches_oracle;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// On random graphs and logs with tied timestamps, users who act
        /// once or never and delays compressed so far that some mean
        /// delays hit the `f64::MIN_POSITIVE` guard, `learn` equals the
        /// searched oracle bit for bit.
        #[test]
        fn learn_is_bit_identical_to_the_searched_oracle(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..80),
            events in proptest::collection::vec((0u32..10, 0u32..6, 0u64..9), 0..80),
            scale_kind in 0u32..3,
        ) {
            let graph = GraphBuilder::new(12).edges(edges).build();
            let scale = [1.0, 1.0 / 400.0, 1e-310][scale_kind as usize];
            let mut b = ActionLogBuilder::new(12);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64 * scale);
            }
            assert_learn_matches_oracle(&graph, &b.build());
        }
    }
}
