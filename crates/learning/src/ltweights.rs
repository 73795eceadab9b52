//! LT weight learning.
//!
//! §6 ("Methods Compared"): `p_{v,u} = A_{v2u} / N`, where `A_{v2u}` is the
//! number of actions that propagated from `v` to `u` in the training set
//! and `N` normalizes each node's incoming weights to sum to 1.

use cdim_actionlog::{ActionLog, PropagationArena};
use cdim_diffusion::EdgeProbabilities;
use cdim_graph::DirectedGraph;

/// Learns LT in-weights from the training log.
///
/// Nodes with no observed incoming propagation keep all-zero in-weights
/// (they are simply never influenced under the learned model).
pub fn learn_lt_weights(graph: &DirectedGraph, train: &ActionLog) -> EdgeProbabilities {
    lt_weights_of(&PropagationArena::build(train, graph, train.actions()))
}

/// [`learn_lt_weights`] over `dags`, the propagation DAGs of the whole
/// training log, which the caller may lend to other learners too.
pub fn lt_weights_of(dags: &PropagationArena<'_>) -> EdgeProbabilities {
    let graph = dags.graph();
    let m = graph.num_edges();
    // In-aligned counts of propagated actions per edge.
    let mut counts = vec![0u32; m];
    for dag in dags.dags() {
        for i in 0..dag.len() {
            for &e in dag.positions_of(i) {
                counts[e as usize] += 1;
            }
        }
    }
    // Per-node normalization over in-edges.
    let mut weights = vec![0.0f64; m];
    for u in graph.nodes() {
        let range = graph.in_range(u);
        let total: u64 = range.clone().map(|e| counts[e] as u64).sum();
        if total > 0 {
            for e in range {
                weights[e] = counts[e] as f64 / total as f64;
            }
        }
    }
    // Convert to the canonical (out-aligned) constructor.
    let mut out_aligned = vec![0.0; m];
    for out_pos in 0..m {
        out_aligned[out_pos] = weights[graph.out_pos_to_in_pos(out_pos)];
    }
    EdgeProbabilities::from_out_aligned(graph, out_aligned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    #[test]
    fn weights_are_propagation_frequencies_normalized() {
        // u=2 is influenced 3 times by 0 and 1 time by 1.
        let g = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(3);
        for a in 0..3u32 {
            b.push(0, a, 1.0);
            b.push(2, a, 2.0);
        }
        b.push(1, 3, 1.0);
        b.push(2, 3, 2.0);
        let log = b.build();
        let w = learn_lt_weights(&g, &log);
        assert!((w.get(&g, 0, 2).unwrap() - 0.75).abs() < 1e-12);
        assert!((w.get(&g, 1, 2).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn in_weights_sum_to_one_or_zero() {
        let g = GraphBuilder::new(4).edges([(0, 1), (2, 1), (3, 1), (0, 3), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(4);
        let mut t = 0.0;
        for a in 0..8u32 {
            for u in [0u32, 2, 1, 3] {
                if (a as usize + u as usize).is_multiple_of(2) {
                    t += 1.0;
                    b.push(u, a, t);
                }
            }
        }
        let log = b.build();
        let w = learn_lt_weights(&g, &log);
        for u in g.nodes() {
            let s = w.in_weight_sum(&g, u);
            assert!(s.abs() < 1e-12 || (s - 1.0).abs() < 1e-12, "node {u}: sum = {s}");
        }
    }

    #[test]
    fn no_observations_means_zero_weights() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let log = ActionLogBuilder::new(2).build();
        let w = learn_lt_weights(&g, &log);
        assert_eq!(w.get(&g, 0, 1), Some(0.0));
    }

    #[test]
    fn valid_lt_instance() {
        let g = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(3);
        b.push(0, 0, 1.0);
        b.push(1, 0, 1.5);
        b.push(2, 0, 2.0);
        let log = b.build();
        let w = learn_lt_weights(&g, &log);
        assert!(w.max_in_weight_sum(&g) <= 1.0 + 1e-12);
    }
}
