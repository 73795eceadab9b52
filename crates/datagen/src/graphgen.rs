//! Social-graph generation.
//!
//! Directed preferential attachment: nodes arrive one at a time and wire
//! `attach` out-edges to existing nodes sampled proportionally to
//! (in-degree + 1). Each edge is reciprocated with probability
//! `reciprocity` — follower graphs like Flixster's are partially mutual.
//! The result has the heavy-tailed in-degree distribution that the
//! weighted-cascade method and the PageRank baseline are sensitive to.

use cdim_graph::{DirectedGraph, GraphBuilder, NodeId};
use cdim_util::Rng;

/// Preferential-attachment parameters.
#[derive(Clone, Copy, Debug)]
pub struct GraphGenConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Out-edges created per arriving node.
    pub attach: usize,
    /// Probability that an edge is reciprocated.
    pub reciprocity: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig { nodes: 1000, attach: 7, reciprocity: 0.3, seed: 1 }
    }
}

/// Generates a preferential-attachment digraph.
pub fn preferential_attachment(config: GraphGenConfig) -> DirectedGraph {
    let GraphGenConfig { nodes, attach, reciprocity, seed } = config;
    let mut rng = Rng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(nodes);
    if nodes == 0 {
        return builder.build();
    }
    // `endpoints` holds one entry per (in-)edge endpoint plus one per node,
    // so sampling from it is proportional to in-degree + 1.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(nodes * (attach + 1));
    endpoints.push(0);

    for u in 1..nodes as NodeId {
        let m = attach.min(u as usize);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 20 * m {
            guard += 1;
            let v = endpoints[rng.index(endpoints.len())];
            if v != u && !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            builder.push_edge(u, v);
            endpoints.push(v);
            if rng.bool(reciprocity) {
                builder.push_edge(v, u);
                endpoints.push(u);
            }
        }
        endpoints.push(u);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_graph::stats::graph_stats;

    #[test]
    fn produces_requested_scale() {
        let g = preferential_attachment(GraphGenConfig {
            nodes: 500,
            attach: 6,
            reciprocity: 0.25,
            seed: 7,
        });
        assert_eq!(g.num_nodes(), 500);
        let s = graph_stats(&g);
        // ~6 out-edges per node plus ~25% reciprocals.
        assert!(s.avg_degree > 5.0 && s.avg_degree < 9.0, "avg = {}", s.avg_degree);
        assert!(s.reciprocity > 0.15, "reciprocity = {}", s.reciprocity);
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = preferential_attachment(GraphGenConfig {
            nodes: 2000,
            attach: 5,
            reciprocity: 0.0,
            seed: 3,
        });
        let mut in_degrees: Vec<usize> = g.nodes().map(|u| g.in_degree(u)).collect();
        in_degrees.sort_unstable_by(|a, b| b.cmp(a));
        // The top node should hold far more than the mean in-degree.
        let mean = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(in_degrees[0] as f64 > 8.0 * mean, "hub degree {} vs mean {mean}", in_degrees[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GraphGenConfig { nodes: 300, attach: 4, reciprocity: 0.5, seed: 11 };
        assert_eq!(preferential_attachment(cfg), preferential_attachment(cfg));
        let other = GraphGenConfig { seed: 12, ..cfg };
        assert_ne!(preferential_attachment(cfg), preferential_attachment(other));
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = preferential_attachment(GraphGenConfig {
            nodes: 200,
            attach: 8,
            reciprocity: 0.4,
            seed: 5,
        });
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
            let nbrs = g.out_neighbors(u);
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1], "duplicate neighbor");
            }
        }
    }

    #[test]
    fn tiny_configs_do_not_panic() {
        assert_eq!(
            preferential_attachment(GraphGenConfig { nodes: 0, ..Default::default() }).num_nodes(),
            0
        );
        assert_eq!(
            preferential_attachment(GraphGenConfig { nodes: 1, ..Default::default() }).num_edges(),
            0
        );
    }
}
