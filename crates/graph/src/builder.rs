//! Edge-list ingestion.

use crate::csr::{DirectedGraph, NodeId};

/// Accumulates edges and produces a sanitized [`DirectedGraph`].
///
/// Sanitization drops self-loops and duplicate parallel edges: neither
/// carries meaning for influence propagation (a user does not influence
/// itself, and the social tie either exists or not).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `num_nodes` nodes (ids `0..n`).
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes <= u32::MAX as usize, "node ids are u32; got {num_nodes} nodes");
        GraphBuilder { num_nodes, edges: Vec::new() }
    }

    /// Adds one directed edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Adds many directed edges.
    pub fn edges(mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        for (u, v) in it {
            self.push_edge(u, v);
        }
        self
    }

    /// Adds one edge in place (non-consuming variant for loops).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((u, v));
    }

    /// Adds the reciprocal pair `u -> v` and `v -> u`.
    pub fn push_undirected(&mut self, u: NodeId, v: NodeId) {
        self.push_edge(u, v);
        self.push_edge(v, u);
    }

    /// Finalizes the graph, dropping self-loops and duplicates.
    pub fn build(self) -> DirectedGraph {
        let mut edges = self.edges;
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
        DirectedGraph::from_clean_edges(self.num_nodes, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g =
            GraphBuilder::new(3).edges([(0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (0, 1)]).build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn undirected_inserts_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.push_undirected(0, 1);
        let g = b.build();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = GraphBuilder::new(2).edge(0, 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The CSR structure must agree with a naive adjacency-set oracle,
        /// in both directions, for arbitrary messy edge lists.
        #[test]
        fn csr_matches_naive_oracle(
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..200)
        ) {
            let n = 30usize;
            let g = GraphBuilder::new(n).edges(raw.iter().copied()).build();

            let mut out_sets = vec![std::collections::BTreeSet::new(); n];
            let mut in_sets = vec![std::collections::BTreeSet::new(); n];
            for &(u, v) in &raw {
                if u != v {
                    out_sets[u as usize].insert(v);
                    in_sets[v as usize].insert(u);
                }
            }
            let expected_edges: usize = out_sets.iter().map(|s| s.len()).sum();
            prop_assert_eq!(g.num_edges(), expected_edges);

            for u in 0..n as u32 {
                let out: Vec<u32> = out_sets[u as usize].iter().copied().collect();
                let inn: Vec<u32> = in_sets[u as usize].iter().copied().collect();
                prop_assert_eq!(g.out_neighbors(u), &out[..]);
                prop_assert_eq!(g.in_neighbors(u), &inn[..]);
            }
        }

        /// Alignment permutation is a bijection linking the two directions.
        #[test]
        fn alignment_is_bijective(
            raw in proptest::collection::vec((0u32..20, 0u32..20), 0..100)
        ) {
            let g = GraphBuilder::new(20).edges(raw).build();
            let mut seen = vec![false; g.num_edges()];
            for pos in 0..g.num_edges() {
                let ip = g.out_pos_to_in_pos(pos);
                prop_assert!(!seen[ip]);
                seen[ip] = true;
            }
        }
    }
}
