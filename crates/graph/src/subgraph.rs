//! Induced subgraphs with id remapping.
//!
//! The paper's *Small* datasets are single communities sampled from the
//! *Large* crawls; everything downstream (action logs, probability models)
//! must be re-indexed consistently, so the mapping in both directions is
//! kept alongside the new graph.

use crate::csr::{DirectedGraph, NodeId};
use crate::GraphBuilder;
use cdim_util::FxHashMap;

/// A node-induced subgraph plus the id mappings linking it to its parent.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph over dense ids `0..nodes.len()`.
    pub graph: DirectedGraph,
    /// `new_to_old[new_id] = old_id` (sorted ascending by old id).
    pub new_to_old: Vec<NodeId>,
    /// `old_to_new[old_id] = new_id`.
    pub old_to_new: FxHashMap<NodeId, NodeId>,
}

impl InducedSubgraph {
    /// Builds the subgraph of `parent` induced by `nodes`.
    ///
    /// Duplicate ids in `nodes` are ignored; ids out of range panic.
    pub fn new(parent: &DirectedGraph, nodes: &[NodeId]) -> Self {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut old_to_new = FxHashMap::default();
        old_to_new.reserve(sorted.len());
        for (new_id, &old_id) in sorted.iter().enumerate() {
            assert!((old_id as usize) < parent.num_nodes(), "node {old_id} out of range");
            old_to_new.insert(old_id, new_id as NodeId);
        }
        let mut builder = GraphBuilder::new(sorted.len());
        for &old_u in &sorted {
            let new_u = old_to_new[&old_u];
            for &old_v in parent.out_neighbors(old_u) {
                if let Some(&new_v) = old_to_new.get(&old_v) {
                    builder.push_edge(new_u, new_v);
                }
            }
        }
        InducedSubgraph { graph: builder.build(), new_to_old: sorted, old_to_new }
    }

    /// Translates an old id into the subgraph, if the node was kept.
    pub fn to_new(&self, old: NodeId) -> Option<NodeId> {
        self.old_to_new.get(&old).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_internal_edges_only() {
        let parent = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).build();
        let sub = InducedSubgraph::new(&parent, &[0, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 2); // 0->1, 1->2
        assert!(sub.graph.has_edge(sub.to_new(0).unwrap(), sub.to_new(1).unwrap()));
        assert!(!sub.graph.has_edge(sub.to_new(2).unwrap(), sub.to_new(0).unwrap()));
    }

    #[test]
    fn mapping_round_trips() {
        let parent = GraphBuilder::new(10).edges([(7, 9), (9, 3)]).build();
        let sub = InducedSubgraph::new(&parent, &[9, 3, 7]);
        for new_id in 0..sub.graph.num_nodes() as NodeId {
            let old = sub.new_to_old[new_id as usize];
            assert_eq!(sub.to_new(old), Some(new_id));
        }
        assert_eq!(sub.to_new(5), None);
    }

    #[test]
    fn duplicates_are_ignored() {
        let parent = GraphBuilder::new(4).edges([(0, 1)]).build();
        let sub = InducedSubgraph::new(&parent, &[1, 1, 0, 0]);
        assert_eq!(sub.graph.num_nodes(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_nodes() {
        let parent = GraphBuilder::new(2).edges([(0, 1)]).build();
        let _ = InducedSubgraph::new(&parent, &[0, 5]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every subgraph edge corresponds to a parent edge between kept
        /// nodes, and every parent edge between kept nodes survives.
        #[test]
        fn edge_preservation(
            raw in proptest::collection::vec((0u32..25, 0u32..25), 0..150),
            keep in proptest::collection::vec(0u32..25, 1..25),
        ) {
            let parent = GraphBuilder::new(25).edges(raw).build();
            let sub = InducedSubgraph::new(&parent, &keep);

            for (nu, nv) in sub.graph.edges() {
                prop_assert!(parent.has_edge(sub.new_to_old[nu as usize], sub.new_to_old[nv as usize]));
            }
            let kept: std::collections::HashSet<u32> =
                sub.new_to_old.iter().copied().collect();
            let mut expected = 0usize;
            for (u, v) in parent.edges() {
                if kept.contains(&u) && kept.contains(&v) {
                    expected += 1;
                }
            }
            prop_assert_eq!(sub.graph.num_edges(), expected);
        }
    }
}
