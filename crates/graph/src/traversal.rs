//! Breadth-first reachability.
//!
//! Spread in a sampled possible world is exactly the set of nodes reachable
//! from the seed set over live edges (Eq. 2 of the paper), so BFS is the
//! inner loop of every Monte-Carlo estimator.

use crate::csr::{DirectedGraph, NodeId};

/// Reusable BFS scratch space.
///
/// Monte-Carlo estimation performs tens of thousands of traversals; reusing
/// the visited epochs and queue avoids an O(n) clear per simulation.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    visited_epoch: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Creates scratch space for graphs with up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        BfsScratch { visited_epoch: vec![0; num_nodes], epoch: 0, queue: Vec::new() }
    }

    /// Starts a new traversal: clears the visited set in O(1).
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped around: hard-reset to stay sound.
            self.visited_epoch.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `u` visited; returns `true` if it was new.
    #[inline]
    fn visit(&mut self, u: NodeId) -> bool {
        let slot = &mut self.visited_epoch[u as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Counts nodes reachable from `seeds` following edges for which
/// `live(out_edge_position)` returns `true`.
///
/// The closure receives the *out-aligned edge position*, so a sampled
/// possible world can be represented as a bitmask or probability draw over
/// [`DirectedGraph::out_targets`].
pub fn reachable_count(
    graph: &DirectedGraph,
    seeds: &[NodeId],
    scratch: &mut BfsScratch,
    mut live: impl FnMut(usize) -> bool,
) -> usize {
    scratch.begin();
    let mut count = 0usize;
    for &s in seeds {
        if scratch.visit(s) {
            count += 1;
            scratch.queue.push(s);
        }
    }
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        let range = graph.out_range(u);
        let targets = graph.out_targets();
        for pos in range {
            if live(pos) {
                let v = targets[pos];
                if scratch.visit(v) {
                    count += 1;
                    scratch.queue.push(v);
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain() -> DirectedGraph {
        GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build()
    }

    #[test]
    fn full_reachability_on_chain() {
        let g = chain();
        let mut s = BfsScratch::new(g.num_nodes());
        assert_eq!(reachable_count(&g, &[0], &mut s, |_| true), 5);
        assert_eq!(reachable_count(&g, &[3], &mut s, |_| true), 2);
        assert_eq!(reachable_count(&g, &[4], &mut s, |_| true), 1);
    }

    #[test]
    fn dead_edges_block_propagation() {
        let g = chain();
        let mut s = BfsScratch::new(g.num_nodes());
        // Kill the edge out of node 1 (position 1 in out-aligned order).
        let blocked = g.out_edge_position(1, 2).unwrap();
        let n = reachable_count(&g, &[0], &mut s, |pos| pos != blocked);
        assert_eq!(n, 2); // {0, 1}
    }

    #[test]
    fn multiple_seeds_deduplicate() {
        let g = chain();
        let mut s = BfsScratch::new(g.num_nodes());
        assert_eq!(reachable_count(&g, &[0, 1, 0], &mut s, |_| true), 5);
    }

    #[test]
    fn scratch_reuse_is_clean_across_runs() {
        let g = chain();
        let mut s = BfsScratch::new(g.num_nodes());
        assert_eq!(reachable_count(&g, &[0], &mut s, |_| true), 5);
        // Second run from a sink must not see stale visited marks.
        assert_eq!(reachable_count(&g, &[4], &mut s, |_| true), 1);
    }

    #[test]
    fn epoch_wraparound_resets() {
        let g = chain();
        let mut s = BfsScratch::new(g.num_nodes());
        s.epoch = u32::MAX - 1;
        assert_eq!(reachable_count(&g, &[0], &mut s, |_| true), 5);
        assert_eq!(reachable_count(&g, &[0], &mut s, |_| true), 5); // wraps
        assert_eq!(reachable_count(&g, &[4], &mut s, |_| true), 1);
    }
}
