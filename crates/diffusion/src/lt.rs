//! Linear Threshold model.
//!
//! Each node `u` draws a threshold `θ_u ~ U[0,1]`; it activates once the
//! total incoming weight from active neighbors reaches `θ_u` (§2). The sum
//! of incoming weights must be ≤ 1.
//!
//! [`LtModel::simulate`] runs the direct threshold process. Thresholds are
//! drawn lazily, the first time a node receives weight, which is
//! distributionally identical to drawing them all upfront and touches only
//! the frontier.
//!
//! The tests cross-check it against a second, test-only sampler built on
//! Kempe et al.'s equivalence: each node pre-selects at most one in-edge
//! (edge `(v,u)` with probability `w_{v,u}`, none with the remainder), and
//! the cascade equals reachability over the selected edges.

use crate::probs::EdgeProbabilities;
use cdim_graph::{DirectedGraph, NodeId};
use cdim_util::Rng;

/// Linear Threshold simulator over a weighted graph.
#[derive(Clone, Copy, Debug)]
pub struct LtModel<'a> {
    graph: &'a DirectedGraph,
    weights: &'a EdgeProbabilities,
}

/// Reusable scratch for LT simulations (epoch-stamped to avoid O(n) clears).
#[derive(Clone, Debug)]
pub struct LtScratch {
    /// Accumulated active in-weight per node.
    acc: Vec<f64>,
    /// Lazily drawn threshold per node.
    theta: Vec<f64>,
    /// Epoch stamps for `acc`/`theta` validity.
    stamp: Vec<u32>,
    /// Active markers.
    active: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl LtScratch {
    /// Creates scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        LtScratch {
            acc: vec![0.0; n],
            theta: vec![0.0; n],
            stamp: vec![0; n],
            active: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.active.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn is_active(&self, u: NodeId) -> bool {
        self.active[u as usize] == self.epoch
    }

    #[inline]
    fn mark_active(&mut self, u: NodeId) {
        self.active[u as usize] = self.epoch;
    }
}

impl<'a> LtModel<'a> {
    /// Binds the model to a graph and in-weights.
    ///
    /// # Panics
    /// Panics (in debug builds) if some node's incoming weights sum to more
    /// than `1 + 1e-9`; call [`EdgeProbabilities::normalize_in_weights`]
    /// first for raw learned weights.
    pub fn new(graph: &'a DirectedGraph, weights: &'a EdgeProbabilities) -> Self {
        debug_assert!(
            weights.max_in_weight_sum(graph) <= 1.0 + 1e-9,
            "LT in-weights must sum to at most 1 per node"
        );
        LtModel { graph, weights }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a DirectedGraph {
        self.graph
    }

    /// The edge weights.
    pub fn weights(&self) -> &'a EdgeProbabilities {
        self.weights
    }

    /// Allocates scratch space sized for this model's graph.
    pub fn make_scratch(&self) -> LtScratch {
        LtScratch::new(self.graph.num_nodes())
    }

    /// Runs one threshold cascade from `seeds`; returns the number of
    /// active nodes at quiescence (including seeds).
    pub fn simulate(&self, seeds: &[NodeId], rng: &mut Rng, scratch: &mut LtScratch) -> usize {
        scratch.begin();
        let mut count = 0usize;
        for &s in seeds {
            if !scratch.is_active(s) {
                scratch.mark_active(s);
                scratch.queue.push(s);
                count += 1;
            }
        }
        let mut head = 0;
        while head < scratch.queue.len() {
            let v = scratch.queue[head];
            head += 1;
            let range = self.graph.out_range(v);
            let targets = self.graph.out_targets();
            for pos in range {
                let u = targets[pos];
                if scratch.is_active(u) {
                    continue;
                }
                let ui = u as usize;
                if scratch.stamp[ui] != scratch.epoch {
                    scratch.stamp[ui] = scratch.epoch;
                    scratch.acc[ui] = 0.0;
                    // Lazy threshold draw; strictly positive so that nodes
                    // with zero incoming weight never self-activate.
                    scratch.theta[ui] = 1.0 - rng.f64();
                }
                scratch.acc[ui] += self.weights.out(pos);
                if scratch.acc[ui] >= scratch.theta[ui] {
                    scratch.mark_active(u);
                    scratch.queue.push(u);
                    count += 1;
                }
            }
        }
        count
    }

    /// Runs one cascade via the live-edge equivalence; returns the active
    /// count. O(m) per call — the tests' correctness oracle.
    #[cfg(test)]
    fn simulate_live_edge(
        &self,
        seeds: &[NodeId],
        rng: &mut Rng,
        scratch: &mut LtScratch,
    ) -> usize {
        scratch.begin();
        let n = self.graph.num_nodes();
        // Each node selects at most one in-edge: its in-aligned edge
        // position + 1, or 0 for none.
        let mut choice = vec![0u32; n];
        for u in 0..n as NodeId {
            let mut pick = 0u32; // 0 = none
            let mut x = rng.f64();
            for pos in self.graph.in_range(u) {
                let w = self.weights.in_(pos);
                if x < w {
                    pick = pos as u32 + 1;
                    break;
                }
                x -= w;
            }
            choice[u as usize] = pick;
        }
        for &s in seeds {
            scratch.mark_active(s);
        }
        // u activates iff following its chosen-edge chain reaches a seed.
        // `stamp` doubles as "resolved inactive" marker this epoch.
        let mut count = 0usize;
        let mut path: Vec<NodeId> = Vec::new();
        for start in 0..n as NodeId {
            if scratch.is_active(start) {
                continue;
            }
            path.clear();
            let mut cur = start;
            let outcome = loop {
                if scratch.is_active(cur) {
                    break true;
                }
                if scratch.stamp[cur as usize] == scratch.epoch {
                    break false; // known inactive
                }
                scratch.stamp[cur as usize] = scratch.epoch; // visiting
                path.push(cur);
                match choice[cur as usize] {
                    0 => break false,
                    pick => cur = self.graph.in_sources()[(pick - 1) as usize],
                }
            };
            if outcome {
                for &p in &path {
                    scratch.mark_active(p);
                }
            }
            // Inactive nodes keep stamp == epoch, memoizing the failure.
        }
        for u in 0..n as NodeId {
            if scratch.is_active(u) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_graph::GraphBuilder;

    #[test]
    fn weight_one_edge_always_propagates() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let p = EdgeProbabilities::uniform(&g, 1.0);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(1);
        let mut s = model.make_scratch();
        for _ in 0..20 {
            assert_eq!(model.simulate(&[0], &mut rng, &mut s), 3);
        }
    }

    #[test]
    fn zero_weights_never_propagate() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let p = EdgeProbabilities::uniform(&g, 0.0);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(1);
        let mut s = model.make_scratch();
        for _ in 0..20 {
            assert_eq!(model.simulate(&[0], &mut rng, &mut s), 1);
        }
    }

    #[test]
    fn single_edge_rate_matches_weight() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let p = EdgeProbabilities::uniform(&g, 0.4);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(5);
        let mut s = model.make_scratch();
        let n = 30_000;
        let total: usize = (0..n).map(|_| model.simulate(&[0], &mut rng, &mut s)).sum();
        let mean = total as f64 / n as f64;
        // P(activate) = P(θ ≤ 0.4) = 0.4, so E = 1.4.
        assert!((mean - 1.4).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn threshold_and_live_edge_agree_in_expectation() {
        // Random small DAG-ish graph with normalized weights.
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (3, 5), (4, 5), (2, 4)])
            .build();
        let mut p = EdgeProbabilities::from_fn(&g, |u, v| ((u + v) % 3 + 1) as f64 * 0.2);
        p.normalize_in_weights(&g);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(9);
        let mut s = model.make_scratch();
        let n = 40_000;
        let mut sum_thr = 0usize;
        let mut sum_live = 0usize;
        for _ in 0..n {
            sum_thr += model.simulate(&[0], &mut rng, &mut s);
            sum_live += model.simulate_live_edge(&[0], &mut rng, &mut s);
        }
        let m_thr = sum_thr as f64 / n as f64;
        let m_live = sum_live as f64 / n as f64;
        assert!((m_thr - m_live).abs() < 0.05, "threshold {m_thr} vs live-edge {m_live}");
    }

    #[test]
    fn seeds_are_deduplicated() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let p = EdgeProbabilities::uniform(&g, 0.0);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(1);
        let mut s = model.make_scratch();
        assert_eq!(model.simulate(&[0, 0, 0], &mut rng, &mut s), 1);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let p = EdgeProbabilities::uniform(&g, 1.0);
        let model = LtModel::new(&g, &p);
        let mut rng = Rng::seed_from_u64(2);
        let mut s = model.make_scratch();
        assert_eq!(model.simulate(&[0], &mut rng, &mut s), 3);
        assert_eq!(model.simulate(&[2], &mut rng, &mut s), 1);
        assert_eq!(model.simulate_live_edge(&[2], &mut rng, &mut s), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// Kempe's equivalence on random weighted digraphs: the direct
        /// threshold process and the live-edge sampler estimate the same
        /// expected spread (they sample the same distribution).
        #[test]
        fn threshold_equals_live_edge_in_expectation(
            edges in proptest::collection::vec((0u32..6, 0u32..6), 1..20),
            seed_node in 0u32..6,
            w_scale in 1u32..4,
        ) {
            let g = GraphBuilder::new(6).edges(edges).build();
            let mut w = EdgeProbabilities::from_fn(&g, |u, v| {
                ((u * 7 + v * 3) % 5 + 1) as f64 * 0.05 * w_scale as f64
            });
            w.normalize_in_weights(&g);
            let model = LtModel::new(&g, &w);
            let mut rng = Rng::seed_from_u64(31);
            let mut s = model.make_scratch();
            let n = 6_000;
            let mut thr = 0usize;
            let mut live = 0usize;
            for _ in 0..n {
                thr += model.simulate(&[seed_node], &mut rng, &mut s);
                live += model.simulate_live_edge(&[seed_node], &mut rng, &mut s);
            }
            let (m_thr, m_live) = (thr as f64 / n as f64, live as f64 / n as f64);
            // Generous tolerance: 6k samples on a ≤6-node graph.
            prop_assert!(
                (m_thr - m_live).abs() < 0.25,
                "threshold {m_thr} vs live-edge {m_live}"
            );
        }
    }
}
