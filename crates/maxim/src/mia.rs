//! MIA — Maximum Influence Arborescence spread heuristic for IC.
//!
//! Chen, Wang & Wang (KDD 2010) approximate IC influence by restricting
//! propagation to *maximum influence paths* (MIPs): for every node `v`, the
//! in-arborescence `MIIA(v, θ)` contains, for each `u`, the single highest-
//! probability path `u → v`, kept only if its propagation probability is at
//! least `θ`. Activation probabilities inside an arborescence factorize
//! exactly, so σ_MIA(S) = Σ_v ap(v | MIIA(v), S) is computable in linear
//! time per arborescence — no Monte-Carlo needed. σ_MIA is monotone and
//! submodular, so greedy/CELF applies.
//!
//! The paper's experiments use the PMIA variant (arborescences re-grown to
//! avoid paths through already-chosen seeds); we keep arborescences static
//! and recompute activation probabilities exactly within them. Chen et al.
//! report the two produce nearly identical seed sets.

use crate::oracle::SpreadOracle;
use cdim_diffusion::EdgeProbabilities;
use cdim_graph::{DirectedGraph, NodeId};
use cdim_util::OrdF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// MIA configuration.
#[derive(Clone, Copy, Debug)]
pub struct MiaConfig {
    /// Path-probability threshold θ; paths weaker than this are ignored.
    /// Chen et al. recommend `1/320`.
    pub theta: f64,
}

impl Default for MiaConfig {
    fn default() -> Self {
        MiaConfig { theta: 1.0 / 320.0 }
    }
}

/// One maximum-influence in-arborescence, stored leaves-first.
#[derive(Clone, Debug)]
struct Arborescence {
    /// Global node ids, in processing order (leaves first, root last).
    nodes: Vec<NodeId>,
    /// Local index of each node's parent (next hop toward the root);
    /// `u32::MAX` for the root.
    parent: Vec<u32>,
    /// Probability of the edge from the node to its parent.
    edge_prob: Vec<f64>,
}

/// Precomputed MIA spread oracle.
#[derive(Clone, Debug)]
pub struct MiaOracle {
    arbs: Vec<Arborescence>,
    num_nodes: usize,
}

impl MiaOracle {
    /// Builds `MIIA(v, θ)` for every node `v`.
    pub fn build(graph: &DirectedGraph, probs: &EdgeProbabilities, config: MiaConfig) -> Self {
        assert!(config.theta > 0.0 && config.theta <= 1.0, "theta must be in (0, 1]");
        let n = graph.num_nodes();
        let max_dist = -config.theta.ln();

        // Dijkstra scratch, shared across roots.
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_global = vec![u32::MAX; n];
        let mut parent_prob = vec![0.0f64; n];
        let mut touched: Vec<NodeId> = Vec::new();

        let arbs = (0..n as NodeId)
            .map(|root| {
                // Backwards Dijkstra from `root` along in-edges with edge
                // length -ln(p); a path's length is -ln of its propagation
                // probability, so the shortest path is the MIP.
                for &t in &touched {
                    dist[t as usize] = f64::INFINITY;
                    parent_global[t as usize] = u32::MAX;
                    parent_prob[t as usize] = 0.0;
                }
                touched.clear();

                let mut heap: BinaryHeap<(Reverse<OrdF64>, NodeId)> = BinaryHeap::new();
                dist[root as usize] = 0.0;
                touched.push(root);
                heap.push((Reverse(OrdF64(0.0)), root));
                let mut order: Vec<NodeId> = Vec::new();

                while let Some((Reverse(OrdF64(d)), w)) = heap.pop() {
                    if d > dist[w as usize] {
                        continue; // stale entry
                    }
                    order.push(w);
                    let range = graph.in_range(w);
                    let sources = graph.in_sources();
                    for pos in range {
                        let u = sources[pos];
                        let p = probs.in_(pos);
                        if p <= 0.0 {
                            continue;
                        }
                        let cand = d - p.ln();
                        if cand <= max_dist && cand < dist[u as usize] {
                            if dist[u as usize].is_infinite() {
                                touched.push(u);
                            }
                            dist[u as usize] = cand;
                            parent_global[u as usize] = w;
                            parent_prob[u as usize] = p;
                            heap.push((Reverse(OrdF64(cand)), u));
                        }
                    }
                }

                // Leaves-first order = reverse pop order; remap parents to
                // local indices.
                order.reverse();
                let mut local = cdim_util::FxHashMap::default();
                local.reserve(order.len());
                for (i, &g) in order.iter().enumerate() {
                    local.insert(g, i as u32);
                }
                let parent: Vec<u32> = order
                    .iter()
                    .map(|&g| {
                        let pg = parent_global[g as usize];
                        if pg == u32::MAX {
                            u32::MAX
                        } else {
                            local[&pg]
                        }
                    })
                    .collect();
                let edge_prob: Vec<f64> = order.iter().map(|&g| parent_prob[g as usize]).collect();
                Arborescence { nodes: order, parent, edge_prob }
            })
            .collect();

        MiaOracle { arbs, num_nodes: n }
    }

    /// Total number of arborescence entries (memory proxy).
    pub fn total_size(&self) -> usize {
        self.arbs.iter().map(|a| a.nodes.len()).sum()
    }

    /// Activation probability of `root` given `seed_mask`.
    fn root_ap(&self, root: NodeId, seed_mask: &[bool]) -> f64 {
        let arb = &self.arbs[root as usize];
        let len = arb.nodes.len();
        // prod[i] = Π over processed children of (1 - ap(child)·p(child→i)).
        let mut prod = vec![1.0f64; len];
        let mut ap_root = 0.0;
        for i in 0..len {
            let g = arb.nodes[i];
            let ap = if seed_mask[g as usize] { 1.0 } else { 1.0 - prod[i] };
            match arb.parent[i] {
                u32::MAX => ap_root = ap,
                pi => prod[pi as usize] *= 1.0 - ap * arb.edge_prob[i],
            }
        }
        ap_root
    }
}

impl SpreadOracle for MiaOracle {
    fn spread(&self, seeds: &[NodeId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mut mask = vec![false; self.num_nodes];
        for &s in seeds {
            mask[s as usize] = true;
        }
        (0..self.num_nodes as NodeId).map(|v| self.root_ap(v, &mask)).sum()
    }

    fn universe(&self) -> usize {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celf::celf_select;
    use cdim_graph::GraphBuilder;

    fn chain(p: f64) -> (DirectedGraph, EdgeProbabilities) {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let probs = EdgeProbabilities::uniform(&g, p);
        (g, probs)
    }

    #[test]
    fn exact_on_a_path() {
        // A path has a unique influence path per pair, so MIA is exact:
        // σ({0}) = 1 + p + p².
        let (g, probs) = chain(0.5);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig { theta: 0.01 });
        let s = oracle.spread(&[0]);
        assert!((s - 1.75).abs() < 1e-12, "spread = {s}");
    }

    #[test]
    fn theta_truncates_weak_paths() {
        let (g, probs) = chain(0.5);
        // θ = 0.3 kills the two-hop path (0.25) but keeps one-hop (0.5).
        let oracle = MiaOracle::build(&g, &probs, MiaConfig { theta: 0.3 });
        let s = oracle.spread(&[0]);
        assert!((s - 1.5).abs() < 1e-12, "spread = {s}");
    }

    #[test]
    fn seeds_count_themselves() {
        let (g, probs) = chain(0.0);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig::default());
        assert_eq!(oracle.spread(&[0, 2]), 2.0);
        assert_eq!(oracle.spread(&[]), 0.0);
    }

    #[test]
    fn monotone_in_seeds() {
        let g =
            GraphBuilder::new(5).edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]).build();
        let probs = EdgeProbabilities::uniform(&g, 0.4);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig::default());
        let mut prev = 0.0;
        let mut seeds = Vec::new();
        for u in 0..5u32 {
            seeds.push(u);
            let s = oracle.spread(&seeds);
            assert!(s >= prev - 1e-12, "not monotone at {u}: {s} < {prev}");
            prev = s;
        }
        assert!((prev - 5.0).abs() < 1e-9, "all seeds must cover everything");
    }

    #[test]
    fn underestimates_multipath_graphs() {
        // Diamond 0→{1,2}→3: exact IC gives P(3) = 1 - (1 - 0.25)² but MIA
        // keeps a single path, giving 0.25.
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build();
        let probs = EdgeProbabilities::uniform(&g, 0.5);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig { theta: 0.001 });
        let s = oracle.spread(&[0]);
        // 1 (self) + 0.5 + 0.5 + 0.25.
        assert!((s - 2.25).abs() < 1e-12, "spread = {s}");
    }

    #[test]
    fn celf_selects_sensible_seed() {
        // Star with strong hub: the hub must be the first pick.
        let g = GraphBuilder::new(5).edges([(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let probs = EdgeProbabilities::uniform(&g, 0.5);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig::default());
        let sel = celf_select(&oracle, 1);
        assert_eq!(sel.seeds, vec![0]);
        assert!((sel.marginal_gains[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_edges_are_ignored() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let probs = EdgeProbabilities::uniform(&g, 0.0);
        let oracle = MiaOracle::build(&g, &probs, MiaConfig::default());
        assert_eq!(oracle.spread(&[0]), 1.0);
        assert_eq!(oracle.total_size(), 2); // each root alone
    }
}
