//! Naive reference implementations of the credit-distribution equations.
//!
//! Everything here favors obviousness over speed: direct dynamic programs
//! over the propagation DAGs, with explicit set arguments and explicit
//! induced-subgraph restrictions. The optimized scan (Alg 2), marginal
//! gains (Theorem 3) and incremental updates (Lemmas 2–3) are all tested
//! against this module; it is also a readable executable specification of
//! §4 for library users.
//!
//! [`scan_dump`] is different in kind: it is the hash-map Algorithm-2
//! kernel the dense scan replaced, kept as the scan's *bitwise* oracle
//! (same f64 additions in the same order, so equal bits, not just equal
//! values within a tolerance).

use crate::policy::CreditPolicy;
use crate::store::{pair_key, ActionCredits, CreditStoreDump};
use cdim_actionlog::{ActionId, ActionLog, PropagationDag, UserId};
use cdim_graph::DirectedGraph;
use std::collections::BTreeMap;

/// Γ_{v,u}(a) for every pair with nonzero credit, by direct DP over Eq 5.
pub fn pairwise_credit(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    a: ActionId,
) -> BTreeMap<(UserId, UserId), f64> {
    let dag = PropagationDag::build(log, graph, a);
    let gammas = policy.edge_credits(graph, &dag);
    let offsets = edge_offsets(&dag);
    let n = dag.len();
    let mut out = BTreeMap::new();

    // One DP per source v: Γ_{v,·}.
    for src in 0..n {
        let mut credit = vec![0.0f64; n];
        credit[src] = 1.0; // Γ_{v,v} = 1
        for i in 0..n {
            if i == src {
                continue;
            }
            let mut total = 0.0;
            for (k, &pj) in dag.parents_of(i).iter().enumerate() {
                total += credit[pj as usize] * gammas[offsets[i] + k];
            }
            credit[i] = total;
            if total > 0.0 {
                out.insert((dag.user(src), dag.user(i)), total);
            }
        }
    }
    out
}

/// Γ_{S,u}(a) for every performer `u`, with paths restricted to the node
/// subset `within` (pass all users for the unrestricted `Γ_{S,u}`).
///
/// Direct credits γ are always computed on the full propagation graph
/// (§5.1: "the direct credit γ is always assigned considering the whole
/// propagation graph"); the restriction applies to the *relay* nodes.
pub fn set_credit_restricted(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    a: ActionId,
    seeds: &dyn Fn(UserId) -> bool,
    within: &dyn Fn(UserId) -> bool,
) -> BTreeMap<UserId, f64> {
    let dag = PropagationDag::build(log, graph, a);
    let gammas = policy.edge_credits(graph, &dag);
    let offsets = edge_offsets(&dag);
    let n = dag.len();
    let mut credit = vec![0.0f64; n];
    let mut out = BTreeMap::new();
    for i in 0..n {
        let u = dag.user(i);
        credit[i] = if seeds(u) {
            1.0
        } else if !within(u) {
            // Outside the induced subgraph: cannot receive or relay.
            0.0
        } else {
            let mut total = 0.0;
            for (k, &pj) in dag.parents_of(i).iter().enumerate() {
                total += credit[pj as usize] * gammas[offsets[i] + k];
            }
            total
        };
        out.insert(u, credit[i]);
    }
    out
}

/// Γ_{S,u}(a) on the whole propagation graph.
pub fn set_credit(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    a: ActionId,
    seed_set: &[UserId],
) -> BTreeMap<UserId, f64> {
    let seeds: Vec<UserId> = seed_set.to_vec();
    set_credit_restricted(graph, log, policy, a, &move |u| seeds.contains(&u), &|_| true)
}

/// Exact σ_cd(S) = Σ_u (1/A_u) Σ_a Γ_{S,u}(a), by full recomputation.
pub fn sigma_cd(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    seed_set: &[UserId],
) -> f64 {
    let mut total = 0.0;
    for a in log.actions() {
        for (u, credit) in set_credit(graph, log, policy, a, seed_set) {
            let au = log.actions_performed_by(u);
            if au > 0 {
                total += credit / f64::from(au);
            }
        }
    }
    total
}

/// The canonical dump of a scan of `log`, computed by the hash-map
/// kernel: per action, every credit is accumulated into an
/// `ActionCredits` map in the scan's visiting order (parents in DAG
/// order, each parent's sources in first-insertion order), then listed
/// sorted by `(v, u)`. `scan_with(..).dump()` must equal it bit for bit.
pub fn scan_dump(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    lambda: f64,
) -> CreditStoreDump {
    let mut user_actions = vec![Vec::new(); log.num_users()];
    for a in log.actions() {
        for &u in log.users_of(a) {
            user_actions[u as usize].push(a);
        }
    }
    let inv_au = (0..log.num_users() as u32)
        .map(|u| match log.actions_performed_by(u) {
            0 => 0.0,
            au => 1.0 / f64::from(au),
        })
        .collect();
    let credits = log
        .actions()
        .map(|a| {
            let mut entries: Vec<_> =
                hashed_action(graph, log, policy, lambda, a).entries().collect();
            entries.sort_unstable_by_key(|&(v, u, _)| pair_key(v, u));
            entries
        })
        .collect();
    CreditStoreDump { lambda, user_actions, inv_au, credits }
}

/// One action of [`scan_dump`].
fn hashed_action(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    lambda: f64,
    a: ActionId,
) -> ActionCredits {
    let dag = PropagationDag::build(log, graph, a);
    let gammas = policy.edge_credits(graph, &dag);
    let mut credits = ActionCredits::default();
    let mut edge_idx = 0usize;
    for i in 0..dag.len() {
        let u = dag.user(i);
        for &pj in dag.parents_of(i) {
            let v = dag.user(pj as usize);
            let gamma = gammas[edge_idx];
            edge_idx += 1;
            if gamma <= 0.0 {
                continue;
            }
            if gamma >= lambda {
                credits.add(v, u, gamma);
            }
            if !credits.has_sources(v) {
                continue;
            }
            let bound = lambda / gamma;
            // Collect first: the map cannot be mutated while iterated.
            let relays: Vec<(u32, f64)> =
                credits.sources_of(v).filter(|&(w, c)| w != u && c >= bound).collect();
            for (w, c) in relays {
                credits.add(w, u, c * gamma);
            }
        }
    }
    credits
}

/// Flattened-parent-array offsets per local node of a DAG.
fn edge_offsets(dag: &PropagationDag) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(dag.len());
    let mut acc = 0usize;
    for i in 0..dag.len() {
        offsets.push(acc);
        acc += dag.in_degree(i);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    /// Same Figure-1 construction as the scan tests.
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
    fn pairwise_matches_paper_example() {
        let (graph, log) = figure1();
        let credits = pairwise_credit(&graph, &log, &CreditPolicy::Uniform, 0);
        assert!((credits[&(0, 5)] - 0.75).abs() < 1e-12);
        assert!((credits[&(2, 5)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_credit_matches_paper_lemma1_example() {
        // Paper (§5.2): with S = {v, z}, Γ_{S,u} = 0.875.
        let (graph, log) = figure1();
        let credits = set_credit(&graph, &log, &CreditPolicy::Uniform, 0, &[0, 4]);
        assert!((credits[&5] - 0.875).abs() < 1e-12, "Γ_S,u = {}", credits[&5]);
    }

    #[test]
    fn restricted_credit_ignores_paths_through_excluded_nodes() {
        // Γ^{V−z}_{v,u}: drop relays through z. From the paper's Lemma 1
        // example: Γ^{V−z}_{v,u} = 0.25 + 0.25 + 0.5·0.25 = 0.625.
        let (graph, log) = figure1();
        let credits =
            set_credit_restricted(&graph, &log, &CreditPolicy::Uniform, 0, &|u| u == 0, &|u| {
                u != 4
            });
        assert!((credits[&5] - 0.625).abs() < 1e-12, "got {}", credits[&5]);
    }

    #[test]
    fn lemma1_holds_on_example() {
        // Γ_{S,u} = Σ_{v∈S} Γ^{V−S+v}_{v,u} with S = {v, z}:
        // 0.625 (v, avoiding z) + 0.25 (z, avoiding v) = 0.875.
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let v_side = set_credit_restricted(&graph, &log, &policy, 0, &|u| u == 0, &|u| u != 4);
        let z_side = set_credit_restricted(&graph, &log, &policy, 0, &|u| u == 4, &|u| u != 0);
        let joint = set_credit(&graph, &log, &policy, 0, &[0, 4]);
        assert!((v_side[&5] + z_side[&5] - joint[&5]).abs() < 1e-12);
    }

    #[test]
    fn sigma_counts_seeds_once_per_their_actions() {
        let (graph, log) = figure1();
        // Every user performs exactly one action, so a seed's self-credit
        // contributes exactly 1.
        let s = sigma_cd(&graph, &log, &CreditPolicy::Uniform, &[5]);
        assert!((s - 1.0).abs() < 1e-12, "sink node influences nobody: {s}");
    }

    #[test]
    fn sigma_of_initiators_covers_whole_trace() {
        let (graph, log) = figure1();
        // Seeding all initiators gives Γ = 1 at every performer: σ = 6.
        let s = sigma_cd(&graph, &log, &CreditPolicy::Uniform, &[0, 1]);
        assert!((s - 6.0).abs() < 1e-12, "σ = {s}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    fn random_instance(
        edges: Vec<(u32, u32)>,
        events: Vec<(u32, u32, u64)>,
    ) -> (DirectedGraph, ActionLog) {
        let graph = GraphBuilder::new(8).edges(edges).build();
        let mut b = ActionLogBuilder::new(8);
        for (u, a, t) in events {
            b.push(u, a, t as f64);
        }
        (graph, b.build())
    }

    proptest! {
        /// σ_cd is monotone: adding a seed never decreases spread
        /// (Theorem 2, first half).
        #[test]
        fn sigma_is_monotone(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
            order in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..8),
        ) {
            let (graph, log) = random_instance(edges, events);
            let policy = CreditPolicy::Uniform;
            let mut seeds: Vec<u32> = Vec::new();
            let mut prev = sigma_cd(&graph, &log, &policy, &seeds);
            for s in order {
                seeds.push(s);
                let cur = sigma_cd(&graph, &log, &policy, &seeds);
                prop_assert!(cur + 1e-9 >= prev, "σ dropped: {prev} -> {cur}");
                prev = cur;
            }
        }

        /// σ_cd is submodular: σ(S+x) − σ(S) ≥ σ(T+x) − σ(T) for S ⊆ T
        /// (Theorem 2, second half).
        #[test]
        fn sigma_is_submodular(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
            s_size in 0usize..3,
            extra in 0usize..3,
            x in 0u32..8,
        ) {
            let (graph, log) = random_instance(edges, events);
            let policy = CreditPolicy::Uniform;
            let small: Vec<u32> = (0..s_size as u32).collect();
            let mut large = small.clone();
            large.extend((s_size as u32..(s_size + extra) as u32).take(extra));
            prop_assume!(!small.contains(&x) && !large.contains(&x));

            let gain_small = sigma_cd(&graph, &log, &policy, &with(&small, x))
                - sigma_cd(&graph, &log, &policy, &small);
            let gain_large = sigma_cd(&graph, &log, &policy, &with(&large, x))
                - sigma_cd(&graph, &log, &policy, &large);
            prop_assert!(gain_small + 1e-9 >= gain_large,
                "submodularity violated: {gain_small} < {gain_large}");
        }

        /// Lemma 1 on random instances: Γ_{S,u} = Σ_{v∈S} Γ^{V−S+v}_{v,u}.
        #[test]
        fn lemma1_random(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..2, 0u64..16), 1..30),
            seeds in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 1..4),
        ) {
            let (graph, log) = random_instance(edges, events);
            let policy = CreditPolicy::Uniform;
            for a in log.actions() {
                let joint = set_credit(&graph, &log, &policy, a, &seeds);
                let mut summed: std::collections::BTreeMap<u32, f64> =
                    joint.keys().map(|&u| (u, 0.0)).collect();
                for &v in &seeds {
                    let seeds_cl = seeds.clone();
                    let part = set_credit_restricted(
                        &graph, &log, &policy, a,
                        &move |u| u == v,
                        &move |u| u == v || !seeds_cl.contains(&u),
                    );
                    for (u, c) in part {
                        *summed.get_mut(&u).unwrap() += c;
                    }
                }
                for (u, &c) in &joint {
                    // Seeds themselves: joint = 1; the sum may differ (the
                    // lemma is about non-seed nodes reachable via relays).
                    if seeds.contains(u) {
                        continue;
                    }
                    prop_assert!((summed[u] - c).abs() < 1e-9,
                        "action {a} node {u}: {} vs {c}", summed[u]);
                }
            }
        }
    }

    fn with(set: &[u32], x: u32) -> Vec<u32> {
        let mut v = set.to_vec();
        v.push(x);
        v
    }
}
