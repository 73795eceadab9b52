//! Algorithms 3–5: CELF seed selection under the CD model.
//!
//! The selector never touches the action log after the scan. Marginal
//! gains come from Theorem 3:
//!
//! ```text
//! σ(S+x) − σ(S) = Σ_a (1 − Γ_{S,x}(a)) · Σ_u Γ^{V−S}_{x,u}(a) / A_u
//! ```
//!
//! where the inner sum includes the `u = x` self term `1/A_x`. The paper's
//! Algorithm 4 adds `1/A_x` only for actions in which `x` holds outgoing
//! credit; we follow Theorem 3 and iterate *all* actions `x` performed
//! (see DESIGN.md §2.1 — the pseudocode variant is available as
//! [`CdSelector::compute_mg_pseudocode`] for the ablation).
//!
//! When a seed is chosen, [`CdSelector::update`] applies Lemma 3 to SC and
//! Lemma 2 to UC, then retires the new seed's credit row and column —
//! `x ∉ V − S` any more, so credits into or out of `x` must not survive
//! (DESIGN.md §2.2).

use crate::store::{pair_key, ActionCredits, CreditStore, CreditStoreDump};
use cdim_maxim::Selection;
use cdim_util::{FxHashMap, HeapSize, OrdF64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Packs an `(action, user)` pair for the SC map.
#[inline]
fn sc_key(a: u32, u: u32) -> u64 {
    pair_key(a, u)
}

/// Stateful CD seed selector (Algorithm 3).
///
/// Built from a trained [`CreditStore`], whose arena it shares for the
/// per-user indexes (actions performed, `1/A_u`), plus its own mutable
/// working copy of the credits (`ActionCredits` per action), filled from
/// the arena's rows in canonical order and updated by Lemma 2 as seeds
/// are committed.
#[derive(Clone, Debug)]
pub struct CdSelector {
    base: CreditStore,
    /// `UC[..][..][a]` under the current seed set, per action.
    actions: Vec<ActionCredits>,
    /// `SC[x][a] = Γ_{S,x}(a)` for the current seed set.
    sc: FxHashMap<u64, f64>,
    pub(crate) seeds: Vec<u32>,
}

impl CdSelector {
    /// Wraps a scanned credit store: builds the working copy of its
    /// credits, entries inserted in `(v, u)` order per action.
    pub fn new(store: CreditStore) -> Self {
        let actions = (0..store.num_actions() as u32)
            .map(|a| {
                let mut ac = ActionCredits::default();
                for (v, u, c) in store.action(a).entries() {
                    ac.add(v, u, c);
                }
                ac.shrink_to_fit();
                ac
            })
            .collect();
        CdSelector { base: store, actions, sc: FxHashMap::default(), seeds: Vec::new() }
    }

    /// Seeds chosen so far.
    pub fn seeds(&self) -> &[u32] {
        &self.seeds
    }

    /// Exports the full selector state (updated credits, SC map, chosen
    /// seeds) as plain data — the serialization hook snapshot persistence
    /// builds on. Credits and SC entries are emitted in sorted order,
    /// making the dump canonical.
    pub fn dump(&self) -> SelectorDump {
        let credits = self
            .actions
            .iter()
            .map(|ac| {
                let mut entries: Vec<(u32, u32, f64)> = ac.entries().collect();
                entries.sort_unstable_by_key(|&(v, u, _)| pair_key(v, u));
                entries
            })
            .collect();
        let mut sc: Vec<(u32, u32, f64)> =
            self.sc.iter().map(|(&key, &c)| ((key >> 32) as u32, key as u32, c)).collect();
        sc.sort_unstable_by_key(|&(a, u, _)| sc_key(a, u));
        SelectorDump { store: self.base.dump_with(credits), sc, seeds: self.seeds.clone() }
    }

    /// Rebuilds a selector from a [`dump`](Self::dump). Two selectors
    /// restored from equal dumps answer every query identically (bit-exact
    /// floating-point sums included).
    pub fn from_dump(dump: &SelectorDump) -> Self {
        let mut selector = CdSelector::new(CreditStore::from_dump(&dump.store));
        for &(a, u, c) in &dump.sc {
            selector.sc.insert(sc_key(a, u), c);
        }
        selector.seeds.clone_from(&dump.seeds);
        selector
    }

    /// Theorem-3 marginal gain of adding `x` to the current seed set. A
    /// committed seed gains nothing (σ is a set function).
    pub fn compute_mg(&self, x: u32) -> f64 {
        let inv_ax = self.base.inv_au(x);
        if inv_ax == 0.0 || self.seeds.contains(&x) {
            return 0.0; // never acted (no evidence), or already a seed
        }
        let mut mg = 0.0;
        for &a in self.base.actions_of_user(x) {
            let sc_xa = self.sc.get(&sc_key(a, x)).copied().unwrap_or(0.0);
            let factor = (1.0 - sc_xa).max(0.0);
            if factor == 0.0 {
                continue;
            }
            let mut mga = inv_ax; // the u = x self term
            for (u, c) in self.actions[a as usize].targets_of(x) {
                mga += c * self.base.inv_au(u);
            }
            mg += mga * factor;
        }
        mg
    }

    /// The paper's literal Algorithm 4: like [`Self::compute_mg`] but the
    /// self term is only added for actions where `x` holds outgoing
    /// credit. Kept for the `ablate-mg` experiment.
    pub fn compute_mg_pseudocode(&self, x: u32) -> f64 {
        let inv_ax = self.base.inv_au(x);
        if inv_ax == 0.0 || self.seeds.contains(&x) {
            return 0.0;
        }
        let mut mg = 0.0;
        for &a in self.base.actions_of_user(x) {
            let ac = &self.actions[a as usize];
            let mut mga = 0.0;
            let mut any = false;
            for (u, c) in ac.targets_of(x) {
                any = true;
                mga += c * self.base.inv_au(u);
            }
            if !any {
                continue;
            }
            mga += inv_ax;
            let sc_xa = self.sc.get(&sc_key(a, x)).copied().unwrap_or(0.0);
            mg += mga * (1.0 - sc_xa).max(0.0);
        }
        mg
    }

    /// Algorithm 5: adds `x` to the seed set and updates UC (Lemma 2) and
    /// SC (Lemma 3) incrementally. Committing a seed twice is a no-op.
    pub fn update(&mut self, x: u32) {
        if self.seeds.contains(&x) {
            return;
        }
        // Credits involving x exist only in actions x performed, so the
        // per-user action index bounds the walk.
        let actions: Vec<u32> = self.base.actions_of_user(x).to_vec();
        for a in actions {
            self.apply_seed_to_action(a, x);
        }
        self.seeds.push(x);
    }

    /// One action's worth of [`Self::update`]: retires `x` from action `a`
    /// and applies the Lemma 2/3 credit algebra. Actions are independent,
    /// which is what lets [`CompactSelector::extend`] replay committed
    /// seeds over freshly appended actions only.
    ///
    /// [`CompactSelector::extend`]: crate::CompactSelector::extend
    fn apply_seed_to_action(&mut self, a: u32, x: u32) {
        let sc_xa = self.sc.get(&sc_key(a, x)).copied().unwrap_or(0.0);
        let one_minus = (1.0 - sc_xa).max(0.0);
        let (gout, gin) = self.actions[a as usize].retire(x);
        // Lemma 3: Γ_{S+x,u} = Γ_{S,u} + Γ^{V−S}_{x,u}·(1 − Γ_{S,x}).
        for &(u, cxu) in &gout {
            let e = self.sc.entry(sc_key(a, u)).or_insert(0.0);
            *e = (*e + cxu * one_minus).min(1.0);
        }
        // Lemma 2: Γ^{W−x}_{v,u} = Γ^W_{v,u} − Γ^W_{v,x}·Γ^W_{x,u}.
        let ac = &mut self.actions[a as usize];
        for &(v, cvx) in &gin {
            for &(u, cxu) in &gout {
                ac.subtract(v, u, cvx * cxu);
            }
        }
    }

    /// Runs CELF until `k` seeds are chosen; returns the selection and
    /// consumes the selector. Candidates are all users that performed at
    /// least one action and are not already seeds.
    pub fn select(self, k: usize) -> Selection {
        self.select_with_mode(k, MgMode::Theorem3)
    }

    /// Like [`Self::select`] but with an explicit marginal-gain mode
    /// (the `ablate-mg` experiment compares the two).
    pub fn select_with_mode(self, k: usize, mode: MgMode) -> Selection {
        CelfSession::new(self, mode).select(k)
    }
}

impl HeapSize for CdSelector {
    /// The selector's own state — the working copy of the credits, SC
    /// and seeds — not the shared arena of the store it was built from.
    fn heap_bytes(&self) -> usize {
        self.actions.heap_bytes() + self.sc.heap_bytes() + self.seeds.heap_bytes()
    }
}

/// The state interface the CELF driver (Algorithm 3) runs against.
///
/// Two engines implement it: the mutable [`CdSelector`] and the
/// flat-array overlay in [`crate::compact`]. Sharing one driver is what
/// makes their answers *bit-identical* for canonically restored state —
/// the candidate enumeration, heap discipline, and every f64 accumulation
/// order are structurally the same code.
pub(crate) trait CelfEngine {
    /// Users in the id space (the candidate range).
    fn num_users(&self) -> usize;
    /// Seeds committed so far (never candidates again).
    fn seeds(&self) -> &[u32];
    /// `Σ_a Σ_u Γ_{x,u}(a)·1/A_u` for every user `x` — the credit half of
    /// the `S = ∅` bulk pass. Implementations must accumulate per
    /// out-row, actions in ascending order, rows in each row's traversal
    /// order: every contribution to `initial[x]` comes from `x`'s own
    /// rows, so the per-user sums are then deterministic for canonically
    /// ordered state regardless of how the row *set* is iterated.
    fn initial_credit_gains(&self) -> Vec<f64>;
    /// `1 / A_x` (0 for users that never acted, who are not candidates).
    fn inv_au_of(&self, x: u32) -> f64;
    /// The self-credit half of the `S = ∅` bulk pass for candidate `x`
    /// (mode-dependent; see [`MgMode`]). Summed per performed action with
    /// the same accumulation order as the full marginal-gain formula.
    fn self_term(&self, x: u32, mode: MgMode) -> f64;
    /// Theorem-3 (or pseudocode) marginal gain of `x` under the current
    /// seed set.
    fn mg(&self, x: u32, mode: MgMode) -> f64;
    /// Commits `x` as a seed and applies the Lemma 2/3 updates.
    fn commit(&mut self, x: u32);
}

/// Algorithm 3's CELF loop over any [`CelfEngine`], as a resumable
/// session: the bulk first pass runs at construction, then
/// [`select`](Self::select) re-evaluates lazily off a max-heap (ties
/// break toward the smaller user id) until enough seeds are committed.
///
/// CELF is deterministic, so a session advanced to `K` seeds has passed
/// through the exact state a fresh run to `k ≤ K` stops in: the first `k`
/// seeds, their gains, and the evaluation count at the `k`-th commit are
/// that run's [`Selection`]. A smaller budget is answered from that
/// prefix; a larger one resumes the same loop.
#[derive(Clone, Debug)]
pub(crate) struct CelfSession<E> {
    engine: E,
    mode: MgMode,
    heap: BinaryHeap<(OrdF64, Reverse<u32>, usize)>,
    /// Seeds the engine held before the session started.
    base: usize,
    /// Gain of each seed the session committed, in order.
    gains: Vec<f64>,
    /// Evaluations after the first pass (`[0]`) and at each commit.
    evaluations_at: Vec<usize>,
    /// Evaluations so far.
    evaluations: usize,
}

impl<E: CelfEngine> CelfSession<E> {
    /// Runs the first pass over `engine`'s candidates.
    pub(crate) fn new(engine: E, mode: MgMode) -> Self {
        let mut evaluations = 0usize;
        let mut heap = BinaryHeap::with_capacity(engine.num_users());
        // First pass: S = ∅, so SC = 0 and mg(x) = σ_cd({x}). One bulk
        // sweep over the credit rows computes every candidate's gain at
        // once — the per-user formula would pay an index probe per entry,
        // which dominates selection time on multi-million-entry stores.
        // (Theorem3 and Pseudocode agree on all credit terms; they differ
        // only in the self term.)
        let initial = engine.initial_credit_gains();
        for x in 0..engine.num_users() as u32 {
            if engine.inv_au_of(x) == 0.0 || engine.seeds().contains(&x) {
                continue;
            }
            evaluations += 1;
            heap.push((OrdF64(initial[x as usize] + engine.self_term(x, mode)), Reverse(x), 0));
        }
        let base = engine.seeds().len();
        CelfSession {
            engine,
            mode,
            heap,
            base,
            gains: Vec::new(),
            evaluations_at: vec![evaluations],
            evaluations,
        }
    }

    /// The selection a fresh run to `k` returns: continues CELF until the
    /// engine holds `k` seeds or every candidate is committed, then takes
    /// that prefix of the session's seeds. Memory grows with the seeds
    /// actually committed, never with `k`.
    pub(crate) fn select(&mut self, k: usize) -> Selection {
        while self.engine.seeds().len() < k {
            let Some((OrdF64(mg), Reverse(x), round)) = self.heap.pop() else {
                break;
            };
            if round == self.engine.seeds().len() {
                self.gains.push(mg);
                self.engine.commit(x);
                self.evaluations_at.push(self.evaluations);
            } else {
                let fresh = self.engine.mg(x, self.mode);
                self.evaluations += 1;
                self.heap.push((OrdF64(fresh), Reverse(x), self.engine.seeds().len()));
            }
        }
        let taken = k.saturating_sub(self.base).min(self.gains.len());
        Selection {
            seeds: self.engine.seeds()[..self.base + taken].to_vec(),
            marginal_gains: self.gains[..taken].to_vec(),
            evaluations: self.evaluations_at[taken],
        }
    }
}

impl<E: HeapSize> HeapSize for CelfSession<E> {
    fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes()
            + self.heap.capacity() * std::mem::size_of::<(OrdF64, Reverse<u32>, usize)>()
            + self.gains.heap_bytes()
            + self.evaluations_at.heap_bytes()
    }
}

impl CelfEngine for CdSelector {
    fn num_users(&self) -> usize {
        self.base.num_users()
    }

    fn seeds(&self) -> &[u32] {
        &self.seeds
    }

    fn initial_credit_gains(&self) -> Vec<f64> {
        let mut initial = vec![0.0f64; self.base.num_users()];
        for a in 0..self.base.num_actions() as u32 {
            let ac = &self.actions[a as usize];
            for (v, row) in ac.out_rows() {
                let acc = &mut initial[v as usize];
                for &u in row {
                    *acc += ac.get(v, u) * self.base.inv_au(u);
                }
            }
        }
        initial
    }

    fn inv_au_of(&self, x: u32) -> f64 {
        self.base.inv_au(x)
    }

    fn self_term(&self, x: u32, mode: MgMode) -> f64 {
        let inv_ax = self.base.inv_au(x);
        match mode {
            // inv_ax summed over every action x performed is exactly 1 up
            // to rounding; use the same per-action accumulation as
            // compute_mg for bit-identical refresh comparisons.
            MgMode::Theorem3 => self.base.actions_of_user(x).iter().map(|_| inv_ax).sum::<f64>(),
            MgMode::Pseudocode => self
                .base
                .actions_of_user(x)
                .iter()
                .filter(|&&a| self.actions[a as usize].has_influencer(x))
                .map(|_| inv_ax)
                .sum::<f64>(),
        }
    }

    fn mg(&self, x: u32, mode: MgMode) -> f64 {
        match mode {
            MgMode::Theorem3 => self.compute_mg(x),
            MgMode::Pseudocode => self.compute_mg_pseudocode(x),
        }
    }

    fn commit(&mut self, x: u32) {
        self.update(x);
    }
}

/// Plain-data image of a [`CdSelector`] (see [`CdSelector::dump`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelectorDump {
    /// The (possibly Lemma-2-updated) credit store.
    pub store: CreditStoreDump,
    /// `(action, user, Γ_{S,u}(a))` triples sorted by `(action, user)`.
    pub sc: Vec<(u32, u32, f64)>,
    /// Seeds chosen so far, in selection order.
    pub seeds: Vec<u32>,
}

/// Which marginal-gain formula Algorithm 3 runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgMode {
    /// The Theorem-3-faithful gain (self term for every performed action).
    Theorem3,
    /// The paper's literal Algorithm-4 pseudocode (self term only for
    /// actions with outgoing credit).
    Pseudocode,
}

/// Convenience: scan-independent one-call selection.
pub fn select_seeds(store: CreditStore, k: usize) -> Selection {
    CdSelector::new(store).select(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CreditPolicy;
    use crate::reference;
    use crate::scan::scan;
    use cdim_actionlog::{ActionLog, ActionLogBuilder};
    use cdim_graph::{DirectedGraph, GraphBuilder};

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
    fn first_marginal_gain_is_sigma_singleton() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let sel = CdSelector::new(store);
        for x in 0..6u32 {
            let mg = sel.compute_mg(x);
            let expect = reference::sigma_cd(&graph, &log, &policy, &[x]);
            assert!((mg - expect).abs() < 1e-12, "user {x}: {mg} vs {expect}");
        }
    }

    #[test]
    fn marginal_gains_match_reference_after_updates() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let mut sel = CdSelector::new(store);
        sel.update(0); // S = {v}
        let base = reference::sigma_cd(&graph, &log, &policy, &[0]);
        for x in 1..6u32 {
            let mg = sel.compute_mg(x);
            let expect = reference::sigma_cd(&graph, &log, &policy, &[0, x]) - base;
            assert!((mg - expect).abs() < 1e-12, "S={{0}}, x={x}: {mg} vs {expect}");
        }
        // Second update and re-check.
        sel.update(4); // S = {v, z}
        let base2 = reference::sigma_cd(&graph, &log, &policy, &[0, 4]);
        for x in [1u32, 2, 3, 5] {
            let mg = sel.compute_mg(x);
            let expect = reference::sigma_cd(&graph, &log, &policy, &[0, 4, x]) - base2;
            assert!((mg - expect).abs() < 1e-12, "S={{0,4}}, x={x}: {mg} vs {expect}");
        }
    }

    #[test]
    fn selection_telescopes_to_sigma() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let sel = select_seeds(store, 3);
        let sigma = reference::sigma_cd(&graph, &log, &policy, &sel.seeds);
        assert!(
            (sel.total_gain() - sigma).abs() < 1e-12,
            "telescoped {} vs direct {}",
            sel.total_gain(),
            sigma
        );
    }

    #[test]
    fn matches_exact_greedy() {
        let (graph, log) = figure1();
        let policy = CreditPolicy::Uniform;
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let cd = select_seeds(store, 3);
        let eval = crate::spread::CdSpreadEvaluator::build(&graph, &log, &policy);
        let greedy = cdim_maxim::greedy_select(&eval, 3);
        assert_eq!(cd.seeds, greedy.seeds);
    }

    #[test]
    fn inactive_users_are_never_selected() {
        let graph = GraphBuilder::new(4).edges([(0, 1), (3, 0)]).build();
        let mut b = ActionLogBuilder::new(4);
        b.push(0, 0, 0.0);
        b.push(1, 0, 1.0);
        let log = b.build();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        let sel = select_seeds(store, 4);
        // Users 2 and 3 never acted: only 0 and 1 are eligible.
        assert_eq!(sel.seeds.len(), 2);
        assert!(!sel.seeds.contains(&2));
        assert!(!sel.seeds.contains(&3));
    }

    #[test]
    fn pseudocode_mg_never_exceeds_theorem3() {
        let (graph, log) = figure1();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        let sel = CdSelector::new(store);
        for x in 0..6u32 {
            let full = sel.compute_mg(x);
            let pseudo = sel.compute_mg_pseudocode(x);
            assert!(pseudo <= full + 1e-12, "user {x}: {pseudo} > {full}");
        }
        // The sink user (5) influences nobody: pseudocode says 0, Theorem 3
        // says 1 (its own activation).
        assert_eq!(sel.compute_mg_pseudocode(5), 0.0);
        assert!((sel.compute_mg(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_cover_reduction_of_theorem1() {
        // The NP-hardness reduction: undirected triangle + pendant.
        //   G: 0-1, 1-2, 2-0, 2-3. {0, 2} is a vertex cover of size 2.
        // The CD instance: bidirectional social edges; per undirected edge
        // two 2-node propagation traces (one per direction) with direct
        // credit α = 1 (uniform policy, d_in = 1).
        // Then S is a vertex cover of size k iff σ_cd(S) = k + (|V|−k)/2·α.
        let undirected = [(0u32, 1u32), (1, 2), (2, 0), (2, 3)];
        let mut gb = GraphBuilder::new(4);
        for &(u, v) in &undirected {
            gb.push_undirected(u, v);
        }
        let graph = gb.build();
        let mut b = ActionLogBuilder::new(4);
        let mut action = 0u32;
        for &(u, v) in &undirected {
            b.push(u, action, 0.0);
            b.push(v, action, 1.0);
            action += 1;
            b.push(v, action, 0.0);
            b.push(u, action, 1.0);
            action += 1;
        }
        let log = b.build();
        let policy = CreditPolicy::Uniform;

        let sigma = |s: &[u32]| reference::sigma_cd(&graph, &log, &policy, s);
        let threshold = |k: usize| k as f64 + (4.0 - k as f64) / 2.0;

        // Vertex covers meet the bound with equality.
        assert!((sigma(&[0, 2]) - threshold(2)).abs() < 1e-12);
        assert!((sigma(&[1, 2]) - threshold(2)).abs() < 1e-12);
        // Non-covers fall short.
        assert!(sigma(&[0, 1]) < threshold(2) - 1e-12);
        assert!(sigma(&[0, 3]) < threshold(2) - 1e-12);
        // And the CD CELF finds a cover-grade seed set.
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let sel = select_seeds(store, 2);
        assert!(sigma(&sel.seeds) >= threshold(2) - 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::CreditPolicy;
    use crate::reference;
    use crate::scan::scan;
    use crate::spread::CdSpreadEvaluator;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// End-to-end: on random instances with λ = 0, the specialized
        /// Algorithm-3 selection equals generic greedy over the exact
        /// σ_cd oracle — seeds and telescoped gains.
        #[test]
        fn cd_celf_equals_exact_greedy(
            edges in proptest::collection::vec((0u32..7, 0u32..7), 0..30),
            events in proptest::collection::vec((0u32..7, 0u32..3, 0u64..12), 1..35),
            k in 1usize..4,
            time_aware in proptest::bool::ANY,
        ) {
            let graph = GraphBuilder::new(7).edges(edges).build();
            let mut b = ActionLogBuilder::new(7);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let store = scan(&graph, &log, &policy, 0.0).unwrap();
            let cd = select_seeds(store, k);

            let eval = CdSpreadEvaluator::build(&graph, &log, &policy);
            // Restrict greedy to active users (CD candidates).
            let candidates: Vec<u32> = (0..7u32)
                .filter(|&u| log.actions_performed_by(u) > 0)
                .collect();
            let greedy = cdim_maxim::greedy::greedy_select_from(&eval, k, &candidates);
            // Exact ties may resolve differently between the two
            // implementations (f64 summation order differs by a few ulp),
            // so we compare the achieved spreads and per-step gains, which
            // is the property the greedy guarantee is about.
            prop_assert_eq!(cd.seeds.len(), greedy.seeds.len());
            let cd_sigma = eval.spread(&cd.seeds);
            let greedy_sigma = eval.spread(&greedy.seeds);
            prop_assert!((cd_sigma - greedy_sigma).abs() < 1e-9,
                "cd {:?} -> {cd_sigma} vs greedy {:?} -> {greedy_sigma}",
                cd.seeds, greedy.seeds);
            for (a, b) in cd.marginal_gains.iter().zip(&greedy.marginal_gains) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }

        /// Incremental updates stay exact over several seeds: after any
        /// update sequence, compute_mg equals the brute-force marginal.
        #[test]
        fn updates_remain_exact(
            edges in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
            events in proptest::collection::vec((0u32..6, 0u32..2, 0u64..10), 1..25),
            seed_order in proptest::sample::subsequence((0u32..6).collect::<Vec<_>>(), 1..4),
        ) {
            let graph = GraphBuilder::new(6).edges(edges).build();
            let mut b = ActionLogBuilder::new(6);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = CreditPolicy::Uniform;
            let store = scan(&graph, &log, &policy, 0.0).unwrap();
            let mut sel = CdSelector::new(store);
            let mut current: Vec<u32> = Vec::new();

            for s in seed_order {
                // Check all candidates against the reference first.
                let base = reference::sigma_cd(&graph, &log, &policy, &current);
                for x in 0..6u32 {
                    if current.contains(&x) || log.actions_performed_by(x) == 0 {
                        continue;
                    }
                    let mut with_x = current.clone();
                    with_x.push(x);
                    let expect = reference::sigma_cd(&graph, &log, &policy, &with_x) - base;
                    let got = sel.compute_mg(x);
                    prop_assert!((got - expect).abs() < 1e-9,
                        "S={current:?} x={x}: {got} vs {expect}");
                }
                sel.update(s);
                current.push(s);
            }
        }
    }
}
