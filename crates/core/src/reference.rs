//! Naive reference implementations of the credit-distribution equations.
//!
//! Everything here favors obviousness over speed: direct dynamic programs
//! over the propagation DAGs, with explicit set arguments and explicit
//! induced-subgraph restrictions. The optimized scan (Alg 2), marginal
//! gains (Theorem 3) and incremental updates (Lemmas 2–3) are all tested
//! against this module; it is also a readable executable specification of
//! §4 for library users.
//!
//! [`scan_dump`] and [`CdSelector`] are different in kind: they are the
//! hash-map engines the CSR arena replaced, kept as *bitwise* oracles
//! (same f64 operations in the same order, so equal bits, not just equal
//! values within a tolerance). `scan_dump` is the Algorithm-2 kernel the
//! scan is held to. `CdSelector` is Algorithms 4–5 — Theorem-3 gains and
//! the Lemma 2/3 seed commit — on a per-action hash-map working copy of
//! the credits; the served [`crate::OverlaySelector`] is held to it
//! state by state, through the plain-data [`SelectorDump`] both export
//! ([`arena_of`] and [`dump_of`] convert between a dump and an arena,
//! the one bridge between the oracles and the model). Neither is used
//! outside tests.

use crate::compact::{self, pair_key, CompactSelector};
use crate::policy::CreditPolicy;
use cdim_actionlog::{ActionId, ActionLog, PropagationArena, PropagationDag, UserId};
use cdim_graph::DirectedGraph;
use cdim_util::FxHashMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Γ_{v,u}(a) for every pair with nonzero credit, by direct DP over Eq 5.
pub fn pairwise_credit(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    a: ActionId,
) -> BTreeMap<(UserId, UserId), f64> {
    let arena = PropagationArena::build(log, graph, a..a + 1);
    let dag = arena.dag(a);
    let mut gammas = Vec::new();
    policy.edge_credits(&dag, &mut gammas);
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
    let arena = PropagationArena::build(log, graph, a..a + 1);
    let dag = arena.dag(a);
    let mut gammas = Vec::new();
    policy.edge_credits(&dag, &mut gammas);
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
/// sorted by `(v, u)`. `dump_of(&scan_with(..)).store` must equal it bit
/// for bit.
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
    let arena = PropagationArena::build(log, graph, a..a + 1);
    let dag = arena.dag(a);
    let mut gammas = Vec::new();
    policy.edge_credits(&dag, &mut gammas);
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

/// Algorithms 4–5 on a hash-map working copy: the selection oracle.
///
/// Built from a trained, seedless [`CompactSelector`], whose arena it
/// shares for the per-user indexes (actions performed, `1/A_u`), plus its
/// own mutable copy of the credits (an `ActionCredits` map per action),
/// filled from the arena's rows in canonical order and updated by
/// Lemma 2 as seeds are committed. It runs no CELF: tests replay a selection on it.
#[derive(Clone, Debug)]
pub struct CdSelector {
    base: CompactSelector,
    /// `UC[..][..][a]` under the current seed set, per action.
    actions: Vec<ActionCredits>,
    /// `SC[x][a] = Γ_{S,x}(a)` for the current seed set, keyed by
    /// `pair_key(a, x)`.
    sc: FxHashMap<u64, f64>,
    seeds: Vec<u32>,
}

impl CdSelector {
    /// Wraps a scanned model: builds the working copy of its credits,
    /// entries inserted in `(v, u)` order per action.
    pub fn new(store: CompactSelector) -> Self {
        let actions = (0..store.num_actions() as u32)
            .map(|a| {
                let mut ac = ActionCredits::default();
                for (v, u, c) in store.action(a).entries() {
                    ac.add(v, u, c);
                }
                ac
            })
            .collect();
        CdSelector { base: store, actions, sc: FxHashMap::default(), seeds: Vec::new() }
    }

    /// Rebuilds a selector from a [`dump`](Self::dump). Two selectors
    /// restored from equal dumps answer every query identically (bit-exact
    /// floating-point sums included).
    pub fn from_dump(dump: &SelectorDump) -> Self {
        let store = compact::build(&dump.store, &[], &[]).expect("dump fits the u32 offsets");
        let mut selector = CdSelector::new(CompactSelector { data: Arc::new(store) });
        for &(a, u, c) in &dump.sc {
            selector.sc.insert(pair_key(a, u), c);
        }
        selector.seeds.clone_from(&dump.seeds);
        selector
    }

    /// The full selector state (updated credits, SC map, chosen seeds) as
    /// plain data, credits and SC entries in sorted order.
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
        sc.sort_unstable_by_key(|&(a, u, _)| pair_key(a, u));
        SelectorDump { store: store_dump(&self.base, credits), sc, seeds: self.seeds.clone() }
    }

    /// Theorem-3 marginal gain of adding `x` to the current seed set. A
    /// committed seed gains nothing (σ is a set function).
    pub fn compute_mg(&self, x: u32) -> f64 {
        let inv_ax = self.base.data.inv_au_of(x);
        if inv_ax == 0.0 || self.seeds.contains(&x) {
            return 0.0; // never acted (no evidence), or already a seed
        }
        let mut mg = 0.0;
        for &a in self.base.data.ua_row(x) {
            let sc_xa = self.sc.get(&pair_key(a, x)).copied().unwrap_or(0.0);
            let factor = (1.0 - sc_xa).max(0.0);
            if factor == 0.0 {
                continue;
            }
            let mut mga = inv_ax; // the u = x self term
            for (u, c) in self.actions[a as usize].targets_of(x) {
                mga += c * self.base.data.inv_au_of(u);
            }
            mg += mga * factor;
        }
        mg
    }

    /// The paper's literal Algorithm 4: like [`Self::compute_mg`] but the
    /// self term is only added for actions where `x` holds outgoing
    /// credit.
    pub fn compute_mg_pseudocode(&self, x: u32) -> f64 {
        let inv_ax = self.base.data.inv_au_of(x);
        if inv_ax == 0.0 || self.seeds.contains(&x) {
            return 0.0;
        }
        let mut mg = 0.0;
        for &a in self.base.data.ua_row(x) {
            let mut mga = 0.0;
            let mut any = false;
            for (u, c) in self.actions[a as usize].targets_of(x) {
                any = true;
                mga += c * self.base.data.inv_au_of(u);
            }
            if !any {
                continue;
            }
            mga += inv_ax;
            let sc_xa = self.sc.get(&pair_key(a, x)).copied().unwrap_or(0.0);
            mg += mga * (1.0 - sc_xa).max(0.0);
        }
        mg
    }

    /// Algorithm 5: adds `x` to the seed set and updates SC (Lemma 3) and
    /// UC (Lemma 2) in every action `x` performed, retiring `x`'s credit
    /// row and column. Committing a seed twice is a no-op.
    pub fn update(&mut self, x: u32) {
        if self.seeds.contains(&x) {
            return;
        }
        // Credits involving x exist only in actions x performed.
        for &a in self.base.data.ua_row(x) {
            let sc_xa = self.sc.get(&pair_key(a, x)).copied().unwrap_or(0.0);
            let one_minus = (1.0 - sc_xa).max(0.0);
            let ac = &mut self.actions[a as usize];
            let (gout, gin) = ac.retire(x);
            // Lemma 3: Γ_{S+x,u} = Γ_{S,u} + Γ^{V−S}_{x,u}·(1 − Γ_{S,x}).
            for &(u, cxu) in &gout {
                let e = self.sc.entry(pair_key(a, u)).or_insert(0.0);
                *e = (*e + cxu * one_minus).min(1.0);
            }
            // Lemma 2: Γ^{W−x}_{v,u} = Γ^W_{v,u} − Γ^W_{v,x}·Γ^W_{x,u}.
            for &(v, cvx) in &gin {
                for &(u, cxu) in &gout {
                    ac.subtract(v, u, cvx * cxu);
                }
            }
        }
        self.seeds.push(x);
    }
}

/// A plain-data image of a model's credits and per-user indexes: the
/// `store` half of a [`SelectorDump`], and what [`scan_dump`] computes.
///
/// Credit entries are listed in sorted `(v, u)` order per action, so the
/// dump of a trained state is canonical: dumping, restoring and dumping
/// again yields identical data (and identical snapshot bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CreditStoreDump {
    /// Truncation threshold λ the model was built with.
    pub lambda: f64,
    /// Dense action ids each user performed (indexed by user).
    pub user_actions: Vec<Vec<u32>>,
    /// `1 / A_u` per user.
    pub inv_au: Vec<f64>,
    /// Per action, `(v, u, Γ_{v,u})` triples sorted by `(v, u)`.
    pub credits: Vec<Vec<(u32, u32, f64)>>,
}

/// `model`'s λ and per-user indexes, with `credits` as its credits.
fn store_dump(model: &CompactSelector, credits: Vec<Vec<(u32, u32, f64)>>) -> CreditStoreDump {
    let (data, users) = (&model.data, 0..model.num_users() as u32);
    CreditStoreDump {
        lambda: data.lambda,
        user_actions: users.clone().map(|u| data.ua_row(u).to_vec()).collect(),
        inv_au: users.map(|u| data.inv_au_of(u)).collect(),
        credits,
    }
}

/// Plain-data image of a selector state: what [`CdSelector::dump`] and
/// [`dump_of`] export, and what [`CdSelector::from_dump`] and
/// [`arena_of`] rebuild from. Entries are listed in sorted order, so the
/// dump of a state is canonical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelectorDump {
    /// The (possibly Lemma-2-updated) credits and per-user indexes.
    pub store: CreditStoreDump,
    /// `(action, user, Γ_{S,u}(a))` triples sorted by `(action, user)`.
    pub sc: Vec<(u32, u32, f64)>,
    /// Seeds chosen so far, in selection order.
    pub seeds: Vec<u32>,
}

/// Lays out the arena of a canonical dump — the oracle's, or a
/// hand-built state. Arena and dump determine each other, so
/// `dump_of(&arena_of(d)) == d`.
///
/// Panics if the dump does not fit the arena's u32 offsets (more than
/// ~4·10⁹ entries, far past what a dump in memory holds).
pub fn arena_of(dump: &SelectorDump) -> CompactSelector {
    let data =
        compact::build(&dump.store, &dump.sc, &dump.seeds).expect("dump fits the u32 offsets");
    CompactSelector { data: Arc::new(data) }
}

/// The canonical dump of a model: its credits, SC entries and seeds.
pub fn dump_of(model: &CompactSelector) -> SelectorDump {
    let data = &model.data;
    let sc = data
        .sc_keys()
        .iter()
        .zip(data.sc_vals())
        .map(|(&key, &c)| ((key >> 32) as u32, key as u32, c))
        .collect();
    let credits =
        (0..model.num_actions() as u32).map(|a| model.action(a).entries().collect()).collect();
    SelectorDump { store: store_dump(model, credits), sc, seeds: data.seeds().to_vec() }
}

/// The bitwise image of a dump: `(action, v, u, bits)` credits, then
/// `(action, u, bits)` SC entries, then the seeds. Two states are the
/// same bit for bit iff their images are equal; `==` on the dumps
/// compares credits as floats, so `0.0` equals `-0.0`.
pub fn dump_bits(dump: &SelectorDump) -> impl PartialEq + std::fmt::Debug {
    let credits: Vec<(usize, u32, u32, u64)> = dump
        .store
        .credits
        .iter()
        .enumerate()
        .flat_map(|(a, es)| es.iter().map(move |&(v, u, c)| (a, v, u, c.to_bits())))
        .collect();
    let sc: Vec<(u32, u32, u64)> = dump.sc.iter().map(|&(a, u, c)| (a, u, c.to_bits())).collect();
    (credits, sc, dump.seeds.clone())
}

/// `(counterparty, credit)` pairs removed by [`ActionCredits::retire`].
type RemovedCredits = Vec<(u32, f64)>;

/// Mutable credits of a single action: the oracle's working copy. A hash
/// map keyed by the packed `(v, u)` pair plus two adjacency indexes
/// (`v → targets`, `u → sources`), pruned eagerly and order-preservingly
/// when an update removes an entry, so the surviving entries keep their
/// traversal — and therefore f64 summation — order.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActionCredits {
    /// `(v, u) → Γ_{v,u}(a)` for stored (≥ λ at insertion time) credits.
    credit: FxHashMap<u64, f64>,
    /// `v → users u` currently receiving credit from `v`.
    out: FxHashMap<u32, Vec<u32>>,
    /// `u → users v` currently giving credit to `u`.
    inc: FxHashMap<u32, Vec<u32>>,
}

impl ActionCredits {
    /// Adds `amount` to `Γ_{v,u}`, creating the entry if absent.
    pub fn add(&mut self, v: u32, u: u32, amount: f64) {
        debug_assert_ne!(v, u, "self-credit is implicit and never stored");
        let key = pair_key(v, u);
        match self.credit.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += amount;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(amount);
                self.out.entry(v).or_default().push(u);
                self.inc.entry(u).or_default().push(v);
            }
        }
    }

    /// `Γ_{v,u}(a)`, or 0 when not stored.
    #[cfg(test)]
    pub fn get(&self, v: u32, u: u32) -> f64 {
        self.credit.get(&pair_key(v, u)).copied().unwrap_or(0.0)
    }

    /// Live `(u, Γ_{v,u})` pairs for influencer `v`.
    pub fn targets_of(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.out
            .get(&v)
            .into_iter()
            .flatten()
            .filter_map(move |&u| self.credit.get(&pair_key(v, u)).map(|&c| (u, c)))
    }

    /// Fast check: does `u` currently hold credit from anyone?
    ///
    /// Exact: [`Self::subtract`] and [`Self::retire`] prune the adjacency
    /// rows together with the credit map, so the row exists iff
    /// [`Self::sources_of`] would yield at least one item. The hash-map
    /// oracle kernel ([`scan_dump`]) uses it to skip the
    /// transitive-relay collection for nodes without incoming credit.
    #[inline]
    pub fn has_sources(&self, u: u32) -> bool {
        self.inc.get(&u).is_some_and(|vs| !vs.is_empty())
    }

    /// Live `(v, Γ_{v,u})` pairs for target `u`.
    pub fn sources_of(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.inc
            .get(&u)
            .into_iter()
            .flatten()
            .filter_map(move |&v| self.credit.get(&pair_key(v, u)).map(|&c| (v, c)))
    }

    /// Iterates every live credit entry as `(v, u, Γ_{v,u})`, in arbitrary
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.credit.iter().map(|(&key, &c)| ((key >> 32) as u32, key as u32, c))
    }

    /// Subtracts `amount` from `Γ_{v,u}` (Lemma 2), clamping at zero.
    /// Entries that become negligible are dropped from the credit map
    /// *and* from both adjacency rows, so entry counts stay accurate
    /// across selection updates. Pruning is
    /// order-preserving: surviving entries keep their traversal (and
    /// therefore f64 summation) order.
    pub fn subtract(&mut self, v: u32, u: u32, amount: f64) {
        let key = pair_key(v, u);
        if let Some(c) = self.credit.get_mut(&key) {
            *c -= amount;
            if *c <= 1e-15 {
                self.credit.remove(&key);
                self.unlink(v, u);
            }
        }
    }

    /// Removes `u` from `v`'s target row and `v` from `u`'s source row,
    /// dropping rows that become empty (so [`Self::has_sources`] stays
    /// exact).
    fn unlink(&mut self, v: u32, u: u32) {
        if let Some(targets) = self.out.get_mut(&v) {
            targets.retain(|&t| t != u);
            if targets.is_empty() {
                self.out.remove(&v);
            }
        }
        if let Some(sources) = self.inc.get_mut(&u) {
            sources.retain(|&s| s != v);
            if sources.is_empty() {
                self.inc.remove(&u);
            }
        }
    }

    /// Retires user `x` from this action: removes every credit into or out
    /// of `x` and returns the removed `(targets, sources)` lists, each as
    /// [`RemovedCredits`]. Counterparty adjacency rows are pruned too, so
    /// no dead ids linger anywhere after the call.
    ///
    /// The paper's Algorithm 5 leaves these rows in place; retiring them is
    /// required for correctness of later `computeMG`/`update` calls
    /// because `x` no longer belongs to the induced subgraph `V − S`.
    pub fn retire(&mut self, x: u32) -> (RemovedCredits, RemovedCredits) {
        let gout: RemovedCredits = self
            .out
            .remove(&x)
            .into_iter()
            .flatten()
            .filter_map(|u| self.credit.remove(&pair_key(x, u)).map(|c| (u, c)))
            .collect();
        let gin: RemovedCredits = self
            .inc
            .remove(&x)
            .into_iter()
            .flatten()
            .filter_map(|v| self.credit.remove(&pair_key(v, x)).map(|c| (v, c)))
            .collect();
        // Prune x from the counterparties' rows; the half of each pair
        // already dropped by the `remove(&x)` calls above is a no-op.
        for &(u, _) in &gout {
            self.unlink(x, u);
        }
        for &(v, _) in &gin {
            self.unlink(v, x);
        }
        (gout, gin)
    }

    /// Number of live credit entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.credit.len()
    }

    /// Whether the action holds no credits.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.credit.is_empty()
    }
}

/// Flattened-parent-array offsets per local node of a DAG.
fn edge_offsets(dag: &PropagationDag<'_>) -> Vec<usize> {
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
    use crate::testing::figure1;

    #[test]
    fn add_accumulates_and_get_reads() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.25);
        ac.add(1, 2, 0.25);
        assert!((ac.get(1, 2) - 0.5).abs() < 1e-12);
        assert_eq!(ac.get(2, 1), 0.0);
        assert_eq!(ac.len(), 1);
    }

    #[test]
    fn adjacency_iterators_report_live_entries() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(1, 3, 0.25);
        ac.add(4, 2, 0.125);
        let mut ts: Vec<_> = ac.targets_of(1).collect();
        ts.sort_by_key(|&(u, _)| u);
        assert_eq!(ts, vec![(2, 0.5), (3, 0.25)]);
        let mut ss: Vec<_> = ac.sources_of(2).collect();
        ss.sort_by_key(|&(v, _)| v);
        assert_eq!(ss, vec![(1, 0.5), (4, 0.125)]);
    }

    #[test]
    fn subtract_clamps_and_removes() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.subtract(1, 2, 0.2);
        assert!((ac.get(1, 2) - 0.3).abs() < 1e-12);
        ac.subtract(1, 2, 0.3);
        assert_eq!(ac.get(1, 2), 0.0);
        assert!(ac.is_empty());
        // Subtracting a missing entry is a no-op.
        ac.subtract(9, 9, 1.0);
    }

    #[test]
    fn retire_removes_row_and_column() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(0, 1, 0.25);
        ac.add(3, 4, 0.75);
        let (gout, gin) = ac.retire(1);
        assert_eq!(gout, vec![(2, 0.5)]);
        assert_eq!(gin, vec![(0, 0.25)]);
        assert_eq!(ac.get(1, 2), 0.0);
        assert_eq!(ac.get(0, 1), 0.0);
        assert!((ac.get(3, 4) - 0.75).abs() < 1e-12);
        // Pruned adjacency must not resurrect entries.
        assert_eq!(ac.targets_of(1).count(), 0);
        assert_eq!(ac.sources_of(1).count(), 0);
    }

    #[test]
    fn has_sources_tracks_incoming_credit() {
        let mut ac = ActionCredits::default();
        assert!(!ac.has_sources(2));
        ac.add(1, 2, 0.5);
        assert!(ac.has_sources(2));
        assert!(!ac.has_sources(1));
        // Exact under pruning: removing one of two sources keeps the row,
        // removing the last one drops it.
        ac.add(3, 2, 0.25);
        ac.subtract(1, 2, 0.5);
        assert!(ac.has_sources(2));
        ac.subtract(3, 2, 0.25);
        assert!(!ac.has_sources(2));
    }

    #[test]
    fn subtract_and_retire_prune_adjacency_rows() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(1, 3, 0.25);
        ac.add(4, 2, 0.125);

        // Zeroing (1, 2) prunes exactly that id from both rows.
        ac.subtract(1, 2, 0.5);
        assert_eq!(ac.targets_of(1).collect::<Vec<_>>(), vec![(3, 0.25)]);
        assert_eq!(ac.sources_of(2).collect::<Vec<_>>(), vec![(4, 0.125)]);
        assert!(ac.targets_of(1).count() > 0);
        assert!(ac.has_sources(2));

        // Retiring 4 empties 2's source row entirely; retiring 1 empties
        // everything. No dead ids or empty rows may linger.
        ac.retire(4);
        assert!(!ac.has_sources(2));
        let (gout, gin) = ac.retire(1);
        assert_eq!(gout, vec![(3, 0.25)]);
        assert!(gin.is_empty());
        assert!(ac.is_empty());
        assert_eq!(ac.len(), 0);
        assert_eq!(ac.targets_of(1).count(), 0);
        assert!(!ac.has_sources(3));
        assert_eq!(ac.entries().count(), 0);
    }

    #[test]
    fn oversubtract_clamps_to_removal_and_prunes() {
        // Lemma 2 can subtract more than is stored when λ truncated the
        // stored value: the entry must drop out entirely (never go
        // negative) and both adjacency rows must prune in lockstep.
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(1, 3, 0.25);
        ac.subtract(1, 2, 0.7);
        assert_eq!(ac.get(1, 2), 0.0);
        assert_eq!(ac.len(), 1);
        assert_eq!(ac.targets_of(1).collect::<Vec<_>>(), vec![(3, 0.25)]);
        assert!(!ac.has_sources(2));
        // A second over-subtract of the now-missing entry is a no-op.
        ac.subtract(1, 2, 0.7);
        assert_eq!(ac.len(), 1);
        // No surviving entry is ever negative.
        assert!(ac.entries().all(|(_, _, c)| c > 0.0));
    }

    #[test]
    fn near_zero_residue_is_dropped_not_stored() {
        // Subtracting down to within the 1e-15 floor must remove the
        // entry — a stored near-zero residue would survive a dump/restore
        // round trip and desynchronize adjacency pruning.
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.subtract(1, 2, 0.5 - 1e-16);
        assert_eq!(ac.len(), 0);
        assert_eq!(ac.targets_of(1).count(), 0);
        assert!(!ac.has_sources(2));
    }

    #[test]
    fn re_add_after_retire_relinks_adjacency() {
        // A sliding-window cycle can retire a user (seed commit) and
        // later re-encounter them in fresh credits; the vacant-entry path
        // must rebuild both adjacency rows from scratch.
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(0, 1, 0.25);
        ac.retire(1);
        assert!(ac.is_empty());

        ac.add(1, 2, 0.125);
        assert_eq!(ac.get(1, 2), 0.125);
        assert_eq!(ac.targets_of(1).count(), 1);
        assert!(ac.has_sources(2));
        assert_eq!(ac.targets_of(1).collect::<Vec<_>>(), vec![(2, 0.125)]);
        assert_eq!(ac.sources_of(2).collect::<Vec<_>>(), vec![(1, 0.125)]);
        // And the inverse direction: credit INTO the retired user again.
        ac.add(0, 1, 0.0625);
        assert_eq!(ac.sources_of(1).collect::<Vec<_>>(), vec![(0, 0.0625)]);
        assert_eq!(ac.len(), 2);
    }

    #[test]
    fn re_add_after_subtract_removal_accumulates_fresh() {
        // add → subtract-to-zero → add must start from the new amount,
        // not resurrect the old entry, and must not duplicate adjacency
        // ids.
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.subtract(1, 2, 0.5);
        ac.add(1, 2, 0.25);
        ac.add(1, 2, 0.25);
        assert!((ac.get(1, 2) - 0.5).abs() < 1e-12);
        assert_eq!(ac.targets_of(1).count(), 1);
        assert_eq!(ac.sources_of(2).count(), 1);
    }

    #[test]
    fn retire_twice_is_idempotent() {
        let mut ac = ActionCredits::default();
        ac.add(1, 2, 0.5);
        ac.add(0, 1, 0.25);
        ac.retire(1);
        let (gout, gin) = ac.retire(1);
        assert!(gout.is_empty());
        assert!(gin.is_empty());
        assert!(ac.is_empty());
    }

    #[test]
    fn entry_count_stays_accurate_after_updates() {
        let mut ac = ActionCredits::default();
        ac.add(0, 1, 0.5);
        ac.add(1, 2, 0.5);
        ac.add(0, 3, 0.5);
        assert_eq!(ac.len(), 3);
        ac.retire(0);
        assert_eq!(ac.len(), 1);
        ac.subtract(1, 2, 0.5);
        assert_eq!(ac.len(), 0);
        assert_eq!(ac.entries().count(), 0);
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
    use crate::testing::eight_user_instance;
    use proptest::prelude::*;

    proptest! {
        /// σ_cd is monotone: adding a seed never decreases spread
        /// (Theorem 2, first half).
        #[test]
        fn sigma_is_monotone(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
            order in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..8),
        ) {
            let (graph, log, policy) = eight_user_instance(&edges, &events, false);
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
            let (graph, log, policy) = eight_user_instance(&edges, &events, false);
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
            let (graph, log, policy) = eight_user_instance(&edges, &events, false);
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
