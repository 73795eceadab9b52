//! The UC/SC credit structures of §5.3.
//!
//! `UC[v][u][a]` holds `Γ^{V−S}_{v,u}(a)` — the total credit given to `v`
//! for influencing `u` on action `a`, over paths inside the subgraph
//! induced by non-seeds. `SC[x][a]` holds `Γ_{S,x}(a)` — the credit the
//! *current seed set* earns from `x`. Together they let Theorem 3 compute
//! marginal gains, and Lemmas 2–3 update both stores incrementally when a
//! seed is added.
//!
//! Layout notes. A trained [`CreditStore`] (UC before any seed) is the
//! compact CSR arena of [`crate::compact`] with no SC entries and no
//! seeds: per action, out rows sorted by `(v, u)` carrying the credits
//! and inc rows sorted by `(u, v)`, written there by the scan's ordered
//! merge. It is immutable and `Arc`-shared, so cloning a store, serving
//! it ([`crate::CompactSelector::from_store`]) or extending it copies no
//! credits; [`CreditStore::action`] reads one action through an
//! [`ActionView`].
//!
//! The one mutable form of UC is `ActionCredits`, the working copy a
//! [`crate::CdSelector`] builds from the arena's rows in canonical order:
//! per action a hash map keyed by the packed `(v, u)` pair plus two
//! adjacency indexes (`v → targets`, `u → sources`). Adjacency entries
//! are pruned eagerly: when a seed update removes a key from the credit
//! map, the matching ids are dropped from both adjacency vectors
//! (order-preserving, so traversal order — and therefore every f64
//! summation order — is unchanged for the surviving entries). Seeds are
//! added only `k` times and a removal walks only the two affected rows,
//! so the cost is negligible — and the selector's memory accounting stays
//! accurate as the selection shrinks it.

use crate::compact::{self, CompactData};
use cdim_util::{FxHashMap, HeapSize};
use std::sync::Arc;

/// Packs an ordered user pair into a map key.
#[inline]
pub(crate) fn pair_key(v: u32, u: u32) -> u64 {
    (u64::from(v) << 32) | u64::from(u)
}

/// `(counterparty, credit)` pairs removed by [`ActionCredits::retire`].
pub(crate) type RemovedCredits = Vec<(u32, f64)>;

/// Mutable credits of a single action: a selector's working copy.
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
    #[inline]
    pub fn get(&self, v: u32, u: u32) -> f64 {
        self.credit.get(&pair_key(v, u)).copied().unwrap_or(0.0)
    }

    /// Whether `v` currently holds credit over anyone. Exact: adjacency
    /// rows are pruned in lockstep with the credit map.
    pub fn has_influencer(&self, v: u32) -> bool {
        self.out.get(&v).is_some_and(|ts| !ts.is_empty())
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
    /// oracle kernel (`reference::scan_dump`) uses it to skip the
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

    /// Iterates the out-adjacency rows as `(v, targets)`, rows in
    /// arbitrary order but each row in its live traversal order (the
    /// order [`Self::targets_of`] walks). Every id in a row is live —
    /// pruning keeps adjacency and the credit map in lockstep — so
    /// per-row credit sums are deterministic for a canonically built
    /// working copy even though the row *set* iterates in hash order.
    pub(crate) fn out_rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.out.iter().map(|(&v, ts)| (v, ts.as_slice()))
    }

    /// Releases excess capacity in the credit map and every adjacency
    /// row. Called once a selector's working copy is built, so reported
    /// memory reflects live entries, not growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.credit.shrink_to_fit();
        for row in self.out.values_mut() {
            row.shrink_to_fit();
        }
        for row in self.inc.values_mut() {
            row.shrink_to_fit();
        }
        self.out.shrink_to_fit();
        self.inc.shrink_to_fit();
    }

    /// Subtracts `amount` from `Γ_{v,u}` (Lemma 2), clamping at zero.
    /// Entries that become negligible are dropped from the credit map
    /// *and* from both adjacency rows, so entry counts and memory
    /// accounting stay accurate across selection updates. Pruning is
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
    /// dropping rows that become empty (so `has_sources`/`has_influencer`
    /// stay exact and [`HeapSize`] reflects only live structure).
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
    /// required for correctness of later `computeMG`/`update` calls (see
    /// DESIGN.md §2.2) because `x` no longer belongs to the induced
    /// subgraph `V − S`.
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

impl HeapSize for ActionCredits {
    fn heap_bytes(&self) -> usize {
        self.credit.heap_bytes() + self.out.heap_bytes() + self.inc.heap_bytes()
    }
}

/// The trained UC structure plus the per-user indexes Algorithm 3 needs:
/// a seedless CSR arena (see the module's layout notes). Cloning shares
/// the arena.
#[derive(Clone, Debug)]
pub struct CreditStore {
    pub(crate) data: Arc<CompactData>,
}

impl CreditStore {
    /// Number of users in the id space.
    pub fn num_users(&self) -> usize {
        self.data.counts.num_users
    }

    /// Number of actions scanned.
    pub fn num_actions(&self) -> usize {
        self.data.counts.num_actions
    }

    /// The truncation threshold λ used during the scan.
    pub fn lambda(&self) -> f64 {
        self.data.lambda
    }

    /// Total credit entries across all actions — the memory driver
    /// reported in Fig 8 (right) and Table 4.
    pub fn total_entries(&self) -> usize {
        self.data.counts.entries
    }

    /// Credits of one action.
    pub fn action(&self, a: u32) -> ActionView<'_> {
        ActionView { data: &self.data, a }
    }

    /// Dense action ids user `u` performed, ascending.
    pub fn actions_of_user(&self, u: u32) -> &[u32] {
        self.data.ua_row(u)
    }

    /// `1 / A_u` (0 for users with no actions).
    #[inline]
    pub fn inv_au(&self, u: u32) -> f64 {
        self.data.inv_au_of(u)
    }

    /// Heap footprint of the arena in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.memory_bytes()
    }
}

impl HeapSize for CreditStore {
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Read view of one action's credits in a [`CreditStore`]. Every
/// iterator walks the arena's sorted rows, so its order is canonical.
#[derive(Clone, Copy, Debug)]
pub struct ActionView<'a> {
    data: &'a CompactData,
    a: u32,
}

impl<'a> ActionView<'a> {
    /// `Γ_{v,u}(a)`, or 0 when not stored.
    pub fn get(&self, v: u32, u: u32) -> f64 {
        self.data.credit(self.a, v, u)
    }

    /// `(u, Γ_{v,u})` for influencer `v`, targets ascending.
    pub fn targets_of(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + 'a {
        let (targets, credits) = self.data.out_row(self.a, v);
        targets.iter().copied().zip(credits.iter().copied())
    }

    /// `(v, Γ_{v,u})` for target `u`, sources ascending.
    pub fn sources_of(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + 'a {
        let (data, a) = (self.data, self.a);
        data.inc_row(a, u).iter().map(move |&v| (v, data.credit(a, v, u)))
    }

    /// Every entry as `(v, u, Γ_{v,u})`, sorted by `(v, u)`.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + 'a {
        self.data.action_entries(self.a)
    }

    /// Number of credit entries.
    pub fn len(&self) -> usize {
        self.data.action_len(self.a)
    }

    /// Whether the action holds no credits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A plain-data image of a [`CreditStore`] — the serialization hook the
/// snapshot format builds on.
///
/// Credit entries are listed in sorted `(v, u)` order per action, so the
/// dump of a trained state is canonical: dumping, restoring and dumping
/// again yields identical data (and identical snapshot bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CreditStoreDump {
    /// Truncation threshold λ the store was built with.
    pub lambda: f64,
    /// Dense action ids each user performed (indexed by user).
    pub user_actions: Vec<Vec<u32>>,
    /// `1 / A_u` per user.
    pub inv_au: Vec<f64>,
    /// Per action, `(v, u, Γ_{v,u})` triples sorted by `(v, u)`.
    pub credits: Vec<Vec<(u32, u32, f64)>>,
}

impl CreditStore {
    /// Exports the store as plain data (canonical entry order).
    pub fn dump(&self) -> CreditStoreDump {
        let credits =
            (0..self.num_actions() as u32).map(|a| self.action(a).entries().collect()).collect();
        self.dump_with(credits)
    }

    /// This store's dump with `credits` in place of its own (a
    /// selector's updated working copy).
    pub(crate) fn dump_with(&self, credits: Vec<Vec<(u32, u32, f64)>>) -> CreditStoreDump {
        let users = 0..self.num_users() as u32;
        CreditStoreDump {
            lambda: self.lambda(),
            user_actions: users.clone().map(|u| self.actions_of_user(u).to_vec()).collect(),
            inv_au: users.map(|u| self.inv_au(u)).collect(),
            credits,
        }
    }

    /// Rebuilds a store from a [`dump`](Self::dump): the arena a scan of
    /// the same data writes.
    ///
    /// Panics if the dump does not fit the arena's u32 offsets (more
    /// than ~4·10⁹ entries, far past what a dump in memory holds).
    pub fn from_dump(dump: &CreditStoreDump) -> Self {
        let data = compact::build(dump, &[], &[]).expect("dump fits the u32 offsets");
        CreditStore { data: Arc::new(data) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!ac.has_influencer(1));
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
        let populated = ac.heap_bytes();

        // Zeroing (1, 2) prunes exactly that id from both rows.
        ac.subtract(1, 2, 0.5);
        assert_eq!(ac.targets_of(1).collect::<Vec<_>>(), vec![(3, 0.25)]);
        assert_eq!(ac.sources_of(2).collect::<Vec<_>>(), vec![(4, 0.125)]);
        assert!(ac.has_influencer(1));
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
        assert!(!ac.has_influencer(1));
        assert!(!ac.has_sources(3));
        // The heap estimate no longer counts the removed rows' contents
        // (map capacity may linger, row payloads must not).
        assert!(ac.heap_bytes() <= populated);
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
        assert!(!ac.has_influencer(1));
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
        assert!(ac.has_influencer(1));
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
    fn store_views_read_the_dumped_entries() {
        let dump = CreditStoreDump {
            lambda: 0.0,
            user_actions: vec![vec![0, 1], vec![0], vec![1], vec![0, 1]],
            inv_au: vec![0.5, 1.0, 1.0, 0.5],
            credits: vec![vec![(0, 1, 0.5)], vec![(0, 3, 0.25), (2, 3, 0.25)]],
        };
        let store = CreditStore::from_dump(&dump);
        assert_eq!(store.total_entries(), 3);
        assert!(store.memory_bytes() > 0);
        assert_eq!(store.dump(), dump);
        let ac = store.action(1);
        assert_eq!(ac.len(), 2);
        assert_eq!(ac.get(2, 3), 0.25);
        assert_eq!(ac.get(3, 2), 0.0);
        assert_eq!(ac.targets_of(0).collect::<Vec<_>>(), vec![(3, 0.25)]);
        assert_eq!(ac.sources_of(3).collect::<Vec<_>>(), vec![(0, 0.25), (2, 0.25)]);
        assert_eq!(ac.sources_of(0).count(), 0);
        assert_eq!(store.actions_of_user(3), &[0, 1]);
        assert_eq!(store.inv_au(1), 1.0);
        // Clones share the arena.
        assert_eq!(store.clone().memory_bytes(), store.memory_bytes());
        assert!(Arc::ptr_eq(&store.clone().data, &store.data));
    }
}
