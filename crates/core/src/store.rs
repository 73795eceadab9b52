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
//! merge. It is immutable and `Arc`-shared, so cloning a store or
//! serving it ([`crate::CompactSelector::from_store`]) copies no credits;
//! [`CreditStore::action`] reads one action through an [`ActionView`].
//!
//! Selection never writes the arena: an [`crate::OverlaySelector`]
//! applies Lemmas 2–3 to its own copy of the credit values and a dense SC
//! array. The per-action hash map of the paper's pseudocode survives only
//! as the tests' oracle, [`crate::reference::CdSelector`].

use crate::compact::{self, CompactData};
use cdim_util::HeapSize;
use std::sync::Arc;

/// Packs an ordered user pair into a map key.
#[inline]
pub(crate) fn pair_key(v: u32, u: u32) -> u64 {
    (u64::from(v) << 32) | u64::from(u)
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

    /// This store's dump with `credits` in place of its own (the
    /// oracle's updated working copy).
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
        assert_eq!(ac.entries().collect::<Vec<_>>(), vec![(0, 3, 0.25), (2, 3, 0.25)]);
        assert!(store.action(0).entries().eq([(0, 1, 0.5)]));
        assert_eq!(store.actions_of_user(3), &[0, 1]);
        assert_eq!(store.inv_au(1), 1.0);
        // Clones share the arena.
        assert_eq!(store.clone().memory_bytes(), store.memory_bytes());
        assert!(Arc::ptr_eq(&store.clone().data, &store.data));
    }
}
