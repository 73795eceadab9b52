//! Incremental retraining — the streaming half of Algorithm 2: append
//! new actions ([`CreditStore::apply_delta`]) and expire old ones
//! ([`CreditStore::retract_delta`]).
//!
//! The credit assignment of the one-pass scan never crosses an action
//! boundary, so a batch of *new* actions ([`ActionLogDelta`]) can be
//! scanned in isolation and spliced onto a trained arena:
//!
//! * the new actions' rows come from the very same scan the full
//!   training runs ([`scan_with`](crate::scan::scan_with)), fanned out
//!   over the shared worker pool — incremental updates parallelize
//!   exactly like full training;
//! * every per-action arena section of the result is the old section
//!   followed by the delta's, offsets rebased (appending actions only
//!   appends), and each user's action row gains the new dense ids at the
//!   tail;
//! * `1/A_u` is re-derived for touched users with the same single
//!   division the full scan performs.
//!
//! **Equivalence contract.** For any prefix/delta split of a log, any
//! thread count and a fixed credit policy, extending the prefix's store
//! produces an arena — and a [`CreditStoreDump`] — *byte-identical* to a
//! from-scratch [`scan`](crate::scan::scan) of the combined log. The
//! `tests/golden.rs` suite and the proptests below enforce the contract.
//! The served model is the same arena and follows the same contract,
//! committed seeds included
//! ([`CompactSelector::extend`](crate::CompactSelector::extend) and
//! [`retract`](crate::CompactSelector::retract) share the splice); this
//! module supplies the error type and the checks both share.
//!
//! **Retraction.** The same action-locality makes the inverse exact: a
//! prefix of expired actions can be cut away
//! ([`CreditStore::retract_delta`], fed by
//! `ActionLog::split_off_prefix`) leaving state byte-identical to a
//! from-scratch scan of just the surviving window — every per-action
//! section keeps a suffix, dense ids renumber down, and `1/A_u` is one
//! division off the surviving count. Appends and retractions compose
//! freely, which is what a sliding window is: retract at the front,
//! extend at the back, never rescan the middle.
//!
//! What a delta deliberately does **not** do: re-learn the time-aware
//! policy parameters (`τ`, `infl`). The policy a model was trained with
//! stays fixed across [`CdModel::extend`](crate::CdModel::extend) calls —
//! refreshing it changes credits of *old* actions too and therefore
//! requires a full retrain. Production deployments interleave cheap delta
//! refreshes with occasional full retrains.
//!
//! [`CreditStoreDump`]: crate::store::CreditStoreDump

use crate::compact::Overflow;
use crate::policy::CreditPolicy;
use crate::store::CreditStore;
use cdim_actionlog::ActionLogDelta;
use cdim_graph::DirectedGraph;
use cdim_util::pool::Parallelism;
use std::sync::Arc;
/// Why an append-only delta could not be applied to a trained state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtendError {
    /// The delta was cut against a different action count than the store
    /// holds — applying it would mis-assign dense action ids.
    BaseMismatch {
        /// Actions already in the store.
        store_actions: usize,
        /// Actions the delta expects the store to hold.
        delta_base: usize,
    },
    /// Store and delta disagree on the user universe.
    UserUniverseMismatch {
        /// Users in the trained store.
        store_users: usize,
        /// Users in the delta's log.
        delta_users: usize,
    },
    /// Graph and store disagree on the user universe.
    GraphMismatch {
        /// Nodes in the social graph.
        graph_nodes: usize,
        /// Users in the trained store.
        store_users: usize,
    },
    /// The expired batch is not a retractable prefix of the trained
    /// state: it must be based at 0 and no longer than the store.
    WindowMismatch {
        /// Actions the store holds.
        store_actions: usize,
        /// Base the expired delta was cut against (must be 0).
        expired_base: usize,
        /// Actions the expired delta wants to retract.
        expired_actions: usize,
    },
    /// An expired action's recomputed credits disagree with the stored
    /// prefix — the caller's expired batch is not the data the store was
    /// trained on.
    PrefixMismatch {
        /// Dense id of the first divergent action.
        action: u32,
    },
    /// A user's membership count below the expiry boundary disagrees with
    /// the expired batch.
    MembershipMismatch {
        /// The divergent user.
        user: u32,
        /// Prefix memberships the expired batch claims for the user.
        expected: u32,
        /// Prefix memberships the trained state actually holds.
        got: u32,
    },
    /// The spliced state would not fit the arena's u32 offsets.
    ArenaOverflow {
        /// The first section that overflows.
        section: &'static str,
        /// Its element count.
        count: usize,
    },
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::BaseMismatch { store_actions, delta_base } => write!(
                f,
                "delta base mismatch: store holds {store_actions} actions, delta expects \
                 {delta_base}"
            ),
            ExtendError::UserUniverseMismatch { store_users, delta_users } => write!(
                f,
                "store and delta must share a user universe ({store_users} vs {delta_users} users)"
            ),
            ExtendError::GraphMismatch { graph_nodes, store_users } => write!(
                f,
                "graph and store must share a user universe ({graph_nodes} nodes vs \
                 {store_users} users)"
            ),
            ExtendError::WindowMismatch { store_actions, expired_base, expired_actions } => write!(
                f,
                "expired batch is not a store prefix: base {expired_base} (must be 0), \
                 {expired_actions} actions to retract, store holds {store_actions}"
            ),
            ExtendError::PrefixMismatch { action } => write!(
                f,
                "expired action {action} disagrees with the trained prefix (recomputed credits \
                 are not bit-identical to the stored ones)"
            ),
            ExtendError::MembershipMismatch { user, expected, got } => write!(
                f,
                "user {user} membership mismatch below the expiry boundary: expired batch \
                 claims {expected}, trained state holds {got}"
            ),
            ExtendError::ArenaOverflow { section, count } => {
                write!(f, "model too large: {section} = {count} exceeds the u32 offset space")
            }
        }
    }
}

impl std::error::Error for ExtendError {}

impl From<Overflow> for ExtendError {
    fn from(Overflow { section, count }: Overflow) -> Self {
        ExtendError::ArenaOverflow { section, count }
    }
}

/// Validates that `delta` lines up with a trained state of
/// `(num_users, num_actions)`.
pub(crate) fn validate(
    graph: &DirectedGraph,
    delta: &ActionLogDelta,
    num_users: usize,
    num_actions: usize,
) -> Result<(), ExtendError> {
    validate_users(graph, delta, num_users)?;
    if delta.base_actions() != num_actions {
        return Err(ExtendError::BaseMismatch {
            store_actions: num_actions,
            delta_base: delta.base_actions(),
        });
    }
    Ok(())
}

/// Graph, delta and a trained state of `num_users` users must share one
/// user universe.
fn validate_users(
    graph: &DirectedGraph,
    delta: &ActionLogDelta,
    num_users: usize,
) -> Result<(), ExtendError> {
    if graph.num_nodes() != num_users {
        return Err(ExtendError::GraphMismatch {
            graph_nodes: graph.num_nodes(),
            store_users: num_users,
        });
    }
    if delta.num_users() != num_users {
        return Err(ExtendError::UserUniverseMismatch {
            store_users: num_users,
            delta_users: delta.num_users(),
        });
    }
    Ok(())
}

impl CreditStore {
    /// Appends an action batch to the store: scans only the new actions
    /// (in parallel, under `parallelism`) and splices their arena
    /// sections onto a copy of this one — without touching any
    /// already-scanned action.
    ///
    /// `policy` must be the policy the store was trained with for the
    /// byte-identity contract to be meaningful (the store itself retains
    /// only λ). The resulting arena is byte-identical to a from-scratch
    /// scan of the combined log for every `parallelism`. On error the
    /// store is unchanged.
    pub fn apply_delta(
        &mut self,
        graph: &DirectedGraph,
        delta: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<(), ExtendError> {
        self.data = Arc::new(self.data.extend(graph, delta, policy, parallelism)?);
        Ok(())
    }

    /// Retracts an expired action prefix — the exact inverse of
    /// [`apply_delta`](Self::apply_delta). `expired` must be the first
    /// `expired.num_new_actions()` actions the store was trained on,
    /// packaged as a delta **based at 0** (see
    /// `ActionLog::split_off_prefix`).
    ///
    /// The expired actions are rescanned on the shared worker pool and
    /// compared bit for bit against the stored prefix; any disagreement
    /// returns [`ExtendError::PrefixMismatch`] with the store untouched —
    /// a caller cannot silently retract data the model was not trained
    /// on. On success the prefix is cut off every arena section,
    /// surviving actions are renumbered down by the prefix length, and
    /// `1/A_u` is re-derived with the same single division the scan
    /// performs — so the result is byte-identical to a from-scratch scan
    /// of just the surviving window, for every `parallelism`.
    pub fn retract_delta(
        &mut self,
        graph: &DirectedGraph,
        expired: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<(), ExtendError> {
        self.data = Arc::new(self.data.retract(graph, expired, policy, parallelism)?);
        Ok(())
    }
}

/// Read-only structural validation for a retraction from a trained state
/// of `(num_users, num_actions)`: the expired batch must be a prefix
/// anchored at action 0, no longer than the state, over the same user
/// universe — and each user's membership count below the boundary,
/// `prefix_len(u, k)`, must match the expired log's. Returns the prefix
/// length `k`.
pub(crate) fn validate_retract(
    graph: &DirectedGraph,
    expired: &ActionLogDelta,
    num_users: usize,
    num_actions: usize,
    prefix_len: impl Fn(usize, usize) -> usize,
) -> Result<usize, ExtendError> {
    validate_users(graph, expired, num_users)?;
    let k = expired.num_new_actions();
    if expired.base_actions() != 0 || k > num_actions {
        return Err(ExtendError::WindowMismatch {
            store_actions: num_actions,
            expired_base: expired.base_actions(),
            expired_actions: k,
        });
    }
    for (u, &expected) in expired.additions().actions_per_user().iter().enumerate() {
        let got = prefix_len(u, k) as u32;
        if got != expected {
            return Err(ExtendError::MembershipMismatch { user: u as u32, expected, got });
        }
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan, scan_with};
    use cdim_actionlog::{ActionLog, ActionLogBuilder};
    use cdim_graph::{DirectedGraph, GraphBuilder};

    fn instance() -> (DirectedGraph, ActionLog) {
        let graph = GraphBuilder::new(6)
            .edges([(0, 2), (1, 2), (0, 3), (2, 4), (0, 5), (2, 5), (3, 5), (4, 5), (5, 1)])
            .build();
        let mut b = ActionLogBuilder::new(6);
        for a in 0..5u32 {
            let mut t = 0.0;
            for u in 0..6u32 {
                if (u + a) % 5 != 4 {
                    b.push(u, a, t);
                    t += 0.5;
                }
            }
        }
        (graph, b.build())
    }

    #[test]
    fn extend_matches_full_scan_at_every_split() {
        let (graph, log) = instance();
        for policy in [CreditPolicy::Uniform, CreditPolicy::time_aware(&graph, &log)] {
            for lambda in [0.0, 0.001] {
                let full = scan(&graph, &log, &policy, lambda).unwrap().dump();
                for split in 0..=log.num_actions() {
                    let (prefix, delta) = log.split_at_action(split);
                    let mut store = scan(&graph, &prefix, &policy, lambda).unwrap();
                    store.apply_delta(&graph, &delta, &policy, Parallelism::fixed(3)).unwrap();
                    assert!(store.dump() == full, "split {split}, lambda {lambda}");
                }
            }
        }
    }

    #[test]
    fn empty_and_full_deltas_are_exact() {
        let (graph, log) = instance();
        let policy = CreditPolicy::Uniform;
        let full = scan(&graph, &log, &policy, 0.0).unwrap().dump();

        // Empty delta: a no-op extend.
        let (prefix, empty) = log.split_at_action(log.num_actions());
        let mut store = scan(&graph, &prefix, &policy, 0.0).unwrap();
        store.apply_delta(&graph, &empty, &policy, Parallelism::auto()).unwrap();
        assert!(store.dump() == full);

        // All-in-delta: training entirely through the incremental path.
        let (nothing, everything) = log.split_at_action(0);
        let mut store = scan(&graph, &nothing, &policy, 0.0).unwrap();
        store.apply_delta(&graph, &everything, &policy, Parallelism::fixed(2)).unwrap();
        assert!(store.dump() == full);
    }

    #[test]
    fn chained_deltas_compose() {
        let (graph, log) = instance();
        let policy = CreditPolicy::time_aware(&graph, &log);
        let full = scan(&graph, &log, &policy, 0.001).unwrap().dump();
        let (prefix, _) = log.split_at_action(1);
        let mut store = scan(&graph, &prefix, &policy, 0.001).unwrap();
        for (start, end) in [(1usize, 2usize), (2, 4), (4, 5)] {
            let delta = log.delta_range(start, end);
            store.apply_delta(&graph, &delta, &policy, Parallelism::fixed(2)).unwrap();
        }
        assert!(store.dump() == full);
    }

    #[test]
    fn mismatches_are_rejected_as_values() {
        let (graph, log) = instance();
        let policy = CreditPolicy::Uniform;
        let (prefix, delta) = log.split_at_action(2);
        let mut store = scan(&graph, &prefix, &policy, 0.0).unwrap();

        // Wrong base: a delta cut for a longer prefix.
        let late = log.delta_range(4, 5);
        assert_eq!(
            store.apply_delta(&graph, &late, &policy, Parallelism::auto()),
            Err(ExtendError::BaseMismatch { store_actions: 2, delta_base: 4 })
        );

        // Wrong universe: a delta over a different user id space.
        let foreign = ActionLogDelta::new(2, ActionLogBuilder::new(9).build());
        assert_eq!(
            store.apply_delta(&graph, &foreign, &policy, Parallelism::auto()),
            Err(ExtendError::UserUniverseMismatch { store_users: 6, delta_users: 9 })
        );

        // Wrong graph.
        let small_graph = GraphBuilder::new(3).edges([(0, 1)]).build();
        assert_eq!(
            store.apply_delta(&small_graph, &delta, &policy, Parallelism::auto()),
            Err(ExtendError::GraphMismatch { graph_nodes: 3, store_users: 6 })
        );

        // Failed applies leave the store untouched.
        let before = store.dump();
        assert!(store.apply_delta(&graph, &late, &policy, Parallelism::auto()).is_err());
        assert!(store.dump() == before);
    }

    #[test]
    fn errors_are_descriptive() {
        let e = ExtendError::BaseMismatch { store_actions: 7, delta_base: 9 };
        assert!(e.to_string().contains("7 actions"));
        let e = ExtendError::UserUniverseMismatch { store_users: 2, delta_users: 3 };
        assert!(e.to_string().contains("user universe"));
        let e = ExtendError::GraphMismatch { graph_nodes: 4, store_users: 5 };
        assert!(e.to_string().contains("4 nodes"));
        let e =
            ExtendError::WindowMismatch { store_actions: 3, expired_base: 1, expired_actions: 2 };
        assert!(e.to_string().contains("not a store prefix"));
        let e = ExtendError::PrefixMismatch { action: 6 };
        assert!(e.to_string().contains("action 6"));
        let e = ExtendError::MembershipMismatch { user: 2, expected: 3, got: 1 };
        assert!(e.to_string().contains("user 2"));
    }

    #[test]
    fn retract_matches_window_scan_at_every_cut() {
        let (graph, log) = instance();
        for policy in [CreditPolicy::Uniform, CreditPolicy::time_aware(&graph, &log)] {
            for lambda in [0.0, 0.001] {
                for expire in 0..=log.num_actions() {
                    let (expired, window) = log.split_off_prefix(expire);
                    let mut store = scan(&graph, &log, &policy, lambda).unwrap();
                    store.retract_delta(&graph, &expired, &policy, Parallelism::fixed(3)).unwrap();
                    let fresh = scan(&graph, &window, &policy, lambda).unwrap();
                    assert!(store.dump() == fresh.dump(), "expire {expire}, lambda {lambda}");
                }
            }
        }
    }

    #[test]
    fn retract_then_extend_composes() {
        // The sliding-window motion itself: expire at the front, append
        // at the back, land exactly on the window-only scan.
        let (graph, log) = instance();
        let policy = CreditPolicy::time_aware(&graph, &log);
        let n = log.num_actions();
        let (head, tail_delta) = log.split_at_action(3);
        let mut store = scan(&graph, &head, &policy, 0.001).unwrap();
        // Expire the first 2 of the 3 scanned actions…
        let expired = ActionLogDelta::new(0, log.delta_range(0, 2).additions().clone());
        store.retract_delta(&graph, &expired, &policy, Parallelism::fixed(2)).unwrap();
        // …then append the rest, rebased against the shrunken store.
        let appended = ActionLogDelta::new(1, tail_delta.additions().clone());
        store.apply_delta(&graph, &appended, &policy, Parallelism::fixed(2)).unwrap();
        let window = log.split_off_prefix(2).1;
        let fresh = scan(&graph, &window, &policy, 0.001).unwrap();
        assert!(store.dump() == fresh.dump());
        assert_eq!(store.num_actions(), n - 2);
    }

    #[test]
    fn retract_everything_leaves_an_empty_trainable_store() {
        let (graph, log) = instance();
        let policy = CreditPolicy::Uniform;
        let (everything, empty) = log.split_off_prefix(log.num_actions());
        let mut store = scan(&graph, &log, &policy, 0.0).unwrap();
        store.retract_delta(&graph, &everything, &policy, Parallelism::auto()).unwrap();
        assert_eq!(store.num_actions(), 0);
        assert_eq!(store.total_entries(), 0);
        assert!(store.dump() == scan(&graph, &empty, &policy, 0.0).unwrap().dump());
        // The emptied store trains again through the incremental path.
        let refill = ActionLogDelta::new(0, log.clone());
        store.apply_delta(&graph, &refill, &policy, Parallelism::fixed(2)).unwrap();
        assert!(store.dump() == scan(&graph, &log, &policy, 0.0).unwrap().dump());
    }

    #[test]
    fn retract_mismatches_are_rejected_as_values() {
        let (graph, log) = instance();
        let policy = CreditPolicy::Uniform;
        let mut store = scan(&graph, &log, &policy, 0.0).unwrap();
        let before = store.dump();

        // Not a prefix: the expired delta must be based at 0.
        let mid = log.delta_range(1, 3);
        assert_eq!(
            store.retract_delta(&graph, &mid, &policy, Parallelism::auto()),
            Err(ExtendError::WindowMismatch {
                store_actions: 5,
                expired_base: 1,
                expired_actions: 2
            })
        );

        // Longer than the store.
        let mut b = ActionLogBuilder::new(6);
        for a in 0..6u32 {
            b.push(0, a, 0.0);
        }
        let too_long = ActionLogDelta::new(0, b.build());
        assert!(matches!(
            store.retract_delta(&graph, &too_long, &policy, Parallelism::auto()),
            Err(ExtendError::WindowMismatch { store_actions: 5, expired_actions: 6, .. })
        ));

        // Wrong universe.
        let foreign = ActionLogDelta::new(0, ActionLogBuilder::new(9).build());
        assert_eq!(
            store.retract_delta(&graph, &foreign, &policy, Parallelism::auto()),
            Err(ExtendError::UserUniverseMismatch { store_users: 6, delta_users: 9 })
        );

        // Wrong membership: a prefix claiming different performers than
        // the real one (user 0 acted in the real action 0, the claimed
        // prefix says they did not).
        let mut b = ActionLogBuilder::new(6);
        b.push(4, 0, 0.0);
        let wrong_user = ActionLogDelta::new(0, b.build());
        assert_eq!(
            store.retract_delta(&graph, &wrong_user, &policy, Parallelism::auto()),
            Err(ExtendError::MembershipMismatch { user: 0, expected: 0, got: 1 })
        );

        // Right membership counts, wrong data: reversing the activation
        // order flips the propagation DAG, so the kernel replay disagrees
        // bitwise with the stored credits.
        let mut b = ActionLogBuilder::new(6);
        for &u in log.users_of(0) {
            b.push(u, 0, f64::from(5 - u));
        }
        let wrong_order = ActionLogDelta::new(0, b.build());
        assert_eq!(
            store.retract_delta(&graph, &wrong_order, &policy, Parallelism::auto()),
            Err(ExtendError::PrefixMismatch { action: 0 })
        );

        // Every failure left the store untouched.
        assert!(store.dump() == before);
    }

    #[test]
    fn delta_parallelism_never_changes_the_dump() {
        let (graph, log) = instance();
        let policy = CreditPolicy::time_aware(&graph, &log);
        let (prefix, delta) = log.split_at_action(2);
        let baseline = {
            let mut s = scan_with(&graph, &prefix, &policy, 0.001, Parallelism::single()).unwrap();
            s.apply_delta(&graph, &delta, &policy, Parallelism::single()).unwrap();
            s.dump()
        };
        for threads in [2usize, 3, 8] {
            let mut s =
                scan_with(&graph, &prefix, &policy, 0.001, Parallelism::fixed(threads)).unwrap();
            s.apply_delta(&graph, &delta, &policy, Parallelism::fixed(threads)).unwrap();
            assert!(s.dump() == baseline, "threads = {threads}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scan::scan_with;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// The load-bearing contract of the incremental subsystem: for a
        /// random log split into a prefix plus 1..=4 append-only deltas
        /// (empty segments — including an empty prefix — occur when
        /// boundaries collide), and for every tested thread count, the
        /// incrementally extended store dumps byte-identically to a
        /// from-scratch scan of the full log. Both policies, λ ∈
        /// {0, 0.001}.
        #[test]
        fn prefix_plus_deltas_equals_full_scan(
            edges in proptest::collection::vec((0u32..9, 0u32..9), 0..45),
            events in proptest::collection::vec((0u32..9, 0u32..6, 0u64..20), 1..70),
            cuts in proptest::collection::vec(0usize..7, 1..5),
            time_aware in proptest::bool::ANY,
            lambda_on in proptest::bool::ANY,
        ) {
            let graph = GraphBuilder::new(9).edges(edges).build();
            let mut b = ActionLogBuilder::new(9);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let lambda = if lambda_on { 0.001 } else { 0.0 };

            // Sorted, clamped segment boundaries over the action range.
            let n = log.num_actions();
            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| c.min(n)).collect();
            bounds.sort_unstable();

            let full = scan_with(&graph, &log, &policy, lambda, Parallelism::single())
                .unwrap()
                .dump();
            for threads in [1usize, 2, 8] {
                let par = Parallelism::fixed(threads);
                let (prefix, _) = log.split_at_action(bounds[0]);
                let mut store = scan_with(&graph, &prefix, &policy, lambda, par).unwrap();
                let mut done = bounds[0];
                for &cut in &bounds[1..] {
                    store
                        .apply_delta(&graph, &log.delta_range(done, cut), &policy, par)
                        .unwrap();
                    done = cut;
                }
                store.apply_delta(&graph, &log.delta_range(done, n), &policy, par).unwrap();
                prop_assert!(
                    store.dump() == full,
                    "threads {threads}, bounds {bounds:?}, lambda {lambda}: dump diverged"
                );
            }
        }

        /// The sliding-window contract: a random interleaving of
        /// apply_delta (grow at the back) and retract_delta (expire at
        /// the front) leaves the store byte-identical to a from-scratch
        /// scan of just the surviving window — at threads {1, 2, 8},
        /// both policies, λ ∈ {0, 0.001}. Shrink amounts may empty the
        /// window entirely and grow amounts may exhaust the log, so the
        /// empty-window and retract-everything edges occur naturally.
        #[test]
        fn window_walk_equals_window_scan(
            edges in proptest::collection::vec((0u32..9, 0u32..9), 0..45),
            events in proptest::collection::vec((0u32..9, 0u32..6, 0u64..20), 1..70),
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..5), 1..8),
            time_aware in proptest::bool::ANY,
            lambda_on in proptest::bool::ANY,
        ) {
            let graph = GraphBuilder::new(9).edges(edges).build();
            let mut b = ActionLogBuilder::new(9);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            // The policy is learned from (or independent of) the full
            // log and stays FIXED across every grow/shrink — the same
            // object scans the reference window, so both sides see
            // identical γ values (re-learning per window is a full
            // retrain, not a slide).
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let lambda = if lambda_on { 0.001 } else { 0.0 };
            let n = log.num_actions();

            for threads in [1usize, 2, 8] {
                let par = Parallelism::fixed(threads);
                // Start from an empty window and walk it over the log.
                let empty = ActionLogBuilder::new(9).build();
                let mut store =
                    scan_with(&graph, &empty, &policy, lambda, par).unwrap();
                let (mut lo, mut hi) = (0usize, 0usize);
                for &(shrink, amount) in &ops {
                    if shrink {
                        let cut = (lo + amount).min(hi);
                        let expired = ActionLogDelta::new(
                            0,
                            log.delta_range(lo, cut).additions().clone(),
                        );
                        store.retract_delta(&graph, &expired, &policy, par).unwrap();
                        lo = cut;
                    } else {
                        let end = (hi + amount).min(n);
                        let delta = ActionLogDelta::new(
                            hi - lo,
                            log.delta_range(hi, end).additions().clone(),
                        );
                        store.apply_delta(&graph, &delta, &policy, par).unwrap();
                        hi = end;
                    }
                }
                let window = log.split_at_action(hi).0.split_off_prefix(lo).1;
                let fresh =
                    scan_with(&graph, &window, &policy, lambda, Parallelism::single())
                        .unwrap();
                prop_assert!(
                    store.dump() == fresh.dump(),
                    "threads {threads}, window [{lo}, {hi}), lambda {lambda}: dump diverged"
                );
            }
        }
    }
}
