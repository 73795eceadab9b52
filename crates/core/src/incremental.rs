//! Incremental retraining — the streaming half of Algorithm 2: append
//! new actions ([`CompactSelector::extend`]) and expire old ones
//! ([`CompactSelector::retract`]) on the served model.
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
//! thread count and a fixed credit policy, extending the prefix's model
//! produces an arena *byte-identical* to the model of a from-scratch
//! [`scan`](crate::scan::scan) of the combined log, committed seeds
//! replayed in order. The `tests/golden.rs` suite and the proptests
//! below enforce the contract. The splice lives on
//! [`CompactSelector`] (the snapshot and the service wrap it); this
//! module supplies the error type and the checks it runs.
//!
//! **Retraction.** The same action-locality makes the inverse exact: a
//! prefix of expired actions can be cut away
//! ([`CompactSelector::retract`], fed by `ActionLog::split_off_prefix`)
//! leaving state byte-identical to a from-scratch scan of just the
//! surviving window — every per-action section keeps a suffix, dense ids
//! renumber down, and `1/A_u` is one division off the surviving count.
//! Appends and retractions compose freely, which is what a sliding
//! window is: retract at the front, extend at the back, never rescan the
//! middle.
//!
//! What a delta deliberately does **not** do: re-learn the time-aware
//! policy parameters (`τ`, `infl`). The policy a model was trained with
//! stays fixed across extend calls — refreshing it changes credits of
//! *old* actions too and therefore requires a full retrain. Production
//! deployments interleave cheap delta refreshes with occasional full
//! retrains.
//!
//! [`CompactSelector`]: crate::CompactSelector
//! [`CompactSelector::extend`]: crate::CompactSelector::extend
//! [`CompactSelector::retract`]: crate::CompactSelector::retract

use crate::compact::Overflow;
use cdim_actionlog::ActionLogDelta;
use cdim_graph::DirectedGraph;
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::CreditPolicy;
    use crate::scan::scan_with;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use cdim_util::pool::Parallelism;
    use proptest::prelude::*;

    proptest! {
        /// The load-bearing contract of the incremental subsystem: for a
        /// random log split into a prefix plus 1..=4 append-only deltas
        /// (empty segments — including an empty prefix — occur when
        /// boundaries collide), and for every tested thread count, the
        /// incrementally extended model has the arena of a from-scratch
        /// scan of the full log. Both policies, λ ∈ {0, 0.001}.
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

            let full = scan_with(&graph, &log, &policy, lambda, Parallelism::single()).unwrap();
            for threads in [1usize, 2, 8] {
                let par = Parallelism::fixed(threads);
                let (prefix, _) = log.split_at_action(bounds[0]);
                let mut grown = scan_with(&graph, &prefix, &policy, lambda, par).unwrap();
                let mut done = bounds[0];
                for &cut in bounds[1..].iter().chain([&n]) {
                    grown = grown
                        .extend(&graph, &log.delta_range(done, cut), &policy, par)
                        .unwrap();
                    done = cut;
                }
                prop_assert_eq!(grown.counts(), full.counts());
                prop_assert!(
                    grown.arena() == full.arena(),
                    "threads {threads}, bounds {bounds:?}, lambda {lambda}: arena diverged"
                );
            }
        }

        /// The sliding-window contract: a random interleaving of extend
        /// (grow at the back) and retract (expire at the front) leaves
        /// the model with the arena of a from-scratch scan of just the
        /// surviving window — at threads {1, 2, 8}, both policies,
        /// λ ∈ {0, 0.001}. Shrink amounts may empty the window entirely
        /// and grow amounts may exhaust the log, so the empty-window and
        /// retract-everything edges occur naturally.
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
                let mut walked = scan_with(&graph, &empty, &policy, lambda, par).unwrap();
                let (mut lo, mut hi) = (0usize, 0usize);
                for &(shrink, amount) in &ops {
                    if shrink {
                        let cut = (lo + amount).min(hi);
                        let expired = ActionLogDelta::new(
                            0,
                            log.delta_range(lo, cut).additions().clone(),
                        );
                        walked = walked.retract(&graph, &expired, &policy, par).unwrap();
                        lo = cut;
                    } else {
                        let end = (hi + amount).min(n);
                        let delta = ActionLogDelta::new(
                            hi - lo,
                            log.delta_range(hi, end).additions().clone(),
                        );
                        walked = walked.extend(&graph, &delta, &policy, par).unwrap();
                        hi = end;
                    }
                }
                let window = log.split_at_action(hi).0.split_off_prefix(lo).1;
                let fresh = scan_with(&graph, &window, &policy, lambda, Parallelism::single()).unwrap();
                prop_assert_eq!(walked.counts(), fresh.counts());
                prop_assert!(
                    walked.arena() == fresh.arena(),
                    "threads {threads}, window [{lo}, {hi}), lambda {lambda}: arena diverged"
                );
            }
        }
    }
}
