//! Append-only action-log deltas — the unit of incremental retraining.
//!
//! A production deployment never retrains from a frozen log: new
//! propagation traces keep arriving. Because the credit assignment of
//! Algorithm 2 never crosses an action boundary, a batch of *new* actions
//! can be scanned on its own and appended to an existing credit store
//! without touching anything already learned. [`ActionLogDelta`] is that
//! batch: a self-contained [`ActionLog`] of the new actions plus the
//! number of actions the consumer has already scanned, which pins where
//! the new dense ids start.
//!
//! A split keeps every tuple: the prefix holds the first actions, the
//! delta the rest, each with its users, times and external id:
//!
//! ```
//! use cdim_actionlog::ActionLogBuilder;
//!
//! let mut b = ActionLogBuilder::new(3);
//! b.push(0, 10, 0.0);
//! b.push(1, 10, 1.0);
//! b.push(2, 20, 0.5);
//! let log = b.build();
//!
//! let (prefix, delta) = log.split_at_action(1);
//! assert_eq!(prefix.num_actions(), 1);
//! assert_eq!(delta.num_new_actions(), 1);
//! assert_eq!(delta.base_actions(), 1);
//! assert_eq!(delta.additions().users_of(0), log.users_of(1));
//! assert_eq!(delta.additions().external_id(0), 20);
//! ```

use crate::log::{ActionId, ActionLog};

/// An append-only batch of new actions on top of an already-scanned log.
///
/// The batch is an ordinary [`ActionLog`] whose dense ids run `0..d`
/// locally; globally the actions take ids `base_actions..base_actions + d`,
/// appended after everything the consumer has scanned. Deltas carry whole
/// new actions only — they never add tuples to an action that was already
/// scanned (credit into a user is final at its activation, so extending an
/// old trace would invalidate stored credits; ship such data as a fresh
/// trace or do a full retrain).
#[derive(Clone, Debug, PartialEq)]
pub struct ActionLogDelta {
    base_actions: usize,
    additions: ActionLog,
}

impl ActionLogDelta {
    /// Wraps `additions` as the batch appended after `base_actions`
    /// already-scanned actions.
    pub fn new(base_actions: usize, additions: ActionLog) -> Self {
        ActionLogDelta { base_actions, additions }
    }

    /// Dense actions the consumer must already hold before this delta.
    #[inline]
    pub fn base_actions(&self) -> usize {
        self.base_actions
    }

    /// Number of new actions in the batch.
    #[inline]
    pub fn num_new_actions(&self) -> usize {
        self.additions.num_actions()
    }

    /// Number of new `(user, action, time)` tuples in the batch.
    #[inline]
    pub fn num_new_tuples(&self) -> usize {
        self.additions.num_tuples()
    }

    /// Users in the delta's id space (shared with the base log and graph).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.additions.num_users()
    }

    /// Whether the batch holds no new actions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.additions.num_actions() == 0
    }

    /// The new actions as a standalone log (dense ids `0..d`).
    #[inline]
    pub fn additions(&self) -> &ActionLog {
        &self.additions
    }
}

impl ActionLog {
    /// Extracts dense actions `start..end` as an [`ActionLogDelta`] based
    /// on the first `start` actions. Tuples are carried over verbatim
    /// (same users, times, external ids, per-action order), so scanning
    /// the delta locally is identical to scanning those actions in place.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > num_actions()`.
    pub fn delta_range(&self, start: usize, end: usize) -> ActionLogDelta {
        assert!(
            start <= end && end <= self.num_actions(),
            "delta range {start}..{end} out of bounds for {} actions",
            self.num_actions()
        );
        let keep: Vec<ActionId> = (start..end).map(|a| a as ActionId).collect();
        ActionLogDelta::new(start, self.project_actions(&keep))
    }

    /// Splits the log into the first `split` actions and a delta holding
    /// the rest, based at `split`: scanning the prefix and then extending
    /// by the delta is scanning `self`.
    ///
    /// # Panics
    /// Panics if `split > num_actions()`.
    pub fn split_at_action(&self, split: usize) -> (ActionLog, ActionLogDelta) {
        let keep: Vec<ActionId> = (0..split).map(|a| a as ActionId).collect();
        (self.project_actions(&keep), self.delta_range(split, self.num_actions()))
    }

    /// Cuts the first `expire` actions off the front: `(expired, rest)`.
    ///
    /// The mirror of [`split_at_action`](Self::split_at_action) for the
    /// sliding-window path. The expired prefix comes back as an
    /// [`ActionLogDelta`] **based at 0** — exactly the shape
    /// `CompactSelector::retract` consumes to unwind those actions —
    /// and the remainder is re-densified so its actions run `0..n-expire`
    /// (external ids and per-action tuples carried through verbatim).
    /// Scanning the remainder from scratch is therefore the window-only
    /// rescan the retraction contract is proved against.
    ///
    /// # Panics
    /// Panics if `expire > num_actions()`.
    pub fn split_off_prefix(&self, expire: usize) -> (ActionLogDelta, ActionLog) {
        let expired = self.delta_range(0, expire);
        let keep: Vec<ActionId> = (expire..self.num_actions()).map(|a| a as ActionId).collect();
        (expired, self.project_actions(&keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ActionLogBuilder;

    fn sample_log() -> ActionLog {
        let mut b = ActionLogBuilder::new(4);
        b.push(0, 10, 1.0);
        b.push(1, 10, 2.0);
        b.push(2, 20, 0.5);
        b.push(0, 20, 1.5);
        b.push(3, 30, 0.0);
        b.build()
    }

    /// Every action of `part` is action `base + a` of `log`, tuple for
    /// tuple.
    fn assert_actions_of(part: &ActionLog, log: &ActionLog, base: usize) {
        assert_eq!(part.num_users(), log.num_users());
        for a in part.actions() {
            let global = (base + a as usize) as ActionId;
            assert_eq!(part.users_of(a), log.users_of(global));
            assert_eq!(part.times_of(a), log.times_of(global));
            assert_eq!(part.external_id(a), log.external_id(global));
        }
    }

    #[test]
    fn split_keeps_every_tuple() {
        let log = sample_log();
        for split in 0..=log.num_actions() {
            let (prefix, delta) = log.split_at_action(split);
            assert_eq!(prefix.num_actions(), split);
            assert_eq!(delta.base_actions(), split);
            assert_eq!(delta.num_new_actions(), log.num_actions() - split);
            assert_eq!(prefix.num_tuples() + delta.num_new_tuples(), log.num_tuples());
            assert_actions_of(&prefix, &log, 0);
            assert_actions_of(delta.additions(), &log, split);
        }
        let (_, empty) = log.split_at_action(log.num_actions());
        assert!(empty.is_empty());
    }

    #[test]
    fn delta_actions_match_source_slices() {
        let log = sample_log();
        let delta = log.delta_range(1, 3);
        assert_eq!(delta.num_new_actions(), 2);
        assert_eq!(delta.num_new_tuples(), 3);
        assert_actions_of(delta.additions(), &log, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn delta_range_checks_bounds() {
        sample_log().delta_range(1, 99);
    }

    #[test]
    fn split_off_prefix_renumbers_the_remainder() {
        let log = sample_log();
        for expire in 0..=log.num_actions() {
            let (expired, rest) = log.split_off_prefix(expire);
            assert_eq!(expired.base_actions(), 0, "expire = {expire}");
            assert_eq!(expired.num_new_actions(), expire);
            assert_eq!(rest.num_actions(), log.num_actions() - expire);
            // The expired prefix is the front of the log verbatim; the
            // remainder is the back, re-densified to 0..
            assert_actions_of(expired.additions(), &log, 0);
            assert_actions_of(&rest, &log, expire);
        }
    }

    #[test]
    fn split_off_prefix_edges() {
        let log = sample_log();
        let (none, all) = log.split_off_prefix(0);
        assert!(none.is_empty());
        assert_eq!(all, log);
        let (everything, empty) = log.split_off_prefix(log.num_actions());
        assert_eq!(everything.num_new_actions(), log.num_actions());
        assert_eq!(empty.num_actions(), 0);
        assert_eq!(empty.num_users(), log.num_users());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn split_off_prefix_checks_bounds() {
        sample_log().split_off_prefix(99);
    }
}
