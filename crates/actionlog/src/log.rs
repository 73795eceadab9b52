//! Columnar action-log store.
//!
//! The log is kept "sorted, first by action and then by time" exactly as
//! Algorithm 2 requires, in struct-of-arrays layout: one pass over an
//! action's tuples is a contiguous scan. Action ids are densified at build
//! time (the original external id is retained for provenance, e.g. across
//! train/test splits).

use cdim_util::HeapSize;

/// User identifier — the same dense id space as the social graph's nodes.
pub type UserId = u32;

/// Dense action identifier (`0..num_actions` within one [`ActionLog`]).
pub type ActionId = u32;

/// Event time. Continuous (real-world logs are not round-based); must be
/// finite.
pub type Timestamp = f64;

/// One `(user, action, time)` record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActionTuple {
    /// Acting user.
    pub user: UserId,
    /// Dense action id.
    pub action: ActionId,
    /// When the user performed the action.
    pub time: Timestamp,
}

/// Immutable, action-partitioned log of `(user, action, time)` tuples.
///
/// Invariants (enforced by [`ActionLogBuilder`]):
/// * each user performs each action at most once (earliest record wins);
/// * tuples of one action are contiguous and sorted by `(time, user)`;
/// * all timestamps are finite.
///
/// ```
/// use cdim_actionlog::ActionLogBuilder;
///
/// let mut b = ActionLogBuilder::new(3);
/// b.push(0, 7, 1.0); // user 0 performed action 7 at t = 1
/// b.push(1, 7, 2.5);
/// b.push(0, 9, 0.5);
/// let log = b.build();
///
/// assert_eq!(log.num_actions(), 2);        // ids densified: 7 → 0, 9 → 1
/// assert_eq!(log.users_of(0), &[0, 1]);    // chronological order
/// assert_eq!(log.actions_performed_by(0), 2); // A_u
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ActionLog {
    num_users: usize,
    users: Vec<UserId>,
    times: Vec<Timestamp>,
    /// `offsets[a]..offsets[a+1]` indexes action `a`'s slice.
    offsets: Vec<usize>,
    /// Dense id → external id of the source dataset.
    external_ids: Vec<u32>,
    /// `A_u` — number of actions performed by each user.
    actions_per_user: Vec<u32>,
}

impl ActionLog {
    /// Number of users in the id space (not all need appear in the log).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of distinct actions (= propagation traces).
    #[inline]
    pub fn num_actions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tuples.
    #[inline]
    pub fn num_tuples(&self) -> usize {
        self.users.len()
    }

    /// The dense action ids, ascending.
    #[inline]
    pub fn actions(&self) -> std::ops::Range<ActionId> {
        0..self.num_actions() as ActionId
    }

    /// The users of action `a` in chronological order.
    #[inline]
    pub fn users_of(&self, a: ActionId) -> &[UserId] {
        &self.users[self.range(a)]
    }

    /// The timestamps of action `a`, parallel to [`Self::users_of`].
    #[inline]
    pub fn times_of(&self, a: ActionId) -> &[Timestamp] {
        &self.times[self.range(a)]
    }

    /// Number of users who performed action `a` (the *propagation size*).
    #[inline]
    pub fn action_size(&self, a: ActionId) -> usize {
        self.range(a).len()
    }

    /// `A_u`: how many actions user `u` performed.
    #[inline]
    pub fn actions_performed_by(&self, u: UserId) -> u32 {
        self.actions_per_user[u as usize]
    }

    /// Per-user action counts (`A_u` for all `u`).
    #[inline]
    pub fn actions_per_user(&self) -> &[u32] {
        &self.actions_per_user
    }

    /// External (source-dataset) id of dense action `a`.
    #[inline]
    pub fn external_id(&self, a: ActionId) -> u32 {
        self.external_ids[a as usize]
    }

    /// Iterates all tuples in (action, time, user) order.
    pub fn tuples(&self) -> impl Iterator<Item = ActionTuple> + '_ {
        self.actions().flat_map(move |a| {
            let range = self.range(a);
            range.map(move |i| ActionTuple { user: self.users[i], action: a, time: self.times[i] })
        })
    }

    /// Time at which `u` performed `a`, if it did (linear in action size).
    #[cfg(test)]
    fn time_of(&self, u: UserId, a: ActionId) -> Option<Timestamp> {
        let range = self.range(a);
        self.users[range.clone()].iter().position(|&x| x == u).map(|i| self.times[range.start + i])
    }

    /// Returns the same log over a wider user universe (`num_users` ≥ the
    /// current universe): ids gain headroom, `A_u` of the new users is 0.
    /// A log built with [`ActionLogBuilder::growing`] knows only the
    /// largest user it has *seen*; widening aligns it with the universe an
    /// external artifact pins — typically the social graph's node count —
    /// before the two are combined.
    ///
    /// # Panics
    /// Panics if `num_users` is smaller than the current universe
    /// (shrinking would orphan recorded tuples).
    pub fn widen_users(mut self, num_users: usize) -> ActionLog {
        assert!(
            num_users >= self.num_users,
            "cannot shrink the user universe from {} to {num_users}",
            self.num_users
        );
        self.num_users = num_users;
        self.actions_per_user.resize(num_users, 0);
        self
    }

    /// Restricts the log to the given dense action ids (in the given
    /// order), producing a new log with re-densified ids. External ids are
    /// carried over so provenance survives.
    pub fn project_actions(&self, keep: &[ActionId]) -> ActionLog {
        let mut builder = ActionLogBuilder::new(self.num_users);
        for (new_id, &a) in keep.iter().enumerate() {
            let range = self.range(a);
            for i in range {
                builder.push_with_external(
                    self.users[i],
                    new_id as u32,
                    self.external_ids[a as usize],
                    self.times[i],
                );
            }
        }
        builder.build()
    }

    /// Truncates the log to approximately the first `max_tuples` tuples in
    /// action order, keeping whole actions (the scalability experiments
    /// subsample training tuples by whole propagation traces, Fig 8/9).
    pub fn take_tuples(&self, max_tuples: usize) -> ActionLog {
        let mut keep = Vec::new();
        let mut total = 0usize;
        for a in self.actions() {
            let size = self.action_size(a);
            if total + size > max_tuples && !keep.is_empty() {
                break;
            }
            keep.push(a);
            total += size;
            if total >= max_tuples {
                break;
            }
        }
        self.project_actions(&keep)
    }

    /// Tuple indexes of action `a`.
    #[inline]
    pub(crate) fn range(&self, a: ActionId) -> std::ops::Range<usize> {
        self.offsets[a as usize]..self.offsets[a as usize + 1]
    }
}

impl HeapSize for ActionLog {
    fn heap_bytes(&self) -> usize {
        self.users.heap_bytes()
            + self.times.heap_bytes()
            + self.offsets.heap_bytes()
            + self.external_ids.heap_bytes()
            + self.actions_per_user.heap_bytes()
    }
}

/// Why [`ActionLogBuilder::try_push`] rejected a tuple.
///
/// Non-finite times are the dangerous case: `"NaN"` and `"inf"` parse
/// fine via `f64::from_str`, but a NaN timestamp has no total order, so
/// admitting one would silently corrupt the chronological-order invariant
/// every downstream scan relies on (`build` sorts with `partial_cmp`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LogBuildError {
    /// The timestamp was NaN or ±infinity.
    NonFiniteTime {
        /// Acting user.
        user: UserId,
        /// External action id.
        action: u32,
        /// The offending timestamp.
        time: f64,
    },
    /// The user id does not fit the declared universe.
    UserOutOfRange {
        /// The offending user id.
        user: UserId,
        /// Size of the user universe the builder was created with.
        num_users: usize,
    },
}

impl std::fmt::Display for LogBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogBuildError::NonFiniteTime { user, action, time } => {
                write!(f, "non-finite timestamp {time} for user {user} on action {action}")
            }
            LogBuildError::UserOutOfRange { user, num_users } => {
                write!(f, "user {user} out of range for {num_users} users")
            }
        }
    }
}

impl std::error::Error for LogBuildError {}

/// Accumulates raw tuples and produces a sanitized [`ActionLog`].
#[derive(Clone, Debug)]
pub struct ActionLogBuilder {
    num_users: usize,
    /// Auto-grow the universe instead of rejecting unseen user ids.
    growing: bool,
    // (external_action, time, user) triples; external ids are densified at
    // build time in ascending order.
    raw: Vec<(u32, Timestamp, UserId)>,
    external_override: Vec<(u32, u32)>, // (dense_hint, external) when projecting
}

impl ActionLogBuilder {
    /// Starts a builder over a universe of `num_users` users.
    pub fn new(num_users: usize) -> Self {
        ActionLogBuilder {
            num_users,
            growing: false,
            raw: Vec::new(),
            external_override: Vec::new(),
        }
    }

    /// Starts a builder with an auto-growing user universe: every pushed
    /// user id is admitted and the universe expands to `max id + 1`.
    ///
    /// This is the streaming-ingest mode — a live log introduces user ids
    /// the consumer has never seen, and requiring `num_users` upfront
    /// would force a pre-scan of a file that is still being written. The
    /// built log's universe is the largest id actually seen; widen it to
    /// an externally pinned universe (the graph's node count) with
    /// [`ActionLog::widen_users`] before combining the two.
    ///
    /// Timestamp validation is unchanged: only the user-range check is
    /// relaxed, and only because the range is what's being discovered.
    pub fn growing() -> Self {
        ActionLogBuilder {
            num_users: 0,
            growing: true,
            raw: Vec::new(),
            external_override: Vec::new(),
        }
    }

    /// The current user universe (grows as tuples arrive in
    /// [`growing`](Self::growing) mode).
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Adds a tuple. `action` is an arbitrary external id.
    ///
    /// # Panics
    /// Panics if `user` is out of range or `time` is not finite. Use
    /// [`Self::try_push`] where malformed records must surface as values
    /// (e.g. when ingesting untrusted files).
    pub fn push(&mut self, user: UserId, action: u32, time: Timestamp) {
        if let Err(e) = self.try_push(user, action, time) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`Self::push`]: rejects out-of-range users and
    /// non-finite timestamps with a typed [`LogBuildError`] instead of
    /// panicking. On error the builder is unchanged.
    pub fn try_push(
        &mut self,
        user: UserId,
        action: u32,
        time: Timestamp,
    ) -> Result<(), LogBuildError> {
        // Time first: a rejected tuple must leave the builder unchanged,
        // including the auto-grown universe below.
        if !time.is_finite() {
            return Err(LogBuildError::NonFiniteTime { user, action, time });
        }
        if (user as usize) >= self.num_users {
            if !self.growing {
                return Err(LogBuildError::UserOutOfRange { user, num_users: self.num_users });
            }
            self.num_users = user as usize + 1;
        }
        self.raw.push((action, time, user));
        Ok(())
    }

    /// Adds a tuple whose dense id is pre-assigned (`action`) while keeping
    /// a distinct external provenance id. Used by projections.
    pub(crate) fn push_with_external(
        &mut self,
        user: UserId,
        action: u32,
        external: u32,
        time: Timestamp,
    ) {
        self.push(user, action, time);
        self.external_override.push((action, external));
    }

    /// Number of raw tuples buffered so far.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether no tuples have been added.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Finalizes the log: sorts by (action, time, user), densifies action
    /// ids, and keeps only the earliest record per (user, action).
    pub fn build(mut self) -> ActionLog {
        self.raw.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).expect("finite times")).then(a.2.cmp(&b.2))
        });

        let mut users = Vec::with_capacity(self.raw.len());
        let mut times = Vec::with_capacity(self.raw.len());
        let mut offsets = vec![0usize];
        let mut external_ids = Vec::new();
        let mut actions_per_user = vec![0u32; self.num_users];
        let mut seen_in_action: Vec<UserId> = Vec::new();

        let mut i = 0;
        while i < self.raw.len() {
            let ext = self.raw[i].0;
            seen_in_action.clear();
            while i < self.raw.len() && self.raw[i].0 == ext {
                let (_, t, u) = self.raw[i];
                // Earliest record wins: records are time-sorted, so a user
                // already seen in this action is a duplicate.
                if !seen_in_action.contains(&u) {
                    seen_in_action.push(u);
                    users.push(u);
                    times.push(t);
                    actions_per_user[u as usize] += 1;
                }
                i += 1;
            }
            offsets.push(users.len());
            external_ids.push(ext);
        }

        // Apply external-id overrides (projection provenance).
        if !self.external_override.is_empty() {
            self.external_override.sort_unstable();
            self.external_override.dedup();
            for (dense, ext) in self.external_override {
                if (dense as usize) < external_ids.len() {
                    external_ids[dense as usize] = ext;
                }
            }
        }

        ActionLog {
            num_users: self.num_users,
            users,
            times,
            offsets,
            external_ids,
            actions_per_user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_log() -> ActionLog {
        let mut b = ActionLogBuilder::new(5);
        b.push(0, 10, 1.0);
        b.push(1, 10, 2.0);
        b.push(2, 10, 3.0);
        b.push(3, 20, 1.5);
        b.push(0, 20, 2.5);
        b.build()
    }

    #[test]
    fn shape_and_ordering() {
        let log = small_log();
        assert_eq!(log.num_actions(), 2);
        assert_eq!(log.num_tuples(), 5);
        assert_eq!(log.users_of(0), &[0, 1, 2]);
        assert_eq!(log.times_of(0), &[1.0, 2.0, 3.0]);
        assert_eq!(log.users_of(1), &[3, 0]);
        assert_eq!(log.external_id(0), 10);
        assert_eq!(log.external_id(1), 20);
    }

    #[test]
    fn au_counts() {
        let log = small_log();
        assert_eq!(log.actions_performed_by(0), 2);
        assert_eq!(log.actions_performed_by(1), 1);
        assert_eq!(log.actions_performed_by(4), 0);
    }

    #[test]
    fn duplicate_user_action_keeps_earliest() {
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 5, 9.0);
        b.push(0, 5, 3.0);
        b.push(1, 5, 4.0);
        let log = b.build();
        assert_eq!(log.num_tuples(), 2);
        assert_eq!(log.time_of(0, 0), Some(3.0));
    }

    #[test]
    fn time_of_missing_user() {
        let log = small_log();
        assert_eq!(log.time_of(4, 0), None);
    }

    #[test]
    fn tuples_iterate_in_action_then_time_order() {
        let log = small_log();
        let ts: Vec<(u32, u32)> = log.tuples().map(|t| (t.action, t.user)).collect();
        assert_eq!(ts, vec![(0, 0), (0, 1), (0, 2), (1, 3), (1, 0)]);
    }

    #[test]
    fn project_actions_redensifies_and_keeps_provenance() {
        let log = small_log();
        let projected = log.project_actions(&[1]);
        assert_eq!(projected.num_actions(), 1);
        assert_eq!(projected.users_of(0), &[3, 0]);
        assert_eq!(projected.external_id(0), 20);
        assert_eq!(projected.actions_performed_by(0), 1);
        assert_eq!(projected.actions_performed_by(1), 0);
    }

    #[test]
    fn take_tuples_keeps_whole_actions() {
        let log = small_log();
        let t = log.take_tuples(3);
        assert_eq!(t.num_actions(), 1);
        assert_eq!(t.num_tuples(), 3);
        let t4 = log.take_tuples(4);
        // Second action (2 tuples) would exceed 4 only partially; whole
        // actions only, so we stop at 3 tuples.
        assert_eq!(t4.num_tuples(), 3);
        let all = log.take_tuples(100);
        assert_eq!(all.num_tuples(), 5);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_time() {
        let mut b = ActionLogBuilder::new(1);
        b.push(0, 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_user() {
        let mut b = ActionLogBuilder::new(1);
        b.push(3, 0, 1.0);
    }

    #[test]
    fn try_push_rejects_bad_tuples_as_values() {
        let mut b = ActionLogBuilder::new(2);
        // NaN != NaN, so match structurally rather than with assert_eq!.
        assert!(matches!(
            b.try_push(0, 7, f64::NAN),
            Err(LogBuildError::NonFiniteTime { user: 0, action: 7, time }) if time.is_nan()
        ));
        assert_eq!(
            b.try_push(1, 7, f64::INFINITY),
            Err(LogBuildError::NonFiniteTime { user: 1, action: 7, time: f64::INFINITY })
        );
        assert_eq!(
            b.try_push(1, 7, f64::NEG_INFINITY),
            Err(LogBuildError::NonFiniteTime { user: 1, action: 7, time: f64::NEG_INFINITY })
        );
        assert_eq!(
            b.try_push(5, 7, 1.0),
            Err(LogBuildError::UserOutOfRange { user: 5, num_users: 2 })
        );
        // Rejected tuples leave the builder untouched; good ones land.
        assert!(b.is_empty());
        assert_eq!(b.try_push(1, 7, 1.0), Ok(()));
        let log = b.build();
        assert_eq!(log.num_tuples(), 1);
        assert_eq!(log.time_of(1, 0), Some(1.0));
    }

    #[test]
    fn build_error_messages_name_the_problem() {
        let nan = LogBuildError::NonFiniteTime { user: 3, action: 9, time: f64::NAN };
        assert!(nan.to_string().contains("non-finite"));
        assert!(nan.to_string().contains("action 9"));
        let oor = LogBuildError::UserOutOfRange { user: 8, num_users: 4 };
        assert!(oor.to_string().contains("out of range"));
    }

    #[test]
    fn growing_builder_admits_unseen_users() {
        let mut b = ActionLogBuilder::growing();
        assert_eq!(b.num_users(), 0);
        b.push(7, 0, 1.0);
        b.push(2, 0, 2.0);
        assert_eq!(b.num_users(), 8);
        // Still rejects what fixed mode rejects for *values*, not range.
        assert!(matches!(b.try_push(9, 0, f64::NAN), Err(LogBuildError::NonFiniteTime { .. })));
        let log = b.build();
        assert_eq!(log.num_users(), 8);
        assert_eq!(log.actions_performed_by(7), 1);
        assert_eq!(log.actions_performed_by(3), 0);
    }

    #[test]
    fn fixed_builder_still_rejects_out_of_range_users() {
        // Regression guard for the auto-growing mode: the fixed-universe
        // constructor must keep rejecting ids beyond the declared range.
        let mut b = ActionLogBuilder::new(4);
        assert_eq!(
            b.try_push(4, 0, 1.0),
            Err(LogBuildError::UserOutOfRange { user: 4, num_users: 4 })
        );
        assert!(b.is_empty());
    }

    #[test]
    fn widen_users_adds_headroom() {
        let mut b = ActionLogBuilder::growing();
        b.push(1, 5, 1.0);
        b.push(0, 5, 2.0);
        let log = b.build().widen_users(6);
        assert_eq!(log.num_users(), 6);
        assert_eq!(log.num_tuples(), 2);
        assert_eq!(log.actions_performed_by(5), 0);
        assert_eq!(log.actions_per_user().len(), 6);
        // Widening to the current size is a no-op.
        let same = log.clone().widen_users(6);
        assert_eq!(same, log);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn widen_users_rejects_shrinking() {
        small_log().widen_users(2);
    }

    #[test]
    fn empty_log() {
        let log = ActionLogBuilder::new(4).build();
        assert_eq!(log.num_actions(), 0);
        assert_eq!(log.num_tuples(), 0);
        assert_eq!(log.tuples().count(), 0);
    }

    #[test]
    fn simultaneous_times_are_kept_and_user_ordered() {
        let mut b = ActionLogBuilder::new(3);
        b.push(2, 0, 1.0);
        b.push(1, 0, 1.0);
        let log = b.build();
        assert_eq!(log.users_of(0), &[1, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Build then iterate: every surviving tuple appears in the raw
        /// input, each (user, action) pair survives exactly once with its
        /// minimum time, and per-action slices are time-sorted.
        #[test]
        fn builder_invariants(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..6, 0u64..100), 0..120)
        ) {
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &raw {
                b.push(u, a, t as f64);
            }
            let log = b.build();

            // Expected: min time per (user, external action).
            let mut expected: std::collections::BTreeMap<(u32, u32), f64> =
                std::collections::BTreeMap::new();
            for &(u, a, t) in &raw {
                let e = expected.entry((a, u)).or_insert(f64::INFINITY);
                *e = e.min(t as f64);
            }
            prop_assert_eq!(log.num_tuples(), expected.len());

            for a in log.actions() {
                let times = log.times_of(a);
                for w in times.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                let ext = log.external_id(a);
                for (i, &u) in log.users_of(a).iter().enumerate() {
                    prop_assert_eq!(expected.get(&(ext, u)).copied(), Some(times[i]));
                }
            }

            // A_u counts match.
            for u in 0..8u32 {
                let count = expected.keys().filter(|&&(_, ku)| ku == u).count();
                prop_assert_eq!(log.actions_performed_by(u) as usize, count);
            }
        }
    }
}
