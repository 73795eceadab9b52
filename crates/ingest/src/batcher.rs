//! Groups streamed records into append-only [`ActionLogDelta`]s.
//!
//! The delta contract (see [`cdim_actionlog::delta`]) is that a batch
//! carries *whole, new* actions only: credit into a user is final at its
//! activation, so a tuple arriving for an action that was already folded
//! into the model cannot be applied — it can only be quarantined. The
//! batcher is the component that upholds this contract for a live stream:
//!
//! * an action stays **open** while its records arrive; it is **sealed**
//!   when the stream moves past it (a record for a higher action id), so
//!   an action's records may straddle any number of polls and batch
//!   boundaries without being torn;
//! * sealed actions accumulate until a **count** threshold (so many
//!   closed actions pending) or an **age** threshold (the oldest has
//!   waited long enough) cuts them into one [`ActionLogDelta`];
//! * records that break append-only ordering — an action at or below the
//!   high-water mark, or a timestamp running backwards inside the open
//!   action — go to the **dead-letter sink** with a typed
//!   [`QuarantineReason`] instead of poisoning the batch.
//!
//! Equivalence: for a well-formed producer nothing is quarantined, the
//! deltas partition the file's actions in order, and folding them equals
//! the one-shot offline scan byte for byte.

use crate::follower::Record;
use cdim_actionlog::{ActionLogBuilder, ActionLogDelta};
use std::time::{Duration, Instant};

/// Batch-cutting thresholds.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Cut a delta once this many sealed actions are pending (≥ 1).
    pub max_actions: usize,
    /// Cut a delta once the oldest sealed action has waited this long.
    pub max_age: Duration,
}

impl Default for BatchConfig {
    /// Ship every sealed action promptly: batch of 1, half-second age cap.
    fn default() -> Self {
        BatchConfig { max_actions: 1, max_age: Duration::from_millis(500) }
    }
}

/// Why a record was quarantined instead of batched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuarantineReason {
    /// The record names an action at or below the stream's frontier —
    /// the action was already sealed (possibly already folded into the
    /// model), so its credits cannot be amended append-only.
    StaleAction {
        /// Smallest external action id the stream still admits.
        frontier: u32,
    },
    /// The record's timestamp runs backwards inside the open action.
    TimeRegression {
        /// The open action's newest admitted timestamp.
        last_time: f64,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::StaleAction { frontier } => {
                write!(f, "action below the stream frontier {frontier}")
            }
            QuarantineReason::TimeRegression { last_time } => {
                write!(f, "timestamp runs backwards (open action is at t = {last_time})")
            }
        }
    }
}

/// A quarantined record with its reason — the dead-letter sink's unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeadLetter {
    /// The offending record (position included, for triage).
    pub record: Record,
    /// Why it could not be batched.
    pub reason: QuarantineReason,
}

impl std::fmt::Display for DeadLetter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}: ({}, {}, {}) quarantined: {}",
            self.record.line, self.record.user, self.record.action, self.record.time, self.reason
        )
    }
}

/// One action being accumulated.
#[derive(Clone, Debug)]
struct PendingAction {
    action: u32,
    /// (user, time) in arrival order.
    records: Vec<(u32, f64)>,
    /// Position of the action's first record — the resume point that
    /// re-covers the whole action.
    first_offset: u64,
    first_line: u64,
    last_time: f64,
}

/// Summary of one cut batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchMeta {
    /// Whole actions in the delta.
    pub actions: usize,
    /// Tuples in the delta.
    pub tuples: usize,
    /// Smallest external action id shipped.
    pub first_action: u32,
    /// Largest external action id shipped — the new applied watermark.
    pub last_action: u32,
}

/// The micro-batcher: open action + sealed queue + dead letters.
#[derive(Debug)]
pub struct MicroBatcher {
    /// Highest external action id ever sealed.
    watermark: Option<u32>,
    open: Option<PendingAction>,
    closed: Vec<PendingAction>,
    closed_tuples: usize,
    /// When the oldest entry of `closed` was sealed.
    closed_since: Option<Instant>,
    dead: Vec<DeadLetter>,
    quarantined_total: u64,
    /// Reason of the most recent quarantine, surviving drains — the
    /// operator-facing "what went wrong last" even after the dead
    /// letters themselves were consumed.
    last_quarantine: Option<QuarantineReason>,
}

impl MicroBatcher {
    /// An empty batcher (fresh stream).
    pub fn new() -> Self {
        Self::resume(None)
    }

    /// A batcher resuming behind `watermark` — every action at or below
    /// it was already folded into the model by a previous incarnation.
    pub fn resume(watermark: Option<u32>) -> Self {
        MicroBatcher {
            watermark,
            open: None,
            closed: Vec::new(),
            closed_tuples: 0,
            closed_since: None,
            dead: Vec::new(),
            quarantined_total: 0,
            last_quarantine: None,
        }
    }

    /// Routes one record: into the open action, a fresh action (sealing
    /// the previous one), or quarantine.
    pub fn push(&mut self, record: Record) {
        let frontier = match (&self.open, self.watermark) {
            (Some(open), _) => open.action,
            (None, Some(w)) => w.saturating_add(1),
            (None, None) => 0,
        };
        if record.action < frontier {
            return self.quarantine(record, QuarantineReason::StaleAction { frontier });
        }
        match &mut self.open {
            Some(open) if record.action == open.action => {
                if record.time < open.last_time {
                    let last_time = open.last_time;
                    return self.quarantine(record, QuarantineReason::TimeRegression { last_time });
                }
                open.last_time = record.time;
                open.records.push((record.user, record.time));
            }
            Some(open) if record.action > open.action => {
                let sealed = std::mem::replace(open, PendingAction::starting(&record));
                self.seal(sealed);
            }
            Some(_) => unreachable!("record.action < frontier was quarantined above"),
            None => self.open = Some(PendingAction::starting(&record)),
        }
    }

    fn seal(&mut self, action: PendingAction) {
        self.watermark = Some(action.action);
        self.closed_tuples += action.records.len();
        if self.closed.is_empty() {
            self.closed_since = Some(Instant::now());
        }
        self.closed.push(action);
    }

    fn quarantine(&mut self, record: Record, reason: QuarantineReason) {
        self.quarantined_total += 1;
        self.last_quarantine = Some(reason);
        self.dead.push(DeadLetter { record, reason });
    }

    /// Seals the open action (end of stream / clean shutdown). After
    /// this, late records for it would be quarantined — only call when
    /// the producer is done or staleness is acceptable.
    pub fn seal_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.seal(open);
        }
    }

    /// Whether the pending sealed actions are ripe under `config`.
    pub fn due(&self, config: &BatchConfig) -> bool {
        self.due_at(config, Instant::now())
    }

    /// [`due`](Self::due) against an explicit clock (deterministic tests).
    pub fn due_at(&self, config: &BatchConfig, now: Instant) -> bool {
        if self.closed.is_empty() {
            return false;
        }
        self.closed.len() >= config.max_actions.max(1)
            || self
                .closed_since
                .is_some_and(|since| now.saturating_duration_since(since) >= config.max_age)
    }

    /// Cuts every pending sealed action into one [`ActionLogDelta`] based
    /// at `base_actions`, over a universe of `num_users` users. `None`
    /// when nothing is sealed. The open action is untouched.
    ///
    /// # Panics
    /// Panics if a pending record's user id is ≥ `num_users` — the driver
    /// validates records against the universe before pushing them.
    pub fn take_batch(
        &mut self,
        base_actions: usize,
        num_users: usize,
    ) -> Option<(ActionLogDelta, BatchMeta)> {
        if self.closed.is_empty() {
            return None;
        }
        let mut builder = ActionLogBuilder::growing();
        for pending in &self.closed {
            for &(user, time) in &pending.records {
                builder
                    .try_push(user, pending.action, time)
                    .expect("records validated before batching");
            }
        }
        let meta = BatchMeta {
            actions: self.closed.len(),
            tuples: self.closed_tuples,
            first_action: self.closed.first().expect("non-empty").action,
            last_action: self.closed.last().expect("non-empty").action,
        };
        self.closed.clear();
        self.closed_tuples = 0;
        self.closed_since = None;
        // Sealed actions carry ascending external ids, and the builder
        // densifies in ascending external order — the delta's local ids
        // are exactly the shipping order, which is exactly the order a
        // one-shot offline build would assign.
        let log = builder.build().widen_users(num_users);
        Some((ActionLogDelta::new(base_actions, log), meta))
    }

    /// Position (byte offset, lines consumed) from which a restart
    /// re-covers every record not yet shipped in a batch: the first
    /// record of the oldest pending action. `None` when nothing is
    /// pending — resume from the follower's own position.
    pub fn durable_mark(&self) -> Option<(u64, u64)> {
        let first = self.closed.first().or(self.open.as_ref())?;
        Some((first.first_offset, first.first_line - 1))
    }

    /// Highest external action id sealed so far.
    pub fn watermark(&self) -> Option<u32> {
        self.watermark
    }

    /// Sealed actions awaiting a batch cut.
    #[cfg(test)]
    fn pending_actions(&self) -> usize {
        self.closed.len()
    }

    /// Whether an action is currently open.
    #[cfg(test)]
    fn has_open(&self) -> bool {
        self.open.is_some()
    }

    /// Records quarantined over the batcher's lifetime.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total
    }

    /// Reason of the most recent quarantine, if any — unlike the dead
    /// letters it is not consumed by [`drain_dead_letters`](Self::drain_dead_letters).
    pub fn last_quarantine_reason(&self) -> Option<QuarantineReason> {
        self.last_quarantine
    }

    /// Drains the dead-letter sink.
    pub fn drain_dead_letters(&mut self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.dead)
    }
}

impl Default for MicroBatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingAction {
    fn starting(record: &Record) -> Self {
        PendingAction {
            action: record.action,
            records: vec![(record.user, record.time)],
            first_offset: record.offset,
            first_line: record.line,
            last_time: record.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(user: u32, action: u32, time: f64, line: u64) -> Record {
        Record { user, action, time, offset: line * 10, line }
    }

    #[test]
    fn actions_seal_on_boundary_and_batch_by_count() {
        let mut b = MicroBatcher::new();
        b.push(record(0, 5, 1.0, 1));
        b.push(record(1, 5, 2.0, 2));
        assert_eq!(b.pending_actions(), 0);
        assert!(b.has_open());
        assert!(b.take_batch(0, 4).is_none());

        // A record for action 7 seals action 5.
        b.push(record(2, 7, 0.5, 3));
        assert_eq!(b.pending_actions(), 1);
        assert_eq!(b.watermark(), Some(5));
        let config = BatchConfig { max_actions: 1, max_age: Duration::from_secs(3600) };
        assert!(b.due(&config));

        let (delta, meta) = b.take_batch(0, 4).unwrap();
        assert_eq!(meta, BatchMeta { actions: 1, tuples: 2, first_action: 5, last_action: 5 });
        assert_eq!(delta.base_actions(), 0);
        assert_eq!(delta.num_new_actions(), 1);
        assert_eq!(delta.num_users(), 4);
        assert_eq!(delta.additions().users_of(0), &[0, 1]);
        assert_eq!(delta.additions().external_id(0), 5);
        // Action 7 is still open.
        assert!(b.has_open());
        assert!(b.take_batch(1, 4).is_none());
    }

    #[test]
    fn count_threshold_accumulates_batches() {
        let config = BatchConfig { max_actions: 2, max_age: Duration::from_secs(3600) };
        let mut b = MicroBatcher::new();
        b.push(record(0, 1, 0.0, 1));
        b.push(record(0, 2, 0.0, 2));
        assert!(!b.due(&config), "one sealed action is below the threshold");
        b.push(record(0, 3, 0.0, 3));
        assert!(b.due(&config));
        let (delta, meta) = b.take_batch(0, 1).unwrap();
        assert_eq!(meta.actions, 2);
        assert_eq!((meta.first_action, meta.last_action), (1, 2));
        assert_eq!(delta.num_new_actions(), 2);
    }

    #[test]
    fn age_threshold_fires_without_count() {
        let config = BatchConfig { max_actions: 100, max_age: Duration::from_millis(5) };
        let mut b = MicroBatcher::new();
        b.push(record(0, 1, 0.0, 1));
        b.push(record(0, 2, 0.0, 2)); // seals action 1
        let sealed_at = Instant::now();
        assert!(!b.due_at(&config, sealed_at));
        assert!(b.due_at(&config, sealed_at + Duration::from_millis(50)));
    }

    #[test]
    fn stale_and_backwards_records_are_quarantined() {
        let mut b = MicroBatcher::new();
        b.push(record(0, 5, 1.0, 1));
        b.push(record(1, 7, 4.0, 2)); // seals 5
                                      // Stale: action 5 is sealed, action 3 never existed but is below
                                      // the frontier either way.
        b.push(record(2, 5, 9.0, 3));
        b.push(record(2, 3, 9.0, 4));
        // Backwards inside the open action.
        b.push(record(3, 7, 3.5, 5));
        // In-order record still lands.
        b.push(record(4, 7, 4.5, 6));

        let dead = b.drain_dead_letters();
        assert_eq!(dead.len(), 3);
        assert_eq!(b.quarantined_total(), 3);
        assert_eq!(
            b.last_quarantine_reason(),
            Some(QuarantineReason::TimeRegression { last_time: 4.0 }),
            "the last reason survives the drain"
        );
        assert_eq!(dead[0].reason, QuarantineReason::StaleAction { frontier: 7 });
        assert_eq!(dead[1].reason, QuarantineReason::StaleAction { frontier: 7 });
        assert_eq!(dead[2].reason, QuarantineReason::TimeRegression { last_time: 4.0 });
        assert!(dead[2].to_string().contains("line 5"), "{}", dead[2]);

        b.seal_open();
        // Both pending actions ship: 5 (one tuple) and 7 (the two clean
        // tuples — the quarantined ones never entered the batch).
        let (delta, meta) = b.take_batch(1, 8).unwrap();
        assert_eq!(meta, BatchMeta { actions: 2, tuples: 3, first_action: 5, last_action: 7 });
        assert_eq!(delta.additions().users_of(0), &[0]);
        assert_eq!(delta.additions().users_of(1), &[1, 4]);
    }

    #[test]
    fn entirely_quarantined_poll_yields_no_batch() {
        // Resume behind watermark 9: every record below it is stale, the
        // batch is entirely quarantine, and no delta is cut.
        let mut b = MicroBatcher::resume(Some(9));
        for (i, a) in [3u32, 5, 9].iter().enumerate() {
            b.push(record(0, *a, 1.0, i as u64 + 1));
        }
        assert_eq!(b.quarantined_total(), 3);
        assert!(!b.has_open());
        b.seal_open();
        assert!(b.take_batch(4, 4).is_none());
        assert!(!b.due(&BatchConfig::default()));
        assert_eq!(
            b.drain_dead_letters()
                .iter()
                .filter(|d| d.reason == QuarantineReason::StaleAction { frontier: 10 })
                .count(),
            3
        );
        // The next genuinely new action flows normally.
        b.push(record(1, 10, 0.0, 4));
        b.seal_open();
        assert!(b.take_batch(4, 4).is_some());
    }

    #[test]
    fn durable_mark_covers_unshipped_records() {
        let mut b = MicroBatcher::new();
        assert_eq!(b.durable_mark(), None);
        b.push(record(0, 5, 1.0, 3));
        // Open action: the mark re-covers its first record.
        assert_eq!(b.durable_mark(), Some((30, 2)));
        b.push(record(1, 6, 1.0, 4));
        // Sealed-but-unshipped action 5 still pins the mark.
        assert_eq!(b.durable_mark(), Some((30, 2)));
        b.take_batch(0, 4).unwrap();
        // Shipped: now the open action (first record at line 4) pins it.
        assert_eq!(b.durable_mark(), Some((40, 3)));
    }
}
