//! The query engine of Algorithms 4–5: [`OverlaySelector`] computes
//! Theorem-3 gains and commits seeds (Lemmas 2–3) over a shared arena,
//! the commit runs sharded by action, and [`TopKSession`] keeps one CELF
//! run per model.
//!
//! ## Query engine cost
//!
//! A top-k runs CELF on an [`OverlaySelector`], which reads credits from
//! the shared arena until its first [`update`](OverlaySelector::update)
//! commits a seed; only then does it copy `out_credits` (8 bytes per
//! entry) into a private array it can overwrite. A [`TopKSession`] keeps
//! that run, so one model pays for the copy once and answers every budget
//! from one CELF run: a smaller budget is a prefix, a larger one resumes.
//! CELF's first round reads no row per candidate: one sweep over the out
//! rows, with a cursor per user into `ua_data`, adds every user's
//! per-action terms in `compute_mg`'s order, so it is exact in any state.
//! The same sweep records each user-action pair's out row (4 bytes per
//! pair; a gain or commit builds it on first use when no first round
//! ran), so a later gain or commit reads every row of `x` from that index
//! instead of searching the action's row users, and a gain asks the cache
//! for the start of the row two actions ahead of the one it sums. A seed
//! mark per user (1 byte) answers "is `x` committed?" in one load, so
//! opening a session on a model with many committed seeds stays linear.
//!
//! Committing seed `x` (Algorithm 5) costs, per action `a` that `x`
//! performed: `x`'s out row, one SC write per target, and `x`'s column.
//! The column's sources are first resolved to their out rows, one merge
//! of the column with the action's row users that passes over the seeds
//! this session committed: their own retire left every credit of their
//! rows `NaN`, `(v, x)` included. Arena seeds are not passed over, as an
//! arena may still hold a live row for one. Each resolved row then gets a
//! binary search for `x` and one linear walk, while the first 1 KB of the
//! row two places ahead is fetched — Σ over `x`'s actions of its
//! live influencers' row lengths, however many of those entries Lemma 2
//! actually changes. Retiring the column entry and walking the row happen
//! together, while the row is in cache. The walk is branch-free: a
//! user-indexed table (16 bytes per user) holds `(Γ_{x,u}, 1e-15)` for
//! `x`'s targets and the neutral `(0, −∞)` for everyone else, so every
//! entry takes the same subtract-and-clamp and an unmarked one comes back
//! unchanged. The table is set from `x`'s row before the walks and reset
//! after them.
//!
//! A commit runs on every core the session may use ([`Parallelism::auto`],
//! resolved once per session): `x`'s ascending actions are cut into
//! contiguous shards by entry count, shard 0 runs on the calling thread
//! and each other shard on a pool worker, joined before the commit
//! returns. The caller's shard is half again a worker's, so the caller
//! usually finishes last and does not sleep in the join. This is exact
//! because Algorithm 5 never crosses an action boundary. Every value a
//! commit writes in action `a` depends only on action-`a` state: `a`'s
//! out entries, one run of the credit array (the runs ascend by action,
//! so each shard takes a disjoint slice), and the SC slots `(u, a)`. Each
//! slot is written at most once per commit and read by no other action,
//! so the shards queue their SC writes and the caller applies them after
//! the join. No summation changes order, and the result is bit for bit
//! the one-thread result.
//! A commit over fewer than 2^19 entries stays on the calling thread,
//! where it takes about as long as starting a worker.
//!
//! The overlay keeps `Γ_{S,u}(a)` (SC) as a dense array aligned with
//! `ua_data`, one `f64` per user-action pair, `NaN` where Lemma 3 has
//! written nothing. A gain reads `x`'s slice of it in step with `x`'s
//! actions. A Lemma-3 write finds `(a, u)` with a cursor into `u`'s
//! actions (8 bytes per user and shard) that only moves forward within
//! one commit, as `x`'s actions ascend, and starts over with the next.
//! Each shard has its own table, cursors and lists of the seed's targets,
//! sources and SC writes, sized by the calling thread to their bounds
//! and reused across actions and seeds, so no shard allocates.

use super::rows::{arena, ActionRows};
use super::{pair_key, CompactData, CompactSelector};
use crate::celf::{CelfSession, MgMode};
use cdim_maxim::Selection;
use cdim_util::mem::prefetch;
use cdim_util::pool::parallel_for_each_mut;
use cdim_util::{HeapSize, Parallelism};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::Arc;

/// A per-query view over a [`CompactSelector`]: the immutable CSR arrays
/// plus a mutable credit overlay (`NaN` marks entries retired or zeroed
/// by Lemma 2), a dense SC array, and the growing seed list. The one
/// engine for Theorem-3 gains and Algorithm-5 commits; every f64
/// accumulation order follows the arena's sorted rows, so its answers are
/// bit-identical to the hash-map oracle [`crate::reference::CdSelector`]
/// restored from the same state.
#[derive(Clone, Debug)]
pub struct OverlaySelector {
    data: Arc<CompactData>,
    /// Owned copy of `out_credits`, made by the first [`Self::update`];
    /// until then every read goes to the shared arena. `NaN` = entry
    /// removed. Live stored credits are finite by validation, so the
    /// sentinel is unambiguous.
    credits: Option<Vec<f64>>,
    /// `Γ_{S,u}(a)` per user-action pair, aligned with `ua_data`; `NaN` =
    /// no entry (read as 0). Seeded from the arena's SC keys, so
    /// [`Self::freeze`] lays out exactly the keys Lemma 3 created, stored
    /// `0.0` values included.
    sc: Vec<f64>,
    seeds: Vec<u32>,
    /// Per user: 0, [`SEED`] or [`RETIRED`], so membership in `seeds` is
    /// one load.
    marks: Vec<u8>,
    /// Filled by CELF's first round ([`Self::gains`]) or on first use;
    /// the commit-free queries never open an overlay, so never build it.
    rows: OnceCell<RowIndex>,
    scratch: UpdateScratch,
}

/// [`OverlaySelector::marks`] of a committed seed whose out rows may still
/// hold live credits: an arena seed (validation admits one with a row).
const SEED: u8 = 1;

/// [`OverlaySelector::marks`] of a seed this session committed, whose own
/// retire left every credit of its out rows `NaN`, so a commit can pass
/// over it as a source: `cvx` would be `NaN` and nothing would change.
const RETIRED: u8 = 2;

/// [`RowIndex::rows`] of a user-action pair without an out row.
const NO_ROW: u32 = u32::MAX;

/// The session's `ua → out row` index: per user-action pair, aligned
/// with `ua_data`, the user's out row in that action or [`NO_ROW`]. A gain
/// and a retire read it instead of searching the action's row users.
#[derive(Clone, Debug)]
struct RowIndex {
    rows: Vec<u32>,
    /// Whether every out row's user performed its action, as in every
    /// scanned arena. Only then does a commit retire all of the seed's
    /// rows, and mark it [`RETIRED`].
    every_row_performed: bool,
}

impl RowIndex {
    /// The out row of the pair at `ua_data[at]`, if it has one.
    #[inline]
    fn row(&self, at: usize) -> Option<usize> {
        Some(self.rows[at]).filter(|&r| r != NO_ROW).map(|r| r as usize)
    }
}

/// Rows a Lemma-2 walk or a gain asks the cache for ahead of the one it
/// reads.
const PREFETCH_ROWS: usize = 2;

/// Entries of a row asked for ahead: the first 1 KB of its credits. The
/// hardware's stream prefetcher takes over on a longer row.
const PREFETCH_ENTRIES: usize = 128;

/// A user's entry in [`ShardScratch::table`] while it is not a target of
/// the seed: `c − cvx·0.0` is `c` and no value is `≤ −∞`, so the walk
/// writes the entry back unchanged.
const NEUTRAL: (f64, f64) = (0.0, f64::NEG_INFINITY);

/// Entries in a seed's actions (summed over the actions, every row) below
/// which [`OverlaySelector::update`] commits on the calling thread. On a
/// 2-vCPU guest, where starting and joining a worker costs about 0.1 ms,
/// two shards lost to one thread on commits over 0.43 M and 0.45 M entries
/// (0.3–0.5 ms) and won from 0.67 M entries (0.7 ms) up.
const COMMIT_SHARD_MIN_ENTRIES: usize = 1 << 19;

/// The calling thread's shard of a commit, in percent of a worker's. A
/// larger share makes the caller finish after its workers have exited, so
/// it does not sleep in the join and wait to be woken on another core. On
/// a 2-vCPU guest, perfbench `serve` with the caller's shard at 60 % of
/// the entries instead of 50 % cut `work_s` by 11 % and `latency_ms` by
/// 7.5 % (7 of 8 alternating pairs), and left `train` as it was.
const CALLER_SHARE_PERCENT: usize = 150;

/// Buffers of the Algorithm-5 kernel, kept across actions and seeds so an
/// update allocates nothing per action, and no shard allocates at all.
#[derive(Clone, Debug, Default)]
struct UpdateScratch {
    /// One per commit shard, sized on the calling thread before any shard
    /// runs.
    shards: Vec<ShardScratch>,
    /// The current commit's shard boundaries: positions in `ua_data`.
    cuts: Vec<usize>,
    /// Per action, and one past the last, the position of its first out
    /// entry, so a commit weighs and splits the seed's actions without
    /// reading the row offsets. Built by the first update.
    action_starts: Vec<u32>,
    /// [`CompactData::shard_caps`], from the first update.
    caps: (usize, usize, usize),
    /// Updates so far: the current one's stamp in the Lemma-3 cursors.
    epoch: u32,
    /// Threads a commit may use: [`Parallelism::auto`], resolved by the
    /// session's first update (0 until then).
    threads: usize,
}

/// One commit shard's buffers: what [`apply_seed_to_action`] writes
/// besides the shard's own credits.
#[derive(Clone, Debug)]
struct ShardScratch {
    /// Per user: `(Γ_{x,u}, 1e-15)` while `u` is a target of the seed `x`
    /// in the action being updated, [`NEUTRAL`] otherwise. Marking comes
    /// from `x`'s row, never from a credit value, so a stored `0.0` credit
    /// is still marked. 16 bytes per user.
    table: Vec<(f64, f64)>,
    /// The seed's live targets in the action, whose table entries are
    /// reset after it.
    gout: Vec<u32>,
    /// The Lemma-2 sources' out rows in one action, resolved before any
    /// is walked so each can be fetched [`PREFETCH_ROWS`] ahead.
    sources: Vec<u32>,
    /// Per user: the update that last moved its Lemma-3 cursor, and the
    /// cursor, its next position in `ua_data`. A seed's actions ascend,
    /// so within one update a cursor only moves forward; one from an
    /// earlier update starts over. 8 bytes per user.
    cursors: Vec<(u32, u32)>,
    /// Lemma 3's writes, `(entry, slot)`: the value for SC slot `slot` (a
    /// position in `ua_data`) waits in the seed's retired out entry
    /// `entry`, which the caller sets to `NaN` when it applies the write,
    /// once every shard is done. 8 bytes per write.
    sc_slots: Vec<(u32, u32)>,
}

/// One shard of a commit: the seed's actions at `ua_data[actions]`, the
/// credits of those actions (`credits[0]` is entry `base`), and the
/// shard's scratch.
struct CommitShard<'a> {
    actions: Range<usize>,
    base: usize,
    credits: &'a mut [f64],
    scratch: &'a mut ShardScratch,
}

/// `Γ_{S,u}(a)` from a dense SC slot (`NaN` = no entry = 0).
#[inline]
fn sc_or_zero(c: f64) -> f64 {
    if c.is_nan() {
        0.0
    } else {
        c
    }
}

impl CompactData {
    /// Theorem 3's term of one action `a` in the gain of `x`:
    /// `(1/A_x + Σ_u Γ_{x,u}(a)·1/A_u) · factor`, where `factor` is
    /// `1 − Γ_{S,x}(a)` clamped at 0 and `credits`/`targets` are `x`'s out
    /// row in `a` (empty when `x` has none; `NaN` entries are retired).
    /// Under [`MgMode::Pseudocode`] the credits come first and the self
    /// term is added only when the row holds a live credit. Every gain —
    /// [`OverlaySelector::mg`], CELF's first round and the commit-free
    /// queries — adds these terms per action in ascending order.
    #[inline]
    pub(super) fn action_gain(
        &self,
        mode: MgMode,
        inv_ax: f64,
        factor: f64,
        credits: &[f64],
        targets: &[u32],
    ) -> f64 {
        if factor == 0.0 {
            return 0.0;
        }
        let inv_au = self.inv_au();
        let mut sum = match mode {
            MgMode::Theorem3 => inv_ax,
            MgMode::Pseudocode => 0.0,
        };
        let mut any = false;
        for (&c, &u) in credits.iter().zip(targets) {
            if !c.is_nan() {
                any = true;
                sum += c * inv_au[u as usize];
            }
        }
        match mode {
            MgMode::Theorem3 => sum * factor,
            MgMode::Pseudocode if any => (sum + inv_ax) * factor,
            MgMode::Pseudocode => 0.0,
        }
    }

    /// Asks the cache for the first [`PREFETCH_ENTRIES`] credits and
    /// targets of out row `row` (nothing for [`NO_ROW`]), ahead of a walk
    /// over it; `credits[0]` holds entry `base`.
    #[inline]
    fn prefetch_row(&self, credits: &[f64], base: usize, row: u32) {
        let offsets = self.out_row_offsets();
        if let Some(&start) = offsets.get(row as usize) {
            let start = start as usize;
            let end = (offsets[row as usize + 1] as usize).min(start + PREFETCH_ENTRIES);
            // One hint per 64-byte line: 8 credits, 16 targets.
            for at in (start..end).step_by(8) {
                prefetch(credits, at - base);
            }
            for at in (start..end).step_by(16) {
                prefetch(self.out_targets(), at);
            }
        }
    }

    /// Bounds on what one commit shard queues: `x`'s live entries in one
    /// action (the longest out row), the sources of one action (its out
    /// rows) and `x`'s live entries in all its actions (the most out
    /// entries of one user).
    fn shard_caps(&self) -> (usize, usize, usize) {
        let offsets = self.out_row_offsets();
        let mut per_user = vec![0usize; self.counts.num_users];
        let mut longest = 0;
        for (row, &v) in self.out_row_user().iter().enumerate() {
            let len = (offsets[row + 1] - offsets[row]) as usize;
            longest = longest.max(len);
            per_user[v as usize] += len;
        }
        let act_rows = self.out_act_rows();
        let widest = act_rows.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        (longest, widest, per_user.into_iter().max().unwrap_or(0))
    }

    /// One sweep over the out rows in arena order, with a cursor per user
    /// into its `ua_data` run: calls `visit(x, at, row)` for every
    /// user-action pair, `at` being its position in `ua_data` and `row`
    /// `x`'s out row in that action, if any, each user's pairs in
    /// ascending order. A row of an action its user did not perform is
    /// passed over, as a lookup by pair never reaches it. Returns the
    /// [`RowIndex`] the sweep found.
    fn sweep_rows(&self, mut visit: impl FnMut(usize, usize, Option<usize>)) -> RowIndex {
        let (ua_offsets, ua_data, row_user) =
            (self.ua_offsets(), self.ua_data(), self.out_row_user());
        let mut rows = vec![NO_ROW; self.counts.ua_len];
        let mut every_row_performed = true;
        // Per user, the position in `ua_data` of its next pair to visit.
        let mut next: Vec<u32> = ua_offsets[..self.counts.num_users].to_vec();
        for a in 0..self.counts.num_actions as u32 {
            for row in self.out_act_range(a) {
                let x = row_user[row] as usize;
                let (mut at, end) = (next[x] as usize, ua_offsets[x + 1] as usize);
                while at < end && ua_data[at] < a {
                    visit(x, at, None);
                    at += 1;
                }
                if at < end && ua_data[at] == a {
                    rows[at] = row as u32;
                    visit(x, at, Some(row));
                    at += 1;
                } else {
                    every_row_performed = false;
                }
                next[x] = at as u32;
            }
        }
        for (x, &at) in next.iter().enumerate() {
            for at in at as usize..ua_offsets[x + 1] as usize {
                visit(x, at, None);
            }
        }
        RowIndex { rows, every_row_performed }
    }
}

impl CompactSelector {
    /// Starts a resumable CELF top-k over this model (Theorem-3 gains).
    pub fn top_k_session(&self) -> TopKSession {
        TopKSession { celf: CelfSession::new(self.overlay(), MgMode::Theorem3) }
    }

    /// Starts a query session: an [`OverlaySelector`] that can compute
    /// marginal gains, commit seeds, and run CELF without mutating the
    /// shared arena. Cheap until the first committed seed, which copies
    /// the credit array.
    pub fn overlay(&self) -> OverlaySelector {
        let data = &self.data;
        let mut sc = vec![f64::NAN; data.counts.ua_len];
        for (&key, &c) in data.sc_keys().iter().zip(data.sc_vals()) {
            // Validation guarantees the user performed the action.
            if let Some(i) = data.ua_index(key as u32, (key >> 32) as u32) {
                sc[i] = c;
            }
        }
        let mut marks = vec![0u8; data.counts.num_users];
        for &s in data.seeds() {
            marks[s as usize] = SEED;
        }
        OverlaySelector {
            data: Arc::clone(data),
            credits: None,
            sc,
            seeds: data.seeds().to_vec(),
            marks,
            rows: OnceCell::new(),
            scratch: UpdateScratch::default(),
        }
    }
}

impl OverlaySelector {
    /// Seeds committed so far (snapshot seeds plus this session's).
    pub fn seeds(&self) -> &[u32] {
        &self.seeds
    }

    /// Whether `x` is among [`Self::seeds`].
    #[inline]
    pub(crate) fn is_committed(&self, x: u32) -> bool {
        self.marks[x as usize] != 0
    }

    /// Lays the session's state out as an arena: the live credits in the
    /// arena's row order, the SC entries sorted by `(action, user)`, and
    /// the seeds in commit order — the arena a dump of the same state
    /// builds, byte for byte. Before the first commit that is the arena
    /// the session reads, which is shared, not copied.
    pub fn freeze(&self) -> CompactSelector {
        let data = &self.data;
        let Some(credits) = &self.credits else {
            return CompactSelector { data: Arc::clone(data) };
        };
        let (row_user, targets) = (data.out_row_user(), data.out_targets());
        let mut rows = ActionRows::default();
        let (mut entries, mut by_target) = (Vec::new(), Vec::new());
        for a in 0..data.counts.num_actions as u32 {
            entries.clear();
            for row in data.out_act_range(a) {
                for pos in data.out_row_entries(row) {
                    if !credits[pos].is_nan() {
                        entries.push((row_user[row], targets[pos], credits[pos]));
                    }
                }
            }
            rows.push_sorted(&entries, &mut by_target);
        }
        let mut sc = Vec::new();
        for u in 0..data.counts.num_users as u32 {
            let range = data.ua_range(u);
            for (&a, &c) in data.ua_data()[range.clone()].iter().zip(&self.sc[range]) {
                if !c.is_nan() {
                    sc.push((a, u, c));
                }
            }
        }
        sc.sort_unstable_by_key(|&(a, u, _)| pair_key(a, u));
        let (ua_offsets, ua_data, inv_au) = (data.ua_offsets(), data.ua_data(), data.inv_au());
        // Every count is at most the session's arena's, which fits.
        let frozen = arena(data.lambda, ua_offsets, ua_data, inv_au, vec![rows], &sc, &self.seeds)
            .expect("a session's state fits its arena's offsets");
        CompactSelector { data: Arc::new(frozen) }
    }

    /// The live credit values: the overlay's own copy once a seed has
    /// been committed in this session, the arena's otherwise.
    #[inline]
    fn credits(&self) -> &[f64] {
        match &self.credits {
            Some(owned) => owned,
            None => self.data.out_credits(),
        }
    }

    /// Theorem-3 marginal gain of adding `x` to the current seed set. A
    /// committed seed gains nothing.
    pub fn compute_mg(&self, x: u32) -> f64 {
        self.mg(x, MgMode::Theorem3)
    }

    /// Algorithm 5: commits `x` and applies the Lemma 2/3 updates to the
    /// overlay, then retires `x`'s credit row and column (`x ∉ V − S` any
    /// more). Committing a seed twice is a no-op. A large commit runs on up
    /// to [`Parallelism::auto`] threads (resolved by the session's first
    /// update), with the same result bit for bit on any number.
    pub fn update(&mut self, x: u32) {
        if self.scratch.threads == 0 {
            self.scratch.threads = Parallelism::auto().effective();
        }
        self.commit(x, self.scratch.threads, COMMIT_SHARD_MIN_ENTRIES);
    }

    /// [`Self::update`] on up to `threads` shards of `x`'s actions, or on
    /// the calling thread alone when `x`'s actions hold fewer than
    /// `min_entries` entries.
    ///
    /// Credits never cross an action boundary, and every state a commit
    /// of `x` reads or writes in action `a` belongs to `a`: the out
    /// entries of `a`, which lie in one run of the credit array, and the
    /// SC slots `(u, a)`. So contiguous runs of `x`'s ascending actions,
    /// cut by entry count, each take a disjoint slice of the credits
    /// and run [`apply_seed_to_action`] with scratch of their own, shard 0
    /// on the calling thread. The SC writes wait in each shard's list
    /// until every shard is done: a slot `(u, a)` is written at most once
    /// per commit, from its old value, and read by no other action. No
    /// summation changes order, so every value is the serial kernel's.
    pub(crate) fn commit(&mut self, x: u32, threads: usize, min_entries: usize) {
        if self.is_committed(x) {
            return;
        }
        let OverlaySelector { data, credits, sc, seeds, marks, rows, scratch } = self;
        let data: &CompactData = data;
        let credits = credits.get_or_insert_with(|| data.out_credits().to_vec());
        let index = rows.get_or_init(|| data.sweep_rows(|_, _, _| {}));
        if scratch.action_starts.is_empty() {
            let (offsets, act_rows) = (data.out_row_offsets(), data.out_act_rows());
            scratch.action_starts = act_rows.iter().map(|&r| offsets[r as usize]).collect();
            scratch.caps = data.shard_caps();
        }
        let (ua_data, starts) = (data.ua_data(), scratch.action_starts.as_slice());
        let span = |xa: usize| {
            let a = ua_data[xa] as usize;
            starts[a] as usize..starts[a + 1] as usize
        };

        // Cut x's actions where the running entry count reaches each
        // shard's share, the caller's CALLER_SHARE_PERCENT of a worker's.
        let actions = data.ua_range(x);
        let cuts = &mut scratch.cuts;
        cuts.clear();
        cuts.push(actions.start);
        if threads > 1 && actions.len() > 1 {
            let total: usize = actions.clone().map(|xa| span(xa).len()).sum();
            let shards = if total < min_entries { 1 } else { threads.min(actions.len()) };
            let share = |cut: usize| CALLER_SHARE_PERCENT + 100 * (cut - 1);
            let mut seen = 0;
            for xa in actions.clone() {
                let next = cuts.len();
                if next < shards
                    && seen * share(shards) >= total * share(next)
                    && xa > actions.start
                {
                    cuts.push(xa);
                }
                seen += span(xa).len();
            }
        }
        cuts.push(actions.end);
        let shards = cuts.len() - 1;
        let (users, (gout, sources, slots)) = (data.counts.num_users, scratch.caps);
        // Sized here, and to their bounds, so no shard ever allocates.
        scratch.shards.resize_with(shards.max(scratch.shards.len()), || ShardScratch {
            table: vec![NEUTRAL; users],
            gout: Vec::with_capacity(gout),
            sources: Vec::with_capacity(sources),
            cursors: vec![(0, 0); users],
            sc_slots: Vec::with_capacity(slots),
        });

        scratch.epoch += 1;
        let epoch = scratch.epoch;
        let mut jobs = Vec::with_capacity(shards);
        let (mut rest, mut base) = (credits.as_mut_slice(), 0);
        for (shard, run) in scratch.shards.iter_mut().zip(cuts.windows(2)) {
            // This shard's credits end where the next shard's first action
            // starts; the last shard's at the end of the array.
            let end = if jobs.len() + 1 < shards { span(run[1]).start } else { base + rest.len() };
            let (own, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
            jobs.push(CommitShard { actions: run[0]..run[1], base, credits: own, scratch: shard });
            (rest, base) = (tail, end);
        }
        let (sc_now, marks_now): (&[f64], &[u8]) = (sc, marks);
        parallel_for_each_mut(&mut jobs, |job| {
            for xa in job.actions.clone() {
                apply_seed_to_action(data, marks_now, sc_now, job, x, xa, index.row(xa), epoch);
            }
        });
        drop(jobs);
        for shard in &mut scratch.shards[..shards] {
            for &(pos, at) in &shard.sc_slots {
                sc[at as usize] = std::mem::replace(&mut credits[pos as usize], f64::NAN);
            }
            shard.sc_slots.clear();
        }
        // On an arena with a row of an action its user did not perform,
        // that row outlives the retire.
        marks[x as usize] = if index.every_row_performed { RETIRED } else { SEED };
        seeds.push(x);
    }

    /// Users in the id space (the CELF candidate range).
    pub(crate) fn num_users(&self) -> usize {
        self.data.counts.num_users
    }

    /// `1 / A_x` (0 for users that never acted, who are not candidates).
    pub(crate) fn inv_au_of(&self, x: u32) -> f64 {
        self.data.inv_au_of(x)
    }

    /// The marginal gain of `x` under `mode`: [`CompactData::action_gain`]
    /// summed over `x`'s actions, ascending.
    pub(crate) fn mg(&self, x: u32, mode: MgMode) -> f64 {
        let data = &self.data;
        let inv_ax = data.inv_au_of(x);
        if inv_ax == 0.0 || self.is_committed(x) {
            return 0.0;
        }
        let (targets, credits, index) = (data.out_targets(), self.credits(), self.row_index());
        let range = data.ua_range(x);
        let ahead = &index.rows[range.clone()];
        let mut mg = 0.0;
        for (i, at) in range.enumerate() {
            if let Some(&next) = ahead.get(i + PREFETCH_ROWS) {
                data.prefetch_row(credits, 0, next);
            }
            let row = index.row(at).map_or(0..0, |r| data.out_row_entries(r));
            let factor = (1.0 - sc_or_zero(self.sc[at])).max(0.0);
            mg += data.action_gain(mode, inv_ax, factor, &credits[row.clone()], &targets[row]);
        }
        mg
    }

    /// The session's [`RowIndex`], built by one sweep on first use.
    fn row_index(&self) -> &RowIndex {
        self.rows.get_or_init(|| self.data.sweep_rows(|_, _, _| {}))
    }

    /// [`Self::mg`] of every user at once, bit for bit, in one sweep over
    /// the out rows in arena order (CELF's first round): the sweep hands
    /// each user its actions in ascending order, with the row, if any, so
    /// every term is added at its place in `mg`'s order. The sweep also
    /// builds the session's [`RowIndex`]. Seeds and users who never acted
    /// gain 0.
    pub(crate) fn gains(&self, mode: MgMode) -> Vec<f64> {
        let data = &self.data;
        let (inv_au, targets, credits) = (data.inv_au(), data.out_targets(), self.credits());
        let mut gains = vec![0.0f64; data.counts.num_users];
        let index = data.sweep_rows(|x, at, row| {
            let row = row.map_or(0..0, |r| data.out_row_entries(r));
            let factor = (1.0 - sc_or_zero(self.sc[at])).max(0.0);
            gains[x] +=
                data.action_gain(mode, inv_au[x], factor, &credits[row.clone()], &targets[row]);
        });
        for &s in &self.seeds {
            gains[s as usize] = 0.0;
        }
        // Already set only when an earlier use built the same index.
        let _ = self.rows.set(index);
        gains
    }

    /// Runs CELF until `k` seeds are chosen (continuing from any seeds
    /// already committed), consuming the overlay.
    pub fn select(self, k: usize) -> Selection {
        self.select_with_mode(k, MgMode::Theorem3)
    }

    /// Like [`Self::select`] with an explicit marginal-gain mode.
    pub fn select_with_mode(self, k: usize, mode: MgMode) -> Selection {
        CelfSession::new(self, mode).select(k)
    }
}

impl HeapSize for ShardScratch {
    fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
            + self.gout.heap_bytes()
            + self.sources.heap_bytes()
            + self.cursors.heap_bytes()
            + self.sc_slots.heap_bytes()
    }
}

impl HeapSize for OverlaySelector {
    /// The session's own state — the credit copy once a seed is
    /// committed, the SC array, seeds and their marks, the row index and
    /// the kernel buffers — not the shared arena.
    fn heap_bytes(&self) -> usize {
        self.credits.as_ref().map_or(0, HeapSize::heap_bytes)
            + self.sc.heap_bytes()
            + self.seeds.heap_bytes()
            + self.marks.heap_bytes()
            + self.rows.get().map_or(0, |index| index.rows.heap_bytes())
            + self.scratch.cuts.heap_bytes()
            + self.scratch.action_starts.heap_bytes()
            + self.scratch.shards.iter().map(ShardScratch::heap_bytes).sum::<usize>()
            + self.scratch.shards.capacity() * std::mem::size_of::<ShardScratch>()
    }
}

/// A resumable CELF top-k over one compact model: [`top_k`](Self::top_k)
/// answers every budget from one run, returning a prefix when the run
/// already holds enough seeds and resuming it otherwise. Each answer —
/// seeds, gain bits, evaluation count — equals a fresh
/// [`OverlaySelector::select`] to the same budget.
#[derive(Clone, Debug)]
pub struct TopKSession {
    celf: CelfSession,
}

impl TopKSession {
    /// The CELF selection of `k` seeds (continuing from the model's
    /// committed seeds).
    pub fn top_k(&mut self, k: usize) -> Selection {
        self.celf.select(k)
    }

    /// Heap bytes the session holds beyond the shared arena: the credit
    /// copy its commits write to, the SC array, the row index, the kernel
    /// buffers, the CELF heap.
    pub fn memory_bytes(&self) -> usize {
        self.celf.heap_bytes()
    }
}

/// One action's worth of [`OverlaySelector::update`], run by the commit
/// shard that owns the action: retires `x`'s column in the action `a` at
/// `ua_data[xa]` and applies the Lemma 2/3 credit algebra to the shard's
/// credits (every entry of `a` lies in them). `row` is `x`'s out row in
/// `a`, and the shard's table is sized and neutral on entry; it is
/// neutral again on return. Nothing here reads or writes another action's
/// state, which is why shards can run at once.
///
/// Lemma 3 reads each target's old SC value from `sc`, which no shard
/// writes during a commit, and finds the slot with the target's cursor in
/// the shard's `cursors`, which this update only moves forward, as `x`'s
/// actions ascend. It queues the slot in `sc_slots` and leaves the new
/// value in `x`'s entry for the target, where the caller picks it up and
/// retires the entry after every shard is done; an entry with no slot is
/// retired here. Each slot `(u, a)` is written at most once per commit,
/// so the deferred write changes no value.
///
/// Lemma 2 subtracts `Γ_{v,x}·Γ_{x,u}` from every stored `(v, u)` with
/// `v` in `x`'s column and `u` in `x`'s row. Instead of looking each pair
/// up, the kernel puts `x`'s targets in the table and walks each source's
/// out row once, right after retiring the source's `(v, x)` entry from
/// it, with the same subtract-and-clamp for every entry. For a target the
/// table holds `(Γ_{x,u}, 1e-15)`, which is the update of the oracle's
/// `ActionCredits::subtract` ([`crate::reference`]). For anyone else it
/// holds [`NEUTRAL`]: `cvx·0.0` is `+0.0` because `cvx` is finite with its
/// sign bit clear (validation), `c − 0.0` is `c` for every finite `c` and
/// for `NaN`, and nothing is `≤ −∞`, so the entry is written back bit for
/// bit.
///
/// The sources' rows are resolved first, one merge of the column with the
/// action's row users, passing over [`RETIRED`] seeds (their `(v, x)` is
/// already `NaN`); the walk then fetches the start of the row
/// [`PREFETCH_ROWS`] ahead of the one it updates. The order of sources
/// changes no value: a walk writes only `(v, u)` with `u` a target of
/// `x`, `x` is not its own target, so no walk writes a `(v', x)` entry a
/// later source reads; and every amount comes from the table, filled
/// before any walk.
#[allow(clippy::too_many_arguments)]
fn apply_seed_to_action(
    data: &CompactData,
    marks: &[u8],
    sc: &[f64],
    shard: &mut CommitShard<'_>,
    x: u32,
    xa: usize,
    row: Option<usize>,
    epoch: u32,
) {
    let (ua_offsets, ua_data) = (data.ua_offsets(), data.ua_data());
    let a = ua_data[xa];
    let one_minus = (1.0 - sc_or_zero(sc[xa])).max(0.0);
    let targets = data.out_targets();
    let CommitShard { base, credits, scratch, .. } = shard;
    let (base, credits) = (*base, &mut **credits);
    let ShardScratch { table, gout, sources, cursors, sc_slots } = &mut **scratch;
    gout.clear();

    // Lemma 3 on x's out row: Γ_{S+x,u} = Γ_{S,u} + Γ^{V−S}_{x,u}·(1 − Γ_{S,x}).
    // Each live entry marks its target in the table, then holds the SC
    // value it writes until the caller retires it. Row runs are sorted,
    // matching the oracle's adjacency order for a canonically built
    // working copy exactly.
    for pos in row.map_or(0..0, |r| data.out_row_entries(r)) {
        let cxu = credits[pos - base];
        if cxu.is_nan() {
            continue;
        }
        let u = targets[pos];
        table[u as usize] = (cxu, 1e-15);
        gout.push(u);
        let (stamp, next) = &mut cursors[u as usize];
        let actions = ua_offsets[u as usize] as usize..ua_offsets[u as usize + 1] as usize;
        if *stamp != epoch {
            *stamp = epoch;
            *next = (actions.start + ua_data[actions.clone()].partition_point(|&b| b < a)) as u32;
        }
        let (mut at, end) = (*next as usize, actions.end);
        while at < end && ua_data[at] < a {
            at += 1;
        }
        // A scan only credits users who performed the action. Validation
        // does not check every target (it would cost a search per inc
        // row on each load), so an arena that breaks this drops the
        // write rather than failing.
        credits[pos - base] = if at < end && ua_data[at] == a {
            sc_slots.push((pos as u32, at as u32));
            let value = (sc_or_zero(sc[at]) + cxu * one_minus).min(1.0);
            at += 1;
            value
        } else {
            f64::NAN
        };
        *next = at as u32;
    }

    // Retire x's column, and Lemma 2 on each source's row:
    // Γ^{W−x}_{v,u} = Γ^W_{v,u} − Γ^W_{v,x}·Γ^W_{x,u}, with the
    // clamp-and-remove semantics of the oracle's subtract (entries at
    // ≤ 1e-15 become `NaN`, and a removed entry stays `NaN`).
    if let Some(column) = data.inc_row_of(a, x) {
        let rows = data.out_act_range(a);
        let row_user = &data.out_row_user()[rows.clone()];
        sources.clear();
        let mut at = 0;
        // Sources ascend, and so do the action's out rows.
        for &v in &data.inc_sources()[data.inc_row_entries(column)] {
            if marks[v as usize] == RETIRED {
                continue;
            }
            at += row_user[at..].partition_point(|&w| w < v);
            // The mirror check catches any one missing match; an inc
            // entry whose forgery cancels in its sums is skipped.
            if row_user.get(at) == Some(&v) {
                sources.push((rows.start + at) as u32);
            }
        }
        let table = table.as_slice();
        for (i, &row) in sources.iter().enumerate() {
            if let Some(&ahead) = sources.get(i + PREFETCH_ROWS) {
                data.prefetch_row(credits, base, ahead);
            }
            let entries = data.out_row_entries(row as usize);
            let (row_c, row_t) =
                (&mut credits[entries.start - base..entries.end - base], &targets[entries]);
            let Ok(k) = row_t.binary_search(&x) else { continue };
            let cvx = row_c[k];
            if cvx.is_nan() {
                continue;
            }
            row_c[k] = f64::NAN;
            if gout.is_empty() {
                continue; // every entry is neutral
            }
            for (c, &u) in row_c.iter_mut().zip(row_t) {
                let (cxu, floor) = table[u as usize];
                let left = *c - cvx * cxu;
                *c = if left <= floor { f64::NAN } else { left };
            }
        }
    }
    for &u in gout.iter() {
        table[u as usize] = NEUTRAL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, dump_bits, CdSelector, CreditStoreDump, SelectorDump};
    use crate::testing::{
        assert_commits_match_oracle, assert_sharded_commits_match_serial, committed, oracle_mg,
        trained_dump,
    };
    use cdim_util::AlignedBuf;

    /// Holds a CELF run from `dump` to the oracle: each committed gain is
    /// the oracle's gain of the seed just before its commit, and the seeds
    /// then replay on the oracle ([`assert_commits_match_oracle`]).
    fn assert_selection_matches_oracle(dump: &SelectorDump, sel: &Selection, mode: MgMode) {
        let base = dump.seeds.len();
        assert_eq!(&sel.seeds[..base], &dump.seeds[..]);
        let fresh = &sel.seeds[base..];
        assert_eq!(sel.marginal_gains.len(), fresh.len());
        let mut oracle = CdSelector::from_dump(dump);
        for (&s, &gain) in fresh.iter().zip(&sel.marginal_gains) {
            let want = oracle_mg(&oracle, s, mode);
            assert_eq!(gain.to_bits(), want.to_bits(), "gain of seed {s} ({mode:?})");
            oracle.update(s);
        }
        assert_commits_match_oracle(dump, fresh, OverlaySelector::update);
    }

    #[test]
    fn overlay_gains_match_the_oracle_after_updates() {
        for (seed, committed) in [(21u64, 1usize), (33, 0)] {
            let dump = trained_dump(seed, committed);
            let sel = reference::arena_of(&dump).overlay().select(committed + 3);
            assert_selection_matches_oracle(&dump, &sel, MgMode::Theorem3);
        }
    }

    #[test]
    fn overlay_celf_selection_replays_on_the_oracle() {
        for seed in [5u64, 6, 7] {
            for mode in [MgMode::Theorem3, MgMode::Pseudocode] {
                let dump = trained_dump(seed, 0);
                let got = reference::arena_of(&dump).overlay().select_with_mode(5, mode);
                assert_eq!(got.seeds.len(), 5, "seed {seed}, {mode:?}");
                assert_selection_matches_oracle(&dump, &got, mode);
            }
        }
    }

    #[test]
    fn overlay_selection_continues_from_committed_seeds() {
        let dump = trained_dump(44, 2);
        let got = reference::arena_of(&dump).overlay().select(4);
        assert_eq!(got.seeds.len(), 4);
        assert_eq!(&got.seeds[..2], &dump.seeds[..]);
        assert_eq!(got.marginal_gains.len(), 2);
        assert_selection_matches_oracle(&dump, &got, MgMode::Theorem3);
    }

    #[test]
    fn zero_credit_targets_are_still_marked() {
        // Seed 1 passes 0.0 to user 2, and 0 holds 0.0 over 2: Lemma 2
        // subtracts 0.5·0.0 and the clamp must still remove (0, 2). A
        // marker that read credit values (0.0 = unmarked) would skip it.
        let dump = SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![0]; 4],
                inv_au: vec![1.0; 4],
                credits: vec![vec![
                    (0, 1, 0.5),
                    (0, 2, 0.0),
                    (0, 3, 0.5),
                    (1, 2, 0.0),
                    (1, 3, 0.5),
                ]],
            },
            sc: Vec::new(),
            seeds: Vec::new(),
        };
        assert_commits_match_oracle(&dump, &[1], OverlaySelector::update);
        let mut overlay = reference::arena_of(&dump).overlay();
        overlay.update(1);
        assert_eq!(reference::dump_of(&overlay.freeze()).store.credits[0], vec![(0, 3, 0.25)]);
    }

    #[test]
    fn overlay_copies_credits_only_on_first_update() {
        let dump = trained_dump(12, 0);
        let compact = reference::arena_of(&dump);
        let mut overlay = compact.overlay();
        let x = overlay.clone().select(1).seeds[0];
        overlay.compute_mg(x);
        assert!(overlay.credits.is_none(), "a read materialised the copy");
        // Freezing an uncommitted session shares the arena it reads.
        assert!(Arc::ptr_eq(&overlay.freeze().data, &compact.data));
        overlay.update(x);
        assert!(overlay.credits.is_some());
        assert_ne!(dump_bits(&reference::dump_of(&overlay.freeze())), dump_bits(&dump));
        // The arena itself is never written.
        assert_eq!(dump_bits(&reference::dump_of(&compact)), dump_bits(&dump));
    }

    /// `n` users who each performed the one action, all committed.
    fn all_committed(n: u32) -> CompactSelector {
        reference::arena_of(&SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![0]; n as usize],
                inv_au: vec![1.0; n as usize],
                credits: vec![Vec::new()],
            },
            sc: Vec::new(),
            seeds: (0..n).rev().collect(),
        })
    }

    #[test]
    fn a_session_over_200k_committed_seeds_opens_in_linear_time() {
        const N: u32 = 200_000;
        let compact = all_committed(N);
        let start = std::time::Instant::now();
        let got = compact.top_k_session().top_k(1);
        let took = start.elapsed();
        assert_eq!(got.seeds, compact.seeds());
        assert!(got.marginal_gains.is_empty());
        assert!(took < std::time::Duration::from_secs(1), "{N} seeds took {took:?}");
    }

    #[test]
    fn top_k_session_answers_every_budget_like_a_fresh_run() {
        for committed in [0usize, 2] {
            let dump = trained_dump(92, committed);
            let compact = reference::arena_of(&dump);
            let mut session = compact.top_k_session();
            for k in [5usize, 50, 1, 20, 3, 0, 41] {
                let want = compact.overlay().select(k);
                let got = session.top_k(k);
                assert_eq!(got.seeds, want.seeds, "k = {k} ({committed} committed)");
                assert_eq!(got.evaluations, want.evaluations, "k = {k} ({committed} committed)");
                let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.marginal_gains), bits(&want.marginal_gains), "k = {k}");
            }
            // The credit copy, the SC array and the row index (8 + 8 + 4
            // bytes per entry or pair), then per user the seed mark, the
            // kernel table and the Lemma-3 cursor (1 + 16 + 8 bytes).
            let counts = compact.counts();
            let floor = 8 * counts.entries + 12 * counts.ua_len + 25 * counts.num_users;
            assert!(session.memory_bytes() >= floor, "{} < {floor}", session.memory_bytes());
        }
    }

    /// An arena seed that still holds a live out row (validation admits
    /// one) and is a source of a later seed, and a target whose Lemma-3
    /// slot the second commit reaches at an earlier action than the first
    /// did. The overlay stays the oracle's through both commits, state and
    /// every gain: the arena seed's row takes Lemma 2 like any source's,
    /// and each update's Lemma-3 cursors start over.
    #[test]
    fn an_arena_seed_with_a_live_row_is_still_a_source() {
        let dump = SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![1], vec![1], vec![1], vec![0, 1, 2], vec![2]],
                inv_au: vec![1.0, 1.0, 1.0, 1.0 / 3.0, 1.0],
                credits: vec![
                    Vec::new(),
                    vec![(0, 1, 0.4), (0, 2, 0.3), (1, 2, 0.5), (1, 3, 0.2)],
                    vec![(4, 3, 0.6)],
                ],
            },
            sc: Vec::new(),
            seeds: vec![0],
        };
        let compact = reference::arena_of(&dump);
        let buf = Arc::new(AlignedBuf::from_bytes(compact.arena()));
        assert!(CompactSelector::from_arena(buf, 0, compact.counts(), 0.0).is_ok());
        assert_commits_match_oracle(&dump, &[4, 1], OverlaySelector::update);
        assert_sharded_commits_match_serial(&dump, &[4, 1]);
        // Committing 1 rewrote the arena seed's row: (0, 1) retired, and
        // 0.3 − 0.4·0.5 left on (0, 2).
        let state = reference::dump_of(&committed(&compact, &[4, 1]));
        assert_eq!(state.store.credits[1], [(0, 2, 0.3 - 0.4 * 0.5)]);
    }

    /// A session seed with a row in an action it did not perform (which
    /// validation admits, and no scan writes): its retire leaves that row
    /// live, so a later seed's commit must still walk it as a source.
    #[test]
    fn a_seed_row_outside_its_actions_stays_a_source() {
        let dump = SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![0], vec![1], vec![1]],
                inv_au: vec![1.0; 3],
                credits: vec![Vec::new(), vec![(0, 1, 0.4), (0, 2, 0.3), (1, 2, 0.5)]],
            },
            sc: Vec::new(),
            seeds: Vec::new(),
        };
        let compact = reference::arena_of(&dump);
        let buf = Arc::new(AlignedBuf::from_bytes(compact.arena()));
        assert!(CompactSelector::from_arena(buf, 0, compact.counts(), 0.0).is_ok());
        assert_commits_match_oracle(&dump, &[0, 1], OverlaySelector::update);
        assert_sharded_commits_match_serial(&dump, &[0, 1]);
        let state = reference::dump_of(&committed(&compact, &[0, 1]));
        assert_eq!(state.store.credits[1], [(0, 2, 0.3 - 0.4 * 0.5)]);
    }

    /// A user who performed nothing has no actions to shard: committing
    /// one on many shards commits it like the serial kernel, and the
    /// sessions go on to agree.
    #[test]
    fn committing_a_user_without_actions_on_many_shards() {
        let mut dump = trained_dump(94, 0);
        dump.store.user_actions.push(Vec::new());
        dump.store.inv_au.push(0.0);
        let idle = dump.store.inv_au.len() as u32 - 1;
        assert_sharded_commits_match_serial(&dump, &[idle, 3, idle, 7]);
        let mut overlay = reference::arena_of(&dump).overlay();
        overlay.commit(idle, 8, 0);
        assert_eq!(overlay.seeds(), [idle]);
    }

    #[test]
    fn a_huge_budget_reserves_nothing_up_front() {
        let dump = trained_dump(93, 0);
        let compact = reference::arena_of(&dump);
        let all = compact.overlay().select(usize::MAX);
        assert_eq!(
            all.seeds.len(),
            (0..40u32).filter(|&u| compact.data.inv_au_of(u) > 0.0).count()
        );
        assert_eq!(compact.top_k_session().top_k(usize::MAX).seeds, all.seeds);
    }
}

#[cfg(test)]
mod proptests {
    use crate::compact::OverlaySelector;
    use crate::reference;
    use crate::testing::{
        assert_commits_match_oracle, assert_sharded_commits_match_serial, edge_case_dump,
        eight_user_instance, frozen,
    };
    use proptest::prelude::*;

    proptest! {
        /// On hand-built states whose credits and SC values sit on the
        /// kernel's edge cases ([`edge_case_dump`]), every commit leaves the overlay
        /// in the oracle's state bit for bit — credits and SC, stored
        /// `+0.0` SC entries included — and every user's gain agrees
        /// after it.
        #[test]
        fn overlay_state_matches_the_oracle_on_edge_case_credits(
            entries in proptest::collection::vec((0u32..6, 0u32..6, 0u32..2, 0usize..8), 0..30),
            extra in proptest::collection::vec((0u32..6, 0u32..2), 0..6),
            sc in proptest::collection::vec((0u32..2, 0u32..6, 0usize..8), 0..6),
            seeds in proptest::sample::subsequence((0u32..6).collect::<Vec<_>>(), 0..3),
            q in proptest::collection::vec(0u32..6, 1..6),
        ) {
            let dump = edge_case_dump(&entries, &extra, &sc, seeds);
            assert_commits_match_oracle(&dump, &q, OverlaySelector::update);
        }

        /// A commit split into 1, 2, 3 or 8 shards of the seed's actions
        /// (no entry threshold) leaves the serial kernel's state and gains
        /// bit for bit, and the oracle's, after every commit: on scanned
        /// stores of up to ten actions (both policies, λ ∈ {0, 0.001},
        /// with committed seeds) and on the edge-case states. Sequences
        /// repeat users and name committed ones and users who never acted.
        #[test]
        fn sharded_commits_match_the_serial_kernel(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..10, 0u64..12), 1..60),
            committed in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..3),
            entries in proptest::collection::vec((0u32..6, 0u32..6, 0u32..2, 0usize..8), 0..30),
            extra in proptest::collection::vec((0u32..6, 0u32..2), 0..6),
            sc in proptest::collection::vec((0u32..2, 0u32..6, 0usize..8), 0..6),
            q in proptest::collection::vec(0u32..8, 1..6),
            flags in (proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let (time_aware, truncate) = flags;
            let (graph, log, policy) = eight_user_instance(&edges, &events, time_aware);
            let lambda = if truncate { 0.001 } else { 0.0 };
            let scanned = reference::dump_of(&frozen(&graph, &log, &policy, lambda, &committed));
            assert_sharded_commits_match_serial(&scanned, &q);
            // The edge-case states have six users.
            let seeds = committed.iter().copied().filter(|&u| u < 6).collect();
            let q6: Vec<u32> = q.iter().map(|&u| u % 6).collect();
            assert_sharded_commits_match_serial(&edge_case_dump(&entries, &extra, &sc, seeds), &q6);
        }
    }
}
