//! Laying arenas out: the scan shards' entry blocks and their freeing
//! merge, a dump's layout, and the splices behind
//! [`CompactSelector::extend`] and [`CompactSelector::retract`]. Each
//! writes runs of per-action sections end to end, offsets rebased, into
//! the sections `assemble` hands out.

use super::{assemble, one_over_au, pair_key, CompactCounts, CompactData, CompactSelector};
use super::{Overflow, Sections};
use crate::incremental::{self, ExtendError};
use crate::policy::CreditPolicy;
use crate::reference::CreditStoreDump;
use crate::scan::{scan_with, ScanError};
use cdim_actionlog::ActionLogDelta;
use cdim_graph::DirectedGraph;
use cdim_util::Parallelism;
use std::sync::Arc;

/// Entries in a shard's first block (4 MB), so a small scan reserves
/// little.
pub(crate) const FIRST_BLOCK_ENTRIES: usize = 1 << 18;

/// Entries in every later block (16 MB: 4 MB of targets, 8 MB of
/// credits, 4 MB of sources).
///
/// Large blocks keep less freed scan memory resident. glibc fits a small
/// block into whatever hole of its size the heap has left between
/// allocations that outlive the scan; once the merge frees the blocks,
/// those holes are too small for the next large request (the top-k
/// credit copy), and the heap grows for it. On perfbench `train` (two
/// shards of about 0.7 M entries) uniform blocks of 2^15–2^18 entries
/// peaked at 90–92 MB, these sizes at 80–84 MB. A block's unwritten tail
/// is never touched, and [`EntryBlocks::seal`] gives it back.
pub(crate) const BLOCK_ENTRIES: usize = 1 << 20;

/// The per-action sections of a run of actions, every offset array
/// starting at 0: what one scan shard emits, and what [`arena`] lays
/// end to end into an arena.
///
/// The row-sized sections are `Vec`s; the entry-sized ones live in
/// [`EntryBlocks`], fixed-capacity blocks of whole actions that never
/// grow by doubling and that the merge frees one by one as it copies
/// them.
#[derive(Debug)]
pub(crate) struct ActionRows {
    pub(crate) out_act_rows: Vec<u32>,
    pub(crate) out_row_user: Vec<u32>,
    pub(crate) out_row_offsets: Vec<u32>,
    pub(crate) inc_act_rows: Vec<u32>,
    pub(crate) inc_row_user: Vec<u32>,
    pub(crate) inc_row_offsets: Vec<u32>,
    pub(crate) entries: EntryBlocks,
}

impl Default for ActionRows {
    fn default() -> Self {
        ActionRows::with_blocks(FIRST_BLOCK_ENTRIES, BLOCK_ENTRIES)
    }
}

/// The entry-sized sections (`out_targets`, `out_credits`,
/// `inc_sources`) of an [`ActionRows`], as a list of blocks. Each block
/// holds whole actions, so one action's entries are one contiguous slice
/// of each section; an action larger than a block gets a block of exactly
/// its size. A shard's first block is smaller than the rest, so a small
/// scan reserves little and a large one gets large blocks.
#[derive(Debug)]
pub(crate) struct EntryBlocks {
    blocks: Vec<Block>,
    /// Entries in all blocks.
    len: usize,
    /// Capacity of the first block and of every later one, in entries.
    first: usize,
    block: usize,
}

#[derive(Debug)]
struct Block {
    out_targets: Vec<u32>,
    out_credits: Vec<f64>,
    inc_sources: Vec<u32>,
}

/// One action's entry slots, as handed out by [`EntryBlocks::push`].
#[derive(Default)]
pub(crate) struct EntrySlots<'a> {
    pub(crate) out_targets: &'a mut [u32],
    pub(crate) out_credits: &'a mut [f64],
    pub(crate) inc_sources: &'a mut [u32],
}

impl EntryBlocks {
    /// Entries pushed so far: the global offset of the next action's
    /// first entry.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Zeroed slots for one action's `n` entries, in the last block if it
    /// has room, otherwise in a new block of at least `n` entries.
    pub(crate) fn push(&mut self, n: usize) -> EntrySlots<'_> {
        let room = self.blocks.last().map_or(0, |b| b.out_targets.capacity() - b.out_targets.len());
        if room < n {
            self.seal();
            let cap = n.max(if self.blocks.is_empty() { self.first } else { self.block });
            self.blocks.push(Block {
                out_targets: Vec::with_capacity(cap),
                out_credits: Vec::with_capacity(cap),
                inc_sources: Vec::with_capacity(cap),
            });
        }
        let Some(b) = self.blocks.last_mut() else {
            return EntrySlots::default();
        };
        let at = b.out_targets.len();
        b.out_targets.resize(at + n, 0);
        b.out_credits.resize(at + n, 0.0);
        b.inc_sources.resize(at + n, 0);
        self.len += n;
        EntrySlots {
            out_targets: &mut b.out_targets[at..],
            out_credits: &mut b.out_credits[at..],
            inc_sources: &mut b.inc_sources[at..],
        }
    }

    /// Gives the unused room of the last block back to the allocator: a
    /// shrink in place, no copy.
    pub(crate) fn seal(&mut self) {
        if let Some(b) = self.blocks.last_mut() {
            b.out_targets.shrink_to_fit();
            b.out_credits.shrink_to_fit();
            b.inc_sources.shrink_to_fit();
        }
    }
}

impl Block {
    fn view(&self) -> Entries<'_> {
        Entries {
            out_targets: &self.out_targets,
            out_credits: &self.out_credits,
            inc_sources: &self.inc_sources,
        }
    }
}

impl ActionRows {
    /// No actions yet; the first block will hold `first` entries, every
    /// later one `block`.
    pub(crate) fn with_blocks(first: usize, block: usize) -> Self {
        ActionRows {
            out_act_rows: vec![0],
            out_row_user: Vec::new(),
            out_row_offsets: vec![0],
            inc_act_rows: vec![0],
            inc_row_user: Vec::new(),
            inc_row_offsets: vec![0],
            entries: EntryBlocks { blocks: Vec::new(), len: 0, first, block },
        }
    }

    /// Appends one action whose entries are sorted by `(v, u)`; `by_target`
    /// is scratch for the inc direction's `(u, v)` order.
    pub(super) fn push_sorted(
        &mut self,
        entries: &[(u32, u32, f64)],
        by_target: &mut Vec<(u32, u32)>,
    ) {
        let base = self.entries.len();
        let slots = self.entries.push(entries.len());
        for (k, &(_, u, c)) in entries.iter().enumerate() {
            slots.out_targets[k] = u;
            slots.out_credits[k] = c;
        }
        let mut end = base;
        for row in entries.chunk_by(|x, y| x.0 == y.0) {
            end += row.len();
            self.out_row_user.push(row[0].0);
            self.out_row_offsets.push(end as u32);
        }
        self.out_act_rows.push(self.out_row_user.len() as u32);
        // Credits are not duplicated in the inc direction; queries find
        // them in `out_credits` by binary search over the source's out run.
        by_target.clear();
        by_target.extend(entries.iter().map(|&(v, u, _)| (u, v)));
        by_target.sort_unstable();
        for (slot, &(_, v)) in slots.inc_sources.iter_mut().zip(by_target.iter()) {
            *slot = v;
        }
        let mut end = base;
        for row in by_target.chunk_by(|x, y| x.0 == y.0) {
            end += row.len();
            self.inc_row_user.push(row[0].0);
            self.inc_row_offsets.push(end as u32);
        }
        self.inc_act_rows.push(self.inc_row_user.len() as u32);
    }

    fn view(&self) -> Rows<'_> {
        Rows {
            out_act_rows: &self.out_act_rows,
            out_row_user: &self.out_row_user,
            out_row_offsets: &self.out_row_offsets,
            inc_act_rows: &self.inc_act_rows,
            inc_row_user: &self.inc_row_user,
            inc_row_offsets: &self.inc_row_offsets,
            entries: self.entries.len(),
        }
    }
}

/// The row-sized sections of a borrowed run of actions — an
/// [`ActionRows`], or the actions of an arena from some action on — and
/// its entry count. Offsets need not start at 0.
#[derive(Clone, Copy)]
struct Rows<'a> {
    out_act_rows: &'a [u32],
    out_row_user: &'a [u32],
    out_row_offsets: &'a [u32],
    inc_act_rows: &'a [u32],
    inc_row_user: &'a [u32],
    inc_row_offsets: &'a [u32],
    entries: usize,
}

/// The entry-sized sections of whole actions, contiguous: one block of
/// an [`ActionRows`], or an arena's entries from some action on.
#[derive(Clone, Copy)]
struct Entries<'a> {
    out_targets: &'a [u32],
    out_credits: &'a [f64],
    inc_sources: &'a [u32],
}

impl Rows<'_> {
    fn actions(&self) -> usize {
        self.out_act_rows.len() - 1
    }
}

impl CompactData {
    /// The per-action sections of actions `from..`.
    fn rows_from(&self, from: usize) -> (Rows<'_>, Entries<'_>) {
        let (out_row, inc_row) =
            (self.out_act_rows()[from] as usize, self.inc_act_rows()[from] as usize);
        let out_entry = self.out_row_offsets()[out_row] as usize;
        let inc_entry = self.inc_row_offsets()[inc_row] as usize;
        let rows = Rows {
            out_act_rows: &self.out_act_rows()[from..],
            out_row_user: &self.out_row_user()[out_row..],
            out_row_offsets: &self.out_row_offsets()[out_row..],
            inc_act_rows: &self.inc_act_rows()[from..],
            inc_row_user: &self.inc_row_user()[inc_row..],
            inc_row_offsets: &self.inc_row_offsets()[inc_row..],
            entries: self.counts.entries - out_entry,
        };
        let entries = Entries {
            out_targets: &self.out_targets()[out_entry..],
            out_credits: &self.out_credits()[out_entry..],
            inc_sources: &self.inc_sources()[inc_entry..],
        };
        (rows, entries)
    }
}

/// Where the next run goes in the per-action sections of an arena being
/// written: runs are laid end to end, each run's rows first
/// ([`Self::put_rows`]), then its entries ([`Self::put_entries`]).
#[derive(Default)]
struct Cursor {
    action: usize,
    out_row: usize,
    inc_row: usize,
    entry: usize,
}

impl Cursor {
    /// Writes `r`'s row-sized sections, offsets rebased onto the rows and
    /// entries before it.
    fn put_rows(&mut self, s: &mut Sections<'_>, r: &Rows<'_>) {
        put_offsets(s.out_act_rows, self.action, r.out_act_rows, self.out_row);
        put(s.out_row_user, self.out_row, r.out_row_user);
        put_offsets(s.out_row_offsets, self.out_row, r.out_row_offsets, self.entry);
        put_offsets(s.inc_act_rows, self.action, r.inc_act_rows, self.inc_row);
        put(s.inc_row_user, self.inc_row, r.inc_row_user);
        put_offsets(s.inc_row_offsets, self.inc_row, r.inc_row_offsets, self.entry);
        self.action += r.actions();
        self.out_row += r.out_row_user.len();
        self.inc_row += r.inc_row_user.len();
    }

    /// Writes the next entries of the run whose rows were put last.
    fn put_entries(&mut self, s: &mut Sections<'_>, e: Entries<'_>) {
        put(s.out_targets, self.entry, e.out_targets);
        put(s.out_credits, self.entry, e.out_credits);
        put(s.inc_sources, self.entry, e.inc_sources);
        self.entry += e.out_targets.len();
    }
}

/// Copies `run` into `out` at `at`.
fn put<T: Copy>(out: &mut [T], at: usize, run: &[T]) {
    out[at..at + run.len()].copy_from_slice(run);
}

/// Writes the offsets `run[1..]`, rebased from `run[0]` to `base`, at
/// `out[at + 1..]` (`out[at]` already holds `base`).
fn put_offsets(out: &mut [u32], at: usize, run: &[u32], base: usize) {
    let (start, base) = (run[0], base as u32);
    for (slot, &x) in out[at + 1..at + run.len()].iter_mut().zip(&run[1..]) {
        *slot = x - start + base;
    }
}

/// Lays an arena out of its parts: the user → actions index as CSR
/// (`ua_offsets` from 0, `ua_data`), `1/A_u`, the action runs in order,
/// SC entries `(a, u, Γ_{S,u}(a))` sorted by `(a, u)`, and the seeds.
///
/// The runs are consumed: each block of entries is freed as soon as it
/// has been copied, and each run's rows once its last block has, so the
/// arena and the runs are all live only when the copy starts.
pub(crate) fn arena(
    lambda: f64,
    ua_offsets: &[u32],
    ua_data: &[u32],
    inv_au: &[f64],
    runs: Vec<ActionRows>,
    sc: &[(u32, u32, f64)],
    seeds: &[u32],
) -> Result<CompactData, Overflow> {
    let views = || runs.iter().map(ActionRows::view);
    let counts = CompactCounts {
        num_users: inv_au.len(),
        num_actions: views().map(|r| r.actions()).sum(),
        ua_len: ua_data.len(),
        out_rows: views().map(|r| r.out_row_user.len()).sum(),
        inc_rows: views().map(|r| r.inc_row_user.len()).sum(),
        entries: views().map(|r| r.entries).sum(),
        sc_len: sc.len(),
        seeds_len: seeds.len(),
    };
    assemble(counts, lambda, |s| {
        s.ua_offsets.copy_from_slice(ua_offsets);
        s.ua_data.copy_from_slice(ua_data);
        s.inv_au.copy_from_slice(inv_au);
        let mut at = Cursor::default();
        for run in runs {
            at.put_rows(s, &run.view());
            for block in run.entries.blocks {
                at.put_entries(s, block.view());
            }
        }
        for (i, &(a, u, c)) in sc.iter().enumerate() {
            s.sc_keys[i] = pair_key(a, u);
            s.sc_vals[i] = c;
        }
        s.seeds.copy_from_slice(seeds);
    })
}

/// Builds the arena of a canonical store dump plus SC entries (sorted by
/// `(a, u)`) and seeds.
pub(crate) fn build(
    store: &CreditStoreDump,
    sc: &[(u32, u32, f64)],
    seeds: &[u32],
) -> Result<CompactData, Overflow> {
    let mut ua_offsets = vec![0u32];
    let mut ua_data = Vec::new();
    for actions in &store.user_actions {
        ua_data.extend_from_slice(actions);
        ua_offsets.push(ua_data.len() as u32);
    }
    let mut rows = ActionRows::default();
    let mut by_target = Vec::new();
    for entries in &store.credits {
        rows.push_sorted(entries, &mut by_target);
    }
    arena(store.lambda, &ua_offsets, &ua_data, &store.inv_au, vec![rows], sc, seeds)
}

// ------------------------------------------------------------------ splice

/// `head`'s actions from `cut` on, then `tail`'s: a suffix of each of
/// `head`'s per-action sections followed by `tail`'s, offsets rebased and
/// action ids (in `ua_data` and the SC keys) renumbered, each user's row
/// merged, and `1/A_u` re-derived with the scan's single division for
/// every user whose row changed. The seeds are `head`'s; `tail` must
/// cover the same users, and its `1/A_u` and seeds are ignored.
fn splice(head: &CompactData, cut: usize, tail: &CompactData) -> Result<CompactData, Overflow> {
    let (h, t) = (head.counts, tail.counts);
    let (cut32, base) = (cut as u32, (h.num_actions - cut) as u32);
    let runs = [head.rows_from(cut), tail.rows_from(0)];
    let sc = head.sc_keys().partition_point(|&key| key < u64::from(cut32) << 32);
    let expired: usize =
        (0..h.num_users as u32).map(|u| head.ua_row(u).partition_point(|&a| a < cut32)).sum();
    let counts = CompactCounts {
        num_users: h.num_users,
        num_actions: base as usize + t.num_actions,
        ua_len: h.ua_len - expired + t.ua_len,
        out_rows: runs.iter().map(|(r, _)| r.out_row_user.len()).sum(),
        inc_rows: runs.iter().map(|(r, _)| r.inc_row_user.len()).sum(),
        entries: runs.iter().map(|(r, _)| r.entries).sum(),
        sc_len: h.sc_len - sc + t.sc_len,
        seeds_len: h.seeds_len,
    };
    assemble(counts, head.lambda, |s| {
        let mut at = 0usize;
        for u in 0..h.num_users as u32 {
            let row = head.ua_row(u);
            let gone = row.partition_point(|&a| a < cut32);
            let (kept, new) = (&row[gone..], tail.ua_row(u));
            let merged = kept.iter().map(|&a| a - cut32).chain(new.iter().map(|&a| a + base));
            for (slot, a) in s.ua_data[at..].iter_mut().zip(merged) {
                *slot = a;
            }
            let n = kept.len() + new.len();
            at += n;
            s.ua_offsets[u as usize + 1] = at as u32;
            s.inv_au[u as usize] =
                if gone == 0 && new.is_empty() { head.inv_au_of(u) } else { one_over_au(n as u32) };
        }
        let mut at = Cursor::default();
        for (rows, entries) in &runs {
            at.put_rows(s, rows);
            at.put_entries(s, *entries);
        }
        let kept = head.sc_keys()[sc..].iter().map(|&key| key - (u64::from(cut32) << 32));
        let new = tail.sc_keys().iter().map(|&key| key + (u64::from(base) << 32));
        for (slot, key) in s.sc_keys.iter_mut().zip(kept.chain(new)) {
            *slot = key;
        }
        put(s.sc_vals, 0, &head.sc_vals()[sc..]);
        put(s.sc_vals, h.sc_len - sc, tail.sc_vals());
        s.seeds.copy_from_slice(head.seeds());
    })
}

impl CompactSelector {
    /// Incremental retraining: this model extended by an append-only
    /// action batch. Only the delta is scanned (with [`scan_with`], under
    /// `parallelism`); committed seeds are replayed over the new actions
    /// in selection order on an overlay of the delta's model (Algorithm 5
    /// never crosses an action boundary, so the old actions already
    /// reflect them), and its frozen state is spliced onto a copy of the
    /// arena (see [`crate::incremental`] for the contract).
    ///
    /// `policy` must be the policy the model was trained with. Under it
    /// the returned arena is byte-identical to a from-scratch scan of the
    /// combined log with the same seeds replayed in order, for every
    /// `parallelism`. A mismatched batch is a typed [`ExtendError`];
    /// `self` is never modified.
    pub fn extend(
        &self,
        graph: &DirectedGraph,
        delta: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<CompactSelector, ExtendError> {
        let data = &self.data;
        incremental::validate(graph, delta, data.counts.num_users, data.counts.num_actions)?;
        let mut fresh = data.scan(graph, delta, policy, parallelism)?.overlay();
        for &x in self.seeds() {
            fresh.update(x);
        }
        Ok(CompactSelector { data: Arc::new(splice(data, 0, &fresh.freeze().data)?) })
    }

    /// Sliding-window retraining: this model without an expired action
    /// prefix, cut off every section, survivors renumbered down.
    /// `expired` must be the model's first actions as a delta based at 0
    /// (see `ActionLog::split_off_prefix`), and each user's membership
    /// count below the boundary must match it. With no seeds committed
    /// the expired actions are also rescanned and must match the stored
    /// credits bit for bit ([`ExtendError::PrefixMismatch`] otherwise);
    /// committed seeds have rewritten those credits, so then only the
    /// structural checks apply.
    ///
    /// `policy` must be the training policy, as with
    /// [`extend`](Self::extend). Under it the returned arena is
    /// byte-identical to a from-scratch scan of just the surviving window
    /// with the same seeds replayed in order.
    pub fn retract(
        &self,
        graph: &DirectedGraph,
        expired: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<CompactSelector, ExtendError> {
        let (data, c) = (&self.data, self.data.counts);
        let k =
            incremental::validate_retract(graph, expired, c.num_users, c.num_actions, |u, k| {
                data.ua_row(u as u32).partition_point(|&a| (a as usize) < k)
            })?;
        if self.seeds().is_empty() {
            let rescanned = data.scan(graph, expired, policy, parallelism)?;
            if let Some(a) =
                (0..k as u32).find(|&a| rescanned.data.action_bits(a) != data.action_bits(a))
            {
                return Err(ExtendError::PrefixMismatch { action: a });
            }
        }
        let nothing = CompactCounts { num_users: c.num_users, ..CompactCounts::default() };
        let window = splice(data, k, &assemble(nothing, data.lambda, |_| {})?)?;
        Ok(CompactSelector { data: Arc::new(window) })
    }
}

impl CompactData {
    /// The credits of `delta`'s actions alone, scanned at this state's λ.
    /// The caller has validated the delta against the state.
    fn scan(
        &self,
        graph: &DirectedGraph,
        delta: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<CompactSelector, ExtendError> {
        // λ passed validation when this state was built and the user
        // universes match, so only an arena overflow is left to report.
        scan_with(graph, delta.additions(), policy, self.lambda, parallelism).map_err(|e| match e {
            ScanError::ArenaOverflow { section, count } => {
                ExtendError::ArenaOverflow { section, count }
            }
            other => unreachable!("a validated delta scans: {other}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, CdSelector};
    use crate::scan::scan;
    use crate::testing::frozen;
    use cdim_actionlog::{ActionLog, ActionLogBuilder};
    use cdim_graph::GraphBuilder;

    /// Six users, five actions, every user but one per action.
    fn small_instance() -> (DirectedGraph, ActionLog) {
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
    fn frozen_sessions_lay_out_the_oracle_dump() {
        let (graph, log) = small_instance();
        let time_aware = CreditPolicy::time_aware(&graph, &log);
        for (policy, lambda) in [(&CreditPolicy::Uniform, 0.0), (&time_aware, 0.001)] {
            for seeds in [&[][..], &[0], &[0, 2]] {
                let mut oracle = CdSelector::new(scan(&graph, &log, policy, lambda).unwrap());
                for &s in seeds {
                    oracle.update(s);
                }
                let want = reference::arena_of(&oracle.dump());
                let got = frozen(&graph, &log, policy, lambda, seeds);
                assert_eq!(got.counts(), want.counts(), "seeds {seeds:?}, lambda {lambda}");
                assert!(got.arena() == want.arena(), "seeds {seeds:?}, lambda {lambda}");
            }
        }
    }

    #[test]
    fn extend_and_retract_replay_committed_seeds() {
        let (graph, log) = small_instance();
        let time_aware = CreditPolicy::time_aware(&graph, &log);
        let par = Parallelism::fixed(2);
        for policy in [&CreditPolicy::Uniform, &time_aware] {
            for lambda in [0.0, 0.001] {
                for seeds in [&[][..], &[0], &[0, 2]] {
                    let full = frozen(&graph, &log, policy, lambda, seeds);
                    // Every split and every cut, the empty and full
                    // batches included.
                    for at in 0..=log.num_actions() {
                        let case = format!("at {at}, lambda {lambda}, seeds {seeds:?}");
                        let (prefix, delta) = log.split_at_action(at);
                        let extended = frozen(&graph, &prefix, policy, lambda, seeds)
                            .extend(&graph, &delta, policy, par)
                            .unwrap();
                        assert_eq!(extended.counts(), full.counts(), "extend {case}");
                        assert!(extended.arena() == full.arena(), "extend {case}");

                        let (expired, window) = log.split_off_prefix(at);
                        let retracted = full.retract(&graph, &expired, policy, par).unwrap();
                        let want = frozen(&graph, &window, policy, lambda, seeds);
                        assert_eq!(retracted.counts(), want.counts(), "retract {case}");
                        assert!(retracted.arena() == want.arena(), "retract {case}");
                        assert_eq!(retracted.seeds(), seeds);
                    }
                }
            }
        }
    }

    #[test]
    fn extend_mismatches_are_typed_and_leave_the_model_untouched() {
        let (graph, log) = small_instance();
        let policy = CreditPolicy::Uniform;
        let par = Parallelism::auto();
        let (prefix, delta) = log.split_at_action(2);
        let model = frozen(&graph, &prefix, &policy, 0.0, &[]);
        let before = model.arena().to_vec();

        // A stale base: a delta cut for a longer prefix.
        let late = log.delta_range(4, 5);
        assert_eq!(
            model.extend(&graph, &late, &policy, par).unwrap_err(),
            ExtendError::BaseMismatch { store_actions: 2, delta_base: 4 }
        );
        // A delta over a different user id space.
        let foreign = ActionLogDelta::new(2, ActionLogBuilder::new(9).build());
        assert_eq!(
            model.extend(&graph, &foreign, &policy, par).unwrap_err(),
            ExtendError::UserUniverseMismatch { store_users: 6, delta_users: 9 }
        );
        // The wrong graph.
        let small_graph = GraphBuilder::new(3).edges([(0, 1)]).build();
        assert_eq!(
            model.extend(&small_graph, &delta, &policy, par).unwrap_err(),
            ExtendError::GraphMismatch { graph_nodes: 3, store_users: 6 }
        );
        assert_eq!(model.arena(), &before[..]);
    }

    #[test]
    fn retract_mismatches_are_typed_and_leave_the_model_untouched() {
        let (graph, log) = small_instance();
        let policy = CreditPolicy::Uniform;
        let par = Parallelism::auto();
        let model = frozen(&graph, &log, &policy, 0.0, &[]);
        let before = model.arena().to_vec();
        let retract = |expired: &ActionLogDelta| model.retract(&graph, expired, &policy, par);

        // Not a prefix: the expired batch must be based at 0.
        assert_eq!(
            retract(&log.delta_range(1, 3)).unwrap_err(),
            ExtendError::WindowMismatch { store_actions: 5, expired_base: 1, expired_actions: 2 }
        );
        // Longer than the model.
        let mut b = ActionLogBuilder::new(6);
        for a in 0..6u32 {
            b.push(0, a, 0.0);
        }
        assert!(matches!(
            retract(&ActionLogDelta::new(0, b.build())),
            Err(ExtendError::WindowMismatch { store_actions: 5, expired_actions: 6, .. })
        ));
        // A different user universe, and the wrong graph.
        assert_eq!(
            retract(&ActionLogDelta::new(0, ActionLogBuilder::new(9).build())).unwrap_err(),
            ExtendError::UserUniverseMismatch { store_users: 6, delta_users: 9 }
        );
        let small_graph = GraphBuilder::new(3).edges([(0, 1)]).build();
        assert_eq!(
            model.retract(&small_graph, &log.split_off_prefix(1).0, &policy, par).unwrap_err(),
            ExtendError::GraphMismatch { graph_nodes: 3, store_users: 6 }
        );
        // Other performers than the real prefix's: user 0 acted in the
        // real action 0, the claimed prefix says they did not.
        let mut b = ActionLogBuilder::new(6);
        b.push(4, 0, 0.0);
        assert_eq!(
            retract(&ActionLogDelta::new(0, b.build())).unwrap_err(),
            ExtendError::MembershipMismatch { user: 0, expected: 0, got: 1 }
        );
        // Foreign data with the right membership counts: reversing the
        // activation order flips the propagation DAG, so the rescan
        // disagrees with the stored credits bit for bit.
        let mut b = ActionLogBuilder::new(6);
        for &u in log.users_of(0) {
            b.push(u, 0, f64::from(5 - u));
        }
        let reversed = ActionLogDelta::new(0, b.build());
        assert_eq!(retract(&reversed).unwrap_err(), ExtendError::PrefixMismatch { action: 0 });
        assert_eq!(model.arena(), &before[..]);

        // Committed seeds have rewritten the prefix credits, so only the
        // structural checks apply.
        let seeded = frozen(&graph, &log, &policy, 0.0, &[2]);
        assert!(seeded.retract(&graph, &reversed, &policy, par).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use crate::testing::{eight_user_instance, frozen};
    use cdim_util::Parallelism;
    use proptest::prelude::*;

    proptest! {
        /// The splice contract: on a random instance (both policies,
        /// λ ∈ {0, 0.001}) with 0–3 committed seeds, extending the model
        /// of a random prefix by the rest, and retracting the same prefix
        /// from the full model, give the arenas of a rescan of the full
        /// log and of the window with the seeds replayed in order.
        #[test]
        fn extend_and_retract_equal_a_rescan_with_seeds_replayed(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..5, 0u64..12), 1..50),
            cut in 0usize..6,
            seeds in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..4),
            flags in (proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let (time_aware, truncate) = flags;
            let (graph, log, policy) = eight_user_instance(&edges, &events, time_aware);
            let lambda = if truncate { 0.001 } else { 0.0 };
            let cut = cut.min(log.num_actions());
            let par = Parallelism::fixed(2);
            let full = frozen(&graph, &log, &policy, lambda, &seeds);

            let (prefix, delta) = log.split_at_action(cut);
            let extended = frozen(&graph, &prefix, &policy, lambda, &seeds)
                .extend(&graph, &delta, &policy, par)
                .unwrap();
            prop_assert_eq!(extended.counts(), full.counts());
            prop_assert!(extended.arena() == full.arena(), "extend at {cut}, seeds {seeds:?}");

            let (expired, window) = log.split_off_prefix(cut);
            let retracted = full.retract(&graph, &expired, &policy, par).unwrap();
            let want = frozen(&graph, &window, &policy, lambda, &seeds);
            prop_assert_eq!(retracted.counts(), want.counts());
            prop_assert!(retracted.arena() == want.arena(), "retract at {cut}, seeds {seeds:?}");
        }
    }
}
