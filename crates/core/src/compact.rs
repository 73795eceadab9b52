//! CSR-flat form of the trained state: the model every query path serves.
//!
//! The scan writes the trained state straight into this form: every
//! per-action credit/out/inc adjacency as CSR offset+data arrays with
//! *sorted* neighbor runs, all living in one contiguous 8-byte-aligned
//! arena ([`cdim_util::AlignedBuf`]). The scan returns a seedless
//! [`CompactSelector`]; committing seeds lays out a new one that also
//! holds SC entries and the seeds. The arena is also the v2
//! snapshot payload: the serving layer stores it verbatim and reloads it
//! by validate + reinterpret — no per-entry decode. Selection runs here
//! too: the [`OverlaySelector`] is the one engine for Algorithms 4–5, and
//! the CELF driver of [`crate::celf`] runs on it. Nothing freezes a
//! trained model: only a session with committed seeds
//! ([`OverlaySelector::freeze`]) is laid out anew.
//!
//! An arena is never modified. [`extend`](CompactSelector::extend) scans
//! only the new actions and splices their sections onto a copy of the
//! arena; [`retract`](CompactSelector::retract) cuts an expired action
//! prefix off every section the same way. The scan's merge and both
//! splices write the same thing: runs of per-action sections laid end to
//! end, offsets rebased.
//!
//! ## Arena layout
//!
//! Sections in order, each 8-byte-aligned, sizes fully determined by
//! [`CompactCounts`] (`U` users, `A` actions, `R`/`R'` out/inc rows, `E`
//! entries):
//!
//! ```text
//! ua_offsets   (U+1)×u32   user → range into ua_data
//! ua_data      ua_len×u32  dense action ids each user performed
//! inv_au       U×f64       1/A_u per user
//! out_act_rows (A+1)×u32   action → range of out rows
//! out_row_user R×u32       row → influencer v (sorted per action)
//! out_row_offs (R+1)×u32   row → range of entries
//! out_targets  E×u32       entry → target u (sorted per row)
//! out_credits  E×f64       entry → Γ_{v,u}(a)
//! inc_act_rows (A+1)×u32   action → range of inc rows
//! inc_row_user R'×u32      row → target u (sorted per action)
//! inc_row_offs (R'+1)×u32  row → range of inc entries
//! inc_sources  E×u32       inc entry → source v (sorted per row)
//! sc_keys      sc_len×u64  packed (action, user), sorted
//! sc_vals      sc_len×f64  Γ_{S,u}(a)
//! seeds        seeds×u32   committed seeds, selection order
//! ```
//!
//! Credit values are stored once (in `out_credits`); the incoming
//! direction carries only source ids and finds each credit by binary
//! search over the source's sorted out run, in exchange for 4 fewer bytes
//! per entry.
//!
//! Every per-action section is action-ordered, so the actions `[k, A)`
//! occupy a suffix of each: appending actions appends to every section
//! (offsets shifted by the old totals, SC keys by the old action count),
//! and retracting a prefix keeps a suffix of every section. Only the
//! per-user sections (`ua_*`, `inv_au`) are merged user by user.
//!
//! ## Query engine cost
//!
//! Only a top-k copies credits. Seed-set queries —
//! [`telescoped_spread`](CompactSelector::telescoped_spread) and
//! [`gain_over`](CompactSelector::gain_over), single seeds included —
//! commit nothing: for a sequence `q` they visit the actions the
//! evaluated users performed, and per action copy only the out rows of
//! the users of `q` who performed it, replaying each earlier user's
//! Algorithm-5 update on those copies. Per action that is one `sc_keys`
//! binary search and one row lookup per such user, plus two binary
//! searches and one row merge per ordered pair of them; the copies are
//! those users' rows, never model-sized (see `sequence_gains`).
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
//!
//! ## Bit-identity contract
//!
//! The scan emits each action's rows in sorted order, the order
//! [`crate::reference::dump_of`] lists and a dump is laid out in, so a
//! trained state has exactly one arena, however it was reached: a fresh
//! scan, a snapshot load, a dump, or any chain of `extend` and `retract`.
//! The splices keep this because credits never cross an action boundary
//! (Algorithm 2 scans each action on its own, and an Algorithm-5 update
//! of one action reads and writes only that action): the new actions'
//! sections are what a full rescan with the seeds replayed would put at
//! the end, and a window's sections are a suffix of the full model's.
//! The query engine ([`OverlaySelector`]) is checked against the hash-map
//! oracle [`crate::reference::CdSelector`]: it mirrors each of the
//! oracle's f64 accumulation orders, so after every commit its state,
//! laid out by [`OverlaySelector::freeze`], is the oracle's dump bit for
//! bit, and every gain it computes is the oracle's. Every gain path —
//! `compute_mg`, CELF's one-sweep first round and the commit-free
//! queries — adds the same per-action Theorem-3 term in the same order,
//! so they agree bit for bit too. The pinned answer checksums of the
//! `overlay_kernel` suite keep the answers themselves fixed.

use crate::celf::{CelfSession, MgMode};
use crate::incremental::{self, ExtendError};
use crate::policy::CreditPolicy;
use crate::reference::CreditStoreDump;
use crate::scan::{scan_with, ScanError};
use cdim_actionlog::ActionLogDelta;
use cdim_graph::DirectedGraph;
use cdim_maxim::Selection;
use cdim_util::bytes::{
    cast_slice_f64, cast_slice_f64_mut, cast_slice_u32, cast_slice_u32_mut, cast_slice_u64,
    cast_slice_u64_mut,
};
use cdim_util::mem::prefetch;
use cdim_util::pool::parallel_for_each_mut;
use cdim_util::{AlignedBuf, HeapSize, Parallelism};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::Arc;

/// Packs an ordered user pair into a map key.
#[inline]
pub(crate) fn pair_key(v: u32, u: u32) -> u64 {
    (u64::from(v) << 32) | u64::from(u)
}

/// `1/A_u` of a user who performed `au` actions (0 for none): the one
/// derivation the scan, the splice and the spread evaluator share.
pub(crate) fn one_over_au(au: u32) -> f64 {
    match au {
        0 => 0.0,
        au => 1.0 / f64::from(au),
    }
}

/// Element counts that fully determine the arena layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactCounts {
    /// Users in the id space.
    pub num_users: usize,
    /// Actions scanned.
    pub num_actions: usize,
    /// Total user→action index entries (Σ |actions_of_user|).
    pub ua_len: usize,
    /// Out-adjacency rows (Σ per action distinct influencers).
    pub out_rows: usize,
    /// Inc-adjacency rows (Σ per action distinct targets).
    pub inc_rows: usize,
    /// Live credit entries.
    pub entries: usize,
    /// SC map entries.
    pub sc_len: usize,
    /// Committed seeds.
    pub seeds_len: usize,
}

/// Byte ranges of each arena section (relative to the arena base).
#[derive(Clone, Debug)]
struct Layout {
    ua_offsets: Range<usize>,
    ua_data: Range<usize>,
    inv_au: Range<usize>,
    out_act_rows: Range<usize>,
    out_row_user: Range<usize>,
    out_row_offsets: Range<usize>,
    out_targets: Range<usize>,
    out_credits: Range<usize>,
    inc_act_rows: Range<usize>,
    inc_row_user: Range<usize>,
    inc_row_offsets: Range<usize>,
    inc_sources: Range<usize>,
    sc_keys: Range<usize>,
    sc_vals: Range<usize>,
    seeds: Range<usize>,
    total: usize,
}

const fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// A trained state whose counts do not fit the arena's u32 offsets: the
/// first section that overflows and its element count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Overflow {
    pub(crate) section: &'static str,
    pub(crate) count: usize,
}

impl CompactCounts {
    /// Offsets are u32; every count an offset array must express has to
    /// fit (`u32::MAX` itself is reserved so `len+1`-sized arrays fit
    /// too). At ~20 bytes/entry that bound is only reachable past ~80 GB
    /// of credits, but a scan or splice that gets there reports it as a
    /// value instead of writing wrapped offsets.
    pub(crate) fn check_offsets_fit(&self) -> Result<(), Overflow> {
        for (section, count) in [
            ("ua_len", self.ua_len),
            ("out_rows", self.out_rows),
            ("inc_rows", self.inc_rows),
            ("entries", self.entries),
        ] {
            if count >= u32::MAX as usize {
                return Err(Overflow { section, count });
            }
        }
        Ok(())
    }

    fn layout(&self) -> Layout {
        let mut off = 0usize;
        let mut section = |bytes: usize| -> Range<usize> {
            let start = align8(off);
            off = start + bytes;
            start..start + bytes
        };
        let ua_offsets = section(4 * (self.num_users + 1));
        let ua_data = section(4 * self.ua_len);
        let inv_au = section(8 * self.num_users);
        let out_act_rows = section(4 * (self.num_actions + 1));
        let out_row_user = section(4 * self.out_rows);
        let out_row_offsets = section(4 * (self.out_rows + 1));
        let out_targets = section(4 * self.entries);
        let out_credits = section(8 * self.entries);
        let inc_act_rows = section(4 * (self.num_actions + 1));
        let inc_row_user = section(4 * self.inc_rows);
        let inc_row_offsets = section(4 * (self.inc_rows + 1));
        let inc_sources = section(4 * self.entries);
        let sc_keys = section(8 * self.sc_len);
        let sc_vals = section(8 * self.sc_len);
        let seeds = section(4 * self.seeds_len);
        let total = align8(off);
        Layout {
            ua_offsets,
            ua_data,
            inv_au,
            out_act_rows,
            out_row_user,
            out_row_offsets,
            out_targets,
            out_credits,
            inc_act_rows,
            inc_row_user,
            inc_row_offsets,
            inc_sources,
            sc_keys,
            sc_vals,
            seeds,
            total,
        }
    }

    /// Arena size in bytes for these counts.
    pub fn arena_len(&self) -> usize {
        self.layout().total
    }
}

/// The shared immutable payload: one arena (the credits, and any SC
/// entries and seeds) plus the metadata to slice it.
#[derive(Debug)]
pub(crate) struct CompactData {
    buf: Arc<AlignedBuf>,
    /// Byte offset of the arena inside `buf` (0 for arenas built here,
    /// the header size for snapshot-backed ones). Always 8-aligned.
    base: usize,
    pub(crate) counts: CompactCounts,
    layout: Layout,
    pub(crate) lambda: f64,
}

macro_rules! typed_section {
    ($name:ident, $cast:ident, $t:ty) => {
        #[inline]
        pub(crate) fn $name(&self) -> &[$t] {
            let r = &self.layout.$name;
            // Layout sections are 8-aligned on an 8-aligned arena base,
            // and sized as whole elements, so the cast cannot fail.
            $cast(&self.buf[self.base + r.start..self.base + r.end])
                .expect("arena section misaligned")
        }
    };
}

impl CompactData {
    typed_section!(ua_offsets, cast_slice_u32, u32);
    typed_section!(ua_data, cast_slice_u32, u32);
    typed_section!(inv_au, cast_slice_f64, f64);
    typed_section!(out_act_rows, cast_slice_u32, u32);
    typed_section!(out_row_user, cast_slice_u32, u32);
    typed_section!(out_row_offsets, cast_slice_u32, u32);
    typed_section!(out_targets, cast_slice_u32, u32);
    typed_section!(out_credits, cast_slice_f64, f64);
    typed_section!(inc_act_rows, cast_slice_u32, u32);
    typed_section!(inc_row_user, cast_slice_u32, u32);
    typed_section!(inc_row_offsets, cast_slice_u32, u32);
    typed_section!(inc_sources, cast_slice_u32, u32);
    typed_section!(sc_keys, cast_slice_u64, u64);
    typed_section!(sc_vals, cast_slice_f64, f64);
    typed_section!(seeds, cast_slice_u32, u32);

    fn arena(&self) -> &[u8] {
        &self.buf[self.base..self.base + self.layout.total]
    }

    /// Positions of `u`'s actions in `ua_data`.
    #[inline]
    fn ua_range(&self, u: u32) -> Range<usize> {
        let offs = self.ua_offsets();
        offs[u as usize] as usize..offs[u as usize + 1] as usize
    }

    /// Position of the pair `(u, a)` in `ua_data`, if `u` performed `a`.
    #[inline]
    fn ua_index(&self, u: u32, a: u32) -> Option<usize> {
        let range = self.ua_range(u);
        self.ua_data()[range.clone()].binary_search(&a).ok().map(|i| range.start + i)
    }

    /// Row-index range of action `a` in the out direction.
    #[inline]
    fn out_act_range(&self, a: u32) -> Range<usize> {
        let r = self.out_act_rows();
        r[a as usize] as usize..r[a as usize + 1] as usize
    }

    /// Row index of influencer `v` in action `a`, if `v` has a row.
    #[inline]
    fn out_row_of(&self, a: u32, v: u32) -> Option<usize> {
        let range = self.out_act_range(a);
        let users = &self.out_row_user()[range.clone()];
        users.binary_search(&v).ok().map(|i| range.start + i)
    }

    /// Entry-position range of out row `row`.
    #[inline]
    fn out_row_entries(&self, row: usize) -> Range<usize> {
        let offs = self.out_row_offsets();
        offs[row] as usize..offs[row + 1] as usize
    }

    #[inline]
    fn inc_act_range(&self, a: u32) -> Range<usize> {
        let r = self.inc_act_rows();
        r[a as usize] as usize..r[a as usize + 1] as usize
    }

    #[inline]
    fn inc_row_of(&self, a: u32, u: u32) -> Option<usize> {
        let range = self.inc_act_range(a);
        let users = &self.inc_row_user()[range.clone()];
        users.binary_search(&u).ok().map(|i| range.start + i)
    }

    #[inline]
    fn inc_row_entries(&self, row: usize) -> Range<usize> {
        let offs = self.inc_row_offsets();
        offs[row] as usize..offs[row + 1] as usize
    }

    /// Action `a`'s credits as sorted `(pair_key(v, u), Γ bits)`: two
    /// actions hold the same trained value iff their images are equal.
    fn action_bits(&self, a: u32) -> Vec<(u64, u64)> {
        self.action_entries(a).map(|(v, u, c)| (pair_key(v, u), c.to_bits())).collect()
    }

    /// Action `a`'s credits as `(v, u, Γ_{v,u})`, sorted by `(v, u)`.
    pub(crate) fn action_entries(&self, a: u32) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        let (row_user, targets, credits) =
            (self.out_row_user(), self.out_targets(), self.out_credits());
        self.out_act_range(a).flat_map(move |row| {
            self.out_row_entries(row).map(move |pos| (row_user[row], targets[pos], credits[pos]))
        })
    }

    /// Live credit entries of action `a`.
    pub(crate) fn action_len(&self, a: u32) -> usize {
        let range = self.out_act_range(a);
        let offs = self.out_row_offsets();
        (offs[range.end] - offs[range.start]) as usize
    }

    /// Dense action ids user `u` performed, ascending.
    #[inline]
    pub(crate) fn ua_row(&self, u: u32) -> &[u32] {
        &self.ua_data()[self.ua_range(u)]
    }

    /// `1 / A_u` (0 for users with no actions).
    #[inline]
    pub(crate) fn inv_au_of(&self, u: u32) -> f64 {
        self.inv_au()[u as usize]
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.buf.heap_bytes()
    }
}

// ---------------------------------------------------------------- assembly

/// Mutable typed views of every section of a fresh arena.
struct Sections<'a> {
    ua_offsets: &'a mut [u32],
    ua_data: &'a mut [u32],
    inv_au: &'a mut [f64],
    out_act_rows: &'a mut [u32],
    out_row_user: &'a mut [u32],
    out_row_offsets: &'a mut [u32],
    out_targets: &'a mut [u32],
    out_credits: &'a mut [f64],
    inc_act_rows: &'a mut [u32],
    inc_row_user: &'a mut [u32],
    inc_row_offsets: &'a mut [u32],
    inc_sources: &'a mut [u32],
    sc_keys: &'a mut [u64],
    sc_vals: &'a mut [f64],
    seeds: &'a mut [u32],
}

impl Layout {
    /// Splits `arena` (8-aligned, `self.total` bytes) into its sections.
    fn sections<'a>(&self, arena: &'a mut [u8]) -> Sections<'a> {
        let mut rest = arena;
        let mut at = 0usize;
        // Sections are taken in layout order, each past the previous one.
        let mut take = |r: &Range<usize>| -> &'a mut [u8] {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(r.start - at);
            let (section, tail) = tail.split_at_mut(r.len());
            rest = tail;
            at = r.end;
            section
        };
        let u32s = |b: &'a mut [u8]| cast_slice_u32_mut(b).expect("arena section misaligned");
        let u64s = |b: &'a mut [u8]| cast_slice_u64_mut(b).expect("arena section misaligned");
        let f64s = |b: &'a mut [u8]| cast_slice_f64_mut(b).expect("arena section misaligned");
        Sections {
            ua_offsets: u32s(take(&self.ua_offsets)),
            ua_data: u32s(take(&self.ua_data)),
            inv_au: f64s(take(&self.inv_au)),
            out_act_rows: u32s(take(&self.out_act_rows)),
            out_row_user: u32s(take(&self.out_row_user)),
            out_row_offsets: u32s(take(&self.out_row_offsets)),
            out_targets: u32s(take(&self.out_targets)),
            out_credits: f64s(take(&self.out_credits)),
            inc_act_rows: u32s(take(&self.inc_act_rows)),
            inc_row_user: u32s(take(&self.inc_row_user)),
            inc_row_offsets: u32s(take(&self.inc_row_offsets)),
            inc_sources: u32s(take(&self.inc_sources)),
            sc_keys: u64s(take(&self.sc_keys)),
            sc_vals: f64s(take(&self.sc_vals)),
            seeds: u32s(take(&self.seeds)),
        }
    }
}

/// Allocates a zeroed arena for `counts` and lets `fill` write every
/// section (the leading 0 of each offset array is already in place).
fn assemble(
    counts: CompactCounts,
    lambda: f64,
    fill: impl FnOnce(&mut Sections<'_>),
) -> Result<CompactData, Overflow> {
    counts.check_offsets_fit()?;
    let layout = counts.layout();
    let mut buf = AlignedBuf::zeroed(layout.total);
    fill(&mut layout.sections(buf.as_mut_slice()));
    Ok(CompactData { buf: Arc::new(buf), base: 0, counts, layout, lambda })
}

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
    fn push_sorted(&mut self, entries: &[(u32, u32, f64)], by_target: &mut Vec<(u32, u32)>) {
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
fn arena(
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

/// A seedless arena (the trained model's) from the scan's parts; each
/// shard block is freed as soon as the arena holds a copy of it.
pub(crate) fn store_arena(
    lambda: f64,
    ua_offsets: &[u32],
    ua_data: &[u32],
    inv_au: &[f64],
    shards: Vec<ActionRows>,
) -> Result<CompactData, Overflow> {
    arena(lambda, ua_offsets, ua_data, inv_au, shards, &[], &[])
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

impl CompactData {
    /// Incremental retraining: this state extended by an append-only
    /// action batch. Only the delta is scanned (with [`scan_with`], under
    /// `parallelism`); committed seeds are replayed over the new actions
    /// in selection order on an overlay of the delta's arena
    /// ([`OverlaySelector::update`] — Algorithm 5 never crosses an action
    /// boundary, so the old actions already reflect them), and the
    /// overlay's state ([`OverlaySelector::freeze`]) is spliced onto the
    /// arena. Without seeds the scanned arena is spliced as it is.
    ///
    /// Under the training policy the result is byte-identical to a
    /// from-scratch scan of the combined log with the same seeds replayed
    /// in order, for every `parallelism`. A mismatched batch is a typed
    /// [`ExtendError`].
    pub(crate) fn extend(
        &self,
        graph: &DirectedGraph,
        delta: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<CompactData, ExtendError> {
        incremental::validate(graph, delta, self.counts.num_users, self.counts.num_actions)?;
        let tail = self.scan(graph, delta, policy, parallelism)?;
        let mut fresh = tail.overlay();
        for &x in self.seeds() {
            fresh.update(x);
        }
        Ok(splice(self, 0, &fresh.freeze().data)?)
    }

    /// Sliding-window retraining: this state without an expired action
    /// prefix, survivors renumbered down. `expired` must be the state's
    /// first actions as a delta based at 0 (see
    /// `ActionLog::split_off_prefix`), and each user's membership count
    /// below the boundary must match it. With no seeds committed the
    /// expired actions are also rescanned and must match the stored
    /// credits bit for bit ([`ExtendError::PrefixMismatch`] otherwise);
    /// committed seeds have rewritten those credits, so then only the
    /// structural checks apply.
    ///
    /// Under the training policy the result is byte-identical to a
    /// from-scratch scan of just the surviving window with the same seeds
    /// replayed in order.
    pub(crate) fn retract(
        &self,
        graph: &DirectedGraph,
        expired: &ActionLogDelta,
        policy: &CreditPolicy,
        parallelism: Parallelism,
    ) -> Result<CompactData, ExtendError> {
        let c = self.counts;
        let k =
            incremental::validate_retract(graph, expired, c.num_users, c.num_actions, |u, k| {
                self.ua_row(u as u32).partition_point(|&a| (a as usize) < k)
            })?;
        if self.seeds().is_empty() {
            let rescanned = self.scan(graph, expired, policy, parallelism)?;
            if let Some(a) =
                (0..k as u32).find(|&a| rescanned.data.action_bits(a) != self.action_bits(a))
            {
                return Err(ExtendError::PrefixMismatch { action: a });
            }
        }
        let nothing = CompactCounts { num_users: c.num_users, ..CompactCounts::default() };
        Ok(splice(self, k, &assemble(nothing, self.lambda, |_| {})?)?)
    }

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

// ------------------------------------------------------------- public types

/// A trained model state as a read-only arena: the credits, SC entries
/// and committed seeds. The scan returns one with no seeds (UC of §5.3,
/// SC empty); queries run through [`CompactSelector::overlay`]. Cloning
/// shares the arena.
#[derive(Clone, Debug)]
pub struct CompactSelector {
    pub(crate) data: Arc<CompactData>,
}

impl CompactSelector {
    /// Incremental retraining: this model extended by an append-only
    /// action batch. Only the delta is scanned; committed seeds are
    /// replayed over the new actions, and the result is spliced onto a
    /// copy of the arena (see [`crate::incremental`] for the contract).
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
        let data = self.data.extend(graph, delta, policy, parallelism)?;
        Ok(CompactSelector { data: Arc::new(data) })
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
        let data = self.data.retract(graph, expired, policy, parallelism)?;
        Ok(CompactSelector { data: Arc::new(data) })
    }

    /// Wraps a pre-built arena — the zero-copy snapshot load path. `base`
    /// is the arena's byte offset inside `buf`; the slice
    /// `buf[base..base + counts.arena_len()]` must hold a little-endian
    /// arena laid out per the module docs. Every structural invariant
    /// (offset monotonicity, id ranges, sorted runs, finite non-negative
    /// credits, SC keys on performed actions, position bounds) is
    /// validated before any query can run, so a corrupt arena yields
    /// `Err`, never a panic or out-of-bounds access.
    pub fn from_arena(
        buf: Arc<AlignedBuf>,
        base: usize,
        counts: CompactCounts,
        lambda: f64,
    ) -> Result<CompactSelector, String> {
        counts.check_offsets_fit().map_err(|Overflow { section, count }| {
            format!("{section} = {count} exceeds the u32 offset space")
        })?;
        let layout = counts.layout();
        if !base.is_multiple_of(8) || !(buf.as_ptr() as usize + base).is_multiple_of(8) {
            return Err(format!("arena base {base} is not 8-byte-aligned"));
        }
        let end = base.checked_add(layout.total).ok_or("arena extent overflows")?;
        if end > buf.len() {
            return Err(format!(
                "arena needs {} bytes at offset {base}, buffer holds {}",
                layout.total,
                buf.len()
            ));
        }
        if lambda.is_nan() || lambda < 0.0 {
            return Err(format!("invalid lambda {lambda}"));
        }
        let data = CompactData { buf, base, counts, layout, lambda };
        validate(&data)?;
        Ok(CompactSelector { data: Arc::new(data) })
    }

    /// The raw arena bytes (what the v2 snapshot stores verbatim).
    pub fn arena(&self) -> &[u8] {
        self.data.arena()
    }

    /// The element counts (what the v2 snapshot header records).
    pub fn counts(&self) -> CompactCounts {
        self.data.counts
    }

    /// Committed seeds, in selection order.
    pub fn seeds(&self) -> &[u32] {
        self.data.seeds()
    }

    /// Users in the id space.
    pub fn num_users(&self) -> usize {
        self.data.counts.num_users
    }

    /// Actions scanned.
    pub fn num_actions(&self) -> usize {
        self.data.counts.num_actions
    }

    /// Truncation threshold λ.
    pub fn lambda(&self) -> f64 {
        self.data.lambda
    }

    /// Live credit entries — the memory driver reported in Fig 8 (right)
    /// and Table 4.
    pub fn total_entries(&self) -> usize {
        self.data.counts.entries
    }

    /// Credits of one action.
    pub fn action(&self, a: u32) -> ActionView<'_> {
        ActionView { data: &self.data, a }
    }

    /// Resident bytes of the arena (owned or mapped).
    pub fn memory_bytes(&self) -> usize {
        self.data.memory_bytes()
    }

    /// Whether the arena is an `mmap`ed file (vs owned memory).
    pub fn is_mapped(&self) -> bool {
        self.data.buf.is_mapped()
    }

    /// σ_cd(S) via Theorem 3: the marginal gains of `seeds` in the given
    /// order, each over the committed seeds and the ones before it, summed
    /// in that order. A repeated seed, or one already committed into the
    /// model, adds 0. Bit-identical to `compute_mg`/`update` on an
    /// [`overlay`](Self::overlay), without committing (see the module's
    /// *Query engine cost*).
    pub fn telescoped_spread(&self, seeds: &[u32]) -> f64 {
        sequence_gains(&self.data, seeds, false).iter().fold(0.0, |total, &g| total + g)
    }

    /// Marginal gain of `candidate` after committing `seeds` (in the given
    /// order) on top of the model's committed seeds; 0 when `candidate` is
    /// among either. Bit-identical to the overlay's commit loop, without
    /// committing.
    pub fn gain_over(&self, seeds: &[u32], candidate: u32) -> f64 {
        let mut sequence = Vec::with_capacity(seeds.len() + 1);
        sequence.extend_from_slice(seeds);
        sequence.push(candidate);
        sequence_gains(&self.data, &sequence, true)[seeds.len()]
    }

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

impl HeapSize for CompactSelector {
    fn heap_bytes(&self) -> usize {
        self.data.memory_bytes()
    }
}

/// Read view of one action's credits in a [`CompactSelector`]. Every
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

// -------------------------------------------------------------- validation

/// Structural validation of an untrusted arena. Cheap linear scans — no
/// hash maps; beside the arena it allocates one word per action and one
/// bit per user. The CRC trailer
/// (checked by the snapshot layer) covers integrity; this pass guarantees
/// that every later index access is in bounds and every traversal order
/// assumption (sorted runs) holds.
fn validate(data: &CompactData) -> Result<(), String> {
    let c = &data.counts;
    check_offsets("ua_offsets", data.ua_offsets(), c.num_users, c.ua_len)?;
    // Marginal gains, the commit-free evaluator and `retract` all walk a
    // user's actions as an ascending merge, so each row must be strictly
    // ascending as well as in range.
    for u in 0..c.num_users as u32 {
        let mut prev = -1i64;
        for &a in data.ua_row(u) {
            if a as usize >= c.num_actions {
                return Err(format!("user-action id {a} out of range ({} actions)", c.num_actions));
            }
            if i64::from(a) <= prev {
                return Err(format!("user {u}: actions not strictly ascending"));
            }
            prev = i64::from(a);
        }
    }
    if let Some((u, &x)) =
        data.inv_au().iter().enumerate().find(|(_, &x)| !(0.0..=1.0).contains(&x))
    {
        return Err(format!("user {u}: 1/A_u = {x} out of [0, 1]"));
    }

    // One fused pass per direction checks its offsets, rows and ids, and
    // folds each action's (v, u) pairs into an order-independent sum: the
    // out pass adds, the inc pass subtracts. Validation runs on every v2
    // snapshot load, so each pass ORs its violation flags without a
    // branch per entry and only re-walks a flagged action for the message.
    let mut sums = vec![0u64; c.num_actions];
    validate_direction::<true>(
        "out",
        c,
        data.out_act_rows(),
        data.out_row_user(),
        data.out_row_offsets(),
        data.out_targets(),
        c.out_rows,
        &mut sums,
    )?;
    check_credits("credit", data.out_credits())?;
    validate_direction::<false>(
        "inc",
        c,
        data.inc_act_rows(),
        data.inc_row_user(),
        data.inc_row_offsets(),
        data.inc_sources(),
        c.inc_rows,
        &mut sums,
    )?;
    // Per action, the inc direction must hold exactly the out direction's
    // (v, u) pairs. Both sides are duplicate-free (strictly sorted rows),
    // so equal sums of [`pair_hash`] stand in for a per-entry search. One
    // substituted id, or one entry moved to another row, always changes
    // the sum; a forgery of several entries can cancel, but a query
    // still stays in bounds then: the commit kernel skips an inc entry
    // with no out match.
    if let Some(a) = sums.iter().position(|&s| s != 0) {
        return Err(format!("action {a}: inc entries do not mirror the out entries"));
    }

    let keys = data.sc_keys();
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err("SC keys not strictly sorted".to_string());
    }
    // Lemma 3 only ever writes to users who performed the action, and the
    // overlay keeps SC in one slot per user-action pair.
    for &key in keys {
        let (a, u) = ((key >> 32) as u32, key as u32);
        if a as usize >= c.num_actions || u as usize >= c.num_users {
            return Err(format!("SC key ({a}, {u}) out of range"));
        }
        if data.ua_index(u, a).is_none() {
            return Err(format!("SC key ({a}, {u}): user {u} did not perform action {a}"));
        }
    }
    check_credits("SC credit", data.sc_vals())?;
    // One bit per user (1/96 of the arena's per-user bytes), so a forged
    // list of a million seeds costs a linear pass, not a quadratic one.
    let mut seen = vec![0u64; c.num_users.div_ceil(64)];
    for &s in data.seeds() {
        if s as usize >= c.num_users {
            return Err(format!("seed {s} out of range"));
        }
        let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
        if seen[word] & bit != 0 {
            return Err(format!("duplicate seed {s}"));
        }
        seen[word] |= bit;
    }
    Ok(())
}

/// What a stored credit or SC value may be: finite, sign bit clear (so
/// `+0.0` but not `−0.0`). Scans and updates only produce such values,
/// and the commit kernel's pass-through of unmarked entries relies on it.
fn is_credit(x: f64) -> bool {
    x.is_finite() && x.is_sign_positive()
}

/// [`is_credit`] without a branch: bit 63 of the result is set iff `x`
/// is not a credit. That is the sign bit, or an all-ones exponent, which
/// carries into bit 63 when one is added to its lowest bit.
#[inline]
fn credit_fault(x: f64) -> u64 {
    const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
    let b = x.to_bits();
    b | ((b & EXPONENT) + (1 << 52))
}

/// Checks every value with one OR-reduction of [`credit_fault`], and
/// searches for the first bad value only when the reduction flags one.
fn check_credits(what: &str, values: &[f64]) -> Result<(), String> {
    if values.iter().fold(0, |acc, &x| acc | credit_fault(x)) >> 63 == 0 {
        return Ok(());
    }
    match values.iter().find(|&&x| !is_credit(x)) {
        Some(x) => Err(format!("{what} {x} is not finite and non-negative")),
        None => Ok(()),
    }
}

/// Offset-array sanity: starts at 0, ends at `last`, monotone.
fn check_offsets(name: &str, offs: &[u32], len: usize, last: usize) -> Result<(), String> {
    if offs[0] != 0 {
        return Err(format!("{name}: first offset {} != 0", offs[0]));
    }
    if offs[len] as usize != last {
        return Err(format!("{name}: final offset {} != {last}", offs[len]));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{name}: offsets not monotone"));
    }
    Ok(())
}

/// One side of a pair for the mirror check: `v·0x9E37_79B9 ^ 0x85EB_CA6B`
/// in 32 bits, a bijection of `u32` (the multiplier is odd).
#[inline]
fn mix_side(v: u32) -> u32 {
    v.wrapping_mul(0x9E37_79B9) ^ 0x85EB_CA6B
}

/// The mirror check's hash of the pair `(v, u)`, given `x = u ^ mix_side(v)`:
/// `x²` as a full 32×32→64 product. For a fixed `v` (or `u`) the map to
/// `x` is a bijection and `x ↦ x²` does not wrap, so changing either id
/// of one pair always changes the hash.
#[inline]
fn pair_hash(x: u32) -> u64 {
    u64::from(x) * u64::from(x)
}

/// Fused structural sweep of one CSR direction group (`OUT`: rows are
/// influencers, ids their targets; otherwise rows are targets, ids their
/// sources): offset arrays, then per action its rows strictly ascending
/// and in range, and each row non-empty, strictly ascending, in range and
/// free of its own user. Strict ascent reduces each range check to the
/// last id. The flags of an action are ORed with no early return, and the
/// action's [`pair_hash`] sum is added to `sums[a]` (`OUT`) or subtracted
/// from it; only a flagged action is re-walked by [`locate_row_fault`].
#[allow(clippy::too_many_arguments)]
fn validate_direction<const OUT: bool>(
    name: &str,
    c: &CompactCounts,
    act_rows: &[u32],
    row_user: &[u32],
    row_offsets: &[u32],
    ids: &[u32],
    rows: usize,
    sums: &mut [u64],
) -> Result<(), String> {
    check_offsets(&format!("{name}_act_rows"), act_rows, c.num_actions, rows)?;
    check_offsets(&format!("{name}_row_offsets"), row_offsets, rows, c.entries)?;
    let num_users = c.num_users as u64;
    for (a, sum_a) in sums.iter_mut().enumerate() {
        let row_range = act_rows[a] as usize..act_rows[a + 1] as usize;
        let mut bad = false;
        let mut sum = 0u64;
        // The least id the next row's user may take.
        let mut next_owner = 0u64;
        for row in row_range.clone() {
            let owner = row_user[row];
            bad |= u64::from(owner) < next_owner;
            next_owner = u64::from(owner) + 1;
            let span = &ids[row_offsets[row] as usize..row_offsets[row + 1] as usize];
            // An empty row reads as one whose last id is out of range.
            let last = span.last().map_or(u64::MAX, |&id| u64::from(id));
            let mut row_bad = last >= num_users;
            for (&p, &q) in span.iter().zip(span.iter().skip(1)) {
                row_bad |= q <= p;
            }
            let side = mix_side(owner);
            for &id in span {
                row_bad |= id == owner;
                let x = if OUT { id ^ side } else { owner ^ mix_side(id) };
                sum = sum.wrapping_add(pair_hash(x));
            }
            bad |= row_bad;
        }
        bad |= next_owner > num_users;
        if bad {
            if let Some(fault) = locate_row_fault(name, c, row_range, row_user, row_offsets, ids, a)
            {
                return Err(fault);
            }
        }
        *sum_a = if OUT { sum_a.wrapping_add(sum) } else { sum_a.wrapping_sub(sum) };
    }
    Ok(())
}

/// The first fault of action `a`'s rows in one direction, as the message
/// a load reports; `None` if the rows are well-formed.
fn locate_row_fault(
    name: &str,
    c: &CompactCounts,
    row_range: Range<usize>,
    row_user: &[u32],
    row_offsets: &[u32],
    ids: &[u32],
    a: usize,
) -> Option<String> {
    let users = &row_user[row_range.clone()];
    if users.windows(2).any(|w| w[0] >= w[1]) {
        return Some(format!("{name} rows of action {a} not strictly sorted"));
    }
    if let Some(&v) = users.iter().find(|&&v| v as usize >= c.num_users) {
        return Some(format!("{name} row user {v} out of range"));
    }
    for row in row_range {
        let owner = row_user[row];
        let span = &ids[row_offsets[row] as usize..row_offsets[row + 1] as usize];
        if span.is_empty() {
            return Some(format!("{name} row {row} is empty"));
        }
        if let Some(&id) = span.iter().find(|&&id| id as usize >= c.num_users || id == owner) {
            return Some(format!("{name} row {row}: invalid counterparty {id}"));
        }
        if span.windows(2).any(|w| w[0] >= w[1]) {
            return Some(format!("{name} row {row} entries not strictly sorted"));
        }
    }
    None
}

// ------------------------------------------------------------ query engine

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
    fn action_gain(
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

    /// The paper's literal Algorithm 4: like [`Self::compute_mg`] but the
    /// self term is only added for actions where `x` holds outgoing
    /// credit. Kept for the `ablate-mg` experiment.
    pub fn compute_mg_pseudocode(&self, x: u32) -> f64 {
        self.mg(x, MgMode::Pseudocode)
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
    fn commit(&mut self, x: u32, threads: usize, min_entries: usize) {
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

// ------------------------------------------------------ commit-free queries

/// Theorem-3 gain of each position of the sequence `q` over `data`'s
/// state, each evaluated after committing the positions before it: what
/// an [`OverlaySelector`] returns from `compute_mg(q[i])` after
/// `update(q[0])`, …, `update(q[i − 1])`, bit for bit, without committing
/// anything. A repeated user, or one committed in the arena, gains 0.
/// With `last_only`, only the last position is evaluated (the others come
/// back 0).
///
/// Why it is exact. A commit of `x` in action `a` changes only action-`a`
/// state, and a later gain or commit of a sequence user `y` in `a` reads
/// only `y`'s out row and `Γ_{S,y}(a)`. The commit writes those from
/// `x`'s out row alone: Lemma 3 adds `Γ_{x,y}·(1 − Γ_{S,x})` to
/// `Γ_{S,y}`, the column retirement removes `(y, x)`, and Lemma 2
/// subtracts `Γ_{y,x}·Γ_{x,u}` from `y`'s row. So the rows and SC values
/// of the sequence users form a closed system: per action, the evaluator
/// copies just those rows and replays each earlier user's commit on them
/// with the kernel's expressions ([`apply_seed_to_action`]). Actions are
/// visited in ascending order, each user's terms summed in that order,
/// which is the order `compute_mg` sums them in.
///
/// Cost: per visited action, one binary search in `sc_keys` and one row
/// lookup per sequence user that performed it, a copy of those users'
/// out rows after the first, and per ordered pair of them two binary
/// searches and one merge of their rows. Actions are those of the users
/// evaluated; nothing of model size is copied or allocated.
fn sequence_gains(data: &CompactData, q: &[u32], last_only: bool) -> Vec<f64> {
    // Users whose gain or commit can matter: first appearances of users
    // not committed in the arena, in sequence order.
    let committed = data.seeds();
    let mut users: Vec<u32> = Vec::with_capacity(q.len());
    let mut position = Vec::with_capacity(q.len());
    for (i, &x) in q.iter().enumerate() {
        if !committed.contains(&x) && !users.contains(&x) {
            users.push(x);
            position.push(i);
        }
    }
    let wanted: Vec<bool> = position.iter().map(|&i| !last_only || i + 1 == q.len()).collect();
    let actions: Vec<&[u32]> = users.iter().map(|&x| data.ua_row(x)).collect();
    let mut cursor = vec![0usize; users.len()];
    let mut gains = vec![0.0f64; users.len()];
    let mut scratch = ReplayScratch::default();
    loop {
        // The next action a wanted user performed; every user's cursor
        // then moves past it, noting who performed it.
        let next =
            (0..users.len()).filter(|&i| wanted[i]).filter_map(|i| actions[i].get(cursor[i]));
        let Some(&a) = next.min() else { break };
        scratch.present.clear();
        for (i, row) in actions.iter().enumerate() {
            cursor[i] += row[cursor[i]..].partition_point(|&b| b < a);
            if row.get(cursor[i]) == Some(&a) {
                cursor[i] += 1;
                scratch.present.push(i);
            }
        }
        // Commits after the last wanted user change nothing it reads.
        while scratch.present.last().is_some_and(|&i| !wanted[i]) {
            scratch.present.pop();
        }
        replay_action(data, a, &users, &wanted, &mut gains, &mut scratch);
    }
    let mut out = vec![0.0f64; q.len()];
    for (&at, &g) in position.iter().zip(&gains) {
        out[at] = g;
    }
    out
}

/// Buffers of [`sequence_gains`], reused across actions.
#[derive(Default)]
struct ReplayScratch {
    /// Indices into the sequence's users that performed the action, in
    /// sequence order.
    present: Vec<usize>,
    /// Per present user: `Γ_{S,y}(a)`, its out-row entry range in the
    /// arena, and where its copied credits start in `vals`.
    rows: Vec<(f64, Range<usize>, usize)>,
    /// Copied credits of the present users after the first.
    vals: Vec<f64>,
}

/// One action of [`sequence_gains`]: takes each present user's gain term
/// in sequence order, then replays its commit onto the later present
/// users' rows and SC values.
fn replay_action(
    data: &CompactData,
    a: u32,
    users: &[u32],
    wanted: &[bool],
    gains: &mut [f64],
    scratch: &mut ReplayScratch,
) {
    let (credits, targets) = (data.out_credits(), data.out_targets());
    let (sc_keys, sc_vals) = (data.sc_keys(), data.sc_vals());
    let ReplayScratch { present, rows, vals } = scratch;
    rows.clear();
    vals.clear();
    for (j, &i) in present.iter().enumerate() {
        let y = users[i];
        let sc = sc_keys.binary_search(&pair_key(a, y)).map_or(0.0, |k| sc_vals[k]);
        let row = data.out_row_of(a, y).map_or(0..0, |r| data.out_row_entries(r));
        // The first user's row is read before any commit, so it is read
        // from the arena; later rows are copied for the commits to write.
        let at = vals.len();
        if j > 0 {
            vals.extend_from_slice(&credits[row.clone()]);
        }
        rows.push((sc, row, at));
    }

    for (j, &i) in present.iter().enumerate() {
        let x = users[i];
        let (sc_x, row_x, at_x) = rows[j].clone();
        let xt = &targets[row_x.clone()];
        // Rows after x's start at `split` in `vals`.
        let split = if j == 0 { 0 } else { at_x + xt.len() };
        let (head, tail) = vals.split_at_mut(split);
        let xv: &[f64] = if j == 0 { &credits[row_x] } else { &head[at_x..] };

        // The term compute_mg adds for this action.
        let (inv_x, one_minus) = (data.inv_au_of(x), (1.0 - sc_x).max(0.0));
        if wanted[i] && inv_x != 0.0 {
            gains[i] += data.action_gain(MgMode::Theorem3, inv_x, one_minus, xv, xt);
        }

        // Commit x onto the later present users (apply_seed_to_action's
        // expressions).
        for k in j + 1..present.len() {
            let y = users[present[k]];
            if let Ok(p) = xt.binary_search(&y) {
                if !xv[p].is_nan() {
                    rows[k].0 = (rows[k].0 + xv[p] * one_minus).min(1.0);
                }
            }
            let (_, ref row_y, at_y) = rows[k];
            let yt = &targets[row_y.clone()];
            let yv = &mut tail[at_y - split..at_y - split + yt.len()];
            if let Ok(p) = yt.binary_search(&x) {
                let cyx = yv[p];
                if !cyx.is_nan() {
                    yv[p] = f64::NAN;
                    subtract_row(yv, yt, cyx, xv, xt);
                }
            }
        }
    }
}

/// Lemma 2 on one copied row `y`: for each entry whose target holds a
/// live entry in `x`'s row, `c − c_yx·c_xu`, removed (`NaN`) at ≤ 1e-15.
/// Both rows are sorted by target, so one merge finds the pairs.
fn subtract_row(yv: &mut [f64], yt: &[u32], cyx: f64, xv: &[f64], xt: &[u32]) {
    let mut p = 0;
    for (c, &u) in yv.iter_mut().zip(yt) {
        while p < xt.len() && xt[p] < u {
            p += 1;
        }
        if p == xt.len() {
            break;
        }
        if xt[p] == u && !xv[p].is_nan() {
            let left = *c - cyx * xv[p];
            *c = if left <= 1e-15 { f64::NAN } else { left };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CreditPolicy;
    use crate::reference::{self, CdSelector, SelectorDump};
    use crate::scan::scan;
    use cdim_actionlog::{ActionLog, ActionLogBuilder};
    use cdim_graph::{DirectedGraph, GraphBuilder};
    use cdim_util::Rng;

    /// Deterministic random instance: `n` users, `actions` actions.
    fn random_instance(seed: u64, n: u32, actions: u32) -> (DirectedGraph, ActionLog) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..n {
            for u in 0..n {
                if v != u && rng.bool(0.12) {
                    edges.push((v, u));
                }
            }
        }
        let graph = GraphBuilder::new(n as usize).edges(edges).build();
        let mut b = ActionLogBuilder::new(n as usize);
        for a in 0..actions {
            let mut t = 0.0;
            for u in 0..n {
                if rng.bool(0.4) {
                    t += rng.range_f64(0.1, 1.0);
                    b.push(u, a, t);
                }
            }
        }
        (graph, b.build())
    }

    /// `model` with `seeds` committed in order, frozen.
    fn committed(model: &CompactSelector, seeds: &[u32]) -> CompactSelector {
        let mut overlay = model.overlay();
        for &s in seeds {
            overlay.update(s);
        }
        overlay.freeze()
    }

    /// A random instance's model with its first `k` CELF seeds committed,
    /// as a dump.
    fn trained_dump(seed: u64, k: usize) -> SelectorDump {
        let (graph, log) = random_instance(seed, 40, 12);
        let model = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        reference::dump_of(&committed(&model, &model.overlay().select(k).seeds))
    }

    /// Commits `seeds` in order on an overlay and on the oracle, both
    /// restored from `dump`. Before the first commit and after each, the
    /// overlay's frozen state is the oracle's dump bit for bit, and every
    /// user's gain agrees bit for bit in both modes, from `compute_mg` and
    /// from CELF's one-sweep first pass. Those are all the values CELF
    /// reads.
    pub(super) fn assert_replay_matches_oracle(dump: &SelectorDump, seeds: &[u32]) {
        assert_commits_match_oracle(dump, seeds, OverlaySelector::update);
    }

    /// [`assert_replay_matches_oracle`] with each overlay commit made by
    /// `commit`.
    fn assert_commits_match_oracle(
        dump: &SelectorDump,
        seeds: &[u32],
        commit: impl Fn(&mut OverlaySelector, u32),
    ) {
        let mut oracle = CdSelector::from_dump(dump);
        let mut overlay = reference::arena_of(dump).overlay();
        for step in 0..=seeds.len() {
            if step > 0 {
                oracle.update(seeds[step - 1]);
                commit(&mut overlay, seeds[step - 1]);
            }
            let done = &seeds[..step];
            let state = reference::dump_of(&overlay.freeze());
            assert!(dump_bits(&state) == dump_bits(&oracle.dump()), "state after {done:?}");
            for mode in [MgMode::Theorem3, MgMode::Pseudocode] {
                let swept = overlay.gains(mode);
                for x in 0..dump.store.inv_au.len() as u32 {
                    let want = oracle_mg(&oracle, x, mode).to_bits();
                    let got = overlay.mg(x, mode).to_bits();
                    assert_eq!(got, want, "{mode:?} gain of {x} after {done:?}");
                    let got = swept[x as usize].to_bits();
                    assert_eq!(got, want, "{mode:?} first-pass gain of {x} after {done:?}");
                }
            }
        }
    }

    /// Commits `seeds` on 1, 2, 3 and 8 shards with no entry threshold,
    /// so every commit with two or more actions is split, and on the
    /// calling thread alone. After every commit the sharded session's
    /// frozen arena and every user's gain in both modes, from `mg` and
    /// from the one-sweep first round, are the serial kernel's bit for
    /// bit, and the sharded replay is the oracle's.
    pub(super) fn assert_sharded_commits_match_serial(dump: &SelectorDump, seeds: &[u32]) {
        let model = reference::arena_of(dump);
        for shards in [1usize, 2, 3, 8] {
            let (mut serial, mut sharded) = (model.overlay(), model.overlay());
            for (step, &x) in seeds.iter().enumerate() {
                serial.commit(x, 1, usize::MAX);
                sharded.commit(x, shards, 0);
                let case = format!("{shards} shards, after {:?}", &seeds[..=step]);
                assert!(sharded.freeze().arena() == serial.freeze().arena(), "state, {case}");
                for mode in [MgMode::Theorem3, MgMode::Pseudocode] {
                    let (want, got) = (serial.gains(mode), sharded.gains(mode));
                    for u in 0..model.num_users() as u32 {
                        let want_bits = serial.mg(u, mode).to_bits();
                        assert_eq!(
                            sharded.mg(u, mode).to_bits(),
                            want_bits,
                            "{mode:?} {u}, {case}"
                        );
                        let bits = (got[u as usize].to_bits(), want[u as usize].to_bits());
                        assert_eq!(bits.0, bits.1, "{mode:?} first-round {u}, {case}");
                    }
                }
            }
            assert_commits_match_oracle(dump, seeds, |overlay, x| overlay.commit(x, shards, 0));
        }
    }

    /// The oracle's gain of `x` under `mode`.
    fn oracle_mg(oracle: &CdSelector, x: u32, mode: MgMode) -> f64 {
        match mode {
            MgMode::Theorem3 => oracle.compute_mg(x),
            MgMode::Pseudocode => oracle.compute_mg_pseudocode(x),
        }
    }

    /// Holds a CELF run from `dump` to the oracle: each committed gain is
    /// the oracle's gain of the seed just before its commit, and the seeds
    /// then replay on the oracle ([`assert_replay_matches_oracle`]).
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
        assert_replay_matches_oracle(dump, fresh);
    }

    #[test]
    fn model_views_read_the_dumped_entries() {
        let dump = SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![0, 1], vec![0], vec![1], vec![0, 1]],
                inv_au: vec![0.5, 1.0, 1.0, 0.5],
                credits: vec![vec![(0, 1, 0.5)], vec![(0, 3, 0.25), (2, 3, 0.25)]],
            },
            ..SelectorDump::default()
        };
        let model = reference::arena_of(&dump);
        assert_eq!(model.total_entries(), 3);
        assert!(model.memory_bytes() > 0);
        assert_eq!(reference::dump_of(&model), dump);
        let ac = model.action(1);
        assert_eq!(ac.len(), 2);
        assert_eq!(ac.entries().collect::<Vec<_>>(), vec![(0, 3, 0.25), (2, 3, 0.25)]);
        assert!(model.action(0).entries().eq([(0, 1, 0.5)]));
        let store = reference::dump_of(&model).store;
        assert_eq!(store.user_actions[3], [0, 1]);
        assert_eq!(store.inv_au[1], 1.0);
        // Clones share the arena.
        assert_eq!(model.clone().memory_bytes(), model.memory_bytes());
        assert!(Arc::ptr_eq(&model.clone().data, &model.data));
    }

    #[test]
    fn counts_and_arena_len_are_consistent() {
        let dump = trained_dump(7, 2);
        let sel = reference::arena_of(&dump);
        let counts = sel.counts();
        assert_eq!(counts.num_users, 40);
        assert_eq!(counts.num_actions, 12);
        assert_eq!(counts.seeds_len, 2);
        assert_eq!(counts.sc_len, dump.sc.len());
        assert_eq!(counts.ua_len, dump.store.user_actions.iter().map(Vec::len).sum::<usize>());
        assert_eq!(counts.entries, dump.store.credits.iter().map(Vec::len).sum::<usize>());
        let sources = |a: &Vec<(u32, u32, f64)>| {
            let mut vs: Vec<u32> = a.iter().map(|e| e.0).collect();
            vs.dedup();
            vs.len()
        };
        assert_eq!(counts.out_rows, dump.store.credits.iter().map(sources).sum::<usize>());
        assert_eq!(sel.arena().len(), counts.arena_len());
        assert_eq!(sel.arena().len() % 8, 0);
    }

    #[test]
    fn freeze_round_trips_the_dump() {
        for (seed, committed) in [(1u64, 0usize), (2, 1), (3, 3)] {
            let dump = trained_dump(seed, committed);
            let compact = reference::arena_of(&dump);
            assert_eq!(reference::dump_of(&compact), dump, "dump_of (seed {seed})");
        }
    }

    #[test]
    fn empty_state_freezes() {
        let dump = SelectorDump::default();
        let compact = reference::arena_of(&dump);
        assert_eq!(reference::dump_of(&compact), dump);
        assert_eq!(compact.total_entries(), 0);
        let sel = compact.overlay().select(3);
        assert!(sel.seeds.is_empty());
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

    /// Bitwise image of a dump: `(action, v, u, bits)` credits, then
    /// `(action, u, bits)` SC entries, then seeds.
    type DumpBits = (Vec<(usize, u32, u32, u64)>, Vec<(u32, u32, u64)>, Vec<u32>);

    fn dump_bits(dump: &SelectorDump) -> DumpBits {
        let credits = dump
            .store
            .credits
            .iter()
            .enumerate()
            .flat_map(|(a, es)| es.iter().map(move |&(v, u, c)| (a, v, u, c.to_bits())))
            .collect();
        let sc = dump.sc.iter().map(|&(a, u, c)| (a, u, c.to_bits())).collect();
        (credits, sc, dump.seeds.clone())
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
        assert_replay_matches_oracle(&dump, &[1]);
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

    #[test]
    fn from_arena_accepts_a_frozen_arena() {
        let dump = trained_dump(55, 2);
        let compact = reference::arena_of(&dump);
        let buf = Arc::new(AlignedBuf::from_bytes(compact.arena()));
        let reloaded =
            CompactSelector::from_arena(buf, 0, compact.counts(), compact.lambda()).unwrap();
        assert_eq!(reference::dump_of(&reloaded), dump);
        assert!(!reloaded.is_mapped());
    }

    #[test]
    fn from_arena_rejects_structural_corruption() {
        let dump = trained_dump(66, 1);
        let compact = reference::arena_of(&dump);
        let counts = compact.counts();
        let lambda = compact.lambda();
        let layout = counts.layout();
        let pristine = compact.arena().to_vec();

        let expect_err = |bytes: &[u8], what: &str| {
            let buf = Arc::new(AlignedBuf::from_bytes(bytes));
            assert!(
                CompactSelector::from_arena(buf, 0, counts, lambda).is_err(),
                "corruption not caught: {what}"
            );
        };

        // Too short for the layout.
        expect_err(&pristine[..pristine.len() - 8], "truncated arena");

        // Break ua_offsets monotonicity / final offset.
        let mut bad = pristine.clone();
        bad[layout.ua_offsets.start..layout.ua_offsets.start + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        expect_err(&bad, "ua_offsets[0] != 0");

        // Out-of-range action id in ua_data, as the last of a user's
        // actions (so the row stays ascending) that no SC key names.
        let u = (0..counts.num_users as u32)
            .find(|&u| {
                compact
                    .data
                    .ua_row(u)
                    .last()
                    .is_some_and(|&a| !dump.sc.iter().any(|e| (e.0, e.1) == (a, u)))
            })
            .expect("a user with actions");
        let at =
            layout.ua_data.start + 4 * (compact.data.ua_offsets()[u as usize + 1] as usize - 1);
        let mut bad = pristine.clone();
        bad[at..at + 4].copy_from_slice(&(counts.num_actions as u32).to_le_bytes());
        expect_err(&bad, "ua_data action out of range");

        // A user's actions out of order: a swapped pair, then a duplicate.
        if let Some(u) = (0..counts.num_users as u32).find(|&u| compact.data.ua_row(u).len() >= 2) {
            let at = layout.ua_data.start + 4 * compact.data.ua_offsets()[u as usize] as usize;
            let mut bad = pristine.clone();
            let (x, y) = (bad[at..at + 4].to_vec(), bad[at + 4..at + 8].to_vec());
            bad[at..at + 4].copy_from_slice(&y);
            bad[at + 4..at + 8].copy_from_slice(&x);
            expect_err(&bad, "swapped actions in a user's row");
            let mut bad = pristine.clone();
            bad.copy_within(at..at + 4, at + 4);
            expect_err(&bad, "duplicate action in a user's row");
        }

        // 1/A_u outside [0, 1].
        for x in [1.5f64, f64::NAN] {
            let mut bad = pristine.clone();
            bad[layout.inv_au.start..layout.inv_au.start + 8].copy_from_slice(&x.to_le_bytes());
            expect_err(&bad, &format!("1/A_u = {x}"));
        }

        // SC keys: a repeated key (still sorted by `<=`), and a last key
        // whose user is out of range (still the largest key).
        assert!(counts.sc_len >= 2, "the case needs two SC keys");
        let key = |bytes: &[u8], i: usize| {
            let at = layout.sc_keys.start + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        };
        let mut bad = pristine.clone();
        let first = key(&pristine, 0);
        bad[layout.sc_keys.start + 8..layout.sc_keys.start + 16]
            .copy_from_slice(&first.to_le_bytes());
        expect_err(&bad, "repeated SC key");
        let mut bad = pristine.clone();
        let last = layout.sc_keys.start + 8 * (counts.sc_len - 1);
        let forged = pair_key(counts.num_actions as u32 - 1, counts.num_users as u32);
        assert!(forged > key(&pristine, counts.sc_len - 1));
        bad[last..last + 8].copy_from_slice(&forged.to_le_bytes());
        expect_err(&bad, "SC key user out of range");

        // A direction's final offsets one past their sections: the
        // action → rows offsets of the out direction, the row → entries
        // offsets of the inc direction.
        for (section, past) in
            [(&layout.out_act_rows, counts.out_rows), (&layout.inc_row_offsets, counts.entries)]
        {
            let mut bad = pristine.clone();
            bad[section.end - 4..section.end].copy_from_slice(&(past as u32 + 1).to_le_bytes());
            expect_err(&bad, "final offset past its section");
        }

        // Non-finite credit.
        if counts.entries > 0 {
            let mut bad = pristine.clone();
            bad[layout.out_credits.start..layout.out_credits.start + 8]
                .copy_from_slice(&f64::NAN.to_le_bytes());
            expect_err(&bad, "NaN credit");
        }

        // Unsorted out row users: swap the first two rows of some action
        // with two rows.
        if let Some(a) = (0..counts.num_actions).find(|&a| {
            let r = &compact.data.out_act_rows();
            r[a + 1] - r[a] >= 2
        }) {
            let first = compact.data.out_act_rows()[a] as usize;
            let mut bad = pristine.clone();
            let at = layout.out_row_user.start + 4 * first;
            let (x, y) = (bad[at..at + 4].to_vec(), bad[at + 4..at + 8].to_vec());
            bad[at..at + 4].copy_from_slice(&y);
            bad[at + 4..at + 8].copy_from_slice(&x);
            expect_err(&bad, "unsorted out rows");
        }

        // Mispaired inc source: bump the first inc entry's source id.
        // Whatever it lands on — out of range, the row's own user, a
        // duplicate breaking strict sortedness, or a (v, u) pair absent
        // from the out direction — some check must notice.
        if counts.entries > 0 && counts.num_users >= 2 {
            let mut bad = pristine.clone();
            let v0 = u32::from_le_bytes(
                bad[layout.inc_sources.start..layout.inc_sources.start + 4].try_into().unwrap(),
            );
            let bumped = if (v0 as usize) + 1 < counts.num_users { v0 + 1 } else { v0 - 1 };
            bad[layout.inc_sources.start..layout.inc_sources.start + 4]
                .copy_from_slice(&bumped.to_le_bytes());
            expect_err(&bad, "mispaired inc entry");
        }

        // A credit or SC value with its sign bit set: negative, or −0.0,
        // which the commit kernel's pass-through would turn into +0.0.
        for (section, what) in [(&layout.out_credits, "credit"), (&layout.sc_vals, "SC value")] {
            assert!(section.len() >= 8, "the case needs a {what}");
            for x in [-0.25f64, -0.0] {
                let mut bad = pristine.clone();
                bad[section.start..section.start + 8].copy_from_slice(&x.to_le_bytes());
                expect_err(&bad, &format!("{what} {x:?}"));
            }
        }

        // An SC key whose user did not perform its action: the overlay's
        // dense SC has no slot for it. The forged dump keeps the keys
        // sorted, so only this check can reject it.
        let (a, u) = (0..counts.num_actions as u32)
            .flat_map(|a| (0..counts.num_users as u32).map(move |u| (a, u)))
            .filter(|&(a, u)| !dump.store.user_actions[u as usize].contains(&a))
            .find(|&(a, u)| dump.sc.iter().all(|&(b, w, _)| pair_key(b, w) < pair_key(a, u)))
            .expect("a pair after every SC key");
        let mut forged = dump.clone();
        forged.sc.push((a, u, 0.5));
        let forged = reference::arena_of(&forged);
        let buf = Arc::new(AlignedBuf::from_bytes(forged.arena()));
        assert!(
            CompactSelector::from_arena(buf, 0, forged.counts(), lambda).is_err(),
            "corruption not caught: SC key of a user who did not perform the action"
        );

        // A seed out of range.
        let mut bad = pristine.clone();
        bad[layout.seeds.start..layout.seeds.start + 4]
            .copy_from_slice(&(counts.num_users as u32).to_le_bytes());
        expect_err(&bad, "seed out of range");

        // The pristine arena still loads (guards against over-strictness).
        let buf = Arc::new(AlignedBuf::from_bytes(&pristine));
        CompactSelector::from_arena(buf, 0, counts, lambda).unwrap();
    }

    #[test]
    fn from_arena_rejects_a_duplicate_seed() {
        let compact = reference::arena_of(&trained_dump(66, 3));
        let (counts, seeds) = (compact.counts(), compact.counts().layout().seeds);
        assert!(counts.seeds_len >= 2, "the case needs two seeds");
        let load = |bytes: &[u8]| {
            let buf = Arc::new(AlignedBuf::from_bytes(bytes));
            CompactSelector::from_arena(buf, 0, counts, compact.lambda())
        };
        let mut bad = compact.arena().to_vec();
        load(&bad).unwrap();
        bad.copy_within(seeds.start..seeds.start + 4, seeds.start + 4);
        assert!(load(&bad).is_err(), "corruption not caught: duplicate seed");
    }

    #[test]
    fn from_arena_rejects_misaligned_base() {
        let dump = trained_dump(77, 0);
        let compact = reference::arena_of(&dump);
        let mut padded = vec![0u8; 4];
        padded.extend_from_slice(compact.arena());
        padded.resize((padded.len() + 7) & !7, 0);
        let buf = Arc::new(AlignedBuf::from_bytes(&padded));
        assert!(CompactSelector::from_arena(buf, 4, compact.counts(), compact.lambda()).is_err());
    }

    /// One action's rows of a CSR direction group, as `(row user, ids)`.
    type GroupRows<'a> = &'a [(u32, &'a [u32])];

    /// One CSR direction group of `num_users` users, validated as the out
    /// and as the inc direction; the sums they leave are not checked here.
    fn validate_group(num_users: usize, actions: &[GroupRows<'_>]) -> [Result<(), String>; 2] {
        let (mut act_rows, mut row_user, mut row_offsets, mut ids) =
            (vec![0u32], Vec::new(), vec![0u32], Vec::new());
        for rows in actions {
            for &(owner, span) in rows.iter() {
                row_user.push(owner);
                ids.extend_from_slice(span);
                row_offsets.push(ids.len() as u32);
            }
            act_rows.push(row_user.len() as u32);
        }
        let c = CompactCounts {
            num_users,
            num_actions: actions.len(),
            entries: ids.len(),
            ..CompactCounts::default()
        };
        let rows = row_user.len();
        let mut sums = vec![0; actions.len()];
        [
            validate_direction::<true>(
                "out",
                &c,
                &act_rows,
                &row_user,
                &row_offsets,
                &ids,
                rows,
                &mut sums,
            ),
            validate_direction::<false>(
                "inc",
                &c,
                &act_rows,
                &row_user,
                &row_offsets,
                &ids,
                rows,
                &mut sums,
            ),
        ]
    }

    #[test]
    fn each_row_fault_is_reported_by_its_own_check() {
        let ok: GroupRows<'_> = &[(0, &[1, 2]), (2, &[3])];
        assert_eq!(validate_group(4, &[ok, &[(1, &[0, 3])]]), [Ok(()), Ok(())]);
        // Each case breaks one rule in the second action, after a valid
        // first one; the message names the rule.
        let cases: [(GroupRows<'_>, &str); 9] = [
            (&[(2, &[3]), (0, &[1])], "rows of action 1 not strictly sorted"),
            (&[(0, &[1]), (0, &[2])], "rows of action 1 not strictly sorted"),
            (&[(0, &[1]), (4, &[1])], "row user 4 out of range"),
            (&[(0, &[1]), (1, &[])], "row 3 is empty"),
            (&[(0, &[1, 4])], "row 2: invalid counterparty 4"),
            (&[(1, &[0, 1])], "row 2: invalid counterparty 1"),
            (&[(3, &[2, 1])], "row 2 entries not strictly sorted"),
            (&[(3, &[1, 1])], "row 2 entries not strictly sorted"),
            (&[(0, &[1, 2]), (3, &[0, 1, 2, 2])], "row 3 entries not strictly sorted"),
        ];
        for (rows, want) in cases {
            for (name, got) in ["out", "inc"].into_iter().zip(validate_group(4, &[ok, rows])) {
                assert_eq!(got, Err(format!("{name} {want}")), "{rows:?}");
            }
        }
        // The offset arrays: first offset, final offset, monotone.
        assert!(check_offsets("x", &[1, 2, 3], 2, 3).is_err());
        assert!(check_offsets("x", &[0, 2, 2], 2, 3).is_err());
        assert!(check_offsets("x", &[0, 2, 1, 3], 3, 3).is_err());
        assert!(check_offsets("x", &[0, 0, 1, 3], 3, 3).is_ok());
    }

    #[test]
    fn credit_fault_is_is_credit_on_edge_bit_patterns() {
        let quiet = f64::from_bits(0x7FF8_0000_0000_0000);
        let signalling = f64::from_bits(0x7FF0_0000_0000_0001);
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            quiet,
            -quiet,
            signalling,
            -signalling,
            f64::from_bits(u64::MAX),
            1.0,
        ];
        for x in edges {
            assert_eq!(credit_fault(x) >> 63 == 0, is_credit(x), "{:#018x}", x.to_bits());
            assert_eq!(check_credits("credit", &[0.5, x, 0.25]).is_ok(), is_credit(x));
        }
    }

    /// An arena of `num_users` users with no actions and `seeds`.
    fn seeded_arena(num_users: usize, seeds: &[u32]) -> Result<CompactSelector, String> {
        let data =
            arena(0.0, &vec![0; num_users + 1], &[], &vec![0.0; num_users], vec![], &[], seeds)
                .unwrap();
        let buf = Arc::new(AlignedBuf::from_bytes(data.arena()));
        CompactSelector::from_arena(buf, 0, data.counts, 0.0)
    }

    #[test]
    fn a_million_seeds_validate_in_linear_time() {
        const N: u32 = 1_000_000;
        let mut seeds: Vec<u32> = (0..N).rev().collect();
        let start = std::time::Instant::now();
        assert!(seeded_arena(N as usize, &seeds).is_ok());
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "{N} seeds took {took:?}");

        *seeds.last_mut().unwrap() = seeds[0];
        assert_eq!(
            seeded_arena(N as usize, &seeds).err(),
            Some(format!("duplicate seed {}", seeds[0]))
        );
        assert_eq!(seeded_arena(4, &[1, 4]).err(), Some("seed 4 out of range".to_string()));
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

    /// The commit loop the commit-free `gain_over` replaces.
    fn committed_gain(compact: &CompactSelector, seeds: &[u32], candidate: u32) -> f64 {
        let mut overlay = compact.overlay();
        for &s in seeds {
            overlay.update(s);
        }
        overlay.compute_mg(candidate)
    }

    #[test]
    fn zero_credit_targets_are_marked_without_committing() {
        // Seed 1 passes 0.0 to user 2, and 0 holds 1e-15 over 2: Lemma 2
        // leaves 1e-15 − 0.5·0.0 ≤ 1e-15 and removes (0, 2), so 0's gain
        // over {1} is its self term alone. A replay that marked targets by
        // credit value would keep the 1e-15.
        let dump = SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: vec![vec![0]; 3],
                inv_au: vec![1.0; 3],
                credits: vec![vec![(0, 1, 0.5), (0, 2, 1e-15), (1, 2, 0.0)]],
            },
            sc: Vec::new(),
            seeds: Vec::new(),
        };
        let compact = reference::arena_of(&dump);
        assert_eq!(compact.gain_over(&[1], 0), 1.0);
        assert_eq!(
            compact.gain_over(&[1], 0).to_bits(),
            committed_gain(&compact, &[1], 0).to_bits()
        );
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
        assert_replay_matches_oracle(&dump, &[4, 1]);
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
        assert_replay_matches_oracle(&dump, &[0, 1]);
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

    /// `log` scanned under `policy`, `seeds` committed in order, frozen.
    pub(super) fn frozen(
        graph: &DirectedGraph,
        log: &ActionLog,
        policy: &CreditPolicy,
        lambda: f64,
        seeds: &[u32],
    ) -> CompactSelector {
        committed(&scan(graph, log, policy, lambda).unwrap(), seeds)
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
    use super::tests::{assert_replay_matches_oracle, assert_sharded_commits_match_serial, frozen};
    use super::*;
    use crate::policy::CreditPolicy;
    use crate::reference::{self, SelectorDump};
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    /// Credits and SC values that reach the kernel's edge cases: a stored
    /// `0.0`, values around the 1e-15 removal threshold, products that
    /// cancel a credit exactly, and the SC clamp at 1.
    const VALUES: [f64; 8] = [0.0, 1e-16, 1e-15, 0.25, 0.5, 1.0, 0.3, 0.7];

    /// The commit-free answers equal the overlay's commit loop bit for
    /// bit: σ of `q` in order, and the gain of every user over `q`.
    fn assert_commit_free_matches(compact: &CompactSelector, q: &[u32]) {
        let mut overlay = compact.overlay();
        let mut total = 0.0;
        for (i, &s) in q.iter().enumerate() {
            total += overlay.compute_mg(s);
            if i + 1 < q.len() {
                overlay.update(s);
            }
        }
        assert_eq!(compact.telescoped_spread(q).to_bits(), total.to_bits(), "spread of {q:?}");
        if let Some(&last) = q.last() {
            overlay.update(last);
        }
        for x in 0..compact.num_users() as u32 {
            assert_eq!(
                compact.gain_over(q, x).to_bits(),
                overlay.compute_mg(x).to_bits(),
                "gain of {x} over {q:?}"
            );
        }
    }

    /// A hand-built λ = 0 state: `entries` are `(v, u, action, value)`
    /// credits (self-credits and repeats dropped), `extra` more
    /// `(user, action)` pairs performed, `sc` are `(action, user, value)`
    /// SC entries, indices into [`VALUES`]. Every credit's users and every
    /// SC key's user performed the action, as in any scanned state.
    fn edge_case_dump(
        entries: &[(u32, u32, u32, usize)],
        extra: &[(u32, u32)],
        sc: &[(u32, u32, usize)],
        seeds: Vec<u32>,
    ) -> SelectorDump {
        let mut credits = vec![Vec::new(); 2];
        let mut user_actions = vec![Vec::new(); 6];
        for &(v, u, a, c) in entries {
            if v != u && !credits[a as usize].iter().any(|&(w, t, _)| (w, t) == (v, u)) {
                credits[a as usize].push((v, u, VALUES[c]));
                user_actions[v as usize].push(a);
                user_actions[u as usize].push(a);
            }
        }
        for &(u, a) in extra {
            user_actions[u as usize].push(a);
        }
        for &(a, u, _) in sc {
            user_actions[u as usize].push(a);
        }
        for row in &mut credits {
            row.sort_unstable_by_key(|&(v, u, _)| pair_key(v, u));
        }
        for actions in &mut user_actions {
            actions.sort_unstable();
            actions.dedup();
        }
        let inv_au = user_actions
            .iter()
            .map(|a| if a.is_empty() { 0.0 } else { 1.0 / a.len() as f64 })
            .collect();
        let mut sc: Vec<(u32, u32, f64)> = sc.iter().map(|&(a, u, c)| (a, u, VALUES[c])).collect();
        sc.sort_unstable_by_key(|&(a, u, _)| pair_key(a, u));
        sc.dedup_by_key(|&mut (a, u, _)| pair_key(a, u));
        SelectorDump {
            store: CreditStoreDump { lambda: 0.0, user_actions, inv_au, credits },
            sc,
            seeds,
        }
    }

    proptest! {
        /// The branch-free credit check is [`is_credit`] on any bit
        /// pattern. Half the cases force an all-ones exponent (±∞ and the
        /// NaNs), which uniform bits would almost never reach.
        #[test]
        fn credit_fault_is_is_credit(bits in 0u64..u64::MAX, special in proptest::bool::ANY) {
            let x = f64::from_bits(if special { bits | 0x7FF0_0000_0000_0000 } else { bits });
            prop_assert_eq!(credit_fault(x) >> 63 == 0, is_credit(x));
        }

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
            let graph = GraphBuilder::new(8).edges(edges).build();
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
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

        /// Scanned stores (both policies, λ ∈ {0, 0.001}) with committed
        /// seeds; sequences repeat users and name committed ones.
        #[test]
        fn commit_free_matches_commits_on_scanned_stores(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..12), 1..50),
            committed in proptest::sample::subsequence((0u32..8).collect::<Vec<_>>(), 0..3),
            q in proptest::collection::vec(0u32..8, 1..6),
            flags in (proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let (time_aware, truncate) = flags;
            let graph = GraphBuilder::new(8).edges(edges).build();
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let lambda = if truncate { 0.001 } else { 0.0 };
            let compact = frozen(&graph, &log, &policy, lambda, &committed);
            assert_commit_free_matches(&compact, &q);
            let mut with_committed = committed.clone();
            with_committed.extend_from_slice(&q);
            assert_commit_free_matches(&compact, &with_committed);
        }

        /// Hand-built states whose credits and SC values sit on the
        /// kernel's edge cases (zero credits, the removal threshold, the
        /// SC clamp), with arbitrary committed seeds.
        #[test]
        fn commit_free_matches_commits_on_edge_case_credits(
            entries in proptest::collection::vec((0u32..6, 0u32..6, 0u32..2, 0usize..8), 0..30),
            extra in proptest::collection::vec((0u32..6, 0u32..2), 0..6),
            sc in proptest::collection::vec((0u32..2, 0u32..6, 0usize..8), 0..6),
            seeds in proptest::sample::subsequence((0u32..6).collect::<Vec<_>>(), 0..3),
            q in proptest::collection::vec(0u32..6, 1..6),
        ) {
            let dump = edge_case_dump(&entries, &extra, &sc, seeds);
            let compact = reference::arena_of(&dump);
            // The hand-built arena is one a snapshot load accepts.
            let buf = Arc::new(AlignedBuf::from_bytes(compact.arena()));
            CompactSelector::from_arena(buf, 0, compact.counts(), 0.0).unwrap();
            assert_commit_free_matches(&compact, &q);
        }

        /// On the same edge-case states, every commit leaves the overlay
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
            assert_replay_matches_oracle(&edge_case_dump(&entries, &extra, &sc, seeds), &q);
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
            let graph = GraphBuilder::new(8).edges(edges).build();
            let mut b = ActionLogBuilder::new(8);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
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
