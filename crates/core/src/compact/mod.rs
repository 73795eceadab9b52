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
//! The arena format — its sections, their order and alignment — is
//! written in this file alone; the submodules (listed in the crate docs)
//! read sections through its accessors. `overlay` and `replay` state what
//! each query costs.
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

mod overlay;
mod replay;
mod rows;
mod validate;

pub use overlay::{OverlaySelector, TopKSession};
pub(crate) use rows::{arena, build, ActionRows, BLOCK_ENTRIES, FIRST_BLOCK_ENTRIES};

use cdim_util::bytes::{
    cast_slice_f64, cast_slice_f64_mut, cast_slice_u32, cast_slice_u32_mut, cast_slice_u64,
    cast_slice_u64_mut,
};
use cdim_util::{AlignedBuf, HeapSize};
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
        validate::validate(&data)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, CreditStoreDump, SelectorDump};
    use crate::testing::trained_dump;

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
    fn from_arena_accepts_a_frozen_arena() {
        let dump = trained_dump(55, 2);
        let compact = reference::arena_of(&dump);
        let buf = Arc::new(AlignedBuf::from_bytes(compact.arena()));
        let reloaded =
            CompactSelector::from_arena(buf, 0, compact.counts(), compact.lambda()).unwrap();
        assert_eq!(reference::dump_of(&reloaded), dump);
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
}
