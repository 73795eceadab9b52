//! The versioned binary snapshot format.
//!
//! A snapshot freezes everything seed selection and spread prediction need
//! after training — the λ-truncated credit store plus the selector's SC
//! map and chosen seeds — so a serving process can answer queries without
//! the action log, the graph, or a rescan (the paper's core claim: the
//! credit store *is* the model).
//!
//! ## Layout (version 1)
//!
//! All integers are little-endian; floats are IEEE-754 `f64` bit patterns.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CDIMSNAP"
//! 8       4     format version (u32) = 1
//! 12      …     six sections, in fixed order, each:
//!                 u32 tag · u64 payload length · payload
//! end-4   4     CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! | tag | section      | payload |
//! |-----|--------------|---------|
//! | 1   | META         | `lambda f64 · num_users u32 · num_actions u32` |
//! | 2   | USER_ACTIONS | per user: `count u32 · count × u32 action id` |
//! | 3   | INV_AU       | `num_users × f64` |
//! | 4   | CREDITS      | per action: `count u32 · count × (v u32 · u u32 · Γ f64)` |
//! | 5   | SC           | `count u32 · count × (a u32 · u u32 · Γ f64)` |
//! | 6   | SEEDS        | `count u32 · count × u32` |
//!
//! Credit and SC entries are written in sorted key order, so the encoding
//! of a model state is *canonical*: `save → load → save` is byte-identical.
//! Decoding validates the checksum, every index bound, and the sort order,
//! and returns a typed [`SnapshotError`] instead of panicking on garbage.
//!
//! ## Layout (version 2 — zero-copy)
//!
//! Version 2 stores the [`cdim_core::compact`] CSR arena *verbatim*, so
//! loading is: validate the 96-byte header, check the CRC, and
//! reinterpret slices straight out of the (ideally `mmap`ed) buffer — no
//! per-entry decode, no per-entry allocation.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CDIMSNAP"
//! 8       4     format version (u32) = 2
//! 12      4     reserved (u32) = 0
//! 16      8     lambda (f64)
//! 24      64    8 × u64 counts: num_users · num_actions · ua_len ·
//!               out_rows · inc_rows · entries · sc_len · seeds_len
//! 88      8     arena length in bytes (u64, multiple of 8)
//! 96      …     the compact arena, byte-for-byte (see
//!               [`cdim_core::compact`] for its section layout; every
//!               section is 8-byte-aligned relative to offset 96, which
//!               is itself 8-aligned, so a mapped file needs no copies)
//! end-4   4     CRC-32C (Castagnoli) over every preceding byte
//! ```
//!
//! v2 deliberately uses CRC-32C rather than v1's IEEE CRC-32: the
//! checksum pass is the bulk of a zero-copy load, and CRC-32C rides the
//! x86-64 `crc32` instruction at many GB/s where the table-driven IEEE
//! polynomial cannot.
//!
//! All integers and floats are little-endian; v2 files are therefore only
//! zero-copy-loadable on little-endian hosts (big-endian hosts get a
//! clean [`SnapshotError::Malformed`], and can still read v1 files).
//! Structural validation of the arena (offset monotonicity, id bounds,
//! sorted runs, finite credits) runs once at load via
//! [`cdim_core::CompactSelector::from_arena`]; the CRC covers bit-level
//! integrity. Both versions load through [`ModelSnapshot::load`], which
//! dispatches on the version word.

use crate::codec::{push_f64, push_u32, push_u64};
use cdim_core::{
    CdSelector, CompactCounts, CompactSelector, CreditStore, CreditStoreDump, SelectorDump,
};
use cdim_util::checksum::{crc32, crc32_parallel, crc32c};
use cdim_util::{AlignedBuf, Parallelism};
use std::path::Path;
use std::sync::Arc;

/// File magic, followed by the version word.
pub const MAGIC: [u8; 8] = *b"CDIMSNAP";

/// Current (newest) format version: the zero-copy CSR-arena layout.
pub const FORMAT_VERSION: u32 = 2;

/// The original sectioned per-entry format, still written by default for
/// compatibility and fully supported on load.
pub const FORMAT_V1: u32 = 1;

/// Byte length of the fixed v2 header (magic through arena length).
const HEADER_V2: usize = 96;

const TAG_META: u32 = 1;
const TAG_USER_ACTIONS: u32 = 2;
const TAG_INV_AU: u32 = 3;
const TAG_CREDITS: u32 = 4;
const TAG_SC: u32 = 5;
const TAG_SEEDS: u32 = 6;

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The CRC-32 trailer does not match the file contents.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the file body.
        computed: u32,
    },
    /// The file ended before a field could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Structurally invalid contents (bad section order, out-of-range ids,
    /// unsorted entries, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a cdim snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads \
                     {FORMAT_V1}..={FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                 file is corrupt"
            ),
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {available} available")
            }
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Which on-disk encoding [`ModelSnapshot::save_as`] writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// The sectioned per-entry format (version 1) — the default, byte-
    /// canonical encoding every existing artifact and golden pins.
    #[default]
    V1,
    /// The zero-copy CSR-arena format (version 2) — loads by validate +
    /// reinterpret off an `mmap`, for instant serve start.
    V2,
}

/// The model state behind a snapshot: either the mutable hashmap-shaped
/// selector (v1 loads, fresh builds, the incremental path) or the
/// CSR-flat compact selector (v2 loads, frozen states).
#[derive(Clone, Debug)]
enum State {
    Mutable(CdSelector),
    Compact(CompactSelector),
}

/// An immutable, fully-trained model state: the unit the query service
/// holds behind an `Arc` and the unit the snapshot file round-trips.
///
/// Queries must go through the dispatching methods ([`top_k`],
/// [`telescoped_spread`], [`single_marginal_gain`], [`gain_over`], …),
/// which answer **bit-identically** whichever representation backs the
/// snapshot — the compact engine mirrors every accumulation order of the
/// canonically-restored mutable one.
///
/// [`top_k`]: Self::top_k
/// [`telescoped_spread`]: Self::telescoped_spread
/// [`single_marginal_gain`]: Self::single_marginal_gain
/// [`gain_over`]: Self::gain_over
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    state: State,
}

impl ModelSnapshot {
    /// Wraps a freshly scanned credit store (empty seed set).
    pub fn from_store(store: CreditStore) -> Self {
        ModelSnapshot { state: State::Mutable(CdSelector::new(store)) }
    }

    /// The full snapshot build path: trains the credit policy, runs the
    /// parallel credit scan under `config.parallelism`, and freezes the
    /// result (empty seed set).
    ///
    /// The snapshot bytes are independent of the thread count — the scan
    /// is bit-identical for every [`cdim_util::Parallelism`], and the
    /// encoding is canonical — so snapshots built on different machines
    /// with different core counts are comparable byte-for-byte.
    pub fn build(
        graph: &cdim_graph::DirectedGraph,
        log: &cdim_actionlog::ActionLog,
        config: cdim_core::CdModelConfig,
    ) -> Result<Self, cdim_core::ScanError> {
        let policy = config.build_policy(graph, log);
        let store = cdim_core::scan_with(graph, log, &policy, config.lambda, config.parallelism)?;
        Ok(Self::from_store(store))
    }

    /// Wraps an arbitrary selector state (e.g. mid-campaign, with seeds
    /// already committed).
    pub fn from_selector(selector: CdSelector) -> Self {
        ModelSnapshot { state: State::Mutable(selector) }
    }

    /// Wraps a compact (CSR-flat) selector — what a v2 load produces.
    pub fn from_compact(compact: CompactSelector) -> Self {
        ModelSnapshot { state: State::Compact(compact) }
    }

    /// Returns this state in compact form: freezes a mutable snapshot,
    /// clones (cheaply, via `Arc`) an already-compact one.
    pub fn freeze(&self) -> Self {
        match &self.state {
            State::Mutable(s) => Self::from_compact(CompactSelector::freeze(s)),
            State::Compact(_) => self.clone(),
        }
    }

    /// The mutable selector equivalent of this state (cloned from a
    /// mutable snapshot, thawed — canonically — from a compact one).
    fn to_selector(&self) -> CdSelector {
        match &self.state {
            State::Mutable(s) => s.clone(),
            State::Compact(c) => c.thaw(),
        }
    }

    /// The canonical dump of this state.
    fn dump_state(&self) -> SelectorDump {
        match &self.state {
            State::Mutable(s) => s.dump(),
            State::Compact(c) => c.to_dump(),
        }
    }

    /// Incremental rebuild: returns a new snapshot whose state is this
    /// one extended by an append-only action batch — committed seeds are
    /// replayed over the new actions, nothing already scanned is touched
    /// (see [`cdim_core::incremental`]).
    ///
    /// `policy` must be the policy the snapshot was originally trained
    /// with (snapshots persist credits, not policy parameters). Under
    /// that policy the returned snapshot's bytes are identical to a
    /// from-scratch [`build`](Self::build) over the combined log for a
    /// seedless snapshot, for every `parallelism`.
    pub fn extend(
        &self,
        graph: &cdim_graph::DirectedGraph,
        delta: &cdim_actionlog::ActionLogDelta,
        policy: &cdim_core::CreditPolicy,
        parallelism: cdim_util::Parallelism,
    ) -> Result<Self, cdim_core::ExtendError> {
        let mut selector = self.to_selector();
        selector.extend(graph, delta, policy, parallelism)?;
        Ok(ModelSnapshot::from_selector(selector))
    }

    /// Sliding-window rebuild: returns a new snapshot with an expired
    /// action prefix retracted — committed seeds are preserved, surviving
    /// actions renumber down (see [`cdim_core::incremental`]). `expired`
    /// must be the snapshot's first actions as a delta based at 0 (see
    /// `ActionLog::split_off_prefix`).
    ///
    /// `policy` must be the training policy, as with
    /// [`extend`](Self::extend). Under that policy the returned
    /// snapshot's bytes are identical to a from-scratch
    /// [`build`](Self::build) over just the surviving window for a
    /// seedless snapshot, for every `parallelism`.
    pub fn retract(
        &self,
        graph: &cdim_graph::DirectedGraph,
        expired: &cdim_actionlog::ActionLogDelta,
        policy: &cdim_core::CreditPolicy,
        parallelism: cdim_util::Parallelism,
    ) -> Result<Self, cdim_core::ExtendError> {
        let mut selector = self.to_selector();
        selector.retract(graph, expired, policy, parallelism)?;
        Ok(ModelSnapshot::from_selector(selector))
    }

    /// The frozen selector state.
    ///
    /// # Panics
    ///
    /// Panics on a compact (v2-loaded) snapshot, which has no mutable
    /// selector to borrow — use the dispatching query methods, or
    /// [`compact`](Self::compact) for the flat state. Every path that can
    /// hold a compact snapshot (the serving layers) uses those instead.
    pub fn selector(&self) -> &CdSelector {
        match &self.state {
            State::Mutable(s) => s,
            State::Compact(_) => panic!(
                "ModelSnapshot::selector() called on a compact snapshot — \
                 use the query methods (top_k, telescoped_spread, …) or compact()"
            ),
        }
    }

    /// The compact selector backing this snapshot, if it is compact.
    pub fn compact(&self) -> Option<&CompactSelector> {
        match &self.state {
            State::Mutable(_) => None,
            State::Compact(c) => Some(c),
        }
    }

    /// Whether this snapshot is backed by the CSR-flat compact arena.
    pub fn is_compact(&self) -> bool {
        matches!(self.state, State::Compact(_))
    }

    /// Users in the id space.
    pub fn num_users(&self) -> usize {
        match &self.state {
            State::Mutable(s) => s.store().num_users(),
            State::Compact(c) => c.num_users(),
        }
    }

    /// Actions the store was scanned over.
    pub fn num_actions(&self) -> usize {
        match &self.state {
            State::Mutable(s) => s.store().num_actions(),
            State::Compact(c) => c.num_actions(),
        }
    }

    /// Truncation threshold λ the model was trained with.
    pub fn lambda(&self) -> f64 {
        match &self.state {
            State::Mutable(s) => s.store().lambda(),
            State::Compact(c) => c.lambda(),
        }
    }

    /// Live credit entries in the model.
    pub fn total_entries(&self) -> usize {
        match &self.state {
            State::Mutable(s) => s.store().total_entries(),
            State::Compact(c) => c.total_entries(),
        }
    }

    /// Seeds already committed into the snapshot state.
    pub fn committed_seeds(&self) -> usize {
        match &self.state {
            State::Mutable(s) => s.seeds().len(),
            State::Compact(c) => c.seeds().len(),
        }
    }

    /// Resident bytes of the model state (the credit structures for a
    /// mutable snapshot, the arena — owned or mapped — for a compact one).
    pub fn resident_bytes(&self) -> usize {
        match &self.state {
            State::Mutable(s) => s.store().memory_bytes(),
            State::Compact(c) => c.memory_bytes(),
        }
    }

    /// CELF top-k continuing from the committed seeds (Algorithm 3).
    /// Bit-identical across representations of the same state.
    pub fn top_k(&self, k: usize) -> cdim_maxim::Selection {
        match &self.state {
            State::Mutable(s) => s.clone().select(k),
            State::Compact(c) => c.overlay().select(k),
        }
    }

    /// Theorem-3 marginal gain of `x` over the committed seed set — also
    /// σ_cd({x}) when no seeds are committed, and 0 when `x` is one. A
    /// pure read: a compact snapshot copies no model state.
    pub fn single_marginal_gain(&self, x: u32) -> f64 {
        match &self.state {
            State::Mutable(s) => s.compute_mg(x),
            State::Compact(c) => c.overlay().compute_mg(x),
        }
    }

    /// σ_cd(S) via Theorem 3: walk `seeds` in the given order,
    /// accumulating each seed's marginal gain and applying the Lemma-2/3
    /// update (skipped after the last seed — nothing reads the state
    /// afterwards). σ is a set function: a repeated seed, or one already
    /// committed into the snapshot, adds 0.
    pub fn telescoped_spread(&self, seeds: &[u32]) -> f64 {
        match &self.state {
            State::Mutable(s) => {
                let mut sel = s.clone();
                let mut total = 0.0;
                for (i, &s) in seeds.iter().enumerate() {
                    total += sel.compute_mg(s);
                    if i + 1 < seeds.len() {
                        sel.update(s);
                    }
                }
                total
            }
            State::Compact(c) => {
                let mut overlay = c.overlay();
                let mut total = 0.0;
                for (i, &s) in seeds.iter().enumerate() {
                    total += overlay.compute_mg(s);
                    if i + 1 < seeds.len() {
                        overlay.update(s);
                    }
                }
                total
            }
        }
    }

    /// Marginal gain of `candidate` after committing `seeds` (in the
    /// given order) on top of the snapshot's own committed seeds; 0 when
    /// `candidate` is among either.
    pub fn gain_over(&self, seeds: &[u32], candidate: u32) -> f64 {
        match &self.state {
            State::Mutable(s) => {
                let mut sel = s.clone();
                for &x in seeds {
                    sel.update(x);
                }
                sel.compute_mg(candidate)
            }
            State::Compact(c) => {
                let mut overlay = c.overlay();
                for &x in seeds {
                    overlay.update(x);
                }
                overlay.compute_mg(candidate)
            }
        }
    }

    /// Serializes to the version-1 byte format (canonical encoding —
    /// identical bytes whichever representation backs the snapshot).
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.dump_state())
    }

    /// Serializes to the version-2 zero-copy byte format (freezing first
    /// if the snapshot is mutable).
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        match &self.state {
            State::Mutable(s) => encode_v2(&CompactSelector::freeze(s)),
            State::Compact(c) => encode_v2(c),
        }
    }

    /// Deserializes and validates a snapshot of either format version
    /// (dispatching on the version word after the magic).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        match peek_version(bytes)? {
            FORMAT_V1 => {
                let dump = decode(bytes)?;
                Ok(ModelSnapshot::from_selector(CdSelector::from_dump(&dump)))
            }
            FORMAT_VERSION => {
                // A borrowed byte slice has arbitrary alignment; copy it
                // into an aligned buffer. (The zero-copy path is `load`.)
                let buf = Arc::new(AlignedBuf::from_bytes(bytes));
                Ok(ModelSnapshot::from_compact(decode_v2(buf)?))
            }
            v => Err(SnapshotError::UnsupportedVersion(v)),
        }
    }

    /// Writes the snapshot to `path` in the default (v1) format, via a
    /// sibling temp file + rename, so a crash mid-write never leaves a
    /// half-written snapshot in place.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        self.save_as(path, SnapshotFormat::V1)
    }

    /// Writes the snapshot to `path` in the chosen format (temp file +
    /// rename, like [`save`](Self::save)).
    pub fn save_as(&self, path: &Path, format: SnapshotFormat) -> Result<(), SnapshotError> {
        let bytes = match format {
            SnapshotFormat::V1 => self.to_bytes(),
            SnapshotFormat::V2 => self.to_bytes_v2(),
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a snapshot from `path`, auto-detecting the
    /// format version. v2 files are `mmap`ed where the platform allows
    /// (falling back to a single read), so the load cost is the header
    /// check + CRC + structural validation — no per-entry decode; v1
    /// files decode through the original path. The temp-file + rename
    /// discipline of [`save_as`](Self::save_as) is what makes mapping
    /// safe: a snapshot file is never rewritten in place.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let buf = AlignedBuf::map_or_read_file(path)?;
        match peek_version(&buf)? {
            FORMAT_V1 => {
                let dump = decode(&buf)?;
                Ok(ModelSnapshot::from_selector(CdSelector::from_dump(&dump)))
            }
            FORMAT_VERSION => Ok(ModelSnapshot::from_compact(decode_v2(Arc::new(buf))?)),
            v => Err(SnapshotError::UnsupportedVersion(v)),
        }
    }
}

/// Reads the magic and version word without trusting anything else.
fn peek_version(bytes: &[u8]) -> Result<u32, SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(SnapshotError::Truncated { needed: MAGIC.len() + 8, available: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()))
}

// ---------------------------------------------------------------- encoding

/// Appends one `tag · length · payload` section built by `fill`.
fn section(out: &mut Vec<u8>, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
    push_u32(out, tag);
    let len_at = out.len();
    push_u64(out, 0);
    let payload_start = out.len();
    fill(out);
    let len = (out.len() - payload_start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

fn encode(dump: &SelectorDump) -> Vec<u8> {
    let store = &dump.store;
    let num_users = store.user_actions.len();
    let num_actions = store.credits.len();
    let mut out =
        Vec::with_capacity(64 + store.credits.iter().map(|c| 16 * c.len()).sum::<usize>());
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_V1);

    section(&mut out, TAG_META, |o| {
        push_f64(o, store.lambda);
        push_u32(o, num_users as u32);
        push_u32(o, num_actions as u32);
    });
    section(&mut out, TAG_USER_ACTIONS, |o| {
        for actions in &store.user_actions {
            push_u32(o, actions.len() as u32);
            for &a in actions {
                push_u32(o, a);
            }
        }
    });
    section(&mut out, TAG_INV_AU, |o| {
        for &x in &store.inv_au {
            push_f64(o, x);
        }
    });
    section(&mut out, TAG_CREDITS, |o| {
        for entries in &store.credits {
            push_u32(o, entries.len() as u32);
            for &(v, u, c) in entries {
                push_u32(o, v);
                push_u32(o, u);
                push_f64(o, c);
            }
        }
    });
    section(&mut out, TAG_SC, |o| {
        push_u32(o, dump.sc.len() as u32);
        for &(a, u, c) in &dump.sc {
            push_u32(o, a);
            push_u32(o, u);
            push_f64(o, c);
        }
    });
    section(&mut out, TAG_SEEDS, |o| {
        push_u32(o, dump.seeds.len() as u32);
        for &s in &dump.seeds {
            push_u32(o, s);
        }
    });

    let crc = crc32(&out);
    push_u32(&mut out, crc);
    out
}

/// Serializes a compact selector as a v2 file: fixed header, the arena
/// verbatim, CRC trailer. The arena begins at byte 96 (≡ 0 mod 8), so the
/// written file reloads with zero copies when mapped.
fn encode_v2(compact: &CompactSelector) -> Vec<u8> {
    let counts = compact.counts();
    let arena = compact.arena();
    let mut out = Vec::with_capacity(HEADER_V2 + arena.len() + 4);
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, 0); // reserved
    push_f64(&mut out, compact.lambda());
    for n in [
        counts.num_users,
        counts.num_actions,
        counts.ua_len,
        counts.out_rows,
        counts.inc_rows,
        counts.entries,
        counts.sc_len,
        counts.seeds_len,
    ] {
        push_u64(&mut out, n as u64);
    }
    push_u64(&mut out, arena.len() as u64);
    debug_assert_eq!(out.len(), HEADER_V2);
    out.extend_from_slice(arena);
    let crc = crc32c(&out);
    push_u32(&mut out, crc);
    out
}

/// Validates a v2 buffer (magic and version already peeked) and wraps its
/// arena zero-copy. Counts are bounds-checked here — before any layout
/// arithmetic — so resealed-garbage headers fail with a typed error
/// instead of an overflow or a giant allocation (the arena is never
/// copied, so there is nothing to allocate in the first place).
fn decode_v2(buf: Arc<AlignedBuf>) -> Result<CompactSelector, SnapshotError> {
    #[cfg(not(target_endian = "little"))]
    {
        return Err(SnapshotError::Malformed(
            "v2 snapshots are little-endian and cannot be loaded on a big-endian host".to_string(),
        ));
    }
    #[cfg(target_endian = "little")]
    {
        let bytes: &[u8] = &buf;
        if bytes.len() < HEADER_V2 + 4 {
            return Err(SnapshotError::Truncated { needed: HEADER_V2 + 4, available: bytes.len() });
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let computed = crc32c(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let reserved = u32_at(12);
        if reserved != 0 {
            return Err(SnapshotError::Malformed(format!(
                "reserved header word is {reserved}, expected 0"
            )));
        }
        let lambda = f64::from_le_bytes(bytes[16..24].try_into().unwrap());

        let mut raw = [0u64; 8];
        for (i, slot) in raw.iter_mut().enumerate() {
            *slot = u64_at(24 + 8 * i);
            // Ids and offsets are u32 throughout the arena; a count at or
            // past u32::MAX cannot be a valid file, and rejecting it here
            // keeps the layout arithmetic below overflow-free.
            if *slot >= u64::from(u32::MAX) {
                return Err(SnapshotError::Malformed(format!(
                    "header count #{i} = {slot} exceeds the u32 id space"
                )));
            }
        }
        let counts = CompactCounts {
            num_users: raw[0] as usize,
            num_actions: raw[1] as usize,
            ua_len: raw[2] as usize,
            out_rows: raw[3] as usize,
            inc_rows: raw[4] as usize,
            entries: raw[5] as usize,
            sc_len: raw[6] as usize,
            seeds_len: raw[7] as usize,
        };
        let arena_len = u64_at(88) as usize;
        if arena_len != counts.arena_len() {
            return Err(SnapshotError::Malformed(format!(
                "arena length {arena_len} does not match the header counts (expected {})",
                counts.arena_len()
            )));
        }
        let expected = HEADER_V2 + arena_len + 4;
        if bytes.len() < expected {
            return Err(SnapshotError::Truncated { needed: expected, available: bytes.len() });
        }
        if bytes.len() > expected {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the arena",
                bytes.len() - expected
            )));
        }

        CompactSelector::from_arena(buf, HEADER_V2, counts, lambda)
            .map_err(SnapshotError::Malformed)
    }
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked cursor over the snapshot body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.buf.len() - self.pos;
        if n > available {
            return Err(SnapshotError::Truncated { needed: n, available });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a `count` field that prefixes `count` items of at least
    /// `item_size` bytes, rejecting counts the remaining bytes cannot hold
    /// (so corrupt counts fail fast instead of attempting huge allocations).
    fn count(&mut self, item_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(item_size);
        if needed > self.remaining() {
            return Err(SnapshotError::Truncated { needed, available: self.remaining() });
        }
        Ok(n)
    }

    /// Consumes one section header, checking the tag, and returns the
    /// payload end offset.
    fn section(&mut self, expect_tag: u32) -> Result<usize, SnapshotError> {
        let tag = self.u32()?;
        if tag != expect_tag {
            return Err(SnapshotError::Malformed(format!(
                "expected section tag {expect_tag}, found {tag}"
            )));
        }
        let len = self.u64()? as usize;
        if len > self.remaining() {
            return Err(SnapshotError::Truncated { needed: len, available: self.remaining() });
        }
        Ok(self.pos + len)
    }

    /// Asserts the previous section was consumed exactly to its boundary.
    fn finish_section(&self, end: usize, what: &str) -> Result<(), SnapshotError> {
        if self.pos != end {
            return Err(SnapshotError::Malformed(format!(
                "section {what}: payload length mismatch (at {}, expected {end})",
                self.pos
            )));
        }
        Ok(())
    }
}

fn decode(bytes: &[u8]) -> Result<SelectorDump, SnapshotError> {
    // Magic + version + CRC trailer are the minimum plausible file.
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(SnapshotError::Truncated { needed: MAGIC.len() + 8, available: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let computed = crc32_parallel(body, Parallelism::auto());
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    let mut r = Reader { buf: body, pos: MAGIC.len() };
    let version = r.u32()?;
    if version != FORMAT_V1 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }

    // META
    let end = r.section(TAG_META)?;
    let lambda = r.f64()?;
    let num_users = r.u32()? as usize;
    let num_actions = r.u32()? as usize;
    r.finish_section(end, "META")?;
    if lambda.is_nan() || lambda < 0.0 {
        return Err(SnapshotError::Malformed(format!("invalid lambda {lambda}")));
    }
    // Bound the META counts by what the remaining bytes can possibly hold
    // (USER_ACTIONS needs ≥4 bytes per user, CREDITS ≥4 per action), so a
    // resealed-garbage count fails here instead of aborting the process in
    // a gigantic pre-allocation below.
    let cap = r.remaining();
    if num_users.saturating_mul(4) > cap || num_actions.saturating_mul(4) > cap {
        return Err(SnapshotError::Malformed(format!(
            "META claims {num_users} users / {num_actions} actions but only {cap} bytes follow"
        )));
    }

    // USER_ACTIONS
    let end = r.section(TAG_USER_ACTIONS)?;
    let mut user_actions = Vec::with_capacity(num_users);
    for u in 0..num_users {
        let n = r.count(4)?;
        let mut actions = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.u32()?;
            if a as usize >= num_actions {
                return Err(SnapshotError::Malformed(format!(
                    "user {u}: action id {a} out of range ({num_actions} actions)"
                )));
            }
            actions.push(a);
        }
        user_actions.push(actions);
    }
    r.finish_section(end, "USER_ACTIONS")?;

    // INV_AU
    let end = r.section(TAG_INV_AU)?;
    let mut inv_au = Vec::with_capacity(num_users);
    for u in 0..num_users {
        let x = r.f64()?;
        if !(0.0..=1.0).contains(&x) {
            return Err(SnapshotError::Malformed(format!("user {u}: 1/A_u = {x} out of [0, 1]")));
        }
        inv_au.push(x);
    }
    r.finish_section(end, "INV_AU")?;

    // CREDITS
    let end = r.section(TAG_CREDITS)?;
    let mut credits = Vec::with_capacity(num_actions);
    for a in 0..num_actions {
        let n = r.count(16)?;
        let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(n);
        let mut last_key: Option<u64> = None;
        for _ in 0..n {
            let v = r.u32()?;
            let u = r.u32()?;
            let c = r.f64()?;
            if v as usize >= num_users || u as usize >= num_users || v == u {
                return Err(SnapshotError::Malformed(format!(
                    "action {a}: invalid credit pair ({v}, {u}) for {num_users} users"
                )));
            }
            if !c.is_finite() {
                return Err(SnapshotError::Malformed(format!(
                    "action {a}: non-finite credit for ({v}, {u})"
                )));
            }
            let key = (u64::from(v) << 32) | u64::from(u);
            if last_key.is_some_and(|prev| prev >= key) {
                return Err(SnapshotError::Malformed(format!(
                    "action {a}: credit entries not in canonical sorted order"
                )));
            }
            last_key = Some(key);
            entries.push((v, u, c));
        }
        credits.push(entries);
    }
    r.finish_section(end, "CREDITS")?;

    // SC
    let end = r.section(TAG_SC)?;
    let n = r.count(16)?;
    let mut sc: Vec<(u32, u32, f64)> = Vec::with_capacity(n);
    let mut last_key: Option<u64> = None;
    for _ in 0..n {
        let a = r.u32()?;
        let u = r.u32()?;
        let c = r.f64()?;
        if a as usize >= num_actions || u as usize >= num_users {
            return Err(SnapshotError::Malformed(format!("SC entry ({a}, {u}) out of range")));
        }
        if !c.is_finite() {
            return Err(SnapshotError::Malformed(format!("non-finite SC credit for ({a}, {u})")));
        }
        let key = (u64::from(a) << 32) | u64::from(u);
        if last_key.is_some_and(|prev| prev >= key) {
            return Err(SnapshotError::Malformed(
                "SC entries not in canonical sorted order".to_string(),
            ));
        }
        last_key = Some(key);
        sc.push((a, u, c));
    }
    r.finish_section(end, "SC")?;

    // SEEDS
    let end = r.section(TAG_SEEDS)?;
    let n = r.count(4)?;
    let mut seeds = Vec::with_capacity(n);
    for _ in 0..n {
        let s = r.u32()?;
        if s as usize >= num_users {
            return Err(SnapshotError::Malformed(format!("seed {s} out of range")));
        }
        if seeds.contains(&s) {
            return Err(SnapshotError::Malformed(format!("duplicate seed {s}")));
        }
        seeds.push(s);
    }
    r.finish_section(end, "SEEDS")?;

    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after final section",
            r.remaining()
        )));
    }

    Ok(SelectorDump { store: CreditStoreDump { lambda, user_actions, inv_au, credits }, sc, seeds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_core::{scan, CreditPolicy};

    fn trained_selector() -> CdSelector {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        CdSelector::new(scan(&ds.graph, &ds.log, &policy, 0.001).unwrap())
    }

    #[test]
    fn build_is_byte_identical_for_every_thread_count() {
        let ds = cdim_datagen::presets::tiny().generate();
        let config = |threads: usize| cdim_core::CdModelConfig {
            parallelism: cdim_util::Parallelism::fixed(threads),
            ..Default::default()
        };
        let baseline = ModelSnapshot::build(&ds.graph, &ds.log, config(1)).unwrap().to_bytes();
        for threads in [2usize, 8] {
            let bytes =
                ModelSnapshot::build(&ds.graph, &ds.log, config(threads)).unwrap().to_bytes();
            assert_eq!(bytes, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn extend_is_byte_identical_to_full_build() {
        // Uniform policy is log-independent, so the prefix-trained and
        // full-trained snapshots share it exactly; snapshot bytes of the
        // extended model must equal the from-scratch build's.
        let ds = cdim_datagen::presets::tiny().generate();
        let config = cdim_core::CdModelConfig {
            policy: cdim_core::model::PolicyKind::Uniform,
            lambda: 0.001,
            parallelism: cdim_util::Parallelism::fixed(2),
        };
        let full = ModelSnapshot::build(&ds.graph, &ds.log, config).unwrap().to_bytes();
        for split in [0, ds.log.num_actions() / 3, ds.log.num_actions()] {
            let (prefix, delta) = ds.log.split_at_action(split);
            let base = ModelSnapshot::build(&ds.graph, &prefix, config).unwrap();
            let extended = base
                .extend(&ds.graph, &delta, &CreditPolicy::Uniform, cdim_util::Parallelism::fixed(3))
                .unwrap();
            assert_eq!(extended.to_bytes(), full, "split = {split}");
        }
    }

    #[test]
    fn retract_is_byte_identical_to_window_build() {
        // The window invariant at the snapshot layer: retracting an
        // expired prefix yields the exact bytes of a from-scratch build
        // over just the surviving window.
        let ds = cdim_datagen::presets::tiny().generate();
        let config = cdim_core::CdModelConfig {
            policy: cdim_core::model::PolicyKind::Uniform,
            lambda: 0.001,
            parallelism: cdim_util::Parallelism::fixed(2),
        };
        let full = ModelSnapshot::build(&ds.graph, &ds.log, config).unwrap();
        for expire in [0, ds.log.num_actions() / 3, ds.log.num_actions()] {
            let (expired, window) = ds.log.split_off_prefix(expire);
            let retracted = full
                .retract(
                    &ds.graph,
                    &expired,
                    &CreditPolicy::Uniform,
                    cdim_util::Parallelism::fixed(3),
                )
                .unwrap();
            let fresh = ModelSnapshot::build(&ds.graph, &window, config).unwrap();
            assert_eq!(retracted.to_bytes(), fresh.to_bytes(), "expire = {expire}");
        }
    }

    #[test]
    fn repeated_and_committed_seeds_add_nothing() {
        let mutable = ModelSnapshot::from_selector(trained_selector());
        let picked = mutable.top_k(2).seeds;
        let (x, y) = (picked[0], picked[1]);
        for snap in [&mutable, &mutable.freeze()] {
            let kind = if snap.is_compact() { "compact" } else { "mutable" };
            let single = snap.telescoped_spread(&[x]);
            assert!(single > 1.0, "{kind}: σ({{{x}}}) = {single}");
            assert_eq!(snap.telescoped_spread(&[x, x]).to_bits(), single.to_bits(), "{kind}");
            assert_eq!(
                snap.telescoped_spread(&[x, y, x]).to_bits(),
                snap.telescoped_spread(&[x, y]).to_bits(),
                "{kind}"
            );
            assert_eq!(snap.gain_over(&[x], x), 0.0, "{kind}");
            assert_eq!(snap.gain_over(&[x, y], x), 0.0, "{kind}");
        }

        // A seed committed into the snapshot itself is no candidate either.
        let mut sel = trained_selector();
        sel.update(x);
        let committed = ModelSnapshot::from_selector(sel);
        for snap in [&committed, &committed.freeze()] {
            let kind = if snap.is_compact() { "compact" } else { "mutable" };
            assert_eq!(snap.single_marginal_gain(x), 0.0, "{kind}");
            assert_eq!(snap.telescoped_spread(&[x]), 0.0, "{kind}");
            assert_eq!(snap.gain_over(&[y], x), 0.0, "{kind}");
            let top = snap.top_k(4);
            assert_eq!(top.seeds[0], x, "{kind}");
            let mut distinct = top.seeds.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 4, "{kind}: repeated seed in {:?}", top.seeds);
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let snap = ModelSnapshot::from_selector(trained_selector());
        let bytes = snap.to_bytes();
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
        assert_eq!(restored.selector().dump(), snap.selector().dump());
    }

    #[test]
    fn round_trip_preserves_mid_selection_state() {
        let mut sel = trained_selector();
        let seed = CdSelector::new(sel.store().clone()).select(1).seeds[0];
        sel.update(seed);
        let snap = ModelSnapshot::from_selector(sel.clone());
        let restored = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.selector().seeds(), sel.seeds());
        // Against the live selector gains agree up to credit-iteration
        // order; against any other canonical restoration they are
        // bit-exact (the dump fixes the summation order).
        let canonical = CdSelector::from_dump(&sel.dump());
        for x in 0..snap.num_users() as u32 {
            assert!((restored.selector().compute_mg(x) - sel.compute_mg(x)).abs() < 1e-9);
            assert_eq!(
                restored.selector().compute_mg(x).to_bits(),
                canonical.compute_mg(x).to_bits(),
                "user {x}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let snap = ModelSnapshot::from_selector(trained_selector());
        let dir = std::env::temp_dir().join(format!("cdim_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        snap.save(&path).unwrap();
        let restored = ModelSnapshot::load(&path).unwrap();
        assert_eq!(restored.to_bytes(), snap.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let snap = ModelSnapshot::from_selector(trained_selector());
        let bytes = snap.to_bytes();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(ModelSnapshot::from_bytes(&bad), Err(SnapshotError::BadMagic)));

        let mut bad = bytes.clone();
        bad[8] = 99; // version — also breaks the CRC, so re-seal.
        let crc = crc32(&bad[..bad.len() - 4]);
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ModelSnapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let snap = ModelSnapshot::from_selector(trained_selector());
        let bytes = snap.to_bytes();
        // Every prefix must fail without panicking (step 7 keeps it fast).
        for len in (0..bytes.len()).step_by(7) {
            assert!(
                ModelSnapshot::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn corrupted_byte_is_detected_by_checksum() {
        let snap = ModelSnapshot::from_selector(trained_selector());
        let bytes = snap.to_bytes();
        for &at in &[9, 20, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            match ModelSnapshot::from_bytes(&bad) {
                Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::BadMagic) => {}
                // The version word is read before the payload is trusted
                // (it selects the decoder), so corrupting it reports the
                // bogus version rather than the checksum.
                Err(SnapshotError::UnsupportedVersion(_)) if (8..12).contains(&at) => {}
                other => panic!("corruption at {at} gave {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_meta_counts_fail_without_allocating() {
        // num_users sits at offset 32: magic(8) + version(4) + META
        // tag(4) + len(8) + lambda(8). Claiming u32::MAX users with a
        // valid CRC must be rejected structurally, not by a ~100 GB
        // pre-allocation abort.
        let snap = ModelSnapshot::from_selector(trained_selector());
        let mut bytes = snap.to_bytes();
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn resealed_garbage_is_rejected_structurally() {
        // A validly-checksummed file whose seed id is out of range: the CRC
        // passes, structural validation must still reject it.
        let snap = ModelSnapshot::from_selector(trained_selector());
        let mut bytes = snap.to_bytes();
        let n = bytes.len();
        bytes[n - 8..n - 4].copy_from_slice(&u32::MAX.to_le_bytes()); // last seed-count/seed word
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed(_)) | Err(SnapshotError::Truncated { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_core::{scan, CreditPolicy};
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// save → load is lossless over random trained stores (both
        /// policies, with and without committed seeds).
        #[test]
        fn random_trained_stores_round_trip(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..50),
            events in proptest::collection::vec((0u32..10, 0u32..4, 0u64..20), 1..60),
            seeds in proptest::sample::subsequence((0u32..10).collect::<Vec<_>>(), 0..3),
            time_aware in proptest::bool::ANY,
        ) {
            let graph = GraphBuilder::new(10).edges(edges).build();
            let mut b = ActionLogBuilder::new(10);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let mut sel = CdSelector::new(scan(&graph, &log, &policy, 0.0).unwrap());
            for &s in &seeds {
                sel.update(s);
            }
            let snap = ModelSnapshot::from_selector(sel);
            let bytes = snap.to_bytes();
            let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(restored.selector().dump(), snap.selector().dump());
            prop_assert_eq!(restored.to_bytes(), bytes);
        }

        /// The v2 (zero-copy) encoding of any random trained store loads
        /// back to the same model: canonical v1 bytes identical, v2
        /// re-encoding canonical too.
        #[test]
        fn random_trained_stores_round_trip_v2(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..50),
            events in proptest::collection::vec((0u32..10, 0u32..4, 0u64..20), 1..60),
            seeds in proptest::sample::subsequence((0u32..10).collect::<Vec<_>>(), 0..3),
            time_aware in proptest::bool::ANY,
        ) {
            let graph = GraphBuilder::new(10).edges(edges).build();
            let mut b = ActionLogBuilder::new(10);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            let mut sel = CdSelector::new(scan(&graph, &log, &policy, 0.0).unwrap());
            for &s in &seeds {
                sel.update(s);
            }
            let snap = ModelSnapshot::from_selector(sel);
            let v2 = snap.to_bytes_v2();
            let restored = ModelSnapshot::from_bytes(&v2).unwrap();
            prop_assert!(restored.is_compact());
            prop_assert_eq!(restored.to_bytes(), snap.to_bytes());
            prop_assert_eq!(restored.to_bytes_v2(), v2);
        }
    }
}
