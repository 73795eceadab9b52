//! The snapshot file format: a trained model on disk.
//!
//! A snapshot holds everything seed selection and spread prediction need
//! after training — the λ-truncated credits plus any committed seeds and
//! their SC entries — so a serving process can answer queries without
//! the action log, the graph, or a rescan (the paper's core claim: the
//! credits *are* the model).
//!
//! ## Layout (version 2 — zero-copy)
//!
//! The file stores the [`cdim_core::compact`] CSR arena *verbatim*, so
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
//! A zero-copy load is mostly structural validation, not the checksum.
//! On a 1.4 M-entry (22 MB) model on a 2-vCPU x86-64 host, mapping and
//! touching the pages took 0.3 ms, the CRC-32C (on the `crc32`
//! instruction) 2.5–3 ms, and validation about 8.5 ms, 3 ns per entry
//! and direction, of a 11–12 ms load. The scan writes every
//! action's rows in sorted order, so the encoding of a model state is
//! *canonical*: `save → load → save` is byte-identical, and a model
//! reached by extending or retracting writes the bytes a fresh build of
//! the same state writes. Saving streams the header, the arena and the
//! CRC (continued from the header over the arena) straight to the file.
//!
//! Every other version word — including the retired per-entry version 1 —
//! is refused with [`SnapshotError::UnsupportedVersion`] before the
//! checksum is read. All integers and floats are little-endian, so the
//! files load only on little-endian hosts (big-endian hosts get a clean
//! [`SnapshotError::Malformed`]). Structural validation of the arena
//! (offset monotonicity, id bounds, sorted runs, finite credits) runs once
//! at load via [`cdim_core::CompactSelector::from_arena`]; the CRC covers
//! bit-level integrity. Every failure is a typed [`SnapshotError`], never
//! a panic.

use crate::codec::{push_f64, push_u32, push_u64};
use cdim_core::{CompactCounts, CompactSelector, TopKSession};
use cdim_util::checksum::{crc32c, crc32c_append};
use cdim_util::AlignedBuf;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// File magic, followed by the version word.
pub const MAGIC: [u8; 8] = *b"CDIMSNAP";

/// The format version this build reads and writes: the zero-copy
/// CSR-arena layout.
pub const FORMAT_VERSION: u32 = 2;

/// Byte length of the fixed header (magic through arena length).
const HEADER: usize = 96;

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The CRC-32C trailer does not match the file contents.
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
    /// Structurally invalid contents (inconsistent counts, out-of-range
    /// ids, unsorted entries, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a cdim snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this build reads version {FORMAT_VERSION} \
                 only; retrain to upgrade)"
            ),
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

/// The on-disk encoding [`ModelSnapshot::save_as`] writes. Version 2 is
/// the only one; the enum stays so existing `save_as` callers compile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// The zero-copy CSR-arena format (version 2).
    #[default]
    V2,
}

/// An immutable, fully-trained model state: the unit the query service
/// holds behind an `Arc` and the unit the snapshot file round-trips.
///
/// The state is always the compact CSR arena ([`CompactSelector`]),
/// whether it was scanned, loaded, extended or retracted, so one trained
/// state answers every query bit-identically wherever it came from.
/// Queries ([`top_k`], [`telescoped_spread`], [`single_marginal_gain`],
/// [`gain_over`], …) read the shared arena; a top-k also keeps its CELF
/// session, started by the first [`top_k`] and dropped with the snapshot.
///
/// [`top_k`]: Self::top_k
/// [`telescoped_spread`]: Self::telescoped_spread
/// [`single_marginal_gain`]: Self::single_marginal_gain
/// [`gain_over`]: Self::gain_over
#[derive(Debug)]
pub struct ModelSnapshot {
    model: CompactSelector,
    top_k: Mutex<Option<TopKSession>>,
}

impl Clone for ModelSnapshot {
    /// Shares the arena; the clone starts without a top-k session.
    fn clone(&self) -> Self {
        Self::from_store(self.model.clone())
    }
}

impl ModelSnapshot {
    /// Serves a model state, sharing its arena: no dump, sort or copy.
    /// The one constructor, whatever the model's origin: a scan's
    /// seedless result ([`cdim_core::scan_with`], which wrote the arena
    /// this snapshot serves and saves), a loaded or incrementally rebuilt
    /// one, or a session's with seeds already committed
    /// ([`cdim_core::OverlaySelector::freeze`], e.g. mid-campaign).
    pub fn from_store(model: CompactSelector) -> Self {
        ModelSnapshot { model, top_k: Mutex::new(None) }
    }

    /// The full snapshot build path: checks the inputs, builds the log's
    /// propagation DAGs once, learns the credit policy from them and runs
    /// the parallel credit scan over them under `config.parallelism`
    /// (empty seed set).
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
        cdim_core::check_inputs(graph, log, config.lambda)?;
        let dags = cdim_actionlog::PropagationArena::build(log, graph, log.actions());
        let policy = config.build_policy(&dags);
        let store = cdim_core::scan_dags(dags, &policy, config.lambda, config.parallelism)?;
        Ok(Self::from_store(store))
    }

    /// The same model, sharing the arena (a snapshot is always frozen).
    pub fn freeze(&self) -> Self {
        self.clone()
    }

    /// Incremental rebuild: returns a new snapshot whose state is this
    /// one extended by an append-only action batch — only the batch is
    /// scanned, committed seeds are replayed over the new actions, and
    /// the result is spliced onto a copy of the arena
    /// ([`CompactSelector::extend`]).
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
        Ok(Self::from_store(self.model.extend(graph, delta, policy, parallelism)?))
    }

    /// Sliding-window rebuild: returns a new snapshot with an expired
    /// action prefix cut off every arena section — committed seeds are
    /// preserved, surviving actions renumber down
    /// ([`CompactSelector::retract`]). `expired` must be the snapshot's
    /// first actions as a delta based at 0 (see
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
        Ok(Self::from_store(self.model.retract(graph, expired, policy, parallelism)?))
    }

    /// Users in the id space.
    pub fn num_users(&self) -> usize {
        self.model.num_users()
    }

    /// Actions the model was scanned over.
    pub fn num_actions(&self) -> usize {
        self.model.num_actions()
    }

    /// Truncation threshold λ the model was trained with.
    pub fn lambda(&self) -> f64 {
        self.model.lambda()
    }

    /// Live credit entries in the model.
    pub fn total_entries(&self) -> usize {
        self.model.total_entries()
    }

    /// Seeds already committed into the snapshot state.
    pub fn committed_seeds(&self) -> usize {
        self.model.seeds().len()
    }

    /// Resident bytes of the model state: the arena (owned or mapped)
    /// plus the top-k session, once a top-k query started it.
    pub fn resident_bytes(&self) -> usize {
        self.model.memory_bytes() + lock(&self.top_k).as_ref().map_or(0, TopKSession::memory_bytes)
    }

    /// CELF top-k continuing from the committed seeds (Algorithm 3). One
    /// session answers every budget: a prefix of it when it already holds
    /// `k` seeds, resuming it otherwise.
    pub fn top_k(&self, k: usize) -> cdim_maxim::Selection {
        lock(&self.top_k).get_or_insert_with(|| self.model.top_k_session()).top_k(k)
    }

    /// Theorem-3 marginal gain of `x` over the committed seed set — also
    /// σ_cd({x}) when no seeds are committed, and 0 when `x` is one. A
    /// pure read: it copies no model state.
    pub fn single_marginal_gain(&self, x: u32) -> f64 {
        self.model.gain_over(&[], x)
    }

    /// σ_cd(S) via Theorem 3: walk `seeds` in the given order,
    /// accumulating each seed's marginal gain over the seeds before it.
    /// σ is a set function: a repeated seed, or one already committed
    /// into the snapshot, adds 0. The Lemma-2/3 updates are replayed on
    /// the seeds' own rows only ([`CompactSelector::telescoped_spread`]).
    pub fn telescoped_spread(&self, seeds: &[u32]) -> f64 {
        self.model.telescoped_spread(seeds)
    }

    /// Marginal gain of `candidate` after committing `seeds` (in the
    /// given order) on top of the snapshot's own committed seeds; 0 when
    /// `candidate` is among either. Commit-free.
    pub fn gain_over(&self, seeds: &[u32], candidate: u32) -> f64 {
        self.model.gain_over(seeds, candidate)
    }

    /// Writes the snapshot byte format to `out`: the header, the arena
    /// verbatim, the CRC (continued from the header over the arena).
    /// Canonical: one trained state, one encoding. The arena is written
    /// straight from the model, so nothing is copied on the way.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let (header, arena) = (header(&self.model), self.model.arena());
        let crc = crc32c_append(crc32c(&header), arena);
        out.write_all(&header)?;
        out.write_all(arena)?;
        out.write_all(&crc.to_le_bytes())
    }

    /// Length in bytes of the encoding [`write_to`](Self::write_to) writes.
    pub fn encoded_len(&self) -> usize {
        HEADER + self.model.arena().len() + 4
    }

    /// Serializes to the snapshot byte format (see
    /// [`write_to`](Self::write_to)).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Deserializes and validates a snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        check_version(bytes)?;
        // A borrowed byte slice has arbitrary alignment; copy it into an
        // aligned buffer. (The zero-copy path is `load`.)
        Ok(Self::from_store(decode(Arc::new(AlignedBuf::from_bytes(bytes)))?))
    }

    /// Writes the snapshot to `path` via a sibling temp file + rename, so
    /// a crash mid-write never leaves a half-written snapshot in place.
    /// [`write_to`](Self::write_to) streams it straight from the model,
    /// so saving copies nothing: the file holds [`to_bytes`](Self::to_bytes).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        self.write_to(&mut file)?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Same as [`save`](Self::save); there is a single format.
    pub fn save_as(&self, path: &Path, _format: SnapshotFormat) -> Result<(), SnapshotError> {
        self.save(path)
    }

    /// Reads and validates a snapshot from `path`. The file is `mmap`ed
    /// where the platform allows (falling back to a single read), so the
    /// load cost is the header check + CRC + structural validation — no
    /// per-entry decode. The temp-file + rename discipline of
    /// [`save`](Self::save) is what makes mapping safe: a snapshot file
    /// is never rewritten in place.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let buf = AlignedBuf::map_or_read_file(path)?;
        check_version(&buf)?;
        Ok(Self::from_store(decode(Arc::new(buf))?))
    }
}

/// Locks a top-k session slot. A panic inside a session leaves it
/// half-advanced, so a poisoned slot is emptied and the next query
/// starts a fresh session.
fn lock(slot: &Mutex<Option<TopKSession>>) -> MutexGuard<'_, Option<TopKSession>> {
    slot.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        *guard = None;
        guard
    })
}

/// Checks the magic and version word without trusting anything else, so
/// a file of another version is named as such rather than reported as a
/// checksum mismatch.
fn check_version(bytes: &[u8]) -> Result<(), SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(SnapshotError::Truncated { needed: MAGIC.len() + 8, available: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    match u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()) {
        FORMAT_VERSION => Ok(()),
        v => Err(SnapshotError::UnsupportedVersion(v)),
    }
}

/// The fixed header of a compact selector's snapshot. The arena follows
/// at byte 96 (≡ 0 mod 8), so the written file reloads with zero copies
/// when mapped.
fn header(compact: &CompactSelector) -> Vec<u8> {
    let counts = compact.counts();
    let mut out = Vec::with_capacity(HEADER);
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
    push_u64(&mut out, compact.arena().len() as u64);
    debug_assert_eq!(out.len(), HEADER);
    out
}

/// Validates a buffer (magic and version already checked) and wraps its
/// arena zero-copy. Counts are bounds-checked here — before any layout
/// arithmetic — so resealed-garbage headers fail with a typed error
/// instead of an overflow or a giant allocation (the arena is never
/// copied, so there is nothing to allocate in the first place).
fn decode(buf: Arc<AlignedBuf>) -> Result<CompactSelector, SnapshotError> {
    #[cfg(not(target_endian = "little"))]
    {
        return Err(SnapshotError::Malformed(
            "snapshots are little-endian and cannot be loaded on a big-endian host".to_string(),
        ));
    }
    #[cfg(target_endian = "little")]
    {
        let bytes: &[u8] = &buf;
        if bytes.len() < HEADER + 4 {
            return Err(SnapshotError::Truncated { needed: HEADER + 4, available: bytes.len() });
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
        let arena_len = u64_at(88);
        if arena_len != counts.arena_len() as u64 {
            return Err(SnapshotError::Malformed(format!(
                "arena length {arena_len} does not match the header counts (expected {})",
                counts.arena_len()
            )));
        }
        let expected = HEADER + counts.arena_len() + 4;
        if bytes.len() < expected {
            return Err(SnapshotError::Truncated { needed: expected, available: bytes.len() });
        }
        if bytes.len() > expected {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the arena",
                bytes.len() - expected
            )));
        }

        CompactSelector::from_arena(buf, HEADER, counts, lambda).map_err(SnapshotError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_core::reference::CdSelector;
    use cdim_core::{scan, CreditPolicy};

    pub(super) fn trained_store() -> CompactSelector {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        scan(&ds.graph, &ds.log, &policy, 0.001).unwrap()
    }

    /// The tiny preset's model with `seeds` committed in order.
    fn trained_model(seeds: &[u32]) -> CompactSelector {
        let mut overlay = trained_store().overlay();
        for &s in seeds {
            overlay.update(s);
        }
        overlay.freeze()
    }

    #[test]
    fn serving_a_scanned_model_shares_its_arena() {
        let model = trained_store();
        let arena = model.arena().as_ptr();
        let snap = ModelSnapshot::from_store(model);
        assert_eq!(snap.model.arena().as_ptr(), arena, "from_store copied the arena");
        assert_eq!(snap.clone().model.arena().as_ptr(), arena, "clone copied the arena");
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
    fn bad_training_inputs_are_typed_errors_on_both_entry_points() {
        use cdim_core::{model::PolicyKind, CdModel, CdModelConfig, ScanError};
        // User 4 acts but the graph has 3 nodes: the inputs must be
        // refused before any DAG build, which would index past the graph.
        let graph = cdim_graph::GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut b = cdim_actionlog::ActionLogBuilder::new(5);
        b.push(0, 0, 0.0);
        b.push(4, 0, 1.0);
        let log = b.build();
        let universe = Some(ScanError::UserUniverseMismatch { graph_nodes: 3, log_users: 5 });
        for policy in [PolicyKind::Uniform, PolicyKind::TimeAware] {
            let config = CdModelConfig { policy, ..Default::default() };
            assert_eq!(CdModel::try_train(&graph, &log, config).err(), universe);
            assert_eq!(ModelSnapshot::build(&graph, &log, config).err(), universe);
            let config = CdModelConfig { lambda: f64::NAN, ..config };
            let nan = |e: Option<ScanError>| matches!(e, Some(ScanError::InvalidLambda { .. }));
            assert!(nan(CdModel::try_train(&graph, &log, config).err()));
            assert!(nan(ModelSnapshot::build(&graph, &log, config).err()));
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
        let snap = ModelSnapshot::from_store(trained_store());
        let picked = snap.top_k(2).seeds;
        let (x, y) = (picked[0], picked[1]);
        let single = snap.telescoped_spread(&[x]);
        assert!(single > 1.0, "σ({{{x}}}) = {single}");
        assert_eq!(snap.telescoped_spread(&[x, x]).to_bits(), single.to_bits());
        assert_eq!(
            snap.telescoped_spread(&[x, y, x]).to_bits(),
            snap.telescoped_spread(&[x, y]).to_bits()
        );
        assert_eq!(snap.gain_over(&[x], x), 0.0);
        assert_eq!(snap.gain_over(&[x, y], x), 0.0);

        // A seed committed into the snapshot itself is no candidate either.
        let committed = ModelSnapshot::from_store(trained_model(&[x]));
        assert_eq!(committed.single_marginal_gain(x), 0.0);
        assert_eq!(committed.telescoped_spread(&[x]), 0.0);
        assert_eq!(committed.gain_over(&[y], x), 0.0);
        let top = committed.top_k(4);
        assert_eq!(top.seeds[0], x);
        let mut distinct = top.seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "repeated seed in {:?}", top.seeds);
    }

    #[test]
    fn top_k_session_answers_any_order_of_budgets_like_fresh_runs() {
        let bytes = ModelSnapshot::from_store(trained_store()).to_bytes();
        let fresh = |k: usize| ModelSnapshot::from_bytes(&bytes).unwrap().top_k(k);
        let shared = Arc::new(ModelSnapshot::from_bytes(&bytes).unwrap());
        let before = shared.resident_bytes();
        let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [5usize, 50, 1, 20] {
            let (got, want) = (shared.top_k(k), fresh(k));
            assert_eq!(got.seeds, want.seeds, "k = {k}");
            assert_eq!(bits(&got.marginal_gains), bits(&want.marginal_gains), "k = {k}");
            assert_eq!(got.evaluations, want.evaluations, "k = {k}");
        }
        assert!(shared.resident_bytes() > before, "the session is counted");

        // Two threads racing on one snapshot's session agree.
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let snap = Arc::new(ModelSnapshot::from_bytes(&bytes).unwrap());
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let budgets = if t == 0 { [30usize, 3, 60] } else { [60, 30, 3] };
                    budgets.map(|k| (shared.top_k(k), snap.top_k(k)))
                })
            })
            .collect();
        for handle in threads {
            for (got, want) in handle.join().unwrap() {
                assert_eq!(got.seeds, want.seeds);
                assert_eq!(bits(&got.marginal_gains), bits(&want.marginal_gains));
                assert_eq!(got.evaluations, want.evaluations);
            }
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let snap = ModelSnapshot::from_store(trained_store());
        let bytes = snap.to_bytes();
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
        assert_eq!(snap.freeze().to_bytes(), bytes, "freezing does not change the encoding");
    }

    #[test]
    fn round_trip_preserves_mid_selection_state() {
        let seed = ModelSnapshot::from_store(trained_store()).top_k(1).seeds[0];
        let snap = ModelSnapshot::from_store(trained_model(&[seed]));
        let restored = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.committed_seeds(), 1);
        assert_eq!(restored.top_k(1).seeds, vec![seed]);
        // The hash-map oracle with the same seed committed walks its rows
        // in canonical order, so every gain is bit-exact.
        let mut oracle = CdSelector::new(trained_store());
        oracle.update(seed);
        for x in 0..snap.num_users() as u32 {
            let gain = restored.single_marginal_gain(x);
            assert_eq!(gain.to_bits(), oracle.compute_mg(x).to_bits(), "user {x}");
        }
    }

    #[test]
    fn file_round_trip() {
        let snap = ModelSnapshot::from_store(trained_store());
        let dir = std::env::temp_dir().join(format!("cdim_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        snap.save(&path).unwrap();
        // The streamed file is the encoding, byte for byte.
        assert_eq!(std::fs::read(&path).unwrap(), snap.to_bytes());
        let restored = ModelSnapshot::load(&path).unwrap();
        assert_eq!(restored.to_bytes(), snap.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let snap = ModelSnapshot::from_store(trained_store());
        let bytes = snap.to_bytes();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(ModelSnapshot::from_bytes(&bad), Err(SnapshotError::BadMagic)));

        // The version word is checked before the CRC, so no re-seal is
        // needed for the error to name it.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::trained_store;
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_core::reference::CdSelector;
    use cdim_core::{scan, CreditPolicy};
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    /// A random trained model over 10 users with `seeds` committed (so the
    /// SC entries and seed list are exercised too), and the hash-map
    /// oracle in the same state.
    fn random_model(
        edges: Vec<(u32, u32)>,
        events: &[(u32, u32, u64)],
        seeds: &[u32],
        time_aware: bool,
    ) -> (CompactSelector, CdSelector) {
        let graph = GraphBuilder::new(10).edges(edges).build();
        let mut b = ActionLogBuilder::new(10);
        for &(u, a, t) in events {
            b.push(u, a, t as f64);
        }
        let log = b.build();
        let policy =
            if time_aware { CreditPolicy::time_aware(&graph, &log) } else { CreditPolicy::Uniform };
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let mut overlay = store.overlay();
        let mut oracle = CdSelector::new(store);
        for &s in seeds {
            overlay.update(s);
            oracle.update(s);
        }
        (overlay.freeze(), oracle)
    }

    /// Re-seals a mutated file with a valid CRC-32C trailer, so the
    /// decoder gets past the checksum into structural validation.
    fn reseal(bytes: &mut [u8]) {
        if let Some(body) = bytes.len().checked_sub(4) {
            let crc = crc32c(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// The inc direction of a seedless model as `(action, target, sources)`
    /// rows in arena order, from the out entries it must mirror.
    fn inc_rows(model: &CompactSelector) -> Vec<(u32, u32, Vec<u32>)> {
        let mut rows: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        for a in 0..model.num_actions() as u32 {
            let mut pairs: Vec<(u32, u32)> =
                model.action(a).entries().map(|(v, u, _)| (u, v)).collect();
            pairs.sort_unstable();
            for (u, v) in pairs {
                match rows.last_mut() {
                    Some((b, w, sources)) if (*b, *w) == (a, u) => sources.push(v),
                    _ => rows.push((a, u, vec![v])),
                }
            }
        }
        rows
    }

    /// File offsets of a seedless snapshot's inc row offsets and inc
    /// sources: the arena's last two sections (see the `cdim_core::compact`
    /// layout), each 8-aligned, so each starts its padded size before the
    /// next. Checked against the rows the file must hold.
    fn inc_sections(bytes: &[u8], model: &CompactSelector) -> (usize, usize) {
        let counts = model.counts();
        assert_eq!((counts.sc_len, counts.seeds_len), (0, 0));
        let padded = |n: usize| (4 * n + 7) & !7;
        let sources = HEADER + counts.arena_len() - padded(counts.entries);
        let offsets = sources - padded(counts.inc_rows + 1);
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut at = 0;
        for (row, (_, _, sources_of_row)) in inc_rows(model).iter().enumerate() {
            assert_eq!(u32_at(offsets + 4 * row) as usize, at);
            for &v in sources_of_row {
                assert_eq!(u32_at(sources + 4 * at), v);
                at += 1;
            }
        }
        (offsets, sources)
    }

    /// Forgeries that keep every inc row strictly sorted, in range and
    /// free of self-pairs, and keep every count, so that only the mirror
    /// check can reject them.
    #[test]
    fn mirror_only_forgeries_are_malformed() {
        let model = trained_store();
        let users = model.num_users() as u32;
        let bytes = ModelSnapshot::from_store(model.clone()).to_bytes();
        let (offsets, sources) = inc_sections(&bytes, &model);
        let rows = inc_rows(&model);
        let expect_malformed = |mut forged: Vec<u8>, what: &str| {
            reseal(&mut forged);
            let got = ModelSnapshot::from_bytes(&forged);
            assert!(
                matches!(&got, Err(SnapshotError::Malformed(m)) if m.contains("do not mirror")),
                "{what}: {got:?}"
            );
        };

        // One source replaced by an unused id between its neighbours.
        let (at, id) = rows
            .iter()
            .flat_map(|(_, u, row)| {
                (0..row.len()).map(move |k| {
                    let low = if k == 0 { 0 } else { row[k - 1] + 1 };
                    let high = row.get(k + 1).copied().unwrap_or(users);
                    (low..high).find(|&w| w != row[k] && w != *u)
                })
            })
            .enumerate()
            .find_map(|(at, id)| id.map(|id| (at, id)))
            .expect("a source with room beside it");
        let mut forged = bytes.clone();
        forged[sources + 4 * at..sources + 4 * at + 4].copy_from_slice(&id.to_le_bytes());
        expect_malformed(forged, "substituted source");

        // The last source of one row moved to the front of the next row
        // of the same action, by moving the offset between them.
        let row = (0..rows.len() - 1)
            .find(|&r| {
                let ((a, _, this), (b, u, next)) = (&rows[r], &rows[r + 1]);
                let v = *this.last().unwrap();
                a == b && this.len() >= 2 && v < next[0] && v != *u
            })
            .expect("two rows of one action with room to move a source");
        let at = offsets + 4 * (row + 1);
        let mut forged = bytes.clone();
        let moved = u32::from_le_bytes(forged[at..at + 4].try_into().unwrap()) - 1;
        forged[at..at + 4].copy_from_slice(&moved.to_le_bytes());
        expect_malformed(forged, "source moved to the next row");
    }

    proptest! {
        /// save → load is lossless over random trained stores (both
        /// policies, with and without committed seeds): the re-encoding
        /// is byte-identical and every marginal gain equals the hash-map
        /// oracle's in the same state, bit for bit.
        #[test]
        fn random_trained_stores_round_trip(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..50),
            events in proptest::collection::vec((0u32..10, 0u32..4, 0u64..20), 1..60),
            seeds in proptest::sample::subsequence((0u32..10).collect::<Vec<_>>(), 0..3),
            time_aware in proptest::bool::ANY,
        ) {
            let (model, oracle) = random_model(edges, &events, &seeds, time_aware);
            let snap = ModelSnapshot::from_store(model);
            let bytes = snap.to_bytes();
            let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(restored.to_bytes(), bytes);
            prop_assert_eq!(restored.committed_seeds(), seeds.len());
            for x in 0..10u32 {
                prop_assert_eq!(
                    restored.single_marginal_gain(x).to_bits(),
                    oracle.compute_mg(x).to_bits()
                );
            }
        }

        /// Untrusted bytes never panic the decoder: a random truncation, a
        /// random byte overwrite, and every header count overwritten with
        /// boundary and random `u64`s — each re-sealed with a valid CRC —
        /// decode to `Ok` or a typed error.
        #[test]
        fn resealed_mutations_decode_or_fail_typed(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
            events in proptest::collection::vec((0u32..10, 0u32..4, 0u64..20), 1..40),
            seeds in proptest::sample::subsequence((0u32..10).collect::<Vec<_>>(), 0..2),
            cut in 0u64..u64::MAX,
            at in 0u64..u64::MAX,
            value in 0u64..u64::MAX,
        ) {
            let bytes = ModelSnapshot::from_store(random_model(edges, &events, &seeds, true).0)
                .to_bytes();
            let mut mutants = Vec::new();

            let mut truncated = bytes[..(cut % bytes.len() as u64) as usize].to_vec();
            reseal(&mut truncated);
            mutants.push(truncated);

            let mut overwritten = bytes.clone();
            overwritten[(at % (bytes.len() as u64 - 4)) as usize] = value as u8;
            reseal(&mut overwritten);
            mutants.push(overwritten);

            // The eight counts and the arena length, offsets 24..96.
            for field in (24..HEADER).step_by(8) {
                for count in [value, u64::MAX, u64::from(u32::MAX) - 1, value % 4096] {
                    let mut forged = bytes.clone();
                    forged[field..field + 8].copy_from_slice(&count.to_le_bytes());
                    reseal(&mut forged);
                    mutants.push(forged);
                }
            }
            for mutant in &mutants {
                if let Ok(snap) = ModelSnapshot::from_bytes(mutant) {
                    // Whatever validated must also answer queries.
                    snap.top_k(2);
                }
            }
        }
    }
}
