//! The restart point: a model snapshot bound to a log position.
//!
//! A follower that restarts must not rescan the log — the whole point of
//! the incremental pipeline is that training cost tracks the *delta*, not
//! the history. The checkpoint is therefore a single atomically-replaced
//! file holding everything a fresh process needs: the trained
//! [`ModelSnapshot`] (self-validating, see [`cdim_serve::snapshot`]), the
//! byte offset/line count of the first log record *not yet folded into
//! that snapshot*, and the batcher's applied watermark (the highest
//! external action id in the snapshot — snapshots store credits, not
//! external ids, so the watermark must travel alongside).
//!
//! ## Layout (version 3)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CDIMCKPT"
//! 8       4     format version (u32) = 3
//! 12      8     log byte offset (u64)
//! 20      8     log lines consumed (u64)
//! 28      8     watermark (u64): 0 = none, else external id + 1
//! 36      8     snapshot length (u64)
//! 44      …     embedded model snapshot (its own magic/CRC inside)
//! …       8     window entries (u64)
//! …       …     per entry: external id (u32), tuple count n (u32),
//!               then n × (user (u32), time (f64 bits, u64))
//! end-4   4     CRC-32C (Castagnoli) over every preceding byte
//! ```
//!
//! The window section is the sliding-window tuple buffer: one entry per
//! action still inside the served model, oldest first, holding exactly
//! the (user, time) slices the action was trained from. A restarted
//! driver needs them to rebuild expired-prefix deltas for
//! [`cdim_serve::InfluenceService::retract_delta`]; an unbounded run
//! writes zero entries.
//!
//! Versions 1 and 2 embedded the retired version-1 snapshot encoding
//! under a CRC-32 (IEEE) trailer; they are refused with an error naming
//! both versions, checked before the checksum. Every length read from the
//! file is bounds-checked against the bytes that follow it, so a forged
//! header yields [`IngestError::Checkpoint`], never a panic or an
//! allocation beyond the file length.
//!
//! One file, written via temp + rename: a crash leaves either the old
//! checkpoint or the new one, never a torn pair of snapshot and position.

use crate::error::IngestError;
use cdim_serve::ModelSnapshot;
use cdim_util::checksum::crc32c;
use std::path::Path;

/// File magic.
pub const MAGIC: [u8; 8] = *b"CDIMCKPT";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 3;

/// One action of the sliding-window tuple buffer: the exact (user, time)
/// slices the action was trained from, keyed by its external log id.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowEntry {
    /// External action id from the log (ascending across the buffer).
    pub external: u32,
    /// Users of the action, in the trained (time, user) order.
    pub users: Vec<u32>,
    /// Activation times, parallel to `users`.
    pub times: Vec<f64>,
}

/// A resumable follower state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The trained model at this point of the log.
    pub snapshot: ModelSnapshot,
    /// Byte offset of the first log record not covered by `snapshot`.
    pub offset: u64,
    /// Complete lines consumed up to `offset` (diagnostics continuity).
    pub lines: u64,
    /// Highest external action id folded into `snapshot`.
    pub watermark: Option<u32>,
    /// Sliding-window tuple buffer, oldest action first (empty for
    /// unbounded runs).
    pub window: Vec<WindowEntry>,
}

impl Checkpoint {
    /// Serializes to the container format, writing the snapshot straight
    /// into the one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let snap_len = self.snapshot.encoded_len();
        let window_len: usize = self.window.iter().map(|e| 8 + 12 * e.users.len()).sum();
        let mut out = Vec::with_capacity(44 + snap_len + 8 + window_len + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.lines.to_le_bytes());
        let watermark = match self.watermark {
            None => 0u64,
            Some(id) => u64::from(id) + 1,
        };
        out.extend_from_slice(&watermark.to_le_bytes());
        out.extend_from_slice(&(snap_len as u64).to_le_bytes());
        self.snapshot.write_to(&mut out).expect("writing to a Vec cannot fail");
        out.extend_from_slice(&(self.window.len() as u64).to_le_bytes());
        for entry in &self.window {
            out.extend_from_slice(&entry.external.to_le_bytes());
            out.extend_from_slice(&(entry.users.len() as u32).to_le_bytes());
            for (&u, &t) in entry.users.iter().zip(&entry.times) {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&t.to_bits().to_le_bytes());
            }
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes and validates a checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IngestError> {
        let header = MAGIC.len() + 4 + 8 + 8 + 8 + 8;
        if bytes.len() < header + 4 {
            return Err(IngestError::Checkpoint(format!(
                "file of {} bytes is too short to be a checkpoint",
                bytes.len()
            )));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(IngestError::Checkpoint("bad magic".into()));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(IngestError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads version \
                 {FORMAT_VERSION} only; delete the checkpoint to retrain from the log)"
            )));
        }
        // Everything below reads at most up to the CRC trailer.
        let end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[end..].try_into().unwrap());
        let computed = crc32c(&bytes[..end]);
        if stored != computed {
            return Err(IngestError::Checkpoint(format!(
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        let offset = u64_at(12);
        let lines = u64_at(20);
        let watermark = match u64_at(28) {
            0 => None,
            id => Some(
                u32::try_from(id - 1)
                    .map_err(|_| IngestError::Checkpoint(format!("watermark {id} out of range")))?,
            ),
        };
        // `at + len` for a `len` of `what` read from the file, if the
        // bytes before the trailer hold it.
        let span = |at: usize, len: u64, what: &str| {
            usize::try_from(len)
                .ok()
                .and_then(|len| at.checked_add(len))
                .filter(|&stop| stop <= end)
                .ok_or_else(|| {
                    IngestError::Checkpoint(format!("{what} of {len} bytes overruns the file"))
                })
        };
        let snap_end = span(header, u64_at(36), "snapshot")?;
        let snapshot = ModelSnapshot::from_bytes(&bytes[header..snap_end])?;
        let mut at = span(snap_end, 8, "window section")?;
        let entries = u64_at(snap_end);
        // Each entry takes at least 8 bytes, which bounds the allocation.
        let mut window = Vec::with_capacity(entries.min(((end - at) / 8) as u64) as usize);
        for _ in 0..entries {
            let next = span(at, 8, "window entry")?;
            let external = u32_at(at);
            let n = u32_at(at + 4);
            at = next;
            let stop = span(at, u64::from(n) * 12, "window entry")?;
            let (users, times) = bytes[at..stop]
                .chunks_exact(12)
                .map(|t| {
                    let user = u32::from_le_bytes(t[..4].try_into().unwrap());
                    (user, f64::from_bits(u64::from_le_bytes(t[4..].try_into().unwrap())))
                })
                .unzip();
            window.push(WindowEntry { external, users, times });
            at = stop;
        }
        if at != end {
            return Err(IngestError::Checkpoint(format!(
                "{} trailing bytes after the window section",
                end - at
            )));
        }
        Ok(Checkpoint { snapshot, offset, lines, watermark, window })
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), IngestError> {
        let tmp = path.with_extension("ckpt_tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, IngestError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_core::{scan, CreditPolicy};
    use cdim_graph::GraphBuilder;

    pub(super) fn sample() -> Checkpoint {
        let graph = GraphBuilder::new(4).edges([(0, 1), (1, 2), (0, 3)]).build();
        let mut b = ActionLogBuilder::new(4);
        b.push(0, 3, 0.0);
        b.push(1, 3, 1.0);
        b.push(2, 8, 0.5);
        let log = b.build();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        Checkpoint {
            snapshot: ModelSnapshot::from_store(store),
            offset: 1234,
            lines: 56,
            watermark: Some(8),
            window: vec![
                WindowEntry { external: 3, users: vec![0, 1], times: vec![0.0, 1.0] },
                WindowEntry { external: 8, users: vec![2], times: vec![0.5] },
            ],
        }
    }

    #[test]
    fn round_trips_bytes_and_fields() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored.offset, 1234);
        assert_eq!(restored.lines, 56);
        assert_eq!(restored.watermark, Some(8));
        assert_eq!(restored.snapshot.to_bytes(), ckpt.snapshot.to_bytes());
        assert_eq!(restored.window, ckpt.window);
        assert_eq!(restored.to_bytes(), bytes);

        let fresh = Checkpoint { watermark: None, window: Vec::new(), ..ckpt };
        let restored = Checkpoint::from_bytes(&fresh.to_bytes()).unwrap();
        assert_eq!(restored.watermark, None);
        assert!(restored.window.is_empty());
    }

    /// Re-seals a mutated checkpoint with a valid CRC-32C trailer, so the
    /// decoder gets past the checksum into the length checks.
    pub(super) fn reseal(bytes: &mut [u8]) {
        if let Some(body) = bytes.len().checked_sub(4) {
            let crc = crc32c(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
        }
    }

    #[test]
    fn older_versions_are_refused_with_both_versions_named() {
        // Versions 1 and 2 embedded the retired snapshot encoding under an
        // IEEE CRC; the version word alone must reject them, not the CRC.
        for version in [1u32, 2] {
            let mut old = sample().to_bytes();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let err = Checkpoint::from_bytes(&old).unwrap_err();
            assert!(matches!(err, IngestError::Checkpoint(_)), "{err:?}");
            let message = err.to_string();
            assert!(message.contains(&format!("version {version}")), "{message}");
            assert!(message.contains(&FORMAT_VERSION.to_string()), "{message}");
        }
    }

    #[test]
    fn forged_snapshot_length_is_a_typed_error() {
        // Lengths past the file, including ones where `header + len`
        // overflows, are refused before anything is sliced.
        for len in [u64::MAX, u64::MAX - 40, u64::from(u32::MAX), 1 << 40] {
            let mut bytes = sample().to_bytes();
            bytes[36..44].copy_from_slice(&len.to_le_bytes());
            reseal(&mut bytes);
            assert!(
                matches!(Checkpoint::from_bytes(&bytes), Err(IngestError::Checkpoint(_))),
                "snapshot length {len}"
            );
        }
    }

    #[test]
    fn file_round_trip_is_atomic_write() {
        let dir = std::env::temp_dir().join(format!("cdim_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        assert!(!path.with_extension("ckpt_tmp").exists(), "temp file renamed away");
        let restored = Checkpoint::load(&path).unwrap();
        assert_eq!(restored.to_bytes(), ckpt.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v3 encoding of a checkpoint with a window and a watermark is
    /// pinned by its length and CRC-32C trailer, and `save` writes exactly
    /// those bytes. (The CRC of a whole file is the same for every file,
    /// since the trailer seals it, so the pin is the trailer's.)
    #[test]
    fn v3_encoding_is_pinned_and_saved_verbatim() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(trailer, crc32c(body).to_le_bytes());
        assert_eq!((bytes.len(), crc32c(body)), (368, 0xf846_77fe));

        let dir = std::env::temp_dir().join(format!("cdim_ckpt_pin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        ckpt.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Checkpoint::from_bytes(&bad), Err(IngestError::Checkpoint(_))));

        let mut bad = bytes.clone();
        bad[20] ^= 0x10; // lines field → CRC mismatch
        assert!(matches!(Checkpoint::from_bytes(&bad), Err(IngestError::Checkpoint(_))));

        for len in [0, 10, 47, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{reseal, sample};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Untrusted bytes never panic the decoder: a random truncation, a
        /// random byte overwrite, and every header count (log offset, lines,
        /// watermark, snapshot length, window entries, first tuple count)
        /// overwritten with boundary and random `u64`s — each re-sealed
        /// with a valid CRC — decode to `Ok` or a typed error.
        #[test]
        fn resealed_mutations_decode_or_fail_typed(
            cut in 0u64..u64::MAX,
            at in 0u64..u64::MAX,
            value in 0u64..u64::MAX,
        ) {
            let bytes = sample().to_bytes();
            let mut mutants = Vec::new();

            let mut truncated = bytes[..(cut % bytes.len() as u64) as usize].to_vec();
            reseal(&mut truncated);
            mutants.push(truncated);

            let mut overwritten = bytes.clone();
            overwritten[(at % (bytes.len() as u64 - 4)) as usize] = value as u8;
            reseal(&mut overwritten);
            mutants.push(overwritten);

            let snap_len = u64::from_le_bytes(bytes[36..44].try_into().unwrap()) as usize;
            let window = 44 + snap_len;
            for field in [12, 20, 28, 36, window, window + 12] {
                for count in [value, u64::MAX, u64::from(u32::MAX), value % 4096] {
                    let mut forged = bytes.clone();
                    forged[field..field + 8].copy_from_slice(&count.to_le_bytes());
                    reseal(&mut forged);
                    mutants.push(forged);
                }
            }
            for mutant in &mutants {
                match Checkpoint::from_bytes(mutant) {
                    Ok(_) | Err(IngestError::Checkpoint(_)) | Err(IngestError::Snapshot(_)) => {}
                    Err(other) => panic!("untyped checkpoint error {other:?}"),
                }
            }
        }
    }
}
