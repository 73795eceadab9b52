//! Serving failure paths: snapshot files that must be rejected —
//! corrupted, truncated, resealed garbage, other format versions — each
//! with a typed error, and the publish/query race: clients must always
//! see a complete model, old or new, never a torn one.

use cdim_core::reference::{self, CdSelector};
use cdim_core::{scan, CompactSelector, CreditPolicy, Parallelism};
use cdim_serve::{Answer, InfluenceService, ModelSnapshot, Query, SnapshotError};
use cdim_util::checksum::crc32c;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The model scanned from the deterministic tiny preset.
fn store() -> CompactSelector {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    scan(&ds.graph, &ds.log, &policy, 0.001).unwrap()
}

/// The tiny preset's model with its top seed committed, so the SC
/// entries and seed list are non-empty.
fn model() -> CompactSelector {
    let mut overlay = store().overlay();
    let seed = overlay.clone().select(1).seeds[0];
    overlay.update(seed);
    overlay.freeze()
}

fn snapshot() -> ModelSnapshot {
    ModelSnapshot::from_store(model())
}

/// Re-seals a mutated body with a valid CRC-32C trailer, so the decoder
/// exercises structural validation instead of the checksum.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32c(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn future_version_is_rejected_with_both_versions_named() {
    // A future version, the retired per-entry version 1, and 0.
    for version in [7u32, 1, 0] {
        let mut bytes = snapshot().to_bytes();
        // Version word sits right after the 8-byte magic.
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bytes);
        match ModelSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::UnsupportedVersion(v)) if v == version => {}
            other => panic!("expected UnsupportedVersion({version}), got {other:?}"),
        }
        let message = ModelSnapshot::from_bytes(&bytes).unwrap_err().to_string();
        assert!(
            message.contains(&format!("version {version}")),
            "message must name the file version: {message}"
        );
        assert!(
            message.contains(&cdim_serve::snapshot::FORMAT_VERSION.to_string()),
            "message must name the supported version: {message}"
        );
    }
}

#[test]
fn round_trips_and_loads_zero_copy() {
    let snap = snapshot();
    let bytes = snap.to_bytes();
    let dir = std::env::temp_dir().join(format!("cdim_failpaths_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.snap");
    snap.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "save must write to_bytes verbatim");

    let loaded = ModelSnapshot::load(&path).unwrap();
    assert_eq!(loaded.to_bytes(), bytes, "re-encoding must be canonical");
    assert!(loaded.resident_bytes() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn from_bytes_handles_arbitrary_alignment() {
    // `from_bytes` receives a borrowed slice at whatever alignment the
    // caller has; pad the front to force every misalignment 1..8.
    let bytes = snapshot().to_bytes();
    for shift in 1..8 {
        let mut padded = vec![0u8; shift];
        padded.extend_from_slice(&bytes);
        let loaded = ModelSnapshot::from_bytes(&padded[shift..]).unwrap();
        assert_eq!(loaded.to_bytes(), bytes, "misalignment {shift}");
    }
}

#[test]
fn mid_stream_corruption_is_always_detected() {
    let bytes = snapshot().to_bytes();
    // Flip one bit at every 97th offset — header, arena, and trailer
    // alike — and demand a hard error every time.
    for at in (8..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        match ModelSnapshot::from_bytes(&bad) {
            Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed, "offset {at}");
            }
            // The version word is read before the payload is trusted.
            Err(SnapshotError::UnsupportedVersion(_)) if (8..12).contains(&at) => {}
            other => panic!("corruption at {at} must fail loudly, got {other:?}"),
        }
    }
}

#[test]
fn every_truncation_is_a_clean_error() {
    let bytes = snapshot().to_bytes();
    for len in (0..bytes.len()).step_by(7) {
        assert!(
            ModelSnapshot::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len} bytes decoded successfully"
        );
    }
}

#[test]
fn nonzero_reserved_word_is_rejected() {
    let mut bytes = snapshot().to_bytes();
    bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
}

#[test]
fn absurd_header_counts_fail_without_allocating() {
    // num_users is the first u64 count, at offset 24. Claiming u32::MAX
    // users with a valid CRC must be rejected structurally, not by a
    // giant allocation or overflowing layout arithmetic.
    let mut bytes = snapshot().to_bytes();
    bytes[24..32].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
}

#[test]
fn arena_length_mismatch_is_rejected() {
    // The arena length word (offset 88) must agree with the counts.
    let mut bytes = snapshot().to_bytes();
    let stored = u64::from_le_bytes(bytes[88..96].try_into().unwrap());
    bytes[88..96].copy_from_slice(&(stored + 8).to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = snapshot().to_bytes();
    let at = bytes.len() - 4;
    bytes.splice(at..at, [0u8; 8]); // 8 junk bytes between arena and CRC
    reseal(&mut bytes);
    assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
}

#[test]
fn resealed_structural_garbage_is_rejected() {
    // A validly-checksummed arena whose first ua_offsets entry is not 0:
    // the CRC passes, structural validation must still reject it.
    let mut bytes = snapshot().to_bytes();
    bytes[96..100].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(ModelSnapshot::from_bytes(&bytes), Err(SnapshotError::Malformed(_))));
}

#[test]
fn corrupt_file_on_disk_fails_cleanly() {
    let snap = snapshot();
    let dir = std::env::temp_dir().join(format!("cdim_failpaths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.snap");
    snap.save(&path).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ModelSnapshot::load(&path).is_err());

    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x80;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(ModelSnapshot::load(&path), Err(SnapshotError::ChecksumMismatch { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loaded_model_answers_like_the_canonical_mutable_model() {
    // The dump fixes the traversal order, so the arena laid out from the
    // hash-map oracle's dump (the same seed committed) is the bit-exact
    // reference for the compact engine a load produces.
    let model = model();
    let mut oracle = CdSelector::new(store());
    oracle.update(model.seeds()[0]);
    let canonical = ModelSnapshot::from_store(reference::arena_of(&oracle.dump()));
    let loaded = ModelSnapshot::from_bytes(&canonical.to_bytes()).unwrap();
    assert_eq!(loaded.to_bytes(), ModelSnapshot::from_store(model).to_bytes());
    assert_eq!(canonical.lambda().to_bits(), loaded.lambda().to_bits());
    assert_eq!(canonical.committed_seeds(), loaded.committed_seeds());

    let (s1, s2) = (canonical.top_k(3), loaded.top_k(3));
    assert_eq!(s1.seeds, s2.seeds);
    let bits = |gains: &[f64]| gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&s1.marginal_gains), bits(&s2.marginal_gains));

    for x in 0..canonical.num_users() as u32 {
        assert_eq!(
            canonical.single_marginal_gain(x).to_bits(),
            loaded.single_marginal_gain(x).to_bits(),
            "single_marginal_gain({x})"
        );
        assert_eq!(
            canonical.gain_over(&s1.seeds, x).to_bits(),
            loaded.gain_over(&s2.seeds, x).to_bits(),
            "gain_over({x})"
        );
    }
    assert_eq!(
        canonical.telescoped_spread(&s1.seeds).to_bits(),
        loaded.telescoped_spread(&s2.seeds).to_bits()
    );
}

/// The answer a fresh single-use service computes for `q` on `snap` —
/// the bitwise ground truth a concurrent client must match exactly.
fn expected_answer(snap: &ModelSnapshot, q: &Query) -> Answer {
    InfluenceService::new(snap.clone(), 0).query(q).unwrap()
}

#[test]
fn publish_delta_racing_queries_shows_old_or_new_never_torn() {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::Uniform;
    let split = ds.log.num_actions() * 4 / 5;
    let (prefix, delta) = ds.log.split_at_action(split);

    let old_snap = ModelSnapshot::from_store(scan(&ds.graph, &prefix, &policy, 0.001).unwrap());
    let new_snap = old_snap.extend(&ds.graph, &delta, &policy, Parallelism::fixed(2)).unwrap();

    // Queries whose answers genuinely differ across the refresh.
    let queries: Vec<Query> = vec![
        Query::Spread { seeds: vec![0, 1, 2, 3] },
        Query::Spread { seeds: vec![5, 9, 17] },
        Query::MarginalGain { seeds: vec![0, 1], candidate: 7 },
    ];
    let old_answers: Vec<Answer> = queries.iter().map(|q| expected_answer(&old_snap, q)).collect();
    let new_answers: Vec<Answer> = queries.iter().map(|q| expected_answer(&new_snap, q)).collect();
    assert_ne!(old_answers, new_answers, "refresh must change at least one answer");

    let svc = Arc::new(InfluenceService::new(old_snap, 64));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut observed = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    for q in &queries {
                        observed.push(svc.query(q).unwrap());
                    }
                }
                observed
            })
        })
        .collect();

    // Let the readers warm up against the old model, then hot-swap.
    std::thread::sleep(std::time::Duration::from_millis(20));
    svc.publish_delta(&ds.graph, &delta, &policy, Parallelism::fixed(2)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);

    for reader in readers {
        let observed = reader.join().unwrap();
        assert!(!observed.is_empty());
        for (i, answer) in observed.into_iter().enumerate() {
            let slot = i % queries.len();
            assert!(
                answer == old_answers[slot] || answer == new_answers[slot],
                "query {slot} observed a torn answer: {answer:?}\n  old: {:?}\n  new: {:?}",
                old_answers[slot],
                new_answers[slot]
            );
        }
    }

    // After the swap the service answers from the new model only.
    for (q, expect) in queries.iter().zip(&new_answers) {
        assert_eq!(&svc.query(q).unwrap(), expect);
    }
    assert_eq!(svc.stats().snapshots_published, 1);
}

#[test]
fn publish_delta_rejects_stale_deltas_and_keeps_serving() {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::Uniform;
    let split = ds.log.num_actions() / 2;
    let (prefix, _) = ds.log.split_at_action(split);
    let snap = ModelSnapshot::from_store(scan(&ds.graph, &prefix, &policy, 0.001).unwrap());
    let svc = InfluenceService::new(snap, 8);

    let q = Query::Spread { seeds: vec![0, 1] };
    let before = svc.query(&q).unwrap();

    // A delta cut against the wrong base must be refused atomically…
    let stale = ds.log.delta_range(split + 1, ds.log.num_actions());
    assert!(svc.publish_delta(&ds.graph, &stale, &policy, Parallelism::auto()).is_err());
    // …leaving the served model untouched.
    assert_eq!(svc.query(&q).unwrap(), before);
    assert_eq!(svc.stats().snapshots_published, 0);
}

#[test]
fn extended_snapshot_round_trips_through_the_file_format() {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::Uniform;
    let (prefix, delta) = ds.log.split_at_action(ds.log.num_actions() / 2);

    // A mid-campaign snapshot (committed seed) extended by a delta must
    // survive save/load byte-identically like any other snapshot.
    let mut overlay = scan(&ds.graph, &prefix, &policy, 0.001).unwrap().overlay();
    let seed = overlay.clone().select(1).seeds[0];
    overlay.update(seed);
    let snap = ModelSnapshot::from_store(overlay.freeze())
        .extend(&ds.graph, &delta, &policy, Parallelism::fixed(3))
        .unwrap();
    let bytes = snap.to_bytes();
    let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(restored.to_bytes(), bytes);
    assert_eq!(restored.committed_seeds(), 1);
    assert_eq!(restored.top_k(1).seeds, vec![seed]);
}
