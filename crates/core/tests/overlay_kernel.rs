//! State-level bit-identity of the compact engine's Algorithm-5 update
//! against the hash-map oracle, on the golden presets.
//!
//! The overlay's CELF seeds are replayed on [`CdSelector`]: after every
//! commit, the overlay's live credits and SC map (laid out by `freeze`)
//! must equal [`CdSelector::dump`] entry for entry, bit for bit, and every
//! user's marginal gain must agree bit for bit — the values each CELF
//! re-evaluation reads. Each committed gain, the first-round one
//! included, is the oracle's gain of that seed. The selections themselves
//! (seeds, evaluation counts, gain bits) must equal pinned checksums. The
//! commit-free σ_cd and gain queries must equal the commit loop they
//! replace.

use cdim_core::reference::{self, CdSelector};
use cdim_core::{scan, CompactSelector, CreditPolicy};
use cdim_datagen::presets;
use cdim_maxim::Selection;
use cdim_util::checksum::crc32c;

/// Seeds committed per case.
const K: usize = 10;

/// CRC-32C of each case's `top_k(K)` answer (see [`answer_crc`]).
const PINNED: [(&str, u32); 8] = [
    ("tiny time_aware=false lambda=0", 0xc087_8377),
    ("tiny time_aware=false lambda=0.001", 0xc087_8377),
    ("tiny time_aware=true lambda=0", 0x6157_5062),
    ("tiny time_aware=true lambda=0.001", 0xa63e_5b26),
    ("flixster_small_div8 time_aware=false lambda=0", 0xa3c0_8198),
    ("flixster_small_div8 time_aware=false lambda=0.001", 0xf6c9_e648),
    ("flixster_small_div8 time_aware=true lambda=0", 0xe25a_fa2d),
    ("flixster_small_div8 time_aware=true lambda=0.001", 0x64ee_4a62),
];

/// Freshly scanned models of each preset × policy × λ, named.
fn cases() -> Vec<(String, CompactSelector)> {
    let mut cases = Vec::new();
    for preset in ["tiny", "flixster_small_div8"] {
        let ds = match preset {
            "tiny" => presets::tiny(),
            _ => presets::flixster_small().scaled_down(8),
        }
        .generate();
        for time_aware in [false, true] {
            let policy = if time_aware {
                CreditPolicy::time_aware(&ds.graph, &ds.log)
            } else {
                CreditPolicy::Uniform
            };
            for lambda in [0.0, 0.001] {
                let case = format!("{preset} time_aware={time_aware} lambda={lambda}");
                cases.push((case, scan(&ds.graph, &ds.log, &policy, lambda).unwrap()));
            }
        }
    }
    cases
}

/// CRC-32C over a selection's seeds (u32 LE), gain bits (u64 LE) and
/// evaluation count (u64 LE), in that order.
fn answer_crc(sel: &Selection) -> u32 {
    let mut bytes = Vec::new();
    for &s in &sel.seeds {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    for g in &sel.marginal_gains {
        bytes.extend_from_slice(&g.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&(sel.evaluations as u64).to_le_bytes());
    crc32c(&bytes)
}

#[test]
fn overlay_state_matches_the_oracle_after_every_seed() {
    for (case, model) in cases() {
        let sel = model.overlay().select(K);
        assert_eq!(sel.seeds.len(), K, "{case}: seeds");
        let mut oracle = CdSelector::new(model.clone());
        let mut overlay = model.overlay();
        for (&s, gain) in sel.seeds.iter().zip(&sel.marginal_gains) {
            let want = oracle.compute_mg(s);
            assert_eq!(gain.to_bits(), want.to_bits(), "{case}: gain of {s}");
            oracle.update(s);
            overlay.update(s);
            assert!(
                reference::dump_bits(&reference::dump_of(&overlay.freeze()))
                    == reference::dump_bits(&oracle.dump()),
                "{case}: state differs after committing {s}"
            );
            for x in 0..model.num_users() as u32 {
                let (got, want) = (overlay.compute_mg(x), oracle.compute_mg(x));
                assert_eq!(got.to_bits(), want.to_bits(), "{case}: gain of {x} after {s}");
            }
        }
    }
}

/// The compact top-k answers equal constants recorded from the engine
/// when it and the hash-map selector still ran the same CELF driver and
/// agreed, so the answers stay pinned without a second engine. They were
/// re-recorded once, when CELF's first round took `compute_mg`'s
/// summation order: the seeds and evaluation counts held, and only each
/// case's first gain moved, by a few ulps.
#[test]
fn top_k_answers_match_pinned_checksums() {
    let got: Vec<(String, u32)> = cases()
        .into_iter()
        .map(|(case, model)| (case, answer_crc(&model.overlay().select(K))))
        .collect();
    let want: Vec<(String, u32)> =
        PINNED.iter().map(|&(case, crc)| (case.to_string(), crc)).collect();
    assert_eq!(got, want);
}

/// The commit-free σ_cd and gain queries equal the overlay's commit loop
/// bit for bit, on models with and without committed seeds, for sequences
/// that repeat users and name committed ones.
#[test]
fn commit_free_queries_match_the_commit_loop() {
    for preset in ["tiny", "flixster_small_div8"] {
        let ds = match preset {
            "tiny" => presets::tiny(),
            _ => presets::flixster_small().scaled_down(8),
        }
        .generate();
        for lambda in [0.0, 0.001] {
            let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
            let model = scan(&ds.graph, &ds.log, &policy, lambda).unwrap();
            let top = model.overlay().select(K).seeds;
            for committed in [0usize, 2] {
                let case = format!("{preset} lambda={lambda} committed={committed}");
                let mut sel = model.overlay();
                for &s in &top[..committed] {
                    sel.update(s);
                }
                let compact = sel.freeze();
                let mut sequences: Vec<Vec<u32>> = (2..=K).map(|n| top[..n].to_vec()).collect();
                sequences.push(vec![top[3], top[2], top[3], top[0], top[2]]);
                sequences.push(top.iter().rev().copied().collect());
                for q in &sequences {
                    let mut overlay = compact.overlay();
                    let mut total = 0.0;
                    for (i, &s) in q.iter().enumerate() {
                        total += overlay.compute_mg(s);
                        if i + 1 < q.len() {
                            overlay.update(s);
                        }
                    }
                    assert_eq!(
                        compact.telescoped_spread(q).to_bits(),
                        total.to_bits(),
                        "{case}: spread of {q:?}"
                    );
                    overlay.update(*q.last().unwrap());
                    for x in (0..compact.num_users() as u32).step_by(7).chain(top.iter().copied()) {
                        assert_eq!(
                            compact.gain_over(q, x).to_bits(),
                            overlay.compute_mg(x).to_bits(),
                            "{case}: gain of {x} over {q:?}"
                        );
                    }
                }
            }
        }
    }
}
